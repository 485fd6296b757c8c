//! Plain-text rendering of the tables and figures.

use pdf_tokens::TokenInventory;

use crate::experiments::{
    DictStudyRow, DiscoveryRow, Fig2Row, Fig3Cell, GrammarMineRow, GrammarStudyRow, HeadlineRow,
    MinedInventoryRow,
};
use crate::runner::{CellOutcome, Tool};

/// Renders Table 1 as aligned text.
pub fn render_table1(rows: &[(&'static str, &'static str, usize)]) -> String {
    let mut out = String::from("Table 1. The subjects used for the evaluation.\n");
    out.push_str(&format!(
        "{:<10} {:<12} {:>14}\n",
        "Name", "Accessed", "Lines of Code"
    ));
    for (name, accessed, loc) in rows {
        out.push_str(&format!("{name:<10} {accessed:<12} {loc:>14}\n"));
    }
    out
}

/// Renders Figure 2 as an aligned coverage table (percent per tool).
pub fn render_fig2(rows: &[Fig2Row]) -> String {
    let mut out = String::from("Figure 2. Obtained coverage per subject and tool (percent).\n");
    out.push_str(&format!("{:<10}", "Subject"));
    for tool in Tool::ALL {
        out.push_str(&format!("{:>10}", tool.name()));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:<10}", row.subject));
        for pct in row.coverage {
            out.push_str(&format!("{pct:>10.1}"));
        }
        out.push('\n');
    }
    out
}

/// Renders a token inventory (Tables 2–4 style: count and examples per
/// length).
pub fn render_token_table(inv: &TokenInventory) -> String {
    let mut out = format!("{} tokens and their number for each length.\n", inv.subject);
    out.push_str(&format!("{:<8} {:<4} Examples\n", "Length", "#"));
    for length in inv.lengths() {
        let tokens: Vec<&str> = inv
            .tokens
            .iter()
            .filter(|t| t.length == length)
            .map(|t| t.name)
            .collect();
        let shown = tokens.iter().take(8).copied().collect::<Vec<_>>().join(" ");
        let ellipsis = if tokens.len() > 8 { " ..." } else { "" };
        out.push_str(&format!(
            "{length:<8} {:<4} {shown}{ellipsis}\n",
            tokens.len()
        ));
    }
    out
}

/// Renders Figure 3: per subject and tool, tokens found per length.
pub fn render_fig3(cells: &[Fig3Cell]) -> String {
    let mut out =
        String::from("Figure 3. Tokens generated, grouped by token length (found/total).\n");
    let mut current_subject = "";
    for cell in cells {
        if cell.subject != current_subject {
            current_subject = cell.subject;
            out.push_str(&format!("\n{current_subject}\n"));
            out.push_str(&format!("{:<10}", "Tool"));
            for (l, _, _) in &cell.by_length {
                out.push_str(&format!("{:>9}", format!("len {l}")));
            }
            out.push('\n');
        }
        out.push_str(&format!("{:<10}", cell.tool.name()));
        for (_, found, total) in &cell.by_length {
            out.push_str(&format!("{:>9}", format!("{found}/{total}")));
        }
        out.push('\n');
    }
    out
}

/// Renders the Section 5.3 headline aggregates.
pub fn render_headline(rows: &[HeadlineRow]) -> String {
    let mut out = String::from(
        "Section 5.3 headline: token coverage across all subjects.\n\
         (paper, 48h: short AFL 91.5% KLEE 28.7% pFuzzer 81.9%; long AFL 5% KLEE 7.5% pFuzzer 52.5%)\n",
    );
    out.push_str(&format!(
        "{:<10}{:>22}{:>22}\n",
        "Tool", "len <= 3 found", "len > 3 found"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<10}{:>15} ({:>5.1}%){:>14} ({:>5.1}%)\n",
            row.tool.name(),
            format!("{}/{}", row.short.0, row.short.1),
            row.short_pct(),
            format!("{}/{}", row.long.0, row.long.1),
            row.long_pct(),
        ));
    }
    out
}

/// Renders the per-cell supervision table: hung and crashed executions
/// the supervisor absorbed, cell retry attempts, and whether the cell
/// completed or was poisoned. Only cells with something to report (a
/// nonzero counter or a poisoned verdict) get a row; a totals line
/// always closes the table, so the counters previously visible only in
/// the `--stats-out` JSON also appear in the human-readable output.
pub fn render_supervision(outcomes: &[CellOutcome]) -> String {
    let mut out = String::from("Supervision. Faults absorbed per matrix cell.\n");
    out.push_str(&format!(
        "{:<10} {:<10} {:>6} {:>7} {:>8} {:>8}  Status\n",
        "Subject", "Tool", "Seed", "Hangs", "Crashes", "Retries"
    ));
    let (mut hangs, mut crashes, mut retries, mut poisoned) = (0u64, 0u64, 0u64, 0u64);
    for co in outcomes {
        match co {
            CellOutcome::Completed(o) => {
                hangs += o.stats.hangs;
                crashes += o.stats.crashes;
                retries += o.stats.retries;
                if o.stats.hangs + o.stats.crashes + o.stats.retries > 0 {
                    out.push_str(&format!(
                        "{:<10} {:<10} {:>6} {:>7} {:>8} {:>8}  completed\n",
                        o.subject,
                        o.tool.name(),
                        o.seed,
                        o.stats.hangs,
                        o.stats.crashes,
                        o.stats.retries,
                    ));
                }
            }
            CellOutcome::Poisoned(p) => {
                poisoned += 1;
                retries += p.attempts.saturating_sub(1);
                out.push_str(&format!(
                    "{:<10} {:<10} {:>6} {:>7} {:>8} {:>8}  POISONED ({})\n",
                    p.subject,
                    p.tool.name(),
                    p.seed,
                    "-",
                    "-",
                    p.attempts.saturating_sub(1),
                    p.reason,
                ));
            }
        }
    }
    out.push_str(&format!(
        "{:<10} {:<10} {:>6} {:>7} {:>8} {:>8}  {} cells, {} poisoned\n",
        "total",
        "",
        "",
        hangs,
        crashes,
        retries,
        outcomes.len(),
        poisoned,
    ));
    out
}

/// Renders the token-discovery measurement: executions needed per
/// keyword token (length > 1), per subject and tool. `-` = not found.
pub fn render_discovery(rows: &[DiscoveryRow]) -> String {
    let mut out = String::from(
        "Executions until each multi-character token first appears in a valid input.\n",
    );
    let mut current_subject = "";
    // group rows (subject, token) → per-tool cells
    type Cells = [Option<Option<u64>>; 3];
    let mut tokens_seen: Vec<(&str, &str, usize, Cells)> = Vec::new();
    for row in rows.iter().filter(|r| r.length > 1) {
        let tool_idx = Tool::ALL.iter().position(|t| *t == row.tool).unwrap_or(0);
        match tokens_seen
            .iter_mut()
            .find(|(s, t, _, _)| *s == row.subject && *t == row.token)
        {
            Some((_, _, _, cells)) => cells[tool_idx] = Some(row.found_at),
            None => {
                let mut cells = [None, None, None];
                cells[tool_idx] = Some(row.found_at);
                tokens_seen.push((row.subject, row.token, row.length, cells));
            }
        }
    }
    for (subject, token, _length, cells) in tokens_seen {
        if subject != current_subject {
            current_subject = subject;
            out.push_str(&format!("\n{subject}\n{:<14}", "Token"));
            for tool in Tool::ALL {
                out.push_str(&format!("{:>12}", tool.name()));
            }
            out.push('\n');
        }
        out.push_str(&format!("{token:<14}"));
        for cell in cells {
            let text = match cell {
                Some(Some(execs)) => execs.to_string(),
                _ => "-".to_string(),
            };
            out.push_str(&format!("{text:>12}"));
        }
        out.push('\n');
    }
    out
}

/// Renders the mined-inventory table (`--dict-out`): per subject, how
/// much of the literal multi-character token inventory the miner
/// recovered without a grammar.
pub fn render_mined_inventory(rows: &[MinedInventoryRow]) -> String {
    let mut out = String::from(
        "Mined dictionaries vs the paper's token inventories (literal tokens only).\n",
    );
    out.push_str(&format!(
        "{:<10} {:>8} {:>7} {:>16} {:>16}\n",
        "Subject", "Execs", "Mined", "len >= 2 found", "len >= 4 found"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<10} {:>8} {:>7} {:>16} {:>16}\n",
            row.subject,
            row.execs,
            row.mined,
            format!("{}/{}", row.multi.0, row.multi.1),
            format!("{}/{}", row.long.0, row.long.1),
        ));
    }
    out
}

/// Renders the dictionary study (`--dict-in`): bare vs dictionary-fed
/// runs at equal budget, scored by short/long token coverage.
pub fn render_dict_study(rows: &[DictStudyRow]) -> String {
    let mut out =
        String::from("Dictionary study: mined tokens fed back to the fuzzers (equal budgets).\n");
    out.push_str(&format!(
        "{:<10} {:<10} {:<6} {:>8} {:>7} {:>14} {:>14}\n",
        "Subject", "Tool", "Dict", "Execs", "Valid", "len <= 3", "len >= 4"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<10} {:<10} {:<6} {:>8} {:>7} {:>14} {:>14}\n",
            row.subject,
            row.tool.name(),
            if row.with_dict { "yes" } else { "no" },
            row.execs,
            row.valid_inputs,
            format!("{}/{}", row.short.0, row.short.1),
            format!("{}/{}", row.long.0, row.long.1),
        ));
    }
    out
}

/// Renders the grammar-mining scorecard (`--grammar-out`): per subject,
/// the mined grammar's shape, what the weighted flood produced, and the
/// persisted file digest. Skipped floods print their reason.
pub fn render_grammar_mine(rows: &[GrammarMineRow]) -> String {
    let mut out = String::from(
        "Mined grammars: combined campaign per subject (explore, mine, weighted flood).\n",
    );
    out.push_str(&format!(
        "{:<10} {:>8} {:>6} {:>6} {:>10} {:>7} {:>9}  Digest\n",
        "Subject", "Execs", "Rules", "Alts", "Generated", "Valid", "Promoted"
    ));
    for row in rows {
        match &row.skipped {
            Some(reason) => out.push_str(&format!(
                "{:<10} {:>8} {:>6} {:>6} {:>10} {:>7} {:>9}  SKIPPED ({reason})\n",
                row.subject, row.execs, row.rules, "-", "-", "-", "-",
            )),
            None => out.push_str(&format!(
                "{:<10} {:>8} {:>6} {:>6} {:>10} {:>7} {:>9}  {:016x}\n",
                row.subject,
                row.execs,
                row.rules,
                row.alts,
                row.generated,
                row.generated_valid,
                row.promoted,
                row.digest,
            )),
        }
    }
    out
}

/// Renders the grammar-generation study (`--grammar-in`): pFuzzer alone
/// vs the persisted-grammar flood vs the full combined pipeline, at
/// equal budgets, scored by valid-input branch coverage and Figure-3
/// token coverage.
pub fn render_grammar_study(rows: &[GrammarStudyRow]) -> String {
    let mut out =
        String::from("Grammar study: compiled generation vs pFuzzer alone (equal budgets).\n");
    out.push_str(&format!(
        "{:<10} {:<10} {:>8} {:>10} {:>7} {:>9} {:>14} {:>14}\n",
        "Subject", "Mode", "Execs", "Generated", "Valid", "Branches", "len <= 3", "len >= 4"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<10} {:<10} {:>8} {:>10} {:>7} {:>9} {:>14} {:>14}\n",
            row.subject,
            row.mode,
            row.execs,
            row.generated,
            row.valid_inputs,
            row.branches,
            format!("{}/{}", row.short.0, row.short.1),
            format!("{}/{}", row.long.0, row.long.1),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::token_tables;

    #[test]
    fn table1_renders_all_rows() {
        let text = render_table1(&crate::experiments::table1_subjects());
        assert!(text.contains("ini"));
        assert!(text.contains("10920") || text.contains("10,920"));
        assert_eq!(text.lines().count(), 7);
    }

    #[test]
    fn fig2_renders_tools_and_subjects() {
        let rows = vec![Fig2Row {
            subject: "ini",
            coverage: [50.0, 25.0, 75.0],
        }];
        let text = render_fig2(&rows);
        assert!(text.contains("AFL"));
        assert!(text.contains("KLEE"));
        assert!(text.contains("pFuzzer"));
        assert!(text.contains("75.0"));
    }

    #[test]
    fn token_table_renders_lengths() {
        let tables = token_tables();
        let json = render_token_table(&tables[2]);
        assert!(json.contains("cjson"));
        assert!(json.contains("true"));
        assert!(json.contains("false"));
    }

    #[test]
    fn fig3_groups_by_subject() {
        let cells = vec![
            Fig3Cell {
                subject: "cjson",
                tool: Tool::Afl,
                by_length: vec![(1, 5, 8), (2, 1, 1)],
                found: vec!["{"],
            },
            Fig3Cell {
                subject: "cjson",
                tool: Tool::PFuzzer,
                by_length: vec![(1, 8, 8), (2, 1, 1)],
                found: vec!["{"],
            },
        ];
        let text = render_fig3(&cells);
        assert!(text.contains("cjson"));
        assert!(text.contains("5/8"));
        assert!(text.contains("8/8"));
    }

    #[test]
    fn discovery_renders_tokens_and_dashes() {
        let rows = vec![
            DiscoveryRow {
                subject: "cjson",
                tool: Tool::PFuzzer,
                token: "true",
                length: 4,
                found_at: Some(123),
            },
            DiscoveryRow {
                subject: "cjson",
                tool: Tool::Afl,
                token: "true",
                length: 4,
                found_at: None,
            },
        ];
        let text = render_discovery(&rows);
        assert!(text.contains("true"));
        assert!(text.contains("123"));
        assert!(text.contains('-'));
    }

    #[test]
    fn supervision_table_shows_faults_and_poisoned_cells() {
        use crate::runner::{Outcome, PoisonedCell};
        let stats = pdf_runtime::RunStats {
            hangs: 3,
            crashes: 1,
            retries: 2,
            ..Default::default()
        };
        let completed = CellOutcome::Completed(Outcome {
            tool: Tool::PFuzzer,
            subject: "csv",
            seed: 7,
            valid_inputs: vec![],
            valid_found_at: vec![],
            execs: 100,
            valid_branches: Default::default(),
            all_branches: Default::default(),
            decisions: vec![],
            stats,
        });
        let quiet = CellOutcome::Completed(Outcome {
            tool: Tool::Afl,
            subject: "ini",
            seed: 1,
            valid_inputs: vec![],
            valid_found_at: vec![],
            execs: 100,
            valid_branches: Default::default(),
            all_branches: Default::default(),
            decisions: vec![],
            stats: pdf_runtime::RunStats::default(),
        });
        let poisoned = CellOutcome::Poisoned(PoisonedCell {
            tool: Tool::Klee,
            subject: "mjs",
            seed: 2,
            attempts: 4,
            reason: "crash storm".to_string(),
        });
        let text = render_supervision(&[completed, quiet, poisoned]);
        // fault counters are visible in the human-readable table
        assert!(text.contains("Hangs"), "{text}");
        assert!(text.contains("csv"), "{text}");
        assert!(text.contains("POISONED (crash storm)"), "{text}");
        // the quiet cell contributes no row, only the totals
        assert!(!text.contains("ini"), "{text}");
        let totals = text.lines().last().unwrap();
        assert!(totals.contains('3'), "{totals}");
        assert!(totals.contains("3 cells, 1 poisoned"), "{totals}");
    }

    #[test]
    fn mined_inventory_table_shows_fractions() {
        let rows = vec![MinedInventoryRow {
            subject: "tinyC",
            execs: 5_000,
            mined: 9,
            multi: (3, 4),
            long: (2, 2),
        }];
        let text = render_mined_inventory(&rows);
        assert!(text.contains("tinyC"), "{text}");
        assert!(text.contains("3/4"), "{text}");
        assert!(text.contains("2/2"), "{text}");
    }

    #[test]
    fn dict_study_table_marks_dictionary_runs() {
        let rows = vec![
            DictStudyRow {
                subject: "mjs",
                tool: Tool::PFuzzer,
                with_dict: false,
                execs: 10_000,
                valid_inputs: 12,
                short: (20, 64),
                long: (3, 35),
            },
            DictStudyRow {
                subject: "mjs",
                tool: Tool::PFuzzer,
                with_dict: true,
                execs: 10_000,
                valid_inputs: 15,
                short: (22, 64),
                long: (9, 35),
            },
        ];
        let text = render_dict_study(&rows);
        assert!(text.contains("yes"), "{text}");
        assert!(text.contains("no"), "{text}");
        assert!(text.contains("9/35"), "{text}");
    }

    #[test]
    fn grammar_mine_table_shows_digests_and_skips() {
        let rows = vec![
            GrammarMineRow {
                subject: "cjson",
                execs: 4_000,
                rules: 12,
                alts: 30,
                generated: 512,
                generated_valid: 44,
                promoted: 9,
                digest: 0xabcd,
                skipped: None,
            },
            GrammarMineRow {
                subject: "tinyC",
                execs: 4_000,
                rules: 0,
                alts: 0,
                generated: 0,
                generated_valid: 0,
                promoted: 0,
                digest: 0,
                skipped: Some("no start alternatives".to_string()),
            },
        ];
        let text = render_grammar_mine(&rows);
        assert!(text.contains("000000000000abcd"), "{text}");
        assert!(text.contains("SKIPPED (no start alternatives)"), "{text}");
        assert!(text.contains("Promoted"), "{text}");
    }

    #[test]
    fn grammar_study_table_shows_all_three_modes() {
        let rows = vec![
            GrammarStudyRow {
                subject: "cjson",
                mode: "pFuzzer",
                execs: 1_000,
                generated: 0,
                valid_inputs: 7,
                branches: 40,
                short: (6, 9),
                long: (1, 3),
            },
            GrammarStudyRow {
                subject: "cjson",
                mode: "flood",
                execs: 12,
                generated: 1_000,
                valid_inputs: 12,
                branches: 44,
                short: (7, 9),
                long: (2, 3),
            },
        ];
        let text = render_grammar_study(&rows);
        assert!(text.contains("pFuzzer"), "{text}");
        assert!(text.contains("flood"), "{text}");
        assert!(text.contains("7/9"), "{text}");
        assert!(text.contains("Branches"), "{text}");
    }

    #[test]
    fn headline_renders_percentages() {
        let rows = vec![HeadlineRow {
            tool: Tool::PFuzzer,
            short: (9, 10),
            long: (5, 10),
        }];
        let text = render_headline(&rows);
        assert!(text.contains("90.0%"));
        assert!(text.contains("50.0%"));
    }
}
