//! The experiments of Section 5, one function per table/figure.

use pdf_afl::{AflConfig, AflFuzzer};
use pdf_core::{DriverConfig, Fuzzer, TraceStep};
use pdf_subjects::evaluation_subjects;
use pdf_tokens::{inventory, Dictionary, TokenCoverage, TokenInventory, TokenMiner};

use pdf_gen::EvolveConfig;
use pdf_grammar::GrammarFile;

use crate::coverage::{coverage_universe, relative_coverage};
use crate::runner::{
    collapse_matrix, combined_config_for, completed_outcomes, matrix_cells, run_cells,
    run_tool_seeded, EvalBudget, Outcome, Tool,
};

/// Table 1: the subjects with their access dates and original LoC.
pub fn table1_subjects() -> Vec<(&'static str, &'static str, usize)> {
    evaluation_subjects()
        .iter()
        .map(|s| (s.name, s.accessed, s.original_loc))
        .collect()
}

/// Figure 1: the prefix-extension walkthrough on the arithmetic-
/// expression subject. Returns the trace up to (and including) the
/// first valid input.
pub fn fig1_walkthrough(seed: u64, max_execs: u64) -> (Vec<TraceStep>, Option<Vec<u8>>) {
    let cfg = DriverConfig {
        seed,
        max_execs,
        max_valid_inputs: Some(1),
        trace: true,
        ..DriverConfig::default()
    };
    let report = Fuzzer::new(pdf_subjects::arith::subject(), cfg).run();
    let first = report.valid_inputs.first().cloned();
    (report.trace, first)
}

/// Runs the full 5-subjects × 3-tools matrix once; every downstream
/// figure reads from these outcomes. Serial — equivalent to
/// [`run_matrix_jobs`] with one job.
pub fn run_matrix(budget: &EvalBudget) -> Vec<Outcome> {
    run_matrix_jobs(budget, 1)
}

/// Runs the matrix with its (subject, tool, seed) cells fanned out over
/// `jobs` worker threads. Every cell is an independent seeded campaign,
/// so the collapsed result is identical to the serial matrix for any
/// `jobs` value (only the wall-clock stats differ).
pub fn run_matrix_jobs(budget: &EvalBudget, jobs: usize) -> Vec<Outcome> {
    collapse_matrix(completed_outcomes(run_cells(&matrix_cells(budget), jobs)))
}

/// One row of Figure 2: relative branch coverage per tool on a subject.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Subject name.
    pub subject: &'static str,
    /// Coverage percent per tool, in [`Tool::ALL`] order (AFL, KLEE,
    /// pFuzzer).
    pub coverage: [f64; 3],
}

/// Figure 2: branch coverage obtained by the valid inputs of each tool.
pub fn fig2_coverage(outcomes: &[Outcome]) -> Vec<Fig2Row> {
    let mut rows = Vec::new();
    for info in evaluation_subjects() {
        let subject_outcomes: Vec<&Outcome> =
            outcomes.iter().filter(|o| o.subject == info.name).collect();
        if subject_outcomes.is_empty() {
            continue;
        }
        let universe = coverage_universe(&info, &subject_outcomes);
        let mut coverage = [0.0; 3];
        for (i, tool) in Tool::ALL.iter().enumerate() {
            if let Some(o) = subject_outcomes.iter().find(|o| o.tool == *tool) {
                coverage[i] = relative_coverage(o, &universe);
            }
        }
        rows.push(Fig2Row {
            subject: info.name,
            coverage,
        });
    }
    rows
}

/// Tables 2–4 (and the prose inventories for ini and csv): the token
/// inventory of every subject.
pub fn token_tables() -> Vec<TokenInventory> {
    ["ini", "csv", "cjson", "tinyC", "mjs"]
        .iter()
        .filter_map(|s| inventory(s))
        .collect()
}

/// One cell group of Figure 3: the tokens a tool generated on a subject,
/// bucketed by token length.
#[derive(Debug, Clone)]
pub struct Fig3Cell {
    /// Subject name.
    pub subject: &'static str,
    /// Tool.
    pub tool: Tool,
    /// `(length, found, total)` per inventory length, ascending.
    pub by_length: Vec<(usize, usize, usize)>,
    /// The found token names (for inspection).
    pub found: Vec<&'static str>,
}

/// Figure 3: tokens generated per subject and tool, grouped by length.
pub fn fig3_tokens(outcomes: &[Outcome]) -> Vec<Fig3Cell> {
    let mut cells = Vec::new();
    for o in outcomes {
        let Some(mut cov) = TokenCoverage::new(o.subject) else {
            continue;
        };
        for input in &o.valid_inputs {
            cov.add_input(input);
        }
        let inv = cov.inventory().clone();
        let by_length = inv
            .lengths()
            .into_iter()
            .map(|l| (l, cov.found_of_length(l), inv.count_of_length(l)))
            .collect();
        cells.push(Fig3Cell {
            subject: o.subject,
            tool: o.tool,
            by_length,
            found: cov.found_names(),
        });
    }
    cells
}

/// One row of the Section 5.3 headline: a tool's aggregate token
/// coverage for short (≤ 3) and long (> 3) tokens across all subjects.
#[derive(Debug, Clone)]
pub struct HeadlineRow {
    /// Tool.
    pub tool: Tool,
    /// (found, total) over tokens of length ≤ 3, summed across subjects.
    pub short: (usize, usize),
    /// (found, total) over tokens of length > 3.
    pub long: (usize, usize),
}

impl HeadlineRow {
    /// Percentage of short tokens found.
    pub fn short_pct(&self) -> f64 {
        percent(self.short)
    }

    /// Percentage of long tokens found.
    pub fn long_pct(&self) -> f64 {
        percent(self.long)
    }
}

fn percent((found, total): (usize, usize)) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * found as f64 / total as f64
    }
}

/// The Section 5.3 headline aggregates ("Across all subjects, for
/// tokens of length ≤ 3, AFL finds 91.5%, KLEE 28.7%, and pFuzzer
/// 81.9%" / "length > 3: 5%, 7.5%, 52.5%").
pub fn headline_aggregates(outcomes: &[Outcome]) -> Vec<HeadlineRow> {
    Tool::ALL
        .iter()
        .map(|&tool| {
            let mut short = (0, 0);
            let mut long = (0, 0);
            for o in outcomes.iter().filter(|o| o.tool == tool) {
                let Some(mut cov) = TokenCoverage::new(o.subject) else {
                    continue;
                };
                for input in &o.valid_inputs {
                    cov.add_input(input);
                }
                let s = cov.fraction_in(1, 3);
                let l = cov.fraction_in(4, usize::MAX);
                short.0 += s.0;
                short.1 += s.1;
                long.0 += l.0;
                long.1 += l.1;
            }
            HeadlineRow { tool, short, long }
        })
        .collect()
}

/// When a token was first produced: one row per (subject, tool, token).
#[derive(Debug, Clone)]
pub struct DiscoveryRow {
    /// Subject name.
    pub subject: &'static str,
    /// Tool.
    pub tool: Tool,
    /// Token name.
    pub token: &'static str,
    /// Token length in the inventory.
    pub length: usize,
    /// Executions spent when the token first appeared in a valid input
    /// (`None` = never found within the budget).
    pub found_at: Option<u64>,
}

/// The "fewer tests by orders of magnitude" measurement: for every
/// inventory token, the number of executions each tool needed before
/// the token appeared in a valid input.
pub fn token_discovery(outcomes: &[Outcome]) -> Vec<DiscoveryRow> {
    let mut rows = Vec::new();
    for o in outcomes {
        let Some(inv) = inventory(o.subject) else {
            continue;
        };
        for token in &inv.tokens {
            let mut found_at = None;
            for (input, execs) in o.valid_inputs.iter().zip(&o.valid_found_at) {
                if pdf_tokens::found_tokens(o.subject, input).contains(&token.name) {
                    found_at = Some(*execs);
                    break;
                }
            }
            rows.push(DiscoveryRow {
                subject: o.subject,
                tool: o.tool,
                token: token.name,
                length: token.length,
                found_at,
            });
        }
    }
    rows
}

/// One campaign's side of the sharding experiment
/// ([`FleetComparison`]): its token discoveries and what they cost.
#[derive(Debug, Clone)]
pub struct FleetSide {
    /// Inventory tokens found, in discovery-cost order.
    pub tokens: Vec<&'static str>,
    /// Total executions spent when the last token of the *single*
    /// campaign's token set had been found; `None` when that exact set
    /// was never covered. (For the single campaign itself this is
    /// always `Some`: the cost of its own last token.)
    pub execs_to_cover: Option<u64>,
    /// Total executions spent when this campaign had found as *many*
    /// distinct tokens as the single campaign — the Figure-3 y-axis is
    /// a count, so this is the identity-free version of
    /// `execs_to_cover`. `None` when the count was never reached.
    pub execs_to_count: Option<u64>,
    /// Executions actually spent in total.
    pub total_execs: u64,
}

/// Result of the sharding experiment: a single-shard campaign of
/// `budget` executions vs a cooperative fleet vs N independent shards,
/// each shard also running `budget` executions (so the fleet and the
/// ensemble spend `shards × budget` in total — the paper's "N
/// restarts" baseline). Fleet/ensemble costs are total executions
/// summed across shards (within-epoch lockstep upper bound — see
/// [`FleetReport::valid_found_at`](pdf_fleet::FleetReport::valid_found_at));
/// divide by `shards` for the wall-clock (per-worker) cost.
#[derive(Debug, Clone)]
pub struct FleetComparison {
    /// Subject name.
    pub subject: &'static str,
    /// Fleet shard count.
    pub shards: usize,
    /// Per-shard executions between fleet sync epochs.
    pub sync_every: u64,
    /// Per-shard (and single-campaign) execution budget.
    pub budget: u64,
    /// The single-shard driver.
    pub single: FleetSide,
    /// The cooperative fleet (syncing every `sync_every` execs).
    pub fleet: FleetSide,
    /// The same shards with no mid-campaign cooperation (one sync at
    /// the very end, which merges reports but can no longer help the
    /// search).
    pub independent: FleetSide,
}

/// For every inventory token some input produced, the discovery cost of
/// the *first* input producing it (inputs paired with their costs, in
/// cost order).
fn token_costs(
    subject: &'static str,
    inputs: &[Vec<u8>],
    costs: &[u64],
) -> Vec<(&'static str, u64)> {
    let mut found: Vec<(&'static str, u64)> = Vec::new();
    for (input, &cost) in inputs.iter().zip(costs) {
        for token in pdf_tokens::found_tokens(subject, input) {
            match found.iter_mut().find(|(name, _)| *name == token) {
                Some(slot) => slot.1 = slot.1.min(cost),
                None => found.push((token, cost)),
            }
        }
    }
    found.sort_by_key(|&(name, cost)| (cost, name));
    found
}

/// Builds one [`FleetSide`] from discovery costs, measured against the
/// single campaign's token set.
fn fleet_side(
    costs: &[(&'static str, u64)],
    single_costs: &[(&'static str, u64)],
    total_execs: u64,
) -> FleetSide {
    let execs_to_cover = single_costs
        .iter()
        .map(|&(name, _)| costs.iter().find(|&&(n, _)| n == name).map(|&(_, c)| c))
        .collect::<Option<Vec<u64>>>()
        .map(|c| c.into_iter().max().unwrap_or(0));
    // costs are sorted ascending, so the n-th entry is the cost of
    // reaching n distinct tokens
    let execs_to_count = match single_costs.len() {
        0 => Some(0),
        n => costs.get(n - 1).map(|&(_, c)| c),
    };
    FleetSide {
        tokens: costs.iter().map(|&(n, _)| n).collect(),
        execs_to_cover,
        execs_to_count,
        total_execs,
    }
}

/// The sharding experiment (EXPERIMENTS.md "Fleet sharding"): runs the
/// plain single-shard driver for `budget` executions, then a
/// cooperative [`pdf_fleet::Fleet`] of `shards` workers and the same
/// shards run independently (no mid-campaign sync), each shard with
/// the same `budget`, and reports how many total executions each side
/// needed to match the single campaign's token discoveries.
/// Deterministic in all arguments.
pub fn fleet_vs_single(
    info: &pdf_subjects::SubjectInfo,
    budget: u64,
    seed: u64,
    shards: usize,
    sync_every: u64,
) -> FleetComparison {
    let single = Fuzzer::new(
        info.subject,
        DriverConfig {
            seed,
            max_execs: budget,
            ..DriverConfig::default()
        },
    )
    .run();
    let single_costs = token_costs(info.name, &single.valid_inputs, &single.valid_found_at);

    let run_fleet = |sync: u64| {
        let base = DriverConfig {
            seed,
            max_execs: budget.max(1),
            ..DriverConfig::default()
        };
        let report = pdf_fleet::Fleet::new(
            info.subject,
            pdf_fleet::FleetConfig::new(shards, sync, base),
        )
        .expect("fleet_vs_single called with a valid shard/sync shape")
        .run();
        let costs = token_costs(info.name, &report.valid_inputs, &report.valid_found_at);
        fleet_side(&costs, &single_costs, report.total_execs)
    };
    let fleet = run_fleet(sync_every);
    // syncing only once, after every shard has exhausted its budget,
    // is exactly the N-independent-restarts baseline
    let independent = run_fleet(budget.max(1));

    FleetComparison {
        subject: info.name,
        shards,
        sync_every,
        budget,
        single: fleet_side(&single_costs, &single_costs, single.execs),
        fleet,
        independent,
    }
}

/// One row of the mined-inventory table (`evalrunner --dict-out`): how
/// much of a subject's *literal* multi-character token inventory (the
/// Tables 2–4 keywords and operators, excluding classes like `number`
/// or `identifier`) a mining campaign recovered without any grammar.
#[derive(Debug, Clone)]
pub struct MinedInventoryRow {
    /// Subject name.
    pub subject: &'static str,
    /// Executions the mining campaign actually spent.
    pub execs: u64,
    /// Tokens in the mined dictionary.
    pub mined: usize,
    /// (mined, total) over literal inventory tokens of length ≥ 2.
    pub multi: (usize, usize),
    /// (mined, total) over literal inventory tokens of length ≥ 4 — the
    /// Figure-3 long-token bucket where AFL and KLEE collapse.
    pub long: (usize, usize),
}

/// Scores a mined dictionary against the subject's inventory. Only
/// *literal* inventory tokens participate (name spelled exactly at its
/// table length — `while` at 5); class tokens (`number`, `string`,
/// `identifier`) have no single spelling a dictionary entry could match.
fn mined_inventory_row(subject: &'static str, execs: u64, dict: &Dictionary) -> MinedInventoryRow {
    let inv = inventory(subject).expect("mining runs on evaluation subjects");
    let hits = |min_len: usize| {
        let literal: Vec<&str> = inv
            .tokens
            .iter()
            .filter(|t| t.name.len() == t.length && t.length >= min_len)
            .map(|t| t.name)
            .collect();
        let found = literal
            .iter()
            .filter(|name| dict.contains(name.as_bytes()))
            .count();
        (found, literal.len())
    };
    MinedInventoryRow {
        subject,
        execs,
        mined: dict.len(),
        multi: hits(2),
        long: hits(4),
    }
}

/// Mines a dictionary for one subject: runs a token-mining pFuzzer
/// campaign ([`DriverConfig::mine_tokens`]) for `execs` executions,
/// feeds the observed comparison operands and the valid-input corpus to
/// a [`TokenMiner`], and returns the mined [`Dictionary`] with its
/// inventory scorecard. Deterministic in `(execs, seed)`.
pub fn mine_subject_dictionary(
    info: &pdf_subjects::SubjectInfo,
    execs: u64,
    seed: u64,
) -> (Dictionary, MinedInventoryRow) {
    let cfg = DriverConfig {
        seed,
        max_execs: execs,
        mine_tokens: true,
        ..DriverConfig::default()
    };
    let report = Fuzzer::new(info.subject, cfg).run();
    let mut miner = TokenMiner::new();
    for (token, count) in &report.mined_tokens {
        for _ in 0..*count {
            miner.observe_comparison(token);
        }
    }
    for input in &report.valid_inputs {
        miner.observe_corpus_input(input);
    }
    let dict = miner.mine();
    pdf_obs::record(|m| m.tokens_mined.add(dict.len() as u64));
    let row = mined_inventory_row(info.name, report.execs, &dict);
    (dict, row)
}

/// Mines every evaluation subject at the same `(execs, seed)` budget
/// and merges the results into one union [`Dictionary`] — exactly what
/// `evalrunner --dict-out` writes. Per-subject token order is the
/// miner's rank order and subjects merge in paper order, so the union
/// is deterministic; [`Dictionary::from_tokens`] keeps the first
/// occurrence of a token mined by several subjects.
pub fn mine_union_dictionary(execs: u64, seed: u64) -> (Dictionary, Vec<MinedInventoryRow>) {
    let mut rows = Vec::new();
    let mut union: Vec<Vec<u8>> = Vec::new();
    for info in evaluation_subjects() {
        let (dict, row) = mine_subject_dictionary(&info, execs, seed);
        union.extend(dict.into_tokens());
        rows.push(row);
    }
    (Dictionary::from_tokens(union), rows)
}

/// One row of the dictionary study (`evalrunner --dict-in`): a tool run
/// with or without the mined dictionary, scored by token coverage at
/// equal execution budget.
#[derive(Debug, Clone)]
pub struct DictStudyRow {
    /// Subject name.
    pub subject: &'static str,
    /// Tool ([`Tool::PFuzzer`] or [`Tool::Afl`]).
    pub tool: Tool,
    /// Whether the mined dictionary was fed to the tool.
    pub with_dict: bool,
    /// Executions actually spent.
    pub execs: u64,
    /// Valid inputs produced.
    pub valid_inputs: usize,
    /// (found, total) over inventory tokens of length ≤ 3.
    pub short: (usize, usize),
    /// (found, total) over inventory tokens of length ≥ 4.
    pub long: (usize, usize),
}

fn study_row(
    subject: &'static str,
    tool: Tool,
    with_dict: bool,
    execs: u64,
    inputs: &[Vec<u8>],
) -> DictStudyRow {
    let mut cov = TokenCoverage::new(subject).expect("study subjects have inventories");
    for input in inputs {
        cov.add_input(input);
    }
    DictStudyRow {
        subject,
        tool,
        with_dict,
        execs,
        valid_inputs: inputs.len(),
        short: cov.fraction_in(1, 3),
        long: cov.fraction_in(4, usize::MAX),
    }
}

/// The dictionary study: pFuzzer and AFL each run twice on `info` at
/// the same `(execs, seed)` budget — once bare, once fed the mined
/// dictionary (pFuzzer as whole-token substitution candidates, AFL as
/// token-preserving havoc per [`pdf_afl::AflConfig::preserve_tokens`]).
/// Returns four [`DictStudyRow`]s in (pFuzzer, AFL) × (bare, dict)
/// order. Deterministic in all arguments.
pub fn dict_vs_baseline(
    info: &pdf_subjects::SubjectInfo,
    dict: &Dictionary,
    execs: u64,
    seed: u64,
) -> Vec<DictStudyRow> {
    let mut rows = Vec::new();
    for with_dict in [false, true] {
        let cfg = DriverConfig {
            seed,
            max_execs: execs,
            dictionary: if with_dict {
                dict.tokens().to_vec()
            } else {
                Vec::new()
            },
            ..DriverConfig::default()
        };
        let r = Fuzzer::new(info.subject, cfg).run();
        rows.push(study_row(
            info.name,
            Tool::PFuzzer,
            with_dict,
            r.execs,
            &r.valid_inputs,
        ));
    }
    for with_dict in [false, true] {
        let cfg = AflConfig {
            seed,
            max_execs: execs,
            dictionary: if with_dict {
                dict.tokens().to_vec()
            } else {
                Vec::new()
            },
            preserve_tokens: with_dict,
            ..AflConfig::default()
        };
        let r = AflFuzzer::new(info.subject, cfg).run();
        rows.push(study_row(
            info.name,
            Tool::Afl,
            with_dict,
            r.execs,
            &r.valid_inputs,
        ));
    }
    rows
}

/// One row of the grammar-mining scorecard (`evalrunner
/// --grammar-out`): what the combined campaign mined and learned on one
/// subject.
#[derive(Debug, Clone)]
pub struct GrammarMineRow {
    /// Subject name.
    pub subject: &'static str,
    /// Instrumented executions spent (explore + fleet stages).
    pub execs: u64,
    /// Nonterminals in the mined grammar.
    pub rules: usize,
    /// Alternatives across all rules (weight-table width).
    pub alts: usize,
    /// Inputs the generator flood produced (fast tier).
    pub generated: u64,
    /// Generated inputs the subject accepted (duplicates included).
    pub generated_valid: u64,
    /// Distinct generator-found valid inputs promoted into fleet queues.
    pub promoted: u64,
    /// The persisted `pdf-grammar v1` file digest; zero when the flood
    /// was skipped.
    pub digest: u64,
    /// Why the flood did not run, when it did not.
    pub skipped: Option<String>,
}

/// Runs the combined three-stage campaign on one subject
/// ([`combined_config_for`] shape) and returns the learned
/// grammar + weights (when the flood ran) with its scorecard row —
/// exactly what `evalrunner --grammar-out` persists per subject.
/// Deterministic in `(execs, seed)`.
pub fn mine_subject_grammar(
    info: &pdf_subjects::SubjectInfo,
    execs: u64,
    seed: u64,
) -> (Option<GrammarFile>, GrammarMineRow) {
    let cfg = combined_config_for(execs, seed);
    let report = pdf_gen::run_combined(info.subject, &cfg)
        .expect("combined_config_for produces a valid fleet shape");
    let row = GrammarMineRow {
        subject: info.name,
        execs: report.explore_execs + report.fleet.total_execs,
        rules: report.grammar_rules,
        alts: report.grammar_file().map_or(0, GrammarFile::alt_count),
        generated: report.flood.as_ref().map_or(0, |f| f.generated),
        generated_valid: report.flood.as_ref().map_or(0, |f| f.generated_valid),
        promoted: report.promoted,
        digest: report.grammar_digest,
        skipped: report.flood_skipped.clone(),
    };
    (report.grammar, row)
}

/// One row of the grammar-generation study (`evalrunner --grammar-in`):
/// one mode run on a subject at equal budget, scored by Figure-3 token
/// coverage and valid-input branch coverage.
#[derive(Debug, Clone)]
pub struct GrammarStudyRow {
    /// Subject name.
    pub subject: &'static str,
    /// `"pFuzzer"` (paper's tool alone), `"flood"` (compiled generator
    /// alone, seeded from the persisted grammar + learned weights) or
    /// `"combined"` (the full three-stage pipeline, re-mining).
    pub mode: &'static str,
    /// The pFuzzer and combined rows: instrumented executions spent.
    /// The flood row: its distinct valid inputs, one coverage run each;
    /// the flood's runs of invalid inputs are not in this count.
    pub execs: u64,
    /// Inputs the generator produced (zero for the pFuzzer row).
    pub generated: u64,
    /// Distinct valid inputs produced.
    pub valid_inputs: usize,
    /// Branches covered by the valid inputs.
    pub branches: usize,
    /// (found, total) over inventory tokens of length ≤ 3.
    pub short: (usize, usize),
    /// (found, total) over inventory tokens of length ≥ 4.
    pub long: (usize, usize),
}

fn grammar_study_row(
    subject: &'static str,
    mode: &'static str,
    execs: u64,
    generated: u64,
    inputs: &[Vec<u8>],
    branches: usize,
) -> GrammarStudyRow {
    let mut cov = TokenCoverage::new(subject).expect("study subjects have inventories");
    for input in inputs {
        cov.add_input(input);
    }
    GrammarStudyRow {
        subject,
        mode,
        execs,
        generated,
        valid_inputs: inputs.len(),
        branches,
        short: cov.fraction_in(1, 3),
        long: cov.fraction_in(4, usize::MAX),
    }
}

/// The grammar-generation study: on one subject, at the same
/// `(execs, seed)` budget, (1) pFuzzer alone, (2) the compiled
/// generator flooding from a previously persisted grammar + learned
/// weights (no exploration — the `--grammar-in` reuse path), and
/// (3) the full combined pipeline re-mining from scratch. Returns three
/// [`GrammarStudyRow`]s in that order. The flood row spends its budget
/// as generated inputs, each run at most once under coverage; its
/// `execs` is its distinct valid input count (see
/// [`GrammarStudyRow::execs`]). A grammar whose cheapest expansions
/// cycle is reported with zeroed generator columns rather than
/// aborting the study. Deterministic in all arguments.
pub fn grammar_vs_baseline(
    info: &pdf_subjects::SubjectInfo,
    file: &GrammarFile,
    execs: u64,
    seed: u64,
) -> Vec<GrammarStudyRow> {
    let alone = run_tool_seeded(Tool::PFuzzer, info, execs, seed);
    let mut rows = vec![grammar_study_row(
        info.name,
        "pFuzzer",
        alone.execs,
        0,
        &alone.valid_inputs,
        alone.valid_branches.len(),
    )];

    let cfg = combined_config_for(execs, seed);
    let epochs = 8usize;
    rows.push(
        match pdf_gen::CompiledGrammar::compile(file, cfg.max_depth) {
            Ok(compiled) => {
                let report = pdf_gen::evolve(
                    info.subject,
                    compiled,
                    EvolveConfig {
                        seed,
                        epochs,
                        batch: (execs as usize / epochs).max(1),
                        ..EvolveConfig::default()
                    },
                );
                grammar_study_row(
                    info.name,
                    "flood",
                    report.distinct_valid.len() as u64,
                    report.generated,
                    &report.distinct_valid,
                    report.branches.len(),
                )
            }
            Err(_) => grammar_study_row(info.name, "flood", 0, 0, &[], 0),
        },
    );

    let combined = run_tool_seeded(Tool::GrammarGen, info, execs, seed);
    rows.push(grammar_study_row(
        info.name,
        "combined",
        combined.execs,
        combined.stats.executions - combined.execs,
        &combined.valid_inputs,
        combined.valid_branches.len(),
    ));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let rows = table1_subjects();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0], ("ini", "2018-10-25", 293));
        assert_eq!(rows[4], ("mjs", "2018-06-21", 10_920));
    }

    #[test]
    fn fleet_vs_single_is_deterministic_and_budget_bounded() {
        let info = pdf_subjects::by_name("cjson").unwrap();
        let a = fleet_vs_single(&info, 1_000, 1, 2, 250);
        let b = fleet_vs_single(&info, 1_000, 1, 2, 250);
        assert_eq!(a.single.tokens, b.single.tokens);
        assert_eq!(a.fleet.tokens, b.fleet.tokens);
        assert_eq!(a.fleet.execs_to_cover, b.fleet.execs_to_cover);
        assert_eq!(a.fleet.execs_to_count, b.fleet.execs_to_count);
        assert!(a.single.total_execs <= 1_000);
        // fleet and ensemble each get `budget` per shard
        assert!(a.fleet.total_execs <= 2_000);
        assert!(a.independent.total_execs <= 2_000);
        // the single campaign trivially covers its own token set, at
        // the same cost as reaching its own count
        assert_eq!(
            a.single.execs_to_cover, a.single.execs_to_count,
            "single side must be self-consistent"
        );
        assert_eq!(a.shards, 2);
    }

    #[test]
    fn fig1_trace_reaches_a_valid_input() {
        let (trace, first) = fig1_walkthrough(1, 4_000);
        assert!(!trace.is_empty());
        let input = first.expect("walkthrough found a valid input");
        assert!(pdf_subjects::arith::subject().run(&input).valid);
        // the last trace entries include an accepted step
        assert!(trace.iter().any(|s| s.valid));
    }

    #[test]
    fn token_tables_cover_all_subjects() {
        let tables = token_tables();
        assert_eq!(tables.len(), 5);
        assert_eq!(tables[2].total(), 12); // Table 2
        assert_eq!(tables[3].total(), 15); // Table 3
        assert_eq!(tables[4].total(), 99); // Table 4
    }

    #[test]
    fn mined_dictionary_recovers_inventory_keywords() {
        let info = pdf_subjects::by_name("tinyC").unwrap();
        let (dict, row) = mine_subject_dictionary(&info, 3_000, 1);
        assert!(!dict.is_empty(), "mining tinyC must surface tokens");
        assert_eq!(row.subject, "tinyC");
        assert!(row.execs <= 3_000);
        assert_eq!(row.mined, dict.len());
        // tinyC's literal multi-char inventory is if/do/else/while
        assert_eq!(row.multi.1, 4);
        assert_eq!(row.long.1, 2);
        assert!(
            row.multi.0 > 0,
            "comparison mining must recover at least one keyword, dict: {:?}",
            dict.tokens()
        );
        // deterministic in (execs, seed)
        let (again, _) = mine_subject_dictionary(&info, 3_000, 1);
        assert_eq!(dict.tokens(), again.tokens());
    }

    #[test]
    fn dict_study_produces_four_bounded_rows() {
        let info = pdf_subjects::by_name("cjson").unwrap();
        let dict =
            Dictionary::from_tokens(vec![b"true".to_vec(), b"false".to_vec(), b"null".to_vec()]);
        let rows = dict_vs_baseline(&info, &dict, 800, 1);
        assert_eq!(rows.len(), 4);
        assert_eq!(
            rows.iter()
                .map(|r| (r.tool, r.with_dict))
                .collect::<Vec<_>>(),
            vec![
                (Tool::PFuzzer, false),
                (Tool::PFuzzer, true),
                (Tool::Afl, false),
                (Tool::Afl, true),
            ]
        );
        for row in &rows {
            assert_eq!(row.subject, "cjson");
            assert!(row.execs <= 800);
            assert!(row.short.0 <= row.short.1);
            assert!(row.long.0 <= row.long.1);
            assert_eq!(row.long.1, 3);
        }
    }

    #[test]
    fn grammar_pipeline_mines_persists_and_studies() {
        let info = pdf_subjects::by_name("cjson").unwrap();
        let (file, row) = mine_subject_grammar(&info, 3_000, 1);
        assert_eq!(row.subject, "cjson");
        assert!(row.execs <= 3_000);
        let file = file.expect("cjson exploration mines a usable grammar");
        assert!(row.skipped.is_none());
        assert!(row.rules > 0);
        assert!(row.alts > 0);
        assert!(row.generated > 0);
        assert_eq!(row.digest, file.digest());
        // determinism: the scorecard is a pure function of (execs, seed)
        let (file2, row2) = mine_subject_grammar(&info, 3_000, 1);
        assert_eq!(row2.digest, row.digest);
        assert_eq!(file2.expect("same campaign").encode(), file.encode());

        let rows = grammar_vs_baseline(&info, &file, 1_000, 1);
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows.iter().map(|r| r.mode).collect::<Vec<_>>(),
            vec!["pFuzzer", "flood", "combined"]
        );
        for r in &rows {
            assert_eq!(r.subject, "cjson");
            assert!(r.short.0 <= r.short.1);
            assert!(r.long.0 <= r.long.1);
        }
        assert!(rows[1].generated > 0, "flood row must generate");
        assert_eq!(rows[0].generated, 0, "pFuzzer row has no generator");
    }

    #[test]
    fn small_matrix_end_to_end() {
        // a miniature end-to-end run of the whole pipeline
        let budget = EvalBudget {
            execs: 400,
            seeds: vec![1],
            afl_throughput: 1,
        };
        let outcomes = run_matrix(&budget);
        assert_eq!(outcomes.len(), 15);
        let fig2 = fig2_coverage(&outcomes);
        assert_eq!(fig2.len(), 5);
        for row in &fig2 {
            for pct in row.coverage {
                assert!((0.0..=100.0).contains(&pct));
            }
        }
        let fig3 = fig3_tokens(&outcomes);
        assert_eq!(fig3.len(), 15);
        let headline = headline_aggregates(&outcomes);
        assert_eq!(headline.len(), 3);
        for row in &headline {
            assert!(row.short.1 > 0);
            assert!(row.long.1 > 0);
            assert!(row.short.0 <= row.short.1);
            assert!(row.long.0 <= row.long.1);
        }
        let discovery = token_discovery(&outcomes);
        // 15 outcomes × inventory sizes: 7+4+12+15+99 per tool
        assert_eq!(discovery.len(), 3 * (7 + 4 + 12 + 15 + 99));
        for row in &discovery {
            if let Some(execs) = row.found_at {
                assert!(execs > 0);
            }
        }
    }
}
