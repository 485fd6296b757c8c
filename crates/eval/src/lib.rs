//! The evaluation harness: runs pFuzzer, the AFL baseline and the
//! KLEE baseline on the five subjects and reproduces every table and
//! figure of the paper's Section 5.
//!
//! The experiments are exposed as library functions (used by the
//! binaries in `src/bin`, the Criterion benches in `pdf-bench` and the
//! integration tests) so that a single implementation produces all the
//! reported numbers.
//!
//! Budgets are expressed in *subject executions* rather than wall-clock
//! hours: all three tools pay per execution, so the paper's qualitative
//! comparison is preserved at laptop scale (see DESIGN.md for the
//! substitution argument). Like the paper, each tool runs with several
//! seeds and the best run is reported.
//!
//! # Example
//!
//! ```
//! use pdf_eval::{run_tool, EvalBudget, Tool};
//!
//! let info = pdf_subjects::by_name("cjson").unwrap();
//! let budget = EvalBudget { execs: 2_000, seeds: vec![1], ..EvalBudget::default() };
//! let outcome = run_tool(Tool::PFuzzer, &info, &budget);
//! assert!(outcome.execs <= 2_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coverage;
mod experiments;
mod progress;
mod render;
mod replay;
mod runner;

use pdf_runtime::cli::Args;

pub use coverage::{coverage_universe, relative_coverage};
pub use experiments::{
    dict_vs_baseline, fig1_walkthrough, fig2_coverage, fig3_tokens, fleet_vs_single,
    grammar_vs_baseline, headline_aggregates, mine_subject_dictionary, mine_subject_grammar,
    mine_union_dictionary, run_matrix, run_matrix_jobs, table1_subjects, token_discovery,
    token_tables, DictStudyRow, DiscoveryRow, Fig2Row, Fig3Cell, FleetComparison, FleetSide,
    GrammarMineRow, GrammarStudyRow, HeadlineRow, MinedInventoryRow,
};
pub use progress::ProgressTicker;
pub use render::{
    render_dict_study, render_discovery, render_fig2, render_fig3, render_grammar_mine,
    render_grammar_study, render_headline, render_mined_inventory, render_supervision,
    render_table1, render_token_table,
};
pub use replay::{
    cell_config_hash, journal_of, record_cells, replay_journal, CellDiff, ReplayReport,
};
pub use runner::{
    attempt_seed, best_outcome, collapse_matrix, combined_config_for, completed_outcomes,
    fleet_config_for, matrix_cells, matrix_cells_for, outcome_digest, run_cell_supervised,
    run_cells, run_cells_supervised, run_tool, run_tool_seeded, run_tool_seeded_in,
    supervision_summary, CellOutcome, EvalBudget, MatrixCell, Outcome, PoisonedCell,
    SupervisorConfig, Tool, FLEET_SHARDS,
};

impl EvalBudget {
    /// Reads `--execs N`, `--seeds a,b,c` and `--afl-mult N`, falling
    /// back to `default_execs` and the [`EvalBudget`] defaults for
    /// absent flags. A present flag must carry a well-formed value: a
    /// typo such as `--execs 3O000` silently running the default budget
    /// would invalidate the experiment. A binary that runs no AFL cell
    /// does not declare `--afl-mult`, so its parser refuses the flag.
    ///
    /// # Errors
    ///
    /// A message naming the flag when `--execs` or `--afl-mult` is
    /// malformed or zero, or when `--seeds` holds anything but
    /// comma-separated integers.
    pub fn from_args(args: &Args, default_execs: u64) -> Result<EvalBudget, String> {
        let defaults = EvalBudget::default();
        let seeds = match args.value("--seeds") {
            None => defaults.seeds,
            Some(raw) => raw
                .split(',')
                .map(|s| s.trim().parse())
                .collect::<Result<_, _>>()
                .map_err(|_| format!("--seeds expects comma-separated integers, got {raw:?}"))?,
        };
        Ok(EvalBudget {
            execs: args.positive("--execs", default_execs)?,
            seeds,
            afl_throughput: args.positive("--afl-mult", defaults.afl_throughput)?,
        })
    }
}

impl SupervisorConfig {
    /// Reads `--max-retries N`: the supervisor's retry budget for
    /// crashed or fuel-hung cells. Defaults to
    /// [`SupervisorConfig::default`]; zero is legal and disables
    /// retries.
    ///
    /// # Errors
    ///
    /// A message naming the flag when its value is malformed.
    pub fn from_args(args: &Args) -> Result<SupervisorConfig, String> {
        Ok(args
            .parsed("--max-retries", "a non-negative integer")?
            .map_or_else(SupervisorConfig::default, |max_retries| SupervisorConfig {
                max_retries,
            }))
    }
}

/// Reads `--exec-mode full|tiered`: the instrumentation tiering the
/// pFuzzer campaigns run under ([`pdf_core::ExecMode`]). Absent means
/// [`ExecMode::Full`](pdf_core::ExecMode::Full), the byte-identical
/// replay mode; a present flag must name a mode, matched
/// case-insensitively — a typo silently falling back to full would
/// invalidate a throughput experiment.
///
/// # Errors
///
/// A message naming the flag and listing the valid modes when the
/// value is unknown.
pub fn exec_mode_arg(args: &Args) -> Result<pdf_core::ExecMode, String> {
    let Some(raw) = args.value("--exec-mode") else {
        return Ok(pdf_core::ExecMode::Full);
    };
    pdf_core::ExecMode::parse(raw).ok_or_else(|| {
        format!("--exec-mode expects one of full, tiered (case-insensitive), got {raw:?}")
    })
}

/// Writes `registry`'s snapshot to `path` in the `pdf-metrics v1` text
/// encoding, first checking the counter identities that hold by
/// construction (verdict counts sum to executions, histogram counts
/// match). Identity violations and I/O failures are reported on stderr
/// but never abort the run — metrics are observe-only all the way out.
pub fn write_metrics_snapshot(path: &std::path::Path, registry: &pdf_obs::MetricsRegistry) {
    let snapshot = registry.snapshot();
    if let Err(e) = snapshot.check_identities() {
        eprintln!("metrics identity violation: {e}");
    }
    match std::fs::write(path, snapshot.encode()) {
        Ok(()) => eprintln!(
            "wrote metrics snapshot ({} execs) to {}",
            registry.execs.get(),
            path.display()
        ),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

/// Renders one per-cell outcome as a JSON line: context keys (tool,
/// subject, seed) followed by the campaign's [`pdf_runtime::RunStats`]
/// fields.
pub fn stats_json_line(o: &Outcome) -> String {
    format!(
        "{{\"tool\":\"{}\",\"subject\":\"{}\",\"seed\":{},{}}}",
        o.tool.name(),
        o.subject,
        o.seed,
        o.stats.json_fields()
    )
}

#[cfg(test)]
mod cli_tests {
    use super::{exec_mode_arg, EvalBudget, SupervisorConfig};
    use pdf_core::ExecMode;
    use pdf_runtime::cli::Args;

    const USAGE: &str = "\
usage: prog [--execs N] [--seeds a,b,c] [--afl-mult N] [--jobs N] [--shards N]
            [--exec-mode full|tiered] [--max-retries N]";

    /// Parses `list` and applies `reader`; a refused command line is an
    /// error like a refused value.
    fn read<T>(list: &[&str], reader: impl Fn(&Args) -> Result<T, String>) -> Result<T, String> {
        let args = Args::parse(USAGE, list.iter().map(|s| s.to_string()))?;
        reader(&args.expect("no --help"))
    }

    fn positive(list: &[&str], flag: &str, default: u64) -> Result<u64, String> {
        read(list, |a| a.positive(flag, default))
    }

    fn exec_mode(list: &[&str]) -> Result<ExecMode, String> {
        read(list, exec_mode_arg)
    }

    fn budget(list: &[&str], default_execs: u64) -> Result<EvalBudget, String> {
        read(list, |a| EvalBudget::from_args(a, default_execs))
    }

    fn supervisor(list: &[&str]) -> Result<SupervisorConfig, String> {
        read(list, SupervisorConfig::from_args)
    }

    #[test]
    fn absent_flag_falls_back_to_default() {
        assert_eq!(positive(&[], "--jobs", 1), Ok(1));
        assert_eq!(positive(&["--execs", "100"], "--shards", 4), Ok(4));
    }

    #[test]
    fn present_flag_parses_positive_values() {
        assert_eq!(positive(&["--jobs", "8"], "--jobs", 1), Ok(8));
        assert_eq!(
            positive(&["--shards", "2", "--jobs", "8"], "--shards", 4),
            Ok(2)
        );
    }

    #[test]
    fn zero_is_rejected_with_a_clear_error() {
        let err = positive(&["--jobs", "0"], "--jobs", 1).unwrap_err();
        assert!(err.contains("--jobs"), "error must name the flag: {err}");
        assert!(err.contains("at least 1"), "error must explain: {err}");
        let err = positive(&["--shards", "0"], "--shards", 4).unwrap_err();
        assert!(err.contains("--shards"));
    }

    #[test]
    fn malformed_and_missing_values_are_rejected() {
        assert!(positive(&["--jobs", "many"], "--jobs", 1).is_err());
        assert!(positive(&["--jobs", "-3"], "--jobs", 1).is_err());
        assert!(positive(&["--jobs"], "--jobs", 1).is_err());
    }

    #[test]
    fn exec_mode_defaults_to_full_and_parses_both() {
        assert_eq!(exec_mode(&[]), Ok(ExecMode::Full));
        assert_eq!(exec_mode(&["--execs", "100"]), Ok(ExecMode::Full));
        assert_eq!(exec_mode(&["--exec-mode", "full"]), Ok(ExecMode::Full));
        assert_eq!(
            exec_mode(&["--jobs", "2", "--exec-mode", "tiered"]),
            Ok(ExecMode::Tiered)
        );
    }

    #[test]
    fn exec_mode_rejects_unknown_and_missing_values() {
        let err = exec_mode(&["--exec-mode", "turbo"]).unwrap_err();
        assert!(
            err.contains("--exec-mode"),
            "error must name the flag: {err}"
        );
        assert!(err.contains("turbo"), "error must quote the value: {err}");
        assert!(
            err.contains("full, tiered"),
            "error must list the modes: {err}"
        );
        assert!(exec_mode(&["--exec-mode"]).is_err());
    }

    #[test]
    fn exec_mode_rejects_the_retired_fast_mode() {
        for raw in ["fast", "Fast"] {
            let err = exec_mode(&["--exec-mode", raw]).unwrap_err();
            assert!(
                err.contains("full, tiered"),
                "error must list the modes: {err}"
            );
        }
    }

    #[test]
    fn exec_mode_is_case_insensitive() {
        assert_eq!(exec_mode(&["--exec-mode", "FULL"]), Ok(ExecMode::Full));
        assert_eq!(exec_mode(&["--exec-mode", "TiErEd"]), Ok(ExecMode::Tiered));
    }

    #[test]
    fn budget_parses_every_flag_and_defaults_the_rest() {
        let b = budget(&[], 500).unwrap();
        assert_eq!(
            (b.execs, b.seeds, b.afl_throughput),
            (500, vec![1, 2, 3], 10)
        );
        let b = budget(
            &["--execs", "300", "--seeds", "4, 5", "--afl-mult", "2"],
            500,
        )
        .unwrap();
        assert_eq!((b.execs, b.seeds, b.afl_throughput), (300, vec![4, 5], 2));
    }

    #[test]
    fn budget_rejects_malformed_and_zero_values() {
        for (flag, raw) in [
            ("--execs", "3O000"),
            ("--execs", "0"),
            ("--afl-mult", "0"),
            ("--afl-mult", "x"),
            ("--seeds", "1,x"),
            ("--seeds", ""),
        ] {
            let err = budget(&[flag, raw], 500).unwrap_err();
            assert!(err.contains(flag), "error must name {flag}: {err}");
        }
        assert!(budget(&["--execs"], 500).is_err());
    }

    #[test]
    fn max_retries_accepts_zero_and_rejects_garbage() {
        assert_eq!(supervisor(&[]).unwrap().max_retries, 2);
        assert_eq!(supervisor(&["--max-retries", "0"]).unwrap().max_retries, 0);
        let err = supervisor(&["--max-retries", "two"]).unwrap_err();
        assert!(
            err.contains("--max-retries"),
            "error must name the flag: {err}"
        );
        assert!(supervisor(&["--max-retries"]).is_err());
    }
}
