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

/// The value following `flag` in `args`, if the flag is present.
///
/// # Errors
///
/// A message naming the flag when it is the last argument.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().skip(1).position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 2)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{flag} requires a value")),
    }
}

/// Parses `--execs N`, `--seeds a,b,c` and `--afl-mult N` from `args`,
/// falling back to `default_execs` and the [`EvalBudget`] defaults for
/// absent flags. A present flag must carry a well-formed value: a typo
/// such as `--execs 3O000` silently running the default budget would
/// invalidate the experiment.
///
/// # Errors
///
/// A message naming the flag when `--execs` or `--afl-mult` is
/// missing, malformed or zero, or when `--seeds` holds anything but
/// comma-separated integers.
fn budget_in(args: &[String], default_execs: u64) -> Result<EvalBudget, String> {
    let defaults = EvalBudget::default();
    let seeds = match flag_value(args, "--seeds")? {
        None => defaults.seeds,
        Some(raw) => raw
            .split(',')
            .map(|s| s.trim().parse())
            .collect::<Result<_, _>>()
            .map_err(|_| format!("--seeds expects comma-separated integers, got {raw:?}"))?,
    };
    Ok(EvalBudget {
        execs: positive_arg_in(args, "--execs", default_execs)?,
        seeds,
        afl_throughput: positive_arg_in(args, "--afl-mult", defaults.afl_throughput)?,
    })
}

/// Parses the evaluation budget from the command line — see
/// [`budget_in`] — exiting with status 2 on a bad value. Used by the
/// experiment binaries.
pub fn budget_from_args(default_execs: u64) -> EvalBudget {
    let args: Vec<String> = std::env::args().collect();
    require_arg(budget_in(&args, default_execs))
}

/// Parses a positive-integer `--flag N` argument from `args`: the flag
/// is optional (absent → `default`), but a present flag must carry a
/// well-formed value of at least 1 — `--jobs 0` or `--shards 0`
/// silently degenerate (a serial "parallel" run, an empty fleet), so
/// they are rejected with a clear error instead of being clamped.
///
/// The shared parsing core behind [`budget_from_args`], [`jobs_from_args`],
/// [`shards_from_args`] and [`sync_every_from_args`]; exposed so every
/// binary rejects bad counts with the same wording.
///
/// # Errors
///
/// A human-readable message naming the flag when its value is missing,
/// malformed or zero.
pub fn positive_arg_in(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    let Some(raw) = flag_value(args, flag)? else {
        return Ok(default);
    };
    let n: u64 = raw
        .parse()
        .map_err(|_| format!("{flag} expects a positive integer, got {raw:?}"))?;
    if n == 0 {
        return Err(format!("{flag} must be at least 1 (got 0)"));
    }
    Ok(n)
}

/// Parses `--jobs N` from the command line: worker threads for the
/// matrix fan-out. Defaults to 1 (serial).
///
/// # Errors
///
/// A clear message when `--jobs` is present with a missing, malformed
/// or zero value (`--jobs 0` would silently run serially).
pub fn jobs_from_args() -> Result<usize, String> {
    let args: Vec<String> = std::env::args().collect();
    positive_arg_in(&args, "--jobs", 1).map(|n| n as usize)
}

/// Parses `--shards N` from the command line: fleet worker shards.
/// Defaults to [`FLEET_SHARDS`].
///
/// # Errors
///
/// A clear message when `--shards` is present with a missing, malformed
/// or zero value (`--shards 0` would be an empty fleet).
pub fn shards_from_args() -> Result<usize, String> {
    let args: Vec<String> = std::env::args().collect();
    positive_arg_in(&args, "--shards", FLEET_SHARDS as u64).map(|n| n as usize)
}

/// Parses `--sync-every N` from the command line: per-shard executions
/// between fleet synchronization epochs. Defaults to `default`.
///
/// # Errors
///
/// A clear message when `--sync-every` is present with a missing,
/// malformed or zero value (a zero interval would never advance).
pub fn sync_every_from_args(default: u64) -> Result<u64, String> {
    let args: Vec<String> = std::env::args().collect();
    positive_arg_in(&args, "--sync-every", default)
}

/// Parses `--exec-mode full|tiered` from `args`: the instrumentation
/// tiering the pFuzzer campaigns run under ([`pdf_core::ExecMode`]).
/// The flag is optional (absent →
/// [`ExecMode::Full`](pdf_core::ExecMode::Full), the byte-identical
/// replay mode), but a present flag must carry one of the two mode
/// names — a typo silently falling back to full would invalidate a
/// throughput experiment. Mode names are matched case-insensitively
/// (`FULL` and `Tiered` both work), so scripts that upcase
/// configuration values are not rejected.
///
/// # Errors
///
/// A human-readable message naming the flag and listing the valid
/// modes when its value is missing or unknown.
pub fn exec_mode_in(args: &[String]) -> Result<pdf_core::ExecMode, String> {
    let Some(raw) = flag_value(args, "--exec-mode")? else {
        return Ok(pdf_core::ExecMode::Full);
    };
    match raw.to_ascii_lowercase().as_str() {
        "full" => Ok(pdf_core::ExecMode::Full),
        "tiered" => Ok(pdf_core::ExecMode::Tiered),
        _ => Err(format!(
            "--exec-mode expects one of full, tiered (case-insensitive), got {raw:?}"
        )),
    }
}

/// Parses `--exec-mode full|tiered` from the command line — see
/// [`exec_mode_in`]. Used by `evalrunner` and `fleetrunner`.
///
/// # Errors
///
/// A clear message when `--exec-mode` is present with a missing or
/// unknown value.
pub fn exec_mode_from_args() -> Result<pdf_core::ExecMode, String> {
    let args: Vec<String> = std::env::args().collect();
    exec_mode_in(&args)
}

/// Unwraps a CLI parse result, printing the error to stderr and
/// exiting with status 2 on failure — the shared rejection path of
/// `evalrunner`, `replaycheck` and `fleetrunner`.
pub fn require_arg<T>(parsed: Result<T, String>) -> T {
    match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Parses `--stats-out PATH` from the command line: where to write the
/// per-cell [`pdf_runtime::RunStats`] JSON lines.
pub fn stats_out_from_args() -> Option<std::path::PathBuf> {
    path_arg("--stats-out")
}

/// Parses `--record PATH` from the command line: where to write the
/// record/replay [`pdf_runtime::Journal`] of the matrix run.
pub fn record_path_from_args() -> Option<std::path::PathBuf> {
    path_arg("--record")
}

/// Parses `--replay PATH` from the command line: a previously recorded
/// [`pdf_runtime::Journal`] to re-execute and diff instead of running a
/// fresh matrix.
pub fn replay_path_from_args() -> Option<std::path::PathBuf> {
    path_arg("--replay")
}

/// Parses `--max-retries N` from `args`: the supervisor's retry budget
/// for crashed or fuel-hung cells. Defaults to
/// [`SupervisorConfig::default`]; zero is legal and disables retries.
///
/// # Errors
///
/// A message naming the flag when its value is missing or malformed.
fn supervisor_in(args: &[String]) -> Result<SupervisorConfig, String> {
    match flag_value(args, "--max-retries")? {
        None => Ok(SupervisorConfig::default()),
        Some(raw) => raw
            .parse()
            .map(|max_retries| SupervisorConfig { max_retries })
            .map_err(|_| format!("--max-retries expects a non-negative integer, got {raw:?}")),
    }
}

/// Parses `--max-retries N` from the command line — see
/// [`supervisor_in`] — exiting with status 2 on a bad value.
pub fn supervisor_from_args() -> SupervisorConfig {
    let args: Vec<String> = std::env::args().collect();
    require_arg(supervisor_in(&args))
}

/// Parses `--chaos SEED` from the command line: when present, the
/// matrix runs on chaos-wrapped subjects (deterministic injected
/// panics, fuel burns and flaky rejections seeded by `SEED`) instead of
/// the plain evaluation subjects — the supervision stress mode.
pub fn chaos_seed_from_args() -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    for i in 1..args.len() {
        if args[i] == "--chaos" {
            return args.get(i + 1).and_then(|s| s.parse().ok());
        }
    }
    None
}

/// Parses `--dict-out PATH` from the command line: when present,
/// `evalrunner` runs one token-mining pFuzzer campaign per subject,
/// prints the mined-inventory scorecard, writes the union dictionary to
/// `PATH` in the `pdf-dict v1` text encoding, and exits.
pub fn dict_out_from_args() -> Option<std::path::PathBuf> {
    path_arg("--dict-out")
}

/// Parses `--dict-in PATH` from the command line: when present,
/// `evalrunner` loads the `pdf-dict v1` dictionary at `PATH`, runs the
/// dictionary study (pFuzzer and AFL, bare vs dictionary-fed, equal
/// budgets) on the keyword-rich subjects, prints the comparison table,
/// and exits.
pub fn dict_in_from_args() -> Option<std::path::PathBuf> {
    path_arg("--dict-in")
}

/// Parses `--grammar-out DIR` from the command line: when present,
/// `evalrunner` runs one combined three-stage campaign per subject
/// (pFuzzer explores, the miner generalizes, the compiled generator
/// floods with evolutionary weighting), prints the mining scorecard,
/// writes each learned grammar + weights to `DIR/<subject>.grammar` in
/// the `pdf-grammar v1` text encoding, and exits.
pub fn grammar_out_from_args() -> Option<std::path::PathBuf> {
    path_arg("--grammar-out")
}

/// Parses `--grammar-in DIR` from the command line: when present,
/// `evalrunner` loads the `pdf-grammar v1` files under `DIR`, runs the
/// grammar-generation study (pFuzzer alone vs persisted-grammar flood
/// vs full combined pipeline, equal budgets) on every subject with a
/// grammar file, prints the comparison table, and exits.
pub fn grammar_in_from_args() -> Option<std::path::PathBuf> {
    path_arg("--grammar-in")
}

/// Parses `--checkpoint-dir PATH` from the command line: the directory
/// `fleetrunner` checkpoints the fleet into at every epoch boundary
/// (and resumes from with `--resume`).
pub fn checkpoint_dir_from_args() -> Option<std::path::PathBuf> {
    path_arg("--checkpoint-dir")
}

/// Parses `--metrics-out PATH` from the command line: where to write
/// the final [`pdf_obs::MetricsSnapshot`] in its `pdf-metrics v1` text
/// encoding after the run completes.
pub fn metrics_out_from_args() -> Option<std::path::PathBuf> {
    path_arg("--metrics-out")
}

/// Parses `--submit ADDR` from the command line: when present,
/// `evalrunner` submits the pFuzzer matrix as fleet campaigns to the
/// `pdf-serve` daemon at `ADDR` over `pdf-wire v1` instead of running
/// it in-process, waits for every campaign to reach a terminal phase
/// and prints one result row per campaign.
pub fn submit_addr_from_args() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    for i in 1..args.len() {
        if args[i] == "--submit" {
            return args.get(i + 1).cloned();
        }
    }
    None
}

/// Parses the `--progress` flag from the command line: when present,
/// the binaries print a live one-line stderr ticker (execs/s, valid
/// inputs, queue depth, poisoned cells) roughly once per second while
/// the matrix runs.
pub fn progress_from_args() -> bool {
    std::env::args().skip(1).any(|a| a == "--progress")
}

/// Parses `--resume-at N` from the command line: when present,
/// `replaycheck` first runs a kill-and-resume self-test pausing every
/// pFuzzer cell after N executions.
pub fn resume_at_from_args() -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    for i in 1..args.len() {
        if args[i] == "--resume-at" {
            return args.get(i + 1).and_then(|s| s.parse().ok());
        }
    }
    None
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

fn path_arg(flag: &str) -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    for i in 1..args.len() {
        if args[i] == flag {
            return args.get(i + 1).map(std::path::PathBuf::from);
        }
    }
    None
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
    use super::{budget_in, exec_mode_in, positive_arg_in, supervisor_in};
    use pdf_core::ExecMode;

    fn args(list: &[&str]) -> Vec<String> {
        std::iter::once("prog")
            .chain(list.iter().copied())
            .map(String::from)
            .collect()
    }

    #[test]
    fn absent_flag_falls_back_to_default() {
        assert_eq!(positive_arg_in(&args(&[]), "--jobs", 1), Ok(1));
        assert_eq!(
            positive_arg_in(&args(&["--execs", "100"]), "--shards", 4),
            Ok(4)
        );
    }

    #[test]
    fn present_flag_parses_positive_values() {
        assert_eq!(positive_arg_in(&args(&["--jobs", "8"]), "--jobs", 1), Ok(8));
        assert_eq!(
            positive_arg_in(&args(&["--shards", "2", "--jobs", "8"]), "--shards", 4),
            Ok(2)
        );
    }

    #[test]
    fn zero_is_rejected_with_a_clear_error() {
        let err = positive_arg_in(&args(&["--jobs", "0"]), "--jobs", 1).unwrap_err();
        assert!(err.contains("--jobs"), "error must name the flag: {err}");
        assert!(err.contains("at least 1"), "error must explain: {err}");
        let err = positive_arg_in(&args(&["--shards", "0"]), "--shards", 4).unwrap_err();
        assert!(err.contains("--shards"));
    }

    #[test]
    fn malformed_and_missing_values_are_rejected() {
        assert!(positive_arg_in(&args(&["--jobs", "many"]), "--jobs", 1).is_err());
        assert!(positive_arg_in(&args(&["--jobs", "-3"]), "--jobs", 1).is_err());
        assert!(positive_arg_in(&args(&["--jobs"]), "--jobs", 1).is_err());
    }

    #[test]
    fn exec_mode_defaults_to_full_and_parses_both() {
        assert_eq!(exec_mode_in(&args(&[])), Ok(ExecMode::Full));
        assert_eq!(exec_mode_in(&args(&["--execs", "100"])), Ok(ExecMode::Full));
        assert_eq!(
            exec_mode_in(&args(&["--exec-mode", "full"])),
            Ok(ExecMode::Full)
        );
        assert_eq!(
            exec_mode_in(&args(&["--jobs", "2", "--exec-mode", "tiered"])),
            Ok(ExecMode::Tiered)
        );
    }

    #[test]
    fn exec_mode_rejects_unknown_and_missing_values() {
        let err = exec_mode_in(&args(&["--exec-mode", "turbo"])).unwrap_err();
        assert!(
            err.contains("--exec-mode"),
            "error must name the flag: {err}"
        );
        assert!(err.contains("turbo"), "error must quote the value: {err}");
        assert!(
            err.contains("full, tiered"),
            "error must list the modes: {err}"
        );
        assert!(exec_mode_in(&args(&["--exec-mode"])).is_err());
    }

    #[test]
    fn exec_mode_rejects_the_retired_fast_mode() {
        for raw in ["fast", "Fast"] {
            let err = exec_mode_in(&args(&["--exec-mode", raw])).unwrap_err();
            assert!(
                err.contains("full, tiered"),
                "error must list the modes: {err}"
            );
        }
    }

    #[test]
    fn exec_mode_is_case_insensitive() {
        assert_eq!(
            exec_mode_in(&args(&["--exec-mode", "FULL"])),
            Ok(ExecMode::Full)
        );
        assert_eq!(
            exec_mode_in(&args(&["--exec-mode", "TiErEd"])),
            Ok(ExecMode::Tiered)
        );
    }

    #[test]
    fn budget_parses_every_flag_and_defaults_the_rest() {
        let b = budget_in(&args(&[]), 500).unwrap();
        assert_eq!(
            (b.execs, b.seeds, b.afl_throughput),
            (500, vec![1, 2, 3], 10)
        );
        let b = budget_in(
            &args(&["--execs", "300", "--seeds", "4, 5", "--afl-mult", "2"]),
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
            let err = budget_in(&args(&[flag, raw]), 500).unwrap_err();
            assert!(err.contains(flag), "error must name {flag}: {err}");
        }
        assert!(budget_in(&args(&["--execs"]), 500).is_err());
    }

    #[test]
    fn max_retries_accepts_zero_and_rejects_garbage() {
        assert_eq!(supervisor_in(&args(&[])).unwrap().max_retries, 2);
        assert_eq!(
            supervisor_in(&args(&["--max-retries", "0"]))
                .unwrap()
                .max_retries,
            0
        );
        let err = supervisor_in(&args(&["--max-retries", "two"])).unwrap_err();
        assert!(
            err.contains("--max-retries"),
            "error must name the flag: {err}"
        );
        assert!(supervisor_in(&args(&["--max-retries"])).is_err());
    }
}
