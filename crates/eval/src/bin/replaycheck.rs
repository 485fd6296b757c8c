//! End-to-end determinism check: records an evaluation matrix, round-
//! trips the journal through its text encoding, then re-executes every
//! cell and diffs the digests — pFuzzer cells are additionally replayed
//! from the recorded decision stream with no RNG at all.
//!
//! Usage: replaycheck [--execs N] [--seeds a,b,c] [--afl-mult N] [--jobs N]
//!                    [--record PATH] [--replay PATH] [--resume-at N]
//!                    [--metrics-out PATH] [--progress]
//!
//! With `--replay PATH` an existing journal is checked instead of
//! recording a fresh one. With `--record PATH` the recorded journal is
//! also written out. With `--resume-at N` an additional checkpoint
//! self-test runs first: every pFuzzer cell is paused after N
//! executions, checkpointed through the text codec, resumed, and its
//! final digest compared against the uninterrupted campaign. Exits 0
//! when every cell replays byte-identically, 1 on any divergence, 2 on
//! I/O or decode errors. `--metrics-out PATH` writes the final
//! `pdf-metrics v1` snapshot; `--progress` prints a live stderr ticker.
//! Both are observe-only and cannot change any digest.

use pdf_core::{CampaignBudget, Checkpoint, DriverConfig, Fuzzer};
use pdf_runtime::cli::Args;

/// The flag table: `pdf_runtime::cli` parses the command line against it.
const USAGE: &str = "\
usage: replaycheck [--execs N] [--seeds a,b,c] [--afl-mult N] [--jobs N]
                   [--record PATH] [--replay PATH] [--resume-at N]
                   [--metrics-out PATH] [--progress]";

/// Kill-and-resume determinism check over the matrix's pFuzzer cells.
/// Returns the number of cells whose resumed campaign diverged from the
/// uninterrupted one.
fn resume_selftest(pause_at: u64, budget: &pdf_eval::EvalBudget) -> usize {
    let cells: Vec<pdf_eval::MatrixCell> = pdf_eval::matrix_cells(budget)
        .into_iter()
        .filter(|c| c.tool == pdf_eval::Tool::PFuzzer)
        .collect();
    eprintln!(
        "resume self-test: {} pFuzzer cells paused at {} execs ...",
        cells.len(),
        pause_at,
    );
    let mut diverged = 0;
    for cell in cells {
        let cfg = DriverConfig {
            seed: cell.seed,
            max_execs: cell.execs,
            ..DriverConfig::default()
        };
        let straight = Fuzzer::new(cell.info.subject, cfg.clone()).run();
        let mut paused = Fuzzer::new(cell.info.subject, cfg.clone());
        paused.run_until(&CampaignBudget::execs(pause_at));
        let text = paused.checkpoint().encode();
        let resumed = Checkpoint::decode(&text)
            .map_err(|e| e.to_string())
            .and_then(|ck| {
                Fuzzer::resume_from_checkpoint(cell.info.subject, cfg, &ck)
                    .map_err(|e| e.to_string())
            });
        let mut resumed = match resumed {
            Ok(f) => f,
            Err(e) => {
                eprintln!("  {}/{}: checkpoint failed: {e}", cell.info.name, cell.seed);
                diverged += 1;
                continue;
            }
        };
        resumed.run_until(&CampaignBudget::unbounded());
        let report = resumed.into_report();
        if report.digest() != straight.digest() || report.valid_inputs != straight.valid_inputs {
            eprintln!(
                "  {}/{}: resumed digest {:016x} != uninterrupted {:016x}",
                cell.info.name,
                cell.seed,
                report.digest(),
                straight.digest()
            );
            diverged += 1;
        }
    }
    if diverged == 0 {
        eprintln!("resume self-test clean");
    }
    diverged
}

fn main() {
    let args = Args::from_env(USAGE);
    let jobs = args.or_exit(args.positive("--jobs", 1)) as usize;
    let budget = args.or_exit(pdf_eval::EvalBudget::from_args(&args, 2_000));
    let resume_at = args.or_exit(args.parsed::<u64>("--resume-at", "a non-negative integer"));
    let registry = std::sync::Arc::new(pdf_obs::MetricsRegistry::new());
    let _metrics = pdf_obs::install(std::sync::Arc::clone(&registry));
    let ticker = args
        .has("--progress")
        .then(|| pdf_eval::ProgressTicker::start(std::sync::Arc::clone(&registry)));
    let code = run(&args, jobs, &budget, resume_at);
    drop(ticker);
    if let Some(path) = args.path("--metrics-out") {
        pdf_eval::write_metrics_snapshot(&path, &registry);
    }
    std::process::exit(code);
}

fn run(args: &Args, jobs: usize, budget: &pdf_eval::EvalBudget, resume_at: Option<u64>) -> i32 {
    if let Some(pause_at) = resume_at {
        if resume_selftest(pause_at, budget) > 0 {
            eprintln!("resume self-test FAILED");
            return 1;
        }
    }
    let journal = match args.path("--replay") {
        Some(path) => {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {}: {e}", path.display());
                    return 2;
                }
            };
            match pdf_runtime::Journal::decode(&text) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("cannot decode {}: {e}", path.display());
                    return 2;
                }
            }
        }
        None => {
            let cells = pdf_eval::matrix_cells(budget);
            eprintln!(
                "recording {} cells ({} execs x {} seeds, {} jobs) ...",
                cells.len(),
                budget.execs,
                budget.seeds.len(),
                jobs,
            );
            let (_, journal) = pdf_eval::record_cells(&cells, jobs);
            if let Some(path) = args.path("--record") {
                match std::fs::write(&path, journal.encode()) {
                    Ok(()) => eprintln!("journal written to {}", path.display()),
                    Err(e) => {
                        eprintln!("failed to write {}: {e}", path.display());
                        return 2;
                    }
                }
            }
            // the text encoding must carry the recording losslessly
            match pdf_runtime::Journal::decode(&journal.encode()) {
                Ok(decoded) if decoded == journal => decoded,
                Ok(_) => {
                    eprintln!("journal text round-trip altered the recording");
                    return 2;
                }
                Err(e) => {
                    eprintln!("journal text round-trip failed: {e}");
                    return 2;
                }
            }
        }
    };
    eprintln!(
        "replaying {} cells ({} jobs) ...",
        journal.cells.len(),
        jobs
    );
    let report = pdf_eval::replay_journal(&journal, jobs);
    if report.is_clean() {
        eprintln!("replay clean: {} cells byte-identical", report.cells);
        return 0;
    }
    for d in &report.diffs {
        eprintln!("{}", d.describe());
    }
    eprintln!(
        "replay FAILED: {}/{} cells diverged",
        report.diffs.len(),
        report.cells
    );
    1
}
