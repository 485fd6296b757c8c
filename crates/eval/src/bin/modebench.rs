//! Coverage-vs-throughput comparison of the two execution modes.
//! Usage: modebench [--execs N] [--seeds S] [--subject NAME]
//!                  [--exec-mode full|tiered]
//!
//! Runs the pFuzzer driver on every evaluation subject (or just
//! `--subject NAME`) under both the `full` and `tiered` execution
//! modes (or just `--exec-mode MODE`, matched case-insensitively) with
//! the same seed and execution budget, and prints one markdown table
//! row per (subject, mode): valid inputs found,
//! branches covered by valid inputs, total branches, wall-clock time
//! and executions per second. The numbers feed the EXPERIMENTS.md
//! "Execution tiers" table.
//!
//! Coverage columns are deterministic per `(subject, seed, execs)`;
//! the time and execs/s columns are wall-clock measurements and vary
//! with the machine.

use std::time::Instant;

use pdf_core::{DriverConfig, ExecMode, Fuzzer};
use pdf_runtime::cli::Args;

/// The flag table: `pdf_runtime::cli` parses the command line against it.
const USAGE: &str = "\
usage: modebench [--execs N] [--seeds S] [--subject NAME]
                 [--exec-mode full|tiered]";

fn main() {
    let args = Args::from_env(USAGE);
    let budget = args.or_exit(pdf_eval::EvalBudget::from_args(&args, 20_000));
    let seed = budget.seeds[0];
    let modes: Vec<ExecMode> = if args.has("--exec-mode") {
        vec![args.or_exit(pdf_eval::exec_mode_arg(&args))]
    } else {
        vec![ExecMode::Full, ExecMode::Tiered]
    };
    let subjects: Vec<pdf_subjects::SubjectInfo> = match args.value("--subject") {
        Some(name) => match pdf_subjects::by_name(name) {
            Some(info) => vec![info],
            None => args.fail(&format!("unknown subject {name:?}")),
        },
        None => pdf_subjects::evaluation_subjects(),
    };

    println!(
        "modebench: {} execs, seed {seed} (coverage columns deterministic, \
         time columns machine-dependent)",
        budget.execs
    );
    println!("| subject | mode | valid | valid br | all br | time (s) | execs/s |");
    println!("|---------|------|------:|---------:|-------:|---------:|--------:|");
    for info in &subjects {
        for &mode in &modes {
            let cfg = DriverConfig {
                seed,
                max_execs: budget.execs,
                exec_mode: mode,
                ..DriverConfig::default()
            };
            let start = Instant::now();
            let r = Fuzzer::new(info.subject, cfg).run();
            let secs = start.elapsed().as_secs_f64();
            let rate = r.execs as f64 / secs.max(1e-9);
            println!(
                "| {} | {} | {} | {} | {} | {:.2} | {:.0} |",
                info.name,
                mode.name(),
                r.valid_inputs.len(),
                r.valid_branches.len(),
                r.all_branches.len(),
                secs,
                rate,
            );
        }
    }
}
