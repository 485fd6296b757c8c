//! Runs one fuzzing campaign as a sharded cooperative fleet.
//! Usage: fleetrunner [--subject NAME] [--execs N] [--seeds S]
//!                    [--shards N] [--sync-every E]
//!                    [--exec-mode full|tiered]
//!                    [--checkpoint-dir D] [--resume]
//!                    [--stop-after-epochs K] [--compare]
//!                    [--metrics-out PATH]
//!
//! `--execs N` is the *total* execution budget, split evenly over
//! `--shards N` workers (shard `i` runs seed `S + i`); `--sync-every E`
//! is the per-shard execution count between synchronization epochs
//! (default: an eighth of the shard budget, at least 50). With
//! `--checkpoint-dir D` the fleet checkpoints into `D` at every epoch
//! boundary; `--stop-after-epochs K` exits after global epoch K (the
//! "kill" half of the CI kill-and-resume test) and `--resume` continues
//! a checkpointed fleet — the resumed run is digest-identical to an
//! uninterrupted one. `--compare` additionally runs the single-shard
//! driver under the per-shard budget plus an independent N-restart
//! ensemble (a fleet that syncs exactly once, at the end) and reports,
//! for each side, how many total executions it needed to reach the
//! single driver's token count and exact token set
//! (EXPERIMENTS.md "Fleet sharding").
//!
//! `--exec-mode` selects the shards' instrumentation tiering (`full`,
//! the default, runs every execution fully instrumented; `tiered`
//! runs the fast-failure sink and escalates selectively — see
//! DESIGN.md §12). Both modes are deterministic per seed.
//!
//! The run always ends by printing `fleet digest:` and
//! `merged coverage digest:` lines; two invocations with the same
//! arguments print identical digests, which is what the CI
//! `fleet-determinism` and `throughput-smoke` jobs diff.

use std::sync::Arc;

use pdf_core::DriverConfig;
use pdf_fleet::{Fleet, FleetConfig};

fn string_arg(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    for i in 1..args.len() {
        if args[i] == flag {
            return args.get(i + 1).cloned();
        }
    }
    None
}

fn flag_present(flag: &str) -> bool {
    std::env::args().skip(1).any(|a| a == flag)
}

fn main() {
    let registry = Arc::new(pdf_obs::MetricsRegistry::new());
    let _metrics = pdf_obs::install(Arc::clone(&registry));
    let metrics_out = pdf_eval::metrics_out_from_args();

    let budget = pdf_eval::budget_from_args(40_000);
    let seed = budget.seeds.first().copied().unwrap_or(1);
    let shards = pdf_eval::require_arg(pdf_eval::shards_from_args());
    let per_shard = (budget.execs / shards as u64).max(1);
    let default_sync = (per_shard / 8).clamp(50, per_shard.max(50));
    let sync_every = pdf_eval::require_arg(pdf_eval::sync_every_from_args(default_sync));
    let subject_name = string_arg("--subject").unwrap_or_else(|| "mjs".to_string());
    let Some(info) = pdf_subjects::by_name(&subject_name) else {
        eprintln!("error: unknown subject {subject_name:?}");
        std::process::exit(2);
    };
    let checkpoint_dir = pdf_eval::checkpoint_dir_from_args();
    let stop_after = string_arg("--stop-after-epochs").map(|raw| {
        pdf_eval::require_arg(
            raw.parse::<u64>()
                .map_err(|_| format!("--stop-after-epochs expects an integer, got {raw:?}"))
                .and_then(|n| {
                    if n == 0 {
                        Err("--stop-after-epochs must be at least 1 (got 0)".to_string())
                    } else {
                        Ok(n)
                    }
                }),
        )
    });

    let exec_mode = pdf_eval::require_arg(pdf_eval::exec_mode_from_args());
    let base = DriverConfig {
        seed,
        max_execs: per_shard,
        exec_mode,
        ..DriverConfig::default()
    };
    let cfg = FleetConfig::new(shards, sync_every, base);
    let mut fleet = if flag_present("--resume") {
        let Some(dir) = checkpoint_dir.as_deref() else {
            eprintln!("error: --resume requires --checkpoint-dir");
            std::process::exit(2);
        };
        match Fleet::resume_from(info.subject, cfg, dir) {
            Ok(fleet) => {
                eprintln!(
                    "resumed fleet from {} at epoch {}",
                    dir.display(),
                    fleet.epoch()
                );
                fleet
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    } else {
        match Fleet::new(info.subject, cfg) {
            Ok(fleet) => fleet,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    };

    println!(
        "fleet: subject={} shards={shards} sync-every={sync_every} seed={seed} \
         mode={exec_mode:?} budget={} ({per_shard}/shard)",
        info.name, budget.execs
    );
    loop {
        let done = fleet.run_epoch();
        if let Some(dir) = checkpoint_dir.as_deref() {
            if let Err(e) = fleet.checkpoint_to(dir) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        if done {
            break;
        }
        if stop_after.is_some_and(|k| fleet.epoch() >= k) {
            println!(
                "paused after epoch {} ({} total execs); resume with --resume",
                fleet.epoch(),
                fleet.total_execs()
            );
            write_metrics(metrics_out.as_deref(), &registry);
            return;
        }
    }

    let report = fleet.into_report();
    for (i, shard) in report.shards.iter().enumerate() {
        println!(
            "  shard {i}: {} execs, {} valid inputs, {} valid branches",
            shard.execs,
            shard.valid_inputs.len(),
            shard.valid_branches.len()
        );
    }
    println!(
        "fleet totals: {} execs, {} epochs, {} promotions, {} injections, \
         {} distinct valid inputs, {} merged valid branches",
        report.total_execs,
        report.epochs,
        report.promotions,
        report.injections,
        report.valid_inputs.len(),
        report.valid_branches.len()
    );
    println!("fleet digest: {:016x}", report.digest());
    println!("merged coverage digest: {:016x}", report.coverage_digest());

    if flag_present("--compare") {
        let cmp = pdf_eval::fleet_vs_single(&info, per_shard, seed, shards, sync_every);
        let fmt = |side: &pdf_eval::FleetSide| {
            format!(
                "{} tokens | to single's count {} | to single's set {} | spent {}",
                side.tokens.len(),
                side.execs_to_count
                    .map_or_else(|| "never".to_string(), |e| e.to_string()),
                side.execs_to_cover
                    .map_or_else(|| "never".to_string(), |e| e.to_string()),
                side.total_execs
            )
        };
        println!(
            "compare ({} execs/shard, costs in total execs):",
            cmp.budget
        );
        println!("  single:      {}", fmt(&cmp.single));
        println!("  fleet:       {}", fmt(&cmp.fleet));
        println!("  independent: {}", fmt(&cmp.independent));
    }
    write_metrics(metrics_out.as_deref(), &registry);
}

fn write_metrics(path: Option<&std::path::Path>, registry: &pdf_obs::MetricsRegistry) {
    if let Some(path) = path {
        pdf_eval::write_metrics_snapshot(path, registry);
    }
}
