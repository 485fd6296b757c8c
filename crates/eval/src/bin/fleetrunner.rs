//! Runs one fuzzing campaign as a sharded cooperative fleet.
//! Usage: fleetrunner [--subject NAME] [--execs N] [--seeds S] [--shards N]
//!                    [--sync-every E] [--exec-mode full|tiered]
//!                    [--checkpoint-dir D] [--resume] [--stop-after-epochs K]
//!                    [--compare] [--metrics-out PATH]
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
use pdf_runtime::cli::Args;

/// The flag table: `pdf_runtime::cli` parses the command line against it.
const USAGE: &str = "\
usage: fleetrunner [--subject NAME] [--execs N] [--seeds S] [--shards N]
                   [--sync-every E] [--exec-mode full|tiered]
                   [--checkpoint-dir D] [--resume] [--stop-after-epochs K]
                   [--compare] [--metrics-out PATH]";

fn main() {
    let args = Args::from_env(USAGE);
    let budget = args.or_exit(pdf_eval::EvalBudget::from_args(&args, 40_000));
    let seed = budget.seeds.first().copied().unwrap_or(1);
    let shards = args.or_exit(args.positive("--shards", pdf_eval::FLEET_SHARDS as u64)) as usize;
    let per_shard = (budget.execs / shards as u64).max(1);
    let default_sync = (per_shard / 8).clamp(50, per_shard.max(50));
    let sync_every = args.or_exit(args.positive("--sync-every", default_sync));
    let subject_name = args.value("--subject").unwrap_or("mjs");
    let Some(info) = pdf_subjects::by_name(subject_name) else {
        args.fail(&format!("unknown subject {subject_name:?}"))
    };
    let checkpoint_dir = args.path("--checkpoint-dir");
    let stop_after = args.or_exit(args.positive_opt("--stop-after-epochs"));
    let exec_mode = args.or_exit(pdf_eval::exec_mode_arg(&args));
    let resume_dir = args.has("--resume").then(|| {
        checkpoint_dir
            .clone()
            .unwrap_or_else(|| args.fail("--resume requires --checkpoint-dir"))
    });
    let metrics_out = args.path("--metrics-out");
    let registry = Arc::new(pdf_obs::MetricsRegistry::new());
    let _metrics = pdf_obs::install(Arc::clone(&registry));

    let base = DriverConfig {
        seed,
        max_execs: per_shard,
        exec_mode,
        ..DriverConfig::default()
    };
    let cfg = FleetConfig::new(shards, sync_every, base);
    let mut fleet = if let Some(dir) = resume_dir.as_deref() {
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

    if args.has("--compare") {
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
