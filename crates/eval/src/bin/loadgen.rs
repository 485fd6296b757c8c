//! Bounded-burst load generator for `pdf-serve`; the CI `serve-soak`
//! job's latency gate and the `chaos-recovery` job's overload gate.
//! Usage: loadgen [--addr HOST:PORT] [--campaigns N] [--execs N] [--workers N]
//!                [--shards N] [--subject NAME] [--exec-mode full|tiered]
//!                [--deadline-ms N] [--seed N] [--max-queued N]
//!                [--expect-sheds]
//!
//! Submits a burst of `--campaigns` small fleet campaigns (default 12,
//! `--execs` executions each, default 400) to a `pdf-serve` daemon and
//! waits for all of them. Without `--addr` it spins up an in-process
//! daemon (`--workers` pool slots, default 4, queue capped at
//! `--max-queued` when given) plus a loopback TCP server and talks to
//! itself over real sockets, so one binary exercises the full wire
//! path. Subjects rotate over the evaluation set unless pinned with
//! `--subject`; `--exec-mode` sets every campaign's instrumentation
//! tiering (default `full`).
//!
//! Submissions go through a [`RetryClient`]: when the daemon sheds
//! load (`err code=overloaded retry-after-ms=N`) the client backs off
//! per the hint and resubmits under the same idempotency key, so an
//! overloaded daemon slows the burst down instead of hanging or
//! forking duplicates. The summary reports how many sheds were
//! absorbed; `--expect-sheds` makes *zero* sheds a failure (exit 1) —
//! the overload gate proves shedding actually fires.
//!
//! Every campaign carries `--deadline-ms` (default 30000) as its
//! advisory deadline. The gate: a campaign whose submit-to-terminal
//! wall time exceeds **2x** its deadline is a violation, as is any
//! campaign that ends `failed` or `cancelled`. Exit status 0 when the
//! whole burst passes, 1 on any violation, 2 on usage or transport
//! errors. Wall times are machine-dependent; the default deadline is
//! sized so only a wedged scheduler (a lost wakeup, a leaked pool
//! slot) trips the gate, not a slow machine.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pdf_runtime::cli::Args;
use pdf_serve::{CampaignSpec, Daemon, DaemonConfig, Phase, RetryClient, Server};

/// The flag table: `pdf_runtime::cli` parses the command line against it.
const USAGE: &str = "\
usage: loadgen [--addr HOST:PORT] [--campaigns N] [--execs N] [--workers N]
               [--shards N] [--subject NAME] [--exec-mode full|tiered]
               [--deadline-ms N] [--seed N] [--max-queued N]
               [--expect-sheds]";

fn main() {
    let args = Args::from_env(USAGE);
    let campaigns = args.or_exit(args.positive("--campaigns", 12));
    let execs = args.or_exit(args.positive("--execs", 400));
    let workers = args.or_exit(args.positive("--workers", 4));
    let shards = args.or_exit(args.positive("--shards", 1));
    let deadline_ms = args.or_exit(args.positive("--deadline-ms", 30_000));
    let base_seed = args.or_exit(args.positive("--seed", 1));
    let exec_mode = args.or_exit(pdf_eval::exec_mode_arg(&args));
    let max_queued = args.or_exit(args.positive_opt("--max-queued"));
    let pinned = args.value("--subject");
    let remote = args.value("--addr");
    let expect_sheds = args.has("--expect-sheds");

    let subjects: Vec<String> = match pinned {
        Some(name) => vec![name.to_string()],
        None => pdf_subjects::evaluation_subjects()
            .iter()
            .map(|info| info.name.to_string())
            .collect(),
    };

    // Without --addr, stand up the whole service in-process and talk to
    // it over a real loopback socket.
    let local = if remote.is_none() {
        let mut cfg = DaemonConfig::in_memory(workers as usize);
        if let Some(cap) = max_queued {
            cfg = cfg.with_max_queued(cap as usize);
        }
        let daemon = Arc::new(Daemon::open(cfg).expect("in-memory daemon"));
        let server = Server::start(Arc::clone(&daemon), "127.0.0.1:0").unwrap_or_else(|e| {
            eprintln!("error: cannot bind loopback server: {e}");
            std::process::exit(2);
        });
        Some((daemon, server))
    } else {
        None
    };
    let addr = match (remote, &local) {
        (Some(a), _) => a.to_string(),
        (None, Some((_, server))) => server.local_addr().to_string(),
        (None, None) => unreachable!(),
    };

    let mut client = RetryClient::new(&addr);
    if let Err(e) = client.ping() {
        eprintln!("error: cannot reach {addr}: {e} (connection refused? check that pdfserved is running there)");
        std::process::exit(2);
    }

    eprintln!(
        "loadgen: burst of {campaigns} campaigns ({execs} execs x {shards} shard(s) each, \
         deadline {deadline_ms}ms, gate 2x) against {addr}"
    );
    let burst_start = Instant::now();
    let mut submitted: Vec<(u64, String, u64, Instant)> = Vec::new();
    for i in 0..campaigns {
        let subject = subjects[(i % subjects.len() as u64) as usize].clone();
        let seed = base_seed + i;
        let spec = CampaignSpec {
            shards,
            sync_every: pdf_serve::default_sync_every(execs, shards),
            exec_mode,
            deadline_ms: Some(deadline_ms),
            ..CampaignSpec::new(&subject, seed, execs)
        };
        match client.submit(&spec) {
            Ok(id) => submitted.push((id, subject, seed, Instant::now())),
            Err(e) => {
                eprintln!("error: submit {subject}/{seed} refused after retries: {e}");
                std::process::exit(2);
            }
        }
    }
    let sheds_absorbed = client.sheds();

    let allowance = Duration::from_millis(deadline_ms.saturating_mul(2));
    let mut violations = 0u64;
    println!("| id | subject | seed | state | elapsed (ms) | allowed (ms) | verdict |");
    println!("|---:|---------|-----:|-------|-------------:|-------------:|---------|");
    for (id, subject, seed, started) in &submitted {
        let wait = allowance.saturating_sub(started.elapsed()) + Duration::from_millis(250);
        let status = match client.wait_terminal(*id, wait) {
            Ok(s) => Some(s),
            Err(pdf_serve::ClientError::Timeout) => None,
            Err(e) => {
                eprintln!(
                    "error: lost {addr} while waiting on campaign {id}: {e} (retries exhausted)"
                );
                std::process::exit(2);
            }
        };
        let elapsed = started.elapsed();
        let (state, ok) = match &status {
            None => ("timeout".to_string(), false),
            Some(s) => (s.phase.to_string(), s.phase == Phase::Done),
        };
        let within = elapsed <= allowance;
        let pass = ok && within;
        if !pass {
            violations += 1;
        }
        println!(
            "| {id} | {subject} | {seed} | {state} | {} | {} | {} |",
            elapsed.as_millis(),
            allowance.as_millis(),
            if pass { "ok" } else { "VIOLATION" },
        );
    }

    if let Some((daemon, mut server)) = local {
        let _ = client.with_client(|c| c.shutdown());
        server.stop();
        daemon.shutdown();
        assert_eq!(daemon.busy_slots(), 0, "pool slots leaked after burst");
    }
    eprintln!(
        "loadgen: {} campaigns, {} violation(s), {} shed(s) absorbed, burst wall time {}ms",
        submitted.len(),
        violations,
        sheds_absorbed,
        burst_start.elapsed().as_millis(),
    );
    if expect_sheds && sheds_absorbed == 0 {
        eprintln!("loadgen: --expect-sheds but the daemon never shed; overload path did not fire");
        std::process::exit(1);
    }
    if violations > 0 {
        std::process::exit(1);
    }
}
