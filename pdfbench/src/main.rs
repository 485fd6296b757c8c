//! `pdfbench` — the benchmark of the pFuzzer reproduction: end-to-end
//! throughput, latency and set-up time of four workloads, and a
//! separate traced run that breaks them down by layer.
//!
//! ```text
//! pdfbench --workload W --seed S --seconds T --trace 0|1 [--smoke]
//! pdfbench compare OLD NEW [--bounds BENCHMARK.json]
//! ```
//!
//! A run measures one workload for about `T` seconds, checks the
//! program's outputs, and prints host facts, a table, and as its last
//! line one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones below, with
//! `--trace 1` the per-layer ones. The exit code is 0 when every check
//! passed, 1 when a check failed (the result is still printed) and 2 on
//! a usage or set-up error. Release builds only; `--smoke` runs tiny
//! budgets and is allowed in debug builds.
//!
//! Build and run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path pdfbench/Cargo.toml -- \
//!     --workload mjs-full --seed 1 --seconds 20 --trace 0
//! ```
//!
//! # Workloads
//!
//! Every workload derives its campaign seeds from `--seed`. The seed
//! drives pFuzzer's search, whose cost varies several-fold between
//! seeds, so a run covers many fixed-size units and reports over all of
//! them. Units run in two passes (see [`workloads`]): each keeps its
//! faster time, and the second pass must reproduce the first's digest.
//! The first pass lasts `T / 2` seconds and at least until p90 latency
//! has ten samples beyond it; the p90 is printed as a note with its
//! sample count, not bounded (on a shared host it moves by a third
//! between runs).
//!
//! - `mjs-full` — pFuzzer campaigns on mjs, `ExecMode::Full`, heuristic
//!   search, 20 000 executions each, driven in 1 000-execution slices.
//!   The candidate queue is the largest layer here (`driver.pick` and
//!   `driver.enqueue` about half the wall time); this is where a queue
//!   change must show its gain.
//! - `mjs-fleet2-tiered` — two-shard `Fleet`s, 40 000 executions per
//!   shard, `ExecMode::Tiered`, syncing every 4 000, shard legs run
//!   serially as the daemon runs them. The same fuzzer used
//!   differently: fast-tier executions with escalations, injections and
//!   fleet sync. A gain for full mode that costs tiered mode shows here.
//! - `mjs-flood` — set-up: a 20 000-execution exploration (fixed seed),
//!   `mine_corpus`, `CompiledGrammar::compile` at depth 10; timed:
//!   `Evolver` campaigns of 24 epochs × 2 048 inputs. The queue does no
//!   work here: the generator, `exec_batch_fast` and `run_coverage`
//!   escalations do all of it, so a queue change should show no effect.
//! - `serve-mix` — the daemon (`pdfbench serve-daemon`, the body of
//!   `pdfserved`: persistent state directory, 2 workers) in a child
//!   process under a closed loop of 2 client connections, each
//!   submitting one campaign and polling it to a terminal state before
//!   submitting the next. Subjects rotate ini/csv/cjson/tinyC/mjs;
//!   4 000 executions, 1 shard, full mode, 500-execution slices. This
//!   exercises the wire, scheduler, journal, meta writes and one
//!   checkpoint per slice.
//!
//! # End-to-end metrics
//!
//! | metric | unit | better | bound | meaning |
//! |---|---|---|---|---|
//! | `execs_per_s` | 1/s | higher | 25% | subject executions per second: the median campaign's (`mjs-full`), fleet's (`mjs-fleet2-tiered`) or generator campaign's, counting generated inputs (`mjs-flood`); `serve-mix`: the closed loop's, two campaigns in flight |
//! | `latency_p50_ms` | ms | lower | 25% | median latency of one unit: a slice, a fleet epoch, a generator epoch, or submit to terminal status of a served campaign |
//! | `setup_s` | s | lower | 25% | median set-up: time to a campaign's first execution, `Fleet::new`, explore+mine+compile (3 per run), or daemon spawn to first answered ping (7 per run) |
//!
//! The bounds (also in `BENCHMARK.json`) are the widest allowed: on a
//! shared 2-vCPU host the run-to-run spread of these metrics reaches
//! 20%. Failed operations are
//! the result's `failed` over `attempted`: a unit whose valid inputs
//! full instrumentation rejects (the flood re-checks a sample), a unit
//! whose second pass differs, set-ups that mine different grammars, a
//! served campaign that does not end `done` with the digest of a serial
//! in-process `Fleet` built by `pdf_serve::fleet_config`, and degraded
//! state writes.
//!
//! # Per-layer metrics
//!
//! Measured on fixed fixtures (see [`trace`]), with the end-to-end
//! metric each should move: `core.*` shares, span means, queue depth
//! and substitutions per execution, and the `core.queue_*` timings →
//! `execs_per_s` on `mjs-full`; `runtime.full_exec_ns` → `mjs-full`,
//! `runtime.fast_exec_ns` and `runtime.tier_escalation_ratio` →
//! `mjs-fleet2-tiered`, `runtime.cov_exec_ns` → `mjs-flood`; `fleet.*`
//! → `mjs-fleet2-tiered`; `gen.*` (timings, yields) → `mjs-flood`, and
//! `gen.explore_ms`, `grammar.mine_ms`, `gen.compile_ms` → its
//! `setup_s`; `ckpt.*` and `serve.*` → `serve-mix`. `search.*` are
//! deterministic counts that a pure speed change must not move.
//! `obs.trace_overhead` must move nothing; the contract is ≤ 3%.

mod compare;
mod json;
mod stats;
mod trace;
mod wire;
mod workloads;

use json::Results;
use workloads::{Opts, Outcome};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["mjs-full", "mjs-fleet2-tiered", "mjs-flood", "serve-mix"];

/// `(name, unit)` of the end-to-end metrics, in output order.
pub const END_TO_END: [(&str, &str); 3] = [
    ("execs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
];

/// `(name, unit)` of the per-layer metrics, in output order.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("core.pick_share", "share"),
    ("core.enqueue_share", "share"),
    ("core.exec_share", "share"),
    ("core.classify_share", "share"),
    ("core.unspanned_share", "share"),
    ("core.pick_ns", "ns"),
    ("core.enqueue_ns", "ns"),
    ("core.queue_depth_mean", "count"),
    ("core.substitutions_per_exec", "count/exec"),
    ("runtime.exec_mean_ns", "ns"),
    ("search.valid_inputs", "count"),
    ("search.valid_branches", "count"),
    ("search.tokens_found", "count"),
    ("core.queue_push_ns", "ns"),
    ("core.queue_pop_ns", "ns"),
    ("core.queue_rebuild_us", "us"),
    ("runtime.full_exec_ns", "ns"),
    ("runtime.fast_exec_ns", "ns"),
    ("runtime.cov_exec_ns", "ns"),
    ("fleet.epoch_ms", "ms"),
    ("fleet.sync_us", "us"),
    ("fleet.coordinator_share", "share"),
    ("fleet.promotions", "count"),
    ("fleet.injections", "count"),
    ("fleet.queue_share", "share"),
    ("fleet.exec_share", "share"),
    ("runtime.tier_escalation_ratio", "ratio"),
    ("gen.explore_ms", "ms"),
    ("grammar.mine_ms", "ms"),
    ("gen.compile_ms", "ms"),
    ("gen.generate_ns", "ns"),
    ("gen.flood_exec_ns", "ns"),
    ("gen.escalate_ns", "ns"),
    ("gen.epoch_ms", "ms"),
    ("gen.fresh_ratio", "ratio"),
    ("gen.valid_ratio", "ratio"),
    ("ckpt.bytes", "bytes"),
    ("ckpt.encode_ms", "ms"),
    ("ckpt.decode_ms", "ms"),
    ("ckpt.write_ms", "ms"),
    ("serve.ping_rtt_us", "us"),
    ("serve.submit_rtt_us", "us"),
    ("serve.slices_per_campaign", "count"),
    ("serve.checkpoints_per_campaign", "count"),
    ("serve.state_mb", "MB"),
    ("serve.run_share", "share"),
    ("obs.trace_overhead", "ratio"),
];

const USAGE: &str = "usage: pdfbench --workload W --seed S --seconds T --trace 0|1 [--smoke]\n\
    \x20      pdfbench compare OLD NEW [--bounds BENCHMARK.json]\n\
    workloads: mjs-full, mjs-fleet2-tiered, mjs-flood, serve-mix";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(old), Some(new)) => {
                let bounds = flag(&args, "--bounds").unwrap_or("BENCHMARK.json");
                match compare::compare(old, new, bounds) {
                    Ok(true) => 0,
                    Ok(false) => 1,
                    Err(e) => fail(&e),
                }
            }
            _ => fail(USAGE),
        },
        Some("serve-daemon") => match wire::serve_daemon(&args[1..]) {
            Ok(()) => 0,
            Err(e) => fail(&e),
        },
        _ => match parse(&args) {
            Ok((opts, workload, trace)) => run(&opts, workload, trace),
            Err(e) => fail(&format!("{e}\n{USAGE}")),
        },
    };
    std::process::exit(code);
}

fn fail(msg: &str) -> i32 {
    eprintln!("error: {msg}");
    2
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|w| w[0] == name)
        .map(|w| w[1].as_str())
}

fn parse(args: &[String]) -> Result<(Opts, &'static str, bool), String> {
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => i += 2,
            "--smoke" => i += 1,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let need = |name: &str| flag(args, name).ok_or_else(|| format!("{name} is required"));
    let workload = need("--workload")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == workload)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = need("--seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number")?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
        .ok_or("--seconds must be a non-negative number")?;
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let smoke = args.iter().any(|a| a == "--smoke");
    if cfg!(debug_assertions) && !smoke {
        return Err(
            "refusing to measure a debug build; build with --release (or pass --smoke)".into(),
        );
    }
    let budget = if smoke {
        &workloads::SMOKE
    } else {
        &workloads::FULL
    };
    Ok((
        Opts {
            seed,
            seconds,
            budget,
        },
        workload,
        trace,
    ))
}

/// Runs one workload (or its trace) and checks the metric set.
pub fn run_workload(o: &Opts, workload: &str, trace: bool) -> Result<Outcome, String> {
    let mut out = if trace {
        trace::trace(o, workload)?
    } else {
        match workload {
            "mjs-full" => workloads::mjs_full(o)?,
            "mjs-fleet2-tiered" => workloads::mjs_fleet(o)?,
            "mjs-flood" => workloads::mjs_flood(o)?,
            _ => workloads::serve_mix(o)?,
        }
    };
    let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let got: Vec<(String, String)> = out
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    let declared = got
        .iter()
        .map(|(n, u)| (n.as_str(), u.as_str()))
        .eq(expected.iter().copied());
    out.check(declared, || {
        format!("metric set differs from the declared one: {got:?}")
    });
    let nan = out
        .metrics
        .iter()
        .find(|m| !m.value.is_finite())
        .map(|m| m.name.clone());
    out.check(nan.is_none(), || format!("{nan:?} is not a number"));
    Ok(out)
}

/// The commit of a git checkout in the working directory, if any.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

fn run(o: &Opts, workload: &str, trace: bool) -> i32 {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# pdfbench workload={workload} seed={} seconds={} trace={} nproc={nproc} profile={profile} commit={}",
        o.seed,
        o.seconds,
        u8::from(trace),
        commit()
    );
    let out = match run_workload(o, workload, trace) {
        Ok(out) => out,
        Err(e) => return fail(&e),
    };
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    for m in &out.metrics {
        println!("# {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for note in &out.notes {
        println!("# {note}");
    }
    let results = Results {
        correct: out.failed == 0,
        attempted: out.attempted,
        failed: out.failed,
        metrics: out.metrics,
    };
    println!("{}", results.to_json());
    i32::from(!results.correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    #[test]
    fn smoke_runs_report_every_metric() {
        for workload in ["mjs-full", "mjs-fleet2-tiered", "mjs-flood"] {
            let o = Opts {
                seed: 1,
                seconds: 0.0,
                budget: &workloads::SMOKE,
            };
            let out = run_workload(&o, workload, false).unwrap();
            assert!(out.problems.is_empty(), "{workload}: {:?}", out.problems);
            assert_eq!(out.failed, 0, "{workload}");
            assert!(out.attempted >= 2, "{workload}");
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
            let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, want, "{workload}");
        }
    }

    #[test]
    fn benchmark_json_declares_the_same_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let owned = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), owned(&END_TO_END));
        assert_eq!(list("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
