//! `--trace 1`: per-layer numbers. Each layer is measured on a fixed
//! fixture from the benchmark's side: calls into a crate's public
//! functions are timed from outside, and the `pdf-obs` spans and
//! counters the program already records are read from a registry the
//! benchmark installs. Nothing is added inside the program.
//!
//! The fixtures are fixed-size and the same whatever `--workload`
//! names; `--seconds` does not apply, and the workload only selects
//! whose tracing overhead `obs.trace_overhead` measures.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use pdf_core::{CampaignBudget, CandidateQueue, Checkpoint, Fuzzer, HeuristicConfig, QueueEntry};
use pdf_fleet::Fleet;
use pdf_gen::{evolve, Evolver, GenBatch};
use pdf_grammar::mine_corpus;
use pdf_obs::{MetricsRegistry, MetricsSnapshot};
use pdf_runtime::{BranchId, BranchSet, ExecArena, Rng, SiteId};
use pdf_tokens::TokenCoverage;

use crate::stats::median;
use crate::wire::{field, Conn, Daemon};
use crate::workloads::{
    closed_loop, derive_seed, evolve_config, fleet_config, flood_setup, full_config, mjs, ms,
    remove_scratch, scratch_dir, serve_spec, Opts, Outcome, EXPLORE_SEED, GEN_DEPTH, SERVE_WORKERS,
};

/// Largest share of the timed wall the `driver.*` spans may leave
/// uncovered before the trace counts as unreconciled.
const MAX_UNSPANNED: f64 = 0.15;
/// Clock and rounding slack: spans may over-cover the wall by this
/// share before the reconciliation fails the other way.
const SPAN_SLACK: f64 = 0.02;

/// Runs every fixture and returns the per-layer metrics.
pub fn trace(o: &Opts, workload: &str) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let overhead = trace_overhead(o, workload)?;
    let ck = core_fixture(o, &mut out);
    queue_and_exec_fixture(&ck, &mut out);
    fleet_fixture(o, &mut out)?;
    gen_fixture(o, &mut out)?;
    let dir = scratch_dir("trace")?;
    let served = ckpt_fixture(o, &dir, &mut out).and_then(|()| serve_fixture(o, &dir, &mut out));
    remove_scratch(&dir);
    served?;
    out.push("obs.trace_overhead", overhead, "ratio");
    Ok(out)
}

/// Times `unit` untraced and traced, alternating which goes first;
/// returns the best traced time over the best untraced one, minus one
/// (contention only adds time, so the best of each side is the
/// steadiest estimate).
fn overhead_of(pairs: usize, unit: &mut dyn FnMut()) -> f64 {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for k in 0..pairs {
        for with_trace in [k % 2 == 1, k % 2 == 0] {
            let scope = with_trace.then(|| pdf_obs::install(Arc::new(MetricsRegistry::new())));
            let t = Instant::now();
            unit();
            let took = t.elapsed().as_secs_f64();
            drop(scope);
            if with_trace { &mut traced } else { &mut plain }.push(took);
        }
    }
    let best = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    best(&traced) / best(&plain) - 1.0
}

/// Tracing overhead on the named workload's unit of work. The daemon
/// always records metrics, so `serve-mix` measures its unit, a
/// one-shard served campaign, in process.
fn trace_overhead(o: &Opts, workload: &str) -> Result<f64, String> {
    let b = o.budget;
    let subject = mjs();
    let seed = derive_seed(o.seed, 0);
    let pairs = b.overhead_pairs;
    Ok(match workload {
        "mjs-full" => overhead_of(pairs, &mut || {
            black_box(Fuzzer::new(subject, full_config(seed, b.full_execs)).run());
        }),
        "mjs-fleet2-tiered" => overhead_of(pairs, &mut || {
            let fleet = Fleet::new(subject, fleet_config(seed, b)).expect("valid fleet config");
            black_box(fleet.run());
        }),
        "mjs-flood" => {
            let (compiled, _) = flood_setup(subject, b)?;
            overhead_of(pairs, &mut || {
                black_box(evolve(subject, compiled.clone(), evolve_config(seed, 4, b)));
            })
        }
        _ => {
            let spec = pdf_serve::CampaignSpec::new("mjs", seed, b.serve_execs);
            let cfg = pdf_serve::fleet_config(&spec);
            overhead_of(pairs, &mut || {
                let fleet = Fleet::new(subject, cfg.clone()).expect("valid fleet config");
                black_box(fleet.run());
            })
        }
    })
}

fn span_ns(s: &MetricsSnapshot, name: &str) -> f64 {
    s.span(name).map_or(0.0, |sp| sp.total_ns as f64)
}

fn span_mean_ns(s: &MetricsSnapshot, name: &str) -> f64 {
    s.span(name)
        .map_or(f64::NAN, |sp| sp.total_ns as f64 / sp.count.max(1) as f64)
}

fn counter(s: &MetricsSnapshot, name: &str) -> f64 {
    s.counter(name).unwrap_or(0) as f64
}

fn hist_mean(s: &MetricsSnapshot, name: &str) -> f64 {
    s.hist(name)
        .map_or(f64::NAN, |h| h.sum as f64 / h.count.max(1) as f64)
}

/// `mjs-full` campaigns under a registry: the fuzzer's span shares,
/// the search counts, and the final checkpoint with the largest queue
/// for the queue and exec fixtures.
fn core_fixture(o: &Opts, out: &mut Outcome) -> Checkpoint {
    let b = o.budget;
    let subject = mjs();
    let reg = Arc::new(MetricsRegistry::new());
    let mut wall = 0.0;
    let mut best: Option<Checkpoint> = None;
    let (mut valid, mut branches) = (0usize, BranchSet::new());
    let mut tokens = TokenCoverage::new("mjs").expect("mjs has a token inventory");
    for i in 0..b.trace_campaigns {
        let mut f = Fuzzer::new(
            subject,
            full_config(derive_seed(o.seed, i as u64), b.full_execs),
        );
        {
            let _scope = pdf_obs::install(Arc::clone(&reg));
            let t = Instant::now();
            f.run_until(&CampaignBudget::unbounded());
            wall += t.elapsed().as_nanos() as f64;
        }
        let ck = f.checkpoint();
        if best
            .as_ref()
            .is_none_or(|b| ck.queue.items.len() > b.queue.items.len())
        {
            best = Some(ck);
        }
        let report = f.into_report();
        valid += report.valid_inputs.len();
        branches.union_with(&report.valid_branches);
        report.valid_inputs.iter().for_each(|v| tokens.add_input(v));
    }
    let s = reg.snapshot();
    // `driver.enqueue` also runs inside `driver.classify`, once per
    // valid input found; that nested time is estimated at the mean
    // enqueue cost and taken out of classify's self time.
    let nested = counter(&s, "search.valid_inputs") * span_mean_ns(&s, "driver.enqueue");
    let pick = span_ns(&s, "driver.pick");
    let enqueue = span_ns(&s, "driver.enqueue");
    let exec = span_ns(&s, "driver.exec");
    let classify = (span_ns(&s, "driver.classify") - nested.min(enqueue)).max(0.0);
    let unspanned = 1.0 - (pick + enqueue + exec + classify) / wall;
    out.push("core.pick_share", pick / wall, "share");
    out.push("core.enqueue_share", enqueue / wall, "share");
    out.push("core.exec_share", exec / wall, "share");
    out.push("core.classify_share", classify / wall, "share");
    out.push("core.unspanned_share", unspanned, "share");
    out.check((-SPAN_SLACK..=MAX_UNSPANNED).contains(&unspanned), || {
        format!(
            "trace unreconciled: `driver.*` spans leave {unspanned:.3} of the wall uncovered \
             (allowed {}..{MAX_UNSPANNED})",
            -SPAN_SLACK
        )
    });
    out.push("core.pick_ns", span_mean_ns(&s, "driver.pick"), "ns");
    out.push("core.enqueue_ns", span_mean_ns(&s, "driver.enqueue"), "ns");
    out.push(
        "core.queue_depth_mean",
        hist_mean(&s, "driver.queue_depth"),
        "count",
    );
    out.push(
        "core.substitutions_per_exec",
        counter(&s, "driver.substitutions") / counter(&s, "execs"),
        "count/exec",
    );
    out.push(
        "runtime.exec_mean_ns",
        hist_mean(&s, "exec.latency_ns"),
        "ns",
    );
    out.push("search.valid_inputs", valid as f64, "count");
    out.push("search.valid_branches", branches.len() as f64, "count");
    out.push(
        "search.tokens_found",
        tokens.found_names().len() as f64,
        "count",
    );
    best.expect("at least one campaign ran")
}

fn branch_set(pairs: &[(u64, bool)]) -> BranchSet {
    pairs
        .iter()
        .map(|&(site, outcome)| BranchId::new(SiteId::from_raw(site), outcome))
        .collect()
}

/// Repetitions of the queue and exec micro-timings; the median counts.
const MICRO_REPS: usize = 3;

/// Rebuilds a queue from the checkpoint's snapshot and times push,
/// rebuild and pop-to-empty; then runs the queued candidates through
/// each execution tier.
fn queue_and_exec_fixture(ck: &Checkpoint, out: &mut Outcome) {
    let steer = branch_set(&ck.steer_branches);
    let entries: Vec<QueueEntry> = ck
        .queue
        .items
        .iter()
        .map(|it| QueueEntry {
            input: it.input.clone(),
            parent_branches: branch_set(&it.parent_branches),
            replacement_len: it.replacement_len as usize,
            avg_stack: f64::from_bits(it.avg_stack_bits),
            num_parents: it.num_parents as usize,
            path_hash: it.path_hash,
        })
        .collect();
    let n = entries.len().max(1) as f64;
    out.check(!entries.is_empty(), || {
        "queue fixture: the final checkpoints hold no candidates".to_string()
    });
    let (mut push, mut rebuild, mut pop) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..MICRO_REPS {
        let batch = entries.clone();
        let mut q = CandidateQueue::new(HeuristicConfig::default());
        let t = Instant::now();
        for e in batch {
            q.push(e, &steer);
        }
        push.push(t.elapsed().as_nanos() as f64 / n);
        let t = Instant::now();
        q.rebuild(&steer);
        rebuild.push(t.elapsed().as_nanos() as f64 / 1e3);
        let t = Instant::now();
        while q.pop(&steer).is_some() {}
        pop.push(t.elapsed().as_nanos() as f64 / n);
    }
    out.push("core.queue_push_ns", median(&push), "ns");
    out.push("core.queue_pop_ns", median(&pop), "ns");
    out.push("core.queue_rebuild_us", median(&rebuild), "us");

    let subject = mjs();
    let mut arena = ExecArena::new();
    let tier = |run: &mut dyn FnMut(&[u8])| {
        let times: Vec<f64> = (0..MICRO_REPS)
            .map(|_| {
                let t = Instant::now();
                entries.iter().for_each(|e| run(&e.input));
                t.elapsed().as_nanos() as f64 / n
            })
            .collect();
        median(&times)
    };
    let full = tier(&mut |x| {
        black_box(subject.run_last_failure_arena(&mut arena, x));
    });
    let fast = tier(&mut |x| {
        black_box(subject.run_fast_failure_arena(&mut arena, x));
    });
    let cov = tier(&mut |x| {
        black_box(subject.run_coverage(x));
    });
    out.push("runtime.full_exec_ns", full, "ns");
    out.push("runtime.fast_exec_ns", fast, "ns");
    out.push("runtime.cov_exec_ns", cov, "ns");
}

/// `mjs-fleet2-tiered` fleets under a registry.
fn fleet_fixture(o: &Opts, out: &mut Outcome) -> Result<(), String> {
    let b = o.budget;
    let reg = Arc::new(MetricsRegistry::new());
    let mut epochs = Vec::new();
    let (mut promotions, mut injections) = (0u64, 0u64);
    for i in 0..b.trace_fleets {
        let seed = derive_seed(o.seed, i as u64);
        let mut fleet =
            Fleet::new(mjs(), fleet_config(seed, b)).map_err(|e| format!("fleet: {e}"))?;
        let _scope = pdf_obs::install(Arc::clone(&reg));
        loop {
            let t = Instant::now();
            let done = fleet.run_epoch();
            epochs.push(t.elapsed().as_nanos() as f64);
            if done {
                break;
            }
        }
        let report = fleet.into_report();
        promotions += report.promotions;
        injections += report.injections;
    }
    let s = reg.snapshot();
    let epoch_wall: f64 = epochs.iter().sum();
    let in_shards: f64 = s
        .spans
        .iter()
        .filter(|sp| sp.name.starts_with("fleet.shard"))
        .map(|sp| sp.total_ns as f64)
        .sum();
    let queue = span_ns(&s, "driver.pick") + span_ns(&s, "driver.enqueue");
    out.push(
        "fleet.epoch_ms",
        epoch_wall / epochs.len() as f64 / 1e6,
        "ms",
    );
    out.push("fleet.sync_us", hist_mean(&s, "fleet.sync_ns") / 1e3, "us");
    out.push(
        "fleet.coordinator_share",
        1.0 - in_shards / epoch_wall,
        "share",
    );
    out.push("fleet.promotions", promotions as f64, "count");
    out.push("fleet.injections", injections as f64, "count");
    out.push("fleet.queue_share", queue / in_shards, "share");
    out.push(
        "fleet.exec_share",
        span_ns(&s, "driver.exec") / in_shards,
        "share",
    );
    out.push(
        "runtime.tier_escalation_ratio",
        counter(&s, "tier.escalations") / counter(&s, "tier.fast_execs"),
        "ratio",
    );
    Ok(())
}

/// The flood's stages timed one by one, then a generator campaign.
fn gen_fixture(o: &Opts, out: &mut Outcome) -> Result<(), String> {
    let b = o.budget;
    let subject = mjs();
    let t = Instant::now();
    let explored = Fuzzer::new(subject, full_config(EXPLORE_SEED, b.explore_execs)).run();
    out.push("gen.explore_ms", ms(t.elapsed()), "ms");
    let t = Instant::now();
    let grammar = mine_corpus(subject, &explored.valid_inputs);
    out.push("grammar.mine_ms", ms(t.elapsed()), "ms");
    let file = pdf_grammar::GrammarFile::uniform(grammar);
    let t = Instant::now();
    let compiled =
        pdf_gen::CompiledGrammar::compile(&file, GEN_DEPTH).map_err(|e| format!("compile: {e}"))?;
    out.push("gen.compile_ms", ms(t.elapsed()), "ms");

    let seed = derive_seed(o.seed, 0);
    let mut grammar = compiled.clone();
    let mut batch = GenBatch::new();
    let t = Instant::now();
    grammar.generate_batch(&mut Rng::new(seed), &mut batch, b.flood_batch);
    let n = batch.len().max(1) as f64;
    out.push("gen.generate_ns", t.elapsed().as_nanos() as f64 / n, "ns");
    let inputs: Vec<&[u8]> = batch.inputs().collect();
    let mut arena = ExecArena::new();
    let t = Instant::now();
    let verdicts: Vec<bool> = subject
        .exec_batch_fast(&mut arena, &inputs)
        .iter()
        .map(|e| e.valid)
        .collect();
    out.push("gen.flood_exec_ns", t.elapsed().as_nanos() as f64 / n, "ns");
    let valid: Vec<&[u8]> = inputs
        .iter()
        .zip(&verdicts)
        .filter(|(_, &ok)| ok)
        .map(|(i, _)| *i)
        .collect();
    let t = Instant::now();
    valid.iter().for_each(|v| {
        black_box(subject.run_coverage(v));
    });
    out.push(
        "gen.escalate_ns",
        t.elapsed().as_nanos() as f64 / valid.len().max(1) as f64,
        "ns",
    );

    let mut ev = Evolver::new(subject, compiled, evolve_config(seed, b.flood_epochs, b));
    let mut epochs = Vec::new();
    for _ in 0..b.flood_epochs {
        let t = Instant::now();
        ev.epoch();
        epochs.push(ms(t.elapsed()));
    }
    let report = ev.into_report();
    let generated = report.generated.max(1) as f64;
    out.push(
        "gen.epoch_ms",
        epochs.iter().sum::<f64>() / epochs.len() as f64,
        "ms",
    );
    out.push(
        "gen.fresh_ratio",
        report.distinct_valid.len() as f64 / generated,
        "ratio",
    );
    out.push(
        "gen.valid_ratio",
        report.generated_valid as f64 / generated,
        "ratio",
    );
    Ok(())
}

/// A one-shard mjs fleet configured as the daemon configures a served
/// campaign, paused after four epochs: the state one slice boundary
/// writes.
fn ckpt_fixture(o: &Opts, dir: &std::path::Path, out: &mut Outcome) -> Result<(), String> {
    let b = o.budget;
    let spec = pdf_serve::CampaignSpec::new("mjs", derive_seed(o.seed, 0), b.serve_execs);
    let mut fleet =
        Fleet::new(mjs(), pdf_serve::fleet_config(&spec)).map_err(|e| format!("fleet: {e}"))?;
    for _ in 0..4 {
        fleet.run_epoch();
    }
    let (mut write, mut decode, mut encode) = (Vec::new(), Vec::new(), Vec::new());
    let mut text = String::new();
    for k in 0..MICRO_REPS {
        let ck_dir = dir.join(format!("ckpt{k}"));
        let t = Instant::now();
        fleet
            .checkpoint_to(&ck_dir)
            .map_err(|e| format!("checkpoint: {e}"))?;
        write.push(ms(t.elapsed()));
        text = std::fs::read_to_string(ck_dir.join(pdf_fleet::shard_file(0)))
            .map_err(|e| format!("read checkpoint: {e}"))?;
        let t = Instant::now();
        let ck = Checkpoint::decode(&text).map_err(|e| format!("decode checkpoint: {e}"))?;
        decode.push(ms(t.elapsed()));
        let t = Instant::now();
        let again = ck.encode();
        encode.push(ms(t.elapsed()));
        out.check(again == text, || {
            "checkpoint codec: decode then encode changed the bytes".to_string()
        });
    }
    out.push("ckpt.bytes", text.len() as f64, "bytes");
    out.push("ckpt.encode_ms", median(&encode), "ms");
    out.push("ckpt.decode_ms", median(&decode), "ms");
    out.push("ckpt.write_ms", median(&write), "ms");
    Ok(())
}

/// Bytes under `dir`, recursively.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.file_type() {
                Ok(t) if t.is_dir() => dir_bytes(&e.path()),
                _ => e.metadata().map_or(0, |m| m.len()),
            })
            .sum()
    })
}

/// Round trips and the daemon's own counters over a short closed loop.
fn serve_fixture(o: &Opts, dir: &std::path::Path, out: &mut Outcome) -> Result<(), String> {
    let b = o.budget;
    let state = dir.join("state");
    let (daemon, _) = Daemon::spawn(&state, SERVE_WORKERS)?;
    let mut conn = Conn::connect(&daemon.addr)?;
    let mut pings = Vec::new();
    for _ in 0..50 {
        let t = Instant::now();
        conn.ping()?;
        pings.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let t = Instant::now();
    let target = b.trace_served;
    let served = closed_loop(&daemon.addr, &|i, _| {
        (i < target).then(|| serve_spec(o.seed, i, b))
    });
    let wall = t.elapsed().as_nanos() as f64;
    let s = MetricsSnapshot::decode(&conn.metrics()?).map_err(|e| format!("metrics: {e:?}"))?;
    let state_bytes = dir_bytes(&state);
    daemon.stop()?;
    for s in &served {
        let done = s
            .end
            .as_ref()
            .is_ok_and(|end| field(end, "state") == Some("done"));
        out.check(done, || format!("served campaign {}: {:?}", s.index, s.end));
    }
    let submits: Vec<f64> = served.iter().map(|s| s.submit_ms * 1e3).collect();
    let completed = counter(&s, "serve.completed").max(1.0);
    let running: f64 = s
        .spans
        .iter()
        .filter(|sp| sp.name.starts_with("serve.campaign"))
        .map(|sp| sp.total_ns as f64)
        .sum();
    out.push("serve.ping_rtt_us", median(&pings), "us");
    out.push("serve.submit_rtt_us", median(&submits), "us");
    out.push(
        "serve.slices_per_campaign",
        counter(&s, "serve.slices") / completed,
        "count",
    );
    out.push(
        "serve.checkpoints_per_campaign",
        counter(&s, "serve.checkpoints") / completed,
        "count",
    );
    out.push(
        "serve.state_mb",
        state_bytes as f64 / (1024.0 * 1024.0),
        "MB",
    );
    out.push(
        "serve.run_share",
        running / (SERVE_WORKERS as f64 * wall),
        "share",
    );
    Ok(())
}
