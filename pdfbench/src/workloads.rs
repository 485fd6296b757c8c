//! The four end-to-end workloads.
//!
//! Each workload runs fixed-size units of work (a campaign, a fleet, a
//! generator campaign, a served campaign) with seeds derived from the
//! run seed, in two passes: units 0, 1, … for the first half of the run,
//! then the same units again. Host contention only ever adds time, so a
//! unit keeps the faster of its two measurements; and since every unit
//! is deterministic, the second pass must reproduce the first's digest.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pdf_core::{CampaignBudget, DriverConfig, ExecMode, Fuzzer};
use pdf_fleet::{Fleet, FleetConfig};
use pdf_gen::{CompiledGrammar, EvolveConfig, Evolver};
use pdf_grammar::{mine_corpus, GrammarFile, START};
use pdf_runtime::Subject;

use crate::json::Metric;
use crate::stats;
use crate::wire::{field, Conn, Daemon, Fields, Spec};

/// Fixed work sizes. A slower host runs fewer units of the same
/// size, not smaller ones.
#[derive(Debug)]
pub struct Budget {
    /// `mjs-full`: executions per campaign and per latency slice.
    pub full_execs: u64,
    pub full_slice: u64,
    /// `mjs-fleet2-tiered`: executions per shard and per sync epoch.
    pub fleet_execs: u64,
    pub fleet_sync: u64,
    /// `mjs-flood`: the exploration that seeds the miner, and the
    /// generator's epochs per campaign and inputs per epoch.
    pub explore_execs: u64,
    pub flood_epochs: usize,
    pub flood_batch: usize,
    /// `serve-mix`: executions per served campaign.
    pub serve_execs: u64,
    /// Whether the first pass keeps going until p90 latency has ten
    /// samples beyond it.
    pub p90_tail: bool,
    /// Trace fixtures: campaigns, fleets and served campaigns.
    pub trace_campaigns: usize,
    pub trace_fleets: usize,
    pub trace_served: usize,
    /// Untraced/traced pairs for the tracing overhead.
    pub overhead_pairs: usize,
}

pub const FULL: Budget = Budget {
    full_execs: 20_000,
    full_slice: 1_000,
    fleet_execs: 40_000,
    fleet_sync: 4_000,
    explore_execs: 20_000,
    flood_epochs: 24,
    flood_batch: 2_048,
    serve_execs: 4_000,
    p90_tail: true,
    trace_campaigns: 4,
    trace_fleets: 2,
    trace_served: 20,
    overhead_pairs: 3,
};

/// Tiny budgets for `--smoke`: every code path in a second or two.
pub const SMOKE: Budget = Budget {
    full_execs: 1_500,
    full_slice: 500,
    fleet_execs: 1_000,
    fleet_sync: 500,
    explore_execs: 4_000,
    flood_epochs: 2,
    flood_batch: 128,
    serve_execs: 400,
    p90_tail: false,
    trace_campaigns: 1,
    trace_fleets: 1,
    trace_served: 2,
    overhead_pairs: 1,
};

/// The exploration that seeds `mjs-flood`'s grammar uses this fixed
/// seed: the mined grammar decides the flood's cost (seeds whose search
/// stalls mine grammars that generate ten times faster), so the run
/// seed drives only the generator.
pub const EXPLORE_SEED: u64 = 1;
/// Depth bound for the compiled generator.
pub const GEN_DEPTH: usize = 10;
/// Shards of the fleet workload.
const FLEET_SHARDS: usize = 2;
/// `serve-mix` rotates through the five evaluation subjects.
pub const SERVE_SUBJECTS: [&str; 5] = ["ini", "csv", "cjson", "tinyC", "mjs"];
/// Client connections and daemon workers of `serve-mix`.
pub const SERVE_CLIENTS: usize = 2;
pub const SERVE_WORKERS: usize = 2;

/// One run's parameters.
#[derive(Debug)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub budget: &'static Budget,
}

impl Opts {
    /// Whether the first pass starts another unit: until half the run's
    /// seconds are spent and p90 of `samples` latencies has its tail.
    fn more(&self, start: Instant, samples: usize) -> bool {
        (self.budget.p90_tail && !stats::has_tail(samples, 90.0))
            || start.elapsed().as_secs_f64() < self.seconds / 2.0
    }
}

/// What a run produced: checked operations attempted and failed, what
/// each failure was, the metrics, and notes for the reader.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Records a check: one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// The end-to-end metrics every workload reports. The p90 latency
    /// is a note, not a metric: on a shared host it moves by a third
    /// between runs, too much for any regression bound.
    fn end_to_end(&mut self, execs_per_s: f64, latency_ms: &[f64], setups_s: &[f64]) {
        self.push("execs_per_s", execs_per_s, "1/s");
        self.push("latency_p50_ms", stats::median(latency_ms), "ms");
        self.push("setup_s", stats::median(setups_s), "s");
        self.notes.push(format!(
            "latency p90 {:.3} ms over {} samples",
            stats::percentile(latency_ms, 90.0),
            latency_ms.len()
        ));
    }
}

/// One unit of work, measured once.
#[derive(Debug)]
struct Unit {
    setup_s: f64,
    run_s: f64,
    /// Executions (generated inputs, for the flood) in `run_s`.
    execs: u64,
    /// Latency samples in a fixed order, so two passes pair up.
    latency_ms: Vec<f64>,
    /// Digest of everything the unit produced.
    digest: u64,
    /// Whether full instrumentation re-accepted the unit's valid inputs
    /// (checked on the first pass only).
    valid: bool,
}

/// Runs `unit(i, pass)` for i = 0, 1, … while [`Opts::more`] holds, then
/// each again; checks both passes agree and keeps each unit's faster
/// measurement.
fn two_passes(
    o: &Opts,
    out: &mut Outcome,
    mut unit: impl FnMut(u64, usize) -> Result<Unit, String>,
) -> Result<Vec<Unit>, String> {
    let start = Instant::now();
    let mut first = Vec::new();
    let mut samples = 0;
    while first.is_empty() || o.more(start, samples) {
        let u = unit(first.len() as u64, 0)?;
        samples += u.latency_ms.len();
        first.push(u);
    }
    let mut best = Vec::with_capacity(first.len());
    for (i, a) in first.into_iter().enumerate() {
        let b = unit(i as u64, 1)?;
        out.check(a.valid, || {
            format!("unit {i}: a reported valid input is rejected")
        });
        let same =
            a.digest == b.digest && a.execs == b.execs && a.latency_ms.len() == b.latency_ms.len();
        out.check(same, || {
            format!("unit {i}: the second pass produced a different result")
        });
        best.push(Unit {
            setup_s: a.setup_s.min(b.setup_s),
            run_s: a.run_s.min(b.run_s),
            latency_ms: a
                .latency_ms
                .iter()
                .zip(&b.latency_ms)
                .map(|(x, y)| x.min(*y))
                .collect(),
            ..a
        });
    }
    Ok(best)
}

fn latencies(units: &[Unit]) -> Vec<f64> {
    units
        .iter()
        .flat_map(|u| u.latency_ms.iter().copied())
        .collect()
}

/// Median over units of executions per second.
fn median_rate(units: &[Unit]) -> f64 {
    let rates: Vec<f64> = units.iter().map(|u| u.execs as f64 / u.run_s).collect();
    stats::median(&rates)
}

/// Campaign `i`'s seed: a hash of `(seed, i)`, so the campaigns of a
/// run, and of runs with nearby seeds, do not share searches (a fleet
/// shard adds its index to the hash).
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    // Kept below 2^48 so that a fleet's `seed + shard` never wraps.
    mix(seed ^ mix(i)) >> 16
}

pub fn mjs() -> Subject {
    pdf_subjects::mjs::subject()
}

pub fn full_config(seed: u64, execs: u64) -> DriverConfig {
    DriverConfig {
        seed,
        max_execs: execs,
        ..DriverConfig::default()
    }
}

/// The fleet workload's configuration. Shard legs run serially, as the
/// daemon runs fleets: parallel legs on a shared 2-vCPU host doubled the
/// run-to-run spread.
pub fn fleet_config(seed: u64, b: &Budget) -> FleetConfig {
    let base = DriverConfig {
        seed,
        max_execs: b.fleet_execs,
        exec_mode: ExecMode::Tiered,
        ..DriverConfig::default()
    };
    FleetConfig {
        parallel: false,
        ..FleetConfig::new(FLEET_SHARDS, b.fleet_sync, base)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Whether full instrumentation accepts every input.
fn all_valid<I: AsRef<[u8]>>(subject: Subject, inputs: impl IntoIterator<Item = I>) -> bool {
    inputs.into_iter().all(|i| subject.run(i.as_ref()).valid)
}

/// A scratch directory under `.pdfbench_tmp/` in the working
/// directory, unique to this process and `tag`.
pub fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = Path::new(".pdfbench_tmp").join(format!("{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Removes a [`scratch_dir`], and `.pdfbench_tmp/` once it is empty.
pub fn remove_scratch(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir(".pdfbench_tmp");
}

/// `mjs-full`: pFuzzer campaigns, each driven in slices the way the
/// fleet and the daemon drive them. Set-up is the time to the first
/// execution; latency is per slice; throughput is the median campaign's,
/// since a run's seeds mix stalled searches (about twice the rate) with
/// productive ones.
pub fn mjs_full(o: &Opts) -> Result<Outcome, String> {
    let b = o.budget;
    let subject = mjs();
    let mut out = Outcome::default();
    let units = two_passes(o, &mut out, |i, pass| {
        let t = Instant::now();
        let mut f = Fuzzer::new(subject, full_config(derive_seed(o.seed, i), b.full_execs));
        f.run_until(&CampaignBudget::execs(1));
        let setup_s = t.elapsed().as_secs_f64();
        let before = f.execs();
        let mut latency_ms = Vec::new();
        let t = Instant::now();
        loop {
            let s = Instant::now();
            let stop = f.run_until(&CampaignBudget::execs(f.execs() + b.full_slice));
            latency_ms.push(ms(s.elapsed()));
            if stop.is_finished() {
                break;
            }
        }
        let run_s = t.elapsed().as_secs_f64();
        let execs = f.execs() - before;
        let report = f.into_report();
        Ok(Unit {
            setup_s,
            run_s,
            execs,
            latency_ms,
            digest: report.digest(),
            valid: pass > 0 || all_valid(subject, &report.valid_inputs),
        })
    })?;
    let setups: Vec<f64> = units.iter().map(|u| u.setup_s).collect();
    out.end_to_end(median_rate(&units), &latencies(&units), &setups);
    Ok(out)
}

/// `mjs-fleet2-tiered`: two-shard fleets; set-up is
/// `Fleet::new`, latency is per sync epoch, throughput the median
/// fleet's.
pub fn mjs_fleet(o: &Opts) -> Result<Outcome, String> {
    let b = o.budget;
    let subject = mjs();
    let mut out = Outcome::default();
    let units = two_passes(o, &mut out, |i, pass| {
        let t = Instant::now();
        let mut fleet = Fleet::new(subject, fleet_config(derive_seed(o.seed, i), b))
            .map_err(|e| format!("fleet: {e}"))?;
        let setup_s = t.elapsed().as_secs_f64();
        let mut latency_ms = Vec::new();
        let t = Instant::now();
        loop {
            let s = Instant::now();
            let done = fleet.run_epoch();
            latency_ms.push(ms(s.elapsed()));
            if done {
                break;
            }
        }
        let run_s = t.elapsed().as_secs_f64();
        let execs = fleet.total_execs();
        let report = fleet.into_report();
        Ok(Unit {
            setup_s,
            run_s,
            execs,
            latency_ms,
            digest: report.digest(),
            valid: pass > 0 || all_valid(subject, &report.valid_inputs),
        })
    })?;
    let setups: Vec<f64> = units.iter().map(|u| u.setup_s).collect();
    out.end_to_end(median_rate(&units), &latencies(&units), &setups);
    Ok(out)
}

/// The flood's set-up: explore, mine, compile. Returns the compiled
/// grammar and the digest of the mined grammar file.
pub fn flood_setup(subject: Subject, b: &Budget) -> Result<(CompiledGrammar, u64), String> {
    let explored = Fuzzer::new(subject, full_config(EXPLORE_SEED, b.explore_execs)).run();
    let grammar = mine_corpus(subject, &explored.valid_inputs);
    if grammar.alts(START).is_empty() {
        return Err(format!(
            "mined grammar has no start rule ({} valid inputs explored)",
            explored.valid_inputs.len()
        ));
    }
    let file = GrammarFile::uniform(grammar);
    let compiled =
        CompiledGrammar::compile(&file, GEN_DEPTH).map_err(|e| format!("compile: {e}"))?;
    Ok((compiled, file.digest()))
}

pub fn evolve_config(seed: u64, epochs: usize, b: &Budget) -> EvolveConfig {
    EvolveConfig {
        seed,
        epochs,
        batch: b.flood_batch,
        ..EvolveConfig::default()
    }
}

/// Flood set-ups per run; `setup_s` is their median.
const FLOOD_SETUPS: usize = 3;

/// Valid inputs re-checked per generator campaign: the flood finds tens
/// of thousands, so a fixed stride sample is re-run.
const FLOOD_RECHECKS: usize = 512;

/// `mjs-flood`: whole generator campaigns over one mined grammar;
/// latency is per epoch, throughput counts generated inputs (each
/// executed once by the fast tier; fresh valid ones are escalated on
/// top). Campaigns run whole because their opening epochs escalate most
/// and are the slowest, so a cut-off campaign would skew the tail.
pub fn mjs_flood(o: &Opts) -> Result<Outcome, String> {
    let b = o.budget;
    let subject = mjs();
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut digests = Vec::new();
    let mut compiled = None;
    for _ in 0..FLOOD_SETUPS {
        let t = Instant::now();
        let (grammar, digest) = flood_setup(subject, b)?;
        setups.push(t.elapsed().as_secs_f64());
        digests.push(digest);
        compiled.get_or_insert(grammar);
    }
    out.check(digests.iter().all(|d| *d == digests[0]), || {
        "set-up re-runs mined different grammars".to_string()
    });
    let compiled = compiled.expect("at least one set-up ran");
    let units = two_passes(o, &mut out, |i, pass| {
        let grammar = compiled.clone();
        let mut latency_ms = Vec::with_capacity(b.flood_epochs);
        let t = Instant::now();
        let cfg = evolve_config(derive_seed(o.seed, i), b.flood_epochs, b);
        let mut ev = Evolver::new(subject, grammar, cfg);
        for _ in 0..b.flood_epochs {
            let s = Instant::now();
            ev.epoch();
            latency_ms.push(ms(s.elapsed()));
        }
        let run_s = t.elapsed().as_secs_f64();
        let report = ev.into_report();
        let stride = (report.distinct_valid.len() / FLOOD_RECHECKS).max(1);
        Ok(Unit {
            setup_s: 0.0,
            run_s,
            execs: report.generated,
            latency_ms,
            digest: report.digest(),
            valid: pass > 0 || all_valid(subject, report.distinct_valid.iter().step_by(stride)),
        })
    })?;
    out.end_to_end(median_rate(&units), &latencies(&units), &setups);
    Ok(out)
}

/// The spec of served campaign `i`.
pub fn serve_spec(seed: u64, i: usize, b: &Budget) -> Spec {
    Spec {
        subject: SERVE_SUBJECTS[i % SERVE_SUBJECTS.len()],
        seed: derive_seed(seed, i as u64),
        execs: b.serve_execs,
        sync_every: pdf_serve::default_sync_every(b.serve_execs, 1),
    }
}

/// One served campaign as a client saw it.
#[derive(Debug)]
pub struct Served {
    pub index: usize,
    pub spec: Spec,
    pub submit_ms: f64,
    pub latency_ms: f64,
    /// The terminal status fields.
    pub end: Result<Fields, String>,
}

/// Closed loop: `SERVE_CLIENTS` connections each claim the next campaign
/// index while `spec(index, completed)` yields a spec, submit it and poll
/// it to a terminal state, then claim the next. `spec` must answer `None`
/// for good once it has, so the campaigns run are indices `0..n`.
pub fn closed_loop(
    addr: &str,
    spec: &(dyn Fn(usize, usize) -> Option<Spec> + Sync),
) -> Vec<Served> {
    let next = Mutex::new(0);
    let completed = AtomicUsize::new(0);
    let served = Mutex::new(Vec::new());
    let claim = || {
        let mut next = next.lock().expect("index counter poisoned");
        let spec = spec(*next, completed.load(Ordering::SeqCst))?;
        *next += 1;
        Some((*next - 1, spec))
    };
    std::thread::scope(|scope| {
        for _ in 0..SERVE_CLIENTS {
            scope.spawn(|| {
                let mut conn = Conn::connect(addr);
                while let Some((index, spec)) = claim() {
                    let t = Instant::now();
                    let mut submit_ms = f64::NAN;
                    let end = conn.as_mut().map_err(|e| e.clone()).and_then(|c| {
                        let id = c.submit(&spec)?;
                        submit_ms = ms(t.elapsed());
                        c.wait_terminal(id)
                    });
                    let latency_ms = ms(t.elapsed());
                    let broken = end.is_err();
                    served.lock().expect("result list poisoned").push(Served {
                        index,
                        spec,
                        submit_ms,
                        latency_ms,
                        end,
                    });
                    completed.fetch_add(1, Ordering::SeqCst);
                    if broken {
                        break;
                    }
                }
            });
        }
    });
    let mut served = served.into_inner().expect("result list poisoned");
    served.sort_by_key(|s| s.index);
    served
}

/// The digest the daemon must report for `spec`: the same campaign run
/// in process, serially, under the daemon's own configuration rule.
fn baseline_digest(spec: &Spec) -> Result<u64, String> {
    let info = pdf_subjects::by_name(spec.subject).ok_or("unknown subject")?;
    let mut served = pdf_serve::CampaignSpec::new(spec.subject, spec.seed, spec.execs);
    served.sync_every = spec.sync_every;
    Fleet::new(info.subject, pdf_serve::fleet_config(&served))
        .map(|f| f.run().digest())
        .map_err(|e| format!("baseline fleet: {e}"))
}

/// Daemons started per `serve-mix` run; `setup_s` is the median. A spawn
/// takes a few milliseconds, so more samples are cheap.
const DAEMON_SPAWNS: usize = 7;

/// `serve-mix`: the daemon in a child process under a closed loop of
/// two clients, in two passes over the same campaigns. Set-up is spawn
/// until the first answered ping; latency is submit to terminal status;
/// throughput is the closed loop's, `SERVE_CLIENTS` campaigns in flight
/// at their faster pass.
pub fn serve_mix(o: &Opts) -> Result<Outcome, String> {
    let dir = scratch_dir("serve")?;
    let result = serve_mix_in(o, &dir);
    remove_scratch(&dir);
    result
}

fn serve_mix_in(o: &Opts, dir: &Path) -> Result<Outcome, String> {
    let b = o.budget;
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut daemon = None;
    for k in 0..DAEMON_SPAWNS {
        let (d, took) = Daemon::spawn(&dir.join(format!("state{k}")), SERVE_WORKERS)?;
        setups.push(took.as_secs_f64());
        if let Some(previous) = daemon.replace(d) {
            previous.stop()?;
        }
    }
    let daemon = daemon.expect("at least one daemon started");
    let start = Instant::now();
    let first = closed_loop(&daemon.addr, &|i, done| {
        o.more(start, done).then(|| serve_spec(o.seed, i, b))
    });
    let n = first.len();
    let second = closed_loop(&daemon.addr, &|i, _| {
        (i < n).then(|| serve_spec(o.seed, i, b))
    });
    let metrics = Conn::connect(&daemon.addr).and_then(|mut c| c.metrics())?;
    daemon.stop()?;
    let snapshot =
        pdf_obs::MetricsSnapshot::decode(&metrics).map_err(|e| format!("metrics: {e:?}"))?;
    let degraded = snapshot.counter("serve.write_degraded").unwrap_or(0);
    out.check(degraded == 0, || {
        format!("{degraded} degraded state writes")
    });

    // Baselines after the timed section, on as many threads as the
    // daemon has workers.
    let baselines: Vec<Result<u64, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = first
            .chunks(n.div_ceil(SERVE_WORKERS).max(1))
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|s| baseline_digest(&s.spec))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("baseline thread panicked"))
            .collect()
    });
    let (mut execs, mut busy) = (0u64, 0.0);
    let mut latency = Vec::new();
    for ((one, two), base) in first.iter().zip(&second).zip(baselines) {
        let verdict = served_verdict(one, two, base);
        if let Ok(spent) = &verdict {
            execs += spent;
        }
        let best = one.latency_ms.min(two.latency_ms);
        latency.push(best);
        busy += best / 1e3;
        out.check(verdict.is_ok(), || {
            format!(
                "campaign {} ({}): {}",
                one.index,
                one.spec.subject,
                verdict.unwrap_err()
            )
        });
    }
    out.check(second.len() == n, || {
        format!("second pass served {} of {n}", second.len())
    });
    out.end_to_end(
        SERVE_CLIENTS as f64 * execs as f64 / busy,
        &latency,
        &setups,
    );
    Ok(out)
}

/// A served campaign is correct when both passes ended `done` with the
/// serial baseline's digest; returns its executions.
fn served_verdict(a: &Served, b: &Served, base: Result<u64, String>) -> Result<u64, String> {
    let base = base?;
    let mut spent = 0;
    for s in [a, b] {
        let end = s.end.as_ref().map_err(Clone::clone)?;
        if field(end, "state") != Some("done") {
            return Err(format!("ended {:?}", field(end, "state")));
        }
        let digest = field(end, "digest").and_then(|d| u64::from_str_radix(d, 16).ok());
        if digest != Some(base) {
            return Err(format!("digest {digest:x?} != serial baseline {base:016x}"));
        }
        spent = field(end, "spent")
            .and_then(|n| n.parse().ok())
            .unwrap_or(0);
    }
    Ok(spent)
}
