//! The fleet coordinator: N worker shards, one campaign.
//!
//! A [`Fleet`] runs one fuzzing campaign as N independent
//! [`Fuzzer`] workers (shard `i` seeded `base_seed + i`) advancing in
//! lockstep *synchronization epochs*. Each epoch every shard runs
//! `sync_every` more executions under a [`CampaignBudget`] pause point,
//! then the coordinator performs a deterministic sync:
//!
//! 1. it walks the shards in index order and collects each shard's
//!    newly closed valid inputs,
//! 2. deduplicates them against everything promoted so far (by the
//!    journal [`digest_bytes`] digest),
//! 3. injects each fresh input into every *other* shard's candidate
//!    queue through the [`SyncPoint`](pdf_core::SyncPoint) hook.
//!
//! # Determinism contract
//!
//! Everything the coordinator does is RNG-free and runs in shard index
//! order, and the per-shard legs share no mutable state, so the epoch
//! interleaving cannot leak into results: a fleet with fixed
//! `(base seed, shards, sync_every)` reproduces byte-identical
//! per-shard decision streams, reports and the merged coverage digest
//! across runs — parallel or serial, interrupted by
//! [checkpoint/resume](Fleet::checkpoint_to) or not. Merged coverage is
//! the plain [`BranchSet`] union of the shards, which is commutative,
//! associative and idempotent (proven by proptest), so it is also
//! independent of merge order.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use pdf_core::{CampaignBudget, DriverConfig, FuzzReport, Fuzzer, StopReason};
use pdf_runtime::{digest_bytes, BranchSet, Digest, Subject};

use crate::manifest::{shard_file, FleetError, FleetManifest, MANIFEST_FILE};

/// Configuration of a sharded campaign.
///
/// `base` is the per-shard driver configuration: shard `i` runs with
/// `seed = base.seed + i` and everything else identical, so all shards
/// share one [`config_hash`](DriverConfig::config_hash) (the hash is
/// seed-independent) and `base.max_execs` is the *per-shard* execution
/// budget.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of worker shards (must be at least 1).
    pub shards: usize,
    /// Per-shard executions between synchronization epochs (must be at
    /// least 1).
    pub sync_every: u64,
    /// The per-shard driver configuration (see type docs for how the
    /// seed and budget are interpreted).
    pub base: DriverConfig,
    /// Run the per-epoch worker legs on scoped threads. Purely a
    /// throughput knob: serial and parallel fleets are digest-identical.
    pub parallel: bool,
}

impl FleetConfig {
    /// A parallel fleet of `shards` workers syncing every `sync_every`
    /// per-shard executions.
    pub fn new(shards: usize, sync_every: u64, base: DriverConfig) -> Self {
        FleetConfig {
            shards,
            sync_every,
            base,
            parallel: true,
        }
    }

    /// Checks the configuration invariants.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] when `shards` or `sync_every` is zero —
    /// both silently degenerate (an empty fleet, or a sync loop that
    /// never advances) rather than fail later, so they are rejected
    /// here.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.shards == 0 {
            return Err(FleetError::Config(
                "shards must be at least 1 (got 0)".to_string(),
            ));
        }
        if self.sync_every == 0 {
            return Err(FleetError::Config(
                "sync-every must be at least 1 (got 0)".to_string(),
            ));
        }
        Ok(())
    }

    /// The driver configuration shard `shard` runs with: the base
    /// configuration with the seed offset by the shard index.
    pub fn shard_config(&self, shard: usize) -> DriverConfig {
        DriverConfig {
            seed: self.base.seed.wrapping_add(shard as u64),
            ..self.base.clone()
        }
    }
}

/// The outcome of a sharded campaign: per-shard reports plus the
/// fleet-level merge.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// One [`FuzzReport`] per shard, indexed by shard id.
    pub shards: Vec<FuzzReport>,
    /// Every distinct valid input any shard found, deduplicated by
    /// digest and sorted by discovery cost (then bytes) — see
    /// `valid_found_at` for the cost definition.
    pub valid_inputs: Vec<Vec<u8>>,
    /// For each fleet valid input, an upper bound on the *total* fleet
    /// executions spent when it was found: the finding shard's
    /// discovery count times the shard count (shards advance in
    /// lockstep epochs, so no shard is more than one epoch ahead).
    /// Parallel to `valid_inputs`; deduplicated inputs keep the
    /// cheapest discovery.
    pub valid_found_at: Vec<u64>,
    /// Union of every shard's valid-input coverage (`vBr`).
    pub valid_branches: BranchSet,
    /// Union of every shard's any-run coverage.
    pub all_branches: BranchSet,
    /// Total subject executions across all shards.
    pub total_execs: u64,
    /// Synchronization epochs the campaign ran.
    pub epochs: u64,
    /// Distinct valid inputs the coordinator promoted.
    pub promotions: u64,
    /// Queue injections the coordinator performed.
    pub injections: u64,
}

impl FleetReport {
    /// FNV-1a digest over every deterministic field: the shard count,
    /// each shard's [`FuzzReport::digest`], the merged valid inputs and
    /// coverage, and the coordinator counters. Two fleet runs with the
    /// same `(subject, base seed, shards, sync_every)` produce the same
    /// digest — the fleet determinism contract.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_u64(self.shards.len() as u64);
        for r in &self.shards {
            d.write_u64(r.digest());
        }
        d.write_u64(self.valid_inputs.len() as u64);
        for (input, &at) in self.valid_inputs.iter().zip(&self.valid_found_at) {
            d.write_u64(at);
            d.write_bytes(input);
        }
        d.write_u64(self.coverage_digest());
        d.write_u64(self.total_execs);
        d.write_u64(self.epochs);
        d.write_u64(self.promotions);
        d.write_u64(self.injections);
        d.finish()
    }

    /// FNV-1a digest of the merged coverage alone (both branch sets).
    /// Because the merge is a set union, this is invariant under shard
    /// order and epoch interleaving — the quantity the CI
    /// `fleet-determinism` job compares across runs.
    pub fn coverage_digest(&self) -> u64 {
        let mut d = Digest::new();
        for set in [&self.valid_branches, &self.all_branches] {
            d.write_u64(set.len() as u64);
            for b in set.iter() {
                d.write_u64(b.site.0);
                d.write_u8(b.outcome as u8);
            }
        }
        d.finish()
    }
}

/// A read-only progress summary of a running fleet, cheap enough to
/// take between every epoch — what the `pdf-serve` daemon streams to
/// `watch` subscribers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetProgress {
    /// Synchronization epochs completed so far.
    pub epoch: u64,
    /// Total subject executions across all shards so far.
    pub total_execs: u64,
    /// Distinct valid inputs discovered so far (see
    /// [`Fleet::progress`] for the one-epoch lag caveat).
    pub valid_inputs: u64,
    /// Whether every shard has finished its budget.
    pub complete: bool,
}

/// Unions any number of [`BranchSet`]s — the fleet's coverage merge,
/// exposed for the `sync_overhead` bench and anyone composing coverage
/// outside a [`Fleet`]. Commutative, associative and idempotent (it is
/// a set union), so the result is independent of iteration order.
pub fn merge_coverage<'a>(sets: impl IntoIterator<Item = &'a BranchSet>) -> BranchSet {
    let mut merged = BranchSet::new();
    for set in sets {
        merged.union_with(set);
    }
    merged
}

/// A sharded cooperative campaign: N workers, one coordinator.
///
/// ```
/// use pdf_core::DriverConfig;
/// use pdf_fleet::{Fleet, FleetConfig};
///
/// let base = DriverConfig { seed: 5, max_execs: 600, ..DriverConfig::default() };
/// let cfg = FleetConfig::new(2, 200, base);
/// let report = Fleet::new(pdf_subjects::arith::subject(), cfg.clone()).unwrap().run();
/// assert_eq!(report.shards.len(), 2);
/// // deterministic: a second identical run digests the same
/// let again = Fleet::new(pdf_subjects::arith::subject(), cfg).unwrap().run();
/// assert_eq!(report.digest(), again.digest());
/// ```
#[derive(Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    subject: Subject,
    workers: Vec<Fuzzer>,
    /// Per shard: how many of its valid inputs the coordinator already
    /// examined for promotion.
    seen_valid: Vec<usize>,
    /// Digests of every input promoted so far (the dedup set).
    promoted: BTreeSet<u64>,
    epoch: u64,
    promotions: u64,
    injections: u64,
}

impl Fleet {
    /// Creates a fleet of fresh workers.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] on an invalid configuration (see
    /// [`FleetConfig::validate`]).
    pub fn new(subject: Subject, cfg: FleetConfig) -> Result<Fleet, FleetError> {
        cfg.validate()?;
        let workers = (0..cfg.shards)
            .map(|i| Fuzzer::new(subject, cfg.shard_config(i)))
            .collect();
        Ok(Fleet::assemble(subject, cfg, workers))
    }

    /// Creates a fleet whose workers replay previously recorded
    /// decision streams (`streams[i]` for shard `i`) instead of drawing
    /// from RNGs. With the same subject and configuration as the
    /// recording run, [`run`](Self::run) reproduces the original
    /// [`FleetReport::digest`] — the injections are re-derived by the
    /// coordinator, so only the random bytes need replaying.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] on an invalid configuration or when the
    /// stream count does not match the shard count.
    pub fn replaying(
        subject: Subject,
        cfg: FleetConfig,
        streams: Vec<Vec<u8>>,
    ) -> Result<Fleet, FleetError> {
        cfg.validate()?;
        if streams.len() != cfg.shards {
            return Err(FleetError::Config(format!(
                "{} replay streams for {} shards",
                streams.len(),
                cfg.shards
            )));
        }
        let workers = streams
            .into_iter()
            .enumerate()
            .map(|(i, stream)| Fuzzer::replaying(subject, cfg.shard_config(i), stream))
            .collect();
        Ok(Fleet::assemble(subject, cfg, workers))
    }

    fn assemble(subject: Subject, cfg: FleetConfig, workers: Vec<Fuzzer>) -> Fleet {
        let shards = workers.len();
        Fleet {
            cfg,
            subject,
            workers,
            seen_valid: vec![0; shards],
            promoted: BTreeSet::new(),
            epoch: 0,
            promotions: 0,
            injections: 0,
        }
    }

    /// Synchronization epochs completed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total subject executions across all shards so far.
    pub fn total_execs(&self) -> u64 {
        self.workers.iter().map(Fuzzer::execs).sum()
    }

    /// Whether every shard has finished its execution budget. A
    /// complete fleet's [`run_epoch`](Self::run_epoch) returns `true`
    /// immediately; an external scheduler (the `pdf-serve` daemon) uses
    /// this to finalize a resumed campaign without dispatching it.
    pub fn is_complete(&self) -> bool {
        self.workers.iter().all(Fuzzer::is_complete)
    }

    /// A cheap, read-only progress summary for subscribers: epoch
    /// counter, execution totals and distinct valid-input count. Safe to
    /// call between [`run_epoch`](Self::run_epoch) calls without
    /// touching the search (draws no RNG bytes, mutates nothing).
    pub fn progress(&self) -> FleetProgress {
        FleetProgress {
            epoch: self.epoch,
            total_execs: self.total_execs(),
            // Distinct inputs the coordinator has examined, plus the
            // tails it has not synced yet (at most one epoch behind;
            // unsynced duplicates may briefly overcount — this is a
            // progress display, not an accounting invariant).
            valid_inputs: self.promoted.len() as u64
                + self
                    .workers
                    .iter()
                    .zip(&self.seen_valid)
                    .map(|(w, &seen)| (w.valid_count() - seen) as u64)
                    .sum::<u64>(),
            complete: self.is_complete(),
        }
    }

    /// Runs one synchronization epoch: every shard advances by
    /// `sync_every` executions (or to completion), then the coordinator
    /// syncs. Returns `true` once every shard has finished its budget —
    /// further calls are harmless no-ops that keep returning `true`.
    pub fn run_epoch(&mut self) -> bool {
        self.epoch += 1;
        pdf_obs::record(|m| m.fleet_epochs.inc());
        let sync_every = self.cfg.sync_every;
        let leg = |(i, w): (usize, &mut Fuzzer)| {
            let _span = pdf_obs::span(pdf_obs::shard_label(i));
            let pause = w.execs().saturating_add(sync_every);
            w.run_until(&CampaignBudget::execs(pause))
        };
        let stops: Vec<StopReason> = if self.cfg.parallel && self.workers.len() > 1 {
            let registry = pdf_obs::current();
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .workers
                    .iter_mut()
                    .enumerate()
                    .map(|slot| {
                        let registry = registry.clone();
                        scope.spawn(move || {
                            let _metrics = registry.map(pdf_obs::install);
                            leg(slot)
                        })
                    })
                    .collect();
                // Joining in spawn order keeps the collected stop
                // reasons in shard order regardless of finish order.
                handles
                    .into_iter()
                    .map(|h| h.join().expect("fleet shard thread panicked"))
                    .collect()
            })
        } else {
            self.workers.iter_mut().enumerate().map(leg).collect()
        };
        self.sync();
        stops.iter().all(|s| *s == StopReason::Finished)
    }

    /// The deterministic coordinator step: collect, dedup and promote
    /// newly closed valid inputs in shard index order.
    fn sync(&mut self) {
        let start = Instant::now();
        let mut fresh: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut merged = BranchSet::new();
        for (s, w) in self.workers.iter_mut().enumerate() {
            let sp = w.sync_point();
            let inputs = sp.valid_inputs();
            for input in &inputs[self.seen_valid[s]..] {
                if self.promoted.insert(digest_bytes(input)) {
                    fresh.push((s, input.clone()));
                }
            }
            self.seen_valid[s] = inputs.len();
            merged.union_with(sp.valid_branches());
        }
        let mut injected: u64 = 0;
        for (s, w) in self.workers.iter_mut().enumerate() {
            // Coverage first: the injected entries are then scored
            // against the fleet-wide vBr, not the stale local one.
            w.sync_point().adopt_coverage(&merged);
            for (origin, input) in &fresh {
                if s != *origin {
                    w.sync_point().inject(input.clone());
                    injected += 1;
                }
            }
        }
        self.promotions += fresh.len() as u64;
        self.injections += injected;
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        pdf_obs::record(|m| {
            m.fleet_promotions.add(fresh.len() as u64);
            m.fleet_injections.add(injected);
            m.fleet_sync_ns.observe(elapsed);
        });
    }

    /// Injects externally discovered valid inputs — e.g. inputs a
    /// grammar-generation flood (`pdf-gen`) found between epochs — into
    /// every shard's candidate queue, deduplicated against everything
    /// the coordinator has promoted so far. Returns how many inputs
    /// were fresh; each fresh input counts as one promotion and one
    /// injection per shard. RNG-free and processed in input order, so
    /// the fleet determinism contract extends to campaigns driven by a
    /// deterministic external source.
    pub fn inject_external(&mut self, inputs: &[Vec<u8>]) -> u64 {
        let mut fresh: u64 = 0;
        let mut injected: u64 = 0;
        for input in inputs {
            if self.promoted.insert(digest_bytes(input)) {
                fresh += 1;
                for w in self.workers.iter_mut() {
                    w.sync_point().inject(input.clone());
                    injected += 1;
                }
            }
        }
        self.promotions += fresh;
        self.injections += injected;
        pdf_obs::record(|m| {
            m.fleet_promotions.add(fresh);
            m.fleet_injections.add(injected);
        });
        fresh
    }

    /// Folds externally observed valid-input coverage (e.g. from a
    /// generator flood's coverage runs) into every shard's scoring
    /// baseline, so shards stop chasing branches the external source
    /// already covered. Deterministic: a plain set union per shard.
    pub fn adopt_external_coverage(&mut self, coverage: &BranchSet) {
        for w in self.workers.iter_mut() {
            w.sync_point().adopt_coverage(coverage);
        }
    }

    /// Runs the whole campaign: epochs until every shard finishes, then
    /// the merged report.
    pub fn run(mut self) -> FleetReport {
        while !self.run_epoch() {}
        self.into_report()
    }

    /// Finalizes the fleet into its merged report. Call after
    /// [`run_epoch`](Self::run_epoch) returns `true` (calling earlier
    /// reports the campaign as paused mid-flight, like
    /// [`Fuzzer::into_report`]).
    pub fn into_report(self) -> FleetReport {
        let shard_count = self.workers.len() as u64;
        let shards: Vec<FuzzReport> = self.workers.into_iter().map(Fuzzer::into_report).collect();
        let valid_branches = merge_coverage(shards.iter().map(|r| &r.valid_branches));
        let all_branches = merge_coverage(shards.iter().map(|r| &r.all_branches));
        let total_execs = shards.iter().map(|r| r.execs).sum();
        // Dedup valid inputs by digest, keeping the cheapest discovery
        // (scaled to total fleet executions — see the field docs), then
        // order by cost so the list reads as fleet discovery order.
        let mut best: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        for r in &shards {
            for (input, &at) in r.valid_inputs.iter().zip(&r.valid_found_at) {
                let cost = at.saturating_mul(shard_count);
                if seen.insert(digest_bytes(input)) {
                    best.push((cost, input.clone()));
                } else if let Some(slot) = best.iter_mut().find(|(_, existing)| existing == input) {
                    slot.0 = slot.0.min(cost);
                }
            }
        }
        best.sort();
        let (valid_found_at, valid_inputs) = best.into_iter().unzip();
        FleetReport {
            shards,
            valid_inputs,
            valid_found_at,
            valid_branches,
            all_branches,
            total_execs,
            epochs: self.epoch,
            promotions: self.promotions,
            injections: self.injections,
        }
    }

    /// Writes a fleet checkpoint into `dir`: one `shard-NN.ck` per
    /// worker plus the `fleet.manifest` (see [`FleetManifest`]).
    /// Meaningful at epoch boundaries — between
    /// [`run_epoch`](Self::run_epoch) calls — which is also when the
    /// coordinator state is simplest. [`resume_from`](Self::resume_from)
    /// restores the fleet byte-identically.
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] when the directory cannot be created or a
    /// file cannot be written.
    ///
    /// # Panics
    ///
    /// Panics on a [`replaying`](Self::replaying) fleet, like
    /// [`Fuzzer::checkpoint`].
    pub fn checkpoint_to(&self, dir: impl AsRef<Path>) -> Result<(), FleetError> {
        let dir = dir.as_ref();
        let io = |e: std::io::Error| FleetError::Io(e.to_string());
        std::fs::create_dir_all(dir).map_err(io)?;
        for (i, w) in self.workers.iter().enumerate() {
            w.checkpoint_to(dir.join(shard_file(i))).map_err(io)?;
        }
        let manifest = FleetManifest {
            subject: self.subject.name().to_string(),
            config_hash: self.cfg.base.config_hash(),
            base_seed: self.cfg.base.seed,
            shards: self.cfg.shards as u64,
            sync_every: self.cfg.sync_every,
            epoch: self.epoch,
            promotions: self.promotions,
            injections: self.injections,
            seen_valid: self.seen_valid.iter().map(|&n| n as u64).collect(),
            promoted: self.promoted.iter().copied().collect(),
        };
        std::fs::write(dir.join(MANIFEST_FILE), manifest.encode()).map_err(io)
    }

    /// Reconstructs a checkpointed fleet from `dir`. The subject and
    /// configuration must match the checkpointing run; drift is
    /// detected via the manifest (subject name, config hash, base
    /// seed, shard count, sync interval) and again per shard by the
    /// `pdf-checkpoint` codec.
    ///
    /// # Errors
    ///
    /// [`FleetError::Drift`] on any mismatch, [`FleetError::Shard`]
    /// when a per-shard checkpoint fails to decode, [`FleetError::Io`]
    /// on unreadable files.
    pub fn resume_from(
        subject: Subject,
        cfg: FleetConfig,
        dir: impl AsRef<Path>,
    ) -> Result<Fleet, FleetError> {
        cfg.validate()?;
        let dir = dir.as_ref();
        let io = |e: std::io::Error| FleetError::Io(e.to_string());
        let text = std::fs::read_to_string(dir.join(MANIFEST_FILE)).map_err(io)?;
        let m = FleetManifest::decode(&text)?;
        let drift = |what: String| Err(FleetError::Drift(what));
        if m.subject != subject.name() {
            return drift(format!(
                "manifest is for subject {:?}, resuming with {:?}",
                m.subject,
                subject.name()
            ));
        }
        if m.config_hash != cfg.base.config_hash() {
            return drift("driver configuration changed since checkpoint".to_string());
        }
        if m.base_seed != cfg.base.seed {
            return drift(format!(
                "manifest base seed {} != configured {}",
                m.base_seed, cfg.base.seed
            ));
        }
        if m.shards != cfg.shards as u64 {
            return drift(format!(
                "manifest has {} shards, configured {}",
                m.shards, cfg.shards
            ));
        }
        if m.sync_every != cfg.sync_every {
            return drift(format!(
                "manifest sync-every {} != configured {}",
                m.sync_every, cfg.sync_every
            ));
        }
        let workers = (0..cfg.shards)
            .map(|i| Fuzzer::resume_from(subject, cfg.shard_config(i), dir.join(shard_file(i))))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Fleet {
            subject,
            workers,
            seen_valid: m.seen_valid.iter().map(|&n| n as usize).collect(),
            promoted: m.promoted.into_iter().collect(),
            epoch: m.epoch,
            promotions: m.promotions,
            injections: m.injections,
            cfg,
        })
    }

    /// [`resume_from`](Self::resume_from) with graceful degradation
    /// over checkpoint *generations*: tries each directory in `dirs`
    /// in order (newest first) and resumes from the first one that
    /// decodes. A corrupt or unreadable generation — a torn
    /// checkpoint write, a truncated manifest — falls through to the
    /// next; a [`Drift`](FleetError::Drift)-class failure aborts
    /// immediately, because every generation was written under the
    /// same configuration and falling back cannot repair a config
    /// mismatch.
    ///
    /// Returns the resumed fleet and the index into `dirs` that
    /// succeeded, so callers can quarantine the generations that were
    /// skipped.
    ///
    /// # Errors
    ///
    /// The *first* error encountered when every generation fails (the
    /// newest generation's failure is the most diagnostic), or the
    /// drift error that aborted the walk.
    pub fn resume_with_fallback<P: AsRef<Path>>(
        subject: Subject,
        cfg: FleetConfig,
        dirs: &[P],
    ) -> Result<(Fleet, usize), FleetError> {
        let mut first_err: Option<FleetError> = None;
        for (i, dir) in dirs.iter().enumerate() {
            match Fleet::resume_from(subject, cfg.clone(), dir.as_ref()) {
                Ok(fleet) => return Ok((fleet, i)),
                Err(e) => {
                    if e.class() == pdf_core::ErrorClass::Drift {
                        return Err(e);
                    }
                    first_err.get_or_insert(e);
                }
            }
        }
        Err(first_err
            .unwrap_or_else(|| FleetError::Config("no checkpoint generations given".to_string())))
    }
}
