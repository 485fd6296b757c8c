//! The campaign daemon: a bounded worker pool multiplexing many
//! checkpointable fleet campaigns.
//!
//! A [`Daemon`] owns every campaign ever submitted to it and a pool of
//! `workers` OS threads. Campaigns advance in *slices* of exactly one
//! fleet synchronization epoch: a worker claims the most urgent
//! schedulable campaign (nearest deadline first, then submission
//! order), runs [`Fleet::run_epoch`] once, and returns the campaign to
//! the pool — so a 4-worker daemon makes fair progress on 200 queued
//! campaigns instead of head-of-line blocking on the first 4.
//!
//! # Durability contract
//!
//! With a state directory configured, the disk is brought up to date at
//! **every slice boundary**: the fleet is checkpointed
//! (`campaigns/<id>/ck/`, the `pdf-checkpoint`/`pdf-fleet` codecs), the
//! campaign meta (`campaigns/<id>/meta`, `pdf-serve-meta v1`) is
//! rewritten atomically, and every lifecycle transition is appended to
//! `serve.journal` *before* it takes effect. A hard kill therefore
//! loses at most the epoch in flight — and because an epoch re-run from
//! its checkpoint is deterministic (the fleet contract), a restarted
//! daemon finishes every interrupted campaign with **byte-identical
//! final digests** to an uninterrupted run. [`Daemon::open`] performs
//! the recovery: persisted `Running` campaigns are requeued through the
//! [`Event::Requeue`] edge, `Paused` ones stay paused, terminal ones
//! keep their digests.

use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pdf_chaos::{chaos_write_file, FaultKind, FaultPlan, OpKind};
use pdf_core::{DriverConfig, ErrorClass};
use pdf_fleet::{Fleet, FleetConfig};
use pdf_obs::{campaign_label, MetricsRegistry};

use crate::journal::{recover_journal, Journal};
use crate::lifecycle::{transition, Event, IllegalTransition, Phase};
use crate::wire::{
    parse_fields, status_fields, status_from_fields, CampaignSpec, CampaignStatus, RESPONSE_KEYS,
};

/// The meta-file header/version line.
pub const META_HEADER: &str = "pdf-serve-meta v1";

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker pool size (must be at least 1).
    pub workers: usize,
    /// Where campaigns checkpoint and the journal lives; `None` runs
    /// fully in memory (no durability, no journal).
    pub state_dir: Option<PathBuf>,
    /// Load-shedding threshold: submissions are refused with
    /// [`ServeError::Overloaded`] while this many campaigns are already
    /// queued or running. `None` admits everything.
    pub max_queued: Option<usize>,
    /// Storage fault-injection plan for chaos testing; every journal
    /// append, meta rewrite and checkpoint write consults it. `None`
    /// (production) injects nothing.
    pub faults: Option<Arc<FaultPlan>>,
}

impl DaemonConfig {
    /// An ephemeral daemon: no state directory, nothing survives it.
    pub fn in_memory(workers: usize) -> DaemonConfig {
        DaemonConfig {
            workers,
            state_dir: None,
            max_queued: None,
            faults: None,
        }
    }

    /// A durable daemon rooted at `state_dir`.
    pub fn persistent(workers: usize, state_dir: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            workers,
            state_dir: Some(state_dir.into()),
            max_queued: None,
            faults: None,
        }
    }

    /// Caps admission at `max_queued` active campaigns.
    pub fn with_max_queued(mut self, max_queued: usize) -> DaemonConfig {
        self.max_queued = Some(max_queued);
        self
    }

    /// Installs a storage fault-injection plan.
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> DaemonConfig {
        self.faults = Some(faults);
        self
    }
}

/// Why a daemon request was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No campaign has this id.
    NoSuchCampaign(u64),
    /// The request implies an illegal lifecycle transition.
    Illegal(IllegalTransition),
    /// The spec names a subject the daemon does not have.
    UnknownSubject(String),
    /// The spec failed validation.
    BadSpec(String),
    /// The daemon is shutting down and accepts no new work.
    Stopping,
    /// The admission cap is reached; retry after the given delay.
    Overloaded {
        /// How long the client should back off before resubmitting,
        /// in milliseconds.
        retry_after_ms: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::NoSuchCampaign(id) => write!(f, "campaign {id} does not exist"),
            ServeError::Illegal(t) => write!(f, "{t}"),
            ServeError::UnknownSubject(s) => write!(f, "unknown subject {s:?}"),
            ServeError::BadSpec(what) => write!(f, "bad campaign spec: {what}"),
            ServeError::Stopping => write!(f, "daemon is shutting down"),
            ServeError::Overloaded { retry_after_ms } => {
                write!(f, "daemon is overloaded, retry in {retry_after_ms}ms")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<IllegalTransition> for ServeError {
    fn from(t: IllegalTransition) -> ServeError {
        ServeError::Illegal(t)
    }
}

/// The exact [`FleetConfig`] the daemon runs a spec with. Public so
/// tests (and anyone re-deriving a baseline) can run the identical
/// campaign serially: `spec.execs` is split evenly across shards
/// (at least 1 per shard), worker legs run serially inside the pool
/// slot (`parallel: false` — the pool is the parallelism), and
/// everything else is the driver default.
pub fn fleet_config(spec: &CampaignSpec) -> FleetConfig {
    let per_shard = (spec.execs / spec.shards.max(1)).max(1);
    FleetConfig {
        shards: spec.shards.max(1) as usize,
        sync_every: spec.sync_every,
        base: DriverConfig {
            seed: spec.seed,
            max_execs: per_shard,
            exec_mode: spec.exec_mode,
            ..DriverConfig::default()
        },
        parallel: false,
    }
}

/// One managed campaign.
#[derive(Debug)]
struct Campaign {
    id: u64,
    spec: CampaignSpec,
    phase: Phase,
    /// The live fleet, present between slices (and while paused, for a
    /// campaign that has run at least once this process). `None` before
    /// first dispatch and after recovery — rebuilt from the checkpoint
    /// on next dispatch.
    fleet: Option<Fleet>,
    /// Claimed by a worker right now (slot bookkeeping, not lifecycle).
    on_worker: bool,
    pause_requested: bool,
    cancel_requested: bool,
    epoch: u64,
    spent: u64,
    valid: u64,
    digest: Option<u64>,
    coverage: Option<u64>,
    error: Option<String>,
}

impl Campaign {
    fn fresh(id: u64, spec: CampaignSpec) -> Campaign {
        Campaign {
            id,
            spec,
            phase: Phase::Queued,
            fleet: None,
            on_worker: false,
            pause_requested: false,
            cancel_requested: false,
            epoch: 0,
            spent: 0,
            valid: 0,
            digest: None,
            coverage: None,
            error: None,
        }
    }

    fn from_status(s: CampaignStatus) -> Campaign {
        Campaign {
            id: s.id,
            spec: s.spec,
            phase: s.phase,
            fleet: None,
            on_worker: false,
            pause_requested: false,
            cancel_requested: false,
            epoch: s.epoch,
            spent: s.spent,
            valid: s.valid,
            digest: s.digest,
            coverage: s.coverage,
            error: s.error,
        }
    }

    fn status(&self) -> CampaignStatus {
        CampaignStatus {
            id: self.id,
            phase: self.phase,
            spec: self.spec.clone(),
            epoch: self.epoch,
            spent: self.spent,
            valid: self.valid,
            digest: self.digest,
            coverage: self.coverage,
            error: self.error.clone(),
        }
    }
}

#[derive(Debug)]
struct DaemonState {
    campaigns: BTreeMap<u64, Campaign>,
    next_id: u64,
    /// Pool slots currently running a slice.
    busy: usize,
    journal: Option<Journal>,
}

#[derive(Debug)]
struct Inner {
    cfg: DaemonConfig,
    registry: Arc<MetricsRegistry>,
    state: Mutex<DaemonState>,
    /// Signals workers: schedulable work may exist (or `stopping`).
    work: Condvar,
    /// Signals waiters: a campaign or slot changed state.
    idle: Condvar,
    /// Graceful: finish the in-flight slices, checkpoint, exit.
    stopping: AtomicBool,
    /// Hard kill: abandon in-flight slices without touching disk or
    /// state, simulating SIGKILL mid-epoch.
    killed: AtomicBool,
}

/// The fuzzing-as-a-service daemon. See the [module docs](self) for
/// the scheduling and durability model.
#[derive(Debug)]
pub struct Daemon {
    inner: Arc<Inner>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

fn campaigns_root(state_dir: &Path) -> PathBuf {
    state_dir.join("campaigns")
}

fn campaign_dir(state_dir: &Path, id: u64) -> PathBuf {
    campaigns_root(state_dir).join(id.to_string())
}

/// The checkpoint directory of campaign `id` under `state_dir`.
pub fn checkpoint_dir(state_dir: &Path, id: u64) -> PathBuf {
    campaign_dir(state_dir, id).join("ck")
}

/// The previous-epoch checkpoint generation of campaign `id`: the
/// fallback when the newest generation is torn.
pub fn prev_checkpoint_dir(state_dir: &Path, id: u64) -> PathBuf {
    campaign_dir(state_dir, id).join("ck.prev")
}

/// The journal path under `state_dir`.
pub fn journal_path(state_dir: &Path) -> PathBuf {
    state_dir.join("serve.journal")
}

fn encode_meta(status: &CampaignStatus) -> String {
    let mut line = String::from("campaign");
    for (k, v) in status_fields(status) {
        line.push(' ');
        line.push_str(&k);
        line.push('=');
        line.push_str(&v);
    }
    format!("{META_HEADER}\n{line}\n")
}

fn decode_meta(text: &str) -> std::io::Result<CampaignStatus> {
    let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let mut lines = text.lines();
    match lines.next() {
        Some(h) if h == META_HEADER => {}
        other => return Err(invalid(format!("bad meta header {other:?}"))),
    }
    let line = lines
        .next()
        .ok_or_else(|| invalid("meta missing campaign line".into()))?;
    let rest = line
        .strip_prefix("campaign ")
        .ok_or_else(|| invalid(format!("not a campaign line: {line:?}")))?;
    let fields = parse_fields(rest, &RESPONSE_KEYS).map_err(|e| invalid(e.to_string()))?;
    status_from_fields(&fields).map_err(|e| invalid(e.to_string()))
}

impl Inner {
    /// Writes the campaign's meta file atomically (tmp + rename).
    ///
    /// A failed write (real or injected) degrades instead of
    /// panicking: the previous meta stays in place, the
    /// `serve.write_degraded` counter ticks, and the next slice
    /// boundary retries — the restart contract already tolerates a meta
    /// one boundary behind.
    fn persist_meta(&self, c: &Campaign) {
        let Some(state_dir) = &self.cfg.state_dir else {
            return;
        };
        let dir = campaign_dir(state_dir, c.id);
        let tmp = dir.join("meta.tmp");
        let wrote = std::fs::create_dir_all(&dir)
            .and_then(|()| {
                chaos_write_file(
                    self.cfg.faults.as_ref(),
                    OpKind::MetaWrite,
                    &tmp,
                    encode_meta(&c.status()).as_bytes(),
                )
            })
            .and_then(|()| std::fs::rename(&tmp, dir.join("meta")));
        if wrote.is_err() {
            self.registry.serve_write_degraded.inc();
        }
    }

    /// Journals and applies one lifecycle transition. The journal write
    /// happens *before* the in-memory phase change and the meta rewrite
    /// after it, so on disk the journal always leads the meta. A failed
    /// journal append degrades (the transition still applies, the
    /// `serve.write_degraded` counter ticks) — refusing the transition
    /// would wedge the campaign on a storage hiccup, and the meta
    /// rewrite that follows keeps restart state correct.
    fn apply(
        &self,
        st: &mut DaemonState,
        id: u64,
        event: Event,
        digest: Option<u64>,
    ) -> Result<Phase, ServeError> {
        let from = st
            .campaigns
            .get(&id)
            .ok_or(ServeError::NoSuchCampaign(id))?
            .phase;
        let to = transition(from, event)?;
        if let Some(journal) = &mut st.journal {
            if journal.append(id, event, from, to, digest).is_err() {
                self.registry.serve_write_degraded.inc();
            }
        }
        self.registry.serve_transitions.inc();
        match to {
            Phase::Done => self.registry.serve_completed.inc(),
            Phase::Failed => self.registry.serve_failed.inc(),
            Phase::Cancelled => self.registry.serve_cancelled.inc(),
            _ => {}
        }
        let c = st.campaigns.get_mut(&id).expect("campaign vanished");
        c.phase = to;
        self.persist_meta(c);
        self.idle.notify_all();
        Ok(to)
    }

    /// The most urgent schedulable campaign: nearest deadline first,
    /// then lowest id. Schedulable = `Queued`, or `Running` between
    /// slices.
    fn pick(&self, st: &DaemonState) -> Option<u64> {
        st.campaigns
            .values()
            .filter(|c| !c.on_worker && matches!(c.phase, Phase::Queued | Phase::Running))
            .min_by_key(|c| (c.spec.deadline_ms.unwrap_or(u64::MAX), c.id))
            .map(|c| c.id)
    }

    fn worker_loop(&self) {
        let _metrics = pdf_obs::install(Arc::clone(&self.registry));
        loop {
            // Claim the next slice, or exit once the daemon stops.
            let (id, spec, fleet) = {
                let mut st = self.state.lock().expect("daemon state poisoned");
                loop {
                    if self.stopping.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Some(id) = self.pick(&st) {
                        if st.campaigns[&id].phase == Phase::Queued {
                            // First dispatch; the transition is what
                            // admits the campaign.
                            self.apply(&mut st, id, Event::Dispatch, None)
                                .expect("queued -> running is legal");
                        }
                        st.busy += 1;
                        let c = st.campaigns.get_mut(&id).expect("picked campaign");
                        c.on_worker = true;
                        break (id, c.spec.clone(), c.fleet.take());
                    }
                    st = self.work.wait(st).expect("daemon state poisoned");
                }
            };
            self.run_slice(id, spec, fleet);
            let mut st = self.state.lock().expect("daemon state poisoned");
            let c = st.campaigns.get_mut(&id).expect("campaign vanished");
            c.on_worker = false;
            st.busy -= 1;
            self.idle.notify_all();
            // The campaign may still be schedulable; let a (possibly
            // different) worker take its next slice.
            self.work.notify_one();
        }
    }

    /// Runs one epoch slice of campaign `id` and settles the outcome.
    /// Called without the state lock; `fleet` is `None` on the first
    /// slice after submission or recovery.
    fn run_slice(&self, id: u64, spec: CampaignSpec, fleet: Option<Fleet>) {
        // Build (or rebuild from checkpoint) outside the lock.
        let mut fleet = match fleet {
            Some(f) => f,
            None => match self.build_fleet(id, &spec) {
                Ok(f) => f,
                Err(msg) => {
                    let mut st = self.state.lock().expect("daemon state poisoned");
                    let c = st.campaigns.get_mut(&id).expect("campaign vanished");
                    c.error = Some(msg);
                    let _ = self.apply(&mut st, id, Event::Fail, None);
                    return;
                }
            },
        };
        self.registry.serve_slices.inc();
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let _span = pdf_obs::span(campaign_label(id));
            fleet.run_epoch()
        }));
        if self.killed.load(Ordering::SeqCst) {
            // Simulated hard kill: the slice's results are lost; disk
            // stays at the previous boundary and recovery re-runs this
            // epoch deterministically.
            return;
        }
        match ran {
            Err(panic) => {
                let msg = panic_message(panic);
                let mut st = self.state.lock().expect("daemon state poisoned");
                let c = st.campaigns.get_mut(&id).expect("campaign vanished");
                c.error = Some(format!("epoch slice panicked: {msg}"));
                let _ = self.apply(&mut st, id, Event::Fail, None);
            }
            Ok(true) => {
                // Budget spent: finalize. The report digest rides on the
                // finish journal record.
                let report = fleet.into_report();
                let digest = report.digest();
                let mut st = self.state.lock().expect("daemon state poisoned");
                let c = st.campaigns.get_mut(&id).expect("campaign vanished");
                c.epoch = report.epochs;
                c.spent = report.total_execs;
                c.valid = report.valid_inputs.len() as u64;
                c.digest = Some(digest);
                c.coverage = Some(report.coverage_digest());
                let _ = self.apply(&mut st, id, Event::Finish, Some(digest));
            }
            Ok(false) => {
                // Mid-campaign boundary: bring the disk up to date, then
                // settle pending pause/cancel requests.
                let progress = fleet.progress();
                if let Some(state_dir) = &self.cfg.state_dir {
                    match self.checkpoint_rotating(&fleet, state_dir, id) {
                        Ok(()) => self.registry.serve_checkpoints.inc(),
                        // Degrade: the previous generation is intact (the
                        // rotation preserved it), so a crash now loses at
                        // most this one epoch — the documented contract.
                        Err(_) => self.registry.serve_write_degraded.inc(),
                    }
                }
                let mut st = self.state.lock().expect("daemon state poisoned");
                let c = st.campaigns.get_mut(&id).expect("campaign vanished");
                c.epoch = progress.epoch;
                c.spent = progress.total_execs;
                c.valid = progress.valid_inputs;
                if c.cancel_requested {
                    c.cancel_requested = false;
                    let _ = self.apply(&mut st, id, Event::Cancel, None);
                } else if c.pause_requested {
                    c.pause_requested = false;
                    let c = st.campaigns.get_mut(&id).expect("campaign vanished");
                    c.fleet = Some(fleet);
                    let _ = self.apply(&mut st, id, Event::Pause, None);
                } else {
                    c.fleet = Some(fleet);
                    self.persist_meta(c);
                }
            }
        }
    }

    /// Writes campaign `id`'s checkpoint with two-generation rotation:
    /// the current `ck/` is renamed to `ck.prev/` first, so a torn
    /// write can damage at most the newest generation and restart
    /// falls back one epoch. With a fault plan installed, the write
    /// consults it — a scheduled torn write truncates the fresh
    /// manifest mid-line (the on-disk state a real crash leaves).
    fn checkpoint_rotating(&self, fleet: &Fleet, state_dir: &Path, id: u64) -> Result<(), String> {
        let cur = checkpoint_dir(state_dir, id);
        let prev = prev_checkpoint_dir(state_dir, id);
        if cur.join(pdf_fleet::MANIFEST_FILE).exists() {
            let _ = std::fs::remove_dir_all(&prev);
            std::fs::rename(&cur, &prev).map_err(|e| format!("rotate checkpoint: {e}"))?;
        }
        fleet
            .checkpoint_to(&cur)
            .map_err(|e| format!("write campaign checkpoint: {e}"))?;
        if let Some(fault) = self
            .cfg
            .faults
            .as_ref()
            .and_then(|p| p.decide(OpKind::CheckpointWrite))
        {
            let manifest = cur.join(pdf_fleet::MANIFEST_FILE);
            match fault.kind {
                FaultKind::TornWrite => {
                    if let Ok(text) = std::fs::read(&manifest) {
                        let keep = (fault.magnitude as usize) % text.len().max(1);
                        let _ = std::fs::write(&manifest, &text[..keep]);
                    }
                    return Err("injected: torn checkpoint write".into());
                }
                FaultKind::Enospc => {
                    let _ = std::fs::remove_file(&manifest);
                    return Err("injected: no space left on device".into());
                }
                FaultKind::Delay => {
                    std::thread::sleep(self.cfg.faults.as_ref().unwrap().delay_of(fault));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Quarantines the damaged checkpoint generation at `dir` (renames
    /// it aside for post-mortems) and ticks the counter.
    fn quarantine_checkpoint(&self, dir: &Path) {
        let q = crate::journal::append_suffix(dir, ".quarantine");
        let _ = std::fs::remove_dir_all(&q);
        if std::fs::rename(dir, &q).is_ok() {
            self.registry.serve_checkpoint_quarantined.inc();
        }
    }

    fn build_fleet(&self, id: u64, spec: &CampaignSpec) -> Result<Fleet, String> {
        let info = pdf_subjects::by_name(&spec.subject)
            .ok_or_else(|| format!("unknown subject {:?}", spec.subject))?;
        let cfg = fleet_config(spec);
        let Some(state_dir) = &self.cfg.state_dir else {
            return Fleet::new(info.subject, cfg).map_err(|e| format!("fleet config: {e}"));
        };
        // Newest generation first; a torn `ck/` falls back to `ck.prev/`
        // (one epoch older), and the damaged generation is quarantined.
        let gens: Vec<PathBuf> = [
            checkpoint_dir(state_dir, id),
            prev_checkpoint_dir(state_dir, id),
        ]
        .into_iter()
        .filter(|d| d.join(pdf_fleet::MANIFEST_FILE).exists() || d.exists())
        .collect();
        if gens.is_empty() {
            return Fleet::new(info.subject, cfg).map_err(|e| format!("fleet config: {e}"));
        }
        match Fleet::resume_with_fallback(info.subject, cfg.clone(), &gens) {
            Ok((fleet, picked)) => {
                for dir in &gens[..picked] {
                    self.quarantine_checkpoint(dir);
                }
                Ok(fleet)
            }
            Err(e) if e.class() == ErrorClass::Corrupt => {
                // Every generation is damaged: quarantine them all and
                // restart the campaign from scratch — deterministic, so
                // the final digest is unchanged (it just costs re-run
                // time).
                for dir in &gens {
                    self.quarantine_checkpoint(dir);
                }
                Fleet::new(info.subject, cfg).map_err(|e| format!("fleet config: {e}"))
            }
            Err(e) => Err(format!("checkpoint resume failed: {e}")),
        }
    }
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

impl Daemon {
    /// Opens a daemon: recovers every campaign persisted under the
    /// state directory (if any), then starts the worker pool.
    ///
    /// Recovery maps persisted phases to restart phases: terminal and
    /// `Paused` campaigns are kept as-is, `Queued` ones wait their
    /// turn, and `Running` ones — whose worker died with the previous
    /// process — are requeued through the [`Event::Requeue`] edge (the
    /// one extra transition a crash costs in the journal).
    ///
    /// # Errors
    ///
    /// Real I/O errors creating the state directory or reading
    /// persisted state. *Corruption* is not an error: a torn journal
    /// tail is quarantined (`serve.journal.quarantine`) and the legal
    /// prefix salvaged; a corrupt meta is quarantined
    /// (`meta.quarantine`) and its campaign dropped from recovery.
    pub fn open(cfg: DaemonConfig) -> std::io::Result<Daemon> {
        assert!(cfg.workers >= 1, "daemon needs at least one worker");
        let registry = Arc::new(MetricsRegistry::new());
        let mut st = DaemonState {
            campaigns: BTreeMap::new(),
            next_id: 1,
            busy: 0,
            journal: None,
        };
        if let Some(state_dir) = &cfg.state_dir {
            std::fs::create_dir_all(campaigns_root(state_dir))?;
            let recovered_journal = recover_journal(&journal_path(state_dir))?;
            if recovered_journal.quarantined_lines > 0 {
                registry
                    .serve_journal_recovered
                    .add(recovered_journal.quarantined_lines as u64);
            }
            let mut journal = Journal::open(&journal_path(state_dir))?;
            journal.set_faults(cfg.faults.clone());
            st.journal = Some(journal);
            let mut recovered: Vec<Campaign> = Vec::new();
            for entry in std::fs::read_dir(campaigns_root(state_dir))? {
                let meta = entry?.path().join("meta");
                if !meta.exists() {
                    continue;
                }
                match decode_meta(&std::fs::read_to_string(&meta)?) {
                    Ok(status) => recovered.push(Campaign::from_status(status)),
                    Err(_) => {
                        // Torn meta (killed mid-rename on a filesystem
                        // without atomic rename, or injected): quarantine
                        // it; the campaign is lost but the daemon is not.
                        let q = crate::journal::append_suffix(&meta, ".quarantine");
                        let _ = std::fs::rename(&meta, q);
                        registry.serve_checkpoint_quarantined.inc();
                    }
                }
            }
            recovered.sort_by_key(|c| c.id);
            for c in recovered {
                st.next_id = st.next_id.max(c.id + 1);
                st.campaigns.insert(c.id, c);
            }
        }
        let inner = Arc::new(Inner {
            registry,
            state: Mutex::new(st),
            work: Condvar::new(),
            idle: Condvar::new(),
            stopping: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            cfg,
        });
        {
            // Requeue campaigns the previous process died holding.
            let mut st = inner.state.lock().expect("daemon state poisoned");
            let running: Vec<u64> = st
                .campaigns
                .values()
                .filter(|c| c.phase == Phase::Running)
                .map(|c| c.id)
                .collect();
            for id in running {
                inner
                    .apply(&mut st, id, Event::Requeue, None)
                    .expect("running -> queued is legal");
            }
        }
        let handles = (0..inner.cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("pdf-serve-worker-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("spawn daemon worker")
            })
            .collect();
        Ok(Daemon {
            inner,
            handles: Mutex::new(handles),
        })
    }

    /// Submits a campaign; returns its id. The campaign starts
    /// `Queued` and is dispatched as soon as a pool slot frees up.
    ///
    /// A spec carrying an idempotency key the daemon has already
    /// admitted returns the *original* campaign id without creating a
    /// new campaign — a client that lost the first reply can resubmit
    /// safely. The key survives restarts (it rides in the meta file).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadSpec`] / [`ServeError::UnknownSubject`] on an
    /// unrunnable spec, [`ServeError::Stopping`] during shutdown,
    /// [`ServeError::Overloaded`] past the admission cap.
    pub fn submit(&self, spec: CampaignSpec) -> Result<u64, ServeError> {
        if self.inner.stopping.load(Ordering::SeqCst) {
            return Err(ServeError::Stopping);
        }
        spec.validate()
            .map_err(|e| ServeError::BadSpec(e.to_string()))?;
        if pdf_subjects::by_name(&spec.subject).is_none() {
            return Err(ServeError::UnknownSubject(spec.subject.clone()));
        }
        let mut st = self.inner.state.lock().expect("daemon state poisoned");
        if let Some(key) = &spec.idempotency_key {
            if let Some(existing) = st
                .campaigns
                .values()
                .find(|c| c.spec.idempotency_key.as_ref() == Some(key))
            {
                return Ok(existing.id);
            }
        }
        if let Some(cap) = self.inner.cfg.max_queued {
            let active = st
                .campaigns
                .values()
                .filter(|c| matches!(c.phase, Phase::Queued | Phase::Running))
                .count();
            if active >= cap {
                self.inner.registry.serve_shed.inc();
                // Deterministic advisory delay: scale with how far over
                // capacity the pool is, one slice-ish step per excess
                // campaign.
                let over = (active - cap) as u64;
                let retry_after_ms = (25 * (over + 1)).min(1_000);
                return Err(ServeError::Overloaded { retry_after_ms });
            }
        }
        let id = st.next_id;
        st.next_id += 1;
        let c = Campaign::fresh(id, spec);
        self.inner.persist_meta(&c);
        st.campaigns.insert(id, c);
        self.inner.registry.serve_submitted.inc();
        self.inner.work.notify_one();
        Ok(id)
    }

    /// The status of campaign `id`, if it exists.
    pub fn status(&self, id: u64) -> Option<CampaignStatus> {
        let st = self.inner.state.lock().expect("daemon state poisoned");
        st.campaigns.get(&id).map(Campaign::status)
    }

    /// Every campaign's status, in id order.
    pub fn list(&self) -> Vec<CampaignStatus> {
        let st = self.inner.state.lock().expect("daemon state poisoned");
        st.campaigns.values().map(Campaign::status).collect()
    }

    /// Requests a pause. A campaign on a worker pauses at its next
    /// slice boundary (the returned phase is still `Running` until
    /// then); otherwise the transition applies immediately.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoSuchCampaign`] / [`ServeError::Illegal`].
    pub fn pause(&self, id: u64) -> Result<Phase, ServeError> {
        let mut st = self.inner.state.lock().expect("daemon state poisoned");
        let c = st
            .campaigns
            .get_mut(&id)
            .ok_or(ServeError::NoSuchCampaign(id))?;
        if c.phase == Phase::Running && c.on_worker {
            // Validate the edge now so an illegal request still errors,
            // but let the worker take it at the boundary.
            transition(c.phase, Event::Pause)?;
            c.pause_requested = true;
            return Ok(Phase::Running);
        }
        self.inner.apply(&mut st, id, Event::Pause, None)
    }

    /// Resumes a paused campaign (or withdraws a pending pause
    /// request).
    ///
    /// # Errors
    ///
    /// [`ServeError::NoSuchCampaign`] / [`ServeError::Illegal`].
    pub fn resume(&self, id: u64) -> Result<Phase, ServeError> {
        let mut st = self.inner.state.lock().expect("daemon state poisoned");
        let c = st
            .campaigns
            .get_mut(&id)
            .ok_or(ServeError::NoSuchCampaign(id))?;
        if c.phase == Phase::Running && c.pause_requested {
            c.pause_requested = false;
            return Ok(Phase::Running);
        }
        let phase = self.inner.apply(&mut st, id, Event::Resume, None)?;
        self.inner.work.notify_one();
        Ok(phase)
    }

    /// Requests cancellation. A campaign on a worker cancels at its
    /// next slice boundary; otherwise the transition applies
    /// immediately (and any in-memory fleet is dropped).
    ///
    /// # Errors
    ///
    /// [`ServeError::NoSuchCampaign`] / [`ServeError::Illegal`].
    pub fn cancel(&self, id: u64) -> Result<Phase, ServeError> {
        let mut st = self.inner.state.lock().expect("daemon state poisoned");
        let c = st
            .campaigns
            .get_mut(&id)
            .ok_or(ServeError::NoSuchCampaign(id))?;
        if c.phase == Phase::Running && c.on_worker {
            transition(c.phase, Event::Cancel)?;
            c.cancel_requested = true;
            return Ok(Phase::Running);
        }
        let phase = self.inner.apply(&mut st, id, Event::Cancel, None)?;
        st.campaigns.get_mut(&id).expect("campaign vanished").fleet = None;
        Ok(phase)
    }

    /// Pool slots currently running a slice.
    pub fn busy_slots(&self) -> usize {
        self.inner.state.lock().expect("daemon state poisoned").busy
    }

    /// Campaigns in non-terminal, non-paused phases (queued or
    /// admitted).
    pub fn active_len(&self) -> usize {
        let st = self.inner.state.lock().expect("daemon state poisoned");
        st.campaigns
            .values()
            .filter(|c| matches!(c.phase, Phase::Queued | Phase::Running))
            .count()
    }

    /// The daemon's metrics registry (serve counters, plus everything
    /// the campaigns record while on workers).
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.inner.registry)
    }

    /// Blocks until no campaign is queued or admitted (all terminal or
    /// paused) and every pool slot is free, or until `timeout` passes.
    /// Returns `true` when idle was reached.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state.lock().expect("daemon state poisoned");
        loop {
            let active = st.busy > 0
                || st
                    .campaigns
                    .values()
                    .any(|c| matches!(c.phase, Phase::Queued | Phase::Running));
            if !active {
                return true;
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, res) = self
                .inner
                .idle
                .wait_timeout(st, left)
                .expect("daemon state poisoned");
            st = guard;
            if res.timed_out() {
                return false;
            }
        }
    }

    fn stop_workers(&self) {
        self.inner.stopping.store(true, Ordering::SeqCst);
        // Take the state lock before notifying: a worker that read
        // `stopping == false` still holds the lock at that point, so by
        // the time this acquisition succeeds it is either parked in
        // `wait` (the notify below wakes it) or past another check that
        // saw `true` — no wakeup can be missed.
        drop(self.inner.state.lock().expect("daemon state poisoned"));
        self.inner.work.notify_all();
        let handles: Vec<_> = self
            .handles
            .lock()
            .expect("daemon handles poisoned")
            .drain(..)
            .collect();
        for h in handles {
            h.join().expect("daemon worker panicked");
        }
    }

    /// Graceful shutdown: stop claiming new slices, let in-flight
    /// slices finish and checkpoint, join the pool. Disk is current at
    /// every boundary, so a later [`Daemon::open`] on the same state
    /// directory resumes everything. Idempotent.
    pub fn shutdown(&self) {
        self.stop_workers();
    }

    /// Hard stop: abandon in-flight slices *without* updating state or
    /// disk — the in-process equivalent of SIGKILL mid-epoch, for
    /// crash-recovery tests. Disk stays at the last slice boundary.
    pub fn hard_stop(&self) {
        self.inner.killed.store(true, Ordering::SeqCst);
        self.stop_workers();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::read_journal;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pdf-serve-daemon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_spec(subject: &str, seed: u64) -> CampaignSpec {
        CampaignSpec {
            subject: subject.into(),
            seed,
            execs: 400,
            shards: 2,
            sync_every: 60,
            exec_mode: pdf_core::ExecMode::Full,
            deadline_ms: None,
            idempotency_key: None,
        }
    }

    #[test]
    fn campaign_runs_to_done_with_serial_digest() {
        let daemon = Daemon::open(DaemonConfig::in_memory(2)).unwrap();
        let spec = small_spec("arith", 5);
        let id = daemon.submit(spec.clone()).unwrap();
        assert!(daemon.wait_idle(Duration::from_secs(60)));
        let status = daemon.status(id).unwrap();
        assert_eq!(status.phase, Phase::Done);
        let info = pdf_subjects::by_name("arith").unwrap();
        let baseline = Fleet::new(info.subject, fleet_config(&spec)).unwrap().run();
        assert_eq!(status.digest, Some(baseline.digest()));
        assert_eq!(status.coverage, Some(baseline.coverage_digest()));
        assert_eq!(status.spent, baseline.total_execs);
        assert_eq!(daemon.busy_slots(), 0);
        daemon.shutdown();
    }

    #[test]
    fn pause_resume_cancel_lifecycle() {
        let daemon = Daemon::open(DaemonConfig::in_memory(1)).unwrap();
        // Paused before ever dispatching: pause beats the single worker
        // only if we submit while the worker is busy; instead exercise
        // the queued->paused edge directly on a second campaign.
        let a = daemon.submit(small_spec("dyck", 1)).unwrap();
        let b = daemon.submit(small_spec("dyck", 2)).unwrap();
        // b is likely still queued behind a on the 1-worker pool.
        match daemon.pause(b) {
            Ok(_) => {}
            Err(e) => panic!("pause refused: {e}"),
        }
        assert!(matches!(
            daemon.status(b).unwrap().phase,
            Phase::Paused | Phase::Running
        ));
        // Resume (or withdraw the pending pause) and cancel it.
        let _ = daemon.resume(b);
        let _ = daemon.cancel(b);
        assert!(daemon.wait_idle(Duration::from_secs(60)));
        assert_eq!(daemon.status(a).unwrap().phase, Phase::Done);
        assert!(daemon.status(b).unwrap().phase.is_terminal());
        assert!(daemon.status(999).is_none());
        assert!(matches!(daemon.cancel(a), Err(ServeError::Illegal(_))));
        daemon.shutdown();
    }

    #[test]
    fn bad_submissions_rejected() {
        let daemon = Daemon::open(DaemonConfig::in_memory(1)).unwrap();
        assert!(matches!(
            daemon.submit(small_spec("no-such-subject", 1)),
            Err(ServeError::UnknownSubject(_))
        ));
        let mut bad = small_spec("arith", 1);
        bad.execs = 0;
        assert!(matches!(daemon.submit(bad), Err(ServeError::BadSpec(_))));
        daemon.shutdown();
        assert!(matches!(
            daemon.submit(small_spec("arith", 1)),
            Err(ServeError::Stopping)
        ));
    }

    #[test]
    fn graceful_restart_resumes_digest_identically() {
        let dir = tmpdir("restart");
        let spec = small_spec("arith", 9);
        let uninterrupted = {
            let info = pdf_subjects::by_name("arith").unwrap();
            Fleet::new(info.subject, fleet_config(&spec)).unwrap().run()
        };
        let id = {
            let daemon = Daemon::open(DaemonConfig::persistent(1, &dir)).unwrap();
            let id = daemon.submit(spec.clone()).unwrap();
            // Let it make some progress, then stop gracefully mid-way.
            let deadline = Instant::now() + Duration::from_secs(30);
            while daemon.status(id).unwrap().epoch == 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            daemon.shutdown();
            id
        };
        let daemon = Daemon::open(DaemonConfig::persistent(1, &dir)).unwrap();
        assert!(daemon.wait_idle(Duration::from_secs(60)));
        let status = daemon.status(id).unwrap();
        assert_eq!(status.phase, Phase::Done);
        assert_eq!(status.digest, Some(uninterrupted.digest()));
        daemon.shutdown();
        // The journal holds the full, legal history including the
        // requeue edge and the final digest.
        let records = read_journal(&journal_path(&dir)).unwrap();
        assert!(records
            .iter()
            .any(|r| r.event == Event::Finish && r.digest == Some(uninterrupted.digest())));
        let mut phase = Phase::Queued;
        for r in records.iter().filter(|r| r.id == id) {
            assert_eq!(r.from, phase, "journal gap at seq {}", r.seq);
            phase = transition(r.from, r.event).expect("journaled transition is legal");
            assert_eq!(phase, r.to);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_idempotency_key_returns_original_id() {
        let daemon = Daemon::open(DaemonConfig::in_memory(1)).unwrap();
        let mut spec = small_spec("arith", 3);
        spec.idempotency_key = Some("retry-abc".into());
        let first = daemon.submit(spec.clone()).unwrap();
        let again = daemon.submit(spec.clone()).unwrap();
        assert_eq!(first, again);
        // A different key is a different campaign.
        spec.idempotency_key = Some("retry-def".into());
        assert_ne!(daemon.submit(spec).unwrap(), first);
        assert!(daemon.wait_idle(Duration::from_secs(60)));
        daemon.shutdown();
    }

    #[test]
    fn idempotency_key_survives_restart() {
        let dir = tmpdir("idem");
        let mut spec = small_spec("arith", 4);
        spec.idempotency_key = Some("boot-1".into());
        let id = {
            let daemon = Daemon::open(DaemonConfig::persistent(1, &dir)).unwrap();
            let id = daemon.submit(spec.clone()).unwrap();
            assert!(daemon.wait_idle(Duration::from_secs(60)));
            daemon.shutdown();
            id
        };
        let daemon = Daemon::open(DaemonConfig::persistent(1, &dir)).unwrap();
        assert_eq!(daemon.submit(spec).unwrap(), id);
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submissions_past_the_cap_are_shed_with_retry_hint() {
        let daemon = Daemon::open(DaemonConfig::in_memory(1).with_max_queued(2)).unwrap();
        let mut admitted = 0;
        let mut shed = 0;
        for seed in 0..6 {
            match daemon.submit(small_spec("dyck", seed)) {
                Ok(_) => admitted += 1,
                Err(ServeError::Overloaded { retry_after_ms }) => {
                    assert!((1..=1_000).contains(&retry_after_ms));
                    shed += 1;
                }
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        assert!(admitted >= 2, "cap must admit up to its limit");
        assert!(shed > 0, "cap must shed past its limit");
        assert_eq!(daemon.registry().serve_shed.get(), shed);
        assert!(daemon.wait_idle(Duration::from_secs(60)));
        // Idle again: capacity is back.
        assert!(daemon.submit(small_spec("dyck", 99)).is_ok());
        assert!(daemon.wait_idle(Duration::from_secs(60)));
        daemon.shutdown();
    }

    #[test]
    fn restart_survives_torn_journal_and_torn_checkpoint() {
        let dir = tmpdir("torn");
        let spec = small_spec("arith", 9);
        let uninterrupted = {
            let info = pdf_subjects::by_name("arith").unwrap();
            Fleet::new(info.subject, fleet_config(&spec)).unwrap().run()
        };
        let id = {
            let daemon = Daemon::open(DaemonConfig::persistent(1, &dir)).unwrap();
            let id = daemon.submit(spec.clone()).unwrap();
            let deadline = Instant::now() + Duration::from_secs(30);
            while daemon.status(id).unwrap().epoch < 2 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            daemon.hard_stop();
            id
        };
        // Torn journal tail, as a hard kill mid-append would leave.
        let jpath = journal_path(&dir);
        let mut text = std::fs::read_to_string(&jpath).unwrap();
        text.push_str("txn seq=999 id=1 ev=dis");
        std::fs::write(&jpath, &text).unwrap();
        // Torn newest checkpoint generation.
        let manifest = checkpoint_dir(&dir, id).join(pdf_fleet::MANIFEST_FILE);
        if manifest.exists() {
            let m = std::fs::read_to_string(&manifest).unwrap();
            std::fs::write(&manifest, &m[..m.len() / 2]).unwrap();
        }
        let daemon = Daemon::open(DaemonConfig::persistent(1, &dir)).unwrap();
        assert!(
            daemon.registry().serve_journal_recovered.get() > 0,
            "torn journal tail must be quarantined"
        );
        assert!(daemon.wait_idle(Duration::from_secs(120)));
        let status = daemon.status(id).unwrap();
        assert_eq!(status.phase, Phase::Done);
        assert_eq!(
            status.digest,
            Some(uninterrupted.digest()),
            "recovery from torn state must stay digest-identical"
        );
        daemon.shutdown();
        assert!(crate::journal::append_suffix(&jpath, ".quarantine").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_round_trips() {
        let mut c = Campaign::fresh(3, small_spec("csv", 4));
        c.phase = Phase::Failed;
        c.error = Some("epoch slice panicked: boom with spaces".into());
        c.epoch = 2;
        c.spent = 120;
        let back = decode_meta(&encode_meta(&c.status())).unwrap();
        assert_eq!(back, c.status());
        assert!(decode_meta("wrong header\n").is_err());
    }

    #[test]
    fn meta_with_retired_fast_mode_is_quarantined() {
        let fast_meta = encode_meta(&Campaign::fresh(1, small_spec("arith", 4)).status())
            .replace(" mode=full ", " mode=fast ");
        assert!(fast_meta.contains(" mode=fast "));
        assert!(decode_meta(&fast_meta).is_err());

        let dir = tmpdir("fast-meta");
        let meta = campaign_dir(&dir, 1).join("meta");
        std::fs::create_dir_all(meta.parent().unwrap()).unwrap();
        std::fs::write(&meta, &fast_meta).unwrap();
        let daemon = Daemon::open(DaemonConfig::persistent(1, &dir)).unwrap();
        assert_eq!(daemon.status(1), None);
        assert_eq!(daemon.registry().serve_checkpoint_quarantined.get(), 1);
        daemon.shutdown();
        assert!(!meta.exists());
        assert!(crate::journal::append_suffix(&meta, ".quarantine").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
