//! The fuzzing driver: Algorithm 1 of the paper.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::Path;
use std::time::Instant;

use pdf_runtime::{
    digest_bytes, BranchSet, Candidate, CmpValue, Digest, ExecArena, FailureExecution,
    FailureSummary, FastExecution, PhaseClock, Rng, RunStats, Subject,
};

use crate::budget::{CampaignBudget, StopReason, DEADLINE_CHECK_INTERVAL};
use crate::checkpoint::{
    branch_pairs_of, branch_set_of, Checkpoint, CheckpointError, QueueItemSnapshot, QueueSnapshot,
};
use crate::config::{DriverConfig, ExecMode, ExtensionMode, HeuristicConfig, SearchMode};
use crate::queue::{CandidateQueue, Family, QueueEntry, QueueState};

/// Cap on the candidate queue; when exceeded, the worst half is dropped.
const QUEUE_HIGH_WATER: usize = 8_192;
const QUEUE_LOW_WATER: usize = 4_096;

/// One step of the search, recorded when [`DriverConfig::trace`] is on.
/// Drives the Figure 1 walkthrough example.
#[derive(Debug, Clone)]
pub struct TraceStep {
    /// The input that was executed.
    pub input: Vec<u8>,
    /// Whether the subject accepted it.
    pub valid: bool,
    /// Whether the run tried to read past the end of the input.
    pub eof: bool,
    /// Substitution candidates derived from the run.
    pub candidates: usize,
    /// Human-readable description of what the driver did next.
    pub action: String,
}

/// The outcome of a fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Valid inputs, in discovery order. By construction every one is
    /// accepted by the subject and covered new branches when found.
    pub valid_inputs: Vec<Vec<u8>>,
    /// For each valid input, the execution count at which it was found
    /// (parallel to `valid_inputs`; evidences the "fewer tests by
    /// orders of magnitude" claim).
    pub valid_found_at: Vec<u64>,
    /// Subject executions spent.
    pub execs: u64,
    /// Branches covered by valid inputs (`vBr`).
    pub valid_branches: BranchSet,
    /// Branches covered by *any* run, valid or not (used for the
    /// relative-coverage universe).
    pub all_branches: BranchSet,
    /// Executions spent until the first valid input, if any was found.
    pub first_valid_execs: Option<u64>,
    /// Step-by-step trace (empty unless tracing was enabled).
    pub trace: Vec<TraceStep>,
    /// Observability counters and timings for the campaign. Wall-clock
    /// fields vary between runs; everything else is deterministic.
    pub stats: RunStats,
    /// Every random byte the campaign drew, in draw order — the
    /// campaign's complete decision stream. Replaying these bytes
    /// through [`Fuzzer::replaying`] re-executes the campaign exactly,
    /// without an RNG.
    pub decisions: Vec<u8>,
    /// Expected-token observations mined while fuzzing
    /// ([`DriverConfig::mine_tokens`]): the full expected strings of
    /// failed string comparisons at rejection points, with occurrence
    /// counts, in canonical (byte-sorted) order. Empty unless mining was
    /// enabled. Feed these to `pdf_tokens::TokenMiner` together with
    /// `valid_inputs` to build a dictionary.
    pub mined_tokens: Vec<(Vec<u8>, u64)>,
}

impl FuzzReport {
    /// FNV-1a digest over every deterministic field of the report:
    /// valid inputs (order and bytes), discovery indices, execution
    /// count, branch sets, the decision stream and the deterministic
    /// stats counters. Wall-clock fields and the trace are excluded.
    /// Byte-identical campaigns (same digest) are the contract replay
    /// verification checks.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_u64(self.valid_inputs.len() as u64);
        for input in &self.valid_inputs {
            d.write_bytes(input);
        }
        d.write_u64(self.valid_found_at.len() as u64);
        for &at in &self.valid_found_at {
            d.write_u64(at);
        }
        d.write_u64(self.execs);
        match self.first_valid_execs {
            Some(n) => {
                d.write_u8(1);
                d.write_u64(n);
            }
            None => d.write_u8(0),
        }
        for set in [&self.valid_branches, &self.all_branches] {
            d.write_u64(set.len() as u64);
            for b in set.iter() {
                d.write_u64(b.site.0);
                d.write_u8(b.outcome as u8);
            }
        }
        d.write_bytes(&self.decisions);
        d.write_u64(self.stats.executions);
        d.write_u64(self.stats.events);
        d.write_u64(self.stats.valid_inputs);
        // Hangs and crashes are deterministic per campaign (fuel is part
        // of the subject, panics are caught in-process), so they belong
        // in the digest. `retries` stays out: it is a supervisor-level
        // counter a replayed or resumed campaign legitimately lacks.
        d.write_u64(self.stats.hangs);
        d.write_u64(self.stats.crashes);
        d.write_u64(self.stats.queue_depth as u64);
        d.write_u64(self.stats.decisions);
        d.write_u64(self.stats.decision_digest);
        // Folded in only when mining ran, so digests of campaigns without
        // token mining stay byte-identical to pre-token releases.
        if !self.mined_tokens.is_empty() {
            d.write_str("mined-tokens");
            d.write_u64(self.mined_tokens.len() as u64);
            for (tok, count) in &self.mined_tokens {
                d.write_bytes(tok);
                d.write_u64(*count);
            }
        }
        d.finish()
    }
}

/// Where the driver's random bytes come from: a live RNG (recording) or
/// a previously recorded decision stream (replay).
#[derive(Debug)]
enum ByteSource {
    /// Draw fresh bytes from the seeded generator.
    Fresh(Rng),
    /// Feed back a recorded stream, byte for byte.
    Replay { stream: Vec<u8>, pos: usize },
}

/// A coordinator's window into a paused campaign, obtained from
/// [`Fuzzer::sync_point`] between [`Fuzzer::run_until`] calls.
///
/// This is the hook the `pdf-fleet` crate builds sharded campaigns on:
/// at every synchronization epoch the coordinator reads each shard's
/// discoveries through its sync point and [injects](Self::inject) the
/// valid inputs other shards found into this shard's candidate queue.
///
/// The window is deliberately narrow. Reads expose only the
/// deterministic search state (valid inputs, coverage, execution
/// count, queue depth); the two write operations enqueue an input
/// through the ordinary [`CandidateQueue`] scoring path
/// ([`inject`](Self::inject)) and union peer coverage into the
/// candidate-scoring set ([`adopt_coverage`](Self::adopt_coverage)).
/// None of them touches the RNG, so sync points preserve the
/// campaign's determinism contract: with a fixed pause/injection
/// schedule, re-running reproduces the decision stream and report
/// digest exactly.
#[derive(Debug)]
pub struct SyncPoint<'a> {
    fuzzer: &'a mut Fuzzer,
}

impl SyncPoint<'_> {
    /// Valid inputs discovered so far, in discovery order.
    pub fn valid_inputs(&self) -> &[Vec<u8>] {
        &self.fuzzer.state.report.valid_inputs
    }

    /// For each valid input, the execution count at which it was found
    /// (parallel to [`valid_inputs`](Self::valid_inputs)).
    pub fn valid_found_at(&self) -> &[u64] {
        &self.fuzzer.state.report.valid_found_at
    }

    /// Branches covered by valid inputs so far (`vBr`).
    pub fn valid_branches(&self) -> &BranchSet {
        &self.fuzzer.state.report.valid_branches
    }

    /// Branches covered by any run so far, valid or not.
    pub fn all_branches(&self) -> &BranchSet {
        &self.fuzzer.state.report.all_branches
    }

    /// Subject executions spent so far.
    pub fn execs(&self) -> u64 {
        self.fuzzer.state.report.execs
    }

    /// Current candidate queue depth.
    pub fn queue_len(&self) -> usize {
        self.fuzzer.state.queue.len()
    }

    /// Enqueues an externally discovered input as a candidate.
    ///
    /// The input enters through the ordinary queue-scoring path with no
    /// parent lineage: empty parent branches (its coverage is unknown
    /// to *this* shard until it runs), a replacement length equal to
    /// the input length (a whole foreign input is the strongest form of
    /// "large known-good splice", which ranks it above most locally
    /// derived candidates), and a path hash of the input bytes so
    /// repeated injections of the same input decay via the usual
    /// path-seen penalty. No RNG byte is consumed, and checkpointing
    /// serializes injected entries like any other queue item.
    pub fn inject(&mut self, input: Vec<u8>) {
        let st = &mut self.fuzzer.state;
        let replacement_len = input.len().max(1);
        let path_hash = digest_bytes(&input);
        st.queue.push(
            QueueEntry {
                input,
                parent_branches: BranchSet::new(),
                replacement_len,
                avg_stack: 0.0,
                num_parents: 0,
                path_hash,
            },
            &st.steer_branches,
        );
    }

    /// Merges externally discovered valid-branch coverage into this
    /// shard's *steering* set.
    ///
    /// Adopted branches count as "already covered by a valid input"
    /// for candidate scoring only: the heuristic stops rewarding
    /// candidates that merely rediscover them, pushing this shard
    /// toward regions no shard has validated yet. `run_check` keeps
    /// gating on the shard's own `vBr`, so locally new valid inputs
    /// are still recorded (and can still carry tokens the branch
    /// picture says nothing about). Deterministic (a set union) and
    /// RNG-free; the steering set is checkpointed alongside `vBr`.
    pub fn adopt_coverage(&mut self, coverage: &BranchSet) {
        self.fuzzer.state.steer_branches.union_with(coverage);
    }
}

/// Lifts a fast-tier result into the [`FailureExecution`] shape the
/// rest of the driver consumes. Branch sets stay empty (the fast sink
/// records none) and the path hash falls back to the last-comparison
/// fingerprint, so path-seen decay still distinguishes executions that
/// died at different comparisons. Substitution candidates are expanded
/// from the one failed comparison the fast sink kept — the *Fast
/// Failure Feedback* reduction of
/// [`ExecLog::substitution_candidates`](pdf_runtime::ExecLog::substitution_candidates),
/// which sees every comparison at the rejection index, not just the
/// last.
fn synthesize_failure(fast: &FastExecution) -> FailureExecution {
    let f = &fast.fast;
    let mut candidates = Vec::new();
    if let (Some(idx), Some(expected)) = (f.rejection_index, &f.last_failed) {
        let replacement_len = expected.replacement_len();
        expected.for_each_replacement(|bytes| {
            let duplicate = candidates
                .iter()
                .any(|o: &Candidate| o.replacement_len == replacement_len && o.bytes == bytes);
            if !duplicate {
                candidates.push(Candidate {
                    at_index: idx,
                    replacement_len,
                    bytes: bytes.to_vec(),
                });
            }
        });
    }
    let expected_tokens = match &f.last_failed {
        Some(CmpValue::Str { full, .. }) if full.len() >= 2 => vec![full.clone()],
        _ => Vec::new(),
    };
    let accepted_first = match (f.rejection_index, &f.last_failed) {
        (Some(_), Some(expected)) => expected.accepted_first().into_iter().collect(),
        _ => Vec::new(),
    };
    FailureExecution {
        valid: fast.valid,
        error: fast.error(),
        verdict: fast.verdict.clone(),
        failure: FailureSummary {
            branches: BranchSet::new(),
            branches_up_to_rejection: BranchSet::new(),
            path_hash: f.last_cmp_fingerprint,
            rejection_index: f.rejection_index,
            candidates,
            expected_tokens,
            accepted_first,
            avg_stack_size: f.avg_stack_size,
            eof_access: f.eof_access,
            events: f.events,
            last_cmp_fingerprint: f.last_cmp_fingerprint,
        },
    }
}

/// The escalation filter of [`ExecMode::Tiered`]: a rejected fast-tier
/// run pays for full instrumentation only when it pushed the rejection
/// watermark forward or ended on a comparison the campaign has not
/// escalated before (*Fuzzing with Fast Failure Feedback*: rejection
/// index and last comparison carry the actionable signal). Both fields
/// are deterministic functions of the executions seen so far, so the
/// filter checkpoints and resumes byte-identically (`BTreeSet` keeps
/// the serialized fingerprints canonically ordered).
#[derive(Debug, Default)]
struct TierState {
    /// Highest rejection index any escalated run reached.
    max_rejection: Option<usize>,
    /// Last-comparison fingerprints already escalated.
    seen_fingerprints: BTreeSet<u64>,
}

/// The live search state of a campaign, separated from the driver's
/// immutable configuration so [`Fuzzer::run_until`] can pause between
/// iterations and [`Fuzzer::checkpoint`] can serialize everything the
/// next iteration depends on.
#[derive(Debug)]
struct CampaignState {
    report: FuzzReport,
    queue: CandidateQueue,
    known_invalid: HashSet<Vec<u8>>,
    /// The branch set candidates are scored against: the shard's own
    /// `vBr` plus any coverage adopted from fleet peers
    /// ([`SyncPoint::adopt_coverage`]). Equal to `report.valid_branches`
    /// in a standalone campaign; only ever a superset of it.
    steer_branches: BranchSet,
    current: Vec<u8>,
    parents: usize,
    /// Escalation-filter state ([`ExecMode::Tiered`] only; stays at its
    /// default in the other modes).
    tier: TierState,
    /// Expected-token observation counts ([`DriverConfig::mine_tokens`]
    /// only; stays empty otherwise). `BTreeMap` so the report and
    /// checkpoint emit tokens in canonical order.
    mined: BTreeMap<Vec<u8>, u64>,
    /// Whether the initial input (Algorithm 1, line 4) was drawn yet.
    /// Priming lazily — on the first `run_until` call rather than at
    /// construction — keeps construction free of RNG draws, so a
    /// checkpoint taken before any run is trivially resumable.
    primed: bool,
}

impl CampaignState {
    fn new(heuristic: HeuristicConfig) -> Self {
        CampaignState {
            report: FuzzReport {
                valid_inputs: Vec::new(),
                valid_found_at: Vec::new(),
                execs: 0,
                valid_branches: BranchSet::new(),
                all_branches: BranchSet::new(),
                first_valid_execs: None,
                trace: Vec::new(),
                stats: RunStats::default(),
                decisions: Vec::new(),
                mined_tokens: Vec::new(),
            },
            queue: CandidateQueue::new(heuristic),
            known_invalid: HashSet::new(),
            steer_branches: BranchSet::new(),
            current: Vec::new(),
            parents: 0,
            tier: TierState::default(),
            mined: BTreeMap::new(),
            primed: false,
        }
    }
}

/// The pFuzzer driver.
///
/// See the [crate docs](crate) for an end-to-end example. Campaigns can
/// run to completion in one call ([`run`](Self::run)) or incrementally
/// under a [`CampaignBudget`] ([`run_until`](Self::run_until)), pausing
/// for inspection and [checkpointing](Self::checkpoint_to) in between.
///
/// Every random byte the driver draws flows through one chokepoint and
/// is journaled, so a campaign re-driven from its recorded decision
/// stream ([`replaying`](Self::replaying)) — with no RNG at all —
/// reproduces the original report byte for byte:
///
/// ```
/// use pdf_core::{DriverConfig, Fuzzer};
///
/// let cfg = DriverConfig { seed: 3, max_execs: 800, ..DriverConfig::default() };
/// let subject = pdf_subjects::csv::subject();
/// let recorded = Fuzzer::new(subject, cfg.clone()).run();
/// let replayed = Fuzzer::replaying(subject, cfg, recorded.decisions.clone()).run();
/// assert_eq!(recorded.digest(), replayed.digest());
/// ```
#[derive(Debug)]
pub struct Fuzzer {
    subject: Subject,
    cfg: DriverConfig,
    source: ByteSource,
    decisions: Vec<u8>,
    state: CampaignState,
    /// Reusable execution scratch (input buffer, sink buffers) shared by
    /// every run the driver makes; cleared, never reallocated, between
    /// executions.
    arena: ExecArena,
    /// Started on the first `run_until` call and kept across pauses;
    /// `Option` so `run_until` can take it out while driving and
    /// `into_report` can consume it with `finish()`.
    clock: Option<PhaseClock>,
}

impl Fuzzer {
    /// Creates a driver for `subject` with the given configuration.
    pub fn new(subject: Subject, cfg: DriverConfig) -> Self {
        let source = ByteSource::Fresh(Rng::new(cfg.seed));
        let state = CampaignState::new(cfg.heuristic);
        Fuzzer {
            subject,
            cfg,
            source,
            decisions: Vec::new(),
            state,
            arena: ExecArena::new(),
            clock: None,
        }
    }

    /// Creates a driver that replays a recorded decision stream instead
    /// of drawing from the RNG. With the same subject and configuration
    /// as the recording run, [`run`](Self::run) produces a report with
    /// an identical [`digest`](FuzzReport::digest).
    pub fn replaying(subject: Subject, cfg: DriverConfig, decisions: Vec<u8>) -> Self {
        let state = CampaignState::new(cfg.heuristic);
        Fuzzer {
            subject,
            cfg,
            source: ByteSource::Replay {
                stream: decisions,
                pos: 0,
            },
            decisions: Vec::new(),
            state,
            arena: ExecArena::new(),
            clock: None,
        }
    }

    /// The next decision byte: drawn from the RNG (and recorded) in
    /// fresh mode, read back from the recorded stream in replay mode.
    ///
    /// # Panics
    ///
    /// Panics in replay mode when the recorded stream runs out — the
    /// campaign asked for more randomness than the recording drew, which
    /// means the subject or configuration drifted since the recording.
    fn next_byte(&mut self) -> u8 {
        let b = match &mut self.source {
            ByteSource::Fresh(rng) => rng.byte_ascii(),
            ByteSource::Replay { stream, pos } => {
                assert!(
                    *pos < stream.len(),
                    "replay decision stream exhausted after {} bytes: \
                     subject or configuration drifted since the recording",
                    stream.len()
                );
                let b = stream[*pos];
                *pos += 1;
                b
            }
        };
        self.decisions.push(b);
        b
    }

    /// Total subject executions the campaign has spent so far, across
    /// all [`run_until`](Self::run_until) calls. Useful for expressing
    /// relative pause points ("another 500 execs from here") with
    /// [`CampaignBudget::execs`].
    pub fn execs(&self) -> u64 {
        self.state.report.execs
    }

    /// Valid inputs the campaign has discovered so far.
    pub fn valid_count(&self) -> usize {
        self.state.report.valid_inputs.len()
    }

    /// Whether the campaign is complete: the configured `max_execs`
    /// budget is spent or `max_valid_inputs` was reached. A complete
    /// campaign's [`run_until`](Self::run_until) returns
    /// [`StopReason::Finished`] immediately; an external scheduler uses
    /// this to finalize a resumed campaign without dispatching it.
    pub fn is_complete(&self) -> bool {
        self.state.report.execs >= self.cfg.max_execs
            || self
                .cfg
                .max_valid_inputs
                .is_some_and(|max| self.state.report.valid_inputs.len() >= max)
    }

    /// Opens a [`SyncPoint`] on the paused campaign: a coordinator's
    /// window for reading search state and injecting externally
    /// discovered inputs between [`run_until`](Self::run_until) calls.
    ///
    /// Everything a sync point does is RNG-free — reading state draws
    /// nothing, and [`SyncPoint::inject`] goes straight into the
    /// candidate queue — so a fixed schedule of pauses and injections
    /// keeps the campaign deterministic: the decision stream stays a
    /// pure function of the seed and the injected inputs.
    ///
    /// ```
    /// use pdf_core::{CampaignBudget, DriverConfig, Fuzzer};
    ///
    /// let cfg = DriverConfig { seed: 1, max_execs: 400, ..DriverConfig::default() };
    /// let mut fuzzer = Fuzzer::new(pdf_subjects::dyck::subject(), cfg);
    /// fuzzer.run_until(&CampaignBudget::execs(100));
    /// let mut sp = fuzzer.sync_point();
    /// let before = sp.queue_len();
    /// sp.inject(b"()".to_vec());
    /// assert_eq!(sp.queue_len(), before + 1);
    /// ```
    pub fn sync_point(&mut self) -> SyncPoint<'_> {
        SyncPoint { fuzzer: self }
    }

    /// Runs the campaign to completion and reports the results.
    pub fn run(mut self) -> FuzzReport {
        self.run_until(&CampaignBudget::unbounded());
        self.into_report()
    }

    /// Drives the campaign until it finishes or the budget's pause point
    /// hits, whichever comes first. Pausing is invisible to the search:
    /// the pause checks share the iteration boundary with the
    /// termination checks, so any sequence of `run_until` calls
    /// traverses byte-identical iterations to a single uninterrupted
    /// [`run`](Self::run) and [`into_report`](Self::into_report) yields
    /// a report with the same [`digest`](FuzzReport::digest).
    pub fn run_until(&mut self, budget: &CampaignBudget) -> StopReason {
        let mut clock = self.clock.take().unwrap_or_default();
        let mut st = std::mem::replace(&mut self.state, CampaignState::new(self.cfg.heuristic));
        let stop = self.drive(&mut st, &mut clock, budget);
        self.state = st;
        self.clock = Some(clock);
        stop
    }

    fn drive(
        &mut self,
        st: &mut CampaignState,
        clock: &mut PhaseClock,
        budget: &CampaignBudget,
    ) -> StopReason {
        if !st.primed {
            // Line 4: input ← random character. (The empty string is the
            // conceptual step before it: it is rejected with an immediate
            // EOF access, which is what appending the first character
            // fixes.)
            st.current = vec![self.next_byte()];
            st.parents = 0;
            st.primed = true;
        }
        let deadline = budget.deadline.map(|d| Instant::now() + d);
        let mut iters: u64 = 0;
        loop {
            if st.report.execs >= self.cfg.max_execs {
                return StopReason::Finished;
            }
            if let Some(max) = self.cfg.max_valid_inputs {
                if st.report.valid_inputs.len() >= max {
                    return StopReason::Finished;
                }
            }
            if let Some(pause) = budget.max_execs {
                if st.report.execs >= pause {
                    return StopReason::PausedExecs;
                }
            }
            if let Some(dl) = deadline {
                if iters.is_multiple_of(DEADLINE_CHECK_INTERVAL) && Instant::now() >= dl {
                    return StopReason::PausedDeadline;
                }
            }
            iters += 1;
            // Line 7: first run — the input as-is (usually a substitution).
            // The verdict cache only pays off when the extension run
            // follows; in replace-only mode skipping the first run would
            // consume no budget at all and never terminate.
            let use_cache = self.cfg.extension_mode != ExtensionMode::ReplaceOnly;
            let accepted = if use_cache && st.known_invalid.contains(&st.current) {
                false
            } else {
                let exec = clock.time("execute", || {
                    self.execute(&mut st.report, &mut st.tier, &st.current)
                });
                self.mine_tokens_from(&mut st.mined, &exec);
                if !exec.valid {
                    st.known_invalid.insert(st.current.clone());
                }
                let accepted = self.run_check(
                    &mut st.report,
                    &mut st.queue,
                    &mut st.steer_branches,
                    &st.current,
                    &exec,
                    st.parents,
                );
                self.trace(
                    &mut st.report,
                    &st.current,
                    &exec,
                    if accepted { "accepted" } else { "first run" },
                );
                accepted
            };
            if !accepted && self.cfg.extension_mode != ExtensionMode::ReplaceOnly {
                // Line 9: second run — with a random extension, so that a
                // correct substitution can grow instead of being judged
                // incomplete.
                if st.report.execs >= self.cfg.max_execs {
                    return StopReason::Finished;
                }
                let mut extended = st.current.clone();
                extended.push(self.next_byte());
                pdf_obs::record(|m| m.appends.inc());
                let exec2 = clock.time("execute", || {
                    self.execute(&mut st.report, &mut st.tier, &extended)
                });
                self.mine_tokens_from(&mut st.mined, &exec2);
                let accepted2 = self.run_check(
                    &mut st.report,
                    &mut st.queue,
                    &mut st.steer_branches,
                    &extended,
                    &exec2,
                    st.parents,
                );
                if !accepted2 {
                    // Line 11: derive substitution candidates from the
                    // extended run.
                    self.add_inputs(
                        &mut st.queue,
                        &extended,
                        &exec2.failure,
                        st.parents,
                        &st.steer_branches,
                    );
                    if exec2.failure.candidates.is_empty()
                        && st.current.len() <= self.cfg.max_input_len
                    {
                        // The random extension hit a spot where no
                        // comparison constrains it (Figure 1, step 3:
                        // "we append another random character") — give
                        // the prefix another draw later.
                        pdf_obs::record(|m| m.eof_extensions.inc());
                        st.queue.push(
                            QueueEntry {
                                input: st.current.clone(),
                                parent_branches: exec2.failure.branches_up_to_rejection.clone(),
                                replacement_len: 1,
                                avg_stack: exec2.failure.avg_stack_size,
                                num_parents: st.parents + 1,
                                path_hash: exec2.failure.path_hash,
                            },
                            &st.steer_branches,
                        );
                    }
                }
                self.trace(&mut st.report, &extended, &exec2, "extension run");
            }
            // Line 14: next candidate, or a fresh random restart.
            let st_queue = &mut st.queue;
            let st_steer = &st.steer_branches;
            let search = self.cfg.search;
            let next = clock.time("schedule", || {
                let _span = pdf_obs::span("driver.pick");
                if st_queue.len() > QUEUE_HIGH_WATER {
                    st_queue.shrink(QUEUE_LOW_WATER, st_steer);
                }
                match search {
                    SearchMode::Heuristic => st_queue.pop(st_steer),
                    SearchMode::DepthFirst => st_queue.pop_newest(),
                    SearchMode::BreadthFirst => st_queue.pop_oldest(),
                }
            });
            pdf_obs::record(|m| {
                let depth = st.queue.len() as u64;
                m.queue_depth.observe(depth);
                m.queue_depth_now.set(depth);
            });
            match next {
                Some(entry) => {
                    st.current = entry.input;
                    st.parents = entry.num_parents;
                }
                None => {
                    st.current = vec![self.next_byte()];
                    st.parents = 0;
                    pdf_obs::record(|m| m.restarts.inc());
                }
            }
        }
    }

    /// Finalizes the campaign into its report: derived stats counters,
    /// the decision stream and the wall-clock phases. Consumes the
    /// driver; call after [`run_until`](Self::run_until) returns
    /// [`StopReason::Finished`] (calling earlier simply reports the
    /// campaign as paused mid-flight).
    pub fn into_report(mut self) -> FuzzReport {
        let mut report = self.state.report;
        report.stats.executions = report.execs;
        report.stats.valid_inputs = report.valid_inputs.len() as u64;
        report.stats.queue_depth = self.state.queue.len();
        report.decisions = std::mem::take(&mut self.decisions);
        report.stats.decisions = report.decisions.len() as u64;
        report.stats.decision_digest = digest_bytes(&report.decisions);
        report.mined_tokens = self
            .state
            .mined
            .iter()
            .map(|(tok, &count)| (tok.clone(), count))
            .collect();
        if let Some(clock) = self.clock {
            let (wall, phases) = clock.finish();
            report.stats.wall_secs = wall;
            report.stats.phases = phases;
        }
        report
    }

    /// Serializes the campaign's complete search state.
    ///
    /// [`resume_from_checkpoint`](Self::resume_from_checkpoint) with the
    /// same subject and configuration continues the campaign
    /// byte-identically: running the resumed driver to completion yields
    /// the same [`FuzzReport::digest`] as an uninterrupted run. The trace
    /// (a debugging aid, excluded from digests) is not checkpointed; a
    /// resumed campaign's trace covers only the post-resume iterations.
    ///
    /// # Panics
    ///
    /// Panics on a [`replaying`](Self::replaying) driver: resume
    /// reconstructs the RNG from its draw count, which a replay run does
    /// not have. Checkpoint the recording run instead.
    pub fn checkpoint(&self) -> Checkpoint {
        let draws = match &self.source {
            ByteSource::Fresh(rng) => rng.draw_count(),
            ByteSource::Replay { .. } => panic!(
                "checkpointing a replaying campaign is not supported: \
                 resume reconstructs the RNG from its draw count, which \
                 a replay run does not have"
            ),
        };
        let st = &self.state;
        let qs = st.queue.snapshot_state();
        let mut known_invalid: Vec<Vec<u8>> = st.known_invalid.iter().cloned().collect();
        known_invalid.sort();
        Checkpoint {
            subject: self.subject.name().to_string(),
            config_hash: self.cfg.config_hash(),
            seed: self.cfg.seed,
            draws,
            primed: st.primed,
            execs: st.report.execs,
            events: st.report.stats.events,
            hangs: st.report.stats.hangs,
            crashes: st.report.stats.crashes,
            first_valid_execs: st.report.first_valid_execs,
            decisions: self.decisions.clone(),
            current: st.current.clone(),
            parents: st.parents as u64,
            valid: st
                .report
                .valid_inputs
                .iter()
                .cloned()
                .zip(st.report.valid_found_at.iter().copied())
                .collect(),
            valid_branches: branch_pairs_of(&st.report.valid_branches),
            all_branches: branch_pairs_of(&st.report.all_branches),
            steer_branches: branch_pairs_of(&st.steer_branches),
            known_invalid,
            tier_max_rejection: st.tier.max_rejection.map(|n| n as u64),
            tier_fingerprints: st.tier.seen_fingerprints.iter().copied().collect(),
            mined: st
                .mined
                .iter()
                .map(|(tok, &count)| (tok.clone(), count))
                .collect(),
            queue: QueueSnapshot {
                seq: qs.seq,
                last_vbr_len: qs.last_vbr_len as u64,
                pops_since_rebuild: qs.pops_since_rebuild as u64,
                path_counts: qs.path_counts.iter().map(|&(h, n)| (h, n as u64)).collect(),
                items: qs
                    .items
                    .into_iter()
                    .map(|(score, seq, e)| QueueItemSnapshot {
                        score_bits: score.to_bits(),
                        seq,
                        input: e.input,
                        parent_branches: branch_pairs_of(&e.parent_branches),
                        replacement_len: e.replacement_len as u64,
                        avg_stack_bits: e.avg_stack.to_bits(),
                        num_parents: e.num_parents as u64,
                        path_hash: e.path_hash,
                    })
                    .collect(),
            },
        }
    }

    /// Writes [`checkpoint`](Self::checkpoint) to a file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write error.
    pub fn checkpoint_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.checkpoint().encode())
    }

    /// Reconstructs a paused campaign from a checkpoint. The subject and
    /// configuration must match the checkpointing run; drift is detected
    /// via the subject name, [`DriverConfig::config_hash`] and the seed.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Drift`] when the subject, configuration or
    /// seed does not match the checkpoint.
    pub fn resume_from_checkpoint(
        subject: Subject,
        cfg: DriverConfig,
        ck: &Checkpoint,
    ) -> Result<Fuzzer, CheckpointError> {
        if subject.name() != ck.subject {
            return Err(CheckpointError::Drift(format!(
                "checkpoint is for subject {:?}, resuming with {:?}",
                ck.subject,
                subject.name()
            )));
        }
        if cfg.config_hash() != ck.config_hash {
            return Err(CheckpointError::Drift(format!(
                "configuration hash {:016x} does not match checkpoint {:016x}",
                cfg.config_hash(),
                ck.config_hash
            )));
        }
        if cfg.seed != ck.seed {
            return Err(CheckpointError::Drift(format!(
                "seed {} does not match checkpoint seed {}",
                cfg.seed, ck.seed
            )));
        }
        let mut rng = Rng::new(cfg.seed);
        rng.skip(ck.draws);
        let (valid_inputs, valid_found_at): (Vec<Vec<u8>>, Vec<u64>) =
            ck.valid.iter().cloned().unzip();
        let stats = RunStats {
            events: ck.events,
            hangs: ck.hangs,
            crashes: ck.crashes,
            ..RunStats::default()
        };
        let report = FuzzReport {
            valid_inputs,
            valid_found_at,
            execs: ck.execs,
            valid_branches: branch_set_of(&ck.valid_branches),
            all_branches: branch_set_of(&ck.all_branches),
            first_valid_execs: ck.first_valid_execs,
            trace: Vec::new(),
            stats,
            decisions: Vec::new(),
            mined_tokens: Vec::new(),
        };
        let queue = CandidateQueue::restore_state(
            cfg.heuristic,
            QueueState {
                items: ck
                    .queue
                    .items
                    .iter()
                    .map(|i| {
                        (
                            f64::from_bits(i.score_bits),
                            i.seq,
                            QueueEntry {
                                input: i.input.clone(),
                                parent_branches: branch_set_of(&i.parent_branches),
                                replacement_len: i.replacement_len as usize,
                                avg_stack: f64::from_bits(i.avg_stack_bits),
                                num_parents: i.num_parents as usize,
                                path_hash: i.path_hash,
                            },
                        )
                    })
                    .collect(),
                path_counts: ck
                    .queue
                    .path_counts
                    .iter()
                    .map(|&(h, n)| (h, n as usize))
                    .collect(),
                seq: ck.queue.seq,
                last_vbr_len: ck.queue.last_vbr_len as usize,
                pops_since_rebuild: ck.queue.pops_since_rebuild as usize,
            },
        );
        // Pre-fleet checkpoints have no steering record; vBr is the
        // correct fallback (they are equal outside a fleet).
        let mut steer_branches = branch_set_of(&ck.steer_branches);
        steer_branches.union_with(&report.valid_branches);
        let state = CampaignState {
            report,
            queue,
            known_invalid: ck.known_invalid.iter().cloned().collect(),
            steer_branches,
            current: ck.current.clone(),
            parents: ck.parents as usize,
            tier: TierState {
                max_rejection: ck.tier_max_rejection.map(|n| n as usize),
                seen_fingerprints: ck.tier_fingerprints.iter().copied().collect(),
            },
            mined: ck.mined.iter().cloned().collect(),
            primed: ck.primed,
        };
        Ok(Fuzzer {
            subject,
            cfg,
            source: ByteSource::Fresh(rng),
            decisions: ck.decisions.clone(),
            state,
            arena: ExecArena::new(),
            clock: None,
        })
    }

    /// Reads a checkpoint file and
    /// [resumes](Self::resume_from_checkpoint) from it.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the file cannot be read, plus every
    /// decode and drift error of the underlying steps.
    pub fn resume_from(
        subject: Subject,
        cfg: DriverConfig,
        path: impl AsRef<Path>,
    ) -> Result<Fuzzer, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        let ck = Checkpoint::decode(&text)?;
        Self::resume_from_checkpoint(subject, cfg, &ck)
    }

    /// Executes one candidate under the configured [`ExecMode`].
    ///
    /// `Full` runs full instrumentation directly — byte-identical
    /// campaigns (journal encodings, replay digests) to releases that
    /// predate tiering. `Tiered` runs the candidate under the
    /// near-zero-cost fast-failure sink first and only *escalates* to a
    /// second, fully instrumented run when the cheap result warrants it;
    /// everything else returns a summary synthesized from the fast
    /// signal alone (no branch sets — coverage is only ever learned from
    /// escalated runs). Escalation costs a second execution, charged to
    /// the same budget. No mode draws RNG bytes here, so each mode is
    /// deterministic per seed.
    fn execute(
        &mut self,
        report: &mut FuzzReport,
        tier: &mut TierState,
        input: &[u8],
    ) -> FailureExecution {
        match self.cfg.exec_mode {
            ExecMode::Full => self.execute_full(report, input),
            ExecMode::Tiered => {
                let fast = self.execute_fast(report, input);
                let f = &fast.fast;
                let escalate = fast.valid
                    || f.eof_access.is_some()
                    || f.rejection_index.is_none()
                    || f.rejection_index > tier.max_rejection
                    || !tier.seen_fingerprints.contains(&f.last_cmp_fingerprint);
                if escalate {
                    if f.rejection_index > tier.max_rejection {
                        tier.max_rejection = f.rejection_index;
                    }
                    tier.seen_fingerprints.insert(f.last_cmp_fingerprint);
                    pdf_obs::record(|m| m.tier_escalations.inc());
                    self.execute_full(report, input)
                } else {
                    // The fast signal still yields its one-comparison
                    // candidate set for free; the filter only decides
                    // whether to pay for the fully instrumented re-run
                    // (complete candidates, real branch coverage).
                    pdf_obs::record(|m| m.tier_skips.inc());
                    synthesize_failure(&fast)
                }
            }
        }
    }

    /// One fast-tier execution: fast-failure sink through the arena,
    /// charged to the budget and accounted like any other run.
    fn execute_fast(&mut self, report: &mut FuzzReport, input: &[u8]) -> FastExecution {
        let _span = pdf_obs::span("driver.exec");
        report.execs += 1;
        let exec = self.subject.run_fast_failure_arena(&mut self.arena, input);
        if exec.verdict.is_hang() {
            report.stats.hangs += 1;
        }
        if exec.verdict.is_crash() {
            report.stats.crashes += 1;
        }
        report.stats.events += exec.fast.events;
        pdf_obs::record(|m| m.tier_fast_execs.inc());
        exec
    }

    /// One fully instrumented execution (the pre-tiering hot path).
    /// Subjects without a native last-failure entry point take the
    /// full-log reduction inside the runner.
    fn execute_full(&mut self, report: &mut FuzzReport, input: &[u8]) -> FailureExecution {
        let _span = pdf_obs::span("driver.exec");
        report.execs += 1;
        let exec = self.subject.run_last_failure_arena(&mut self.arena, input);
        if exec.verdict.is_hang() {
            report.stats.hangs += 1;
        }
        if exec.verdict.is_crash() {
            report.stats.crashes += 1;
        }
        report.stats.events += exec.failure.events;
        report.all_branches.union_with(&exec.failure.branches);
        exec
    }

    /// Feeds one execution's expected tokens into the campaign's mining
    /// counts ([`DriverConfig::mine_tokens`]). Observation only: no RNG
    /// draw, no search-state change, so enabling mining leaves the
    /// decision stream untouched.
    fn mine_tokens_from(&self, mined: &mut BTreeMap<Vec<u8>, u64>, exec: &FailureExecution) {
        if !self.cfg.mine_tokens || exec.failure.expected_tokens.is_empty() {
            return;
        }
        let n = exec.failure.expected_tokens.len() as u64;
        for tok in &exec.failure.expected_tokens {
            *mined.entry(tok.clone()).or_insert(0) += 1;
        }
        pdf_obs::record(|m| m.tokens_observed.add(n));
    }

    /// `runCheck` (Algorithm 1, lines 27–35): an input counts as a find
    /// only when it is accepted *and* covers branches no valid input
    /// covered before. On a find, `validInp` records it and derives new
    /// candidates from its comparisons.
    fn run_check(
        &mut self,
        report: &mut FuzzReport,
        queue: &mut CandidateQueue,
        steer: &mut BranchSet,
        input: &[u8],
        exec: &FailureExecution,
        parents: usize,
    ) -> bool {
        let _span = pdf_obs::span("driver.classify");
        let summary = &exec.failure;
        queue.note_path(summary.path_hash);
        let new_branches = summary.branches.difference_size(&report.valid_branches);
        if exec.valid && new_branches > 0 {
            pdf_obs::record(|m| {
                m.valid_inputs.inc();
                m.new_branches.add(new_branches as u64);
            });
            // validInp (lines 37–45)
            report.valid_inputs.push(input.to_vec());
            report.valid_found_at.push(report.execs);
            report.first_valid_execs.get_or_insert(report.execs);
            report.valid_branches.union_with(&summary.branches);
            steer.union_with(&summary.branches);
            // Queue rescoring (line 40) is implicit: scores are computed
            // against the live steering set at pop time.
            self.add_inputs(queue, input, summary, parents, steer);
            true
        } else {
            false
        }
    }

    /// `addInputs` (Algorithm 1, lines 19–25): one new candidate per
    /// substitution suggested by the comparisons at the rejection point.
    fn add_inputs(
        &mut self,
        queue: &mut CandidateQueue,
        input: &[u8],
        summary: &FailureSummary,
        parents: usize,
        steer: &BranchSet,
    ) {
        let _span = pdf_obs::span("driver.enqueue");
        if input.len() > self.cfg.max_input_len {
            return;
        }
        // Every candidate of this run shares one family: the parent's
        // branch set is cloned once, not once per sibling.
        let family = || Family {
            parent_branches: summary.branches_up_to_rejection.clone(),
            avg_stack: summary.avg_stack_size,
            num_parents: parents + 1,
            path_hash: summary.path_hash,
        };
        if self.cfg.extension_mode == ExtensionMode::AppendOnly {
            // ablation: never substitute, only grow
            let mut grown = input.to_vec();
            grown.push(self.next_byte());
            pdf_obs::record(|m| m.appends.inc());
            queue.push_family(family(), [(grown, 1)], steer);
            return;
        }
        let mut siblings = Vec::new();
        for cand in &summary.candidates {
            // Replace from the rejection point on: everything after the
            // first invalid character is garbage by definition.
            let mut new_input = input[..cand.at_index.min(input.len())].to_vec();
            new_input.extend_from_slice(&cand.bytes);
            if new_input.len() > self.cfg.max_input_len {
                continue;
            }
            siblings.push((new_input, cand.replacement_len));
        }
        let pushed = siblings.len() as u64;
        if pushed > 0 {
            pdf_obs::record(|m| m.substitutions.add(pushed));
        }
        // Dictionary stage: where the paper substitutes one character at
        // a time, a mined dictionary lets the driver drop in a whole
        // candidate keyword at the rejection point. Anchored on the
        // comparisons at the rejection point — a token is only tried
        // when some comparison would have accepted its first byte
        // (`accepted_first` keeps the full span of range comparisons,
        // so `while` anchors at an identifier-start site even though
        // candidate expansion only probed `a`/`m`/`z`) — so the stage
        // refines the paper's search instead of spraying the queue.
        // Deterministic: token order is the configured dictionary
        // order, no RNG byte is drawn.
        if !self.cfg.dictionary.is_empty() {
            if let Some(idx) = summary.rejection_index {
                let mut dict_pushed: u64 = 0;
                for tok in &self.cfg.dictionary {
                    if tok.len() < 2 || tok.len() > self.cfg.max_input_len {
                        continue;
                    }
                    let anchored = tok.first().is_some_and(|&b| {
                        summary
                            .accepted_first
                            .iter()
                            .any(|&(lo, hi)| lo <= b && b <= hi)
                    });
                    let duplicate = summary.candidates.iter().any(|c| c.bytes == *tok);
                    if !anchored || duplicate {
                        continue;
                    }
                    let mut new_input = input[..idx.min(input.len())].to_vec();
                    new_input.extend_from_slice(tok);
                    if new_input.len() > self.cfg.max_input_len {
                        continue;
                    }
                    dict_pushed += 1;
                    // `replacement_len` feeds the heuristic's "longer
                    // replacement = deeper strncmp progress" bonus; a
                    // dictionary guess carries no such comparison
                    // evidence, so it competes as a single-character
                    // substitution and cannot starve the paper's
                    // search. If the token parses further, its children
                    // earn their rank the normal way.
                    siblings.push((new_input, 1));
                }
                if dict_pushed > 0 {
                    pdf_obs::record(|m| m.tokens_dict_subs.add(dict_pushed));
                }
            }
        }
        if !siblings.is_empty() {
            queue.push_family(family(), siblings, steer);
        }
    }

    fn trace(&self, report: &mut FuzzReport, input: &[u8], exec: &FailureExecution, action: &str) {
        if !self.cfg.trace {
            return;
        }
        report.trace.push(TraceStep {
            input: input.to_vec(),
            valid: exec.valid,
            eof: exec.failure.eof_access.is_some(),
            candidates: exec.failure.candidates.len(),
            action: action.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HeuristicConfig;

    fn run_arith(seed: u64, execs: u64) -> FuzzReport {
        let cfg = DriverConfig {
            seed,
            max_execs: execs,
            ..DriverConfig::default()
        };
        Fuzzer::new(pdf_subjects::arith::subject(), cfg).run()
    }

    #[test]
    fn finds_valid_arith_inputs() {
        let report = run_arith(1, 3_000);
        assert!(!report.valid_inputs.is_empty(), "no valid inputs found");
        let subject = pdf_subjects::arith::subject();
        for input in &report.valid_inputs {
            assert!(
                subject.run(input).valid,
                "{:?}",
                String::from_utf8_lossy(input)
            );
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = run_arith(7, 1_500);
        let b = run_arith(7, 1_500);
        assert_eq!(a.valid_inputs, b.valid_inputs);
        assert_eq!(a.execs, b.execs);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let a = run_arith(1, 1_500);
        let b = run_arith(2, 1_500);
        // Input *sets* typically differ; at minimum the traces must not
        // be byte-identical in discovery order.
        assert!(a.valid_inputs != b.valid_inputs || a.execs != b.execs);
    }

    #[test]
    fn respects_exec_budget() {
        let report = run_arith(3, 100);
        assert!(report.execs <= 100);
    }

    #[test]
    fn stops_at_max_valid_inputs() {
        let cfg = DriverConfig {
            seed: 5,
            max_execs: 50_000,
            max_valid_inputs: Some(3),
            ..DriverConfig::default()
        };
        let report = Fuzzer::new(pdf_subjects::arith::subject(), cfg).run();
        assert!(report.valid_inputs.len() <= 3);
    }

    #[test]
    fn closes_dyck_inputs() {
        let cfg = DriverConfig {
            seed: 11,
            max_execs: 5_000,
            ..DriverConfig::default()
        };
        let report = Fuzzer::new(pdf_subjects::dyck::subject(), cfg).run();
        assert!(
            !report.valid_inputs.is_empty(),
            "heuristic failed to close any bracket string"
        );
        let subject = pdf_subjects::dyck::subject();
        for input in &report.valid_inputs {
            assert!(subject.run(input).valid);
        }
    }

    #[test]
    fn trace_records_steps() {
        let cfg = DriverConfig {
            seed: 1,
            max_execs: 50,
            trace: true,
            ..DriverConfig::default()
        };
        let report = Fuzzer::new(pdf_subjects::arith::subject(), cfg).run();
        assert!(!report.trace.is_empty());
        assert!(report.trace.iter().any(|s| !s.input.is_empty()));
    }

    #[test]
    fn valid_branches_subset_of_all_branches() {
        let report = run_arith(13, 1_000);
        for b in report.valid_branches.iter() {
            assert!(report.all_branches.contains(b));
        }
    }

    #[test]
    fn first_valid_execs_recorded() {
        let report = run_arith(1, 3_000);
        let first = report.first_valid_execs.expect("found something");
        assert!(first <= report.execs);
    }

    #[test]
    fn disabled_heuristic_still_runs() {
        let cfg = DriverConfig {
            seed: 2,
            max_execs: 500,
            heuristic: HeuristicConfig::disabled(),
            ..DriverConfig::default()
        };
        let report = Fuzzer::new(pdf_subjects::arith::subject(), cfg).run();
        assert_eq!(report.execs, 500);
    }

    #[test]
    fn found_at_is_parallel_and_monotone() {
        let report = run_arith(1, 2_000);
        assert_eq!(report.valid_inputs.len(), report.valid_found_at.len());
        assert!(report.valid_found_at.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn naive_searches_run_and_underperform_on_dyck() {
        // Section 3: depth-first opens brackets it cannot close;
        // breadth-first cannot build long prefixes. Both find no more
        // (and typically far fewer) valid inputs than the heuristic.
        use crate::config::SearchMode;
        let run = |search: SearchMode| {
            let cfg = DriverConfig {
                seed: 5,
                max_execs: 6_000,
                search,
                ..DriverConfig::default()
            };
            Fuzzer::new(pdf_subjects::dyck::subject(), cfg).run()
        };
        let heuristic = run(SearchMode::Heuristic);
        let dfs = run(SearchMode::DepthFirst);
        let bfs = run(SearchMode::BreadthFirst);
        assert!(!heuristic.valid_inputs.is_empty());
        assert!(heuristic.valid_inputs.len() >= dfs.valid_inputs.len());
        assert!(heuristic.valid_inputs.len() >= bfs.valid_inputs.len());
    }

    #[test]
    fn replace_only_mode_terminates() {
        // regression: the verdict cache must not starve replace-only
        // mode of budget-consuming runs (it would loop forever)
        let cfg = DriverConfig {
            seed: 1,
            max_execs: 2_000,
            extension_mode: crate::config::ExtensionMode::ReplaceOnly,
            ..DriverConfig::default()
        };
        let report = Fuzzer::new(pdf_subjects::arith::subject(), cfg).run();
        assert_eq!(report.execs, 2_000);
    }

    #[test]
    fn append_only_mode_terminates() {
        let cfg = DriverConfig {
            seed: 1,
            max_execs: 2_000,
            extension_mode: crate::config::ExtensionMode::AppendOnly,
            ..DriverConfig::default()
        };
        let report = Fuzzer::new(pdf_subjects::arith::subject(), cfg).run();
        assert_eq!(report.execs, 2_000);
    }

    #[test]
    fn sink_modes_produce_identical_campaigns() {
        // the streaming LastFailure sink is defined by equivalence to the
        // full-log reductions; a subject registered without native sinks
        // runs every execution through the full-log fallback, and the
        // whole campaign must not notice the difference
        for name in ["arith", "cjson"] {
            let native = pdf_subjects::by_name(name).unwrap().subject;
            let log_only = Subject::new(native.name(), native.entry()).with_fuel(native.fuel());
            assert!(native.last_failure_entry().is_some());
            assert!(log_only.last_failure_entry().is_none());
            let run = |subject: Subject| {
                let cfg = DriverConfig {
                    seed: 9,
                    max_execs: 2_000,
                    trace: true,
                    ..DriverConfig::default()
                };
                Fuzzer::new(subject, cfg).run()
            };
            let streamed = run(native);
            let logged = run(log_only);
            assert_eq!(streamed.valid_inputs, logged.valid_inputs);
            assert_eq!(streamed.valid_found_at, logged.valid_found_at);
            assert_eq!(streamed.execs, logged.execs);
            assert_eq!(streamed.valid_branches, logged.valid_branches);
            assert_eq!(streamed.all_branches, logged.all_branches);
            assert_eq!(streamed.stats.events, logged.stats.events);
            assert_eq!(streamed.trace.len(), logged.trace.len());
            for (a, b) in streamed.trace.iter().zip(&logged.trace) {
                assert_eq!(a.input, b.input);
                assert_eq!(a.valid, b.valid);
                assert_eq!(a.eof, b.eof);
                assert_eq!(a.candidates, b.candidates);
            }
        }
    }

    #[test]
    fn stats_are_populated() {
        let report = run_arith(1, 1_000);
        assert_eq!(report.stats.executions, report.execs);
        assert_eq!(
            report.stats.valid_inputs as usize,
            report.valid_inputs.len()
        );
        assert!(report.stats.events > 0);
        assert!(report.stats.wall_secs > 0.0);
        assert!(report.stats.execs_per_sec() > 0.0);
        assert!(report
            .stats
            .phases
            .iter()
            .any(|(name, _)| *name == "execute"));
    }

    #[test]
    fn replay_reproduces_digest_and_outputs() {
        for (subject, seed) in [
            (pdf_subjects::arith::subject(), 7u64),
            (pdf_subjects::dyck::subject(), 11),
        ] {
            let cfg = DriverConfig {
                seed,
                max_execs: 2_000,
                ..DriverConfig::default()
            };
            let recorded = Fuzzer::new(subject, cfg.clone()).run();
            assert_eq!(
                recorded.stats.decisions,
                recorded.decisions.len() as u64,
                "stats mirror the decision stream"
            );
            let replayed = Fuzzer::replaying(subject, cfg, recorded.decisions.clone()).run();
            assert_eq!(recorded.valid_inputs, replayed.valid_inputs);
            assert_eq!(recorded.execs, replayed.execs);
            assert_eq!(recorded.decisions, replayed.decisions);
            assert_eq!(recorded.digest(), replayed.digest());
        }
    }

    #[test]
    fn digest_separates_different_campaigns() {
        let a = run_arith(1, 1_500);
        let b = run_arith(2, 1_500);
        assert_ne!(a.digest(), b.digest());
        // and is stable for identical campaigns
        assert_eq!(a.digest(), run_arith(1, 1_500).digest());
    }

    #[test]
    #[should_panic(expected = "replay decision stream exhausted")]
    fn replay_panics_on_short_stream() {
        let cfg = DriverConfig {
            seed: 3,
            max_execs: 500,
            ..DriverConfig::default()
        };
        let recorded = Fuzzer::new(pdf_subjects::arith::subject(), cfg.clone()).run();
        let mut truncated = recorded.decisions;
        truncated.truncate(truncated.len() / 2);
        Fuzzer::replaying(pdf_subjects::arith::subject(), cfg, truncated).run();
    }

    #[test]
    fn run_until_pauses_without_changing_the_campaign() {
        let cfg = DriverConfig {
            seed: 7,
            max_execs: 1_500,
            ..DriverConfig::default()
        };
        let uninterrupted = Fuzzer::new(pdf_subjects::arith::subject(), cfg.clone()).run();

        let mut paused = Fuzzer::new(pdf_subjects::arith::subject(), cfg);
        assert_eq!(
            paused.run_until(&CampaignBudget::execs(300)),
            StopReason::PausedExecs
        );
        assert_eq!(
            paused.run_until(&CampaignBudget::execs(900)),
            StopReason::PausedExecs
        );
        assert_eq!(
            paused.run_until(&CampaignBudget::unbounded()),
            StopReason::Finished
        );
        let stitched = paused.into_report();
        assert_eq!(stitched.valid_inputs, uninterrupted.valid_inputs);
        assert_eq!(stitched.decisions, uninterrupted.decisions);
        assert_eq!(stitched.digest(), uninterrupted.digest());
    }

    #[test]
    fn run_until_finished_is_idempotent() {
        let cfg = DriverConfig {
            seed: 2,
            max_execs: 200,
            ..DriverConfig::default()
        };
        let mut f = Fuzzer::new(pdf_subjects::arith::subject(), cfg);
        assert_eq!(
            f.run_until(&CampaignBudget::unbounded()),
            StopReason::Finished
        );
        assert_eq!(
            f.run_until(&CampaignBudget::unbounded()),
            StopReason::Finished
        );
        assert_eq!(f.into_report().execs, 200);
    }

    #[test]
    fn wall_deadline_pauses_eventually() {
        let cfg = DriverConfig {
            seed: 3,
            max_execs: u64::MAX / 2,
            ..DriverConfig::default()
        };
        let mut f = Fuzzer::new(pdf_subjects::arith::subject(), cfg);
        let stop = f.run_until(&CampaignBudget::wall(std::time::Duration::ZERO));
        assert_eq!(stop, StopReason::PausedDeadline);
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_digest() {
        for pause_at in [0u64, 137, 800] {
            let cfg = DriverConfig {
                seed: 11,
                max_execs: 1_600,
                ..DriverConfig::default()
            };
            let uninterrupted = Fuzzer::new(pdf_subjects::dyck::subject(), cfg.clone()).run();

            let mut first = Fuzzer::new(pdf_subjects::dyck::subject(), cfg.clone());
            let stop = first.run_until(&CampaignBudget::execs(pause_at));
            assert_eq!(stop, StopReason::PausedExecs);
            let ck = first.checkpoint();
            drop(first); // the "killed" campaign

            // round-trip through text, as a file-based resume would
            let decoded = Checkpoint::decode(&ck.encode()).expect("decodes");
            assert_eq!(ck, decoded);
            let mut resumed =
                Fuzzer::resume_from_checkpoint(pdf_subjects::dyck::subject(), cfg, &decoded)
                    .expect("resumes");
            assert_eq!(
                resumed.run_until(&CampaignBudget::unbounded()),
                StopReason::Finished
            );
            let report = resumed.into_report();
            assert_eq!(
                report.digest(),
                uninterrupted.digest(),
                "pause at {pause_at} diverged"
            );
            assert_eq!(report.valid_inputs, uninterrupted.valid_inputs);
            assert_eq!(report.decisions, uninterrupted.decisions);
        }
    }

    #[test]
    fn resume_rejects_drifted_subject_config_and_seed() {
        let cfg = DriverConfig {
            seed: 5,
            max_execs: 400,
            ..DriverConfig::default()
        };
        let mut f = Fuzzer::new(pdf_subjects::arith::subject(), cfg.clone());
        let _ = f.run_until(&CampaignBudget::execs(100));
        let ck = f.checkpoint();

        let wrong_subject =
            Fuzzer::resume_from_checkpoint(pdf_subjects::dyck::subject(), cfg.clone(), &ck);
        assert!(matches!(wrong_subject, Err(CheckpointError::Drift(_))));

        let wrong_cfg = DriverConfig {
            max_input_len: 7,
            ..cfg.clone()
        };
        assert!(matches!(
            Fuzzer::resume_from_checkpoint(pdf_subjects::arith::subject(), wrong_cfg, &ck),
            Err(CheckpointError::Drift(_))
        ));

        let wrong_seed = DriverConfig { seed: 6, ..cfg };
        assert!(matches!(
            Fuzzer::resume_from_checkpoint(pdf_subjects::arith::subject(), wrong_seed, &ck),
            Err(CheckpointError::Drift(_))
        ));
    }

    #[test]
    #[should_panic(expected = "checkpointing a replaying campaign")]
    fn checkpointing_a_replay_run_panics() {
        let cfg = DriverConfig {
            seed: 3,
            max_execs: 200,
            ..DriverConfig::default()
        };
        let recorded = Fuzzer::new(pdf_subjects::arith::subject(), cfg.clone()).run();
        let f = Fuzzer::replaying(pdf_subjects::arith::subject(), cfg, recorded.decisions);
        let _ = f.checkpoint();
    }

    #[test]
    fn crashing_subject_is_survived_and_counted() {
        use pdf_runtime::{cov, lit, ExecCtx, ParseError};
        fn crashy(ctx: &mut ExecCtx) -> Result<(), ParseError> {
            cov!(ctx);
            if lit!(ctx, b'!') {
                panic!("deliberate subject crash");
            }
            if !lit!(ctx, b'a') {
                return Err(ctx.reject("expected 'a'"));
            }
            ctx.expect_end()
        }
        let subject = Subject::new("crashy", crashy);
        let cfg = DriverConfig {
            seed: 1,
            max_execs: 2_000,
            ..DriverConfig::default()
        };
        let a = Fuzzer::new(subject, cfg.clone()).run();
        assert!(
            a.stats.crashes > 0,
            "the '!' branch never fired in 2000 execs"
        );
        assert_eq!(a.stats.executions, 2_000, "crashes must not end the run");
        // crash accounting is deterministic and digest-relevant
        let b = Fuzzer::new(subject, cfg).run();
        assert_eq!(a.stats.crashes, b.stats.crashes);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn metrics_do_not_perturb_the_campaign() {
        // the pdf-obs determinism contract: a campaign with a registry
        // installed makes byte-identical decisions and the registry's
        // exec counters agree with the report
        let plain = run_arith(7, 1_500);
        let reg = std::sync::Arc::new(pdf_obs::MetricsRegistry::new());
        let _scope = pdf_obs::install(std::sync::Arc::clone(&reg));
        let observed = run_arith(7, 1_500);
        assert_eq!(plain.digest(), observed.digest());
        assert_eq!(plain.decisions, observed.decisions);
        assert_eq!(reg.execs.get(), observed.execs);
        assert_eq!(reg.valid_inputs.get(), observed.valid_inputs.len() as u64);
        assert!(reg.snapshot().check_identities().is_ok());
        for name in [
            "driver.pick",
            "driver.exec",
            "driver.classify",
            "driver.enqueue",
        ] {
            assert!(
                reg.span_stat(name).is_some_and(|s| s.count > 0),
                "span {name} was never recorded"
            );
        }
    }

    #[test]
    fn tiered_mode_is_deterministic() {
        let run = || {
            let cfg = DriverConfig {
                seed: 9,
                max_execs: 2_000,
                exec_mode: ExecMode::Tiered,
                ..DriverConfig::default()
            };
            Fuzzer::new(pdf_subjects::arith::subject(), cfg).run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.digest(), b.digest(), "tiered mode not deterministic");
        assert_eq!(a.valid_inputs, b.valid_inputs);
    }

    #[test]
    fn tiered_valid_inputs_are_genuinely_valid() {
        for subject in [
            pdf_subjects::arith::subject(),
            pdf_subjects::dyck::subject(),
        ] {
            let cfg = DriverConfig {
                seed: 3,
                max_execs: 4_000,
                exec_mode: ExecMode::Tiered,
                ..DriverConfig::default()
            };
            let report = Fuzzer::new(subject, cfg).run();
            assert!(
                !report.valid_inputs.is_empty(),
                "tiered on {} found nothing",
                subject.name()
            );
            for input in &report.valid_inputs {
                assert!(
                    subject.run(input).valid,
                    "tiered reported invalid input {:?}",
                    String::from_utf8_lossy(input)
                );
            }
            // every valid input went through a full run, so its
            // coverage is real
            for b in report.valid_branches.iter() {
                assert!(report.all_branches.contains(b));
            }
        }
    }

    #[test]
    fn tiered_replay_reproduces_digest() {
        let cfg = DriverConfig {
            seed: 5,
            max_execs: 1_500,
            exec_mode: ExecMode::Tiered,
            ..DriverConfig::default()
        };
        let recorded = Fuzzer::new(pdf_subjects::dyck::subject(), cfg.clone()).run();
        let replayed = Fuzzer::replaying(
            pdf_subjects::dyck::subject(),
            cfg,
            recorded.decisions.clone(),
        )
        .run();
        assert_eq!(recorded.digest(), replayed.digest());
    }

    #[test]
    fn tiered_checkpoint_resume_matches_uninterrupted_digest() {
        // the tier filter state (watermark + fingerprints) must survive
        // the checkpoint round-trip, or the resumed campaign escalates
        // differently and diverges
        let cfg = DriverConfig {
            seed: 11,
            max_execs: 1_600,
            exec_mode: ExecMode::Tiered,
            ..DriverConfig::default()
        };
        let uninterrupted = Fuzzer::new(pdf_subjects::dyck::subject(), cfg.clone()).run();

        let mut first = Fuzzer::new(pdf_subjects::dyck::subject(), cfg.clone());
        assert_eq!(
            first.run_until(&CampaignBudget::execs(400)),
            StopReason::PausedExecs
        );
        let ck = first.checkpoint();
        drop(first);
        let decoded = Checkpoint::decode(&ck.encode()).expect("decodes");
        assert_eq!(ck, decoded);
        let mut resumed =
            Fuzzer::resume_from_checkpoint(pdf_subjects::dyck::subject(), cfg, &decoded)
                .expect("resumes");
        assert_eq!(
            resumed.run_until(&CampaignBudget::unbounded()),
            StopReason::Finished
        );
        assert_eq!(resumed.into_report().digest(), uninterrupted.digest());
    }

    #[test]
    fn tiered_mode_records_escalation_counters() {
        let reg = std::sync::Arc::new(pdf_obs::MetricsRegistry::new());
        let _scope = pdf_obs::install(std::sync::Arc::clone(&reg));
        let cfg = DriverConfig {
            seed: 2,
            max_execs: 1_000,
            exec_mode: ExecMode::Tiered,
            ..DriverConfig::default()
        };
        let report = Fuzzer::new(pdf_subjects::arith::subject(), cfg).run();
        assert!(reg.tier_fast_execs.get() > 0, "no fast-tier executions");
        assert!(reg.tier_escalations.get() > 0, "nothing ever escalated");
        assert!(reg.tier_skips.get() > 0, "the filter never skipped");
        // every execution is either a fast run or an escalated full run
        assert_eq!(
            reg.tier_fast_execs.get() + reg.tier_escalations.get(),
            report.execs
        );
        assert!(reg.snapshot().check_identities().is_ok());
    }

    #[test]
    fn json_keywords_reachable() {
        // the headline capability: synthesizing keywords from strcmp
        // feedback — within a modest budget pFuzzer produces an input
        // containing "true", "false" or "null"
        let cfg = DriverConfig {
            seed: 4,
            max_execs: 20_000,
            ..DriverConfig::default()
        };
        let report = Fuzzer::new(pdf_subjects::json::subject(), cfg).run();
        let has_keyword = report.valid_inputs.iter().any(|i| {
            let s = String::from_utf8_lossy(i);
            s.contains("true") || s.contains("false") || s.contains("null")
        });
        assert!(
            has_keyword,
            "no JSON keyword in {:?}",
            report
                .valid_inputs
                .iter()
                .map(|i| String::from_utf8_lossy(i).into_owned())
                .collect::<Vec<_>>()
        );
    }
}
