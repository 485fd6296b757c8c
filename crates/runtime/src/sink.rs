//! Streaming event sinks: where instrumentation events go during a run.
//!
//! The paper's instrumentation costs ~100× per execution (Section 4);
//! materialising a full [`ExecLog`] for consumers that only need branch
//! coverage wastes most of that budget. [`ExecCtx`](crate::ExecCtx) is
//! therefore generic over an [`EventSink`] that consumes the event
//! stream *as it happens*:
//!
//! - [`FullLog`] — records everything into an [`ExecLog`] (the default;
//!   used by the substitution engine in full-log mode, the KLEE-style
//!   baseline's path conditions and grammar mining),
//! - [`CoverageOnly`] — branch sequence + EOF flag, zero per-comparison
//!   allocation (the AFL baseline consumes nothing else),
//! - [`LastFailure`] — rejection index, substitution candidates and
//!   coverage without an event vector (every driver run; one run also
//!   yields the fast tier's summary, or a lean summary when its
//!   substitutions go unread — see [`FailureRun`](crate::FailureRun)),
//! - [`FastFailure`] — rejection index + last comparison only, near
//!   zero cost per event (the batch executor of generated inputs; see
//!   *Fuzzing with Fast Failure Feedback* in PAPERS.md).
//!
//! Streaming summaries are *defined* by equivalence: they must equal
//! what the corresponding [`ExecLog`] queries compute
//! ([`ExecLog::coverage_summary`] / [`ExecLog::failure_summary`] /
//! [`ExecLog::fast_summary`] are the reference implementations, and the
//! property tests in `tests/` hold the streaming versions to them).
//!
//! [`FullLog`], [`LastFailure`] and (inside the crate) [`FastFailure`]
//! additionally support *recycled* construction from an [`ExecArena`]:
//! their internal buffers are taken from the arena on construction and
//! handed back after the summary is built, so a batch of executions
//! reuses one allocation set (see
//! [`Subject::exec_batch_fast`](crate::Subject::exec_batch_fast)).

use crate::arena::ExecArena;
use crate::coverage::{BranchId, BranchSet, DistinctBranches};
use crate::events::{
    cmp_fingerprint, Candidate, Cmp, CmpMeta, CmpValue, Event, ExecLog, LazyCmpValue,
};

/// Consumes instrumentation events during a subject execution.
///
/// Methods are called in program order: `begin` once, then any mix of
/// `on_cmp`/`on_branch`/`on_eof`, then `finish` once. Implementations
/// decide how much of the stream to retain; `on_cmp` receives the
/// expected value lazily ([`LazyCmpValue`]) so sinks that ignore it pay
/// no allocation.
///
/// # Example
///
/// A custom sink that reduces the whole stream to an event count:
///
/// ```
/// use pdf_runtime::{cov, lit, BranchId, CmpMeta, EventSink, ExecCtx, LazyCmpValue, ParseError};
///
/// #[derive(Default)]
/// struct CountEvents(u64);
///
/// impl EventSink for CountEvents {
///     type Summary = u64;
///     fn begin(&mut self, _input_len: usize) {}
///     fn on_cmp(&mut self, _meta: CmpMeta, _expected: LazyCmpValue<'_>) { self.0 += 1; }
///     fn on_branch(&mut self, _branch: BranchId, _pos: usize) { self.0 += 1; }
///     fn on_eof(&mut self, _index: usize) { self.0 += 1; }
///     fn finish(self) -> u64 { self.0 }
/// }
///
/// fn parse(ctx: &mut ExecCtx<CountEvents>) -> Result<(), ParseError> {
///     cov!(ctx);
///     if !lit!(ctx, b'x') {
///         return Err(ctx.reject("expected 'x'"));
///     }
///     ctx.expect_end()
/// }
///
/// let mut ctx = ExecCtx::with_sink(b"x", 1_000, CountEvents::default());
/// assert!(parse(&mut ctx).is_ok());
/// assert!(ctx.finish() > 0);
/// ```
pub trait EventSink {
    /// What the sink reduces the event stream to.
    type Summary;

    /// Called once before the run with the input length.
    fn begin(&mut self, input_len: usize);

    /// A tracked comparison (always followed by its branch event).
    fn on_cmp(&mut self, meta: CmpMeta, expected: LazyCmpValue<'_>);

    /// A covered branch, tagged with the input cursor position.
    fn on_branch(&mut self, branch: BranchId, pos: usize);

    /// An attempted read past the end of the input.
    fn on_eof(&mut self, index: usize);

    /// Consumes the sink after the run.
    fn finish(self) -> Self::Summary;
}

// ---- FullLog ---------------------------------------------------------------

/// The everything-recorded sink: today's [`ExecLog`], event by event.
#[derive(Debug, Default)]
pub struct FullLog {
    log: ExecLog,
}

impl EventSink for FullLog {
    type Summary = ExecLog;

    fn begin(&mut self, input_len: usize) {
        self.log.input_len = input_len;
    }

    fn on_cmp(&mut self, meta: CmpMeta, expected: LazyCmpValue<'_>) {
        self.log.events.push(Event::Cmp(Cmp {
            index: meta.index,
            observed: meta.observed,
            expected: expected.materialise(),
            outcome: meta.outcome,
            depth: meta.depth,
            site: meta.site,
        }));
    }

    fn on_branch(&mut self, branch: BranchId, pos: usize) {
        self.log.events.push(Event::Branch(branch, pos));
    }

    fn on_eof(&mut self, index: usize) {
        self.log.events.push(Event::EofAccess(index));
    }

    fn finish(self) -> ExecLog {
        self.log
    }
}

impl FullLog {
    /// A full-log sink whose event buffer comes from `arena`, so
    /// repeated executions reuse one allocation. Hand the finished
    /// [`ExecLog`] back with [`ExecArena::recycle_log`] once its events
    /// have been reduced.
    pub fn recycled(arena: &mut ExecArena) -> Self {
        let mut events = std::mem::take(&mut arena.events);
        events.clear();
        FullLog {
            log: ExecLog {
                events,
                input_len: 0,
            },
        }
    }
}

// ---- CoverageOnly ----------------------------------------------------------

/// What a coverage-guided consumer needs from one execution.
#[derive(Debug, Clone, PartialEq)]
pub struct CovSummary {
    /// Distinct branches covered.
    pub branches: BranchSet,
    /// Covered branches in program order (duplicates included) — the
    /// AFL baseline derives its edge profile from consecutive pairs.
    pub branch_seq: Vec<BranchId>,
    /// First past-the-end access, if any.
    pub eof_access: Option<usize>,
    /// Instrumentation events the run emitted.
    pub events: u64,
}

/// The coverage-only sink: branch sequence plus EOF flag. Comparison
/// events are counted but never materialised, so `strcmp`-style
/// comparisons allocate nothing.
#[derive(Debug, Default)]
pub struct CoverageOnly {
    seq: Vec<BranchId>,
    eof: Option<usize>,
    events: u64,
}

impl EventSink for CoverageOnly {
    type Summary = CovSummary;

    fn begin(&mut self, _input_len: usize) {}

    fn on_cmp(&mut self, _meta: CmpMeta, _expected: LazyCmpValue<'_>) {
        self.events += 1;
    }

    fn on_branch(&mut self, branch: BranchId, _pos: usize) {
        self.events += 1;
        self.seq.push(branch);
    }

    fn on_eof(&mut self, index: usize) {
        self.events += 1;
        if self.eof.is_none() {
            self.eof = Some(index);
        }
    }

    fn finish(self) -> CovSummary {
        let branches = BranchSet::from_seq(&self.seq);
        CovSummary {
            branches,
            branch_seq: self.seq,
            eof_access: self.eof,
            events: self.events,
        }
    }
}

// ---- LastFailure -----------------------------------------------------------

/// What the substitution driver needs from one execution: exactly the
/// [`ExecLog`] queries it used to run, precomputed.
///
/// A *lean* summary ([`FailureRun::finish_lean`](crate::FailureRun::finish_lean))
/// is built for runs whose substitutions nobody will read, such as a
/// rejected first run of the driver: `branches_up_to_rejection`,
/// `candidates` and `accepted_first` stay empty, and every other field
/// equals the full summary's.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureSummary {
    /// Distinct branches covered (any outcome).
    pub branches: BranchSet,
    /// Branches covered up to the first comparison of the last compared
    /// character (see [`ExecLog::branches_up_to_rejection`]).
    pub branches_up_to_rejection: BranchSet,
    /// `branches.path_hash()`, precomputed for path deduplication.
    pub path_hash: u64,
    /// Index of the first invalid character
    /// (see [`ExecLog::rejection_index`]).
    pub rejection_index: Option<usize>,
    /// Substitution candidates at the rejection point
    /// (see [`ExecLog::substitution_candidates`]).
    pub candidates: Vec<Candidate>,
    /// Full expected byte strings (length ≥ 2) of the failed observed
    /// string comparisons at the rejection index, in program order with
    /// duplicates removed — the token-miner feed: a failed keyword-table
    /// `strcmp` names the whole keyword here even when only a prefix of
    /// the input matched.
    pub expected_tokens: Vec<Vec<u8>>,
    /// Inclusive ranges of bytes the failed observed comparisons at the
    /// rejection index would have accepted as the *next* byte, in
    /// program order with exact duplicates removed — `Byte` and the
    /// first unmatched `Str` byte collapse to single-byte ranges. Where
    /// [`candidates`](FailureSummary::candidates) compresses a wide
    /// range to three probe bytes, this keeps the full span, so a
    /// dictionary consumer can ask "would the parser have accepted a
    /// token starting with this byte?" exactly.
    pub accepted_first: Vec<(u8, u8)>,
    /// Average stack depth over the last two comparisons.
    pub avg_stack_size: f64,
    /// First past-the-end access, if any.
    pub eof_access: Option<usize>,
    /// Instrumentation events the run emitted.
    pub events: u64,
    /// [`cmp_fingerprint`] of the last comparison event (any outcome),
    /// `0` when the run made no comparison — the tier-escalation filter
    /// key, kept here so full instrumentation can seed the filter state.
    pub last_cmp_fingerprint: u64,
}

const WATERMARK_UNSET: u32 = u32::MAX;

/// An expected value a sink keeps past its event: `Byte`/`Range`
/// inline, `Str` as a span of a byte buffer the sink reuses.
#[derive(Debug, Clone, Copy)]
enum Kept {
    Byte(u8),
    Range(u8, u8),
    Str {
        start: usize,
        end: usize,
        matched: usize,
    },
}

impl Kept {
    /// Keeps `value`, appending a string's bytes to `bytes`.
    fn copy(value: &LazyCmpValue<'_>, bytes: &mut Vec<u8>) -> Kept {
        match *value {
            LazyCmpValue::Byte(b) => Kept::Byte(b),
            LazyCmpValue::Range(lo, hi) => Kept::Range(lo, hi),
            LazyCmpValue::Str { full, matched } => {
                let start = bytes.len();
                bytes.extend_from_slice(full);
                Kept::Str {
                    start,
                    end: bytes.len(),
                    matched,
                }
            }
        }
    }

    /// The kept value, viewed in the buffer it was copied into.
    fn view(self, bytes: &[u8]) -> LazyCmpValue<'_> {
        match self {
            Kept::Byte(b) => LazyCmpValue::Byte(b),
            Kept::Range(lo, hi) => LazyCmpValue::Range(lo, hi),
            Kept::Str {
                start,
                end,
                matched,
            } => LazyCmpValue::Str {
                full: &bytes[start..end],
                matched,
            },
        }
    }
}

/// A list of expected values whose strings share one reused buffer, so
/// keeping a value allocates nothing once the buffers are warm.
#[derive(Debug, Default)]
pub(crate) struct ValueBuf {
    values: Vec<Kept>,
    bytes: Vec<u8>,
}

impl ValueBuf {
    fn clear(&mut self) {
        self.values.clear();
        self.bytes.clear();
    }

    fn push(&mut self, value: &LazyCmpValue<'_>) {
        self.values.push(Kept::copy(value, &mut self.bytes));
    }

    /// Replaces the contents with `value` alone.
    fn set(&mut self, value: &LazyCmpValue<'_>) {
        self.clear();
        self.push(value);
    }

    fn iter(&self) -> impl Iterator<Item = LazyCmpValue<'_>> {
        self.values.iter().map(|k| k.view(&self.bytes))
    }

    fn last(&self) -> Option<LazyCmpValue<'_>> {
        self.values.last().map(|k| k.view(&self.bytes))
    }
}

/// The latest comparison of a run, any outcome: kept as it streams and
/// fingerprinted once, when the run is summarised.
#[derive(Debug, Default)]
struct LastCmp {
    last: Option<(CmpMeta, Kept)>,
    /// String bytes of the kept value.
    bytes: Vec<u8>,
    /// Depth of the comparison before the last (the last's own if none).
    prev_depth: usize,
}

impl LastCmp {
    fn recycled(bytes: Vec<u8>) -> Self {
        LastCmp {
            bytes,
            ..LastCmp::default()
        }
    }

    fn note(&mut self, meta: CmpMeta, expected: &LazyCmpValue<'_>) {
        self.prev_depth = self.last.map_or(meta.depth, |(m, _)| m.depth);
        self.bytes.clear();
        self.last = Some((meta, Kept::copy(expected, &mut self.bytes)));
    }

    /// [`cmp_fingerprint`] of the last comparison, `0` when there was none.
    fn fingerprint(&self) -> u64 {
        self.last.map_or(0, |(meta, kept)| {
            cmp_fingerprint(&meta, &kept.view(&self.bytes))
        })
    }

    /// Average stack depth over the last two comparisons (a single
    /// comparison averages with itself, which is exact).
    fn avg_stack_size(&self) -> f64 {
        self.last
            .map_or(0.0, |(m, _)| (self.prev_depth + m.depth) as f64 / 2.0)
    }
}

/// The full driver sink: maintains the rejection index and branch
/// coverage *while the run streams*, keeping per event only what the
/// summary needs:
///
/// - each branch once, in first-seen order, through an exact index
///   (consecutive repeats are skipped outright);
/// - per input index, a watermark: how many distinct branches had been
///   seen at the first observed comparison there, which reproduces
///   [`ExecLog::branches_up_to_rejection`] exactly (a branch occurs
///   before that comparison exactly when its first occurrence does);
/// - the expected values of the failed comparisons at the current
///   rejection index, copied into a reused buffer (cleared whenever the
///   index advances);
/// - the last comparison, fingerprinted once at the end.
///
/// Candidate expansion — one allocation per candidate — happens once in
/// [`finish`](EventSink::finish), exactly like the batch
/// [`ExecLog::substitution_candidates`].
#[derive(Debug, Default)]
pub struct LastFailure {
    branches: DistinctBranches,
    /// `watermarks[i]` = number of distinct branches seen before the
    /// first observed comparison at input index `i` (UNSET until then).
    watermarks: Vec<u32>,
    rejection: Option<usize>,
    /// Expected values of the failed observed comparisons at
    /// `rejection`, in program order.
    failed: ValueBuf,
    last: LastCmp,
    eof: Option<usize>,
    events: u64,
}

impl LastFailure {
    /// A sink whose internal buffers come from `arena`, so repeated
    /// executions reuse one allocation set. Pair with
    /// [`finish_into`](LastFailure::finish_into) to hand them back.
    pub fn recycled(arena: &mut ExecArena) -> Self {
        LastFailure {
            branches: std::mem::take(&mut arena.branches),
            watermarks: std::mem::take(&mut arena.watermarks),
            failed: std::mem::take(&mut arena.failed),
            last: LastCmp::recycled(std::mem::take(&mut arena.last_bytes)),
            ..LastFailure::default()
        }
    }

    /// [`finish`](EventSink::finish), then returns the internal buffers
    /// to `arena` for the next execution.
    pub fn finish_into(self, arena: &mut ExecArena) -> FailureSummary {
        let summary = self.summarize(false);
        self.recycle(arena);
        summary
    }

    /// Returns the internal buffers to `arena` without summarising.
    pub(crate) fn recycle(self, arena: &mut ExecArena) {
        arena.branches = self.branches;
        arena.watermarks = self.watermarks;
        arena.failed = self.failed;
        arena.last_bytes = self.last.bytes;
    }

    /// The [`FastFailure`] summary of the same run. The failed values at
    /// the rejection index are kept in program order, so the last of
    /// them is exactly the one value the fast sink keeps.
    pub(crate) fn fast_summary(&self) -> FastSummary {
        FastSummary {
            rejection_index: self.rejection,
            last_failed: self.failed.last().map(|v| v.materialise()),
            last_cmp_fingerprint: self.last.fingerprint(),
            avg_stack_size: self.last.avg_stack_size(),
            eof_access: self.eof,
            events: self.events,
        }
    }

    /// The run's summary; a `lean` one leaves the substitution fields
    /// empty (see [`FailureSummary`]).
    pub(crate) fn summarize(&self, lean: bool) -> FailureSummary {
        let covered = self.branches.len();
        let branches = self.branches.first(covered);
        // a rejection index always has a watermark: both are set by an
        // observed comparison there
        let branches_up_to_rejection = if lean {
            BranchSet::new()
        } else {
            match self.rejection.map(|r| self.watermarks[r] as usize) {
                Some(w) if w < covered => self.branches.first(w),
                _ => branches.clone(),
            }
        };
        let mut candidates: Vec<Candidate> = Vec::new();
        let mut expected_tokens: Vec<Vec<u8>> = Vec::new();
        let mut accepted_first: Vec<(u8, u8)> = Vec::new();
        if let Some(idx) = self.rejection {
            // A replacement's length is its `replacement_len`, so equal
            // bytes mean a duplicate candidate: single bytes are tracked
            // in a 256-bit set, only multi-byte suffixes scan.
            let mut single = [0u64; 4];
            for expected in self.failed.iter() {
                if let LazyCmpValue::Str { full, .. } = expected {
                    if full.len() >= 2 && !expected_tokens.iter().any(|t| t == full) {
                        expected_tokens.push(full.to_vec());
                    }
                }
                if lean {
                    continue;
                }
                let replacement_len = expected.replacement_len();
                expected.for_each_replacement(|bytes| {
                    let fresh = match *bytes {
                        [b] => {
                            let (word, bit) = (usize::from(b / 64), 1u64 << (b % 64));
                            let fresh = single[word] & bit == 0;
                            single[word] |= bit;
                            fresh
                        }
                        _ => !candidates.iter().any(|c| c.bytes == bytes),
                    };
                    if fresh {
                        candidates.push(Candidate {
                            at_index: idx,
                            replacement_len,
                            bytes: bytes.to_vec(),
                        });
                    }
                });
                if let Some(span) = expected.accepted_first() {
                    if !accepted_first.contains(&span) {
                        accepted_first.push(span);
                    }
                }
            }
        }
        FailureSummary {
            path_hash: branches.path_hash(),
            branches,
            branches_up_to_rejection,
            rejection_index: self.rejection,
            candidates,
            expected_tokens,
            accepted_first,
            avg_stack_size: self.last.avg_stack_size(),
            eof_access: self.eof,
            events: self.events,
            last_cmp_fingerprint: self.last.fingerprint(),
        }
    }
}

impl EventSink for LastFailure {
    type Summary = FailureSummary;

    fn begin(&mut self, input_len: usize) {
        self.branches.reset();
        self.failed.clear();
        // clear-and-resize rather than a fresh `vec![...]` so recycled
        // sinks reuse the arena's watermark allocation
        self.watermarks.clear();
        self.watermarks.resize(input_len + 1, WATERMARK_UNSET);
    }

    fn on_cmp(&mut self, meta: CmpMeta, expected: LazyCmpValue<'_>) {
        self.events += 1;
        self.last.note(meta, &expected);
        if meta.observed.is_none() {
            return;
        }
        let w = &mut self.watermarks[meta.index];
        if *w == WATERMARK_UNSET {
            *w = self.branches.len() as u32;
        }
        if meta.outcome {
            return;
        }
        match self.rejection {
            Some(r) if meta.index < r => {}
            Some(r) if meta.index == r => self.failed.push(&expected),
            _ => {
                self.rejection = Some(meta.index);
                self.failed.set(&expected);
            }
        }
    }

    fn on_branch(&mut self, branch: BranchId, _pos: usize) {
        self.events += 1;
        self.branches.insert(branch);
    }

    fn on_eof(&mut self, index: usize) {
        self.events += 1;
        if self.eof.is_none() {
            self.eof = Some(index);
        }
    }

    fn finish(self) -> FailureSummary {
        self.summarize(false)
    }
}

// ---- FastFailure -----------------------------------------------------------

/// What the fast execution tier keeps from one run: the rejection index
/// plus the last comparison — nothing else. *Fuzzing with Fast Failure
/// Feedback* observes that this pair is enough to score most candidates;
/// the tiered driver escalates to the full summary only when it changes.
/// Reported by the [`FastFailure`] sink, and derived exactly from a
/// [`LastFailure`] run by [`FailureRun::fast_summary`](crate::FailureRun::fast_summary).
#[derive(Debug, Clone, PartialEq)]
pub struct FastSummary {
    /// Index of the first invalid character
    /// (see [`ExecLog::rejection_index`]).
    pub rejection_index: Option<usize>,
    /// Expected value of the last failed observed comparison at the
    /// rejection index — the single comparison fast-mode substitution
    /// candidates derive from.
    pub last_failed: Option<CmpValue>,
    /// [`cmp_fingerprint`] of the last comparison event (any outcome),
    /// `0` when the run made no comparison.
    pub last_cmp_fingerprint: u64,
    /// Average stack depth over the last two comparisons.
    pub avg_stack_size: f64,
    /// First past-the-end access, if any.
    pub eof_access: Option<usize>,
    /// Instrumentation events the run emitted.
    pub events: u64,
}

/// The near-zero-cost sink of the fast execution tier: no branch
/// coverage, no watermarks, no candidate expansion — just the rejection
/// index, the expected value of the last failed comparison there and
/// the latest comparison, both copied into reused buffers. Per-event
/// work is a handful of stores (plus a short copy for a `strcmp`); the
/// fingerprint is computed and `last_failed` materialised once, in
/// [`finish`](EventSink::finish).
#[derive(Debug, Default)]
pub struct FastFailure {
    rejection: Option<usize>,
    /// Expected value of the last failed observed comparison at
    /// `rejection` (empty when there is none).
    last_failed: ValueBuf,
    last: LastCmp,
    eof: Option<usize>,
    events: u64,
}

impl FastFailure {
    /// A sink whose buffers come from `arena`, so repeated executions
    /// reuse one allocation set. Pair with
    /// [`finish_into`](FastFailure::finish_into) to hand them back.
    pub(crate) fn recycled(arena: &mut ExecArena) -> Self {
        FastFailure {
            last_failed: std::mem::take(&mut arena.failed),
            last: LastCmp::recycled(std::mem::take(&mut arena.last_bytes)),
            ..FastFailure::default()
        }
    }

    /// [`finish`](EventSink::finish), then returns the buffers to
    /// `arena` for the next execution.
    pub(crate) fn finish_into(self, arena: &mut ExecArena) -> FastSummary {
        let summary = self.summarize();
        arena.failed = self.last_failed;
        arena.last_bytes = self.last.bytes;
        summary
    }

    fn summarize(&self) -> FastSummary {
        FastSummary {
            rejection_index: self.rejection,
            last_failed: self.last_failed.last().map(|v| v.materialise()),
            last_cmp_fingerprint: self.last.fingerprint(),
            avg_stack_size: self.last.avg_stack_size(),
            eof_access: self.eof,
            events: self.events,
        }
    }
}

impl EventSink for FastFailure {
    type Summary = FastSummary;

    fn begin(&mut self, _input_len: usize) {
        self.last_failed.clear();
    }

    fn on_cmp(&mut self, meta: CmpMeta, expected: LazyCmpValue<'_>) {
        self.events += 1;
        self.last.note(meta, &expected);
        if meta.observed.is_none() || meta.outcome {
            return;
        }
        match self.rejection {
            // a failed comparison at or past the current rejection index
            // both advances the index and becomes the new last failure
            Some(r) if meta.index < r => {}
            _ => {
                self.rejection = Some(meta.index);
                self.last_failed.set(&expected);
            }
        }
    }

    fn on_branch(&mut self, _branch: BranchId, _pos: usize) {
        self.events += 1;
    }

    fn on_eof(&mut self, index: usize) {
        self.events += 1;
        if self.eof.is_none() {
            self.eof = Some(index);
        }
    }

    fn finish(self) -> FastSummary {
        self.summarize()
    }
}

// ---- ExecLog reference conversions ----------------------------------------

impl ExecLog {
    /// Reduces a full log to the [`CoverageOnly`] summary — the
    /// reference implementation the streaming sink must agree with, and
    /// the fallback for subjects without a native coverage entry point.
    pub fn coverage_summary(&self) -> CovSummary {
        let branch_seq: Vec<BranchId> = self
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Branch(b, _) => Some(*b),
                _ => None,
            })
            .collect();
        CovSummary {
            branches: branch_seq.iter().copied().collect(),
            branch_seq,
            eof_access: self.eof_access(),
            events: self.events.len() as u64,
        }
    }

    /// Reduces a full log to the [`LastFailure`] summary — the
    /// reference implementation the streaming sink must agree with, and
    /// the fallback for subjects without a native last-failure entry
    /// point.
    pub fn failure_summary(&self) -> FailureSummary {
        FailureSummary {
            branches_up_to_rejection: self.branches_up_to_rejection(),
            candidates: self.substitution_candidates(),
            accepted_first: self.accepted_first_bytes(),
            ..self.lean_failure_summary()
        }
    }

    /// Reduces a full log to the lean [`LastFailure`] summary: the
    /// substitution fields stay empty (see [`FailureSummary`]).
    pub(crate) fn lean_failure_summary(&self) -> FailureSummary {
        let branches = self.branches();
        FailureSummary {
            path_hash: branches.path_hash(),
            branches,
            branches_up_to_rejection: BranchSet::new(),
            rejection_index: self.rejection_index(),
            candidates: Vec::new(),
            expected_tokens: self.expected_tokens(),
            accepted_first: Vec::new(),
            avg_stack_size: self.avg_stack_size(),
            eof_access: self.eof_access(),
            events: self.events.len() as u64,
            last_cmp_fingerprint: self.last_cmp_fingerprint(),
        }
    }

    /// Reduces a full log to the [`FastFailure`] summary — the reference
    /// implementation the streaming sink must agree with, and the
    /// fallback for subjects without a native fast-failure entry point.
    pub fn fast_summary(&self) -> FastSummary {
        let rejection_index = self.rejection_index();
        let last_failed = rejection_index.and_then(|idx| {
            self.comparisons()
                .filter(|c| c.index == idx && c.observed.is_some() && !c.outcome)
                .last()
                .map(|c| c.expected.clone())
        });
        FastSummary {
            rejection_index,
            last_failed,
            last_cmp_fingerprint: self.last_cmp_fingerprint(),
            avg_stack_size: self.avg_stack_size(),
            eof_access: self.eof_access(),
            events: self.events.len() as u64,
        }
    }

    /// [`cmp_fingerprint`] of the last comparison event, `0` when the
    /// run made no comparison.
    pub fn last_cmp_fingerprint(&self) -> u64 {
        self.comparisons().last().map_or(0, Cmp::fingerprint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::ExecCtx;
    use crate::site::SiteId;
    use crate::{cov, kw, lit, one_of, range};

    fn drive<S: EventSink>(ctx: &mut ExecCtx<S>) {
        one_of!(ctx, b"([{");
        range!(ctx, b'0', b'9');
        if !kw!(ctx, "while") {
            lit!(ctx, b'w');
        }
        lit!(ctx, b'(');
        while ctx.next_byte().is_some() {}
        ctx.at_end();
    }

    fn summaries(input: &[u8]) -> (ExecLog, CovSummary, FailureSummary) {
        let mut full = ExecCtx::new(input);
        drive(&mut full);
        let log = full.into_log();

        let mut cov = ExecCtx::with_sink(input, crate::ctx::DEFAULT_FUEL, CoverageOnly::default());
        drive(&mut cov);
        let cov = cov.finish();

        let mut last = ExecCtx::with_sink(input, crate::ctx::DEFAULT_FUEL, LastFailure::default());
        drive(&mut last);
        let last = last.finish();

        (log, cov, last)
    }

    #[test]
    fn coverage_sink_matches_full_log_reduction() {
        for input in [&b""[..], b"(", b"w7", b"while(", b"zzz", b"{0while"] {
            let (log, cov, _) = summaries(input);
            assert_eq!(cov, log.coverage_summary(), "input {input:?}");
        }
    }

    #[test]
    fn last_failure_sink_matches_full_log_reduction() {
        for input in [
            &b""[..],
            b"(",
            b"w7",
            b"while(",
            b"zzz",
            b"{0while",
            b"whale",
        ] {
            let (log, _, last) = summaries(input);
            assert_eq!(last, log.failure_summary(), "input {input:?}");
        }
    }

    #[test]
    fn coverage_sink_counts_every_event() {
        let (log, cov, last) = summaries(b"w123");
        assert_eq!(cov.events, log.events.len() as u64);
        assert_eq!(last.events, log.events.len() as u64);
    }

    const INPUTS: [&[u8]; 7] = [b"", b"(", b"w7", b"while(", b"zzz", b"{0while", b"whale"];

    #[test]
    fn fast_failure_sink_matches_full_log_reduction() {
        for input in INPUTS {
            let (log, _, _) = summaries(input);
            let mut fast =
                ExecCtx::with_sink(input, crate::ctx::DEFAULT_FUEL, FastFailure::default());
            drive(&mut fast);
            assert_eq!(fast.finish(), log.fast_summary(), "input {input:?}");
        }
    }

    #[test]
    fn fast_failure_agrees_with_last_failure_on_shared_fields() {
        for input in INPUTS {
            let (_, _, last) = summaries(input);
            let mut ctx =
                ExecCtx::with_sink(input, crate::ctx::DEFAULT_FUEL, FastFailure::default());
            drive(&mut ctx);
            let fast = ctx.finish();
            assert_eq!(
                fast.rejection_index, last.rejection_index,
                "input {input:?}"
            );
            assert_eq!(
                fast.last_cmp_fingerprint, last.last_cmp_fingerprint,
                "input {input:?}"
            );
            assert_eq!(fast.eof_access, last.eof_access, "input {input:?}");
            assert_eq!(fast.events, last.events, "input {input:?}");
            assert_eq!(fast.avg_stack_size, last.avg_stack_size, "input {input:?}");
        }
    }

    #[test]
    fn recycled_last_failure_matches_fresh_sink() {
        let mut arena = ExecArena::default();
        for _ in 0..3 {
            // repeat so later rounds run on reused (dirty) buffers
            for input in INPUTS {
                let mut fresh =
                    ExecCtx::with_sink(input, crate::ctx::DEFAULT_FUEL, LastFailure::default());
                drive(&mut fresh);
                let fresh = fresh.finish();

                let sink = LastFailure::recycled(&mut arena);
                let mut ctx = ExecCtx::with_sink(input, crate::ctx::DEFAULT_FUEL, sink);
                drive(&mut ctx);
                let (_, sink) = ctx.into_parts();
                let recycled = sink.finish_into(&mut arena);
                assert_eq!(recycled, fresh, "input {input:?}");
            }
        }
        assert!(arena.branches.len() > 0, "buffers returned to the arena");
    }

    /// Runs `parse` on `input` under the full log and under both
    /// failure sinks recycled through `arena`, and checks the streaming
    /// summaries (full, lean and derived fast) against the full-log
    /// reductions.
    type Parser<S> = fn(&mut ExecCtx<S>);

    fn check_recycled(
        arena: &mut ExecArena,
        input: &[u8],
        parse: (Parser<FullLog>, Parser<LastFailure>, Parser<FastFailure>),
    ) {
        let mut full = ExecCtx::new(input);
        parse.0(&mut full);
        let log = full.into_log();

        let sink = LastFailure::recycled(arena);
        let mut ctx = ExecCtx::with_sink(input, crate::ctx::DEFAULT_FUEL, sink);
        parse.1(&mut ctx);
        let (_, sink) = ctx.into_parts();
        assert_eq!(sink.fast_summary(), log.fast_summary(), "input {input:?}");
        assert_eq!(
            sink.summarize(true),
            log.lean_failure_summary(),
            "input {input:?}"
        );
        assert_eq!(
            sink.finish_into(arena),
            log.failure_summary(),
            "input {input:?}"
        );

        let sink = FastFailure::recycled(arena);
        let mut ctx = ExecCtx::with_sink(input, crate::ctx::DEFAULT_FUEL, sink);
        parse.2(&mut ctx);
        let (_, sink) = ctx.into_parts();
        assert_eq!(
            sink.finish_into(arena),
            log.fast_summary(),
            "input {input:?}"
        );
    }

    /// Covers 40 distinct sites per input byte (each twice in a row),
    /// then rejects at the first non-`a` and covers error-handling
    /// sites that must stay out of `branches_up_to_rejection`.
    fn wide<S: EventSink>(ctx: &mut ExecCtx<S>) {
        let width = 40 * ctx.input().len() as u64;
        for i in 0..width {
            ctx.cov(SiteId::from_raw(i));
            ctx.cov(SiteId::from_raw(i));
        }
        while lit!(ctx, b'a') {}
        for i in 0..width {
            ctx.cov(SiteId::from_raw(i % 7));
            ctx.cov(SiteId::from_raw(1 << 40 | i));
        }
    }

    #[test]
    fn branch_index_grows_then_serves_small_runs() {
        let mut arena = ExecArena::default();
        // 400 and 800 distinct branches outgrow the first index sizes;
        // the small runs after them reuse the grown, dirty index
        let inputs: [&[u8]; 6] = [b"aaaaaaaaax", b"", b"ab", &[b'a'; 20], b"x", b"aaaa"];
        for _ in 0..2 {
            for input in inputs {
                check_recycled(&mut arena, input, (wide, wide, wide));
            }
        }
    }

    const LONG_KEYWORD: &str = "an_expected_keyword_long_enough_to_rule_out_any_fixed_inline_copy_\
                                of_the_comparison_value_0123456789";

    fn long_keyword<S: EventSink>(ctx: &mut ExecCtx<S>) {
        cov!(ctx);
        if !kw!(ctx, LONG_KEYWORD) {
            // a short comparison after the long one keeps the long value
            // in the failed list but not as the last comparison
            lit!(ctx, b'!');
        }
        kw!(ctx, LONG_KEYWORD);
    }

    #[test]
    fn long_string_comparisons_fingerprint_like_the_full_log() {
        let mut arena = ExecArena::default();
        let long = LONG_KEYWORD.as_bytes();
        let inputs: [&[u8]; 5] = [b"", b"an_exp", &long[..90], long, b"!an_x"];
        for _ in 0..2 {
            for input in inputs {
                check_recycled(
                    &mut arena,
                    input,
                    (long_keyword, long_keyword, long_keyword),
                );
            }
        }
    }

    #[test]
    fn recycled_full_log_matches_fresh_sink() {
        let mut arena = ExecArena::default();
        for _ in 0..3 {
            for input in INPUTS {
                let mut fresh = ExecCtx::new(input);
                drive(&mut fresh);
                let fresh = fresh.into_log();

                let sink = FullLog::recycled(&mut arena);
                let mut ctx = ExecCtx::with_sink(input, crate::ctx::DEFAULT_FUEL, sink);
                drive(&mut ctx);
                let log = ctx.finish();
                assert_eq!(log.events, fresh.events, "input {input:?}");
                assert_eq!(log.input_len, fresh.input_len, "input {input:?}");
                arena.recycle_log(log);
            }
        }
        assert!(arena.events.capacity() > 0, "buffer returned to the arena");
    }
}
