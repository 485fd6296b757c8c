//! Subjects: instrumented programs under test.

use std::fmt;

use crate::arena::ExecArena;
use crate::ctx::{ExecCtx, ParseError, DEFAULT_FUEL};
use crate::events::ExecLog;
use crate::isolate::catch_silent;
use crate::sink::{
    CovSummary, CoverageOnly, EventSink, FailureSummary, FastFailure, FastSummary, FullLog,
    LastFailure,
};

/// The type of an instrumented parser entry point (full-log sink).
pub type SubjectFn = fn(&mut ExecCtx) -> Result<(), ParseError>;

/// A parser entry point monomorphised for the coverage-only sink.
pub type CoverageSubjectFn = fn(&mut ExecCtx<CoverageOnly>) -> Result<(), ParseError>;

/// A parser entry point monomorphised for the last-failure sink.
pub type LastFailureSubjectFn = fn(&mut ExecCtx<LastFailure>) -> Result<(), ParseError>;

/// A parser entry point monomorphised for the fast-failure sink.
pub type FastFailureSubjectFn = fn(&mut ExecCtx<FastFailure>) -> Result<(), ParseError>;

/// How one subject execution ended — the paper's process exit status,
/// refined into a four-point lattice. Accept and reject are the normal
/// parser outcomes; a hang is a run that exhausted its fuel budget (the
/// in-process analogue of a timeout kill); a crash is a panic that
/// unwound out of the subject and was caught at the
/// [`Subject`] chokepoint.
///
/// # Example
///
/// ```
/// use pdf_runtime::{lit, ExecCtx, ParseError, Subject, Verdict};
///
/// fn p(ctx: &mut ExecCtx) -> Result<(), ParseError> {
///     if !lit!(ctx, b'a') {
///         return Err(ctx.reject("want 'a'"));
///     }
///     if ctx.peek().is_some() {
///         panic!("trailing input");
///     }
///     Ok(())
/// }
/// let s = Subject::new("a", p);
/// assert_eq!(s.run(b"a").verdict, Verdict::Accept);
/// assert!(matches!(s.run(b"b").verdict, Verdict::Reject { .. }));
/// // the panic is caught at the chokepoint; the campaign survives
/// assert!(matches!(s.run(b"ab").verdict, Verdict::Crash { .. }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The input was accepted as valid.
    Accept,
    /// The parser rejected the input.
    Reject {
        /// The parser's rejection message. A [`Cow`](std::borrow::Cow)
        /// so the (near-universal) static-literal rejection costs no
        /// allocation per execution.
        msg: std::borrow::Cow<'static, str>,
    },
    /// The run exhausted its fuel budget before finishing. Takes
    /// precedence over accept/reject: whatever the parser returned after
    /// running out of fuel is an artifact of the starved reads, not a
    /// judgement about the input.
    Hang,
    /// The subject panicked; the panic was caught and the campaign
    /// continues.
    Crash {
        /// The panic message.
        panic_msg: String,
        /// Stable crash fingerprint: FNV-1a over the tail of recorded
        /// sites (see [`ExecCtx::crash_dedup_key`]). Two crashes with
        /// equal keys died at the same place via the same approach.
        dedup_key: u64,
    },
}

impl Verdict {
    /// Whether the input was accepted.
    pub fn is_accept(&self) -> bool {
        matches!(self, Verdict::Accept)
    }

    /// Whether the run exhausted its fuel.
    pub fn is_hang(&self) -> bool {
        matches!(self, Verdict::Hang)
    }

    /// Whether the subject panicked.
    pub fn is_crash(&self) -> bool {
        matches!(self, Verdict::Crash { .. })
    }

    /// The failure message for non-accepting verdicts, `None` on accept.
    /// Hangs and crashes carry stable prefixes (`"hang: "` / `"crash: "`)
    /// so downstream triage can classify from the message alone.
    pub fn error(&self) -> Option<String> {
        match self {
            Verdict::Accept => None,
            Verdict::Reject { msg } => Some(msg.clone().into_owned()),
            Verdict::Hang => Some("hang: fuel exhausted".to_string()),
            Verdict::Crash { panic_msg, .. } => Some(format!("crash: {panic_msg}")),
        }
    }
}

/// The result of running a subject on one input: the verdict (the
/// paper's process exit code) plus the instrumentation log.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Whether the input was accepted as valid.
    pub valid: bool,
    /// Rejection message, when invalid.
    pub error: Option<String>,
    /// How the run ended (accept / reject / hang / crash).
    pub verdict: Verdict,
    /// The recorded event streams.
    pub log: ExecLog,
}

/// The result of a coverage-only run.
#[derive(Debug, Clone)]
pub struct CovExecution {
    /// Whether the input was accepted as valid.
    pub valid: bool,
    /// Rejection message, when invalid.
    pub error: Option<String>,
    /// How the run ended (accept / reject / hang / crash).
    pub verdict: Verdict,
    /// The coverage summary of the run.
    pub cov: CovSummary,
}

/// The result of a last-failure run.
///
/// Like [`FastExecution`], it carries no eager `error` field: the driver
/// never reads the rejection message, so [`error`](FailureExecution::error)
/// clones it out of the verdict only when asked.
#[derive(Debug, Clone)]
pub struct FailureExecution {
    /// Whether the input was accepted as valid.
    pub valid: bool,
    /// How the run ended (accept / reject / hang / crash).
    pub verdict: Verdict,
    /// The failure summary of the run.
    pub failure: FailureSummary,
}

impl FailureExecution {
    /// Rejection message, when invalid — cloned out of the verdict on
    /// demand.
    pub fn error(&self) -> Option<String> {
        self.verdict.error()
    }
}

/// The result of a fast-failure run (the cheap tier).
///
/// Unlike the other execution results there is no eager `error` field:
/// the fast tier exists to keep per-execution cost near zero, and
/// cloning the rejection message out of the verdict would put one
/// allocation back on every rejected execution. Use
/// [`error`](FastExecution::error) when a message is actually needed.
#[derive(Debug, Clone)]
pub struct FastExecution {
    /// Whether the input was accepted as valid.
    pub valid: bool,
    /// How the run ended (accept / reject / hang / crash).
    pub verdict: Verdict,
    /// The fast summary of the run.
    pub fast: FastSummary,
}

impl FastExecution {
    /// Rejection message, when invalid — cloned out of the verdict on
    /// demand rather than on every execution.
    pub fn error(&self) -> Option<String> {
        self.verdict.error()
    }
}

/// A finished [`LastFailure`] run whose summary is not built yet
/// ([`Subject::failure_run`]). Once the verdict is known, the caller
/// pays only for the summary it will read: the full [`FailureSummary`]
/// ([`finish`](Self::finish)), a lean one without the substitution
/// fields ([`finish_lean`](Self::finish_lean)), or just the
/// [`FastSummary`] fields ([`fast_summary`](Self::fast_summary), then
/// [`into_verdict`](Self::into_verdict)). Each of the consuming methods
/// hands the sink's buffers back to the arena; dropping the run instead
/// is safe, the arena then reallocates on its next use.
#[derive(Debug)]
pub struct FailureRun<'a> {
    arena: &'a mut ExecArena,
    verdict: Verdict,
    sink: PendingSink,
}

/// The unsummarised sink: native, or the full-log fallback for subjects
/// without a last-failure entry point. Unboxed: a run lives for one
/// call, and boxing the native sink would allocate on every execution.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum PendingSink {
    Native(LastFailure),
    Log(ExecLog),
}

impl FailureRun<'_> {
    /// How the run ended.
    pub fn verdict(&self) -> &Verdict {
        &self.verdict
    }

    /// Exactly the [`FastSummary`] a [`FastFailure`] run of the same input
    /// reports, derived from this run without a second execution.
    pub fn fast_summary(&self) -> FastSummary {
        match &self.sink {
            PendingSink::Native(sink) => sink.fast_summary(),
            PendingSink::Log(log) => log.fast_summary(),
        }
    }

    /// The full summary, identical to [`Subject::run_last_failure`]'s.
    pub fn finish(self) -> FailureExecution {
        self.finish_with(false)
    }

    /// The lean summary: `branches_up_to_rejection`, `candidates` and
    /// `accepted_first` stay empty, every other field equals the full
    /// summary's.
    pub fn finish_lean(self) -> FailureExecution {
        self.finish_with(true)
    }

    fn finish_with(self, lean: bool) -> FailureExecution {
        let failure = match self.sink {
            PendingSink::Native(sink) => {
                let failure = sink.summarize(lean);
                sink.recycle(self.arena);
                failure
            }
            PendingSink::Log(log) => {
                let failure = if lean {
                    log.lean_failure_summary()
                } else {
                    log.failure_summary()
                };
                self.arena.recycle_log(log);
                failure
            }
        };
        FailureExecution {
            valid: self.verdict.is_accept(),
            verdict: self.verdict,
            failure,
        }
    }

    /// Hands the buffers back without building a summary.
    pub fn into_verdict(self) -> Verdict {
        match self.sink {
            PendingSink::Native(sink) => sink.recycle(self.arena),
            PendingSink::Log(log) => self.arena.recycle_log(log),
        }
        self.verdict
    }
}

/// An instrumented program under test.
///
/// Wraps a parser entry point together with a display name; each call to
/// [`run`](Subject::run) executes the parser in a fresh [`ExecCtx`], so
/// runs are independent and deterministic.
///
/// Subjects registered through [`instrument_subject!`](crate::instrument_subject)
/// additionally carry entry points monomorphised for the streaming
/// [`CoverageOnly`] and [`LastFailure`] sinks, making
/// [`run_coverage`](Subject::run_coverage) and
/// [`run_last_failure`](Subject::run_last_failure) allocation-lean. For
/// subjects built with plain [`Subject::new`], both fall back to a
/// full-log run reduced after the fact — same summaries, full-log cost.
///
/// # Example
///
/// ```
/// use pdf_runtime::{lit, ExecCtx, ParseError, Subject};
/// fn p(ctx: &mut ExecCtx) -> Result<(), ParseError> {
///     if !lit!(ctx, b'!') { return Err(ctx.reject("want '!'")); }
///     ctx.expect_end()
/// }
/// let s = Subject::new("bang", p);
/// assert!(s.run(b"!").valid);
/// assert!(!s.run(b"?").valid);
/// ```
#[derive(Clone, Copy)]
pub struct Subject {
    name: &'static str,
    entry: SubjectFn,
    coverage_entry: Option<CoverageSubjectFn>,
    last_failure_entry: Option<LastFailureSubjectFn>,
    fast_failure_entry: Option<FastFailureSubjectFn>,
    fuel: u64,
}

fn classify(
    result: Result<Result<(), ParseError>, String>,
    ctx_hung: bool,
    dedup_key: u64,
) -> Verdict {
    match result {
        Err(panic_msg) => Verdict::Crash {
            panic_msg,
            dedup_key,
        },
        Ok(_) if ctx_hung => Verdict::Hang,
        Ok(Ok(())) => Verdict::Accept,
        Ok(Err(e)) => Verdict::Reject {
            msg: e.into_message(),
        },
    }
}

impl Subject {
    /// Creates a subject with the default fuel budget.
    pub fn new(name: &'static str, entry: SubjectFn) -> Self {
        Subject {
            name,
            entry,
            coverage_entry: None,
            last_failure_entry: None,
            fast_failure_entry: None,
            fuel: DEFAULT_FUEL,
        }
    }

    /// Sets the per-run fuel budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Registers a coverage-only entry point (the same parser
    /// monomorphised over [`CoverageOnly`]).
    pub fn with_coverage_entry(mut self, entry: CoverageSubjectFn) -> Self {
        self.coverage_entry = Some(entry);
        self
    }

    /// Registers a last-failure entry point (the same parser
    /// monomorphised over [`LastFailure`]).
    pub fn with_last_failure_entry(mut self, entry: LastFailureSubjectFn) -> Self {
        self.last_failure_entry = Some(entry);
        self
    }

    /// Registers a fast-failure entry point (the same parser
    /// monomorphised over [`FastFailure`]).
    pub fn with_fast_failure_entry(mut self, entry: FastFailureSubjectFn) -> Self {
        self.fast_failure_entry = Some(entry);
        self
    }

    /// The subject's display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Whether native (streaming-sink) entry points are registered.
    pub fn has_native_sinks(&self) -> bool {
        self.coverage_entry.is_some() && self.last_failure_entry.is_some()
    }

    /// The full-log entry point. Exposed so wrapper subjects (e.g. the
    /// chaos layer in `pdf-subjects`) can delegate to the inner parser.
    pub fn entry(&self) -> SubjectFn {
        self.entry
    }

    /// The coverage-only entry point, when registered.
    pub fn coverage_entry(&self) -> Option<CoverageSubjectFn> {
        self.coverage_entry
    }

    /// The last-failure entry point, when registered.
    pub fn last_failure_entry(&self) -> Option<LastFailureSubjectFn> {
        self.last_failure_entry
    }

    /// The fast-failure entry point, when registered.
    pub fn fast_failure_entry(&self) -> Option<FastFailureSubjectFn> {
        self.fast_failure_entry
    }

    /// The per-run fuel budget.
    pub fn fuel(&self) -> u64 {
        self.fuel
    }

    /// The single execution chokepoint (with [`exec_ctx`](Self::exec_ctx)
    /// as its body): every run of every sink flavour — including the
    /// batch executors — goes through here, so panic isolation (the
    /// subject runs under [`catch_silent`]), the hang/crash
    /// classification and the metrics instrumentation are uniform across
    /// [`run`](Self::run), [`run_coverage`](Self::run_coverage),
    /// [`run_last_failure`](Self::run_last_failure),
    /// [`run_fast_failure`](Self::run_fast_failure) and the
    /// `exec_batch_*` family.
    ///
    /// Metrics (exec count, verdict class, latency, input length) go to
    /// the thread's installed `pdf-obs` registry, if any. The clock is
    /// read only when a registry is installed, and nothing recorded here
    /// flows back into the run — metrics are observe-only by
    /// construction.
    fn exec<S: EventSink>(
        &self,
        input: &[u8],
        entry: fn(&mut ExecCtx<S>) -> Result<(), ParseError>,
        sink: S,
    ) -> (Verdict, S::Summary) {
        let (verdict, ctx) = self.exec_ctx(input.to_vec(), entry, sink);
        (verdict, ctx.finish())
    }

    /// [`exec`](Self::exec) with the input copied into the arena's input
    /// buffer, returning the sink unsummarised.
    fn exec_arena<S: EventSink>(
        &self,
        arena: &mut ExecArena,
        input: &[u8],
        entry: fn(&mut ExecCtx<S>) -> Result<(), ParseError>,
        sink: S,
    ) -> (Verdict, S) {
        let mut buf = std::mem::take(&mut arena.input_buf);
        buf.clear();
        buf.extend_from_slice(input);
        let (verdict, ctx) = self.exec_ctx(buf, entry, sink);
        let (buf, sink) = ctx.into_parts();
        arena.input_buf = buf;
        (verdict, sink)
    }

    /// The chokepoint body over an owned input buffer, returning the
    /// context unfinished so the batch executors can recycle its input
    /// buffer and sink. All metrics are recorded here, before the sink
    /// is summarised.
    fn exec_ctx<S: EventSink>(
        &self,
        input: Vec<u8>,
        entry: fn(&mut ExecCtx<S>) -> Result<(), ParseError>,
        sink: S,
    ) -> (Verdict, ExecCtx<S>) {
        let start = pdf_obs::enabled().then(std::time::Instant::now);
        let input_len = input.len();
        let mut ctx = ExecCtx::with_sink_owned(input, self.fuel, sink);
        let result = catch_silent(|| entry(&mut ctx));
        let verdict = classify(result, ctx.exhausted(), ctx.crash_dedup_key());
        if let Some(start) = start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            pdf_obs::record(|m| {
                m.execs.inc();
                match &verdict {
                    Verdict::Accept => m.accepts.inc(),
                    Verdict::Reject { .. } => m.rejects.inc(),
                    Verdict::Hang => m.hangs.inc(),
                    Verdict::Crash { .. } => m.crashes.inc(),
                }
                m.exec_latency_ns.observe(ns);
                m.input_len.observe(input_len as u64);
            });
        }
        (verdict, ctx)
    }

    /// Runs the subject on `input`, returning verdict and log.
    ///
    /// A run that exhausts its fuel (a hang, in the paper's terms) counts
    /// as invalid, as does one that panics (the panic is caught here).
    pub fn run(&self, input: &[u8]) -> Execution {
        let (verdict, log) = self.exec(input, self.entry, FullLog::default());
        Execution {
            valid: verdict.is_accept(),
            error: verdict.error(),
            verdict,
            log,
        }
    }

    /// Runs the subject with the [`CoverageOnly`] sink: verdict, branch
    /// coverage and EOF flag, nothing else.
    pub fn run_coverage(&self, input: &[u8]) -> CovExecution {
        match self.coverage_entry {
            Some(entry) => {
                let (verdict, cov) = self.exec(input, entry, CoverageOnly::default());
                CovExecution {
                    valid: verdict.is_accept(),
                    error: verdict.error(),
                    verdict,
                    cov,
                }
            }
            None => {
                let exec = self.run(input);
                CovExecution {
                    valid: exec.valid,
                    error: exec.error,
                    verdict: exec.verdict,
                    cov: exec.log.coverage_summary(),
                }
            }
        }
    }

    /// Runs the subject with the [`LastFailure`] sink: verdict plus the
    /// precomputed substitution-driver summary. Falls back to a full-log
    /// run reduced via [`ExecLog::failure_summary`] for subjects without
    /// a native last-failure entry point.
    pub fn run_last_failure(&self, input: &[u8]) -> FailureExecution {
        self.run_last_failure_arena(&mut ExecArena::new(), input)
    }

    /// Runs the subject with the [`FastFailure`] sink: verdict, rejection
    /// index and last comparison, nothing else. Falls back to a full-log
    /// run reduced via [`ExecLog::fast_summary`] for subjects without a
    /// native fast-failure entry point.
    pub fn run_fast_failure(&self, input: &[u8]) -> FastExecution {
        self.run_fast_failure_arena(&mut ExecArena::new(), input)
    }

    /// [`run_fast_failure`](Self::run_fast_failure) through an
    /// [`ExecArena`]: the input copy and the sink's buffers reuse the
    /// arena's (the full-log fallback recycles its event buffer).
    /// Summary and verdict are identical to the arena-less run.
    pub fn run_fast_failure_arena(&self, arena: &mut ExecArena, input: &[u8]) -> FastExecution {
        let (verdict, fast) = match self.fast_failure_entry {
            Some(entry) => {
                let sink = FastFailure::recycled(arena);
                let (verdict, sink) = self.exec_arena(arena, input, entry, sink);
                (verdict, sink.finish_into(arena))
            }
            None => {
                let sink = FullLog::recycled(arena);
                let (verdict, sink) = self.exec_arena(arena, input, self.entry, sink);
                let log = sink.finish();
                let fast = log.fast_summary();
                arena.recycle_log(log);
                (verdict, fast)
            }
        };
        FastExecution {
            valid: verdict.is_accept(),
            verdict,
            fast,
        }
    }

    /// [`run_last_failure`](Self::run_last_failure) through an
    /// [`ExecArena`]: the input copy and the sink's internal vectors all
    /// reuse the arena's buffers (the full-log fallback recycles its
    /// event buffer). Summary and verdict are identical to the arena-less
    /// run (the recycled-sink property tests hold the two paths equal).
    pub fn run_last_failure_arena(&self, arena: &mut ExecArena, input: &[u8]) -> FailureExecution {
        self.failure_run(arena, input).finish()
    }

    /// Runs the subject with the [`LastFailure`] sink through `arena`
    /// and stops before summarising, so the caller can choose, from the
    /// verdict, how much summary to build (see [`FailureRun`]). The run
    /// passes through the metrics chokepoint like any other.
    pub fn failure_run<'a>(&self, arena: &'a mut ExecArena, input: &[u8]) -> FailureRun<'a> {
        let (verdict, sink) = match self.last_failure_entry {
            Some(entry) => {
                let sink = LastFailure::recycled(arena);
                let (verdict, sink) = self.exec_arena(arena, input, entry, sink);
                (verdict, PendingSink::Native(sink))
            }
            None => {
                let sink = FullLog::recycled(arena);
                let (verdict, sink) = self.exec_arena(arena, input, self.entry, sink);
                (verdict, PendingSink::Log(sink.finish()))
            }
        };
        FailureRun {
            arena,
            verdict,
            sink,
        }
    }

    /// Executes every candidate in `inputs` under the [`FastFailure`]
    /// sink, amortising input copies, sink wiring and result storage
    /// through `arena`. Returns the per-candidate results in input
    /// order; the slice lives in the arena and is overwritten by the
    /// next batch call.
    ///
    /// Each candidate still passes through the metrics chokepoint
    /// individually, so exec counters and verdict identities are
    /// unchanged relative to N single runs.
    ///
    /// No campaign calls it: the driver runs [`failure_run`](Self::failure_run)
    /// and the generator flood runs each input once under coverage. It
    /// stays for the benchmark's per-layer fixture, which times the fast
    /// tier through it, and for the `exec_batch` bench.
    pub fn exec_batch_fast<'a, I: AsRef<[u8]>>(
        &self,
        arena: &'a mut ExecArena,
        inputs: &[I],
    ) -> &'a [FastExecution] {
        let mut results = std::mem::take(&mut arena.fast_results);
        results.clear();
        results.reserve(inputs.len());
        for input in inputs {
            results.push(self.run_fast_failure_arena(arena, input.as_ref()));
        }
        arena.fast_results = results;
        &arena.fast_results
    }
}

impl fmt::Debug for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Subject")
            .field("name", &self.name)
            .field("fuel", &self.fuel)
            .field("native_sinks", &self.has_native_sinks())
            .finish()
    }
}

/// Builds a [`Subject`] from a sink-generic parser entry point,
/// registering all four monomorphisations (full log, coverage only,
/// last failure, fast failure):
///
/// ```
/// use pdf_runtime::{instrument_subject, lit, EventSink, ExecCtx, ParseError};
///
/// fn parse<S: EventSink>(ctx: &mut ExecCtx<S>) -> Result<(), ParseError> {
///     if !lit!(ctx, b'!') { return Err(ctx.reject("want '!'")); }
///     ctx.expect_end()
/// }
///
/// let subject = instrument_subject!("bang", parse);
/// assert!(subject.has_native_sinks());
/// assert!(subject.run_coverage(b"!").valid);
/// assert!(subject.run_fast_failure(b"!").valid);
/// ```
#[macro_export]
macro_rules! instrument_subject {
    ($name:expr, $entry:ident) => {
        $crate::Subject::new($name, $entry::<$crate::FullLog>)
            .with_coverage_entry($entry::<$crate::CoverageOnly>)
            .with_last_failure_entry($entry::<$crate::LastFailure>)
            .with_fast_failure_entry($entry::<$crate::FastFailure>)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cov, lit};

    fn accept_a<S: EventSink>(ctx: &mut ExecCtx<S>) -> Result<(), ParseError> {
        if !lit!(ctx, b'a') {
            return Err(ctx.reject("want a"));
        }
        ctx.expect_end()
    }

    fn spin(ctx: &mut ExecCtx) -> Result<(), ParseError> {
        while ctx.tick() {}
        Ok(())
    }

    #[test]
    fn run_valid_and_invalid() {
        let s = Subject::new("a", accept_a);
        let ok = s.run(b"a");
        assert!(ok.valid);
        assert!(ok.error.is_none());
        let bad = s.run(b"b");
        assert!(!bad.valid);
        assert_eq!(bad.error.as_deref(), Some("want a"));
    }

    #[test]
    fn runs_are_independent() {
        let s = Subject::new("a", accept_a);
        let first = s.run(b"b");
        let second = s.run(b"b");
        assert_eq!(first.log.cmp_count(), second.log.cmp_count());
    }

    #[test]
    fn hang_counts_as_invalid() {
        let s = Subject::new("spin", spin).with_fuel(100);
        let e = s.run(b"x");
        assert!(!e.valid);
        assert!(e.error.unwrap().contains("hang"));
    }

    #[test]
    fn debug_is_nonempty() {
        let s = Subject::new("a", accept_a);
        assert!(!format!("{s:?}").is_empty());
    }

    #[test]
    fn instrumented_subject_has_native_sinks() {
        let s = instrument_subject!("a", accept_a);
        assert!(s.has_native_sinks());
        assert!(!Subject::new("a", accept_a).has_native_sinks());
    }

    #[test]
    fn native_and_emulated_summaries_agree() {
        let native = instrument_subject!("a", accept_a);
        let emulated = Subject::new("a", accept_a);
        for input in [&b""[..], b"a", b"b", b"ab"] {
            let n = native.run_coverage(input);
            let e = emulated.run_coverage(input);
            assert_eq!(n.valid, e.valid);
            assert_eq!(n.cov, e.cov, "coverage mismatch on {input:?}");
            let n = native.run_last_failure(input);
            let e = emulated.run_last_failure(input);
            assert_eq!(n.valid, e.valid);
            assert_eq!(n.failure, e.failure, "failure mismatch on {input:?}");
        }
    }

    #[test]
    fn fast_failure_native_and_emulated_agree() {
        let native = instrument_subject!("a", accept_a);
        let emulated = Subject::new("a", accept_a);
        for input in [&b""[..], b"a", b"b", b"ab"] {
            let n = native.run_fast_failure(input);
            let e = emulated.run_fast_failure(input);
            assert_eq!(n.valid, e.valid);
            assert_eq!(n.error(), e.error());
            assert_eq!(n.fast, e.fast, "fast summary mismatch on {input:?}");
        }
    }

    #[test]
    fn batch_results_match_single_runs() {
        let inputs: Vec<&[u8]> = vec![b"", b"a", b"b", b"ab", b"aa"];
        for s in [
            instrument_subject!("a", accept_a),
            Subject::new("a", accept_a),
        ] {
            let mut arena = crate::ExecArena::new();
            let fast = s.exec_batch_fast(&mut arena, &inputs).to_vec();
            assert_eq!(fast.len(), inputs.len());
            for (got, input) in fast.iter().zip(&inputs) {
                let single = s.run_fast_failure(input);
                assert_eq!(got.valid, single.valid, "input {input:?}");
                assert_eq!(got.error(), single.error(), "input {input:?}");
                assert_eq!(got.fast, single.fast, "input {input:?}");
            }
            // the full tier loops through the same, now dirty, arena
            for input in &inputs {
                let got = s.run_last_failure_arena(&mut arena, input);
                let single = s.run_last_failure(input);
                assert_eq!(got.valid, single.valid, "input {input:?}");
                assert_eq!(got.failure, single.failure, "input {input:?}");
            }
            // the accessor exposes the latest batch
            assert_eq!(arena.fast_results().len(), inputs.len());
        }
    }

    #[test]
    fn arena_runs_match_plain_runs() {
        let s = instrument_subject!("a", accept_a);
        let mut arena = crate::ExecArena::new();
        for _ in 0..2 {
            for input in [&b""[..], b"a", b"b", b"ab"] {
                let a = s.run_last_failure_arena(&mut arena, input);
                let p = s.run_last_failure(input);
                assert_eq!(a.valid, p.valid);
                assert_eq!(a.failure, p.failure, "input {input:?}");
                let a = s.run_fast_failure_arena(&mut arena, input);
                let p = s.run_fast_failure(input);
                assert_eq!(a.fast, p.fast, "input {input:?}");
            }
        }
    }

    #[test]
    fn failure_run_derives_every_summary() {
        for s in [
            instrument_subject!("a", accept_a),
            Subject::new("a", accept_a),
        ] {
            let mut arena = crate::ExecArena::new();
            for input in [&b""[..], b"a", b"b", b"ab"] {
                let single = s.run_last_failure(input);
                let run = s.failure_run(&mut arena, input);
                assert_eq!(run.fast_summary(), s.run_fast_failure(input).fast);
                assert_eq!(run.into_verdict(), single.verdict, "input {input:?}");
                let full = s.failure_run(&mut arena, input).finish();
                assert_eq!(full.failure, single.failure, "input {input:?}");
                let lean = s.failure_run(&mut arena, input).finish_lean();
                assert_eq!(lean.failure.branches, single.failure.branches);
                assert!(lean.failure.candidates.is_empty(), "input {input:?}");
            }
        }
    }

    #[test]
    fn batch_execs_hit_the_metrics_chokepoint() {
        let reg = std::sync::Arc::new(pdf_obs::MetricsRegistry::new());
        let _scope = pdf_obs::install(std::sync::Arc::clone(&reg));
        let s = instrument_subject!("a", accept_a);
        let inputs: Vec<&[u8]> = vec![b"a", b"b", b"ab"];
        let mut arena = crate::ExecArena::new();
        s.exec_batch_fast(&mut arena, &inputs);
        assert_eq!(reg.execs.get(), 3);
        assert_eq!(reg.accepts.get(), 1);
        assert_eq!(reg.rejects.get(), 2);
        for input in &inputs {
            s.run_last_failure_arena(&mut arena, input);
        }
        assert_eq!(reg.execs.get(), 6);
        assert_eq!(reg.input_len.count(), 6);
        assert!(reg.snapshot().check_identities().is_ok());
    }

    #[test]
    fn hang_verdict_matches_across_sinks() {
        fn spin_generic<S: EventSink>(ctx: &mut ExecCtx<S>) -> Result<(), ParseError> {
            while ctx.tick() {}
            Ok(())
        }
        let s = instrument_subject!("spin", spin_generic).with_fuel(50);
        assert!(!s.run(b"x").valid);
        assert!(!s.run_coverage(b"x").valid);
        assert!(!s.run_last_failure(b"x").valid);
        assert!(!s.run_fast_failure(b"x").valid);
        assert_eq!(s.run_fast_failure(b"x").verdict, Verdict::Hang);
    }

    #[test]
    fn hang_message_is_uniform_across_sinks() {
        // satellite: run_coverage / run_last_failure must report fuel
        // exhaustion exactly like run — including when the parser
        // technically "rejected" after its reads were starved
        fn starved<S: EventSink>(ctx: &mut ExecCtx<S>) -> Result<(), ParseError> {
            while ctx.tick() {}
            Err(ctx.reject("spurious reject after starvation"))
        }
        let s = instrument_subject!("starved", starved).with_fuel(25);
        let full = s.run(b"x");
        let cov = s.run_coverage(b"x");
        let lf = s.run_last_failure(b"x");
        for (error, verdict) in [
            (full.error.clone(), &full.verdict),
            (cov.error.clone(), &cov.verdict),
            (lf.error(), &lf.verdict),
        ] {
            assert_eq!(error.as_deref(), Some("hang: fuel exhausted"));
            assert_eq!(*verdict, Verdict::Hang);
        }
    }

    #[test]
    fn panicking_subject_yields_crash_verdict() {
        fn boom<S: EventSink>(ctx: &mut ExecCtx<S>) -> Result<(), ParseError> {
            if lit!(ctx, b'a') {
                panic!("subject exploded");
            }
            ctx.expect_end()
        }
        let s = instrument_subject!("boom", boom);
        let e = s.run(b"a");
        assert!(!e.valid);
        let Verdict::Crash {
            ref panic_msg,
            dedup_key,
        } = e.verdict
        else {
            panic!("expected crash, got {:?}", e.verdict);
        };
        assert_eq!(panic_msg, "subject exploded");
        assert_eq!(e.error.as_deref(), Some("crash: subject exploded"));
        // the same crash via every sink carries the same dedup key
        let cov = s.run_coverage(b"a");
        let lf = s.run_last_failure(b"a");
        for v in [&cov.verdict, &lf.verdict] {
            let Verdict::Crash { dedup_key: k, .. } = v else {
                panic!("expected crash, got {v:?}");
            };
            assert_eq!(*k, dedup_key);
        }
        // the non-panicking path still works after a caught crash
        assert!(!s.run(b"b").valid);
        assert!(!s.run(b"b").verdict.is_crash());
    }

    #[test]
    fn distinct_panic_sites_have_distinct_dedup_keys() {
        fn two_ways<S: EventSink>(ctx: &mut ExecCtx<S>) -> Result<(), ParseError> {
            if lit!(ctx, b'1') {
                cov!(ctx);
                panic!("path one");
            }
            if lit!(ctx, b'2') {
                cov!(ctx);
                panic!("path two");
            }
            ctx.expect_end()
        }
        let s = instrument_subject!("two-ways", two_ways);
        let key = |input: &[u8]| match s.run(input).verdict {
            Verdict::Crash { dedup_key, .. } => dedup_key,
            v => panic!("expected crash, got {v:?}"),
        };
        assert_ne!(key(b"1"), key(b"2"));
        // same site, same approach: stable key
        assert_eq!(key(b"1"), key(b"1"));
    }

    #[test]
    fn exec_chokepoint_records_metrics() {
        let reg = std::sync::Arc::new(pdf_obs::MetricsRegistry::new());
        let _scope = pdf_obs::install(std::sync::Arc::clone(&reg));
        let s = instrument_subject!("a", accept_a);
        s.run(b"a"); // accept
        s.run_coverage(b"b"); // reject, native sink
        s.run_last_failure(b"ab"); // reject, native sink
        let hang = Subject::new("spin", spin).with_fuel(10);
        hang.run(b"x");
        assert_eq!(reg.execs.get(), 4);
        assert_eq!(reg.accepts.get(), 1);
        assert_eq!(reg.rejects.get(), 2);
        assert_eq!(reg.hangs.get(), 1);
        assert_eq!(reg.input_len.count(), 4);
        assert_eq!(reg.exec_latency_ns.count(), 4);
        assert!(reg.snapshot().check_identities().is_ok());
    }

    #[test]
    fn verdict_error_messages() {
        assert_eq!(Verdict::Accept.error(), None);
        assert!(Verdict::Accept.is_accept());
        assert_eq!(
            Verdict::Reject { msg: "nope".into() }.error().as_deref(),
            Some("nope")
        );
        assert!(Verdict::Hang.is_hang());
        let crash = Verdict::Crash {
            panic_msg: "kaboom".to_string(),
            dedup_key: 7,
        };
        assert!(crash.is_crash());
        assert_eq!(crash.error().as_deref(), Some("crash: kaboom"));
    }
}
