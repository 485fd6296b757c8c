//! Instrumentation substrate for parser-directed fuzzing.
//!
//! The pFuzzer paper ("Parser-Directed Fuzzing", PLDI 2019) instruments C
//! programs with an LLVM pass that records four streams of information
//! while the program parses an input:
//!
//! 1. **dynamic taints** relating every processed value to the input
//!    character(s) it was derived from,
//! 2. **comparisons** of tainted values (character and string comparisons),
//! 3. the **call stack** at the time of each comparison, and
//! 4. **branch coverage** (the sequence of basic blocks taken).
//!
//! This crate provides the same event streams for parsers written in Rust
//! against the [`ExecCtx`] API. A subject parser reads its input through
//! the context; every read, comparison and coverage point is recorded in an
//! [`ExecLog`] which the fuzzers in `pdf-core`, `pdf-afl` and
//! `pdf-symbolic` consume. Reading past the end of the input is recorded
//! as an *EOF access*, the signal pFuzzer uses to decide that the current
//! prefix is valid but incomplete.
//!
//! # Example
//!
//! A minimal instrumented parser that accepts the language `a+`:
//!
//! ```
//! use pdf_runtime::{cov, lit, ExecCtx, ParseError, Subject};
//!
//! fn parse_as(ctx: &mut ExecCtx) -> Result<(), ParseError> {
//!     cov!(ctx);
//!     if !lit!(ctx, b'a') {
//!         return Err(ctx.reject("expected 'a'"));
//!     }
//!     while lit!(ctx, b'a') {}
//!     ctx.expect_end()
//! }
//!
//! let subject = Subject::new("as", parse_as);
//! assert!(subject.run(b"aaa").valid);
//! assert!(!subject.run(b"ab").valid);
//! let exec = subject.run(b"b");
//! // The failed comparison against 'a' at index 0 was recorded:
//! let cands = exec.log.substitution_candidates();
//! assert_eq!(cands.len(), 1);
//! assert_eq!(cands[0].bytes, vec![b'a']);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
pub mod cli;
mod corpus;
mod coverage;
mod ctx;
mod events;
mod isolate;
mod journal;
pub mod record;
mod rng;
mod sink;
mod site;
mod stats;
mod subject;
mod taint;

pub use arena::ExecArena;
pub use corpus::distill;
pub use coverage::{BranchId, BranchSet};
pub use ctx::{ExecCtx, ParseError, DEFAULT_FUEL, SITE_TAIL_LEN};
pub use events::{
    cmp_fingerprint, Candidate, Cmp, CmpMeta, CmpValue, Event, ExecLog, LazyCmpValue,
    ReplacementScratch,
};
pub use isolate::catch_silent;
pub use journal::{digest_bytes, CellRecord, Digest, Journal};
pub use record::RecordError;
pub use rng::{splitmix64, DerivedRng, Rng};
pub use sink::{
    CovSummary, CoverageOnly, EventSink, FailureSummary, FastFailure, FastSummary, FullLog,
    LastFailure,
};
pub use site::SiteId;
pub use stats::{PhaseClock, RunStats};
pub use subject::{
    CovExecution, CoverageSubjectFn, Execution, FailureExecution, FailureRun, FastExecution,
    FastFailureSubjectFn, LastFailureSubjectFn, Subject, SubjectFn, Verdict,
};
pub use taint::TStr;
