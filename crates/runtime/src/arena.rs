//! Reusable execution scratch for the batched hot path.
//!
//! *Building Fast Fuzzers* (PAPERS.md) attributes most per-execution
//! cost in interpreter-style harnesses to setup/teardown rather than
//! parsing; our equivalent is the per-exec allocation of the input
//! copy, the sinks' branch index, watermark and value buffers, the
//! event vector and the batch result vectors. An [`ExecArena`] owns all
//! of those buffers and hands them to each execution *cleared, not
//! reallocated*, so a batch of N candidate runs through
//! [`Subject::exec_batch_fast`](crate::Subject::exec_batch_fast) or a
//! loop of [`Subject::failure_run`](crate::Subject::failure_run) calls
//! performs a bounded number of allocations total instead of a handful
//! per candidate.
//!
//! The arena is plain owned state — no unsafe, no interior mutability.
//! Sinks borrow buffers via [`LastFailure::recycled`](crate::LastFailure::recycled)
//! / `FastFailure::recycled` /
//! [`FullLog::recycled`](crate::FullLog::recycled) (a `mem::take`) and
//! return them in [`finish_into`](crate::LastFailure::finish_into) /
//! [`recycle_log`](ExecArena::recycle_log). Dropping a sink without
//! returning its buffers is safe; the arena simply reallocates next
//! time.
//!
//! # Example
//!
//! ```
//! use pdf_runtime::ExecArena;
//!
//! let subject = pdf_runtime::Subject::new("demo", |ctx| ctx.expect_end());
//! let mut arena = ExecArena::new();
//! let candidates: Vec<&[u8]> = vec![b"", b"x", b"xy"];
//! let results = subject.exec_batch_fast(&mut arena, &candidates);
//! assert_eq!(results.len(), 3);
//! assert!(results[0].valid);
//! ```

use crate::coverage::DistinctBranches;
use crate::events::{Event, ExecLog};
use crate::sink::ValueBuf;
use crate::subject::FastExecution;

/// Preallocated scratch shared by a sequence of executions: the input
/// copy, the sinks' internal vectors and the batch result vectors, all
/// cleared and reused between runs.
///
/// *Building Fast Fuzzers* (PAPERS.md) attributes most per-execution
/// cost in interpreter-style harnesses to setup/teardown rather than
/// parsing; the arena removes our equivalent, so a batch of N runs
/// through [`Subject::exec_batch_fast`](crate::Subject::exec_batch_fast)
/// or a loop of [`Subject::failure_run`](crate::Subject::failure_run)
/// calls performs a bounded number of allocations total instead of a
/// handful per candidate.
#[derive(Debug, Default)]
pub struct ExecArena {
    /// Input bytes of the execution in flight (recycled copy target).
    pub(crate) input_buf: Vec<u8>,
    /// Distinct-branch list and its index (`LastFailure::branches`).
    pub(crate) branches: DistinctBranches,
    /// Per-input-index watermark buffer (`LastFailure::watermarks`).
    pub(crate) watermarks: Vec<u32>,
    /// Failed-comparison values (`LastFailure::failed`,
    /// `FastFailure::last_failed`).
    pub(crate) failed: ValueBuf,
    /// Last-comparison string bytes (both failure sinks).
    pub(crate) last_bytes: Vec<u8>,
    /// Flat event buffer for recycled `FullLog` runs.
    pub(crate) events: Vec<Event>,
    /// Result slots for [`Subject::exec_batch_fast`](crate::Subject::exec_batch_fast).
    pub(crate) fast_results: Vec<FastExecution>,
}

impl ExecArena {
    /// Creates an empty arena; buffers grow on first use and are then
    /// reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a finished full log's event buffer back for reuse by the
    /// next [`FullLog::recycled`](crate::FullLog::recycled) sink.
    pub fn recycle_log(&mut self, mut log: ExecLog) {
        log.events.clear();
        self.events = log.events;
    }

    /// Results of the latest [`Subject::exec_batch_fast`](crate::Subject::exec_batch_fast)
    /// call (empty before the first).
    pub fn fast_results(&self) -> &[FastExecution] {
        &self.fast_results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycle_log_clears_and_keeps_capacity() {
        let mut arena = ExecArena::new();
        let log = ExecLog {
            events: Vec::with_capacity(64),
            input_len: 3,
        };
        arena.recycle_log(log);
        assert!(arena.events.is_empty());
        assert!(arena.events.capacity() >= 64);
    }
}
