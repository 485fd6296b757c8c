//! pFuzzer — parser-directed fuzzing (Mathis et al., PLDI 2019).
//!
//! The core idea: feed a growing prefix to the instrumented program,
//! observe the comparisons made against the last (rejected) character,
//! and *substitute* that character with one of the values it was
//! compared to; when the parser instead runs out of input (an EOF
//! access), *append* a random character. A heuristic priority queue
//! (Algorithm 1 of the paper) decides which candidate to try next,
//! trading off newly covered branches, input length, replacement length,
//! recursive-descent stack depth and search depth — so the search both
//! discovers new syntax and "closes" prefixes into complete valid
//! inputs.
//!
//! # Example
//!
//! ```
//! use pdf_core::{DriverConfig, Fuzzer};
//!
//! let subject = pdf_subjects::arith::subject();
//! let config = DriverConfig { seed: 1, max_execs: 4_000, ..DriverConfig::default() };
//! let report = Fuzzer::new(subject, config).run();
//! assert!(!report.valid_inputs.is_empty());
//! // every produced input really is valid — by construction
//! for input in &report.valid_inputs {
//!     assert!(subject.run(input).valid);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod checkpoint;
mod config;
mod driver;
mod heuristic;
mod queue;

pub use budget::{CampaignBudget, StopReason, DEADLINE_CHECK_INTERVAL};
pub use checkpoint::{Checkpoint, CheckpointError, ErrorClass, QueueItemSnapshot, QueueSnapshot};
pub use config::{DriverConfig, ExecMode, ExtensionMode, HeuristicConfig, SearchMode};
pub use driver::{FuzzReport, Fuzzer, SyncPoint, TraceStep};
pub use heuristic::score;
pub use queue::{CandidateQueue, QueueEntry};
