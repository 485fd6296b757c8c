//! # Parser-Directed Fuzzing — a Rust reproduction of pFuzzer (PLDI 2019)
//!
//! This is the umbrella crate of the workspace reproducing *Parser-
//! Directed Fuzzing* by Mathis, Gopinath, Mera, Kampmann, Höschele and
//! Zeller (PLDI 2019): a test generator that covers the input language
//! of a parser by tracking the comparisons made against input
//! characters, substituting the rejected character with a value it was
//! compared to, and appending when the parser runs out of input.
//!
//! The workspace members, re-exported here:
//!
//! - [`runtime`] — the instrumentation substrate (tracked reads, tainted
//!   comparisons, EOF detection, branch coverage, stack depth);
//! - [`subjects`] — the five evaluation subjects (ini, csv, cJSON,
//!   tinyC, mjs) plus the paper's running examples (arith, dyck);
//! - [`pfuzzer`] — the parser-directed fuzzing algorithm itself
//!   (Algorithm 1: candidate queue, heuristic, substitution driver);
//! - [`fleet`] — sharded cooperative campaigns: N workers with
//!   deterministic coverage/corpus synchronization epochs and fleet
//!   checkpointing;
//! - [`afl`] — the coverage-guided mutational "lexical" baseline;
//! - [`symbolic`] — the KLEE-style "semantic" baseline;
//! - [`tokens`] — token inventories (Tables 2–4) and input-coverage
//!   scoring;
//! - [`eval`] — the harness regenerating every table and figure;
//! - [`grammar`] — the Section 7.4 future-work pipeline: grammar mining
//!   from pFuzzer's valid inputs (generation from the mined grammar runs
//!   through the `pdf-gen` crate);
//! - [`obs`] — the zero-dependency observability layer: campaign
//!   metrics, phase spans and the `pdf-metrics v1` snapshot codec
//!   (observe-only; enabling it never changes a campaign result).
//!
//! # Quickstart
//!
//! ```
//! use parser_directed_fuzzing::pfuzzer::{DriverConfig, Fuzzer};
//! use parser_directed_fuzzing::subjects;
//!
//! let subject = subjects::json::subject();
//! let config = DriverConfig { seed: 1, max_execs: 5_000, ..DriverConfig::default() };
//! let report = Fuzzer::new(subject, config).run();
//! for input in &report.valid_inputs {
//!     println!("{}", String::from_utf8_lossy(input));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pdf_afl as afl;
pub use pdf_core as pfuzzer;
pub use pdf_eval as eval;
pub use pdf_fleet as fleet;
pub use pdf_grammar as grammar;
pub use pdf_obs as obs;
pub use pdf_runtime as runtime;
pub use pdf_subjects as subjects;
pub use pdf_symbolic as symbolic;
pub use pdf_tokens as tokens;
