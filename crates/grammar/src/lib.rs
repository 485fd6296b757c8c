//! Grammar mining and grammar-based generation — the future-work
//! pipeline of Section 7.4 of the pFuzzer paper, implemented.
//!
//! > "For generating larger sequences, it is more efficient to rely on
//! > parser-directed fuzzing for initial exploration, use a tool to mine
//! > the grammar from the resulting sequences, and use the mined grammar
//! > for generating longer and more complex sequences that contain
//! > recursive structures. [...] Indeed, the stumbling block in using a
//! > tool such as AutoGram right now is the lack of valid and diverse
//! > inputs."
//!
//! pFuzzer removes that stumbling block: its outputs are valid and
//! diverse by construction. This crate closes the loop:
//!
//! 1. [`mine`] — rebuild the *parse structure* of each valid input from
//!    the same instrumentation pFuzzer already records: every comparison
//!    carries the input index it touched and the recursive-descent stack
//!    depth it ran at (AutoGram derives structure from dynamic taints in
//!    just this way). Nested depth regions become nonterminals, keyed by
//!    the static site of their first comparison, so the `value` inside
//!    `[1, [2]]` and the outer `value` share a nonterminal — which is
//!    what makes the mined grammar *recursive*.
//! 2. [`gen`] — expand the mined grammar with a depth-bounded random
//!    walk, yielding inputs far longer and more deeply nested than the
//!    fuzzer's own outputs.
//! 3. [`pipeline`] — glue: fuzz, mine, generate, validate (every
//!    generated input is re-run through the subject in one
//!    fast-failure batch; the report keeps only accepted ones and the
//!    acceptance rate).
//! 4. [`codec`] — persist a grammar plus learned generation weights as
//!    `pdf-grammar v1` text (count + digest integrity), the format
//!    behind `evalrunner --grammar-out` / `--grammar-in` and the input
//!    to the compiled generator in `pdf-gen`.
//!
//! # Example
//!
//! ```
//! use pdf_grammar::pipeline::{run_pipeline, PipelineConfig};
//!
//! let subject = pdf_subjects::arith::subject();
//! let report = run_pipeline(subject, &PipelineConfig {
//!     seed: 1,
//!     fuzz_execs: 3_000,
//!     generate: 50,
//!     ..PipelineConfig::default()
//! });
//! assert!(!report.generated_valid.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod gen;
pub mod mine;
pub mod pipeline;

pub use codec::GrammarFile;
pub use gen::Generator;
pub use mine::{mine_corpus, Grammar, Label, Sym, START};
pub use pipeline::{run_pipeline, PipelineConfig, PipelineReport};
