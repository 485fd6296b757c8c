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
//! diverse by construction. This crate holds the mining half of the
//! loop, over `pdf-runtime` alone:
//!
//! 1. [`mine`] — rebuild the *parse structure* of each valid input from
//!    the same instrumentation pFuzzer already records: every comparison
//!    carries the input index it touched and the recursive-descent stack
//!    depth it ran at (AutoGram derives structure from dynamic taints in
//!    just this way). Nested depth regions become nonterminals, keyed by
//!    the static site of their first comparison, so the `value` inside
//!    `[1, [2]]` and the outer `value` share a nonterminal — which is
//!    what makes the mined grammar *recursive*.
//! 2. [`codec`] — persist a grammar plus learned generation weights as
//!    `pdf-grammar v1` text (count + digest integrity), the format
//!    behind `evalrunner --grammar-out` / `--grammar-in` and the input
//!    to the compiled generator in `pdf-gen`.
//! 3. [`gen`] — the reference generator: a recursive, depth-bounded
//!    random walk over the mined grammar. Generation itself runs
//!    through `pdf-gen`'s compiled grammar (explore with `pdf-core`,
//!    [`mine_corpus`], `pdf_gen::compile_uniform`, `pdf_gen::evolve`);
//!    the recursive walk is what that compiled generator is tested
//!    and benchmarked against.
//!
//! # Example
//!
//! ```
//! use pdf_grammar::{mine_corpus, GrammarFile};
//!
//! let subject = pdf_subjects::arith::subject();
//! let corpus: Vec<Vec<u8>> = [&b"1"[..], b"(1)", b"((2))", b"1+2"]
//!     .iter()
//!     .map(|c| c.to_vec())
//!     .collect();
//! let grammar = mine_corpus(subject, &corpus);
//! assert!(!grammar.is_empty());
//! // the file `pdf_gen::CompiledGrammar::compile` generates from
//! let file = GrammarFile::uniform(grammar);
//! assert_eq!(GrammarFile::decode(&file.encode()).unwrap(), file);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod gen;
pub mod mine;

pub use codec::GrammarFile;
pub use gen::Generator;
pub use mine::{mine_corpus, Grammar, Label, Sym, START};
