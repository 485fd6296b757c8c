//! High-rate generation backend over mined grammars — the throughput
//! half of the ROADMAP's "close the loop" item.
//!
//! `pdf-grammar` mines a recursive [`Grammar`](pdf_grammar::Grammar)
//! from pFuzzer's valid inputs; its recursive `Generator` walks that
//! grammar through a `BTreeMap` with a fresh allocation per node and is
//! kept only as the reference this crate is tested and benchmarked
//! against. This crate is where generation runs, and it makes the
//! mined structure *fast* and *adaptive*:
//!
//! 1. [`compile`] — flatten the grammar into dense rule tables: `u32`
//!    rule ids, one shared terminal byte pool with adjacent literals
//!    fused (single-alternative literal rules are spliced into their
//!    callers entirely), per-rule precomputed cheapest expansions (the
//!    entire depth-bound subtree becomes one copy), an explicit
//!    reusable work stack, and batch generation into a flat
//!    [`GenBatch`] arena. All entropy still flows through the seeded
//!    [`Rng`](pdf_runtime::Rng) chokepoint, but the compiled generator
//!    expands *one* accounted draw per lifetime into a
//!    [`DerivedRng`](pdf_runtime::DerivedRng) bulk stream, so accounted
//!    draws per input drop by orders of magnitude while seeded replay
//!    stays byte-identical. The `grammar_gen` bench gates the measured
//!    speedup over the recursive generator and the ≥10× accounted-draw
//!    reduction; EXPERIMENTS.md reports why end-to-end throughput gains
//!    over an already-compiled recursive baseline are ~2×, not the
//!    order of magnitude the *Building Fast Fuzzers* paper reports over
//!    interpreted generators.
//! 2. [`mod@evolve`] — EvoGFuzz-style evolutionary weighting: flood
//!    generated batches through `exec_batch_fast`, escalate fresh valid
//!    inputs to coverage runs, credit each alternative's choice trace
//!    with its branch yield, re-weight at deterministic epochs.
//! 3. [`combined`] — the three-stage campaign: pFuzzer explores, the
//!    miner generalizes, the generator floods while a `pdf-fleet` fleet
//!    keeps fuzzing, with generator-found valid inputs promoted into
//!    every shard's queue between epochs.
//!
//! All randomness flows through the seeded [`Rng`](pdf_runtime::Rng)
//! chokepoint, so every layer is replay-deterministic: same
//! configuration, same digests.
//!
//! # Example
//!
//! The §7.4 loop (`examples/grammar_pipeline.rs` at full size):
//! pFuzzer explores, the miner generalizes, and one epoch of the
//! compiled grammar generates inputs that the subject validates.
//!
//! ```
//! use pdf_core::{DriverConfig, Fuzzer};
//! use pdf_gen::{compile_uniform, evolve, EvolveConfig};
//! use pdf_grammar::mine_corpus;
//!
//! let subject = pdf_subjects::arith::subject();
//! let fuzz_cfg = DriverConfig { seed: 1, max_execs: 3_000, ..DriverConfig::default() };
//! let fuzzed = Fuzzer::new(subject, fuzz_cfg).run().valid_inputs;
//! let compiled = compile_uniform(&mine_corpus(subject, &fuzzed), 10).unwrap();
//! let gen_cfg = EvolveConfig { seed: 1, epochs: 1, batch: 50, ..EvolveConfig::default() };
//! let report = evolve(subject, compiled, gen_cfg);
//! assert_eq!(report.generated, 50);
//! assert!(!report.distinct_valid.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combined;
pub mod compile;
pub mod evolve;

pub use combined::{run_combined, CombinedConfig, CombinedReport};
pub use compile::{compile_uniform, CompileError, CompiledGrammar, GenBatch};
pub use evolve::{evolve, EvolveConfig, EvolveReport, Evolver};
