//! Throughput of the compiled flat-table generator against the
//! recursive `Generator` on real mined grammars — the acceptance gate
//! of the generation-backend work.
//!
//! The grammars are mined exactly as the combined campaign mines them:
//! a pFuzzer exploration discovers valid inputs, `mine_corpus`
//! generalizes them. The two sides then compare the reference
//! generator against the flood shape that replaced it:
//!
//! * `recursive` — `Generator::generate`: a `BTreeMap` walk per
//!   nonterminal, an accounted `Rng` draw per expanded rule, a fresh
//!   `Vec` allocation per input.
//! * `compiled` — `CompiledGrammar::generate_batch`: dense `u32` rule
//!   tables, one shared terminal pool with literal rules spliced into
//!   their callers, precomputed cheapest expansions (a depth-bound
//!   subtree is one memcpy), an explicit reusable work stack, inputs
//!   and traces landing in a flat `GenBatch` arena, and *one*
//!   accounted draw per generator lifetime expanded into a
//!   `DerivedRng` stream.
//!
//! ## What is gated, and why not 10x throughput
//!
//! *Building Fast Fuzzers* reports order-of-magnitude speedups from
//! compiling grammars — against **interpreted** generators. This
//! repo's recursive `Generator` is already compiled Rust over a small
//! `BTreeMap`; on the tiny grammars pFuzzer mining actually produces
//! (cjson saturates at 19 valid inputs of <= 7 bytes; mjs mines ~13
//! rules), per-input fixed costs bound the achievable gap. Measured
//! honestly, the compiled generator is ~2x end-to-end — and >100x on
//! the quantity this architecture taxes per draw: accounted chokepoint
//! entropy (draw counting plus an eight-step digest fold per value,
//! witnessed in replay journals). EXPERIMENTS.md reports the full
//! numbers. The bench therefore gates three honest floors, and
//! panics (failing `cargo bench`) if any regresses:
//!
//! * `speedup`        >= 1.25x inputs/s on each mined grammar,
//! * `draw_reduction` >= 10x fewer accounted `Rng` draws per input,
//! * absolute compiled throughput >= 2,000,000 inputs/s (cjson) and
//!   >= 200,000 inputs/s (mjs).
//!
//! Besides the Criterion timings the bench prints machine-readable
//! `inputs/s`, `speedup` and `draw_reduction` lines for the CI
//! `grammar-gen` job. `GRAMMAR_GEN_QUICK=1` shrinks the measurement
//! rounds for that job.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

use pdf_core::{DriverConfig, Fuzzer};
use pdf_gen::{compile_uniform, GenBatch};
use pdf_grammar::{mine_corpus, Generator, Grammar};
use pdf_runtime::Rng;

const MAX_DEPTH: usize = 16;

/// Mines a grammar the way the combined campaign does: explore with
/// pFuzzer, generalize the valid inputs. Deterministic in the seed.
fn mined_grammar(subject: pdf_runtime::Subject, execs: u64) -> Grammar {
    let report = Fuzzer::new(
        subject,
        DriverConfig {
            seed: 1,
            max_execs: execs,
            ..DriverConfig::default()
        },
    )
    .run();
    assert!(
        !report.valid_inputs.is_empty(),
        "{}: exploration found nothing to mine",
        subject.name()
    );
    mine_corpus(subject, &report.valid_inputs)
}

/// (name, grammar, min speedup, min compiled inputs/s).
fn subjects(quick: bool) -> Vec<(&'static str, Grammar, f64, f64)> {
    // the quick tier keeps CI fast; the floors assume the full mining
    // budget, so they only apply to the full run
    let execs = if quick { 6_000 } else { 30_000 };
    vec![
        (
            "cjson",
            mined_grammar(pdf_subjects::json::subject(), execs),
            1.25,
            2.0e6,
        ),
        (
            "mjs",
            mined_grammar(pdf_subjects::mjs::subject(), execs),
            1.25,
            2.0e5,
        ),
    ]
}

/// Inputs per second: the best of several timed trials. Each trial
/// reseeds its own RNG so every trial expands the same derivation
/// sequence; best-of filters scheduler noise out of both sides of the
/// ratio (a descheduled trial can only lose).
fn rate(rounds: usize, per_round: usize, mut f: impl FnMut() -> usize) -> f64 {
    // one warm-up pass populates stacks and caches
    black_box(f());
    let mut best = f64::MAX;
    for _ in 0..8 {
        let start = Instant::now();
        for _ in 0..rounds {
            black_box(f());
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    (rounds * per_round) as f64 / best
}

fn bench(c: &mut Criterion) {
    let quick = std::env::var("GRAMMAR_GEN_QUICK").is_ok_and(|v| v == "1");
    let rounds = if quick { 40 } else { 200 };
    let per_round = 500usize;

    for (name, grammar, min_speedup, min_rate) in subjects(quick) {
        let mut recursive = Generator::new(&grammar, MAX_DEPTH);
        let mut compiled = compile_uniform(&grammar, MAX_DEPTH)
            .expect("mined grammars have acyclic cheapest expansions");

        // contract preamble: re-assert the derivation contract on the
        // exact grammars about to be timed (the full suite lives in
        // pdf-gen's equivalence tests)
        {
            // seeded determinism, and the one-accounted-draw bound
            let mut c2 = compile_uniform(&grammar, MAX_DEPTH).unwrap();
            let mut r1 = Rng::new(9);
            let mut r2 = Rng::new(9);
            let (mut b1, mut b2) = (Vec::new(), Vec::new());
            for i in 0..200 {
                compiled.generate_into(&mut r1, &mut b1);
                c2.generate_into(&mut r2, &mut b2);
                assert_eq!(b1, b2, "{name}: determinism broke at input {i}");
            }
            assert!(
                r1.draw_count() <= 1,
                "{name}: lifetime entropy bound violated"
            );
            // forced-path identity: at depth 0 both emit the same bytes
            let mut rec0 = Generator::new(&grammar, 0);
            let mut com0 = compile_uniform(&grammar, 0).unwrap();
            let mut rr = Rng::new(3);
            let mut rc = Rng::new(3);
            let want = rec0.generate(&mut rr);
            com0.generate_into(&mut rc, &mut b1);
            assert_eq!(b1, want, "{name}: forced paths diverged");
            assert_eq!(rc.draw_count(), 0, "{name}: forced path drew entropy");
        }

        // accounted chokepoint draws per input, both sides
        let (rec_draws, comp_draws) = {
            let mut rng = Rng::new(7);
            for _ in 0..per_round {
                black_box(recursive.generate(&mut rng).len());
            }
            let rec = rng.draw_count();
            let mut rng = Rng::new(7);
            let mut batch = GenBatch::new();
            let mut fresh = compile_uniform(&grammar, MAX_DEPTH).unwrap();
            fresh.generate_batch(&mut rng, &mut batch, per_round);
            (rec, rng.draw_count().max(1))
        };
        let draw_reduction = rec_draws as f64 / comp_draws as f64;

        let slow = rate(rounds, per_round, || {
            let mut rng = Rng::new(7);
            let mut total = 0;
            for _ in 0..per_round {
                total += recursive.generate(&mut rng).len();
            }
            total
        });
        let mut batch = GenBatch::new();
        let fast = rate(rounds, per_round, || {
            let mut rng = Rng::new(7);
            compiled.generate_batch(&mut rng, &mut batch, per_round);
            batch.len()
        });
        let speedup = fast / slow;
        println!(
            "grammar_gen {name}: {} rules, {} alternatives",
            grammar.len(),
            grammar.alt_count()
        );
        println!("grammar_gen {name}: recursive {slow:.0} inputs/s");
        println!("grammar_gen {name}: compiled {fast:.0} inputs/s");
        println!("speedup {name}: {speedup:.2}x");
        println!("draw_reduction {name}: {draw_reduction:.0}x");

        assert!(
            speedup >= min_speedup,
            "{name}: compiled generator regressed to {speedup:.2}x (gate {min_speedup}x)"
        );
        assert!(
            draw_reduction >= 10.0,
            "{name}: accounted-draw reduction {draw_reduction:.1}x below the 10x gate"
        );
        if !quick {
            assert!(
                fast >= min_rate,
                "{name}: compiled throughput {fast:.0} inputs/s below floor {min_rate:.0}"
            );
        }

        let mut group = c.benchmark_group(format!("grammar_gen_{name}"));
        group.sample_size(if quick { 10 } else { 30 });
        group.bench_function("recursive", |b| {
            b.iter(|| {
                let mut rng = Rng::new(7);
                black_box(recursive.generate(&mut rng))
            })
        });
        group.bench_function("compiled_batch64", |b| {
            b.iter(|| {
                let mut rng = Rng::new(7);
                compiled.generate_batch(&mut rng, &mut batch, 64);
                black_box(batch.len())
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
