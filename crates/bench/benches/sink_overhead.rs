//! Per-execution overhead of the event sinks on json and mjs.
//!
//! `FullLog` materialises every comparison into an event vector;
//! `LastFailure` keeps only the rejection state; `FastFailure` keeps
//! the rejection index and the last comparison; `CoverageOnly` keeps a
//! branch sequence and an EOF flag. The streaming sinks exist to make
//! the driver and the AFL baseline cheaper per execution — this bench
//! quantifies the win (see EXPERIMENTS.md).
//!
//! The json comparisons are consumer-equivalent: a coverage consumer
//! (the AFL baseline) needs a `CovSummary`, so its pre-refactor cost is
//! `run()` **plus** `ExecLog::coverage_summary()` (`full_log_coverage`
//! below), against which `coverage_only` (the streaming sink) is
//! measured. Likewise `full_log_failure` vs `last_failure` for the
//! pFuzzer driver. Bare `full_log` is included for context only.
//!
//! The mjs group runs the sinks the way campaigns do: the full and fast
//! tiers through one reused `ExecArena` (the driver's and the fleets'
//! path), coverage without one (the flood's escalation path), over the
//! growing near-valid prefixes a pFuzzer campaign executes.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pdf_runtime::{ExecArena, Rng, Subject};

/// A workload mix resembling what a fuzzing campaign feeds a subject:
/// short garbage, growing near-valid prefixes, and a few valid inputs.
fn workload() -> Vec<Vec<u8>> {
    let mut inputs: Vec<Vec<u8>> = vec![
        b"{}".to_vec(),
        b"[1,2,3]".to_vec(),
        b"{\"key\": [true, false, null]}".to_vec(),
        b"{\"a\": {\"b\": {\"c\": [1, 2, {\"d\": \"deep\"}]}}}".to_vec(),
        b"[\"string\", 123, {\"nested\": []}, tru".to_vec(),
        b"{\"unterminated\": \"str".to_vec(),
    ];
    let mut rng = Rng::new(7);
    let alphabet = b"{}[]\",:0123456789truefalsenull ";
    for len in 1..=24 {
        let mut input = Vec::with_capacity(len);
        for _ in 0..len {
            input.push(alphabet[rng.gen_range(0, alphabet.len())]);
        }
        inputs.push(input);
    }
    inputs
}

/// What a pFuzzer campaign on mjs executes: every prefix of the
/// reference programs, each followed by one substituted byte, so runs
/// reject deep inside keyword and member-name comparisons. Inputs that
/// hang are left out: they run to the fuel limit, which would swamp the
/// sink cost being measured.
fn mjs_workload(subject: &Subject) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(7);
    let alphabet = b"abcdefghijklmnopqrstuvwxyz (){}[];=.,\"'0123456789+<";
    let mut inputs = Vec::new();
    for program in pdf_subjects::mjs::reference_corpus() {
        for len in 0..=program.len() {
            let mut input = program[..len].to_vec();
            input.push(alphabet[rng.gen_range(0, alphabet.len())]);
            if !subject.run_coverage(&input).verdict.is_hang() {
                inputs.push(input);
            }
        }
    }
    inputs
}

fn run_mix(subject: &Subject, inputs: &[Vec<u8>], mode: &str) -> usize {
    let mut valid = 0;
    for input in inputs {
        let ok = match mode {
            "full_log" => subject.run(input).valid,
            "full_log_coverage" => {
                let exec = subject.run(input);
                black_box(exec.log.coverage_summary());
                exec.valid
            }
            "full_log_failure" => {
                let exec = subject.run(input);
                black_box(exec.log.failure_summary());
                exec.valid
            }
            "coverage_only" => subject.run_coverage(input).valid,
            "last_failure" => subject.run_last_failure(input).valid,
            _ => unreachable!(),
        };
        valid += usize::from(ok);
    }
    valid
}

fn run_arena_mix(
    subject: &Subject,
    arena: &mut ExecArena,
    inputs: &[Vec<u8>],
    mode: &str,
) -> usize {
    let mut valid = 0;
    for input in inputs {
        let ok = match mode {
            "last_failure_arena" => subject.run_last_failure_arena(arena, input).valid,
            "fast_failure_arena" => subject.run_fast_failure_arena(arena, input).valid,
            "coverage_only" => subject.run_coverage(input).valid,
            _ => unreachable!(),
        };
        valid += usize::from(ok);
    }
    valid
}

fn bench(c: &mut Criterion) {
    let subject = pdf_subjects::json::subject();
    let inputs = workload();
    let mut group = c.benchmark_group("sink_overhead");
    group.sample_size(30);
    for mode in [
        "full_log",
        "full_log_coverage",
        "coverage_only",
        "full_log_failure",
        "last_failure",
    ] {
        group.bench_function(mode, |b| {
            b.iter(|| run_mix(black_box(&subject), black_box(&inputs), mode))
        });
    }
    group.finish();

    let subject = pdf_subjects::mjs::subject();
    let inputs = mjs_workload(&subject);
    let mut arena = ExecArena::new();
    let mut group = c.benchmark_group("sink_overhead_mjs");
    group.sample_size(30);
    for mode in ["last_failure_arena", "fast_failure_arena", "coverage_only"] {
        group.bench_function(mode, |b| {
            b.iter(|| run_arena_mix(black_box(&subject), &mut arena, black_box(&inputs), mode))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
