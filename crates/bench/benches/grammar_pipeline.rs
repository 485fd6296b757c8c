//! The Section 7.4 pipeline as a benchmark: explore with pFuzzer, mine
//! a grammar, generate through the compiled grammar. Prints the
//! mined-grammar statistics and acceptance rates, then benchmarks the
//! mining stage.

use criterion::{criterion_group, criterion_main, Criterion};
use pdf_bench::bench_execs;
use pdf_core::{DriverConfig, Fuzzer};
use pdf_gen::{compile_uniform, evolve, EvolveConfig};
use pdf_grammar::mine_corpus;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    for subject_name in ["arith", "dyck", "cjson"] {
        let info = pdf_subjects::by_name(subject_name).unwrap();
        let fuzz_cfg = DriverConfig {
            seed: 1,
            max_execs: bench_execs(),
            ..DriverConfig::default()
        };
        let fuzzed = Fuzzer::new(info.subject, fuzz_cfg).run().valid_inputs;
        let grammar = mine_corpus(info.subject, &fuzzed);
        let compiled = compile_uniform(&grammar, 12).expect("mined grammar compiles");
        let gen_cfg = EvolveConfig {
            seed: 1,
            epochs: 1,
            batch: 300,
            ..EvolveConfig::default()
        };
        let report = evolve(info.subject, compiled, gen_cfg);
        let max_len = |inputs: &[Vec<u8>]| inputs.iter().map(Vec::len).max().unwrap_or(0);
        println!(
            "{subject_name:<8} fuzzed {:>3} (max len {:>3}) | grammar: {:>3} nts, {:>3} alts, recursive {} | generated accept {:>5.1}%, max len {:>4}",
            fuzzed.len(),
            max_len(&fuzzed),
            grammar.len(),
            grammar.alt_count(),
            grammar.has_recursion(),
            100.0 * report.generated_valid as f64 / report.generated as f64,
            max_len(&report.distinct_valid),
        );
    }

    let corpus: Vec<Vec<u8>> = [&b"1"[..], b"(1)", b"((2))", b"1+2", b"(1+2)-3"]
        .iter()
        .map(|x| x.to_vec())
        .collect();
    c.bench_function("grammar/mine_arith", |b| {
        b.iter(|| mine_corpus(pdf_subjects::arith::subject(), black_box(&corpus)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
