//! The Section 7.4 pipeline end to end: pFuzzer explores the subject,
//! a grammar is mined from its valid inputs using the comparison/stack
//! instrumentation, and the compiled grammar generates new inputs —
//! "longer and more complex sequences that contain recursive
//! structures" — which the subject then validates.
//!
//! Run with:
//! `cargo run --release --example grammar_pipeline -- [subject] [fuzz_execs]`
//! (default: cjson 30000)

use parser_directed_fuzzing::grammar::mine_corpus;
use parser_directed_fuzzing::pfuzzer::{DriverConfig, Fuzzer};
use parser_directed_fuzzing::subjects;
use pdf_gen::{compile_uniform, evolve, EvolveConfig};

const SEED: u64 = 1;
const GENERATE: usize = 500;
const MAX_DEPTH: usize = 12;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let subject_name = args.get(1).map(String::as_str).unwrap_or("cjson");
    let fuzz_execs: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(30_000);

    let Some(info) = subjects::by_name(subject_name) else {
        eprintln!("unknown subject {subject_name}");
        std::process::exit(1);
    };

    let fuzz_cfg = DriverConfig {
        seed: SEED,
        max_execs: fuzz_execs,
        ..DriverConfig::default()
    };
    let fuzzed = Fuzzer::new(info.subject, fuzz_cfg).run().valid_inputs;
    let grammar = mine_corpus(info.subject, &fuzzed);
    println!(
        "explore: {} valid inputs (longest {} bytes)",
        fuzzed.len(),
        fuzzed.iter().map(Vec::len).max().unwrap_or(0)
    );
    println!(
        "mine:    {} nonterminals, {} alternatives, recursive: {}",
        grammar.len(),
        grammar.alt_count(),
        grammar.has_recursion()
    );
    println!("{}", grammar.render());

    let compiled = match compile_uniform(&grammar, MAX_DEPTH) {
        Ok(compiled) => compiled,
        Err(e) => {
            eprintln!("compile: {e}");
            std::process::exit(1);
        }
    };
    let gen_cfg = EvolveConfig {
        seed: SEED,
        epochs: 1,
        batch: GENERATE,
        ..EvolveConfig::default()
    };
    let report = evolve(info.subject, compiled, gen_cfg);
    let mut longest: Vec<&Vec<u8>> = report.distinct_valid.iter().collect();
    longest.sort_by_key(|i| std::cmp::Reverse(i.len()));
    println!(
        "generate: {}/{} accepted ({:.0}%), {} distinct, longest {} bytes",
        report.generated_valid,
        report.generated,
        100.0 * report.generated_valid as f64 / report.generated as f64,
        report.distinct_valid.len(),
        longest.first().map_or(0, |i| i.len())
    );
    println!("longest generated inputs:");
    for input in longest.into_iter().take(5) {
        println!("  {}", String::from_utf8_lossy(input));
    }
}
