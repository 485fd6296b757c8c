//! The Section 7.4 pipeline end to end: pFuzzer explores the subject,
//! a grammar is mined from its valid inputs using the comparison/stack
//! instrumentation, and the compiled grammar generates new inputs —
//! "longer and more complex sequences that contain recursive
//! structures" — which the subject then validates.
//!
//! Run with:
//! `cargo run --release --example grammar_pipeline -- [SUBJECT] [FUZZ_EXECS]`
//! (default: cjson 30000)

use parser_directed_fuzzing::grammar::mine_corpus;
use parser_directed_fuzzing::pfuzzer::{DriverConfig, Fuzzer};
use parser_directed_fuzzing::runtime::cli::Args;
use parser_directed_fuzzing::subjects;
use pdf_gen::{compile_uniform, evolve, EvolveConfig};

const USAGE: &str = "\
usage: grammar_pipeline [SUBJECT] [FUZZ_EXECS]

Explores SUBJECT (default cjson) with pFuzzer for FUZZ_EXECS executions
(default 30000), mines a grammar from its valid inputs and generates 500
inputs from it.";

const SEED: u64 = 1;
const GENERATE: usize = 500;
const MAX_DEPTH: usize = 12;

fn main() {
    let args = Args::from_env(USAGE);
    let subject_name = args.positional(0).unwrap_or("cjson");
    let fuzz_execs = args.or_exit(args.positive_at(1, "FUZZ_EXECS", 30_000));
    let Some(info) = subjects::by_name(subject_name) else {
        args.fail(&format!("unknown subject {subject_name}"));
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
