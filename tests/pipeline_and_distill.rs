//! Cross-crate checks of the downstream tooling: corpus distillation
//! over fuzzer output, and the §7.4 explore → mine → generate pipeline
//! on real subjects.

use parser_directed_fuzzing::grammar::mine_corpus;
use parser_directed_fuzzing::pfuzzer::{DriverConfig, Fuzzer};
use parser_directed_fuzzing::runtime::{distill, BranchSet, Subject};
use parser_directed_fuzzing::subjects;
use pdf_gen::{compile_uniform, evolve, EvolveConfig, EvolveReport};

#[test]
fn distilled_fuzzer_corpus_preserves_coverage() {
    let info = subjects::by_name("cjson").unwrap();
    let report = Fuzzer::new(
        info.subject,
        DriverConfig {
            seed: 1,
            max_execs: 10_000,
            ..DriverConfig::default()
        },
    )
    .run();
    assert!(report.valid_inputs.len() >= 3);
    let kept = distill(info.subject, &report.valid_inputs);
    assert!(!kept.is_empty());
    assert!(kept.len() <= report.valid_inputs.len());
    let union = |corpus: &[Vec<u8>]| {
        let mut set = BranchSet::new();
        for input in corpus {
            set.union_with(&info.subject.run(input).log.branches());
        }
        set
    };
    assert_eq!(union(&report.valid_inputs), union(&kept));
}

/// The §7.4 pipeline: pFuzzer explores `fuzz_execs`, the miner
/// generalizes its valid inputs, and one epoch of the compiled grammar
/// generates and validates `generate` inputs. Returns the fuzzer's
/// valid inputs and the generation report.
fn pipeline(
    subject: Subject,
    seed: u64,
    fuzz_execs: u64,
    generate: usize,
    max_depth: usize,
) -> (Vec<Vec<u8>>, EvolveReport) {
    let fuzz_cfg = DriverConfig {
        seed,
        max_execs: fuzz_execs,
        ..DriverConfig::default()
    };
    let fuzzed = Fuzzer::new(subject, fuzz_cfg).run().valid_inputs;
    let grammar = mine_corpus(subject, &fuzzed);
    let compiled = compile_uniform(&grammar, max_depth).expect("mined grammar compiles");
    let gen_cfg = EvolveConfig {
        seed,
        epochs: 1,
        batch: generate,
        ..EvolveConfig::default()
    };
    (fuzzed, evolve(subject, compiled, gen_cfg))
}

fn acceptance(report: &EvolveReport) -> f64 {
    report.generated_valid as f64 / report.generated as f64
}

fn longest(inputs: &[Vec<u8>]) -> usize {
    inputs.iter().map(Vec::len).max().unwrap_or(0)
}

#[test]
fn pipeline_mines_recursive_json_and_generates_deeper_inputs() {
    let info = subjects::by_name("cjson").unwrap();
    let (fuzzed, report) = pipeline(info.subject, 1, 20_000, 300, 12);
    assert!(!fuzzed.is_empty());
    assert!(!report.distinct_valid.is_empty());
    // every generated-valid input really is valid
    for input in &report.distinct_valid {
        assert!(info.subject.run(input).valid);
    }
    // acceptance is non-trivial
    assert!(
        acceptance(&report) > 0.3,
        "acceptance {:.2}",
        acceptance(&report)
    );
}

#[test]
fn pipeline_on_dyck_closes_nested_brackets() {
    let info = subjects::by_name("dyck").unwrap();
    let (fuzzed, report) = pipeline(info.subject, 2, 8_000, 300, 14);
    assert!(!report.distinct_valid.is_empty());
    // grammar-based generation nests at least as deep as the fuzzer
    // did on its own (the whole point of Section 7.4)
    assert!(
        longest(&report.distinct_valid) >= longest(&fuzzed),
        "generated max {} < fuzzed max {}",
        longest(&report.distinct_valid),
        longest(&fuzzed)
    );
}

#[test]
fn pipeline_on_arith_generates_valid_inputs() {
    let info = subjects::by_name("arith").unwrap();
    let (fuzzed, report) = pipeline(info.subject, 1, 4_000, 150, 10);
    assert!(!fuzzed.is_empty());
    assert!(!report.distinct_valid.is_empty());
    assert!(
        acceptance(&report) > 0.5,
        "acceptance {:.2}",
        acceptance(&report)
    );
    assert!(report.generated_valid >= report.distinct_valid.len() as u64);
}
