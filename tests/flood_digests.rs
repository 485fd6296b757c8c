//! Generator-flood digests pinned across changes to how the flood runs
//! its inputs.
//!
//! [`EvolveReport::digest`] folds every input the flood accepted, the
//! branches its coverage runs found and the weights it learned, so a
//! change to which inputs are run, under which sink, or in what order
//! they are credited shows up here. Each grammar is mined from the
//! subject's fixed reference corpus, so the pins do not depend on a
//! pFuzzer search. The combined pins also hold the promotion of flood
//! inputs into a fleet to the campaign it produced before, and the
//! tiered pins hold fleets whose sync epochs once re-confirmed every
//! promoted input with a fast-failure run before injecting it.

use parser_directed_fuzzing::fleet::{Fleet, FleetConfig};
use parser_directed_fuzzing::grammar::mine_corpus;
use parser_directed_fuzzing::pfuzzer::{DriverConfig, ExecMode};
use parser_directed_fuzzing::runtime::Subject;
use parser_directed_fuzzing::subjects;
use pdf_gen::{compile_uniform, evolve, run_combined, CombinedConfig, EvolveConfig};

/// The digest of a flood over the grammar mined from `name`'s reference
/// corpus.
fn flood(name: &str, max_depth: usize, seed: u64, epochs: usize, batch: usize) -> String {
    let info = subjects::by_name(name).expect("known subject");
    let corpus: Vec<Vec<u8>> = (info.corpus)().iter().map(|c| c.to_vec()).collect();
    let grammar = mine_corpus(info.subject, &corpus);
    let compiled = compile_uniform(&grammar, max_depth).expect("mined grammar compiles");
    let cfg = EvolveConfig {
        seed,
        epochs,
        batch,
        ..EvolveConfig::default()
    };
    format!("{:016x}", evolve(info.subject, compiled, cfg).digest())
}

#[test]
fn floods_over_corpus_grammars() {
    let got = [
        flood("arith", 8, 1, 6, 128),
        flood("dyck", 4, 2, 6, 128),
        flood("cjson", 10, 3, 6, 128),
    ];
    assert_eq!(
        got,
        ["fe2f7577d0db87b4", "82c8af46ab9e1142", "7ec5229958b4f2ac"]
    );
}

#[test]
fn small_mjs_flood() {
    assert_eq!(flood("mjs", 10, 1, 4, 256), "e09de4baaaf107bb");
}

/// The digest of a small combined campaign on arith.
fn combined(exec_mode: ExecMode) -> String {
    let cfg = CombinedConfig {
        seed: 5,
        explore_execs: 2_000,
        shards: 2,
        fleet_execs_per_shard: 1_000,
        sync_every: 200,
        gen_epochs: 3,
        gen_batch: 64,
        max_depth: 8,
        exec_mode,
    };
    let report = run_combined(subjects::arith::subject(), &cfg).expect("valid fleet config");
    assert!(report.flood.is_some(), "{:?}", report.flood_skipped);
    format!("{:016x}", report.digest())
}

#[test]
fn combined_campaign() {
    assert_eq!(combined(ExecMode::Full), "0606d04db974952f");
}

#[test]
fn tiered_combined_campaign() {
    assert_eq!(combined(ExecMode::Tiered), "62cc2f9c2de919f0");
}

/// The digest of a tiered fleet that promoted at least one input
/// between shards.
fn tiered_fleet(subject: Subject, seed: u64, shards: usize, per_shard_execs: u64) -> String {
    let base = DriverConfig {
        seed,
        max_execs: per_shard_execs,
        exec_mode: ExecMode::Tiered,
        ..DriverConfig::default()
    };
    let cfg = FleetConfig::new(shards, per_shard_execs / 8, base);
    let report = Fleet::new(subject, cfg).expect("valid fleet config").run();
    assert!(report.promotions > 0, "no input was promoted");
    format!("{:016x}", report.digest())
}

#[test]
fn tiered_fleets() {
    let got = [
        tiered_fleet(subjects::arith::subject(), 11, 3, 1_500),
        tiered_fleet(subjects::json::subject(), 1, 2, 4_000),
        tiered_fleet(subjects::mjs::subject(), 1, 2, 4_000),
    ];
    assert_eq!(
        got,
        ["9cf51184d80c38f9", "fb12641278e09b38", "a4a71eb156829285"]
    );
}
