//! The observe-only contract for the `grammar.*` metrics: installing a
//! metrics registry must not change a single campaign digest (the
//! counters read relaxed atomics and never touch the RNG chokepoint),
//! and the new counters must actually register — both in the live
//! registry and in the `pdf-metrics v1` snapshot encoding.

use std::sync::Arc;

use pdf_core::ExecMode;
use pdf_gen::{compile_uniform, evolve, run_combined, CombinedConfig, EvolveConfig};
use pdf_grammar::mine_corpus;
use pdf_obs::MetricsRegistry;

fn cfg(seed: u64) -> CombinedConfig {
    CombinedConfig {
        seed,
        explore_execs: 2_000,
        shards: 2,
        fleet_execs_per_shard: 1_000,
        sync_every: 200,
        gen_epochs: 3,
        gen_batch: 48,
        max_depth: 8,
        exec_mode: ExecMode::Full,
    }
}

#[test]
fn metrics_never_change_digests_and_grammar_counters_register() {
    let subject = pdf_subjects::arith::subject();
    let bare = run_combined(subject, &cfg(5)).unwrap();

    let registry = Arc::new(MetricsRegistry::new());
    let observed = {
        let _scope = pdf_obs::install(Arc::clone(&registry));
        run_combined(subject, &cfg(5)).unwrap()
    };

    // observe-only: identical campaign with or without metrics
    assert_eq!(bare.digest(), observed.digest());
    assert_eq!(bare.promoted, observed.promoted);

    // the counters tally exactly what the report says happened
    let flood = observed.flood.as_ref().expect("arith grammar floods");
    assert_eq!(registry.grammar_generated.get(), flood.generated);
    assert_eq!(
        registry.grammar_generated_valid.get(),
        flood.generated_valid
    );
    assert_eq!(
        registry.grammar_weight_epochs.get(),
        flood.epochs_run as u64
    );
    assert_eq!(registry.grammar_promotions.get(), observed.promoted);

    // and they appear in the snapshot schema
    let encoded = registry.snapshot().encode();
    for name in [
        "grammar.generated",
        "grammar.generated_valid",
        "grammar.weight_epochs",
        "grammar.promotions",
    ] {
        assert!(encoded.contains(name), "snapshot is missing {name}");
    }
}

/// The flood runs each generated input at most once: a repeat of a
/// distinct valid input is not run at all, every other input runs once.
#[test]
fn a_flood_runs_each_generated_input_at_most_once() {
    let subject = pdf_subjects::mjs::subject();
    let corpus: Vec<Vec<u8>> = pdf_subjects::mjs::reference_corpus()
        .iter()
        .map(|c| c.to_vec())
        .collect();
    let compiled = compile_uniform(&mine_corpus(subject, &corpus), 10).unwrap();
    let cfg = EvolveConfig {
        seed: 1,
        epochs: 4,
        batch: 256,
        ..EvolveConfig::default()
    };
    let registry = Arc::new(MetricsRegistry::new());
    let report = {
        let _scope = pdf_obs::install(Arc::clone(&registry));
        evolve(subject, compiled, cfg)
    };
    let generated = registry.grammar_generated.get();
    assert_eq!(generated, report.generated);
    assert!(registry.execs.get() <= generated);
    let repeats = report.generated_valid - report.distinct_valid.len() as u64;
    assert!(repeats > 0, "the flood generated no repeat to skip");
    assert_eq!(registry.execs.get(), generated - repeats);
}
