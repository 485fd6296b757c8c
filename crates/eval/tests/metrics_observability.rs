//! The observability contract, end to end: metrics recorded during a
//! real matrix campaign satisfy the counter identities, survive the
//! `pdf-metrics v1` text codec, and — the load-bearing guarantee —
//! never change what the campaign computes. Instrumentation reads
//! campaign state and writes only to its own atomics; it draws no
//! randomness and never touches the drivers' byte chokepoints, so a
//! recorded journal replays byte-identically whether or not a registry
//! is installed.

use std::sync::Arc;

use pdf_eval::{matrix_cells, record_cells, replay_journal, EvalBudget, MatrixCell};
use pdf_obs::MetricsRegistry;

fn csv_cells() -> Vec<MatrixCell> {
    let budget = EvalBudget {
        execs: 400,
        seeds: vec![1, 2],
        afl_throughput: 1,
    };
    matrix_cells(&budget)
        .into_iter()
        .filter(|c| c.info.name == "csv")
        .collect()
}

/// accepts + rejects + hangs + crashes == execs, and both per-exec
/// histograms saw every execution — on a real campaign, not a toy
/// registry.
#[test]
fn counter_identities_hold_on_a_csv_campaign() {
    let registry = Arc::new(MetricsRegistry::new());
    let _scope = pdf_obs::install(Arc::clone(&registry));
    let cells = csv_cells();
    let (outcomes, _) = record_cells(&cells, 1);
    assert_eq!(outcomes.len(), cells.len());

    let execs = registry.execs.get();
    assert!(execs > 0, "campaign must have executed the subject");
    let verdicts = registry.accepts.get()
        + registry.rejects.get()
        + registry.hangs.get()
        + registry.crashes.get();
    assert_eq!(
        verdicts, execs,
        "every exec classifies to exactly one verdict"
    );
    assert_eq!(registry.exec_latency_ns.count(), execs);
    assert_eq!(registry.input_len.count(), execs);

    let snapshot = registry.snapshot();
    snapshot.check_identities().expect("identities hold");
    // ... and the identities survive the text codec round-trip.
    let decoded = pdf_obs::MetricsSnapshot::decode(&snapshot.encode()).expect("decodes");
    assert_eq!(snapshot, decoded);
    decoded
        .check_identities()
        .expect("identities hold after round-trip");
}

/// The campaign-level spans all fired: the per-phase breakdown is
/// non-empty for every phase the driver actually runs, and for both
/// baselines' campaigns and KLEE's solver.
#[test]
fn phase_spans_cover_the_driver_loop() {
    let registry = Arc::new(MetricsRegistry::new());
    let _scope = pdf_obs::install(Arc::clone(&registry));
    let cells = csv_cells();
    let _ = pdf_eval::run_cells(&cells, 1);
    for phase in [
        "driver.pick",
        "driver.exec",
        "driver.classify",
        "driver.enqueue",
        "afl.campaign",
        "klee.campaign",
        "klee.solve",
    ] {
        let stat = registry.span_stat(phase).unwrap_or_default();
        assert!(stat.count > 0, "span {phase} never fired");
    }
    // eval.cell wraps each matrix cell exactly once per attempt
    let cell_span = registry.span_stat("eval.cell").unwrap_or_default();
    assert!(cell_span.count >= cells.len() as u64);
}

/// The determinism contract: a journal recorded *without* any metrics
/// registry replays byte-identically *with* one installed (and the
/// other way round), and the two recordings are themselves identical.
#[test]
fn replay_digest_is_unchanged_by_metrics() {
    let cells = csv_cells();

    // record with no registry installed (pdf_obs::record is a no-op)
    assert!(
        pdf_obs::current().is_none(),
        "test must start uninstrumented"
    );
    let (_, journal_plain) = record_cells(&cells, 1);

    // record again with a registry installed
    let registry = Arc::new(MetricsRegistry::new());
    let scope = pdf_obs::install(Arc::clone(&registry));
    let (_, journal_metered) = record_cells(&cells, 1);

    assert_eq!(
        journal_plain.encode(),
        journal_metered.encode(),
        "metrics changed the recorded journal"
    );

    // replay the uninstrumented recording while metrics are on
    let report = replay_journal(&journal_plain, 2);
    assert!(report.is_clean(), "metered replay diverged");
    assert!(registry.execs.get() > 0, "replay itself was metered");
    drop(scope);

    // and replay the metered recording with metrics off again
    let report = replay_journal(&journal_metered, 1);
    assert!(report.is_clean(), "unmetered replay diverged");
}
