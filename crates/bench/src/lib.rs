//! Shared helpers for the benchmark harness.
//!
//! The bench targets measure the cost of the pieces behind the paper's
//! results (heuristic and dictionary ablations, sinks, metrics, fleet
//! sync, batch execution, token mining, grammar generation). The tables
//! and figures themselves are printed by `evalrunner`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Per-seed execution budget, overridable via `PDF_BENCH_EXECS`. Small
/// enough to keep `cargo bench` in the minutes, large enough that the
/// qualitative shape (who wins where) matches the full runs recorded in
/// EXPERIMENTS.md.
pub fn bench_execs() -> u64 {
    std::env::var("PDF_BENCH_EXECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4_000)
}
