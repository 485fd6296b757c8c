//! Property tests for the execution-mode contract of the tiered
//! driver: whatever `ExecMode` a campaign runs under, the valid-input
//! set it reports is exactly the set full instrumentation certifies.
//!
//! Tiered campaigns derive candidates from the reduced fast-failure
//! signal, so their *search trajectories* legitimately differ from a
//! full-instrumentation campaign at the same budget (the
//! coverage-vs-throughput trade measured in EXPERIMENTS.md). What must
//! never differ is the meaning of `valid_inputs`: every accepting run
//! is escalated to full instrumentation before it is reported, so the
//! reported set is precisely what a full-mode re-execution of those
//! inputs accepts — no fast-tier false positives, no phantom coverage.

use pdf_core::{DriverConfig, ExecMode, Fuzzer};
use proptest::prelude::*;

proptest! {
    // campaigns are expensive next to a single parse; a handful of
    // randomized (seed, budget) points per subject is plenty on top of
    // the fixed-seed unit tests in driver.rs
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_mode_reports_exactly_the_full_instrumentation_valid_set(
        seed in 1u64..10_000,
        max_execs in 2_000u64..3_000,
    ) {
        for subject in [
            pdf_subjects::arith::subject(),
            pdf_subjects::dyck::subject(),
        ] {
            let mut sets = Vec::new();
            for mode in [ExecMode::Full, ExecMode::Tiered] {
                let cfg = DriverConfig {
                    seed,
                    max_execs,
                    exec_mode: mode,
                    ..DriverConfig::default()
                };
                let report = Fuzzer::new(subject, cfg).run();
                prop_assert!(
                    !report.valid_inputs.is_empty(),
                    "{mode:?} on {} found nothing at seed {seed}",
                    subject.name()
                );
                // the reported set must survive full-fidelity replay:
                // re-running each input under the FullLog sink accepts
                // it, so the set is the one full instrumentation finds
                // on these inputs
                for input in &report.valid_inputs {
                    prop_assert!(
                        subject.run(input).valid,
                        "{mode:?} on {} reported {:?} valid, full instrumentation rejects it",
                        subject.name(),
                        String::from_utf8_lossy(input)
                    );
                }
                // valid coverage comes from escalated full runs only,
                // so it can never exceed total observed coverage
                for b in report.valid_branches.iter() {
                    prop_assert!(report.all_branches.contains(b));
                }
                sets.push(report.valid_inputs);
            }
            // no mode may report duplicate valid inputs — each set is
            // a set under full instrumentation's identity too
            for set in &sets {
                let unique: std::collections::BTreeSet<_> = set.iter().collect();
                prop_assert_eq!(unique.len(), set.len());
            }
        }
    }
}
