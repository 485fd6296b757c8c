//! Property tests for the streaming sinks: on any input and any
//! subject, the `CoverageOnly`, `LastFailure` and `FastFailure` sinks
//! must report exactly what a reduction of the `FullLog` event vector
//! reports — same branch set, same EOF access, same rejection index,
//! same substitution candidates, same last-comparison fingerprint. One
//! full-sink run must also yield the fast sink's summary exactly, and
//! its lean summary must keep the full summary's fields unchanged.

use pdf_runtime::{BranchSet, ExecArena, FailureSummary, Subject};
use proptest::prelude::*;

/// Checks every subject against the full-log reference reductions.
fn assert_sinks_agree(input: &[u8]) {
    let mut arena = ExecArena::new();
    for info in pdf_subjects::all_subjects() {
        let full = info.subject.run(input);
        let cov = info.subject.run_coverage(input);
        let fail = info.subject.run_last_failure(input);
        let fast = info.subject.run_fast_failure(input);

        assert_eq!(cov.valid, full.valid, "{}: verdicts differ", info.name);
        assert_eq!(fail.valid, full.valid, "{}: verdicts differ", info.name);
        assert_eq!(fast.valid, full.valid, "{}: verdicts differ", info.name);
        assert_eq!(cov.error, full.error, "{}: errors differ", info.name);
        assert_eq!(fail.error(), full.error, "{}: errors differ", info.name);
        assert_eq!(fast.error(), full.error, "{}: errors differ", info.name);

        let cov_ref = full.log.coverage_summary();
        let fail_ref = full.log.failure_summary();
        let fast_ref = full.log.fast_summary();
        assert_eq!(cov.cov, cov_ref, "{}: coverage summary differs", info.name);
        assert_eq!(
            fail.failure, fail_ref,
            "{}: failure summary differs",
            info.name
        );
        assert_eq!(fast.fast, fast_ref, "{}: fast summary differs", info.name);

        // the fast-failure reduction keeps exactly the two signals the
        // tiered driver filters on, so they must match the streaming
        // LastFailure summary bit for bit
        assert_eq!(
            fast.fast.rejection_index, fail_ref.rejection_index,
            "{}: rejection index differs between fast and last-failure",
            info.name
        );
        assert_eq!(
            fast.fast.last_cmp_fingerprint, fail_ref.last_cmp_fingerprint,
            "{}: last-comparison fingerprint differs between fast and last-failure",
            info.name
        );
        assert_eq!(fast.fast.eof_access, fail_ref.eof_access, "{}", info.name);

        // arena reuse must not change a single field of the summary
        let arena_run = info.subject.run_fast_failure_arena(&mut arena, input);
        assert_eq!(arena_run.valid, fast.valid, "{}", info.name);
        assert_eq!(arena_run.verdict, fast.verdict, "{}", info.name);
        assert_eq!(arena_run.fast, fast.fast, "{}", info.name);
    }
}

/// Near-valid prefixes that reject deep inside the input, including mjs
/// prefixes that stop inside keyword and member-name `strcmp`s.
fn near_valid_prefix() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("[a]\nk=v".to_string()),
        Just("a,b\nc".to_string()),
        Just("{\"k\": [1,".to_string()),
        Just("{i=1; while".to_string()),
        Just("x = \"str".to_string()),
        Just("((([{<".to_string()),
        Just("typ".to_string()),
        Just("x = JSON.strin".to_string()),
        Just("for (k i".to_string()),
        Just("x = [1].indexO".to_string()),
        Just("x = \"abc\".len".to_string()),
        Just("do x = 1; whil".to_string()),
    ]
}

/// Short sequences mixing arbitrary bytes and near-valid prefixes, for
/// tests that run many inputs through one arena.
fn input_sequence() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..24),
            (near_valid_prefix(), "[ -~]{0,6}")
                .prop_map(|(prefix, tail)| format!("{prefix}{tail}").into_bytes()),
        ],
        1..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sinks_agree_on_arbitrary_bytes(input in proptest::collection::vec(any::<u8>(), 0..32)) {
        assert_sinks_agree(&input);
    }

    #[test]
    fn sinks_agree_on_printable_prefixes(input in "[ -~]{0,24}") {
        // printable inputs parse deeper, exercising the candidate and
        // rejection-index paths rather than bailing at byte 0
        assert_sinks_agree(input.as_bytes());
    }

    #[test]
    fn sinks_agree_on_near_valid_inputs(
        prefix in near_valid_prefix(),
        tail in "[ -~]{0,6}",
    ) {
        // rejection typically lands deep inside the input here
        let input = format!("{prefix}{tail}");
        assert_sinks_agree(input.as_bytes());
    }

    #[test]
    fn batched_fast_failure_agrees_with_single_runs(
        inputs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..24),
            0..8,
        ),
    ) {
        // one arena across the whole batch: buffer reuse must be
        // invisible in the results, in any order, for every subject
        let mut arena = ExecArena::new();
        for info in pdf_subjects::all_subjects() {
            let batch = info.subject.exec_batch_fast(&mut arena, &inputs);
            prop_assert_eq!(batch.len(), inputs.len());
            for (exec, input) in batch.iter().zip(&inputs) {
                let single = info.subject.run_fast_failure(input);
                prop_assert_eq!(exec.valid, single.valid, "{}", info.name);
                prop_assert_eq!(&exec.verdict, &single.verdict, "{}", info.name);
                prop_assert_eq!(&exec.fast, &single.fast, "{}", info.name);
            }
        }
    }

    #[test]
    fn recycled_full_tier_agrees_with_the_full_log(inputs in input_sequence()) {
        // the driver's full tier: one arena shared by every run, left
        // dirty by the previous subject and the previous input; the
        // second pass replays the sequence through the arena the first
        // pass left behind
        let mut arena = ExecArena::new();
        for info in pdf_subjects::all_subjects() {
            let references: Vec<_> = inputs
                .iter()
                .map(|input| info.subject.run(input))
                .collect();
            for _pass in 0..2 {
                for (input, full) in inputs.iter().zip(&references) {
                    let exec = info.subject.run_last_failure_arena(&mut arena, input);
                    prop_assert_eq!(exec.valid, full.valid, "{}", info.name);
                    prop_assert_eq!(&exec.verdict, &full.verdict, "{}", info.name);
                    prop_assert_eq!(&exec.failure, &full.log.failure_summary(), "{}", info.name);
                }
            }
        }
    }

    #[test]
    fn one_full_run_serves_every_summary(inputs in input_sequence()) {
        // the tiered driver runs each input once, under the full sink,
        // and derives the fast tier's summary from that run; a rejected
        // first run builds only the lean summary. One arena serves every
        // run, left dirty by the previous subject and input, and each
        // subject also runs through the full-log fallback.
        let mut arena = ExecArena::new();
        for info in pdf_subjects::all_subjects() {
            let native = info.subject;
            let log_only = Subject::new(native.name(), native.entry()).with_fuel(native.fuel());
            for subject in [native, log_only] {
                for input in &inputs {
                    let fast = subject.run_fast_failure_arena(&mut arena, input);
                    let run = subject.failure_run(&mut arena, input);
                    prop_assert_eq!(run.verdict(), &fast.verdict, "{}", info.name);
                    prop_assert_eq!(&run.fast_summary(), &fast.fast, "{}", info.name);
                    let full = run.finish();

                    let lean = subject.failure_run(&mut arena, input).finish_lean();
                    prop_assert_eq!(lean.valid, full.valid, "{}", info.name);
                    prop_assert_eq!(&lean.verdict, &full.verdict, "{}", info.name);
                    // every kept field equal, every dropped one empty
                    let expected = FailureSummary {
                        branches_up_to_rejection: BranchSet::new(),
                        candidates: Vec::new(),
                        accepted_first: Vec::new(),
                        ..full.failure
                    };
                    prop_assert_eq!(&lean.failure, &expected, "{}", info.name);
                }
            }
        }
    }
}
