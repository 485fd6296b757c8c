//! An AFL-style coverage-guided mutational fuzzer — the "lexical"
//! baseline of the pFuzzer evaluation (Section 5).
//!
//! Reproduces the behavioural signature of AFL that the paper's
//! comparison rests on:
//!
//! - an **edge-coverage bitmap** with hit-count bucketing; inputs that
//!   light up new bitmap bits enter the seed queue,
//! - **deterministic stages** (bit flips, byte flips, arithmetic,
//!   interesting values) followed by **havoc** (stacked random
//!   mutations) and **splicing**,
//! - no comparison feedback of any kind: AFL sees coverage only, which
//!   is exactly why it finds `{`/`+`/`<` quickly but virtually never
//!   composes `while` (1 : 26⁵, as the paper computes),
//! - seeded with a single space character, the paper's Section 5.1
//!   setup.
//!
//! # Example
//!
//! ```
//! use pdf_afl::{AflConfig, AflFuzzer};
//!
//! let subject = pdf_subjects::ini::subject();
//! let config = AflConfig { seed: 1, max_execs: 2_000, ..AflConfig::default() };
//! let report = AflFuzzer::new(subject, config).run();
//! assert!(report.execs <= 2_000);
//! // ini accepts almost anything, so AFL finds valid inputs fast
//! assert!(!report.valid_inputs.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmap;
mod mutate;

pub use bitmap::CoverageBitmap;
pub use mutate::{havoc, havoc_preserving, splice, MutationOp};

use std::time::Instant;

use pdf_runtime::{BranchSet, CovExecution, Digest, Rng, RunStats, Subject};

/// AFL driver configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AflConfig {
    /// RNG seed; equal seeds give identical campaigns.
    pub seed: u64,
    /// Execution budget (number of subject runs).
    pub max_execs: u64,
    /// Initial seed inputs. Defaults to a single space — the paper gives
    /// AFL "one space character as starting point".
    pub seeds: Vec<Vec<u8>>,
    /// Stacked mutations per havoc case.
    pub havoc_stack: u32,
    /// Havoc cases generated per queue entry per cycle.
    pub havoc_cases: u32,
    /// Run the deterministic stages on fresh queue entries.
    pub deterministic: bool,
    /// Generated inputs are truncated to this length.
    pub max_input_len: usize,
    /// Dictionary tokens (AFL's `-x`): when non-empty, havoc also
    /// inserts and overwrites with these tokens. Used by the ablation
    /// that revisits the paper's AFL-CTP discussion (Section 6).
    pub dictionary: Vec<Vec<u8>>,
    /// Schedule dictionary mutations *last* in each havoc case
    /// ([`havoc_preserving`]) instead of mixing them into the rotation,
    /// so planted tokens survive the byte-level stack (the
    /// `preserving_tokens` preset of token-discovery fuzzers). No effect
    /// with an empty dictionary.
    pub preserve_tokens: bool,
}

impl Default for AflConfig {
    fn default() -> Self {
        AflConfig {
            seed: 0,
            max_execs: 100_000,
            seeds: vec![b" ".to_vec()],
            havoc_stack: 6,
            havoc_cases: 64,
            deterministic: true,
            max_input_len: 256,
            dictionary: Vec::new(),
            preserve_tokens: false,
        }
    }
}

impl AflConfig {
    /// 64-bit digest of the campaign-shaping fields. The RNG seed and
    /// the execution budget are excluded: a record/replay journal cell
    /// stores those separately, and the hash identifies the
    /// *configuration* a recording ran under so drift is detected.
    pub fn config_hash(&self) -> u64 {
        let mut d = Digest::new();
        d.write_str("afl-config-v1");
        d.write_u64(self.seeds.len() as u64);
        for s in &self.seeds {
            d.write_bytes(s);
        }
        d.write_u64(u64::from(self.havoc_stack));
        d.write_u64(u64::from(self.havoc_cases));
        d.write_u8(u8::from(self.deterministic));
        d.write_u64(self.max_input_len as u64);
        d.write_u64(self.dictionary.len() as u64);
        for t in &self.dictionary {
            d.write_bytes(t);
        }
        // Folded in only when set, so hashes recorded before the
        // preserving schedule existed keep verifying byte-for-byte.
        if self.preserve_tokens {
            d.write_str("preserve-tokens");
            d.write_u8(1);
        }
        d.finish()
    }
}

/// The outcome of an AFL campaign.
#[derive(Debug, Clone)]
pub struct AflReport {
    /// Valid inputs that covered new branches, in discovery order (the
    /// paper determines AFL's valid inputs by exit code afterwards; we
    /// record them online, deduplicated by coverage like KLEE's
    /// only-new-coverage output mode to keep the set manageable).
    pub valid_inputs: Vec<Vec<u8>>,
    /// Execution count at which each valid input was found (parallel to
    /// `valid_inputs`).
    pub valid_found_at: Vec<u64>,
    /// Subject executions spent.
    pub execs: u64,
    /// Branches covered by valid inputs.
    pub valid_branches: BranchSet,
    /// Branches covered by any run.
    pub all_branches: BranchSet,
    /// Queue entries discovered (AFL's "paths").
    pub paths: usize,
    /// Total count of valid executions (including ones that added no
    /// coverage) — AFL generates "1,000 times more inputs than pFuzzer".
    pub valid_execs: u64,
    /// Observability counters and timings for the campaign.
    pub stats: RunStats,
}

/// The AFL-style fuzzer.
#[derive(Debug)]
pub struct AflFuzzer {
    subject: Subject,
    cfg: AflConfig,
    rng: Rng,
}

impl AflFuzzer {
    /// Creates a fuzzer for `subject`.
    pub fn new(subject: Subject, cfg: AflConfig) -> Self {
        let rng = Rng::new(cfg.seed);
        AflFuzzer { subject, cfg, rng }
    }

    /// Runs the campaign to completion.
    pub fn run(mut self) -> AflReport {
        let _span = pdf_obs::span("afl.campaign");
        let mut report = AflReport {
            valid_inputs: Vec::new(),
            valid_found_at: Vec::new(),
            execs: 0,
            valid_branches: BranchSet::new(),
            all_branches: BranchSet::new(),
            paths: 0,
            valid_execs: 0,
            stats: RunStats::default(),
        };
        let started = Instant::now();
        let mut bitmap = CoverageBitmap::new();
        let mut queue: Vec<Vec<u8>> = Vec::new();

        // seed corpus
        for seed in self.cfg.seeds.clone() {
            if report.execs >= self.cfg.max_execs {
                break;
            }
            let exec = self.execute(&mut report, &seed);
            if bitmap.record_branches(exec.cov.branch_seq.iter().copied()) {
                queue.push(seed);
                report.paths += 1;
            } else if queue.is_empty() {
                // keep at least one seed so mutation has a base
                queue.push(seed);
            }
        }

        let mut det_done = 0usize; // deterministic stages run for queue[..det_done]
        let mut cursor = 0usize;
        while report.execs < self.cfg.max_execs && !queue.is_empty() {
            pdf_obs::record(|m| {
                let depth = queue.len() as u64;
                m.queue_depth.observe(depth);
                m.queue_depth_now.set(depth);
            });
            // deterministic stages for entries that have not had them
            if self.cfg.deterministic && det_done < queue.len() {
                let base = queue[det_done].clone();
                det_done += 1;
                for case in mutate::deterministic_cases(&base) {
                    if report.execs >= self.cfg.max_execs {
                        break;
                    }
                    self.try_case(case, &mut report, &mut bitmap, &mut queue);
                }
                continue;
            }
            // havoc + splice over the queue, round robin
            let base = queue[cursor % queue.len()].clone();
            cursor += 1;
            for _ in 0..self.cfg.havoc_cases {
                if report.execs >= self.cfg.max_execs {
                    break;
                }
                let case = self.havoc_case(&base);
                self.try_case(case, &mut report, &mut bitmap, &mut queue);
            }
            if queue.len() >= 2 && report.execs < self.cfg.max_execs {
                let other = queue[self.rng.gen_range(0, queue.len())].clone();
                let case = splice(&base, &other, &mut self.rng);
                let case = self.havoc_case(&case);
                self.try_case(case, &mut report, &mut bitmap, &mut queue);
            }
        }
        report.stats.executions = report.execs;
        report.stats.valid_inputs = report.valid_inputs.len() as u64;
        report.stats.queue_depth = queue.len();
        // AFL's mutation engine draws from the RNG far too often to
        // journal every byte; a draw count plus rolling stream digest is
        // enough to verify a replay consumed the identical stream.
        report.stats.decisions = self.rng.draw_count();
        report.stats.decision_digest = self.rng.stream_digest();
        report.stats.wall_secs = started.elapsed().as_secs_f64();
        report
    }

    /// One havoc case under the configured schedule: the mixed rotation
    /// by default, the token-preserving schedule (dictionary operator
    /// last) when [`AflConfig::preserve_tokens`] is set.
    fn havoc_case(&mut self, base: &[u8]) -> Vec<u8> {
        if self.cfg.preserve_tokens && !self.cfg.dictionary.is_empty() {
            pdf_obs::record(|m| m.tokens_dict_mutations.inc());
            mutate::havoc_preserving(
                base,
                self.cfg.havoc_stack,
                self.cfg.max_input_len,
                &self.cfg.dictionary,
                &mut self.rng,
            )
        } else {
            havoc(
                base,
                self.cfg.havoc_stack,
                self.cfg.max_input_len,
                &self.cfg.dictionary,
                &mut self.rng,
            )
        }
    }

    fn try_case(
        &mut self,
        mut case: Vec<u8>,
        report: &mut AflReport,
        bitmap: &mut CoverageBitmap,
        queue: &mut Vec<Vec<u8>>,
    ) {
        case.truncate(self.cfg.max_input_len);
        let exec = self.execute(report, &case);
        if bitmap.record_branches(exec.cov.branch_seq.iter().copied()) {
            queue.push(case);
            report.paths += 1;
        }
    }

    fn execute(&mut self, report: &mut AflReport, input: &[u8]) -> CovExecution {
        report.execs += 1;
        let exec = self.subject.run_coverage(input);
        report.stats.events += exec.cov.events;
        if exec.verdict.is_hang() {
            report.stats.hangs += 1;
        }
        if exec.verdict.is_crash() {
            report.stats.crashes += 1;
        }
        report.all_branches.union_with(&exec.cov.branches);
        if exec.valid {
            report.valid_execs += 1;
            let new_branches = exec.cov.branches.difference_size(&report.valid_branches);
            if new_branches > 0 {
                pdf_obs::record(|m| {
                    m.valid_inputs.inc();
                    m.new_branches.add(new_branches as u64);
                });
                report.valid_branches.union_with(&exec.cov.branches);
                report.valid_inputs.push(input.to_vec());
                report.valid_found_at.push(report.execs);
            }
        }
        exec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(subject: Subject, seed: u64, execs: u64) -> AflReport {
        let cfg = AflConfig {
            seed,
            max_execs: execs,
            ..AflConfig::default()
        };
        AflFuzzer::new(subject, cfg).run()
    }

    #[test]
    fn finds_valid_ini_inputs_quickly() {
        let report = run(pdf_subjects::ini::subject(), 1, 2_000);
        assert!(!report.valid_inputs.is_empty());
        let subject = pdf_subjects::ini::subject();
        for input in &report.valid_inputs {
            assert!(subject.run(input).valid);
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = run(pdf_subjects::csv::subject(), 3, 1_500);
        let b = run(pdf_subjects::csv::subject(), 3, 1_500);
        assert_eq!(a.valid_inputs, b.valid_inputs);
        assert_eq!(a.paths, b.paths);
    }

    #[test]
    fn respects_budget() {
        let report = run(pdf_subjects::json::subject(), 2, 500);
        assert!(report.execs <= 500);
    }

    #[test]
    fn covers_shallow_json_punctuation() {
        // AFL excels at single characters: digits and brackets appear fast
        let report = run(pdf_subjects::json::subject(), 5, 15_000);
        let corpus: Vec<String> = report
            .valid_inputs
            .iter()
            .map(|i| String::from_utf8_lossy(i).into_owned())
            .collect();
        let joined = corpus.join("\n");
        assert!(
            joined.contains('[')
                || joined.contains('{')
                || joined.chars().any(|c| c.is_ascii_digit()),
            "no shallow JSON structure found: {corpus:?}"
        );
    }

    #[test]
    fn decision_stream_is_reproducible() {
        let a = run(pdf_subjects::csv::subject(), 9, 1_500);
        let b = run(pdf_subjects::csv::subject(), 9, 1_500);
        assert!(a.stats.decisions > 0);
        assert_eq!(a.stats.decisions, b.stats.decisions);
        assert_eq!(a.stats.decision_digest, b.stats.decision_digest);
        let c = run(pdf_subjects::csv::subject(), 10, 1_500);
        assert_ne!(
            (a.stats.decisions, a.stats.decision_digest),
            (c.stats.decisions, c.stats.decision_digest),
            "different seeds should draw different streams"
        );
    }

    #[test]
    fn config_hash_ignores_seed_and_budget() {
        let base = AflConfig::default();
        let reseeded = AflConfig {
            seed: 99,
            max_execs: 1,
            ..base.clone()
        };
        assert_eq!(base.config_hash(), reseeded.config_hash());
        let reshaped = AflConfig {
            havoc_stack: base.havoc_stack + 1,
            ..base.clone()
        };
        assert_ne!(base.config_hash(), reshaped.config_hash());
        let with_dict = AflConfig {
            dictionary: vec![b"while".to_vec()],
            ..base.clone()
        };
        assert_ne!(base.config_hash(), with_dict.config_hash());
        let preserving = AflConfig {
            preserve_tokens: true,
            ..with_dict.clone()
        };
        assert_ne!(with_dict.config_hash(), preserving.config_hash());
    }

    #[test]
    fn preserving_campaign_is_deterministic_per_seed() {
        let cfg = AflConfig {
            seed: 13,
            max_execs: 1_500,
            dictionary: vec![b"true".to_vec(), b"null".to_vec()],
            preserve_tokens: true,
            ..AflConfig::default()
        };
        let a = AflFuzzer::new(pdf_subjects::json::subject(), cfg.clone()).run();
        let b = AflFuzzer::new(pdf_subjects::json::subject(), cfg).run();
        assert_eq!(a.valid_inputs, b.valid_inputs);
        assert_eq!(a.stats.decision_digest, b.stats.decision_digest);
    }

    #[test]
    fn preserving_schedule_finds_json_keywords() {
        // the point of the preserving schedule: whole keywords survive
        // into cases, so a keyword-bearing valid input shows up inside a
        // budget where the mixed rotation rarely composes one
        let cfg = AflConfig {
            seed: 2,
            max_execs: 20_000,
            dictionary: vec![b"true".to_vec(), b"false".to_vec(), b"null".to_vec()],
            preserve_tokens: true,
            ..AflConfig::default()
        };
        let report = AflFuzzer::new(pdf_subjects::json::subject(), cfg).run();
        let joined: Vec<String> = report
            .valid_inputs
            .iter()
            .map(|i| String::from_utf8_lossy(i).into_owned())
            .collect();
        assert!(
            joined
                .iter()
                .any(|s| s.contains("true") || s.contains("false") || s.contains("null")),
            "no keyword-bearing valid input: {joined:?}"
        );
    }

    #[test]
    fn valid_execs_counts_all_valid_runs() {
        let report = run(pdf_subjects::csv::subject(), 7, 2_000);
        assert!(report.valid_execs >= report.valid_inputs.len() as u64);
    }

    #[test]
    fn paths_grow_with_coverage() {
        let report = run(pdf_subjects::json::subject(), 9, 5_000);
        assert!(report.paths >= 1);
    }

    #[test]
    fn stats_are_populated() {
        let report = run(pdf_subjects::json::subject(), 11, 2_000);
        assert_eq!(report.stats.executions, report.execs);
        assert!(report.stats.events > 0);
        assert!(report.stats.wall_secs > 0.0);
    }

    #[test]
    fn chaos_hangs_and_crashes_are_counted() {
        use pdf_subjects::chaos::{self, ChaosConfig};
        let cfg = ChaosConfig {
            panic_per_mille: 500,
            hang_per_mille: 500,
            ..ChaosConfig::silent(11)
        };
        let subject = chaos::wrap(pdf_subjects::ini::subject(), cfg);
        let report = run(subject, 1, 300);
        assert!(report.stats.crashes > 0, "some executions crash");
        assert!(report.stats.hangs > 0, "some executions hang");
        assert_eq!(report.stats.hangs + report.stats.crashes, report.execs);
    }
}
