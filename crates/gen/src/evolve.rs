//! Evolutionary weighting: tally each alternative's branch-coverage
//! yield and re-weight the compiled choice tables at deterministic
//! epochs — the EvoGFuzz idea (PAPERS.md) under this repo's replay
//! contract.
//!
//! Each epoch generates a batch and runs it in one ordered pass, each
//! input at most once, under the coverage sink
//! ([`run_coverage`](pdf_runtime::Subject::run_coverage)): one run
//! gives both the validity verdict and the branches. An input whose
//! bytes equal a distinct valid input already run is counted valid
//! and not run again (subjects are pure in their input, so it would
//! be valid again and cover nothing new). Every alternative in a fresh
//! valid input's choice trace is credited with the input's newly
//! covered branches plus a validity bonus; at the epoch boundary the
//! weight table is rebuilt as
//!
//! ```text
//! w' = 1 + w/2 + yield        (clamped to [1, weight_cap])
//! ```
//!
//! — old signal decays geometrically, productive alternatives compound,
//! and nothing ever reaches zero (every alternative stays sampleable,
//! so the distribution cannot collapse). All arithmetic is integer and
//! the only randomness is the generator's own [`Rng`] stream, so two
//! runs with the same `(grammar, seed, epochs, batch)` produce
//! identical weights, inputs and digests.
//!
//! The pass is cheap only while most inputs are valid. Against a
//! fast-tier flood with escalation (one fast run per input, plus a
//! coverage run per fresh valid input), it saves a fast run on every
//! valid input but pays a coverage run, 1.5–2.2 fast runs on mjs, for
//! every invalid one. So it wins while a batch's invalid share stays
//! below the fast/coverage cost ratio (about one half) and loses above
//! it: the mined-grammar floods of the evaluation subjects have
//! invalid shares of 0 to 0.42, but a flood of mostly invalid inputs
//! runs slower: 31–46% at an invalid share of 0.88 (EXPERIMENTS.md,
//! "One run per generated input").

use std::collections::BTreeMap;

use pdf_runtime::{digest_bytes, BranchSet, CovExecution, Digest, Rng, Subject};

use crate::compile::{CompiledGrammar, GenBatch};

/// Configuration of an evolutionary generation campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvolveConfig {
    /// Seed for the generation stream.
    pub seed: u64,
    /// Re-weighting epochs to run.
    pub epochs: usize,
    /// Inputs generated per epoch.
    pub batch: usize,
    /// Upper clamp for any single weight, bounding how hard one
    /// alternative can dominate the sample distribution.
    pub weight_cap: u32,
}

impl Default for EvolveConfig {
    fn default() -> Self {
        EvolveConfig {
            seed: 0,
            epochs: 8,
            batch: 256,
            weight_cap: 1 << 12,
        }
    }
}

/// The outcome of an evolutionary generation campaign.
#[derive(Debug, Clone)]
pub struct EvolveReport {
    /// Epochs completed.
    pub epochs_run: usize,
    /// Inputs generated (epochs × batch).
    pub generated: u64,
    /// Generated inputs the subject accepted, duplicates included.
    pub generated_valid: u64,
    /// Distinct valid inputs, in discovery order.
    pub distinct_valid: Vec<Vec<u8>>,
    /// Branches covered by the distinct valid inputs (from their
    /// coverage runs).
    pub branches: BranchSet,
    /// Learned weights in [`GrammarFile`](pdf_grammar::GrammarFile)
    /// shape, ready to persist through the `pdf-grammar v1` codec.
    pub weights: Vec<Vec<u32>>,
}

impl EvolveReport {
    /// FNV-1a digest over every deterministic field — equal across two
    /// runs with the same grammar and configuration.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_u64(self.epochs_run as u64);
        d.write_u64(self.generated);
        d.write_u64(self.generated_valid);
        d.write_u64(self.distinct_valid.len() as u64);
        for input in &self.distinct_valid {
            d.write_bytes(input);
        }
        d.write_u64(self.branches.len() as u64);
        for b in self.branches.iter() {
            d.write_u64(b.site.0);
            d.write_u8(b.outcome as u8);
        }
        for row in &self.weights {
            d.write_u64(row.len() as u64);
            for &w in row {
                d.write_u64(u64::from(w));
            }
        }
        d.finish()
    }
}

/// What one epoch discovered — the unit the combined campaign promotes
/// into fleet queues between fleet epochs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochYield {
    /// Valid inputs first seen this epoch, in discovery order.
    pub fresh_valid: Vec<Vec<u8>>,
    /// Branches first covered this epoch.
    pub fresh_branches: usize,
}

/// The stepwise evolutionary loop: owns the generator, the coverage
/// frontier and the reusable batch buffers; [`epoch`](Evolver::epoch)
/// advances one re-weighting epoch at a time so a caller (the combined
/// campaign) can interleave generation with fleet epochs.
#[derive(Debug)]
pub struct Evolver {
    subject: Subject,
    compiled: CompiledGrammar,
    cfg: EvolveConfig,
    rng: Rng,
    /// Reused flat arena of generated inputs and choice traces
    /// (cleared each epoch, never shrunk — allocation-free at steady
    /// state).
    batch: GenBatch,
    /// Per-alternative yield accumulator, cleared each epoch.
    alt_yield: Vec<u64>,
    /// Digest of each distinct valid input → its index in
    /// `distinct_valid`, so a repeat is confirmed by its bytes.
    seen: BTreeMap<u64, usize>,
    branches: BranchSet,
    distinct_valid: Vec<Vec<u8>>,
    epochs_run: usize,
    generated: u64,
    generated_valid: u64,
}

impl Evolver {
    /// Creates an evolver over an already compiled grammar.
    pub fn new(subject: Subject, compiled: CompiledGrammar, cfg: EvolveConfig) -> Self {
        let alt_count = compiled.alt_count();
        Evolver {
            subject,
            compiled,
            rng: Rng::new(cfg.seed ^ 0x4556_4f47), // "EVOG"
            batch: GenBatch::new(),
            alt_yield: vec![0; alt_count],
            cfg,
            seen: BTreeMap::new(),
            branches: BranchSet::new(),
            distinct_valid: Vec::new(),
            epochs_run: 0,
            generated: 0,
            generated_valid: 0,
        }
    }

    /// The current weight table, in `GrammarFile` shape.
    pub fn weight_rows(&self) -> Vec<Vec<u32>> {
        self.compiled.weight_rows()
    }

    /// Branches covered by distinct valid generated inputs so far.
    pub fn branches(&self) -> &BranchSet {
        &self.branches
    }

    /// Runs one epoch: generate a batch, run each input at most once
    /// under the coverage sink, credit the choice traces of fresh valid
    /// inputs, re-weight.
    ///
    /// A repeat of a distinct valid input (equal digest, equal bytes)
    /// is counted valid without a run. A valid input whose digest
    /// matches a different distinct input (a 64-bit collision) is
    /// counted valid but never credited.
    pub fn epoch(&mut self) -> EpochYield {
        let mut result = EpochYield::default();
        self.compiled
            .generate_batch(&mut self.rng, &mut self.batch, self.cfg.batch);
        self.generated += self.batch.len() as u64;
        self.alt_yield.iter_mut().for_each(|y| *y = 0);
        let mut epoch_valid: u64 = 0;
        for i in 0..self.batch.len() {
            let input = self.batch.input(i);
            let digest = digest_bytes(input);
            let known = self.seen.get(&digest).copied();
            if known.is_some_and(|k| self.distinct_valid[k] == input) {
                epoch_valid += 1;
                continue;
            }
            let cov = self.subject.run_coverage(input);
            if !cov.valid {
                continue;
            }
            epoch_valid += 1;
            if known.is_none() {
                self.credit(i, digest, &cov, &mut result);
            }
        }
        self.reweight(epoch_valid);
        result
    }

    /// Records batch input `i`, valid and first seen, as a distinct
    /// valid input: folds its coverage into the frontier and credits
    /// every alternative in its choice trace with the fresh branches
    /// plus one.
    fn credit(&mut self, i: usize, digest: u64, cov: &CovExecution, result: &mut EpochYield) {
        let input = self.batch.input(i);
        self.seen.insert(digest, self.distinct_valid.len());
        let mut fresh_branches: u64 = 0;
        for b in cov.cov.branches.iter() {
            if self.branches.insert(*b) {
                fresh_branches += 1;
            }
        }
        result.fresh_branches += fresh_branches as usize;
        for &alt in self.batch.trace(i) {
            self.alt_yield[alt as usize] += fresh_branches + 1;
        }
        self.distinct_valid.push(input.to_vec());
        result.fresh_valid.push(input.to_vec());
    }

    /// Ends an epoch: rebuilds the weight table from the yields and
    /// tallies the epoch.
    fn reweight(&mut self, epoch_valid: u64) {
        self.generated_valid += epoch_valid;
        let cap = self.cfg.weight_cap.max(1);
        let new_weights: Vec<u32> = self
            .compiled
            .weights()
            .iter()
            .zip(&self.alt_yield)
            .map(|(&w, &y)| {
                let grown = u64::from(1 + w / 2) + y;
                u32::try_from(grown).unwrap_or(u32::MAX).clamp(1, cap)
            })
            .collect();
        self.compiled
            .set_weights(&new_weights)
            .expect("weight shape is stable across epochs");
        self.epochs_run += 1;
        pdf_obs::record(|m| {
            m.grammar_generated.add(self.cfg.batch as u64);
            m.grammar_generated_valid.add(epoch_valid);
            m.grammar_weight_epochs.inc();
        });
    }

    /// Finalizes into the campaign report.
    pub fn into_report(self) -> EvolveReport {
        EvolveReport {
            epochs_run: self.epochs_run,
            generated: self.generated,
            generated_valid: self.generated_valid,
            distinct_valid: self.distinct_valid,
            branches: self.branches,
            weights: self.compiled.weight_rows(),
        }
    }
}

/// Runs all configured epochs in one call — the standalone (non-fleet)
/// entry point.
pub fn evolve(subject: Subject, compiled: CompiledGrammar, cfg: EvolveConfig) -> EvolveReport {
    let mut evolver = Evolver::new(subject, compiled, cfg.clone());
    for _ in 0..cfg.epochs {
        evolver.epoch();
    }
    evolver.into_report()
}

/// The two-pass epoch the one-pass [`Evolver::epoch`] replaced, kept
/// as the reference the property tests hold it to: every input runs
/// through the fast tier, then each valid input whose digest is new is
/// run again under coverage.
#[cfg(test)]
mod reference {
    use pdf_runtime::{digest_bytes, ExecArena};

    use super::{EpochYield, Evolver};

    pub(super) fn two_pass_epoch(ev: &mut Evolver, arena: &mut ExecArena) -> EpochYield {
        let mut result = EpochYield::default();
        ev.compiled
            .generate_batch(&mut ev.rng, &mut ev.batch, ev.cfg.batch);
        let views: Vec<&[u8]> = ev.batch.inputs().collect();
        let verdicts: Vec<bool> = ev
            .subject
            .exec_batch_fast(arena, &views)
            .iter()
            .map(|e| e.valid)
            .collect();
        ev.generated += ev.batch.len() as u64;
        ev.alt_yield.iter_mut().for_each(|y| *y = 0);
        let mut epoch_valid: u64 = 0;
        for (i, &valid) in verdicts.iter().enumerate() {
            if !valid {
                continue;
            }
            epoch_valid += 1;
            let digest = digest_bytes(ev.batch.input(i));
            if ev.seen.contains_key(&digest) {
                continue;
            }
            let cov = ev.subject.run_coverage(ev.batch.input(i));
            ev.credit(i, digest, &cov, &mut result);
        }
        ev.reweight(epoch_valid);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_uniform;
    use pdf_grammar::mine_corpus;
    use pdf_runtime::ExecArena;
    use proptest::prelude::*;

    fn arith_compiled() -> CompiledGrammar {
        let corpus: Vec<Vec<u8>> = [&b"1"[..], b"(1)", b"((2))", b"1+2", b"(1+2)-3"]
            .iter()
            .map(|c| c.to_vec())
            .collect();
        let grammar = mine_corpus(pdf_subjects::arith::subject(), &corpus);
        compile_uniform(&grammar, 8).unwrap()
    }

    #[test]
    fn evolve_is_deterministic() {
        let cfg = EvolveConfig {
            seed: 3,
            epochs: 4,
            batch: 64,
            ..EvolveConfig::default()
        };
        let a = evolve(
            pdf_subjects::arith::subject(),
            arith_compiled(),
            cfg.clone(),
        );
        let b = evolve(pdf_subjects::arith::subject(), arith_compiled(), cfg);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.distinct_valid, b.distinct_valid);
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn evolve_finds_valid_inputs_and_learns() {
        let report = evolve(
            pdf_subjects::arith::subject(),
            arith_compiled(),
            EvolveConfig {
                seed: 1,
                epochs: 4,
                batch: 128,
                ..EvolveConfig::default()
            },
        );
        assert_eq!(report.epochs_run, 4);
        assert_eq!(report.generated, 4 * 128);
        assert!(report.generated_valid > 0);
        assert!(!report.distinct_valid.is_empty());
        assert!(!report.branches.is_empty());
        // at least one weight moved off the uniform baseline
        assert!(report.weights.iter().flatten().any(|&w| w != 1));
    }

    #[test]
    fn weights_stay_positive_and_capped() {
        let cap = 16;
        let report = evolve(
            pdf_subjects::arith::subject(),
            arith_compiled(),
            EvolveConfig {
                seed: 2,
                epochs: 6,
                batch: 64,
                weight_cap: cap,
            },
        );
        for &w in report.weights.iter().flatten() {
            assert!(w >= 1 && w <= cap, "weight {w} outside [1, {cap}]");
        }
    }

    #[test]
    fn stepwise_epochs_match_one_shot() {
        let cfg = EvolveConfig {
            seed: 5,
            epochs: 3,
            batch: 48,
            ..EvolveConfig::default()
        };
        let one_shot = evolve(
            pdf_subjects::arith::subject(),
            arith_compiled(),
            cfg.clone(),
        );
        let mut stepper = Evolver::new(pdf_subjects::arith::subject(), arith_compiled(), cfg);
        let mut fresh_total = 0;
        for _ in 0..3 {
            fresh_total += stepper.epoch().fresh_valid.len();
        }
        let stepped = stepper.into_report();
        assert_eq!(one_shot.digest(), stepped.digest());
        assert_eq!(fresh_total, stepped.distinct_valid.len());
    }

    /// The grammar mined from `corpus`, compiled at `max_depth`.
    fn mined(subject: Subject, corpus: &[&[u8]], max_depth: usize) -> CompiledGrammar {
        let corpus: Vec<Vec<u8>> = corpus.iter().map(|c| c.to_vec()).collect();
        compile_uniform(&mine_corpus(subject, &corpus), max_depth).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The one-pass epoch yields, weighs and reports exactly like
        /// the two-pass reference. The shallow dyck grammar generates
        /// mostly repeats, so the known-valid skip runs often; mjs
        /// generates many invalid inputs.
        #[test]
        fn one_pass_epochs_match_two_pass_reference(
            pick in 0u8..4,
            seed in any::<u64>(),
            epochs in 1usize..6,
            batch in 1usize..160,
            cap_log in 0u32..13,
        ) {
            let (subject, corpus, depth) = match pick {
                0 => (pdf_subjects::arith::subject(), pdf_subjects::arith::reference_corpus(), 8),
                1 => (pdf_subjects::dyck::subject(), pdf_subjects::dyck::reference_corpus(), 3),
                2 => (pdf_subjects::json::subject(), pdf_subjects::json::reference_corpus(), 10),
                _ => (pdf_subjects::mjs::subject(), pdf_subjects::mjs::reference_corpus(), 10),
            };
            let compiled = mined(subject, &corpus, depth);
            let cfg = EvolveConfig {
                seed,
                epochs,
                batch,
                weight_cap: (1 << cap_log) - 1,
            };
            let mut one = Evolver::new(subject, compiled.clone(), cfg.clone());
            let mut two = Evolver::new(subject, compiled, cfg);
            let mut arena = ExecArena::new();
            for _ in 0..epochs {
                prop_assert_eq!(one.epoch(), reference::two_pass_epoch(&mut two, &mut arena));
                prop_assert_eq!(one.weight_rows(), two.weight_rows());
            }
            let (one, two) = (one.into_report(), two.into_report());
            prop_assert_eq!(one.generated, two.generated);
            prop_assert_eq!(one.generated_valid, two.generated_valid);
            prop_assert_eq!(&one.distinct_valid, &two.distinct_valid);
            prop_assert_eq!(&one.branches, &two.branches);
            prop_assert_eq!(one.digest(), two.digest());
        }
    }

    #[test]
    fn a_digest_collision_is_counted_by_its_own_verdict_and_never_credited() {
        let subject = pdf_subjects::mjs::subject();
        let compiled = mined(subject, &pdf_subjects::mjs::reference_corpus(), 10);
        let cfg = EvolveConfig {
            seed: 1,
            epochs: 1,
            batch: 128,
            ..EvolveConfig::default()
        };
        let mut plain = Evolver::new(subject, compiled.clone(), cfg.clone());
        let want = plain.epoch();
        let batch: Vec<Vec<u8>> = plain.batch.inputs().map(<[u8]>::to_vec).collect();
        let valid = want.fresh_valid[0].clone();
        let invalid = batch
            .iter()
            .find(|i| !subject.run(i).valid)
            .expect("the batch holds an invalid input")
            .clone();

        // Both inputs' digests already name other, unrelated bytes.
        let mut collided = Evolver::new(subject, compiled, cfg);
        for input in [&valid, &invalid] {
            let index = collided.distinct_valid.len();
            collided.distinct_valid.push(b"\x00unrelated".to_vec());
            collided.seen.insert(digest_bytes(input), index);
        }
        let got = collided.epoch();
        assert_eq!(collided.generated_valid, plain.generated_valid);
        let fresh: Vec<&Vec<u8>> = want.fresh_valid.iter().filter(|i| **i != valid).collect();
        assert_eq!(got.fresh_valid.iter().collect::<Vec<_>>(), fresh);
        assert!(!collided.distinct_valid.contains(&valid));
        assert_eq!(collided.distinct_valid.len(), 2 + fresh.len());
    }
}
