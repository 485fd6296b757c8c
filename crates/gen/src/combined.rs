//! The combined three-stage campaign: pFuzzer discovers syntax,
//! `pdf-grammar` mines and generalizes it, `pdf-gen` floods generated
//! inputs through coverage runs while a `pdf-fleet` fleet keeps fuzzing —
//! with generator-found valid inputs promoted into every shard's
//! candidate queue between epochs, and generator coverage folded into
//! the shards' scoring baselines.
//!
//! Degenerate grammars are handled honestly: when exploration finds
//! nothing to mine, or the mined grammar's cheapest alternatives cycle,
//! the flood stage is *skipped* (recorded in
//! [`CombinedReport::flood_skipped`]) and the campaign degrades to a
//! plain fleet — it never fabricates generator results.
//!
//! # Determinism contract
//!
//! Every stage draws only from seeded [`Rng`](pdf_runtime::Rng) streams
//! and the interleaving of generator and fleet epochs is fixed, so two
//! runs with the same configuration produce identical
//! [`CombinedReport::digest`]s — the property the `grammar-gen` CI job
//! gates on.

use pdf_core::{DriverConfig, ExecMode, Fuzzer};
use pdf_fleet::{Fleet, FleetConfig, FleetReport};
use pdf_grammar::{mine_corpus, GrammarFile};
use pdf_runtime::{Digest, Subject};

use crate::compile::CompiledGrammar;
use crate::evolve::{EvolveConfig, EvolveReport, Evolver};

/// Configuration of the combined campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombinedConfig {
    /// Base seed; every stage derives its stream from it.
    pub seed: u64,
    /// Execution budget of the pFuzzer exploration stage.
    pub explore_execs: u64,
    /// Fleet shards for the third stage.
    pub shards: usize,
    /// Per-shard execution budget of the fleet stage.
    pub fleet_execs_per_shard: u64,
    /// Per-shard executions between fleet sync epochs.
    pub sync_every: u64,
    /// Generator re-weighting epochs interleaved with fleet epochs.
    pub gen_epochs: usize,
    /// Inputs generated per generator epoch.
    pub gen_batch: usize,
    /// Depth bound for grammar expansion.
    pub max_depth: usize,
    /// Execution mode of the fleet shards (the exploration stage always
    /// runs fully instrumented: mining needs its comparison log).
    pub exec_mode: ExecMode,
}

impl Default for CombinedConfig {
    fn default() -> Self {
        CombinedConfig {
            seed: 0,
            explore_execs: 8_000,
            shards: 2,
            fleet_execs_per_shard: 4_000,
            sync_every: 500,
            gen_epochs: 8,
            gen_batch: 256,
            max_depth: 10,
            exec_mode: ExecMode::Full,
        }
    }
}

/// The outcome of a combined campaign.
#[derive(Debug, Clone)]
pub struct CombinedReport {
    /// Valid inputs the exploration stage discovered.
    pub explore_valid: usize,
    /// Executions the exploration stage spent.
    pub explore_execs: u64,
    /// Digest of the exploration stage's full report.
    pub explore_digest: u64,
    /// Nonterminals in the mined grammar.
    pub grammar_rules: usize,
    /// Digest of the mined grammar + final learned weights (the
    /// `pdf-grammar v1` file digest), zero when the flood was skipped.
    pub grammar_digest: u64,
    /// Why the generator flood did not run, when it did not — an empty
    /// or degenerate grammar is reported, never papered over.
    pub flood_skipped: Option<String>,
    /// The generator flood's report, when it ran.
    pub flood: Option<EvolveReport>,
    /// The fleet stage's merged report.
    pub fleet: FleetReport,
    /// Distinct generator-found valid inputs promoted into fleet
    /// queues.
    pub promoted: u64,
    /// The mined grammar plus final learned weights, when the flood
    /// ran — what `evalrunner --grammar-out` persists.
    pub grammar: Option<GrammarFile>,
}

impl CombinedReport {
    /// The grammar + learned weights as a persistable codec file, when
    /// the flood ran.
    pub fn grammar_file(&self) -> Option<&GrammarFile> {
        self.grammar.as_ref()
    }

    /// FNV-1a digest folding every stage's digest — the combined
    /// campaign's determinism witness.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_u64(self.explore_valid as u64);
        d.write_u64(self.explore_execs);
        d.write_u64(self.explore_digest);
        d.write_u64(self.grammar_rules as u64);
        d.write_u64(self.grammar_digest);
        d.write_u8(u8::from(self.flood_skipped.is_some()));
        if let Some(flood) = &self.flood {
            d.write_u64(flood.digest());
        }
        d.write_u64(self.fleet.digest());
        d.write_u64(self.promoted);
        d.finish()
    }
}

/// Runs the combined campaign. Infallible configuration errors aside,
/// the only failure mode is an invalid fleet configuration.
///
/// # Errors
///
/// [`pdf_fleet::FleetError`] when the fleet configuration is invalid
/// (zero shards or sync interval).
pub fn run_combined(
    subject: Subject,
    cfg: &CombinedConfig,
) -> Result<CombinedReport, pdf_fleet::FleetError> {
    // Stage 1 — explore. Full instrumentation regardless of the fleet's
    // exec mode: the miner profiles comparison events.
    let explore = Fuzzer::new(
        subject,
        DriverConfig {
            seed: cfg.seed,
            max_execs: cfg.explore_execs,
            ..DriverConfig::default()
        },
    )
    .run();
    let explore_digest = explore.digest();
    let explore_execs = explore.execs;

    // Stage 2 — mine and compile.
    let grammar = mine_corpus(subject, &explore.valid_inputs);
    let grammar_rules = grammar.len();
    let mut evolver: Option<Evolver> = None;
    let mut flood_skipped: Option<String> = None;
    if grammar.alts(pdf_grammar::START).is_empty() {
        flood_skipped = Some(format!(
            "mined grammar has no start alternatives ({} valid inputs explored)",
            explore.valid_inputs.len()
        ));
    } else {
        match CompiledGrammar::compile(&GrammarFile::uniform(grammar.clone()), cfg.max_depth) {
            Ok(compiled) => {
                evolver = Some(Evolver::new(
                    subject,
                    compiled,
                    EvolveConfig {
                        seed: cfg.seed,
                        epochs: cfg.gen_epochs,
                        batch: cfg.gen_batch,
                        ..EvolveConfig::default()
                    },
                ));
            }
            Err(e) => flood_skipped = Some(e.to_string()),
        }
    }

    // Stage 3 — fleet, with generator epochs interleaved. The fleet's
    // seed stream is offset from the explore stage's so the stages stay
    // independent.
    let base = DriverConfig {
        seed: cfg.seed.wrapping_add(0x0101),
        max_execs: cfg.fleet_execs_per_shard,
        exec_mode: cfg.exec_mode,
        ..DriverConfig::default()
    };
    let mut fleet = Fleet::new(
        subject,
        FleetConfig {
            shards: cfg.shards,
            sync_every: cfg.sync_every,
            base,
            parallel: false,
        },
    )?;
    let mut promoted: u64 = 0;
    let mut gen_epochs_left = if evolver.is_some() { cfg.gen_epochs } else { 0 };
    let mut fleet_done = false;
    while gen_epochs_left > 0 || !fleet_done {
        if let (Some(ev), true) = (evolver.as_mut(), gen_epochs_left > 0) {
            let epoch_yield = ev.epoch();
            gen_epochs_left -= 1;
            if !epoch_yield.fresh_valid.is_empty() {
                let fresh = fleet.inject_external(&epoch_yield.fresh_valid);
                promoted += fresh;
                pdf_obs::record(|m| m.grammar_promotions.add(fresh));
            }
            if epoch_yield.fresh_branches > 0 {
                fleet.adopt_external_coverage(ev.branches());
            }
        }
        if !fleet_done {
            fleet_done = fleet.run_epoch();
        }
    }

    let flood = evolver.map(Evolver::into_report);
    let grammar_file = flood.as_ref().map(|f| {
        GrammarFile::with_weights(grammar.clone(), f.weights.clone())
            .expect("evolver weights match the grammar shape")
    });
    Ok(CombinedReport {
        explore_valid: explore.valid_inputs.len(),
        explore_execs,
        explore_digest,
        grammar_rules,
        grammar_digest: grammar_file.as_ref().map_or(0, GrammarFile::digest),
        flood_skipped,
        flood,
        fleet: fleet.into_report(),
        promoted,
        grammar: grammar_file,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(seed: u64) -> CombinedConfig {
        CombinedConfig {
            seed,
            explore_execs: 3_000,
            shards: 2,
            fleet_execs_per_shard: 1_500,
            sync_every: 300,
            gen_epochs: 4,
            gen_batch: 64,
            max_depth: 8,
            exec_mode: ExecMode::Full,
        }
    }

    #[test]
    fn combined_campaign_is_seed_deterministic() {
        let a = run_combined(pdf_subjects::arith::subject(), &quick_cfg(7)).unwrap();
        let b = run_combined(pdf_subjects::arith::subject(), &quick_cfg(7)).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.fleet.digest(), b.fleet.digest());
        assert_eq!(a.promoted, b.promoted);
    }

    #[test]
    fn combined_campaign_floods_and_promotes() {
        let report = run_combined(pdf_subjects::arith::subject(), &quick_cfg(1)).unwrap();
        assert!(report.explore_valid > 0);
        assert!(report.grammar_rules > 0);
        assert!(report.flood_skipped.is_none(), "{:?}", report.flood_skipped);
        let flood = report.flood.as_ref().unwrap();
        assert!(flood.generated > 0);
        assert!(!flood.distinct_valid.is_empty());
        assert!(report.promoted > 0, "no generator input was promoted");
        assert!(report.grammar_digest != 0);
        assert!(report.grammar_file().is_some());
    }

    #[test]
    fn degenerate_grammar_degrades_to_plain_fleet() {
        // the chaos subject accepts nothing quickly enough for a tiny
        // exploration budget to mine from
        let cfg = CombinedConfig {
            explore_execs: 50,
            gen_epochs: 2,
            gen_batch: 16,
            fleet_execs_per_shard: 300,
            sync_every: 100,
            ..quick_cfg(3)
        };
        let report = run_combined(pdf_subjects::tinyc::subject(), &cfg).unwrap();
        if report.flood_skipped.is_some() {
            assert!(report.flood.is_none());
            assert_eq!(report.promoted, 0);
            assert_eq!(report.grammar_digest, 0);
        }
        // either way the fleet ran its budget
        assert!(report.fleet.total_execs > 0);
    }
}
