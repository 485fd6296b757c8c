//! A KLEE-style symbolic-execution baseline — the "semantic" competitor
//! of the pFuzzer evaluation (Section 5).
//!
//! KLEE executes the program on symbolic input, collects the branch
//! conditions along each path, and asks a solver for concrete inputs
//! that drive execution down unexplored paths. At the parser level every
//! such condition is a constraint over single input bytes (equalities,
//! range tests, `strcmp` prefixes), so this crate implements the same
//! loop *concolically*:
//!
//! 1. run a concrete input through the instrumented subject and read the
//!    path condition off the comparison log ([`path`]),
//! 2. negate each unexplored condition suffix and solve the resulting
//!    conjunction with a complete byte-domain solver ([`solver`]),
//! 3. explore breadth-first with a bounded state queue — on subjects
//!    like mjs the branching factor (33-keyword `strcmp` tables, the
//!    operator ladder) makes the frontier explode, reproducing the
//!    paper's observation that "KLEE, suffering from the path explosion
//!    problem, finds almost no valid inputs for mjs".
//!
//! As in the paper's setup, only inputs that cover new code are emitted.
//!
//! # Example
//!
//! ```
//! use pdf_symbolic::{KleeConfig, KleeFuzzer};
//!
//! let subject = pdf_subjects::arith::subject();
//! let config = KleeConfig { max_execs: 2_000, ..KleeConfig::default() };
//! let report = KleeFuzzer::new(subject, config).run();
//! assert!(!report.valid_inputs.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod path;
pub mod solver;

use std::collections::{HashSet, VecDeque};
use std::time::Instant;

use pdf_runtime::{BranchSet, Digest, Rng, RunStats, Subject};

use path::{negate, path_condition, Cond};
use solver::solve;

/// State-selection strategy (KLEE's `--search`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchStrategy {
    /// Breadth-first over paths (the default; matches the evaluation).
    #[default]
    Bfs,
    /// Depth-first: digs deep quickly but starves the siblings.
    Dfs,
    /// Uniform random state selection (KLEE's `random-state`), seeded
    /// for reproducibility.
    RandomState(u64),
}

/// Configuration for the symbolic baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KleeConfig {
    /// Execution budget (subject runs; solver work is not separately
    /// metered — at the byte level it is trivial next to an execution).
    pub max_execs: u64,
    /// State-queue bound: when the breadth-first frontier outgrows this,
    /// new states are dropped — the resource wall real KLEE hits as
    /// memory/solver explosion.
    pub max_states: usize,
    /// Per-path limit on negated conditions (KLEE's per-path fork
    /// bound). Conditions beyond this depth are not negated.
    pub max_depth: usize,
    /// Filler byte for unconstrained input positions.
    pub filler: u8,
    /// State-selection strategy.
    pub search: SearchStrategy,
    /// Bound on solved input length (KLEE fixes the symbolic input
    /// size up front; this is the equivalent cap).
    pub max_input_len: usize,
}

impl Default for KleeConfig {
    fn default() -> Self {
        KleeConfig {
            max_execs: 100_000,
            max_states: 20_000,
            max_depth: 400,
            filler: b' ',
            search: SearchStrategy::Bfs,
            max_input_len: 256,
        }
    }
}

impl KleeConfig {
    /// 64-bit digest of the exploration-shaping fields. The execution
    /// budget is excluded — a record/replay journal cell stores it
    /// separately; the hash identifies the *configuration* a recording
    /// ran under so drift is detected. The `RandomState` seed *is*
    /// included: unlike the other tools it lives inside the strategy,
    /// not in a per-cell seed field.
    pub fn config_hash(&self) -> u64 {
        let mut d = Digest::new();
        d.write_str("klee-config-v1");
        d.write_u64(self.max_states as u64);
        d.write_u64(self.max_depth as u64);
        d.write_u8(self.filler);
        match self.search {
            SearchStrategy::Bfs => d.write_u8(0),
            SearchStrategy::Dfs => d.write_u8(1),
            SearchStrategy::RandomState(seed) => {
                d.write_u8(2);
                d.write_u64(seed);
            }
        }
        d.write_u64(self.max_input_len as u64);
        d.finish()
    }
}

/// The outcome of a symbolic-execution campaign.
#[derive(Debug, Clone)]
pub struct KleeReport {
    /// Valid inputs that covered new code, in discovery order.
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
    /// States (inputs) generated over the campaign.
    pub states_generated: usize,
    /// Whether the frontier hit the state bound (path explosion).
    pub exploded: bool,
    /// Observability counters and timings for the campaign.
    pub stats: RunStats,
}

/// One frontier state: a concrete input awaiting concolic execution.
///
/// No generational bound is kept (SAGE-style "only negate conditions
/// after the parent's fork point"): EOF negations change the *prefix* of
/// the child's path (the EOF conjunct disappears and fresh comparisons
/// appear before the fork point), so the bound would starve the search.
/// Re-derived duplicates are cheap to drop via the global seen-set
/// instead.
#[derive(Debug, Clone)]
struct State {
    input: Vec<u8>,
}

fn pop_state(
    frontier: &mut VecDeque<State>,
    search: SearchStrategy,
    rng: Option<&mut Rng>,
) -> Option<State> {
    match search {
        SearchStrategy::Bfs => frontier.pop_front(),
        SearchStrategy::Dfs => frontier.pop_back(),
        SearchStrategy::RandomState(_) => {
            if frontier.is_empty() {
                return None;
            }
            let rng = rng.expect("random-state search carries an RNG");
            let i = rng.gen_range(0, frontier.len());
            frontier.swap_remove_back(i)
        }
    }
}

/// The KLEE-style fuzzer.
#[derive(Debug)]
pub struct KleeFuzzer {
    subject: Subject,
    cfg: KleeConfig,
}

impl KleeFuzzer {
    /// Creates a symbolic-execution driver for `subject`.
    pub fn new(subject: Subject, cfg: KleeConfig) -> Self {
        KleeFuzzer { subject, cfg }
    }

    /// Runs the campaign to completion.
    pub fn run(self) -> KleeReport {
        let _span = pdf_obs::span("klee.campaign");
        let mut report = KleeReport {
            valid_inputs: Vec::new(),
            valid_found_at: Vec::new(),
            execs: 0,
            valid_branches: BranchSet::new(),
            all_branches: BranchSet::new(),
            states_generated: 0,
            exploded: false,
            stats: RunStats::default(),
        };
        let started = Instant::now();
        let mut frontier: VecDeque<State> = VecDeque::new();
        let mut seen: HashSet<Vec<u8>> = HashSet::new();
        let mut rng = match self.cfg.search {
            SearchStrategy::RandomState(seed) => Some(Rng::new(seed)),
            _ => None,
        };
        // symbolic execution starts from the empty input (size 0)
        frontier.push_back(State { input: Vec::new() });
        seen.insert(Vec::new());

        while let Some(state) = pop_state(&mut frontier, self.cfg.search, rng.as_mut()) {
            if report.execs >= self.cfg.max_execs {
                break;
            }
            pdf_obs::record(|m| {
                let depth = frontier.len() as u64;
                m.queue_depth.observe(depth);
                m.queue_depth_now.set(depth);
            });
            report.execs += 1;
            // the concolic loop negates conjuncts of the full path
            // condition, so this tool genuinely needs the FullLog sink
            let exec = self.subject.run(&state.input);
            report.stats.events += exec.log.events.len() as u64;
            if exec.verdict.is_hang() {
                report.stats.hangs += 1;
            }
            if exec.verdict.is_crash() {
                report.stats.crashes += 1;
            }
            let branches = exec.log.branches();
            report.all_branches.union_with(&branches);
            let new_branches = branches.difference_size(&report.valid_branches);
            if exec.valid && new_branches > 0 {
                pdf_obs::record(|m| {
                    m.valid_inputs.inc();
                    m.new_branches.add(new_branches as u64);
                });
                report.valid_branches.union_with(&branches);
                report.valid_inputs.push(state.input.clone());
                report.valid_found_at.push(report.execs);
            }
            // collect the path condition and fork every suffix
            let _solve = pdf_obs::span("klee.solve");
            let conds: Vec<Cond> = path_condition(&exec.log);
            let depth = conds.len().min(self.cfg.max_depth);
            for j in 0..depth {
                let Some(neg) = negate(&conds[j]) else {
                    continue;
                };
                let mut prefix: Vec<Cond> = conds[..j].to_vec();
                prefix.push(neg);
                let Some(new_input) = solve(&prefix, self.cfg.filler) else {
                    continue; // infeasible
                };
                if new_input.len() > self.cfg.max_input_len {
                    continue; // beyond the symbolic input size
                }
                if !seen.insert(new_input.clone()) {
                    continue;
                }
                report.states_generated += 1;
                if frontier.len() >= self.cfg.max_states {
                    report.exploded = true;
                    continue; // dropped: the explosion wall
                }
                frontier.push_back(State { input: new_input });
            }
        }
        report.stats.executions = report.execs;
        report.stats.valid_inputs = report.valid_inputs.len() as u64;
        report.stats.queue_depth = frontier.len();
        // BFS/DFS draw nothing (decisions stay 0); random-state search
        // journals its RNG usage as a draw count plus stream digest.
        if let Some(rng) = &rng {
            report.stats.decisions = rng.draw_count();
            report.stats.decision_digest = rng.stream_digest();
        }
        report.stats.wall_secs = started.elapsed().as_secs_f64();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(subject: Subject, execs: u64) -> KleeReport {
        let cfg = KleeConfig {
            max_execs: execs,
            ..KleeConfig::default()
        };
        KleeFuzzer::new(subject, cfg).run()
    }

    #[test]
    fn solves_arith_paths() {
        let report = run(pdf_subjects::arith::subject(), 2_000);
        assert!(!report.valid_inputs.is_empty());
        let subject = pdf_subjects::arith::subject();
        for input in &report.valid_inputs {
            assert!(
                subject.run(input).valid,
                "{:?}",
                String::from_utf8_lossy(input)
            );
        }
    }

    #[test]
    fn finds_json_keywords_symbolically() {
        // the paper: "As KLEE works symbolically, it only needs to find a
        // valid path with a keyword on it; solving the path constraints
        // on that path is then easy."
        let report = run(pdf_subjects::json::subject(), 8_000);
        let joined: Vec<String> = report
            .valid_inputs
            .iter()
            .map(|i| String::from_utf8_lossy(i).into_owned())
            .collect();
        let text = joined.join("\n");
        assert!(
            text.contains("true") || text.contains("false") || text.contains("null"),
            "no keyword found in {joined:?}"
        );
    }

    #[test]
    fn is_deterministic() {
        let a = run(pdf_subjects::csv::subject(), 1_000);
        let b = run(pdf_subjects::csv::subject(), 1_000);
        assert_eq!(a.valid_inputs, b.valid_inputs);
        assert_eq!(a.states_generated, b.states_generated);
    }

    #[test]
    fn respects_exec_budget() {
        let report = run(pdf_subjects::json::subject(), 300);
        assert!(report.execs <= 300);
    }

    #[test]
    fn chaos_hangs_and_crashes_are_counted() {
        // KLEE's concolic frontier dries up after a handful of broken
        // executions, so use pure-rate configs to pin each counter.
        use pdf_subjects::chaos::{self, ChaosConfig};
        let all_panic = ChaosConfig {
            panic_per_mille: 1000,
            ..ChaosConfig::silent(13)
        };
        let r = run(chaos::wrap(pdf_subjects::csv::subject(), all_panic), 100);
        assert!(r.execs > 0);
        assert_eq!(r.stats.crashes, r.execs, "every execution crashes");
        let all_hang = ChaosConfig {
            hang_per_mille: 1000,
            ..ChaosConfig::silent(13)
        };
        let r = run(chaos::wrap(pdf_subjects::csv::subject(), all_hang), 100);
        assert!(r.execs > 0);
        assert_eq!(r.stats.hangs, r.execs, "every execution hangs");
    }

    #[test]
    fn bfs_draws_no_decisions_random_state_does() {
        let bfs = run(pdf_subjects::csv::subject(), 500);
        assert_eq!(bfs.stats.decisions, 0);
        assert_eq!(bfs.stats.decision_digest, 0);
        let cfg = KleeConfig {
            max_execs: 500,
            search: SearchStrategy::RandomState(3),
            ..KleeConfig::default()
        };
        let rand = KleeFuzzer::new(pdf_subjects::csv::subject(), cfg.clone()).run();
        assert!(rand.stats.decisions > 0);
        let again = KleeFuzzer::new(pdf_subjects::csv::subject(), cfg).run();
        assert_eq!(rand.stats.decisions, again.stats.decisions);
        assert_eq!(rand.stats.decision_digest, again.stats.decision_digest);
    }

    #[test]
    fn config_hash_ignores_budget_but_sees_strategy() {
        let base = KleeConfig::default();
        let rebudgeted = KleeConfig {
            max_execs: 1,
            ..base.clone()
        };
        assert_eq!(base.config_hash(), rebudgeted.config_hash());
        let dfs = KleeConfig {
            search: SearchStrategy::Dfs,
            ..base.clone()
        };
        assert_ne!(base.config_hash(), dfs.config_hash());
        let r1 = KleeConfig {
            search: SearchStrategy::RandomState(1),
            ..base.clone()
        };
        let r2 = KleeConfig {
            search: SearchStrategy::RandomState(2),
            ..base.clone()
        };
        assert_ne!(r1.config_hash(), r2.config_hash());
    }

    #[test]
    fn small_state_bound_explodes_on_mjs() {
        let cfg = KleeConfig {
            max_execs: 3_000,
            max_states: 200,
            ..KleeConfig::default()
        };
        let report = KleeFuzzer::new(pdf_subjects::mjs::subject(), cfg).run();
        assert!(report.exploded, "mjs should overflow a 200-state frontier");
    }

    #[test]
    fn dfs_digs_deeper_than_bfs() {
        // DFS extends one path aggressively: its longest emitted input
        // should be at least as long as BFS's under the same budget
        let bfs = KleeFuzzer::new(
            pdf_subjects::dyck::subject(),
            KleeConfig {
                max_execs: 1_500,
                ..KleeConfig::default()
            },
        )
        .run();
        let dfs = KleeFuzzer::new(
            pdf_subjects::dyck::subject(),
            KleeConfig {
                max_execs: 1_500,
                search: SearchStrategy::Dfs,
                max_input_len: 64,
                ..KleeConfig::default()
            },
        )
        .run();
        let max_len = |r: &KleeReport| r.valid_inputs.iter().map(Vec::len).max().unwrap_or(0);
        assert!(
            max_len(&dfs) >= max_len(&bfs),
            "dfs {} < bfs {}",
            max_len(&dfs),
            max_len(&bfs)
        );
    }

    #[test]
    fn random_state_search_is_seeded_deterministic() {
        let cfg = KleeConfig {
            max_execs: 800,
            search: SearchStrategy::RandomState(9),
            ..KleeConfig::default()
        };
        let a = KleeFuzzer::new(pdf_subjects::json::subject(), cfg.clone()).run();
        let b = KleeFuzzer::new(pdf_subjects::json::subject(), cfg).run();
        assert_eq!(a.valid_inputs, b.valid_inputs);
    }

    #[test]
    fn emits_only_new_coverage_inputs() {
        let report = run(pdf_subjects::ini::subject(), 2_000);
        // re-running the emitted corpus must grow coverage monotonically:
        // every input added something when it was recorded
        let subject = pdf_subjects::ini::subject();
        let mut seen = BranchSet::new();
        for input in &report.valid_inputs {
            let exec = subject.run(input);
            assert!(exec.log.branches().difference_size(&seen) > 0);
            seen.union_with(&exec.log.branches());
        }
    }
}
