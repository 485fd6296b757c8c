//! Unified tool runner: one interface over the three fuzzers, plus the
//! fault-tolerant cell supervisor.
//!
//! [`run_cells`] is a *supervisor*, not a plain fan-out: each cell runs
//! under panic isolation, a crashed or fuel-hung cell is retried with a
//! deterministically perturbed seed, and a cell that stays broken is
//! recorded as a [`CellOutcome::Poisoned`] row instead of aborting the
//! whole matrix. One chaos-wrapped subject cannot take down a 48-hour
//! evaluation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use pdf_afl::{AflConfig, AflFuzzer};
use pdf_core::{DriverConfig, ExecMode, FuzzReport, Fuzzer};
use pdf_runtime::{catch_silent, BranchSet, Digest, RunStats};
use pdf_subjects::SubjectInfo;
use pdf_symbolic::{KleeConfig, KleeFuzzer};

/// The three tools of the evaluation, plus the sharded-fleet variant
/// of pFuzzer for 1-shard vs N-shard comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tool {
    /// The paper's contribution.
    PFuzzer,
    /// The paper's contribution run as a sharded cooperative fleet
    /// ([`pdf_fleet::Fleet`], [`FLEET_SHARDS`] workers splitting the
    /// execution budget and sharing discoveries every sync epoch). Not
    /// part of [`Tool::ALL`]: the paper's matrix compares the three
    /// single-campaign tools, and the fleet rides alongside for the
    /// sharding experiment (`fleetrunner`, EXPERIMENTS.md).
    PFuzzerFleet,
    /// The "lexical" baseline.
    Afl,
    /// The "semantic" baseline.
    Klee,
    /// The combined three-stage pipeline: pFuzzer explores, the grammar
    /// miner generalizes, and the compiled [`pdf_gen`] generator floods
    /// coverage alongside a cooperative fleet
    /// ([`pdf_gen::run_combined`]). Not part of [`Tool::ALL`] for the
    /// same reason as [`Tool::PFuzzerFleet`]: the paper's matrix stays
    /// three tools wide, and the pipeline rides alongside for the
    /// grammar-generation study (`evalrunner --grammar-in`,
    /// EXPERIMENTS.md).
    GrammarGen,
}

impl Tool {
    /// The paper's three tools, in plotting order.
    pub const ALL: [Tool; 3] = [Tool::Afl, Tool::Klee, Tool::PFuzzer];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Tool::PFuzzer => "pFuzzer",
            Tool::PFuzzerFleet => "pFuzzerFleet",
            Tool::Afl => "AFL",
            Tool::Klee => "KLEE",
            Tool::GrammarGen => "GrammarGen",
        }
    }

    /// The inverse of [`Tool::name`], used when decoding journals.
    /// Covers the off-matrix variants too, so recorded cells replay.
    pub fn from_name(name: &str) -> Option<Tool> {
        Tool::ALL
            .into_iter()
            .chain([Tool::PFuzzerFleet, Tool::GrammarGen])
            .find(|t| t.name() == name)
    }
}

/// Shard count [`Tool::PFuzzerFleet`] runs with. Fixed (rather than an
/// [`EvalBudget`] knob) so a journaled fleet cell pins down its whole
/// configuration from `(tool, execs, seed)` alone.
pub const FLEET_SHARDS: usize = 4;

/// The fleet configuration [`Tool::PFuzzerFleet`] derives from a cell's
/// total execution budget and seed: [`FLEET_SHARDS`] workers splitting
/// `execs` evenly, syncing eight times per shard-budget (at least every
/// 50 execs, so tiny budgets still cooperate). Shared by the fresh-run
/// and replay paths so both digest identically; `fleetrunner` uses it
/// as the default shape too.
pub fn fleet_config_for(execs: u64, seed: u64) -> pdf_fleet::FleetConfig {
    let per_shard = (execs / FLEET_SHARDS as u64).max(1);
    let sync_every = (per_shard / 8).clamp(50, per_shard.max(50));
    let base = DriverConfig {
        seed,
        max_execs: per_shard,
        ..DriverConfig::default()
    };
    // Serial inside the cell: the eval matrix already fans out across
    // cells, and serial vs parallel fleets are digest-identical anyway.
    let mut cfg = pdf_fleet::FleetConfig::new(FLEET_SHARDS, sync_every, base);
    cfg.parallel = false;
    cfg
}

/// The combined-campaign configuration [`Tool::GrammarGen`] derives
/// from a cell's total execution budget and seed: half the budget goes
/// to the pFuzzer exploration stage (the miner needs its comparison
/// log), the rest is split across two fleet shards, and eight
/// generator re-weighting epochs of 64 inputs each interleave with the
/// fleet's sync epochs. Like [`fleet_config_for`], the whole shape pins
/// down from `(execs, seed)` alone, so a journaled cell replays.
pub fn combined_config_for(execs: u64, seed: u64) -> pdf_gen::CombinedConfig {
    let explore = (execs / 2).max(1);
    let shards = 2usize;
    let per_shard = (execs.saturating_sub(explore) / shards as u64).max(1);
    let sync_every = (per_shard / 8).clamp(50, per_shard.max(50));
    pdf_gen::CombinedConfig {
        seed,
        explore_execs: explore,
        shards,
        fleet_execs_per_shard: per_shard,
        sync_every,
        gen_epochs: 8,
        gen_batch: 64,
        max_depth: 10,
        exec_mode: ExecMode::Full,
    }
}

/// Per-run budget: executions and the seeds to try (best run reported,
/// as in the paper's best-of-three).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalBudget {
    /// Subject executions per seed (for pFuzzer and KLEE).
    pub execs: u64,
    /// Seeds to run; the best outcome is kept.
    pub seeds: Vec<u64>,
    /// Execution multiplier for AFL. The paper compares equal
    /// *wall-clock* budgets, and pFuzzer's taint instrumentation slows
    /// executions "by a factor of about 100" (Section 4) while AFL runs
    /// at native speed — "generating 1,000 times more inputs than
    /// pFuzzer" (Section 5.2). The default of 10 keeps that asymmetry at
    /// laptop scale; set to 1 for an equal-executions comparison.
    pub afl_throughput: u64,
}

impl Default for EvalBudget {
    fn default() -> Self {
        EvalBudget {
            execs: 30_000,
            seeds: vec![1, 2, 3],
            afl_throughput: 10,
        }
    }
}

/// A tool's campaign result in tool-independent form.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Which tool ran.
    pub tool: Tool,
    /// Subject name.
    pub subject: &'static str,
    /// Seed the campaign ran with.
    pub seed: u64,
    /// Valid inputs produced (each covered new code when found).
    pub valid_inputs: Vec<Vec<u8>>,
    /// Execution count at which each valid input was found.
    pub valid_found_at: Vec<u64>,
    /// Executions spent.
    pub execs: u64,
    /// Branches covered by valid inputs.
    pub valid_branches: BranchSet,
    /// Branches covered by any run.
    pub all_branches: BranchSet,
    /// The campaign's byte-level decision stream, when the tool records
    /// one: pFuzzer journals every random byte it draws; the baselines
    /// leave this empty and account for their RNG usage through
    /// `stats.decisions`/`stats.decision_digest` instead.
    pub decisions: Vec<u8>,
    /// Observability counters and timings of the campaign. Wall-clock
    /// fields vary between runs; determinism comparisons must ignore
    /// them.
    pub stats: RunStats,
}

/// 64-bit FNV-1a digest over every deterministic field of an outcome —
/// the `out=` value of a journal cell. Wall-clock statistics are
/// excluded, so two runs of the same cell digest identically no matter
/// how the scheduler treated them.
pub fn outcome_digest(o: &Outcome) -> u64 {
    let mut d = Digest::new();
    d.write_str(o.tool.name());
    d.write_str(o.subject);
    d.write_u64(o.seed);
    d.write_u64(o.valid_inputs.len() as u64);
    for input in &o.valid_inputs {
        d.write_bytes(input);
    }
    d.write_u64(o.valid_found_at.len() as u64);
    for &at in &o.valid_found_at {
        d.write_u64(at);
    }
    d.write_u64(o.execs);
    for set in [&o.valid_branches, &o.all_branches] {
        d.write_u64(set.len() as u64);
        for b in set.iter() {
            d.write_u64(b.site.0);
            d.write_u8(b.outcome as u8);
        }
    }
    d.write_bytes(&o.decisions);
    d.write_u64(o.stats.executions);
    d.write_u64(o.stats.events);
    d.write_u64(o.stats.valid_inputs);
    // deterministic per campaign, like the driver's report digest;
    // `retries` is supervisor metadata and stays out — a replayed cell
    // legitimately retries zero times
    d.write_u64(o.stats.hangs);
    d.write_u64(o.stats.crashes);
    d.write_u64(o.stats.queue_depth as u64);
    d.write_u64(o.stats.decisions);
    d.write_u64(o.stats.decision_digest);
    d.finish()
}

/// Converts a pFuzzer [`FuzzReport`] into the tool-independent
/// [`Outcome`] form. Shared by the fresh-run path and the journal
/// replay path so both digest identically.
pub(crate) fn pfuzzer_outcome(subject: &'static str, seed: u64, r: FuzzReport) -> Outcome {
    Outcome {
        tool: Tool::PFuzzer,
        subject,
        seed,
        valid_inputs: r.valid_inputs,
        valid_found_at: r.valid_found_at,
        execs: r.execs,
        valid_branches: r.valid_branches,
        all_branches: r.all_branches,
        decisions: r.decisions,
        stats: r.stats,
    }
}

/// Converts a [`pdf_fleet::FleetReport`] into the tool-independent
/// [`Outcome`] form. The fleet's deduplicated valid inputs carry
/// fleet-total discovery costs (see
/// [`FleetReport::valid_found_at`](pdf_fleet::FleetReport::valid_found_at)),
/// deterministic counters sum across shards, and the decision digest is
/// a length-framed digest over the per-shard journals — `decisions`
/// itself stays empty like the baselines (one byte stream cannot
/// represent N journals).
pub(crate) fn fleet_outcome(
    subject: &'static str,
    seed: u64,
    r: pdf_fleet::FleetReport,
) -> Outcome {
    let mut stats = RunStats::default();
    let mut stream_digest = Digest::new();
    for shard in &r.shards {
        stats.events += shard.stats.events;
        stats.hangs += shard.stats.hangs;
        stats.crashes += shard.stats.crashes;
        stats.queue_depth += shard.stats.queue_depth;
        stats.decisions += shard.stats.decisions;
        stats.wall_secs += shard.stats.wall_secs;
        stream_digest.write_u64(shard.decisions.len() as u64);
        stream_digest.write_bytes(&shard.decisions);
    }
    stats.executions = r.total_execs;
    stats.valid_inputs = r.valid_inputs.len() as u64;
    stats.decision_digest = stream_digest.finish();
    Outcome {
        tool: Tool::PFuzzerFleet,
        subject,
        seed,
        valid_inputs: r.valid_inputs,
        valid_found_at: r.valid_found_at,
        execs: r.total_execs,
        valid_branches: r.valid_branches,
        all_branches: r.all_branches,
        decisions: Vec::new(),
        stats,
    }
}

/// Converts a [`pdf_gen::CombinedReport`] into the tool-independent
/// [`Outcome`] form: the fleet stage's outcome, widened with the
/// exploration budget, the generator's fast-tier executions
/// (`stats.executions` counts them; `execs` stays the instrumented
/// explore + fleet budget the cell was promised), and the
/// generator-found valid inputs the fleet never re-discovered (charged
/// the full budget as their discovery cost — the flood has no per-input
/// exec accounting). The decision digest folds every stage's digest so
/// [`outcome_digest`] witnesses the whole campaign.
pub(crate) fn combined_outcome(
    subject: &'static str,
    seed: u64,
    r: pdf_gen::CombinedReport,
) -> Outcome {
    let gen_execs = r.flood.as_ref().map_or(0, |f| f.generated);
    let mut o = fleet_outcome(subject, seed, r.fleet);
    o.tool = Tool::GrammarGen;
    o.execs += r.explore_execs;
    o.stats.executions = o.execs + gen_execs;
    let mut d = Digest::new();
    d.write_u64(o.stats.decision_digest);
    d.write_u64(r.explore_digest);
    d.write_u64(r.grammar_digest);
    if let Some(flood) = &r.flood {
        d.write_u64(flood.digest());
        for input in &flood.distinct_valid {
            if !o.valid_inputs.contains(input) {
                o.valid_inputs.push(input.clone());
                o.valid_found_at.push(o.execs);
            }
        }
        o.valid_branches.union_with(&flood.branches);
        o.all_branches.union_with(&flood.branches);
    }
    o.stats.decision_digest = d.finish();
    o.stats.valid_inputs = o.valid_inputs.len() as u64;
    o
}

/// Runs one tool on one subject with one seed, in full-instrumentation
/// execution mode. Equivalent to [`run_tool_seeded_in`] with
/// [`ExecMode::Full`]; kept as the short form because the journaled
/// record/replay path is defined over full-fidelity campaigns only.
pub fn run_tool_seeded(tool: Tool, info: &SubjectInfo, execs: u64, seed: u64) -> Outcome {
    run_tool_seeded_in(tool, info, execs, seed, ExecMode::Full)
}

/// Runs one tool on one subject with one seed under an explicit
/// [`ExecMode`]. The mode only shapes the two pFuzzer variants (they
/// own the fast-failure tier); AFL and KLEE have no instrumentation
/// tiers and ignore it.
pub fn run_tool_seeded_in(
    tool: Tool,
    info: &SubjectInfo,
    execs: u64,
    seed: u64,
    exec_mode: ExecMode,
) -> Outcome {
    match tool {
        Tool::PFuzzer => {
            let cfg = DriverConfig {
                seed,
                max_execs: execs,
                exec_mode,
                ..DriverConfig::default()
            };
            let r = Fuzzer::new(info.subject, cfg).run();
            pfuzzer_outcome(info.name, seed, r)
        }
        Tool::PFuzzerFleet => {
            let mut cfg = fleet_config_for(execs, seed);
            cfg.base.exec_mode = exec_mode;
            let r = pdf_fleet::Fleet::new(info.subject, cfg)
                .expect("fleet_config_for produces a valid config")
                .run();
            fleet_outcome(info.name, seed, r)
        }
        Tool::GrammarGen => {
            let mut cfg = combined_config_for(execs, seed);
            cfg.exec_mode = exec_mode;
            let r = pdf_gen::run_combined(info.subject, &cfg)
                .expect("combined_config_for produces a valid fleet shape");
            combined_outcome(info.name, seed, r)
        }
        Tool::Afl => {
            let cfg = AflConfig {
                seed,
                max_execs: execs,
                ..AflConfig::default()
            };
            let r = AflFuzzer::new(info.subject, cfg).run();
            Outcome {
                tool,
                subject: info.name,
                seed,
                valid_inputs: r.valid_inputs,
                valid_found_at: r.valid_found_at,
                execs: r.execs,
                valid_branches: r.valid_branches,
                all_branches: r.all_branches,
                decisions: Vec::new(),
                stats: r.stats,
            }
        }
        Tool::Klee => {
            // KLEE is deterministic; the seed only permutes nothing, but
            // keeping the interface uniform costs one extra run at most.
            let cfg = KleeConfig {
                max_execs: execs,
                ..KleeConfig::default()
            };
            let r = KleeFuzzer::new(info.subject, cfg).run();
            Outcome {
                tool,
                subject: info.name,
                seed,
                valid_inputs: r.valid_inputs,
                valid_found_at: r.valid_found_at,
                execs: r.execs,
                valid_branches: r.valid_branches,
                all_branches: r.all_branches,
                decisions: Vec::new(),
                stats: r.stats,
            }
        }
    }
}

/// The seeds a tool runs under a budget. KLEE's concolic exploration is
/// deterministic, so it runs the first seed only.
fn tool_seeds(tool: Tool, budget: &EvalBudget) -> &[u64] {
    if tool == Tool::Klee {
        &budget.seeds[..1.min(budget.seeds.len())]
    } else {
        &budget.seeds
    }
}

/// The execution budget a tool gets: AFL's is multiplied by the
/// throughput factor (it runs uninstrumented in the paper's setup).
fn tool_execs(tool: Tool, budget: &EvalBudget) -> u64 {
    if tool == Tool::Afl {
        budget.execs.saturating_mul(budget.afl_throughput.max(1))
    } else {
        budget.execs
    }
}

/// Runs a tool over every seed in the budget and returns the best
/// outcome (most branches covered by valid inputs, the paper's
/// headline coverage measure; ties broken by more valid inputs).
pub fn run_tool(tool: Tool, info: &SubjectInfo, budget: &EvalBudget) -> Outcome {
    let execs = tool_execs(tool, budget);
    let outcomes: Vec<Outcome> = tool_seeds(tool, budget)
        .iter()
        .map(|&s| run_tool_seeded(tool, info, execs, s))
        .collect();
    best_outcome(outcomes).expect("at least one seed")
}

/// One independent (subject, tool, seed) unit of the evaluation matrix.
#[derive(Debug, Clone, Copy)]
pub struct MatrixCell {
    /// Subject to run.
    pub info: SubjectInfo,
    /// Tool to run.
    pub tool: Tool,
    /// Execution budget for this cell (AFL's throughput multiplier
    /// already applied).
    pub execs: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Instrumentation tiering for the pFuzzer variants (AFL and KLEE
    /// ignore it). Journaled record/replay cells always run
    /// [`ExecMode::Full`], the mode whose digests define the
    /// byte-identical replay contract.
    pub exec_mode: ExecMode,
}

/// Expands a budget into the full deterministic cell list: subjects in
/// Table-1 order, tools in [`Tool::ALL`] order, seeds in budget order.
/// Cells for one (subject, tool) pair are contiguous, which is what
/// [`collapse_matrix`] relies on. Each cell is self-contained — its own
/// seeded RNG, no shared state — so the cells can run in any order (or
/// in parallel via [`run_cells`]) and still reproduce the serial matrix
/// exactly.
pub fn matrix_cells(budget: &EvalBudget) -> Vec<MatrixCell> {
    matrix_cells_for(&pdf_subjects::evaluation_subjects(), budget)
}

/// [`matrix_cells`] over an explicit subject list — the chaos-
/// supervision matrix passes
/// [`chaos_evaluation_subjects`](pdf_subjects::chaos::chaos_evaluation_subjects)
/// here; everything downstream is subject-agnostic.
pub fn matrix_cells_for(subjects: &[SubjectInfo], budget: &EvalBudget) -> Vec<MatrixCell> {
    let mut cells = Vec::new();
    for info in subjects {
        for tool in Tool::ALL {
            let execs = tool_execs(tool, budget);
            for &seed in tool_seeds(tool, budget) {
                cells.push(MatrixCell {
                    info: *info,
                    tool,
                    execs,
                    seed,
                    exec_mode: ExecMode::Full,
                });
            }
        }
    }
    cells
}

/// Retry policy of the cell supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// How many times a crashed or fuel-hung cell is re-attempted with a
    /// perturbed seed before it is recorded as poisoned. Zero disables
    /// retries (a faulty first attempt poisons the cell immediately).
    pub max_retries: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig { max_retries: 2 }
    }
}

/// A cell the supervisor gave up on: every attempt crashed the harness
/// or hung (all executions exhausted their fuel).
#[derive(Debug, Clone)]
pub struct PoisonedCell {
    /// Tool of the abandoned cell.
    pub tool: Tool,
    /// Subject name of the abandoned cell.
    pub subject: &'static str,
    /// The cell's *original* seed (attempts perturb it deterministically).
    pub seed: u64,
    /// Attempts made (1 + retries).
    pub attempts: u64,
    /// Why the final attempt was rejected.
    pub reason: String,
}

/// What the supervisor produced for one matrix cell.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The cell completed (possibly after retries —
    /// `outcome.stats.retries` says how many).
    Completed(Outcome),
    /// Every attempt failed; the matrix row survives as a marker.
    Poisoned(PoisonedCell),
}

impl CellOutcome {
    /// The completed outcome, if any.
    pub fn outcome(&self) -> Option<&Outcome> {
        match self {
            CellOutcome::Completed(o) => Some(o),
            CellOutcome::Poisoned(_) => None,
        }
    }

    /// Consumes into the completed outcome, if any.
    pub fn into_outcome(self) -> Option<Outcome> {
        match self {
            CellOutcome::Completed(o) => Some(o),
            CellOutcome::Poisoned(_) => None,
        }
    }

    /// Whether the supervisor abandoned this cell.
    pub fn is_poisoned(&self) -> bool {
        matches!(self, CellOutcome::Poisoned(_))
    }
}

/// Drops the poisoned rows, keeping completed outcomes in cell order —
/// the bridge from the supervised matrix to the figure pipeline.
pub fn completed_outcomes(outcomes: Vec<CellOutcome>) -> Vec<Outcome> {
    outcomes
        .into_iter()
        .filter_map(CellOutcome::into_outcome)
        .collect()
}

/// The seed attempt `k` of a cell runs with. Attempt 0 is the cell's
/// own seed; retries mix in a golden-ratio step so each attempt is a
/// fresh but *deterministic* campaign — a retried matrix is still
/// reproducible run-to-run.
pub fn attempt_seed(seed: u64, attempt: u64) -> u64 {
    seed ^ attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// A campaign that executed but made no observable progress because
/// every single execution exhausted its fuel. Treated like a crash by
/// the supervisor: retried, then poisoned.
fn cell_hung(o: &Outcome) -> bool {
    o.stats.executions > 0 && o.stats.hangs == o.stats.executions
}

/// Runs one cell under the supervisor: panic-isolated, retried with
/// perturbed seeds, poisoned after `1 + max_retries` failed attempts.
/// A completed outcome carries its attempt count in `stats.retries`.
pub fn run_cell_supervised(cell: &MatrixCell, sup: &SupervisorConfig) -> CellOutcome {
    let _span = pdf_obs::span("eval.cell");
    let mut reason = String::new();
    for attempt in 0..=sup.max_retries {
        if attempt > 0 {
            pdf_obs::record(|m| m.cell_retries.inc());
        }
        let seed = attempt_seed(cell.seed, attempt);
        match catch_silent(|| {
            run_tool_seeded_in(cell.tool, &cell.info, cell.execs, seed, cell.exec_mode)
        }) {
            Ok(mut outcome) if !cell_hung(&outcome) => {
                outcome.stats.retries = attempt;
                pdf_obs::record(|m| m.cells_completed.inc());
                return CellOutcome::Completed(outcome);
            }
            Ok(outcome) => {
                reason = format!(
                    "hung: all {} executions exhausted their fuel (attempt seed {seed})",
                    outcome.stats.executions
                );
            }
            Err(panic_msg) => {
                reason = format!("harness panic: {panic_msg} (attempt seed {seed})");
            }
        }
    }
    pdf_obs::record(|m| m.cells_poisoned.inc());
    CellOutcome::Poisoned(PoisonedCell {
        tool: cell.tool,
        subject: cell.info.name,
        seed: cell.seed,
        attempts: sup.max_retries + 1,
        reason,
    })
}

/// Runs every cell under the default [`SupervisorConfig`], fanning the
/// work out over `jobs` threads (clamped to at least 1 and at most the
/// cell count). Workers claim cells from a shared atomic counter and
/// deposit results into per-cell slots, so the returned vector is in
/// input order no matter how the scheduler interleaves — the output is
/// identical for every `jobs` value, modulo the wall-clock fields
/// inside [`Outcome::stats`]. Cells never abort the matrix: a
/// persistently crashing or hanging cell becomes a
/// [`CellOutcome::Poisoned`] row.
pub fn run_cells(cells: &[MatrixCell], jobs: usize) -> Vec<CellOutcome> {
    run_cells_supervised(cells, jobs, &SupervisorConfig::default())
}

/// [`run_cells`] with an explicit retry policy.
pub fn run_cells_supervised(
    cells: &[MatrixCell],
    jobs: usize,
    sup: &SupervisorConfig,
) -> Vec<CellOutcome> {
    if cells.is_empty() {
        return Vec::new();
    }
    let jobs = jobs.clamp(1, cells.len());
    if jobs == 1 {
        return cells.iter().map(|c| run_cell_supervised(c, sup)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<CellOutcome>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    // The metrics registry install is per-thread; hand the caller's
    // registry (if any) to every worker so the whole matrix aggregates
    // into one place.
    let registry = pdf_obs::current();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let registry = registry.clone();
            let (next, slots) = (&next, &slots);
            scope.spawn(move || {
                let _metrics = registry.map(pdf_obs::install);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(i) else { break };
                    let outcome = run_cell_supervised(cell, sup);
                    *slots[i].lock().expect("slot poisoned") = Some(outcome);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot poisoned").expect("cell ran"))
        .collect()
}

/// One-paragraph supervision summary for the matrix footer: totals of
/// hangs, crashes and retries across completed cells, plus one line per
/// poisoned cell.
pub fn supervision_summary(outcomes: &[CellOutcome]) -> String {
    use std::fmt::Write as _;
    let mut hangs = 0u64;
    let mut crashes = 0u64;
    let mut retries = 0u64;
    let mut poisoned = Vec::new();
    for co in outcomes {
        match co {
            CellOutcome::Completed(o) => {
                hangs += o.stats.hangs;
                crashes += o.stats.crashes;
                retries += o.stats.retries;
            }
            CellOutcome::Poisoned(p) => poisoned.push(p),
        }
    }
    let mut s = format!(
        "supervision: {} cells, {} poisoned; {} hung execs, {} crashed execs, {} cell retries",
        outcomes.len(),
        poisoned.len(),
        hangs,
        crashes,
        retries,
    );
    for p in poisoned {
        let _ = write!(
            s,
            "\n  POISONED {}/{} seed {}: {} attempts, {}",
            p.tool.name(),
            p.subject,
            p.seed,
            p.attempts,
            p.reason
        );
    }
    s
}

/// Collapses per-cell outcomes (in [`matrix_cells`] order) to one best
/// outcome per (subject, tool) group, preserving [`best_outcome`]'s
/// tie-breaking: within a group the outcomes are in seed order, exactly
/// as the serial [`run_tool`] sees them.
pub fn collapse_matrix(outcomes: Vec<Outcome>) -> Vec<Outcome> {
    let mut collapsed = Vec::new();
    let mut group: Vec<Outcome> = Vec::new();
    for o in outcomes {
        if let Some(first) = group.first() {
            if first.subject != o.subject || first.tool != o.tool {
                let done = std::mem::take(&mut group);
                collapsed.push(best_outcome(done).expect("group is non-empty"));
            }
        }
        group.push(o);
    }
    if !group.is_empty() {
        collapsed.push(best_outcome(group).expect("group is non-empty"));
    }
    collapsed
}

/// Picks the best outcome of several seeded runs.
pub fn best_outcome(outcomes: Vec<Outcome>) -> Option<Outcome> {
    outcomes
        .into_iter()
        .max_by_key(|o| (o.valid_branches.len(), o.valid_inputs.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget() -> EvalBudget {
        EvalBudget {
            execs: 800,
            seeds: vec![1, 2],
            afl_throughput: 2,
        }
    }

    #[test]
    fn all_three_tools_run_on_every_subject() {
        for info in pdf_subjects::evaluation_subjects() {
            for tool in Tool::ALL {
                let o = run_tool_seeded(tool, &info, 200, 1);
                assert_eq!(o.subject, info.name);
                assert!(o.execs <= 200, "{} on {} overspent", tool.name(), info.name);
            }
        }
    }

    #[test]
    fn best_outcome_prefers_more_valid_coverage() {
        let info = pdf_subjects::by_name("ini").unwrap();
        let a = run_tool_seeded(Tool::Afl, &info, 200, 1);
        let b = run_tool_seeded(Tool::Afl, &info, 2_000, 1);
        let best = best_outcome(vec![a, b.clone()]).unwrap();
        assert_eq!(best.valid_branches.len(), b.valid_branches.len());
    }

    #[test]
    fn run_tool_reports_a_seeded_best() {
        let info = pdf_subjects::by_name("csv").unwrap();
        let o = run_tool(Tool::PFuzzer, &info, &budget());
        assert_eq!(o.tool, Tool::PFuzzer);
        assert!(!o.valid_inputs.is_empty());
    }

    #[test]
    fn fleet_tool_is_deterministic_and_spends_the_split_budget() {
        let info = pdf_subjects::by_name("arith").unwrap();
        let a = run_tool_seeded(Tool::PFuzzerFleet, &info, 1_000, 1);
        let b = run_tool_seeded(Tool::PFuzzerFleet, &info, 1_000, 1);
        assert_eq!(outcome_digest(&a), outcome_digest(&b));
        assert!(a.execs <= 1_000, "fleet overspent the total budget");
        assert!(a.decisions.is_empty(), "fleet journals live per shard");
        let c = run_tool_seeded(Tool::PFuzzerFleet, &info, 1_000, 2);
        assert_ne!(outcome_digest(&a), outcome_digest(&c));
    }

    #[test]
    fn grammar_gen_tool_is_deterministic_and_budget_bounded() {
        let info = pdf_subjects::by_name("arith").unwrap();
        let a = run_tool_seeded(Tool::GrammarGen, &info, 3_000, 1);
        let b = run_tool_seeded(Tool::GrammarGen, &info, 3_000, 1);
        assert_eq!(outcome_digest(&a), outcome_digest(&b));
        assert_eq!(a.tool, Tool::GrammarGen);
        assert!(!a.valid_inputs.is_empty(), "combined run found nothing");
        assert_eq!(a.valid_inputs.len(), a.valid_found_at.len());
        assert!(a.execs <= 3_000, "instrumented budget overspent");
        // the generator's fast-tier floods count as executions
        assert!(a.stats.executions >= a.execs);
        let c = run_tool_seeded(Tool::GrammarGen, &info, 3_000, 2);
        assert_ne!(outcome_digest(&a), outcome_digest(&c));
    }

    #[test]
    fn combined_config_derivation_is_valid_for_tiny_budgets() {
        for execs in [1, 3, 50, 999, 30_000] {
            let cfg = combined_config_for(execs, 7);
            assert!(cfg.explore_execs >= 1);
            assert!(cfg.fleet_execs_per_shard >= 1);
            assert!(cfg.sync_every >= 1);
            assert_eq!(cfg.shards, 2);
            if execs >= 4 {
                let total = cfg.explore_execs + cfg.shards as u64 * cfg.fleet_execs_per_shard;
                assert!(total <= execs, "execs={execs} overspends: {total}");
            }
        }
    }

    #[test]
    fn fleet_config_derivation_is_valid_for_tiny_budgets() {
        for execs in [1, 3, 50, 999, 30_000] {
            let cfg = fleet_config_for(execs, 7);
            assert_eq!(cfg.shards, FLEET_SHARDS);
            assert!(cfg.sync_every >= 1);
            assert!(cfg.base.max_execs >= 1);
            assert!(
                cfg.validate().is_ok(),
                "execs={execs} derived invalid config"
            );
        }
    }

    #[test]
    fn tool_names() {
        assert_eq!(Tool::PFuzzer.name(), "pFuzzer");
        assert_eq!(Tool::PFuzzerFleet.name(), "pFuzzerFleet");
        assert_eq!(Tool::Afl.name(), "AFL");
        assert_eq!(Tool::Klee.name(), "KLEE");
        assert_eq!(Tool::GrammarGen.name(), "GrammarGen");
        assert_eq!(
            Tool::from_name("pFuzzerFleet"),
            Some(Tool::PFuzzerFleet),
            "fleet cells must decode from journals"
        );
        assert_eq!(
            Tool::from_name("GrammarGen"),
            Some(Tool::GrammarGen),
            "combined-pipeline cells must decode from journals"
        );
        assert!(
            !Tool::ALL.contains(&Tool::PFuzzerFleet),
            "the paper's matrix stays three tools wide"
        );
        assert!(
            !Tool::ALL.contains(&Tool::GrammarGen),
            "the paper's matrix stays three tools wide"
        );
        for tool in Tool::ALL {
            assert_eq!(Tool::from_name(tool.name()), Some(tool));
        }
        assert_eq!(Tool::from_name("afl"), None);
    }

    #[test]
    fn only_pfuzzer_records_an_explicit_decision_stream() {
        let info = pdf_subjects::by_name("csv").unwrap();
        let p = run_tool_seeded(Tool::PFuzzer, &info, 300, 1);
        assert!(!p.decisions.is_empty());
        assert_eq!(p.stats.decisions, p.decisions.len() as u64);
        let a = run_tool_seeded(Tool::Afl, &info, 300, 1);
        assert!(a.decisions.is_empty());
        assert!(a.stats.decisions > 0, "AFL still counts its RNG draws");
        let k = run_tool_seeded(Tool::Klee, &info, 300, 1);
        assert!(k.decisions.is_empty());
        assert_eq!(k.stats.decisions, 0, "BFS KLEE draws nothing");
    }

    #[test]
    fn outcome_digest_is_stable_and_discriminating() {
        let info = pdf_subjects::by_name("ini").unwrap();
        let a = run_tool_seeded(Tool::PFuzzer, &info, 300, 1);
        let b = run_tool_seeded(Tool::PFuzzer, &info, 300, 1);
        assert_eq!(outcome_digest(&a), outcome_digest(&b));
        let c = run_tool_seeded(Tool::PFuzzer, &info, 300, 2);
        assert_ne!(outcome_digest(&a), outcome_digest(&c));
        let d = run_tool_seeded(Tool::Afl, &info, 300, 1);
        assert_ne!(outcome_digest(&a), outcome_digest(&d));
    }

    /// Deterministic fields only — stats carry wall-clock times that
    /// legitimately differ between runs.
    fn assert_outcomes_identical(a: &[Outcome], b: &[Outcome]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.tool, y.tool);
            assert_eq!(x.subject, y.subject);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.valid_inputs, y.valid_inputs);
            assert_eq!(x.valid_found_at, y.valid_found_at);
            assert_eq!(x.execs, y.execs);
            assert_eq!(x.valid_branches, y.valid_branches);
            assert_eq!(x.all_branches, y.all_branches);
            assert_eq!(x.decisions, y.decisions);
            assert_eq!(x.stats.executions, y.stats.executions);
            assert_eq!(x.stats.events, y.stats.events);
            assert_eq!(x.stats.valid_inputs, y.stats.valid_inputs);
            assert_eq!(x.stats.queue_depth, y.stats.queue_depth);
            assert_eq!(x.stats.decisions, y.stats.decisions);
            assert_eq!(x.stats.decision_digest, y.stats.decision_digest);
            assert_eq!(outcome_digest(x), outcome_digest(y));
        }
    }

    #[test]
    fn matrix_cells_cover_the_full_matrix_in_order() {
        let cells = matrix_cells(&budget());
        // 5 subjects × (AFL 2 seeds + KLEE 1 seed + pFuzzer 2 seeds)
        assert_eq!(cells.len(), 5 * (2 + 1 + 2));
        let b = budget();
        for c in &cells {
            if c.tool == Tool::Afl {
                assert_eq!(c.execs, b.execs * b.afl_throughput);
            } else {
                assert_eq!(c.execs, b.execs);
            }
        }
        let klee: Vec<_> = cells.iter().filter(|c| c.tool == Tool::Klee).collect();
        assert_eq!(klee.len(), 5);
        assert!(klee.iter().all(|c| c.seed == b.seeds[0]));
        // cells of one (subject, tool) pair are contiguous
        let mut seen = Vec::new();
        for c in &cells {
            let key = (c.info.name, c.tool);
            if seen.last() != Some(&key) {
                assert!(!seen.contains(&key), "group {key:?} split");
                seen.push(key);
            }
        }
        assert_eq!(seen.len(), 15);
    }

    #[test]
    fn parallel_cells_match_serial_cells() {
        let budget = EvalBudget {
            execs: 300,
            seeds: vec![1, 2],
            afl_throughput: 2,
        };
        let cells = matrix_cells(&budget);
        let serial = run_cells(&cells, 1);
        let parallel = run_cells(&cells, 4);
        assert!(serial.iter().all(|c| !c.is_poisoned()));
        assert!(parallel.iter().all(|c| !c.is_poisoned()));
        let serial = completed_outcomes(serial);
        let parallel = completed_outcomes(parallel);
        assert_outcomes_identical(&serial, &parallel);
        let collapsed = collapse_matrix(parallel);
        assert_eq!(collapsed.len(), 15);
    }

    #[test]
    fn collapse_matches_run_tool() {
        let budget = EvalBudget {
            execs: 300,
            seeds: vec![1, 2],
            afl_throughput: 2,
        };
        let info = pdf_subjects::by_name("csv").unwrap();
        let cells: Vec<MatrixCell> = matrix_cells(&budget)
            .into_iter()
            .filter(|c| c.info.name == "csv")
            .collect();
        let collapsed = collapse_matrix(completed_outcomes(run_cells(&cells, 2)));
        assert_eq!(collapsed.len(), 3);
        for (got, tool) in collapsed.iter().zip(Tool::ALL) {
            let want = run_tool(tool, &info, &budget);
            assert_outcomes_identical(std::slice::from_ref(got), std::slice::from_ref(&want));
        }
    }

    #[test]
    fn run_cells_handles_empty_and_oversized_jobs() {
        assert!(run_cells(&[], 8).is_empty());
        let budget = EvalBudget {
            execs: 100,
            seeds: vec![1],
            afl_throughput: 1,
        };
        let cells: Vec<MatrixCell> = matrix_cells(&budget)
            .into_iter()
            .filter(|c| c.info.name == "ini" && c.tool == Tool::Afl)
            .collect();
        assert_eq!(cells.len(), 1);
        // more jobs than cells is clamped, not an error
        let out = run_cells(&cells, 64);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].outcome().expect("completed").seed, 1);
    }

    #[test]
    fn exec_modes_thread_through_the_seeded_runner() {
        let info = pdf_subjects::by_name("arith").unwrap();
        // the short form IS full mode
        let full = run_tool_seeded(Tool::PFuzzer, &info, 400, 1);
        let explicit = run_tool_seeded_in(Tool::PFuzzer, &info, 400, 1, ExecMode::Full);
        assert_eq!(outcome_digest(&full), outcome_digest(&explicit));
        let mode = ExecMode::Tiered;
        for tool in [Tool::PFuzzer, Tool::PFuzzerFleet] {
            let a = run_tool_seeded_in(tool, &info, 2_000, 3, mode);
            let b = run_tool_seeded_in(tool, &info, 2_000, 3, mode);
            assert_eq!(
                outcome_digest(&a),
                outcome_digest(&b),
                "{} in {mode:?} not deterministic",
                tool.name()
            );
            assert!(
                !a.valid_inputs.is_empty(),
                "{} in {mode:?} found nothing",
                tool.name()
            );
        }
        // AFL has no tiers: the mode changes nothing
        let afl = run_tool_seeded_in(Tool::Afl, &info, 400, 1, mode);
        let afl_full = run_tool_seeded(Tool::Afl, &info, 400, 1);
        assert_eq!(outcome_digest(&afl), outcome_digest(&afl_full));
    }

    #[test]
    fn attempt_zero_runs_the_original_seed() {
        assert_eq!(attempt_seed(42, 0), 42);
        assert_ne!(attempt_seed(42, 1), 42);
        assert_ne!(attempt_seed(42, 1), attempt_seed(42, 2));
    }

    #[test]
    fn healthy_cell_completes_with_zero_retries() {
        let cell = MatrixCell {
            info: pdf_subjects::by_name("ini").unwrap(),
            tool: Tool::PFuzzer,
            execs: 200,
            seed: 1,
            exec_mode: ExecMode::Full,
        };
        let co = run_cell_supervised(&cell, &SupervisorConfig::default());
        let o = co.outcome().expect("healthy cell completes");
        assert_eq!(o.stats.retries, 0);
        assert_eq!(o.seed, 1);
        // and digests identically to an unsupervised run
        let plain = run_tool_seeded(Tool::PFuzzer, &cell.info, 200, 1);
        assert_eq!(outcome_digest(o), outcome_digest(&plain));
    }

    #[test]
    fn always_hanging_cell_is_poisoned_not_aborted() {
        use pdf_subjects::chaos::{self, ChaosConfig};
        // every execution burns its fuel, on every retry: the chaos
        // schedule depends on the chaos seed, not the campaign seed
        let cfg = ChaosConfig {
            hang_per_mille: 1000,
            ..ChaosConfig::silent(7)
        };
        let base = pdf_subjects::by_name("dyck").unwrap();
        let info = SubjectInfo {
            subject: chaos::wrap(base.subject, cfg),
            ..base
        };
        let cell = MatrixCell {
            info,
            tool: Tool::PFuzzer,
            execs: 50,
            seed: 3,
            exec_mode: ExecMode::Full,
        };
        let sup = SupervisorConfig { max_retries: 1 };
        let co = run_cell_supervised(&cell, &sup);
        match co {
            CellOutcome::Poisoned(p) => {
                assert_eq!(p.attempts, 2);
                assert_eq!(p.seed, 3);
                assert!(p.reason.contains("hung"), "reason: {}", p.reason);
            }
            CellOutcome::Completed(_) => panic!("all-hang cell must poison"),
        }
        let summary = supervision_summary(&[run_cell_supervised(&cell, &sup)]);
        assert!(summary.contains("1 poisoned"), "{summary}");
        assert!(summary.contains("POISONED"), "{summary}");
    }
}
