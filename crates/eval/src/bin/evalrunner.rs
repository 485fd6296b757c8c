//! Runs the complete evaluation once and prints every table and figure:
//! Table 1, Tables 2–4, Figure 2, Figure 3, the Section 5.3 headline
//! and the per-token discovery costs. (Figure 1 is the
//! `arith_walkthrough` example.)
//! Usage: evalrunner [--execs N] [--seeds a,b,c] [--afl-mult N]
//!                   [--jobs N] [--exec-mode full|tiered]
//!                   [--stats-out PATH]
//!                   [--record PATH] [--replay PATH]
//!                   [--max-retries N] [--chaos SEED]
//!                   [--metrics-out PATH] [--progress]
//!                   [--submit ADDR] [--shards N]
//!                   [--dict-out PATH] [--dict-in PATH]
//!                   [--grammar-out DIR] [--grammar-in DIR]
//!
//! `--jobs N` fans the (subject, tool, seed) matrix cells out over N
//! worker threads; results are identical to `--jobs 1`. `--stats-out`
//! writes one JSON line of run statistics per cell. `--record PATH`
//! writes a `pdf-journal v1` file recording every cell's decision
//! stream and outcome digest; `--replay PATH` re-executes a recorded
//! journal instead of running a fresh matrix, exits non-zero on any
//! digest mismatch, and prints nothing else. `--max-retries N` sets the
//! cell supervisor's retry budget for crashed or fuel-hung cells;
//! `--chaos SEED` runs the matrix on chaos-wrapped subjects (injected
//! panics, fuel burns, flaky rejections) to exercise the supervisor.
//!
//! `--exec-mode` selects the pFuzzer cells' instrumentation tiering:
//! `full` (default) runs every execution fully instrumented and is the
//! mode whose journals and digests define the byte-identical replay
//! contract; `tiered` learns the full summary only for the survivors
//! of the rejection-watermark/fingerprint filter. AFL and KLEE cells
//! have no instrumentation tiers and ignore the flag.
//!
//! `--submit ADDR` runs the pFuzzer side of the matrix as a service
//! client instead of in-process: one fleet campaign per
//! (subject, seed) — `--shards` shards each — is submitted over
//! `pdf-wire v1` to the `pdf-serve` daemon at `ADDR`, the runner waits
//! for every campaign to reach a terminal phase, and prints one result
//! row per campaign (phase, executions, valid inputs, report digest).
//! Exits non-zero if any campaign ends anywhere but `done`. AFL and
//! KLEE cells are not submitted — the daemon schedules pFuzzer fleets.
//!
//! `--dict-out PATH` runs the token-discovery pipeline instead of the
//! matrix: one mining pFuzzer campaign per subject (`--execs`
//! executions, first `--seeds` seed), a scorecard of how much of each
//! literal token inventory the miner recovered, and the union
//! dictionary written to `PATH` (`pdf-dict v1`). `--dict-in PATH` runs
//! the companion study: pFuzzer and AFL on the keyword-rich subjects
//! (tinyC, mjs), bare vs fed the dictionary at `PATH`, at equal
//! budgets, scored by short/long token coverage. See docs/TOKENS.md.
//!
//! `--grammar-out DIR` runs the grammar-mining pipeline instead of the
//! matrix: one combined three-stage campaign per subject (`--execs`
//! total executions, first `--seeds` seed) — pFuzzer explores, the
//! grammar miner generalizes, the compiled generator floods with
//! evolutionary weighting while a fleet keeps fuzzing — a scorecard of
//! each mined grammar, and the learned grammar + weights written to
//! `DIR/<subject>.grammar` (`pdf-grammar v1`). `--grammar-in DIR` runs
//! the companion study: on every subject with a grammar file under
//! `DIR`, pFuzzer alone vs the persisted-grammar flood vs the full
//! combined pipeline at equal budgets, scored by branch and Figure-3
//! token coverage. Both runs are seed-deterministic end to end: the
//! same arguments produce identical grammar files and digests.
//!
//! `--metrics-out PATH` writes the final campaign-wide metrics snapshot
//! (`pdf-metrics v1` text codec); `--progress` prints a live one-line
//! stderr ticker (execs/s, valid inputs, queue depth, poisoned cells)
//! about once per second. Both are observe-only: they read relaxed
//! atomic counters and never touch the fuzzers' random-byte chokepoint,
//! so enabling them cannot change any campaign result or replay digest.

use std::sync::Arc;

fn main() {
    let registry = Arc::new(pdf_obs::MetricsRegistry::new());
    let _metrics = pdf_obs::install(Arc::clone(&registry));
    let ticker = pdf_eval::progress_from_args()
        .then(|| pdf_eval::ProgressTicker::start(Arc::clone(&registry)));
    let metrics_out = pdf_eval::metrics_out_from_args();

    if let Some(path) = pdf_eval::replay_path_from_args() {
        let jobs = pdf_eval::require_arg(pdf_eval::jobs_from_args());
        let code = replay(&path, jobs);
        drop(ticker);
        write_metrics(metrics_out.as_deref(), &registry);
        std::process::exit(code);
    }
    if let Some(addr) = pdf_eval::submit_addr_from_args() {
        let budget = pdf_eval::budget_from_args(30_000);
        let exec_mode = pdf_eval::require_arg(pdf_eval::exec_mode_from_args());
        let shards = pdf_eval::require_arg(pdf_eval::shards_from_args());
        let code = submit_matrix(&addr, &budget, exec_mode, shards as u64);
        drop(ticker);
        write_metrics(metrics_out.as_deref(), &registry);
        std::process::exit(code);
    }
    if let Some(path) = pdf_eval::dict_out_from_args() {
        let budget = pdf_eval::budget_from_args(8_000);
        let code = mine_dictionaries(&path, budget.execs, budget.seeds[0]);
        drop(ticker);
        write_metrics(metrics_out.as_deref(), &registry);
        std::process::exit(code);
    }
    if let Some(path) = pdf_eval::dict_in_from_args() {
        let budget = pdf_eval::budget_from_args(8_000);
        let code = dict_study(&path, budget.execs, budget.seeds[0]);
        drop(ticker);
        write_metrics(metrics_out.as_deref(), &registry);
        std::process::exit(code);
    }
    if let Some(dir) = pdf_eval::grammar_out_from_args() {
        let budget = pdf_eval::budget_from_args(8_000);
        let code = mine_grammars(&dir, budget.execs, budget.seeds[0]);
        drop(ticker);
        write_metrics(metrics_out.as_deref(), &registry);
        std::process::exit(code);
    }
    if let Some(dir) = pdf_eval::grammar_in_from_args() {
        let budget = pdf_eval::budget_from_args(8_000);
        let code = grammar_study(&dir, budget.execs, budget.seeds[0]);
        drop(ticker);
        write_metrics(metrics_out.as_deref(), &registry);
        std::process::exit(code);
    }
    let budget = pdf_eval::budget_from_args(30_000);
    let jobs = pdf_eval::require_arg(pdf_eval::jobs_from_args());
    let sup = pdf_eval::supervisor_from_args();
    let chaos_seed = pdf_eval::chaos_seed_from_args();
    let exec_mode = pdf_eval::require_arg(pdf_eval::exec_mode_from_args());
    let stats_out = pdf_eval::stats_out_from_args();
    let record_out = pdf_eval::record_path_from_args();
    if record_out.is_some() && exec_mode != pdf_core::ExecMode::Full {
        eprintln!(
            "warning: recording under --exec-mode {exec_mode:?}; journals replay \
             under full instrumentation and will diverge"
        );
    }
    println!("{}", pdf_eval::render_table1(&pdf_eval::table1_subjects()));
    for inv in pdf_eval::token_tables() {
        println!("{}", pdf_eval::render_token_table(&inv));
    }
    let mut cells = match chaos_seed {
        Some(seed) => {
            let cfg = pdf_subjects::chaos::ChaosConfig::stormy(seed);
            eprintln!("chaos mode: subjects wrapped with {cfg:?}");
            pdf_eval::matrix_cells_for(
                &pdf_subjects::chaos::chaos_evaluation_subjects(cfg),
                &budget,
            )
        }
        None => pdf_eval::matrix_cells(&budget),
    };
    for cell in &mut cells {
        cell.exec_mode = exec_mode;
    }
    eprintln!(
        "running 5 subjects x 3 tools, {} execs x {} seeds ({} cells, {} jobs, {} retries) ...",
        budget.execs,
        budget.seeds.len(),
        cells.len(),
        jobs,
        sup.max_retries,
    );
    let per_cell = pdf_eval::run_cells_supervised(&cells, jobs, &sup);
    drop(ticker);
    println!("{}", pdf_eval::render_supervision(&per_cell));
    if let Some(path) = &record_out {
        let journal = pdf_eval::journal_of(&cells, &per_cell);
        match std::fs::write(path, journal.encode()) {
            Ok(()) => eprintln!(
                "recorded {} cells to {}",
                journal.cells.len(),
                path.display()
            ),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
    let completed = pdf_eval::completed_outcomes(per_cell);
    if let Some(path) = &stats_out {
        let mut lines = String::new();
        for o in &completed {
            lines.push_str(&pdf_eval::stats_json_line(o));
            lines.push('\n');
        }
        match std::fs::write(path, lines) {
            Ok(()) => eprintln!(
                "wrote {} stats lines to {}",
                completed.len(),
                path.display()
            ),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
    let outcomes = pdf_eval::collapse_matrix(completed);
    println!(
        "{}",
        pdf_eval::render_fig2(&pdf_eval::fig2_coverage(&outcomes))
    );
    println!(
        "{}",
        pdf_eval::render_fig3(&pdf_eval::fig3_tokens(&outcomes))
    );
    println!(
        "{}",
        pdf_eval::render_headline(&pdf_eval::headline_aggregates(&outcomes))
    );
    println!(
        "{}",
        pdf_eval::render_discovery(&pdf_eval::token_discovery(&outcomes))
    );
    write_metrics(metrics_out.as_deref(), &registry);
}

fn write_metrics(path: Option<&std::path::Path>, registry: &pdf_obs::MetricsRegistry) {
    if let Some(path) = path {
        pdf_eval::write_metrics_snapshot(path, registry);
    }
}

fn mine_dictionaries(path: &std::path::Path, execs: u64, seed: u64) -> i32 {
    let subjects = pdf_subjects::evaluation_subjects();
    eprintln!(
        "mining dictionaries: {} subjects, {execs} execs each, seed {seed} ...",
        subjects.len()
    );
    let (dict, rows) = pdf_eval::mine_union_dictionary(execs, seed);
    println!("{}", pdf_eval::render_mined_inventory(&rows));
    match dict.save(path) {
        Ok(()) => {
            eprintln!("wrote {} tokens to {}", dict.len(), path.display());
            0
        }
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            2
        }
    }
}

fn dict_study(path: &std::path::Path, execs: u64, seed: u64) -> i32 {
    let dict = match pdf_tokens::Dictionary::load(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot load dictionary {}: {e}", path.display());
            return 2;
        }
    };
    eprintln!(
        "dictionary study: {} tokens, {execs} execs per run, seed {seed} ...",
        dict.len()
    );
    let mut rows = Vec::new();
    for name in ["tinyC", "mjs"] {
        let info = pdf_subjects::by_name(name).expect("study subjects exist");
        rows.extend(pdf_eval::dict_vs_baseline(&info, &dict, execs, seed));
    }
    println!("{}", pdf_eval::render_dict_study(&rows));
    0
}

fn mine_grammars(dir: &std::path::Path, execs: u64, seed: u64) -> i32 {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return 2;
    }
    let subjects = pdf_subjects::evaluation_subjects();
    eprintln!(
        "mining grammars: {} subjects, {execs} execs each, seed {seed} ...",
        subjects.len()
    );
    let mut rows = Vec::new();
    let mut written = 0usize;
    for info in &subjects {
        let (file, row) = pdf_eval::mine_subject_grammar(info, execs, seed);
        if let Some(file) = file {
            let path = dir.join(format!("{}.grammar", info.name));
            if let Err(e) = file.save(&path) {
                eprintln!("failed to write {}: {e}", path.display());
                return 2;
            }
            written += 1;
        }
        rows.push(row);
    }
    println!("{}", pdf_eval::render_grammar_mine(&rows));
    eprintln!(
        "wrote {written}/{} grammar files to {}",
        subjects.len(),
        dir.display()
    );
    0
}

fn grammar_study(dir: &std::path::Path, execs: u64, seed: u64) -> i32 {
    let mut rows = Vec::new();
    let mut loaded = 0usize;
    for info in pdf_subjects::evaluation_subjects() {
        let path = dir.join(format!("{}.grammar", info.name));
        if !path.exists() {
            continue;
        }
        let file = match pdf_grammar::GrammarFile::load(&path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot load grammar {}: {e}", path.display());
                return 2;
            }
        };
        loaded += 1;
        eprintln!(
            "grammar study: {} ({} rules, {execs} execs per run, seed {seed}) ...",
            info.name,
            file.grammar().len()
        );
        rows.extend(pdf_eval::grammar_vs_baseline(&info, &file, execs, seed));
    }
    if loaded == 0 {
        eprintln!("no <subject>.grammar files under {}", dir.display());
        return 2;
    }
    println!("{}", pdf_eval::render_grammar_study(&rows));
    0
}

fn submit_matrix(
    addr: &str,
    budget: &pdf_eval::EvalBudget,
    exec_mode: pdf_core::ExecMode,
    shards: u64,
) -> i32 {
    // Submissions ride the retrying client: shed hints and dropped
    // connections are absorbed with backoff, and the auto idempotency
    // key keeps a resubmit-after-lost-reply from forking a duplicate
    // campaign.
    let mut client = pdf_serve::RetryClient::new(addr);
    if let Err(e) = client.ping() {
        eprintln!("cannot reach pdf-serve daemon at {addr}: {e}");
        return 2;
    }
    let subjects = pdf_subjects::evaluation_subjects();
    eprintln!(
        "submitting {} subjects x {} seeds ({} execs, {} shard(s) each) to {addr} ...",
        subjects.len(),
        budget.seeds.len(),
        budget.execs,
        shards,
    );
    let mut ids: Vec<(u64, String, u64)> = Vec::new();
    for info in &subjects {
        for &seed in &budget.seeds {
            let spec = pdf_serve::CampaignSpec {
                shards,
                sync_every: pdf_serve::default_sync_every(budget.execs, shards),
                exec_mode,
                ..pdf_serve::CampaignSpec::new(info.name, seed, budget.execs)
            };
            match client.submit(&spec) {
                Ok(id) => ids.push((id, info.name.to_string(), seed)),
                Err(e) => {
                    eprintln!("submit {}/{seed} refused: {e}", info.name);
                    return 2;
                }
            }
        }
    }
    let mut failures = 0u64;
    println!("| id | subject | seed | state | execs | valid | digest |");
    println!("|---:|---------|-----:|-------|------:|------:|--------|");
    for (id, subject, seed) in &ids {
        let status = match client.wait_terminal(*id, std::time::Duration::from_secs(600)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("waiting on campaign {id}: {e}");
                return 2;
            }
        };
        if status.phase != pdf_serve::Phase::Done {
            failures += 1;
        }
        println!(
            "| {id} | {subject} | {seed} | {} | {} | {} | {} |",
            status.phase,
            status.spent,
            status.valid,
            status
                .digest
                .map_or_else(|| "-".to_string(), |d| format!("{d:016x}")),
        );
    }
    if failures > 0 {
        eprintln!("{failures}/{} campaigns did not finish cleanly", ids.len());
        1
    } else {
        eprintln!("all {} campaigns done", ids.len());
        0
    }
}

fn replay(path: &std::path::Path, jobs: usize) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return 2;
        }
    };
    let journal = match pdf_runtime::Journal::decode(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("cannot decode {}: {e}", path.display());
            return 2;
        }
    };
    eprintln!(
        "replaying {} recorded cells from {} ({} jobs) ...",
        journal.cells.len(),
        path.display(),
        jobs,
    );
    let report = pdf_eval::replay_journal(&journal, jobs);
    if report.is_clean() {
        eprintln!("replay clean: {} cells byte-identical", report.cells);
        0
    } else {
        for d in &report.diffs {
            eprintln!("{}", d.describe());
        }
        eprintln!(
            "replay FAILED: {}/{} cells diverged",
            report.diffs.len(),
            report.cells
        );
        1
    }
}
