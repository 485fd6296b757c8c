//! A miniature of the paper's full evaluation: all three tools on one
//! subject of your choice, comparing branch coverage and token
//! coverage.
//!
//! Run with:
//! `cargo run --release --example baseline_shootout -- [SUBJECT] [EXECS]`
//! where subject is one of ini, csv, cjson, tinyC, mjs (default cjson).

use parser_directed_fuzzing::eval::{coverage_universe, relative_coverage, run_tool_seeded, Tool};
use parser_directed_fuzzing::runtime::cli::Args;
use parser_directed_fuzzing::subjects;
use parser_directed_fuzzing::tokens::TokenCoverage;

const USAGE: &str = "\
usage: baseline_shootout [SUBJECT] [EXECS]

Runs every tool for EXECS executions (default 20000) on SUBJECT: ini,
csv, cjson, tinyC or mjs (default cjson).";

fn main() {
    let args = Args::from_env(USAGE);
    let subject_name = args.positional(0).unwrap_or("cjson");
    let execs = args.or_exit(args.positive_at(1, "EXECS", 20_000));
    let Some(info) = subjects::by_name(subject_name) else {
        args.fail(&format!(
            "unknown subject {subject_name}; use ini, csv, cjson, tinyC or mjs"
        ));
    };

    println!("{subject_name}: {execs} executions per tool\n");
    let outcomes: Vec<_> = Tool::ALL
        .iter()
        .map(|&tool| run_tool_seeded(tool, &info, execs, 1))
        .collect();
    let universe = coverage_universe(&info, &outcomes.iter().collect::<Vec<_>>());

    println!(
        "{:<10}{:>14}{:>12}{:>16}{:>14}",
        "Tool", "valid inputs", "coverage", "tokens <=3", "tokens >3"
    );
    for outcome in &outcomes {
        let coverage = relative_coverage(outcome, &universe);
        let (short, long) = match TokenCoverage::new(subject_name) {
            Some(mut cov) => {
                for input in &outcome.valid_inputs {
                    cov.add_input(input);
                }
                (cov.fraction_in(1, 3), cov.fraction_in(4, usize::MAX))
            }
            None => ((0, 0), (0, 0)),
        };
        println!(
            "{:<10}{:>14}{:>11.1}%{:>16}{:>14}",
            outcome.tool.name(),
            outcome.valid_inputs.len(),
            coverage,
            format!("{}/{}", short.0, short.1),
            format!("{}/{}", long.0, long.1),
        );
    }
}
