//! The examples that take an execution budget refuse a malformed one:
//! exit 2 with the usage, before any campaign starts, instead of
//! quietly running the default budget.
//!
//! The test runs the example binaries, which cargo builds only for a
//! test run without a target filter (`cargo test`, as tier-1 and CI
//! run it) or with `--examples`. A filtered run on a clean target
//! directory needs them built first:
//! `cargo build --examples && cargo test --test examples_cli`, adding
//! `--release` to both for the release profile.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// The built example `name`. An unfiltered `cargo test` builds every
/// example into the `examples` directory beside this test's `deps`
/// directory.
fn example(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("test binary path");
    let dir = exe
        .parent()
        .and_then(|deps| deps.parent())
        .expect("test binary sits in <profile>/deps");
    let path = dir
        .join("examples")
        .join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    assert!(
        path.exists(),
        "{} is not built: run `cargo build --examples` first (with \
         `--release` for a release test run) or an unfiltered `cargo test`",
        path.display()
    );
    path
}

/// Runs `name` with `args`, requires a fast exit 2 with the usage, and
/// returns the first stderr line.
fn refused(name: &str, args: &[&str]) -> String {
    let start = Instant::now();
    let out = Command::new(example(name))
        .args(args)
        .output()
        .expect("example runs");
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "{name} {args:?} took {:?}",
        start.elapsed()
    );
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("usage: {name} ")),
        "{name} {args:?} printed no usage: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{name} {args:?} wrote stdout");
    stderr.lines().next().unwrap_or_default().to_string()
}

#[test]
fn malformed_budgets_are_refused() {
    assert_eq!(
        refused("grammar_pipeline", &["cjson", "3OOO"]),
        "error: FUZZ_EXECS expects a positive integer, got \"3OOO\""
    );
    assert_eq!(
        refused("grammar_pipeline", &["cjson", "0"]),
        "error: FUZZ_EXECS must be at least 1 (got 0)"
    );
    assert_eq!(
        refused("baseline_shootout", &["cjson", "2e4"]),
        "error: EXECS expects a positive integer, got \"2e4\""
    );
}

#[test]
fn unknown_subjects_and_flags_are_refused() {
    assert_eq!(
        refused("grammar_pipeline", &["nope"]),
        "error: unknown subject nope"
    );
    assert_eq!(
        refused("baseline_shootout", &["cjson", "100", "extra"]),
        "error: unexpected argument \"extra\""
    );
    assert_eq!(
        refused("grammar_pipeline", &["--execs", "100"]),
        "error: unknown flag \"--execs\""
    );
}
