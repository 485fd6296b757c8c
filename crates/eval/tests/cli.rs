//! Every pdf-eval binary refuses a command line its flag table does not
//! accept: exit 2, `error: …` and the usage on stderr, before any
//! campaign starts. A refused run must be fast: the default budgets
//! these mistakes used to run take seconds to minutes.

use std::process::{Command, Output};
use std::time::{Duration, Instant};

const BINARIES: [(&str, &str); 6] = [
    ("evalrunner", env!("CARGO_BIN_EXE_evalrunner")),
    ("replaycheck", env!("CARGO_BIN_EXE_replaycheck")),
    ("fleetrunner", env!("CARGO_BIN_EXE_fleetrunner")),
    ("modebench", env!("CARGO_BIN_EXE_modebench")),
    ("servecli", env!("CARGO_BIN_EXE_servecli")),
    ("loadgen", env!("CARGO_BIN_EXE_loadgen")),
];

fn run(exe: &str, args: &[&str]) -> Output {
    let start = Instant::now();
    let out = Command::new(exe).args(args).output().expect("binary runs");
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "{exe} {args:?} took {:?}",
        start.elapsed()
    );
    out
}

/// Runs `bin` with `args`, requires exit 2 with the usage on stderr,
/// and returns the first stderr line.
fn refused(bin: &str, args: &[&str]) -> String {
    let exe = BINARIES.iter().find(|(b, _)| *b == bin).expect("known").1;
    let out = run(exe, args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("usage: {bin} ")),
        "{bin} {args:?} printed no usage: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{bin} {args:?} wrote stdout");
    stderr.lines().next().unwrap_or_default().to_string()
}

#[test]
fn every_binary_refuses_an_unknown_flag() {
    for (bin, _) in BINARIES {
        assert_eq!(
            refused(bin, &["--bogus", "1"]),
            "error: unknown flag \"--bogus\""
        );
    }
}

#[test]
fn every_binary_prints_its_usage_on_help() {
    for (bin, exe) in BINARIES {
        for flag in ["--help", "-h"] {
            let out = run(exe, &[flag]);
            assert_eq!(out.status.code(), Some(0), "{bin} {flag}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.starts_with(&format!("usage: {bin} ")), "{stdout}");
        }
    }
}

#[test]
fn a_malformed_chaos_seed_is_refused() {
    assert_eq!(
        refused("evalrunner", &["--chaos", "abc"]),
        "error: --chaos expects an integer seed, got \"abc\""
    );
}

#[test]
fn a_malformed_resume_point_is_refused() {
    let err = refused("replaycheck", &["--resume-at", "abc"]);
    assert!(err.contains("--resume-at"), "{err}");
}

#[test]
fn a_trailing_path_flag_without_a_value_is_refused() {
    for flag in ["--stats-out", "--record", "--metrics-out"] {
        assert_eq!(
            refused("evalrunner", &["--execs", "300", flag]),
            format!("error: {flag} requires a value")
        );
    }
}

#[test]
fn two_evalrunner_modes_are_refused_by_name() {
    let err = refused("evalrunner", &["--dict-in", "d", "--replay", "j"]);
    assert_eq!(err, "error: --replay and --dict-in cannot be combined");
}

#[test]
fn repeated_flags_and_stray_arguments_are_refused() {
    assert_eq!(
        refused("fleetrunner", &["--execs", "1", "--execs", "2"]),
        "error: --execs given twice"
    );
    assert_eq!(
        refused("modebench", &["ini"]),
        "error: unexpected argument \"ini\""
    );
    assert_eq!(
        refused("servecli", &["status", "1", "2"]),
        "error: unexpected argument \"2\""
    );
}

#[test]
fn values_are_checked_before_any_work() {
    let err = refused("fleetrunner", &["--stop-after-epochs", "0"]);
    assert!(err.contains("at least 1"), "{err}");
    let err = refused("loadgen", &["--exec-mode", "fast"]);
    assert!(err.contains("full, tiered"), "{err}");
    // servecli checks its command line before it dials the daemon
    let err = refused("servecli", &["--addr", "127.0.0.1:1", "status", "x"]);
    assert!(err.contains("numeric campaign id"), "{err}");
    let err = refused("servecli", &["--addr", "127.0.0.1:1", "submit"]);
    assert!(err.contains("--subject"), "{err}");
}

#[test]
fn binaries_without_afl_cells_refuse_afl_mult() {
    for bin in ["fleetrunner", "modebench"] {
        assert_eq!(
            refused(bin, &["--afl-mult", "2"]),
            "error: unknown flag \"--afl-mult\""
        );
    }
}
