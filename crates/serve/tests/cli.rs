//! `pdfserved` refuses a command line its flag table does not accept
//! (exit 2, usage on stderr) before it binds a socket, and prints the
//! usage on `--help`.

use std::process::Command;
use std::time::{Duration, Instant};

const PDFSERVED: &str = env!("CARGO_BIN_EXE_pdfserved");

#[test]
fn bad_command_lines_exit_2_with_the_usage() {
    for args in [
        &["--bogus", "1"][..],
        &["--addr", "127.0.0.1:0"],
        &["--workers"],
        &["--workers", "0"],
        &["--workers", "2", "--workers", "3"],
        &["serve"],
    ] {
        let start = Instant::now();
        let out = Command::new(PDFSERVED).args(args).output().expect("runs");
        assert!(start.elapsed() < Duration::from_secs(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: pdfserved "), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} started serving");
    }
}

#[test]
fn help_prints_the_usage_and_exits_0() {
    let out = Command::new(PDFSERVED)
        .arg("--help")
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("usage: pdfserved "), "{stdout}");
    assert!(stdout.contains("--read-timeout-ms"), "{stdout}");
}
