//! Campaign digests pinned across candidate-queue changes.
//!
//! The candidate queue decides the pop order, and the pop order decides
//! every later execution, so any change to how the queue stores or
//! rescores candidates shows up here as a different
//! [`FuzzReport::digest`](parser_directed_fuzzing::pfuzzer::FuzzReport::digest).
//! The values were produced by the queue that scored each candidate
//! individually; a layout change that keeps the pop order keeps them.
//! The tiered pins and the trace pin also hold the execution tiers and
//! the per-run summaries to the campaigns they produced before: a change
//! to which sink runs an input, or to which summary fields a run builds,
//! must leave every one of them unchanged.

use parser_directed_fuzzing::fleet::{Fleet, FleetConfig};
use parser_directed_fuzzing::pfuzzer::{DriverConfig, ExecMode, Fuzzer, SearchMode};
use parser_directed_fuzzing::runtime::{Digest, Subject};
use parser_directed_fuzzing::subjects;

fn digest(subject: Subject, cfg: DriverConfig) -> String {
    format!("{:016x}", Fuzzer::new(subject, cfg).run().digest())
}

fn full(seed: u64, max_execs: u64) -> DriverConfig {
    DriverConfig {
        seed,
        max_execs,
        ..DriverConfig::default()
    }
}

#[test]
fn mjs_default_campaigns() {
    let got: Vec<String> = (1..=3)
        .map(|seed| digest(subjects::mjs::subject(), full(seed, 20_000)))
        .collect();
    assert_eq!(
        got,
        ["c545ee8416737fbb", "6f06477a85451a2b", "05e42f55a5b9c73c"]
    );
}

#[test]
fn other_subjects_default_campaigns() {
    let got = [
        digest(subjects::tinyc::subject(), full(1, 20_000)),
        digest(subjects::json::subject(), full(1, 20_000)),
        digest(subjects::ini::subject(), full(1, 20_000)),
    ];
    assert_eq!(
        got,
        ["8024efe3c8d8c150", "1602cad12f34323f", "9b9138e4225142c0"]
    );
}

#[test]
fn tiered_campaign() {
    let cfg = DriverConfig {
        exec_mode: ExecMode::Tiered,
        ..full(2, 20_000)
    };
    assert_eq!(digest(subjects::mjs::subject(), cfg), "2457f012357ab017");
}

#[test]
fn other_subjects_tiered_campaigns() {
    let tiered = || DriverConfig {
        exec_mode: ExecMode::Tiered,
        ..full(1, 20_000)
    };
    let got = [
        digest(subjects::ini::subject(), tiered()),
        digest(subjects::csv::subject(), tiered()),
        digest(subjects::json::subject(), tiered()),
        digest(subjects::tinyc::subject(), tiered()),
    ];
    assert_eq!(
        got,
        [
            "8a5a0dffccdebe3d",
            "71cdb5a1233ae9db",
            "e2d58f26fc944bbe",
            "9c034a66e4be15f6"
        ]
    );
}

/// The report digest leaves the trace out, so the trace is pinned on its
/// own: every step's input, verdict, EOF flag, candidate count and action.
#[test]
fn traced_mjs_campaign() {
    let cfg = DriverConfig {
        trace: true,
        ..full(1, 20_000)
    };
    let report = Fuzzer::new(subjects::mjs::subject(), cfg).run();
    let mut d = Digest::new();
    d.write_u64(report.trace.len() as u64);
    for step in &report.trace {
        d.write_bytes(&step.input);
        d.write_u8(step.valid as u8);
        d.write_u8(step.eof as u8);
        d.write_u64(step.candidates as u64);
        d.write_str(&step.action);
    }
    assert_eq!(
        (report.trace.len(), format!("{:016x}", d.finish())),
        (20_000, "4f7f487b812278b9".to_string())
    );
}

#[test]
fn dictionary_fed_campaign() {
    let dictionary = [
        "function", "return", "while", "let", "true", "null", "typeof",
    ]
    .iter()
    .map(|t| t.as_bytes().to_vec())
    .collect();
    let cfg = DriverConfig {
        dictionary,
        ..full(1, 20_000)
    };
    assert_eq!(digest(subjects::mjs::subject(), cfg), "339a507a1c204547");
}

#[test]
fn ablation_searches() {
    let got = [SearchMode::DepthFirst, SearchMode::BreadthFirst].map(|search| {
        let cfg = DriverConfig {
            search,
            ..full(1, 5_000)
        };
        digest(subjects::json::subject(), cfg)
    });
    assert_eq!(got, ["0b00809da39cb38a", "af9542b0d5554026"]);
}

#[test]
fn two_shard_fleet() {
    // Peer promotions enter each shard's queue through `SyncPoint::inject`.
    let cfg = FleetConfig {
        parallel: false,
        ..FleetConfig::new(2, 2_000, full(1, 10_000))
    };
    let fleet = Fleet::new(subjects::mjs::subject(), cfg).expect("valid fleet config");
    let report = fleet.run();
    assert!(report.injections > 0, "no peer input was injected");
    assert_eq!(format!("{:016x}", report.digest()), "4fa7e236fb886785");
}
