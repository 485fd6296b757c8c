//! Golden-file tests for the `pdf-checkpoint` codec. The `v1` files
//! were written by the encoder that format shipped with and must still
//! decode to the same values; the `v2` files hold the same values as the
//! current encoder writes them, so decoding them and re-encoding must
//! reproduce their bytes exactly.

use pdf_core::{
    CampaignBudget, Checkpoint, DriverConfig, ErrorClass, Fuzzer, QueueItemSnapshot, QueueSnapshot,
};

const FULL: &str = include_str!("golden/full.ck");
const MINIMAL: &str = include_str!("golden/minimal.ck");
const FULL_V2: &str = include_str!("golden/full.v2.ck");
const MINIMAL_V2: &str = include_str!("golden/minimal.v2.ck");
/// A real campaign's checkpoint as the v1 encoder wrote it: ini, seed 1,
/// paused after 1,000 of 2,000 execs. Site ids hash `file!()` paths,
/// so a replacement must be written by a program built in this
/// workspace.
const INI_V1: &str = include_str!("golden/ini-1k-of-2k.v1.ck");

/// Every optional record present: `tier`, `mine`, a non-empty `sbr`,
/// plus valid inputs, verdict cache, path counts and queue items.
fn full() -> Checkpoint {
    Checkpoint {
        subject: "arith".to_string(),
        config_hash: 0xdead_beef,
        seed: 7,
        draws: 42,
        primed: true,
        execs: 100,
        events: 4_321,
        hangs: 3,
        crashes: 1,
        first_valid_execs: Some(12),
        decisions: vec![0x30, 0x31, 0x2b, 0x00, 0xff],
        current: b"1+".to_vec(),
        parents: 2,
        valid: vec![(b"1".to_vec(), 12), (b"1+1".to_vec(), 50)],
        valid_branches: vec![(1, true), (2, false)],
        all_branches: vec![(1, true), (2, false), (3, true)],
        steer_branches: vec![(1, true), (2, false), (0xffff_ffff_ffff_fff9, true)],
        known_invalid: vec![b"(".to_vec(), b"\n)\xfe".to_vec()],
        tier_max_rejection: Some(4),
        tier_fingerprints: vec![0x11, 0x22, 0x33],
        mined: vec![(b"\x00while".to_vec(), 7), (b"}".to_vec(), 1)],
        queue: QueueSnapshot {
            seq: 9,
            last_vbr_len: 2,
            pops_since_rebuild: 5,
            path_counts: vec![(0xaa, 3), (0xbb, 1)],
            items: vec![
                QueueItemSnapshot {
                    score_bits: (0.1f64 + 0.2f64).to_bits(),
                    seq: 7,
                    input: b"1+2".to_vec(),
                    parent_branches: vec![(1, true), (2, false)].into(),
                    replacement_len: 1,
                    avg_stack_bits: 1.5f64.to_bits(),
                    num_parents: 2,
                    path_hash: 0xaa,
                },
                QueueItemSnapshot {
                    score_bits: (-4.5f64).to_bits(),
                    seq: 8,
                    input: Vec::new(),
                    parent_branches: Vec::new().into(),
                    replacement_len: 0,
                    avg_stack_bits: 0,
                    num_parents: 0,
                    path_hash: 0xbb,
                },
            ],
        },
    }
}

/// A fresh campaign: no optional record, empty sets, `first=-`.
fn minimal() -> Checkpoint {
    Checkpoint {
        subject: "x".to_string(),
        ..Checkpoint::default()
    }
}

#[test]
fn golden_full_checkpoint_decodes_and_reencodes_byte_identically() {
    let ck = Checkpoint::decode(FULL).expect("golden file decodes");
    assert_eq!(ck, full());
    assert_eq!(ck.encode(), FULL_V2);
}

#[test]
fn golden_minimal_checkpoint_decodes_and_reencodes_byte_identically() {
    let ck = Checkpoint::decode(MINIMAL).expect("golden file decodes");
    assert_eq!(ck, minimal());
    assert_eq!(ck.encode(), MINIMAL_V2);
}

#[test]
fn golden_v2_checkpoints_decode_and_reencode_byte_identically() {
    for (text, value) in [(FULL_V2, full()), (MINIMAL_V2, minimal())] {
        let ck = Checkpoint::decode(text).expect("golden file decodes");
        assert_eq!(ck, value);
        assert_eq!(ck.encode(), text);
    }
}

#[test]
fn golden_v2_checkpoints_cut_at_any_byte_are_refused_as_corrupt() {
    for (text, value) in [(FULL_V2, full()), (MINIMAL_V2, minimal())] {
        let whole = text.len();
        for cut in 0..whole {
            match Checkpoint::decode(&text[..cut]) {
                // the trailer's own newline is the only byte a file can lose
                Ok(ck) => assert!(cut == whole - 1 && ck == value, "cut at {cut} decoded"),
                Err(e) => assert_eq!(e.class(), ErrorClass::Corrupt, "cut at {cut}: {e}"),
            }
        }
        assert!(Checkpoint::decode(&text[..whole - 1]).is_ok());
    }
}

#[test]
fn golden_v1_campaign_checkpoint_resumes_to_the_uninterrupted_digest() {
    let subject = pdf_subjects::ini::subject();
    let cfg = DriverConfig {
        seed: 1,
        max_execs: 2_000,
        ..DriverConfig::default()
    };
    let straight = Fuzzer::new(subject, cfg.clone()).run();
    let ck = Checkpoint::decode(INI_V1).expect("v1 checkpoint decodes");
    assert_eq!(ck.execs, 1_001);
    assert_eq!(Checkpoint::decode(&ck.encode()).expect("v2 decodes"), ck);
    let mut resumed = Fuzzer::resume_from_checkpoint(subject, cfg, &ck).expect("v1 resumes");
    assert!(resumed
        .run_until(&CampaignBudget::unbounded())
        .is_finished());
    let report = resumed.into_report();
    assert_eq!(report.digest(), straight.digest());
    assert_eq!(report.valid_inputs, straight.valid_inputs);
}
