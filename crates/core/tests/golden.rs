//! Golden-file tests for the `pdf-checkpoint v1` codec: the committed
//! files were written by the encoder this format shipped with, so
//! decoding them and re-encoding the values must reproduce their bytes
//! exactly.

use pdf_core::{Checkpoint, QueueItemSnapshot, QueueSnapshot};

const FULL: &str = include_str!("golden/full.ck");
const MINIMAL: &str = include_str!("golden/minimal.ck");

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
                    parent_branches: vec![(1, true), (2, false)],
                    replacement_len: 1,
                    avg_stack_bits: 1.5f64.to_bits(),
                    num_parents: 2,
                    path_hash: 0xaa,
                },
                QueueItemSnapshot {
                    score_bits: (-4.5f64).to_bits(),
                    seq: 8,
                    input: Vec::new(),
                    parent_branches: Vec::new(),
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
    assert_eq!(ck.encode(), FULL);
}

#[test]
fn golden_minimal_checkpoint_decodes_and_reencodes_byte_identically() {
    let ck = Checkpoint::decode(MINIMAL).expect("golden file decodes");
    assert_eq!(ck, minimal());
    assert_eq!(ck.encode(), MINIMAL);
}
