//! Golden-file test for the `pdf-journal v1` codec: the committed file
//! was written by the encoder this format shipped with, so decoding it
//! and re-encoding the value must reproduce its bytes exactly.

use pdf_runtime::{digest_bytes, CellRecord, Journal};

const GOLDEN: &str = include_str!("golden/sample.journal");

fn expected() -> Journal {
    Journal {
        cells: vec![
            CellRecord {
                tool: "pFuzzer".to_string(),
                subject: "cjson".to_string(),
                seed: 7,
                execs: 30_000,
                config_hash: 0xdead_beef,
                decision_count: 4,
                decision_digest: digest_bytes(&[0x00, 0x0a, 0x7f, 0xff]),
                decisions: vec![0x00, 0x0a, 0x7f, 0xff],
                outcome_digest: 0x0123_4567_89ab_cdef,
            },
            CellRecord {
                tool: "AFL".to_string(),
                subject: "ini".to_string(),
                seed: 1,
                execs: 500,
                config_hash: 0,
                decision_count: 123_456,
                decision_digest: u64::MAX,
                decisions: Vec::new(),
                outcome_digest: 0x0000_0000_0000_0042,
            },
        ],
    }
}

#[test]
fn golden_journal_decodes_and_reencodes_byte_identically() {
    let journal = Journal::decode(GOLDEN).expect("golden file decodes");
    assert_eq!(journal, expected());
    assert_eq!(journal.encode(), GOLDEN);
}
