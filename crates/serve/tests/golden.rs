//! Golden-file test for the `pdf-serve v1` transition journal: the
//! committed file was written by the journal this format shipped with,
//! so reading it and appending the same transitions to a fresh journal
//! must reproduce its bytes exactly.

use std::path::{Path, PathBuf};

use pdf_serve::journal::{read_journal, Journal, JournalRecord};
use pdf_serve::{Event, Phase};

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serve.journal")
}

fn expected() -> Vec<JournalRecord> {
    let rec = |seq, id, event, from, to, digest| JournalRecord {
        seq,
        id,
        event,
        from,
        to,
        digest,
    };
    vec![
        rec(0, 1, Event::Dispatch, Phase::Queued, Phase::Running, None),
        rec(1, 2, Event::Pause, Phase::Queued, Phase::Paused, None),
        rec(2, 1, Event::Requeue, Phase::Running, Phase::Queued, None),
        rec(3, 1, Event::Dispatch, Phase::Queued, Phase::Running, None),
        rec(
            4,
            1,
            Event::Finish,
            Phase::Running,
            Phase::Done,
            Some(0x91aa_50fe_01c0_ef2d),
        ),
        rec(5, 2, Event::Resume, Phase::Paused, Phase::Queued, None),
        rec(6, 2, Event::Cancel, Phase::Queued, Phase::Cancelled, None),
        rec(7, 3, Event::Dispatch, Phase::Queued, Phase::Running, None),
        rec(8, 3, Event::Finish, Phase::Running, Phase::Done, Some(0)),
        rec(9, 4, Event::Dispatch, Phase::Queued, Phase::Running, None),
        rec(10, 4, Event::Fail, Phase::Running, Phase::Failed, None),
    ]
}

#[test]
fn golden_journal_reads_and_rewrites_byte_identically() {
    let golden = std::fs::read_to_string(golden_path()).unwrap();
    assert_eq!(read_journal(&golden_path()).unwrap(), expected());

    let dir = std::env::temp_dir().join(format!("pdf-serve-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve.journal");
    let mut journal = Journal::open(&path).unwrap();
    for r in expected() {
        assert_eq!(
            journal
                .append(r.id, r.event, r.from, r.to, r.digest)
                .unwrap(),
            r
        );
    }
    assert_eq!(std::fs::read_to_string(&path).unwrap(), golden);
    let _ = std::fs::remove_dir_all(&dir);
}
