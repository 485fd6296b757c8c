//! The daemon's append-only transition journal (`pdf-serve v1`).
//!
//! Every lifecycle transition the daemon accepts is appended to
//! `<state_dir>/serve.journal` before it takes effect, as one `txn`
//! line of the record codec ([`pdf_runtime::record`]):
//!
//! ```text
//! pdf-serve v1
//! txn seq=0 id=1 ev=dispatch from=queued to=running
//! txn seq=1 id=1 ev=finish from=running to=done digest=91aa50fe01c0ef2d
//! ```
//!
//! `seq` is a global monotonically increasing counter (restarts resume
//! it from the last persisted record), `digest` is attached to `finish`
//! records so final report digests are part of the durable history —
//! the kill/resume test diffs exactly these. The journal is replayable:
//! [`read_journal`] re-parses every record and the soak test re-checks
//! each one against [`transition`](crate::lifecycle::transition).

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pdf_chaos::{ChaosWriter, FaultPlan, OpKind};

use pdf_runtime::record::{self, Record, Records};
use pdf_runtime::RecordError;

use crate::lifecycle::{Event, Phase};

/// The journal header/version line.
pub const JOURNAL_HEADER: &str = "pdf-serve v1";

/// One journaled lifecycle transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalRecord {
    /// Global sequence number, dense and increasing across restarts.
    pub seq: u64,
    /// The campaign the transition applies to.
    pub id: u64,
    /// The event that fired.
    pub event: Event,
    /// Phase before the event.
    pub from: Phase,
    /// Phase after the event.
    pub to: Phase,
    /// The final fleet-report digest, present on `finish` records.
    pub digest: Option<u64>,
}

impl JournalRecord {
    /// The record line, without its newline: writers frame it with
    /// `writeln!`.
    fn encode(&self) -> String {
        let mut line = String::new();
        let mut w = record::write(&mut line, "txn")
            .dec("seq", self.seq)
            .dec("id", self.id)
            .raw("ev", self.event.name())
            .raw("from", self.from.name())
            .raw("to", self.to.name());
        if let Some(d) = self.digest {
            w = w.hex("digest", d);
        }
        w.end();
        line.pop();
        line
    }

    fn decode(rec: &Record<'_>) -> Result<JournalRecord, RecordError> {
        if rec.tag() != "txn" {
            return Err(rec.unknown_tag());
        }
        rec.keys(&["seq", "id", "ev", "from", "to", "digest"])?;
        let phase =
            |key| Phase::parse(rec.raw(key)?).ok_or_else(|| rec.error(Some(key), "unknown phase"));
        Ok(JournalRecord {
            seq: rec.dec("seq")?,
            id: rec.dec("id")?,
            event: Event::parse(rec.raw("ev")?)
                .ok_or_else(|| rec.error(Some("ev"), "unknown event"))?,
            from: phase("from")?,
            to: phase("to")?,
            digest: rec
                .opt("digest")
                .map(|v| rec.hex_of("digest", v))
                .transpose()?,
        })
    }
}

/// Append-only writer over `<state_dir>/serve.journal`.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    next_seq: u64,
    faults: Option<Arc<FaultPlan>>,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, positioning `seq` after
    /// the last persisted record so restarts continue the sequence.
    ///
    /// # Errors
    ///
    /// I/O errors, or a corrupt existing journal (restart paths that
    /// must survive a torn tail go through [`recover_journal`] first).
    pub fn open(path: &Path) -> std::io::Result<Journal> {
        let next_seq = if path.exists() {
            read_journal(path)?.last().map(|r| r.seq + 1).unwrap_or(0)
        } else {
            let mut f = File::create(path)?;
            writeln!(f, "{JOURNAL_HEADER}")?;
            f.sync_all()?;
            0
        };
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            next_seq,
            faults: None,
        })
    }

    /// Installs a fault plan: every subsequent [`append`](Self::append)
    /// consults it for injected torn writes, ENOSPC and delays.
    pub fn set_faults(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.faults = plan;
    }

    /// Appends one transition record and flushes it to disk.
    ///
    /// # Errors
    ///
    /// I/O errors from the append or flush — including injected ones
    /// when a fault plan is installed. A failed append rolls the file
    /// back to its pre-append length (best effort), so a *live* daemon
    /// never leaves a torn line mid-journal; torn tails come only from
    /// hard kills, and [`recover_journal`] quarantines those on the
    /// next restart. `seq` is not consumed on failure, so the salvaged
    /// history stays gap-free.
    pub fn append(
        &mut self,
        id: u64,
        event: Event,
        from: Phase,
        to: Phase,
        digest: Option<u64>,
    ) -> std::io::Result<JournalRecord> {
        let record = JournalRecord {
            seq: self.next_seq,
            id,
            event,
            from,
            to,
            digest,
        };
        let rollback_to = self.file.metadata()?.len();
        let mut w = ChaosWriter::new(&mut self.file, self.faults.clone(), OpKind::JournalWrite);
        let wrote = writeln!(w, "{}", record.encode()).and_then(|()| self.file.flush());
        if let Err(e) = wrote {
            let _ = self.file.set_len(rollback_to);
            return Err(e);
        }
        self.next_seq += 1;
        Ok(record)
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The sequence number the next record will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

/// Reads and parses the whole journal at `path`.
///
/// # Errors
///
/// I/O errors; parse failures surface as `InvalidData`.
pub fn read_journal(path: &Path) -> std::io::Result<Vec<JournalRecord>> {
    let invalid =
        |e: RecordError| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string());
    let text = std::fs::read_to_string(path)?;
    let (header, records) = Records::open(&text, JOURNAL_HEADER).map_err(invalid)?;
    header.keys(&[]).map_err(invalid)?;
    records
        .map(|rec| JournalRecord::decode(&rec?))
        .collect::<Result<_, _>>()
        .map_err(invalid)
}

/// `<path><suffix>`, appended to the full file name (unlike
/// `Path::with_extension`, which would *replace* `.journal`).
pub(crate) fn append_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// What [`recover_journal`] salvaged from a possibly-torn journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredJournal {
    /// The gap-free legal prefix: every record up to (not including)
    /// the first unparseable or sequence-breaking line.
    pub records: Vec<JournalRecord>,
    /// Lines cut from the journal and appended to the quarantine file
    /// (zero when the journal was clean).
    pub quarantined_lines: usize,
    /// Where the torn tail went (`<journal>.quarantine`), present only
    /// when something was quarantined.
    pub quarantine_path: Option<PathBuf>,
}

/// Restart-safe journal read: salvages the longest gap-free prefix of
/// legal records and quarantines everything after it.
///
/// A hard kill mid-append leaves a torn final line; a torn storage
/// write can leave worse. Instead of refusing to restart (what
/// [`read_journal`] does), this cuts the journal at the first
/// unparseable line *or* the first sequence gap, appends the cut tail
/// to `<path>.quarantine` for post-mortems, and rewrites the journal
/// (tmp plus rename) to exactly the salvaged prefix — after which
/// [`Journal::open`] succeeds and continues the sequence densely.
///
/// A missing file recovers to an empty journal. An unreadable *header*
/// quarantines the entire file.
///
/// # Errors
///
/// Only real I/O errors (reading the journal, writing the quarantine
/// or the rewrite); corruption itself is never an error here.
pub fn recover_journal(path: &Path) -> std::io::Result<RecoveredJournal> {
    if !path.exists() {
        return Ok(RecoveredJournal {
            records: Vec::new(),
            quarantined_lines: 0,
            quarantine_path: None,
        });
    }
    // Read as raw bytes: a torn tail can hold arbitrary garbage, and
    // "not UTF-8" is corruption to quarantine, not an I/O failure.
    let bytes = std::fs::read(path)?;
    let mut lines: Vec<String> = bytes
        .split(|&b| b == b'\n')
        .map(|l| String::from_utf8_lossy(l).into_owned())
        .collect();
    if lines.last().is_some_and(String::is_empty) {
        lines.pop(); // the split artifact after a trailing newline
    }
    let header_ok = lines.first().is_some_and(|h| {
        Record::parse_header(h, JOURNAL_HEADER)
            .and_then(|h| h.keys(&[]))
            .is_ok()
    });
    let mut records = Vec::new();
    // Index of the first line that does NOT belong to the legal prefix.
    let mut cut = if header_ok { 1 } else { 0 };
    if header_ok {
        for (idx, line) in lines.iter().enumerate().skip(1) {
            let parsed = Record::parse(line, idx + 1)
                .and_then(|rec| rec.map(|rec| JournalRecord::decode(&rec)).transpose());
            match parsed {
                // blank or comment line
                Ok(None) => cut = idx + 1,
                Ok(Some(r)) if r.seq == records.len() as u64 => {
                    records.push(r);
                    cut = idx + 1;
                }
                _ => break,
            }
        }
    }
    let tail: Vec<&String> = lines.iter().skip(cut).collect();
    let mut quarantine_path = None;
    if !tail.is_empty() {
        let qpath = append_suffix(path, ".quarantine");
        let mut q = OpenOptions::new().create(true).append(true).open(&qpath)?;
        for line in &tail {
            writeln!(q, "{line}")?;
        }
        q.sync_all()?;
        quarantine_path = Some(qpath);
        // Rewrite the journal to the salvaged prefix, atomically.
        let tmp = append_suffix(path, ".tmp");
        {
            let mut f = File::create(&tmp)?;
            writeln!(f, "{JOURNAL_HEADER}")?;
            for r in &records {
                writeln!(f, "{}", r.encode())?;
            }
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
    }
    Ok(RecoveredJournal {
        records,
        quarantined_lines: tail.len(),
        quarantine_path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pdf-serve-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_and_read_round_trip() {
        let dir = tmpdir("rt");
        let path = dir.join("serve.journal");
        let mut j = Journal::open(&path).unwrap();
        j.append(1, Event::Dispatch, Phase::Queued, Phase::Running, None)
            .unwrap();
        j.append(1, Event::Finish, Phase::Running, Phase::Done, Some(0xabcd))
            .unwrap();
        let records = read_journal(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[1].digest, Some(0xabcd));
        assert_eq!(records[1].event, Event::Finish);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_continues_sequence() {
        let dir = tmpdir("seq");
        let path = dir.join("serve.journal");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(7, Event::Dispatch, Phase::Queued, Phase::Running, None)
                .unwrap();
            assert_eq!(j.next_seq(), 1);
        }
        {
            let mut j = Journal::open(&path).unwrap();
            assert_eq!(j.next_seq(), 1);
            let r = j
                .append(7, Event::Pause, Phase::Running, Phase::Paused, None)
                .unwrap();
            assert_eq!(r.seq, 1);
        }
        let records = read_journal(&path).unwrap();
        assert_eq!(records.iter().map(|r| r.seq).collect::<Vec<_>>(), [0, 1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_salvages_prefix_and_quarantines_tail() {
        let dir = tmpdir("recover");
        let path = dir.join("serve.journal");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(1, Event::Dispatch, Phase::Queued, Phase::Running, None)
                .unwrap();
            j.append(1, Event::Finish, Phase::Running, Phase::Done, Some(0xfeed))
                .unwrap();
        }
        // Simulate a hard kill mid-append: a torn final line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("txn seq=2 id=2 ev=dispa");
        std::fs::write(&path, &text).unwrap();

        let rec = recover_journal(&path).unwrap();
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.quarantined_lines, 1);
        let qpath = rec.quarantine_path.unwrap();
        assert!(std::fs::read_to_string(&qpath)
            .unwrap()
            .contains("ev=dispa"));

        // The rewritten journal is clean and continues the sequence.
        let mut j = Journal::open(&path).unwrap();
        assert_eq!(j.next_seq(), 2);
        j.append(2, Event::Dispatch, Phase::Queued, Phase::Running, None)
            .unwrap();
        assert_eq!(read_journal(&path).unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_cuts_at_sequence_gap() {
        let dir = tmpdir("gap");
        let path = dir.join("serve.journal");
        std::fs::write(
            &path,
            "pdf-serve v1\n\
             txn seq=0 id=1 ev=dispatch from=queued to=running\n\
             txn seq=5 id=1 ev=pause from=running to=paused\n",
        )
        .unwrap();
        let rec = recover_journal(&path).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.quarantined_lines, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_of_clean_or_missing_journal_is_a_no_op() {
        let dir = tmpdir("clean");
        let path = dir.join("serve.journal");
        assert_eq!(recover_journal(&path).unwrap().records.len(), 0);
        assert!(!path.exists(), "recovery must not invent a journal");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(1, Event::Dispatch, Phase::Queued, Phase::Running, None)
                .unwrap();
        }
        let before = std::fs::read_to_string(&path).unwrap();
        let rec = recover_journal(&path).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.quarantined_lines, 0);
        assert_eq!(rec.quarantine_path, None);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_quarantines_whole_file_on_bad_header() {
        let dir = tmpdir("hdr");
        let path = dir.join("serve.journal");
        std::fs::write(&path, "not-a-journal\ngarbage\n").unwrap();
        let rec = recover_journal(&path).unwrap();
        assert_eq!(rec.records.len(), 0);
        assert_eq!(rec.quarantined_lines, 2);
        assert!(read_journal(&path).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_append_rolls_back_and_journal_stays_clean() {
        let dir = tmpdir("torn-append");
        let path = dir.join("serve.journal");
        let mut j = Journal::open(&path).unwrap();
        j.append(1, Event::Dispatch, Phase::Queued, Phase::Running, None)
            .unwrap();
        // Every storage write tears: the append must fail but leave the
        // journal exactly as it was, with seq unconsumed.
        j.set_faults(Some(std::sync::Arc::new(pdf_chaos::FaultPlan::new(
            3,
            pdf_chaos::FaultSpec {
                torn_write_per_mille: 1000,
                ..pdf_chaos::FaultSpec::QUIET
            },
        ))));
        let err = j
            .append(1, Event::Finish, Phase::Running, Phase::Done, Some(1))
            .unwrap_err();
        assert!(pdf_chaos::is_injected(&err), "unexpected error {err}");
        assert_eq!(j.next_seq(), 1);
        j.set_faults(None);
        let r = j
            .append(1, Event::Finish, Phase::Running, Phase::Done, Some(1))
            .unwrap();
        assert_eq!(r.seq, 1);
        assert_eq!(read_journal(&path).unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_journal_rejected() {
        let dir = tmpdir("bad");
        let path = dir.join("serve.journal");
        std::fs::write(
            &path,
            "pdf-serve v1\ntxn seq=0 id=1 ev=warp from=queued to=running\n",
        )
        .unwrap();
        assert!(read_journal(&path).is_err());
        std::fs::write(&path, "not-a-journal\n").unwrap();
        assert!(read_journal(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
