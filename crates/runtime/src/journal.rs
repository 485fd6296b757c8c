//! The record/replay journal: a compact, text-encoded description of a
//! fuzzing campaign precise enough to re-execute it and verify that the
//! outcome is byte-identical.
//!
//! A [`Journal`] is a list of [`CellRecord`]s, one per (tool, subject,
//! seed) campaign of an evaluation matrix. Each record carries:
//!
//! - the **identity** of the cell (tool, subject, seed, execution
//!   budget) plus a hash of the tool configuration it ran under, so a
//!   replay on a drifted configuration is detected rather than silently
//!   producing different results;
//! - the **decision stream**: for the pFuzzer driver the exact bytes it
//!   drew from its RNG (one per random-character decision), which lets a
//!   replay re-execute the campaign *from the journal* without an RNG;
//!   for the baselines a draw count and rolling digest of the raw RNG
//!   stream (see [`Rng::stream_digest`](crate::Rng::stream_digest));
//! - the **outcome digest**: a 64-bit FNV-1a digest over every
//!   deterministic field of the campaign outcome (valid inputs,
//!   discovery indices, branch sets, counters — never wall-clock).
//!
//! The encoding is a line-oriented text format (`pdf-journal v1`), one
//! `cell` line per record, written and parsed by the [record
//! codec](crate::record). [`Journal::encode`]/[`Journal::decode`]
//! round-trip exactly.

use crate::record::{self, RecordError, Records};

/// Incremental 64-bit FNV-1a digest used for outcome digests, decision
/// digests and configuration hashes throughout the workspace.
///
/// # Example
///
/// ```
/// use pdf_runtime::Digest;
/// let mut d = Digest::new();
/// d.write_bytes(b"abc");
/// d.write_u64(7);
/// let first = d.finish();
/// let mut e = Digest::new();
/// e.write_bytes(b"abc");
/// e.write_u64(7);
/// assert_eq!(first, e.finish());
/// ```
#[derive(Debug, Clone)]
pub struct Digest(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// Creates a digest at the FNV-1a offset basis.
    pub fn new() -> Self {
        Digest(FNV_OFFSET)
    }

    /// Mixes a single byte.
    pub fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }

    /// Mixes a byte slice, framed by its length so that `("ab", "c")`
    /// and `("a", "bc")` digest differently.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Mixes a 64-bit value (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Mixes a UTF-8 string (framed, like [`write_bytes`](Self::write_bytes)).
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// The digest value accumulated so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a standalone byte string (the rule used for pFuzzer
/// decision streams).
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.write_bytes(bytes);
    d.finish()
}

/// One recorded campaign: everything needed to re-execute a matrix cell
/// and check the result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// Tool name (`pFuzzer`, `AFL`, `KLEE`).
    pub tool: String,
    /// Subject name (`ini`, `csv`, `cjson`, ...).
    pub subject: String,
    /// Campaign seed.
    pub seed: u64,
    /// Execution budget the cell ran with.
    pub execs: u64,
    /// Hash of the tool configuration (detects config drift on replay).
    pub config_hash: u64,
    /// Number of decisions the campaign drew.
    pub decision_count: u64,
    /// Digest of the decision stream. For tools that record an explicit
    /// byte stream this is [`digest_bytes`] of `decisions`; for the
    /// others it is the tool RNG's rolling
    /// [`stream_digest`](crate::Rng::stream_digest).
    pub decision_digest: u64,
    /// Explicit byte-level decision stream, when the tool records one
    /// (the pFuzzer driver does; the baselines record digests only).
    pub decisions: Vec<u8>,
    /// Digest over the deterministic fields of the campaign outcome.
    pub outcome_digest: u64,
}

/// A recorded evaluation: an ordered list of campaign records.
///
/// # Example
///
/// The text encoding round-trips exactly, so a journal can be written,
/// stored, and replayed later:
///
/// ```
/// use pdf_runtime::{CellRecord, Journal};
///
/// let journal = Journal {
///     cells: vec![CellRecord {
///         tool: "pFuzzer".to_string(),
///         subject: "csv".to_string(),
///         seed: 1,
///         execs: 500,
///         config_hash: 0xabcd,
///         decision_count: 2,
///         decision_digest: pdf_runtime::digest_bytes(&[7, 9]),
///         decisions: vec![7, 9],
///         outcome_digest: 0x1234,
///     }],
/// };
/// let text = journal.encode();
/// assert!(text.starts_with("pdf-journal v1"));
/// assert_eq!(Journal::decode(&text).unwrap(), journal);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Journal {
    /// The recorded cells, in matrix order.
    pub cells: Vec<CellRecord>,
}

const HEADER: &str = "pdf-journal v1";

impl Journal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, cell: CellRecord) {
        self.cells.push(cell);
    }

    /// Number of recorded cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Renders the journal in the `pdf-journal v1` text format.
    ///
    /// # Panics
    ///
    /// Panics if a tool or subject name contains whitespace — such
    /// names cannot round-trip through the line format, and no
    /// registered tool or subject uses them.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        record::write(&mut out, HEADER).end();
        for c in &self.cells {
            let mut line = record::write(&mut out, "cell")
                .raw("tool", &c.tool)
                .raw("subject", &c.subject)
                .dec("seed", c.seed)
                .dec("execs", c.execs)
                .hex("cfg", c.config_hash)
                .dec("decn", c.decision_count)
                .hex("decd", c.decision_digest)
                .hex("out", c.outcome_digest);
            if !c.decisions.is_empty() {
                line = line.bytes("dec", &c.decisions);
            }
            line.end();
        }
        out
    }

    /// Parses a journal previously produced by [`encode`](Self::encode).
    /// Blank lines and `#` comment lines are ignored.
    pub fn decode(text: &str) -> Result<Journal, RecordError> {
        let (header, records) = Records::open(text, HEADER)?;
        header.keys(&[])?;
        let mut journal = Journal::new();
        for rec in records {
            let rec = rec?;
            if rec.tag() != "cell" {
                return Err(rec.unknown_tag());
            }
            rec.keys(&[
                "tool", "subject", "seed", "execs", "cfg", "decn", "decd", "out", "dec",
            ])?;
            journal.push(CellRecord {
                tool: rec.raw("tool")?.to_string(),
                subject: rec.raw("subject")?.to_string(),
                seed: rec.dec("seed")?,
                execs: rec.dec("execs")?,
                config_hash: rec.hex("cfg")?,
                decision_count: rec.dec("decn")?,
                decision_digest: rec.hex("decd")?,
                decisions: match rec.opt("dec") {
                    Some(v) => rec.bytes_of("dec", v)?,
                    None => Vec::new(),
                },
                outcome_digest: rec.hex("out")?,
            });
        }
        Ok(journal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cell() -> CellRecord {
        CellRecord {
            tool: "pFuzzer".to_string(),
            subject: "cjson".to_string(),
            seed: 7,
            execs: 30_000,
            config_hash: 0xdead_beef,
            decision_count: 3,
            decision_digest: digest_bytes(&[1, 2, 3]),
            decisions: vec![1, 2, 3],
            outcome_digest: 0x0123_4567_89ab_cdef,
        }
    }

    #[test]
    fn digest_is_deterministic_and_framed() {
        let mut a = Digest::new();
        a.write_bytes(b"ab");
        a.write_bytes(b"c");
        let mut b = Digest::new();
        b.write_bytes(b"a");
        b.write_bytes(b"bc");
        assert_ne!(a.finish(), b.finish(), "length framing must separate");
        assert_eq!(digest_bytes(b"xyz"), digest_bytes(b"xyz"));
        assert_ne!(digest_bytes(b"xyz"), digest_bytes(b"xyw"));
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut j = Journal::new();
        j.push(sample_cell());
        let mut second = sample_cell();
        second.tool = "AFL".to_string();
        second.decisions = Vec::new();
        second.decision_count = 123_456;
        j.push(second);
        let text = j.encode();
        let back = Journal::decode(&text).expect("decodes");
        assert_eq!(j, back);
    }

    #[test]
    fn empty_journal_round_trips() {
        let j = Journal::new();
        assert!(j.is_empty());
        assert_eq!(Journal::decode(&j.encode()).unwrap(), j);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(Journal::decode(""), Err(RecordError::Header(_))));
        assert!(matches!(
            Journal::decode("nonsense"),
            Err(RecordError::Header(_))
        ));
        assert!(matches!(
            Journal::decode(&format!("{HEADER} x=1")),
            Err(RecordError::Header(_))
        ));
        let text = format!("{HEADER}\nnot a cell line");
        assert!(matches!(
            Journal::decode(&text),
            Err(RecordError::Parse { line: 2, .. })
        ));
        let text = format!("{HEADER}\ncell tool=x subject=y seed=abc");
        assert!(matches!(
            Journal::decode(&text),
            Err(RecordError::Parse { .. })
        ));
        let text = format!("{HEADER}\ncell tool=x subject=y");
        assert!(matches!(
            Journal::decode(&text),
            Err(RecordError::Parse { .. })
        ));
        let mut dup = Journal::new();
        dup.push(sample_cell());
        let text = dup.encode().replace("seed=7", "seed=7 seed=8");
        assert!(matches!(
            Journal::decode(&text),
            Err(RecordError::Parse { .. })
        ));
    }

    #[test]
    fn decode_skips_comments_and_blanks() {
        let mut j = Journal::new();
        j.push(sample_cell());
        let mut text = j.encode();
        text.push_str("\n# trailing comment\n\n");
        assert_eq!(Journal::decode(&text).unwrap(), j);
    }
}
