//! One codec kernel under the six at-rest line formats (`pdf-journal`,
//! `pdf-checkpoint`, `pdf-fleet`, `pdf-serve`, `pdf-dict`,
//! `pdf-grammar`). A file is a `name vN` header line with optional
//! `key=value` fields, then one `tag key=value ...` record per line;
//! blank and `#` lines are skipped. Values hold no whitespace. Field
//! kinds: decimal `u64`, 16-digit hex `u64`, hex bytes and raw tokens.
//! One key policy ([`Record::keys`]): any order, unknown and duplicate
//! keys rejected. Every failure is one [`RecordError`]. DESIGN.md §8
//! has the grammar and the reasons three other formats stay out.
//!
//! ```
//! use pdf_runtime::record::{write, Records};
//!
//! let mut text = String::new();
//! write(&mut text, "pdf-demo v1").dec("items", 1).end();
//! write(&mut text, "item").hex("id", 0xab).bytes("hex", b"\n\xff").end();
//! assert_eq!(text, "pdf-demo v1 items=1\nitem id=00000000000000ab hex=0aff\n");
//!
//! let (header, mut records) = Records::open(&text, "pdf-demo v1").unwrap();
//! assert_eq!(header.dec("items").unwrap(), 1);
//! let item = records.next().unwrap().unwrap();
//! item.keys(&["id", "hex"]).unwrap();
//! assert_eq!(item.bytes("hex").unwrap(), b"\n\xff");
//! ```

use std::fmt::{self, Write as _};

/// Why a record file could not be decoded, read or written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// Empty file, another format or version, or a bad, unknown,
    /// duplicate or missing header field.
    Header(String),
    /// A record line that does not parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The field at fault, when one is.
        key: Option<String>,
        /// What was wrong.
        message: String,
    },
    /// Records that parse but disagree with the header's counts or
    /// digest, or with each other.
    Integrity(String),
    /// The file could not be read or written.
    Io(String),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Header(m) => write!(f, "bad header: {m}"),
            RecordError::Parse { line, key, message } => match key {
                Some(key) => write!(f, "line {line}, key `{key}`: {message}"),
                None => write!(f, "line {line}: {message}"),
            },
            RecordError::Integrity(m) => write!(f, "integrity check failed: {m}"),
            RecordError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for RecordError {}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Appends `v` in decimal.
pub fn push_dec(out: &mut String, v: u64) {
    let _ = write!(out, "{v}");
}

/// Appends `v` as exactly 16 lowercase hex digits.
pub fn push_hex64(out: &mut String, v: u64) {
    out.extend(
        (0..16)
            .rev()
            .map(|i| char::from(HEX_DIGITS[(v >> (i * 4)) as usize & 15])),
    );
}

fn push_hex_bytes(out: &mut String, bytes: &[u8]) {
    out.reserve(bytes.len() * 2);
    for &b in bytes {
        out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
        out.push(char::from(HEX_DIGITS[usize::from(b & 15)]));
    }
}

fn nibble(b: u8) -> Option<u8> {
    char::from(b).to_digit(16).map(|d| d as u8)
}

fn parse_dec(s: &str) -> Option<u64> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

/// Parses exactly 16 hex digits, as [`push_hex64`] writes them.
pub fn parse_hex64(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    s.bytes()
        .try_fold(0, |acc, b| Some(acc << 4 | u64::from(nibble(b)?)))
}

fn parse_hex_bytes(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in s.as_bytes().chunks_exact(2) {
        out.push(nibble(pair[0])? << 4 | nibble(pair[1])?);
    }
    Some(out)
}

/// Starts a record line (or a whole `name vN` header) in `out`; add
/// fields, then [`RecordWriter::end`] it.
pub fn write<'a>(out: &'a mut String, tag: &str) -> RecordWriter<'a> {
    out.push_str(tag);
    RecordWriter { out }
}

/// Appends ` key=value` fields straight into the caller's buffer.
#[must_use = "call `end` to terminate the record line"]
pub struct RecordWriter<'a> {
    out: &'a mut String,
}

impl RecordWriter<'_> {
    /// A field whose value `f` appends (a format's own list encoding,
    /// which must not contain whitespace).
    pub fn with(self, key: &str, f: impl FnOnce(&mut String)) -> Self {
        self.out.push(' ');
        self.out.push_str(key);
        self.out.push('=');
        f(self.out);
        self
    }

    /// A decimal `u64` field.
    pub fn dec(self, key: &str, v: u64) -> Self {
        self.with(key, |o| push_dec(o, v))
    }

    /// A 16-digit hex `u64` field.
    pub fn hex(self, key: &str, v: u64) -> Self {
        self.with(key, |o| push_hex64(o, v))
    }

    /// A hex bytes field: arbitrary bytes survive the line format.
    pub fn bytes(self, key: &str, v: &[u8]) -> Self {
        self.with(key, |o| push_hex_bytes(o, v))
    }

    /// A raw token field; panics if `v` holds whitespace, which would
    /// break the framing.
    pub fn raw(self, key: &str, v: &str) -> Self {
        assert!(
            !v.bytes().any(|b| b.is_ascii_whitespace()),
            "unencodable {key} value {v:?}"
        );
        self.with(key, |o| o.push_str(v))
    }

    /// Terminates the line.
    pub fn end(self) {
        self.out.push('\n');
    }
}

/// One parsed line: the tag plus its `key=value` pairs, in order.
#[derive(Debug, Clone)]
pub struct Record<'a> {
    /// 1-based line number; 0 for a header, whose errors are
    /// [`RecordError::Header`].
    line: usize,
    tag: &'a str,
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Record<'a> {
    fn new(line: usize, tag: &'a str, fields: &'a str) -> Result<Record<'a>, RecordError> {
        let mut rec = Record {
            line,
            tag,
            pairs: Vec::new(),
        };
        for tok in fields.split_ascii_whitespace() {
            let pair = tok.split_once('=');
            rec.pairs.push(
                pair.ok_or_else(|| rec.error(None, format!("expected key=value, got {tok:?}")))?,
            );
        }
        Ok(rec)
    }

    /// Parses 1-based line `line` of a file; `Ok(None)` for a blank or
    /// `#` line, [`RecordError::Parse`] for a field that is not
    /// `key=value`.
    pub fn parse(text: &'a str, line: usize) -> Result<Option<Record<'a>>, RecordError> {
        let text = text.trim_ascii_start();
        let (tag, fields) = text
            .split_once(|c: char| c.is_ascii_whitespace())
            .unwrap_or((text, ""));
        if tag.is_empty() || tag.starts_with('#') {
            return Ok(None);
        }
        Record::new(line, tag, fields).map(Some)
    }

    /// Parses a header line: `header` (`name vN`) plus optional fields;
    /// [`RecordError::Header`] if it is another header.
    pub fn parse_header(text: &'a str, header: &'a str) -> Result<Record<'a>, RecordError> {
        let fields = text
            .trim_ascii()
            .strip_prefix(header)
            .filter(|rest| rest.is_empty() || rest.starts_with(|c: char| c.is_ascii_whitespace()))
            .ok_or_else(|| RecordError::Header(format!("expected `{header}`, got {text:?}")))?;
        Record::new(0, header, fields)
    }

    /// The leading tag (for a header, its `name vN`).
    pub fn tag(&self) -> &'a str {
        self.tag
    }

    /// The `key=value` pairs, in line order (for sequence records).
    pub fn pairs(&self) -> &[(&'a str, &'a str)] {
        &self.pairs
    }

    /// The key policy: every key is one of `known` and none appears
    /// twice. The getters decide which keys are required.
    pub fn keys(&self, known: &[&str]) -> Result<(), RecordError> {
        for (i, &(key, _)) in self.pairs.iter().enumerate() {
            if !known.contains(&key) {
                return Err(self.error(Some(key), format!("unknown key in `{}`", self.tag)));
            }
            if self.pairs[..i].iter().any(|&(k, _)| k == key) {
                return Err(self.error(Some(key), "duplicate key"));
            }
        }
        Ok(())
    }

    /// The value of `key`, if present.
    pub fn opt(&self, key: &str) -> Option<&'a str> {
        self.pairs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// The value of a required field.
    pub fn raw(&self, key: &str) -> Result<&'a str, RecordError> {
        self.opt(key)
            .ok_or_else(|| self.error(Some(key), format!("missing in `{}`", self.tag)))
    }

    /// A required decimal field.
    pub fn dec(&self, key: &str) -> Result<u64, RecordError> {
        self.dec_of(key, self.raw(key)?)
    }

    /// A required 16-digit hex field.
    pub fn hex(&self, key: &str) -> Result<u64, RecordError> {
        self.hex_of(key, self.raw(key)?)
    }

    /// A required hex bytes field.
    pub fn bytes(&self, key: &str) -> Result<Vec<u8>, RecordError> {
        self.bytes_of(key, self.raw(key)?)
    }

    /// Parses `v`, a value of `key`, as decimal.
    pub fn dec_of(&self, key: &str, v: &str) -> Result<u64, RecordError> {
        parse_dec(v).ok_or_else(|| self.error(Some(key), format!("expected decimal, got {v:?}")))
    }

    /// Parses `v`, a value of `key`, as 16 hex digits.
    pub fn hex_of(&self, key: &str, v: &str) -> Result<u64, RecordError> {
        parse_hex64(v)
            .ok_or_else(|| self.error(Some(key), format!("expected 16 hex digits, got {v:?}")))
    }

    /// Parses `v`, a value of `key`, as hex bytes.
    pub fn bytes_of(&self, key: &str, v: &str) -> Result<Vec<u8>, RecordError> {
        parse_hex_bytes(v)
            .ok_or_else(|| self.error(Some(key), format!("expected hex bytes, got {v:?}")))
    }

    /// The error for a tag the format does not know.
    pub fn unknown_tag(&self) -> RecordError {
        self.error(None, format!("unknown record tag {:?}", self.tag))
    }

    /// An error at this record and, when given, `key`.
    pub fn error(&self, key: Option<&str>, message: impl Into<String>) -> RecordError {
        let message = message.into();
        match (self.line, key) {
            (0, Some(key)) => RecordError::Header(format!("key `{key}`: {message}")),
            (0, None) => RecordError::Header(message),
            (line, key) => RecordError::Parse {
                line,
                key: key.map(str::to_string),
                message,
            },
        }
    }
}

/// The records after a file's header, blank and `#` lines skipped.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> Records<'a> {
    /// Checks that `text` starts with the `header` line and returns the
    /// parsed header plus the records after it.
    pub fn open(text: &'a str, header: &'a str) -> Result<(Record<'a>, Records<'a>), RecordError> {
        let mut lines = text.lines().enumerate();
        let first = lines.next().map_or("", |(_, l)| l);
        Ok((Record::parse_header(first, header)?, Records { lines }))
    }
}

impl<'a> Iterator for Records<'a> {
    type Item = Result<Record<'a>, RecordError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.lines
            .find_map(|(i, line)| Record::parse(line, i + 1).transpose())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_kinds_round_trip() {
        let mut text = String::new();
        write(&mut text, "rec")
            .dec("d", u64::MAX)
            .dec("z", 0)
            .hex("h", 0x0123_4567_89ab_cdef)
            .bytes("b", &(0..=255).collect::<Vec<u8>>())
            .bytes("e", b"")
            .raw("r", "mjs")
            .end();
        let rec = Record::parse(&text, 3).unwrap().unwrap();
        rec.keys(&["d", "z", "h", "b", "e", "r"]).unwrap();
        assert_eq!(rec.tag(), "rec");
        assert_eq!(rec.dec("d").unwrap(), u64::MAX);
        assert_eq!(rec.dec("z").unwrap(), 0);
        assert_eq!(rec.hex("h").unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(rec.bytes("b").unwrap(), (0..=255).collect::<Vec<u8>>());
        assert_eq!(rec.bytes("e").unwrap(), Vec::<u8>::new());
        assert_eq!(rec.raw("r").unwrap(), "mjs");
    }

    #[test]
    fn value_parsers_are_strict() {
        for bad in ["", "+1", "-1", "1 ", "0x1", "18446744073709551616"] {
            assert_eq!(parse_dec(bad), None, "{bad:?}");
        }
        for bad in ["", "00", "000000000000000g", "00000000000000001"] {
            assert_eq!(parse_hex64(bad), None, "{bad:?}");
        }
        assert_eq!(parse_hex64("FFFFFFFFFFFFFFFF"), Some(u64::MAX));
        assert_eq!(parse_hex_bytes("0"), None);
        assert_eq!(parse_hex_bytes("zz"), None);
        // non-ASCII input is an error, never a char-boundary panic
        assert_eq!(parse_hex_bytes("0é0"), None);
        assert_eq!(parse_hex_bytes("0aFf"), Some(vec![0x0a, 0xff]));
    }

    #[test]
    fn key_policy_rejects_unknown_and_duplicate_keys() {
        let rec = Record::parse("t b=1 a=2", 4).unwrap().unwrap();
        assert!(rec.keys(&["a", "b"]).is_ok(), "any order");
        let err = rec.keys(&["a"]).unwrap_err();
        assert!(matches!(
            err,
            RecordError::Parse { line: 4, key: Some(ref k), .. } if k == "b"
        ));
        let rec = Record::parse("t a=1 a=1", 2).unwrap().unwrap();
        assert!(rec.keys(&["a"]).is_err());
        assert!(matches!(
            rec.dec("b"),
            Err(RecordError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn blank_comment_and_malformed_lines() {
        assert!(Record::parse("", 1).unwrap().is_none());
        assert!(Record::parse("  \t", 1).unwrap().is_none());
        assert!(Record::parse("# note", 1).unwrap().is_none());
        assert!(matches!(
            Record::parse("t novalue", 7),
            Err(RecordError::Parse { line: 7, .. })
        ));
    }

    #[test]
    fn header_check() {
        let (h, mut rest) = Records::open("pdf-x v1 n=2\n\nr a=1\n", "pdf-x v1").unwrap();
        assert_eq!(h.dec("n").unwrap(), 2);
        let r = rest.next().unwrap().unwrap();
        assert_eq!(r.tag(), "r");
        assert!(matches!(
            r.dec("b"),
            Err(RecordError::Parse { line: 3, .. })
        ));
        assert!(rest.next().is_none());
        for bad in ["", "pdf-x", "pdf-x v2\n", "pdf-xy v1\n", "pdf-x v1 n\n"] {
            assert!(
                matches!(Records::open(bad, "pdf-x v1"), Err(RecordError::Header(_))),
                "{bad:?}"
            );
        }
        let (h, _) = Records::open("pdf-x v1 n=zz\n", "pdf-x v1").unwrap();
        assert!(matches!(h.dec("n"), Err(RecordError::Header(_))));
        assert!(matches!(h.keys(&[]), Err(RecordError::Header(_))));
    }

    #[test]
    fn errors_display_line_and_key() {
        let rec = Record::parse("t a=1", 9).unwrap().unwrap();
        let shown = rec.hex("a").unwrap_err().to_string();
        assert!(shown.contains("line 9") && shown.contains("`a`"), "{shown}");
        assert!(!RecordError::Integrity("x".into()).to_string().is_empty());
    }

    #[test]
    #[should_panic(expected = "unencodable")]
    fn raw_rejects_whitespace() {
        write(&mut String::new(), "t").raw("k", "a b").end();
    }
}
