//! The mined token dictionary and its `pdf-dict v1` text codec.
//!
//! A [`Dictionary`] is an ordered, duplicate-free list of byte-string
//! tokens, produced by [`TokenMiner::mine`](crate::TokenMiner::mine)
//! and consumed by the driver's whole-token substitution
//! (`DriverConfig::dictionary` in pdf-core) and by AFL's dictionary
//! mutation stages (`AflConfig::dictionary` in pdf-afl). Order is part
//! of the contract: both consumers iterate tokens in stored order, so a
//! dictionary round-tripped through its text encoding drives campaigns
//! byte-identically.

use std::path::Path;

use pdf_runtime::record::{self, Records};
use pdf_runtime::{Digest, RecordError};

/// An ordered, duplicate-free list of mined tokens.
///
/// # Example
///
/// ```
/// use pdf_tokens::Dictionary;
///
/// let dict = Dictionary::from_tokens(vec![b"while".to_vec(), b"if".to_vec()]);
/// assert_eq!(dict.len(), 2);
/// let text = dict.encode();
/// let back = Dictionary::decode(&text).unwrap();
/// assert_eq!(back, dict);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dictionary {
    tokens: Vec<Vec<u8>>,
}

const HEADER: &str = "pdf-dict v1";

impl Dictionary {
    /// Builds a dictionary from `tokens`, dropping empty tokens and
    /// duplicates while preserving first-occurrence order.
    pub fn from_tokens(tokens: Vec<Vec<u8>>) -> Self {
        let mut out: Vec<Vec<u8>> = Vec::with_capacity(tokens.len());
        for t in tokens {
            if !t.is_empty() && !out.contains(&t) {
                out.push(t);
            }
        }
        Dictionary { tokens: out }
    }

    /// The tokens, in stored order.
    pub fn tokens(&self) -> &[Vec<u8>] {
        &self.tokens
    }

    /// Consumes the dictionary into its token list (the shape
    /// `DriverConfig::dictionary` and `AflConfig::dictionary` take).
    pub fn into_tokens(self) -> Vec<Vec<u8>> {
        self.tokens
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the dictionary holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Whether the dictionary contains exactly this token.
    pub fn contains(&self, token: &[u8]) -> bool {
        self.tokens.iter().any(|t| t == token)
    }

    /// Tokens at least `min_len` bytes long, in stored order.
    pub fn tokens_of_min_len(&self, min_len: usize) -> Vec<&[u8]> {
        self.tokens
            .iter()
            .filter(|t| t.len() >= min_len)
            .map(Vec::as_slice)
            .collect()
    }

    /// FNV-1a digest over the token list (order-sensitive, so two
    /// dictionaries that drive campaigns identically digest equally).
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_str("pdf-dict-v1");
        d.write_u64(self.tokens.len() as u64);
        for t in &self.tokens {
            d.write_bytes(t);
        }
        d.finish()
    }

    /// Encodes the dictionary as `pdf-dict v1` text: a header carrying
    /// the token count and digest, then one `tok hex=<bytes>` record
    /// per token in stored order. Tokens are hex-encoded so arbitrary
    /// bytes (newlines, non-UTF-8) survive the line-oriented format.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        record::write(&mut out, HEADER)
            .dec("tokens", self.tokens.len() as u64)
            .hex("digest", self.digest())
            .end();
        for t in &self.tokens {
            record::write(&mut out, "tok").bytes("hex", t).end();
        }
        out
    }

    /// Decodes `pdf-dict v1` text. `decode(encode(d)) == d` for every
    /// dictionary; the header's count and digest are required and
    /// verified, so a torn or hand-edited file is rejected instead of
    /// silently driving a different campaign.
    pub fn decode(text: &str) -> Result<Self, RecordError> {
        let (header, records) = Records::open(text, HEADER)?;
        header.keys(&["tokens", "digest"])?;
        let want_tokens = header.dec("tokens")?;
        let want_digest = header.hex("digest")?;
        let mut tokens = Vec::new();
        for rec in records {
            let rec = rec?;
            if rec.tag() != "tok" {
                return Err(rec.unknown_tag());
            }
            rec.keys(&["hex"])?;
            let bytes = rec.bytes("hex")?;
            if bytes.is_empty() {
                return Err(rec.error(Some("hex"), "empty token"));
            }
            tokens.push(bytes);
        }
        let dict = Dictionary { tokens };
        if want_tokens != dict.tokens.len() as u64 {
            return Err(RecordError::Integrity(format!(
                "header claims {want_tokens} tokens, file holds {}",
                dict.tokens.len()
            )));
        }
        if dict.tokens.len() != Dictionary::from_tokens(dict.tokens.clone()).tokens.len() {
            return Err(RecordError::Integrity("duplicate token".to_string()));
        }
        if want_digest != dict.digest() {
            return Err(RecordError::Integrity(format!(
                "header digest {want_digest:016x} does not match content digest {:016x}",
                dict.digest()
            )));
        }
        Ok(dict)
    }

    /// Writes [`encode`](Self::encode) to a file.
    ///
    /// # Errors
    ///
    /// [`RecordError::Io`] on the underlying write error.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), RecordError> {
        std::fs::write(path, self.encode()).map_err(|e| RecordError::Io(e.to_string()))
    }

    /// Reads and [`decode`](Self::decode)s a file.
    ///
    /// # Errors
    ///
    /// [`RecordError::Io`] when the file cannot be read, plus every decode
    /// error.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, RecordError> {
        let text = std::fs::read_to_string(path).map_err(|e| RecordError::Io(e.to_string()))?;
        Self::decode(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_tokens_dedups_preserving_order() {
        let dict = Dictionary::from_tokens(vec![
            b"while".to_vec(),
            b"if".to_vec(),
            b"while".to_vec(),
            Vec::new(),
            b"do".to_vec(),
        ]);
        assert_eq!(
            dict.tokens(),
            &[b"while".to_vec(), b"if".to_vec(), b"do".to_vec()]
        );
    }

    #[test]
    fn encode_decode_round_trips() {
        let dict = Dictionary::from_tokens(vec![
            b"while".to_vec(),
            b"\n\"\x00\xff".to_vec(),
            b"=".to_vec(),
        ]);
        let back = Dictionary::decode(&dict.encode()).unwrap();
        assert_eq!(back, dict);
        assert_eq!(back.digest(), dict.digest());
    }

    #[test]
    fn empty_dictionary_round_trips() {
        let dict = Dictionary::default();
        assert!(dict.is_empty());
        assert_eq!(Dictionary::decode(&dict.encode()).unwrap(), dict);
    }

    #[test]
    fn decode_rejects_bad_header() {
        for bad in [
            "",
            "pdf-journal v1\n",
            // torn or partial headers: count and digest are required
            "pdf-dict v1\n",
            "pdf-dict v1 t\n",
            "pdf-dict v1 tokens=0\n",
            "pdf-dict v1 digest=e1363d95e3de7e27\n",
            // unknown and duplicate header fields
            "pdf-dict v1 tokens=0 digest=e1363d95e3de7e27 extra=1\n",
            "pdf-dict v1 tokens=0 tokens=0 digest=e1363d95e3de7e27\n",
        ] {
            assert!(
                matches!(Dictionary::decode(bad), Err(RecordError::Header(_))),
                "accepted {bad:?}"
            );
        }
        let empty = Dictionary::default().encode();
        assert_eq!(empty, "pdf-dict v1 tokens=0 digest=e1363d95e3de7e27\n");
    }

    #[test]
    fn decode_rejects_bad_records() {
        let head = "pdf-dict v1 tokens=1 digest=0000000000000000\n";
        for bad in [
            "nope\n",
            "tok hex=zz\n",
            "tok hex=abc\n",
            "tok hex=\n",
            "tok\n",
            "tok hex=61 hex=61\n",
            "tok hex=61 n=1\n",
        ] {
            let text = format!("{head}{bad}");
            assert!(
                matches!(Dictionary::decode(&text), Err(RecordError::Parse { .. })),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn decode_rejects_count_and_digest_drift() {
        let dict = Dictionary::from_tokens(vec![b"true".to_vec()]);
        let torn = dict.encode().lines().next().unwrap().to_string() + "\n";
        assert!(matches!(
            Dictionary::decode(&torn),
            Err(RecordError::Integrity(_))
        ));
        let edited = dict.encode().replace("hex=74727565", "hex=66616c7365");
        assert!(matches!(
            Dictionary::decode(&edited),
            Err(RecordError::Integrity(_))
        ));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = Dictionary::from_tokens(vec![b"a".to_vec(), b"b".to_vec()]);
        let b = Dictionary::from_tokens(vec![b"b".to_vec(), b"a".to_vec()]);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn min_len_filter() {
        let dict = Dictionary::from_tokens(vec![b"{".to_vec(), b"null".to_vec()]);
        assert_eq!(dict.tokens_of_min_len(2), vec![&b"null"[..]]);
        assert!(dict.contains(b"{"));
        assert!(!dict.contains(b"}"));
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join("pdf-dict-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.dict");
        let dict = Dictionary::from_tokens(vec![b"return".to_vec()]);
        dict.save(&path).unwrap();
        assert_eq!(Dictionary::load(&path).unwrap(), dict);
        std::fs::remove_file(&path).ok();
    }
}
