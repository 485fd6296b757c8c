//! The `pdf-grammar v1` text codec: a mined [`Grammar`] plus its
//! learned per-alternative weights, persisted with the same count +
//! digest integrity conventions as `pdf-dict v1` (pdf-tokens).
//!
//! A [`GrammarFile`] couples a grammar with one `u32` weight per
//! alternative — the state the evolutionary weighting layer in
//! `pdf-gen` learns and the compiled generator samples from. Weights
//! are stored parallel to the grammar's canonical rule order
//! ([`Grammar::labels`], sorted) so a file round-tripped through its
//! text encoding drives generation byte-identically.
//!
//! Format, line-oriented:
//!
//! ```text
//! pdf-grammar v1 rules=2 alts=3 digest=8f3a... (16 hex)
//! rule label=0000000000000000 alts=2
//! alt w=3 lit=28 ref=00000000000000aa lit=29
//! alt w=1
//! rule label=00000000000000aa alts=1
//! alt w=2 lit=31
//! ```
//!
//! Rules appear in strictly increasing label order (the canonical
//! order); literal bytes are hex-encoded so arbitrary bytes survive the
//! line-oriented format; the header's rule count, alternative count and
//! digest are all verified on decode, so a torn or hand-edited file is
//! rejected instead of silently generating a different distribution.

use std::path::Path;

use pdf_runtime::record::{self, Records};
use pdf_runtime::{Digest, RecordError};

use crate::mine::{Grammar, Label, Sym};

/// A grammar plus per-alternative weights — the unit `evalrunner
/// --grammar-out` writes and `--grammar-in` reads.
///
/// # Example
///
/// ```
/// use pdf_grammar::{Grammar, GrammarFile, Label, Sym, START};
///
/// let mut g = Grammar::default();
/// g.add_alternative(START, vec![Sym::Lit(b"1".to_vec())]);
/// let file = GrammarFile::uniform(g);
/// let back = GrammarFile::decode(&file.encode()).unwrap();
/// assert_eq!(back, file);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GrammarFile {
    grammar: Grammar,
    /// One weight vector per rule, parallel to [`Grammar::labels`]
    /// order; `weights[r][a]` weights alternative `a` of rule `r`.
    weights: Vec<Vec<u32>>,
}

const HEADER: &str = "pdf-grammar v1";

impl GrammarFile {
    /// Wraps a grammar with uniform weights (`1` per alternative) — the
    /// state before any evolutionary epoch has run. Uniform weights
    /// sample exactly like the recursive [`Generator`](crate::Generator).
    pub fn uniform(grammar: Grammar) -> Self {
        let weights = grammar
            .labels()
            .map(|l| vec![1u32; grammar.alts(l).len()])
            .collect();
        GrammarFile { grammar, weights }
    }

    /// Wraps a grammar with explicit weights.
    ///
    /// # Errors
    ///
    /// [`RecordError::Integrity`] when the weight table's shape does
    /// not match the grammar (one `u32` per alternative, in
    /// [`Grammar::labels`] order) or any weight is zero — a zero weight
    /// would zero a rule's total and break the sampling contract.
    pub fn with_weights(grammar: Grammar, weights: Vec<Vec<u32>>) -> Result<Self, RecordError> {
        Self::check_shape(&grammar, &weights)?;
        Ok(GrammarFile { grammar, weights })
    }

    fn check_shape(grammar: &Grammar, weights: &[Vec<u32>]) -> Result<(), RecordError> {
        if weights.len() != grammar.len() {
            return Err(RecordError::Integrity(format!(
                "{} weight rows for {} rules",
                weights.len(),
                grammar.len()
            )));
        }
        for (label, row) in grammar.labels().zip(weights) {
            if row.len() != grammar.alts(label).len() {
                return Err(RecordError::Integrity(format!(
                    "rule {:016x} has {} alternatives but {} weights",
                    label.0,
                    grammar.alts(label).len(),
                    row.len()
                )));
            }
            if row.contains(&0) {
                return Err(RecordError::Integrity(format!(
                    "rule {:016x} has a zero weight",
                    label.0
                )));
            }
        }
        Ok(())
    }

    /// The wrapped grammar.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// Consumes the file into its grammar, dropping the weights.
    pub fn into_grammar(self) -> Grammar {
        self.grammar
    }

    /// The weight rows, parallel to [`Grammar::labels`] order.
    pub fn weights(&self) -> &[Vec<u32>] {
        &self.weights
    }

    /// The weight row of one rule, when it exists.
    pub fn weights_for(&self, label: Label) -> Option<&[u32]> {
        self.grammar
            .labels()
            .position(|l| l == label)
            .map(|i| self.weights[i].as_slice())
    }

    /// Replaces the weights (the write-back path of an evolutionary
    /// epoch).
    ///
    /// # Errors
    ///
    /// Shape errors, as in [`with_weights`](Self::with_weights).
    pub fn set_weights(&mut self, weights: Vec<Vec<u32>>) -> Result<(), RecordError> {
        Self::check_shape(&self.grammar, &weights)?;
        self.weights = weights;
        Ok(())
    }

    /// Total number of alternatives (= total number of weights).
    pub fn alt_count(&self) -> usize {
        self.weights.iter().map(Vec::len).sum()
    }

    /// FNV-1a digest over the grammar structure *and* the weights, so
    /// two files that drive generation identically digest equally and a
    /// re-weighting epoch changes the digest.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_str("pdf-grammar-v1");
        d.write_u64(self.grammar.digest());
        d.write_u64(self.weights.len() as u64);
        for row in &self.weights {
            d.write_u64(row.len() as u64);
            for &w in row {
                d.write_u64(u64::from(w));
            }
        }
        d.finish()
    }

    /// Encodes the file as `pdf-grammar v1` text (see the module docs
    /// for the format).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        record::write(&mut out, HEADER)
            .dec("rules", self.grammar.len() as u64)
            .dec("alts", self.alt_count() as u64)
            .hex("digest", self.digest())
            .end();
        for (label, row) in self.grammar.labels().zip(&self.weights) {
            let alts = self.grammar.alts(label);
            record::write(&mut out, "rule")
                .hex("label", label.0)
                .dec("alts", alts.len() as u64)
                .end();
            for (alt, &w) in alts.iter().zip(row) {
                let mut line = record::write(&mut out, "alt").dec("w", u64::from(w));
                for sym in alt {
                    line = match sym {
                        Sym::Lit(bytes) => line.bytes("lit", bytes),
                        Sym::Ref(r) => line.hex("ref", r.0),
                    };
                }
                line.end();
            }
        }
        out
    }

    /// Decodes `pdf-grammar v1` text. `decode(encode(f)) == f` for
    /// every file; rule order, per-rule alternative counts, the header
    /// counts and the digest are all required and verified.
    pub fn decode(text: &str) -> Result<Self, RecordError> {
        let (header, records) = Records::open(text, HEADER)?;
        header.keys(&["rules", "alts", "digest"])?;
        let want_rules = header.dec("rules")?;
        let want_alts = header.dec("alts")?;
        let want_digest = header.hex("digest")?;
        // (label, expected alt count, alternatives with weights)
        type RawRule = (Label, u64, Vec<(Vec<Sym>, u32)>);
        let mut rules: Vec<RawRule> = Vec::new();
        for rec in records {
            let rec = rec?;
            match rec.tag() {
                "rule" => {
                    rec.keys(&["label", "alts"])?;
                    let label = Label(rec.hex("label")?);
                    let count = rec.dec("alts")?;
                    if let Some((last, _, _)) = rules.last() {
                        if *last >= label {
                            return Err(rec.error(
                                Some("label"),
                                format!(
                                    "rule {:016x} out of order after {:016x} (canonical order \
                                     is strictly increasing)",
                                    label.0, last.0
                                ),
                            ));
                        }
                    }
                    rules.push((label, count, Vec::new()));
                }
                "alt" => {
                    let (_, _, alts) = rules
                        .last_mut()
                        .ok_or_else(|| rec.error(None, "alt record before any rule"))?;
                    // `w` first, then the body symbols in order
                    let (w, body) = match rec.pairs().split_first() {
                        Some((&("w", w), body)) => (w, body),
                        _ => return Err(rec.error(Some("w"), "alt without w= first")),
                    };
                    let w = u32::try_from(rec.dec_of("w", w)?)
                        .ok()
                        .filter(|&w| w > 0)
                        .ok_or_else(|| rec.error(Some("w"), "weight must be in 1..=u32::MAX"))?;
                    let mut syms = Vec::with_capacity(body.len());
                    for &(key, v) in body {
                        syms.push(match key {
                            "lit" => {
                                let bytes = rec.bytes_of(key, v)?;
                                if bytes.is_empty() {
                                    return Err(rec.error(Some(key), "empty literal"));
                                }
                                Sym::Lit(bytes)
                            }
                            "ref" => Sym::Ref(Label(rec.hex_of(key, v)?)),
                            _ => return Err(rec.error(Some(key), "unknown key in `alt`")),
                        });
                    }
                    if alts.iter().any(|(existing, _)| *existing == syms) {
                        return Err(RecordError::Integrity("duplicate alternative".to_string()));
                    }
                    alts.push((syms, w));
                }
                _ => return Err(rec.unknown_tag()),
            }
        }
        let mut grammar = Grammar::default();
        let mut weights = Vec::with_capacity(rules.len());
        for (label, count, alts) in rules {
            if alts.len() as u64 != count {
                return Err(RecordError::Integrity(format!(
                    "rule {:016x} claims {count} alternatives, file holds {}",
                    label.0,
                    alts.len()
                )));
            }
            let mut row = Vec::with_capacity(alts.len());
            for (body, w) in alts {
                grammar.add_alternative(label, body);
                row.push(w);
            }
            weights.push(row);
        }
        let file = GrammarFile { grammar, weights };
        if want_rules != file.grammar.len() as u64 {
            return Err(RecordError::Integrity(format!(
                "header claims {want_rules} rules, file holds {}",
                file.grammar.len()
            )));
        }
        if want_alts != file.alt_count() as u64 {
            return Err(RecordError::Integrity(format!(
                "header claims {want_alts} alternatives, file holds {}",
                file.alt_count()
            )));
        }
        if want_digest != file.digest() {
            return Err(RecordError::Integrity(format!(
                "header digest {want_digest:016x} does not match content digest {:016x}",
                file.digest()
            )));
        }
        Ok(file)
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
    /// [`RecordError::Io`] when the file cannot be read, plus every
    /// decode error.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, RecordError> {
        let text = std::fs::read_to_string(path).map_err(|e| RecordError::Io(e.to_string()))?;
        Self::decode(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mine::START;

    fn sample() -> GrammarFile {
        let mut g = Grammar::default();
        let num = Label(0xaa);
        g.add_alternative(
            START,
            vec![
                Sym::Lit(b"(".to_vec()),
                Sym::Ref(num),
                Sym::Lit(b")".to_vec()),
            ],
        );
        g.add_alternative(START, vec![Sym::Ref(num)]);
        g.add_alternative(START, Vec::new());
        g.add_alternative(num, vec![Sym::Lit(b"1".to_vec())]);
        g.add_alternative(num, vec![Sym::Lit(b"\n\x00\xff".to_vec())]);
        GrammarFile::with_weights(g, vec![vec![3, 1, 1], vec![2, 5]]).unwrap()
    }

    #[test]
    fn encode_decode_round_trips() {
        let file = sample();
        let back = GrammarFile::decode(&file.encode()).unwrap();
        assert_eq!(back, file);
        assert_eq!(back.digest(), file.digest());
    }

    #[test]
    fn empty_file_round_trips() {
        let file = GrammarFile::default();
        assert_eq!(GrammarFile::decode(&file.encode()).unwrap(), file);
    }

    #[test]
    fn uniform_weights_match_shape() {
        let file = GrammarFile::uniform(sample().into_grammar());
        assert_eq!(file.weights().len(), 2);
        assert_eq!(file.weights_for(START), Some(&[1u32, 1, 1][..]));
        assert_eq!(file.weights_for(Label(0xaa)), Some(&[1u32, 1][..]));
        assert_eq!(file.weights_for(Label(0xbb)), None);
    }

    #[test]
    fn with_weights_rejects_bad_shapes() {
        let g = sample().into_grammar();
        assert!(matches!(
            GrammarFile::with_weights(g.clone(), vec![vec![1, 1, 1]]),
            Err(RecordError::Integrity(_))
        ));
        assert!(matches!(
            GrammarFile::with_weights(g.clone(), vec![vec![1, 1], vec![1, 1]]),
            Err(RecordError::Integrity(_))
        ));
        assert!(matches!(
            GrammarFile::with_weights(g, vec![vec![1, 0, 1], vec![1, 1]]),
            Err(RecordError::Integrity(_))
        ));
    }

    #[test]
    fn decode_rejects_bad_header() {
        for bad in [
            "",
            "pdf-dict v1\n",
            "pdf-grammar v1 rules=x\n",
            // torn or partial headers: counts and digest are required
            "pdf-grammar v1\n",
            "pdf-grammar v1 r\n",
            "pdf-grammar v1 rules=0 alts=0\n",
            // unknown and duplicate header fields
            "pdf-grammar v1 rules=0 alts=0 digest=0000000000000000 x=1\n",
            "pdf-grammar v1 rules=0 rules=0 alts=0 digest=0000000000000000\n",
        ] {
            assert!(
                matches!(GrammarFile::decode(bad), Err(RecordError::Header(_))),
                "accepted {bad:?}"
            );
        }
    }

    const HEAD: &str = "pdf-grammar v1 rules=1 alts=1 digest=0000000000000000\n";
    const RULE: &str = "rule label=0000000000000000 alts=1\n";

    #[test]
    fn decode_rejects_bad_records() {
        for bad in [
            "nope\n".to_string(),
            "alt w=1 lit=31\n".to_string(),      // alt before rule
            format!("{RULE}alt lit=31\n"),       // missing weight
            format!("{RULE}alt\n"),              // bare alt
            format!("{RULE}alt w=0 lit=31\n"),   // zero weight
            format!("{RULE}alt w=4294967296\n"), // weight overflow
            format!("{RULE}alt w=1 lit=\n"),     // empty literal
            format!("{RULE}alt w=1 lit=zz\n"),   // bad hex
            format!("{RULE}alt w=1 lit=abc\n"),  // odd hex
            format!("{RULE}alt w=1 wat=1\n"),    // unknown field
            format!("{RULE}alt w=1 ref=aa\n"),   // short ref label
            "rule label=zz alts=1\nalt w=1 lit=31\n".to_string(), // bad label
            "rule alts=1\nalt w=1 lit=31\n".to_string(), // missing label
            "rule label=0000000000000000 alts=1 alts=1\n".to_string(), // duplicate key
        ] {
            let text = format!("{HEAD}{bad}");
            assert!(
                matches!(GrammarFile::decode(&text), Err(RecordError::Parse { .. })),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn decode_rejects_out_of_order_and_duplicate_rules() {
        let text = format!(
            "{HEAD}rule label=00000000000000aa alts=1\nalt w=1 lit=31\n\
             rule label=0000000000000000 alts=1\nalt w=1 lit=32\n"
        );
        assert!(matches!(
            GrammarFile::decode(&text),
            Err(RecordError::Parse { .. })
        ));
        let text = format!(
            "{HEAD}{RULE}alt w=1 lit=31\n\
             {RULE}alt w=1 lit=32\n"
        );
        assert!(matches!(
            GrammarFile::decode(&text),
            Err(RecordError::Parse { .. })
        ));
    }

    #[test]
    fn decode_rejects_duplicate_alternatives() {
        let text = format!(
            "{HEAD}rule label=0000000000000000 alts=2\n\
             alt w=1 lit=31\nalt w=2 lit=31\n"
        );
        assert!(matches!(
            GrammarFile::decode(&text),
            Err(RecordError::Integrity(_))
        ));
    }

    #[test]
    fn decode_rejects_count_and_digest_drift() {
        let file = sample();
        let encoded = file.encode();
        // torn file: header plus first rule only
        let torn: String = encoded.lines().take(2).map(|l| format!("{l}\n")).collect();
        assert!(matches!(
            GrammarFile::decode(&torn),
            Err(RecordError::Integrity(_))
        ));
        // edited literal: digest no longer matches
        let edited = encoded.replace("lit=31", "lit=32");
        assert!(matches!(
            GrammarFile::decode(&edited),
            Err(RecordError::Integrity(_))
        ));
        // edited weight: digest covers weights too
        let edited = encoded.replace("w=5", "w=6");
        assert!(matches!(
            GrammarFile::decode(&edited),
            Err(RecordError::Integrity(_))
        ));
    }

    #[test]
    fn digest_covers_weights() {
        let file = sample();
        let mut other = file.clone();
        other.set_weights(vec![vec![3, 1, 2], vec![2, 5]]).unwrap();
        assert_ne!(file.digest(), other.digest());
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join("pdf-grammar-codec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.grammar");
        let file = sample();
        file.save(&path).unwrap();
        assert_eq!(GrammarFile::load(&path).unwrap(), file);
        std::fs::remove_file(&path).ok();
    }
}
