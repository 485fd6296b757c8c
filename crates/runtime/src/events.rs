//! The execution event log and the queries the fuzzers run over it.

use crate::coverage::{BranchId, BranchSet};
use crate::journal::Digest;
use crate::site::SiteId;

/// What a tainted input byte was compared against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CmpValue {
    /// Comparison against a single byte (e.g. `c == '('`).
    Byte(u8),
    /// Comparison against an inclusive byte range (e.g. `isdigit(c)`).
    Range(u8, u8),
    /// A `strcmp`-style comparison of a tainted string against an expected
    /// string; `matched` bytes agreed before the comparison failed (or the
    /// whole string matched).
    Str {
        /// The full expected string.
        full: Vec<u8>,
        /// How many leading bytes of `full` matched the tainted string.
        matched: usize,
    },
}

impl CmpValue {
    /// The replacement strings that would satisfy this comparison, as used
    /// by pFuzzer's substitution step. Ranges are expanded exhaustively
    /// when small, otherwise sampled at the endpoints and midpoint; string
    /// comparisons yield the unmatched suffix (this is how pFuzzer
    /// synthesizes whole keywords from a single failed `strcmp`).
    ///
    /// Allocating callers only; the hot paths visit the replacements
    /// in place via [`CmpValue::for_each_replacement`].
    pub fn satisfying_replacements(&self) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        self.for_each_replacement(|bytes| out.push(bytes.to_vec()));
        out
    }

    /// A borrowing view of this value (see [`LazyCmpValue`]).
    pub fn as_lazy(&self) -> LazyCmpValue<'_> {
        match self {
            CmpValue::Byte(b) => LazyCmpValue::Byte(*b),
            CmpValue::Range(lo, hi) => LazyCmpValue::Range(*lo, *hi),
            CmpValue::Str { full, matched } => LazyCmpValue::Str {
                full,
                matched: *matched,
            },
        }
    }

    /// Visits each satisfying replacement without allocating: same
    /// values, same order as [`CmpValue::satisfying_replacements`].
    pub fn for_each_replacement(&self, f: impl FnMut(&[u8])) {
        self.as_lazy().for_each_replacement(f);
    }

    /// Length of the replacement this comparison suggests (`len(c)` in the
    /// heuristic of Algorithm 1, line 49).
    pub fn replacement_len(&self) -> usize {
        self.as_lazy().replacement_len()
    }

    /// The inclusive range of bytes that would satisfy this comparison
    /// as the *next* input byte: the byte itself, the full range (even
    /// where replacement expansion compresses wide ranges to probe
    /// bytes), or the first unmatched byte of an expected string.
    /// `None` for a fully-matched string comparison, which constrains
    /// no further byte.
    pub fn accepted_first(&self) -> Option<(u8, u8)> {
        self.as_lazy().accepted_first()
    }
}

/// A borrowing, allocation-free view of what a tainted byte was compared
/// against. This is what streams through
/// [`EventSink::on_cmp`](crate::EventSink::on_cmp): sinks that need to
/// retain the value call
/// [`materialise`](LazyCmpValue::materialise); sinks that only need the
/// satisfying replacements visit them in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LazyCmpValue<'a> {
    /// Comparison against a single byte.
    Byte(u8),
    /// Comparison against an inclusive byte range.
    Range(u8, u8),
    /// A `strcmp`-style comparison; `full` borrows the expected string.
    Str {
        /// The full expected string.
        full: &'a [u8],
        /// How many leading bytes of `full` matched.
        matched: usize,
    },
}

impl LazyCmpValue<'_> {
    /// Copies this view into an owned [`CmpValue`].
    pub fn materialise(&self) -> CmpValue {
        match *self {
            LazyCmpValue::Byte(b) => CmpValue::Byte(b),
            LazyCmpValue::Range(lo, hi) => CmpValue::Range(lo, hi),
            LazyCmpValue::Str { full, matched } => CmpValue::Str {
                full: full.to_vec(),
                matched,
            },
        }
    }

    /// Visits each replacement that would satisfy this comparison, in
    /// the same order [`CmpValue::satisfying_replacements`] returns
    /// them, without building any intermediate vectors.
    pub fn for_each_replacement(&self, mut f: impl FnMut(&[u8])) {
        match *self {
            LazyCmpValue::Byte(b) => f(&[b]),
            LazyCmpValue::Range(lo, hi) => {
                let (lo, hi) = (lo.min(hi), lo.max(hi));
                let span = usize::from(hi - lo) + 1;
                if span <= 16 {
                    for b in lo..=hi {
                        f(&[b]);
                    }
                } else {
                    let mid = lo + (hi - lo) / 2;
                    f(&[lo]);
                    f(&[mid]);
                    f(&[hi]);
                }
            }
            LazyCmpValue::Str { full, matched } => {
                if matched < full.len() {
                    f(&full[matched..]);
                }
            }
        }
    }

    /// Length of the replacement this comparison suggests (see
    /// [`CmpValue::replacement_len`]).
    pub fn replacement_len(&self) -> usize {
        match *self {
            LazyCmpValue::Byte(_) => 1,
            LazyCmpValue::Range(..) => 1,
            LazyCmpValue::Str { full, matched } => full.len().saturating_sub(matched),
        }
    }

    /// The next-byte range this comparison accepts (see
    /// [`CmpValue::accepted_first`]).
    pub fn accepted_first(&self) -> Option<(u8, u8)> {
        match *self {
            LazyCmpValue::Byte(b) => Some((b, b)),
            LazyCmpValue::Range(lo, hi) => Some((lo.min(hi), lo.max(hi))),
            LazyCmpValue::Str { full, matched } => full.get(matched).map(|&b| (b, b)),
        }
    }
}

/// Caller-supplied scratch for replacement expansion: one flat byte
/// buffer plus spans into it, cleared-and-reused instead of allocating a
/// `Vec<Vec<u8>>` per call. This is the allocation-free counterpart of
/// [`CmpValue::satisfying_replacements`] for callers that expand
/// replacements per comparison in a hot loop.
///
/// # Example
///
/// ```
/// use pdf_runtime::{CmpValue, ReplacementScratch};
///
/// let mut scratch = ReplacementScratch::default();
/// CmpValue::Byte(b'(').satisfying_replacements_into(&mut scratch);
/// assert_eq!(scratch.iter().collect::<Vec<_>>(), vec![&b"("[..]]);
/// // the same scratch is reused — no fresh allocation once warm
/// CmpValue::Range(b'0', b'9').satisfying_replacements_into(&mut scratch);
/// assert_eq!(scratch.len(), 10);
/// ```
#[derive(Debug, Default, Clone)]
pub struct ReplacementScratch {
    bytes: Vec<u8>,
    spans: Vec<(u32, u32)>,
}

impl ReplacementScratch {
    /// Empties the scratch, keeping its capacity.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.spans.clear();
    }

    /// Number of replacements currently held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the scratch holds no replacements.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The `i`-th replacement.
    pub fn get(&self, i: usize) -> &[u8] {
        let (off, len) = self.spans[i];
        &self.bytes[off as usize..off as usize + len as usize]
    }

    /// Iterates the replacements in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.spans
            .iter()
            .map(|&(off, len)| &self.bytes[off as usize..off as usize + len as usize])
    }

    fn push(&mut self, replacement: &[u8]) {
        let off = self.bytes.len() as u32;
        self.bytes.extend_from_slice(replacement);
        self.spans.push((off, replacement.len() as u32));
    }
}

impl CmpValue {
    /// Writes the satisfying replacements into caller-supplied scratch —
    /// same values, same order as
    /// [`satisfying_replacements`](CmpValue::satisfying_replacements),
    /// but reusing the scratch's buffers across calls. The scratch is
    /// cleared first.
    pub fn satisfying_replacements_into(&self, scratch: &mut ReplacementScratch) {
        scratch.clear();
        self.for_each_replacement(|bytes| scratch.push(bytes));
    }
}

/// The position-and-outcome half of a comparison event: everything
/// except the expected value, which streams separately as a
/// [`LazyCmpValue`] so sinks can skip materialising it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmpMeta {
    /// Input index of the compared byte.
    pub index: usize,
    /// The observed byte (`None` past the end of the input).
    pub observed: Option<u8>,
    /// Whether the comparison succeeded.
    pub outcome: bool,
    /// Parser call-stack depth at the time of the comparison.
    pub depth: usize,
    /// Static location of the comparison.
    pub site: SiteId,
}

/// Stable fingerprint of one comparison event: FNV-1a over the input
/// index, observed byte, outcome, comparison site and expected value.
///
/// This is the "last comparison value" of *Fuzzing with Fast Failure
/// Feedback*: two executions whose final comparisons fingerprint
/// equally stalled against the same check, so the tiered driver treats
/// the later one as redundant. The streaming
/// [`FastFailure`](crate::FastFailure) sink and the [`ExecLog`]
/// reference reductions must call this same function so their summaries
/// agree bit-for-bit.
pub fn cmp_fingerprint(meta: &CmpMeta, expected: &LazyCmpValue<'_>) -> u64 {
    let mut d = Digest::new();
    d.write_u64(meta.index as u64);
    match meta.observed {
        Some(b) => {
            d.write_u8(1);
            d.write_u8(b);
        }
        None => d.write_u8(0),
    }
    d.write_u8(meta.outcome as u8);
    d.write_u64(meta.site.0);
    match *expected {
        LazyCmpValue::Byte(b) => {
            d.write_u8(1);
            d.write_u8(b);
        }
        LazyCmpValue::Range(lo, hi) => {
            d.write_u8(2);
            d.write_u8(lo);
            d.write_u8(hi);
        }
        LazyCmpValue::Str { full, matched } => {
            d.write_u8(3);
            d.write_u64(matched as u64);
            d.write_bytes(full);
        }
    }
    d.finish()
}

/// A recorded comparison of a tainted input byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cmp {
    /// Input index of the compared byte. For `Str` comparisons this is the
    /// index of the byte at which matching stopped.
    pub index: usize,
    /// The byte that was observed (`None` if the comparison read past the
    /// end of the input).
    pub observed: Option<u8>,
    /// What it was compared against.
    pub expected: CmpValue,
    /// Whether the comparison succeeded.
    pub outcome: bool,
    /// Parser call-stack depth at the time of the comparison.
    pub depth: usize,
    /// Static location of the comparison.
    pub site: SiteId,
}

impl Cmp {
    /// The position-and-outcome half of this comparison.
    pub fn meta(&self) -> CmpMeta {
        CmpMeta {
            index: self.index,
            observed: self.observed,
            outcome: self.outcome,
            depth: self.depth,
            site: self.site,
        }
    }

    /// This comparison's [`cmp_fingerprint`].
    pub fn fingerprint(&self) -> u64 {
        cmp_fingerprint(&self.meta(), &self.expected.as_lazy())
    }
}

/// One entry of the execution event stream, in program order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A tracked comparison.
    Cmp(Cmp),
    /// A covered branch, tagged with the input cursor position at the time.
    Branch(BranchId, usize),
    /// An attempt to access input index `0` past the end of the input —
    /// the EOF signal ("an attempt to access a character beyond the length
    /// of the input string is interpreted as the program encountering EOF
    /// before processing is complete").
    EofAccess(usize),
}

/// The complete instrumentation record of one subject execution.
///
/// # Example
///
/// ```
/// use pdf_runtime::{cov, lit, ExecCtx, ParseError, Subject};
/// fn p(ctx: &mut ExecCtx) -> Result<(), ParseError> {
///     cov!(ctx);
///     if !lit!(ctx, b'x') { return Err(ctx.reject("want x")); }
///     ctx.expect_end()
/// }
/// let exec = Subject::new("x", p).run(b"y");
/// assert_eq!(exec.log.rejection_index(), Some(0));
/// assert!(exec.log.eof_access().is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExecLog {
    /// Events in program order.
    pub events: Vec<Event>,
    /// Length of the input that was executed.
    pub input_len: usize,
}

/// A substitution candidate derived from the comparisons at the rejection
/// point: replace the input from `at_index` on with `bytes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Index of the first replaced byte.
    pub at_index: usize,
    /// Replacement bytes (one byte for character comparisons, possibly many
    /// for failed `strcmp`s).
    pub bytes: Vec<u8>,
    /// `len(c)` for the heuristic: the replacement length the comparison
    /// suggested.
    pub replacement_len: usize,
}

impl ExecLog {
    /// All comparisons, in program order.
    pub fn comparisons(&self) -> impl Iterator<Item = &Cmp> {
        self.events.iter().filter_map(|e| match e {
            Event::Cmp(c) => Some(c),
            _ => None,
        })
    }

    /// The first past-the-end access, if any: the parser consumed the whole
    /// input and wanted more.
    pub fn eof_access(&self) -> Option<usize> {
        self.events.iter().find_map(|e| match e {
            Event::EofAccess(i) => Some(*i),
            _ => None,
        })
    }

    /// The index of the *first invalid character*: the largest input index
    /// at which a comparison **failed**. Everything before it is the valid
    /// prefix ("the mutations always occur at the last index where the
    /// comparison failed").
    ///
    /// Successful comparisons do not move this point: a tokenizer that
    /// keeps reading word characters after a keyword-table `strcmp`
    /// failed must not mask the keyword suggestion.
    pub fn rejection_index(&self) -> Option<usize> {
        self.comparisons()
            .filter(|c| c.observed.is_some() && !c.outcome)
            .map(|c| c.index)
            .max()
    }

    /// Substitution candidates from the failed comparisons at the
    /// rejection point (Algorithm 1, `addInputs`): for every comparison
    /// made against the first invalid character, a replacement that would
    /// satisfy it.
    pub fn substitution_candidates(&self) -> Vec<Candidate> {
        let Some(idx) = self.rejection_index() else {
            return Vec::new();
        };
        let mut out: Vec<Candidate> = Vec::new();
        for c in self.comparisons().filter(|c| c.index == idx && !c.outcome) {
            let replacement_len = c.expected.replacement_len();
            c.expected.for_each_replacement(|bytes| {
                let duplicate = out.iter().any(|o| {
                    o.at_index == idx && o.replacement_len == replacement_len && o.bytes == bytes
                });
                if !duplicate {
                    out.push(Candidate {
                        at_index: idx,
                        replacement_len,
                        bytes: bytes.to_vec(),
                    });
                }
            });
        }
        out
    }

    /// Full expected byte strings (length ≥ 2) of the failed string
    /// comparisons at the rejection point, in program order with
    /// duplicates removed — the token-miner feed. Unlike
    /// [`substitution_candidates`](ExecLog::substitution_candidates),
    /// which yields only the unmatched suffix of a keyword comparison,
    /// this returns the whole keyword: a failed `strcmp` against
    /// `"while"` contributes `b"while"` even when the input already
    /// matched `"wh"`.
    pub fn expected_tokens(&self) -> Vec<Vec<u8>> {
        let Some(idx) = self.rejection_index() else {
            return Vec::new();
        };
        let mut out: Vec<Vec<u8>> = Vec::new();
        for c in self.comparisons().filter(|c| c.index == idx && !c.outcome) {
            if let CmpValue::Str { full, .. } = &c.expected {
                if full.len() >= 2 && !out.iter().any(|t| t == full) {
                    out.push(full.clone());
                }
            }
        }
        out
    }

    /// Inclusive ranges of bytes the failed comparisons at the
    /// rejection point would have accepted as the next byte, in program
    /// order with exact duplicates removed — see
    /// [`CmpValue::accepted_first`]. The dictionary-anchoring feed:
    /// keeps the full span of wide range comparisons that
    /// [`substitution_candidates`](ExecLog::substitution_candidates)
    /// compresses to three probe bytes.
    pub fn accepted_first_bytes(&self) -> Vec<(u8, u8)> {
        let Some(idx) = self.rejection_index() else {
            return Vec::new();
        };
        let mut out: Vec<(u8, u8)> = Vec::new();
        for c in self.comparisons().filter(|c| c.index == idx && !c.outcome) {
            if let Some(span) = c.expected.accepted_first() {
                if !out.contains(&span) {
                    out.push(span);
                }
            }
        }
        out
    }

    /// All branches covered during the execution.
    pub fn branches(&self) -> BranchSet {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Branch(b, _) => Some(*b),
                _ => None,
            })
            .collect()
    }

    /// Branches covered *up to the first comparison of the last compared
    /// character* — the paper's guard against crediting error-handling
    /// code: "we only consider the covered branches up to the last
    /// accepted character of the input".
    pub fn branches_up_to_rejection(&self) -> BranchSet {
        let Some(idx) = self.rejection_index() else {
            return self.branches();
        };
        let mut out = BranchSet::new();
        for e in &self.events {
            match e {
                Event::Cmp(c) if c.index == idx && c.observed.is_some() => break,
                Event::Branch(b, _) => {
                    out.insert(*b);
                }
                _ => {}
            }
        }
        out
    }

    /// Average stack depth over the last two comparisons (Algorithm 1,
    /// line 50, `avgStackSize`). Zero when no comparison happened.
    pub fn avg_stack_size(&self) -> f64 {
        let depths: Vec<usize> = self.comparisons().map(|c| c.depth).collect();
        match depths.len() {
            0 => 0.0,
            1 => depths[0] as f64,
            n => (depths[n - 1] + depths[n - 2]) as f64 / 2.0,
        }
    }

    /// Number of comparison events (used by execution-cost accounting and
    /// tests).
    pub fn cmp_count(&self) -> usize {
        self.comparisons().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmp(index: usize, observed: Option<u8>, expected: CmpValue, outcome: bool) -> Event {
        Event::Cmp(Cmp {
            index,
            observed,
            expected,
            outcome,
            depth: 1,
            site: SiteId::from_raw(9),
        })
    }

    fn branch(raw: u64, pos: usize) -> Event {
        Event::Branch(BranchId::new(SiteId::from_raw(raw), true), pos)
    }

    #[test]
    fn byte_replacements() {
        assert_eq!(
            CmpValue::Byte(b'(').satisfying_replacements(),
            vec![vec![b'(']]
        );
    }

    #[test]
    fn small_range_expands_fully() {
        let r = CmpValue::Range(b'0', b'9').satisfying_replacements();
        assert_eq!(r.len(), 10);
        assert_eq!(r[0], vec![b'0']);
        assert_eq!(r[9], vec![b'9']);
    }

    #[test]
    fn large_range_samples() {
        let r = CmpValue::Range(b'a', b'z').satisfying_replacements();
        assert_eq!(r.len(), 3);
        assert_eq!(r[0], vec![b'a']);
        assert_eq!(r[2], vec![b'z']);
    }

    #[test]
    fn reversed_range_is_normalised() {
        let r = CmpValue::Range(b'9', b'0').satisfying_replacements();
        assert_eq!(r.len(), 10);
    }

    #[test]
    fn str_replacement_is_unmatched_suffix() {
        let v = CmpValue::Str {
            full: b"while".to_vec(),
            matched: 2,
        };
        assert_eq!(v.satisfying_replacements(), vec![b"ile".to_vec()]);
        assert_eq!(v.replacement_len(), 3);
    }

    #[test]
    fn fully_matched_str_has_no_replacement() {
        let v = CmpValue::Str {
            full: b"if".to_vec(),
            matched: 2,
        };
        assert!(v.satisfying_replacements().is_empty());
        assert_eq!(v.replacement_len(), 0);
    }

    #[test]
    fn accepted_first_keeps_full_range_spans() {
        assert_eq!(CmpValue::Byte(b'(').accepted_first(), Some((b'(', b'(')));
        // wide ranges keep their whole span where replacement
        // expansion compresses them to three probe bytes
        assert_eq!(
            CmpValue::Range(b'a', b'z').accepted_first(),
            Some((b'a', b'z'))
        );
        assert_eq!(
            CmpValue::Range(b'9', b'0').accepted_first(),
            Some((b'0', b'9'))
        );
        let partial = CmpValue::Str {
            full: b"while".to_vec(),
            matched: 2,
        };
        assert_eq!(partial.accepted_first(), Some((b'i', b'i')));
        let done = CmpValue::Str {
            full: b"if".to_vec(),
            matched: 2,
        };
        assert_eq!(done.accepted_first(), None);
    }

    #[test]
    fn accepted_first_bytes_dedups_in_program_order() {
        let log = ExecLog {
            events: vec![
                cmp(0, Some(b'x'), CmpValue::Range(b'a', b'z'), false),
                cmp(0, Some(b'x'), CmpValue::Byte(b'{'), false),
                cmp(0, Some(b'x'), CmpValue::Range(b'a', b'z'), false),
                // passed comparisons contribute nothing
                cmp(0, Some(b'x'), CmpValue::Byte(b'x'), true),
            ],
            input_len: 1,
        };
        assert_eq!(log.accepted_first_bytes(), vec![(b'a', b'z'), (b'{', b'{')]);
        let empty = ExecLog {
            events: vec![],
            input_len: 0,
        };
        assert!(empty.accepted_first_bytes().is_empty());
    }

    #[test]
    fn scratch_replacements_match_allocating_replacements() {
        let values = [
            CmpValue::Byte(b'('),
            CmpValue::Range(b'0', b'9'),
            CmpValue::Range(b'a', b'z'),
            CmpValue::Range(b'9', b'0'),
            CmpValue::Str {
                full: b"while".to_vec(),
                matched: 2,
            },
            CmpValue::Str {
                full: b"if".to_vec(),
                matched: 2,
            },
        ];
        let mut scratch = ReplacementScratch::default();
        for v in &values {
            v.satisfying_replacements_into(&mut scratch);
            let via_scratch: Vec<Vec<u8>> = scratch.iter().map(<[u8]>::to_vec).collect();
            assert_eq!(via_scratch, v.satisfying_replacements(), "{v:?}");
            assert_eq!(scratch.len(), via_scratch.len());
            assert_eq!(scratch.is_empty(), via_scratch.is_empty());
            for (i, r) in via_scratch.iter().enumerate() {
                assert_eq!(scratch.get(i), &r[..]);
            }
        }
    }

    #[test]
    fn fingerprint_separates_comparisons() {
        let base = Cmp {
            index: 3,
            observed: Some(b'x'),
            expected: CmpValue::Byte(b'a'),
            outcome: false,
            depth: 1,
            site: SiteId::from_raw(9),
        };
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
        let mut other = base.clone();
        other.index = 4;
        assert_ne!(base.fingerprint(), other.fingerprint());
        let mut other = base.clone();
        other.expected = CmpValue::Byte(b'b');
        assert_ne!(base.fingerprint(), other.fingerprint());
        let mut other = base.clone();
        other.outcome = true;
        assert_ne!(base.fingerprint(), other.fingerprint());
        // the fingerprint matches the lazy-view computation the sinks use
        assert_eq!(
            base.fingerprint(),
            cmp_fingerprint(&base.meta(), &base.expected.as_lazy())
        );
    }

    #[test]
    fn rejection_index_is_max_compared() {
        let log = ExecLog {
            events: vec![
                cmp(0, Some(b'a'), CmpValue::Byte(b'a'), true),
                cmp(1, Some(b'x'), CmpValue::Byte(b'b'), false),
                cmp(1, Some(b'x'), CmpValue::Byte(b'c'), false),
            ],
            input_len: 2,
        };
        assert_eq!(log.rejection_index(), Some(1));
        let cands = log.substitution_candidates();
        assert_eq!(cands.len(), 2);
        assert!(cands.iter().all(|c| c.at_index == 1));
    }

    #[test]
    fn candidates_exclude_successful_comparisons() {
        let log = ExecLog {
            events: vec![
                cmp(0, Some(b'a'), CmpValue::Byte(b'a'), true),
                cmp(0, Some(b'a'), CmpValue::Byte(b'z'), false),
            ],
            input_len: 1,
        };
        let cands = log.substitution_candidates();
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].bytes, vec![b'z']);
    }

    #[test]
    fn candidates_dedup() {
        let log = ExecLog {
            events: vec![
                cmp(0, Some(b'a'), CmpValue::Byte(b'z'), false),
                cmp(0, Some(b'a'), CmpValue::Byte(b'z'), false),
            ],
            input_len: 1,
        };
        assert_eq!(log.substitution_candidates().len(), 1);
    }

    #[test]
    fn branches_up_to_rejection_stops_at_first_cmp_of_last_index() {
        let log = ExecLog {
            events: vec![
                branch(1, 0),
                cmp(0, Some(b'a'), CmpValue::Byte(b'a'), true),
                branch(2, 1),
                cmp(1, Some(b'x'), CmpValue::Byte(b'b'), false),
                branch(3, 1), // error-handling branch, must not be counted
            ],
            input_len: 2,
        };
        let pre = log.branches_up_to_rejection();
        assert_eq!(pre.len(), 2);
        assert_eq!(log.branches().len(), 3);
    }

    #[test]
    fn eof_access_found() {
        let log = ExecLog {
            events: vec![
                cmp(0, Some(b'('), CmpValue::Byte(b'('), true),
                Event::EofAccess(1),
            ],
            input_len: 1,
        };
        assert_eq!(log.eof_access(), Some(1));
    }

    #[test]
    fn avg_stack_size_last_two() {
        let mk = |d: usize| {
            Event::Cmp(Cmp {
                index: 0,
                observed: Some(b'a'),
                expected: CmpValue::Byte(b'a'),
                outcome: true,
                depth: d,
                site: SiteId::from_raw(1),
            })
        };
        let log = ExecLog {
            events: vec![mk(2), mk(4), mk(8)],
            input_len: 1,
        };
        assert!((log.avg_stack_size() - 6.0).abs() < 1e-9);
        let one = ExecLog {
            events: vec![mk(5)],
            input_len: 1,
        };
        assert!((one.avg_stack_size() - 5.0).abs() < 1e-9);
        let empty = ExecLog::default();
        assert_eq!(empty.avg_stack_size(), 0.0);
    }
}
