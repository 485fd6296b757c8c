//! Campaign checkpoints: kill-and-resume for long campaigns.
//!
//! A [`Checkpoint`] is a complete serialization of a paused campaign's
//! search state — enough that [`Fuzzer::resume_from_checkpoint`]
//! (crate::Fuzzer::resume_from_checkpoint) continues the campaign
//! *byte-identically*: the resumed run produces the same
//! [`FuzzReport::digest`](crate::FuzzReport::digest) as an uninterrupted
//! run of the same configuration. That contract dictates what is
//! stored:
//!
//! - the RNG **draw count** (the generator is a pure function of seed +
//!   draws, so a fresh generator fast-forwarded with
//!   [`Rng::skip`](pdf_runtime::Rng::skip) continues the exact stream),
//! - the **decision bytes** drawn so far (they prefix the final report's
//!   decision stream),
//! - the **queue**, including each entry's *cached score bits*: scores
//!   are recomputed only at rebuild points, so a stale cached score
//!   legitimately shapes pop order and must survive the round-trip
//!   bit-exactly (hence `f64::to_bits`, not a decimal rendering),
//! - the queue's **rebuild counters** and **path counts** (they decide
//!   when the next rescoring happens),
//! - the **coverage sets**, **valid inputs**, the **verdict cache** and
//!   the in-flight current input.
//!
//! The text format is written and parsed by the record codec
//! ([`pdf_runtime::record`]): a header line, then one `tag k=v` record
//! per line, byte strings as hex. Unordered collections (the verdict
//! cache, path counts) are emitted sorted, so encoding is canonical:
//! decode ∘ encode is the identity and equal states produce equal text.
//!
//! Queued candidates come in families, one per failing run, that share
//! the parent's branch set, stack depth, lineage and path. `v2` writes
//! each family once, as a `fam` record ahead of its first member, and
//! each `item` names its family by id. Ids are canonical: equal family
//! fields get one id, numbered in first-seen order. A final
//! `end n=<records before it>` record makes a cut file fail to decode,
//! even one cut at a line boundary, instead of decoding as a smaller
//! queue. `v1` files, one self-contained `item` per candidate and no
//! trailer, still decode.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use pdf_runtime::record::{self, Record, Records};
use pdf_runtime::{BranchId, BranchSet, RecordError, SiteId};

const HEADER: &str = "pdf-checkpoint v2";
const HEADER_V1: &str = "pdf-checkpoint v1";

/// A serializable snapshot of one queued candidate, cached score
/// included.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueItemSnapshot {
    /// Bit pattern of the cached heuristic score (`f64::to_bits`).
    pub score_bits: u64,
    /// Insertion sequence number (final FIFO tie-break).
    pub seq: u64,
    /// The candidate input.
    pub input: Vec<u8>,
    /// Branches the parent run covered up to its rejection point;
    /// snapshots and decoded files share one list per family.
    pub parent_branches: Arc<[(u64, bool)]>,
    /// Length of the replacement that produced this candidate.
    pub replacement_len: u64,
    /// Bit pattern of the parent's average stack depth.
    pub avg_stack_bits: u64,
    /// Number of substitutions on the path from the initial input.
    pub num_parents: u64,
    /// Path hash of the parent run.
    pub path_hash: u64,
}

/// A serializable snapshot of the candidate queue.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueueSnapshot {
    /// Next insertion sequence number.
    pub seq: u64,
    /// `vBr` size at the last rescoring.
    pub last_vbr_len: u64,
    /// Pops since the last rescoring.
    pub pops_since_rebuild: u64,
    /// Path-seen counters, sorted by path hash.
    pub path_counts: Vec<(u64, u64)>,
    /// Queued candidates, sorted by insertion sequence.
    pub items: Vec<QueueItemSnapshot>,
}

/// A paused campaign's complete search state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    /// Subject name the campaign runs against.
    pub subject: String,
    /// [`DriverConfig::config_hash`](crate::DriverConfig::config_hash)
    /// of the campaign's configuration; resume refuses a drifted config.
    pub config_hash: u64,
    /// Campaign seed.
    pub seed: u64,
    /// RNG draws consumed so far.
    pub draws: u64,
    /// Whether the initial input was already drawn.
    pub primed: bool,
    /// Executions spent so far.
    pub execs: u64,
    /// Instrumentation events observed so far.
    pub events: u64,
    /// Hung executions so far.
    pub hangs: u64,
    /// Crashed executions so far.
    pub crashes: u64,
    /// Execution count of the first valid input, if any yet.
    pub first_valid_execs: Option<u64>,
    /// Decision bytes drawn so far.
    pub decisions: Vec<u8>,
    /// The in-flight input the next iteration starts from.
    pub current: Vec<u8>,
    /// `numParents` of the in-flight input.
    pub parents: u64,
    /// Valid inputs with their discovery execution counts, in discovery
    /// order.
    pub valid: Vec<(Vec<u8>, u64)>,
    /// Branches covered by valid inputs (`vBr`), as (site, outcome).
    pub valid_branches: Vec<(u64, bool)>,
    /// Branches covered by any run.
    pub all_branches: Vec<(u64, bool)>,
    /// The candidate-scoring (steering) set: `vBr` plus any coverage
    /// adopted from fleet peers. Absent in pre-fleet checkpoints, in
    /// which case resuming falls back to `vBr`.
    pub steer_branches: Vec<(u64, bool)>,
    /// The verdict cache of known-invalid inputs, sorted.
    pub known_invalid: Vec<Vec<u8>>,
    /// Tiered-mode escalation watermark: the highest rejection index any
    /// escalated fast-tier run reached. Always `None` outside tiered
    /// mode, so full-mode checkpoints stay byte-identical to releases
    /// that predate execution tiering.
    pub tier_max_rejection: Option<u64>,
    /// Last-comparison fingerprints the tiered filter has already
    /// escalated, sorted. Empty outside tiered mode.
    pub tier_fingerprints: Vec<u64>,
    /// Expected-token observation counts mined so far
    /// ([`DriverConfig::mine_tokens`](crate::DriverConfig::mine_tokens)),
    /// in canonical (byte-sorted) token order. Empty unless mining is
    /// enabled, so non-mining checkpoints stay byte-identical to
    /// releases that predate token discovery.
    pub mined: Vec<(Vec<u8>, u64)>,
    /// The candidate queue.
    pub queue: QueueSnapshot,
}

/// Why a checkpoint could not be decoded or resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The text failed to decode: a torn or damaged file.
    Format(RecordError),
    /// The subject or configuration drifted since the checkpoint was
    /// taken; resuming would silently diverge instead of continuing.
    Drift(String),
    /// Reading or writing the checkpoint file failed.
    Io(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Format(e) => write!(f, "checkpoint: {e}"),
            CheckpointError::Drift(what) => write!(f, "checkpoint drift: {what}"),
            CheckpointError::Io(e) => write!(f, "checkpoint io: {e}"),
        }
    }
}

impl From<RecordError> for CheckpointError {
    fn from(e: RecordError) -> Self {
        CheckpointError::Format(e)
    }
}

impl std::error::Error for CheckpointError {}

/// The recovery-relevant classification of a checkpoint (or other
/// persistence) failure: what a consumer holding an older generation
/// of the same state should *do* about the error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The bytes on disk are damaged (torn write, truncation, bit
    /// rot). An older generation of the same state is still good —
    /// **fall back** to it, quarantine the damage.
    Corrupt,
    /// The configuration or subject changed since the state was
    /// written. Every generation was written under the old
    /// configuration, so falling back cannot help — **fail** the
    /// resume and surface the mismatch.
    Drift,
    /// The storage itself misbehaved (permission, `ENOSPC`, missing
    /// file). Retrying or falling back *may* help; the caller decides
    /// based on what it knows about the medium.
    Io,
}

impl CheckpointError {
    /// Classifies this error for fallback decisions (see
    /// [`ErrorClass`]). Torn or truncated checkpoint files surface as
    /// [`Format`](CheckpointError::Format) and classify as
    /// [`Corrupt`](ErrorClass::Corrupt).
    pub fn class(&self) -> ErrorClass {
        match self {
            CheckpointError::Format(_) => ErrorClass::Corrupt,
            CheckpointError::Drift(_) => ErrorClass::Drift,
            CheckpointError::Io(_) => ErrorClass::Io,
        }
    }
}

/// Appends `items` joined with commas, each written by `item`; the
/// empty list is the single character `-`.
fn push_list<T>(out: &mut String, items: &[T], item: impl Fn(&mut String, &T)) {
    if items.is_empty() {
        out.push('-');
    }
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
}

/// Appends a `(site, outcome)` set as `SITE+` / `SITE-` entries.
fn push_branches(out: &mut String, set: &[(u64, bool)]) {
    push_list(out, set, |o, &(site, outcome)| {
        record::push_hex64(o, site);
        o.push(if outcome { '+' } else { '-' });
    });
}

fn parse_branch(tok: &str) -> Option<(u64, bool)> {
    match tok.strip_suffix('+') {
        Some(hex) => Some((record::parse_hex64(hex)?, true)),
        None => Some((record::parse_hex64(tok.strip_suffix('-')?)?, false)),
    }
}

/// Reads a [`push_list`] field of `rec`, parsing each entry with `item`.
fn list<T>(
    rec: &Record<'_>,
    key: &str,
    item: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, RecordError> {
    match rec.raw(key)? {
        "-" => Ok(Vec::new()),
        v => v
            .split(',')
            .map(item)
            .collect::<Option<_>>()
            .ok_or_else(|| rec.error(Some(key), format!("bad list {v:?}"))),
    }
}

/// Appends an optional count, `-` for `None`.
fn push_opt_dec(out: &mut String, v: Option<u64>) {
    match v {
        Some(n) => record::push_dec(out, n),
        None => out.push('-'),
    }
}

fn opt_dec(rec: &Record<'_>, key: &str) -> Result<Option<u64>, RecordError> {
    match rec.raw(key)? {
        "-" => Ok(None),
        v => rec.dec_of(key, v).map(Some),
    }
}

/// A serialized branch set that the snapshots of one queue family share.
pub(crate) type SharedBranches = Arc<[(u64, bool)]>;

/// Rebuilds a [`BranchSet`] from serialized (site, outcome) pairs.
pub(crate) fn branch_set_of(pairs: &[(u64, bool)]) -> BranchSet {
    pairs
        .iter()
        .map(|&(site, outcome)| BranchId::new(SiteId::from_raw(site), outcome))
        .collect()
}

/// Flattens a [`BranchSet`] into serializable (site, outcome) pairs
/// (already sorted: the set iterates in order).
pub(crate) fn branch_pairs_of(set: &BranchSet) -> Vec<(u64, bool)> {
    set.iter().map(|b| (b.site.0, b.outcome)).collect()
}

impl Checkpoint {
    /// Renders the checkpoint as `pdf-checkpoint v2` text.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        record::write(&mut out, HEADER).end();
        record::write(&mut out, "meta")
            .raw("subject", &self.subject)
            .hex("cfg", self.config_hash)
            .dec("seed", self.seed)
            .dec("draws", self.draws)
            .dec("primed", u64::from(self.primed))
            .dec("execs", self.execs)
            .dec("events", self.events)
            .dec("hangs", self.hangs)
            .dec("crashes", self.crashes)
            .with("first", |o| push_opt_dec(o, self.first_valid_execs))
            .dec("parents", self.parents)
            .dec("qseq", self.queue.seq)
            .dec("qvbr", self.queue.last_vbr_len)
            .dec("qpops", self.queue.pops_since_rebuild)
            .end();
        record::write(&mut out, "decisions")
            .bytes("hex", &self.decisions)
            .end();
        record::write(&mut out, "current")
            .bytes("hex", &self.current)
            .end();
        for (input, at) in &self.valid {
            record::write(&mut out, "valid")
                .dec("at", *at)
                .bytes("hex", input)
                .end();
        }
        for (tag, set) in [
            ("vbr", &self.valid_branches),
            ("abr", &self.all_branches),
            ("sbr", &self.steer_branches),
        ] {
            record::write(&mut out, tag)
                .with("set", |o| push_branches(o, set))
                .end();
        }
        if self.tier_max_rejection.is_some() || !self.tier_fingerprints.is_empty() {
            record::write(&mut out, "tier")
                .with("maxrej", |o| push_opt_dec(o, self.tier_max_rejection))
                .with("fps", |o| {
                    push_list(o, &self.tier_fingerprints, |o, &fp| {
                        record::push_hex64(o, fp)
                    })
                })
                .end();
        }
        for input in &self.known_invalid {
            record::write(&mut out, "inv").bytes("hex", input).end();
        }
        for (tok, n) in &self.mined {
            record::write(&mut out, "mine")
                .dec("n", *n)
                .bytes("hex", tok)
                .end();
        }
        for &(hash, n) in &self.queue.path_counts {
            record::write(&mut out, "path")
                .hex("hash", hash)
                .dec("n", n)
                .end();
        }
        // every record is one line, and the header is not a record
        let before_queue = out.matches('\n').count() - 1;
        let mut families = 0;
        for (item, id) in self.queue.items.iter().zip(family_ids(&self.queue.items)) {
            if id == families {
                families += 1;
                record::write(&mut out, "fam")
                    .dec("id", id as u64)
                    .dec("par", item.num_parents)
                    .hex("path", item.path_hash)
                    .hex("stack", item.avg_stack_bits)
                    .with("pb", |o| push_branches(o, &item.parent_branches))
                    .end();
            }
            record::write(&mut out, "item")
                .dec("fam", id as u64)
                .hex("score", item.score_bits)
                .dec("seq", item.seq)
                .dec("repl", item.replacement_len)
                .bytes("hex", &item.input)
                .end();
        }
        let records = before_queue + families + self.queue.items.len();
        record::write(&mut out, "end")
            .dec("n", records as u64)
            .end();
        out
    }

    /// Parses `pdf-checkpoint v2` text, or `v1` text written before
    /// queue families were shared.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Format`] on a missing header or any malformed
    /// line; in `v2` also on a missing or miscounted `end` trailer, a
    /// record after it, or an item of an undefined family.
    pub fn decode(text: &str) -> Result<Checkpoint, CheckpointError> {
        let v1 = text.trim_ascii_start().starts_with(HEADER_V1);
        let (header, records) = Records::open(text, if v1 { HEADER_V1 } else { HEADER })?;
        header.keys(&[])?;
        let mut ck = Checkpoint::default();
        let mut saw_meta = false;
        // each family as an item with its shared fields only
        let mut families: Vec<QueueItemSnapshot> = Vec::new();
        let mut seen = 0u64;
        let mut ended = false;
        for rec in records {
            let rec = rec?;
            if ended {
                return Err(RecordError::Integrity(format!(
                    "`{}` record after the end trailer",
                    rec.tag()
                ))
                .into());
            }
            seen += 1;
            match rec.tag() {
                "meta" => {
                    rec.keys(&[
                        "subject", "cfg", "seed", "draws", "primed", "execs", "events", "hangs",
                        "crashes", "first", "parents", "qseq", "qvbr", "qpops",
                    ])?;
                    ck.subject = rec.raw("subject")?.to_string();
                    ck.config_hash = rec.hex("cfg")?;
                    ck.seed = rec.dec("seed")?;
                    ck.draws = rec.dec("draws")?;
                    ck.primed = match rec.dec("primed")? {
                        0 => false,
                        1 => true,
                        _ => return Err(rec.error(Some("primed"), "expected 0 or 1").into()),
                    };
                    ck.execs = rec.dec("execs")?;
                    ck.events = rec.dec("events")?;
                    ck.hangs = rec.dec("hangs")?;
                    ck.crashes = rec.dec("crashes")?;
                    ck.first_valid_execs = opt_dec(&rec, "first")?;
                    ck.parents = rec.dec("parents")?;
                    ck.queue.seq = rec.dec("qseq")?;
                    ck.queue.last_vbr_len = rec.dec("qvbr")?;
                    ck.queue.pops_since_rebuild = rec.dec("qpops")?;
                    saw_meta = true;
                }
                "decisions" => {
                    rec.keys(&["hex"])?;
                    ck.decisions = rec.bytes("hex")?;
                }
                "current" => {
                    rec.keys(&["hex"])?;
                    ck.current = rec.bytes("hex")?;
                }
                "valid" => {
                    rec.keys(&["at", "hex"])?;
                    ck.valid.push((rec.bytes("hex")?, rec.dec("at")?));
                }
                "vbr" => {
                    rec.keys(&["set"])?;
                    ck.valid_branches = list(&rec, "set", parse_branch)?;
                }
                "abr" => {
                    rec.keys(&["set"])?;
                    ck.all_branches = list(&rec, "set", parse_branch)?;
                }
                "sbr" => {
                    rec.keys(&["set"])?;
                    ck.steer_branches = list(&rec, "set", parse_branch)?;
                }
                "tier" => {
                    rec.keys(&["maxrej", "fps"])?;
                    ck.tier_max_rejection = opt_dec(&rec, "maxrej")?;
                    ck.tier_fingerprints = list(&rec, "fps", record::parse_hex64)?;
                }
                "inv" => {
                    rec.keys(&["hex"])?;
                    ck.known_invalid.push(rec.bytes("hex")?);
                }
                "mine" => {
                    rec.keys(&["n", "hex"])?;
                    ck.mined.push((rec.bytes("hex")?, rec.dec("n")?));
                }
                "path" => {
                    rec.keys(&["hash", "n"])?;
                    ck.queue.path_counts.push((rec.hex("hash")?, rec.dec("n")?));
                }
                "item" if v1 => {
                    rec.keys(&["score", "seq", "repl", "par", "path", "stack", "pb", "hex"])?;
                    ck.queue.items.push(QueueItemSnapshot {
                        score_bits: rec.hex("score")?,
                        seq: rec.dec("seq")?,
                        replacement_len: rec.dec("repl")?,
                        num_parents: rec.dec("par")?,
                        path_hash: rec.hex("path")?,
                        avg_stack_bits: rec.hex("stack")?,
                        parent_branches: list(&rec, "pb", parse_branch)?.into(),
                        input: rec.bytes("hex")?,
                    });
                }
                "fam" if !v1 => {
                    rec.keys(&["id", "par", "path", "stack", "pb"])?;
                    let id = rec.dec("id")?;
                    if id != families.len() as u64 {
                        return Err(RecordError::Integrity(format!(
                            "family {id} defined out of order (expected {})",
                            families.len()
                        ))
                        .into());
                    }
                    families.push(QueueItemSnapshot {
                        score_bits: 0,
                        seq: 0,
                        input: Vec::new(),
                        parent_branches: list(&rec, "pb", parse_branch)?.into(),
                        replacement_len: 0,
                        avg_stack_bits: rec.hex("stack")?,
                        num_parents: rec.dec("par")?,
                        path_hash: rec.hex("path")?,
                    });
                }
                "item" => {
                    rec.keys(&["fam", "score", "seq", "repl", "hex"])?;
                    let id = rec.dec("fam")?;
                    let family = usize::try_from(id)
                        .ok()
                        .and_then(|id| families.get(id))
                        .ok_or_else(|| {
                            RecordError::Integrity(format!("item of undefined family {id}"))
                        })?;
                    ck.queue.items.push(QueueItemSnapshot {
                        score_bits: rec.hex("score")?,
                        seq: rec.dec("seq")?,
                        replacement_len: rec.dec("repl")?,
                        input: rec.bytes("hex")?,
                        ..family.clone()
                    });
                }
                "end" if !v1 => {
                    rec.keys(&["n"])?;
                    let n = rec.dec("n")?;
                    if n != seen - 1 {
                        return Err(RecordError::Integrity(format!(
                            "end trailer counts {n} records, the file holds {}",
                            seen - 1
                        ))
                        .into());
                    }
                    ended = true;
                }
                _ => return Err(rec.unknown_tag().into()),
            }
        }
        if !saw_meta {
            return Err(RecordError::Integrity("no meta record".to_string()).into());
        }
        if !v1 && !ended {
            return Err(
                RecordError::Integrity("no end trailer: truncated file".to_string()).into(),
            );
        }
        Ok(ck)
    }
}

/// A family's branch list (by allocation or by content), parent count,
/// path hash and stack bits.
type FamilyKey<B> = (B, u64, u64, u64);

/// The canonical family id of each of `items`: items whose parent
/// branches, parent count, path hash and stack bits are equal share an
/// id, and ids count up from 0 in first-seen order, so an item opens a
/// new family exactly when its id equals the number of ids before it.
/// Items sharing one branch-list allocation are matched without
/// comparing the lists.
pub(crate) fn family_ids(items: &[QueueItemSnapshot]) -> Vec<usize> {
    let mut by_alloc: HashMap<FamilyKey<*const (u64, bool)>, usize> = HashMap::new();
    let mut by_content: HashMap<FamilyKey<&[(u64, bool)]>, usize> = HashMap::new();
    items
        .iter()
        .map(|item| {
            let (par, path, stack) = (item.num_parents, item.path_hash, item.avg_stack_bits);
            let alloc = (item.parent_branches.as_ptr(), par, path, stack);
            *by_alloc.entry(alloc).or_insert_with(|| {
                let next = by_content.len();
                *by_content
                    .entry((&item.parent_branches[..], par, path, stack))
                    .or_insert(next)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
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
            decisions: vec![0x30, 0x31, 0x2b],
            current: b"1+".to_vec(),
            parents: 2,
            valid: vec![(b"1".to_vec(), 12), (b"1+1".to_vec(), 50)],
            valid_branches: vec![(1, true), (2, false)],
            all_branches: vec![(1, true), (2, false), (3, true)],
            steer_branches: vec![(1, true), (2, false), (9, true)],
            known_invalid: vec![b"(".to_vec(), b")".to_vec()],
            tier_max_rejection: Some(4),
            tier_fingerprints: vec![0x11, 0x22, 0x33],
            mined: Vec::new(),
            queue: QueueSnapshot {
                seq: 9,
                last_vbr_len: 2,
                pops_since_rebuild: 5,
                path_counts: vec![(0xaa, 3), (0xbb, 1)],
                items: vec![QueueItemSnapshot {
                    score_bits: 4.5f64.to_bits(),
                    seq: 8,
                    input: b"1+2".to_vec(),
                    parent_branches: vec![(1, true)].into(),
                    replacement_len: 1,
                    avg_stack_bits: 1.5f64.to_bits(),
                    num_parents: 2,
                    path_hash: 0xaa,
                }],
            },
        }
    }

    #[test]
    fn round_trips_through_text() {
        let ck = sample();
        let text = ck.encode();
        let decoded = Checkpoint::decode(&text).expect("decodes");
        assert_eq!(ck, decoded);
        // canonical: re-encoding the decoded form is byte-identical
        assert_eq!(text, decoded.encode());
    }

    #[test]
    fn empty_collections_round_trip() {
        let ck = Checkpoint {
            subject: "x".to_string(),
            ..Checkpoint::default()
        };
        let decoded = Checkpoint::decode(&ck.encode()).expect("decodes");
        assert_eq!(ck, decoded);
        assert!(decoded.valid_branches.is_empty());
        assert!(decoded.queue.items.is_empty());
    }

    #[test]
    fn header_is_required() {
        for bad in ["nope", "", "pdf-checkpoint v1 x=1\n"] {
            let err = Checkpoint::decode(bad).unwrap_err();
            assert!(matches!(
                err,
                CheckpointError::Format(RecordError::Header(_))
            ));
            assert_eq!(err.class(), ErrorClass::Corrupt);
        }
        assert!(matches!(
            Checkpoint::decode(&format!("{HEADER}\n")),
            Err(CheckpointError::Format(RecordError::Integrity(_)))
        ));
    }

    #[test]
    fn malformed_lines_are_rejected_with_position() {
        let mut text = sample().encode();
        text.push_str("garbage notkv\n");
        match Checkpoint::decode(&text) {
            Err(CheckpointError::Format(RecordError::Parse { line, .. })) => assert!(line > 1),
            other => panic!("expected parse error, got {other:?}"),
        }
        let bad_hex = format!("{HEADER}\nmeta subject=s cfg=zz seed=0 draws=0 primed=1 execs=0 events=0 hangs=0 crashes=0 first=- parents=0 qseq=0 qvbr=0 qpops=0\n");
        assert!(matches!(
            Checkpoint::decode(&bad_hex),
            Err(CheckpointError::Format(RecordError::Parse { .. }))
        ));
        // one key policy: unknown and duplicate keys are rejected
        for edit in ["seq=7 x=1", "seq=7 seq=7"] {
            let text = sample().encode().replacen("seq=8", edit, 1);
            assert!(matches!(
                Checkpoint::decode(&text),
                Err(CheckpointError::Format(RecordError::Parse { .. }))
            ));
        }
    }

    #[test]
    fn empty_tier_state_emits_no_record() {
        // full-mode checkpoints must stay byte-identical to the
        // pre-tiering format
        let mut ck = sample();
        ck.tier_max_rejection = None;
        ck.tier_fingerprints = Vec::new();
        let text = ck.encode();
        assert!(!text.contains("tier "), "spurious tier record:\n{text}");
        let decoded = Checkpoint::decode(&text).expect("decodes");
        assert_eq!(ck, decoded);
    }

    #[test]
    fn tier_record_round_trips() {
        let mut ck = sample();
        ck.tier_max_rejection = None;
        ck.tier_fingerprints = vec![0xdead];
        let decoded = Checkpoint::decode(&ck.encode()).expect("decodes");
        assert_eq!(ck, decoded);
        ck.tier_max_rejection = Some(0);
        ck.tier_fingerprints = Vec::new();
        let decoded = Checkpoint::decode(&ck.encode()).expect("decodes");
        assert_eq!(ck, decoded);
    }

    #[test]
    fn mine_records_round_trip_and_default_to_absent() {
        // non-mining checkpoints must stay byte-identical to the
        // pre-token format
        let ck = sample();
        assert!(ck.mined.is_empty());
        assert!(!ck.encode().contains("mine "), "spurious mine record");

        let mut mined = sample();
        mined.mined = vec![(b"while".to_vec(), 7), (b"}".to_vec(), 1)];
        let decoded = Checkpoint::decode(&mined.encode()).expect("decodes");
        assert_eq!(mined, decoded);
    }

    #[test]
    fn branch_list_encoding_is_exact() {
        let parse = |s: &str| {
            let line = format!("t set={s}");
            let rec = Record::parse(&line, 1).unwrap().unwrap();
            list(&rec, "set", parse_branch).ok()
        };
        let mut s = String::new();
        push_branches(&mut s, &[]);
        assert_eq!(s, "-");
        let pairs = vec![(0x10, true), (0x20, false)];
        let mut s = String::new();
        push_branches(&mut s, &pairs);
        assert_eq!(s, "0000000000000010+,0000000000000020-");
        assert_eq!(parse(&s), Some(pairs));
        assert_eq!(parse("-"), Some(Vec::new()));
        assert_eq!(parse("zz+"), None);
        assert_eq!(parse("0000000000000010?"), None);
        assert_eq!(parse("000000000000001é"), None);
        assert_eq!(parse("0000000000000010+,"), None);
    }

    /// `sample()` with three more items: one in the first item's family
    /// (its own, content-equal branch list), one that differs only in
    /// its stack bits, and one sharing the first item's allocation.
    fn families() -> Checkpoint {
        let mut ck = sample();
        let first = ck.queue.items[0].clone();
        let mut twin = first.clone();
        twin.seq = 9;
        twin.parent_branches = first.parent_branches.to_vec().into();
        let mut other = first.clone();
        other.seq = 10;
        other.avg_stack_bits = 0.5f64.to_bits();
        let mut shared = first.clone();
        shared.seq = 11;
        ck.queue.items.extend([twin, other, shared]);
        ck.queue.seq = 12;
        ck
    }

    fn integrity(text: &str) -> bool {
        matches!(
            Checkpoint::decode(text),
            Err(CheckpointError::Format(RecordError::Integrity(_)))
        )
    }

    #[test]
    fn families_are_written_once_and_shared_on_decode() {
        let ck = families();
        assert_eq!(family_ids(&ck.queue.items), vec![0, 0, 1, 0]);
        let text = ck.encode();
        assert_eq!(text.matches("\nfam ").count(), 2, "{text}");
        assert!(text.contains("\nfam id=1 par=2 "), "{text}");
        assert!(text.ends_with("\nend n=19\n"), "{text}");
        let decoded = Checkpoint::decode(&text).expect("decodes");
        assert_eq!(decoded, ck);
        assert_eq!(decoded.encode(), text);
        let items = &decoded.queue.items;
        assert!(Arc::ptr_eq(
            &items[0].parent_branches,
            &items[1].parent_branches
        ));
        assert!(Arc::ptr_eq(
            &items[0].parent_branches,
            &items[3].parent_branches
        ));
        assert!(!Arc::ptr_eq(
            &items[0].parent_branches,
            &items[2].parent_branches
        ));
    }

    #[test]
    fn damaged_family_tables_and_trailers_are_integrity_errors() {
        let text = families().encode();
        let body = text.strip_suffix("end n=19\n").unwrap();
        for bad in [
            body.to_string(),
            format!("{body}end n=18\n"),
            format!("{text}end n=19\n"),
            format!("{text}inv hex=28\n"),
            text.replacen("item fam=1 ", "item fam=2 ", 1),
            text.replacen("item fam=0 ", "item fam=18446744073709551615 ", 1),
            text.replacen("fam id=1 ", "fam id=0 ", 1),
        ] {
            assert!(integrity(&bad), "accepted:\n{bad}");
            assert_eq!(
                Checkpoint::decode(&bad).unwrap_err().class(),
                ErrorClass::Corrupt
            );
        }
        // a value past u64 does not parse at all
        assert!(Checkpoint::decode(&text.replacen("fam=0 ", "fam=x ", 1)).is_err());
    }

    #[test]
    fn v1_items_decode_and_reencode_as_v2() {
        let v1 = format!(
            "{HEADER_V1}\nmeta subject=x cfg=0000000000000000 seed=0 draws=0 primed=0 execs=0 \
             events=0 hangs=0 crashes=0 first=- parents=0 qseq=2 qvbr=0 qpops=0\n\
             vbr set=-\nabr set=-\nsbr set=-\n\
             item score=0000000000000000 seq=0 repl=1 par=0 path=0000000000000001 \
             stack=0000000000000000 pb=0000000000000001+ hex=61\n\
             item score=0000000000000000 seq=1 repl=1 par=0 path=0000000000000001 \
             stack=0000000000000000 pb=0000000000000001+ hex=62\n"
        );
        let ck = Checkpoint::decode(&v1).expect("v1 decodes");
        assert_eq!(ck.queue.items.len(), 2);
        assert_eq!(family_ids(&ck.queue.items), vec![0, 0]);
        let v2 = ck.encode();
        assert!(v2.starts_with(HEADER) && v2.contains("\nfam id=0 ") && !v2.contains("fam id=1"));
        // v2 record shapes are not v1's
        assert!(Checkpoint::decode(&v1.replace(HEADER_V1, HEADER)).is_err());
        assert!(Checkpoint::decode(&v2.replace(HEADER, HEADER_V1)).is_err());
    }

    #[test]
    fn score_bits_survive_exactly() {
        // the point of storing bits: scores like 0.1 + 0.2 must survive
        // without decimal rounding
        let tricky = 0.1f64 + 0.2f64;
        let mut ck = sample();
        ck.queue.items[0].score_bits = tricky.to_bits();
        let decoded = Checkpoint::decode(&ck.encode()).unwrap();
        assert_eq!(f64::from_bits(decoded.queue.items[0].score_bits), tricky,);
    }
}
