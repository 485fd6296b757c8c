//! The `pdf-fleet v1` manifest codec plus the crate's error type.
//!
//! A fleet checkpoint is a directory: one `pdf-checkpoint v2` file per
//! shard (`shard-NN.ck`, written by the existing
//! [`Fuzzer::checkpoint_to`](pdf_core::Fuzzer::checkpoint_to)) plus one
//! `fleet.manifest` file holding the coordinator's own state — the
//! epoch counter, how many of each shard's valid inputs the coordinator
//! has already seen, and the sorted digest set of every input promoted
//! so far. Together they reconstruct the fleet exactly: resuming and
//! running to completion yields the same
//! [`FleetReport::digest`](crate::FleetReport::digest) as an
//! uninterrupted run.
//!
//! The text format is written and parsed by the record codec
//! ([`pdf_runtime::record`]): a `pdf-fleet v1` header, one `meta`
//! record, then one `seen` record per shard and one `prom` record per
//! promoted digest. Unordered data (the promoted set)
//! is emitted sorted, so encoding is canonical.

use std::fmt;

use pdf_core::CheckpointError;
use pdf_runtime::record::{self, Records};
use pdf_runtime::RecordError;

/// Name of the manifest file inside a fleet checkpoint directory.
pub const MANIFEST_FILE: &str = "fleet.manifest";

const HEADER: &str = "pdf-fleet v1";

/// The file name of shard `i`'s checkpoint inside a fleet checkpoint
/// directory.
pub fn shard_file(shard: usize) -> String {
    format!("shard-{shard:02}.ck")
}

/// Why a fleet could not be configured, checkpointed or resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The fleet configuration is invalid (zero shards, zero sync
    /// interval, or a replay stream count that does not match the
    /// shard count).
    Config(String),
    /// The manifest text failed to decode: a torn or damaged file.
    Format(RecordError),
    /// The configuration, subject or shard layout drifted since the
    /// checkpoint was taken.
    Drift(String),
    /// A per-shard checkpoint failed to decode or resume.
    Shard(CheckpointError),
    /// Reading or writing a checkpoint file failed.
    Io(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Config(what) => write!(f, "fleet config: {what}"),
            FleetError::Format(e) => write!(f, "fleet manifest: {e}"),
            FleetError::Drift(what) => write!(f, "fleet drift: {what}"),
            FleetError::Shard(e) => write!(f, "fleet shard: {e}"),
            FleetError::Io(e) => write!(f, "fleet io: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl FleetError {
    /// Classifies this error for checkpoint-fallback decisions, the
    /// fleet analog of [`CheckpointError::class`]
    /// ([`pdf_core::ErrorClass`] semantics): `Corrupt` means an older
    /// checkpoint generation is still good and the damaged one should
    /// be quarantined; `Drift` means no generation can help; `Io`
    /// leaves the call to the consumer's judgement.
    pub fn class(&self) -> pdf_core::ErrorClass {
        use pdf_core::ErrorClass;
        match self {
            FleetError::Format(_) => ErrorClass::Corrupt,
            FleetError::Drift(_) | FleetError::Config(_) => ErrorClass::Drift,
            FleetError::Shard(e) => e.class(),
            FleetError::Io(_) => ErrorClass::Io,
        }
    }
}

impl From<RecordError> for FleetError {
    fn from(e: RecordError) -> Self {
        FleetError::Format(e)
    }
}

impl From<CheckpointError> for FleetError {
    fn from(e: CheckpointError) -> Self {
        FleetError::Shard(e)
    }
}

/// The coordinator's serialized state: everything a resumed fleet needs
/// beyond the per-shard checkpoints.
///
/// ```
/// use pdf_fleet::FleetManifest;
///
/// let m = FleetManifest {
///     subject: "dyck".to_string(),
///     config_hash: 0xabcd,
///     base_seed: 7,
///     shards: 2,
///     sync_every: 500,
///     epoch: 3,
///     promotions: 2,
///     injections: 2,
///     seen_valid: vec![1, 1],
///     promoted: vec![0x1111, 0x2222],
/// };
/// let back = FleetManifest::decode(&m.encode()).unwrap();
/// assert_eq!(back, m);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetManifest {
    /// Subject name the fleet runs against.
    pub subject: String,
    /// Shared [`DriverConfig::config_hash`](pdf_core::DriverConfig::config_hash)
    /// of the base configuration (seed-independent, so one hash covers
    /// every shard).
    pub config_hash: u64,
    /// The fleet's base seed (shard `i` runs with `base_seed + i`).
    pub base_seed: u64,
    /// Number of worker shards.
    pub shards: u64,
    /// Per-shard executions between synchronization epochs.
    pub sync_every: u64,
    /// Synchronization epochs completed.
    pub epoch: u64,
    /// Distinct valid inputs promoted so far.
    pub promotions: u64,
    /// Queue injections performed so far.
    pub injections: u64,
    /// Per shard: how many of its valid inputs the coordinator has
    /// already examined (indexed by shard id).
    pub seen_valid: Vec<u64>,
    /// Digests of every promoted input, sorted ascending.
    pub promoted: Vec<u64>,
}

impl FleetManifest {
    /// Renders the manifest as `pdf-fleet v1` text.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        record::write(&mut out, HEADER).end();
        record::write(&mut out, "meta")
            .raw("subject", &self.subject)
            .hex("cfg", self.config_hash)
            .dec("seed", self.base_seed)
            .dec("shards", self.shards)
            .dec("sync", self.sync_every)
            .dec("epoch", self.epoch)
            .dec("promotions", self.promotions)
            .dec("injections", self.injections)
            .end();
        for (shard, &n) in self.seen_valid.iter().enumerate() {
            record::write(&mut out, "seen")
                .dec("shard", shard as u64)
                .dec("valid", n)
                .end();
        }
        for &dg in &self.promoted {
            record::write(&mut out, "prom").hex("digest", dg).end();
        }
        out
    }

    /// Parses `pdf-fleet v1` text.
    ///
    /// # Errors
    ///
    /// [`FleetError::Format`] on a missing header or any malformed
    /// line, including `seen` records out of shard order or an
    /// unsorted promoted set (encoding is canonical).
    pub fn decode(text: &str) -> Result<FleetManifest, FleetError> {
        let (header, records) = Records::open(text, HEADER)?;
        header.keys(&[])?;
        let mut m = FleetManifest::default();
        let mut saw_meta = false;
        for rec in records {
            let rec = rec?;
            match rec.tag() {
                "meta" => {
                    rec.keys(&[
                        "subject",
                        "cfg",
                        "seed",
                        "shards",
                        "sync",
                        "epoch",
                        "promotions",
                        "injections",
                    ])?;
                    m.subject = rec.raw("subject")?.to_string();
                    m.config_hash = rec.hex("cfg")?;
                    m.base_seed = rec.dec("seed")?;
                    m.shards = rec.dec("shards")?;
                    m.sync_every = rec.dec("sync")?;
                    m.epoch = rec.dec("epoch")?;
                    m.promotions = rec.dec("promotions")?;
                    m.injections = rec.dec("injections")?;
                    saw_meta = true;
                }
                "seen" => {
                    rec.keys(&["shard", "valid"])?;
                    if rec.dec("shard")? != m.seen_valid.len() as u64 {
                        return Err(rec
                            .error(Some("shard"), "seen records out of shard order")
                            .into());
                    }
                    m.seen_valid.push(rec.dec("valid")?);
                }
                "prom" => {
                    rec.keys(&["digest"])?;
                    let dg = rec.hex("digest")?;
                    if m.promoted.last().is_some_and(|&last| last >= dg) {
                        return Err(rec
                            .error(Some("digest"), "promoted digests not strictly ascending")
                            .into());
                    }
                    m.promoted.push(dg);
                }
                _ => return Err(rec.unknown_tag().into()),
            }
        }
        if !saw_meta {
            return Err(RecordError::Integrity("missing meta record".to_string()).into());
        }
        if m.seen_valid.len() as u64 != m.shards {
            return Err(RecordError::Integrity(format!(
                "meta says {} shards but {} seen records",
                m.shards,
                m.seen_valid.len()
            ))
            .into());
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FleetManifest {
        FleetManifest {
            subject: "arith".to_string(),
            config_hash: 0xdead_beef,
            base_seed: 42,
            shards: 3,
            sync_every: 250,
            epoch: 7,
            promotions: 2,
            injections: 4,
            seen_valid: vec![5, 0, 2],
            promoted: vec![0x0101, 0xff00],
        }
    }

    #[test]
    fn round_trips() {
        let m = sample();
        let text = m.encode();
        assert_eq!(FleetManifest::decode(&text).unwrap(), m);
        // canonical: re-encoding the decoded value is byte-identical
        assert_eq!(FleetManifest::decode(&text).unwrap().encode(), text);
    }

    #[test]
    fn rejects_missing_header_and_garbage() {
        for bad in ["", "pdf-checkpoint v1\n", "pdf-fleet v1 x=1\n"] {
            assert!(matches!(
                FleetManifest::decode(bad),
                Err(FleetError::Format(RecordError::Header(_)))
            ));
        }
        let bad = "pdf-fleet v1\nwhat is=this\n";
        let err = FleetManifest::decode(bad).unwrap_err();
        assert!(matches!(
            err,
            FleetError::Format(RecordError::Parse { line: 2, .. })
        ));
        assert_eq!(err.class(), pdf_core::ErrorClass::Corrupt);
        let dup = sample().encode().replace("epoch=7", "epoch=7 epoch=8");
        assert!(matches!(
            FleetManifest::decode(&dup),
            Err(FleetError::Format(RecordError::Parse { .. }))
        ));
    }

    #[test]
    fn rejects_shard_count_mismatch_and_disorder() {
        let mut m = sample();
        m.seen_valid.pop();
        assert!(matches!(
            FleetManifest::decode(&m.encode()),
            Err(FleetError::Format(RecordError::Integrity(_)))
        ));
        let mut m = sample();
        m.promoted = vec![0xff00, 0x0101]; // unsorted
        assert!(matches!(
            FleetManifest::decode(&m.encode()),
            Err(FleetError::Format(RecordError::Parse { .. }))
        ));
    }
}
