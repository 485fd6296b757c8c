//! `pdf-fleet` — sharded cooperative fuzzing campaigns.
//!
//! One campaign, N workers: a [`Fleet`] runs N independent
//! [`pdf_core::Fuzzer`] shards (shard `i` seeded `base_seed + i`) in
//! lockstep *synchronization epochs*. Between epochs a deterministic
//! coordinator merges shard coverage and promotes each newly closed
//! valid input — deduplicated by its journal digest — into every other
//! shard's candidate queue via the [`pdf_core::SyncPoint`] hook. The
//! cooperative discovery is the point: a keyword one shard closes
//! becomes splice material for all of them, so the fleet reaches the
//! paper's Figure-3 token set in fewer *total* executions than N
//! independent runs (EXPERIMENTS.md, "Fleet sharding").
//!
//! The fleet preserves the workspace's determinism contract end to
//! end — see [`Fleet`] for the exact statement — and checkpoints as a
//! directory of per-shard `pdf-checkpoint v2` files plus a
//! [`pdf-fleet v1` manifest](FleetManifest).
//!
//! # Example
//!
//! ```
//! use pdf_core::DriverConfig;
//! use pdf_fleet::{Fleet, FleetConfig};
//!
//! let base = DriverConfig { seed: 1, max_execs: 500, ..DriverConfig::default() };
//! let report = Fleet::new(pdf_subjects::dyck::subject(), FleetConfig::new(2, 250, base))
//!     .unwrap()
//!     .run();
//! assert_eq!(report.total_execs, report.shards.iter().map(|r| r.execs).sum::<u64>());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod manifest;

pub use campaign::{merge_coverage, Fleet, FleetConfig, FleetProgress, FleetReport};
pub use manifest::{shard_file, FleetError, FleetManifest, MANIFEST_FILE};
