//! The seeded fault schedule.
//!
//! A [`FaultPlan`] answers one question — "does the Nth operation of
//! this kind fault, and how?" — as a pure function of the plan seed,
//! the [`OpKind`] and the occurrence index N. The only mutable state is
//! one per-kind occurrence counter, so concurrent callers each draw a
//! distinct index and the *set* of decisions taken over a run is a
//! deterministic function of how many operations of each kind ran.
//!
//! Rates are configured per mille in a [`FaultSpec`]; each operation
//! rolls one number in `0..1000` and walks the fault kinds applicable
//! to its operation class in a fixed order, so at most one fault fires
//! per operation and raising one rate never perturbs which *other*
//! faults fire.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use pdf_runtime::splitmix64;

/// What kind of I/O operation is asking for a fault decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// One serve-journal line append.
    JournalWrite,
    /// One campaign meta-file write.
    MetaWrite,
    /// One checkpoint file write.
    CheckpointWrite,
    /// One socket read.
    WireRead,
    /// One socket write.
    WireWrite,
}

impl OpKind {
    /// Every operation kind, in schedule order.
    pub const ALL: [OpKind; 5] = [
        OpKind::JournalWrite,
        OpKind::MetaWrite,
        OpKind::CheckpointWrite,
        OpKind::WireRead,
        OpKind::WireWrite,
    ];

    fn index(self) -> usize {
        match self {
            OpKind::JournalWrite => 0,
            OpKind::MetaWrite => 1,
            OpKind::CheckpointWrite => 2,
            OpKind::WireRead => 3,
            OpKind::WireWrite => 4,
        }
    }

    /// Whether this operation moves bytes toward durable storage (the
    /// alternative being the wire).
    pub fn is_storage(self) -> bool {
        matches!(
            self,
            OpKind::JournalWrite | OpKind::MetaWrite | OpKind::CheckpointWrite
        )
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OpKind::JournalWrite => "journal-write",
            OpKind::MetaWrite => "meta-write",
            OpKind::CheckpointWrite => "checkpoint-write",
            OpKind::WireRead => "wire-read",
            OpKind::WireWrite => "wire-write",
        };
        f.write_str(name)
    }
}

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// A write persists only a prefix of the buffer, then errors —
    /// the classic torn line / torn page.
    TornWrite,
    /// The write fails outright with `ENOSPC` semantics; nothing is
    /// persisted.
    Enospc,
    /// The operation succeeds after an injected stall.
    Delay,
    /// A read returns fewer bytes than asked for (the caller must
    /// loop; naive code sees truncated frames).
    ShortRead,
    /// The connection dies mid-stream (`ConnectionReset`).
    Disconnect,
}

impl FaultKind {
    /// Every fault kind, in schedule order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::TornWrite,
        FaultKind::Enospc,
        FaultKind::Delay,
        FaultKind::ShortRead,
        FaultKind::Disconnect,
    ];
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultKind::TornWrite => "torn-write",
            FaultKind::Enospc => "enospc",
            FaultKind::Delay => "delay",
            FaultKind::ShortRead => "short-read",
            FaultKind::Disconnect => "disconnect",
        };
        f.write_str(name)
    }
}

/// A scheduled fault: what fires, plus a deterministic magnitude the
/// injector interprets per kind (bytes to keep for a torn write, bytes
/// to deliver for a short read, microseconds for a delay).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Which fault fires.
    pub kind: FaultKind,
    /// Kind-specific magnitude draw (see type docs).
    pub magnitude: u64,
}

/// Per-mille fault rates. Every rate is independent per operation
/// class; an all-zero spec is a no-op plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Torn-write rate for storage and wire writes.
    pub torn_write_per_mille: u32,
    /// `ENOSPC` rate for storage writes.
    pub enospc_per_mille: u32,
    /// Stall rate for every operation.
    pub delay_per_mille: u32,
    /// Short-read rate for wire reads.
    pub short_read_per_mille: u32,
    /// Mid-stream disconnect rate for wire reads and writes.
    pub disconnect_per_mille: u32,
    /// Upper bound on an injected stall, in microseconds.
    pub max_delay_us: u64,
}

impl FaultSpec {
    /// A spec that never fires — the explicit "chaos off" value.
    pub const QUIET: FaultSpec = FaultSpec {
        torn_write_per_mille: 0,
        enospc_per_mille: 0,
        delay_per_mille: 0,
        short_read_per_mille: 0,
        disconnect_per_mille: 0,
        max_delay_us: 0,
    };

    /// The default soak mix: every fault kind fires a few percent of
    /// the time, stalls stay under a millisecond.
    pub const SOAK: FaultSpec = FaultSpec {
        torn_write_per_mille: 30,
        enospc_per_mille: 20,
        delay_per_mille: 40,
        short_read_per_mille: 60,
        disconnect_per_mille: 25,
        max_delay_us: 800,
    };

    /// The fault kinds applicable to `op`, each with its rate, in the
    /// fixed schedule order.
    fn applicable(&self, op: OpKind) -> [(FaultKind, u32); 3] {
        match op {
            OpKind::JournalWrite | OpKind::MetaWrite | OpKind::CheckpointWrite => [
                (FaultKind::TornWrite, self.torn_write_per_mille),
                (FaultKind::Enospc, self.enospc_per_mille),
                (FaultKind::Delay, self.delay_per_mille),
            ],
            OpKind::WireRead => [
                (FaultKind::ShortRead, self.short_read_per_mille),
                (FaultKind::Disconnect, self.disconnect_per_mille),
                (FaultKind::Delay, self.delay_per_mille),
            ],
            OpKind::WireWrite => [
                (FaultKind::TornWrite, self.torn_write_per_mille),
                (FaultKind::Disconnect, self.disconnect_per_mille),
                (FaultKind::Delay, self.delay_per_mille),
            ],
        }
    }
}

/// A seeded fault schedule plus per-kind occurrence counters.
///
/// ```
/// use pdf_chaos::{FaultPlan, FaultSpec, OpKind};
///
/// let plan = FaultPlan::new(42, FaultSpec::SOAK);
/// // The schedule is a pure function: same (seed, op, index) in any
/// // plan with the same spec gives the same decision.
/// let other = FaultPlan::new(42, FaultSpec::SOAK);
/// for n in 0..1000 {
///     assert_eq!(
///         plan.schedule_for(OpKind::WireRead, n),
///         other.schedule_for(OpKind::WireRead, n),
///     );
/// }
/// ```
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    spec: FaultSpec,
    counters: [AtomicU64; 5],
    injected: AtomicU64,
}

impl FaultPlan {
    /// A plan over `spec` with schedule seed `seed`.
    pub fn new(seed: u64, spec: FaultSpec) -> FaultPlan {
        FaultPlan {
            seed,
            spec,
            counters: Default::default(),
            injected: AtomicU64::new(0),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's rate spec.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// The schedule as a pure function: the decision for the `n`th
    /// occurrence of `op`, without consuming an occurrence.
    pub fn schedule_for(&self, op: OpKind, n: u64) -> Option<Fault> {
        // Two independent draws: one picks the fault, one its magnitude.
        let draw = splitmix64(
            self.seed
                .wrapping_mul(0x0100_0000_01b3)
                .wrapping_add((op.index() as u64) << 56)
                .wrapping_add(n),
        );
        let magnitude = splitmix64(draw);
        let roll = (draw % 1000) as u32;
        let mut cumulative = 0u32;
        for (kind, rate) in self.spec.applicable(op) {
            cumulative = cumulative.saturating_add(rate);
            if roll < cumulative {
                return Some(Fault { kind, magnitude });
            }
        }
        None
    }

    /// Consumes the next occurrence of `op` and returns its scheduled
    /// fault, if any. Bumps the injected-fault counter when one fires.
    pub fn decide(&self, op: OpKind) -> Option<Fault> {
        let n = self.counters[op.index()].fetch_add(1, Ordering::Relaxed);
        let fault = self.schedule_for(op, n);
        if fault.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }

    /// How many occurrences of `op` have been consumed so far.
    pub fn occurrences(&self, op: OpKind) -> u64 {
        self.counters[op.index()].load(Ordering::Relaxed)
    }

    /// Total faults fired by [`decide`](Self::decide) so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The injected stall for `fault`, clamped to the spec's bound.
    pub fn delay_of(&self, fault: Fault) -> std::time::Duration {
        let us = if self.spec.max_delay_us == 0 {
            0
        } else {
            fault.magnitude % (self.spec.max_delay_us + 1)
        };
        std::time::Duration::from_micros(us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_pure_and_counterless() {
        let plan = FaultPlan::new(7, FaultSpec::SOAK);
        let a: Vec<_> = (0..256)
            .map(|n| plan.schedule_for(OpKind::JournalWrite, n))
            .collect();
        // Consuming occurrences of *other* kinds must not move the
        // journal schedule.
        for _ in 0..100 {
            plan.decide(OpKind::WireRead);
        }
        let b: Vec<_> = (0..256)
            .map(|n| plan.schedule_for(OpKind::JournalWrite, n))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn decide_walks_the_schedule_in_order() {
        let plan = FaultPlan::new(99, FaultSpec::SOAK);
        let expect: Vec<_> = (0..64)
            .map(|n| plan.schedule_for(OpKind::WireWrite, n))
            .collect();
        let got: Vec<_> = (0..64).map(|_| plan.decide(OpKind::WireWrite)).collect();
        assert_eq!(got, expect);
        assert_eq!(plan.occurrences(OpKind::WireWrite), 64);
    }

    #[test]
    fn quiet_spec_never_fires() {
        let plan = FaultPlan::new(1234, FaultSpec::QUIET);
        for op in OpKind::ALL {
            for n in 0..500 {
                assert_eq!(plan.schedule_for(op, n), None);
            }
        }
        assert_eq!(plan.injected(), 0);
    }

    #[test]
    fn applicable_kinds_respect_op_class() {
        let plan = FaultPlan::new(5, FaultSpec::SOAK);
        for n in 0..4000 {
            if let Some(f) = plan.schedule_for(OpKind::JournalWrite, n) {
                assert!(
                    matches!(
                        f.kind,
                        FaultKind::TornWrite | FaultKind::Enospc | FaultKind::Delay
                    ),
                    "storage write drew {:?}",
                    f.kind
                );
            }
            if let Some(f) = plan.schedule_for(OpKind::WireRead, n) {
                assert!(
                    matches!(
                        f.kind,
                        FaultKind::ShortRead | FaultKind::Disconnect | FaultKind::Delay
                    ),
                    "wire read drew {:?}",
                    f.kind
                );
            }
        }
    }

    #[test]
    fn delay_respects_bound() {
        let plan = FaultPlan::new(3, FaultSpec::SOAK);
        for n in 0..2000 {
            for op in OpKind::ALL {
                if let Some(f) = plan.schedule_for(op, n) {
                    assert!(plan.delay_of(f).as_micros() as u64 <= FaultSpec::SOAK.max_delay_us);
                }
            }
        }
    }
}
