//! Branch identifiers and branch sets.

use std::fmt;

use crate::site::SiteId;

/// A dynamic branch: a static site together with the direction taken.
///
/// Comparison sites produce two branches (outcome `true` / `false`);
/// plain coverage points (`ExecCtx::cov`) produce a single branch with
/// `outcome = true`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BranchId {
    /// The static location of the branch.
    pub site: SiteId,
    /// Which way the branch went.
    pub outcome: bool,
}

impl BranchId {
    /// Creates a branch id.
    pub fn new(site: SiteId, outcome: bool) -> Self {
        BranchId { site, outcome }
    }
}

impl fmt::Display for BranchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.site, if self.outcome { "T" } else { "F" })
    }
}

/// A set of covered branches.
///
/// Used both per-execution (the branches one run covered) and globally
/// (`vBr` in Algorithm 1 of the paper: all branches covered by valid
/// inputs so far).
///
/// # Example
///
/// ```
/// use pdf_runtime::{BranchId, BranchSet, SiteId};
/// let mut a = BranchSet::new();
/// a.insert(BranchId::new(SiteId::from_raw(1), true));
/// let mut b = BranchSet::new();
/// b.insert(BranchId::new(SiteId::from_raw(1), true));
/// b.insert(BranchId::new(SiteId::from_raw(2), false));
/// assert_eq!(b.difference_size(&a), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BranchSet {
    /// Sorted, deduplicated. Branch sets are small (tens of branches per
    /// subject), so a flat sorted vector beats a tree set: one
    /// allocation, cache-friendly binary search, and `collect` from a
    /// long branch sequence is a sort + dedup instead of per-node
    /// insertions. Building these per execution is the hot path of the
    /// streaming sinks.
    set: Vec<BranchId>,
}

impl BranchSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the set of distinct branches in an execution-order
    /// sequence. Faster than `collect()` when the sequence is much
    /// longer than its distinct-branch count (the per-execution case):
    /// it never materialises the full sequence, only the small set.
    pub fn from_seq(seq: &[BranchId]) -> Self {
        // Linear-probe scratch table on the stack (4 KiB: the bool niche
        // keeps Option<BranchId> at 16 bytes). Site ids are FNV hashes,
        // so the low bits probe well. Typical runs cover a few dozen
        // distinct branches; a dense run falls back to sorting.
        const SLOTS: usize = 256;
        if seq.len() <= 32 {
            // sort + dedup beats zeroing the probe table for short runs
            return seq.iter().copied().collect();
        }
        let mut table: [Option<BranchId>; SLOTS] = [None; SLOTS];
        let mut count = 0usize;
        let mut last: Option<BranchId> = None;
        for &b in seq {
            // runs of the same branch are common in parse loops
            if last == Some(b) {
                continue;
            }
            last = Some(b);
            let mut i = ((b.site.0 ^ u64::from(b.outcome)) as usize) & (SLOTS - 1);
            loop {
                match table[i] {
                    Some(x) if x == b => break,
                    Some(_) => i = (i + 1) & (SLOTS - 1),
                    None => {
                        if count >= SLOTS / 2 {
                            return seq.iter().copied().collect();
                        }
                        table[i] = Some(b);
                        count += 1;
                        break;
                    }
                }
            }
        }
        let mut set: Vec<BranchId> = table.iter().flatten().copied().collect();
        set.sort_unstable();
        BranchSet { set }
    }

    /// The set of `distinct`, which holds no duplicates.
    pub(crate) fn from_distinct(mut distinct: Vec<BranchId>) -> Self {
        distinct.sort_unstable();
        debug_assert!(distinct.windows(2).all(|w| w[0] != w[1]));
        BranchSet { set: distinct }
    }

    /// Inserts a branch; returns `true` if it was not present before.
    pub fn insert(&mut self, b: BranchId) -> bool {
        match self.set.binary_search(&b) {
            Ok(_) => false,
            Err(i) => {
                self.set.insert(i, b);
                true
            }
        }
    }

    /// Whether the branch is present.
    pub fn contains(&self, b: &BranchId) -> bool {
        self.set.binary_search(b).is_ok()
    }

    /// Number of branches in the set.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Iterates over the branches in deterministic (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = &BranchId> {
        self.set.iter()
    }

    /// Number of branches in `self` that are not in `other`
    /// (`size(branches \ vBr)` in Algorithm 1). A merge walk over the
    /// two sorted sets.
    pub fn difference_size(&self, other: &BranchSet) -> usize {
        let mut count = 0;
        let mut o = other.set.iter().peekable();
        for b in &self.set {
            while o.next_if(|&x| x < b).is_some() {}
            if o.peek() != Some(&b) {
                count += 1;
            }
        }
        count
    }

    /// Whether every branch of `self` is in `other`. A merge walk over
    /// the two sorted sets.
    fn is_subset(&self, other: &BranchSet) -> bool {
        let mut o = other.set.iter();
        self.set.iter().all(|b| o.any(|x| x == b))
    }

    /// Adds every branch of `other` to `self`. When `other` adds nothing
    /// (the common case for a campaign's running coverage) this is one
    /// merge walk and no allocation.
    pub fn union_with(&mut self, other: &BranchSet) {
        if other.is_subset(self) {
            return;
        }
        if self.set.is_empty() {
            self.set = other.set.clone();
            return;
        }
        let mut merged = Vec::with_capacity(self.set.len() + other.set.len());
        let (mut i, mut j) = (0, 0);
        while i < self.set.len() && j < other.set.len() {
            match self.set[i].cmp(&other.set[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(self.set[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(other.set[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(self.set[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.set[i..]);
        merged.extend_from_slice(&other.set[j..]);
        self.set = merged;
    }

    /// A stable 64-bit hash of the set, used for path deduplication
    /// (Section 3.2: "pFuzzer keeps track of all paths that were already
    /// taken").
    pub fn path_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in &self.set {
            h ^= b.site.0 ^ u64::from(b.outcome);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

/// The distinct branches of one run in first-seen order, behind an
/// exact open-addressing index. The index is reused across runs without
/// zeroing: each slot carries the stamp of the run that filled it, and
/// [`reset`](DistinctBranches::reset) starts a run by bumping the stamp.
#[derive(Debug, Default)]
pub(crate) struct DistinctBranches {
    order: Vec<BranchId>,
    /// `(stamp, position in order)`; live only under the current stamp.
    /// Empty or a power of two at most half full.
    slots: Vec<(u32, u32)>,
    stamp: u32,
    /// The latest insert: parse loops repeat a branch many times in a row.
    last: Option<BranchId>,
}

impl DistinctBranches {
    const MIN_SLOTS: usize = 64;

    /// Forgets the previous run's branches, keeping every allocation.
    pub(crate) fn reset(&mut self) {
        self.order.clear();
        self.last = None;
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // once every 2^32 runs: stale stamps could alias, so clear them
            self.slots.fill((0, 0));
            self.stamp = 1;
        }
    }

    /// Records `b`, if new, at the end of the first-seen order.
    pub(crate) fn insert(&mut self, b: BranchId) {
        debug_assert_ne!(self.stamp, 0, "reset before the first insert");
        if self.last == Some(b) {
            return;
        }
        self.last = Some(b);
        if 2 * (self.order.len() + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::home(b) & mask;
        loop {
            let (stamp, pos) = self.slots[i];
            if stamp != self.stamp {
                self.slots[i] = (self.stamp, self.order.len() as u32);
                self.order.push(b);
                return;
            }
            if self.order[pos as usize] == b {
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Number of distinct branches so far.
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// The set of the first `n` distinct branches: exactly the branches
    /// of the raw sequence up to the point where the `n+1`-th first
    /// appeared.
    pub(crate) fn first(&self, n: usize) -> BranchSet {
        BranchSet::from_distinct(self.order[..n].to_vec())
    }

    fn home(b: BranchId) -> usize {
        ((b.site.0 ^ u64::from(b.outcome)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize
    }

    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(Self::MIN_SLOTS);
        self.slots.clear();
        self.slots.resize(len, (0, 0));
        let mask = len - 1;
        for (pos, &b) in self.order.iter().enumerate() {
            let mut i = Self::home(b) & mask;
            while self.slots[i].0 == self.stamp {
                i = (i + 1) & mask;
            }
            self.slots[i] = (self.stamp, pos as u32);
        }
    }
}

impl FromIterator<BranchId> for BranchSet {
    fn from_iter<I: IntoIterator<Item = BranchId>>(iter: I) -> Self {
        let mut set: Vec<BranchId> = iter.into_iter().collect();
        set.sort_unstable();
        set.dedup();
        BranchSet { set }
    }
}

impl Extend<BranchId> for BranchSet {
    fn extend<I: IntoIterator<Item = BranchId>>(&mut self, iter: I) {
        self.set.extend(iter);
        self.set.sort_unstable();
        self.set.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(raw: u64, outcome: bool) -> BranchId {
        BranchId::new(SiteId::from_raw(raw), outcome)
    }

    #[test]
    fn insert_and_contains() {
        let mut s = BranchSet::new();
        assert!(s.insert(b(1, true)));
        assert!(!s.insert(b(1, true)));
        assert!(s.contains(&b(1, true)));
        assert!(!s.contains(&b(1, false)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn difference_counts_new_branches_only() {
        let old: BranchSet = [b(1, true), b(2, true)].into_iter().collect();
        let run: BranchSet = [b(1, true), b(3, false), b(4, true)].into_iter().collect();
        assert_eq!(run.difference_size(&old), 2);
        assert_eq!(old.difference_size(&run), 1);
    }

    #[test]
    fn union_with_grows() {
        let mut a: BranchSet = [b(1, true)].into_iter().collect();
        let c: BranchSet = [b(1, true), b(2, false)].into_iter().collect();
        a.union_with(&c);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn path_hash_distinguishes_paths() {
        let p1: BranchSet = [b(1, true), b(2, true)].into_iter().collect();
        let p2: BranchSet = [b(1, true), b(2, false)].into_iter().collect();
        assert_ne!(p1.path_hash(), p2.path_hash());
    }

    #[test]
    fn path_hash_is_order_independent() {
        let p1: BranchSet = [b(1, true), b(2, true)].into_iter().collect();
        let p2: BranchSet = [b(2, true), b(1, true)].into_iter().collect();
        assert_eq!(p1.path_hash(), p2.path_hash());
    }

    #[test]
    fn empty_set_behaviour() {
        let s = BranchSet::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.difference_size(&s), 0);
    }

    #[test]
    fn from_seq_matches_collect() {
        // repeated runs, duplicates out of order, and enough distinct
        // branches to force probing past the first slot
        let mut seq = Vec::new();
        for i in 0..400u64 {
            seq.push(b(i % 37, i % 3 == 0));
            seq.push(b(i % 37, i % 3 == 0));
            seq.push(b((i * 7) % 11, true));
        }
        let fast = BranchSet::from_seq(&seq);
        let reference: BranchSet = seq.iter().copied().collect();
        assert_eq!(fast, reference);
        assert_eq!(BranchSet::from_seq(&[]), BranchSet::new());
    }

    #[test]
    fn from_seq_dense_fallback_matches_collect() {
        // more than SLOTS/2 distinct branches triggers the sort fallback
        let seq: Vec<BranchId> = (0..300u64).map(|i| b(i, i % 2 == 0)).collect();
        let fast = BranchSet::from_seq(&seq);
        let reference: BranchSet = seq.iter().copied().collect();
        assert_eq!(fast, reference);
        assert_eq!(fast.len(), 300);
    }

    #[test]
    fn union_with_subset_keeps_set() {
        let mut a: BranchSet = [b(1, true), b(5, false), b(9, true)].into_iter().collect();
        let sub: BranchSet = [b(5, false), b(9, true)].into_iter().collect();
        assert!(sub.is_subset(&a));
        assert!(BranchSet::new().is_subset(&a));
        assert!(!a.is_subset(&sub));
        let before = a.clone();
        a.union_with(&sub);
        assert_eq!(a, before);
        let disjoint: BranchSet = [b(0, true), b(7, true), b(10, false)].into_iter().collect();
        a.union_with(&disjoint);
        assert_eq!(a.len(), 6);
        let mut empty = BranchSet::new();
        empty.union_with(&disjoint);
        assert_eq!(empty, disjoint);
    }

    #[test]
    fn distinct_branches_match_from_seq_across_reused_runs() {
        let mut distinct = DistinctBranches::default();
        // a dense run grows the index past its first size; the shorter
        // runs after it reuse the grown, dirty slots
        let runs: Vec<Vec<BranchId>> = vec![
            (0..700u64).map(|i| b(i % 300, i % 3 == 0)).collect(),
            vec![b(4, true), b(4, true), b(2, false), b(4, true)],
            vec![],
            (0..40u64).map(|i| b(i % 13, true)).collect(),
        ];
        for seq in runs.iter().chain(&runs) {
            distinct.reset();
            for &x in seq {
                distinct.insert(x);
            }
            assert_eq!(distinct.first(distinct.len()), BranchSet::from_seq(seq));
            for w in 0..=distinct.len() {
                // the first w distinct branches are a prefix of the raw sequence's
                let cut = seq
                    .iter()
                    .position(|x| !distinct.order[..w].contains(x))
                    .unwrap_or(seq.len());
                assert_eq!(distinct.first(w), BranchSet::from_seq(&seq[..cut]));
            }
        }
    }

    #[test]
    fn distinct_branches_allocate_on_first_insert() {
        // an `ExecArena` holds one of these, and `ExecArena::new()` must
        // not allocate: neither may construction nor starting a run
        let mut distinct = DistinctBranches::default();
        distinct.reset();
        assert_eq!(distinct.slots.capacity() + distinct.order.capacity(), 0);
        distinct.insert(b(1, true));
        assert_eq!(distinct.slots.len(), DistinctBranches::MIN_SLOTS);
    }

    #[test]
    fn distinct_branches_survive_stamp_wraparound() {
        let mut distinct = DistinctBranches::default();
        distinct.reset();
        distinct.insert(b(1, true));
        distinct.stamp = u32::MAX;
        distinct.reset();
        assert_eq!(distinct.stamp, 1);
        // slot stamps written under the old counter must not alias
        distinct.insert(b(1, true));
        assert_eq!(distinct.len(), 1);
    }

    #[test]
    fn difference_size_merge_walk_cases() {
        let empty = BranchSet::new();
        let a: BranchSet = [b(1, true), b(5, false), b(9, true)].into_iter().collect();
        let c: BranchSet = [b(5, false)].into_iter().collect();
        assert_eq!(a.difference_size(&empty), 3);
        assert_eq!(empty.difference_size(&a), 0);
        assert_eq!(a.difference_size(&c), 2);
        assert_eq!(c.difference_size(&a), 0);
        let disjoint: BranchSet = [b(2, true), b(100, false)].into_iter().collect();
        assert_eq!(a.difference_size(&disjoint), 3);
    }
}
