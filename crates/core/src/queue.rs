//! The candidate priority queue of Algorithm 1.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use pdf_runtime::BranchSet;

use crate::checkpoint::{branch_pairs_of, branch_set_of, family_ids, SharedBranches};
use crate::config::HeuristicConfig;
use crate::heuristic::score_parts;
use crate::{QueueItemSnapshot, QueueSnapshot};

/// A not-yet-executed candidate input plus everything needed to
/// (re-)compute its heuristic value without re-running it (Section 3.2:
/// "storing all relevant information to compute the heuristic along with
/// the already executed input").
#[derive(Debug, Clone)]
pub struct QueueEntry {
    /// The candidate input.
    pub input: Vec<u8>,
    /// Branches the *parent* run covered up to its rejection point.
    pub parent_branches: BranchSet,
    /// `len(c)`: length of the replacement that produced this candidate.
    pub replacement_len: usize,
    /// Average stack depth over the parent's last two comparisons.
    pub avg_stack: f64,
    /// Number of substitutions on the path from the initial input.
    pub num_parents: usize,
    /// Path hash of the parent run (for path-dedup ranking).
    pub path_hash: u64,
}

/// What every candidate derived from one failing run shares: the
/// parent's coverage up to its rejection point, its stack depth, its
/// lineage and its path. A run yields tens of sibling candidates, so the
/// queue stores these fields, and computes the new-branch term they
/// feed, once per family instead of once per candidate.
#[derive(Debug, Clone)]
pub(crate) struct Family {
    pub parent_branches: BranchSet,
    pub avg_stack: f64,
    pub num_parents: usize,
    pub path_hash: u64,
}

impl Family {
    /// Splits an entry into its family and its own `(input,
    /// replacement_len)`; [`entry`](Self::entry) is the inverse.
    fn split(entry: QueueEntry) -> (Family, Vec<u8>, usize) {
        let family = Family {
            parent_branches: entry.parent_branches,
            avg_stack: entry.avg_stack,
            num_parents: entry.num_parents,
            path_hash: entry.path_hash,
        };
        (family, entry.input, entry.replacement_len)
    }

    fn entry(
        &self,
        parent_branches: BranchSet,
        input: Vec<u8>,
        replacement_len: usize,
    ) -> QueueEntry {
        QueueEntry {
            input,
            parent_branches,
            replacement_len,
            avg_stack: self.avg_stack,
            num_parents: self.num_parents,
            path_hash: self.path_hash,
        }
    }
}

#[derive(Debug)]
struct FamilySlot {
    family: Family,
    /// `vBr.len()` when `new_branches` was last counted.
    counted_at: Option<usize>,
    /// `size(parent_branches \ vBr)`.
    new_branches: usize,
    /// `ln_1p(path_seen)` as of the last rescoring.
    path_penalty: f64,
    /// Queued candidates of this family; the slot is recycled at zero.
    live: usize,
}

impl FamilySlot {
    /// Recounts the new-branch term only when `vBr` grew since the last
    /// count (see the monotonicity precondition on [`CandidateQueue`]).
    fn count_new_branches(&mut self, v_br: &BranchSet) {
        if self.counted_at != Some(v_br.len()) {
            self.new_branches = self.family.parent_branches.difference_size(v_br);
            self.counted_at = Some(v_br.len());
        }
    }
}

#[derive(Debug)]
struct HeapItem {
    score: f64,
    seq: u64,
    input: Vec<u8>,
    replacement_len: usize,
    /// Index of the item's [`FamilySlot`].
    family: usize,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.input == other.input && self.seq == other.seq
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on score. Ties break on the candidate *content*
        // (lexicographically smaller input first) so the pop order is a
        // pure function of the queued set — permuting the insertion
        // order of equal-score entries cannot change it. Only truly
        // identical inputs fall back to FIFO on the insertion index.
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.input.cmp(&self.input))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// How many pops may pass before scores are refreshed against the
/// drifting path-seen counts. Rescoring against a changed `vBr` happens
/// immediately.
const REBUILD_INTERVAL: usize = 256;

/// Max-priority queue over [`QueueEntry`], scored by
/// [`score`](crate::score).
///
/// Scores are cached at push time and refreshed (Algorithm 1, lines
/// 40–43: "reorder inp in queue based on cov") whenever the set of
/// branches covered by valid inputs grows, plus periodically to absorb
/// path-dedup drift — the same "recalculate the heuristic instead of
/// re-running the input" optimization Section 3.2 describes.
///
/// Candidates are grouped into families, one per failing run, that
/// share the parent's branch set; a refresh counts each family's new
/// branches and path penalty once and then rescores its members.
///
/// **Precondition:** the `vBr` passed to successive calls only grows
/// (the driver's steering set is only ever extended by union), so two
/// sets of equal size are equal. Families cache their new-branch count
/// keyed by `vBr.len()`, and [`pop`](Self::pop) detects growth the same
/// way.
///
/// # Example
///
/// ```
/// use pdf_core::{CandidateQueue, HeuristicConfig, QueueEntry};
/// use pdf_runtime::BranchSet;
///
/// let mut q = CandidateQueue::new(HeuristicConfig::default());
/// let v_br = BranchSet::new();
/// q.push(QueueEntry {
///     input: b"(".to_vec(),
///     parent_branches: BranchSet::new(),
///     replacement_len: 1,
///     avg_stack: 0.0,
///     num_parents: 0,
///     path_hash: 0,
/// }, &v_br);
/// assert_eq!(q.len(), 1);
/// assert_eq!(q.pop(&v_br).unwrap().input, b"(".to_vec());
/// ```
#[derive(Debug)]
pub struct CandidateQueue {
    heap: BinaryHeap<HeapItem>,
    /// Family slots indexed by [`HeapItem::family`]; `free` lists the
    /// slots with no live member.
    families: Vec<FamilySlot>,
    free: Vec<usize>,
    /// How often each execution path has been seen (queued + executed).
    path_counts: HashMap<u64, usize>,
    cfg: HeuristicConfig,
    seq: u64,
    last_vbr_len: usize,
    pops_since_rebuild: usize,
}

fn path_penalty(path_counts: &HashMap<u64, usize>, path_hash: u64) -> f64 {
    let seen = path_counts
        .get(&path_hash)
        .copied()
        .unwrap_or(0)
        .saturating_sub(1);
    (seen as f64).ln_1p()
}

impl CandidateQueue {
    /// Creates an empty queue with the given heuristic configuration.
    pub fn new(cfg: HeuristicConfig) -> Self {
        CandidateQueue {
            heap: BinaryHeap::new(),
            families: Vec::new(),
            free: Vec::new(),
            path_counts: HashMap::new(),
            cfg,
            seq: 0,
            last_vbr_len: 0,
            pops_since_rebuild: 0,
        }
    }

    /// Number of queued candidates.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Inserts a candidate, scored against the current `vBr`
    /// (Algorithm 1, line 23). A family of one.
    pub fn push(&mut self, entry: QueueEntry, v_br: &BranchSet) {
        let (family, input, replacement_len) = Family::split(entry);
        self.push_family(family, [(input, replacement_len)], v_br);
    }

    /// Inserts the `(input, replacement_len)` siblings of one failing run
    /// in order, each scored against the current `vBr` exactly as a
    /// [`push`](Self::push) of it would be.
    pub(crate) fn push_family(
        &mut self,
        family: Family,
        siblings: impl IntoIterator<Item = (Vec<u8>, usize)>,
        v_br: &BranchSet,
    ) {
        let mut siblings = siblings.into_iter().peekable();
        if siblings.peek().is_none() {
            return;
        }
        let id = self.open(family);
        let slot = &mut self.families[id];
        slot.count_new_branches(v_br);
        let seen = self.path_counts.entry(slot.family.path_hash).or_insert(0);
        for (input, replacement_len) in siblings {
            *seen += 1;
            let score = score_parts(
                &self.cfg,
                slot.new_branches,
                ((*seen - 1) as f64).ln_1p(),
                slot.family.avg_stack,
                slot.family.num_parents,
                input.len(),
                replacement_len,
            );
            slot.live += 1;
            self.heap.push(HeapItem {
                score,
                seq: self.seq,
                input,
                replacement_len,
                family: id,
            });
            self.seq += 1;
        }
    }

    fn open(&mut self, family: Family) -> usize {
        let slot = FamilySlot {
            family,
            counted_at: None,
            new_branches: 0,
            path_penalty: 0.0,
            live: 0,
        };
        match self.free.pop() {
            Some(id) => {
                self.families[id] = slot;
                id
            }
            None => {
                self.families.push(slot);
                self.families.len() - 1
            }
        }
    }

    /// Drops one member from family `id`; true when it was the last, and
    /// the slot is now free for reuse.
    fn release(&mut self, id: usize) -> bool {
        let slot = &mut self.families[id];
        slot.live -= 1;
        if slot.live == 0 {
            self.free.push(id);
        }
        slot.live == 0
    }

    /// Turns a removed item back into an entry, handing over the
    /// family's branch set when it was the last member.
    fn detach(&mut self, item: HeapItem) -> QueueEntry {
        let last = self.release(item.family);
        let family = &mut self.families[item.family].family;
        let parent_branches = if last {
            std::mem::take(&mut family.parent_branches)
        } else {
            family.parent_branches.clone()
        };
        family.entry(parent_branches, item.input, item.replacement_len)
    }

    /// Removes and returns the highest-scoring candidate, refreshing
    /// stale scores first when `vBr` grew since the last pop.
    pub fn pop(&mut self, v_br: &BranchSet) -> Option<QueueEntry> {
        if v_br.len() != self.last_vbr_len || self.pops_since_rebuild >= REBUILD_INTERVAL {
            self.rebuild(v_br);
        }
        self.pops_since_rebuild += 1;
        let item = self.heap.pop()?;
        Some(self.detach(item))
    }

    /// Removes the newest candidate regardless of score (naive
    /// depth-first search, for the Section 3 ablation).
    pub fn pop_newest(&mut self) -> Option<QueueEntry> {
        self.remove(|items| {
            let newest = items.iter().enumerate().max_by_key(|(_, i)| i.seq);
            newest.map(|(at, _)| at)
        })
    }

    /// Removes the oldest candidate regardless of score (naive
    /// breadth-first search, for the Section 3 ablation).
    pub fn pop_oldest(&mut self) -> Option<QueueEntry> {
        self.remove(|items| {
            let oldest = items.iter().enumerate().min_by_key(|(_, i)| i.seq);
            oldest.map(|(at, _)| at)
        })
    }

    /// Removes the item at the index `find` picks from the heap's items.
    fn remove(&mut self, find: impl FnOnce(&[HeapItem]) -> Option<usize>) -> Option<QueueEntry> {
        let mut items = std::mem::take(&mut self.heap).into_vec();
        let picked = find(&items).map(|at| items.swap_remove(at));
        self.heap = BinaryHeap::from(items);
        picked.map(|item| self.detach(item))
    }

    /// Records that a path was executed once more (lowers the rank of
    /// queued candidates sharing it at the next refresh).
    pub fn note_path(&mut self, path_hash: u64) {
        *self.path_counts.entry(path_hash).or_insert(0) += 1;
    }

    /// Recomputes every cached score against the current `vBr` and path
    /// counts.
    pub fn rebuild(&mut self, v_br: &BranchSet) {
        let items = self.rescored(v_br);
        self.heap = BinaryHeap::from(items);
    }

    /// Takes the heap's items with fresh scores: the new-branch and
    /// path-penalty terms once per live family, then each member.
    fn rescored(&mut self, v_br: &BranchSet) -> Vec<HeapItem> {
        self.last_vbr_len = v_br.len();
        self.pops_since_rebuild = 0;
        for slot in self.families.iter_mut().filter(|slot| slot.live > 0) {
            slot.count_new_branches(v_br);
            slot.path_penalty = path_penalty(&self.path_counts, slot.family.path_hash);
        }
        let mut items = std::mem::take(&mut self.heap).into_vec();
        for item in &mut items {
            let slot = &self.families[item.family];
            item.score = score_parts(
                &self.cfg,
                slot.new_branches,
                slot.path_penalty,
                slot.family.avg_stack,
                slot.family.num_parents,
                item.input.len(),
                item.replacement_len,
            );
        }
        items
    }

    /// Drops the worst-scoring entries, keeping the best `keep`. Called
    /// when the queue grows beyond the driver's bound.
    pub fn shrink(&mut self, keep: usize, v_br: &BranchSet) {
        if self.heap.len() <= keep {
            return;
        }
        let mut items = self.rescored(v_br);
        items.select_nth_unstable_by(keep, |a, b| b.cmp(a));
        for item in items.drain(keep..) {
            self.release(item.family);
        }
        self.heap = BinaryHeap::from(items);
    }

    /// Captures the queue's complete state for a checkpoint, items in
    /// insertion order. Items carry their *cached* scores: scores are
    /// only recomputed at rebuild points, so a restored queue must
    /// reproduce the stale values bit-exactly or pop order could differ
    /// between a resumed and an uninterrupted campaign. Each live
    /// family's branch set is flattened once and shared by its members.
    /// Because [`HeapItem`]'s ordering is a pure function of the queued
    /// set, re-pushing the items in any order reproduces the exact pop
    /// sequence.
    pub(crate) fn snapshot_state(&self) -> QueueSnapshot {
        let mut shared: Vec<Option<SharedBranches>> = vec![None; self.families.len()];
        let mut items: Vec<QueueItemSnapshot> = self
            .heap
            .iter()
            .map(|i| {
                let family = &self.families[i.family].family;
                let branches = shared[i.family]
                    .get_or_insert_with(|| branch_pairs_of(&family.parent_branches).into());
                QueueItemSnapshot {
                    score_bits: i.score.to_bits(),
                    seq: i.seq,
                    input: i.input.clone(),
                    parent_branches: Arc::clone(branches),
                    replacement_len: i.replacement_len as u64,
                    avg_stack_bits: family.avg_stack.to_bits(),
                    num_parents: family.num_parents as u64,
                    path_hash: family.path_hash,
                }
            })
            .collect();
        items.sort_by_key(|i| i.seq);
        let mut path_counts: Vec<(u64, u64)> = self
            .path_counts
            .iter()
            .map(|(&k, &v)| (k, v as u64))
            .collect();
        path_counts.sort_unstable();
        QueueSnapshot {
            items,
            path_counts,
            seq: self.seq,
            last_vbr_len: self.last_vbr_len as u64,
            pops_since_rebuild: self.pops_since_rebuild as u64,
        }
    }

    /// Rebuilds a queue from a snapshot, preserving cached scores and
    /// rebuild counters verbatim (no rescoring — see
    /// [`snapshot_state`](Self::snapshot_state)). Items with the same
    /// canonical family id ([`family_ids`]) share one family again.
    pub(crate) fn restore_state(cfg: HeuristicConfig, state: QueueSnapshot) -> Self {
        let mut q = CandidateQueue::new(cfg);
        let ids = family_ids(&state.items);
        let mut items = Vec::with_capacity(state.items.len());
        for (item, id) in state.items.into_iter().zip(ids) {
            // ids count up in first-seen order, so slot `id` is the
            // family's (a fresh queue has no free slot to reuse)
            if id == q.families.len() {
                q.open(Family {
                    parent_branches: branch_set_of(&item.parent_branches),
                    avg_stack: f64::from_bits(item.avg_stack_bits),
                    num_parents: item.num_parents as usize,
                    path_hash: item.path_hash,
                });
            }
            q.families[id].live += 1;
            items.push(HeapItem {
                score: f64::from_bits(item.score_bits),
                seq: item.seq,
                input: item.input,
                replacement_len: item.replacement_len as usize,
                family: id,
            });
        }
        q.heap = BinaryHeap::from(items);
        q.path_counts = state
            .path_counts
            .into_iter()
            .map(|(h, n)| (h, n as usize))
            .collect();
        q.seq = state.seq;
        q.last_vbr_len = state.last_vbr_len as usize;
        q.pops_since_rebuild = state.pops_since_rebuild as usize;
        q
    }
}

/// The queue as it was before families: every item owns its entry and
/// every rescoring calls [`score`](crate::score) per item. Tests drive it
/// side by side with [`CandidateQueue`] as the pop-order oracle.
#[cfg(test)]
mod reference {
    use super::{QueueEntry, REBUILD_INTERVAL};
    use crate::checkpoint::{branch_pairs_of, branch_set_of};
    use crate::config::HeuristicConfig;
    use crate::heuristic::score;
    use crate::{QueueItemSnapshot, QueueSnapshot};
    use pdf_runtime::BranchSet;
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, HashMap};

    #[derive(Debug)]
    struct Item {
        score: f64,
        seq: u64,
        entry: QueueEntry,
    }

    impl PartialEq for Item {
        fn eq(&self, other: &Self) -> bool {
            self.score == other.score
                && self.entry.input == other.entry.input
                && self.seq == other.seq
        }
    }
    impl Eq for Item {}
    impl PartialOrd for Item {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Item {
        fn cmp(&self, other: &Self) -> Ordering {
            self.score
                .total_cmp(&other.score)
                .then_with(|| other.entry.input.cmp(&self.entry.input))
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    #[derive(Debug)]
    pub(super) struct ReferenceQueue {
        heap: BinaryHeap<Item>,
        path_counts: HashMap<u64, usize>,
        cfg: HeuristicConfig,
        seq: u64,
        last_vbr_len: usize,
        pops_since_rebuild: usize,
    }

    impl ReferenceQueue {
        pub(super) fn new(cfg: HeuristicConfig) -> Self {
            ReferenceQueue {
                heap: BinaryHeap::new(),
                path_counts: HashMap::new(),
                cfg,
                seq: 0,
                last_vbr_len: 0,
                pops_since_rebuild: 0,
            }
        }

        fn path_seen(&self, path_hash: u64) -> usize {
            self.path_counts
                .get(&path_hash)
                .copied()
                .unwrap_or(0)
                .saturating_sub(1)
        }

        pub(super) fn len(&self) -> usize {
            self.heap.len()
        }

        pub(super) fn push(&mut self, entry: QueueEntry, v_br: &BranchSet) {
            *self.path_counts.entry(entry.path_hash).or_insert(0) += 1;
            let s = score(&entry, v_br, self.path_seen(entry.path_hash), &self.cfg);
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Item {
                score: s,
                seq,
                entry,
            });
        }

        pub(super) fn pop(&mut self, v_br: &BranchSet) -> Option<QueueEntry> {
            if v_br.len() != self.last_vbr_len || self.pops_since_rebuild >= REBUILD_INTERVAL {
                self.rebuild(v_br);
            }
            self.pops_since_rebuild += 1;
            self.heap.pop().map(|item| item.entry)
        }

        fn pop_seq(&mut self, seq: Option<u64>) -> Option<QueueEntry> {
            let seq = seq?;
            let items = std::mem::take(&mut self.heap).into_vec();
            let mut out = None;
            self.heap = items
                .into_iter()
                .filter_map(|item| {
                    if item.seq == seq && out.is_none() {
                        out = Some(item.entry);
                        None
                    } else {
                        Some(item)
                    }
                })
                .collect();
            out
        }

        pub(super) fn pop_newest(&mut self) -> Option<QueueEntry> {
            let newest = self.heap.iter().map(|i| i.seq).max();
            self.pop_seq(newest)
        }

        pub(super) fn pop_oldest(&mut self) -> Option<QueueEntry> {
            let oldest = self.heap.iter().map(|i| i.seq).min();
            self.pop_seq(oldest)
        }

        pub(super) fn note_path(&mut self, path_hash: u64) {
            *self.path_counts.entry(path_hash).or_insert(0) += 1;
        }

        pub(super) fn rebuild(&mut self, v_br: &BranchSet) {
            self.last_vbr_len = v_br.len();
            self.pops_since_rebuild = 0;
            let items = std::mem::take(&mut self.heap).into_vec();
            self.heap = items
                .into_iter()
                .map(|mut item| {
                    let seen = self.path_seen(item.entry.path_hash);
                    item.score = score(&item.entry, v_br, seen, &self.cfg);
                    item
                })
                .collect();
        }

        pub(super) fn shrink(&mut self, keep: usize, v_br: &BranchSet) {
            if self.heap.len() <= keep {
                return;
            }
            self.rebuild(v_br);
            let mut kept = BinaryHeap::with_capacity(keep);
            for _ in 0..keep {
                match self.heap.pop() {
                    Some(item) => kept.push(item),
                    None => break,
                }
            }
            self.heap = kept;
        }

        pub(super) fn snapshot_state(&self) -> QueueSnapshot {
            let mut items: Vec<QueueItemSnapshot> = self
                .heap
                .iter()
                .map(|i| QueueItemSnapshot {
                    score_bits: i.score.to_bits(),
                    seq: i.seq,
                    input: i.entry.input.clone(),
                    parent_branches: branch_pairs_of(&i.entry.parent_branches).into(),
                    replacement_len: i.entry.replacement_len as u64,
                    avg_stack_bits: i.entry.avg_stack.to_bits(),
                    num_parents: i.entry.num_parents as u64,
                    path_hash: i.entry.path_hash,
                })
                .collect();
            items.sort_by_key(|i| i.seq);
            let mut path_counts: Vec<(u64, u64)> = self
                .path_counts
                .iter()
                .map(|(&k, &v)| (k, v as u64))
                .collect();
            path_counts.sort_unstable();
            QueueSnapshot {
                items,
                path_counts,
                seq: self.seq,
                last_vbr_len: self.last_vbr_len as u64,
                pops_since_rebuild: self.pops_since_rebuild as u64,
            }
        }

        pub(super) fn restore_state(cfg: HeuristicConfig, state: QueueSnapshot) -> Self {
            let heap = state
                .items
                .into_iter()
                .map(|i| Item {
                    score: f64::from_bits(i.score_bits),
                    seq: i.seq,
                    entry: QueueEntry {
                        input: i.input,
                        parent_branches: branch_set_of(&i.parent_branches),
                        replacement_len: i.replacement_len as usize,
                        avg_stack: f64::from_bits(i.avg_stack_bits),
                        num_parents: i.num_parents as usize,
                        path_hash: i.path_hash,
                    },
                })
                .collect();
            ReferenceQueue {
                heap,
                path_counts: state
                    .path_counts
                    .into_iter()
                    .map(|(h, n)| (h, n as usize))
                    .collect(),
                cfg,
                seq: state.seq,
                last_vbr_len: state.last_vbr_len as usize,
                pops_since_rebuild: state.pops_since_rebuild as usize,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdf_runtime::{BranchId, SiteId};
    use proptest::prelude::*;

    fn entry(input: &[u8], repl: usize) -> QueueEntry {
        QueueEntry {
            input: input.to_vec(),
            parent_branches: BranchSet::new(),
            replacement_len: repl,
            avg_stack: 0.0,
            num_parents: 0,
            path_hash: input.len() as u64 + 1000,
        }
    }

    #[test]
    fn pop_returns_highest_score() {
        let v_br = BranchSet::new();
        let mut q = CandidateQueue::new(HeuristicConfig::default());
        q.push(entry(b"a", 1), &v_br);
        q.push(entry(b"b", 5), &v_br); // big replacement → top
        q.push(entry(b"c", 2), &v_br);
        assert_eq!(q.pop(&v_br).unwrap().input, b"b".to_vec());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn ties_pop_in_content_order() {
        let v_br = BranchSet::new();
        let mut q = CandidateQueue::new(HeuristicConfig::default());
        q.push(entry(b"x", 1), &v_br);
        let mut same = entry(b"y", 1);
        same.path_hash = 2000; // distinct path, same score terms
        q.push(same, &v_br);
        assert_eq!(q.pop(&v_br).unwrap().input, b"x".to_vec());
    }

    #[test]
    fn tie_break_is_insertion_order_invariant() {
        // Equal-score candidates must pop in the same order no matter
        // how their insertion was permuted: the order is a function of
        // the queued *set*, not of arrival history.
        let v_br = BranchSet::new();
        // equal lengths keep the length-penalty term, and so the score,
        // identical across all four
        let inputs: [&[u8]; 4] = [b"dddd", b"aaaa", b"cccc", b"bbbb"];
        let drain = |perm: &[usize]| -> Vec<Vec<u8>> {
            let mut q = CandidateQueue::new(HeuristicConfig::default());
            for &i in perm {
                let mut e = entry(inputs[i], 1);
                e.path_hash = 4000 + i as u64; // distinct paths, same score
                e.input = inputs[i].to_vec();
                q.push(e, &v_br);
            }
            let mut out = Vec::new();
            while let Some(e) = q.pop(&v_br) {
                out.push(e.input);
            }
            out
        };
        let reference = drain(&[0, 1, 2, 3]);
        for perm in [
            [1, 0, 3, 2],
            [3, 2, 1, 0],
            [2, 3, 0, 1],
            [1, 3, 0, 2],
            [3, 0, 2, 1],
        ] {
            assert_eq!(drain(&perm), reference, "permutation {perm:?} diverged");
        }
        // and the order itself is the content order
        let sorted: Vec<Vec<u8>> = {
            let mut v: Vec<Vec<u8>> = inputs.iter().map(|i| i.to_vec()).collect();
            v.sort();
            v
        };
        assert_eq!(reference, sorted);
    }

    #[test]
    fn identical_entries_pop_fifo() {
        let v_br = BranchSet::new();
        let mut q = CandidateQueue::new(HeuristicConfig::default());
        q.push(entry(b"same", 1), &v_br);
        q.push(entry(b"same", 1), &v_br);
        assert_eq!(q.pop(&v_br).unwrap().input, b"same".to_vec());
        assert_eq!(q.pop(&v_br).unwrap().input, b"same".to_vec());
        assert!(q.pop(&v_br).is_none());
    }

    #[test]
    fn pop_empty_is_none() {
        let mut q = CandidateQueue::new(HeuristicConfig::default());
        assert!(q.pop(&BranchSet::new()).is_none());
    }

    #[test]
    fn rescoring_reflects_updated_v_br() {
        let mut q = CandidateQueue::new(HeuristicConfig::default());
        let v_br = BranchSet::new();
        // `rich`'s parent covered branch 1, so it outranks `plain`
        let mut rich = entry(b"aa", 1);
        rich.parent_branches = [BranchId::new(SiteId::from_raw(1), true)]
            .into_iter()
            .collect();
        let mut plain = entry(b"bb", 1);
        plain.replacement_len = 1;
        plain.path_hash = 3000;
        q.push(plain, &v_br);
        q.push(rich, &v_br);
        // once branch 1 belongs to vBr, `rich` loses its bonus and the
        // content tie-break puts lexicographically-smaller "aa" first
        let v_br_after: BranchSet = [BranchId::new(SiteId::from_raw(1), true)]
            .into_iter()
            .collect();
        assert_eq!(q.pop(&v_br_after).unwrap().input, b"aa".to_vec());
    }

    #[test]
    fn path_dedup_lowers_repeat_paths() {
        let v_br = BranchSet::new();
        let mut q = CandidateQueue::new(HeuristicConfig::default());
        let mut a = entry(b"aa", 1);
        a.path_hash = 7;
        let mut b = entry(b"bb", 1);
        b.path_hash = 7;
        let mut c = entry(b"cc", 1);
        c.path_hash = 9;
        q.push(a, &v_br);
        q.push(b, &v_br);
        q.note_path(7); // the path got executed yet again
        q.push(c, &v_br);
        q.rebuild(&v_br);
        assert_eq!(q.pop(&v_br).unwrap().input, b"cc".to_vec());
    }

    #[test]
    fn shrink_keeps_best() {
        let v_br = BranchSet::new();
        let mut q = CandidateQueue::new(HeuristicConfig::default());
        for i in 0..10 {
            q.push(entry(format!("{i}").as_bytes(), i), &v_br);
        }
        q.shrink(3, &v_br);
        assert_eq!(q.len(), 3);
        let top = q.pop(&v_br).unwrap();
        assert!(top.replacement_len >= 7);
    }

    #[test]
    fn pop_newest_and_oldest_orderings() {
        let v_br = BranchSet::new();
        let mut q = CandidateQueue::new(HeuristicConfig::default());
        q.push(entry(b"first", 1), &v_br);
        q.push(entry(b"mid", 9), &v_br); // best score
        q.push(entry(b"lastone", 1), &v_br);
        assert_eq!(q.pop_newest().unwrap().input, b"lastone".to_vec());
        assert_eq!(q.pop_oldest().unwrap().input, b"first".to_vec());
        assert_eq!(q.pop(&v_br).unwrap().input, b"mid".to_vec());
        assert!(q.pop_newest().is_none());
        assert!(q.pop_oldest().is_none());
    }

    #[test]
    fn snapshot_restore_reproduces_pop_order() {
        let v_br = BranchSet::new();
        let mut q = CandidateQueue::new(HeuristicConfig::default());
        for i in 0..20usize {
            let mut e = entry(format!("in{i:02}").as_bytes(), (i % 5) + 1);
            e.path_hash = 5000 + (i % 3) as u64;
            q.push(e, &v_br);
        }
        // disturb the counters so the snapshot captures mid-campaign state
        let _ = q.pop(&v_br);
        let _ = q.pop(&v_br);
        q.note_path(5001);

        let restored =
            CandidateQueue::restore_state(HeuristicConfig::default(), q.snapshot_state());
        assert_eq!(restored.len(), q.len());
        let drain = |mut q: CandidateQueue| -> Vec<Vec<u8>> {
            let mut out = Vec::new();
            while let Some(e) = q.pop(&v_br) {
                out.push(e.input);
            }
            out
        };
        assert_eq!(drain(restored), drain(q));
    }

    #[test]
    fn snapshot_preserves_cached_scores_and_counters() {
        let v_br = BranchSet::new();
        let mut q = CandidateQueue::new(HeuristicConfig::default());
        q.push(entry(b"aa", 3), &v_br);
        let _ = q.pop(&v_br);
        q.push(entry(b"bb", 2), &v_br);
        let state = q.snapshot_state();
        assert_eq!(state.seq, 2);
        assert_eq!(state.pops_since_rebuild, 1);
        assert_eq!(state.items.len(), 1);
        let restored = CandidateQueue::restore_state(HeuristicConfig::default(), state.clone());
        let state2 = restored.snapshot_state();
        assert_eq!(state.seq, state2.seq);
        assert_eq!(state.pops_since_rebuild, state2.pops_since_rebuild);
        assert_eq!(state.last_vbr_len, state2.last_vbr_len);
        assert_eq!(state.path_counts, state2.path_counts);
        for (a, b) in state.items.iter().zip(&state2.items) {
            assert_eq!(a.score_bits, b.score_bits, "cached score drifted");
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.input, b.input);
        }
    }

    #[test]
    fn periodic_rebuild_absorbs_path_drift() {
        // `aa` outranks `bb` until its path turns hot; only a periodic
        // refresh (no `vBr` change, no explicit rebuild) can notice.
        let v_br = BranchSet::new();
        let drained_pair = |fillers: usize| -> Vec<u8> {
            let mut q = CandidateQueue::new(HeuristicConfig::default());
            let mut a = entry(b"aa", 2);
            a.path_hash = 7;
            let mut b = entry(b"bb", 1);
            b.path_hash = 9;
            q.push(a, &v_br);
            q.push(b, &v_br);
            for i in 0..fillers {
                // replacement length 10 keeps every filler on top
                let mut f = entry(format!("f{i:03}").as_bytes(), 10);
                f.path_hash = 10_000 + i as u64;
                q.push(f, &v_br);
            }
            for _ in 0..50 {
                q.note_path(7);
            }
            for _ in 0..fillers {
                assert_eq!(q.pop(&v_br).unwrap().input[0], b'f');
            }
            q.pop(&v_br).unwrap().input
        };
        // one pop short of the interval, the stale scores still rule
        assert_eq!(drained_pair(REBUILD_INTERVAL - 1), b"aa".to_vec());
        assert_eq!(drained_pair(REBUILD_INTERVAL), b"bb".to_vec());
    }

    fn comparable(e: &QueueEntry) -> (Vec<u8>, BranchSet, usize, u64, usize, u64) {
        (
            e.input.clone(),
            e.parent_branches.clone(),
            e.replacement_len,
            e.avg_stack.to_bits(),
            e.num_parents,
            e.path_hash,
        )
    }

    type ComparableState = (
        Vec<(u64, u64, (Vec<u8>, BranchSet, usize, u64, usize, u64))>,
        Vec<(u64, u64)>,
        u64,
        u64,
        u64,
    );

    fn comparable_state(s: &QueueSnapshot) -> ComparableState {
        (
            s.items
                .iter()
                .map(|i| {
                    let e = QueueEntry {
                        input: i.input.clone(),
                        parent_branches: branch_set_of(&i.parent_branches),
                        replacement_len: i.replacement_len as usize,
                        avg_stack: f64::from_bits(i.avg_stack_bits),
                        num_parents: i.num_parents as usize,
                        path_hash: i.path_hash,
                    };
                    (i.score_bits, i.seq, comparable(&e))
                })
                .collect(),
            s.path_counts.clone(),
            s.seq,
            s.last_vbr_len,
            s.pops_since_rebuild,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The family queue pops, snapshots and counts exactly like the
        /// per-item reference queue under random operation sequences.
        #[test]
        fn families_match_reference_queue(
            cfg_pick in 0u8..3,
            ops in proptest::collection::vec((0u8..16, any::<u64>()), 1..400),
        ) {
            use super::reference::ReferenceQueue;
            use pdf_runtime::{splitmix64, BranchId, SiteId};

            let cfg = match cfg_pick {
                0 => HeuristicConfig::default(),
                1 => HeuristicConfig {
                    paper_literal_parent_sign: true,
                    ..HeuristicConfig::default()
                },
                _ => HeuristicConfig::disabled(),
            };
            let mut q = CandidateQueue::new(cfg);
            let mut oracle = ReferenceQueue::new(cfg);
            let mut v_br = BranchSet::new();
            let mut last_family: Option<Family> = None;
            for (kind, seed) in ops {
                let mut state = seed;
                let mut draw = |n: u64| {
                    state = splitmix64(state);
                    state % n
                };
                let branches = |draw: &mut dyn FnMut(u64) -> u64, n: u64| -> BranchSet {
                    (0..n)
                        .map(|_| BranchId::new(SiteId::from_raw(draw(16)), draw(2) == 0))
                        .collect()
                };
                match kind {
                    0..=3 => {
                        let size = draw(12);
                        let mut family = Family {
                            parent_branches: branches(&mut draw, size),
                            avg_stack: [0.0, -0.0, 0.75, 1.5][draw(4) as usize],
                            num_parents: draw(4) as usize,
                            path_hash: draw(5),
                        };
                        // a run like the previous one, so restore has
                        // equal and near-equal neighbours to regroup
                        if let Some(last) = last_family.as_ref().filter(|_| draw(2) == 0) {
                            let tweak = draw(4);
                            family = Family {
                                avg_stack: if tweak == 0 { family.avg_stack } else { last.avg_stack },
                                num_parents: if tweak == 1 { family.num_parents } else { last.num_parents },
                                path_hash: if tweak == 2 { family.path_hash } else { last.path_hash },
                                parent_branches: last.parent_branches.clone(),
                            };
                        }
                        last_family = Some(family.clone());
                        let siblings: Vec<(Vec<u8>, usize)> = (0..1 + draw(20))
                            .map(|_| {
                                let input = (0..1 + draw(4)).map(|_| b"abc"[draw(3) as usize]).collect();
                                (input, 1 + draw(3) as usize)
                            })
                            .collect();
                        for (input, replacement_len) in &siblings {
                            let e = family.entry(family.parent_branches.clone(), input.clone(), *replacement_len);
                            oracle.push(e, &v_br);
                        }
                        q.push_family(family, siblings, &v_br);
                    }
                    4..=8 => {
                        let burst = if draw(4) == 0 { draw(300) } else { 1 };
                        for _ in 0..burst {
                            let got = q.pop(&v_br);
                            let want = oracle.pop(&v_br);
                            prop_assert_eq!(got.as_ref().map(comparable), want.as_ref().map(comparable));
                        }
                    }
                    9 => {
                        let (got, want) = if draw(2) == 0 {
                            (q.pop_newest(), oracle.pop_newest())
                        } else {
                            (q.pop_oldest(), oracle.pop_oldest())
                        };
                        prop_assert_eq!(got.as_ref().map(comparable), want.as_ref().map(comparable));
                    }
                    10 => {
                        let path = draw(5);
                        q.note_path(path);
                        oracle.note_path(path);
                    }
                    11 => {
                        let size = 1 + draw(3);
                        v_br.union_with(&branches(&mut draw, size));
                    }
                    12 => {
                        let keep = draw(q.len() as u64 + 1) as usize;
                        q.shrink(keep, &v_br);
                        oracle.shrink(keep, &v_br);
                    }
                    13 => {
                        q.rebuild(&v_br);
                        oracle.rebuild(&v_br);
                    }
                    _ => {
                        let snap = q.snapshot_state();
                        let want = oracle.snapshot_state();
                        prop_assert_eq!(comparable_state(&snap), comparable_state(&want));
                        q = CandidateQueue::restore_state(cfg, snap);
                        oracle = ReferenceQueue::restore_state(cfg, want);
                    }
                }
                prop_assert_eq!(q.len(), oracle.len());
            }
            prop_assert_eq!(
                comparable_state(&q.snapshot_state()),
                comparable_state(&oracle.snapshot_state())
            );
            while let Some(want) = oracle.pop(&v_br) {
                prop_assert_eq!(q.pop(&v_br).as_ref().map(comparable), Some(comparable(&want)));
            }
            prop_assert!(q.is_empty());
        }
    }
}
