//! The reusable happy-set buffer at the heart of the scheduler engine.
//!
//! Every scheduler in the workspace answers the same question each holiday:
//! *which parents are happy at time `t`?*  Returning a fresh `Vec<NodeId>`
//! per holiday costs an allocation plus per-element pushes on a path executed
//! 10⁵–10⁶ times per experiment.  A [`HappySet`] is the zero-allocation
//! alternative: a word-packed [`FixedBitSet`] with a cached cardinality that
//! callers allocate once and hand to `Scheduler::fill_happy_set` for every
//! holiday.  Membership tests are O(1) bit probes and independence
//! verification ANDs whole 64-bit words against adjacency rows.
//!
//! Emission overwrites the set whole words at a time, never reading or
//! clearing the old contents first, in one of two ways:
//! * [`HappySet::assign_many`] — the union of word-packed rows, the
//!   residue-table path of the periodic schedulers;
//! * [`HappySet::assign_where`] — one predicate call per parent, each
//!   64-parent word assembled without branches, the path of the stateful
//!   schedulers (§3's phased greedy, §1's first come first grab).
//!
//! The type lives in `fhg-graph` (rather than next to the `Scheduler` trait
//! in `fhg-core`) beside the word kernels those writers and the member walk
//! run on.

use crate::bitset::FixedBitSet;
use crate::kernels;
use crate::NodeId;

/// A set of happy parents for one holiday, backed by a word-packed bit set.
///
/// The buffer is designed for reuse: [`HappySet::reset`] only reallocates
/// when the requested capacity actually changes, so driving a scheduler over
/// a long horizon performs zero heap allocations after the first holiday.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HappySet {
    bits: FixedBitSet,
    len: usize,
}

impl HappySet {
    /// Creates an empty happy set able to hold nodes `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        HappySet { bits: FixedBitSet::new(capacity), len: 0 }
    }

    /// Creates a happy set from explicit members (convenience for tests).
    ///
    /// # Panics
    /// Panics if a member is `>= capacity`.
    pub fn from_members(capacity: usize, members: impl IntoIterator<Item = NodeId>) -> Self {
        let mut s = Self::new(capacity);
        for p in members {
            s.insert(p);
        }
        s
    }

    /// Number of representable nodes (`0..capacity`), *not* the cardinality.
    pub fn capacity(&self) -> usize {
        self.bits.capacity()
    }

    /// Empties the set and ensures it can hold nodes `0..capacity`.
    ///
    /// Reallocates only when `capacity` differs from the current capacity;
    /// the steady-state cost is a `memset` of the backing words.
    pub fn reset(&mut self, capacity: usize) {
        if self.bits.capacity() != capacity {
            self.bits = FixedBitSet::new(capacity);
        } else {
            self.bits.clear();
        }
        self.len = 0;
    }

    /// Empties the set, keeping the capacity.
    pub fn clear(&mut self) {
        self.bits.clear();
        self.len = 0;
    }

    /// Inserts node `p`. Returns `true` if it was not present before.
    ///
    /// # Panics
    /// Panics if `p >= capacity()`.
    pub fn insert(&mut self, p: NodeId) -> bool {
        let fresh = self.bits.insert(p);
        self.len += usize::from(fresh);
        fresh
    }

    /// Whether node `p` is happy.
    pub fn contains(&self, p: NodeId) -> bool {
        self.bits.contains(p)
    }

    /// Number of happy nodes (cached; O(1)).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no node is happy.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the happy nodes in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.bits.iter()
    }

    /// Calls `f` with every happy node in increasing order (the set-bit
    /// extraction kernel — the cheap member walk the analysis engines and
    /// [`HappySet::to_vec`] use).
    #[inline]
    pub fn for_each(&self, f: impl FnMut(NodeId)) {
        self.bits.for_each(f);
    }

    /// Collects the happy nodes into a sorted `Vec` (for tests and the
    /// `SchedulerExt::run` collector; hot paths read the set in place).
    pub fn to_vec(&self) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(self.len);
        self.for_each(|p| v.push(p));
        v
    }

    /// Overwrites the set with the union of `rows`, at `capacity` — the
    /// per-holiday table emission path.  The reset memset, the OR passes
    /// and the cardinality count collapse into **one write-only gather over
    /// the backing words** ([`kernels::set_rows_count`], rows indexed in the
    /// inner loop): the old contents are never read and never zeroed
    /// separately.  Rows are fused eight at a time; each further batch is
    /// OR'd in by one [`kernels::or_rows_count`] pass, and the last pass's
    /// count is the cardinality.  No rows clears the set.  Reallocates only
    /// when `capacity` changes.
    ///
    /// # Panics
    /// Panics if any row's capacity differs from `capacity`.
    pub fn assign_many<'a>(
        &mut self,
        capacity: usize,
        rows: impl IntoIterator<Item = &'a FixedBitSet>,
    ) {
        /// Rows fused per pass: 8 covers every residue table the
        /// experiments build (one row per distinct modulus) and is the
        /// largest arity the kernels unroll at compile time.
        const BATCH: usize = 8;
        if self.bits.capacity() != capacity {
            self.bits = FixedBitSet::new(capacity);
        }
        let words = self.bits.words_mut();
        let mut rows = rows.into_iter().peekable();
        let mut pass: fn(&mut [u64], &[&[u64]]) -> u64 = kernels::set_rows_count;
        loop {
            let mut batch: [&[u64]; BATCH] = [&[]; BATCH];
            let mut len = 0;
            while len < BATCH {
                let Some(row) = rows.next() else { break };
                assert_eq!(row.capacity(), capacity, "bitset capacity mismatch");
                batch[len] = row.as_words();
                len += 1;
            }
            let count = pass(words, &batch[..len]);
            if rows.peek().is_none() {
                self.len = count as usize;
                return;
            }
            pass = kernels::or_rows_count;
        }
    }

    /// Overwrites the set with the parents `p < capacity` for which
    /// `member(p)` holds — the emission path of the stateful schedulers.
    /// `member` is called once per parent, in ascending order.  Each
    /// 64-parent word is built without branches and stored whole, so the
    /// old contents are never read, and the cardinality is the sum of the
    /// words' popcounts.  Reallocates only when `capacity` changes.
    pub fn assign_where(&mut self, capacity: usize, mut member: impl FnMut(NodeId) -> bool) {
        if self.bits.capacity() != capacity {
            self.bits = FixedBitSet::new(capacity);
        }
        let mut len = 0;
        for (w, word) in self.bits.words_mut().iter_mut().enumerate() {
            let base = w * 64;
            let mut bits = 0u64;
            for p in base..capacity.min(base + 64) {
                bits |= u64::from(member(p)) << (p - base);
            }
            *word = bits;
            len += bits.count_ones() as usize;
        }
        self.len = len;
    }

    /// The backing bit set, for word-wise algorithms.
    pub fn as_bitset(&self) -> &FixedBitSet {
        &self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_iter_roundtrip() {
        let mut s = HappySet::new(200);
        for p in [3usize, 199, 64, 3] {
            s.insert(p);
        }
        assert_eq!(s.len(), 3, "duplicate insert must not inflate the cardinality");
        assert_eq!(s.to_vec(), vec![3, 64, 199]);
        assert!(s.contains(64));
        assert!(!s.contains(65));
    }

    #[test]
    fn reset_reuses_capacity_and_reallocates_on_change() {
        let mut s = HappySet::new(100);
        s.insert(7);
        s.reset(100);
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 100);
        s.reset(50);
        assert_eq!(s.capacity(), 50);
        assert!(s.is_empty());
    }

    #[test]
    fn from_members_and_equality() {
        let a = HappySet::from_members(10, [1, 4, 9]);
        let b = HappySet::from_members(10, [9, 1, 4]);
        assert_eq!(a, b, "membership equality is order-independent");
        assert_ne!(a, HappySet::from_members(10, [1, 4]));
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut s = HappySet::from_members(80, [0, 79]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 80);
        assert_eq!(s.len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn insert_beyond_capacity_panics() {
        HappySet::new(4).insert(4);
    }

    #[test]
    fn assign_many_equals_the_union_of_its_rows() {
        // 8, 9, 16 and 17 rows exercise the exact-batch and spill passes.
        for rows in [0usize, 1, 3, 8, 9, 16, 17] {
            let sets: Vec<FixedBitSet> = (0..rows)
                .map(|r| {
                    let mut s = FixedBitSet::new(200);
                    s.insert((r * 31 + 2) % 200);
                    s.insert((r * 7 + 100) % 200);
                    s
                })
                .collect();
            let reference = HappySet::from_members(200, sets.iter().flat_map(FixedBitSet::iter));
            // Stale content (including a stale capacity) must never leak
            // into the overwrite.
            let mut assigned = HappySet::from_members(64, [0, 63]);
            assigned.assign_many(200, sets.iter());
            assert_eq!(assigned, reference, "{rows} rows");
            assert_eq!(assigned.len(), reference.len(), "{rows} rows");
            assert_eq!(assigned.len(), assigned.as_bitset().count(), "exact cardinality");

            // Same capacity, stale members: still a pure overwrite.
            let mut stale = HappySet::from_members(200, [5, 150, 199]);
            stale.assign_many(200, sets.iter());
            assert_eq!(stale, reference, "{rows} rows, stale members");
            assert_eq!(stale.len(), reference.len(), "{rows} rows, stale members");
        }
    }

    #[test]
    fn assign_where_overwrites_with_the_predicate_set() {
        for capacity in [0usize, 1, 63, 64, 65, 130] {
            let rule = |p: usize| p.is_multiple_of(3) || p == capacity.saturating_sub(1);
            let reference = HappySet::from_members(capacity, (0..capacity).filter(|&p| rule(p)));
            // Stale members at a stale capacity, then at the same capacity:
            // neither may leak into the overwrite.
            for stale in [HappySet::from_members(200, [1, 64, 199]), reference.clone()] {
                let mut set = stale;
                if set.capacity() == capacity && capacity > 2 {
                    set.insert(1);
                }
                let mut calls = Vec::new();
                set.assign_where(capacity, |p| {
                    calls.push(p);
                    rule(p)
                });
                assert_eq!(calls, (0..capacity).collect::<Vec<_>>(), "capacity {capacity}");
                assert_eq!(set, reference, "capacity {capacity}");
                assert_eq!(set.capacity(), capacity);
                assert_eq!(set.len(), set.as_bitset().count(), "capacity {capacity}");
                let words = set.as_bitset().as_words();
                assert_eq!(words.len(), capacity.div_ceil(64));
                if capacity % 64 != 0 {
                    let tail = words[words.len() - 1] >> (capacity % 64);
                    assert_eq!(tail, 0, "capacity {capacity}: a bit past the capacity is set");
                }
            }
        }
        let mut full = HappySet::new(0);
        full.assign_where(130, |_| true);
        assert_eq!(full.len(), 130);
        full.assign_where(130, |_| false);
        assert!(full.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn assign_many_rejects_capacity_mismatch() {
        let mut s = HappySet::new(100);
        let row = FixedBitSet::new(50);
        s.assign_many(100, [&row]);
    }
}
