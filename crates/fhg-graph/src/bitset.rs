//! A small fixed-capacity bit set.
//!
//! Several hot paths in the schedulers (independence verification, palette
//! bookkeeping, visited marks in traversals) need a dense set of node ids.
//! A `Vec<bool>` works but wastes 8x the memory and defeats the cache; this
//! minimal word-packed bit set keeps those scans tight without pulling in an
//! external dependency.  The bulk operations (unions, popcounts, member
//! walks) run on the fused word loops in [`crate::kernels`], so every
//! consumer gets the runtime-dispatched wide path for free.
//!
//! Invariant: the backing words never contain a set bit at a position `>=
//! capacity()` — every mutator bounds-checks, and the bulk operations only
//! combine sets of equal capacity — so word-level kernels may walk the raw
//! words without a capacity guard.

use crate::kernels;

const WORD_BITS: usize = 64;

/// A fixed-capacity set of `usize` values in `0..len`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedBitSet {
    words: Vec<u64>,
    len: usize,
}

impl FixedBitSet {
    /// Creates an empty set with capacity for values `0..len`.
    pub fn new(len: usize) -> Self {
        FixedBitSet { words: vec![0; len.div_ceil(WORD_BITS)], len }
    }

    /// Creates a set with capacity `len` with every bit set.
    pub fn full(len: usize) -> Self {
        let mut s = Self::new(len);
        for i in 0..len {
            s.insert(i);
        }
        s
    }

    /// The capacity (number of representable values), *not* the cardinality.
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Inserts `value`. Returns `true` if it was not present before.
    ///
    /// # Panics
    /// Panics if `value >= capacity()`.
    pub fn insert(&mut self, value: usize) -> bool {
        assert!(value < self.len, "bitset insert out of bounds: {value} >= {}", self.len);
        let (w, b) = (value / WORD_BITS, value % WORD_BITS);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes `value`. Returns `true` if it was present.
    pub fn remove(&mut self, value: usize) -> bool {
        if value >= self.len {
            return false;
        }
        let (w, b) = (value / WORD_BITS, value % WORD_BITS);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Returns whether `value` is in the set.
    pub fn contains(&self, value: usize) -> bool {
        if value >= self.len {
            return false;
        }
        let (w, b) = (value / WORD_BITS, value % WORD_BITS);
        self.words[w] & (1 << b) != 0
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Number of elements currently stored.
    pub fn count(&self) -> usize {
        kernels::count(&self.words) as usize
    }

    /// Returns `true` if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over the stored values in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &word)| {
            let base = wi * WORD_BITS;
            let len = self.len;
            BitIter { word, base }.take_while(move |&v| v < len)
        })
    }

    /// Calls `f` with every stored value in increasing order — the
    /// set-bit-extraction kernel ([`kernels::for_each_set_bit`]) behind the
    /// hot member walks (`HappySet::for_each`, the analysis sweep), cheaper
    /// than driving [`FixedBitSet::iter`] through a `flat_map` chain.
    #[inline]
    pub fn for_each(&self, f: impl FnMut(usize)) {
        // Sound without a capacity guard: no word ever holds a bit at a
        // position >= capacity() (module invariant).
        kernels::for_each_set_bit(&self.words, f);
    }

    /// Smallest value in `0..capacity()` *not* in the set, if any.
    ///
    /// This is the "first free colour" primitive used by greedy colouring.
    pub fn first_zero(&self) -> Option<usize> {
        for (wi, &word) in self.words.iter().enumerate() {
            if word != u64::MAX {
                let bit = (!word).trailing_zeros() as usize;
                let v = wi * WORD_BITS + bit;
                if v < self.len {
                    return Some(v);
                }
            }
        }
        None
    }

    /// Read-only view of the backing words, least-significant bit first
    /// (value `v` lives at bit `v % 64` of word `v / 64`).
    ///
    /// Exposed so hot paths (the scheduler engine's independence checks) can
    /// run word-wise ANDs against adjacency rows instead of per-element
    /// probes.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable view of the backing words, for the in-crate kernel callers
    /// ([`crate::happy_set::HappySet`]'s fused gather) — crate-private so the
    /// no-stray-high-bits invariant stays enforceable.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// In-place union with another set of the same capacity.
    pub fn union_with(&mut self, other: &FixedBitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection with another set of the same capacity.
    pub fn intersect_with(&mut self, other: &FixedBitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }
}

struct BitIter {
    word: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut s = FixedBitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "second insert reports already-present");
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.count(), 4);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert!(!s.contains(64));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn contains_and_remove_out_of_range_are_false() {
        let mut s = FixedBitSet::new(10);
        assert!(!s.contains(10));
        assert!(!s.contains(1000));
        assert!(!s.remove(10));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn insert_out_of_range_panics() {
        FixedBitSet::new(10).insert(10);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut s = FixedBitSet::new(200);
        for v in [5usize, 1, 64, 128, 199, 63] {
            s.insert(v);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![1, 5, 63, 64, 128, 199]);
    }

    #[test]
    fn for_each_matches_iter_at_word_boundaries() {
        for capacity in [0usize, 1, 63, 64, 65, 130, 256] {
            let mut s = FixedBitSet::new(capacity);
            for v in (0..capacity).step_by(3) {
                s.insert(v);
            }
            let mut walked = Vec::new();
            s.for_each(|v| walked.push(v));
            assert_eq!(walked, s.iter().collect::<Vec<_>>(), "capacity {capacity}");
        }
    }

    #[test]
    fn first_zero_finds_smallest_missing() {
        let mut s = FixedBitSet::new(70);
        for v in 0..65 {
            s.insert(v);
        }
        assert_eq!(s.first_zero(), Some(65));
        s.remove(3);
        assert_eq!(s.first_zero(), Some(3));
        let full = FixedBitSet::full(70);
        assert_eq!(full.first_zero(), None);
    }

    #[test]
    fn full_and_clear() {
        let mut s = FixedBitSet::full(67);
        assert_eq!(s.count(), 67);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn union_and_intersection() {
        let mut a = FixedBitSet::new(100);
        let mut b = FixedBitSet::new(100);
        a.insert(1);
        a.insert(50);
        b.insert(50);
        b.insert(99);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 50, 99]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![50]);
    }

    #[test]
    fn as_words_matches_bit_layout() {
        let mut s = FixedBitSet::new(130);
        s.insert(0);
        s.insert(64);
        s.insert(129);
        let words = s.as_words();
        assert_eq!(words.len(), 3);
        assert_eq!(words[0], 1);
        assert_eq!(words[1], 1);
        assert_eq!(words[2], 2);
    }

    proptest! {
        #[test]
        fn behaves_like_btreeset(values in proptest::collection::vec(0usize..500, 0..200)) {
            let mut bits = FixedBitSet::new(500);
            let mut reference = BTreeSet::new();
            for &v in &values {
                prop_assert_eq!(bits.insert(v), reference.insert(v));
            }
            prop_assert_eq!(bits.count(), reference.len());
            prop_assert_eq!(bits.iter().collect::<Vec<_>>(),
                            reference.iter().copied().collect::<Vec<_>>());
            for &v in &values {
                prop_assert_eq!(bits.remove(v), reference.remove(&v));
            }
            prop_assert!(bits.is_empty());
        }

        #[test]
        fn first_zero_matches_linear_scan(values in proptest::collection::vec(0usize..64, 0..64)) {
            let mut bits = FixedBitSet::new(64);
            for &v in &values {
                bits.insert(v);
            }
            let expected = (0..64).find(|v| !bits.contains(*v));
            prop_assert_eq!(bits.first_zero(), expected);
        }
    }
}
