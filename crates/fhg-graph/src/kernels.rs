//! Fused word kernels: the one audited surface every hot bit loop runs on.
//!
//! Every periodic schedule hosts node `p` exactly when `t ≡ slot_p (mod
//! m_p)`, so emitting a holiday is one OR of a precomputed row per
//! distinct modulus plus a popcount (the word-packed table behind
//! `ResidueSchedule::fill`), and verifying it is a walk of word probes and
//! set bits.  Those are straight-line bit kernels, so this module keeps them
//! behind a small, heavily-tested API:
//!
//! * [`set_rows_count`] — the **multi-row gather**: overwrite `dst` with the
//!   OR of any number of rows, rows indexed in the *inner* loop, counting
//!   the set bits of the result in the same pass.  One write-only sweep of
//!   `dst` replaces the old reset-memset + one-OR-pass-per-row +
//!   count-rescan emission shape.  Backs `HappySet::assign_many`, and
//!   through it `ResidueSchedule::fill`.
//! * [`or_rows_count`] — the same fused pass, OR-ing *into* the existing
//!   `dst` bits: the batches after the first when `HappySet::assign_many`
//!   gathers more than eight rows.
//! * [`intersects_many_indexed`] — the **lane gather** behind batched
//!   independence verification: ORs the lanes of a bit-sliced membership
//!   table selected by a neighbour list, so bit `i` of the returned word is
//!   set iff the list meets class `i` — one row load serves up to 64
//!   classes.
//! * [`count`] — popcount of a word slice.
//! * [`for_each_set_bit`] / [`all_set_bits`] — **set-bit extraction** via
//!   `trailing_zeros` word scans, backing `HappySet::for_each`, the
//!   membership-table reset and the member walks of the independence
//!   checks.
//!
//! # Dispatch contract
//!
//! Every kernel has one source, the loops in the `portable` module.  The
//! two emission kernels run it in one of two compilations:
//!
//! * **portable** — the baseline target, available everywhere, and
//! * **wide** — the same source compiled under `#[target_feature(enable =
//!   "avx2,popcnt")]`, on `x86_64` only and executed only after runtime
//!   detection of both features.
//!
//! A kernel gets a wide compilation only where it measurably buys something
//! on its own bench row.  The per-kernel dispatch table:
//!
//! | kernel | portable | wide (AVX2 + POPCNT) |
//! |---|---|---|
//! | [`set_rows_count`], [`or_rows_count`] | ✓ | ✓ (same source) |
//! | [`intersects_many_indexed`] | ✓ | gather-bound: portable |
//! | [`count`], [`for_each_set_bit`], [`all_set_bits`] | ✓ | off the emission path: portable |
//!
//! [`KernelMode::active`] decides the mode **once per process** and caches
//! the decision in a `OnceLock`, so the hot path never re-detects: wide
//! wherever [`KernelMode::wide_supported`] sees both `avx2` and `popcnt`,
//! portable elsewhere.
//!
//! Both compilations are **bitwise-identical by contract**: for every
//! input, every kernel returns the same bits in `dst` and the same scalar
//! result under every mode.  The property tests in this module pin that in
//! one process, under every mode the machine can run, at adversarial
//! capacities (0, 1, 63, 64, 65, 255, 256, 511, 513, 768, 960, 4095, 4097
//! bits: word boundaries and every mix of 8-word blocks, the 4-word block
//! and the scalar tail) and at 0–12 rows, against a deliberately naive
//! scalar reference ([`scalar`]).
//!
//! # How to add a kernel
//!
//! 1. Write the naive loop in [`scalar`] — that is the specification.
//! 2. Add the unrolled version to `portable`, `#[inline(always)]` down to
//!    its innermost helper, so a target-feature wrapper compiles the whole
//!    loop for its ISA.
//! 3. Only if the wider ISA wins on the kernel's bench row: add a safe
//!    `#[target_feature(enable = "avx2,popcnt")]` wrapper around the
//!    portable body to the `x86_64`-gated `wide` module.
//! 4. Export a dispatching wrapper (`fn name(...)`) that validates slice
//!    lengths **before** dispatch plus an explicit-mode twin (`name_in`) for
//!    differential tests, following [`or_rows_count`] / [`or_rows_count_in`].
//! 5. Extend `proptest` parity below to cover the new kernel at the
//!    adversarial capacities, under every mode, against the scalar
//!    reference.
//!
//! The crate is `deny(unsafe_code)`.  Its only `unsafe` code is the two
//! dispatch blocks in [`set_rows_count_in`] and [`or_rows_count_in`]:
//! calling a `#[target_feature]` function from code compiled without those
//! features is `unsafe`, and each block runs only after
//! [`KernelMode::wide_supported`] has confirmed them on this CPU.  There
//! are no intrinsics and no raw pointers.

use std::sync::OnceLock;

/// Which compilation the emission kernels dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// The portable loops built for the baseline target; available on
    /// every target.
    Portable,
    /// The same loops compiled for AVX2 + POPCNT; `x86_64` with runtime
    /// `avx2` and `popcnt` support only.
    Wide,
}

impl KernelMode {
    /// Whether the [`KernelMode::Wide`] path can execute on this machine:
    /// the CPU reports both `avx2` and `popcnt`.
    pub fn wide_supported() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("popcnt")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// The mode every dispatching kernel entry point uses, decided once per
    /// process and cached in a `OnceLock`: [`KernelMode::Wide`] where
    /// [`KernelMode::wide_supported`], otherwise [`KernelMode::Portable`] —
    /// so the per-call cost is one atomic load, never a feature
    /// re-detection.
    pub fn active() -> KernelMode {
        static MODE: OnceLock<KernelMode> = OnceLock::new();
        *MODE.get_or_init(|| {
            if Self::wide_supported() {
                KernelMode::Wide
            } else {
                KernelMode::Portable
            }
        })
    }
}

/// Asserts every row spans exactly the destination's words, so the
/// implementations below may trust their indices.
fn check_rows(dst_len: usize, rows: &[&[u64]]) {
    for row in rows {
        assert_eq!(row.len(), dst_len, "kernel row length mismatch");
    }
}

/// Overwrites `dst` with the OR of the rows and returns the number of set
/// bits in the result, in **one write-only pass** over the `dst` words
/// (rows indexed in the inner loop, count fused) — the multi-row gather
/// behind `HappySet::assign_many` and the table emission path.  Unlike
/// [`or_rows_count`] the previous contents of `dst` do not participate, so
/// emission skips both the reset memset and the per-block `dst` load.
///
/// With no rows this zeroes `dst` and returns 0.
///
/// # Panics
/// Panics if some row's length differs from `dst`'s.
pub fn set_rows_count(dst: &mut [u64], rows: &[&[u64]]) -> u64 {
    set_rows_count_in(KernelMode::active(), dst, rows)
}

/// [`set_rows_count`] under an explicit [`KernelMode`] — the entry point
/// differential tests and benchmarks use to compare the two compilations
/// in one process.  [`KernelMode::Wide`] degrades to portable where
/// unsupported.
#[inline]
pub fn set_rows_count_in(mode: KernelMode, dst: &mut [u64], rows: &[&[u64]]) -> u64 {
    check_rows(dst.len(), rows);
    match mode {
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        KernelMode::Wide if KernelMode::wide_supported() => {
            // SAFETY: `KernelMode::wide_supported()` confirmed avx2 and
            // popcnt on this CPU in the guard of this arm.
            unsafe { wide::set_rows_count(dst, rows) }
        }
        _ => portable::set_rows_count(dst, rows),
    }
}

/// ORs every row into `dst` and returns the number of set bits in the
/// result, in **one fused pass** over the `dst` words (rows indexed in the
/// inner loop) — the spill pass behind `HappySet::assign_many` past its
/// first eight rows.
///
/// With no rows this is a pure popcount of `dst`.
///
/// # Panics
/// Panics if some row's length differs from `dst`'s.
pub fn or_rows_count(dst: &mut [u64], rows: &[&[u64]]) -> u64 {
    or_rows_count_in(KernelMode::active(), dst, rows)
}

/// [`or_rows_count`] under an explicit [`KernelMode`] — the entry point
/// differential tests and benchmarks use to compare the two compilations
/// in one process.  [`KernelMode::Wide`] degrades to portable where
/// unsupported.
#[inline]
pub fn or_rows_count_in(mode: KernelMode, dst: &mut [u64], rows: &[&[u64]]) -> u64 {
    check_rows(dst.len(), rows);
    match mode {
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        KernelMode::Wide if KernelMode::wide_supported() => {
            // SAFETY: `KernelMode::wide_supported()` confirmed avx2 and
            // popcnt on this CPU in the guard of this arm.
            unsafe { wide::or_rows_count(dst, rows) }
        }
        _ => portable::or_rows_count(dst, rows),
    }
}

/// The lane gather behind batched independence verification: ORs
/// `table[v]` for every `v` in `indices` and returns the resulting word.
/// `table` is a bit-sliced membership table — bit `i` of `table[v]` says
/// node `v` belongs to class `i` of the batch — so for a neighbour list,
/// bit `i` of the result is set iff the list meets class `i`: one row load
/// answers the AND-any question for up to 64 classes at once.  The access
/// pattern is a data-dependent gather, which no supported ISA beats scalar
/// loads at, so — like [`count`] — this runs the (unrolled) portable loop
/// under every mode.
///
/// # Panics
/// Panics if some index is out of the table's bounds.
pub fn intersects_many_indexed(indices: &[usize], table: &[u64]) -> u64 {
    portable::intersects_many_indexed(indices, table)
}

/// Number of set bits in `words` (off the emission path, so it has no
/// wide compilation).
pub fn count(words: &[u64]) -> u64 {
    portable::popcount(words)
}

/// Calls `f` with the index of every set bit of `words`, ascending — the
/// set-bit extraction kernel (`trailing_zeros` word scan) behind
/// `HappySet::for_each` and the membership-table reset.
#[inline]
pub fn for_each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            f(wi * 64 + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

/// Whether `pred` holds for every set bit of `words` (ascending, early
/// exit on the first `false`) — the member walk of `Graph::is_independent`.
#[inline]
pub fn all_set_bits(words: &[u64], mut pred: impl FnMut(usize) -> bool) -> bool {
    for (wi, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            if !pred(wi * 64 + w.trailing_zeros() as usize) {
                return false;
            }
            w &= w - 1;
        }
    }
    true
}

/// The deliberately naive reference implementations: one full `dst` pass per
/// row followed by a separate popcount rescan — the exact pre-kernel (PR 3)
/// emission shape.  These are the *specification* the fused kernels are
/// property-tested against, and the differential baseline experiment `e13`
/// and `benches/kernels.rs` time the fused paths over.
pub mod scalar {
    /// One OR pass over `dst` per row, then a separate count rescan.
    ///
    /// # Panics
    /// Panics if some row's length differs from `dst`'s.
    pub fn or_rows_count(dst: &mut [u64], rows: &[&[u64]]) -> u64 {
        super::check_rows(dst.len(), rows);
        for row in rows {
            for (d, r) in dst.iter_mut().zip(*row) {
                *d |= r;
            }
        }
        dst.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Zero `dst`, then one OR pass per row, then a count rescan — the
    /// exact pre-kernel emission sequence (`reset` memset + one
    /// `union_with` per row + cardinality recount).
    ///
    /// # Panics
    /// Panics if some row's length differs from `dst`'s.
    pub fn set_rows_count(dst: &mut [u64], rows: &[&[u64]]) -> u64 {
        dst.iter_mut().for_each(|w| *w = 0);
        or_rows_count(dst, rows)
    }

    /// One-by-one indexed gather.
    ///
    /// # Panics
    /// Panics if some index is out of the table's bounds.
    pub fn intersects_many_indexed(indices: &[usize], table: &[u64]) -> u64 {
        indices.iter().fold(0u64, |acc, &i| acc | table[i])
    }
}

/// The one kernel source.  The two emission kernels are one fused pass in
/// blocks: 8-word blocks, each stored and popcounted into eight lane
/// counters, then one 4-word block, then a scalar tail of at most three
/// words.  `rows_count` and everything below it is `#[inline(always)]`,
/// so the `wide` wrappers compile the whole loop for AVX2 + POPCNT.
mod portable {
    // The baseline compilation stays out of line, so the dispatchers that
    // choose between it and the wide one inline into their callers.
    #[inline(never)]
    pub(super) fn set_rows_count(dst: &mut [u64], rows: &[&[u64]]) -> u64 {
        rows_count::<false>(dst, rows)
    }

    #[inline(never)]
    pub(super) fn or_rows_count(dst: &mut [u64], rows: &[&[u64]]) -> u64 {
        rows_count::<true>(dst, rows)
    }

    /// Both emission kernels: OR the rows into `dst` (onto its old words
    /// when `INTO`, over them otherwise) and count the result.  Up to 8 rows
    /// run at a compile-time arity (every table the experiments build has a
    /// handful of distinct moduli); more rows run the same blocks over the
    /// runtime row list.
    #[inline(always)]
    pub(super) fn rows_count<const INTO: bool>(dst: &mut [u64], rows: &[&[u64]]) -> u64 {
        match rows.len() {
            1 => fixed::<1, INTO>(dst, rows),
            2 => fixed::<2, INTO>(dst, rows),
            3 => fixed::<3, INTO>(dst, rows),
            4 => fixed::<4, INTO>(dst, rows),
            5 => fixed::<5, INTO>(dst, rows),
            6 => fixed::<6, INTO>(dst, rows),
            7 => fixed::<7, INTO>(dst, rows),
            8 => fixed::<8, INTO>(dst, rows),
            _ => fused::<INTO>(dst, rows),
        }
    }

    /// [`fused`] at compile-time arity `K`.  The `..n` re-slices prove the
    /// row lengths to LLVM, so the row loop unrolls and the block loads
    /// need no bounds checks.
    #[inline(always)]
    fn fixed<const K: usize, const INTO: bool>(dst: &mut [u64], rows: &[&[u64]]) -> u64 {
        let n = dst.len();
        let rows: [&[u64]; K] = std::array::from_fn(|k| &rows[k][..n]);
        fused::<INTO>(dst, &rows)
    }

    /// One pass over `dst`: every block ORs the rows' words (onto the old
    /// `dst` words when `INTO`), stores the result and counts it, so the
    /// count never re-reads `dst`.  The 8-word blocks add their popcounts
    /// to eight lane counters, summed once after the loop; the short blocks
    /// after it are counted on the spot, and the tail is straight-line
    /// code, not a loop.
    #[inline(always)]
    fn fused<const INTO: bool>(dst: &mut [u64], rows: &[&[u64]]) -> u64 {
        let n = dst.len();
        let mut lanes = [0u64; 8];
        let mut i = 0usize;
        while i + 8 <= n {
            let words = block::<8, INTO>(dst, rows, i);
            for (lane, w) in lanes.iter_mut().zip(&words) {
                *lane += u64::from(w.count_ones());
            }
            i += 8;
        }
        let mut total: u64 = lanes.iter().sum();
        if i + 4 <= n {
            total += popcount(&block::<4, INTO>(dst, rows, i));
            i += 4;
        }
        if i + 2 <= n {
            total += popcount(&block::<2, INTO>(dst, rows, i));
            i += 2;
        }
        if i < n {
            total += popcount(&block::<1, INTO>(dst, rows, i));
        }
        total
    }

    /// The `W` words at `i`, OR'd across the rows, stored and returned.
    #[inline(always)]
    fn block<const W: usize, const INTO: bool>(
        dst: &mut [u64],
        rows: &[&[u64]],
        i: usize,
    ) -> [u64; W] {
        let out: &mut [u64; W] = (&mut dst[i..i + W]).try_into().expect("block within dst");
        let mut acc = if INTO { *out } else { [0u64; W] };
        for row in rows {
            let words: &[u64; W] = row[i..i + W].try_into().expect("block within row");
            for (a, w) in acc.iter_mut().zip(words) {
                *a |= w;
            }
        }
        *out = acc;
        acc
    }

    #[inline(always)]
    pub(super) fn popcount(words: &[u64]) -> u64 {
        words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    pub(super) fn intersects_many_indexed(indices: &[usize], table: &[u64]) -> u64 {
        // Four independent OR chains hide the gather latency.
        let n = indices.len();
        let mut i = 0usize;
        let (mut a0, mut a1, mut a2, mut a3) = (0u64, 0u64, 0u64, 0u64);
        while i + 4 <= n {
            a0 |= table[indices[i]];
            a1 |= table[indices[i + 1]];
            a2 |= table[indices[i + 2]];
            a3 |= table[indices[i + 3]];
            i += 4;
        }
        while i < n {
            a0 |= table[indices[i]];
            i += 1;
        }
        a0 | a1 | a2 | a3
    }
}

/// The portable emission loops compiled for AVX2 + POPCNT.  These are safe
/// functions; calling one from code built without those features is
/// `unsafe`, which is why each dispatch site checks
/// [`KernelMode::wide_supported`] first.
#[cfg(target_arch = "x86_64")]
mod wide {
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) fn set_rows_count(dst: &mut [u64], rows: &[&[u64]]) -> u64 {
        super::portable::rows_count::<false>(dst, rows)
    }

    #[target_feature(enable = "avx2,popcnt")]
    pub(super) fn or_rows_count(dst: &mut [u64], rows: &[&[u64]]) -> u64 {
        super::portable::rows_count::<true>(dst, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The adversarial capacities (bits) from the dispatch contract: word
    /// boundaries, the 4-word and 8-word blocks, and every mix of 8-word
    /// blocks, the 4-word block and the scalar tail (9, 12 and 15 words).
    const CAPACITIES: [usize; 13] = [0, 1, 63, 64, 65, 255, 256, 511, 513, 768, 960, 4095, 4097];

    /// Every mode the machine can actually execute (an unsupported mode
    /// would silently degrade to the same code as a supported one).
    fn modes() -> Vec<KernelMode> {
        let mut modes = vec![KernelMode::Portable];
        if KernelMode::wide_supported() {
            modes.push(KernelMode::Wide);
        }
        modes
    }

    /// Deterministic word soup from a seed (splitmix64), masked to `bits`.
    fn words_for(bits: usize, mut seed: u64) -> Vec<u64> {
        let mut words = vec![0u64; bits.div_ceil(64)];
        for w in &mut words {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *w = z ^ (z >> 31);
        }
        if !bits.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (bits % 64)) - 1;
            }
        }
        words
    }

    #[test]
    fn active_mode_is_wide_exactly_where_supported() {
        assert_eq!(KernelMode::active() == KernelMode::Wide, KernelMode::wide_supported());
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            KernelMode::wide_supported(),
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("popcnt"),
            "wide needs both avx2 and popcnt"
        );
    }

    #[test]
    fn kernels_agree_with_scalar_at_adversarial_capacities() {
        for &bits in &CAPACITIES {
            for seed in 0..4u64 {
                let dst0 = words_for(bits, seed);
                let rows: Vec<Vec<u64>> =
                    (0..5).map(|r| words_for(bits, seed * 31 + r + 1)).collect();
                for take in [0usize, 1, 2, 5] {
                    let refs: Vec<&[u64]> = rows[..take].iter().map(Vec::as_slice).collect();
                    let mut expected = dst0.clone();
                    let expected_count = scalar::or_rows_count(&mut expected, &refs);
                    for mode in modes() {
                        let mut dst = dst0.clone();
                        let got = or_rows_count_in(mode, &mut dst, &refs);
                        assert_eq!(dst, expected, "{bits} bits, {take} rows, {mode:?}");
                        assert_eq!(got, expected_count, "{bits} bits, {take} rows, {mode:?}");

                        // The gather: previous dst contents must not leak in.
                        let mut set_expected = dst0.clone();
                        let set_count = scalar::set_rows_count(&mut set_expected, &refs);
                        let mut dst = dst0.clone();
                        let got = set_rows_count_in(mode, &mut dst, &refs);
                        assert_eq!(dst, set_expected, "set: {bits} bits, {take} rows, {mode:?}");
                        assert_eq!(got, set_count, "set count: {bits} bits, {take} rows, {mode:?}");
                    }
                    assert_eq!(count(&expected), expected_count, "count: {bits} bits");
                }
            }
        }
    }

    #[test]
    fn intersects_many_indexed_agrees_with_scalar() {
        for &bits in &CAPACITIES {
            for seed in 0..3u64 {
                let row = words_for(bits, seed * 13 + 1);
                let table = column_for(row.len() * 64, seed * 13 + 2);
                let mut indices = Vec::new();
                for_each_set_bit(&row, |b| indices.push(b));
                assert_eq!(
                    intersects_many_indexed(&indices, &table),
                    scalar::intersects_many_indexed(&indices, &table),
                    "indexed: {bits} bits"
                );
            }
        }
        assert_eq!(intersects_many_indexed(&[], &[]), 0, "no indices, no intersections");
    }

    #[test]
    fn set_bit_extraction_matches_a_naive_scan() {
        for &bits in &CAPACITIES {
            let words = words_for(bits, 3);
            let mut got = Vec::new();
            for_each_set_bit(&words, |b| got.push(b));
            let expected: Vec<usize> =
                (0..bits).filter(|&b| words[b / 64] & (1u64 << (b % 64)) != 0).collect();
            assert_eq!(got, expected, "{bits} bits");
            assert!(got.windows(2).all(|w| w[0] < w[1]), "ascending order");
            assert_eq!(got.len() as u64, count(&words));

            assert!(all_set_bits(&words, |b| expected.contains(&b)));
            if let Some(&first) = expected.first() {
                let mut seen = 0usize;
                assert!(!all_set_bits(&words, |b| {
                    seen += 1;
                    b != first
                }));
                assert_eq!(seen, 1, "early exit after the first failing bit");
            }
        }
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn mismatched_rows_are_rejected() {
        let mut dst = vec![0u64; 4];
        let row = vec![0u64; 3];
        or_rows_count(&mut dst, &[&row]);
    }

    /// A membership-table soup with extreme lanes: ordinary values, zeros
    /// and `u64::MAX` mixed in.
    fn column_for(len: usize, seed: u64) -> Vec<u64> {
        let raw = words_for(len.max(1) * 64, seed);
        (0..len)
            .map(|i| match raw[i] % 5 {
                0 => 0,
                1 => u64::MAX,
                2 => raw[i] >> 32,
                _ => raw[i],
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The dispatch contract, fuzzed: both modes produce the scalar
        /// reference's bits and count for arbitrary word soups at every
        /// adversarial capacity, at every compile-time arity (1–8 rows)
        /// and past it, on the runtime row list (0 and 9–12 rows).
        #[test]
        fn fused_kernels_are_bitwise_equal_to_scalar(
            cap_index in 0usize..CAPACITIES.len(),
            seed in 0u64..1_000_000,
            row_count in 0usize..13,
        ) {
            let bits = CAPACITIES[cap_index];
            let dst0 = words_for(bits, seed);
            let rows: Vec<Vec<u64>> =
                (0..row_count as u64).map(|r| words_for(bits, seed ^ (r + 1).wrapping_mul(0xDEAD_BEEF))).collect();
            let refs: Vec<&[u64]> = rows.iter().map(Vec::as_slice).collect();
            let mut expected = dst0.clone();
            let expected_count = scalar::or_rows_count(&mut expected, &refs);
            let mut set_expected = dst0.clone();
            let set_count = scalar::set_rows_count(&mut set_expected, &refs);
            for mode in modes() {
                let mut dst = dst0.clone();
                prop_assert_eq!(or_rows_count_in(mode, &mut dst, &refs), expected_count);
                prop_assert_eq!(&dst, &expected);
                let mut dst = dst0.clone();
                prop_assert_eq!(set_rows_count_in(mode, &mut dst, &refs), set_count);
                prop_assert_eq!(&dst, &set_expected);
            }
        }
    }
}
