//! Fused word kernels: the one audited surface every hot bit loop runs on.
//!
//! PR 3 made the horizon analytically free for periodic schedules, which
//! left the closed-form analysis *emission-bound*: the `cycle` calls to
//! `ResidueTable::fill` / `HappySet::union_many` (OR residue rows, count the
//! result) and the word-wise independence probes dominate what is left.
//! Those are all straight-line bit kernels — exactly the shape that rewards
//! wide, fused word loops — so this module centralises them behind a small,
//! heavily-tested API and routes every hot caller through it:
//!
//! * [`set_rows_count`] — the **multi-row gather**: overwrite `dst` with the
//!   OR of any number of rows, rows indexed in the *inner* loop, counting
//!   the set bits of the result in the same pass.  One write-only sweep of
//!   `dst` replaces the old reset-memset + one-OR-pass-per-row +
//!   count-rescan emission shape.  Backs `HappySet::assign_many`, and
//!   through it `ResidueTable::fill`.
//! * [`or_rows_count`] — the **fused OR + popcount**: like the gather but
//!   OR-ing *into* the existing `dst` bits.  Backs `HappySet::union_many` /
//!   `union_with`.
//! * [`or_rows`] — the same multi-row OR without the count, for interior
//!   batches when a caller fuses the count into its final batch only.
//! * [`intersects`] — the **fused AND-any** with per-block early exit,
//!   backing `FixedBitSet::intersects` and the dense adjacency-row
//!   independence checker.
//! * [`intersects_many`] / [`intersects_many_indexed`] — the **row-broadcast
//!   gather** behind batched independence verification: one adjacency row
//!   (a bit row, or a CSR neighbour list) is tested against up to 64 class
//!   bitmaps at once by OR-ing the lanes of a bit-sliced membership table
//!   selected by the row's set bits.  Bit `i` of the returned word is set
//!   iff the row intersects class `i` — one row load serves the whole
//!   batch.
//! * [`count`] — unrolled popcount of a word slice.
//! * [`for_each_set_bit`] / [`all_set_bits`] — **set-bit extraction** via
//!   `trailing_zeros` word scans, backing `hosts_into`, the `CycleProfile`
//!   attendance recording and the word-raw member walks of both
//!   independence checkers.
//!
//! # Dispatch contract
//!
//! Every data-plane kernel exists in up to three implementations:
//!
//! * **portable** — unrolled `u64x4`-style scalar loops, available on every
//!   target,
//! * **wide** — 256-bit AVX2 loops, compiled only for `x86_64` and executed
//!   only after a successful runtime `avx2` detection, and
//! * **wide512** — 512-bit AVX-512 loops (`avx512f`), again `x86_64`-only
//!   behind a runtime detection.
//!
//! Not every kernel has all three: a kernel keeps an arm only where the
//! wider ISA measurably buys something on its own bench row.  The
//! per-kernel dispatch table:
//!
//! | kernel | portable | wide (AVX2) | wide512 (AVX-512) |
//! |---|---|---|---|
//! | [`set_rows_count`], [`set_rows`], [`or_rows_count`], [`or_rows`] | ✓ | ✓ | runs the AVX2 arm |
//! | [`intersects`] | ✓ | ✓ | runs the AVX2 arm |
//! | [`intersects_many`] | ✓ | slower than portable (e15b): portable | ✓ |
//! | [`intersects_many_indexed`] | ✓ | gather-bound: portable | gather-bound: portable |
//! | [`count`], [`for_each_set_bit`], [`all_set_bits`] | ✓ | scalar popcount unit: portable | portable |
//!
//! [`KernelMode::active`] decides the mode **once per process** and caches
//! the decision in a `OnceLock` (so the hot path never re-detects and
//! never re-reads the environment): the `FHG_KERNEL` environment variable
//! (`portable` | `wide` | `wide512`) overrides for parity testing,
//! otherwise the widest supported path is used.  Requesting `wide` or
//! `wide512` on a machine without the feature falls back to the best
//! supported mode — the override selects an implementation, it cannot make
//! unsupported instructions execute.
//!
//! All implementations are **bitwise-identical by contract**: for every
//! input, every kernel returns the same bits in `dst` and the same scalar
//! result under every mode.  The property tests in this module pin that at
//! adversarial capacities (0, 1, 63, 64, 65, 255, 256, 4095, 4097 bits)
//! against a deliberately naive scalar reference ([`scalar`]), and CI
//! runs the full workspace suite with `FHG_KERNEL=portable` and
//! `FHG_KERNEL=wide512` forced so no arm can silently diverge.
//!
//! # How to add a kernel
//!
//! 1. Write the naive loop in [`scalar`] — that is the specification.
//! 2. Add the unrolled portable version to [`portable`] and (only if the
//!    inner loop genuinely vectorises) the AVX2 version to the
//!    `x86_64`-gated `wide` module and/or the AVX-512 version to the
//!    `wide512` module, as an `unsafe fn` with the matching
//!    `#[target_feature(enable = ...)]` and a safety comment.
//! 3. Export a dispatching wrapper (`fn name(...)`) that validates slice
//!    lengths **before** dispatch plus an explicit-mode twin (`name_in`) for
//!    differential tests, following [`or_rows_count`] / [`or_rows_count_in`].
//!    A kernel without its own `wide512` arm lists `Wide512` alongside
//!    `Wide` in the AVX2 arm so the wider mode still takes its best path.
//! 4. Extend `proptest` parity below to cover the new kernel at the
//!    adversarial capacities, under every mode, against the scalar
//!    reference.
//!
//! This is the single module in the crate allowed to use `unsafe` (the
//! crate is otherwise `deny(unsafe_code)`); the only unsafe operations are
//! the AVX2 and AVX-512 intrinsics behind the runtime feature checks.

#![allow(unsafe_code)]

use std::sync::OnceLock;

/// Which implementation the word kernels dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Unrolled portable `u64x4`-style loops; available on every target.
    Portable,
    /// 256-bit AVX2 loops; `x86_64` with runtime `avx2` support only.
    Wide,
    /// 512-bit AVX-512 loops (`avx512f`); kernels without a 512-bit form
    /// run their AVX2 arm under this mode.
    Wide512,
}

impl KernelMode {
    /// Whether the [`KernelMode::Wide`] path can execute on this machine.
    pub fn wide_supported() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Whether the [`KernelMode::Wide512`] path can execute on this machine
    /// (`avx512f`, the 512-bit integer core).
    pub fn wide512_supported() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx512f")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// The mode every dispatching kernel entry point uses, decided once per
    /// process and cached in a `OnceLock`: the `FHG_KERNEL` override
    /// (`portable` | `wide` | `wide512`) when set, otherwise the widest
    /// supported mode — so the per-call cost is one atomic load, never a
    /// feature re-detection or an environment read.  An unrecognised
    /// override is not fatal: it logs one warning to stderr and falls back
    /// to auto-detection (a long-lived serving process must not be killable
    /// by a typo in its environment).
    pub fn active() -> KernelMode {
        static MODE: OnceLock<KernelMode> = OnceLock::new();
        *MODE.get_or_init(|| Self::from_env(std::env::var("FHG_KERNEL").ok().as_deref()))
    }

    /// Parses the `FHG_KERNEL` override (factored out of [`KernelMode::active`]
    /// so the policy is testable despite the process-wide cache).
    fn from_env(var: Option<&str>) -> KernelMode {
        let auto = if Self::wide512_supported() {
            KernelMode::Wide512
        } else if Self::wide_supported() {
            KernelMode::Wide
        } else {
            KernelMode::Portable
        };
        match var {
            None | Some("") => auto,
            Some("portable") => KernelMode::Portable,
            // The override selects an implementation; it cannot make
            // unsupported instructions execute, so a wide request degrades
            // to the best supported mode.  `wide` never upgrades to
            // `wide512` — parity runs pin the exact arm they ask for.
            Some("wide") => {
                if Self::wide_supported() {
                    KernelMode::Wide
                } else {
                    KernelMode::Portable
                }
            }
            Some("wide512") => auto,
            Some(other) => {
                eprintln!(
                    "warning: FHG_KERNEL={other:?} is not a kernel mode \
                     (use \"portable\", \"wide\" or \"wide512\"); auto-detecting"
                );
                auto
            }
        }
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
/// differential tests and benchmarks use to compare the two implementations
/// in one process.  [`KernelMode::Wide`] degrades to portable where
/// unsupported.
pub fn set_rows_count_in(mode: KernelMode, dst: &mut [u64], rows: &[&[u64]]) -> u64 {
    check_rows(dst.len(), rows);
    match mode {
        #[cfg(target_arch = "x86_64")]
        KernelMode::Wide | KernelMode::Wide512 if KernelMode::wide_supported() => {
            // SAFETY: the avx2 feature was verified at runtime on this line.
            unsafe { wide::set_rows_count(dst, rows) }
        }
        _ => portable::set_rows_count(dst, rows),
    }
}

/// [`set_rows_count`] without the count — the interior-batch variant for
/// callers that fuse the cardinality into their final batch only.
///
/// # Panics
/// Panics if some row's length differs from `dst`'s.
pub fn set_rows(dst: &mut [u64], rows: &[&[u64]]) {
    set_rows_in(KernelMode::active(), dst, rows);
}

/// [`set_rows`] under an explicit [`KernelMode`].
pub fn set_rows_in(mode: KernelMode, dst: &mut [u64], rows: &[&[u64]]) {
    check_rows(dst.len(), rows);
    match mode {
        #[cfg(target_arch = "x86_64")]
        KernelMode::Wide | KernelMode::Wide512 if KernelMode::wide_supported() => {
            // SAFETY: the avx2 feature was verified at runtime on this line.
            unsafe { wide::set_rows(dst, rows) }
        }
        _ => portable::set_rows(dst, rows),
    }
}

/// ORs every row into `dst` and returns the number of set bits in the
/// result, in **one fused pass** over the `dst` words (rows indexed in the
/// inner loop) — the emission kernel behind `HappySet::union_many`.
///
/// With no rows this is a pure popcount of `dst`.
///
/// # Panics
/// Panics if some row's length differs from `dst`'s.
pub fn or_rows_count(dst: &mut [u64], rows: &[&[u64]]) -> u64 {
    or_rows_count_in(KernelMode::active(), dst, rows)
}

/// [`or_rows_count`] under an explicit [`KernelMode`] — the entry point
/// differential tests and benchmarks use to compare the two implementations
/// in one process.  [`KernelMode::Wide`] degrades to portable where
/// unsupported.
pub fn or_rows_count_in(mode: KernelMode, dst: &mut [u64], rows: &[&[u64]]) -> u64 {
    check_rows(dst.len(), rows);
    match mode {
        #[cfg(target_arch = "x86_64")]
        KernelMode::Wide | KernelMode::Wide512 if KernelMode::wide_supported() => {
            // SAFETY: the avx2 feature was verified at runtime on this line.
            unsafe { wide::or_rows_count(dst, rows) }
        }
        _ => portable::or_rows_count(dst, rows),
    }
}

/// ORs every row into `dst` without counting — the interior-batch variant of
/// [`or_rows_count`] for callers that fuse the count into their final batch.
///
/// # Panics
/// Panics if some row's length differs from `dst`'s.
pub fn or_rows(dst: &mut [u64], rows: &[&[u64]]) {
    or_rows_in(KernelMode::active(), dst, rows);
}

/// [`or_rows`] under an explicit [`KernelMode`].
pub fn or_rows_in(mode: KernelMode, dst: &mut [u64], rows: &[&[u64]]) {
    check_rows(dst.len(), rows);
    match mode {
        #[cfg(target_arch = "x86_64")]
        KernelMode::Wide | KernelMode::Wide512 if KernelMode::wide_supported() => {
            // SAFETY: the avx2 feature was verified at runtime on this line.
            unsafe { wide::or_rows(dst, rows) }
        }
        _ => portable::or_rows(dst, rows),
    }
}

/// Whether `a` and `b` share any set bit — the fused AND-any with per-block
/// early exit behind `FixedBitSet::intersects` and the dense independence
/// checker.  Lengths may differ; only the common prefix can intersect.
pub fn intersects(a: &[u64], b: &[u64]) -> bool {
    intersects_in(KernelMode::active(), a, b)
}

/// [`intersects`] under an explicit [`KernelMode`].
pub fn intersects_in(mode: KernelMode, a: &[u64], b: &[u64]) -> bool {
    match mode {
        #[cfg(target_arch = "x86_64")]
        KernelMode::Wide | KernelMode::Wide512 if KernelMode::wide_supported() => {
            // SAFETY: the avx2 feature was verified at runtime on this line.
            unsafe { wide::intersects(a, b) }
        }
        _ => portable::intersects(a, b),
    }
}

/// The row-broadcast gather behind batched independence verification: ORs
/// together `table[v]` for every set bit `v` of `row` and returns the
/// resulting word.  `table` is a bit-sliced membership table — bit `i` of
/// `table[v]` says node `v` belongs to class `i` of the batch — so bit `i`
/// of the result is set iff `row` intersects class `i`: one adjacency-row
/// load answers the AND-any question for up to 64 classes at once.
///
/// Empty row words are skipped (adjacency rows are sparse at scale), so the
/// cost is one word test per 64 nodes plus one table load per neighbour.
///
/// # Panics
/// Panics if `table` has fewer than `row.len() * 64` lanes (one per
/// possible set bit).
pub fn intersects_many(row: &[u64], table: &[u64]) -> u64 {
    intersects_many_in(KernelMode::active(), row, table)
}

/// [`intersects_many`] under an explicit [`KernelMode`].
pub fn intersects_many_in(mode: KernelMode, row: &[u64], table: &[u64]) -> u64 {
    assert!(
        table.len() >= row.len() * 64,
        "kernel table too short: {} lanes for a {}-word row",
        table.len(),
        row.len()
    );
    match mode {
        #[cfg(target_arch = "x86_64")]
        KernelMode::Wide512 if KernelMode::wide512_supported() => {
            // SAFETY: the avx512f feature was verified at runtime on this
            // line.
            unsafe { wide512::intersects_many(row, table) }
        }
        // The AVX2 arm measured slower than portable (e15b), so `Wide`
        // runs the portable loop.
        _ => portable::intersects_many(row, table),
    }
}

/// [`intersects_many`] for a CSR neighbour list: ORs `table[v]` for every
/// `v` in `indices`.  The access pattern is a data-dependent gather, which
/// no supported ISA beats scalar loads at, so — like [`count`] — this runs
/// the (unrolled) portable loop under every mode.
///
/// # Panics
/// Panics if some index is out of the table's bounds.
pub fn intersects_many_indexed(indices: &[usize], table: &[u64]) -> u64 {
    portable::intersects_many_indexed(indices, table)
}

/// Number of set bits in `words` (unrolled popcount; the popcount unit is
/// scalar on every supported target, so there is no wide variant).
pub fn count(words: &[u64]) -> u64 {
    portable::count(words)
}

/// Calls `f` with the index of every set bit of `words`, ascending — the
/// set-bit extraction kernel (`trailing_zeros` word scan) behind
/// `hosts_into` and the `CycleProfile` attendance recording.
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
/// exit on the first `false`) — the member walk of both independence
/// checkers.
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
    /// exact pre-kernel emission sequence (`reset` memset + `union_with`
    /// loop + cardinality recount).
    ///
    /// # Panics
    /// Panics if some row's length differs from `dst`'s.
    pub fn set_rows_count(dst: &mut [u64], rows: &[&[u64]]) -> u64 {
        dst.iter_mut().for_each(|w| *w = 0);
        or_rows_count(dst, rows)
    }

    /// Word-at-a-time AND-any over the common prefix.
    pub fn intersects(a: &[u64], b: &[u64]) -> bool {
        a.iter().zip(b).any(|(x, y)| x & y != 0)
    }

    /// Bit-by-bit row-broadcast gather: walk every set bit of `row` and OR
    /// the matching membership-table lane.
    ///
    /// # Panics
    /// Panics if `table` has fewer than `row.len() * 64` lanes.
    pub fn intersects_many(row: &[u64], table: &[u64]) -> u64 {
        let mut acc = 0u64;
        for (wi, &word) in row.iter().enumerate() {
            for bit in 0..64 {
                if word & (1u64 << bit) != 0 {
                    acc |= table[wi * 64 + bit];
                }
            }
        }
        acc
    }

    /// One-by-one indexed gather.
    ///
    /// # Panics
    /// Panics if some index is out of the table's bounds.
    pub fn intersects_many_indexed(indices: &[usize], table: &[u64]) -> u64 {
        indices.iter().fold(0u64, |acc, &i| acc | table[i])
    }
}

/// Unrolled portable loops — `u64x4`-style: four words per iteration, rows
/// in the inner loop, so the compiler can keep the four accumulators in
/// registers (and autovectorise where profitable).
mod portable {
    /// One write-only gather pass at compile-time arity `K` (the row count
    /// of every table the experiments build is tiny).  The `..n` re-slices
    /// prove the lengths to LLVM, so the loop autovectorises with the inner
    /// row loop fully unrolled.
    fn gather_fixed<const K: usize>(dst: &mut [u64], rows: &[&[u64]]) {
        let n = dst.len();
        let rows: [&[u64]; K] = std::array::from_fn(|k| &rows[k][..n]);
        for (i, d) in dst.iter_mut().enumerate() {
            let mut w = 0u64;
            for row in &rows {
                w |= row[i];
            }
            *d = w;
        }
    }

    pub(super) fn set_rows(dst: &mut [u64], rows: &[&[u64]]) {
        match rows.len() {
            0 => dst.iter_mut().for_each(|w| *w = 0),
            1 => gather_fixed::<1>(dst, rows),
            2 => gather_fixed::<2>(dst, rows),
            3 => gather_fixed::<3>(dst, rows),
            4 => gather_fixed::<4>(dst, rows),
            5 => gather_fixed::<5>(dst, rows),
            6 => gather_fixed::<6>(dst, rows),
            7 => gather_fixed::<7>(dst, rows),
            8 => gather_fixed::<8>(dst, rows),
            // Beyond the batch width callers already split; degrade to the
            // gather-into-zeroed-destination shape.
            _ => {
                dst.iter_mut().for_each(|w| *w = 0);
                or_rows(dst, rows);
            }
        }
    }

    pub(super) fn set_rows_count(dst: &mut [u64], rows: &[&[u64]]) -> u64 {
        set_rows(dst, rows);
        count(dst)
    }

    pub(super) fn or_rows_count(dst: &mut [u64], rows: &[&[u64]]) -> u64 {
        let n = dst.len();
        let mut total = 0u64;
        let mut i = 0usize;
        while i + 4 <= n {
            let (mut w0, mut w1, mut w2, mut w3) = (dst[i], dst[i + 1], dst[i + 2], dst[i + 3]);
            for row in rows {
                w0 |= row[i];
                w1 |= row[i + 1];
                w2 |= row[i + 2];
                w3 |= row[i + 3];
            }
            dst[i] = w0;
            dst[i + 1] = w1;
            dst[i + 2] = w2;
            dst[i + 3] = w3;
            total +=
                u64::from(w0.count_ones() + w1.count_ones() + w2.count_ones() + w3.count_ones());
            i += 4;
        }
        while i < n {
            let mut w = dst[i];
            for row in rows {
                w |= row[i];
            }
            dst[i] = w;
            total += u64::from(w.count_ones());
            i += 1;
        }
        total
    }

    pub(super) fn or_rows(dst: &mut [u64], rows: &[&[u64]]) {
        let n = dst.len();
        let mut i = 0usize;
        while i + 4 <= n {
            let (mut w0, mut w1, mut w2, mut w3) = (dst[i], dst[i + 1], dst[i + 2], dst[i + 3]);
            for row in rows {
                w0 |= row[i];
                w1 |= row[i + 1];
                w2 |= row[i + 2];
                w3 |= row[i + 3];
            }
            dst[i] = w0;
            dst[i + 1] = w1;
            dst[i + 2] = w2;
            dst[i + 3] = w3;
            i += 4;
        }
        while i < n {
            let mut w = dst[i];
            for row in rows {
                w |= row[i];
            }
            dst[i] = w;
            i += 1;
        }
    }

    pub(super) fn intersects(a: &[u64], b: &[u64]) -> bool {
        let n = a.len().min(b.len());
        let mut i = 0usize;
        while i + 4 <= n {
            let hit = (a[i] & b[i])
                | (a[i + 1] & b[i + 1])
                | (a[i + 2] & b[i + 2])
                | (a[i + 3] & b[i + 3]);
            if hit != 0 {
                return true;
            }
            i += 4;
        }
        while i < n {
            if a[i] & b[i] != 0 {
                return true;
            }
            i += 1;
        }
        false
    }

    pub(super) fn intersects_many(row: &[u64], table: &[u64]) -> u64 {
        let mut acc = 0u64;
        for (wi, &word) in row.iter().enumerate() {
            // Empty words are the common case on sparse adjacency rows;
            // non-empty ones walk set bits via trailing_zeros like the
            // extraction kernel.
            let mut w = word;
            let base = wi * 64;
            while w != 0 {
                acc |= table[base + w.trailing_zeros() as usize];
                w &= w - 1;
            }
        }
        acc
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

    pub(super) fn count(words: &[u64]) -> u64 {
        let n = words.len();
        let mut total = 0u64;
        let mut i = 0usize;
        while i + 4 <= n {
            total += u64::from(
                words[i].count_ones()
                    + words[i + 1].count_ones()
                    + words[i + 2].count_ones()
                    + words[i + 3].count_ones(),
            );
            i += 4;
        }
        while i < n {
            total += u64::from(words[i].count_ones());
            i += 1;
        }
        total
    }
}

/// 256-bit AVX2 loops.  Every function here carries
/// `#[target_feature(enable = "avx2")]` and must only be called after a
/// successful runtime `avx2` detection (the dispatch wrappers above
/// guarantee it); slice lengths were validated by the wrapper, so the raw
/// pointer arithmetic stays in bounds.
#[cfg(target_arch = "x86_64")]
mod wide {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256, _mm256_extract_epi64,
        _mm256_loadu_si256, _mm256_or_si256, _mm256_sad_epu8, _mm256_set1_epi8, _mm256_setr_epi8,
        _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_srli_epi16, _mm256_storeu_si256,
        _mm256_testz_si256,
    };

    /// Adds the popcount of `v` to the four 64-bit lane counters of `acc` —
    /// the classic nibble-LUT vector popcount (`pshufb` twice, byte-sum via
    /// `sad_epu8`): the count stays in registers block after block, never
    /// re-reading the words just stored and never leaving the vector domain
    /// until [`sum_lanes`] folds the counters once per call.
    ///
    /// # Safety
    /// Requires runtime `avx2` support.
    #[target_feature(enable = "avx2")]
    unsafe fn popcount_add(acc: __m256i, v: __m256i) -> __m256i {
        // Register-only intrinsics: safe to call once the avx2 target
        // feature is in effect (the caller contract).
        #[rustfmt::skip]
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_mask);
        let per_byte = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_add_epi64(acc, _mm256_sad_epu8(per_byte, _mm256_setzero_si256()))
    }

    /// Folds the four 64-bit lane counters into one scalar total.
    ///
    /// # Safety
    /// Requires runtime `avx2` support.
    #[target_feature(enable = "avx2")]
    unsafe fn sum_lanes(acc: __m256i) -> u64 {
        // Register-only intrinsics: safe to call once the avx2 target
        // feature is in effect (the caller contract).
        (_mm256_extract_epi64::<0>(acc) as u64)
            .wrapping_add(_mm256_extract_epi64::<1>(acc) as u64)
            .wrapping_add(_mm256_extract_epi64::<2>(acc) as u64)
            .wrapping_add(_mm256_extract_epi64::<3>(acc) as u64)
    }

    /// # Safety
    /// Requires runtime `avx2` support and `row.len() == dst.len()` for
    /// every row.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn set_rows_count(dst: &mut [u64], rows: &[&[u64]]) -> u64 {
        let n = dst.len();
        let mut i = 0usize;
        // SAFETY (whole block): the loop guards keep every load/store of 4
        // words within `n`, and every row spans n words (wrapper
        // invariant); avx2 is guaranteed by the caller contract.
        let mut total = unsafe {
            // Two independent accumulator chains (8 words per iteration):
            // amortises the loop and row-pointer overhead and keeps the
            // popcount chains from serialising on one counter register.
            let mut counters0 = _mm256_setzero_si256();
            let mut counters1 = _mm256_setzero_si256();
            while i + 8 <= n {
                let mut acc0 = _mm256_setzero_si256();
                let mut acc1 = _mm256_setzero_si256();
                for row in rows {
                    let p = row.as_ptr().add(i);
                    acc0 = _mm256_or_si256(acc0, _mm256_loadu_si256(p as *const __m256i));
                    acc1 = _mm256_or_si256(acc1, _mm256_loadu_si256(p.add(4) as *const __m256i));
                }
                let q = dst.as_mut_ptr().add(i);
                _mm256_storeu_si256(q as *mut __m256i, acc0);
                _mm256_storeu_si256(q.add(4) as *mut __m256i, acc1);
                counters0 = popcount_add(counters0, acc0);
                counters1 = popcount_add(counters1, acc1);
                i += 8;
            }
            if i + 4 <= n {
                let mut acc = _mm256_setzero_si256();
                for row in rows {
                    acc = _mm256_or_si256(
                        acc,
                        _mm256_loadu_si256(row.as_ptr().add(i) as *const __m256i),
                    );
                }
                _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, acc);
                counters0 = popcount_add(counters0, acc);
                i += 4;
            }
            sum_lanes(_mm256_add_epi64(counters0, counters1))
        };
        while i < n {
            let mut w = 0u64;
            for row in rows {
                w |= row[i];
            }
            dst[i] = w;
            total += u64::from(w.count_ones());
            i += 1;
        }
        total
    }

    /// # Safety
    /// Requires runtime `avx2` support and `row.len() == dst.len()` for
    /// every row.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn set_rows(dst: &mut [u64], rows: &[&[u64]]) {
        let n = dst.len();
        let mut i = 0usize;
        // SAFETY (whole block): the loop guards keep every load/store of 8
        // (then 4) words within `n`, and every row spans n words (wrapper
        // invariant); avx2 is guaranteed by the caller contract.
        unsafe {
            while i + 8 <= n {
                let mut acc0 = _mm256_setzero_si256();
                let mut acc1 = _mm256_setzero_si256();
                for row in rows {
                    let p = row.as_ptr().add(i);
                    acc0 = _mm256_or_si256(acc0, _mm256_loadu_si256(p as *const __m256i));
                    acc1 = _mm256_or_si256(acc1, _mm256_loadu_si256(p.add(4) as *const __m256i));
                }
                let q = dst.as_mut_ptr().add(i);
                _mm256_storeu_si256(q as *mut __m256i, acc0);
                _mm256_storeu_si256(q.add(4) as *mut __m256i, acc1);
                i += 8;
            }
            if i + 4 <= n {
                let mut acc = _mm256_setzero_si256();
                for row in rows {
                    acc = _mm256_or_si256(
                        acc,
                        _mm256_loadu_si256(row.as_ptr().add(i) as *const __m256i),
                    );
                }
                _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, acc);
                i += 4;
            }
        }
        while i < n {
            let mut w = 0u64;
            for row in rows {
                w |= row[i];
            }
            dst[i] = w;
            i += 1;
        }
    }

    /// # Safety
    /// Requires runtime `avx2` support and `row.len() == dst.len()` for
    /// every row.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn or_rows_count(dst: &mut [u64], rows: &[&[u64]]) -> u64 {
        let n = dst.len();
        let mut i = 0usize;
        // SAFETY (whole block): i + 4 <= n and every row spans n words
        // (wrapper invariant), so all four-word unaligned loads are in
        // bounds; avx2 is guaranteed by the caller contract.
        let mut total = unsafe {
            let mut counters = _mm256_setzero_si256();
            while i + 4 <= n {
                let p = dst.as_ptr().add(i) as *const __m256i;
                let mut acc = _mm256_loadu_si256(p);
                for row in rows {
                    acc = _mm256_or_si256(
                        acc,
                        _mm256_loadu_si256(row.as_ptr().add(i) as *const __m256i),
                    );
                }
                _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, acc);
                counters = popcount_add(counters, acc);
                i += 4;
            }
            sum_lanes(counters)
        };
        while i < n {
            let mut w = dst[i];
            for row in rows {
                w |= row[i];
            }
            dst[i] = w;
            total += u64::from(w.count_ones());
            i += 1;
        }
        total
    }

    /// # Safety
    /// Requires runtime `avx2` support and `row.len() == dst.len()` for
    /// every row.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn or_rows(dst: &mut [u64], rows: &[&[u64]]) {
        let n = dst.len();
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n and every row spans n words (wrapper
            // invariant), so all four-word unaligned loads are in bounds.
            unsafe {
                let p = dst.as_ptr().add(i) as *const __m256i;
                let mut acc = _mm256_loadu_si256(p);
                for row in rows {
                    acc = _mm256_or_si256(
                        acc,
                        _mm256_loadu_si256(row.as_ptr().add(i) as *const __m256i),
                    );
                }
                _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, acc);
            }
            i += 4;
        }
        while i < n {
            let mut w = dst[i];
            for row in rows {
                w |= row[i];
            }
            dst[i] = w;
            i += 1;
        }
    }

    /// # Safety
    /// Requires runtime `avx2` support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn intersects(a: &[u64], b: &[u64]) -> bool {
        let n = a.len().min(b.len());
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n <= min(a.len(), b.len()), so both
            // four-word unaligned loads are in bounds.
            let disjoint = unsafe {
                let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
                let vb = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
                _mm256_testz_si256(va, vb)
            };
            if disjoint == 0 {
                return true;
            }
            i += 4;
        }
        while i < n {
            if a[i] & b[i] != 0 {
                return true;
            }
            i += 1;
        }
        false
    }
}

/// 512-bit AVX-512 loops (`avx512f`): the wider empty-chunk rejection for
/// the row-broadcast gather.  Every function carries the matching
/// `#[target_feature]` and must only be called after a successful runtime
/// detection (the dispatch wrappers guarantee it); slice lengths were
/// validated by the wrapper, so the raw pointer arithmetic stays in bounds.
#[cfg(target_arch = "x86_64")]
mod wide512 {
    use std::arch::x86_64::{__m512i, _mm512_loadu_si512, _mm512_test_epi64_mask};

    /// Loads 8 words from `s[i..]`.
    ///
    /// # Safety
    /// Requires runtime `avx512f` support and `i + 8 <= s.len()`.
    #[target_feature(enable = "avx512f")]
    unsafe fn load(s: &[u64], i: usize) -> __m512i {
        // SAFETY: caller guarantees i + 8 <= s.len().
        unsafe { _mm512_loadu_si512(s.as_ptr().add(i) as *const __m512i) }
    }

    /// # Safety
    /// Requires runtime `avx512f` support and `table.len() >= row.len() * 64`
    /// (wrapper invariant).
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn intersects_many(row: &[u64], table: &[u64]) -> u64 {
        let n = row.len();
        let mut acc = 0u64;
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n, so the eight-word unaligned load is in
            // bounds; avx512f is guaranteed by the caller contract.
            let occupied = unsafe {
                let v = load(row, i);
                _mm512_test_epi64_mask(v, v)
            };
            // One vector test rejects 512 empty row bits; each remaining
            // non-empty word (flagged in the test mask) walks its set bits
            // scalar — the table loads are a data-dependent gather.
            let mut words = occupied;
            while words != 0 {
                let wi = i + words.trailing_zeros() as usize;
                let mut w = row[wi];
                let base = wi * 64;
                while w != 0 {
                    acc |= table[base + w.trailing_zeros() as usize];
                    w &= w - 1;
                }
                words &= words - 1;
            }
            i += 8;
        }
        while i < n {
            let mut w = row[i];
            let base = i * 64;
            while w != 0 {
                acc |= table[base + w.trailing_zeros() as usize];
                w &= w - 1;
            }
            i += 1;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The adversarial capacities (bits) from the dispatch contract: word
    /// boundaries, the unroll width (4 words = 256 bits) and off-by-ones
    /// around both.
    const CAPACITIES: [usize; 9] = [0, 1, 63, 64, 65, 255, 256, 4095, 4097];

    /// Every mode the machine can actually execute (an unsupported mode
    /// would silently degrade to the same code as a supported one).
    fn modes() -> Vec<KernelMode> {
        let mut modes = vec![KernelMode::Portable];
        if KernelMode::wide_supported() {
            modes.push(KernelMode::Wide);
        }
        if KernelMode::wide512_supported() {
            modes.push(KernelMode::Wide512);
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
    fn from_env_parses_overrides_and_defaults() {
        let auto = KernelMode::from_env(None);
        assert_eq!(KernelMode::from_env(Some("")), auto);
        assert_eq!(KernelMode::from_env(Some("portable")), KernelMode::Portable);
        let wide = KernelMode::from_env(Some("wide"));
        let wide512 = KernelMode::from_env(Some("wide512"));
        assert_eq!(wide512, auto, "wide512 degrades to the best supported mode");
        if KernelMode::wide512_supported() {
            assert_eq!(auto, KernelMode::Wide512);
            assert_eq!(wide, KernelMode::Wide, "wide pins the AVX2 arm, never upgrades");
        } else if KernelMode::wide_supported() {
            assert_eq!(auto, KernelMode::Wide);
            assert_eq!(wide, KernelMode::Wide);
        } else {
            assert_eq!(auto, KernelMode::Portable);
            assert_eq!(wide, KernelMode::Portable, "unsupported wide degrades to portable");
        }
    }

    #[test]
    fn from_env_falls_back_to_auto_on_unknown_values() {
        // A typo in the environment must never kill a serving process: the
        // unrecognised override warns and auto-detects.
        let auto = KernelMode::from_env(None);
        assert_eq!(KernelMode::from_env(Some("avx512")), auto);
        assert_eq!(KernelMode::from_env(Some("WIDE")), auto, "overrides are case-sensitive");
    }

    #[test]
    fn active_mode_is_stable_across_calls() {
        assert_eq!(KernelMode::active(), KernelMode::active());
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

                        let mut dst = dst0.clone();
                        or_rows_in(mode, &mut dst, &refs);
                        assert_eq!(dst, expected, "or_rows: {bits} bits, {take} rows, {mode:?}");

                        // The gather: previous dst contents must not leak in.
                        let mut set_expected = dst0.clone();
                        let set_count = scalar::set_rows_count(&mut set_expected, &refs);
                        let mut dst = dst0.clone();
                        let got = set_rows_count_in(mode, &mut dst, &refs);
                        assert_eq!(dst, set_expected, "set: {bits} bits, {take} rows, {mode:?}");
                        assert_eq!(got, set_count, "set count: {bits} bits, {take} rows, {mode:?}");

                        let mut dst = dst0.clone();
                        set_rows_in(mode, &mut dst, &refs);
                        assert_eq!(
                            dst, set_expected,
                            "set_rows: {bits} bits, {take} rows, {mode:?}"
                        );

                        for row in &refs {
                            assert_eq!(
                                intersects_in(mode, &dst0, row),
                                scalar::intersects(&dst0, row),
                                "intersects: {bits} bits, {mode:?}"
                            );
                        }
                    }
                    assert_eq!(count(&expected), expected_count, "count: {bits} bits");
                }
            }
        }
    }

    #[test]
    fn intersects_many_agrees_with_scalar() {
        for &bits in &CAPACITIES {
            for seed in 0..3u64 {
                let row = words_for(bits, seed * 13 + 1);
                let table = column_for(row.len() * 64, seed * 13 + 2);
                let expected = scalar::intersects_many(&row, &table);
                for mode in modes() {
                    assert_eq!(
                        intersects_many_in(mode, &row, &table),
                        expected,
                        "intersects_many: {bits} bits, {mode:?}"
                    );
                }
                // The indexed twin over the same members must see the same
                // table lanes.
                let mut indices = Vec::new();
                for_each_set_bit(&row, |b| indices.push(b));
                assert_eq!(
                    intersects_many_indexed(&indices, &table),
                    scalar::intersects_many_indexed(&indices, &table),
                    "indexed: {bits} bits"
                );
                assert_eq!(intersects_many_indexed(&indices, &table), expected);
            }
        }
        assert_eq!(intersects_many_indexed(&[], &[]), 0, "no indices, no intersections");
    }

    #[test]
    #[should_panic(expected = "table too short")]
    fn short_membership_tables_are_rejected() {
        let row = vec![1u64; 2];
        let table = vec![0u64; 127];
        intersects_many(&row, &table);
    }

    #[test]
    fn intersects_handles_length_mismatch_like_scalar() {
        let long = words_for(4097, 7);
        let short = words_for(65, 8);
        for mode in modes() {
            assert_eq!(intersects_in(mode, &long, &short), scalar::intersects(&long, &short));
            assert_eq!(intersects_in(mode, &short, &long), scalar::intersects(&short, &long));
            assert!(!intersects_in(mode, &long, &[]));
            assert!(!intersects_in(mode, &[], &long));
        }
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
        /// reference's bits and count for arbitrary word soups and row
        /// counts at every adversarial capacity.
        #[test]
        fn fused_kernels_are_bitwise_equal_to_scalar(
            cap_index in 0usize..CAPACITIES.len(),
            seed in 0u64..1_000_000,
            row_count in 0usize..9,
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
            let table = column_for(dst0.len() * 64, seed ^ 0x00C0_FFEE);
            let many_expected = scalar::intersects_many(&dst0, &table);
            for mode in modes() {
                prop_assert_eq!(intersects_many_in(mode, &dst0, &table), many_expected);
                let mut dst = dst0.clone();
                prop_assert_eq!(or_rows_count_in(mode, &mut dst, &refs), expected_count);
                prop_assert_eq!(&dst, &expected);
                let mut dst = dst0.clone();
                prop_assert_eq!(set_rows_count_in(mode, &mut dst, &refs), set_count);
                prop_assert_eq!(&dst, &set_expected);
                let mut dst = dst0.clone();
                set_rows_in(mode, &mut dst, &refs);
                prop_assert_eq!(&dst, &set_expected);
                for row in &refs {
                    prop_assert_eq!(
                        intersects_in(mode, &dst0, row),
                        scalar::intersects(&dst0, row)
                    );
                }
            }
        }
    }
}
