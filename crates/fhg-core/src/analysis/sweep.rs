//! The sweeping engines: per-holiday accumulation, horizon sharding, and the
//! exact segment merge.
//!
//! # One accumulator plane
//!
//! Every engine accumulates into [`NodeAccum`], one small struct per node:
//! [`NodeAccum::record`] absorbs one happy appearance, [`merge_node`] folds
//! a segment summary into a running accumulator, and [`finalize`] /
//! [`totals`] reduce the merged accumulators to the public
//! [`ScheduleAnalysis`] / [`AnalysisTotals`].  A node's statistics depend
//! only on its own happy appearances, so nothing here ever looks across
//! nodes: the sharded sweep, the sequential reference and the closed-form
//! window fold of [`super::profile`] all run this same per-node arithmetic.
//!
//! # The merge algebra
//!
//! [`merge_node`] folds segment `s` (the next contiguous stretch of the
//! horizon) into the running accumulator `g`: the boundary gap between
//! `g`'s last happy offset and `s`'s first one is processed first (or, when
//! `g` is still empty, the leading unhappy stretch before `s`'s first
//! appearance), then `s`'s internal gaps are absorbed in order.  Because
//! that reproduces the sequential rule bit for bit, any partition of the
//! horizon into contiguous segments — one shard per worker thread here, or
//! a ragged head, replicated whole cycles and a ragged tail in the window
//! fold — merges back to a result bitwise-identical to the sequential sweep
//! (locked down end-to-end by `tests/analysis_parity.rs`).
//!
//! Two drivers feed the plane, each filling a [`Tally`] with zero heap
//! allocations per holiday.  [`ShardSweep`] is the sharded engine's
//! per-worker driver: a contiguous offset range, private scratch, and
//! batched verification (through the [`super::checker::ClassBatch`]) of the
//! offsets below the residue-cache bound.  [`ReferenceSweep`] is the
//! Sequential engine's — and so [`super::analyze_schedule_reference`]'s —
//! driver: every holiday verified on its own through
//! [`HolidayChecker::check`].  [`merge_shards`] combines the tallies in
//! horizon order.

use std::ops::Range;

use fhg_graph::{Graph, HappySet};

use super::checker::{ClassBatch, HolidayChecker};
use super::{AnalysisTotals, NodeAnalysis, ScheduleAnalysis};

/// Sentinel for "no offset/gap recorded yet" in the accumulators (horizons
/// never reach `u64::MAX`).
pub(super) const NONE: u64 = u64::MAX;

/// Per-node accumulator of one horizon segment (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct NodeAccum {
    /// Offset of the first happy holiday in the segment (`NONE` if none).
    pub(super) first: u64,
    /// Offset of the last happy holiday in the segment (`NONE` if none).
    pub(super) last: u64,
    /// Happy appearances in the segment.
    pub(super) happy: u64,
    /// Sum of the gaps between consecutive happy holidays in the segment.
    pub(super) gap_sum: u64,
    /// Number of such gaps.
    pub(super) gap_count: u64,
    /// The first gap observed (the candidate period); `NONE` if no gaps.
    pub(super) first_gap: u64,
    /// Largest `gap - 1` streak between happy holidays inside the segment.
    pub(super) max_streak: u64,
    /// Whether every gap observed so far equals `first_gap`.
    pub(super) uniform: bool,
}

impl NodeAccum {
    pub(super) fn empty() -> Self {
        NodeAccum {
            first: NONE,
            last: NONE,
            happy: 0,
            gap_sum: 0,
            gap_count: 0,
            first_gap: NONE,
            max_streak: 0,
            uniform: true,
        }
    }

    /// Absorbs one happy appearance at `offset`.  Offsets must arrive in
    /// strictly increasing order within one accumulator.
    #[inline]
    pub(super) fn record(&mut self, offset: u64) {
        self.happy += 1;
        if self.last == NONE {
            self.first = offset;
        } else {
            let gap = offset - self.last;
            self.max_streak = self.max_streak.max(gap - 1);
            self.gap_sum += gap;
            self.gap_count += 1;
            apply_gap_candidate(self, gap);
        }
        self.last = offset;
    }

    /// The longest unhappy stretch of a merged global accumulator over a
    /// horizon of `horizon` holidays: the streaks it holds (the leading one
    /// included) or the trailing stretch after its last appearance.
    #[inline]
    fn max_unhappiness(&self, horizon: u64) -> u64 {
        let trailing = if self.last == NONE { horizon } else { horizon - 1 - self.last };
        self.max_streak.max(trailing)
    }

    /// `Some(gap)` when at least one gap was observed and every gap equals
    /// the first.
    #[inline]
    fn observed_period(&self) -> Option<u64> {
        (self.uniform && self.first_gap != NONE).then_some(self.first_gap)
    }
}

/// Folds segment `s` (the next contiguous stretch of the horizon) into the
/// running accumulator `g`.  This is exactly the arithmetic the sequential
/// sweep performs, applied to segment summaries: the boundary gap between
/// `g`'s last happy offset and `s`'s first one is processed first, then `s`'s
/// internal gaps are absorbed in order — so the merged result is
/// bitwise-identical to a single sequential pass regardless of where the
/// horizon was cut.
#[inline]
pub(super) fn merge_node(g: &mut NodeAccum, s: &NodeAccum) {
    if s.happy == 0 {
        return;
    }
    if g.last == NONE {
        g.first = s.first;
        // The leading unhappy stretch before the very first happy holiday.
        g.max_streak = g.max_streak.max(s.first);
    } else {
        let gap = s.first - g.last;
        g.max_streak = g.max_streak.max(gap - 1);
        g.gap_sum += gap;
        g.gap_count += 1;
        apply_gap_candidate(g, gap);
    }
    g.max_streak = g.max_streak.max(s.max_streak);
    g.gap_sum += s.gap_sum;
    g.gap_count += s.gap_count;
    if s.gap_count > 0 {
        apply_gap_candidate(g, s.first_gap);
        if !s.uniform {
            g.uniform = false;
        }
    }
    g.happy += s.happy;
    g.last = s.last;
}

#[inline]
fn apply_gap_candidate(g: &mut NodeAccum, gap: u64) {
    if g.first_gap == NONE {
        g.first_gap = gap;
    } else if g.first_gap != gap {
        g.uniform = false;
    }
}

/// Per-node accumulators plus the scalar verdicts of one stretch of the
/// horizon — what each sweep driver fills and [`merge_shards`] combines.
pub(super) struct Tally {
    pub(super) accum: Vec<NodeAccum>,
    pub(super) all_independent: bool,
    pub(super) total_happiness: u64,
}

impl Tally {
    fn new(n: usize) -> Self {
        Tally { accum: vec![NodeAccum::empty(); n], all_independent: true, total_happiness: 0 }
    }

    /// Counts the happy set emitted at `offset`.  Members at or beyond the
    /// graph's node count mark the schedule non-independent and get no
    /// accumulator.
    #[inline]
    fn absorb(&mut self, happy: &HappySet, offset: u64) {
        self.total_happiness += happy.len() as u64;
        let n = self.accum.len();
        happy.for_each(|p| {
            if p >= n {
                self.all_independent = false;
            } else {
                self.accum[p].record(offset);
            }
        });
    }
}

/// One worker's slice of the horizon in the sharded engine: a contiguous
/// offset range, private scratch, and the shard's [`Tally`].
pub(super) struct ShardSweep {
    /// Offsets (from the start of the horizon) this shard covers.
    offsets: Range<u64>,
    /// Offsets below this bound get an independence check; at or above it the
    /// cached per-residue verdict is replayed (equal to the horizon when no
    /// cache applies).
    verify_below: u64,
    pub(super) tally: Tally,
    happy: HappySet,
    /// Buffered classes awaiting batched verification — only offsets below
    /// `verify_below` pass through it; replayed offsets keep using `happy`.
    batch: ClassBatch,
}

impl ShardSweep {
    pub(super) fn new(n: usize, capacity: usize, offsets: Range<u64>, verify_below: u64) -> Self {
        ShardSweep {
            offsets,
            verify_below,
            tally: Tally::new(n),
            happy: HappySet::new(capacity),
            batch: ClassBatch::new(capacity),
        }
    }

    /// Sweeps the shard's offsets: emit, verify (below `verify_below`,
    /// buffered through the [`ClassBatch`] and flushed via
    /// [`HolidayChecker::check_batch`] up to 64 classes at a time), and
    /// count.  Zero heap allocations per holiday: `fill` reuses the shard's
    /// scratch buffers and the tally was sized up front.
    pub(super) fn sweep<C: HolidayChecker + ?Sized>(
        &mut self,
        start: u64,
        checker: &C,
        mut fill: impl FnMut(u64, &mut HappySet),
    ) {
        for offset in self.offsets.clone() {
            let t = start + offset;
            if offset < self.verify_below {
                // Verified offsets emit straight into a batch slot so the
                // set survives until the flush.
                let happy = self.batch.slot(t);
                fill(t, happy);
                self.tally.absorb(happy, offset);
                if self.batch.commit() {
                    let ok = self.batch.flush(self.tally.all_independent, checker);
                    self.tally.all_independent &= ok;
                }
            } else {
                // Replayed offsets (the residue cache already holds their
                // verdict) bypass verification entirely.
                fill(t, &mut self.happy);
                self.tally.absorb(&self.happy, offset);
            }
        }
        let ok = self.batch.flush(self.tally.all_independent, checker);
        self.tally.all_independent &= ok;
    }
}

/// The Sequential engine's driver: holidays `0..horizon`, each verified on
/// its own.
pub(super) struct ReferenceSweep {
    horizon: u64,
    pub(super) tally: Tally,
    happy: HappySet,
}

impl ReferenceSweep {
    pub(super) fn new(n: usize, capacity: usize, horizon: u64) -> Self {
        ReferenceSweep { horizon, tally: Tally::new(n), happy: HappySet::new(capacity) }
    }

    /// Sweeps the horizon: emit, verify every holiday (until the first
    /// failure), and count, with zero heap allocations per holiday.
    pub(super) fn sweep<C: HolidayChecker + ?Sized>(
        &mut self,
        start: u64,
        checker: &C,
        mut fill: impl FnMut(u64, &mut HappySet),
    ) {
        for offset in 0..self.horizon {
            let t = start + offset;
            fill(t, &mut self.happy);
            if self.tally.all_independent && !checker.check(t, self.happy.as_bitset()) {
                self.tally.all_independent = false;
            }
            self.tally.absorb(&self.happy, offset);
        }
    }
}

/// Splits `horizon` offsets into at most `parts` contiguous, non-empty
/// ranges (earlier ranges get the remainder, matching an even split).
pub(super) fn split_offsets(horizon: u64, parts: usize) -> Vec<Range<u64>> {
    if horizon == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = (parts as u64).min(horizon);
    let base = horizon / parts;
    let remainder = horizon % parts;
    let mut ranges = Vec::with_capacity(parts as usize);
    let mut lo = 0u64;
    for i in 0..parts {
        let len = base + u64::from(i < remainder);
        ranges.push(lo..lo + len);
        lo += len;
    }
    ranges
}

/// Merges shard tallies (in horizon order) into one global tally through
/// [`merge_node`].
pub(super) fn merge_shards<'a>(n: usize, shards: impl IntoIterator<Item = &'a Tally>) -> Tally {
    let mut global = Tally::new(n);
    for shard in shards {
        global.all_independent &= shard.all_independent;
        global.total_happiness += shard.total_happiness;
        for (g, s) in global.accum.iter_mut().zip(&shard.accum) {
            merge_node(g, s);
        }
    }
    global
}

fn mean_happy_set_size(total_happiness: u64, horizon: u64) -> f64 {
    if horizon == 0 {
        0.0
    } else {
        total_happiness as f64 / horizon as f64
    }
}

/// Assembles merged global accumulators (node `p` is the `p`-th item) into
/// the final [`ScheduleAnalysis`]: the trailing unhappy stretch, the
/// observed period and the float statistics.
pub(super) fn finalize(
    scheduler: String,
    horizon: u64,
    graph: &Graph,
    global: impl IntoIterator<Item = NodeAccum>,
    all_independent: bool,
    total_happiness: u64,
) -> ScheduleAnalysis {
    let per_node: Vec<NodeAnalysis> = global
        .into_iter()
        .enumerate()
        .map(|(p, a)| NodeAnalysis {
            node: p,
            degree: graph.degree(p),
            happy_count: a.happy,
            max_unhappiness: a.max_unhappiness(horizon),
            observed_period: a.observed_period(),
            first_happy: (a.first != NONE).then_some(a.first),
            mean_gap: if a.gap_count > 0 {
                a.gap_sum as f64 / a.gap_count as f64
            } else {
                f64::NAN
            },
        })
        .collect();

    let never_happy = per_node.iter().filter(|n| n.happy_count == 0).map(|n| n.node).collect();
    ScheduleAnalysis {
        scheduler,
        horizon,
        mean_happy_set_size: mean_happy_set_size(total_happiness, horizon),
        per_node,
        all_happy_sets_independent: all_independent,
        never_happy,
        total_happiness,
    }
}

/// The totals-only reduction of merged global accumulators: the aggregate
/// view of [`finalize`]'s output, with no per-node assembly, no float work
/// per node and no allocation.
pub(super) fn totals(
    horizon: u64,
    global: impl IntoIterator<Item = NodeAccum>,
    all_independent: bool,
    total_happiness: u64,
) -> AnalysisTotals {
    let mut max_unhappiness = 0u64;
    let mut all_periodic = true;
    let mut never_happy = 0u64;
    for a in global {
        max_unhappiness = max_unhappiness.max(a.max_unhappiness(horizon));
        all_periodic &= a.observed_period().is_some();
        never_happy += u64::from(a.happy == 0);
    }
    AnalysisTotals {
        horizon,
        total_happiness,
        mean_happy_set_size: mean_happy_set_size(total_happiness, horizon),
        max_unhappiness,
        all_periodic,
        never_happy,
        all_happy_sets_independent: all_independent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_offsets_covers_the_horizon_exactly() {
        for (horizon, parts) in [(10u64, 3usize), (7, 8), (1, 1), (64, 4), (5, 5)] {
            let ranges = split_offsets(horizon, parts);
            assert!(ranges.len() <= parts);
            assert!(ranges.iter().all(|r| !r.is_empty()), "no empty shards");
            let mut expected = 0u64;
            for r in &ranges {
                assert_eq!(r.start, expected, "contiguous coverage");
                expected = r.end;
            }
            assert_eq!(expected, horizon);
        }
        assert!(split_offsets(0, 4).is_empty());
        assert!(split_offsets(9, 0).is_empty());
    }

    #[test]
    fn record_matches_a_hand_computed_sequence() {
        let mut a = NodeAccum::empty();
        for offset in [2u64, 4, 6, 11] {
            a.record(offset);
        }
        assert_eq!(a.first, 2);
        assert_eq!(a.last, 11);
        assert_eq!(a.happy, 4);
        assert_eq!(a.gap_sum, 9);
        assert_eq!(a.gap_count, 3);
        assert_eq!(a.first_gap, 2);
        assert_eq!(a.max_streak, 4, "the 6 -> 11 gap leaves a streak of 4");
        assert!(!a.uniform, "gap 5 breaks the candidate period 2");
    }

    #[test]
    fn merging_split_segments_equals_one_sequential_pass() {
        let offsets = [1u64, 3, 5, 12, 13, 20];
        let mut sequential = NodeAccum::empty();
        for &o in &offsets {
            sequential.record(o);
        }
        let mut whole = NodeAccum::empty();
        merge_node(&mut whole, &sequential);
        // Every split point must reproduce the same merged accumulator.
        for cut in 0..=offsets.len() {
            let (lo, hi) = offsets.split_at(cut);
            let mut a = NodeAccum::empty();
            let mut b = NodeAccum::empty();
            lo.iter().for_each(|&o| a.record(o));
            hi.iter().for_each(|&o| b.record(o));
            let mut merged = NodeAccum::empty();
            merge_node(&mut merged, &a);
            merge_node(&mut merged, &b);
            assert_eq!(merged, whole, "cut at {cut}");
        }
    }
}
