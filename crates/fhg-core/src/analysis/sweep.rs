//! The accumulator plane and the sequential engine: per-holiday
//! accumulation, the exact segment merge, and the reductions to the public
//! results.
//!
//! # One accumulator plane
//!
//! Every engine ends in [`NodeAccum`], one small struct per node:
//! [`NodeAccum::record`] absorbs one happy appearance, [`merge_node`] folds
//! a segment summary into a running accumulator, and
//! [`NodeAccum::analysis`] / [`TotalsFold`] reduce the merged accumulators
//! to the public [`ScheduleAnalysis`] / [`AnalysisTotals`].  A node's
//! statistics depend only on its own happy appearances, so nothing here
//! ever looks across nodes: the sequential reference, the progression
//! engine of [`super::progression`] (which writes each merged accumulator
//! in closed form) and the window fold of [`super::profile`] (the same
//! formula, once per distinct progression) all reduce through this same
//! per-node arithmetic.
//!
//! # The merge algebra
//!
//! [`merge_node`] folds segment `s` (the next contiguous stretch of the
//! horizon) into the running accumulator `g`: the boundary gap between
//! `g`'s last happy offset and `s`'s first one is processed first (or, when
//! `g` is still empty, the leading unhappy stretch before `s`'s first
//! appearance), then `s`'s internal gaps are absorbed in order.  Because
//! that reproduces the sequential rule bit for bit, any partition of the
//! horizon into contiguous segments merges back to a result
//! bitwise-identical to the sequential sweep.  The sweep merges one
//! segment per lane, its whole horizon, into the empty accumulator; the
//! closed forms write that merged accumulator directly and merge nothing,
//! and the window fold's test witness in [`super::profile`] merges a
//! replayed head, replicated whole cycles and a replayed tail (pinned
//! against recording every offset there).
//!
//! [`sequential`] is the Sequential engine — and so
//! [`super::analyze_schedule_reference`]: every holiday emitted, verified
//! on its own through [`HolidayChecker::check`] and recorded, with zero
//! heap allocations per holiday.

use fhg_graph::{Graph, HappySet, NodeId};

use super::checker::HolidayChecker;
use super::{AnalysisTotals, NodeAnalysis, ScheduleAnalysis};

/// Sentinel for "no offset/gap recorded yet" in the accumulators (every
/// offset and gap is below the horizon, so never `u64::MAX`).
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

    /// The public per-node result of a merged global accumulator over a
    /// horizon of `horizon` holidays.
    #[inline]
    pub(super) fn analysis(&self, node: NodeId, degree: usize, horizon: u64) -> NodeAnalysis {
        NodeAnalysis {
            node,
            degree,
            happy_count: self.happy,
            max_unhappiness: self.max_unhappiness(horizon),
            observed_period: self.observed_period(),
            first_happy: (self.first != NONE).then_some(self.first),
            mean_gap: if self.gap_count > 0 {
                self.gap_sum as f64 / self.gap_count as f64
            } else {
                f64::NAN
            },
        }
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

/// Per-node accumulators plus the scalar verdicts of the sequential sweep.
struct Tally {
    accum: Vec<NodeAccum>,
    all_independent: bool,
    total_happiness: u64,
}

impl Tally {
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

/// The Sequential engine: emits holidays `start..start + horizon` through
/// `fill` into one buffer of `capacity` nodes, verifies each on its own
/// through [`HolidayChecker::check`] (until the first failure) and records
/// it for every graph node, with zero heap allocations per holiday.  Each
/// lane is then merged into the empty accumulator, which adds its leading
/// unhappy stretch, and the lanes are finalized.
pub(super) fn sequential<C: HolidayChecker + ?Sized>(
    scheduler: String,
    graph: &Graph,
    capacity: usize,
    horizon: u64,
    start: u64,
    checker: &C,
    mut fill: impl FnMut(u64, &mut HappySet),
) -> ScheduleAnalysis {
    let mut tally = Tally {
        accum: vec![NodeAccum::empty(); graph.node_count()],
        all_independent: true,
        total_happiness: 0,
    };
    let mut happy = HappySet::new(capacity);
    for offset in 0..horizon {
        let t = start + offset;
        fill(t, &mut happy);
        if tally.all_independent && !checker.check(t, happy.as_bitset()) {
            tally.all_independent = false;
        }
        tally.absorb(&happy, offset);
    }
    for lane in &mut tally.accum {
        let segment = std::mem::replace(lane, NodeAccum::empty());
        merge_node(lane, &segment);
    }
    finalize(scheduler, horizon, graph, tally.accum, tally.all_independent, tally.total_happiness)
}

fn mean_happy_set_size(total_happiness: u64, horizon: u64) -> f64 {
    if horizon == 0 {
        0.0
    } else {
        total_happiness as f64 / horizon as f64
    }
}

/// Assembles merged global accumulators (node `p` is the `p`-th item) into
/// the final [`ScheduleAnalysis`].
pub(super) fn finalize(
    scheduler: String,
    horizon: u64,
    graph: &Graph,
    global: impl IntoIterator<Item = NodeAccum>,
    all_independent: bool,
    total_happiness: u64,
) -> ScheduleAnalysis {
    let per_node = global
        .into_iter()
        .enumerate()
        .map(|(p, a)| a.analysis(p, graph.degree(p), horizon))
        .collect();
    assemble(scheduler, horizon, per_node, all_independent, total_happiness)
}

/// Wraps finished per-node results into the [`ScheduleAnalysis`].  The
/// never-happy list gets its exact capacity, so it allocates only when some
/// node never hosts.
pub(super) fn assemble(
    scheduler: String,
    horizon: u64,
    per_node: Vec<NodeAnalysis>,
    all_independent: bool,
    total_happiness: u64,
) -> ScheduleAnalysis {
    let never = |n: &&NodeAnalysis| n.happy_count == 0;
    let mut never_happy = Vec::with_capacity(per_node.iter().filter(never).count());
    never_happy.extend(per_node.iter().filter(never).map(|n| n.node));
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
/// per node and no allocation.  Nodes that share an accumulator fold in
/// once: the maximum and the periodicity conjunction are idempotent, and
/// only the never-happy count is weighted.
pub(super) struct TotalsFold {
    max_unhappiness: u64,
    all_periodic: bool,
    never_happy: u64,
}

impl TotalsFold {
    pub(super) fn new() -> Self {
        TotalsFold { max_unhappiness: 0, all_periodic: true, never_happy: 0 }
    }

    /// Folds in `nodes` nodes whose merged accumulator over `horizon`
    /// holidays is `a`.
    #[inline]
    pub(super) fn absorb(&mut self, a: &NodeAccum, horizon: u64, nodes: u64) {
        self.max_unhappiness = self.max_unhappiness.max(a.max_unhappiness(horizon));
        self.all_periodic &= a.observed_period().is_some();
        if a.happy == 0 {
            self.never_happy += nodes;
        }
    }

    pub(super) fn finish(
        self,
        horizon: u64,
        all_independent: bool,
        total_happiness: u64,
    ) -> AnalysisTotals {
        AnalysisTotals {
            horizon,
            total_happiness,
            mean_happy_set_size: mean_happy_set_size(total_happiness, horizon),
            max_unhappiness: self.max_unhappiness,
            all_periodic: self.all_periodic,
            never_happy: self.never_happy,
            all_happy_sets_independent: all_independent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
