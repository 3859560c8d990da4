//! The progression engine: one-shot analysis of a residue schedule with no
//! cycle walk.
//!
//! In every perfectly periodic schedule of the paper, node `p` hosts on
//! exactly one arithmetic progression `t ≡ s_p (mod m_p)` (a
//! [`ResidueSchedule`] row).  Everything [`super::analyze_schedule`] reports
//! over `h` holidays from holiday `start` follows from those rows:
//!
//! * **one formula per node** — the first hosting offset is
//!   `o0 = (s − start) mod m`
//!   ([`offset_from`](fhg_codes::Progression::offset_from)); when `o0 < h`
//!   the node hosts `count = (h − 1 − o0)/m + 1` times, last at
//!   `o0 + (count − 1)·m`, so its longest unhappy stretch is the largest of
//!   the leading stretch `o0`, the trailing one and (from two appearances
//!   on) the inner gap `m − 1`, and its observed period is `m` once it hosts
//!   twice ([`window_lane`], which the serving tier's
//!   [`CycleProfile`](super::CycleProfile) window fold shares);
//! * **one congruence per edge** — the endpoints of an edge host together on
//!   some holiday iff their rows meet, `s_u ≡ s_v (mod gcd(m_u, m_v))`
//!   ([`meets`](fhg_codes::Progression::meets)), and their first shared
//!   holiday is the CRT solution
//!   ([`meeting`](fhg_codes::Progression::meeting)).  A horizon of at least
//!   one cycle holds every shared holiday, so the meeting is only compared
//!   with the horizon below one cycle.  Each edge is tested once, from its
//!   lower endpoint's row slice above itself ([`Graph::neighbors_above`]),
//!   which the packed graph lays out in node order.
//!
//! The node formula produces exactly the merged [`NodeAccum`] a sequential
//! sweep of the horizon ends with, and the per-node statistics reduce
//! through the same [`NodeAccum::analysis`] and [`sweep::TotalsFold`]
//! arithmetic as the other engines, so the result is bitwise-identical to
//! [`super::analyze_schedule_reference`] (pinned by
//! `tests/analysis_parity.rs`, conflicting views included).  The cost is
//! `O(n + m)` for `n` nodes and `m` edges, independent of the horizon and the
//! cycle: no happy set is emitted, no checker is built, and nothing is
//! allocated beyond the output (`tests/zero_alloc.rs`).
//!
//! View nodes at or beyond the graph's node count get no per-node entry.
//! Their appearances count into `total_happiness`, and any appearance inside
//! the horizon fails the independence verdict, as in the sweep.

use fhg_graph::{Graph, NodeId};

use super::sweep::{self, NodeAccum, TotalsFold, NONE};
use super::{AnalysisTotals, ScheduleAnalysis};
use crate::schedulers::residue::ResidueSchedule;

/// The full analysis of `horizon` holidays of `view`, from holiday `start`.
pub(super) fn analyze(
    scheduler: &str,
    graph: &Graph,
    view: &ResidueSchedule,
    start: u64,
    horizon: u64,
) -> ScheduleAnalysis {
    let beyond = beyond_graph_happiness(graph, view, start, horizon);
    let mut total = beyond;
    let per_node = (0..graph.node_count())
        .map(|p| {
            let lane = lane(view, p, start, horizon);
            total = total.saturating_add(lane.happy);
            lane.analysis(p, graph.degree(p), horizon)
        })
        .collect();
    let independent = beyond == 0 && edges_independent(graph, view, start, horizon);
    sweep::assemble(scheduler.to_string(), horizon, per_node, independent, total)
}

/// The whole-schedule aggregates of the same analysis, with no per-node
/// assembly and no allocation.
pub(super) fn totals(
    graph: &Graph,
    view: &ResidueSchedule,
    start: u64,
    horizon: u64,
) -> AnalysisTotals {
    let beyond = beyond_graph_happiness(graph, view, start, horizon);
    let mut total = beyond;
    let mut fold = TotalsFold::new();
    for p in 0..graph.node_count() {
        let lane = lane(view, p, start, horizon);
        total = total.saturating_add(lane.happy);
        fold.absorb(&lane, horizon, 1);
    }
    let independent = beyond == 0 && edges_independent(graph, view, start, horizon);
    fold.finish(horizon, independent, total)
}

/// Node `p`'s merged accumulator over the horizon, in closed form.  Graph
/// nodes missing from the view never host.
fn lane(view: &ResidueSchedule, p: NodeId, start: u64, horizon: u64) -> NodeAccum {
    if p >= view.node_count() {
        return NodeAccum::empty();
    }
    let row = view.row(p);
    window_lane(row.offset_from(start), row.modulus, horizon)
}

/// The merged accumulator of the progression `first, first + step, …` over
/// a window of `len` holidays: the accumulator that recording each offset
/// below `len` and merging the segment into the empty accumulator would
/// produce.  `O(1)`, whatever the window and the step.
#[inline]
pub(super) fn window_lane(first: u64, step: u64, len: u64) -> NodeAccum {
    if first >= len {
        return NodeAccum::empty();
    }
    let gaps = div(len - 1 - first, step);
    let gap_sum = gaps * step;
    NodeAccum {
        first,
        last: first + gap_sum,
        happy: gaps + 1,
        gap_sum,
        gap_count: gaps,
        first_gap: if gaps > 0 { step } else { NONE },
        max_streak: if gaps > 0 { first.max(step - 1) } else { first },
        uniform: true,
    }
}

/// Total appearances, inside the horizon, of view nodes at or beyond the
/// graph's node count (saturating).
fn beyond_graph_happiness(graph: &Graph, view: &ResidueSchedule, start: u64, horizon: u64) -> u64 {
    (graph.node_count()..view.node_count())
        .fold(0u64, |total, p| total.saturating_add(lane(view, p, start, horizon).happy))
}

/// Whether no edge's endpoints host together inside the horizon: no edge
/// between view rows meets, or, below one cycle, none meets inside the
/// horizon.  It is [`ResidueSchedule::conflict`]'s loop with the horizon
/// test inside: one iterator over the meeting edges shared by both (a
/// `flat_map` over the rows) made `analyze_schedule_totals` about a fifth
/// slower on e20, even on the edgeless graph.
fn edges_independent(graph: &Graph, view: &ResidueSchedule, start: u64, horizon: u64) -> bool {
    // A saturated cycle is not a true lcm, so it takes the exact CRT path.
    let cycle = view.cycle();
    let whole_cycle = cycle < u64::MAX && horizon >= cycle;
    let rows = graph.node_count().min(view.node_count());
    (0..rows).all(|u| {
        let ru = view.row(u);
        // Rows ascend, so the neighbours with view rows come first.
        graph.neighbors_above(u).iter().take_while(|&&v| v < rows).all(|&v| {
            let rv = view.row(v);
            !ru.meets(&rv)
                || (!whole_cycle
                    && ru
                        .meeting(&rv, start)
                        .is_none_or(|(offset, _)| offset >= u128::from(horizon)))
        })
    })
}

/// `x / m`, by a shift when `m` is a power of two.
#[inline]
fn div(x: u64, m: u64) -> u64 {
    if m.is_power_of_two() {
        x >> m.trailing_zeros()
    } else {
        x / m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::sweep::merge_node;

    #[test]
    fn lane_equals_recording_every_offset() {
        let moduli = [1u64, 2, 3, 4, 5, 6, 8, 12, 16];
        for m in moduli {
            for slot in 0..m {
                for start in [0u64, 1, 5, 17] {
                    for horizon in [0u64, 1, 2, 3, m - 1, m, m + 1, 2 * m + 3, 40] {
                        let view = ResidueSchedule::new(vec![slot], vec![m]);
                        let mut segment = NodeAccum::empty();
                        for o in 0..horizon {
                            if (start + o) % m == slot {
                                segment.record(o);
                            }
                        }
                        let mut expected = NodeAccum::empty();
                        merge_node(&mut expected, &segment);
                        assert_eq!(
                            lane(&view, 0, start, horizon),
                            expected,
                            "{slot} mod {m}, start {start}, horizon {horizon}"
                        );
                    }
                }
            }
        }
    }
}
