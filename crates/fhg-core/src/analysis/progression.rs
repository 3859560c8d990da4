//! The progression engine: one-shot analysis of a residue schedule with no
//! cycle walk.
//!
//! In every perfectly periodic schedule of the paper, node `p` hosts on
//! exactly one arithmetic progression `t ≡ s_p (mod m_p)` (a
//! [`ResidueSchedule`] row).  Everything [`super::analyze_schedule`] reports
//! over `h` holidays from holiday `start` follows from those rows:
//!
//! * **one formula per node** — the first hosting offset is
//!   `o0 = (s − start) mod m`; when `o0 < h` the node hosts
//!   `count = (h − 1 − o0)/m + 1` times, last at `o0 + (count − 1)·m`, so its
//!   longest unhappy stretch is the largest of the leading stretch `o0`, the
//!   trailing one and (from two appearances on) the inner gap `m − 1`, and
//!   its observed period is `m` once it hosts twice ([`window_lane`], which
//!   the serving tier's [`CycleProfile`](super::CycleProfile) window fold
//!   shares);
//! * **one congruence per edge** — the endpoints of an edge host together on
//!   some holiday iff `s_u ≡ s_v (mod gcd(m_u, m_v))`, and their first shared
//!   holiday is the CRT solution ([`crt_class`]).  A horizon of at least one
//!   cycle holds every shared holiday, so the offset is only compared with
//!   the horizon below one cycle.  Each edge is tested once, from its lower
//!   endpoint's row slice above itself ([`Graph::neighbors_above`]), which
//!   the packed graph lays out in node order.
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
        fold.absorb(&lane, horizon);
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
    let m = view.modulus(p);
    window_lane(first_offset(start, view.slot(p), m), m, horizon)
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

/// Whether no edge's endpoints host together inside the horizon: the
/// congruence test on every edge `u < v` whose endpoints both have a row,
/// plus, below one cycle, the first shared offset against the horizon.
/// The upper slices need no search, and a packed graph's arena is read in
/// order.
fn edges_independent(graph: &Graph, view: &ResidueSchedule, start: u64, horizon: u64) -> bool {
    // A saturated cycle is not a true lcm, so it takes the exact CRT path.
    let cycle = view.cycle();
    let whole_cycle = cycle < u64::MAX && horizon >= cycle;
    let rows = graph.node_count().min(view.node_count());
    (0..rows).all(|u| {
        let (su, mu) = (view.slot(u), view.modulus(u));
        // Rows ascend, so the neighbours with view rows come first.
        graph.neighbors_above(u).iter().take_while(|&&v| v < rows).all(|&v| {
            let (sv, mv) = (view.slot(v), view.modulus(v));
            !congruent(su, mu, sv, mv)
                || (!whole_cycle
                    && crt_class(su, mu, sv, mv)
                        .is_none_or(|class| offset_from(start, class) >= u128::from(horizon)))
        })
    })
}

/// Whether rows `su (mod mu)` and `sv (mod mv)` ever fire together:
/// `su ≡ sv (mod gcd(mu, mv))`.  Pairs of powers of two (every §4/§5
/// schedule) and equal moduli take the gcd without a loop.  The power-of-two
/// test comes first: it is the same for every edge of such a schedule, while
/// whether two neighbours' moduli are equal is not, and a mispredicted
/// branch per edge costs more than the test itself (equal powers of two
/// need no branch: their smaller modulus is the modulus).
#[inline]
fn congruent(su: u64, mu: u64, sv: u64, mv: u64) -> bool {
    if mu.is_power_of_two() && mv.is_power_of_two() {
        (su ^ sv) & (mu.min(mv) - 1) == 0
    } else if mu == mv {
        su == sv
    } else {
        let g = gcd(mu, mv);
        su % g == sv % g
    }
}

/// `x / m`, by a shift when `m` is a power of two.
#[inline]
pub(super) fn div(x: u64, m: u64) -> u64 {
    if m.is_power_of_two() {
        x >> m.trailing_zeros()
    } else {
        x / m
    }
}

/// The first offset from holiday `start` at which row `slot (mod m)` fires:
/// the least `o` with `start + o ≡ slot (mod m)`, for `slot < m`.  Exact for
/// every `u64` modulus.
#[inline]
pub(super) fn first_offset(start: u64, slot: u64, m: u64) -> u64 {
    let r = if m.is_power_of_two() { start & (m - 1) } else { start % m };
    if slot >= r {
        slot - r
    } else {
        slot + (m - r)
    }
}

/// [`first_offset`] for a CRT progression `(t0, period)`.
pub(super) fn offset_from(start: u64, (t0, period): (u128, u128)) -> u128 {
    let r = u128::from(start) % period;
    if t0 >= r {
        t0 - r
    } else {
        t0 + (period - r)
    }
}

/// The holidays where two residue rows co-fire, by the Chinese remainder
/// theorem: solves `t ≡ s1 (mod m1)`, `t ≡ s2 (mod m2)` for `s1 < m1`,
/// `s2 < m2`, returning the progression `(t0, lcm(m1, m2))` of common
/// holidays with `t0 < lcm`, or `None` when `s1 ≢ s2 (mod gcd(m1, m2))` —
/// the rows never co-fire.  Total over every pair of `u64` moduli: the lcm
/// reaches `(2^64 − 1)(2^64 − 2)`, so the progression is `u128`.
pub(super) fn crt_class(s1: u64, m1: u64, s2: u64, m2: u64) -> Option<(u128, u128)> {
    debug_assert!(s1 < m1 && s2 < m2, "slots must be residues of their moduli");
    let g = gcd(m1, m2);
    if s1 % g != s2 % g {
        return None;
    }
    // t = s1 + m1·k, where (m1/g)·k ≡ (s2 − s1)/g (mod m2/g).
    let step = m2 / g;
    let rhs = ((i128::from(s2) - i128::from(s1)) / i128::from(g)).rem_euclid(i128::from(step));
    let k = rhs as u128 * u128::from(inverse((m1 / g) % step, step)) % u128::from(step);
    // k < step, so t0 = s1 + m1·k < m1·step = lcm.
    Some((u128::from(s1) + u128::from(m1) * k, u128::from(m1) * u128::from(step)))
}

/// The inverse of `a` modulo `m` (`a < m`, `gcd(a, m) = 1`; `0` when
/// `m = 1`), by the extended Euclidean algorithm.  Every Bézout coefficient
/// is bounded by `m`, so `i128` holds them all.
fn inverse(a: u64, m: u64) -> u64 {
    let (mut r0, mut r1) = (i128::from(a), i128::from(m));
    let (mut x0, mut x1) = (1i128, 0i128);
    while r1 != 0 {
        let q = r0 / r1;
        (r0, r1) = (r1, r0 - q * r1);
        (x0, x1) = (x1, x0 - q * x1);
    }
    x0.rem_euclid(i128::from(m)) as u64
}

/// The gcd of two positive moduli (binary, Stein's algorithm).
fn gcd(mut a: u64, mut b: u64) -> u64 {
    debug_assert!(a > 0 && b > 0, "moduli are positive");
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::sweep::merge_node;

    fn euclid(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            euclid(b, a % b)
        }
    }

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

    #[test]
    fn congruence_matches_the_gcd_and_the_crt() {
        for mu in 1u64..=16 {
            for mv in 1u64..=16 {
                let g = euclid(mu, mv);
                assert_eq!(gcd(mu, mv), g, "gcd({mu}, {mv})");
                for su in 0..mu {
                    for sv in 0..mv {
                        let want = su % g == sv % g;
                        assert_eq!(congruent(su, mu, sv, mv), want, "{su}/{mu} vs {sv}/{mv}");
                        assert_eq!(crt_class(su, mu, sv, mv).is_some(), want);
                    }
                }
            }
        }
    }

    #[test]
    fn crt_class_matches_brute_force() {
        for m1 in 1u64..=12 {
            for m2 in 1u64..=12 {
                let lcm = m1 / euclid(m1, m2) * m2;
                for s1 in 0..m1 {
                    for s2 in 0..m2 {
                        let brute: Vec<u64> =
                            (0..2 * lcm).filter(|t| t % m1 == s1 && t % m2 == s2).collect();
                        match crt_class(s1, m1, s2, m2) {
                            None => assert!(
                                brute.is_empty(),
                                "({s1} mod {m1}, {s2} mod {m2}): CRT says never, brute {brute:?}"
                            ),
                            Some((t0, l)) => {
                                assert_eq!(l, u128::from(lcm));
                                assert!(t0 < l, "first solution must be canonical");
                                let t0 = t0 as u64;
                                assert_eq!(
                                    brute,
                                    vec![t0, t0 + lcm],
                                    "({s1} mod {m1}, {s2} mod {m2})"
                                );
                                for start in [0u64, 1, lcm - 1, lcm, 3 * lcm + 2] {
                                    let first = (start..)
                                        .find(|t| t % m1 == s1 && t % m2 == s2)
                                        .expect("the progression passes every start");
                                    assert_eq!(
                                        offset_from(start, (u128::from(t0), l)),
                                        u128::from(first - start),
                                        "start {start}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn crt_class_is_total_at_the_u64_boundary() {
        let max = u64::MAX;
        let rows = [
            (0u64, 1u64 << 63),
            ((1 << 63) - 1, 1 << 63),
            (5, max),
            (max - 1, max),
            (5, max - 1),
            (max - 2, max - 1),
            (2, 3),
            (7, (1 << 62) + 1),
            (0, 1),
        ];
        for &(s1, m1) in &rows {
            for &(s2, m2) in &rows {
                let g = euclid(m1, m2);
                let lcm = u128::from(m1 / g) * u128::from(m2);
                match crt_class(s1, m1, s2, m2) {
                    None => assert_ne!(s1 % g, s2 % g, "{s1}/{m1} vs {s2}/{m2}"),
                    Some((t0, l)) => {
                        assert_eq!(l, lcm, "{s1}/{m1} vs {s2}/{m2}");
                        assert!(t0 < l);
                        assert_eq!(t0 % u128::from(m1), u128::from(s1));
                        assert_eq!(t0 % u128::from(m2), u128::from(s2));
                        assert!(offset_from(max, (t0, l)) < l);
                    }
                }
            }
        }
        assert_eq!(first_offset(max, 0, max), 0);
        assert_eq!(first_offset(0, max - 1, max), max - 1);
        assert_eq!(first_offset(max, 0, 1 << 63), 1);
    }
}
