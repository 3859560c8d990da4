//! An independent answer oracle for residue (perfectly periodic) schedules.
//!
//! Node `p` hosts exactly at holidays `t ≡ slot (mod m)`, so over a window
//! of `h` holidays its happy count, first happiness, longest unhappy streak
//! and observed period follow from one arithmetic progression: with `o0`
//! the first hosting offset, `count = (h−1−o0)/m + 1` when `o0 < h`, the
//! last hosting offset is `o0 + (count−1)·m`, and the streak is the largest
//! of the leading stretch `o0`, the trailing stretch and the inner gap
//! `m−1`.  Independence is a per-edge congruence test: the endpoints of an
//! edge ever host together iff `s_u ≡ s_v (mod gcd(m_u, m_v))`, and the
//! first shared holiday is their CRT solution.  None of this shares code
//! with the library's profile, sweep or checker planes.

use fhg_core::schedulers::residue::ResidueSchedule;
use fhg_core::{AnalysisTotals, NodeAnalysis, ScheduleAnalysis};
use fhg_graph::Graph;

/// Which holidays the independence verdict covers.
#[derive(Clone, Copy)]
pub enum Verdict {
    /// Every holiday of the cycle (what a serving window reports).
    WholeCycle,
    /// The first `h` holidays from the schedule's start (what a one-shot
    /// analysis of horizon `h` verifies).
    Prefix(u64),
}

struct Line {
    count: u64,
    first: Option<u64>,
    streak: u64,
    period: Option<u64>,
    mean_gap: f64,
}

/// Node `slot (mod m)` over the `h` holidays starting at absolute holiday
/// `from`.
fn line(slot: u64, m: u64, from: u64, h: u64) -> Line {
    let o0 = (slot + m - from % m) % m;
    if o0 >= h {
        return Line { count: 0, first: None, streak: h, period: None, mean_gap: f64::NAN };
    }
    let count = (h - 1 - o0) / m + 1;
    let last = o0 + (count - 1) * m;
    let inner = if count >= 2 { m - 1 } else { 0 };
    let mean_gap =
        if count >= 2 { (m * (count - 1)) as f64 / (count - 1) as f64 } else { f64::NAN };
    Line {
        count,
        first: Some(o0),
        streak: o0.max(h - 1 - last).max(inner),
        period: (count >= 2).then_some(m),
        mean_gap,
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Inverse of `a` modulo `m` (`gcd(a, m) = 1`).
fn inverse(a: i128, m: i128) -> i128 {
    let (mut r0, mut r1, mut s0, mut s1) = (a.rem_euclid(m), m, 1i128, 0i128);
    while r1 != 0 {
        let q = r0 / r1;
        (r0, r1) = (r1, r0 - q * r1);
        (s0, s1) = (s1, s0 - q * s1);
    }
    s0.rem_euclid(m)
}

/// The offset from `start` of the first holiday both `(su, mu)` and
/// `(sv, mv)` host, if they ever do.
fn first_shared(su: u64, mu: u64, sv: u64, mv: u64, start: u64) -> Option<u64> {
    let g = gcd(mu, mv);
    if (su as i128 - sv as i128).rem_euclid(g as i128) != 0 {
        return None;
    }
    let (mu_, mv_) = ((mu / g) as i128, (mv / g) as i128);
    let lcm = mu as i128 * mv_;
    let d = ((sv as i128 - su as i128) / g as i128).rem_euclid(mv_);
    let k = (d * inverse(mu_, mv_)).rem_euclid(mv_);
    let x = (su as i128 + mu as i128 * k).rem_euclid(lcm);
    Some((x - start as i128).rem_euclid(lcm) as u64)
}

/// Whether no edge's endpoints host together within the verdict's range.
pub fn independent(view: &ResidueSchedule, graph: &Graph, start: u64, verdict: Verdict) -> bool {
    graph.edges().all(|e| {
        let (u, v) = (e.u, e.v);
        match first_shared(view.slot(u), view.modulus(u), view.slot(v), view.modulus(v), start) {
            None => true,
            Some(off) => match verdict {
                Verdict::WholeCycle => false,
                Verdict::Prefix(h) => off >= h,
            },
        }
    })
}

/// Whole-window aggregates of `[t0, t1)` (offsets from `start`).
pub fn totals(
    view: &ResidueSchedule,
    graph: &Graph,
    start: u64,
    window: (u64, u64),
    verdict: Verdict,
) -> AnalysisTotals {
    let h = window.1.saturating_sub(window.0);
    let from = start + window.0;
    let (mut total, mut max_unhappiness, mut all_periodic, mut never_happy) = (0u64, 0, true, 0);
    for p in 0..graph.node_count() {
        let l = line(view.slot(p), view.modulus(p), from, h);
        total += l.count;
        max_unhappiness = max_unhappiness.max(l.streak);
        all_periodic &= l.period.is_some();
        never_happy += u64::from(l.count == 0);
    }
    AnalysisTotals {
        horizon: h,
        total_happiness: total,
        mean_happy_set_size: if h == 0 { 0.0 } else { total as f64 / h as f64 },
        max_unhappiness,
        all_periodic,
        never_happy,
        all_happy_sets_independent: independent(view, graph, start, verdict),
    }
}

/// The full per-node analysis of `[t0, t1)` (offsets from `start`).
pub fn analysis(
    scheduler: &str,
    view: &ResidueSchedule,
    graph: &Graph,
    start: u64,
    window: (u64, u64),
    verdict: Verdict,
) -> ScheduleAnalysis {
    let h = window.1.saturating_sub(window.0);
    let from = start + window.0;
    let per_node: Vec<NodeAnalysis> = (0..graph.node_count())
        .map(|p| {
            let l = line(view.slot(p), view.modulus(p), from, h);
            NodeAnalysis {
                node: p,
                degree: graph.degree(p),
                happy_count: l.count,
                max_unhappiness: l.streak,
                observed_period: l.period,
                first_happy: l.first,
                mean_gap: l.mean_gap,
            }
        })
        .collect();
    let total: u64 = per_node.iter().map(|n| n.happy_count).sum();
    ScheduleAnalysis {
        scheduler: scheduler.to_string(),
        horizon: h,
        never_happy: per_node.iter().filter(|n| n.happy_count == 0).map(|n| n.node).collect(),
        per_node,
        all_happy_sets_independent: independent(view, graph, start, verdict),
        mean_happy_set_size: if h == 0 { 0.0 } else { total as f64 / h as f64 },
        total_happiness: total,
    }
}

fn same_f64(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits()
}

/// Bitwise equality of two analyses, with every NaN equal to every NaN.
pub fn analysis_eq(a: &ScheduleAnalysis, b: &ScheduleAnalysis) -> bool {
    a.scheduler == b.scheduler
        && a.horizon == b.horizon
        && a.all_happy_sets_independent == b.all_happy_sets_independent
        && a.never_happy == b.never_happy
        && a.total_happiness == b.total_happiness
        && same_f64(a.mean_happy_set_size, b.mean_happy_set_size)
        && a.per_node.len() == b.per_node.len()
        && a.per_node.iter().zip(&b.per_node).all(|(x, y)| {
            x.node == y.node
                && x.degree == y.degree
                && x.happy_count == y.happy_count
                && x.max_unhappiness == y.max_unhappiness
                && x.observed_period == y.observed_period
                && x.first_happy == y.first_happy
                && same_f64(x.mean_gap, y.mean_gap)
        })
}

/// Bitwise equality of two totals, NaN-aware.
pub fn totals_eq(a: &AnalysisTotals, b: &AnalysisTotals) -> bool {
    a.horizon == b.horizon
        && a.total_happiness == b.total_happiness
        && same_f64(a.mean_happy_set_size, b.mean_happy_set_size)
        && a.max_unhappiness == b.max_unhappiness
        && a.all_periodic == b.all_periodic
        && a.never_happy == b.never_happy
        && a.all_happy_sets_independent == b.all_happy_sets_independent
}

/// A fingerprint of totals, for comparing answers without storing them.
pub fn totals_hash(t: &AnalysisTotals) -> u64 {
    use crate::util::{fnv, FNV_INIT};
    let mut h = fnv(FNV_INIT, t.horizon);
    h = fnv(h, t.total_happiness);
    h = fnv(h, t.mean_happy_set_size.to_bits());
    h = fnv(h, t.max_unhappiness);
    h = fnv(h, u64::from(t.all_periodic));
    h = fnv(h, t.never_happy);
    fnv(h, u64::from(t.all_happy_sets_independent))
}

/// A fingerprint of a full analysis, for comparing answers without
/// storing them.
pub fn analysis_hash(a: &ScheduleAnalysis) -> u64 {
    use crate::util::fnv;
    let mut h = totals_hash(&a.totals());
    for b in a.scheduler.bytes() {
        h = fnv(h, u64::from(b));
    }
    for n in &a.per_node {
        h = fnv(h, n.degree as u64);
        h = fnv(h, n.happy_count);
        h = fnv(h, n.max_unhappiness);
        h = fnv(h, n.observed_period.map_or(u64::MAX, |p| p));
        h = fnv(h, n.first_happy.map_or(u64::MAX, |f| f));
        h = fnv(h, if n.mean_gap.is_nan() { u64::MAX } else { n.mean_gap.to_bits() });
    }
    h
}
