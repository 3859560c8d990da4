//! Schedule analysis: measuring `mul`, periodicity, fairness and validity.
//!
//! [`analyze_schedule`] drives a scheduler over a finite horizon and records,
//! for every node, the quantities the paper's theorems bound:
//!
//! * the **maximum unhappiness streak** — the longest run of consecutive
//!   holidays with no happy appearance (Definition 2.2's `mul`, measured as
//!   the streak length, so a perfectly periodic node of period `π` has streak
//!   `π - 1`);
//! * the **observed period** — `Some(π)` when every gap between consecutive
//!   happy holidays equals `π` (the perfect-periodicity check of §4/§5);
//! * happiness counts and first-happiness times, used for the fairness
//!   comparisons against the `1/(deg+1)` landmark of §1.
//!
//! The analysis also verifies that every happy set produced is an
//! independent set of the conflict graph — the correctness requirement of
//! Definition 2.1.
//!
//! # Two engines
//!
//! [`AnalysisEngine::select`] names the engine a scheduler runs on, from its
//! [`residue_schedule`](crate::scheduler::Scheduler::residue_schedule) view:
//!
//! * [`AnalysisEngine::ClosedForm`] (`progression.rs`) — for every scheduler
//!   exposing a residue view, at every horizon.  Each node hosts on one
//!   arithmetic progression `(slot, modulus)`, so its statistics follow from
//!   one formula per node and the independence verdict from one congruence
//!   test per edge (with the CRT first co-attendance compared against
//!   horizons shorter than the cycle).  Cost: `O(n + m)`, with no happy set
//!   emitted, no checker built, and no cycle or attendance budget.
//! * [`AnalysisEngine::Sequential`] (`sweep.rs`) — for stateful schedulers
//!   (no residue view): a single sweep through
//!   [`Scheduler::fill_happy_set`], every holiday verified by a
//!   [`GraphChecker`].  It is also [`analyze_schedule_reference`], the
//!   oracle the parity suites compare against.
//!
//! Both engines produce **bitwise-identical** [`ScheduleAnalysis`] values:
//! the progression engine writes each node's merged accumulator in closed
//! form and reduces it through the same per-node arithmetic as the sweep
//! (locked down by `tests/analysis_parity.rs`, conflicting and mis-sized
//! views included).  [`analyze_schedule_totals`] returns the whole-schedule
//! aggregates ([`AnalysisTotals`]) without per-node assembly or float
//! finalisation on the progression engine, and always equals
//! `analyze_schedule(..).totals()`.
//!
//! The serving tier keeps one more derivation of the same quantities: a
//! [`CycleProfile`] (`profile.rs`) decides its verdict by the same
//! congruence test per edge, groups the nodes' rows into a table of
//! distinct progressions, and then derives any window in closed form, with
//! the progression engine's per-node formula applied once per progression.
//! A dynamic edge event patches it by re-testing only the edges the event
//! touched.

mod checker;
mod profile;
mod progression;
mod sweep;

pub use checker::{GraphChecker, HolidayChecker};
pub use profile::{CycleProfile, PatchRefused, PatchStats};

use fhg_graph::{Graph, NodeId};

use crate::scheduler::Scheduler;

/// Per-node measurements over the analysed horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeAnalysis {
    /// The node.
    pub node: NodeId,
    /// Its degree in the conflict graph.
    pub degree: usize,
    /// Number of holidays (within the horizon) at which the node was happy.
    pub happy_count: u64,
    /// Longest run of consecutive holidays with no happiness (including the
    /// stretches before the first and after the last happy holiday).
    pub max_unhappiness: u64,
    /// Exact period if every gap between consecutive happy holidays is equal
    /// (requires at least two happy holidays).
    pub observed_period: Option<u64>,
    /// Offset (from the start of the horizon) of the first happy holiday.
    pub first_happy: Option<u64>,
    /// Mean gap between consecutive happy holidays (`NaN` if fewer than two).
    pub mean_gap: f64,
}

/// Whole-schedule measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleAnalysis {
    /// Name of the analysed scheduler.
    pub scheduler: String,
    /// Number of holidays simulated.
    pub horizon: u64,
    /// Per-node measurements, indexed by node id.
    pub per_node: Vec<NodeAnalysis>,
    /// Whether every happy set produced was an independent set of the graph.
    pub all_happy_sets_independent: bool,
    /// Nodes that were never happy within the horizon.
    pub never_happy: Vec<NodeId>,
    /// Mean happy-set size per holiday.
    pub mean_happy_set_size: f64,
    /// Total happy appearances across all nodes and holidays.
    pub total_happiness: u64,
}

/// Whole-schedule aggregates without the per-node breakdown — what the
/// totals-only fast path ([`CycleProfile::derive_totals`],
/// [`analyze_schedule_totals`]) produces by skipping the `NodeAnalysis`
/// assembly and per-node float finalisation entirely.  Always equal to the
/// same aggregates reduced from a full [`ScheduleAnalysis`]
/// ([`ScheduleAnalysis::totals`]), which the parity suite pins.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisTotals {
    /// Number of holidays analysed.
    pub horizon: u64,
    /// Total happy appearances across all nodes and holidays (saturating
    /// at astronomical horizons).
    pub total_happiness: u64,
    /// Mean happy-set size per holiday.
    pub mean_happy_set_size: f64,
    /// The largest unhappiness streak over all nodes.
    pub max_unhappiness: u64,
    /// Whether every node's observed behaviour is perfectly periodic.
    pub all_periodic: bool,
    /// Number of nodes that were never happy within the horizon.
    pub never_happy: u64,
    /// Whether every happy set produced was an independent set.
    pub all_happy_sets_independent: bool,
}

impl ScheduleAnalysis {
    /// The largest unhappiness streak over all nodes.
    pub fn max_unhappiness(&self) -> u64 {
        self.per_node.iter().map(|n| n.max_unhappiness).max().unwrap_or(0)
    }

    /// Reduces this analysis to its whole-schedule aggregates — the view
    /// the totals-only fast path computes directly.
    pub fn totals(&self) -> AnalysisTotals {
        AnalysisTotals {
            horizon: self.horizon,
            total_happiness: self.total_happiness,
            mean_happy_set_size: self.mean_happy_set_size,
            max_unhappiness: self.max_unhappiness(),
            all_periodic: self.all_periodic(),
            never_happy: self.never_happy.len() as u64,
            all_happy_sets_independent: self.all_happy_sets_independent,
        }
    }

    /// Whether every node's observed behaviour is perfectly periodic.
    pub fn all_periodic(&self) -> bool {
        self.per_node.iter().all(|n| n.observed_period.is_some())
    }

    /// Nodes whose measured unhappiness streak reaches or exceeds the
    /// scheduler's claimed bound (i.e. a window of `bound` consecutive
    /// holidays containing no happy one), indicating a violated guarantee.
    pub fn bound_violations<S: Scheduler + ?Sized>(&self, scheduler: &S) -> Vec<NodeId> {
        self.per_node
            .iter()
            .filter(|n| {
                scheduler.unhappiness_bound(n.node).is_some_and(|bound| n.max_unhappiness >= bound)
            })
            .map(|n| n.node)
            .collect()
    }

    /// Jain's fairness index of the degree-normalised happiness rates
    /// `happy_count · (deg + 1) / horizon`.  A value of 1 means every parent
    /// is happy exactly in proportion to the `1/(deg+1)` landmark of §1.
    pub fn jain_fairness(&self) -> f64 {
        if self.per_node.is_empty() || self.horizon == 0 {
            return 1.0;
        }
        let rates: Vec<f64> = self
            .per_node
            .iter()
            .map(|n| n.happy_count as f64 * (n.degree as f64 + 1.0) / self.horizon as f64)
            .collect();
        let sum: f64 = rates.iter().sum();
        let sum_sq: f64 = rates.iter().map(|r| r * r).sum();
        if sum_sq == 0.0 {
            return 0.0;
        }
        sum * sum / (rates.len() as f64 * sum_sq)
    }
}

/// The engine [`analyze_schedule`] runs a scheduler on (see the module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisEngine {
    /// The progression engine: one formula per node and one congruence per
    /// edge, for every scheduler with a residue view.
    ClosedForm,
    /// Single fully-verified sequential sweep (stateful schedulers).
    Sequential,
}

impl AnalysisEngine {
    /// The engine [`analyze_schedule`] uses for `scheduler`.  Only the
    /// residue view decides: the progression engine's cost does not depend
    /// on the horizon, so the horizon never changes the answer (it stays in
    /// the signature for callers that select per job).
    pub fn select<S: Scheduler + ?Sized>(scheduler: &S, _horizon: u64) -> Self {
        if scheduler.residue_schedule().is_some() {
            AnalysisEngine::ClosedForm
        } else {
            AnalysisEngine::Sequential
        }
    }
}

/// Runs `scheduler` for `horizon` holidays (starting at its
/// [`Scheduler::first_holiday`]) and measures every quantity above, on the
/// engine [`AnalysisEngine::select`] names (see the module docs).
pub fn analyze_schedule<S: Scheduler + ?Sized>(
    graph: &Graph,
    scheduler: &mut S,
    horizon: u64,
) -> ScheduleAnalysis {
    match scheduler.residue_schedule() {
        Some(view) => {
            progression::analyze(scheduler.name(), graph, view, scheduler.first_holiday(), horizon)
        }
        None => analyze_schedule_reference(graph, scheduler, horizon),
    }
}

/// The totals-only entry point: whole-schedule aggregates of `horizon`
/// holidays.  On the progression engine the per-node assembly and float
/// finalisation are skipped entirely and nothing is allocated; stateful
/// schedulers run the full sequential analysis and reduce it — so the
/// result always equals `analyze_schedule(..).totals()` (pinned by the
/// parity suite).
pub fn analyze_schedule_totals<S: Scheduler + ?Sized>(
    graph: &Graph,
    scheduler: &mut S,
    horizon: u64,
) -> AnalysisTotals {
    match scheduler.residue_schedule() {
        Some(view) => progression::totals(graph, view, scheduler.first_holiday(), horizon),
        None => analyze_schedule_reference(graph, scheduler, horizon).totals(),
    }
}

/// The sequential reference analysis: single-threaded, no residue view, no
/// closed form, every holiday's independence verified by a [`GraphChecker`],
/// emission through [`Scheduler::fill_happy_set`].  It is the Sequential
/// engine, and the oracle the property suites assert the progression engine
/// and the serving tier's windows are bitwise-identical to.
pub fn analyze_schedule_reference<S: Scheduler + ?Sized>(
    graph: &Graph,
    scheduler: &mut S,
    horizon: u64,
) -> ScheduleAnalysis {
    let name = scheduler.name().to_string();
    sweep::sequential(
        name,
        graph,
        scheduler.node_count(),
        horizon,
        scheduler.first_holiday(),
        &GraphChecker::new(graph),
        |t, out| scheduler.fill_happy_set(t, out),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Scheduler;
    use crate::schedulers::residue::ResidueSchedule;
    use crate::schedulers::PeriodicDegreeBound;
    use fhg_graph::generators::erdos_renyi;
    use fhg_graph::generators::structured::{cycle, path};

    /// A scripted scheduler for exercising the analysis edge cases.
    struct Scripted {
        sets: Vec<Vec<NodeId>>,
    }

    impl Scheduler for Scripted {
        fn node_count(&self) -> usize {
            // Large enough for any scripted member, including the
            // deliberately out-of-range ones the analysis must flag.
            self.sets.iter().flatten().max().map_or(0, |&p| p + 1)
        }
        fn fill_happy_set(&mut self, t: u64, out: &mut fhg_graph::HappySet) {
            out.reset(self.node_count());
            for &p in self.sets.get(t as usize).map_or(&[][..], Vec::as_slice) {
                out.insert(p);
            }
        }
        fn first_holiday(&self) -> u64 {
            0
        }
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn is_periodic(&self) -> bool {
            false
        }
        fn period(&self, _p: NodeId) -> Option<u64> {
            None
        }
        fn unhappiness_bound(&self, _p: NodeId) -> Option<u64> {
            Some(3)
        }
    }

    #[test]
    fn measures_streaks_periods_and_counts() {
        let g = path(3);
        // Node 0 happy at offsets 1, 3, 5 (period 2); node 1 never happy;
        // node 2 happy only at offset 0.
        let mut s = Scripted { sets: vec![vec![2], vec![0], vec![], vec![0], vec![], vec![0]] };
        let a = analyze_schedule(&g, &mut s, 6);
        assert_eq!(a.scheduler, "scripted");
        assert_eq!(a.horizon, 6);
        assert!(a.all_happy_sets_independent);

        let n0 = &a.per_node[0];
        assert_eq!(n0.happy_count, 3);
        assert_eq!(n0.first_happy, Some(1));
        assert_eq!(n0.observed_period, Some(2));
        assert_eq!(n0.max_unhappiness, 1);
        assert!((n0.mean_gap - 2.0).abs() < 1e-12);

        let n1 = &a.per_node[1];
        assert_eq!(n1.happy_count, 0);
        assert_eq!(n1.max_unhappiness, 6, "never happy: the whole horizon is a streak");
        assert_eq!(n1.observed_period, None);
        assert!(n1.mean_gap.is_nan());

        let n2 = &a.per_node[2];
        assert_eq!(n2.happy_count, 1);
        assert_eq!(n2.first_happy, Some(0));
        assert_eq!(n2.max_unhappiness, 5, "trailing streak after the single happy holiday");
        assert_eq!(n2.observed_period, None, "one occurrence is not enough to call it periodic");

        assert_eq!(a.never_happy, vec![1]);
        assert_eq!(a.total_happiness, 4);
        assert!((a.mean_happy_set_size - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(a.max_unhappiness(), 6);
        assert!(!a.all_periodic());
    }

    #[test]
    fn detects_non_independent_happy_sets() {
        let g = path(3);
        let mut s = Scripted { sets: vec![vec![0, 1]] };
        let a = analyze_schedule(&g, &mut s, 1);
        assert!(!a.all_happy_sets_independent);
    }

    #[test]
    fn detects_out_of_range_nodes() {
        let g = path(2);
        let mut s = Scripted { sets: vec![vec![5]] };
        let a = analyze_schedule(&g, &mut s, 1);
        assert!(!a.all_happy_sets_independent);
    }

    #[test]
    fn bound_violations_reports_nodes_exceeding_the_claim() {
        let g = path(2);
        // Bound claimed by Scripted is 3; node 0 has a streak of exactly 3.
        let mut s = Scripted { sets: vec![vec![0], vec![], vec![], vec![], vec![0]] };
        let a = analyze_schedule(&g, &mut s, 5);
        let violations = a.bound_violations(&s);
        assert!(violations.contains(&0), "streak of 3 >= bound 3 is a violation");
        assert!(violations.contains(&1), "never-happy node violates any bound");
    }

    #[test]
    fn irregular_gaps_are_not_periodic() {
        let g = path(1);
        let mut s = Scripted { sets: vec![vec![0], vec![0], vec![], vec![0]] };
        let a = analyze_schedule(&g, &mut s, 4);
        assert_eq!(a.per_node[0].observed_period, None);
        assert_eq!(a.per_node[0].max_unhappiness, 1);
    }

    #[test]
    fn jain_fairness_of_uniform_and_skewed_schedules() {
        let g = cycle(4);
        // Perfectly alternating 2-colour schedule: everyone happy every other
        // holiday; all degrees equal; fairness must be 1.
        let mut s = Scripted {
            sets: (0..8).map(|t| if t % 2 == 0 { vec![0, 2] } else { vec![1, 3] }).collect(),
        };
        let a = analyze_schedule(&g, &mut s, 8);
        assert!((a.jain_fairness() - 1.0).abs() < 1e-12);

        // Only node 0 is ever happy: fairness drops to 1/n.
        let mut s = Scripted { sets: (0..8).map(|_| vec![0]).collect() };
        let a = analyze_schedule(&g, &mut s, 8);
        assert!((a.jain_fairness() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_horizon_and_empty_graph() {
        let g = path(2);
        let mut s = Scripted { sets: vec![] };
        let a = analyze_schedule(&g, &mut s, 0);
        assert_eq!(a.max_unhappiness(), 0);
        assert_eq!(a.never_happy, vec![0, 1]);
        assert_eq!(a.mean_happy_set_size, 0.0);
        assert!((a.jain_fairness() - 1.0).abs() < 1e-12);

        let g = Graph::new(0);
        let mut s = Scripted { sets: vec![vec![]] };
        let a = analyze_schedule(&g, &mut s, 1);
        assert!(a.per_node.is_empty());
        assert!(a.all_happy_sets_independent);
        assert!(a.all_periodic());
    }

    #[test]
    fn zero_horizon_on_the_periodic_path() {
        let g = cycle(5);
        let mut s = PeriodicDegreeBound::new(&g);
        assert_eq!(AnalysisEngine::select(&s, 0), AnalysisEngine::ClosedForm);
        let a = analyze_schedule(&g, &mut s, 0);
        assert_eq!(a.horizon, 0);
        assert_eq!(a.never_happy, vec![0, 1, 2, 3, 4]);
        assert!(a.all_happy_sets_independent);
        assert_eq!(a.mean_happy_set_size, 0.0);
    }

    #[test]
    fn engine_selection_follows_statefulness_only() {
        let g = erdos_renyi(30, 0.12, 5);
        let s = PeriodicDegreeBound::new(&g);
        let cycle = s.residue_schedule().unwrap().cycle();
        for horizon in [0, 1, cycle - 1, cycle, 10 * cycle + 3, u64::MAX] {
            assert_eq!(AnalysisEngine::select(&s, horizon), AnalysisEngine::ClosedForm);
        }
        let stateful = Scripted { sets: vec![] };
        assert_eq!(AnalysisEngine::select(&stateful, 100), AnalysisEngine::Sequential);
    }

    /// A scheduler that is nothing but a residue view.
    struct ViewOnly {
        schedule: ResidueSchedule,
    }

    impl Scheduler for ViewOnly {
        fn node_count(&self) -> usize {
            self.schedule.node_count()
        }
        fn fill_happy_set(&mut self, t: u64, out: &mut fhg_graph::HappySet) {
            self.schedule.fill(t, out);
        }
        fn first_holiday(&self) -> u64 {
            0
        }
        fn name(&self) -> &'static str {
            "view-only"
        }
        fn is_periodic(&self) -> bool {
            true
        }
        fn period(&self, p: NodeId) -> Option<u64> {
            Some(self.schedule.modulus(p))
        }
        fn unhappiness_bound(&self, _p: NodeId) -> Option<u64> {
            None
        }
        fn residue_schedule(&self) -> Option<&ResidueSchedule> {
            Some(&self.schedule)
        }
    }

    #[test]
    fn attendance_heavy_views_analyse_by_their_progressions() {
        // Hub-and-spoke shape: 64 spokes hosting every even holiday and one
        // hub on the odd residue of a 2^22 modulus, adjacent to every spoke.
        // Its attendance per cycle is 64 · 2^21 + 1; the analysis only reads
        // the 65 rows.
        let hub = 64;
        let cycle = CycleProfile::MAX_CYCLE;
        let g = Graph::from_edges(hub + 1, (0..hub).map(|p| (p, hub))).unwrap();
        let mut slots = vec![0u64; hub];
        let mut moduli = vec![2u64; hub];
        slots.push(1);
        moduli.push(cycle);
        let mut s = ViewOnly { schedule: ResidueSchedule::scan_only(slots, moduli) };
        assert_eq!(s.schedule.attendance_per_cycle(), hub as u64 * (cycle / 2) + 1);

        // Two hub cycles: each spoke hosts at offsets 0, 2, …, 2^23 − 2; the
        // hub at offsets 1 and 2^22 + 1.
        let horizon = 2 * cycle;
        let spoke_count = horizon / 2;
        let hub_streak = cycle - 1;
        let expected = AnalysisTotals {
            horizon,
            total_happiness: hub as u64 * spoke_count + 2,
            mean_happy_set_size: (hub as u64 * spoke_count + 2) as f64 / horizon as f64,
            max_unhappiness: hub_streak,
            all_periodic: true,
            never_happy: 0,
            all_happy_sets_independent: true,
        };
        assert_eq!(analyze_schedule_totals(&g, &mut s, horizon), expected);
        let a = analyze_schedule(&g, &mut s, horizon);
        assert_eq!(a.totals(), expected);
        let spoke = &a.per_node[0];
        assert_eq!(
            (spoke.happy_count, spoke.max_unhappiness, spoke.observed_period),
            (spoke_count, 1, Some(2))
        );
        let hub = &a.per_node[hub];
        assert_eq!(hub.happy_count, 2);
        assert_eq!(hub.first_happy, Some(1));
        assert_eq!(hub.max_unhappiness, hub_streak);
        assert_eq!(hub.observed_period, Some(cycle));
        assert_eq!(hub.degree, 64);
    }

    #[test]
    fn closed_form_matches_the_reference() {
        // Smoke version of tests/analysis_parity.rs, at unit-test scope.
        let g = erdos_renyi(40, 0.12, 5);
        let cycle = PeriodicDegreeBound::new(&g).schedule_cycle().unwrap();
        for horizon in [0u64, 1, 7, cycle - 1, cycle, 64, 129] {
            let reference = {
                let mut s = PeriodicDegreeBound::new(&g);
                analyze_schedule_reference(&g, &mut s, horizon)
            };
            let mut s = PeriodicDegreeBound::new(&g);
            let got = analyze_schedule(&g, &mut s, horizon);
            assert_eq!(got.scheduler, reference.scheduler);
            assert_eq!(got.total_happiness, reference.total_happiness);
            assert_eq!(got.never_happy, reference.never_happy);
            assert_eq!(got.all_happy_sets_independent, reference.all_happy_sets_independent);
            for (a, b) in got.per_node.iter().zip(&reference.per_node) {
                assert_eq!(a.happy_count, b.happy_count, "node {}", a.node);
                assert_eq!(a.max_unhappiness, b.max_unhappiness, "node {}", a.node);
                assert_eq!(a.observed_period, b.observed_period, "node {}", a.node);
                assert_eq!(a.first_happy, b.first_happy, "node {}", a.node);
                assert_eq!(
                    a.mean_gap.to_bits(),
                    b.mean_gap.to_bits(),
                    "node {} (NaN-aware)",
                    a.node
                );
            }
            assert_eq!(analyze_schedule_totals(&g, &mut s, horizon), reference.totals());
        }
    }

    #[test]
    fn cycle_profile_exposes_the_attendance_pattern() {
        let g = erdos_renyi(20, 0.2, 9);
        let s = PeriodicDegreeBound::new(&g);
        let view = s.residue_schedule().unwrap();
        let profile = CycleProfile::build(view, s.first_holiday(), g.node_count(), &g);
        assert!(profile.all_classes_independent());
        assert_eq!(profile.cycle(), view.cycle());
        let mut total = 0u64;
        for p in 0..profile.node_count() {
            let offs: Vec<u64> = profile.attendance_offsets(p).collect();
            assert_eq!(offs.len() as u64, profile.count_per_cycle(p));
            assert!(offs.windows(2).all(|w| w[0] < w[1]), "offsets ascend");
            // Every node of a ResidueSchedule is perfectly periodic: its gap
            // multiset is {modulus} repeated.
            let m = view.modulus(p);
            assert!(profile.gaps(p).all(|gap| gap == m), "node {p} gaps must equal its modulus");
            assert_eq!(profile.gaps(p).count() as u64, profile.count_per_cycle(p));
            total += profile.count_per_cycle(p);
        }
        assert_eq!(total, profile.derive_window_totals(0, profile.cycle()).total_happiness);
        // Deriving below one cycle is refused; the dispatcher falls back.
        assert!(profile.derive("x", &g, profile.cycle() - 1).is_none());
    }
}
