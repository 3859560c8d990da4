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
//! # Execution engines
//!
//! The pipeline is split into three engines, selected per call by
//! [`AnalysisEngine::select`] from the scheduler's
//! [`residue_schedule`](crate::scheduler::Scheduler::residue_schedule) view
//! and the horizon:
//!
//! * [`AnalysisEngine::ClosedForm`] ([`profile`]) — for perfectly periodic
//!   schedulers whenever the horizon spans at least one full cycle: each
//!   residue class `t mod cycle` is emitted, verified and profiled **once**,
//!   and the whole horizon is derived analytically from the per-node
//!   attendance patterns (`horizon / cycle` repetitions folded in closed
//!   form, the ragged `horizon % cycle` tail replayed from the profile).
//!   Cost: `O(cycle)` emissions + `O(n)` derivation — independent of the
//!   horizon.
//! * [`AnalysisEngine::ShardedSweep`] ([`sweep`]) — for periodic schedulers
//!   whose horizon is shorter than one cycle (or whose cycle exceeds the
//!   profile budget): the horizon is split into one contiguous shard per
//!   worker thread ([`rayon::current_num_threads`], the `FHG_THREADS` knob),
//!   each shard sweeps with private scratch, independence is verified once
//!   per residue class, and segment summaries merge exactly.
//! * [`AnalysisEngine::Sequential`] — for stateful schedulers (no residue
//!   view): a single fully-verified sweep through
//!   [`Scheduler::fill_happy_set`], also exposed as
//!   [`analyze_schedule_reference`] for differential testing.
//!
//! All three engines produce **bitwise-identical** [`ScheduleAnalysis`]
//! values — gap sums, streaks, period candidates and float statistics
//! compose with pure integer arithmetic regardless of how the horizon was
//! partitioned (locked down by `tests/analysis_parity.rs` across thread
//! counts and ragged horizons).  Independence checking itself is behind the
//! [`checker`] module's [`HolidayChecker`] trait so tests can observe which
//! holidays each engine probes (`tests/residue_cache.rs`); the closed-form
//! build and the sharded sweep hand their classes to the checker in batches
//! of up to 64 ([`HolidayChecker::check_batch`]), so a [`GraphChecker`]
//! verifies a whole batch per adjacency-row pass without changing the
//! once-per-class probe contract.
//!
//! Every engine accumulates on the one per-node plane of the [`sweep`]
//! module, which also powers the totals-only fast path:
//! [`analyze_schedule_totals`] returns the whole-schedule aggregates
//! ([`AnalysisTotals`]) without per-node assembly or float finalisation
//! whenever the closed form applies, and always equals
//! `analyze_schedule(..).totals()`.

mod checker;
mod profile;
mod sweep;

pub use checker::{
    dense_limit, GraphChecker, HolidayChecker, ScanChecker, BLOCKED_ADJACENCY_LIMIT,
    DENSE_ADJACENCY_LIMIT,
};
pub use profile::{CycleProfile, PatchRefused, PatchScratch, PatchStats};

use fhg_graph::{Graph, NodeId};
use rayon::prelude::*;

use crate::scheduler::Scheduler;
use crate::schedulers::residue::ResidueSchedule;

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

/// The execution strategy the analysis pipeline runs a horizon on.
///
/// [`AnalysisEngine::select`] picks the cheapest sound strategy for a
/// scheduler/horizon pair; [`analyze_schedule_with_engine`] lets benchmarks
/// and differential tests force a specific one (downgrading when the request
/// is unsound for the scheduler at hand).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisEngine {
    /// Profile each residue class once, derive the horizon in closed form
    /// (periodic schedulers, `horizon >= cycle`,
    /// `cycle <=` [`CycleProfile::MAX_CYCLE`]).
    ClosedForm,
    /// Shard the horizon across worker threads, verify once per residue
    /// class (periodic schedulers).
    ShardedSweep,
    /// Single fully-verified sequential sweep (stateful schedulers).
    Sequential,
}

impl AnalysisEngine {
    /// The strategy [`analyze_schedule`] will use for `scheduler` over
    /// `horizon`.
    pub fn select<S: Scheduler + ?Sized>(scheduler: &S, horizon: u64) -> Self {
        match scheduler.residue_schedule() {
            Some(view) if Self::closed_form_applies(view, horizon) => AnalysisEngine::ClosedForm,
            Some(_) => AnalysisEngine::ShardedSweep,
            None => AnalysisEngine::Sequential,
        }
    }

    /// Whether the closed-form engine is sound and within budget for `view`
    /// over `horizon`: at least one full cycle to fold, a cycle the profile
    /// may walk, and a per-cycle attendance volume (the stored offset CSR —
    /// the quantity that actually dominates profile memory) the profile may
    /// materialise.  Hub-and-spoke degree distributions can pack
    /// `n · cycle / 2` attendances into a short cycle; those stay on the
    /// `O(n)`-memory sharded sweep.
    fn closed_form_applies(view: &ResidueSchedule, horizon: u64) -> bool {
        let cycle = view.cycle();
        horizon >= cycle
            && cycle <= CycleProfile::MAX_CYCLE
            && view.attendance_per_cycle() <= CycleProfile::MAX_EVENTS
    }

    /// Downgrades `self` to the nearest strategy that is sound for
    /// `scheduler` over `horizon` (`ClosedForm -> ShardedSweep ->
    /// Sequential`).
    fn clamp<S: Scheduler + ?Sized>(self, scheduler: &S, horizon: u64) -> Self {
        match self {
            AnalysisEngine::ClosedForm => Self::select(scheduler, horizon),
            AnalysisEngine::ShardedSweep if scheduler.residue_schedule().is_some() => {
                AnalysisEngine::ShardedSweep
            }
            _ => AnalysisEngine::Sequential,
        }
    }
}

/// Runs `scheduler` for `horizon` holidays (starting at its
/// [`Scheduler::first_holiday`]) and measures every quantity above, on the
/// engine [`AnalysisEngine::select`] picks (see the module docs).
pub fn analyze_schedule<S: Scheduler + ?Sized>(
    graph: &Graph,
    scheduler: &mut S,
    horizon: u64,
) -> ScheduleAnalysis {
    analyze_schedule_with_checker(graph, scheduler, horizon, &GraphChecker::new(graph))
}

/// Like [`analyze_schedule`], but verifying independence through a custom
/// [`HolidayChecker`] — the instrumentation point the residue-cache tests use
/// to prove each residue class is checked exactly once.
pub fn analyze_schedule_with_checker<S, C>(
    graph: &Graph,
    scheduler: &mut S,
    horizon: u64,
    checker: &C,
) -> ScheduleAnalysis
where
    S: Scheduler + ?Sized,
    C: HolidayChecker + ?Sized,
{
    let engine = AnalysisEngine::select(scheduler, horizon);
    analyze_schedule_with_engine(graph, scheduler, horizon, checker, engine)
}

/// Like [`analyze_schedule_with_checker`], but forcing a specific
/// [`AnalysisEngine`] — the entry point benchmarks (experiment `e12`) and
/// differential tests use to compare strategies on the same scheduler.  The
/// request is downgraded (`ClosedForm -> ShardedSweep -> Sequential`) when
/// it is unsound for the scheduler/horizon at hand, so the result is always
/// well-defined and bitwise-identical across engines.
pub fn analyze_schedule_with_engine<S, C>(
    graph: &Graph,
    scheduler: &mut S,
    horizon: u64,
    checker: &C,
    engine: AnalysisEngine,
) -> ScheduleAnalysis
where
    S: Scheduler + ?Sized,
    C: HolidayChecker + ?Sized,
{
    let n = graph.node_count();
    let start = scheduler.first_holiday();
    match engine.clamp(scheduler, horizon) {
        // The residue-view arms re-check the view instead of unwrapping:
        // `clamp` guarantees it exists, but a scheduler that mis-reports
        // its periodicity must degrade to the sequential sweep, not crash
        // the process (the serving tier additionally rejects such
        // schedulers up front with a typed `RegisterError`).
        AnalysisEngine::ClosedForm if scheduler.residue_schedule().is_some() => {
            let view = scheduler.residue_schedule().expect("checked in the match guard");
            let profile = CycleProfile::build(view, start, n, checker);
            // The windowed fold anchored at 0: identical to `derive` for
            // every clamped horizon (>= cycle), and total — no horizon can
            // panic it.
            profile.derive_window(scheduler.name(), graph, 0, horizon)
        }
        AnalysisEngine::ShardedSweep if scheduler.residue_schedule().is_some() => {
            let view = scheduler.residue_schedule().expect("checked in the match guard");
            // Pure function of t: shard the horizon across worker threads and
            // verify each residue class exactly once.  The per-shard tallies
            // merge through the exact segment rule.
            let verify_below = view.cycle().min(horizon);
            let threads = rayon::current_num_threads().max(1);
            let mut shards: Vec<sweep::ShardSweep> = sweep::split_offsets(horizon, threads)
                .into_iter()
                .map(|offsets| {
                    sweep::ShardSweep::new(n, scheduler.node_count(), offsets, verify_below)
                })
                .collect();
            shards
                .par_iter_mut()
                .for_each(|shard| shard.sweep(start, checker, |t, out| view.fill(t, out)));
            let global = sweep::merge_shards(n, shards.iter().map(|shard| &shard.tally));
            sweep::finalize(
                scheduler.name().to_string(),
                horizon,
                graph,
                global.accum,
                global.all_independent,
                global.total_happiness,
            )
        }
        _ => {
            // Stateful scheduler (or a residue-view arm whose guard failed):
            // single sequential sweep, every holiday verified.
            let name = scheduler.name().to_string();
            let mut shard = sweep::ReferenceSweep::new(n, scheduler.node_count(), horizon);
            shard.sweep(start, checker, |t, out| scheduler.fill_happy_set(t, out));
            let global = sweep::merge_shards(n, [&shard.tally]);
            sweep::finalize(
                name,
                horizon,
                graph,
                global.accum,
                global.all_independent,
                global.total_happiness,
            )
        }
    }
}

/// The totals-only entry point: whole-schedule aggregates of `horizon`
/// holidays, on the cheapest sound path.  When the closed-form engine
/// applies, the per-node assembly and float finalisation are skipped
/// entirely ([`CycleProfile::derive_totals`]); otherwise the full analysis
/// runs and is reduced — so the result always equals
/// `analyze_schedule(..).totals()` (pinned by the parity suite).
pub fn analyze_schedule_totals<S: Scheduler + ?Sized>(
    graph: &Graph,
    scheduler: &mut S,
    horizon: u64,
) -> AnalysisTotals {
    let checker = GraphChecker::new(graph);
    match AnalysisEngine::select(scheduler, horizon) {
        // Re-checked (not unwrapped) for the same reason as the full
        // analysis dispatch: a mis-reporting scheduler degrades, never
        // crashes.
        AnalysisEngine::ClosedForm if scheduler.residue_schedule().is_some() => {
            let n = graph.node_count();
            let start = scheduler.first_holiday();
            let view = scheduler.residue_schedule().expect("checked in the match guard");
            let profile = CycleProfile::build(view, start, n, &checker);
            // Total windowed fold anchored at 0 — equal to `derive_totals`
            // for every selected horizon (>= cycle).
            profile.derive_window_totals(0, horizon)
        }
        engine => {
            analyze_schedule_with_engine(graph, scheduler, horizon, &checker, engine).totals()
        }
    }
}

/// The sequential reference analysis: single-threaded, no residue cache, no
/// closed form, every holiday's independence verified, emission through
/// [`Scheduler::fill_happy_set`].  Exists so the property suite can assert
/// the production engines are bitwise-identical to it, and so benchmarks can
/// measure the engines against the unsharded, uncached baseline.
pub fn analyze_schedule_reference<S: Scheduler + ?Sized>(
    graph: &Graph,
    scheduler: &mut S,
    horizon: u64,
) -> ScheduleAnalysis {
    analyze_schedule_with_engine(
        graph,
        scheduler,
        horizon,
        &GraphChecker::new(graph),
        AnalysisEngine::Sequential,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Scheduler;
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
        assert!(s.residue_schedule().is_some());
        assert_eq!(
            AnalysisEngine::select(&s, 0),
            AnalysisEngine::ShardedSweep,
            "no full cycle to fold at horizon 0"
        );
        let a = analyze_schedule(&g, &mut s, 0);
        assert_eq!(a.horizon, 0);
        assert_eq!(a.never_happy, vec![0, 1, 2, 3, 4]);
        assert!(a.all_happy_sets_independent);
        assert_eq!(a.mean_happy_set_size, 0.0);
    }

    #[test]
    fn engine_selection_follows_cycle_and_statefulness() {
        let g = erdos_renyi(30, 0.12, 5);
        let s = PeriodicDegreeBound::new(&g);
        let cycle = s.residue_schedule().unwrap().cycle();
        assert_eq!(AnalysisEngine::select(&s, cycle - 1), AnalysisEngine::ShardedSweep);
        assert_eq!(AnalysisEngine::select(&s, cycle), AnalysisEngine::ClosedForm);
        assert_eq!(AnalysisEngine::select(&s, 10 * cycle + 3), AnalysisEngine::ClosedForm);

        let stateful = Scripted { sets: vec![] };
        assert_eq!(AnalysisEngine::select(&stateful, 100), AnalysisEngine::Sequential);
        // Forcing a better engine than the scheduler supports downgrades.
        assert_eq!(AnalysisEngine::ClosedForm.clamp(&stateful, 100), AnalysisEngine::Sequential);
        assert_eq!(AnalysisEngine::ShardedSweep.clamp(&s, 7), AnalysisEngine::ShardedSweep);
        assert_eq!(AnalysisEngine::ClosedForm.clamp(&s, cycle - 1), AnalysisEngine::ShardedSweep);
    }

    #[test]
    fn attendance_heavy_schedules_stay_on_the_sweep() {
        // Hub-and-spoke shape: 64 spokes hosting every other holiday plus
        // one slow hub stretching the cycle to MAX_CYCLE.  The cycle is
        // within budget but the per-cycle attendance volume (64 · 2^21)
        // exceeds MAX_EVENTS, so the closed form must not be selected — its
        // profile memory is O(attendance), the sweep's is O(n).
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

        let mut slots = vec![0u64; 64];
        let mut moduli = vec![2u64; 64];
        slots.push(1);
        moduli.push(CycleProfile::MAX_CYCLE);
        let s = ViewOnly { schedule: ResidueSchedule::scan_only(slots, moduli) };
        let cycle = s.schedule_cycle().unwrap();
        assert_eq!(cycle, CycleProfile::MAX_CYCLE, "cycle itself is within budget");
        assert!(s.residue_schedule().unwrap().attendance_per_cycle() > CycleProfile::MAX_EVENTS);
        assert_eq!(
            AnalysisEngine::select(&s, 2 * cycle),
            AnalysisEngine::ShardedSweep,
            "attendance budget must override the cycle-length check"
        );
    }

    #[test]
    fn every_engine_matches_the_reference_across_thread_counts() {
        // Smoke version of tests/analysis_parity.rs, at unit-test scope.
        let g = erdos_renyi(40, 0.12, 5);
        for horizon in [1u64, 7, 64, 129] {
            let reference = {
                let mut s = PeriodicDegreeBound::new(&g);
                analyze_schedule_reference(&g, &mut s, horizon)
            };
            for threads in [1usize, 2, 8] {
                for engine in [AnalysisEngine::ClosedForm, AnalysisEngine::ShardedSweep] {
                    let mut s = PeriodicDegreeBound::new(&g);
                    let pool =
                        rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                    let checker = GraphChecker::new(&g);
                    let got = pool.install(|| {
                        analyze_schedule_with_engine(&g, &mut s, horizon, &checker, engine)
                    });
                    assert_eq!(got.scheduler, reference.scheduler);
                    assert_eq!(got.total_happiness, reference.total_happiness);
                    assert_eq!(got.never_happy, reference.never_happy);
                    assert_eq!(
                        got.all_happy_sets_independent,
                        reference.all_happy_sets_independent
                    );
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
                }
            }
        }
    }

    #[test]
    fn cycle_profile_exposes_the_attendance_pattern() {
        let g = erdos_renyi(20, 0.2, 9);
        let s = PeriodicDegreeBound::new(&g);
        let view = s.residue_schedule().unwrap();
        let profile =
            CycleProfile::build(view, s.first_holiday(), g.node_count(), &GraphChecker::new(&g));
        assert!(profile.all_classes_independent());
        assert_eq!(profile.cycle(), view.cycle());
        let mut total = 0u64;
        for p in 0..profile.node_count() {
            let offs = profile.attendance_offsets(p);
            assert_eq!(offs.len() as u64, profile.count_per_cycle(p));
            assert!(offs.windows(2).all(|w| w[0] < w[1]), "offsets ascend");
            // Every node of a ResidueSchedule is perfectly periodic: its gap
            // multiset is {modulus} repeated.
            let m = view.modulus(p);
            assert!(profile.gaps(p).all(|gap| gap == m), "node {p} gaps must equal its modulus");
            assert_eq!(profile.gaps(p).count() as u64, profile.count_per_cycle(p));
            total += profile.count_per_cycle(p);
        }
        assert_eq!(total, profile.happiness_per_cycle());
        // Deriving below one cycle is refused; the dispatcher falls back.
        assert!(profile.derive("x", &g, profile.cycle() - 1).is_none());
    }
}
