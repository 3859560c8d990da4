//! Verification lockdown: every holiday a schedule runs is covered by its
//! independence verdict, exactly once per residue class where classes are
//! walked, and a corrupted schedule is caught on every path.
//!
//! A counting [`HolidayChecker`] wraps the real graph checker and records
//! every holiday it is asked to verify.  The serving tier's
//! `CycleProfile::build` is the one cycle walk left: it must probe exactly
//! the holidays `start..start + C` of a cycle `C` — one per residue class,
//! none repeated — at every thread count, and deriving any horizon from the
//! built profile must probe nothing more.  Both counting granularities are
//! pinned: a checker that only overrides `check` sees every class through
//! the batch default's per-class fallback, and a checker that overrides
//! `check_batch` sees each class in exactly one batch.  The one-shot
//! analysis emits no happy sets at all (one congruence test per edge), so
//! its verdict is pinned by what it reports: a horizon that ends before the
//! first conflicting holiday is independent, one that reaches it is not.
//! Stateful schedulers are verified holiday by holiday, up to the last.
//! Kernel-mode coverage comes from CI running this suite under each
//! `FHG_KERNEL` value.

use std::sync::Mutex;

use fhg::core::analysis::{
    analyze_schedule, analyze_schedule_reference, analyze_schedule_totals, CycleProfile,
    GraphChecker, HolidayChecker,
};
use fhg::core::schedulers::residue::ResidueSchedule;
use fhg::core::schedulers::{PeriodicDegreeBound, PhasedGreedy};
use fhg::core::{HappySet, Scheduler};
use fhg::graph::generators::erdos_renyi;
use fhg::graph::{FixedBitSet, Graph, NodeId};
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

/// Records every holiday it is asked to verify, then delegates to the real
/// checker.
struct CountingChecker {
    inner: GraphChecker,
    probed: Mutex<Vec<u64>>,
}

impl CountingChecker {
    fn new(graph: &Graph) -> Self {
        CountingChecker { inner: GraphChecker::new(graph), probed: Mutex::new(Vec::new()) }
    }

    fn probed_sorted(&self) -> Vec<u64> {
        let mut probed = self.probed.lock().unwrap().clone();
        probed.sort_unstable();
        probed
    }
}

impl HolidayChecker for CountingChecker {
    fn check(&self, t: u64, happy: &FixedBitSet) -> bool {
        self.probed.lock().unwrap().push(t);
        self.inner.check(t, happy)
    }
}

/// Records every class handed through the **batch** path (and asserts the
/// batch width contract), then delegates to the real batched checker.  A
/// class routed through per-class `check` would be counted too — the
/// exactly-once assertions below therefore cover both granularities.
struct BatchCountingChecker {
    inner: GraphChecker,
    probed: Mutex<Vec<u64>>,
    batches: Mutex<Vec<usize>>,
}

impl BatchCountingChecker {
    fn new(graph: &Graph) -> Self {
        BatchCountingChecker {
            inner: GraphChecker::new(graph),
            probed: Mutex::new(Vec::new()),
            batches: Mutex::new(Vec::new()),
        }
    }

    fn probed_sorted(&self) -> Vec<u64> {
        let mut probed = self.probed.lock().unwrap().clone();
        probed.sort_unstable();
        probed
    }
}

impl HolidayChecker for BatchCountingChecker {
    fn check(&self, t: u64, happy: &FixedBitSet) -> bool {
        self.probed.lock().unwrap().push(t);
        self.inner.check(t, happy)
    }

    fn check_batch(&self, classes: &[(u64, &FixedBitSet)]) -> bool {
        assert!(classes.len() <= 64, "engines must respect the batch width");
        self.probed.lock().unwrap().extend(classes.iter().map(|&(t, _)| t));
        self.batches.lock().unwrap().push(classes.len());
        self.inner.check_batch(classes)
    }
}

/// Builds the profile of `scheduler`'s view through `checker` on a pool of
/// `threads` workers.
fn build_with<C: HolidayChecker>(
    graph: &Graph,
    scheduler: &dyn Scheduler,
    checker: &C,
    threads: usize,
) -> CycleProfile {
    let view = scheduler.residue_schedule().expect("periodic");
    let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
    pool.install(|| {
        CycleProfile::build(view, scheduler.first_holiday(), graph.node_count(), checker)
    })
}

#[test]
fn each_residue_class_is_verified_exactly_once() {
    let graph = erdos_renyi(80, 0.08, 7);
    let scheduler = PeriodicDegreeBound::new(&graph);
    let cycle = scheduler.residue_schedule().expect("periodic").cycle();
    let start = scheduler.first_holiday();
    assert!(cycle >= 2, "test graph must have a non-trivial cycle");

    for threads in [1usize, 2, 8] {
        let checker = CountingChecker::new(&graph);
        let profile = build_with(&graph, &scheduler, &checker, threads);
        assert!(profile.all_classes_independent());
        assert_eq!(
            checker.probed_sorted(),
            (start..start + cycle).collect::<Vec<u64>>(),
            "{threads} threads: exactly one probe per residue class, no repeats"
        );
    }
}

#[test]
fn short_horizons_only_verify_what_they_run() {
    // `Corrupted` first puts two neighbours together at offset 1, so a
    // one-holiday horizon is independent and every longer one is not —
    // on the progression engine, on its totals path and in the reference.
    let graph = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
    for (horizon, independent) in [(1u64, true), (2, false), (64, false)] {
        let mut scheduler = Corrupted::new();
        let analysis = analyze_schedule(&graph, &mut scheduler, horizon);
        assert_eq!(analysis.all_happy_sets_independent, independent, "horizon {horizon}");
        let totals = analyze_schedule_totals(&graph, &mut scheduler, horizon);
        assert_eq!(totals.all_happy_sets_independent, independent, "totals, horizon {horizon}");
        let reference = analyze_schedule_reference(&graph, &mut scheduler, horizon);
        assert_eq!(reference.all_happy_sets_independent, independent, "reference {horizon}");
    }
}

/// A stateful scheduler (no residue view) that plants a conflicting pair
/// into the otherwise valid phased-greedy happy set of holiday `at`.
struct Planted {
    inner: PhasedGreedy,
    at: u64,
    pair: (NodeId, NodeId),
}

impl Scheduler for Planted {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn fill_happy_set(&mut self, t: u64, out: &mut HappySet) {
        self.inner.fill_happy_set(t, out);
        if t == self.at {
            out.insert(self.pair.0);
            out.insert(self.pair.1);
        }
    }
    fn first_holiday(&self) -> u64 {
        self.inner.first_holiday()
    }
    fn name(&self) -> &'static str {
        "planted"
    }
    fn is_periodic(&self) -> bool {
        false
    }
    fn period(&self, _p: NodeId) -> Option<u64> {
        None
    }
    fn unhappiness_bound(&self, _p: NodeId) -> Option<u64> {
        None
    }
}

#[test]
fn stateful_schedulers_are_verified_on_every_holiday() {
    let graph = erdos_renyi(40, 0.1, 5);
    let edge = graph.edges().next().expect("the test graph has edges");
    let horizon = 97u64;
    let planted = || {
        let inner = PhasedGreedy::new(&graph);
        let at = inner.first_holiday() + horizon - 1;
        Planted { inner, at, pair: (edge.u, edge.v) }
    };
    assert!(planted().residue_schedule().is_none(), "no view: the sequential engine runs");
    // The conflict sits on the last holiday: only a sweep that verifies
    // every holiday up to the end catches it.
    let reference = analyze_schedule_reference(&graph, &mut planted(), horizon);
    assert!(!reference.all_happy_sets_independent, "the reference must catch the last holiday");
    let analysis = analyze_schedule(&graph, &mut planted(), horizon);
    assert!(!analysis.all_happy_sets_independent);
    // One holiday shorter, the plant is never emitted.
    let short = analyze_schedule_reference(&graph, &mut planted(), horizon - 1);
    assert!(short.all_happy_sets_independent, "phased greedy alone is independent");
}

/// A deliberately broken "periodic" scheduler: two adjacent nodes share the
/// same slot and modulus, so they host together on every fourth holiday.
struct Corrupted {
    schedule: ResidueSchedule,
}

impl Corrupted {
    fn new() -> Self {
        // Nodes 0 and 1 (adjacent in the path graph below) both host at
        // t ≡ 1 (mod 4); nodes 2 and 3 host at distinct residues.
        Corrupted { schedule: ResidueSchedule::new(vec![1, 1, 2, 3], vec![4, 4, 4, 4]) }
    }
}

impl Scheduler for Corrupted {
    fn node_count(&self) -> usize {
        self.schedule.node_count()
    }
    fn fill_happy_set(&mut self, t: u64, out: &mut HappySet) {
        self.schedule.fill(t, out);
    }
    fn first_holiday(&self) -> u64 {
        0
    }
    fn name(&self) -> &'static str {
        "corrupted-periodic"
    }
    fn is_periodic(&self) -> bool {
        true
    }
    fn period(&self, p: NodeId) -> Option<u64> {
        Some(self.schedule.modulus(p))
    }
    fn unhappiness_bound(&self, _p: NodeId) -> Option<u64> {
        Some(4)
    }
    fn residue_schedule(&self) -> Option<&ResidueSchedule> {
        Some(&self.schedule)
    }
}

#[test]
fn corrupted_happy_sets_are_caught_by_the_congruence_test() {
    let graph = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
    let mut scheduler = Corrupted::new();
    let analysis = analyze_schedule(&graph, &mut scheduler, 64);
    assert!(
        !analysis.all_happy_sets_independent,
        "nodes 0 and 1 share the row 1 mod 4: the congruence test must fail their edge"
    );
    assert!(!analyze_schedule_totals(&graph, &mut scheduler, 64).all_happy_sets_independent);
    // And the verdict agrees with the exhaustive reference.
    let mut reference = Corrupted::new();
    let expected = analyze_schedule_reference(&graph, &mut reference, 64);
    assert!(!expected.all_happy_sets_independent);
}

#[test]
fn cache_probe_count_is_independent_of_the_horizon() {
    // Deriving any horizon from a built profile probes nothing: the count
    // stays one per residue class however far the derivation reaches.
    let graph = erdos_renyi(50, 0.12, 9);
    let scheduler = PeriodicDegreeBound::new(&graph);
    let cycle = scheduler.residue_schedule().unwrap().cycle();
    for threads in [1usize, 2, 8] {
        let checker = CountingChecker::new(&graph);
        let profile = build_with(&graph, &scheduler, &checker, threads);
        for horizon in [2 * cycle, 8 * cycle, 1 << 40] {
            let analysis = profile.derive(scheduler.name(), &graph, horizon).unwrap();
            assert!(analysis.all_happy_sets_independent);
            assert!(profile.derive_window_totals(3, horizon).all_happy_sets_independent);
        }
        assert_eq!(
            checker.probed_sorted().len() as u64,
            cycle,
            "{threads} threads: probe count must not scale with the horizon"
        );
    }
}

#[test]
fn batched_verification_still_probes_each_class_exactly_once() {
    // Same contract as `each_residue_class_is_verified_exactly_once`, but
    // observed through an overridden `check_batch`: every residue class
    // arrives in exactly one batch, none is re-probed per class, at every
    // thread count.
    let graph = erdos_renyi(80, 0.08, 7);
    let scheduler = PeriodicDegreeBound::new(&graph);
    let cycle = scheduler.residue_schedule().expect("periodic").cycle();
    let start = scheduler.first_holiday();
    assert!(cycle >= 2, "test graph must have a non-trivial cycle");

    for threads in [1usize, 2, 8] {
        let checker = BatchCountingChecker::new(&graph);
        let profile = build_with(&graph, &scheduler, &checker, threads);
        assert!(profile.all_classes_independent());
        assert_eq!(
            checker.probed_sorted(),
            (start..start + cycle).collect::<Vec<u64>>(),
            "{threads} threads: exactly one batched probe per residue class"
        );
        let batches = checker.batches.lock().unwrap().clone();
        assert_eq!(
            batches.iter().map(|&len| len as u64).sum::<u64>(),
            cycle,
            "{threads} threads: batch sizes partition the cycle"
        );
        assert!(
            batches.iter().any(|&len| len > 1),
            "{threads} threads: a {cycle}-class cycle must produce real batches"
        );
    }
}

#[test]
fn corrupted_happy_sets_are_caught_through_the_batch_path() {
    // The conflicting residue class (nodes 0 and 1 host together) must fail
    // the profile build when verification flows through `check_batch`.
    let graph = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
    let scheduler = Corrupted::new();
    let checker = BatchCountingChecker::new(&graph);
    let profile = build_with(&graph, &scheduler, &checker, 1);
    assert!(
        !profile.all_classes_independent(),
        "the batch path must catch the conflicting residue class"
    );
    assert!(!checker.probed_sorted().is_empty(), "the corrupted class was actually probed");
}

proptest! {
    /// `GraphChecker::check_batch` equals the conjunction of per-set
    /// `check` at any batch length, up to 140 classes (three membership
    /// tables), including batches holding a dependent class.  Then the
    /// independent classes alone, with one conflicting class appended: the
    /// only conflict sits in the last chunk, which every chunk before it
    /// must not hide.  Kernel-mode coverage comes from CI running this
    /// suite under each `FHG_KERNEL` value.
    #[test]
    fn check_batch_matches_per_set_checks_at_any_batch_length(
        seed in 0u64..40,
        n in 40usize..200,
        picks in proptest::collection::vec((0u64..1 << 16, 1usize..10), 1..141),
    ) {
        let graph = erdos_renyi(n, 0.04, seed);
        let classes: Vec<(u64, FixedBitSet)> = picks
            .iter()
            .enumerate()
            .map(|(i, &(mix, members))| {
                let mut set = FixedBitSet::new(n);
                for k in 0..members {
                    set.insert(((mix as usize).wrapping_mul(k * 31 + i + 1)) % n);
                }
                (i as u64, set)
            })
            .collect();
        let refs: Vec<(u64, &FixedBitSet)> = classes.iter().map(|(t, s)| (*t, s)).collect();
        let checker = GraphChecker::new(&graph);
        let expected = refs.iter().all(|&(t, s)| checker.check(t, s));
        prop_assert_eq!(checker.check_batch(&refs), expected);

        let Some(edge) = graph.edges().next() else { return };
        let mut conflict = FixedBitSet::new(n);
        conflict.insert(edge.u);
        conflict.insert(edge.v);
        let mut clean: Vec<(u64, &FixedBitSet)> =
            refs.iter().copied().filter(|&(t, s)| checker.check(t, s)).collect();
        prop_assert!(checker.check_batch(&clean));
        clean.push((clean.len() as u64, &conflict));
        prop_assert!(
            !checker.check_batch(&clean),
            "the conflict closing a batch of {} classes went unseen",
            clean.len()
        );
    }
}
