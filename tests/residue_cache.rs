//! Verification lockdown: every holiday a schedule runs is covered by its
//! independence verdict, and a corrupted schedule is caught on every path.
//!
//! A residue view emits no happy sets to check: two neighbours on the rows
//! `s_u mod m_u` and `s_v mod m_v` ever host together iff `s_u ≡ s_v (mod
//! gcd(m_u, m_v))` (Lemma 5.2), so the one-shot analysis and the serving
//! tier's `CycleProfile::build` both test one congruence per edge.  The
//! build's verdict is pinned against `ResidueSchedule::conflict` and
//! against the sequential reference sweep over one whole cycle, on random
//! mixed-modulus views, conflicting ones and views wider than the graph
//! included.  No residue class escapes the edge pass: a conflict planted in
//! any one class of a cycle fails the build, and the reference sweep that
//! the serving tier's audit runs emits and checks each class exactly once.
//! Happy sets handed to a [`HolidayChecker`] as a batch are caught through
//! its per-set `check_batch`, and a build handed a [`GraphChecker`] (the
//! form the repository benchmark calls) catches the same corruption.  The
//! one-shot analysis is pinned by what it reports: a horizon that ends
//! before the first conflicting holiday is independent, one that reaches it
//! is not.  Stateful schedulers are verified holiday by holiday, up to the
//! last.

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

#[test]
fn short_horizons_only_verify_what_they_run() {
    // `ViewScheduler::corrupted` first puts two neighbours together at
    // offset 1, so a
    // one-holiday horizon is independent and every longer one is not —
    // on the progression engine, on its totals path and in the reference.
    let graph = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
    for (horizon, independent) in [(1u64, true), (2, false), (64, false)] {
        let mut scheduler = ViewScheduler::corrupted();
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

/// A scheduler that is nothing but a residue view, starting at `start`.
struct ViewScheduler {
    schedule: ResidueSchedule,
    start: u64,
}

impl ViewScheduler {
    /// A deliberately broken "periodic" scheduler: two adjacent nodes share
    /// the same slot and modulus, so they host together on every fourth
    /// holiday.
    fn corrupted() -> Self {
        // Nodes 0 and 1 (adjacent in the path graph below) both host at
        // t ≡ 1 (mod 4); nodes 2 and 3 host at distinct residues.
        let schedule = ResidueSchedule::new(vec![1, 1, 2, 3], vec![4, 4, 4, 4]);
        ViewScheduler { schedule, start: 0 }
    }
}

impl Scheduler for ViewScheduler {
    fn node_count(&self) -> usize {
        self.schedule.node_count()
    }
    fn fill_happy_set(&mut self, t: u64, out: &mut HappySet) {
        self.schedule.fill(t, out);
    }
    fn first_holiday(&self) -> u64 {
        self.start
    }
    fn name(&self) -> &'static str {
        "residue-view"
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

/// Records every holiday a sweep asks it to emit, then emits the view's
/// happy set.
struct Recording {
    inner: ViewScheduler,
    emitted: Vec<u64>,
}

impl Scheduler for Recording {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn fill_happy_set(&mut self, t: u64, out: &mut HappySet) {
        self.emitted.push(t);
        self.inner.fill_happy_set(t, out);
    }
    fn first_holiday(&self) -> u64 {
        self.inner.first_holiday()
    }
    fn name(&self) -> &'static str {
        "recording"
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
fn each_residue_class_is_verified_exactly_once() {
    let graph = erdos_renyi(80, 0.08, 7);
    let n = graph.node_count();
    let scheduler = PeriodicDegreeBound::new(&graph);
    let clean = scheduler.residue_schedule().expect("periodic").clone();
    let cycle = clean.cycle();
    let start = scheduler.first_holiday();
    assert!(cycle >= 2, "test graph must have a non-trivial cycle");

    // The one-cycle reference sweep emits, and so checks, each residue
    // class once, and agrees with the build's edge pass.
    let mut recording =
        Recording { inner: ViewScheduler { schedule: clean.clone(), start }, emitted: Vec::new() };
    let reference = analyze_schedule_reference(&graph, &mut recording, cycle);
    assert_eq!(
        recording.emitted,
        (start..start + cycle).collect::<Vec<u64>>(),
        "exactly one emission per residue class, no repeats"
    );
    assert!(reference.all_happy_sets_independent);
    assert!(CycleProfile::build(&clean, start, n, &graph).all_classes_independent());

    // Every class is covered by the edge pass: moving one edge's endpoints
    // onto the row `r mod C` plants a conflict in class `r` and no other,
    // and the build catches it whichever class `r` is.
    let edge = graph.edges().next().expect("the test graph has edges");
    let (mut slots, mut moduli): (Vec<u64>, Vec<u64>) =
        (0..clean.node_count()).map(|p| (clean.slot(p), clean.modulus(p))).unzip();
    moduli[edge.u] = cycle;
    moduli[edge.v] = cycle;
    for r in start..start + cycle {
        slots[edge.u] = r % cycle;
        slots[edge.v] = r % cycle;
        let planted = ResidueSchedule::new(slots.clone(), moduli.clone());
        assert_eq!(planted.cycle(), cycle);
        let profile = CycleProfile::build(&planted, start, n, &graph);
        assert!(!profile.all_classes_independent(), "the conflict in class {r} went unseen");
        // The sweep meets the conflict first at holiday `r`, and not before.
        let offset = r - start;
        let mut before = ViewScheduler { schedule: planted.clone(), start };
        let upto = analyze_schedule_reference(&graph, &mut before, offset);
        assert!(upto.all_happy_sets_independent, "class {r}: no conflict before it");
        let mut reaching = ViewScheduler { schedule: planted, start };
        let through = analyze_schedule_reference(&graph, &mut reaching, offset + 1);
        assert!(!through.all_happy_sets_independent, "class {r}: the sweep must catch it");
    }
}

#[test]
fn corrupted_happy_sets_are_caught_by_the_congruence_test() {
    let graph = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
    let mut scheduler = ViewScheduler::corrupted();
    let analysis = analyze_schedule(&graph, &mut scheduler, 64);
    assert!(
        !analysis.all_happy_sets_independent,
        "nodes 0 and 1 share the row 1 mod 4: the congruence test must fail their edge"
    );
    assert!(!analyze_schedule_totals(&graph, &mut scheduler, 64).all_happy_sets_independent);
    // And the verdict agrees with the exhaustive reference.
    let mut reference = ViewScheduler::corrupted();
    let expected = analyze_schedule_reference(&graph, &mut reference, 64);
    assert!(!expected.all_happy_sets_independent);
}

#[test]
fn corrupted_happy_sets_are_caught_through_the_batch_path() {
    // The corrupted view's residue classes of one cycle, handed to
    // `check_batch` (the per-set default) as one batch: the conflicting
    // class (nodes 0 and 1 host together at t ≡ 1 mod 4) must fail it, and
    // the same batch without that class must pass.
    let graph = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
    let scheduler = ViewScheduler::corrupted();
    let view = &scheduler.schedule;
    let classes: Vec<(u64, FixedBitSet)> = (scheduler.start..scheduler.start + view.cycle())
        .map(|t| {
            let mut happy = HappySet::new(view.node_count());
            view.fill(t, &mut happy);
            (t, happy.as_bitset().clone())
        })
        .collect();
    let batch: Vec<(u64, &FixedBitSet)> = classes.iter().map(|(t, set)| (*t, set)).collect();
    let checker = GraphChecker::new(&graph);
    assert!(
        !checker.check_batch(&batch),
        "the batch path must catch the conflicting residue class"
    );
    let expected = batch.iter().all(|&(t, set)| checker.check(t, set));
    assert_eq!(checker.check_batch(&batch), expected, "the batch is its per-set checks");
    let clean: Vec<(u64, &FixedBitSet)> =
        batch.iter().copied().filter(|&(t, _)| t % 4 != 1).collect();
    assert_eq!(clean.len(), batch.len() - 1, "one class of the cycle conflicts");
    assert!(checker.check_batch(&clean), "the other classes are independent");
    // A build handed the checker in place of the graph catches it too.
    let profile = CycleProfile::build(view, scheduler.start, graph.node_count(), &checker);
    assert!(!profile.all_classes_independent(), "a build handed a checker must catch the class");
}

/// The moduli the random views draw from: powers of two, as in §4/§5, and
/// the coprime 3 and 5, so the cycle (at most lcm = 240) is short enough
/// for the reference sweep.
const MODULI: [u64; 7] = [1, 2, 3, 4, 5, 8, 16];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The profile build's verdict is the edge pass: on random
    /// mixed-modulus views of random graphs — most of them conflicting,
    /// some narrower than the graph and some wider — it equals
    /// `view.conflict(graph).is_none()` for views that fit the graph, is
    /// `false` for views that do not, and equals the verdict of the
    /// sequential reference sweep, which emits and checks every holiday of
    /// one whole cycle.
    #[test]
    fn build_verdict_is_the_edge_pass_and_the_one_cycle_sweep(
        seed in 0u64..1_000,
        n in 1usize..24,
        density in 0.0f64..0.3,
        rows in prop::collection::vec((0usize..MODULI.len(), 0u64..1 << 20), 0..28),
        start in 0u64..1_000,
    ) {
        let graph = erdos_renyi(n, density, seed);
        let schedule = ResidueSchedule::new(
            rows.iter().map(|&(m, slot)| slot % MODULI[m]).collect(),
            rows.iter().map(|&(m, _)| MODULI[m]).collect(),
        );
        let fits = schedule.node_count() <= n;
        let edge_pass = fits && schedule.conflict(&graph).is_none();
        let profile = CycleProfile::build(&schedule, start, n, &graph);
        let cycle = schedule.cycle();
        let mut sweep = ViewScheduler { schedule, start };
        let reference = analyze_schedule_reference(&graph, &mut sweep, cycle);
        prop_assert_eq!(profile.all_classes_independent(), edge_pass, "rows {:?}", rows);
        prop_assert_eq!(
            profile.all_classes_independent(),
            reference.all_happy_sets_independent,
            "n {}, rows {:?}, cycle {}", n, rows, cycle
        );
    }
}
