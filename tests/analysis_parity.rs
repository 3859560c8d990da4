//! Parity lockdown for the production analysis engines.
//!
//! `analyze_schedule` runs every scheduler exposing a `ResidueSchedule` view
//! on the **progression engine** (`AnalysisEngine::ClosedForm`: one formula
//! per node, one congruence test per edge, at every horizon) and stateful
//! schedulers on the sequential sweep.  This suite asserts that, for every
//! scheduler in the standard suite, every graph family, random seeds and
//! horizons on both sides of the cycle, the production result is
//! bitwise-identical to the sequential, uncached reference
//! (`analyze_schedule_reference`, every holiday emitted and verified) —
//! per-node gaps, streaks, periods, `jain_fairness` and `bound_violations`
//! included.  Random, often-conflicting residue views pin the parts valid
//! schedules never reach: the verdict of a horizon that ends just before or
//! just after the first co-attendance, and views with more or fewer nodes
//! than the graph.  Horizons the reference cannot sweep (2^40 and
//! `u64::MAX`) are checked against `CycleProfile::derive`, the serving
//! tier's independent derivation, which folds a table of distinct
//! progressions.
//!
//! The profile itself is locked down here too: its build and every
//! derivation plane agree bitwise with the reference.  The build runs its
//! edge pass on the calling thread, so it runs inside 1/2/8 worker pools
//! (including pools wider than the cycle) and on cycles around multiples of
//! the worker count, none of which may change a bit.
//!
//! Stateful schedulers run on the pipelined engine, which emits on the
//! calling thread while a pool worker verifies and records the previous
//! block of 64 holidays.  Its section pins it against the reference at
//! 1/2/8 threads and at horizons around the block edges, with dependent sets
//! and out-of-graph members planted on both sides of an edge and in the last
//! partial block, and checks that a panic in emission reaches the caller.
//!
//! Float fields are compared through `to_bits`, so `NaN` mean gaps (fewer
//! than two happy holidays) compare equal exactly when both paths produce
//! them.  The reference emits through the fused word kernels
//! (`fhg_graph::kernels`), whose two compilations of one source the kernel
//! proptests compare in-process; CI runs this suite under the
//! `FHG_THREADS=1/8` matrix.

use proptest::prelude::*;

use fhg::core::analysis::{
    analyze_schedule, analyze_schedule_reference, analyze_schedule_totals, AnalysisEngine,
    CycleProfile, ScheduleAnalysis,
};
use fhg::core::schedulers::residue::ResidueSchedule;
use fhg::core::schedulers::{standard_suite, FirstComeFirstGrab, PhasedGreedy};
use fhg::core::{HappySet, Scheduler};
use fhg::graph::generators::Family;
use fhg::graph::{Graph, NodeId};
use rayon::ThreadPoolBuilder;

/// Asserts two analyses are bitwise-identical, NaN-aware on float fields.
fn assert_bitwise_identical(got: &ScheduleAnalysis, reference: &ScheduleAnalysis, ctx: &str) {
    assert_eq!(got.scheduler, reference.scheduler, "{ctx}");
    assert_eq!(got.horizon, reference.horizon, "{ctx}");
    assert_eq!(
        got.all_happy_sets_independent, reference.all_happy_sets_independent,
        "{ctx}: independence verdict"
    );
    assert_eq!(got.never_happy, reference.never_happy, "{ctx}: never_happy");
    assert_eq!(got.total_happiness, reference.total_happiness, "{ctx}: total_happiness");
    assert_eq!(
        got.mean_happy_set_size.to_bits(),
        reference.mean_happy_set_size.to_bits(),
        "{ctx}: mean_happy_set_size"
    );
    assert_eq!(got.per_node.len(), reference.per_node.len(), "{ctx}");
    for (a, b) in got.per_node.iter().zip(&reference.per_node) {
        assert_eq!(a.node, b.node, "{ctx}");
        assert_eq!(a.degree, b.degree, "{ctx}: node {}", a.node);
        assert_eq!(a.happy_count, b.happy_count, "{ctx}: node {} happy_count", a.node);
        assert_eq!(a.max_unhappiness, b.max_unhappiness, "{ctx}: node {} streak", a.node);
        assert_eq!(a.observed_period, b.observed_period, "{ctx}: node {} period", a.node);
        assert_eq!(a.first_happy, b.first_happy, "{ctx}: node {} first_happy", a.node);
        assert_eq!(
            a.mean_gap.to_bits(),
            b.mean_gap.to_bits(),
            "{ctx}: node {} mean_gap (NaN-aware)",
            a.node
        );
    }
    assert_eq!(
        got.jain_fairness().to_bits(),
        reference.jain_fairness().to_bits(),
        "{ctx}: jain_fairness"
    );
    assert_eq!(got.max_unhappiness(), reference.max_unhappiness(), "{ctx}");
    assert_eq!(got.all_periodic(), reference.all_periodic(), "{ctx}");
}

/// A scheduler that is nothing but a residue view, starting at `start`.
struct ViewScheduler {
    view: ResidueSchedule,
    start: u64,
}

impl Scheduler for ViewScheduler {
    fn node_count(&self) -> usize {
        self.view.node_count()
    }
    fn fill_happy_set(&mut self, t: u64, out: &mut HappySet) {
        self.view.fill(t, out);
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
        Some(self.view.modulus(p))
    }
    fn unhappiness_bound(&self, _p: NodeId) -> Option<u64> {
        None
    }
    fn residue_schedule(&self) -> Option<&ResidueSchedule> {
        Some(&self.view)
    }
}

/// The first offset within one cycle at which the view's happy set is not
/// independent — an edge's endpoints host together, or a node beyond the
/// graph hosts — by brute force over the rows.
fn first_conflict(graph: &Graph, view: &ResidueSchedule, start: u64) -> Option<u64> {
    let hosts = |p: NodeId, t: u64| p < view.node_count() && t % view.modulus(p) == view.slot(p);
    (0..view.cycle()).find(|&o| {
        let t = start + o;
        (graph.node_count()..view.node_count()).any(|p| hosts(p, t))
            || graph.edges().any(|e| hosts(e.u, t) && hosts(e.v, t))
    })
}

/// Moduli of the random views: divisors of 48, so every cycle stays short
/// enough for the reference to sweep several of them.
const MODULI: [u64; 8] = [1, 2, 3, 4, 6, 8, 12, 16];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The core property: production engine == reference, for every suite
    /// scheduler, across graph families, seeds and horizons (including 0, 1
    /// and values on both sides of every cycle).
    #[test]
    fn analysis_is_bitwise_identical_to_reference(
        family in prop::sample::select(Family::ALL.to_vec()),
        seed in 0u64..300,
        horizon in 0u64..230,
    ) {
        let graph = family.generate(36, 4.0, seed);
        // Twin scheduler instances from identical inputs, so stateful
        // schedulers advance twin internal states down both paths.
        let suite_prod = standard_suite(&graph, seed ^ 0xA5A5);
        let suite_ref = standard_suite(&graph, seed ^ 0xA5A5);
        for (mut prod, mut reference) in suite_prod.into_iter().zip(suite_ref) {
            let expected = analyze_schedule_reference(&graph, reference.as_mut(), horizon);
            let got = analyze_schedule(&graph, prod.as_mut(), horizon);
            let ctx = format!(
                "{} on {} (seed {seed}, horizon {horizon})",
                expected.scheduler,
                family.name()
            );
            assert_bitwise_identical(&got, &expected, &ctx);
            prop_assert_eq!(
                got.bound_violations(prod.as_ref()),
                expected.bound_violations(reference.as_ref()),
                "{}: bound_violations",
                ctx
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Ragged-horizon lockdown for the progression engine: for every
    /// periodic scheduler in the suite, horizons straddling cycle multiples
    /// (`cycle - 1`, `cycle`, `cycle + 1`, `k·cycle ± 1`) all take the
    /// closed form and are bitwise-identical to the reference — below one
    /// cycle the verdict comes from the congruence test alone, at and above
    /// it the count and streak formulas meet the trailing stretch.
    #[test]
    fn closed_form_matches_reference_on_ragged_horizons(
        family in prop::sample::select(Family::ALL.to_vec()),
        seed in 0u64..200,
        k in 2u64..5,
    ) {
        let graph = family.generate(32, 3.5, seed);
        let suite_prod = standard_suite(&graph, seed ^ 0x5A5A);
        let suite_ref = standard_suite(&graph, seed ^ 0x5A5A);
        for (mut prod, mut reference) in suite_prod.into_iter().zip(suite_ref) {
            let Some(cycle) = prod.schedule_cycle() else { continue };
            // Stateful schedulers would need twin states per horizon; the
            // ragged-tail property only concerns periodic (pure-in-t) ones.
            let horizons =
                [cycle - 1, cycle, cycle + 1, k * cycle - 1, k * cycle, k * cycle + 1];
            for horizon in horizons {
                prop_assert_eq!(
                    AnalysisEngine::select(prod.as_ref(), horizon),
                    AnalysisEngine::ClosedForm,
                    "{} cycle {} horizon {}",
                    prod.name(),
                    cycle,
                    horizon
                );
                let expected = analyze_schedule_reference(&graph, reference.as_mut(), horizon);
                let got = analyze_schedule(&graph, prod.as_mut(), horizon);
                let ctx = format!(
                    "{} on {} (seed {seed}, cycle {cycle}, horizon {horizon})",
                    expected.scheduler,
                    family.name()
                );
                assert_bitwise_identical(&got, &expected, &ctx);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random, often-conflicting residue views on every graph family: moduli
    /// from {1, 2, 3, 4, 6, 8, 12, 16}, views over fewer, as many or more
    /// nodes than the graph, and horizons 0, 1, the first conflict offset
    /// `f` and `f + 1` (the verdict flips between them), `cycle ± 1`,
    /// `cycle` and `3·cycle + 5`.  `analyze_schedule` must equal the
    /// reference bitwise, and `analyze_schedule_totals` the reduced
    /// analysis.
    #[test]
    fn conflicting_views_match_the_reference(
        family in prop::sample::select(Family::ALL.to_vec()),
        seed in 0u64..500,
        view_nodes in 18usize..31,
        rows in prop::collection::vec((0usize..MODULI.len(), 0u64..48), 30..31),
        start in 0u64..64,
    ) {
        let graph = family.generate(24, 4.0, seed);
        let (slots, moduli): (Vec<u64>, Vec<u64>) = rows[..view_nodes]
            .iter()
            .map(|&(i, raw)| (raw % MODULI[i], MODULI[i]))
            .unzip();
        let view = ResidueSchedule::new(slots, moduli);
        let cycle = view.cycle();
        let conflict = first_conflict(&graph, &view, start);
        let mut horizons = vec![0, 1, cycle - 1, cycle, cycle + 1, 3 * cycle + 5];
        if let Some(f) = conflict {
            horizons.extend([f, f + 1]);
        }
        let mut sched = ViewScheduler { view, start };
        for horizon in horizons {
            let ctx = format!(
                "view of {view_nodes} nodes on {} (seed {seed}, start {start}, cycle {cycle}, \
                 first conflict {conflict:?}, horizon {horizon})",
                family.name()
            );
            let expected = analyze_schedule_reference(&graph, &mut sched, horizon);
            let got = analyze_schedule(&graph, &mut sched, horizon);
            assert_bitwise_identical(&got, &expected, &ctx);
            prop_assert_eq!(
                got.all_happy_sets_independent,
                conflict.is_none_or(|f| horizon <= f),
                "{}: verdict against the brute-force first conflict",
                ctx
            );
            prop_assert_eq!(
                analyze_schedule_totals(&graph, &mut sched, horizon),
                got.totals(),
                "{}: totals",
                ctx
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Lockdown for the profile's derivation planes: for every periodic
    /// scheduler in the suite, the **profile build** (inside a 1/2/8-thread
    /// pool, which must change nothing), the **whole-cycle derive**
    /// (`horizon = k·cycle`, every lane's last appearance one step before
    /// the end of a cycle), the **ragged derive** (`k·cycle ± 1`, the
    /// horizon cutting into a cycle) and the **totals-only fast path** all
    /// agree bitwise with the sequential reference sweep.
    #[test]
    fn soa_derivation_planes_match_the_reference(
        family in prop::sample::select(Family::ALL.to_vec()),
        seed in 0u64..200,
        k in 2u64..5,
        threads in prop::sample::select(vec![1usize, 2, 8]),
    ) {
        let graph = family.generate(30, 3.5, seed);
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let suite_prod = standard_suite(&graph, seed ^ 0x3C3C);
        let suite_ref = standard_suite(&graph, seed ^ 0x3C3C);
        for (prod, mut reference) in suite_prod.into_iter().zip(suite_ref) {
            let Some(cycle) = prod.schedule_cycle() else { continue };
            let view = prod.residue_schedule().expect("cycle implies a residue view");
            // Build inside the pinned pool: the edge pass runs on the
            // calling thread, so the pool width must not show.
            let profile = pool.install(|| {
                CycleProfile::build(view, prod.first_holiday(), graph.node_count(), &graph)
            });
            for horizon in [cycle, k * cycle - 1, k * cycle, k * cycle + 1] {
                let expected = analyze_schedule_reference(&graph, reference.as_mut(), horizon);
                let ctx = format!(
                    "{} on {} (seed {seed}, cycle {cycle}, horizon {horizon}, {threads} threads)",
                    prod.name(),
                    family.name()
                );
                let derived = profile
                    .derive(prod.name(), &graph, horizon)
                    .expect("horizon >= cycle");
                assert_bitwise_identical(&derived, &expected, &ctx);
                let totals =
                    profile.derive_totals(horizon).expect("horizon >= cycle");
                prop_assert_eq!(&totals, &expected.totals(), "{}: totals fast path", ctx);
            }
        }
    }
}

/// The totals entry point must always equal the reduced full analysis — on
/// the progression engine (below, at and above one cycle) and on the
/// sequential one (stateful schedulers) alike.
#[test]
fn analyze_schedule_totals_equals_the_reduced_analysis() {
    let graph = Family::ErdosRenyi.generate(34, 4.0, 21);
    for horizon in [0u64, 5, 64, 131] {
        let suite_full = standard_suite(&graph, 13);
        let suite_totals = standard_suite(&graph, 13);
        for (mut full, mut totals) in suite_full.into_iter().zip(suite_totals) {
            let expected = analyze_schedule(&graph, full.as_mut(), horizon).totals();
            let got = analyze_schedule_totals(&graph, totals.as_mut(), horizon);
            assert_eq!(got, expected, "{} at horizon {horizon}", full.name());
        }
    }
}

/// The three derivations of a periodic schedule — the progression engine,
/// the sequential reference and a cycle profile built at 1/2/8 threads and
/// folded over the window `[0, horizon)` — produce the same bits, below and
/// above one cycle (every suite schedule is valid, so the profile's
/// whole-cycle verdict matches the horizon's).
#[test]
fn engines_and_profile_agree_bitwise() {
    let graph = Family::ErdosRenyi.generate(40, 4.0, 17);
    for threads in [1usize, 2, 8] {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        for horizon in [1u64, 33, 64, 130, 257] {
            let suite_a = standard_suite(&graph, 29);
            let suite_b = standard_suite(&graph, 29);
            for (mut a, mut b) in suite_a.into_iter().zip(suite_b) {
                let Some(view) = a.residue_schedule() else { continue };
                let profile = pool.install(|| {
                    CycleProfile::build(view, a.first_holiday(), graph.node_count(), &graph)
                });
                let derived = profile.derive_window(a.name(), &graph, 0, horizon);
                let reference = analyze_schedule_reference(&graph, b.as_mut(), horizon);
                let got = analyze_schedule(&graph, a.as_mut(), horizon);
                let ctx =
                    format!("{} at horizon {horizon}, {threads} threads", reference.scheduler);
                assert_bitwise_identical(&got, &reference, &ctx);
                assert_bitwise_identical(&derived, &reference, &format!("{ctx}: profile"));
            }
        }
    }
}

/// Horizons the reference cannot sweep: each periodic suite scheduler's
/// analysis at 2^40 holidays and at `u64::MAX` (where `total_happiness`
/// saturates whenever the schedule hosts more than one parent per holiday
/// on average) equals `CycleProfile::derive`.  Both apply the same
/// per-node formula, the engine to the view's `(slot, modulus)` rows and
/// the profile to each lane's `(first, step)` from its grouping of those
/// rows, so this pins the lane grouping's first offsets and steps against
/// the view rows (and the lane fold's saturating happiness total against
/// the engine's).
#[test]
fn far_horizons_match_the_profile_derive() {
    for family in Family::ALL {
        let graph = family.generate(30, 4.0, 7);
        let mut saturated = 0;
        for mut s in standard_suite(&graph, 5) {
            let Some(view) = s.residue_schedule() else { continue };
            let profile = CycleProfile::build(view, s.first_holiday(), graph.node_count(), &graph);
            for horizon in [1u64 << 40, u64::MAX] {
                let witness = profile.derive(s.name(), &graph, horizon).expect("horizon >= cycle");
                let got = analyze_schedule(&graph, s.as_mut(), horizon);
                let ctx =
                    format!("{} on {} at horizon {horizon}", witness.scheduler, family.name());
                assert_bitwise_identical(&got, &witness, &ctx);
                assert_eq!(analyze_schedule_totals(&graph, s.as_mut(), horizon), witness.totals());
                saturated += usize::from(got.total_happiness == u64::MAX);
            }
        }
        assert!(saturated > 0, "some suite member must saturate on {}", family.name());
    }
}

/// Moduli near 2^63 and `u64::MAX` (saturated cycle, lcms past 2^64, CRT
/// solutions beyond every `u64` horizon) analyse without a panic, and the
/// verdict follows the one pair that shares a holiday early — or, without
/// that edge, stays independent at every horizon.
#[test]
fn extreme_moduli_analyse_without_panicking() {
    let max = u64::MAX;
    let graph = Family::Complete.generate(4, 3.0, 0);
    // Pairs (0, 1) and (0, 3) are never congruent; (0, 2), (1, 2) and
    // (1, 3) are, but first share holiday 5·2^64, 6·2^64 − 1 and
    // 3·2^64 − 1, past every u64 horizon; (2, 3) share holiday 5.
    let view =
        ResidueSchedule::new(vec![0, (1 << 63) - 1, 5, 5], vec![1 << 63, 1 << 63, max, max - 1]);
    assert_eq!(view.cycle(), max, "the lcm saturates");
    let mut sched = ViewScheduler { view, start: 0 };
    for horizon in [0u64, 1, 5, 6, 7] {
        let expected = analyze_schedule_reference(&graph, &mut sched, horizon);
        let got = analyze_schedule(&graph, &mut sched, horizon);
        assert_bitwise_identical(&got, &expected, &format!("horizon {horizon}"));
        assert_eq!(got.all_happy_sets_independent, horizon <= 5, "horizon {horizon}");
    }
    for horizon in [1u64 << 40, 1 << 63, max] {
        let got = analyze_schedule(&graph, &mut sched, horizon);
        assert!(!got.all_happy_sets_independent, "holiday 5 conflicts at horizon {horizon}");
        assert_eq!(analyze_schedule_totals(&graph, &mut sched, horizon), got.totals());
    }
    // Without the (2, 3) edge every congruent pair first meets past
    // `u64::MAX`: even the longest horizon, which reaches the saturated
    // cycle, must stay independent.
    let apart = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]).unwrap();
    for horizon in [0u64, 7, 1 << 40, max - 1, max] {
        let got = analyze_schedule_totals(&apart, &mut sched, horizon);
        assert!(got.all_happy_sets_independent, "horizon {horizon}");
    }
    let expected = analyze_schedule_reference(&apart, &mut sched, 7);
    assert_bitwise_identical(&analyze_schedule(&apart, &mut sched, 7), &expected, "apart");

    let a = analyze_schedule(&graph, &mut sched, max);
    let counts: Vec<u64> = a.per_node.iter().map(|n| n.happy_count).collect();
    assert_eq!(counts, vec![2, 1, 1, 1]);
    assert_eq!(a.per_node[0].observed_period, Some(1 << 63));
    assert_eq!(a.per_node[0].max_unhappiness, (1 << 63) - 1);
    assert_eq!(a.per_node[2].max_unhappiness, max - 6);
    assert_eq!(a.total_happiness, 5);

    // A start far from zero shifts every first offset without overflow.
    let mut late = ViewScheduler { view: sched.view.clone(), start: max - 1 };
    let a = analyze_schedule(&graph, &mut late, max);
    assert_eq!(a.per_node[0].first_happy, Some(2), "holiday 2^64 ≡ 0 (mod 2^63)");
    assert_eq!(a.per_node[2].first_happy, Some(6), "holiday 2^64 + 4 ≡ 5 (mod 2^64 − 1)");
}

/// A view whose cycle is exactly `cycle`: node `p` hosts on `p mod cycle`.
fn view_with_cycle(graph: &Graph, cycle: u64) -> ResidueSchedule {
    let n = graph.node_count() as u64;
    ResidueSchedule::new((0..n).map(|p| p % cycle).collect(), vec![cycle; n as usize])
}

/// Asserts the profile built at `threads` workers derives the reference
/// analysis of `view` at a horizon of two cycles plus one.
fn assert_profile_build_matches(graph: &Graph, view: ResidueSchedule, threads: usize) {
    let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
    let cycle = view.cycle();
    let horizon = 2 * cycle + 1;
    let profile = pool.install(|| CycleProfile::build(&view, 1, graph.node_count(), graph));
    let mut sched = ViewScheduler { view, start: 1 };
    let expected = analyze_schedule_reference(graph, &mut sched, horizon);
    let ctx = format!("cycle {cycle}, {threads} threads");
    let derived = profile.derive("residue-view", graph, horizon).expect("horizon >= cycle");
    assert_bitwise_identical(&derived, &expected, &ctx);
    assert_bitwise_identical(&analyze_schedule(graph, &mut sched, horizon), &expected, &ctx);
}

/// Cycles around multiples of the worker count (`t ± 1`, `3·t ± 1`,
/// `64·t ± 1`): the profile build and the reference sweep must agree on
/// every one, inside a pool of `t` workers, whose width must not change a
/// bit of the build.
#[test]
fn horizons_straddling_shard_boundaries() {
    let graph = Family::ErdosRenyi.generate(30, 3.5, 11);
    for threads in [2usize, 8] {
        let t = threads as u64;
        for cycle in [t - 1, t, t + 1, 3 * t - 1, 3 * t + 1, 64 * t - 1, 64 * t + 1] {
            assert_profile_build_matches(&graph, view_with_cycle(&graph, cycle), threads);
        }
    }
}

/// Pools wider than the cycle must not change the profile build: with
/// cycles of 1, 2 and 5 on an 8-worker pool, the build still derives the
/// reference analysis.
#[test]
fn more_threads_than_holidays() {
    let graph = Family::BarabasiAlbert.generate(25, 3.0, 3);
    for cycle in [1u64, 2, 5] {
        assert_profile_build_matches(&graph, view_with_cycle(&graph, cycle), 8);
    }
}

/// A stateful scheduler with scripted faults.  It must be called on
/// consecutive holidays from 1, and each holiday advances a random state:
/// every node draws from it and hosts with probability 1/3 unless a lower
/// neighbour already hosts, so each set is independent.  It can plant an
/// edge's two endpoints at one offset from the first holiday, host node `n`
/// (one beyond the graph) at another, and panic at a holiday.
struct Stateful {
    graph: Graph,
    state: u64,
    next: u64,
    dependent_at: Option<u64>,
    beyond_at: Option<u64>,
    panic_at: Option<u64>,
}

impl Stateful {
    fn new(graph: &Graph, seed: u64) -> Self {
        Stateful {
            graph: graph.clone(),
            state: seed,
            next: 1,
            dependent_at: None,
            beyond_at: None,
            panic_at: None,
        }
    }
}

/// One SplitMix64 step.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Scheduler for Stateful {
    fn node_count(&self) -> usize {
        self.graph.node_count() + 1
    }
    fn fill_happy_set(&mut self, t: u64, out: &mut HappySet) {
        assert_eq!(t, self.next, "a stateful scheduler runs on consecutive holidays");
        if Some(t) == self.panic_at {
            panic!("scripted panic at holiday {t}");
        }
        self.next += 1;
        self.state = mix(self.state);
        let n = self.graph.node_count();
        out.reset(n + 1);
        for p in 0..n {
            let free = self.graph.neighbors(p).iter().all(|&q| q > p || !out.contains(q));
            if free && mix(self.state ^ p as u64).is_multiple_of(3) {
                out.insert(p);
            }
        }
        let offset = t - 1;
        if Some(offset) == self.dependent_at {
            let edge = self.graph.edges().next().expect("the graph has an edge");
            out.insert(edge.u);
            out.insert(edge.v);
        }
        if Some(offset) == self.beyond_at {
            out.insert(n);
        }
    }
    fn name(&self) -> &'static str {
        "scripted-stateful"
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

/// The pipelined engine at pinned 1-, 2- and 8-thread pools: phased greedy,
/// first come first grab and the scripted stateful scheduler analyse
/// bitwise-identically to the reference on a twin, at horizons on both sides
/// of the 64-holiday block edges, and the totals entry point equals the
/// reduced analysis.
#[test]
fn stateful_pipeline_matches_the_reference_at_every_pool_width() {
    let graph = Family::ErdosRenyi.generate(60, 5.0, 31);
    type Make = fn(&Graph) -> Box<dyn Scheduler>;
    let makers: [Make; 3] = [
        |g| Box::new(PhasedGreedy::new(g)),
        |g| Box::new(FirstComeFirstGrab::new(g, 9)),
        |g| Box::new(Stateful::new(g, 9)),
    ];
    for threads in [1usize, 2, 8] {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        for horizon in [0u64, 1, 63, 64, 65, 128, 129, 1000] {
            for make in makers {
                let expected = analyze_schedule_reference(&graph, make(&graph).as_mut(), horizon);
                let got = pool.install(|| analyze_schedule(&graph, make(&graph).as_mut(), horizon));
                let ctx = format!("{} at horizon {horizon}, {threads} threads", expected.scheduler);
                assert_bitwise_identical(&got, &expected, &ctx);
                assert!(got.all_happy_sets_independent, "{ctx}");
                let totals = pool
                    .install(|| analyze_schedule_totals(&graph, make(&graph).as_mut(), horizon));
                assert_eq!(totals, expected.totals(), "{ctx}: totals");
            }
        }
    }
}

/// The first dependent set planted at offsets 62, 63 and 64 (around the
/// first block edge) and at 130 and 149 (the last, partial block of a
/// 150-holiday horizon), or one member beyond the graph, fails the pipelined
/// analysis as it fails the reference, at every pool width; one holiday
/// earlier the same schedule is independent, and with the plant as its last
/// holiday it is not.
#[test]
fn stateful_pipeline_catches_faults_across_block_edges() {
    let graph = Family::ErdosRenyi.generate(50, 4.0, 3);
    let horizon = 150u64;
    let plants = [
        (Some(62), None),
        (Some(63), None),
        (Some(64), None),
        (Some(130), None),
        (Some(149), None),
        (None, Some(63)),
        (None, Some(64)),
        (None, Some(149)),
    ];
    for threads in [1usize, 2, 8] {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        for (dependent_at, beyond_at) in plants {
            let make = || Stateful { dependent_at, beyond_at, ..Stateful::new(&graph, 17) };
            let at = dependent_at.or(beyond_at).expect("one plant");
            let ctx = format!("plant {dependent_at:?}/{beyond_at:?}, {threads} threads");
            for h in [at, at + 1, horizon] {
                let expected = analyze_schedule_reference(&graph, &mut make(), h);
                assert_eq!(expected.all_happy_sets_independent, h <= at, "{ctx}, horizon {h}");
                let got = pool.install(|| analyze_schedule(&graph, &mut make(), h));
                assert_bitwise_identical(&got, &expected, &format!("{ctx}, horizon {h}"));
            }
        }
    }
}

/// A scheduler that panics while emitting holiday 70 (the second block)
/// panics out of the pipelined analysis at every pool width, and the next
/// analysis on the same pool succeeds.
#[test]
fn stateful_pipeline_panics_reach_the_caller() {
    let graph = Family::ErdosRenyi.generate(40, 4.0, 8);
    let expected = analyze_schedule_reference(&graph, &mut Stateful::new(&graph, 2), 200);
    for threads in [1usize, 2, 8] {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut s = Stateful { panic_at: Some(70), ..Stateful::new(&graph, 2) };
            pool.install(|| analyze_schedule(&graph, &mut s, 200))
        }));
        let payload = failed.expect_err("the emission panic must reach the caller");
        let message = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert_eq!(message, "scripted panic at holiday 70", "{threads} threads");
        let got = pool.install(|| analyze_schedule(&graph, &mut Stateful::new(&graph, 2), 200));
        assert_bitwise_identical(&got, &expected, &format!("after the panic, {threads} threads"));
    }
}
