//! Parity lockdown for the windowed derivation and the serving tier built
//! on it.
//!
//! `CycleProfile::derive_window(t0, t1)` answers an arbitrary `[t0, t1)`
//! window with one closed-form formula per node: each lane's one-cycle
//! progression `first + k·(cycle / happy)`, read from `t0` over the window
//! length.  This suite asserts the result is **bitwise-identical** to a
//! sequential reference sweep restricted to the same window
//! (`analyze_schedule_reference` run on a start-shifted view of the
//! schedule), for every periodic scheduler in the standard suite, across
//! graph families, random seeds, profile builds pinned at 1/2/8 worker
//! threads, and window shapes chosen adversarially: zero-width, sub-cycle,
//! straddling `cycle ± 1`, whole-cycle aligned, multi-cycle, ragged at both
//! ends, and anchored far out (`2^20`, the serving shape, then `2^40` and
//! `2^62`; the start-shifted reference sweeps only the window's length).
//! Mixed-coprime views (moduli `{3, 4, 6}`, cycle 12, and `{8, 27}`, cycle
//! 216) go through `ProfileService::query` and `query_totals`, the serving
//! entry points, and the same views, widened past their graph, pin the
//! happiness of rows with no graph node.
//!
//! Like `tests/analysis_parity.rs`, float fields compare through
//! `to_bits`, and CI runs this suite under the `FHG_THREADS` matrix, so a
//! drift in the fleet build or the edge pass shows up here as a
//! window-parity failure.

use proptest::prelude::*;

use fhg::core::analysis::{analyze_schedule_reference, CycleProfile, ScheduleAnalysis};
use fhg::core::schedulers::residue::ResidueSchedule;
use fhg::core::schedulers::standard_suite;
use fhg::core::serving::{ProfileService, Query};
use fhg::core::Scheduler;
use fhg::graph::generators::Family;
use fhg::graph::{Graph, HappySet, NodeId};
use rayon::ThreadPoolBuilder;

/// A start-shifted view of a periodic schedule: holiday `t` of the window
/// scheduler is holiday `base_start + t0 + t` of the underlying residue
/// view, so a reference sweep of `t1 - t0` holidays over it is exactly the
/// original schedule restricted to the window `[t0, t1)`.
struct WindowView<'a> {
    view: &'a ResidueSchedule,
    start: u64,
}

impl Scheduler for WindowView<'_> {
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
        "window-ref"
    }
    fn is_periodic(&self) -> bool {
        true
    }
    fn period(&self, _p: NodeId) -> Option<u64> {
        None
    }
    fn unhappiness_bound(&self, _p: NodeId) -> Option<u64> {
        None
    }
    fn residue_schedule(&self) -> Option<&ResidueSchedule> {
        Some(self.view)
    }
}

/// Asserts two analyses are bitwise-identical, NaN-aware on float fields.
fn assert_bitwise_identical(windowed: &ScheduleAnalysis, reference: &ScheduleAnalysis, ctx: &str) {
    assert_eq!(windowed.scheduler, reference.scheduler, "{ctx}");
    assert_eq!(windowed.horizon, reference.horizon, "{ctx}");
    assert_eq!(
        windowed.all_happy_sets_independent, reference.all_happy_sets_independent,
        "{ctx}: independence verdict"
    );
    assert_eq!(windowed.never_happy, reference.never_happy, "{ctx}: never_happy");
    assert_eq!(windowed.total_happiness, reference.total_happiness, "{ctx}: total_happiness");
    assert_eq!(
        windowed.mean_happy_set_size.to_bits(),
        reference.mean_happy_set_size.to_bits(),
        "{ctx}: mean_happy_set_size"
    );
    assert_eq!(windowed.per_node.len(), reference.per_node.len(), "{ctx}");
    for (a, b) in windowed.per_node.iter().zip(&reference.per_node) {
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
}

/// The adversarial window shapes for a schedule of cycle `C`: zero-width at
/// several anchors, sub-cycle from 0 and from a ragged phase, straddling
/// `C ± 1`, whole-cycle aligned, multi-cycle, ragged at both ends, a
/// `2^16`-holiday window anchored past `2^20` (the serving read shape), and
/// zero-width, sub-cycle and ragged multi-cycle windows anchored past
/// `2^40` and `2^62`.
fn window_shapes(cycle: u64, k: u64, jitter: u64) -> Vec<(u64, u64)> {
    let c = cycle;
    let a = 1 + jitter % c.max(1); // a ragged anchor in (0, c]
    vec![
        (0, 0),
        (a, a),
        (k * c + a, k * c + a),
        (7, 3), // inverted: the empty window, never a panic
        (0, 1),
        (0, c / 2 + 1),
        (0, c - 1),
        (0, c),
        (0, c + 1),
        (a, a + 1),
        (a, a + c - 1),
        (a, a + c),
        (a, a + c + 1),
        (c - 1, c + 1),
        (c, 2 * c),
        (c, k * c + a),
        (a, k * c),
        (a, k * c + (a + 1) % c),
        (k * c - 1, (k + 2) * c + 1),
        (c / 3, k * c + 2 * c / 3),
        ((1 << 20) + a, (1 << 20) + a + (1 << 16)),
        ((1 << 40) + a, (1 << 40) + a),
        ((1 << 40) + a, (1 << 40) + a + c - 1),
        ((1 << 40) + a, (1 << 40) + k * c + (a + 1) % c),
        ((1 << 62) + a, (1 << 62) + a + 1),
        ((1 << 62) + a, (1 << 62) + a + c + 1),
        ((1 << 62) + a, (1 << 62) + (k + 1) * c + a / 2),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The core property: `derive_window(t0, t1)` (and the totals fast
    /// path) is bitwise-identical to the sequential reference sweep over
    /// the same window, for every periodic suite scheduler, with the
    /// profile built at 1/2/8 worker threads.
    #[test]
    fn derive_window_is_bitwise_identical_to_a_reference_sweep(
        family in prop::sample::select(Family::ALL.to_vec()),
        seed in 0u64..200,
        k in 2u64..5,
        jitter in 0u64..1000,
        threads in prop::sample::select(vec![1usize, 2, 8]),
    ) {
        let graph = family.generate(30, 3.5, seed);
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let suite = standard_suite(&graph, seed ^ 0x7171);
        for prod in suite {
            let Some(cycle) = prod.schedule_cycle() else { continue };
            let view = prod.residue_schedule().expect("cycle implies a residue view");
            let start = prod.first_holiday();
            let profile = pool.install(|| CycleProfile::build(view, start, graph.node_count(), &graph));
            for (t0, t1) in window_shapes(cycle, k, jitter) {
                let horizon = t1.saturating_sub(t0);
                let mut shifted = WindowView { view, start: start + t0 };
                let expected = analyze_schedule_reference(&graph, &mut shifted, horizon);
                let got = profile.derive_window("window-ref", &graph, t0, t1);
                let ctx = format!(
                    "{} on {} (seed {seed}, cycle {cycle}, window [{t0}, {t1}), {threads} threads)",
                    prod.name(),
                    family.name()
                );
                assert_bitwise_identical(&got, &expected, &ctx);
                prop_assert_eq!(
                    profile.derive_window_totals(t0, t1),
                    expected.totals(),
                    "{}: totals fast path",
                    ctx
                );
            }
        }
    }
}

/// The serving tier end to end: registered tenants answer the same window
/// shapes through the batch front, bitwise-equal to the reference sweep —
/// and re-registration plus invalidation/rebuild stay bitwise-stable.
#[test]
fn profile_service_serves_reference_identical_windows() {
    let graph = Family::ErdosRenyi.generate(32, 3.5, 19);
    let mut service = ProfileService::new();
    let suite = standard_suite(&graph, 0x2D2D);
    let mut tenants: Vec<(u64, u64, u64)> = Vec::new(); // (tenant, cycle, start)
    for (i, s) in suite.iter().enumerate() {
        let tenant = i as u64;
        if s.schedule_cycle().is_some() {
            service.register(tenant, &graph, s.as_ref()).unwrap();
            tenants.push((tenant, s.schedule_cycle().unwrap(), s.first_holiday()));
        } else {
            assert!(service.register(tenant, &graph, s.as_ref()).is_err());
        }
    }
    assert!(!tenants.is_empty());
    service.build_pending();

    let queries: Vec<Query> = tenants
        .iter()
        .flat_map(|&(tenant, cycle, _)| {
            window_shapes(cycle, 3, 5).into_iter().map(move |window| Query { tenant, window })
        })
        .collect();
    let batch = service.query_batch(&queries);
    let full = service.query_batch_full(&queries);
    for (q, (t, f)) in queries.iter().zip(batch.iter().zip(&full)) {
        let suite_ref = standard_suite(&graph, 0x2D2D);
        let start = suite_ref[q.tenant as usize].first_holiday();
        let view = suite_ref[q.tenant as usize].residue_schedule().unwrap();
        let mut shifted = WindowView { view, start: start + q.window.0 };
        let horizon = q.window.1.saturating_sub(q.window.0);
        let expected = analyze_schedule_reference(&graph, &mut shifted, horizon);
        let t = t.as_ref().unwrap();
        let f = f.as_ref().unwrap();
        assert_eq!(t.totals, expected.totals(), "tenant {} window {:?}", q.tenant, q.window);
        assert_eq!(f.analysis.totals(), expected.totals());
    }

    // Invalidate + rebuild is bitwise-stable.
    let probe = queries[queries.len() / 2];
    let before = service.query_totals(probe.tenant, probe.window.0, probe.window.1).unwrap();
    assert!(service.invalidate(probe.tenant));
    assert_eq!(service.build_pending(), 1);
    let after = service.query_totals(probe.tenant, probe.window.0, probe.window.1).unwrap();
    assert_eq!(before, after);
}

/// A mixed-coprime view: node `p` takes modulus `moduli[p % moduli.len()]`
/// (so every modulus occurs and the cycle is their lcm) and a slot drawn
/// from `seed`.
fn mixed_view(nodes: usize, moduli: &[u64], seed: u64) -> ResidueSchedule {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let moduli: Vec<u64> = (0..nodes).map(|p| moduli[p % moduli.len()]).collect();
    let slots = moduli
        .iter()
        .map(|&m| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        })
        .collect();
    ResidueSchedule::new(slots, moduli)
}

/// Mixed-coprime views through the serving entry points: every
/// `ProfileService::query` and `query_totals` answer equals the reference
/// sweep over the same window of the start-shifted view — the independence
/// verdict aside, which the service reports for the whole cycle, so it is
/// compared with the reference over one whole cycle.
#[test]
fn mixed_coprime_views_serve_reference_identical_windows() {
    let mut verdicts = std::collections::BTreeSet::new();
    for (moduli, cycle) in [(&[3u64, 4, 6][..], 12u64), (&[8, 27][..], 216)] {
        for seed in 0..4u64 {
            // Seed 0 is edgeless, so one view per moduli set is valid.
            let graph = match seed {
                0 => Graph::new(24),
                _ => Family::ALL[seed as usize % Family::ALL.len()].generate(24, 1.5, seed),
            };
            let view = mixed_view(graph.node_count(), moduli, seed);
            assert_eq!(view.cycle(), cycle);
            let start = 3 + seed;
            let mut service = ProfileService::new();
            service.register(0, &graph, &WindowView { view: &view, start }).unwrap();
            assert_eq!(service.build_pending(), 1);
            let mut whole = WindowView { view: &view, start };
            let verdict =
                analyze_schedule_reference(&graph, &mut whole, cycle).all_happy_sets_independent;
            verdicts.insert(verdict);
            for (t0, t1) in window_shapes(cycle, 3, seed * 37) {
                let mut shifted = WindowView { view: &view, start: start + t0 };
                let mut expected =
                    analyze_schedule_reference(&graph, &mut shifted, t1.saturating_sub(t0));
                expected.all_happy_sets_independent = verdict;
                let ctx = format!("moduli {moduli:?}, seed {seed}, window [{t0}, {t1})");
                assert_eq!(service.query_totals(0, t0, t1).unwrap(), expected.totals(), "{ctx}");
                assert_bitwise_identical(&service.query(0, t0, t1).unwrap(), &expected, &ctx);
            }
        }
    }
    assert_eq!(verdicts.len(), 2, "both verdicts must occur");
}

/// Views wider than their graph: the rows past the graph count into
/// `total_happiness` and into nothing else, on both derivations, exactly as
/// the reference sweep over the same window counts them.  Such a view
/// fails the verdict: the profile reports it for the whole cycle, and the
/// windowed reference agrees on every window that holds a whole cycle.
#[test]
fn wider_views_count_their_extra_rows_into_happiness_only() {
    for (moduli, cycle) in [(&[3u64, 4, 6][..], 12u64), (&[8, 27][..], 216)] {
        for seed in 0..3u64 {
            let graph = match seed {
                0 => Graph::new(20),
                _ => Family::ALL[seed as usize % Family::ALL.len()].generate(20, 1.5, seed),
            };
            let view = mixed_view(graph.node_count() + 2 + seed as usize, moduli, seed);
            assert_eq!(view.cycle(), cycle);
            let start = 5 + seed;
            let profile = CycleProfile::build(&view, start, graph.node_count(), &graph);
            assert!(!profile.all_classes_independent(), "rows past the graph fail the verdict");
            for (t0, t1) in window_shapes(cycle, 3, seed * 41) {
                let horizon = t1.saturating_sub(t0);
                let mut shifted = WindowView { view: &view, start: start + t0 };
                let mut expected = analyze_schedule_reference(&graph, &mut shifted, horizon);
                let ctx = format!("moduli {moduli:?}, seed {seed}, window [{t0}, {t1})");
                if horizon >= cycle {
                    assert!(!expected.all_happy_sets_independent, "{ctx}: reference verdict");
                }
                expected.all_happy_sets_independent = false;
                let got = profile.derive_window("window-ref", &graph, t0, t1);
                assert_bitwise_identical(&got, &expected, &ctx);
                assert_eq!(profile.derive_window_totals(t0, t1), expected.totals(), "{ctx}");
            }
        }
    }
}
