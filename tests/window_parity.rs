//! Parity lockdown for the windowed derivation (the lane fold) and the
//! serving tier built on it.
//!
//! `CycleProfile::derive_window(t0, t1)` folds an arbitrary `[t0, t1)`
//! window node by node — a ragged head of the phase cycle, phase-shifted
//! whole cycles replicated analytically, and a ragged tail, merged through
//! the exact segment-merge rule.  This suite asserts the result is
//! **bitwise-identical** to a sequential reference sweep restricted to the
//! same window (`analyze_schedule_reference` run on a start-shifted view of
//! the schedule), for every periodic scheduler in the standard suite,
//! across graph families, random seeds, profile builds pinned at 1/2/8
//! worker threads, and window shapes chosen adversarially: zero-width,
//! sub-cycle, straddling `cycle ± 1`, whole-cycle aligned, multi-cycle,
//! ragged at both ends, and anchored far out (`2^20`, the serving shape).
//!
//! Like `tests/analysis_parity.rs`, float fields compare through
//! `to_bits`, and CI runs this suite under the `FHG_THREADS` ×
//! `FHG_KERNEL` matrix, so a drift in the build sharding or the batched
//! verification kernels shows up here as a window-parity failure.

use proptest::prelude::*;

use fhg::core::analysis::{
    analyze_schedule_reference, CycleProfile, GraphChecker, ScheduleAnalysis,
};
use fhg::core::schedulers::residue::ResidueSchedule;
use fhg::core::schedulers::standard_suite;
use fhg::core::serving::{ProfileService, Query};
use fhg::core::Scheduler;
use fhg::graph::generators::Family;
use fhg::graph::{HappySet, NodeId};
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
/// `C ± 1`, whole-cycle aligned, multi-cycle, ragged at both ends, and a
/// `2^16`-holiday window anchored past `2^20` (the serving read shape).
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
        let checker = GraphChecker::new(&graph);
        let suite = standard_suite(&graph, seed ^ 0x7171);
        for prod in suite {
            let Some(cycle) = prod.schedule_cycle() else { continue };
            let view = prod.residue_schedule().expect("cycle implies a residue view");
            let start = prod.first_holiday();
            let profile = pool.install(|| {
                CycleProfile::build(view, start, graph.node_count(), &checker)
            });
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
