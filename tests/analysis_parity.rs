//! Parity lockdown for the production analysis engines.
//!
//! `analyze_schedule` picks an engine per call (`AnalysisEngine::select`):
//! the **closed-form cycle profile** whenever a scheduler exposes a
//! `ResidueSchedule` view and the horizon spans at least one cycle, the
//! **sharded, residue-cached sweep** for shorter periodic horizons, and the
//! sequential path for stateful schedulers.  This suite asserts that, for
//! every scheduler in the standard suite, every graph family, random seeds,
//! thread counts 1/2/8 and horizons that are deliberately *not* multiples of
//! the shard size or the cycle (the ragged `horizon % cycle != 0` tails the
//! closed form replays explicitly), every production engine returns a
//! `ScheduleAnalysis` bitwise-identical to the sequential, uncached
//! reference (`analyze_schedule_reference`) — per-node gaps, streaks,
//! periods, `jain_fairness` and `bound_violations` included.
//!
//! Float fields are compared through `to_bits`, so `NaN` mean gaps (fewer
//! than two happy holidays) compare equal exactly when both paths produce
//! them.
//!
//! Every emission and verification loop under test runs on the fused word
//! kernels (`fhg_graph::kernels`), whose implementation is selected once per
//! process (`FHG_KERNEL=portable|wide|wide512`, defaulting to the widest
//! supported path — AVX-512 where detected, else AVX2).  CI runs this whole
//! suite under `FHG_KERNEL=portable` and, where the runner supports it,
//! `FHG_KERNEL=wide512`, in addition to the default dispatch — alongside
//! the `FHG_THREADS=1/8` matrix — so a divergence between any two kernel
//! arms shows up as a parity failure here even if the kernel-level property
//! tests were ever weakened.  Batched verification rides the same runs: the
//! closed-form build and the sharded sweep verify through
//! `HolidayChecker::check_batch`, the reference engine stays per-class, so
//! every parity case is also a batch-vs-per-class equivalence check.

use proptest::prelude::*;

use fhg::core::analysis::{
    analyze_schedule, analyze_schedule_reference, analyze_schedule_totals,
    analyze_schedule_with_engine, AnalysisEngine, CycleProfile, GraphChecker, ScheduleAnalysis,
};
use fhg::core::schedulers::standard_suite;
use fhg::graph::generators::Family;
use rayon::ThreadPoolBuilder;

/// Asserts two analyses are bitwise-identical, NaN-aware on float fields.
fn assert_bitwise_identical(sharded: &ScheduleAnalysis, reference: &ScheduleAnalysis, ctx: &str) {
    assert_eq!(sharded.scheduler, reference.scheduler, "{ctx}");
    assert_eq!(sharded.horizon, reference.horizon, "{ctx}");
    assert_eq!(
        sharded.all_happy_sets_independent, reference.all_happy_sets_independent,
        "{ctx}: independence verdict"
    );
    assert_eq!(sharded.never_happy, reference.never_happy, "{ctx}: never_happy");
    assert_eq!(sharded.total_happiness, reference.total_happiness, "{ctx}: total_happiness");
    assert_eq!(
        sharded.mean_happy_set_size.to_bits(),
        reference.mean_happy_set_size.to_bits(),
        "{ctx}: mean_happy_set_size"
    );
    assert_eq!(sharded.per_node.len(), reference.per_node.len(), "{ctx}");
    for (a, b) in sharded.per_node.iter().zip(&reference.per_node) {
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
        sharded.jain_fairness().to_bits(),
        reference.jain_fairness().to_bits(),
        "{ctx}: jain_fairness"
    );
    assert_eq!(sharded.max_unhappiness(), reference.max_unhappiness(), "{ctx}");
    assert_eq!(sharded.all_periodic(), reference.all_periodic(), "{ctx}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The core property: production engine == reference, for every suite
    /// scheduler, across graph families, seeds, thread counts and horizons
    /// (including 0, 1, and values coprime to every shard split).
    #[test]
    fn sharded_cached_analysis_is_bitwise_identical_to_reference(
        family in prop::sample::select(Family::ALL.to_vec()),
        seed in 0u64..300,
        horizon in 0u64..230,
        threads in prop::sample::select(vec![1usize, 2, 8]),
    ) {
        let graph = family.generate(36, 4.0, seed);
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        // Twin scheduler instances from identical inputs, so stateful
        // schedulers advance twin internal states down both paths.
        let suite_prod = standard_suite(&graph, seed ^ 0xA5A5);
        let suite_ref = standard_suite(&graph, seed ^ 0xA5A5);
        for (mut prod, mut reference) in suite_prod.into_iter().zip(suite_ref) {
            let expected = analyze_schedule_reference(&graph, reference.as_mut(), horizon);
            let got = pool.install(|| analyze_schedule(&graph, prod.as_mut(), horizon));
            let ctx = format!(
                "{} on {} (seed {seed}, horizon {horizon}, {threads} threads)",
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

    /// Ragged-horizon lockdown for the closed-form engine: for every
    /// periodic scheduler in the suite, horizons straddling cycle multiples
    /// (`cycle - 1`, `cycle`, `cycle + 1`, `k·cycle ± 1`) are
    /// bitwise-identical to the reference at 1/2/8 threads — the `± 1`
    /// horizons exercise the analytic fold plus the explicit partial-cycle
    /// tail, and `cycle - 1` exercises the fallback to the sharded sweep.
    #[test]
    fn closed_form_matches_reference_on_ragged_horizons(
        family in prop::sample::select(Family::ALL.to_vec()),
        seed in 0u64..200,
        k in 2u64..5,
        threads in prop::sample::select(vec![1usize, 2, 8]),
    ) {
        let graph = family.generate(32, 3.5, seed);
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let suite_prod = standard_suite(&graph, seed ^ 0x5A5A);
        let suite_ref = standard_suite(&graph, seed ^ 0x5A5A);
        for (mut prod, mut reference) in suite_prod.into_iter().zip(suite_ref) {
            let Some(cycle) = prod.schedule_cycle() else { continue };
            // Stateful schedulers would need twin states per horizon; the
            // ragged-tail property only concerns periodic (pure-in-t) ones.
            let horizons =
                [cycle - 1, cycle, cycle + 1, k * cycle - 1, k * cycle, k * cycle + 1];
            for horizon in horizons {
                let expected_engine = if horizon >= cycle {
                    AnalysisEngine::ClosedForm
                } else {
                    AnalysisEngine::ShardedSweep
                };
                prop_assert_eq!(
                    AnalysisEngine::select(prod.as_ref(), horizon),
                    expected_engine,
                    "{} cycle {} horizon {}",
                    prod.name(),
                    cycle,
                    horizon
                );
                let expected = analyze_schedule_reference(&graph, reference.as_mut(), horizon);
                let got = pool.install(|| analyze_schedule(&graph, prod.as_mut(), horizon));
                let ctx = format!(
                    "{} on {} (seed {seed}, cycle {cycle}, horizon {horizon}, {threads} threads)",
                    expected.scheduler,
                    family.name()
                );
                assert_bitwise_identical(&got, &expected, &ctx);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Lockdown for the closed-form derivation: for every periodic
    /// scheduler in the suite, the **parallel profile build** (classes
    /// sharded across 1/2/8 worker threads), the **whole-cycle derive**
    /// (`horizon = k·cycle`, replicated cycles only), the **ragged derive**
    /// (`k·cycle ± 1`, replicated cycles merged with a replayed tail) and
    /// the **totals-only fast path** all agree bitwise with the sequential
    /// reference sweep.
    #[test]
    fn soa_derivation_planes_match_the_reference(
        family in prop::sample::select(Family::ALL.to_vec()),
        seed in 0u64..200,
        k in 2u64..5,
        threads in prop::sample::select(vec![1usize, 2, 8]),
    ) {
        let graph = family.generate(30, 3.5, seed);
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let checker = GraphChecker::new(&graph);
        let suite_prod = standard_suite(&graph, seed ^ 0x3C3C);
        let suite_ref = standard_suite(&graph, seed ^ 0x3C3C);
        for (prod, mut reference) in suite_prod.into_iter().zip(suite_ref) {
            let Some(cycle) = prod.schedule_cycle() else { continue };
            let view = prod.residue_schedule().expect("cycle implies a residue view");
            // Build inside the pinned pool: the class walk shards across
            // exactly `threads` workers.
            let profile = pool.install(|| {
                CycleProfile::build(view, prod.first_holiday(), graph.node_count(), &checker)
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

/// The totals entry point dispatches per engine but must always equal the
/// reduced full analysis — closed form (fused fold), sharded sweep
/// (sub-cycle horizon) and sequential (stateful scheduler) alike.
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

/// Every engine, forced explicitly, produces the same bits — the guarantee
/// experiment `e12` relies on when it times the sharded sweep against the
/// closed form on the same scheduler.
#[test]
fn forced_engines_agree_bitwise() {
    let graph = Family::ErdosRenyi.generate(40, 4.0, 17);
    let checker = GraphChecker::new(&graph);
    for threads in [1usize, 2, 8] {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        for horizon in [33u64, 64, 130, 257] {
            let suite_a = standard_suite(&graph, 29);
            let suite_b = standard_suite(&graph, 29);
            for (mut a, mut b) in suite_a.into_iter().zip(suite_b) {
                if a.residue_schedule().is_none() {
                    continue;
                }
                let reference = analyze_schedule_reference(&graph, b.as_mut(), horizon);
                for engine in [AnalysisEngine::ClosedForm, AnalysisEngine::ShardedSweep] {
                    let got = pool.install(|| {
                        analyze_schedule_with_engine(&graph, a.as_mut(), horizon, &checker, engine)
                    });
                    let ctx = format!(
                        "{} forced {engine:?} at horizon {horizon}, {threads} threads",
                        reference.scheduler
                    );
                    assert_bitwise_identical(&got, &reference, &ctx);
                }
            }
        }
    }
}

/// Horizons around shard-count multiples: an off-by-one in the shard split or
/// the boundary merge shows up exactly here.
#[test]
fn horizons_straddling_shard_boundaries() {
    let graph = Family::ErdosRenyi.generate(30, 3.5, 11);
    for threads in [2usize, 8] {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let t = threads as u64;
        for horizon in [t - 1, t, t + 1, 3 * t - 1, 3 * t + 1, 64 * t - 1, 64 * t + 1] {
            let suite_prod = standard_suite(&graph, 23);
            let suite_ref = standard_suite(&graph, 23);
            for (mut prod, mut reference) in suite_prod.into_iter().zip(suite_ref) {
                let expected = analyze_schedule_reference(&graph, reference.as_mut(), horizon);
                let got = pool.install(|| analyze_schedule(&graph, prod.as_mut(), horizon));
                let ctx = format!("{} at horizon {horizon}, {threads} threads", expected.scheduler);
                assert_bitwise_identical(&got, &expected, &ctx);
            }
        }
    }
}

/// Thread counts exceeding the horizon must not create empty shards or skew
/// the merge.
#[test]
fn more_threads_than_holidays() {
    let graph = Family::BarabasiAlbert.generate(25, 3.0, 3);
    let pool = ThreadPoolBuilder::new().num_threads(8).build().unwrap();
    for horizon in [1u64, 2, 5] {
        let suite_prod = standard_suite(&graph, 9);
        let suite_ref = standard_suite(&graph, 9);
        for (mut prod, mut reference) in suite_prod.into_iter().zip(suite_ref) {
            let expected = analyze_schedule_reference(&graph, reference.as_mut(), horizon);
            let got = pool.install(|| analyze_schedule(&graph, prod.as_mut(), horizon));
            let ctx = format!("{} at horizon {horizon}, 8 threads", expected.scheduler);
            assert_bitwise_identical(&got, &expected, &ctx);
        }
    }
}
