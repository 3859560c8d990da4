//! Criterion benchmark for the closed-form `CycleProfile` engine: profile
//! construction (single-threaded and on the sharded parallel build),
//! horizon-free derivation (full, and the totals-only fast path), and the
//! end-to-end closed-form analysis at the E11 configuration and at a
//! 1M-holiday horizon, against the forced PR 2 sharded sweep.
//!
//! Configuration matches the `analysis` bench and the acceptance criteria:
//! `erdos_renyi(10_000, 0.001)`, `PeriodicDegreeBound` (cycle 32), horizons
//! 4096 and 2^20.  The headline numbers: the closed form must be at least 3x
//! faster than the sweep at 4096 holidays, and the 1M-holiday analysis must
//! land within 2x of the 4096-holiday one — the profile emits `cycle` happy
//! sets regardless of the horizon, so `derive` is the only part that sees
//! the horizon, and it is `O(n)`.
//!
//! Every engine-driven row forces its engine explicitly through
//! `analyze_schedule_with_engine`, and every `CycleProfile::build` row pins
//! its thread pool — auto-selection (and, since PR 5, the ambient-pool
//! parallel build) must never silently shift what a named row measures
//! (the PR 3 review caught exactly such a shift in the analysis bench).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fhg_core::analysis::{
    analyze_schedule_with_engine, AnalysisEngine, CycleProfile, GraphChecker,
};
use fhg_core::prelude::*;
use fhg_graph::generators;
use rayon::ThreadPoolBuilder;

fn bench_cycle_profile(c: &mut Criterion) {
    let graph = generators::erdos_renyi(10_000, 0.001, 42);
    const HORIZON: u64 = 4096;
    const LONG_HORIZON: u64 = 1 << 20;
    let checker = GraphChecker::new(&graph);
    let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();

    let mut group = c.benchmark_group("cycle-profile-10k");
    group.sample_size(10);

    group.bench_function("profile-build/1-thread", |b| {
        let s = PeriodicDegreeBound::new(&graph);
        let view = s.residue_schedule().expect("perfectly periodic");
        b.iter(|| {
            let profile = pool.install(|| {
                CycleProfile::build(view, s.first_holiday(), graph.node_count(), &checker)
            });
            assert!(profile.all_classes_independent());
            black_box(profile)
        })
    });

    group.bench_function("profile-build/8-threads", |b| {
        let s = PeriodicDegreeBound::new(&graph);
        let view = s.residue_schedule().expect("perfectly periodic");
        let wide_pool = ThreadPoolBuilder::new().num_threads(8).build().unwrap();
        b.iter(|| {
            let profile = wide_pool.install(|| {
                CycleProfile::build(view, s.first_holiday(), graph.node_count(), &checker)
            });
            assert!(profile.all_classes_independent());
            black_box(profile)
        })
    });

    group.bench_function("derive-1M-from-prebuilt-profile", |b| {
        let s = PeriodicDegreeBound::new(&graph);
        let view = s.residue_schedule().expect("perfectly periodic");
        let profile = pool
            .install(|| CycleProfile::build(view, s.first_holiday(), graph.node_count(), &checker));
        b.iter(|| {
            let analysis = profile.derive(s.name(), &graph, LONG_HORIZON).unwrap();
            assert!(analysis.all_happy_sets_independent);
            black_box(analysis)
        })
    });

    group.bench_function("derive-1M-totals-only", |b| {
        let s = PeriodicDegreeBound::new(&graph);
        let view = s.residue_schedule().expect("perfectly periodic");
        let profile = pool
            .install(|| CycleProfile::build(view, s.first_holiday(), graph.node_count(), &checker));
        b.iter(|| {
            let totals = profile.derive_totals(LONG_HORIZON).unwrap();
            assert!(totals.all_happy_sets_independent);
            black_box(totals)
        })
    });

    group.bench_function("sweep-4096/forced-1-thread", |b| {
        let mut s = PeriodicDegreeBound::new(&graph);
        b.iter(|| {
            let analysis = pool.install(|| {
                analyze_schedule_with_engine(
                    &graph,
                    &mut s,
                    HORIZON,
                    &checker,
                    AnalysisEngine::ShardedSweep,
                )
            });
            assert!(analysis.all_happy_sets_independent);
            black_box(analysis)
        })
    });

    group.bench_function("closed-form-4096", |b| {
        let mut s = PeriodicDegreeBound::new(&graph);
        b.iter(|| {
            let analysis = pool.install(|| {
                analyze_schedule_with_engine(
                    &graph,
                    &mut s,
                    HORIZON,
                    &checker,
                    AnalysisEngine::ClosedForm,
                )
            });
            assert!(analysis.all_happy_sets_independent);
            black_box(analysis)
        })
    });

    group.bench_function("closed-form-1M", |b| {
        let mut s = PeriodicDegreeBound::new(&graph);
        b.iter(|| {
            let analysis = pool.install(|| {
                analyze_schedule_with_engine(
                    &graph,
                    &mut s,
                    LONG_HORIZON,
                    &checker,
                    AnalysisEngine::ClosedForm,
                )
            });
            assert!(analysis.all_happy_sets_independent);
            black_box(analysis)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_cycle_profile);
criterion_main!(benches);
