//! Criterion benchmark for the serving tier's `CycleProfile`: profile
//! construction (one congruence test per edge plus the `O(n)` lane
//! grouping, on the calling thread) and horizon-free derivation (full, and
//! the totals-only fast path), next to
//! the one-shot end-to-end analysis (the progression engine, which builds
//! no profile) at the E11 configuration and at a 1M-holiday horizon.
//!
//! Configuration matches the `analysis` bench and the acceptance criteria:
//! `erdos_renyi(10_000, 0.001)`, `PeriodicDegreeBound` (cycle 32), horizons
//! 4096 and 2^20.  The headline number: the 1M-holiday analysis must land
//! within 2x of the 4096-holiday one — neither the profile's `derive` nor
//! the progression engine does work that grows with the horizon.
//!
//! A second group times the churn read shape: one `derive_window_totals`
//! over a ragged window far out, on the profile of a `DynamicColorBound`
//! schedule of `erdos_renyi` with 2048 nodes and mean degree 8 — one
//! formula per distinct progression of the schedule, whatever the window.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fhg_core::analysis::{analyze_schedule, AnalysisEngine, CycleProfile};
use fhg_core::dynamic::DynamicColorBound;
use fhg_core::prelude::*;
use fhg_graph::generators;

fn bench_cycle_profile(c: &mut Criterion) {
    let graph = generators::erdos_renyi(10_000, 0.001, 42);
    const HORIZON: u64 = 4096;
    const LONG_HORIZON: u64 = 1 << 20;

    let mut group = c.benchmark_group("cycle-profile-10k");
    group.sample_size(10);

    group.bench_function("profile-build/1-thread", |b| {
        let s = PeriodicDegreeBound::new(&graph);
        let view = s.residue_schedule().expect("perfectly periodic");
        b.iter(|| {
            let profile = CycleProfile::build(view, s.first_holiday(), graph.node_count(), &graph);
            assert!(profile.all_classes_independent());
            black_box(profile)
        })
    });

    group.bench_function("derive-1M-from-prebuilt-profile", |b| {
        let s = PeriodicDegreeBound::new(&graph);
        let view = s.residue_schedule().expect("perfectly periodic");
        let profile = CycleProfile::build(view, s.first_holiday(), graph.node_count(), &graph);
        b.iter(|| {
            let analysis = profile.derive(s.name(), &graph, LONG_HORIZON).unwrap();
            assert!(analysis.all_happy_sets_independent);
            black_box(analysis)
        })
    });

    group.bench_function("derive-1M-totals-only", |b| {
        let s = PeriodicDegreeBound::new(&graph);
        let view = s.residue_schedule().expect("perfectly periodic");
        let profile = CycleProfile::build(view, s.first_holiday(), graph.node_count(), &graph);
        b.iter(|| {
            let totals = profile.derive_totals(LONG_HORIZON).unwrap();
            assert!(totals.all_happy_sets_independent);
            black_box(totals)
        })
    });

    for (name, horizon) in [("closed-form-4096", HORIZON), ("closed-form-1M", LONG_HORIZON)] {
        group.bench_function(name, |b| {
            let mut s = PeriodicDegreeBound::new(&graph);
            assert_eq!(AnalysisEngine::select(&s, horizon), AnalysisEngine::ClosedForm);
            b.iter(|| {
                let analysis = analyze_schedule(&graph, &mut s, horizon);
                assert!(analysis.all_happy_sets_independent);
                black_box(analysis)
            })
        });
    }

    group.finish();

    let graph = generators::erdos_renyi(2048, 8.0 / 2047.0, 42);
    let dynamic = DynamicColorBound::new(&graph);
    let view = dynamic.residue_schedule().expect("perfectly periodic between events");
    let profile = CycleProfile::build(view, dynamic.first_holiday(), graph.node_count(), &graph);
    let mut group = c.benchmark_group("cycle-profile-dynamic-2048");
    group.bench_function("window-totals-ragged", |b| {
        let t0 = (1 << 20) + 12_345;
        b.iter(|| {
            let totals = profile.derive_window_totals(black_box(t0), black_box(t0 + 40_961));
            assert!(totals.all_happy_sets_independent);
            black_box(totals)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cycle_profile);
criterion_main!(benches);
