//! Criterion benchmark for the `analyze_schedule` pipeline: the sequential
//! per-holiday-verified reference (the PR 1 engine, ~100 ms on this
//! configuration) against the production path, which runs a periodic
//! scheduler on the progression engine (one formula per node, one
//! congruence test per edge, no happy set emitted; see `benches/profile.rs`
//! for the serving tier's cycle-profile breakdown).
//!
//! Configuration matches the `happy-set-engine` bench and the acceptance
//! criteria: `erdos_renyi(10_000, 0.001)`, 4096 holidays,
//! `PeriodicDegreeBound` — checker-bound under the reference engine, since a
//! perfectly periodic schedule has only `2^maxexp` distinct happy sets yet
//! the reference probes independence on all 4096.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fhg_core::analysis::{analyze_schedule, analyze_schedule_reference, AnalysisEngine};
use fhg_core::prelude::*;
use fhg_graph::generators;

fn bench_analysis_engine(c: &mut Criterion) {
    let graph = generators::erdos_renyi(10_000, 0.001, 42);
    const HORIZON: u64 = 4096;
    let mut group = c.benchmark_group("analysis-engine-10k-4096");
    group.sample_size(10);

    group.bench_function("reference-per-holiday-verify", |b| {
        let mut s = PeriodicDegreeBound::new(&graph);
        b.iter(|| {
            let analysis = analyze_schedule_reference(&graph, &mut s, HORIZON);
            assert!(analysis.all_happy_sets_independent);
            black_box(analysis)
        })
    });

    group.bench_function("production-auto-select", |b| {
        let mut s = PeriodicDegreeBound::new(&graph);
        assert_eq!(AnalysisEngine::select(&s, HORIZON), AnalysisEngine::ClosedForm);
        b.iter(|| {
            let analysis = analyze_schedule(&graph, &mut s, HORIZON);
            assert!(analysis.all_happy_sets_independent);
            black_box(analysis)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_analysis_engine);
criterion_main!(benches);
