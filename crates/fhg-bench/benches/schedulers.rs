//! Criterion benchmarks for the schedulers: construction cost and per-holiday
//! cost of every algorithm in the paper, plus the full-analysis pipeline used
//! by experiments E1/E4/E6.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fhg_core::analysis::analyze_schedule;
use fhg_core::prelude::*;
use fhg_graph::generators;
use fhg_graph::{Graph, HappySet};

fn test_graph(n: usize) -> Graph {
    generators::erdos_renyi(n, 8.0 / (n as f64 - 1.0), 42)
}

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler-construction");
    for &n in &[1_000usize, 10_000] {
        let graph = test_graph(n);
        group.bench_with_input(BenchmarkId::new("phased-greedy", n), &graph, |b, g| {
            b.iter(|| black_box(PhasedGreedy::new(g)))
        });
        group.bench_with_input(BenchmarkId::new("prefix-code-omega", n), &graph, |b, g| {
            b.iter(|| black_box(PrefixCodeScheduler::omega(g)))
        });
        group.bench_with_input(BenchmarkId::new("periodic-degree-bound", n), &graph, |b, g| {
            b.iter(|| black_box(PeriodicDegreeBound::new(g)))
        });
        group.bench_with_input(BenchmarkId::new("distributed-degree-bound", n), &graph, |b, g| {
            b.iter(|| black_box(DistributedDegreeBound::new(g, 7)))
        });
    }
    group.finish();
}

fn bench_per_holiday(c: &mut Criterion) {
    let graph = test_graph(10_000);
    let mut group = c.benchmark_group("per-holiday");
    let mut buf = HappySet::new(graph.node_count());
    let mut emit = |name: &str, s: &mut dyn Scheduler| {
        let mut t = s.first_holiday();
        group.bench_function(name, |b| {
            b.iter(|| {
                s.fill_happy_set(t, &mut buf);
                t += 1;
                black_box(buf.len())
            })
        });
    };
    emit("phased-greedy", &mut PhasedGreedy::new(&graph));
    emit("prefix-code-omega", &mut PrefixCodeScheduler::omega(&graph));
    emit("periodic-degree-bound", &mut PeriodicDegreeBound::new(&graph));
    emit("first-come-first-grab", &mut FirstComeFirstGrab::new(&graph, 3));
    group.finish();
}

fn bench_full_analysis(c: &mut Criterion) {
    let graph = test_graph(2_000);
    let mut group = c.benchmark_group("analysis-pipeline");
    group.sample_size(10);
    group.bench_function("periodic-degree-bound-512-holidays", |b| {
        b.iter(|| {
            let mut s = PeriodicDegreeBound::new(&graph);
            black_box(analyze_schedule(&graph, &mut s, 512))
        })
    });
    group.bench_function("phased-greedy-512-holidays", |b| {
        b.iter(|| {
            let mut s = PhasedGreedy::new(&graph);
            black_box(analyze_schedule(&graph, &mut s, 512))
        })
    });
    group.finish();
}

/// The engine behind the `HappySet` refactor: drive the §5 periodic
/// degree-bound scheduler over a 4096-holiday horizon on an
/// `erdos_renyi(10_000, 0.001)` conflict graph through `fill_happy_set`,
/// which reuses one `HappySet` with zero allocations per holiday after
/// warm-up.  `emit/fill` times the emission alone; `verified/fill` also
/// checks every holiday's independence the way `analyze_schedule` does,
/// with branchless word probes of the graph's rows on the reused buffer.
fn bench_happy_set_engine(c: &mut Criterion) {
    let graph = generators::erdos_renyi(10_000, 0.001, 42);
    const HORIZON: u64 = 4096;
    let mut group = c.benchmark_group("happy-set-engine-10k-4096");
    group.sample_size(10);
    group.bench_function("emit/fill", |b| {
        let mut s = PeriodicDegreeBound::new(&graph);
        let mut buf = HappySet::new(graph.node_count());
        b.iter(|| {
            let mut total = 0usize;
            for t in 0..HORIZON {
                s.fill_happy_set(t, &mut buf);
                total += black_box(&buf).len();
            }
            total
        })
    });
    group.bench_function("verified/fill", |b| {
        let mut s = PeriodicDegreeBound::new(&graph);
        let mut buf = HappySet::new(graph.node_count());
        b.iter(|| {
            let mut independent = true;
            for t in 0..HORIZON {
                s.fill_happy_set(t, &mut buf);
                independent &= graph.is_independent(buf.as_bitset());
                black_box(&buf);
            }
            assert!(independent);
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_construction,
    bench_per_holiday,
    bench_full_analysis,
    bench_happy_set_engine
);
criterion_main!(benches);
