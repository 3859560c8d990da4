//! Criterion benchmarks for the graph substrate: generators, the packed
//! clone and the structural properties the schedulers lean on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fhg_graph::generators;
use fhg_graph::properties;

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    group.sample_size(20);
    for &n in &[10_000usize, 100_000] {
        group.bench_with_input(BenchmarkId::new("erdos-renyi-deg8", n), &n, |b, &n| {
            b.iter(|| black_box(generators::erdos_renyi(n, 8.0 / (n as f64 - 1.0), 1)))
        });
        group.bench_with_input(BenchmarkId::new("unit-disk-deg8", n), &n, |b, &n| {
            let r = (8.0 / ((n as f64 - 1.0) * std::f64::consts::PI)).sqrt();
            b.iter(|| black_box(generators::random_geometric(n, r, 1)))
        });
        group.bench_with_input(BenchmarkId::new("barabasi-albert-m4", n), &n, |b, &n| {
            b.iter(|| black_box(generators::barabasi_albert(n, 4, 1)))
        });
    }
    group.finish();
}

fn bench_properties(c: &mut Criterion) {
    let graph = generators::erdos_renyi(50_000, 10.0 / 49_999.0, 2);
    let mut group = c.benchmark_group("properties");
    group.sample_size(20);
    group.bench_function("packed-clone-50k", |b| b.iter(|| black_box(graph.clone())));
    group.bench_function("connected-components-50k", |b| {
        b.iter(|| black_box(properties::connected_components(&graph)))
    });
    group.bench_function("degeneracy-ordering-50k", |b| {
        b.iter(|| black_box(properties::degeneracy_ordering(&graph)))
    });
    group.bench_function("triangle-count-50k", |b| {
        b.iter(|| black_box(properties::triangle_count(&graph)))
    });
    group.finish();
}

criterion_group!(benches, bench_generators, bench_properties);
criterion_main!(benches);
