//! Criterion benchmarks for the LOCAL-model substrate (experiment E5's
//! engine): Johansson colouring, Luby MIS and the §5.2 phased slot
//! assignment on Erdős–Rényi graphs of mean degree 8, from 1 000 to
//! 100 000 nodes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fhg_distributed::{distributed_slot_assignment, johansson_coloring, luby_mis};
use fhg_graph::generators;

fn bench_distributed(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed");
    group.sample_size(10);
    for &n in &[1_000usize, 8_000, 100_000] {
        let graph = generators::erdos_renyi(n, 8.0 / (n as f64 - 1.0), 5);
        group.bench_with_input(BenchmarkId::new("johansson-coloring", n), &graph, |b, g| {
            b.iter(|| black_box(johansson_coloring(g, 3)))
        });
        group.bench_with_input(BenchmarkId::new("luby-mis", n), &graph, |b, g| {
            b.iter(|| black_box(luby_mis(g, 3, 4096)))
        });
        group.bench_with_input(BenchmarkId::new("slot-assignment-5.2", n), &graph, |b, g| {
            b.iter(|| black_box(distributed_slot_assignment(g, 3)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_distributed);
criterion_main!(benches);
