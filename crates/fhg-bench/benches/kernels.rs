//! Criterion micro-benchmarks for the fused word-kernel subsystem
//! (`fhg_graph::kernels`): the emission-bound fill path, the verification
//! path, and the raw fused-vs-scalar kernel comparison the E13 acceptance
//! criterion is stated on.
//!
//! Three groups:
//!
//! * `kernel-fill-10k` — fill-only: `ResidueSchedule::fill` (multi-row
//!   gather + fused count) over the E11 configuration, plus the raw
//!   `set_rows_count` gather under scalar / portable / dispatched modes on
//!   byte-identical row data.
//! * `kernel-assign-many` — one `HappySet::assign_many` call at the
//!   (words, rows) shapes emission meets: serve-read's small tenants
//!   (1, 2), the 4-word block (4, 4) and the spill past eight rows into a
//!   second pass (157, 12).
//! * `kernel-verify` — verify-only: branchless word probes of each member's
//!   upper neighbours over one cycle of happy sets, through a
//!   `GraphChecker`'s packed copy (4096-node graph) and straight off the
//!   generated graph (10k-node graph).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fhg_bench::{emission_rows, fill_sweep, AnalysisBenchConfig, ModulusRows};
use fhg_core::analysis::{GraphChecker, HolidayChecker};
use fhg_core::prelude::*;
use fhg_graph::kernels::{self, KernelMode};
use fhg_graph::{generators, FixedBitSet, Graph, HappySet};

const HOLIDAYS: u64 = 4096;

/// The exact `AnalysisBenchConfig::full()` conflict graph the E11/E13
/// experiments run on — every 10k-node measurement in this file derives
/// from it, so bench rows and experiment rows drive byte-identical inputs.
fn full_config_graph() -> Graph {
    let cfg = AnalysisBenchConfig::full();
    generators::erdos_renyi(cfg.nodes, cfg.edge_prob, cfg.seed)
}

/// The E11/E13 emission rows at raw-word level: one bit row per (modulus,
/// residue) of the periodic degree-bound schedule on the
/// [`full_config_graph`], rebuilt through the same
/// `fhg_bench::emission_rows` helper `e13` uses.
fn full_config_emission_rows() -> (usize, ModulusRows) {
    let graph = full_config_graph();
    let scheduler = PeriodicDegreeBound::new(&graph);
    let view = scheduler.residue_schedule().expect("perfectly periodic");
    emission_rows(view)
}

fn sweep(rows: &ModulusRows, words: usize, emit: impl FnMut(&mut [u64], &[&[u64]]) -> u64) -> u64 {
    fill_sweep(rows, words, HOLIDAYS, emit)
}

fn bench_fill(c: &mut Criterion) {
    let (words, rows) = full_config_emission_rows();
    let mut group = c.benchmark_group("kernel-fill-10k");
    group.sample_size(10);

    group.bench_function("gather/scalar-reset-or-rescan-4096-fills", |b| {
        b.iter(|| black_box(sweep(&rows, words, kernels::scalar::set_rows_count)))
    });
    group.bench_function("gather/fused-portable-4096-fills", |b| {
        b.iter(|| {
            black_box(sweep(&rows, words, |dst, refs| {
                kernels::set_rows_count_in(KernelMode::Portable, dst, refs)
            }))
        })
    });
    group.bench_function("gather/fused-dispatched-4096-fills", |b| {
        b.iter(|| black_box(sweep(&rows, words, kernels::set_rows_count)))
    });

    let graph = full_config_graph();
    let scheduler = PeriodicDegreeBound::new(&graph);
    let view = scheduler.residue_schedule().expect("perfectly periodic");
    group.bench_function("residue-schedule-fill/end-to-end-4096-fills", |b| {
        let mut buf = HappySet::new(view.node_count());
        b.iter(|| {
            let mut sum = 0u64;
            for t in 0..HOLIDAYS {
                view.fill(t, &mut buf);
                sum += buf.len() as u64;
            }
            black_box(sum)
        })
    });
    group.finish();
}

fn bench_assign_many(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel-assign-many");
    for (words, rows) in [(1usize, 2usize), (4, 4), (157, 12)] {
        let capacity = words * 64;
        let sets: Vec<FixedBitSet> = (0..rows)
            .map(|r| {
                let mut s = FixedBitSet::new(capacity);
                (r..capacity).step_by(rows + 1).for_each(|v| {
                    s.insert(v);
                });
                s
            })
            .collect();
        let mut buf = HappySet::new(capacity);
        group.bench_function(format!("{words}-words-{rows}-rows"), |b| {
            b.iter(|| {
                buf.assign_many(capacity, sets.iter());
                buf.len()
            })
        });
    }
    group.finish();
}

fn bench_verify(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel-verify");
    group.sample_size(10);

    // Through the checker: its packed copy of a 4096-node graph.
    let graph = generators::erdos_renyi(4096, 10.0 / 4095.0, 7);
    let checker = GraphChecker::new(&graph);
    let scheduler = PeriodicDegreeBound::new(&graph);
    let view = scheduler.residue_schedule().expect("perfectly periodic");
    let cycle = view.cycle();
    let sets: Vec<HappySet> = (0..cycle)
        .map(|t| {
            let mut buf = HappySet::new(view.node_count());
            view.fill(t, &mut buf);
            buf
        })
        .collect();
    group.bench_function("graph-checker-upper-probes/one-cycle-4096-nodes", |b| {
        b.iter(|| {
            let ok = sets.iter().enumerate().all(|(t, s)| checker.check(t as u64, s.as_bitset()));
            assert!(ok);
            black_box(ok)
        })
    });

    // Straight off the generated (packed) graph.
    let graph = full_config_graph();
    let scheduler = PeriodicDegreeBound::new(&graph);
    let view = scheduler.residue_schedule().expect("perfectly periodic");
    let sets: Vec<HappySet> = (0..view.cycle())
        .map(|t| {
            let mut buf = HappySet::new(view.node_count());
            view.fill(t, &mut buf);
            buf
        })
        .collect();
    group.bench_function("csr-word-probes/one-cycle-10k-nodes", |b| {
        b.iter(|| {
            let ok = sets.iter().all(|s| graph.is_independent(s.as_bitset()));
            assert!(ok);
            black_box(ok)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fill, bench_assign_many, bench_verify);
criterion_main!(benches);
