//! Proves the engine contract: after warm-up, `fill_happy_set` performs zero
//! heap allocations per holiday, for every scheduler in the standard suite —
//! the same holds for the fused kernel emission+verification paths
//! (`ResidueSchedule::fill` + `GraphChecker`, whose dispatch decision is
//! cached in a `OnceLock`, never re-detected per call), on every worker
//! thread of the sharded analysis path, whose per-shard scratch (happy-set
//! buffer + accumulators) is allocated once per shard, never per holiday,
//! and for the incremental repair plane, where steady-state edge events
//! through `ProfileService::patch` reuse the service-owned scratch.
//!
//! A counting global allocator records every allocation; the test warms each
//! scheduler's buffer (and any internal scratch) for a few holidays, then
//! asserts the allocation counter does not move across a long horizon.  For
//! the sharded path the per-holiday claim is proved by horizon-independence:
//! two `analyze_schedule` runs at the same thread count but very different
//! horizons must allocate exactly the same number of times (threads, shard
//! scratch and channel messages depend only on the thread count).  The
//! `happy_set` Vec shim is also pinned: at most one allocation per call (the
//! returned `Vec`), since the intermediate `HappySet` is thread-local
//! scratch.
//!
//! The counter is global, so it also sees foreign one-shot initialisations
//! from other live threads — concretely, the libtest harness main thread
//! lazily creates its mpsc receive context (two allocations) at a
//! scheduling-dependent moment while it waits for this test, and a pool
//! worker that sat out every warm-up run sizes its per-thread scratch (the
//! batched checker's membership table) the first time it takes a job.
//! Which worker takes a job is up to the scheduler, so under CPU contention
//! such first uses can land in several consecutive attempts.  Every
//! measurement therefore retries up to [`ATTEMPTS`] times — more attempts
//! than there are one-shot sources (the harness plus the pool's workers) —
//! and asserts on the **minimum** delta.  Note the honest trade this makes: the guarantee narrows from
//! "zero allocations in one exact window" to "no allocation that recurs
//! across attempts" — a per-holiday (or per-run) allocation fires on every
//! attempt and keeps the minimum nonzero, but a regression that allocates
//! once and then stays warm is absorbed exactly like the harness noise is.
//! One-shot lazy growth in the engines is the warm-up phases' job to
//! surface; this file's claim is the steady state.
//!
//! This file holds exactly one `#[test]` so no concurrent test can disturb
//! the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fhg::core::analysis::{
    analyze_schedule, AnalysisEngine, CycleProfile, GraphChecker, HolidayChecker,
};
use fhg::core::schedulers::{standard_suite, PeriodicDegreeBound};
use fhg::core::{HappySet, Scheduler};
use fhg::graph::generators;
use rayon::ThreadPoolBuilder;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Attempts per measurement: more than the one-shot allocation sources a
/// measurement can meet (the harness thread, and the up to three workers
/// the 4-thread pools below spawn).
const ATTEMPTS: usize = 8;

/// Runs `f` up to [`ATTEMPTS`] times and returns the smallest allocation
/// delta observed (stopping early at zero).  See the module docs for the
/// exact guarantee this trades: allocations recurring on every attempt stay
/// visible; any one-shot — harness noise or a stays-warm-after-first-hit
/// allocation in the code under test — is filtered.
fn min_alloc_delta(mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..ATTEMPTS {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        f();
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        best = best.min(after - before);
        if best == 0 {
            break;
        }
    }
    best
}

#[test]
fn fill_happy_set_allocates_nothing_after_warmup() {
    let graph = generators::erdos_renyi(300, 0.03, 7);
    for mut scheduler in standard_suite(&graph, 11) {
        let start = scheduler.first_holiday();
        let mut buf = HappySet::new(scheduler.node_count());
        // Warm-up: lets the buffer settle on its capacity and stateful
        // schedulers touch their scratch space once.
        for t in start..start + 4 {
            scheduler.fill_happy_set(t, &mut buf);
        }
        // Stateful schedulers require consecutive holidays, so retries
        // continue the same schedule rather than replaying it.
        let mut t = start + 4;
        let delta = min_alloc_delta(|| {
            for _ in 0..508 {
                scheduler.fill_happy_set(t, &mut buf);
                t += 1;
            }
        });
        assert_eq!(
            delta,
            0,
            "{} allocated {delta} times across 508 holidays on every attempt",
            scheduler.name(),
        );
    }

    // The fused kernel paths themselves: per holiday, emission is the table
    // rows gathered through `HappySet::assign_many` (`kernels::set_rows_count`
    // in the single-batch case exercised here) and verification the
    // AND-any / set-bit-extraction kernels.  The dispatch decision
    // (FHG_KERNEL override or AVX2 detection) is cached in a `OnceLock` on
    // first use — the warm-up fill below pays that one environment read —
    // so the steady state must be allocation-free: not one alloc across 512
    // emitted and verified holidays.
    {
        let scheduler = PeriodicDegreeBound::new(&graph);
        let view = scheduler.residue_schedule().expect("perfectly periodic");
        let checker = GraphChecker::new(&graph);
        let mut buf = HappySet::new(view.node_count());
        view.fill(0, &mut buf);
        assert!(checker.check(0, buf.as_bitset()), "warm-up holiday must verify");
        let delta = min_alloc_delta(|| {
            for t in 1..513u64 {
                view.fill(t, &mut buf);
                assert!(checker.check(t, buf.as_bitset()));
            }
        });
        assert_eq!(
            delta, 0,
            "kernel emission+verification allocated {delta} times across 512 holidays \
             (dispatch must be cached, not re-detected per call)"
        );
    }

    // Batched verification: after the thread-local membership table warms
    // up, `check_batch` allocates nothing — the bit-sliced transpose fill
    // re-walks the previous batch union instead of clearing storage, and
    // the engines' flush borrow array lives on the stack.  Proved on all
    // three adjacency layouts (flat, blocked, CSR, forced via
    // `with_limits`).
    {
        let scheduler = PeriodicDegreeBound::new(&graph);
        let view = scheduler.residue_schedule().expect("perfectly periodic");
        let mut slots: Vec<HappySet> = (0..64).map(|_| HappySet::new(view.node_count())).collect();
        for (i, slot) in slots.iter_mut().enumerate() {
            view.fill(i as u64, slot);
        }
        let classes: Vec<(u64, &fhg::graph::FixedBitSet)> =
            slots.iter().enumerate().map(|(i, s)| (i as u64, s.as_bitset())).collect();
        for (flat, blocked) in [(usize::MAX, usize::MAX), (0, usize::MAX), (0, 0)] {
            let checker = GraphChecker::with_limits(&graph, flat, blocked);
            assert!(checker.check_batch(&classes), "warm-up batch must verify");
            let delta = min_alloc_delta(|| {
                for _ in 0..64 {
                    assert!(checker.check_batch(&classes));
                }
            });
            assert_eq!(
                delta,
                0,
                "batched verification on the {} layout allocated {delta} times after warm-up",
                checker.layout()
            );
        }
    }

    // The `happy_set` Vec shim: the intermediate HappySet is thread-local
    // scratch, so after warm-up each call allocates at most the returned Vec.
    let mut scheduler = PeriodicDegreeBound::new(&graph);
    for t in 0..4 {
        let _ = scheduler.happy_set(t);
    }
    let mut total = 0usize;
    let mut t = 4u64;
    let delta = min_alloc_delta(|| {
        total = 0;
        for _ in 0..256 {
            total += scheduler.happy_set(t).len();
            t += 1;
        }
    });
    assert!(total > 0, "the probe schedule must be non-trivial");
    assert!(
        delta <= 256,
        "happy_set shim allocated {delta} times across 256 holidays (max 1 per call)"
    );

    // The production analysis: per-holiday (and, for the closed-form
    // engine, per-repetition) work must allocate nothing, which shows up as
    // horizon-independence — the allocations left (profile/shard scratch,
    // pool bookkeeping) depend only on the graph, the cycle and the thread
    // count.  Horizons 128/1024/8192 all take the closed-form engine here
    // (cycle divides them); the engine profiles one cycle and derives the
    // rest analytically, so an 8x horizon costs not a single extra
    // allocation.
    assert_eq!(
        AnalysisEngine::select(&scheduler, 128),
        AnalysisEngine::ClosedForm,
        "horizons of at least one cycle must take the closed-form engine"
    );
    for threads in [1usize, 2, 4] {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        // Warm-up run: first-use lazy state (thread-local buffers, pool
        // workers, runtime bookkeeping) settles before measurement.
        pool.install(|| analyze_schedule(&graph, &mut scheduler, 64));
        let deltas: Vec<u64> = [128u64, 1024, 8192]
            .iter()
            .map(|&horizon| {
                min_alloc_delta(|| {
                    let analysis =
                        pool.install(|| analyze_schedule(&graph, &mut scheduler, horizon));
                    assert!(analysis.all_happy_sets_independent);
                })
            })
            .collect();
        assert!(
            deltas.windows(2).all(|w| w[0] == w[1]),
            "{threads} threads: allocations grew with the horizon ({deltas:?}), \
             so some engine allocated per holiday or per repetition"
        );
    }

    // The serving-tier derivation paths: repeated derivations from one
    // cached profile, with no scratch at all.  The lane fold reads the
    // profile and keeps each lane in registers, so the totals paths must be
    // allocation-free after warm-up across aligned, ragged-head,
    // ragged-tail, sub-cycle, zero-width and far-anchored windows (the
    // whole-horizon `derive_totals` included), and the full derive
    // allocates only its output, so its allocation count must not depend
    // on the window size.
    {
        let scheduler = PeriodicDegreeBound::new(&graph);
        let view = scheduler.residue_schedule().expect("perfectly periodic");
        let checker = GraphChecker::new(&graph);
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let profile = pool.install(|| {
            CycleProfile::build(view, scheduler.first_holiday(), graph.node_count(), &checker)
        });
        let cycle = profile.cycle();
        let far = 1u64 << 20;
        let windows = [
            (0, cycle),
            (0, 64 * cycle),
            (2 * cycle, 66 * cycle),
            (1, 64 * cycle),
            (0, 64 * cycle + 1),
            (cycle - 1, 64 * cycle + 1),
            (2 * cycle + 5, 66 * cycle + 7),
            (3, 3 + cycle / 2),
            (7, 7),
            (far + 5, far + 5 + (1 << 16)),
        ];
        // Warm-up: one ragged window settles any first-use lazy state.
        let _ = profile.derive_window_totals(1, 8 * cycle + 3);
        let delta = min_alloc_delta(|| {
            for &(t0, t1) in &windows {
                assert!(profile.derive_window_totals(t0, t1).all_happy_sets_independent);
            }
            for horizon in [cycle, 64 * cycle, 8 * cycle + 5] {
                assert!(profile.derive_totals(horizon).is_some());
            }
        });
        assert_eq!(
            delta, 0,
            "windowed totals derivation allocated {delta} times after warm-up \
             (the lane fold needs no scratch)"
        );

        let mut window_deltas = Vec::new();
        for &(t0, t1) in &[
            (0, 4 * cycle),
            (1, 4 * cycle),
            (cycle + 3, 64 * cycle + 1),
            (5, 1024 * cycle + 2),
            (far + 5, far + 5 + (1 << 16)),
        ] {
            let _ = profile.derive_window("warm", &graph, t0, t1);
            window_deltas.push(min_alloc_delta(|| {
                let analysis = profile.derive_window("window", &graph, t0, t1);
                assert!(analysis.total_happiness > 0);
            }));
        }
        assert!(
            window_deltas.windows(2).all(|w| w[0] == w[1]),
            "windowed derive allocations grew with the window ({window_deltas:?})"
        );
    }

    // The sub-cycle sharded sweep (horizon < cycle forces the sweep engine):
    // allocations must likewise be horizon-independent on every worker.
    let cycle = scheduler.schedule_cycle().expect("perfectly periodic");
    assert!(cycle >= 8, "need room for two distinct sub-cycle horizons");
    assert_eq!(AnalysisEngine::select(&scheduler, cycle - 1), AnalysisEngine::ShardedSweep);
    let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
    pool.install(|| analyze_schedule(&graph, &mut scheduler, cycle - 1));
    let deltas: Vec<u64> = [cycle - 2, cycle - 1]
        .iter()
        .map(|&horizon| {
            min_alloc_delta(|| {
                let analysis = pool.install(|| analyze_schedule(&graph, &mut scheduler, horizon));
                assert!(analysis.all_happy_sets_independent);
            })
        })
        .collect();
    assert_eq!(deltas[0], deltas[1], "sharded sweep allocations must not depend on the horizon");

    // The incremental repair plane (PR 8): steady-state edge churn through
    // `ProfileService::patch` must be allocation-free after warm-up — the
    // patch scratch (class batch, verification list, compaction arena) is
    // owned by the service and reused, replacement rows retire in place or
    // into pre-grown arena capacity, and the `ScanChecker` verifies against
    // the live graph without building a per-event adjacency layout.
    {
        use fhg::core::dynamic::DynamicColorBound;
        use fhg::core::serving::{PatchOutcome, ProfileService};
        use fhg::graph::{EdgeEvent, EdgeEventKind};

        let base = generators::erdos_renyi(200, 0.02, 13);
        let mut sched = DynamicColorBound::new(&base);
        let mut service = ProfileService::new();
        service.register(0, sched.graph(), &sched).expect("the dynamic tenant registers cleanly");
        assert_eq!(service.build_pending(), 1);

        // Pre-generate a long alternating insert/delete stream of one
        // initially-absent edge: every repair replays the same lanes, so
        // once the scratch reaches its high-water mark nothing grows, and
        // retries continue the stream instead of replaying applied events.
        let n = base.node_count();
        let (u, v) = (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
            .find(|&(a, b)| !base.has_edge(a, b))
            .expect("a sparse graph has absent edges");
        let repairs: Vec<_> = (0..40u64)
            .map(|i| {
                let kind = if i % 2 == 0 { EdgeEventKind::Insert } else { EdgeEventKind::Delete };
                sched
                    .apply_event(EdgeEvent { kind, u, v, holiday: i })
                    .expect("toggling one absent edge is always valid")
            })
            .collect();

        // Warm-up: the first patches detach the slot, size the class batch
        // and let the offset arena find its high-water capacity across a
        // few retire/compact rounds.
        let mut next = 0usize;
        for _ in 0..16 {
            let outcome = service.patch(0, &repairs[next]).expect("tenant 0 is registered");
            assert!(outcome != PatchOutcome::Rebuilt, "the edge toggle must stay patchable");
            next += 1;
        }
        let delta = min_alloc_delta(|| {
            for _ in 0..8 {
                match service.patch(0, &repairs[next]).expect("tenant 0 is registered") {
                    PatchOutcome::Patched(_) => {}
                    other => panic!("steady-state toggle fell off the patch path: {other:?}"),
                }
                next += 1;
            }
        });
        assert_eq!(
            delta, 0,
            "incremental profile repair allocated {delta} times per 8-event window after \
             warm-up (the patch plane must reuse the service-owned scratch)"
        );
    }

    // The WAL append path (PR 10): steady-state event logging through
    // `WalWriter::append` reuses one encode sink and one frame buffer —
    // once both reach their high-water capacity, appending a frame is an
    // encode into existing storage plus one `write(2)`, with not a single
    // heap allocation.
    {
        use fhg::core::dynamic::DynamicColorBound;
        use fhg::core::serving::{WalSync, WalWriter};
        use fhg::graph::{EdgeEvent, EdgeEventKind};

        let base = generators::erdos_renyi(120, 0.03, 29);
        let mut sched = DynamicColorBound::new(&base);
        let n = base.node_count();
        let (u, v) = (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
            .find(|&(a, b)| !base.has_edge(a, b))
            .expect("a sparse graph has absent edges");
        let repairs: Vec<_> = (0..48u64)
            .map(|i| {
                let kind = if i % 2 == 0 { EdgeEventKind::Insert } else { EdgeEventKind::Delete };
                sched
                    .apply_event(EdgeEvent { kind, u, v, holiday: i })
                    .expect("toggling one absent edge is always valid")
            })
            .collect();

        let dir = std::env::temp_dir().join(format!("fhg-zero-alloc-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = WalWriter::with_sync(&dir, WalSync::Never).expect("the WAL opens");
        // Warm-up: the sink and frame buffers find their high-water marks
        // (frames for this toggle stream are all the same shape).
        let mut next = 0usize;
        for _ in 0..16 {
            wal.append(0, &repairs[next]).expect("append");
            next += 1;
        }
        let delta = min_alloc_delta(|| {
            for _ in 0..8 {
                wal.append(0, &repairs[next]).expect("append");
                next += 1;
            }
        });
        assert_eq!(
            delta, 0,
            "steady-state WAL appends allocated {delta} times per 8-event window after \
             warm-up (the writer must reuse its encode buffers)"
        );
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
