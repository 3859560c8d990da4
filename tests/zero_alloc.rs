//! Proves the engine contract: after warm-up, `fill_happy_set` performs zero
//! heap allocations per holiday, for every scheduler in the standard suite,
//! each holiday verified by one `GraphChecker` — the same holds for the
//! fused kernel emission+verification paths
//! (`ResidueSchedule::fill` + `GraphChecker`, whose dispatch decision is
//! cached in a `OnceLock`, never re-detected per call), for the serving
//! tier's window derivations, and for the incremental repair plane, where
//! a steady-state edge event through `ProfileService::patch` tests its
//! edges in place and moves nodes between existing lanes.  Edge toggles on
//! a `Graph` itself allocate nothing
//! once a warm-up insert has given both rows room.  One-shot
//! `analyze_schedule` on a periodic scheduler allocates only its output,
//! whatever the horizon or pool width, and `analyze_schedule_totals`
//! allocates nothing.  A LOCAL-model simulation allocates per run, never
//! per round: `Simulator::run` allocates as often for 8 rounds as for 512.
//!
//! A counting global allocator records every allocation; the test warms each
//! scheduler's buffer (and any internal scratch) for a few holidays, then
//! asserts the allocation counter does not move across a long horizon.
//!
//! The counter is global, so it also sees foreign one-shot initialisations
//! from other live threads — concretely, the libtest harness main thread
//! lazily creates its mpsc receive context (two allocations) at a
//! scheduling-dependent moment while it waits for this test, and a pool
//! worker that sat out every warm-up run may initialise its per-thread
//! state the first time it takes a job.  Which worker takes a job is up to
//! the scheduler, so under CPU contention such first uses can land in
//! several consecutive attempts.  Every
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
    analyze_schedule, analyze_schedule_totals, AnalysisEngine, CycleProfile, GraphChecker,
    HolidayChecker,
};
use fhg::core::schedulers::{standard_suite, PeriodicDegreeBound};
use fhg::core::{HappySet, Scheduler};
use fhg::distributed::{NodeContext, Protocol, RoundOutput, Simulator};
use fhg::graph::{generators, NodeId};
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

/// A LOCAL protocol that never terminates and broadcasts a `Copy` message
/// every round: every round steps every node and fills every inbox.
struct Chatter;

impl Protocol for Chatter {
    type State = u64;
    type Message = u64;

    fn init(&self, _ctx: &mut NodeContext<'_>) -> u64 {
        0
    }

    fn step(
        &self,
        state: &mut u64,
        inbox: &[(NodeId, u64)],
        ctx: &mut NodeContext<'_>,
    ) -> RoundOutput<u64> {
        *state += inbox.iter().map(|&(_, x)| x).sum::<u64>();
        RoundOutput::Broadcast(ctx.node as u64)
    }

    fn is_terminated(&self, _state: &u64) -> bool {
        false
    }
}

#[test]
fn fill_happy_set_allocates_nothing_after_warmup() {
    let graph = generators::erdos_renyi(300, 0.03, 7);
    let checker = GraphChecker::new(&graph);
    for mut scheduler in standard_suite(&graph, 11) {
        let start = scheduler.first_holiday();
        let mut buf = HappySet::new(scheduler.node_count());
        // Warm-up: lets the buffer settle on its capacity and stateful
        // schedulers touch their scratch space once.
        for t in start..start + 4 {
            scheduler.fill_happy_set(t, &mut buf);
            assert!(checker.check(t, buf.as_bitset()), "warm-up holiday must verify");
        }
        // Stateful schedulers require consecutive holidays, so retries
        // continue the same schedule rather than replaying it.
        let mut t = start + 4;
        let delta = min_alloc_delta(|| {
            for _ in 0..508 {
                scheduler.fill_happy_set(t, &mut buf);
                assert!(checker.check(t, buf.as_bitset()));
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
    // AND-any / set-bit-extraction kernels.  The dispatch decision (AVX2 +
    // POPCNT detection) is cached in a `OnceLock` on first use — the
    // warm-up fill below pays that one detection — so the steady state must
    // be allocation-free: not one alloc across 512 emitted and verified
    // holidays.
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

    let mut scheduler = PeriodicDegreeBound::new(&graph);

    // The production analysis of a periodic scheduler: the progression
    // engine reads the residue rows and the graph, emits nothing and keeps
    // no scratch, so it allocates exactly its output — the scheduler name,
    // the per-node vector and, when some node never hosts within the
    // horizon, the exact-capacity never-happy list — below one cycle and at
    // every longer horizon, and at every pool width, since it never leaves
    // the calling thread.
    let cycle = scheduler.schedule_cycle().expect("perfectly periodic");
    assert!(cycle > 2 && cycle - 1 < 128, "cycle - 1 must sit below the other horizons");
    for horizon in [cycle - 1, 128] {
        assert_eq!(AnalysisEngine::select(&scheduler, horizon), AnalysisEngine::ClosedForm);
    }
    let mut counts = Vec::new();
    for threads in [1usize, 2, 4] {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        // Warm-up run: first-use lazy state settles before measurement.
        pool.install(|| analyze_schedule(&graph, &mut scheduler, 64));
        for horizon in [cycle - 1, 128, 1024, 8192] {
            let mut output = 0u64;
            let delta = min_alloc_delta(|| {
                let analysis = pool.install(|| analyze_schedule(&graph, &mut scheduler, horizon));
                assert!(analysis.all_happy_sets_independent);
                output = 2 + u64::from(!analysis.never_happy.is_empty());
            });
            assert_eq!(
                delta, output,
                "{threads} threads, horizon {horizon}: analyze_schedule allocated {delta} times \
                 for an output of {output} allocations"
            );
            counts.push((horizon, delta));
        }
    }
    for horizon in [cycle - 1, 128, 1024, 8192] {
        let at: Vec<u64> = counts.iter().filter(|c| c.0 == horizon).map(|c| c.1).collect();
        assert!(at.windows(2).all(|w| w[0] == w[1]), "horizon {horizon}: {at:?} across pools");
    }
    assert!(
        counts.iter().filter(|c| c.0 >= 128).all(|c| c.1 == 2),
        "once every node hosts, the count must not depend on the horizon: {counts:?}"
    );
    let _ = analyze_schedule_totals(&graph, &mut scheduler, 64);
    let delta = min_alloc_delta(|| {
        for horizon in [cycle - 1, 128, 1024, 8192, u64::MAX] {
            let totals = analyze_schedule_totals(&graph, &mut scheduler, horizon);
            assert!(totals.all_happy_sets_independent);
        }
    });
    assert_eq!(delta, 0, "analyze_schedule_totals allocated {delta} times after warm-up");

    // The serving-tier derivation paths: repeated derivations from one
    // cached profile, with no scratch at all.  The window fold computes
    // each lane in registers from its one-cycle progression, one formula
    // per node, so the totals paths must be allocation-free after warm-up
    // across aligned, ragged-head, ragged-tail, sub-cycle, zero-width and
    // far-anchored windows (out to `2^62`, the whole-horizon
    // `derive_totals` included), and the full derive allocates only its
    // output, so its allocation count must not depend on the window size.
    {
        let scheduler = PeriodicDegreeBound::new(&graph);
        let view = scheduler.residue_schedule().expect("perfectly periodic");
        let profile =
            CycleProfile::build(view, scheduler.first_holiday(), graph.node_count(), &graph);
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
            ((1 << 62) + 5, (1 << 62) + 5 + (1 << 40) + 3),
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
             (the window fold needs no scratch)"
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

    // Edge toggles on a packed graph: one warm-up insert grows both full
    // rows once, after which deleting and re-inserting the edge edits the
    // rows in place.  The patch plane below toggles a slot's private graph
    // the same way.
    {
        let mut graph = generators::erdos_renyi(200, 0.02, 13);
        let n = graph.node_count();
        let (u, v) = (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
            .find(|&(a, b)| !graph.has_edge(a, b))
            .expect("a sparse graph has absent edges");
        graph.add_edge(u, v).expect("the warm-up insert applies");
        graph.remove_edge(u, v).expect("the warm-up edge is present");
        let delta = min_alloc_delta(|| {
            for _ in 0..8 {
                graph.add_edge(u, v).expect("the toggled edge is absent");
                graph.remove_edge(u, v).expect("the toggled edge is present");
            }
        });
        assert_eq!(delta, 0, "edge toggles allocated {delta} times after the warm-up insert");
    }

    // The incremental repair plane: steady-state edge churn through
    // `ProfileService::patch` must be allocation-free after warm-up — the
    // patch tests the edges at the recoloured nodes and the inserted edge
    // straight off the slot's live graph, and a recoloured node moves into
    // an existing or emptied lane of the profile's lane table, which never
    // shrinks.
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

        // Warm-up: the first patches detach the slot and let the lane table
        // and the graph's rows reach their high-water lengths.
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
             warm-up (the patch plane must edit the slot in place)"
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

    // The LOCAL simulator: a run allocates its states, its slot tables,
    // the inbox arena and its round buffers once; a round reuses them, so
    // the count must not depend on the number of rounds.
    {
        let graph = generators::erdos_renyi(300, 0.03, 7);
        let protocol = Chatter;
        let simulator = Simulator::new(&graph, &protocol);
        let run = |rounds: u64| {
            let (states, stats) = simulator.run(5, rounds);
            assert_eq!(stats.rounds, rounds);
            assert_eq!(stats.messages, rounds * 2 * graph.edge_count() as u64);
            assert!(states.iter().any(|&x| x > 0));
        };
        let short = min_alloc_delta(|| run(8));
        let long = min_alloc_delta(|| run(512));
        assert_eq!(
            short, long,
            "Simulator::run allocated {short} times for 8 rounds, {long} for 512"
        );
    }
}
