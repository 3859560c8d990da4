//! Incremental repair against the rebuild oracle, across edge churn.
//!
//! `DynamicColorBound` answers each §6 edge event with at most two row
//! changes, and `CycleProfile::patch` repairs a cached profile in place from
//! them.  This suite drives random insert/delete sequences on Erdős–Rényi,
//! unit-disk and Barabási–Albert graphs and, after every repair, checks
//! three things:
//!
//! * the patched profile is `content_eq` to `CycleProfile::build` on the
//!   post-event view and graph, built at 1, 2 and 8 threads;
//! * every lane is an arithmetic progression of the cycle — `cycle % happy
//!   == 0` and `attendance_offsets(p)` is `first + k·(cycle / happy)` with
//!   `first` below the step and the step the node's modulus — the shape
//!   the closed-form window fold reads;
//! * `ProfileService::query` and `query_totals`, fed the same repairs
//!   through `ProfileService::patch`, answer random windows (anchored out
//!   to `2^62`) exactly like the rebuilt profile.
//!
//! Every repair must patch in place, in the profile and in the service,
//! whether or not the event moved the cycle: a `DynamicColorBound` schedule
//! stays independent, so the profile never refuses, and the suite's cycles
//! stay far below the service's patch limit.

use proptest::prelude::*;

use fhg::core::analysis::{
    CycleProfile, GraphChecker, NodeAnalysis, PatchScratch, ScanChecker, ScheduleAnalysis,
};
use fhg::core::dynamic::DynamicColorBound;
use fhg::core::serving::{PatchOutcome, ProfileService};
use fhg::core::Scheduler;
use fhg::graph::generators::Family;
use fhg::graph::{EdgeEvent, EdgeEventKind, NodeId};
use rayon::ThreadPoolBuilder;

const FAMILIES: [Family; 3] = [Family::ErdosRenyi, Family::UnitDisk, Family::BarabasiAlbert];

/// Window anchors: near zero, past `2^40` and past `2^62`.
const ANCHORS: [u64; 3] = [0, 1 << 40, 1 << 62];

/// An edge event consistent with the scheduler's current graph: delete the
/// edge if present, insert it otherwise.
fn toggle(sched: &DynamicColorBound, u: NodeId, v: NodeId, holiday: u64) -> EdgeEvent {
    let kind =
        if sched.graph().has_edge(u, v) { EdgeEventKind::Delete } else { EdgeEventKind::Insert };
    EdgeEvent { kind, u, v, holiday }
}

/// A cold build of the scheduler's current view and graph.
fn rebuild(sched: &DynamicColorBound) -> CycleProfile {
    let view = sched.residue_schedule().expect("DynamicColorBound is periodic");
    let checker = GraphChecker::new(sched.graph());
    CycleProfile::build(view, sched.first_holiday(), sched.node_count(), &checker)
}

/// Whether two analyses are bitwise-identical, NaN-aware on float fields.
fn same_bits(a: &ScheduleAnalysis, b: &ScheduleAnalysis) -> bool {
    let key = |n: &NodeAnalysis| {
        let bits = n.mean_gap.to_bits();
        (n.node, n.degree, n.happy_count, n.max_unhappiness, n.observed_period, n.first_happy, bits)
    };
    a.scheduler == b.scheduler
        && a.totals() == b.totals()
        && a.never_happy == b.never_happy
        && a.per_node.iter().map(key).eq(b.per_node.iter().map(key))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn patched_profiles_match_the_rebuild_after_every_event(
        family in prop::sample::select(FAMILIES.to_vec()),
        seed in 0u64..500,
        pairs in prop::collection::vec((0usize..48, 0usize..48), 12..24),
        windows in prop::collection::vec((0usize..3, 0u64..5000, 0u64..5000), 6..7),
    ) {
        let graph = family.generate(48, 4.0, seed);
        let n = graph.node_count();
        let mut sched = DynamicColorBound::new(&graph);
        let mut profile = rebuild(&sched);
        let mut scratch = PatchScratch::new();
        let mut service = ProfileService::new();
        service.register(0, sched.graph(), &sched).expect("the dynamic tenant registers");
        prop_assert_eq!(service.build_pending(), 1);
        let pools: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&t| ThreadPoolBuilder::new().num_threads(t).build().unwrap())
            .collect();

        for (i, &(u, v)) in pairs.iter().enumerate() {
            let (u, v) = (u % n, v % n);
            if u == v {
                continue;
            }
            let event = toggle(&sched, u, v, i as u64);
            let repair = sched.apply_event(event).expect("a toggle always applies");
            let view = sched.residue_schedule().expect("DynamicColorBound is periodic");
            let inserted = (event.kind == EdgeEventKind::Insert).then_some((u, v));
            let scan = ScanChecker::new(sched.graph());
            let ctx = format!("{} seed {seed}, event {i} {event:?}", family.name());
            let patched = profile.patch(view, repair.row_changes(), inserted, &scan, &mut scratch);
            prop_assert!(patched.is_ok(), "{}: the profile refused: {:?}", ctx, patched);
            let served = service.patch(0, &repair);
            prop_assert!(
                matches!(served, Ok(PatchOutcome::Patched(_))),
                "{}: the service did not patch in place: {:?}", ctx, served
            );

            let rebuilt: Vec<CycleProfile> =
                pools.iter().map(|pool| pool.install(|| rebuild(&sched))).collect();
            let served = service.profile(0).expect("the tenant stays warm");
            for (threads, oracle) in [1, 2, 8].iter().zip(&rebuilt) {
                prop_assert!(profile.content_eq(oracle), "{}: patch vs {}-thread", ctx, threads);
                prop_assert!(served.content_eq(oracle), "{}: service vs {}-thread", ctx, threads);
            }

            let cycle = profile.cycle();
            for p in 0..n {
                let happy = profile.count_per_cycle(p);
                let offsets: Vec<u64> = profile.attendance_offsets(p).collect();
                prop_assert_eq!(offsets.len() as u64, happy, "{}: lane {}", ctx, p);
                let Some(&first) = offsets.first() else { continue };
                prop_assert_eq!(cycle % happy, 0, "{}: lane {}", ctx, p);
                let step = cycle / happy;
                prop_assert_eq!(step, view.modulus(p), "{}: lane {}", ctx, p);
                prop_assert!(first < step, "{}: lane {} starts past its step", ctx, p);
                prop_assert!(
                    offsets.iter().enumerate().all(|(k, &o)| o == first + k as u64 * step),
                    "{}: lane {} is not a progression: {:?}", ctx, p, offsets
                );
            }

            let oracle = &rebuilt[0];
            let far = (1 << 62) + 5;
            let fixed = [(0, 0), (0, cycle), (1, 2 * cycle + 1), (far, far + (1 << 40))];
            let random = windows.iter().map(|&(a, off, width)| {
                (ANCHORS[a] + off, ANCHORS[a] + off + width)
            });
            for (t0, t1) in fixed.into_iter().chain(random) {
                prop_assert_eq!(
                    service.query_totals(0, t0, t1).expect("warm"),
                    oracle.derive_window_totals(t0, t1),
                    "{}: totals of [{}, {})", ctx, t0, t1
                );
                let got = service.query(0, t0, t1).expect("warm");
                let want = oracle.derive_window(sched.name(), sched.graph(), t0, t1);
                prop_assert!(same_bits(&got, &want), "{}: analysis of [{}, {})", ctx, t0, t1);
            }
        }
    }
}
