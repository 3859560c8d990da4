//! Incremental repair against the rebuild oracle, across edge churn.
//!
//! `DynamicColorBound` answers each §6 edge event with at most two row
//! changes, and `CycleProfile::patch` repairs a cached profile in place from
//! them, re-testing the edges at the changed nodes and the inserted edge.
//! The first property drives random insert/delete sequences on Erdős–Rényi,
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
//! stays independent, so the profile never refuses.
//!
//! A `DynamicColorBound` schedule never conflicts, so the second property
//! stages the events that do: on random graphs under a fixed residue view,
//! a node moves onto the row of a neighbour below it or above it, an edge
//! is inserted between two rows that already meet, and other moves heal
//! the conflicts again.  After every event the patched profile and the
//! service's profile must be `content_eq` to a rebuild, the flipped
//! verdict included.

use proptest::prelude::*;

use fhg::codes::Progression;
use fhg::core::analysis::{CycleProfile, NodeAnalysis, PatchRefused, ScheduleAnalysis};
use fhg::core::dynamic::{DynamicColorBound, EventRepair};
use fhg::core::schedulers::residue::{ResidueSchedule, RowChange};
use fhg::core::serving::{PatchOutcome, ProfileService};
use fhg::core::{HappySet, Scheduler};
use fhg::graph::generators::{erdos_renyi, Family};
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
    CycleProfile::build(view, sched.first_holiday(), sched.node_count(), sched.graph())
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
            let ctx = format!("{} seed {seed}, event {i} {event:?}", family.name());
            let patched = profile.patch(view, sched.graph(), repair.row_changes(), inserted);
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

/// A scheduler that is nothing but a residue view.
struct Fixed(ResidueSchedule);

impl Scheduler for Fixed {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }
    fn fill_happy_set(&mut self, t: u64, out: &mut HappySet) {
        self.0.fill(t, out);
    }
    fn first_holiday(&self) -> u64 {
        START
    }
    fn name(&self) -> &'static str {
        "fixed"
    }
    fn is_periodic(&self) -> bool {
        true
    }
    fn period(&self, p: NodeId) -> Option<u64> {
        Some(self.0.modulus(p))
    }
    fn unhappiness_bound(&self, _p: NodeId) -> Option<u64> {
        None
    }
    fn residue_schedule(&self) -> Option<&ResidueSchedule> {
        Some(&self.0)
    }
}

/// First holiday of the staged views.
const START: u64 = 5;

/// A row that meets few others: modulus 32, 64 or 128, drawn from `r`.
fn fresh_row(r: u64) -> Progression {
    let modulus = 32 << (r % 3);
    Progression { slot: (r / 3) % modulus, modulus }
}

/// Two distinct nodes drawn from `r`, neither of them in `avoid`: the edge
/// a row-moving event toggles, kept off the edge it means to break.
fn far_pair(n: usize, r: u64, avoid: &[NodeId]) -> (NodeId, NodeId) {
    let mut free = (0..n).cycle().skip(r as usize % n).filter(|x| !avoid.contains(x));
    let u = free.next().expect("at least four nodes");
    let v = free.find(|&x| x != u).expect("at least four nodes");
    (u, v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Events that do conflict, against the rebuild after every event.  Each
    /// event toggles one edge and moves up to two rows:
    ///
    /// * `0`: node `p` takes the row of a neighbour below it, a conflict a
    ///   patch that tested only the edges above `p` would miss;
    /// * `1`: node `p` takes the row of a neighbour above it;
    /// * `2`, `3`: the upper endpoint of the first conflicting edge (or any
    ///   node, when there is none) moves to a fresh row, healing it;
    /// * `4`: node `v` takes the row of a non-neighbour `u`, where no
    ///   neighbour of `v` meets it, and the pair is remembered;
    /// * `5`: the remembered pair's edge is inserted with no row moved, a
    ///   conflict only the inserted edge's own test sees;
    /// * `6`, `7`: a bare toggle, or a fresh row for one node.
    ///
    /// A refused patch (the verdict was already broken) is replaced by the
    /// rebuild, as the service does.
    #[test]
    fn conflicting_events_patch_like_a_rebuild(
        seed in 0u64..1_000,
        n in 4usize..24,
        density in 0.1f64..0.4,
        events in prop::collection::vec((0u64..8, 0u64..1 << 20, 0u64..1 << 20), 8..24),
    ) {
        let mut graph = erdos_renyi(n, density, seed);
        // Node `p` starts on `p mod 64`: distinct slots of one modulus, so
        // no edge conflicts.
        let mut view = ResidueSchedule::new((0..n as u64).collect(), vec![64; n]);
        let mut profile = CycleProfile::build(&view, START, n, &graph);
        prop_assert!(profile.all_classes_independent());
        let mut service = ProfileService::new();
        service.register(0, &graph, &Fixed(view.clone())).expect("the view registers");
        prop_assert_eq!(service.build_pending(), 1);
        let mut aligned: Option<(NodeId, NodeId)> = None;

        for (i, &(kind, a, r)) in events.iter().enumerate() {
            let p = a as usize % n;
            let mut moves: Vec<(NodeId, Progression)> = Vec::new();
            let mut avoid = vec![p];
            match kind {
                0 | 1 => {
                    let row = graph.neighbors(p);
                    let side: Vec<NodeId> = if kind == 0 {
                        row.iter().copied().filter(|&q| q < p).collect()
                    } else {
                        row.iter().copied().filter(|&q| q > p).collect()
                    };
                    if let Some(&q) = side.get(r as usize % side.len().max(1)) {
                        moves.push((p, view.row(q)));
                        avoid.push(q);
                    }
                }
                2 | 3 => {
                    let (x, y) = view.conflict(&graph).unwrap_or((p, p));
                    moves.push((y, fresh_row(r)));
                    avoid = vec![x, y];
                }
                4 => {
                    let target = view.row(p);
                    let partner = (0..n).map(|k| (k + r as usize) % n).find(|&v| {
                        v != p
                            && !graph.has_edge(p, v)
                            && graph.neighbors(v).iter().all(|&w| !view.row(w).meets(&target))
                    });
                    if let Some(v) = partner {
                        moves.push((v, target));
                        aligned = Some((p, v));
                        avoid.push(v);
                    }
                }
                6 => {}
                _ => moves.push((p, fresh_row(r))),
            }
            let (u, v) = match (kind, aligned) {
                (5, Some((u, v))) if !graph.has_edge(u, v) => (u, v),
                (5 | 6, _) => far_pair(n, r, &[]),
                _ => far_pair(n, r, &avoid),
            };
            let kind_of = if graph.has_edge(u, v) { EdgeEventKind::Delete } else { EdgeEventKind::Insert };
            let event = EdgeEvent { kind: kind_of, u, v, holiday: i as u64 };
            match event.kind {
                EdgeEventKind::Insert => graph.add_edge(u, v),
                EdgeEventKind::Delete => graph.remove_edge(u, v),
            }
            .expect("the toggle applies");
            let changes: Vec<RowChange> = moves
                .iter()
                .map(|&(node, new)| {
                    let change = RowChange { node, old: view.row(node), new };
                    view.apply_row(&change);
                    change
                })
                .collect();

            let ctx = format!("seed {seed}, n {n}, event {i}: kind {kind}, {event:?}, {changes:?}");
            let oracle = CycleProfile::build(&view, START, n, &graph);
            let held = profile.all_classes_independent();
            let inserted = (event.kind == EdgeEventKind::Insert).then_some((u, v));
            match profile.patch(&view, &graph, &changes, inserted) {
                Ok(_) => prop_assert!(profile.content_eq(&oracle), "{}: patch vs rebuild", ctx),
                Err(PatchRefused::NotIndependent) => {
                    prop_assert!(!held, "{}: refused a patch to a valid profile", ctx);
                    profile = oracle.clone();
                }
            }
            let served = service.patch(0, &EventRepair::from_parts(event, &changes));
            prop_assert!(
                matches!(served, Ok(PatchOutcome::Patched(_) | PatchOutcome::Rebuilt)),
                "{}: {:?}", ctx, served
            );
            let served = service.profile(0).expect("the tenant stays warm");
            prop_assert!(served.content_eq(&oracle), "{}: service vs rebuild", ctx);
        }
    }
}
