//! Chaos suite: deterministic fault injection against the serving tier.
//!
//! Every test here arms real failpoint sites (see `fhg::core::failpoint`),
//! which are process-global — so the whole suite serializes on one mutex
//! and disarms on the way out, even across panics.  The invariant under
//! test is the crash-only contract: after any interleaving of edge events,
//! query bursts, audits and injected faults, every tenant is either
//! **warm and bitwise-equal to a fault-free oracle** or **cleanly
//! quarantined and rebuildable**, and no injected panic ever unwinds into
//! the caller.

use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;

use fhg::core::dynamic::DynamicColorBound;
use fhg::core::failpoint;
use fhg::core::{
    CycleProfile, PatchError, PatchOutcome, ProfileService, QuarantineReason, Query, QueryError,
    Scheduler,
};
use fhg::graph::generators::Family;
use fhg::graph::{EdgeEvent, EdgeEventKind, Graph, NodeId};

/// The failpoint registry is process-global; tests that arm it must not
/// overlap.  Poisoning is expected (several tests panic on purpose inside
/// workers), so the lock is recovered, not unwrapped.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Holds the registry for one test and guarantees it is disarmed again
/// afterwards, even if the test fails.
struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for FaultGuard {
    fn drop(&mut self) {
        failpoint::clear();
    }
}

fn faults(spec: &str, seed: u64) -> FaultGuard {
    let guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::configure_with_seed(spec, seed);
    FaultGuard(guard)
}

fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 11
}

fn graph(n: usize, seed: u64) -> Graph {
    Family::ErdosRenyi.generate(n, 4.0, seed)
}

/// An edge event that is always consistent with the scheduler's current
/// graph: delete if present, insert if absent.
fn toggle(sched: &DynamicColorBound, u: NodeId, v: NodeId, holiday: u64) -> EdgeEvent {
    let kind =
        if sched.graph().has_edge(u, v) { EdgeEventKind::Delete } else { EdgeEventKind::Insert };
    EdgeEvent { kind, u, v, holiday }
}

/// The fault-free oracle: a from-scratch closed-form build of the
/// scheduler's *current* residue schedule, whose edge pass no failpoint
/// instruments.
fn oracle_of(sched: &DynamicColorBound) -> CycleProfile {
    let view = sched.residue_schedule().expect("DynamicColorBound is periodic");
    CycleProfile::build(view, sched.first_holiday(), sched.node_count(), sched.graph())
}

/// A patch that panics past its commit point quarantines the tenant
/// instead of serving a half-mutated profile; events arriving while
/// quarantined are absorbed, so the eventual cold rebuild converges with
/// the caller's scheduler.
#[test]
fn patch_panic_quarantines_and_repair_rebuilds_cold() {
    let _guard = faults("patch.after_rows=panic", 7);
    let g = graph(40, 21);
    let mut sched = DynamicColorBound::new(&g);
    let mut service = ProfileService::new();
    service.register(1, &g, &sched).unwrap();
    assert_eq!(service.build_pending(), 1);
    let cycle = service.profile(1).unwrap().cycle();

    // The first event dies inside the commit phase: typed error out, no
    // unwind, and the slot refuses to serve its possibly-poisoned cache.
    let repair = sched.apply_event(toggle(&sched, 0, 1, 0)).unwrap();
    let err = service.patch(1, &repair).unwrap_err();
    assert!(matches!(err, PatchError::Quarantined(1)), "{err}");
    assert_eq!(service.quarantine_reason(1), Some(QuarantineReason::PatchPanic));
    assert!(matches!(service.query_totals(1, 0, cycle), Err(QueryError::Quarantined(1))));
    assert_eq!(service.stats().quarantines, 1);
    assert_eq!(service.quarantined_count(), 1);

    // A second event while quarantined: still refused (typed), but its
    // content is absorbed into the slot's graph and schedule.
    let repair2 = sched.apply_event(toggle(&sched, 2, 3, 1)).unwrap();
    assert!(matches!(service.patch(1, &repair2), Err(PatchError::Quarantined(1))));

    failpoint::clear();
    assert_eq!(service.repair_quarantined(), 1);
    assert_eq!(service.quarantine_reason(1), None);
    assert!(
        service.profile(1).unwrap().content_eq(&oracle_of(&sched)),
        "the cold rebuild must have caught up with both absorbed events"
    );
    assert!(service.query_totals(1, 0, cycle).is_ok());
}

/// Build workers that die quarantine exactly their own slot — the batch
/// completes, the panic never unwinds, and repair brings every slot back.
#[test]
fn build_panics_quarantine_exactly_the_dead_slots() {
    let _guard = faults("build.slot=panic", 0);
    let mut service = ProfileService::new();
    let mut scheds = Vec::new();
    for t in 0..3u64 {
        let g = graph(20 + 4 * t as usize, 100 + t);
        let sched = DynamicColorBound::new(&g);
        service.register(t, &g, &sched).unwrap();
        scheds.push(sched);
    }
    assert_eq!(service.build_pending(), 0, "every build worker died");
    assert_eq!(service.quarantined_count(), 3);
    assert_eq!(service.stats().quarantines, 3);
    for t in 0..3 {
        assert_eq!(service.quarantine_reason(t), Some(QuarantineReason::BuildPanic));
        assert!(matches!(service.query_totals(t, 0, 8), Err(QueryError::Quarantined(_))));
    }

    failpoint::clear();
    assert_eq!(service.repair_quarantined(), 3);
    assert_eq!(service.warm_count(), 3);
    for (t, sched) in scheds.iter().enumerate() {
        assert!(service.profile(t as u64).unwrap().content_eq(&oracle_of(sched)));
    }
}

/// An edge-test fault during an in-place patch poisons *silently*: the patch
/// reports success and queries keep answering, but the cached independence
/// verdict is wrong.  The background audit is the plane that catches it.
#[test]
fn audit_catches_a_silently_poisoned_verdict() {
    let _guard = faults("", 0);
    let g = graph(40, 21);
    let mut sched = DynamicColorBound::new(&g);
    let mut service = ProfileService::new();
    service.register(1, &g, &sched).unwrap();
    assert_eq!(service.build_pending(), 1);
    let cycle = service.profile(1).unwrap().cycle();

    // Arm the fault only after the clean build, then drive events until
    // one takes the in-place path (the only path through `verify.edge`).
    failpoint::configure("verify.edge=err");
    let mut poisoned = false;
    for (holiday, (u, v)) in
        [(0, 1), (0, 2), (1, 3), (2, 4), (0, 1), (3, 5)].into_iter().enumerate()
    {
        let repair = sched.apply_event(toggle(&sched, u, v, holiday as u64)).unwrap();
        let outcome = service.patch(1, &repair).unwrap();
        let oracle = oracle_of(&sched);
        if matches!(outcome, PatchOutcome::Patched(_)) && oracle.all_classes_independent() {
            assert!(
                !service.profile(1).unwrap().all_classes_independent(),
                "the injected edge-test fault must have flipped the cached verdict"
            );
            poisoned = true;
            break;
        }
    }
    assert!(poisoned, "no event took the in-place path; widen the event list");
    assert!(service.query_totals(1, 0, cycle).is_ok(), "the poison is silent: queries answer");

    failpoint::clear();
    assert_eq!(service.audit_step(8), 1, "the audit must quarantine the poisoned slot");
    assert_eq!(service.quarantine_reason(1), Some(QuarantineReason::AuditMismatch));
    let audit = service.audit_stats();
    assert_eq!((audit.mismatches, audit.quarantined), (1, 1));
    assert!(matches!(service.query_totals(1, 0, cycle), Err(QueryError::Quarantined(1))));

    assert_eq!(service.repair_quarantined(), 1);
    assert!(service.profile(1).unwrap().content_eq(&oracle_of(&sched)));
    assert!(service.profile(1).unwrap().all_classes_independent());
    assert_eq!(service.audit_step(8), 1);
    assert_eq!(service.audit_stats().mismatches, 1, "the repaired slot audits clean");
}

/// Query workers that die — by panic or injected error — surface as
/// `QueryError::Internal` on exactly their own request, at any pool width,
/// and the cached state stays untouched (retry succeeds once disarmed).
#[test]
fn query_worker_deaths_surface_as_typed_internal_errors() {
    let _guard = faults("", 0);
    let g = graph(30, 5);
    let sched = DynamicColorBound::new(&g);
    let mut service = ProfileService::new();
    service.register(1, &g, &sched).unwrap();
    assert_eq!(service.build_pending(), 1);
    let cycle = service.profile(1).unwrap().cycle();
    let queries: Vec<Query> =
        (0..16).map(|i| Query { tenant: 1, window: (0, cycle + i) }).collect();

    for spec in ["query.batch=panic", "query.batch=err"] {
        failpoint::configure(spec);
        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let before = service.stats();
            let results = pool.install(|| service.query_batch(&queries));
            assert_eq!(results.len(), queries.len());
            for r in results {
                assert!(matches!(r, Err(QueryError::Internal(1))), "{spec}: {r:?}");
            }
            // A request that died is neither a hit nor a miss.
            let after = service.stats();
            assert_eq!((after.hits, after.misses), (before.hits, before.misses), "{spec}");
        }
    }

    failpoint::clear();
    let results = service.query_batch(&queries);
    assert!(results.iter().all(Result::is_ok), "disarmed: the cache was never corrupted");
}

/// The tentpole invariant: an LCG-scheduled interleaving of edge events,
/// query bursts, audits, builds and mid-run repairs — with panics and
/// errors injected at every instrumented site — never unwinds into the
/// caller, and once the faults are disarmed every tenant converges to the
/// fault-free oracle, at 1, 2 and 8 worker threads.
#[test]
fn chaos_interleavings_converge_to_the_fault_free_oracle() {
    const SPEC: &str = "patch.after_rows=panic@0.15,profile.patch.commit=panic@0.05,\
                        verify.edge=err@0.1,build.slot=panic@0.3,query.batch=err@0.05";
    const TENANTS: usize = 6;
    let _guard = faults("", 0);

    for threads in [1usize, 2, 8] {
        failpoint::configure_with_seed(SPEC, 0xC0FFEE ^ threads as u64);
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let mut service = ProfileService::new();
        let scheds: Vec<_> = (0..TENANTS)
            .map(|i| {
                let g = graph(24 + 3 * i, 400 + i as u64);
                let sched = DynamicColorBound::new(&g);
                service.register(i as u64, &g, &sched).unwrap();
                sched
            })
            .collect();
        let mut scheds = scheds;
        pool.install(|| service.build_pending()); // some builds may already die

        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ threads as u64;
        for step in 0..240u64 {
            match lcg(&mut state) % 100 {
                0..=54 => {
                    // One edge event, delivered exactly once.  Whatever the
                    // outcome — patched, rebuilt, absorbed cold, or a
                    // quarantining panic — the slot keeps the content.
                    let t = (lcg(&mut state) as usize) % TENANTS;
                    let n = scheds[t].node_count();
                    let u = (lcg(&mut state) as usize) % n;
                    let mut v = (lcg(&mut state) as usize) % n;
                    if u == v {
                        v = (v + 1) % n;
                    }
                    let event = toggle(&scheds[t], u, v, step);
                    let repair = scheds[t].apply_event(event).unwrap();
                    match service.patch(t as u64, &repair) {
                        Ok(_) => {}
                        Err(PatchError::Quarantined(q)) => assert_eq!(q, t as u64),
                        Err(other) => panic!("step {step}: unexpected patch error {other}"),
                    }
                }
                55..=79 => {
                    // A parallel query burst, unknown tenants mixed in.
                    let queries: Vec<Query> = (0..8)
                        .map(|_| Query {
                            tenant: lcg(&mut state) % (TENANTS as u64 + 2),
                            window: (lcg(&mut state) % 64, lcg(&mut state) % 4096),
                        })
                        .collect();
                    let results = pool.install(|| service.query_batch(&queries));
                    for (q, r) in queries.iter().zip(results) {
                        match r {
                            Ok(totals) => assert_eq!(totals.tenant, q.tenant),
                            Err(QueryError::UnknownTenant(t)) => {
                                assert!(t >= TENANTS as u64, "step {step}: tenant {t}")
                            }
                            Err(
                                QueryError::Quarantined(_)
                                | QueryError::Internal(_)
                                | QueryError::ProfileNotBuilt(_),
                            ) => {}
                        }
                    }
                }
                80..=87 => {
                    service.audit_step(2);
                }
                88..=93 => {
                    pool.install(|| service.build_pending());
                }
                _ => {
                    // Repair under fire: rebuilds may die again and
                    // re-quarantine — that is the crash-only loop working.
                    service.repair_quarantined();
                }
            }
        }

        // Disarm, scrub (the audit catches silently-poisoned verdicts the
        // injected edge-test faults left behind), repair, rebuild: every
        // tenant must now equal the fault-free oracle.
        failpoint::clear();
        service.audit_step(usize::MAX);
        service.repair_quarantined();
        pool.install(|| service.build_pending());
        assert_eq!(service.quarantined_count(), 0, "threads {threads}");
        assert_eq!(service.warm_count(), TENANTS, "threads {threads}");
        for (t, sched) in scheds.iter_mut().enumerate() {
            let oracle = oracle_of(sched);
            let served = service
                .profile(t as u64)
                .unwrap_or_else(|| panic!("threads {threads}: tenant {t} not warm after repair"));
            assert!(
                served.content_eq(&oracle),
                "threads {threads}: tenant {t} diverged from the fault-free oracle"
            );
            let cycle = oracle.cycle();
            let got = service.query_totals(t as u64, 0, 2 * cycle).unwrap();
            assert_eq!(got, oracle.derive_window_totals(0, 2 * cycle), "tenant {t}");
        }
    }
}

/// CI pins `FHG_FAILPOINTS` / `FHG_FAILPOINT_SEED` for the chaos smoke
/// job; this test hands the fault schedule back to the environment (a
/// fault-free run when unset) and checks the same convergence contract
/// under whatever the environment says.
#[test]
fn env_pinned_fault_schedule_converges() {
    let _guard = faults("", 0);
    failpoint::reset_to_env();

    let mut service = ProfileService::new();
    let mut scheds: Vec<_> = (0..3usize)
        .map(|i| {
            let g = graph(20 + 5 * i, 900 + i as u64);
            let sched = DynamicColorBound::new(&g);
            service.register(i as u64, &g, &sched).unwrap();
            sched
        })
        .collect();
    service.build_pending();

    let mut state = 0xD1B5_4A32_D192_ED03u64;
    for step in 0..80u64 {
        match lcg(&mut state) % 10 {
            0..=5 => {
                let t = (lcg(&mut state) as usize) % scheds.len();
                let n = scheds[t].node_count();
                let u = (lcg(&mut state) as usize) % n;
                let mut v = (lcg(&mut state) as usize) % n;
                if u == v {
                    v = (v + 1) % n;
                }
                let event = toggle(&scheds[t], u, v, step);
                let repair = scheds[t].apply_event(event).unwrap();
                match service.patch(t as u64, &repair) {
                    Ok(_) | Err(PatchError::Quarantined(_)) => {}
                    Err(other) => panic!("step {step}: unexpected patch error {other}"),
                }
            }
            6..=7 => {
                let queries: Vec<Query> = (0..4)
                    .map(|_| Query {
                        tenant: lcg(&mut state) % 4,
                        window: (0, lcg(&mut state) % 512),
                    })
                    .collect();
                for totals in service.query_batch(&queries).into_iter().flatten() {
                    assert!(totals.tenant < 3);
                }
            }
            8 => {
                // The idle-timer form: batch size from `FHG_AUDIT_STEP`.
                service.audit_tick();
            }
            _ => {
                service.repair_quarantined();
            }
        }
    }

    failpoint::clear();
    service.audit_step(usize::MAX);
    service.repair_quarantined();
    service.build_pending();
    for (t, sched) in scheds.iter_mut().enumerate() {
        assert!(
            service.profile(t as u64).unwrap().content_eq(&oracle_of(sched)),
            "tenant {t} diverged under the environment-pinned fault schedule"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The counter ledger stays exact through failure: every refused patch
    /// is a fresh quarantine (the tenant is repaired before the next
    /// event), every repair is a rebuild, and right after any failed patch
    /// the tenant either answers queries or refuses with the typed
    /// quarantine error — never a stale success.
    #[test]
    fn failed_patches_leave_counters_and_queries_consistent(seed in 0u64..200) {
        let _guard = faults("", 0);
        failpoint::configure_with_seed("patch.after_rows=panic@0.4", seed);
        let g = graph(24, seed);
        let mut sched = DynamicColorBound::new(&g);
        let mut service = ProfileService::new();
        service.register(1, &g, &sched).unwrap();
        prop_assert_eq!(service.build_pending(), 1);

        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let (mut patched, mut rebuilt, mut refused) = (0u64, 0u64, 0u64);
        for step in 0..40u64 {
            let n = sched.node_count();
            let u = (lcg(&mut state) as usize) % n;
            let mut v = (lcg(&mut state) as usize) % n;
            if u == v { v = (v + 1) % n; }
            let repair = sched.apply_event(toggle(&sched, u, v, step)).unwrap();
            match service.patch(1, &repair) {
                Ok(PatchOutcome::Patched(_)) => patched += 1,
                Ok(PatchOutcome::Rebuilt) => rebuilt += 1,
                Ok(PatchOutcome::Cold) => prop_assert!(false, "the slot was warm"),
                Err(PatchError::Quarantined(1)) => refused += 1,
                Err(other) => prop_assert!(false, "unexpected patch error {}", other),
            }

            // After every attempt: a typed answer or a typed refusal that
            // agrees with the slot's advertised state.
            match service.query_totals(1, 0, 64) {
                Ok(_) => prop_assert!(service.quarantine_reason(1).is_none()),
                Err(QueryError::Quarantined(1)) => {
                    prop_assert_eq!(service.quarantine_reason(1), Some(QuarantineReason::PatchPanic));
                }
                Err(other) => prop_assert!(false, "unexpected query error {}", other),
            }

            // Repair immediately so the next refusal is again a *fresh*
            // quarantine and the ledger below stays exact.
            if service.quarantine_reason(1).is_some() {
                prop_assert_eq!(service.repair_quarantined(), 1);
            }
        }

        failpoint::clear();
        let stats = service.stats();
        prop_assert_eq!(stats.patches, patched);
        prop_assert_eq!(stats.quarantines, refused);
        prop_assert_eq!(stats.rebuilds, 1 + rebuilt + refused, "initial + fallbacks + repairs");
        prop_assert!(service.profile(1).unwrap().content_eq(&oracle_of(&sched)));
    }
}

// ---------------------------------------------------------------------------
// Durability chaos (PR 10): kill-mid-write lifecycles for the snapshot +
// WAL persistence plane.  The invariant extends across a process death:
// after recovering from a file cut at *any* byte, every tenant is either
// warm and bitwise-equal to a never-crashed oracle or typed-quarantined
// and rebuildable — never a panic, never a silently wrong answer.
// ---------------------------------------------------------------------------

use std::fs;
use std::path::{Path, PathBuf};

use fhg::codes::wire::{self, SectionRead};
use fhg::core::serving::{RecoverError, WalSync, WalWriter, SNAPSHOT_FILE, WAL_FILE};

/// A self-cleaning scratch directory for persistence lifecycles.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("fhg-chaos-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("chaos temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The byte offsets at which every wire section of `bytes` (after the
/// 8-byte magic) ends — the exact places a dying writer can leave a clean
/// prefix.
fn section_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut boundaries = Vec::new();
    let mut pos = 8;
    while let SectionRead::Section { end, .. } = wire::read_section(bytes, pos) {
        boundaries.push(end);
        pos = end;
    }
    boundaries
}

/// A snapshot write killed at every section boundary — and mid-section —
/// recovers to a salvageable prefix: each tenant is warm and equal to the
/// never-crashed oracle, typed-quarantined (the torn half of a slot pair),
/// or cleanly unknown.  No cut point panics.
#[test]
fn snapshot_killed_at_every_section_boundary_recovers_typed() {
    let _guard = faults("", 0);
    const TENANTS: u64 = 5;
    let mut service = ProfileService::new();
    let mut scheds = Vec::new();
    for t in 0..TENANTS {
        let g = graph(18 + 2 * t as usize, 700 + t);
        let sched = DynamicColorBound::new(&g);
        service.register(t, &g, &sched).unwrap();
        scheds.push(sched);
    }
    assert_eq!(service.build_pending() as u64, TENANTS);
    let full = service.snapshot_bytes();
    let boundaries = section_boundaries(&full);
    // META + one (content, profile) pair per slot + END.
    assert_eq!(boundaries.len() as u64, 2 + 2 * TENANTS);

    let dir = TempDir::new("snap-boundaries");
    let mut cuts: Vec<usize> = vec![0, 3, 8, full.len()];
    for &b in &boundaries {
        cuts.push(b);
        cuts.push(b.saturating_sub(3)); // mid-section: a torn last frame
        cuts.push(b + 2); // a torn header of the next frame
    }
    cuts.retain(|&c| c <= full.len());
    cuts.sort_unstable();
    cuts.dedup();

    for cut in cuts {
        fs::write(dir.path().join(SNAPSHOT_FILE), &full[..cut]).unwrap();
        if cut < 8 {
            assert!(
                matches!(ProfileService::recover(dir.path()), Err(RecoverError::BadMagic)),
                "cut {cut}: a short magic must be a typed error"
            );
            continue;
        }
        let (recovered, report) =
            ProfileService::recover(dir.path()).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        assert_eq!(
            report.snapshot_torn,
            cut != full.len(),
            "cut {cut}: every proper prefix is torn, the full file is not"
        );
        for t in 0..TENANTS {
            match recovered.profile(t) {
                Some(p) => {
                    assert!(
                        p.content_eq(service.profile(t).unwrap()),
                        "cut {cut}: tenant {t} recovered warm but diverged from the oracle"
                    );
                }
                None => match recovered.quarantine_reason(t) {
                    Some(reason) => assert_eq!(
                        reason,
                        QuarantineReason::RecoveryMismatch,
                        "cut {cut}: tenant {t}"
                    ),
                    None => assert!(
                        matches!(
                            recovered.query_totals(t, 0, 8),
                            Err(QueryError::UnknownTenant(_))
                        ),
                        "cut {cut}: tenant {t} must be warm, quarantined or cleanly unknown"
                    ),
                },
            }
        }
        // Quarantined slots are rebuildable: their content survived, so a
        // cold rebuild brings them back warm and oracle-equal.
        let mut recovered = recovered;
        recovered.repair_quarantined();
        for t in 0..TENANTS {
            if let Some(p) = recovered.profile(t) {
                assert!(p.content_eq(service.profile(t).unwrap()), "cut {cut}: tenant {t}");
            }
        }
    }
}

/// A WAL torn at every byte offset of its last frame recovers to the
/// longest clean prefix of events: replayed frames match the oracle that
/// saw exactly those events, the torn tail is physically truncated, and a
/// second recovery starts from the already-clean file.
#[test]
fn wal_truncated_at_every_byte_of_the_last_frame_recovers_prefix() {
    let _guard = faults("", 0);
    let g = graph(26, 811);
    let mut sched = DynamicColorBound::new(&g);
    let mut service = ProfileService::new();
    service.register(1, &g, &sched).unwrap();
    assert_eq!(service.build_pending(), 1);

    let dir = TempDir::new("wal-bytes");
    service.snapshot(dir.path()).unwrap();

    // K events through the WAL; record the file length after each append
    // and the oracle profile after each event.
    const K: usize = 4;
    let mut wal = WalWriter::with_sync(dir.path(), WalSync::Never).unwrap();
    let mut ends = vec![fs::metadata(wal.path()).unwrap().len() as usize];
    let mut oracles = vec![oracle_of(&sched)];
    for step in 0..K as u64 {
        let u = (step as usize * 3) % sched.node_count();
        let v = (u + 5) % sched.node_count();
        let repair = sched.apply_event(toggle(&sched, u, v, step)).unwrap();
        wal.append(1, &repair).unwrap();
        ends.push(fs::metadata(wal.path()).unwrap().len() as usize);
        oracles.push(oracle_of(&sched));
    }
    drop(wal);
    let full_wal = fs::read(dir.path().join(WAL_FILE)).unwrap();
    assert_eq!(*ends.last().unwrap(), full_wal.len());

    // Cut the log at every byte of the last frame (and at each earlier
    // frame boundary for good measure).
    let mut cuts: Vec<usize> = (ends[K - 1]..=ends[K]).collect();
    cuts.extend_from_slice(&ends[..K]);
    for cut in cuts {
        fs::write(dir.path().join(WAL_FILE), &full_wal[..cut]).unwrap();
        let (recovered, report) =
            ProfileService::recover(dir.path()).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        // The longest frame boundary at or before the cut decides how many
        // events survived.
        let survived = ends.iter().take_while(|&&e| e <= cut).count() - 1;
        assert_eq!(
            report.wal_frames_replayed, survived,
            "cut {cut}: exactly the clean prefix replays"
        );
        let torn = !ends.contains(&cut);
        assert_eq!(report.wal_torn, torn, "cut {cut}");
        if torn {
            assert_eq!(report.wal_truncated_to, Some(ends[survived] as u64), "cut {cut}");
            assert_eq!(
                fs::metadata(dir.path().join(WAL_FILE)).unwrap().len(),
                ends[survived] as u64,
                "cut {cut}: the torn tail must be physically truncated"
            );
        }
        let served = recovered.profile(1).unwrap_or_else(|| panic!("cut {cut}: tenant 1 cold"));
        assert!(
            served.content_eq(&oracles[survived]),
            "cut {cut}: recovered state must equal the oracle that saw {survived} events"
        );

        // The file is now clean: recovering again replays the same prefix
        // with no tear.
        let (again, report2) = ProfileService::recover(dir.path()).unwrap();
        assert!(!report2.wal_torn, "cut {cut}: second recovery sees a clean log");
        assert_eq!(report2.wal_frames_replayed, survived);
        assert!(again.profile(1).unwrap().content_eq(&oracles[survived]), "cut {cut}");
    }
}

/// Recovery under fire: replay faults (injected `recover.replay` kills and
/// real `patch.after_rows` panics) never unwind out of `recover`; every
/// tenant lands warm-and-oracle-equal or typed-quarantined, and since a
/// faulty recovery never corrupts the files, a later fault-free recovery
/// from the same directory converges fully.
#[test]
fn faulty_replay_quarantines_typed_and_the_disk_stays_convergent() {
    let _guard = faults("", 0);
    const TENANTS: u64 = 4;
    let mut service = ProfileService::new();
    let mut scheds = Vec::new();
    for t in 0..TENANTS {
        let g = graph(20 + 3 * t as usize, 555 + t);
        let sched = DynamicColorBound::new(&g);
        service.register(t, &g, &sched).unwrap();
        scheds.push(sched);
    }
    assert_eq!(service.build_pending() as u64, TENANTS);

    let dir = TempDir::new("faulty-replay");
    service.snapshot(dir.path()).unwrap();
    let mut wal = WalWriter::with_sync(dir.path(), WalSync::Never).unwrap();
    let mut state = 0xFEED_FACE_CAFE_BEEFu64;
    for step in 0..24u64 {
        let t = (lcg(&mut state) % TENANTS) as usize;
        let n = scheds[t].node_count();
        let u = (lcg(&mut state) as usize) % n;
        let mut v = (lcg(&mut state) as usize) % n;
        if u == v {
            v = (v + 1) % n;
        }
        let event = toggle(&scheds[t], u, v, step);
        let repair = scheds[t].apply_event(event).unwrap();
        wal.append(t as u64, &repair).unwrap();
        service.patch(t as u64, &repair).unwrap();
    }
    drop(wal);

    failpoint::configure_with_seed("recover.replay=panic@0.25,patch.after_rows=panic@0.2", 99);
    let (recovered, report) =
        ProfileService::recover(dir.path()).expect("faults must not unwind out of recover");
    assert_eq!(report.wal_frames_replayed + report.wal_frames_skipped, 24);
    for t in 0..TENANTS {
        match recovered.profile(t) {
            Some(p) => assert!(
                p.content_eq(service.profile(t).unwrap()),
                "tenant {t}: a fully-replayed tenant must equal the live service"
            ),
            None => {
                let reason = recovered
                    .quarantine_reason(t)
                    .unwrap_or_else(|| panic!("tenant {t}: cold but not quarantined"));
                assert!(
                    matches!(
                        reason,
                        QuarantineReason::RecoveryMismatch | QuarantineReason::PatchPanic
                    ),
                    "tenant {t}: {reason}"
                );
            }
        }
    }

    // The faulty recovery mutated only its in-memory service — the files
    // are exactly as the writer left them, so a clean pass converges.
    failpoint::clear();
    let (clean, clean_report) = ProfileService::recover(dir.path()).unwrap();
    assert_eq!(clean_report.wal_frames_replayed, 24);
    assert_eq!(clean_report.quarantined, 0);
    for t in 0..TENANTS {
        assert!(
            clean.profile(t).unwrap().content_eq(service.profile(t).unwrap()),
            "tenant {t}: fault-free recovery from the same directory must converge"
        );
    }
}

/// Write-side faults are typed and atomic: a killed snapshot leaves the
/// previous snapshot serving and no temp debris; a killed append leaves
/// the log byte-identical and the next append lands on a clean boundary.
#[test]
fn killed_writers_leave_no_debris_and_typed_errors() {
    let _guard = faults("", 0);
    let g = graph(22, 333);
    let mut sched = DynamicColorBound::new(&g);
    let mut service = ProfileService::new();
    service.register(1, &g, &sched).unwrap();
    assert_eq!(service.build_pending(), 1);

    let dir = TempDir::new("killed-writers");
    service.snapshot(dir.path()).unwrap();
    let golden = fs::read(dir.path().join(SNAPSHOT_FILE)).unwrap();

    // Mutate, then die inside the second snapshot: typed error, the old
    // snapshot is untouched, no temp file survives.
    let repair = sched.apply_event(toggle(&sched, 0, 7, 0)).unwrap();
    service.patch(1, &repair).unwrap();
    failpoint::configure("snapshot.write=err");
    let err = service.snapshot(dir.path()).expect_err("the injected fault must surface");
    assert_eq!(err.kind(), std::io::ErrorKind::Other);
    assert_eq!(
        fs::read(dir.path().join(SNAPSHOT_FILE)).unwrap(),
        golden,
        "a failed snapshot must leave the previous one byte-identical"
    );
    assert_eq!(
        fs::read_dir(dir.path()).unwrap().count(),
        1,
        "no temp debris after a failed snapshot"
    );

    // A killed append: typed error, zero bytes written, and the caller
    // contract (do not apply on Err) keeps log and service in step — the
    // next append lands on a clean frame boundary.
    failpoint::configure("wal.append=err");
    let mut wal = WalWriter::with_sync(dir.path(), WalSync::Never).unwrap();
    let before = fs::metadata(wal.path()).unwrap().len();
    let repair2 = sched.apply_event(toggle(&sched, 1, 8, 1)).unwrap();
    assert!(wal.append(1, &repair2).is_err());
    assert_eq!(wal.frames_appended(), 0);
    assert_eq!(
        fs::metadata(wal.path()).unwrap().len(),
        before,
        "a refused append must not touch the file"
    );

    failpoint::clear();
    wal.append(1, &repair2).expect("disarmed append succeeds");
    service.patch(1, &repair2).unwrap();
    drop(wal);
    let (recovered, report) = ProfileService::recover(dir.path()).unwrap();
    assert!(!report.wal_torn);
    // The recovered state replays [event 2] over the old snapshot; the
    // live service saw events 1 and 2.  Convergence is against an oracle
    // that saw the same prefix: snapshot(pre-event-1) is stale, so only
    // the WAL'd event applies — recovery must still be typed and warm.
    assert_eq!(report.wal_frames_replayed, 1);
    assert!(recovered.profile(1).is_some() || recovered.quarantine_reason(1).is_some());
}
