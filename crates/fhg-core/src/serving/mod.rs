//! The profile-serving tier: cached closed-form profiles answering windowed
//! queries for many tenants, built for a long-lived process.
//!
//! [`ProfileService`] fronts the closed-form analytics of
//! [`CycleProfile`](crate::analysis::CycleProfile) with the three things a
//! server needs that a batch binary does not:
//!
//! * **A schedule-hash-keyed profile cache.**  Every registered tenant maps
//!   to a 64-bit content key — FNV-1a over the conflict graph's adjacency
//!   and the residue schedule's `(slot, modulus)` assignment plus the first
//!   holiday — and profiles are cached **per key, not per tenant**: tenants
//!   submitting an identical (graph, schedule) pair share one immutable
//!   profile build.  The key is returned by [`ProfileService::register`] so
//!   callers can correlate invalidations.
//! * **An explicit invalidation contract.**  Nothing expires implicitly: a
//!   cached profile is dropped only by [`ProfileService::invalidate`] (or
//!   [`invalidate_all`](ProfileService::invalidate_all)), which evicts the
//!   *schedule key* — every tenant sharing it goes cold together — and by
//!   re-[`register`](ProfileService::register)ing a tenant whose schedule
//!   content changed (the hash no longer matches, so the tenant rebinds to
//!   a fresh key; the old key is dropped when its last tenant leaves).
//!   Cold keys rebuild on the next [`build_pending`](ProfileService::build_pending).
//! * **Total, typed request handling.**  Registration validates *before*
//!   building — a non-periodic scheduler or an over-budget cycle is a
//!   [`RegisterError`], never an unwrap crash or a budget assert — and
//!   queries return [`QueryError`] for unknown tenants or cold profiles.
//!   The window fold itself is total: zero-width, inverted and sub-cycle
//!   windows all take defined paths (see
//!   [`CycleProfile::derive_window`](crate::analysis::CycleProfile::derive_window)).
//!
//! # Slot lifecycle: Building → Warm → Quarantined
//!
//! Every cached slot is in exactly one [`SlotState`]:
//!
//! * **Building** — registered (or invalidated) but not yet built; queries
//!   return [`QueryError::ProfileNotBuilt`] until the next
//!   [`build_pending`](ProfileService::build_pending).
//! * **Warm** — a verified [`CycleProfile`] is cached and serving.
//! * **Quarantined** — something went wrong *after* a commit point (a
//!   panic mid-patch, a build worker that died, a background-audit
//!   mismatch) and the cached state can no longer be trusted.  Queries
//!   return the typed [`QueryError::Quarantined`] — the tier never serves
//!   a possibly-poisoned profile — and
//!   [`repair_quarantined`](ProfileService::repair_quarantined) rebuilds
//!   the slot cold from its (graph, schedule) content, which is always
//!   kept consistent.  The [`QuarantineReason`] is retained for
//!   observability.
//!
//! # Incremental repair and the commit-point contract
//!
//! A mutating tenant does not have to go cold: [`ProfileService::patch`]
//! applies one dynamic edge event (the [`EventRepair`] its scheduler
//! returned) straight to the cached profile — copy-on-write detach when
//! the profile is shared, and lane-level repair through
//! [`CycleProfile::patch`](crate::analysis::CycleProfile::patch), which
//! re-tests only the edges at the recoloured nodes and the inserted edge.
//! A repair the profile refuses (its verdict is already broken) falls back
//! to a full rebuild, an `O(n + m)` edge pass.
//!
//! The patch runs **prepare → validate → commit**.  Prepare mirrors the
//! edge event onto the slot's private graph (a typed [`PatchError::Graph`]
//! failure here leaves everything untouched) and stages the row changes.
//! Validate re-checks the cycle budget; a violation **rolls back** the
//! rows and the edge event, so the slot's graph/schedule/profile trio is
//! bitwise the pre-event state and keeps serving
//! ([`PatchError::BudgetExceeded`]).  Only then does the profile repair
//! commit.  A panic past the prepare phase (an injected failpoint, a bug)
//! is caught and **quarantines** the tenant instead of unwinding into the
//! caller or leaving a half-mutated slot serving wrong answers
//! ([`PatchError::Quarantined`]); the slot's content is post-event, so the
//! cold rebuild converges with the caller's scheduler.
//!
//! # Background integrity audit
//!
//! [`ProfileService::audit_step`] is an amortized scrubber: each call
//! re-derives `k` warm slots (round-robin by key) through the sequential
//! reference sweep [`analyze_schedule_reference`], which emits every
//! holiday of one cycle and checks it with a fresh
//! [`GraphChecker`](crate::analysis::GraphChecker) — a path that shares no
//! state and no verification code with the serving fast paths — and
//! quarantines any slot whose cached totals or independence verdict
//! disagree.  This is the
//! layer that catches *silent* corruption (e.g. an injected `verify.edge`
//! fault that flips a patched verdict) which typed errors and panic
//! quarantine cannot see.
//! [`AuditStats`] joins [`CacheStats`] in the observability surface.
//!
//! Every cache transition is counted ([`ProfileService::stats`],
//! [`CacheStats`]): hits, misses, in-place patches, full rebuilds,
//! evictions and quarantines.
//!
//! # Fault injection
//!
//! The tier's failure paths are driven deterministically by the
//! [`failpoint`](crate::failpoint) sites `patch.after_rows`,
//! `build.slot`, `query.batch`, `profile.patch.validate`,
//! `profile.patch.commit`, `verify.edge`, `wal.append`,
//! `snapshot.write` and `recover.replay` (see `FHG_FAILPOINTS`);
//! `tests/chaos.rs` replays seeded event/query/fault interleavings
//! against a fault-free oracle at several thread counts, and kills
//! snapshot/WAL writes at every byte boundary.
//!
//! # Durability
//!
//! The [`persist`] submodule makes the tier crash-durable: checksummed
//! atomic snapshots ([`ProfileService::snapshot`]), an append-only event
//! WAL ([`WalWriter`]) and torn-write recovery
//! ([`ProfileService::recover`]) that replays the log through the patch
//! plane and audits a sample before serving.  See that module's docs for
//! the on-disk format and the recovery state machine; the
//! `FHG_SNAPSHOT_DIR` ([`snapshot_dir`]) and `FHG_WAL_SYNC`
//! ([`wal_sync`]) knobs live there too.
//!
//! # Batch front and sharding
//!
//! [`ProfileService::build_pending`] builds every cold profile across the
//! persistent worker pool, one worker per profile; each build runs its
//! edge pass on the worker that runs it.
//! [`ProfileService::query_batch`] / [`query_batch_full`](ProfileService::query_batch_full)
//! answer a request slice in parallel the same way; the window fold keeps
//! no scratch, so steady-state totals queries perform **zero heap
//! allocations** per request (proved by `tests/zero_alloc.rs`).  The
//! workers write no shared state per request: a batch adds its hits and
//! misses to the counters once, when it returns.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;

use fhg_graph::{EdgeEventKind, Graph, GraphError};
use rayon::prelude::*;

use crate::analysis::{
    analyze_schedule_reference, AnalysisTotals, CycleProfile, PatchStats, ScheduleAnalysis,
};
use crate::dynamic::EventRepair;
use crate::scheduler::Scheduler;
use crate::schedulers::residue::{ResidueSchedule, RowChange};

pub mod persist;

pub use persist::{
    snapshot_dir, wal_sync, RecoverError, RecoveryReport, SnapshotStats, WalSync, WalWriter,
    SNAPSHOT_FILE, WAL_FILE, WAL_SYNC,
};

/// Default number of warm slots one [`ProfileService::audit_step`] call
/// re-derives.  Override at runtime with `FHG_AUDIT_STEP`; see
/// [`audit_step_size`].
pub const AUDIT_STEP: usize = 8;

/// The per-call audit batch size, decided once per process and cached in
/// a `OnceLock`: the `FHG_AUDIT_STEP` environment variable when set (so
/// deployments can trade scrub latency against steady-state overhead
/// without recompiling), otherwise [`AUDIT_STEP`].
///
/// Same warn-and-fall-back contract as every other `FHG_*` knob: a
/// malformed value logs one warning to stderr and falls back to the
/// default (pinned by the unit tests below).
pub fn audit_step_size() -> usize {
    static STEP: OnceLock<usize> = OnceLock::new();
    *STEP.get_or_init(|| crate::env_knob("FHG_AUDIT_STEP", AUDIT_STEP))
}

/// Why a scheduler could not be registered: the service refuses, with a
/// typed error, every input the closed-form profile cannot represent —
/// the preconditions that used to be unwraps and asserts deep in the
/// analysis engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterError {
    /// The scheduler exposes no perfectly periodic residue view
    /// ([`Scheduler::residue_schedule`] returned `None`), so no cycle
    /// profile exists to build.  Analyze it with the sequential engine
    /// instead ([`crate::analysis::analyze_schedule`]).
    NotPeriodic {
        /// The offending scheduler's [`Scheduler::name`].
        scheduler: String,
    },
    /// The schedule's cycle (possibly a saturated lcm) exceeds the profile
    /// budget [`CycleProfile::MAX_CYCLE`].
    CycleTooLong {
        /// The schedule's cycle length.
        cycle: u64,
        /// The budget it exceeded.
        max: u64,
    },
}

impl fmt::Display for RegisterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegisterError::NotPeriodic { scheduler } => {
                write!(f, "scheduler {scheduler:?} exposes no periodic residue view")
            }
            RegisterError::CycleTooLong { cycle, max } => {
                write!(f, "cycle {cycle} exceeds the profile budget {max}")
            }
        }
    }
}

impl std::error::Error for RegisterError {}

/// Why a query could not be answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// No tenant with this id is registered.
    UnknownTenant(u64),
    /// The tenant is registered but its profile is cold (never built, or
    /// explicitly invalidated); call
    /// [`ProfileService::build_pending`] first.
    ProfileNotBuilt(u64),
    /// The tenant's slot is quarantined — a patch panic, a build-worker
    /// death or an audit mismatch marked its cached state untrustworthy —
    /// and the service refuses to serve a possibly-poisoned answer.  Call
    /// [`ProfileService::repair_quarantined`] to rebuild it cold.
    Quarantined(u64),
    /// The query worker died mid-derivation (a bug, or an injected
    /// `query.batch` fault).  The tenant's cached state is untouched;
    /// retrying is safe.
    Internal(u64),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownTenant(t) => write!(f, "tenant {t} is not registered"),
            QueryError::ProfileNotBuilt(t) => {
                write!(f, "tenant {t}'s profile is cold; run build_pending first")
            }
            QueryError::Quarantined(t) => {
                write!(f, "tenant {t} is quarantined; run repair_quarantined first")
            }
            QueryError::Internal(t) => {
                write!(f, "the worker answering tenant {t} died; retrying is safe")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// A point-in-time snapshot of the service's cache-activity counters —
/// see [`ProfileService::stats`] for what each counter means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Queries answered from a warm profile.
    pub hits: u64,
    /// Queries refused (unknown tenant, cold or quarantined profile) and
    /// patches aimed at unknown tenants.  A batch request whose worker died
    /// ([`QueryError::Internal`]) counts as neither a hit nor a miss.
    pub misses: u64,
    /// Edge events repaired in place by [`ProfileService::patch`].
    pub patches: u64,
    /// Full profile builds: every [`ProfileService::build_pending`] build
    /// plus every patch that fell back to a rebuild.
    pub rebuilds: u64,
    /// Warm profiles dropped: explicit invalidations and slots released by
    /// their last tenant.
    pub evictions: u64,
    /// Slots moved to [`SlotState::Quarantined`]: patch panics, build
    /// panics and audit mismatches.
    pub quarantines: u64,
}

/// A point-in-time snapshot of the background scrubber's counters — see
/// [`ProfileService::audit_step`].  Monotonic, like [`CacheStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AuditStats {
    /// [`ProfileService::audit_step`] calls made.
    pub steps: u64,
    /// Warm slots re-derived through the reference sweep.
    pub audited: u64,
    /// Audited slots whose cached totals or verdict disagreed with the
    /// reference sweep.
    pub mismatches: u64,
    /// Slots the audit quarantined (equals `mismatches` — retained
    /// separately so a future lenient mode can diverge them).
    pub quarantined: u64,
}

/// The service's internal counters — atomic because single-query callers
/// ([`ProfileService::query_totals`], [`ProfileService::query`]) may count
/// from several threads at once under a shared `&self`.  The batch front
/// does not count per request: each batch adds its totals once.
#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    patches: AtomicU64,
    rebuilds: AtomicU64,
    evictions: AtomicU64,
    quarantines: AtomicU64,
    audit_steps: AtomicU64,
    audited: AtomicU64,
    audit_mismatches: AtomicU64,
    audit_quarantined: AtomicU64,
}

/// What [`ProfileService::patch`] did with an edge event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchOutcome {
    /// The cached profile was repaired in place; the stats say how much
    /// work that took.
    Patched(PatchStats),
    /// The repair was refused (the verdict was already broken, and only a
    /// rebuild can clear it); the profile was rebuilt from scratch instead —
    /// still warm, just not incremental.
    Rebuilt,
    /// The tenant's slot was cold: its graph and schedule content were
    /// updated, but there is no profile to repair until the next
    /// [`ProfileService::build_pending`].
    Cold,
}

/// Why [`ProfileService::patch`] could not apply an edge event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchError {
    /// No tenant with this id is registered.
    UnknownTenant(u64),
    /// The event does not apply to the tenant's graph (inserting an edge
    /// that exists, deleting one that doesn't, out-of-range endpoints) —
    /// the repair came from a different scheduler than the one registered.
    /// The slot is left untouched.
    Graph(GraphError),
    /// The mutated schedule's cycle would outgrow the profile budget; the
    /// closed form cannot represent the post-event tenant, so the edge
    /// event and row changes were **rolled back** — the slot still serves
    /// its pre-event content, bitwise unchanged.
    BudgetExceeded(RegisterError),
    /// The tenant's slot is quarantined: either it already was when the
    /// patch arrived, or this very patch panicked past its commit point
    /// and the service quarantined it rather than serve a half-mutated
    /// profile.  The slot's (graph, schedule) content is post-event, so
    /// [`ProfileService::repair_quarantined`] converges with the caller's
    /// scheduler.
    Quarantined(u64),
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchError::UnknownTenant(t) => write!(f, "tenant {t} is not registered"),
            PatchError::Graph(e) => write!(f, "event does not apply to the tenant's graph: {e}"),
            PatchError::BudgetExceeded(e) => {
                write!(f, "mutated schedule would outgrow the profile budget: {e}")
            }
            PatchError::Quarantined(t) => {
                write!(f, "tenant {t} is quarantined; run repair_quarantined first")
            }
        }
    }
}

impl std::error::Error for PatchError {}

/// One windowed request: analyze tenant `tenant` over the holiday window
/// `[window.0, window.1)` (offsets relative to the schedule's first
/// holiday; `window.1 <= window.0` is the empty window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// The tenant whose schedule to analyze.
    pub tenant: u64,
    /// The half-open window `[t0, t1)`.
    pub window: (u64, u64),
}

/// A totals-only windowed response.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowTotals {
    /// The originating request's tenant.
    pub tenant: u64,
    /// The originating request's window.
    pub window: (u64, u64),
    /// The whole-window aggregates.
    pub totals: AnalysisTotals,
}

/// A full per-node windowed response.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAnalysis {
    /// The originating request's tenant.
    pub tenant: u64,
    /// The originating request's window.
    pub window: (u64, u64),
    /// The per-node analysis of the window.
    pub analysis: ScheduleAnalysis,
}

/// Why a slot was quarantined — retained on the slot for observability
/// ([`ProfileService::quarantine_reason`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// [`ProfileService::patch`] panicked past its commit point; the
    /// cached profile may be half-mutated.
    PatchPanic,
    /// The slot's build worker died inside
    /// [`ProfileService::build_pending`].
    BuildPanic,
    /// [`ProfileService::audit_step`] re-derived the slot and its cached
    /// totals or independence verdict disagreed with the reference sweep.
    AuditMismatch,
    /// [`ProfileService::recover`] could not fully restore the slot: its
    /// profile section was torn or corrupt, or replaying one of its WAL
    /// frames faulted.  The slot's (graph, schedule) content is intact, so
    /// [`ProfileService::repair_quarantined`] rebuilds it cold.
    RecoveryMismatch,
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineReason::PatchPanic => write!(f, "a patch panicked past its commit point"),
            QuarantineReason::BuildPanic => write!(f, "the profile build worker died"),
            QuarantineReason::AuditMismatch => {
                write!(f, "the background audit found the cached profile diverged")
            }
            QuarantineReason::RecoveryMismatch => {
                write!(f, "crash recovery could not fully restore the cached profile")
            }
        }
    }
}

/// The lifecycle state of a cached slot — see the module docs for the
/// Building → Warm → Quarantined contract.
///
/// `Warm` carries its profile inline: slots already live behind the
/// service's map, nearly every slot is warm in steady state, and boxing
/// would put one more pointer chase on every query resolve.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
pub enum SlotState {
    /// Registered (or invalidated) but not yet built; the next
    /// [`ProfileService::build_pending`] builds it.
    Building,
    /// A verified profile is cached and serving.
    Warm(CycleProfile),
    /// The cached state can no longer be trusted; queries are refused
    /// until [`ProfileService::repair_quarantined`] rebuilds the slot.
    Quarantined(QuarantineReason),
}

/// One cached (graph, schedule) pair and its profile, shared by every
/// tenant whose content hashes to the same key.
struct ProfileSlot {
    graph: Graph,
    view: ResidueSchedule,
    start: u64,
    name: String,
    /// Where the slot is in the Building → Warm → Quarantined lifecycle.
    /// The (graph, view) content above is always consistent regardless of
    /// state — quarantine poisons only the cached profile.
    state: SlotState,
    /// How many registered tenants point at this slot.
    refs: usize,
    /// Whether this slot was detached for mutation by
    /// [`ProfileService::patch`]: its key is synthetic (never a content
    /// hash), it belongs to exactly one tenant, and registrations can
    /// never alias it.
    private: bool,
}

/// The multi-tenant profile cache and batch query front — see the module
/// docs for the cache keying and invalidation contract.
#[derive(Default)]
pub struct ProfileService {
    /// tenant id → schedule key.
    tenants: HashMap<u64, u64>,
    /// schedule key → cached slot.
    slots: HashMap<u64, ProfileSlot>,
    /// Cache-activity counters, snapshot by [`ProfileService::stats`].
    counters: Counters,
    /// Next candidate synthetic key for detached slots (collision-checked
    /// against live keys before use).
    next_private_key: u64,
    /// The last schedule key the background audit visited; each
    /// [`ProfileService::audit_step`] resumes after it (round-robin by
    /// key order), so the scrubber covers every warm slot over time.
    audit_cursor: u64,
}

impl ProfileService {
    /// An empty service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-registers) tenant `tenant` with its conflict graph
    /// and scheduler, returning the schedule key the tenant was bound to.
    /// Validates every profile precondition up front — periodicity and the
    /// cycle budget — and returns a typed [`RegisterError`] instead of
    /// crashing later.  The profile itself is *not* built here:
    /// registration marks the key pending and
    /// [`ProfileService::build_pending`] builds all pending keys sharded
    /// across the worker pool.  Re-registering a tenant whose content
    /// changed rebinds it (the old key is dropped with its last tenant);
    /// re-registering identical content is a no-op that keeps any warm
    /// profile.
    pub fn register<S: Scheduler + ?Sized>(
        &mut self,
        tenant: u64,
        graph: &Graph,
        scheduler: &S,
    ) -> Result<u64, RegisterError> {
        let Some(view) = scheduler.residue_schedule() else {
            return Err(RegisterError::NotPeriodic { scheduler: scheduler.name().to_string() });
        };
        let cycle = view.cycle();
        if cycle > CycleProfile::MAX_CYCLE {
            return Err(RegisterError::CycleTooLong { cycle, max: CycleProfile::MAX_CYCLE });
        }
        let start = scheduler.first_holiday();
        let key = schedule_key(graph, view, start);
        match self.tenants.get(&tenant) {
            Some(&old) if old == key => return Ok(key),
            Some(&old) => self.release_key(old),
            None => {}
        }
        self.tenants.insert(tenant, key);
        self.slots.entry(key).and_modify(|slot| slot.refs += 1).or_insert_with(|| ProfileSlot {
            graph: graph.clone(),
            view: view.clone(),
            start,
            name: scheduler.name().to_string(),
            state: SlotState::Building,
            refs: 1,
            private: false,
        });
        Ok(key)
    }

    /// Unregisters a tenant; its schedule key (and cached profile) is
    /// dropped when the last tenant sharing it leaves.  Returns whether the
    /// tenant was registered.
    pub fn remove(&mut self, tenant: u64) -> bool {
        match self.tenants.remove(&tenant) {
            Some(key) => {
                self.release_key(key);
                true
            }
            None => false,
        }
    }

    fn release_key(&mut self, key: u64) {
        if let Some(slot) = self.slots.get_mut(&key) {
            slot.refs -= 1;
            if slot.refs == 0 {
                if let Some(slot) = self.slots.remove(&key) {
                    if matches!(slot.state, SlotState::Warm(_)) {
                        self.counters.evictions.fetch_add(1, Relaxed);
                    }
                }
            }
        }
    }

    /// Explicitly invalidates a tenant's cached profile — the *schedule
    /// key* goes cold, so every tenant sharing it rebuilds on the next
    /// [`ProfileService::build_pending`].  Returns whether a warm profile
    /// was actually dropped.  Quarantined slots are untouched: they leave
    /// quarantine only through
    /// [`repair_quarantined`](ProfileService::repair_quarantined).
    pub fn invalidate(&mut self, tenant: u64) -> bool {
        let Some(&key) = self.tenants.get(&tenant) else {
            return false;
        };
        match self.slots.get_mut(&key) {
            Some(slot) if matches!(slot.state, SlotState::Warm(_)) => {
                slot.state = SlotState::Building;
                self.counters.evictions.fetch_add(1, Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Drops every cached profile (registrations stay; quarantined slots
    /// are untouched, as in [`invalidate`](ProfileService::invalidate)).
    pub fn invalidate_all(&mut self) {
        for slot in self.slots.values_mut() {
            if matches!(slot.state, SlotState::Warm(_)) {
                slot.state = SlotState::Building;
                self.counters.evictions.fetch_add(1, Relaxed);
            }
        }
    }

    /// Builds every cold ([`SlotState::Building`]) profile across the
    /// persistent worker pool, one worker per profile.  Returns how many
    /// profiles were built.
    /// Idempotent: warm profiles are untouched, so the service stays
    /// bitwise-stable across calls.
    ///
    /// Crash-only: each build job runs isolated — a worker that panics
    /// (a bug, or an injected `build.slot` fault) poisons **only its own
    /// slot**, which is quarantined ([`QuarantineReason::BuildPanic`])
    /// while every other slot finishes warm; the panic never unwinds into
    /// the caller.
    pub fn build_pending(&mut self) -> usize {
        let pending: Vec<u64> = self
            .slots
            .iter()
            .filter(|(_, slot)| matches!(slot.state, SlotState::Building))
            .map(|(&key, _)| key)
            .collect();
        let mut building: Vec<(u64, ProfileSlot)> = pending
            .into_iter()
            .map(|key| {
                let slot = self.slots.remove(&key).expect("pending key was just enumerated");
                (key, slot)
            })
            .collect();
        let outcome = building.par_iter_mut().for_each_isolated(|(_, slot)| {
            crate::fail_point!("build.slot");
            slot.state = SlotState::Warm(CycleProfile::build(
                &slot.view,
                slot.start,
                slot.graph.node_count(),
                &slot.graph,
            ));
        });
        for poison in &outcome.panics {
            building[poison.index].1.state = SlotState::Quarantined(QuarantineReason::BuildPanic);
        }
        let built = building.len() - outcome.panics.len();
        self.counters.quarantines.fetch_add(outcome.panics.len() as u64, Relaxed);
        for (key, slot) in building {
            self.slots.insert(key, slot);
        }
        self.counters.rebuilds.fetch_add(built as u64, Relaxed);
        built
    }

    /// Releases every quarantined slot back to [`SlotState::Building`] and
    /// rebuilds it cold from its (graph, schedule) content — which is
    /// always consistent, so the rebuilt profile converges with the
    /// tenant's live scheduler.  Returns how many slots were released.
    /// (The rebuild goes through [`build_pending`](ProfileService::build_pending),
    /// so any independently-cold slots build too; if a fault schedule is
    /// still injecting build panics the rebuild may re-quarantine, which
    /// the next repair call retries — crash-only all the way down.)
    pub fn repair_quarantined(&mut self) -> usize {
        let mut released = 0;
        for slot in self.slots.values_mut() {
            if matches!(slot.state, SlotState::Quarantined(_)) {
                slot.state = SlotState::Building;
                released += 1;
            }
        }
        if released > 0 {
            self.build_pending();
        }
        released
    }

    /// Applies one dynamic edge event to `tenant`'s cached profile **in
    /// place** — the serving face of the incremental repair plane.  The
    /// caller drives its scheduler first
    /// ([`crate::dynamic::DynamicColorBound::apply_event`]) and hands the
    /// returned [`EventRepair`] here; the service then:
    ///
    /// 1. **detaches** the tenant onto a private copy-on-write slot if its
    ///    profile is shared (other tenants keep the unmutated original and
    ///    stay warm), or moves the slot off its content key if exclusive
    ///    (so later registrations of the *old* content cannot alias the
    ///    mutated slot);
    /// 2. mirrors the edge event onto the slot's graph and the row changes
    ///    onto its residue view;
    /// 3. repairs the cached [`CycleProfile`] through
    ///    [`CycleProfile::patch`], which tests the edges the event touched
    ///    against the live graph — **unless** the patch is refused (the
    ///    verdict is already broken), in which case it degrades to a full
    ///    rebuild, still in this call.
    ///
    /// Cold slots absorb the content change and stay cold
    /// ([`PatchOutcome::Cold`]).  A mutated schedule that would outgrow the
    /// cycle budget is **rolled back** — edge event and rows restored,
    /// the slot keeps serving its pre-event content — with a typed
    /// [`PatchError::BudgetExceeded`].  A panic past the graph edit is
    /// caught and quarantines the tenant ([`PatchError::Quarantined`])
    /// instead of unwinding into the caller; its content stays post-event
    /// so [`repair_quarantined`](ProfileService::repair_quarantined)
    /// converges with the caller's scheduler.  After warm-up, the in-place
    /// path performs zero heap allocations (proved by
    /// `tests/zero_alloc.rs`).
    pub fn patch(&mut self, tenant: u64, repair: &EventRepair) -> Result<PatchOutcome, PatchError> {
        let Some(&key) = self.tenants.get(&tenant) else {
            self.counters.misses.fetch_add(1, Relaxed);
            return Err(PatchError::UnknownTenant(tenant));
        };
        let key = self.detach_for_write(tenant, key);
        let Self { slots, counters, .. } = self;
        let slot = slots.get_mut(&key).expect("detach_for_write placed the slot");

        // Prepare: mirror the event onto the slot's private graph copy
        // first.  A failure here means the repair came from a scheduler
        // that is not this tenant's registered content, and leaves the
        // slot untouched.
        let event = repair.event;
        match event.kind {
            EdgeEventKind::Insert => slot.graph.add_edge(event.u, event.v),
            EdgeEventKind::Delete => slot.graph.remove_edge(event.u, event.v),
        }
        .map_err(PatchError::Graph)?;

        // Everything past the graph edit runs under `catch_unwind`: a
        // panic in the row application, the profile repair or the rebuild
        // (injected via `patch.after_rows` / `profile.patch.*`, or a real
        // bug) must not unwind into the caller, and must not leave a
        // half-mutated profile serving — the slot is quarantined instead.
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            Self::patch_in_place(&mut *slot, counters, tenant, repair)
        }));
        match attempt {
            Ok(result) => result,
            Err(_) => {
                slot.state = SlotState::Quarantined(QuarantineReason::PatchPanic);
                counters.quarantines.fetch_add(1, Relaxed);
                Err(PatchError::Quarantined(tenant))
            }
        }
    }

    /// The validate + commit phases of [`ProfileService::patch`], run
    /// under its `catch_unwind` with the graph edit already applied.
    fn patch_in_place(
        slot: &mut ProfileSlot,
        counters: &Counters,
        tenant: u64,
        repair: &EventRepair,
    ) -> Result<PatchOutcome, PatchError> {
        let event = repair.event;
        for change in repair.row_changes() {
            slot.view.apply_row(change);
        }
        crate::fail_point!("patch.after_rows");

        // A quarantined slot still absorbs the content change (so the
        // eventual cold rebuild converges with the caller's scheduler),
        // but its cached profile stays untrusted.
        if matches!(slot.state, SlotState::Quarantined(_)) {
            return Err(PatchError::Quarantined(tenant));
        }
        if matches!(slot.state, SlotState::Building) {
            return Ok(PatchOutcome::Cold);
        }

        // Validate: the mutated schedule may have outgrown the closed form
        // (a recolored node with a longer period stretches the cycle past
        // the budget registration enforces, which the audit's one-cycle
        // reference sweep needs).  A violation rolls the event back:
        // rows restored via the inverse changes, the edge edit inverted,
        // and the slot keeps serving pre-event answers.
        let cycle = slot.view.cycle();
        if cycle > CycleProfile::MAX_CYCLE {
            for change in repair.row_changes().iter().rev() {
                slot.view.apply_row(&inverse_row(change));
            }
            match event.kind {
                EdgeEventKind::Insert => slot.graph.remove_edge(event.u, event.v),
                EdgeEventKind::Delete => slot.graph.add_edge(event.u, event.v),
            }
            .expect("inverting a just-applied edge event");
            return Err(PatchError::BudgetExceeded(RegisterError::CycleTooLong {
                cycle,
                max: CycleProfile::MAX_CYCLE,
            }));
        }

        if let SlotState::Warm(profile) = &mut slot.state {
            let inserted = (event.kind == EdgeEventKind::Insert).then_some((event.u, event.v));
            if let Ok(stats) =
                profile.patch(&slot.view, &slot.graph, repair.row_changes(), inserted)
            {
                counters.patches.fetch_add(1, Relaxed);
                return Ok(PatchOutcome::Patched(stats));
            }
        }
        slot.state = SlotState::Warm(CycleProfile::build(
            &slot.view,
            slot.start,
            slot.graph.node_count(),
            &slot.graph,
        ));
        counters.rebuilds.fetch_add(1, Relaxed);
        Ok(PatchOutcome::Rebuilt)
    }

    /// Rebinds `tenant` to a slot that is safe to mutate: an
    /// already-private slot is returned as-is; a shared slot is cloned
    /// copy-on-write under a fresh synthetic key (the other tenants keep
    /// the original, warm); an exclusively-held content-keyed slot is
    /// *moved* to a synthetic key, so a later registration of the old
    /// content starts a fresh slot instead of aliasing the mutated one.
    fn detach_for_write(&mut self, tenant: u64, key: u64) -> u64 {
        let slot = self.slots.get(&key).expect("tenant keys always resolve");
        if slot.private {
            return key;
        }
        let mut fresh = self.next_private_key;
        while self.slots.contains_key(&fresh) {
            fresh = fresh.wrapping_add(1);
        }
        self.next_private_key = fresh.wrapping_add(1);
        let detached = if slot.refs == 1 {
            let mut slot = self.slots.remove(&key).expect("just resolved");
            slot.private = true;
            slot
        } else {
            let shared = self.slots.get_mut(&key).expect("just resolved");
            shared.refs -= 1;
            ProfileSlot {
                graph: shared.graph.clone(),
                view: shared.view.clone(),
                start: shared.start,
                name: shared.name.clone(),
                state: shared.state.clone(),
                refs: 1,
                private: true,
            }
        };
        self.slots.insert(fresh, detached);
        self.tenants.insert(tenant, fresh);
        fresh
    }

    /// One amortized scrub step of the background integrity audit:
    /// re-derives up to `k` warm slots (round-robin by schedule key,
    /// resuming after the previous step's cursor) through the sequential
    /// reference sweep — [`analyze_schedule_reference`] over one full
    /// cycle, every holiday emitted and checked by a fresh
    /// [`GraphChecker`](crate::analysis::GraphChecker), sharing no state and
    /// no verification code with the serving fast paths — and compares
    /// totals and independence verdict against the cached profile's closed
    /// form.  A disagreement quarantines the slot
    /// ([`QuarantineReason::AuditMismatch`]): this is the plane that
    /// catches *silent* corruption (an injected `verify.edge` fault, a
    /// lane poisoned by a bug) that typed errors and panic quarantine
    /// cannot see.  Returns how many slots were audited; tune the per-call
    /// batch with [`audit_step_size`] (`FHG_AUDIT_STEP`).
    pub fn audit_step(&mut self, k: usize) -> usize {
        self.counters.audit_steps.fetch_add(1, Relaxed);
        let mut keys: Vec<u64> = self
            .slots
            .iter()
            .filter(|(_, slot)| matches!(slot.state, SlotState::Warm(_)))
            .map(|(&key, _)| key)
            .collect();
        if keys.is_empty() || k == 0 {
            return 0;
        }
        keys.sort_unstable();
        let resume = keys.partition_point(|&key| key <= self.audit_cursor);
        let mut audited = 0;
        for i in 0..keys.len().min(k) {
            let key = keys[(resume + i) % keys.len()];
            self.audit_cursor = key;
            let slot = self.slots.get_mut(&key).expect("enumerated above");
            let SlotState::Warm(profile) = &slot.state else { unreachable!("filtered warm") };
            let cycle = profile.cycle();
            let mut sweep = ViewScheduler { view: &slot.view, start: slot.start };
            let reference = analyze_schedule_reference(&slot.graph, &mut sweep, cycle);
            let clean = profile.derive_window_totals(0, cycle) == reference.totals()
                && profile.all_classes_independent() == reference.all_happy_sets_independent;
            audited += 1;
            self.counters.audited.fetch_add(1, Relaxed);
            if !clean {
                slot.state = SlotState::Quarantined(QuarantineReason::AuditMismatch);
                self.counters.audit_mismatches.fetch_add(1, Relaxed);
                self.counters.audit_quarantined.fetch_add(1, Relaxed);
                self.counters.quarantines.fetch_add(1, Relaxed);
            }
        }
        audited
    }

    /// [`audit_step`](Self::audit_step) with the environment-tuned batch
    /// size: `FHG_AUDIT_STEP` slots per tick ([`audit_step_size`],
    /// default [`AUDIT_STEP`]; `FHG_AUDIT_STEP=0` turns the tick into a
    /// no-op).  The form a serving loop calls on its idle timer.
    pub fn audit_tick(&mut self) -> usize {
        self.audit_step(audit_step_size())
    }

    /// A snapshot of the background scrubber's counters: **steps** taken,
    /// slots **audited**, **mismatches** found and slots **quarantined**
    /// by the audit.  Monotonic, like [`ProfileService::stats`].
    pub fn audit_stats(&self) -> AuditStats {
        AuditStats {
            steps: self.counters.audit_steps.load(Relaxed),
            audited: self.counters.audited.load(Relaxed),
            mismatches: self.counters.audit_mismatches.load(Relaxed),
            quarantined: self.counters.audit_quarantined.load(Relaxed),
        }
    }

    /// A snapshot of the cache-activity counters: query **hits** against
    /// warm profiles vs **misses** (unknown tenants, cold or quarantined
    /// profiles), in-place **patches** vs full **rebuilds** (pending
    /// builds and patch fallbacks), **evictions** of warm profiles
    /// (invalidations, released slots) and **quarantines** (patch panics,
    /// build panics, audit mismatches).  Counters are monotonic over the
    /// service's lifetime.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Relaxed),
            misses: self.counters.misses.load(Relaxed),
            patches: self.counters.patches.load(Relaxed),
            rebuilds: self.counters.rebuilds.load(Relaxed),
            evictions: self.counters.evictions.load(Relaxed),
            quarantines: self.counters.quarantines.load(Relaxed),
        }
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Number of distinct schedule keys currently cached (warm or cold).
    pub fn key_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of warm (built) profiles.
    pub fn warm_count(&self) -> usize {
        self.slots.values().filter(|slot| matches!(slot.state, SlotState::Warm(_))).count()
    }

    /// Number of quarantined slots awaiting
    /// [`repair_quarantined`](ProfileService::repair_quarantined).
    pub fn quarantined_count(&self) -> usize {
        self.slots.values().filter(|slot| matches!(slot.state, SlotState::Quarantined(_))).count()
    }

    /// Why `tenant`'s slot is quarantined, if it is.
    pub fn quarantine_reason(&self, tenant: u64) -> Option<QuarantineReason> {
        let key = self.tenants.get(&tenant)?;
        match self.slots.get(key)?.state {
            SlotState::Quarantined(reason) => Some(reason),
            _ => None,
        }
    }

    /// The warm profile serving `tenant`, if any.
    pub fn profile(&self, tenant: u64) -> Option<&CycleProfile> {
        let key = self.tenants.get(&tenant)?;
        match &self.slots.get(key)?.state {
            SlotState::Warm(profile) => Some(profile),
            _ => None,
        }
    }

    fn slot_of(&self, tenant: u64) -> Result<(&ProfileSlot, &CycleProfile), QueryError> {
        let key = self.tenants.get(&tenant).ok_or(QueryError::UnknownTenant(tenant))?;
        let slot = self.slots.get(key).ok_or(QueryError::UnknownTenant(tenant))?;
        match &slot.state {
            SlotState::Warm(profile) => Ok((slot, profile)),
            SlotState::Building => Err(QueryError::ProfileNotBuilt(tenant)),
            SlotState::Quarantined(_) => Err(QueryError::Quarantined(tenant)),
        }
    }

    /// Answers one totals-only windowed query — the hot serving shape:
    /// `O(#lanes)`, one closed form per distinct progression of the
    /// tenant's schedule, whatever the window, and no heap allocation at
    /// all (the window fold keeps no scratch; proved by
    /// `tests/zero_alloc.rs`).  Every call bumps one shared hit-or-miss
    /// counter, so concurrent callers contend on that cache line: parallel
    /// reads belong in [`query_batch`](ProfileService::query_batch), which
    /// counts once per batch.
    pub fn query_totals(
        &self,
        tenant: u64,
        t0: u64,
        t1: u64,
    ) -> Result<AnalysisTotals, QueryError> {
        let (_, profile) = self.counted(self.slot_of(tenant))?;
        Ok(profile.derive_window_totals(t0, t1))
    }

    /// Answers one full per-node windowed query (the output allocation is
    /// proportional to the node count, never the window length).
    pub fn query(&self, tenant: u64, t0: u64, t1: u64) -> Result<ScheduleAnalysis, QueryError> {
        let (slot, profile) = self.counted(self.slot_of(tenant))?;
        Ok(profile.derive_window(&slot.name, &slot.graph, t0, t1))
    }

    /// Counts one single-call slot lookup as a cache hit or miss, atomically
    /// for concurrent single-query callers under a shared `&self`.  The
    /// batch front does not come through here: it counts its answers
    /// itself, once per batch.
    fn counted<T>(&self, resolved: Result<T, QueryError>) -> Result<T, QueryError> {
        match &resolved {
            Ok(_) => self.counters.hits.fetch_add(1, Relaxed),
            Err(_) => self.counters.misses.fetch_add(1, Relaxed),
        };
        resolved
    }

    /// The batch front, totals flavor: answers every request, sharded
    /// across the worker pool, results in request order.  Individual
    /// failures (unknown tenant, cold or quarantined profile) fail their
    /// own slot only, and so does a worker that *dies*: each request runs
    /// under `catch_unwind`, so a panic mid-derivation (injected via the
    /// `query.batch` failpoint, or a real bug) becomes that request's
    /// [`QueryError::Internal`] instead of unwinding into the caller.
    /// The batch counts its hits and misses once, when it returns.
    pub fn query_batch(&self, queries: &[Query]) -> Vec<Result<WindowTotals, QueryError>> {
        self.batch(queries, |_, profile, q| WindowTotals {
            tenant: q.tenant,
            window: q.window,
            totals: profile.derive_window_totals(q.window.0, q.window.1),
        })
    }

    /// The batch front, full-analysis flavor — same per-request panic
    /// containment and counting as [`query_batch`](ProfileService::query_batch).
    pub fn query_batch_full(&self, queries: &[Query]) -> Vec<Result<WindowAnalysis, QueryError>> {
        self.batch(queries, |slot, profile, q| WindowAnalysis {
            tenant: q.tenant,
            window: q.window,
            analysis: profile.derive_window(&slot.name, &slot.graph, q.window.0, q.window.1),
        })
    }

    /// The body of both batch fronts: each request passes the
    /// `query.batch` failpoint and resolves its slot under its own
    /// `catch_unwind`, across the pool, uncounted.  The answers are
    /// counted afterwards on the calling thread and added to
    /// [`CacheStats`] once, so pool workers never write a shared counter
    /// line per request.  `Ok` is a hit, a refused request a miss, and a
    /// request that died ([`QueryError::Internal`]) neither.
    fn batch<T: Send>(
        &self,
        queries: &[Query],
        answer: impl Fn(&ProfileSlot, &CycleProfile, &Query) -> T + Sync,
    ) -> Vec<Result<T, QueryError>> {
        let answers: Vec<Result<T, QueryError>> = queries
            .par_iter()
            .map(|q| {
                catch_unwind(AssertUnwindSafe(|| {
                    crate::fail_point!("query.batch", return Err(QueryError::Internal(q.tenant)));
                    let (slot, profile) = self.slot_of(q.tenant)?;
                    Ok(answer(slot, profile, q))
                }))
                .unwrap_or(Err(QueryError::Internal(q.tenant)))
            })
            .collect();
        let (mut hits, mut misses) = (0, 0);
        for answer in &answers {
            match answer {
                Ok(_) => hits += 1,
                Err(QueryError::Internal(_)) => {}
                Err(_) => misses += 1,
            }
        }
        self.counters.hits.fetch_add(hits, Relaxed);
        self.counters.misses.fetch_add(misses, Relaxed);
        answers
    }
}

/// The inverse of a residue-row change: applying it after `change` (to
/// the same view) restores the pre-change row — the rollback arm of the
/// transactional patch.
fn inverse_row(change: &RowChange) -> RowChange {
    RowChange { node: change.node, old: change.new, new: change.old }
}

/// A minimal scheduler over a borrowed residue view, so the background
/// audit can drive [`analyze_schedule_reference`] without the tenant's
/// original scheduler object (the service only keeps the view).
struct ViewScheduler<'a> {
    view: &'a ResidueSchedule,
    start: u64,
}

impl Scheduler for ViewScheduler<'_> {
    fn node_count(&self) -> usize {
        self.view.node_count()
    }
    fn fill_happy_set(&mut self, t: u64, out: &mut crate::HappySet) {
        self.view.fill(t, out);
    }
    fn first_holiday(&self) -> u64 {
        self.start
    }
    fn name(&self) -> &'static str {
        "audit-view"
    }
    fn is_periodic(&self) -> bool {
        true
    }
    fn period(&self, p: fhg_graph::NodeId) -> Option<u64> {
        Some(self.view.modulus(p))
    }
    fn unhappiness_bound(&self, _p: fhg_graph::NodeId) -> Option<u64> {
        None
    }
    fn residue_schedule(&self) -> Option<&ResidueSchedule> {
        Some(self.view)
    }
}

/// 64-bit FNV-1a accumulator for the schedule content key.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    fn put(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The schedule content key: FNV-1a over the residue assignment
/// (`(slot, modulus)` per node, plus the first holiday) *and* the conflict
/// graph's adjacency — two tenants share a profile only when both the
/// schedule and the graph match, because the independence verdict baked
/// into a profile depends on the graph.
fn schedule_key(graph: &Graph, view: &ResidueSchedule, start: u64) -> u64 {
    let mut h = Fnv::new();
    h.put(start);
    h.put(view.node_count() as u64);
    for p in 0..view.node_count() {
        h.put(view.slot(p));
        h.put(view.modulus(p));
    }
    h.put(graph.node_count() as u64);
    for u in graph.nodes() {
        let row = graph.neighbors(u);
        h.put(row.len() as u64);
        for &v in row {
            h.put(v as u64);
        }
    }
    h.0
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;

    /// A scheduler pinned to an explicit residue view, for staging slots
    /// the maintained schedulers would never produce.  Shared by this
    /// module's tests and `persist`'s.
    pub(crate) struct Fixed(pub(crate) ResidueSchedule);

    impl Scheduler for Fixed {
        fn node_count(&self) -> usize {
            self.0.node_count()
        }
        fn fill_happy_set(&mut self, t: u64, out: &mut crate::HappySet) {
            self.0.fill(t, out);
        }
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn is_periodic(&self) -> bool {
            true
        }
        fn period(&self, p: fhg_graph::NodeId) -> Option<u64> {
            Some(self.0.modulus(p))
        }
        fn unhappiness_bound(&self, _p: fhg_graph::NodeId) -> Option<u64> {
            None
        }
        fn residue_schedule(&self) -> Option<&ResidueSchedule> {
            Some(&self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::Fixed;
    use super::*;
    use crate::analysis::analyze_schedule_reference;
    use crate::schedulers::{FirstComeFirstGrab, PeriodicDegreeBound};
    use fhg_graph::generators::erdos_renyi;

    #[test]
    fn non_periodic_schedulers_are_a_typed_error_not_a_crash() {
        let g = erdos_renyi(16, 0.2, 7);
        let mut service = ProfileService::new();
        let dynamic = FirstComeFirstGrab::new(&g, 42);
        let err = service.register(1, &g, &dynamic).unwrap_err();
        assert!(matches!(err, RegisterError::NotPeriodic { .. }), "{err}");
        assert_eq!(service.tenant_count(), 0, "failed registrations leave no residue");
    }

    #[test]
    fn over_budget_cycles_are_rejected_up_front() {
        // Huge coprime moduli: the lcm saturates far past MAX_CYCLE.
        let g = Graph::new(3);
        let view = ResidueSchedule::scan_only(
            vec![0, 1, 2],
            vec![(1 << 21) + 1, (1 << 21) - 1, (1 << 20) + 3],
        );
        let mut service = ProfileService::new();
        let err = service.register(9, &g, &Fixed(view)).unwrap_err();
        assert!(matches!(err, RegisterError::CycleTooLong { .. }), "{err}");
    }

    #[test]
    fn identical_content_shares_one_profile_and_invalidation_is_explicit() {
        let g = erdos_renyi(24, 0.15, 3);
        let s = PeriodicDegreeBound::new(&g);
        let mut service = ProfileService::new();
        let k1 = service.register(1, &g, &s).unwrap();
        let k2 = service.register(2, &g, &s).unwrap();
        assert_eq!(k1, k2, "identical content hashes to one key");
        assert_eq!(service.key_count(), 1);
        assert_eq!(service.tenant_count(), 2);

        assert_eq!(service.query_totals(1, 0, 10), Err(QueryError::ProfileNotBuilt(1)));
        assert_eq!(service.build_pending(), 1, "one shared build for both tenants");
        assert_eq!(service.build_pending(), 0, "idempotent");
        assert_eq!(service.warm_count(), 1);

        let a = service.query_totals(1, 3, 40).unwrap();
        let b = service.query_totals(2, 3, 40).unwrap();
        assert_eq!(a, b);
        assert_eq!(service.query_totals(3, 0, 10), Err(QueryError::UnknownTenant(3)));

        assert!(service.invalidate(1), "warm profile dropped");
        assert!(!service.invalidate(1), "already cold");
        assert_eq!(service.query_totals(2, 3, 40), Err(QueryError::ProfileNotBuilt(2)));
        assert_eq!(service.build_pending(), 1);
        assert_eq!(service.query_totals(2, 3, 40).unwrap(), a, "rebuild is bitwise-stable");

        assert!(service.remove(1));
        assert_eq!(service.key_count(), 1, "tenant 2 still holds the key");
        assert!(service.remove(2));
        assert_eq!(service.key_count(), 0, "last tenant drops the slot");
    }

    #[test]
    fn served_windows_match_the_reference_sweep() {
        let g = erdos_renyi(32, 0.12, 5);
        let s = PeriodicDegreeBound::new(&g);
        let mut service = ProfileService::new();
        service.register(7, &g, &s).unwrap();
        service.build_pending();
        let cycle = service.profile(7).unwrap().cycle();

        // Reference over [0, t1): the sweep from the schedule itself.
        let t1 = 2 * cycle + 3;
        let mut fresh = PeriodicDegreeBound::new(&g);
        let reference = analyze_schedule_reference(&g, &mut fresh, t1);
        let served = service.query(7, 0, t1).unwrap();
        assert_eq!(served.totals(), reference.totals());

        // The batch front agrees with the single-query path, slot by slot.
        let queries: Vec<Query> = (0..20)
            .map(|i| Query { tenant: 7, window: (i * 3, i * 3 + 1 + i % (2 * cycle)) })
            .chain([Query { tenant: 99, window: (0, 5) }])
            .collect();
        let batch = service.query_batch(&queries);
        for (q, r) in queries.iter().zip(&batch) {
            match r {
                Ok(w) => {
                    assert_eq!(w.tenant, q.tenant);
                    assert_eq!(
                        w.totals,
                        service.query_totals(q.tenant, q.window.0, q.window.1).unwrap()
                    );
                }
                Err(e) => assert_eq!(*e, QueryError::UnknownTenant(99)),
            }
        }
        let full = service.query_batch_full(&queries[..4]);
        for (q, r) in queries.iter().zip(&full) {
            let w = r.as_ref().unwrap();
            assert_eq!(
                w.analysis.totals(),
                service.query_totals(q.tenant, q.window.0, q.window.1).unwrap()
            );
        }
    }

    #[test]
    fn shared_profiles_survive_removal_and_invalidation_of_a_cotenant() {
        // Two tenants share one profile; removing one and bouncing the
        // other through an invalidate/rebuild must keep the survivor's
        // identity and answers bitwise-stable.
        let g = erdos_renyi(28, 0.14, 13);
        let s = PeriodicDegreeBound::new(&g);
        let mut service = ProfileService::new();
        let k1 = service.register(1, &g, &s).unwrap();
        let k2 = service.register(2, &g, &s).unwrap();
        assert_eq!(k1, k2, "identical content shares one slot");
        assert_eq!(service.build_pending(), 1);

        let cycle = service.profile(1).unwrap().cycle();
        let window = (3, 4 * cycle + 1);
        let before = service.query(2, window.0, window.1).unwrap();
        let shared: *const CycleProfile = service.profile(2).unwrap();
        assert_eq!(shared, service.profile(1).unwrap() as *const _, "one profile, two tenants");

        assert!(service.remove(1), "tenant 1 leaves");
        assert_eq!(service.tenant_count(), 1);
        assert_eq!(service.key_count(), 1, "tenant 2 still holds the slot");
        assert_eq!(
            service.profile(2).unwrap() as *const CycleProfile,
            shared,
            "removal of a cotenant must not disturb the survivor's profile"
        );

        assert!(service.invalidate(2), "survivor goes cold on request");
        assert_eq!(service.query(2, window.0, window.1), Err(QueryError::ProfileNotBuilt(2)));
        assert_eq!(service.build_pending(), 1);
        let after = service.query(2, window.0, window.1).unwrap();
        assert_eq!(after, before, "rebuild is bitwise-stable");
        let stats = service.stats();
        assert_eq!(stats.evictions, 1, "one explicit invalidation");
        assert_eq!(stats.rebuilds, 2, "initial build + rebuild");
        assert_eq!(stats.misses, 1, "the one cold query");
    }

    #[test]
    fn patch_repairs_in_place_and_detaches_shared_slots() {
        use crate::dynamic::DynamicColorBound;

        let g = erdos_renyi(40, 0.1, 21);
        let mut sched = DynamicColorBound::new(&g);
        let mut service = ProfileService::new();
        service.register(1, &g, &sched).unwrap();
        service.register(2, &g, &sched).unwrap();
        assert_eq!(service.build_pending(), 1);
        let cycle = service.profile(1).unwrap().cycle();
        let untouched = service.query(2, 0, 3 * cycle).unwrap();

        // Drive a few events through tenant 1; tenant 2 keeps the original.
        let mut patched = 0u64;
        let mut events = 0u64;
        let mut last_repair = None;
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 4), (0, 1)] {
            let kind = if sched.graph().has_edge(u, v) {
                EdgeEventKind::Delete
            } else {
                EdgeEventKind::Insert
            };
            let event = fhg_graph::EdgeEvent { kind, u, v, holiday: events };
            let repair = sched.apply_event(event).unwrap();
            match service.patch(1, &repair).unwrap() {
                PatchOutcome::Patched(_) => patched += 1,
                PatchOutcome::Rebuilt => {}
                PatchOutcome::Cold => panic!("slot was warm"),
            }
            last_repair = Some(repair);
            events += 1;

            // Patched profile must equal a from-scratch build of the
            // mutated schedule, served through the query path.
            let view = sched.residue_schedule().unwrap();
            let oracle =
                CycleProfile::build(view, sched.first_holiday(), sched.node_count(), sched.graph());
            let served = service.profile(1).unwrap();
            assert!(served.content_eq(&oracle), "event {events}: patched profile diverged");
        }
        assert!(patched > 0, "at least some events must take the in-place path");
        assert_eq!(
            service.query(2, 0, 3 * cycle).unwrap(),
            untouched,
            "the cotenant's profile must be copy-on-write isolated from the mutation"
        );
        let stats = service.stats();
        assert_eq!(stats.patches + stats.rebuilds - 1, events, "every event counted");

        // Replaying an already-applied event no longer fits the slot's
        // graph: a typed error, and the slot is left untouched.
        let replay = last_repair.expect("loop ran");
        let err = service.patch(1, &replay).unwrap_err();
        assert!(matches!(err, PatchError::Graph(_)), "{err}");
        assert!(matches!(service.patch(77, &replay), Err(PatchError::UnknownTenant(77))));
    }

    #[test]
    fn audit_step_knob_falls_back_instead_of_panicking() {
        // Same contract as every FHG_* knob: garbage in the environment
        // warns and falls back, never kills the server.
        let parse_audit_step = |raw| crate::parse_knob("FHG_AUDIT_STEP", raw, AUDIT_STEP);
        assert_eq!(parse_audit_step(None), AUDIT_STEP);
        assert_eq!(parse_audit_step(Some("")), AUDIT_STEP);
        assert_eq!(parse_audit_step(Some("  ")), AUDIT_STEP);
        assert_eq!(parse_audit_step(Some("garbage")), AUDIT_STEP);
        assert_eq!(parse_audit_step(Some("-3")), AUDIT_STEP);
        assert_eq!(parse_audit_step(Some("0")), 0, "zero disables the scrubber");
        assert_eq!(parse_audit_step(Some(" 16 ")), 16, "whitespace is trimmed");
    }

    #[test]
    fn budget_violating_patch_rolls_back_bitwise() {
        use crate::dynamic::EventRepair;
        use crate::schedulers::residue::RowChange;
        use fhg_codes::Progression;

        // Nodes 0 and 1 co-attend class 0 (0 mod 2 vs 0 mod 4), no edge.
        let g = Graph::new(2);
        let view = ResidueSchedule::scan_only(vec![0, 0], vec![2, 4]);
        let mut service = ProfileService::new();
        service.register(5, &g, &Fixed(view)).unwrap();
        assert_eq!(service.build_pending(), 1);
        let before = service.query_totals(5, 0, 16).unwrap();
        let oracle = service.profile(5).unwrap().clone();
        let stats_before = service.stats();

        // A repair whose recolouring stretches the cycle past MAX_CYCLE:
        // validate must refuse it AND restore the pre-event rows, edge and
        // profile bitwise.
        let event = fhg_graph::EdgeEvent { kind: EdgeEventKind::Insert, u: 0, v: 1, holiday: 0 };
        let change = RowChange {
            node: 0,
            old: Progression { slot: 0, modulus: 2 },
            new: Progression { slot: 0, modulus: (1 << 22) + 1 },
        };
        let err = service.patch(5, &EventRepair::from_parts(event, &[change])).unwrap_err();
        assert!(
            matches!(err, PatchError::BudgetExceeded(RegisterError::CycleTooLong { .. })),
            "{err}"
        );
        assert_eq!(service.warm_count(), 1, "the slot keeps serving");
        assert_eq!(service.quarantined_count(), 0);
        assert_eq!(service.query_totals(5, 0, 16).unwrap(), before, "pre-event answers");
        assert!(service.profile(5).unwrap().content_eq(&oracle), "profile bitwise-untouched");
        let stats = service.stats();
        assert_eq!(stats.patches, stats_before.patches, "nothing counted as progress");
        assert_eq!(stats.rebuilds, stats_before.rebuilds);
        assert_eq!(stats.quarantines, 0);

        // The rollback restored the graph too: replaying the same edge
        // insert with an in-budget repair must apply cleanly (it would be
        // PatchError::Graph if the edge had survived the rollback).
        let outcome = service.patch(5, &EventRepair::from_parts(event, &[])).unwrap();
        assert!(outcome != PatchOutcome::Cold, "slot was warm");
        assert!(
            !service.profile(5).unwrap().all_classes_independent(),
            "the inserted edge joins two rows that meet on holiday 0"
        );
    }

    #[test]
    fn malformed_row_changes_quarantine_in_every_build_profile() {
        use crate::dynamic::EventRepair;
        use crate::schedulers::residue::RowChange;
        use fhg_codes::Progression;

        let row = |slot, modulus| Progression { slot, modulus };
        // Node 0 holds 0 mod 2; inserting (0, 2) is a valid graph edit.
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        let view = ResidueSchedule::new(vec![0, 1, 1], vec![2, 2, 4]);
        let event = fhg_graph::EdgeEvent { kind: EdgeEventKind::Insert, u: 0, v: 2, holiday: 0 };
        let cases = [
            ("modulus 0", RowChange { node: 0, old: row(0, 2), new: row(0, 0) }),
            ("slot >= modulus", RowChange { node: 0, old: row(0, 2), new: row(9, 8) }),
            ("node >= n", RowChange { node: 3, old: row(0, 2), new: row(1, 2) }),
            ("stale old row", RowChange { node: 0, old: row(1, 8), new: row(1, 2) }),
        ];
        for (case, change) in cases {
            let mut service = ProfileService::new();
            service.register(1, &g, &Fixed(view.clone())).unwrap();
            service.register(2, &g, &Fixed(view.clone())).unwrap();
            assert_eq!(service.build_pending(), 1, "{case}: one shared slot");
            let before = service.query_totals(2, 0, 16).unwrap();

            let err = service.patch(1, &EventRepair::from_parts(event, &[change])).unwrap_err();
            assert_eq!(err, PatchError::Quarantined(1), "{case}");
            assert_eq!(service.quarantine_reason(1), Some(QuarantineReason::PatchPanic), "{case}");
            assert_eq!(service.quarantine_reason(2), None, "{case}: the co-tenant stays warm");
            assert_eq!(service.warm_count(), 1, "{case}");
            assert_eq!(service.query_totals(2, 0, 16).unwrap(), before, "{case}");
        }
    }

    #[test]
    fn batch_fronts_count_like_single_calls() {
        use crate::dynamic::EventRepair;
        use crate::schedulers::residue::RowChange;
        use fhg_codes::Progression;

        let mut service = ProfileService::new();
        let warm = erdos_renyi(24, 0.15, 3);
        service.register(1, &warm, &PeriodicDegreeBound::new(&warm)).unwrap();
        // Tenants 2 and 3 share one key; tenant 4 starts on it too.
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        let view = ResidueSchedule::new(vec![0, 1, 1], vec![2, 2, 4]);
        for tenant in [2, 3, 4] {
            service.register(tenant, &g, &Fixed(view.clone())).unwrap();
        }
        assert_eq!(service.build_pending(), 2);
        // A stale `old` row quarantines tenant 4 on its own detached slot.
        let event = fhg_graph::EdgeEvent { kind: EdgeEventKind::Insert, u: 0, v: 2, holiday: 0 };
        let stale = RowChange {
            node: 0,
            old: Progression { slot: 1, modulus: 8 },
            new: Progression { slot: 1, modulus: 2 },
        };
        let err = service.patch(4, &EventRepair::from_parts(event, &[stale])).unwrap_err();
        assert_eq!(err, PatchError::Quarantined(4));
        // Registered after the build: cold.
        let cold = erdos_renyi(20, 0.2, 9);
        service.register(5, &cold, &PeriodicDegreeBound::new(&cold)).unwrap();

        let queries: Vec<Query> = [1, 2, 3, 4, 5, 99]
            .into_iter()
            .flat_map(|tenant| [(0, 16), (3, 40), (7, 7)].map(|window| Query { tenant, window }))
            .collect();
        let counts = |s: CacheStats| [s.hits, s.misses];
        let delta = |a: [u64; 2], b: [u64; 2]| [b[0] - a[0], b[1] - a[1]];
        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let before = counts(service.stats());
            let (totals, full) = pool
                .install(|| (service.query_batch(&queries), service.query_batch_full(&queries)));
            let batched = counts(service.stats());
            for (q, (t, f)) in queries.iter().zip(totals.into_iter().zip(full)) {
                let (t0, t1) = q.window;
                assert_eq!(t.map(|w| w.totals), service.query_totals(q.tenant, t0, t1));
                assert_eq!(f.map(|w| w.analysis), service.query(q.tenant, t0, t1));
            }
            let single = counts(service.stats());
            assert_eq!(delta(before, batched), [18, 18], "{threads} threads: 3 of 6 tenants serve");
            assert_eq!(delta(before, batched), delta(batched, single), "{threads} threads");
        }
    }

    #[test]
    fn audit_passes_clean_slots_and_walks_the_ring() {
        let mut service = ProfileService::new();
        for i in 0..3u64 {
            let g = erdos_renyi(20 + i as usize, 0.15, i);
            let s = PeriodicDegreeBound::new(&g);
            service.register(i, &g, &s).unwrap();
        }
        assert_eq!(service.audit_step(4), 0, "nothing warm to audit yet");
        assert_eq!(service.build_pending(), 3);

        assert_eq!(service.audit_step(2), 2);
        assert_eq!(service.audit_step(2), 2, "cursor resumes round-robin");
        assert_eq!(service.audit_step(8), 3, "k caps at the warm population");
        let audit = service.audit_stats();
        assert_eq!(audit.steps, 4);
        assert_eq!(audit.audited, 7);
        assert_eq!(audit.mismatches, 0, "healthy profiles must pass");
        assert_eq!(audit.quarantined, 0);
        assert_eq!(service.quarantined_count(), 0);
        assert_eq!(service.stats().quarantines, 0);
    }

    #[test]
    fn schedule_key_separates_graph_and_schedule_content() {
        let g1 = erdos_renyi(24, 0.15, 3);
        let mut g2 = g1.clone();
        // Flip one edge: same schedule, different graph, different key.
        let (u, v) = (0, 1);
        if g2.has_edge(u, v) {
            g2.remove_edge(u, v).unwrap();
        } else {
            g2.add_edge(u, v).unwrap();
        }
        let s1 = PeriodicDegreeBound::new(&g1);
        let view = s1.residue_schedule().unwrap();
        let k_same = schedule_key(&g1, view, 1);
        assert_eq!(k_same, schedule_key(&g1, view, 1), "deterministic");
        assert_ne!(k_same, schedule_key(&g2, view, 1), "graph content is part of the key");
        assert_ne!(k_same, schedule_key(&g1, view, 2), "the first holiday is part of the key");
    }
}
