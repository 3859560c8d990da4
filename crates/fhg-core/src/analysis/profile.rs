//! Closed-form cycle analytics: profile each residue class once, then
//! derive any window of the schedule with one fold per node.
//!
//! A perfectly periodic schedule repeats with period `C =`
//! [`ResidueSchedule::cycle`]: the happy set of holiday `t` depends only on
//! `t mod C`, so every statistic of an arbitrarily long horizon is already
//! determined by **one cycle** of happy sets.  A [`CycleProfile`] walks that
//! single cycle and records, per node, its attendance pattern: the explicit
//! attendance-offset list (the gap multiset in CSR form) and its one-cycle
//! summary (count, first/last offsets, internal gap structure) as a
//! [`NodeAccum`](super::sweep).  Each residue class is independence-verified
//! exactly once during that walk, the same promise the sharded engine's
//! residue cache makes (locked down by `tests/residue_cache.rs`).
//!
//! # Sharded parallel build
//!
//! For large cycles (`cycle ~ horizon`, where the build itself dominates
//! and is verification-bound) the cycle walk shards: the residue classes
//! split into one contiguous range per worker of the persistent
//! `compat/rayon` pool, each shard emitting, verifying and collecting
//! `(node, offset)` events with private scratch, exactly as the sweep
//! shards the horizon.  The per-class sizes and events concatenate in
//! class order — the combined event sequence is offset-major, exactly what
//! a sequential walk would have pushed — so the counting sort builds an
//! identical attendance CSR at any thread count, and the one-cycle
//! summaries are then replayed **node-major from that CSR**: the built
//! profile, and everything derived from it, is **bitwise-identical at any
//! thread count** (pinned by the build-parity test below and
//! `tests/analysis_parity.rs`).  Each class is still verified exactly once,
//! by the one shard that owns it.
//!
//! # Closed-form derivation: the lane fold
//!
//! Every derivation — [`CycleProfile::derive`] / [`CycleProfile::derive_totals`]
//! over `[0, h)` and [`CycleProfile::derive_window`] /
//! [`CycleProfile::derive_window_totals`] over any `[t0, t1)` — is **one
//! pass over the nodes**.  A node's statistics over a window depend only on
//! its own progression, so each lane folds on its own, in registers.  With
//! phase `a = t0 mod C` the window is
//!
//! 1. a ragged **head** — the rest of the phase cycle, replayed from the
//!    stored offsets rebased by `-a`;
//! 2. a run of phase-shifted **whole cycles**, replicated analytically from
//!    the one-cycle summary ([`replicate`]: the internal gaps repeat and each
//!    cycle boundary contributes the wrap-around gap `C - last + first`),
//!    then rebased behind the head;
//! 3. a ragged **tail** of the first cycle offsets, replayed like the head,
//!
//! each summarised as a segment and merged in window order by
//! [`merge_node`], the rule the sharded sweep merges its shards with.  The
//! merged lane reduces straight to a [`NodeAnalysis`](super::NodeAnalysis)
//! or into the running totals.  Because replication and replay compose
//! through the same integer arithmetic as the sequential sweep, every
//! derived analysis is **bitwise-identical** to
//! [`super::analyze_schedule_reference`] over the same window (locked down
//! by `tests/analysis_parity.rs` and `tests/window_parity.rs`).  The cost is
//! `O(C)` emissions for the build, then `O(n)` plus the head and tail
//! attendances per derivation — independent of the window length.
//!
//! The windowed entry points are **total**: zero-width, inverted and
//! sub-cycle windows are windows without whole cycles (`derive_window(t, t)`
//! is the empty analysis), so no request shape can panic a long-lived
//! server.  The whole-cycle verdict caveat: the window's independence flag
//! is the *cycle's* verdict, not the window restriction (see the method
//! docs).  The totals paths skip the per-node assembly and float work and
//! allocate nothing at all; the full paths allocate only their output
//! (both proved by `tests/zero_alloc.rs`).

use fhg_graph::{Graph, NodeId};
use rayon::prelude::*;

use super::checker::{ClassBatch, HolidayChecker};
use super::sweep::{self, merge_node, NodeAccum};
use super::{AnalysisTotals, ScheduleAnalysis};
use crate::schedulers::residue::{ResidueSchedule, RowChange};

/// A profile of one full residue cycle: per-node attendance patterns
/// (offset rows plus one-cycle summaries) and the per-class verification
/// verdict, sufficient to derive the analysis of any window in closed form.
///
/// The profile is also **patchable**: after a dynamic edge event moves a
/// handful of nodes to new residue rows, [`CycleProfile::patch`] repairs
/// exactly those nodes' lanes in place instead of rebuilding the whole
/// cycle walk (see the method docs for the repair algebra and what it
/// re-verifies).
#[derive(Clone)]
pub struct CycleProfile {
    /// First holiday of the profiled cycle (the scheduler's
    /// [`first_holiday`](crate::scheduler::Scheduler::first_holiday)).
    start: u64,
    /// The schedule's cycle length `C`.
    cycle: u64,
    /// Number of graph nodes tracked (attendance of out-of-range nodes is
    /// flagged as non-independent and excluded, like the sweep engines do).
    node_count: usize,
    /// Per-node summaries of the one profiled cycle (offsets relative to the
    /// cycle start).
    accums: Vec<NodeAccum>,
    /// Per-node `(start, len)` rows into `offsets`.  A fresh build lays
    /// the rows out dense and node-major (a plain CSR); a patch that grows
    /// a row retires it to the arena tail instead, leaving `garbage`
    /// behind until compaction.
    rows: Vec<(usize, usize)>,
    /// Attendance-offset arena: each node's offsets within the cycle,
    /// ascending per row (rows may be out of node order after patches).
    offsets: Vec<u64>,
    /// Retired (unreferenced) `offsets` entries awaiting compaction.
    garbage: usize,
    /// Prefix sums of the per-class happy-set sizes (`size_prefix[k]` = total
    /// happiness of the first `k` classes), so ragged tails fold exactly.
    size_prefix: Vec<u64>,
    /// Whether every residue class passed its independence check.
    all_independent: bool,
}

/// Why [`CycleProfile::patch`] refused to repair in place — the caller
/// (the serving tier's patch path) falls back to a full rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchRefused {
    /// The view's cycle no longer matches the profiled cycle (the event
    /// changed the lcm of the moduli): every class offset is rebased, so
    /// there is nothing to patch around.
    CycleChanged {
        /// The profiled cycle.
        old: u64,
        /// The view's current cycle.
        new: u64,
    },
    /// The cached verdict is already `false`.  The repair only re-verifies
    /// classes the event touched, so it can never discover that the
    /// offending class *healed* — only a full rebuild can clear the flag.
    NotIndependent,
}

impl std::fmt::Display for PatchRefused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatchRefused::CycleChanged { old, new } => {
                write!(f, "cycle changed from {old} to {new}; profile must be rebuilt")
            }
            PatchRefused::NotIndependent => {
                write!(f, "profile verdict is already non-independent; rebuild to re-verify")
            }
        }
    }
}

impl std::error::Error for PatchRefused {}

/// What a successful [`CycleProfile::patch`] did, for observability
/// (bench rows, serving-tier stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PatchStats {
    /// Node lanes whose attendance pattern was replaced and replayed.
    pub lanes_patched: usize,
    /// Residue classes re-verified through the checker.
    pub classes_verified: usize,
}

/// Reusable buffers for [`CycleProfile::patch`]: the verification batch,
/// the touched-class list and the compaction arena.  Allocate once next to
/// the cached profile; after warm-up a patch performs zero heap
/// allocations (proved by `tests/zero_alloc.rs`).
pub struct PatchScratch {
    batch: ClassBatch,
    batch_capacity: usize,
    classes: Vec<u64>,
    arena: Vec<u64>,
}

impl Default for PatchScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl PatchScratch {
    /// Empty scratch; the first patch sizes it.
    pub fn new() -> Self {
        PatchScratch {
            batch: ClassBatch::new(0),
            batch_capacity: 0,
            classes: Vec::new(),
            arena: Vec::new(),
        }
    }
}

/// One worker's contiguous range of residue classes during the parallel
/// profile build: private emission scratch, event list, per-class sizes and
/// the verification batch buffer.
struct BuildShard {
    range: std::ops::Range<u64>,
    events: Vec<(NodeId, u64)>,
    sizes: Vec<u64>,
    batch: ClassBatch,
    all_independent: bool,
}

impl CycleProfile {
    /// Largest cycle the profile will materialise: the per-class size
    /// prefix and the cycle walk itself are `O(cycle)`.
    /// [`super::AnalysisEngine::select`] enforces this bound (astronomical
    /// cycles — saturated lcms — stay on the sharded sweep).
    pub const MAX_CYCLE: u64 = 1 << 22;

    /// Largest total attendance (`Σ_p cycle / modulus_p`, the stored
    /// offset-CSR entries) the profile will materialise — the quantity that
    /// actually dominates profile memory.  A hub-and-spoke degree
    /// distribution can pack `n · cycle / 2` attendances into a short
    /// cycle, which must fall back to the `O(n)`-memory sharded sweep;
    /// [`super::AnalysisEngine::select`] budgets on
    /// [`ResidueSchedule::attendance_per_cycle`] before picking the closed
    /// form.
    pub const MAX_EVENTS: u64 = 1 << 24;

    /// Profiles one full cycle of `view` starting at holiday `start`,
    /// verifying each residue class exactly once through `checker`.  The
    /// class walk shards across the ambient worker-thread pool (the
    /// `FHG_THREADS` knob / an installed pool); the result is
    /// bitwise-identical at any thread count (see the module docs).
    ///
    /// `node_count` is the conflict graph's node count: attendance of nodes
    /// at or beyond it marks the schedule non-independent (mirroring the
    /// sweep engines) and is excluded from the per-node patterns.
    ///
    /// # Panics
    /// Panics if the cycle exceeds [`CycleProfile::MAX_CYCLE`].
    pub fn build<C: HolidayChecker + ?Sized>(
        view: &ResidueSchedule,
        start: u64,
        node_count: usize,
        checker: &C,
    ) -> Self {
        let cycle = view.cycle();
        assert!(
            cycle <= Self::MAX_CYCLE,
            "cycle {cycle} exceeds the profile budget ({})",
            Self::MAX_CYCLE
        );
        let n = node_count;
        let threads = rayon::current_num_threads().max(1);
        // Exact-capacity event lists: the per-cycle attendance volume is
        // precomputed on the view, so the class walk never regrows them.
        let attendance = view.attendance_per_cycle().min(Self::MAX_EVENTS) as usize;
        let mut shards: Vec<BuildShard> = sweep::split_offsets(cycle, threads)
            .into_iter()
            .map(|range| BuildShard {
                sizes: Vec::with_capacity((range.end - range.start) as usize),
                events: Vec::with_capacity(
                    (attendance as u64 * (range.end - range.start) / cycle) as usize + n / 64 + 16,
                ),
                range,
                batch: ClassBatch::new(view.node_count()),
                all_independent: true,
            })
            .collect();

        // The parallel class walk: `view.fill` is pure in `t`, so each
        // shard emits, verifies and collects its contiguous class range
        // with private scratch — each class is filled and verified exactly
        // once, by the one shard that owns it.  Verification is batched:
        // classes buffer into the shard's [`ClassBatch`] slots and flush
        // through [`HolidayChecker::check_batch`] up to 64 at a time, so a
        // [`super::GraphChecker`] loads each adjacency row once per batch
        // instead of once per class.  The walk only gathers
        // `(node, offset)` events (through the set-bit extraction kernel,
        // one trailing_zeros word scan per class) and per-class sizes; all
        // per-node accumulation happens afterwards, node-major, from the
        // sorted CSR.
        shards.par_iter_mut().for_each(|shard| {
            for offset in shard.range.clone() {
                let t = start + offset;
                let BuildShard { events, all_independent, batch, sizes, .. } = shard;
                let happy = batch.slot(t);
                view.fill(t, happy);
                sizes.push(happy.len() as u64);
                happy.for_each(|p| {
                    if p >= n {
                        *all_independent = false;
                        return;
                    }
                    events.push((p, offset));
                });
                if batch.commit() {
                    let ok = batch.flush(shard.all_independent, checker);
                    shard.all_independent &= ok;
                }
            }
            let ok = shard.batch.flush(shard.all_independent, checker);
            shard.all_independent &= ok;
        });

        // Concatenate in class order: the combined event sequence is
        // offset-major (shards are contiguous ascending ranges), exactly
        // what a sequential walk would have pushed, so the counting sort
        // below builds an identical CSR at any thread count.
        let mut all_independent = true;
        let mut size_prefix = Vec::with_capacity(cycle as usize + 1);
        size_prefix.push(0u64);
        let mut running = 0u64;
        let mut counts = vec![0u64; n];
        for shard in &shards {
            all_independent &= shard.all_independent;
            for &size in &shard.sizes {
                running += size;
                size_prefix.push(running);
            }
            for &(p, _) in &shard.events {
                counts[p] += 1;
            }
        }

        // Counting-sort the (node, offset) events into per-node rows.
        // Events arrive offset-major, so within each node the offsets stay
        // ascending; a fresh build lays the rows dense and node-major.
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0usize);
        for (p, &c) in counts.iter().enumerate() {
            starts.push(starts[p] + c as usize);
        }
        let mut cursor = starts.clone();
        let mut offsets = vec![0u64; starts[n]];
        for shard in shards {
            for (p, o) in shard.events {
                offsets[cursor[p]] = o;
                cursor[p] += 1;
            }
        }
        let rows: Vec<(usize, usize)> =
            (0..n).map(|p| (starts[p], starts[p + 1] - starts[p])).collect();

        // The one-cycle summaries, replayed node-major from the rows: each
        // lane's offsets are contiguous and ascending, so this is the exact
        // record sequence of a sequential walk — and, built from the merged
        // rows, it is trivially identical at every thread count.
        let accums = rows.iter().map(|&(s, l)| lane_summary(&offsets[s..s + l])).collect();

        CycleProfile {
            start,
            cycle,
            node_count: n,
            accums,
            rows,
            offsets,
            garbage: 0,
            size_prefix,
            all_independent,
        }
    }

    /// Reconstructs a profile from its deterministic inputs — view, start,
    /// node count and the previously verified per-class verdict — without
    /// running a checker or walking happy sets.
    ///
    /// Everything a [`CycleProfile::build`] computes except the verdict is a
    /// pure function of the residue view: node `p` attends exactly the
    /// offsets `o ≡ slot_p − start (mod m_p)` within the cycle, so the
    /// per-class sizes, the offset CSR and the one-cycle summaries can all be
    /// replayed arithmetically in `O(cycle + attendance)`.  This is the
    /// serving tier's recovery path: a snapshot persists only the compact
    /// view plus the one verdict bit, and rehydration restores a profile
    /// that is [`content_eq`](CycleProfile::content_eq) to the original —
    /// no cold build, no checker traffic.
    ///
    /// The caller vouches for `all_independent` (recovery trusts the
    /// checksummed snapshot and then re-audits a sample through
    /// the serving tier's audit plane).
    ///
    /// # Panics
    /// Panics if the cycle exceeds [`CycleProfile::MAX_CYCLE`].
    pub fn rehydrate(
        view: &ResidueSchedule,
        start: u64,
        node_count: usize,
        all_independent: bool,
    ) -> Self {
        let cycle = view.cycle();
        assert!(
            cycle <= Self::MAX_CYCLE,
            "cycle {cycle} exceeds the profile budget ({})",
            Self::MAX_CYCLE
        );
        let n = node_count;

        // Per-class sizes count ALL view nodes (out-of-range attendance is
        // part of class size, exactly as `view.fill` reports it); per-node
        // lanes exist only for graph nodes `p < n`, mirroring the build's
        // event emission.
        let mut class_sizes = vec![0u64; cycle as usize];
        let mut counts = vec![0u64; n];
        for p in 0..view.node_count() {
            let m = view.modulus(p);
            let first = (view.slot(p) % m + m - start % m) % m;
            let mut o = first;
            let mut hits = 0u64;
            while o < cycle {
                class_sizes[o as usize] += 1;
                hits += 1;
                o += m;
            }
            if let Some(count) = counts.get_mut(p) {
                *count = hits;
            }
        }
        let mut size_prefix = Vec::with_capacity(cycle as usize + 1);
        size_prefix.push(0u64);
        let mut running = 0u64;
        for &size in &class_sizes {
            running += size;
            size_prefix.push(running);
        }

        // Dense node-major CSR with ascending offsets per lane — the exact
        // layout a fresh build's counting sort produces.
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0usize);
        for p in 0..n {
            starts.push(starts[p] + counts[p] as usize);
        }
        let mut offsets = vec![0u64; starts[n]];
        for (p, &row_start) in starts.iter().enumerate().take(n.min(view.node_count())) {
            let m = view.modulus(p);
            let first = (view.slot(p) % m + m - start % m) % m;
            let mut idx = row_start;
            let mut o = first;
            while o < cycle {
                offsets[idx] = o;
                idx += 1;
                o += m;
            }
        }
        let rows: Vec<(usize, usize)> =
            (0..n).map(|p| (starts[p], starts[p + 1] - starts[p])).collect();

        let accums = rows.iter().map(|&(s, l)| lane_summary(&offsets[s..s + l])).collect();

        CycleProfile {
            start,
            cycle,
            node_count: n,
            accums,
            rows,
            offsets,
            garbage: 0,
            size_prefix,
            all_independent,
        }
    }

    /// The profiled cycle length.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// First holiday of the profiled cycle.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Number of nodes the profile tracks.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Whether every residue class passed its independence check.
    pub fn all_classes_independent(&self) -> bool {
        self.all_independent
    }

    /// How many holidays per cycle node `p` attends.
    pub fn count_per_cycle(&self, p: NodeId) -> u64 {
        self.accums[p].happy
    }

    /// The offsets (within the cycle, ascending) at which node `p` attends.
    pub fn attendance_offsets(&self, p: NodeId) -> &[u64] {
        let (s, l) = self.rows[p];
        &self.offsets[s..s + l]
    }

    /// The gap multiset of node `p` over the infinite periodic schedule: the
    /// internal gaps between consecutive attendances within a cycle, plus the
    /// wrap-around gap into the next cycle.  Empty for nodes that never
    /// attend.
    pub fn gaps(&self, p: NodeId) -> impl Iterator<Item = u64> + '_ {
        let offs = self.attendance_offsets(p);
        let wrap = offs.last().map(|&last| self.cycle - last + offs[0]);
        offs.windows(2).map(|w| w[1] - w[0]).chain(wrap)
    }

    /// Total happy appearances over one full cycle (out-of-range members
    /// included, matching the sweep's accounting).
    pub fn happiness_per_cycle(&self) -> u64 {
        self.size_prefix[self.cycle as usize]
    }

    /// Total happy appearances over the first `classes` residue classes of
    /// the cycle — the per-class size prefix ragged tails fold through.
    ///
    /// # Panics
    /// Panics if `classes > cycle`.
    pub fn happiness_prefix(&self, classes: u64) -> u64 {
        self.size_prefix[classes as usize]
    }

    /// Repairs this profile in place after a dynamic edge event, instead of
    /// rebuilding the whole cycle walk: `changes` are the residue rows the
    /// event moved (endpoints the scheduler recolored — see
    /// `DynamicColorBound::apply_event`), `view` is the schedule's
    /// **already-updated** residue view and `inserted_edge` the edge the
    /// event added, if any.  The repair has three parts, each touching only
    /// what the event touched:
    ///
    /// * **attendance lanes** — each changed node's offset row is replaced
    ///   by its new arithmetic progression (`cycle / modulus` offsets; in
    ///   place when the length is unchanged, retired to the arena tail
    ///   otherwise, with compaction once retired entries outweigh live
    ///   ones) and its one-cycle summary is replayed, a single ascending
    ///   record pass;
    /// * **per-class sizes** — one `O(cycle)` delta walk over the size
    ///   prefix subtracts the old progressions and adds the new ones;
    /// * **re-verification** — only the residue classes whose membership
    ///   *gained* a node can newly violate independence: the changed
    ///   nodes' new progressions, plus (for an insert between two nodes
    ///   that kept their rows) the classes where both endpoints co-attend,
    ///   found by CRT on their rows.  Those classes are refilled from
    ///   `view` and batched through [`HolidayChecker::check_batch`]
    ///   (64-wide, like the build); classes that merely *lost* a member
    ///   stay independent (a subset of an independent set), and a deleted
    ///   edge cannot invalidate any class, so everything else keeps its
    ///   verdict.  A failed check flips the profile's verdict to
    ///   non-independent, exactly as a rebuild would conclude.
    ///
    /// The phases run **prepare → validate → commit**: refusal checks and
    /// class collection first, then the batched verification (which reads
    /// only `view` and scratch), and only then the mutating size/row/lane
    /// walk with the pre-computed verdict applied last.  A crash anywhere
    /// before the commit phase leaves the profile bitwise-untouched; a
    /// crash *inside* the commit phase can leave it poisoned, which the
    /// serving tier handles by quarantining the tenant (see
    /// `ProfileService`).
    ///
    /// The patched profile is **bitwise-identical in content** (see
    /// [`CycleProfile::content_eq`]) to `CycleProfile::build` against the
    /// post-event view and graph — only the arena layout may differ —
    /// which `tests/dynamic_patch.rs` pins against the rebuild oracle at
    /// several thread counts.
    ///
    /// Refuses (and leaves the profile untouched) when the event changed
    /// the cycle itself or the cached verdict is already `false`; see
    /// [`PatchRefused`].  Cost: `O(cycle + Σ lanes + Σ deg(checked))` —
    /// independent of node count and total attendance.
    ///
    /// # Panics
    /// Panics if `view` disagrees with the profile's node count, or if a
    /// change's node is out of range — patches must come from the same
    /// scheduler the profile was built from.
    pub fn patch<C: HolidayChecker + ?Sized>(
        &mut self,
        view: &ResidueSchedule,
        changes: &[RowChange],
        inserted_edge: Option<(NodeId, NodeId)>,
        checker: &C,
        scratch: &mut PatchScratch,
    ) -> Result<PatchStats, PatchRefused> {
        let cycle = self.cycle;
        if view.cycle() != cycle {
            return Err(PatchRefused::CycleChanged { old: cycle, new: view.cycle() });
        }
        if !self.all_independent {
            return Err(PatchRefused::NotIndependent);
        }
        assert_eq!(view.node_count(), self.node_count, "patch from a different schedule");

        // Collect the residue classes to re-verify (as cycle offsets):
        // every changed node's *new* progression, plus the co-attendance
        // classes of an inserted edge (CRT over the post-event rows —
        // relevant when neither endpoint was recolored but the new edge
        // now lies inside existing classes).
        scratch.classes.clear();
        for change in changes {
            let m = change.new_modulus;
            debug_assert!(cycle.is_multiple_of(m), "row modulus must divide the unchanged cycle");
            push_progression(
                &mut scratch.classes,
                first_offset(self.start, change.new_slot, m),
                m,
                cycle,
            );
        }
        if let Some((u, v)) = inserted_edge {
            if let Some((t0, l)) =
                crt_class(view.slot(u), view.modulus(u), view.slot(v), view.modulus(v))
            {
                push_progression(&mut scratch.classes, first_offset(self.start, t0, l), l, cycle);
            }
        }
        scratch.classes.sort_unstable();
        scratch.classes.dedup();

        // Validate before commit: batched re-verification of the touched
        // classes, 64-wide like the build, against the (already-updated)
        // `view` — it reads nothing the commit below mutates, so the
        // verdict is decided while the profile is still bitwise-untouched
        // and a crash anywhere up to here leaves nothing to roll back.
        // `enabled` short-circuits after the first failure, exactly
        // mirroring the build's shard loop.
        if scratch.batch_capacity != view.node_count() {
            scratch.batch = ClassBatch::new(view.node_count());
            scratch.batch_capacity = view.node_count();
        }
        let mut ok = true;
        for &o in &scratch.classes {
            let t = self.start + o;
            let happy = scratch.batch.slot(t);
            view.fill(t, happy);
            if scratch.batch.commit() {
                ok &= scratch.batch.flush(ok, checker);
            }
        }
        ok &= scratch.batch.flush(ok, checker);
        crate::fail_point!("profile.patch.validate");

        for change in changes {
            let p = change.node;
            let (old_m, new_m) = (change.old_modulus, change.new_modulus);
            let old_f = first_offset(self.start, change.old_slot, old_m);
            let new_f = first_offset(self.start, change.new_slot, new_m);

            // Per-class size delta: walk the cycle once, subtracting the
            // old progression and adding the new.  The running delta is
            // signed; `wrapping_add` of the sign-extended word is exact.
            let (mut next_old, mut next_new) = (old_f, new_f);
            let mut delta = 0i64;
            for k in 0..cycle {
                if k == next_old {
                    delta -= 1;
                    next_old = next_old.saturating_add(old_m);
                }
                if k == next_new {
                    delta += 1;
                    next_new = next_new.saturating_add(new_m);
                }
                if delta != 0 {
                    let cell = &mut self.size_prefix[(k + 1) as usize];
                    *cell = cell.wrapping_add(delta as u64);
                }
            }

            // Row replacement: in place when the attendance count is
            // unchanged, otherwise retire the old row to the arena.
            let new_len = (cycle / new_m) as usize;
            let (s, l) = self.rows[p];
            if new_len == l {
                for (i, dst) in self.offsets[s..s + l].iter_mut().enumerate() {
                    *dst = new_f + i as u64 * new_m;
                }
            } else {
                self.garbage += l;
                let ns = self.offsets.len();
                self.offsets.extend((0..new_len as u64).map(|i| new_f + i * new_m));
                self.rows[p] = (ns, new_len);
            }

            // Lane replay: the same ascending record pass a fresh build
            // runs for this node.
            let (s, l) = self.rows[p];
            self.accums[p] = lane_summary(&self.offsets[s..s + l]);
        }
        crate::fail_point!("profile.patch.commit");
        if self.garbage > self.offsets.len() / 2 {
            self.compact(scratch);
        }
        self.all_independent = ok;

        Ok(PatchStats { lanes_patched: changes.len(), classes_verified: scratch.classes.len() })
    }

    /// Rewrites the offset arena dense and node-major (the fresh-build
    /// layout), dropping retired rows.  The old arena becomes the next
    /// compaction's target buffer, so both sides keep their high-water
    /// capacity and steady-state compaction allocates nothing.
    fn compact(&mut self, scratch: &mut PatchScratch) {
        scratch.arena.clear();
        scratch.arena.reserve(self.offsets.len() - self.garbage);
        for row in &mut self.rows {
            let (s, l) = *row;
            let ns = scratch.arena.len();
            scratch.arena.extend_from_slice(&self.offsets[s..s + l]);
            *row = (ns, l);
        }
        std::mem::swap(&mut self.offsets, &mut scratch.arena);
        self.garbage = 0;
    }

    /// Whether two profiles describe the same schedule content: every
    /// derived quantity (start, cycle, verdict, per-class sizes, one-cycle
    /// summaries, per-node attendance offsets) is equal — ignoring the arena
    /// layout, which patching is free to permute.  This is the equality the
    /// patch-parity suite pins against the rebuild oracle: `content_eq`
    /// implies every `derive*` output is bitwise-identical.
    pub fn content_eq(&self, other: &CycleProfile) -> bool {
        self.start == other.start
            && self.cycle == other.cycle
            && self.node_count == other.node_count
            && self.all_independent == other.all_independent
            && self.size_prefix == other.size_prefix
            && self.accums == other.accums
            && (0..self.node_count)
                .all(|p| self.attendance_offsets(p) == other.attendance_offsets(p))
    }

    /// Derives the full [`ScheduleAnalysis`] of `horizon` holidays in closed
    /// form.  Returns `None` when `horizon < cycle` (no full repetition to
    /// fold — callers fall back to a sweep engine); `derive(0)` is therefore
    /// always `None` (every cycle is at least 1 long).
    pub fn derive(&self, scheduler: &str, graph: &Graph, horizon: u64) -> Option<ScheduleAnalysis> {
        (horizon >= self.cycle).then(|| self.derive_window(scheduler, graph, 0, horizon))
    }

    /// The totals-only fast path: whole-schedule aggregates of `horizon`
    /// holidays, skipping the per-node assembly and float finalisation
    /// entirely.  Equal to [`CycleProfile::derive`]`(..).totals()` by
    /// construction, and `None` exactly when [`CycleProfile::derive`] is.
    pub fn derive_totals(&self, horizon: u64) -> Option<AnalysisTotals> {
        (horizon >= self.cycle).then(|| self.derive_window_totals(0, horizon))
    }

    /// Derives the full [`ScheduleAnalysis`] of the window `[t0, t1)` —
    /// holidays `start + t0` up to (excluding) `start + t1`, offsets
    /// reported relative to the window start — in closed form via the lane
    /// fold (see the module docs).  **Total over all windows**: zero-width
    /// (`t1 <= t0`) and sub-cycle windows are defined, never `None` or a
    /// panic, so this is the serving tier's entry point.  Bitwise-identical
    /// to [`super::analyze_schedule_reference`] run over the same window
    /// (pinned by `tests/window_parity.rs`), except that the independence
    /// verdict is always the profiled cycle's whole-cycle verdict — a
    /// serving tier answers "is this schedule valid", not "did the bad
    /// class happen to fall inside the window".  Allocates only the output,
    /// independently of the window length.
    pub fn derive_window(
        &self,
        scheduler: &str,
        graph: &Graph,
        t0: u64,
        t1: u64,
    ) -> ScheduleAnalysis {
        let w = self.window(t0, t1);
        sweep::finalize(
            scheduler.to_string(),
            w.len,
            graph,
            (0..self.node_count).map(|p| self.fold_node(p, &w)),
            self.all_independent,
            self.window_happiness(&w),
        )
    }

    /// The totals-only windowed fast path: whole-window aggregates of
    /// `[t0, t1)`, skipping the per-node assembly entirely.  Total over all
    /// windows and **allocation-free** (the steady-state serving shape;
    /// proved by `tests/zero_alloc.rs`).  Equal to
    /// [`CycleProfile::derive_window`]`(..).totals()` by construction.
    pub fn derive_window_totals(&self, t0: u64, t1: u64) -> AnalysisTotals {
        let w = self.window(t0, t1);
        sweep::totals(
            w.len,
            (0..self.node_count).map(|p| self.fold_node(p, &w)),
            self.all_independent,
            self.window_happiness(&w),
        )
    }

    /// Splits the window `[t0, t1)` into its ragged head, whole cycles and
    /// ragged tail.
    fn window(&self, t0: u64, t1: u64) -> Window {
        let cycle = self.cycle;
        let len = t1.saturating_sub(t0);
        let phase = t0 % cycle;
        let head = if phase == 0 { 0 } else { (cycle - phase).min(len) };
        let rest = len - head;
        Window { len, phase, head, reps: rest / cycle, tail: rest % cycle }
    }

    /// The lane fold of node `p`: its global accumulator over window `w`.  The
    /// head, the replicated cycles and the tail are each exactly the segment
    /// summary a sequential record pass over their offsets would produce,
    /// and [`merge_node`] is exact at any cut, so the folded lane equals a
    /// sequential sweep of the window merged into the empty accumulator.
    #[inline]
    fn fold_node(&self, p: NodeId, w: &Window) -> NodeAccum {
        let offsets = self.attendance_offsets(p);
        let mut lane = NodeAccum::empty();
        if w.head > 0 {
            let from = offsets.partition_point(|&o| o < w.phase);
            let mut head = NodeAccum::empty();
            for &o in offsets[from..].iter().take_while(|&&o| o < w.phase + w.head) {
                head.record(o - w.phase);
            }
            merge_node(&mut lane, &head);
        }
        if w.reps > 0 {
            // Shifting a segment moves only its endpoints: every gap field
            // is a difference of offsets.
            let mut cycles = replicate(&self.accums[p], w.reps, self.cycle);
            if cycles.happy > 0 {
                cycles.first += w.head;
                cycles.last += w.head;
            }
            merge_node(&mut lane, &cycles);
        }
        if w.tail > 0 {
            let base = w.head + w.reps * self.cycle;
            let mut tail = NodeAccum::empty();
            for &o in offsets.iter().take_while(|&&o| o < w.tail) {
                tail.record(base + o);
            }
            merge_node(&mut lane, &tail);
        }
        lane
    }

    /// Total happy appearances over window `w`, through the per-class size
    /// prefix.  Per-node fields cannot overflow (each is bounded by the
    /// window length), but the whole-window total is `n`-fold larger, so it
    /// saturates rather than wraps on windows beyond ~10^16 (the sweep
    /// engines could never reach them to compare against anyway).
    fn window_happiness(&self, w: &Window) -> u64 {
        let head =
            self.size_prefix[(w.phase + w.head) as usize] - self.size_prefix[w.phase as usize];
        w.reps
            .saturating_mul(self.happiness_per_cycle())
            .saturating_add(head)
            .saturating_add(self.size_prefix[w.tail as usize])
    }
}

/// A window decomposed for the lane fold: `head` holidays from cycle offset
/// `phase`, then `reps` whole cycles, then `tail` holidays from cycle
/// offset 0 — `len` holidays in all.
struct Window {
    len: u64,
    phase: u64,
    head: u64,
    reps: u64,
    tail: u64,
}

/// The one-cycle summary of one attendance row (ascending offsets).
fn lane_summary(offsets: &[u64]) -> NodeAccum {
    let mut a = NodeAccum::empty();
    offsets.iter().for_each(|&o| a.record(o));
    a
}

/// Analytically replicates a one-cycle accumulator over `reps`
/// consecutive cycles of length `cycle`, producing exactly the segment
/// accumulator a sequential [`NodeAccum::record`] pass over all
/// `reps · count` attendance offsets would: internal gaps repeat `reps`
/// times, and the `reps - 1` cycle boundaries each contribute the
/// wrap-around gap `cycle - last + first`.
#[inline]
fn replicate(a: &NodeAccum, reps: u64, cycle: u64) -> NodeAccum {
    if a.happy == 0 || reps == 0 {
        return NodeAccum::empty();
    }
    let wrap = cycle - a.last + a.first;
    NodeAccum {
        first: a.first,
        last: (reps - 1) * cycle + a.last,
        happy: reps * a.happy,
        gap_sum: reps * a.gap_sum + (reps - 1) * wrap,
        gap_count: reps * a.gap_count + (reps - 1),
        first_gap: if a.gap_count > 0 {
            a.first_gap
        } else if reps > 1 {
            wrap
        } else {
            sweep::NONE
        },
        max_streak: if reps > 1 { a.max_streak.max(wrap - 1) } else { a.max_streak },
        uniform: a.uniform && (reps == 1 || a.gap_count == 0 || a.first_gap == wrap),
    }
}

/// The first cycle offset at which a residue row `t ≡ slot (mod m)` fires,
/// for a cycle anchored at holiday `start`: the least `o` with
/// `start + o ≡ slot (mod m)`.  `slot < m` and `m ≤ cycle ≤ MAX_CYCLE`, so
/// the arithmetic stays far from overflow.
fn first_offset(start: u64, slot: u64, m: u64) -> u64 {
    (slot + m - start % m) % m
}

/// Appends the arithmetic progression `first, first + step, …` below
/// `cycle` to `out` — the cycle offsets of one residue row.
fn push_progression(out: &mut Vec<u64>, first: u64, step: u64, cycle: u64) {
    let mut o = first;
    while o < cycle {
        out.push(o);
        o += step;
    }
}

/// The holidays where two residue rows co-fire, by the Chinese remainder
/// theorem: solves `t ≡ s1 (mod m1)`, `t ≡ s2 (mod m2)`, returning the
/// progression `(t0, lcm(m1, m2))` of common holidays, or `None` when the
/// congruences are incompatible (`s1 ≢ s2 (mod gcd)`) — the rows never
/// co-fire.  Moduli are cycle divisors (≤ 2^22), so the intermediate
/// products fit comfortably in `i128`.
fn crt_class(s1: u64, m1: u64, s2: u64, m2: u64) -> Option<(u64, u64)> {
    fn egcd(a: i128, b: i128) -> (i128, i128) {
        // Returns (g, x) with a·x ≡ g (mod b).
        let (mut r0, mut r1) = (a, b);
        let (mut x0, mut x1) = (1i128, 0i128);
        while r1 != 0 {
            let q = r0 / r1;
            (r0, r1) = (r1, r0 - q * r1);
            (x0, x1) = (x1, x0 - q * x1);
        }
        (r0, x0)
    }
    let (g, x) = egcd(m1 as i128, m2 as i128);
    let diff = s2 as i128 - s1 as i128;
    if diff % g != 0 {
        return None;
    }
    let lcm = (m1 as i128 / g) * m2 as i128;
    let period2 = m2 as i128 / g;
    // t = s1 + m1·k with (m1/g)·k ≡ diff/g (mod m2/g); x inverts m1/g there.
    let k = (diff / g % period2) * (x % period2) % period2;
    let t0 = (s1 as i128 + m1 as i128 * k).rem_euclid(lcm);
    Some((t0 as u64, lcm as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: record every attendance offset of `reps` cycles one by one.
    fn replicate_by_record(offsets: &[u64], reps: u64, cycle: u64) -> NodeAccum {
        let mut a = NodeAccum::empty();
        for rep in 0..reps {
            for &o in offsets {
                a.record(rep * cycle + o);
            }
        }
        a
    }

    const CASES: &[(&[u64], u64)] = &[
        (&[0], 4),
        (&[3], 8),
        (&[0, 2, 4, 6], 8),
        (&[1, 4], 6),
        (&[0, 1, 2, 3, 4, 5, 6, 7], 8),
        (&[5, 6], 16),
        (&[], 4),
    ];

    #[test]
    fn replicate_is_bitwise_identical_to_recording_every_offset() {
        for &(offsets, cycle) in CASES {
            for reps in [1u64, 2, 3, 7] {
                let mut one = NodeAccum::empty();
                offsets.iter().for_each(|&o| one.record(o));
                assert_eq!(
                    replicate(&one, reps, cycle),
                    replicate_by_record(offsets, reps, cycle),
                    "offsets {offsets:?}, cycle {cycle}, reps {reps}"
                );
            }
        }
    }

    /// A profile over arbitrary (not just arithmetic) attendance rows, one
    /// lane per script — the lane fold reads each row on its own, so any
    /// ascending script within the cycle is a valid lane.
    fn scripted_profile(cycle: u64, scripts: &[&[u64]]) -> CycleProfile {
        let mut rows = Vec::new();
        let mut offsets = Vec::new();
        let mut size_prefix = vec![0u64; cycle as usize + 1];
        for script in scripts {
            rows.push((offsets.len(), script.len()));
            offsets.extend_from_slice(script);
            script.iter().for_each(|&o| size_prefix[o as usize + 1] += 1);
        }
        for k in 1..size_prefix.len() {
            size_prefix[k] += size_prefix[k - 1];
        }
        CycleProfile {
            start: 0,
            cycle,
            node_count: scripts.len(),
            accums: scripts.iter().map(|s| lane_summary(s)).collect(),
            rows,
            offsets,
            garbage: 0,
            size_prefix,
            all_independent: true,
        }
    }

    #[test]
    fn lane_fold_equals_recording_every_offset_in_the_window() {
        const CYCLE: u64 = 16;
        let every: Vec<u64> = (0..CYCLE).collect();
        let scripts: [&[u64]; 9] = [
            &[],
            &[0],
            &[5],
            &[15],
            &[0, 2, 4, 6, 8, 10, 12, 14],
            &[1, 4, 5, 9],
            &every,
            &[3, 15],
            &[0, 7, 8],
        ];
        let profile = scripted_profile(CYCLE, &scripts);
        // Anchors on, just past and just before cycle boundaries (one far
        // out), and lengths from zero width through head-only,
        // cycles-only, tail-only and all three pieces.
        let anchors = [0u64, 1, 5, 15, 16, 33, (1 << 20) + 5];
        let lengths = [0u64, 1, 3, 10, 11, 15, 16, 17, 32, 43, 5 * CYCLE + 7];
        let mut shapes = std::collections::BTreeSet::new();
        for t0 in anchors {
            for len in lengths {
                let t1 = t0 + len;
                let w = profile.window(t0, t1);
                shapes.insert((w.head > 0, w.reps > 0, w.tail > 0));
                let mut happiness = 0u64;
                for (p, script) in scripts.iter().enumerate() {
                    let mut seg = NodeAccum::empty();
                    for t in t0..t1 {
                        if script.contains(&(t % CYCLE)) {
                            seg.record(t - t0);
                        }
                    }
                    happiness += seg.happy;
                    // The global accumulator of the window: the recorded
                    // segment merged into the empty one (leading stretch).
                    let mut expected = NodeAccum::empty();
                    merge_node(&mut expected, &seg);
                    assert_eq!(profile.fold_node(p, &w), expected, "lane {p}, [{t0}, {t1})");
                }
                assert_eq!(profile.window_happiness(&w), happiness, "[{t0}, {t1})");
            }
        }
        for shape in [
            (false, false, false),
            (true, false, false),
            (false, true, false),
            (false, false, true),
            (true, true, true),
        ] {
            assert!(shapes.contains(&shape), "grid misses (head, cycles, tail) = {shape:?}");
        }
    }

    #[test]
    fn replicate_detects_uniformity_through_the_wrap_gap() {
        // Evenly spaced with a matching wrap: perfectly periodic.
        let mut even = NodeAccum::empty();
        [1u64, 3, 5, 7].iter().for_each(|&o| even.record(o));
        let r = replicate(&even, 4, 8);
        assert!(r.uniform);
        assert_eq!(r.first_gap, 2);

        // Same spacing but a cycle that breaks the wrap gap.
        let r = replicate(&even, 4, 9);
        assert!(!r.uniform, "wrap gap 3 breaks the period-2 candidate");
    }

    #[test]
    fn single_attendance_per_cycle_is_periodic_with_the_cycle() {
        let mut one = NodeAccum::empty();
        one.record(5);
        let r = replicate(&one, 6, 16);
        assert!(r.uniform);
        assert_eq!(r.first_gap, 16);
        assert_eq!(r.gap_count, 5);
        assert_eq!(r.max_streak, 15);
    }

    #[test]
    fn rehydrate_is_content_equal_to_a_checker_build() {
        use crate::schedulers::PeriodicDegreeBound;
        use crate::Scheduler;
        use fhg_graph::generators::erdos_renyi;

        for (n, p, seed) in [(18, 0.2, 1u64), (40, 0.1, 2), (7, 0.5, 3)] {
            let g = erdos_renyi(n, p, seed);
            let s = PeriodicDegreeBound::new(&g);
            let view = s.residue_schedule().expect("perfectly periodic");
            let checker = super::super::GraphChecker::new(&g);
            let built = CycleProfile::build(view, s.first_holiday(), g.node_count(), &checker);
            let rehydrated = CycleProfile::rehydrate(
                view,
                s.first_holiday(),
                g.node_count(),
                built.all_classes_independent(),
            );
            assert!(
                rehydrated.content_eq(&built),
                "rehydrate diverged from build (n={n}, seed={seed})"
            );
            // And the derived analysis is bitwise identical.
            let h = built.cycle() * 3 + 1;
            assert_eq!(built.derive_totals(h), rehydrated.derive_totals(h));
        }
    }

    #[test]
    fn rehydrate_handles_out_of_range_view_nodes_and_nonzero_start() {
        use crate::schedulers::residue::ResidueSchedule;
        use fhg_graph::generators::erdos_renyi;

        // A view with more nodes than the graph: the extra node's attendance
        // still counts toward class sizes but gets no lane, and the verdict
        // is pinned false — exactly what a checker build concludes.
        let g = erdos_renyi(5, 0.4, 9);
        let view = ResidueSchedule::new(vec![0, 1, 0, 3, 2, 1], vec![2, 4, 4, 4, 4, 2]);
        for start in [0u64, 1, 5, 7] {
            let checker = super::super::GraphChecker::new(&g);
            let built = CycleProfile::build(&view, start, g.node_count(), &checker);
            assert!(!built.all_classes_independent(), "out-of-range node must taint");
            let rehydrated = CycleProfile::rehydrate(&view, start, g.node_count(), false);
            assert!(rehydrated.content_eq(&built), "start {start}");
        }
    }

    #[test]
    fn derive_refuses_sub_cycle_horizons_on_both_paths() {
        use crate::schedulers::PeriodicDegreeBound;
        use crate::Scheduler;
        use fhg_graph::generators::erdos_renyi;

        let g = erdos_renyi(24, 0.15, 3);
        let s = PeriodicDegreeBound::new(&g);
        let view = s.residue_schedule().expect("perfectly periodic");
        let checker = super::super::GraphChecker::new(&g);
        let profile = CycleProfile::build(view, s.first_holiday(), g.node_count(), &checker);
        let cycle = profile.cycle();
        assert!(cycle > 1);
        // The fast path must pin the same edge cases as the full derive.
        assert!(profile.derive("x", &g, 0).is_none(), "derive(0)");
        assert!(profile.derive_totals(0).is_none(), "derive_totals(0)");
        assert!(profile.derive("x", &g, cycle - 1).is_none(), "derive(cycle - 1)");
        assert!(profile.derive_totals(cycle - 1).is_none(), "derive_totals(cycle - 1)");
        assert!(profile.derive("x", &g, cycle).is_some(), "derive(cycle)");
        assert!(profile.derive_totals(cycle).is_some(), "derive_totals(cycle)");
    }

    #[test]
    fn derive_window_pins_the_degenerate_shapes() {
        use crate::schedulers::PeriodicDegreeBound;
        use crate::Scheduler;
        use fhg_graph::generators::erdos_renyi;

        let g = erdos_renyi(24, 0.15, 3);
        let s = PeriodicDegreeBound::new(&g);
        let view = s.residue_schedule().expect("perfectly periodic");
        let checker = super::super::GraphChecker::new(&g);
        let profile = CycleProfile::build(view, s.first_holiday(), g.node_count(), &checker);
        let cycle = profile.cycle();
        assert!(cycle > 1);

        // derive_window(t, t) = the empty analysis, at any anchor.
        for t in [0u64, 1, cycle - 1, cycle, 3 * cycle + 2] {
            let empty = profile.derive_window("w", &g, t, t);
            assert_eq!(empty.horizon, 0);
            assert_eq!(empty.total_happiness, 0);
            assert!(empty.per_node.iter().all(|n| n.happy_count == 0));
            let totals = profile.derive_window_totals(t, t);
            assert_eq!(totals, empty.totals(), "t = {t}");
            // Inverted windows are zero-width too, never a panic.
            let inverted = profile.derive_window_totals(t + 5, t);
            assert_eq!(inverted, totals, "inverted at t = {t}");
        }

        // derive_window(0, h) = derive(h) wherever derive is defined...
        for h in [cycle, cycle + 1, 3 * cycle - 1, 4 * cycle] {
            let classic = profile.derive("w", &g, h).expect("h >= cycle");
            let windowed = profile.derive_window("w", &g, 0, h);
            assert_eq!(windowed.totals(), classic.totals(), "h = {h}");
            assert_eq!(windowed.per_node.len(), classic.per_node.len());
            for (a, b) in windowed.per_node.iter().zip(&classic.per_node) {
                assert_eq!(a.happy_count, b.happy_count, "h = {h}, node {}", a.node);
                assert_eq!(a.max_unhappiness, b.max_unhappiness, "h = {h}, node {}", a.node);
                assert_eq!(a.first_happy, b.first_happy, "h = {h}, node {}", a.node);
                assert_eq!(a.observed_period, b.observed_period, "h = {h}, node {}", a.node);
                assert_eq!(a.mean_gap.to_bits(), b.mean_gap.to_bits(), "h = {h}, node {}", a.node);
            }
            assert_eq!(profile.derive_window_totals(0, h), classic.totals(), "totals h = {h}");
        }

        // ...and stays defined below the cycle, where derive refuses.
        for h in [1u64, cycle / 2, cycle - 1] {
            assert!(profile.derive("w", &g, h).is_none());
            let windowed = profile.derive_window("w", &g, 0, h);
            assert_eq!(windowed.horizon, h);
            assert_eq!(
                windowed.total_happiness,
                profile.happiness_prefix(h),
                "sub-cycle happiness folds through the size prefix (h = {h})"
            );
            assert_eq!(profile.derive_window_totals(0, h), windowed.totals(), "h = {h}");
        }
    }

    #[test]
    fn totals_saturate_instead_of_overflowing_at_the_u64_boundary() {
        use crate::analysis::GraphChecker;
        use fhg_graph::Graph;

        // Four nodes hosting every other holiday: happiness_per_cycle = 4
        // on a cycle of 2, so reps · per_cycle overflows u64 at horizons
        // near u64::MAX and must saturate, while every per-node field stays
        // bounded by the horizon.
        let graph = Graph::new(4);
        let view = ResidueSchedule::new(vec![0, 1, 0, 1], vec![2, 2, 2, 2]);
        let checker = GraphChecker::new(&graph);
        let profile = CycleProfile::build(&view, 0, 4, &checker);
        assert_eq!(profile.happiness_per_cycle(), 4);

        let horizon = u64::MAX;
        let analysis = profile.derive("sat", &graph, horizon).expect("horizon >= cycle");
        assert_eq!(analysis.total_happiness, u64::MAX, "total must saturate, not wrap");
        let n0 = &analysis.per_node[0];
        assert_eq!(n0.happy_count, horizon / 2 + 1, "per-node counts stay exact");
        assert_eq!(n0.observed_period, Some(2));
        let totals = profile.derive_totals(horizon).expect("horizon >= cycle");
        assert_eq!(totals, analysis.totals(), "fast path matches the reduced full derive");
        assert_eq!(totals.total_happiness, u64::MAX);
    }

    #[test]
    fn parallel_build_is_bitwise_identical_across_thread_counts() {
        use crate::schedulers::PeriodicDegreeBound;
        use crate::Scheduler;
        use fhg_graph::generators::erdos_renyi;
        use rayon::ThreadPoolBuilder;

        let g = erdos_renyi(48, 0.12, 11);
        let s = PeriodicDegreeBound::new(&g);
        let view = s.residue_schedule().expect("perfectly periodic");
        let checker = super::super::GraphChecker::new(&g);
        let reference = CycleProfile::build(view, s.first_holiday(), g.node_count(), &checker);
        for threads in [1usize, 2, 3, 8] {
            let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let got = pool
                .install(|| CycleProfile::build(view, s.first_holiday(), g.node_count(), &checker));
            assert_eq!(got.cycle(), reference.cycle());
            assert_eq!(got.all_classes_independent(), reference.all_classes_independent());
            assert_eq!(got.rows, reference.rows, "{threads} threads: attendance rows");
            assert_eq!(got.offsets, reference.offsets, "{threads} threads: attendance offsets");
            assert_eq!(got.size_prefix, reference.size_prefix, "{threads} threads: size prefix");
            assert_eq!(got.accums, reference.accums, "{threads} threads: one-cycle summaries");
            assert!(got.content_eq(&reference), "{threads} threads: content equality");
        }
    }

    #[test]
    fn crt_class_matches_brute_force() {
        for m1 in 1u64..=12 {
            for m2 in 1u64..=12 {
                for s1 in 0..m1 {
                    for s2 in 0..m2 {
                        let got = crt_class(s1, m1, s2, m2);
                        let lcm = m1 / gcd(m1, m2) * m2;
                        let brute: Vec<u64> =
                            (0..2 * lcm).filter(|t| t % m1 == s1 && t % m2 == s2).collect();
                        match got {
                            None => assert!(
                                brute.is_empty(),
                                "({s1} mod {m1}, {s2} mod {m2}): CRT says never, brute {brute:?}"
                            ),
                            Some((t0, l)) => {
                                assert_eq!(l, lcm);
                                assert!(t0 < l, "first solution must be canonical");
                                assert_eq!(
                                    brute,
                                    vec![t0, t0 + l],
                                    "({s1} mod {m1}, {s2} mod {m2})"
                                );
                            }
                        }
                    }
                }
            }
        }
        fn gcd(a: u64, b: u64) -> u64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
    }

    #[test]
    fn patch_tracks_a_row_change_like_a_rebuild() {
        use crate::analysis::GraphChecker;
        use fhg_graph::Graph;

        // A small schedule whose cycle (12) survives moving nodes between
        // the moduli {2, 3, 4, 6, 12}; the edgeless graph keeps every
        // verification green so the structural repair is what's compared.
        let g = Graph::new(6);
        let checker = GraphChecker::new(&g);
        let mut view = ResidueSchedule::new(vec![0, 1, 2, 3, 0, 5], vec![2, 3, 4, 6, 12, 12]);
        let mut profile = CycleProfile::build(&view, 1, 6, &checker);
        let mut scratch = PatchScratch::new();

        // A sequence of row moves, including same-length (4 -> 4 via slot
        // change), shrinking (2 -> 6) and growing (12 -> 3) rows.
        let moves: &[(usize, u64, u64)] =
            &[(2, 1, 4), (0, 1, 6), (5, 2, 3), (0, 0, 2), (3, 1, 4), (5, 0, 12)];
        for &(p, slot, m) in moves {
            let change = RowChange {
                node: p,
                old_slot: view.slot(p),
                old_modulus: view.modulus(p),
                new_slot: slot,
                new_modulus: m,
            };
            view.set_row(p, slot, m);
            assert_eq!(view.cycle(), 12, "moves must preserve the cycle");
            let stats =
                profile.patch(&view, &[change], None, &checker, &mut scratch).expect("same cycle");
            assert_eq!(stats.lanes_patched, 1);
            let rebuilt = CycleProfile::build(&view, 1, 6, &checker);
            assert!(
                profile.content_eq(&rebuilt),
                "patched profile diverged from rebuild after moving node {p} to {slot} mod {m}"
            );
        }
    }

    #[test]
    fn patch_refuses_cycle_changes_and_broken_verdicts() {
        use crate::analysis::GraphChecker;
        use fhg_graph::generators::structured::path;

        let g = path(3);
        let checker = GraphChecker::new(&g);
        let view = ResidueSchedule::new(vec![0, 1, 0], vec![2, 2, 4]);
        let mut profile = CycleProfile::build(&view, 0, 3, &checker);
        let mut scratch = PatchScratch::new();

        // A view whose cycle differs from the profiled one.
        let stretched = ResidueSchedule::new(vec![0, 1, 0], vec![2, 2, 8]);
        let refusal = profile.patch(&stretched, &[], None, &checker, &mut scratch);
        assert_eq!(refusal, Err(PatchRefused::CycleChanged { old: 4, new: 8 }));

        // A profile whose verdict is already false: adjacent path nodes 0
        // and 1 share the row 0 mod 2, so every even class conflicts.
        let clashing = ResidueSchedule::new(vec![0, 0, 1], vec![2, 2, 4]);
        let mut broken = CycleProfile::build(&clashing, 0, 3, &checker);
        assert!(!broken.all_classes_independent());
        let refusal = broken.patch(&clashing, &[], None, &checker, &mut scratch);
        assert_eq!(refusal, Err(PatchRefused::NotIndependent));
        assert!(format!("{}", refusal.unwrap_err()).contains("rebuild"));
    }

    #[test]
    fn patch_detects_freshly_conflicting_classes_via_the_inserted_edge() {
        use crate::analysis::GraphChecker;
        use fhg_graph::Graph;

        // Nodes 0 and 1 co-attend every 6th holiday (0 mod 2 ∩ 0 mod 3).
        let mut g = Graph::new(2);
        let view = ResidueSchedule::new(vec![0, 0], vec![2, 3]);
        let checker = GraphChecker::new(&g);
        let mut profile = CycleProfile::build(&view, 0, 2, &checker);
        assert!(profile.all_classes_independent(), "no edges yet");
        let mut scratch = PatchScratch::new();

        // Insert the edge without any recoloring (no row changes): the
        // repair must find the co-attendance classes by CRT and flip the
        // verdict, exactly as a rebuild against the new graph would.
        g.add_edge(0, 1).unwrap();
        let post_checker = GraphChecker::new(&g);
        let stats = profile
            .patch(&view, &[], Some((0, 1)), &post_checker, &mut scratch)
            .expect("cycle unchanged");
        assert_eq!(stats.classes_verified, 1, "one co-attendance class in a cycle of 6");
        assert!(!profile.all_classes_independent());
        let rebuilt = CycleProfile::build(&view, 0, 2, &post_checker);
        assert!(profile.content_eq(&rebuilt));
    }

    #[test]
    fn patch_compaction_keeps_every_row_intact() {
        use crate::analysis::GraphChecker;
        use fhg_graph::Graph;

        // Bounce one node between a 12-row and a 2-row progression until
        // retired rows outweigh live ones and compaction kicks in; the
        // profile must stay identical to a rebuild throughout.
        let g = Graph::new(4);
        let checker = GraphChecker::new(&g);
        let mut view = ResidueSchedule::new(vec![0, 1, 2, 3], vec![12, 12, 12, 12]);
        let mut profile = CycleProfile::build(&view, 0, 4, &checker);
        let mut scratch = PatchScratch::new();
        for round in 0..6u64 {
            let m = if round % 2 == 0 { 2 } else { 12 };
            let change = RowChange {
                node: 0,
                old_slot: view.slot(0),
                old_modulus: view.modulus(0),
                new_slot: round % 2,
                new_modulus: m,
            };
            view.set_row(0, round % 2, m);
            profile.patch(&view, &[change], None, &checker, &mut scratch).expect("cycle fixed");
            let rebuilt = CycleProfile::build(&view, 0, 4, &checker);
            assert!(profile.content_eq(&rebuilt), "round {round}");
        }
        assert!(
            profile.garbage * 2 <= profile.offsets.len(),
            "compaction must keep retired entries at most half the arena"
        );
    }
}
