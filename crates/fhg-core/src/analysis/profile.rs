//! Cycle profiles: the serving tier's cached form of a residue schedule —
//! verify each residue class once, then answer any window from a table of
//! the schedule's distinct progressions.
//!
//! A perfectly periodic schedule repeats with period `C =`
//! [`ResidueSchedule::cycle`]: the happy set of holiday `t` depends only on
//! `t mod C`.  In every such schedule of the paper node `p` attends exactly
//! one arithmetic progression, its view row `s_p (mod m_p)`, and the rows
//! come from a colouring, so a schedule has about as many distinct
//! progressions as colours, not nodes.  A [`CycleProfile`] keeps three
//! things:
//!
//! * the **lane table**: one lane per distinct progression of the graph
//!   nodes' rows — its first cycle offset, its step (the modulus) and how
//!   many graph nodes hold it — plus one empty lane for the graph nodes
//!   past the view, and a `u32` lane id per node;
//! * the **per-class size prefix**, from which the window's total
//!   happiness folds exactly (view nodes past the graph included);
//! * the **verdict**: whether every residue class passed its independence
//!   check.
//!
//! # Sharded build with no events
//!
//! [`CycleProfile::build`] walks one cycle of residue classes to verify
//! each exactly once (locked down by `tests/residue_cache.rs`) and to record
//! its size.  The classes split into one contiguous range per worker of the
//! persistent `compat/rayon` pool; each shard emits, counts and
//! batch-verifies its range with private scratch and collects nothing else.
//! The sizes concatenate in class order, and the lane table comes from one
//! `O(n)` grouping of the view rows, shared with
//! [`CycleProfile::rehydrate`], so the built profile, and everything derived
//! from it, is **bitwise-identical at any thread count** (pinned by the
//! build-parity test below and `tests/analysis_parity.rs`).  A view node
//! past the graph attends some class of every cycle, so it fails the
//! verdict without a class being checked.
//!
//! # Closed-form derivation: one formula per lane
//!
//! Over the window `[t0, t1)` a lane is the same progression read from
//! `t0`: its first offset is the least `o` with `t0 + o ≡ first (mod
//! step)`, and [`window_lane`], the per-node formula of the progression
//! engine ([`super::progression`]), turns that offset, the step and the
//! window length into the accumulator a sequential record pass over the
//! window ends with.  [`CycleProfile::derive_window`] (and
//! [`CycleProfile::derive`] over `[0, h)`) reads each node's lane by id and
//! reduces it to a [`NodeAnalysis`](super::NodeAnalysis) through the sweep's
//! per-node arithmetic, in `O(n)`.
//!
//! # The totals fold
//!
//! [`CycleProfile::derive_window_totals`] (and [`CycleProfile::derive_totals`])
//! folds each non-empty lane once.  The longest unhappy stretch and
//! `all_periodic` are a maximum and a conjunction, which the nodes sharing a
//! lane cannot change, and `never_happy` adds the lane's node count, so a
//! totals answer costs `O(#lanes)` instead of `O(n)` and stays bitwise the
//! per-node fold.  Both derivations are **bitwise-identical** to
//! [`super::analyze_schedule_reference`] over the same window (locked down
//! by `tests/analysis_parity.rs`, `tests/window_parity.rs` and, across edge
//! churn, `tests/dynamic_patch.rs`).  The window's total happiness comes
//! from the size prefix: the ragged head of the phase cycle, the whole
//! cycles and the ragged tail.  The cost is `O(C)` emissions for the build,
//! then one derivation is independent of the cycle, the attendance and the
//! window.
//!
//! The windowed entry points are **total**: zero-width, inverted and
//! sub-cycle windows take the same formula (`derive_window(t, t)` is the
//! empty analysis), so no request shape can panic a long-lived
//! server.  The whole-cycle verdict caveat: the window's independence flag
//! is the *cycle's* verdict, not the window restriction (see the method
//! docs).  The totals paths skip the per-node assembly and float work and
//! allocate nothing at all; the full paths allocate only their output
//! (both proved by `tests/zero_alloc.rs`).

use std::collections::HashMap;

use fhg_codes::Progression;
use fhg_graph::{Graph, NodeId};
use rayon::prelude::*;

use super::checker::{ClassBatch, HolidayChecker};
use super::progression::window_lane;
use super::sweep::{self, NodeAccum, TotalsFold};
use super::{AnalysisTotals, ScheduleAnalysis};
use crate::schedulers::residue::{ResidueSchedule, RowChange};

/// A profile of one full residue cycle: the lane table of the schedule's
/// progressions, the per-class sizes and the per-class verification
/// verdict, sufficient to derive the analysis of any window in closed form.
///
/// The profile is also **patchable**: after a dynamic edge event moves a
/// handful of nodes to new residue rows, [`CycleProfile::patch`] moves
/// exactly those nodes between lanes instead of rebuilding the whole cycle
/// walk (see the method docs for the repair algebra and what it
/// re-verifies).
#[derive(Clone)]
pub struct CycleProfile {
    /// First holiday of the profiled cycle (the scheduler's
    /// [`first_holiday`](crate::scheduler::Scheduler::first_holiday)).
    start: u64,
    /// The schedule's cycle length `C`.
    cycle: u64,
    /// One lane per distinct progression of the graph nodes' rows, plus the
    /// empty lane of graph nodes past the view.  A patch may empty a lane
    /// and later reuse it for another progression; the table never shrinks.
    lanes: Vec<Lane>,
    /// Each graph node's index into `lanes` (attendance of view nodes past
    /// the graph is flagged as non-independent and gets no lane, like the
    /// other engines do).
    lane_of: Vec<u32>,
    /// Prefix sums of the per-class happy-set sizes (`size_prefix[k]` = total
    /// happiness of the first `k` classes), so ragged tails fold exactly.
    size_prefix: Vec<u64>,
    /// Whether every residue class passed its independence check.
    all_independent: bool,
}

/// The graph nodes holding one arithmetic progression of the cycle: they
/// attend the cycle offsets `first + k·step` below the cycle, with `first <
/// step` and `step` dividing the cycle.  `step == 0` is the empty lane of
/// graph nodes past the view, which never attend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Lane {
    first: u64,
    step: u64,
    /// How many graph nodes hold the lane; 0 once a patch has emptied it.
    nodes: u64,
}

impl Lane {
    /// The merged accumulator of each node on this lane over the `len`
    /// holidays from holiday `start + t0`, in closed form.
    #[inline]
    fn window(&self, t0: u64, len: u64) -> NodeAccum {
        if self.step == 0 {
            return NodeAccum::empty();
        }
        let row = Progression { slot: self.first, modulus: self.step };
        window_lane(row.offset_from(t0), self.step, len)
    }
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
    /// Nodes whose residue row changed and that moved between lanes.
    pub lanes_patched: usize,
    /// Residue classes re-verified through the checker.
    pub classes_verified: usize,
}

/// Reusable buffers for [`CycleProfile::patch`]: the verification batch
/// and the touched-class list.  Allocate once next to the cached profile;
/// after warm-up a patch performs zero heap allocations (proved by
/// `tests/zero_alloc.rs`).
pub struct PatchScratch {
    batch: ClassBatch,
    batch_capacity: usize,
    classes: Vec<u64>,
}

impl Default for PatchScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl PatchScratch {
    /// Empty scratch; the first patch sizes it.
    pub fn new() -> Self {
        PatchScratch { batch: ClassBatch::new(0), batch_capacity: 0, classes: Vec::new() }
    }
}

/// One worker's contiguous range of residue classes during the parallel
/// profile build: the per-class sizes and the verification batch buffer.
struct BuildShard {
    range: std::ops::Range<u64>,
    sizes: Vec<u64>,
    batch: ClassBatch,
    all_independent: bool,
}

impl CycleProfile {
    /// Largest cycle the profile will materialise: the per-class size
    /// prefix and the cycle walk itself are `O(cycle)`.  A serving-tier
    /// budget: `ProfileService` refuses to register (or patch a tenant
    /// into) a longer cycle with a typed error, and [`CycleProfile::build`]
    /// panics beyond it.  One-shot analysis has no cycle budget.
    pub const MAX_CYCLE: u64 = 1 << 22;

    /// Largest total attendance (`Σ_p cycle / modulus_p`) the serving tier
    /// accepts.  The profile stores no attendance; the budget bounds the
    /// one walk that still visits every attendance of a cycle,
    /// [`CycleProfile::rehydrate`]'s class-size walk, which a hub-and-spoke
    /// degree distribution can make `n · cycle / 2` long even when the cycle
    /// is short.  Checked by `ProfileService` on
    /// [`ResidueSchedule::attendance_per_cycle`] alongside
    /// [`CycleProfile::MAX_CYCLE`]; one-shot analysis has no attendance
    /// budget.
    pub const MAX_EVENTS: u64 = 1 << 24;

    /// Profiles one full cycle of `view` starting at holiday `start`,
    /// verifying each residue class exactly once through `checker`.  The
    /// class walk shards across the ambient worker-thread pool (the
    /// `FHG_THREADS` knob / an installed pool); the result is
    /// bitwise-identical at any thread count (see the module docs).
    ///
    /// `node_count` is the conflict graph's node count: a view node at or
    /// beyond it marks the schedule non-independent (mirroring the other
    /// engines) and gets no lane.
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
        // Every view node attends at least one class per cycle, so a node
        // past the graph fails the verdict before any class is checked.
        let in_range = view.node_count() <= node_count;
        let threads = rayon::current_num_threads().max(1);
        let mut shards: Vec<BuildShard> = split_offsets(cycle, threads)
            .into_iter()
            .map(|range| BuildShard {
                sizes: Vec::with_capacity((range.end - range.start) as usize),
                range,
                batch: ClassBatch::new(view.node_count()),
                all_independent: in_range,
            })
            .collect();

        // The parallel class walk: `view.fill` is pure in `t`, so each
        // shard emits, counts and verifies its contiguous class range with
        // private scratch — each class is filled and verified exactly once,
        // by the one shard that owns it.  Verification is batched: classes
        // buffer into the shard's [`ClassBatch`] slots and flush through
        // [`HolidayChecker::check_batch`] up to 64 at a time, so a
        // [`super::GraphChecker`] loads each adjacency row once per batch
        // instead of once per class.
        shards.par_iter_mut().for_each(|shard| {
            for offset in shard.range.clone() {
                let t = start + offset;
                let happy = shard.batch.slot(t);
                view.fill(t, happy);
                shard.sizes.push(happy.len() as u64);
                if shard.batch.commit() {
                    let ok = shard.batch.flush(shard.all_independent, checker);
                    shard.all_independent &= ok;
                }
            }
            let ok = shard.batch.flush(shard.all_independent, checker);
            shard.all_independent &= ok;
        });

        // Shards are contiguous ascending ranges, so their sizes
        // concatenate in class order at any thread count.
        let (lanes, lane_of) = group_lanes(view, start, node_count);
        CycleProfile {
            start,
            cycle,
            lanes,
            lane_of,
            size_prefix: prefix_sums(shards.iter().flat_map(|s| s.sizes.iter().copied()), cycle),
            all_independent: in_range && shards.iter().all(|s| s.all_independent),
        }
    }

    /// Reconstructs a profile from its deterministic inputs — view, start,
    /// node count and the previously verified per-class verdict — without
    /// running a checker or walking happy sets.
    ///
    /// Everything a [`CycleProfile::build`] computes except the verdict is a
    /// pure function of the residue view: node `p` attends exactly the
    /// offsets `o ≡ slot_p − start (mod m_p)` within the cycle, so the lane
    /// table is the build's grouping of the rows and the per-class sizes
    /// are replayed arithmetically in `O(cycle + attendance)`.  This is the
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

        // Per-class sizes count ALL view nodes (out-of-range attendance is
        // part of class size, exactly as `view.fill` reports it).
        let mut class_sizes = vec![0u64; cycle as usize];
        for p in 0..view.node_count() {
            let row = view.row(p);
            let mut o = row.offset_from(start);
            while o < cycle {
                class_sizes[o as usize] += 1;
                o += row.modulus;
            }
        }
        let (lanes, lane_of) = group_lanes(view, start, node_count);
        CycleProfile {
            start,
            cycle,
            lanes,
            lane_of,
            size_prefix: prefix_sums(class_sizes, cycle),
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
        self.lane_of.len()
    }

    /// Whether every residue class passed its independence check.
    pub fn all_classes_independent(&self) -> bool {
        self.all_independent
    }

    /// Node `p`'s lane.
    #[inline]
    fn lane(&self, p: NodeId) -> &Lane {
        &self.lanes[self.lane_of[p] as usize]
    }

    /// How many holidays per cycle node `p` attends.
    pub fn count_per_cycle(&self, p: NodeId) -> u64 {
        self.cycle.checked_div(self.lane(p).step).unwrap_or(0)
    }

    /// The offsets (within the cycle, ascending) at which node `p` attends:
    /// `first + k·step` for each of its [`count_per_cycle`] attendances.
    ///
    /// [`count_per_cycle`]: CycleProfile::count_per_cycle
    pub fn attendance_offsets(&self, p: NodeId) -> impl Iterator<Item = u64> {
        let Lane { first, step, .. } = *self.lane(p);
        (0..self.count_per_cycle(p)).map(move |k| first + k * step)
    }

    /// The gap multiset of node `p` over the infinite periodic schedule: the
    /// internal gaps between consecutive attendances within a cycle, plus the
    /// wrap-around gap into the next cycle — the lane's step, once per
    /// attendance.  Empty for nodes that never attend.
    pub fn gaps(&self, p: NodeId) -> impl Iterator<Item = u64> {
        std::iter::repeat_n(self.lane(p).step, self.count_per_cycle(p) as usize)
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
    /// * **lanes** — each changed node moves to the lane of its new
    ///   progression, found by a linear search of the lane table: the lane
    ///   already holding it, else the first lane a patch emptied, else a
    ///   new lane at the end.  The table never shrinks, so steady-state
    ///   patches allocate nothing;
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
    /// only `view` and scratch), and only then the mutating size/lane walk
    /// with the pre-computed verdict applied last.  A crash anywhere before
    /// the commit phase leaves the profile bitwise-untouched; a crash
    /// *inside* the commit phase can leave it poisoned, which the serving
    /// tier handles by quarantining the tenant (see `ProfileService`).
    ///
    /// The patched profile is **bitwise-identical in content** (see
    /// [`CycleProfile::content_eq`]) to `CycleProfile::build` against the
    /// post-event view and graph — only the lane table's order and its
    /// emptied lanes may differ — which `tests/dynamic_patch.rs` pins
    /// against the rebuild oracle at several thread counts.
    ///
    /// Refuses (and leaves the profile untouched) when the event changed
    /// the cycle itself or the cached verdict is already `false`; see
    /// [`PatchRefused`].  Cost: `O(cycle + #lanes + Σ deg(checked))` per
    /// change — independent of node count and total attendance.
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
        assert_eq!(view.node_count(), self.node_count(), "patch from a different schedule");

        // Collect the residue classes to re-verify (as cycle offsets):
        // every changed node's *new* progression, plus the co-attendance
        // classes of an inserted edge (CRT over the post-event rows —
        // relevant when neither endpoint was recolored but the new edge
        // now lies inside existing classes).
        scratch.classes.clear();
        for change in changes {
            let m = change.new.modulus;
            debug_assert!(cycle.is_multiple_of(m), "row modulus must divide the unchanged cycle");
            push_progression(&mut scratch.classes, change.new.offset_from(self.start), m, cycle);
        }
        if let Some((u, v)) = inserted_edge {
            if let Some((first, step)) = view.row(u).meeting(&view.row(v), self.start) {
                // Both moduli divide the unchanged cycle, so the meeting
                // fits in a u64.
                push_progression(&mut scratch.classes, first as u64, step as u64, cycle);
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
            let (old_m, new_m) = (change.old.modulus, change.new.modulus);
            let old_f = change.old.offset_from(self.start);
            let new_f = change.new.offset_from(self.start);

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
            self.move_to_lane(change.node, new_f, new_m);
        }
        crate::fail_point!("profile.patch.commit");
        self.all_independent = ok;

        Ok(PatchStats { lanes_patched: changes.len(), classes_verified: scratch.classes.len() })
    }

    /// Moves node `p` onto the lane of the progression `(first, step)`: the
    /// lane holding it if there is one, else the first emptied lane, else a
    /// new lane at the end of the table.
    fn move_to_lane(&mut self, p: NodeId, first: u64, step: u64) {
        self.lanes[self.lane_of[p] as usize].nodes -= 1;
        let found = self.lanes.iter().position(|l| (l.first, l.step) == (first, step));
        let id = found.unwrap_or_else(|| {
            let lane = Lane { first, step, nodes: 0 };
            match self.lanes.iter().position(|l| l.nodes == 0) {
                Some(id) => {
                    self.lanes[id] = lane;
                    id
                }
                None => {
                    self.lanes.push(lane);
                    self.lanes.len() - 1
                }
            }
        });
        self.lanes[id].nodes += 1;
        self.lane_of[p] = lane_id(id);
    }

    /// Whether two profiles describe the same schedule content: start,
    /// cycle, verdict, per-class sizes and every node's progression `(first,
    /// step)` are equal — ignoring the lane table's order and its emptied
    /// lanes, which patching is free to leave behind.  This is the equality
    /// the patch-parity suite pins against the rebuild oracle: `content_eq`
    /// implies every `derive*` output is bitwise-identical.
    pub fn content_eq(&self, other: &CycleProfile) -> bool {
        self.start == other.start
            && self.cycle == other.cycle
            && self.node_count() == other.node_count()
            && self.all_independent == other.all_independent
            && self.size_prefix == other.size_prefix
            && (0..self.node_count()).all(|p| {
                let (a, b) = (self.lane(p), other.lane(p));
                (a.first, a.step) == (b.first, b.step)
            })
    }

    /// Derives the full [`ScheduleAnalysis`] of `horizon` holidays in closed
    /// form, in `O(n)` whatever the horizon and the cycle (see the module
    /// docs).  Returns `None` when `horizon < cycle`, the horizons that hold
    /// no whole cycle ([`CycleProfile::derive_window`] covers those);
    /// `derive(0)` is therefore always `None` (every cycle is at least 1
    /// long).
    pub fn derive(&self, scheduler: &str, graph: &Graph, horizon: u64) -> Option<ScheduleAnalysis> {
        (horizon >= self.cycle).then(|| self.derive_window(scheduler, graph, 0, horizon))
    }

    /// The totals-only fast path: whole-schedule aggregates of `horizon`
    /// holidays, skipping the per-node assembly and float finalisation
    /// entirely, in `O(#lanes)`.  Equal to
    /// [`CycleProfile::derive`]`(..).totals()`, and `None` exactly when
    /// [`CycleProfile::derive`] is.
    pub fn derive_totals(&self, horizon: u64) -> Option<AnalysisTotals> {
        (horizon >= self.cycle).then(|| self.derive_window_totals(0, horizon))
    }

    /// Derives the full [`ScheduleAnalysis`] of the window `[t0, t1)` —
    /// holidays `start + t0` up to (excluding) `start + t1`, offsets
    /// reported relative to the window start — in closed form, one `O(1)`
    /// formula per node, read from its lane (see the module docs): `O(n)`,
    /// independent of the cycle, the attendance, the anchor and the window
    /// length.  **Total over all windows**: zero-width (`t1 <= t0`) and
    /// sub-cycle windows are defined, never `None` or a panic, so this is
    /// the serving tier's entry point.  Bitwise-identical to
    /// [`super::analyze_schedule_reference`] run over the same window
    /// (pinned by `tests/window_parity.rs`), except that the independence
    /// verdict is always the profiled cycle's whole-cycle verdict — a
    /// serving tier answers "is this schedule valid", not "did the bad
    /// class happen to fall inside the window".  Allocates only the output.
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
            (0..self.node_count()).map(|p| self.lane(p).window(t0, w.len)),
            self.all_independent,
            self.window_happiness(&w),
        )
    }

    /// The totals-only windowed fast path: whole-window aggregates of
    /// `[t0, t1)`, skipping the per-node assembly entirely.  It folds each
    /// non-empty lane once, weighting `never_happy` by the lane's node
    /// count, so it costs `O(#lanes)`; it is total over all windows and
    /// **allocation-free** (the steady-state serving shape; proved by
    /// `tests/zero_alloc.rs`).  Equal to
    /// [`CycleProfile::derive_window`]`(..).totals()`: the maximum and the
    /// periodicity conjunction are idempotent over the nodes of a lane
    /// (pinned by the lane-fold tests below).
    pub fn derive_window_totals(&self, t0: u64, t1: u64) -> AnalysisTotals {
        let w = self.window(t0, t1);
        let mut fold = TotalsFold::new();
        for lane in self.lanes.iter().filter(|lane| lane.nodes > 0) {
            fold.absorb(&lane.window(t0, w.len), w.len, lane.nodes);
        }
        fold.finish(w.len, self.all_independent, self.window_happiness(&w))
    }

    /// Splits the window `[t0, t1)` into its ragged head, whole cycles and
    /// ragged tail, the pieces its happiness total sums.
    fn window(&self, t0: u64, t1: u64) -> Window {
        let cycle = self.cycle;
        let len = t1.saturating_sub(t0);
        let phase = t0 % cycle;
        let head = if phase == 0 { 0 } else { (cycle - phase).min(len) };
        let rest = len - head;
        Window { len, phase, head, reps: rest / cycle, tail: rest % cycle }
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

/// A window decomposed for its happiness total: `head` holidays from cycle
/// offset `phase`, then `reps` whole cycles, then `tail` holidays from cycle
/// offset 0 — `len` holidays in all.
struct Window {
    len: u64,
    phase: u64,
    head: u64,
    reps: u64,
    tail: u64,
}

/// The lane table of graph nodes `0..n` on `view` from holiday `start`: one
/// lane per distinct progression `(first cycle offset, modulus)`, numbered
/// in node order, plus one empty lane for the graph nodes past the view;
/// and each node's lane id.  One hash lookup per node.
fn group_lanes(view: &ResidueSchedule, start: u64, n: usize) -> (Vec<Lane>, Vec<u32>) {
    let mut ids: HashMap<(u64, u64), u32> = HashMap::new();
    let mut lanes: Vec<Lane> = Vec::new();
    let lane_of = (0..n)
        .map(|p| {
            let (first, step) = if p < view.node_count() {
                let row = view.row(p);
                (row.offset_from(start), row.modulus)
            } else {
                (0, 0)
            };
            let id = *ids.entry((first, step)).or_insert_with(|| {
                lanes.push(Lane { first, step, nodes: 0 });
                lane_id(lanes.len() - 1)
            });
            lanes[id as usize].nodes += 1;
            id
        })
        .collect();
    (lanes, lane_of)
}

/// A lane index narrowed to the stored `u32` id.  There are at most as many
/// lanes as nodes plus one.
fn lane_id(index: usize) -> u32 {
    u32::try_from(index).expect("lane count exceeds u32")
}

/// The size prefix of one cycle's per-class sizes: `0`, then the running
/// totals.
fn prefix_sums(sizes: impl IntoIterator<Item = u64>, cycle: u64) -> Vec<u64> {
    let mut prefix = Vec::with_capacity(cycle as usize + 1);
    prefix.push(0);
    let mut running = 0u64;
    prefix.extend(sizes.into_iter().map(|size| {
        running += size;
        running
    }));
    prefix
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

/// Splits `total` classes into at most `parts` contiguous, non-empty
/// ranges (earlier ranges get the remainder, matching an even split).
fn split_offsets(total: u64, parts: usize) -> Vec<std::ops::Range<u64>> {
    if total == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = (parts as u64).min(total);
    let base = total / parts;
    let remainder = total % parts;
    let mut ranges = Vec::with_capacity(parts as usize);
    let mut lo = 0u64;
    for i in 0..parts {
        let len = base + u64::from(i < remainder);
        ranges.push(lo..lo + len);
        lo += len;
    }
    ranges
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::sweep::{merge_node, NONE};

    /// The replay witness for the closed-form fold: node `p`'s lane over
    /// window `w`, folded piece by piece from its attendance offsets.  The
    /// ragged head is replayed from the offsets rebased by the phase, the
    /// whole cycles are replicated from the one-cycle record pass
    /// ([`replicate`]) and rebased behind the head, and the ragged tail is
    /// replayed like the head; the three segments merge in window order
    /// through [`merge_node`], which is exact at any cut.  It reads only the
    /// offsets, so it shares no arithmetic with [`window_lane`].
    fn replay_fold(profile: &CycleProfile, p: NodeId, w: &Window) -> NodeAccum {
        let offsets: Vec<u64> = profile.attendance_offsets(p).collect();
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
            let mut one = NodeAccum::empty();
            offsets.iter().for_each(|&o| one.record(o));
            let mut cycles = replicate(&one, w.reps, profile.cycle);
            if cycles.happy > 0 {
                cycles.first += w.head;
                cycles.last += w.head;
            }
            merge_node(&mut lane, &cycles);
        }
        if w.tail > 0 {
            let base = w.head + w.reps * profile.cycle;
            let mut tail = NodeAccum::empty();
            for &o in offsets.iter().take_while(|&&o| o < w.tail) {
                tail.record(base + o);
            }
            merge_node(&mut lane, &tail);
        }
        lane
    }

    /// Analytically replicates a one-cycle accumulator over `reps`
    /// consecutive cycles of length `cycle`, producing exactly the segment
    /// accumulator a sequential [`NodeAccum::record`] pass over all
    /// `reps · count` attendance offsets would: internal gaps repeat `reps`
    /// times, and the `reps - 1` cycle boundaries each contribute the
    /// wrap-around gap `cycle - last + first`.
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
                NONE
            },
            max_streak: if reps > 1 { a.max_streak.max(wrap - 1) } else { a.max_streak },
            uniform: a.uniform && (reps == 1 || a.gap_count == 0 || a.first_gap == wrap),
        }
    }

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

    /// A profile holding every arithmetic lane of `cycle` — one lane per
    /// `(first, step)` with `step | cycle` and `first < step` — where lane
    /// `i` holds `1 + i % 3` view nodes, dealt round-robin so a lane's nodes
    /// are not adjacent, plus the empty lane of two graph nodes past the
    /// view.  It starts at holiday 0, so a lane's first cycle offset is its
    /// slot.  Returns the profile and each view node's `(first, step)`.
    fn arithmetic_profile(cycle: u64) -> (CycleProfile, Vec<(u64, u64)>) {
        let progressions: Vec<(u64, u64)> = (1..=cycle)
            .filter(|&step| cycle.is_multiple_of(step))
            .flat_map(|step| (0..step).map(move |first| (first, step)))
            .collect();
        let rows: Vec<(u64, u64)> = (0..3)
            .flat_map(|round| progressions.iter().enumerate().filter(move |&(i, _)| i % 3 >= round))
            .map(|(_, &row)| row)
            .collect();
        let view = ResidueSchedule::new(
            rows.iter().map(|&(first, _)| first).collect(),
            rows.iter().map(|&(_, step)| step).collect(),
        );
        let profile = CycleProfile::rehydrate(&view, 0, rows.len() + 2, true);
        assert_eq!(profile.cycle(), cycle);
        let nodes: Vec<u64> = profile.lanes.iter().map(|lane| lane.nodes).collect();
        let expected: Vec<u64> =
            (0..progressions.len() as u64).map(|i| 1 + i % 3).chain([2]).collect();
        assert_eq!(nodes, expected, "lane node counts, in node order, then the empty lane");
        assert_eq!(profile.count_per_cycle(rows.len() + 1), 0, "the last lane is empty");
        (profile, rows)
    }

    /// Every `(head, whole cycles, tail)` shape a window grid must reach.
    const SHAPES: [(bool, bool, bool); 5] = [
        (false, false, false),
        (true, false, false),
        (false, true, false),
        (false, false, true),
        (true, true, true),
    ];

    #[test]
    fn lane_fold_equals_recording_every_offset_in_the_window() {
        const CYCLE: u64 = 16;
        let (profile, lanes) = arithmetic_profile(CYCLE);
        let graph = Graph::new(profile.node_count());
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
                for p in 0..profile.node_count() {
                    let hosts = |t: u64| lanes.get(p).is_some_and(|&(f, s)| t % s == f);
                    let mut seg = NodeAccum::empty();
                    for t in (t0..t1).filter(|&t| hosts(t)) {
                        seg.record(t - t0);
                    }
                    happiness += seg.happy;
                    // The global accumulator of the window: the recorded
                    // segment merged into the empty one (leading stretch).
                    let mut expected = NodeAccum::empty();
                    merge_node(&mut expected, &seg);
                    let ctx = format!("lane {p} {:?}, [{t0}, {t1})", lanes.get(p));
                    assert_eq!(profile.lane(p).window(t0, w.len), expected, "{ctx}");
                    assert_eq!(replay_fold(&profile, p, &w), expected, "witness, {ctx}");
                }
                assert_eq!(profile.window_happiness(&w), happiness, "[{t0}, {t1})");
                assert_eq!(
                    profile.derive_window_totals(t0, t1),
                    profile.derive_window("lanes", &graph, t0, t1).totals(),
                    "lane fold vs per-node fold, [{t0}, {t1})"
                );
            }
        }
        for shape in SHAPES {
            assert!(shapes.contains(&shape), "grid misses (head, cycles, tail) = {shape:?}");
        }
    }

    /// The closed form against the replay witness where recording every
    /// offset is out of reach: every arithmetic lane of cycles 12 and 16,
    /// anchored up to `2^62 + 5` with windows up to `2^62` holidays long.
    #[test]
    fn closed_form_fold_equals_the_replay_witness_on_far_windows() {
        for cycle in [12u64, 16] {
            let (profile, lanes) = arithmetic_profile(cycle);
            let graph = Graph::new(profile.node_count());
            let c = cycle;
            let anchors = [0u64, 1, c - 1, c, (1 << 40) + 3, (1 << 62) + 5];
            let lengths = [0u64, 1, c - 1, c, c + 1, 5 * c + 7, 1 << 40, 1 << 62];
            let mut shapes = std::collections::BTreeSet::new();
            for t0 in anchors {
                for len in lengths {
                    let w = profile.window(t0, t0 + len);
                    shapes.insert((w.head > 0, w.reps > 0, w.tail > 0));
                    for p in 0..profile.node_count() {
                        assert_eq!(
                            profile.lane(p).window(t0, w.len),
                            replay_fold(&profile, p, &w),
                            "cycle {c}, lane {p} {:?}, t0 {t0}, len {len}",
                            lanes.get(p)
                        );
                    }
                    assert_eq!(
                        profile.derive_window_totals(t0, t0 + len),
                        profile.derive_window("lanes", &graph, t0, t0 + len).totals(),
                        "cycle {c}: lane fold vs per-node fold, t0 {t0}, len {len}"
                    );
                }
            }
            for shape in SHAPES {
                assert!(shapes.contains(&shape), "cycle {c}: grid misses {shape:?}");
            }
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
            assert_eq!(got.lanes, reference.lanes, "{threads} threads: lane table");
            assert_eq!(got.lane_of, reference.lane_of, "{threads} threads: lane ids");
            assert_eq!(got.size_prefix, reference.size_prefix, "{threads} threads: size prefix");
            assert!(got.content_eq(&reference), "{threads} threads: content equality");
        }
    }

    #[test]
    fn split_offsets_covers_the_classes_exactly() {
        for (total, parts) in [(10u64, 3usize), (7, 8), (1, 1), (64, 4), (5, 5)] {
            let ranges = split_offsets(total, parts);
            assert!(ranges.len() <= parts);
            assert!(ranges.iter().all(|r| !r.is_empty()), "no empty shards");
            let mut expected = 0u64;
            for r in &ranges {
                assert_eq!(r.start, expected, "contiguous coverage");
                expected = r.end;
            }
            assert_eq!(expected, total);
        }
        assert!(split_offsets(0, 4).is_empty());
        assert!(split_offsets(9, 0).is_empty());
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
            let change =
                RowChange { node: p, old: view.row(p), new: Progression { slot, modulus: m } };
            view.set_row(p, change.new);
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
    fn patch_moves_nodes_between_lanes_and_reuses_emptied_ones() {
        use crate::analysis::GraphChecker;
        use fhg_graph::Graph;

        // Node 0 bounces between a progression of step 12 that only it
        // holds and `1 mod 2`, which nodes 1 and 2 hold; nodes 3 and 4 keep
        // the cycle at 12.  Each move onto `1 mod 2` empties node 0's lane,
        // and the next move reuses that lane for a fresh step-12
        // progression, so the table never grows.  The emptied lane's step
        // outlasts every live lane's, so folding it would change the
        // longest unhappy stretch and the periodicity of short windows.
        let g = Graph::new(5);
        let checker = GraphChecker::new(&g);
        let mut view = ResidueSchedule::new(vec![0, 1, 1, 2, 1], vec![12, 2, 2, 4, 3]);
        let mut profile = CycleProfile::build(&view, 0, 5, &checker);
        let mut scratch = PatchScratch::new();
        let table = profile.lanes.len();
        assert_eq!(table, 4, "nodes 1 and 2 share a lane");
        for round in 0..8u64 {
            let (slot, m) = if round % 2 == 0 { (1, 2) } else { (round, 12) };
            let change =
                RowChange { node: 0, old: view.row(0), new: Progression { slot, modulus: m } };
            view.set_row(0, change.new);
            profile.patch(&view, &[change], None, &checker, &mut scratch).expect("cycle fixed");
            let rebuilt = CycleProfile::build(&view, 0, 5, &checker);
            assert!(profile.content_eq(&rebuilt), "round {round}");
            let held: u64 = profile.lanes.iter().map(|lane| lane.nodes).sum();
            assert_eq!(held, 5, "round {round}: lane node counts must sum to the node count");
            assert_eq!(profile.lanes.len(), table, "round {round}: emptied lanes are reused");
            for t0 in [0u64, 1, 5, 11, 12, 13] {
                for len in [0u64, 1, 3, 7, 11, 12, 13, 25] {
                    assert_eq!(
                        profile.derive_window_totals(t0, t0 + len),
                        rebuilt.derive_window_totals(t0, t0 + len),
                        "round {round}, t0 {t0}, len {len}"
                    );
                }
            }
        }
    }
}
