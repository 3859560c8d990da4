//! Cycle profiles: the serving tier's cached form of a residue schedule —
//! one congruence test per edge for the verdict, then any window from a
//! table of the schedule's distinct progressions.
//!
//! A perfectly periodic schedule repeats with period `C =`
//! [`ResidueSchedule::cycle`]: the happy set of holiday `t` depends only on
//! `t mod C`.  In every such schedule of the paper node `p` attends exactly
//! one arithmetic progression, its view row `s_p (mod m_p)`, and the rows
//! come from a colouring, so a schedule has about as many distinct
//! progressions as colours, not nodes.  Besides its start and cycle, a
//! [`CycleProfile`] keeps two things:
//!
//! * the **lane table**: one lane per distinct progression of the graph
//!   nodes' rows — its first offset from the start, its step (the modulus)
//!   and how many graph nodes hold it — plus one empty lane for the graph
//!   nodes past the view, and a `u32` lane id per node.  View rows past the
//!   graph are grouped the same way into a second lane list, which counts
//!   into happiness and into nothing else;
//! * the **verdict**: whether no two neighbours ever host on the same
//!   holiday.
//!
//! No lane depends on the cycle, so a window's every quantity, its total
//! happiness included, is a sum over the lanes.
//!
//! # Build: one edge pass and the lane grouping
//!
//! Two neighbours on the rows `s_u mod m_u` and `s_v mod m_v` ever host
//! together iff `s_u ≡ s_v (mod gcd(m_u, m_v))` (Lemma 5.2), so
//! [`CycleProfile::build`] decides the verdict with one
//! [`Progression::meets`] per edge ([`ResidueSchedule::conflict`]), in
//! `O(n + m)` whatever the cycle.  It is the verdict a walk of one cycle of
//! residue classes reaches: two progressions that meet do so within their
//! lcm, which divides the cycle.  A view row past the graph fails the
//! verdict, as it does in the other engines.  The lane table comes from one
//! `O(n)` grouping of the view rows, which is all of
//! [`CycleProfile::rehydrate`].
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
//! lane cannot change, and `never_happy` and the total happiness add the
//! lane's node count times its value, so a totals answer costs `O(#lanes)`
//! instead of `O(n)` and stays bitwise the per-node fold.  Both derivations
//! are **bitwise-identical** to [`super::analyze_schedule_reference`] over
//! the same window (locked down by `tests/analysis_parity.rs`,
//! `tests/window_parity.rs` and, across edge churn,
//! `tests/dynamic_patch.rs`).  The build costs `O(n + m)`, and one
//! derivation is independent of the cycle, the attendance and the window.
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
use std::ops::Range;

use fhg_codes::Progression;
use fhg_graph::{Graph, NodeId};

use super::progression::window_lane;
use super::sweep::{self, NodeAccum, TotalsFold};
use super::{AnalysisTotals, ScheduleAnalysis};
use crate::schedulers::residue::{ResidueSchedule, RowChange};

/// A profile of one full residue cycle: the lane table of the schedule's
/// progressions and the independence verdict, sufficient to derive the
/// analysis of any window in closed form.
///
/// The profile is also **patchable**: after a dynamic edge event moves a
/// handful of nodes to new residue rows, [`CycleProfile::patch`] moves
/// exactly those nodes between lanes and re-tests only the edges the event
/// touched, instead of rebuilding the profile (see the method docs).
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
    /// Each graph node's index into `lanes`.
    lane_of: Vec<u32>,
    /// The lanes of view rows past the graph, in the same grouping: their
    /// attendance counts into happiness and into nothing else, like the
    /// other engines count it, and such a view always fails the verdict.
    beyond: Vec<Lane>,
    /// Whether no edge's endpoints ever host on the same holiday.
    all_independent: bool,
}

/// The nodes holding one arithmetic progression: they attend the holidays
/// `start + first + k·step`, with `first < step`.  `step == 0` is the empty
/// lane of graph nodes past the view, which never attend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Lane {
    first: u64,
    step: u64,
    /// How many nodes hold the lane; 0 once a patch has emptied it.
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
    /// The cached verdict is already `false`.  The repair only re-tests the
    /// edges the event touched, and the verdict is one bit that does not
    /// say which edge failed, so the repair can never discover that the
    /// offending edge *healed* — only a full rebuild can clear the flag.
    NotIndependent,
}

impl std::fmt::Display for PatchRefused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
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
    /// Always 0: a patch tests edges and verifies no residue class.  The
    /// field stays until the repository benchmark, which reads it, stops
    /// reading it.
    pub classes_verified: usize,
}

impl CycleProfile {
    /// Largest cycle the serving tier accepts: its background audit
    /// re-derives a slot through the sequential reference sweep, which
    /// walks one whole cycle of holidays.  `ProfileService` refuses to
    /// register (or patch a tenant into) a longer cycle with a typed error.
    /// The profile itself has no cycle budget: its build and patch test
    /// edges, not holidays.
    pub const MAX_CYCLE: u64 = 1 << 22;

    /// Profiles `view` starting at holiday `start`: one
    /// [`Progression::meets`] per edge of `graph` decides the verdict
    /// ([`ResidueSchedule::conflict`], `O(n + m)`), and the lane grouping of
    /// [`CycleProfile::rehydrate`] does the rest.
    ///
    /// `node_count` is the conflict graph's node count: a view node at or
    /// beyond it marks the schedule non-independent (mirroring the other
    /// engines) and gets no lane id.
    ///
    /// `graph` is anything that lends a [`Graph`]: the graph itself, or a
    /// [`GraphChecker`](super::GraphChecker), which the repository
    /// benchmark passes.
    pub fn build<G: AsRef<Graph> + ?Sized>(
        view: &ResidueSchedule,
        start: u64,
        node_count: usize,
        graph: &G,
    ) -> Self {
        let independent =
            view.node_count() <= node_count && view.conflict(graph.as_ref()).is_none();
        Self::rehydrate(view, start, node_count, independent)
    }

    /// Reconstructs a profile from its deterministic inputs — view, start,
    /// node count and the previously decided verdict — without testing an
    /// edge.
    ///
    /// Everything a [`CycleProfile::build`] computes except the verdict is a
    /// pure function of the residue view: node `p` attends exactly the
    /// holidays `start + o` with `o ≡ slot_p − start (mod m_p)`, so the lane
    /// table is one `O(n)` grouping of the rows.  This is the serving tier's
    /// recovery path: a snapshot persists only the compact view plus the
    /// one verdict bit, and rehydration restores a profile that is
    /// [`content_eq`](CycleProfile::content_eq) to the original without a
    /// cold build.
    ///
    /// The caller vouches for `all_independent` (recovery trusts the
    /// checksummed snapshot and then re-audits a sample through
    /// the serving tier's audit plane).
    pub fn rehydrate(
        view: &ResidueSchedule,
        start: u64,
        node_count: usize,
        all_independent: bool,
    ) -> Self {
        let (lanes, lane_of) = group_lanes(view, start, 0..node_count);
        let (beyond, _) = group_lanes(view, start, node_count..view.node_count());
        CycleProfile { start, cycle: view.cycle(), lanes, lane_of, beyond, all_independent }
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

    /// Whether no edge's endpoints ever host on the same holiday: every
    /// residue class of the cycle is an independent set.
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

    /// Repairs this profile in place after a dynamic edge event, instead of
    /// rebuilding it: `changes` are the residue rows the event moved
    /// (endpoints the scheduler recolored — see
    /// `DynamicColorBound::apply_event`), `view` and `graph` are the
    /// schedule's **already-updated** residue view and conflict graph, and
    /// `inserted_edge` is the edge the event added, if any.  The event may
    /// change the cycle: a lane is an offset from the start and a modulus,
    /// which no cycle enters.  The repair has two parts, each touching only
    /// what the event touched:
    ///
    /// * **re-verification** — one [`Progression::meets`] on the post-event
    ///   rows per edge the event can have made conflict: every edge at a
    ///   changed node (its whole neighbour row, below and above it, skipping
    ///   neighbours with no view row), plus the inserted edge.  The verdict
    ///   stays exact: while it is true no edge between unchanged rows meets,
    ///   every edge at a changed node is re-tested, an inserted edge between
    ///   unchanged rows is tested, and a deleted edge cannot create a
    ///   conflict.  A meeting edge flips the profile's verdict to
    ///   non-independent, exactly as a rebuild would conclude;
    /// * **lanes** — each changed node moves to the lane of its new
    ///   progression, found by a linear search of the lane table: the lane
    ///   already holding it, else the first lane a patch emptied, else a
    ///   new lane at the end.  The table never shrinks, so steady-state
    ///   patches allocate nothing.
    ///
    /// The phases run **prepare → validate → commit**: the refusal check
    /// first, then the edge tests (which read only `view` and `graph`), and
    /// only then the lane moves, with the view's cycle and the pre-computed
    /// verdict applied last.  A crash anywhere before the commit phase
    /// leaves the profile bitwise-untouched; a crash *inside* the commit
    /// phase can leave it poisoned, which the serving tier handles by
    /// quarantining the tenant (see `ProfileService`).
    ///
    /// The patched profile is **bitwise-identical in content** (see
    /// [`CycleProfile::content_eq`]) to `CycleProfile::build` against the
    /// post-event view and graph — only the lane table's order and its
    /// emptied lanes may differ — which `tests/dynamic_patch.rs` pins
    /// against the rebuild oracle.
    ///
    /// Refuses (and leaves the profile untouched) when the cached verdict
    /// is already `false`; see [`PatchRefused`].  Cost: `O(#lanes +
    /// deg(p))` per change of node `p`, plus one test for an inserted edge —
    /// independent of the cycle, the node count and the attendance.
    ///
    /// # Panics
    /// Panics if `view` disagrees with the profile's node count, or if a
    /// change's node or an inserted endpoint is out of range — patches must
    /// come from the same scheduler the profile was built from.
    pub fn patch(
        &mut self,
        view: &ResidueSchedule,
        graph: &Graph,
        changes: &[RowChange],
        inserted_edge: Option<(NodeId, NodeId)>,
    ) -> Result<PatchStats, PatchRefused> {
        if !self.all_independent {
            return Err(PatchRefused::NotIndependent);
        }
        assert_eq!(view.node_count(), self.node_count(), "patch from a different schedule");

        // Validate before commit: the edge tests read only the post-event
        // `view` and `graph`, so the verdict is decided while the profile
        // is still bitwise-untouched and a crash anywhere up to here leaves
        // nothing to roll back.  Rows ascend, so the neighbours with view
        // rows come first.
        let rows = view.node_count();
        let clear = |p: NodeId| {
            graph.neighbors(p).iter().take_while(|&&q| q < rows).all(|&q| !meets(view, p, q))
        };
        let ok = changes.iter().all(|change| clear(change.node))
            && inserted_edge.is_none_or(|(u, v)| !meets(view, u, v));
        crate::fail_point!("profile.patch.validate");

        let start = self.start;
        for change in changes {
            self.move_to_lane(change.node, change.new.offset_from(start), change.new.modulus);
        }
        crate::fail_point!("profile.patch.commit");
        self.cycle = view.cycle();
        self.all_independent = ok;

        Ok(PatchStats { lanes_patched: changes.len(), classes_verified: 0 })
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
    /// cycle, verdict, every node's progression `(first, step)` and the
    /// lanes of the view rows past the graph are equal — ignoring the lane
    /// table's order and its emptied lanes, which patching is free to leave
    /// behind.  This is the equality the patch-parity suite pins against
    /// the rebuild oracle: `content_eq` implies every `derive*` output is
    /// bitwise-identical.
    pub fn content_eq(&self, other: &CycleProfile) -> bool {
        self.start == other.start
            && self.cycle == other.cycle
            && self.node_count() == other.node_count()
            && self.all_independent == other.all_independent
            && self.beyond == other.beyond
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
        let len = t1.saturating_sub(t0);
        let mut total = self.beyond_happiness(t0, len);
        let per_node = (0..self.node_count())
            .map(|p| {
                let lane = self.lane(p).window(t0, len);
                total = total.saturating_add(lane.happy);
                lane.analysis(p, graph.degree(p), len)
            })
            .collect();
        sweep::assemble(scheduler.to_string(), len, per_node, self.all_independent, total)
    }

    /// The totals-only windowed fast path: whole-window aggregates of
    /// `[t0, t1)`, skipping the per-node assembly entirely.  It folds each
    /// non-empty lane once, weighting `never_happy` and the total happiness
    /// by the lane's node count, so it costs `O(#lanes)`; it is total over
    /// all windows and **allocation-free** (the steady-state serving shape;
    /// proved by `tests/zero_alloc.rs`).  Equal to
    /// [`CycleProfile::derive_window`]`(..).totals()`: the maximum and the
    /// periodicity conjunction are idempotent over the nodes of a lane, and
    /// a saturating sum is `min(true total, u64::MAX)` in any order (pinned
    /// by the lane-fold tests below).
    pub fn derive_window_totals(&self, t0: u64, t1: u64) -> AnalysisTotals {
        let len = t1.saturating_sub(t0);
        let mut total = self.beyond_happiness(t0, len);
        let mut fold = TotalsFold::new();
        for lane in self.lanes.iter().filter(|lane| lane.nodes > 0) {
            let accum = lane.window(t0, len);
            total = total.saturating_add(lane.nodes.saturating_mul(accum.happy));
            fold.absorb(&accum, len, lane.nodes);
        }
        fold.finish(len, self.all_independent, total)
    }

    /// Happy appearances of the view rows past the graph over the `len`
    /// holidays from holiday `start + t0` (saturating; zero for every view
    /// that fits its graph).  Per-node fields cannot overflow (each is
    /// bounded by the window length), but a whole-window total is `n`-fold
    /// larger, so every happiness sum saturates rather than wraps on windows
    /// beyond ~10^16 (the sweep engines could never reach them to compare
    /// against anyway).
    fn beyond_happiness(&self, t0: u64, len: u64) -> u64 {
        self.beyond.iter().fold(0, |total, lane| {
            total.saturating_add(lane.nodes.saturating_mul(lane.window(t0, len).happy))
        })
    }
}

/// Whether the rows of `u` and `v` ever host on the same holiday: the one
/// edge test of [`CycleProfile::patch`].  An `err` at the `verify.edge`
/// failpoint reports a conflict that is not there, silently poisoning a
/// patched verdict — the corruption the serving tier's background audit
/// exists to catch (the audit and the build never pass this site).
fn meets(view: &ResidueSchedule, u: NodeId, v: NodeId) -> bool {
    crate::fail_point!("verify.edge", return true);
    view.row(u).meets(&view.row(v))
}

/// The lanes of the view rows `nodes` from holiday `start`: one lane per
/// distinct progression `(first offset, modulus)`, numbered in node order,
/// plus one empty lane for nodes past the view; and each node's lane id.
/// One hash lookup per node.
fn group_lanes(view: &ResidueSchedule, start: u64, nodes: Range<usize>) -> (Vec<Lane>, Vec<u32>) {
    let mut ids: HashMap<(u64, u64), u32> = HashMap::new();
    let mut lanes: Vec<Lane> = Vec::new();
    let lane_of = nodes
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::sweep::{merge_node, NONE};

    /// A window split for the replay witness: `head` holidays from cycle
    /// offset `phase`, then `reps` whole cycles, then `tail` holidays from
    /// cycle offset 0 — `len` holidays in all.
    struct Window {
        len: u64,
        phase: u64,
        head: u64,
        reps: u64,
        tail: u64,
    }

    /// Splits the window `[t0, t1)` of `profile`'s cycle into its ragged
    /// head, whole cycles and ragged tail.
    fn split(profile: &CycleProfile, t0: u64, t1: u64) -> Window {
        let cycle = profile.cycle;
        let len = t1.saturating_sub(t0);
        let phase = t0 % cycle;
        let head = if phase == 0 { 0 } else { (cycle - phase).min(len) };
        let rest = len - head;
        Window { len, phase, head, reps: rest / cycle, tail: rest % cycle }
    }

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
                let w = split(&profile, t0, t1);
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
                let totals = profile.derive_window_totals(t0, t1);
                assert_eq!(totals.total_happiness, happiness, "[{t0}, {t1})");
                assert_eq!(
                    totals,
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
                    let w = split(&profile, t0, t0 + len);
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
    fn rehydrate_is_content_equal_to_a_build() {
        use crate::schedulers::PeriodicDegreeBound;
        use crate::Scheduler;
        use fhg_graph::generators::erdos_renyi;

        for (n, p, seed) in [(18, 0.2, 1u64), (40, 0.1, 2), (7, 0.5, 3)] {
            let g = erdos_renyi(n, p, seed);
            let s = PeriodicDegreeBound::new(&g);
            let view = s.residue_schedule().expect("perfectly periodic");
            let built = CycleProfile::build(view, s.first_holiday(), g.node_count(), &g);
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
        // counts into happiness through the second lane list but gets no
        // lane id, and the verdict is pinned false — exactly what a build
        // concludes.
        let g = erdos_renyi(5, 0.4, 9);
        let view = ResidueSchedule::new(vec![0, 1, 0, 3, 2, 1], vec![2, 4, 4, 4, 4, 2]);
        for start in [0u64, 1, 5, 7] {
            let built = CycleProfile::build(&view, start, g.node_count(), &g);
            assert!(!built.all_classes_independent(), "out-of-range node must taint");
            let rehydrated = CycleProfile::rehydrate(&view, start, g.node_count(), false);
            assert!(rehydrated.content_eq(&built), "start {start}");
            let beyond = Progression { slot: 1, modulus: 2 }.offset_from(start);
            assert_eq!(built.beyond, vec![Lane { first: beyond, step: 2, nodes: 1 }]);
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
        let profile = CycleProfile::build(view, s.first_holiday(), g.node_count(), &g);
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
        let profile = CycleProfile::build(view, s.first_holiday(), g.node_count(), &g);
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
            let attended: u64 = (0..profile.node_count())
                .map(|p| profile.attendance_offsets(p).filter(|&o| o < h).count() as u64)
                .sum();
            assert_eq!(windowed.total_happiness, attended, "sub-cycle happiness (h = {h})");
            assert_eq!(profile.derive_window_totals(0, h), windowed.totals(), "h = {h}");
        }
    }

    #[test]
    fn totals_saturate_instead_of_overflowing_at_the_u64_boundary() {
        use fhg_graph::Graph;

        // Four nodes hosting every other holiday, two per lane: 4 happy
        // appearances per cycle of 2, so a lane's node count times its
        // happy count, and the sum over lanes or nodes, overflow u64 at
        // horizons near u64::MAX and must saturate, while every per-node
        // field stays bounded by the horizon.
        let graph = Graph::new(4);
        let view = ResidueSchedule::new(vec![0, 1, 0, 1], vec![2, 2, 2, 2]);
        let profile = CycleProfile::build(&view, 0, 4, &graph);
        assert_eq!(profile.derive_window_totals(0, 2).total_happiness, 4);

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
    fn patch_tracks_a_row_change_like_a_rebuild() {
        use fhg_graph::Graph;

        // A small schedule on the moduli {2, 3, 4, 6, 12} (cycle 12); the
        // edgeless graph keeps every verification green so the structural
        // repair is what's compared.
        let g = Graph::new(6);
        let mut view = ResidueSchedule::new(vec![0, 1, 2, 3, 0, 5], vec![2, 3, 4, 6, 12, 12]);
        let mut profile = CycleProfile::build(&view, 1, 6, &g);

        // A sequence of row moves, including same-length (4 -> 4 via slot
        // change), shrinking (2 -> 6) and growing (12 -> 3) rows.
        let moves: &[(usize, u64, u64)] =
            &[(2, 1, 4), (0, 1, 6), (5, 2, 3), (0, 0, 2), (3, 1, 4), (5, 0, 12)];
        for &(p, slot, m) in moves {
            let change =
                RowChange { node: p, old: view.row(p), new: Progression { slot, modulus: m } };
            view.set_row(p, change.new);
            let stats = profile.patch(&view, &g, &[change], None).expect("the verdict holds");
            assert_eq!(stats, PatchStats { lanes_patched: 1, classes_verified: 0 });
            let rebuilt = CycleProfile::build(&view, 1, 6, &g);
            assert!(
                profile.content_eq(&rebuilt),
                "patched profile diverged from rebuild after moving node {p} to {slot} mod {m}"
            );
        }
    }

    #[test]
    fn patch_refuses_broken_verdicts() {
        use fhg_graph::generators::structured::path;

        // A profile whose verdict is already false: adjacent path nodes 0
        // and 1 share the row 0 mod 2, so every even class conflicts.
        let g = path(3);
        let clashing = ResidueSchedule::new(vec![0, 0, 1], vec![2, 2, 4]);
        let mut broken = CycleProfile::build(&clashing, 0, 3, &g);
        assert!(!broken.all_classes_independent());
        let refusal = broken.patch(&clashing, &g, &[], None);
        assert_eq!(refusal, Err(PatchRefused::NotIndependent));
        assert!(format!("{}", refusal.unwrap_err()).contains("rebuild"));
    }

    #[test]
    fn patch_follows_the_cycle_as_it_grows_and_shrinks() {
        // A triangle on 0 mod 2, 1 mod 4 and 3 mod 4, profiled from holiday
        // 3, so node 2 hosts at offsets 0 and 4 of a cycle of 8.  Moving
        // node 1 onto 1 mod 8 grows the cycle to 8 and stays independent.
        // Moving it onto 7 mod 8 (offset 4) grows it too, into a conflict
        // with node 2, the changed node's upper neighbour.  From 1 mod 8
        // (cycle 8), moving node 1 back onto 1 mod 4 shrinks the cycle to 4
        // and stays independent, moving it onto 3 mod 4 shrinks it into a
        // conflict with node 2, and moving it onto 2 mod 4 into a conflict
        // with node 0 alone, the changed node's lower neighbour.
        let g = Graph::from_edges(3, [(0, 1), (0, 2), (1, 2)]).unwrap();
        let row = |slot, modulus| Progression { slot, modulus };
        let cases = [
            (row(1, 4), row(1, 8), 8, true),
            (row(1, 4), row(7, 8), 8, false),
            (row(1, 8), row(1, 4), 4, true),
            (row(1, 8), row(3, 4), 4, false),
            (row(1, 8), row(2, 4), 4, false),
        ];
        for (old, new, cycle, independent) in cases {
            let ctx = format!("{old:?} -> {new:?}");
            let mut view = ResidueSchedule::from_rows([row(0, 2), old, row(3, 4)]);
            let mut profile = CycleProfile::build(&view, 3, 3, &g);
            assert!(profile.all_classes_independent(), "{ctx}");
            let change = RowChange { node: 1, old, new };
            view.apply_row(&change);
            let stats = profile.patch(&view, &g, &[change], None).expect("the verdict held");
            assert_eq!(stats.lanes_patched, 1, "{ctx}");
            assert_eq!(profile.cycle(), cycle, "{ctx}");
            assert_eq!(profile.all_classes_independent(), independent, "{ctx}");
            let rebuilt = CycleProfile::build(&view, 3, 3, &g);
            assert!(profile.content_eq(&rebuilt), "{ctx}: patched profile diverged from rebuild");
        }
    }

    #[test]
    fn patch_detects_a_freshly_conflicting_inserted_edge() {
        use fhg_graph::Graph;

        // Nodes 0 and 1 co-attend every 6th holiday (0 mod 2 ∩ 0 mod 3).
        let mut g = Graph::new(2);
        let view = ResidueSchedule::new(vec![0, 0], vec![2, 3]);
        let mut profile = CycleProfile::build(&view, 0, 2, &g);
        assert!(profile.all_classes_independent(), "no edges yet");

        // Insert the edge without any recoloring (no row changes): the
        // repair must test the inserted edge and flip the verdict, exactly
        // as a rebuild against the new graph would.
        g.add_edge(0, 1).unwrap();
        let stats = profile.patch(&view, &g, &[], Some((0, 1))).expect("the verdict held");
        assert_eq!(stats.lanes_patched, 0);
        assert!(!profile.all_classes_independent());
        let rebuilt = CycleProfile::build(&view, 0, 2, &g);
        assert!(profile.content_eq(&rebuilt));
    }

    #[test]
    fn patch_moves_nodes_between_lanes_and_reuses_emptied_ones() {
        use fhg_graph::Graph;

        // Node 0 bounces between a progression of step 12 that only it
        // holds and `1 mod 2`, which nodes 1 and 2 hold; nodes 3 and 4 keep
        // the cycle at 12.  Each move onto `1 mod 2` empties node 0's lane,
        // and the next move reuses that lane for a fresh step-12
        // progression, so the table never grows.  The emptied lane's step
        // outlasts every live lane's, so folding it would change the
        // longest unhappy stretch and the periodicity of short windows.
        let g = Graph::new(5);
        let mut view = ResidueSchedule::new(vec![0, 1, 1, 2, 1], vec![12, 2, 2, 4, 3]);
        let mut profile = CycleProfile::build(&view, 0, 5, &g);
        let table = profile.lanes.len();
        assert_eq!(table, 4, "nodes 1 and 2 share a lane");
        for round in 0..8u64 {
            let (slot, m) = if round % 2 == 0 { (1, 2) } else { (round, 12) };
            let change =
                RowChange { node: 0, old: view.row(0), new: Progression { slot, modulus: m } };
            view.set_row(0, change.new);
            profile.patch(&view, &g, &[change], None).expect("verdict holds");
            let rebuilt = CycleProfile::build(&view, 0, 5, &g);
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
