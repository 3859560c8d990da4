//! Independence checking: the per-holiday verdict source of the sequential
//! engine and the serving tier's cycle profiles.
//!
//! Every path that emits happy sets must decide, for each one, whether the
//! set is an independent set of the conflict graph (Definition 2.1): the
//! sequential sweep on every holiday, a `CycleProfile` build once per
//! residue class, and a profile patch on the classes an edge event touched.
//! (The one-shot analysis of a residue view emits no sets: it tests one
//! congruence per edge instead.)  That decision is factored behind the
//! [`HolidayChecker`] trait, which serves two granularities:
//!
//! * [`HolidayChecker::check`] — one class at a time, the reference shape
//!   every instrumented checker (e.g. the counting checker in
//!   `tests/residue_cache.rs`) can observe holiday by holiday, and
//! * [`HolidayChecker::check_batch`] — any number of residue classes at
//!   once.  The default implementation falls back to per-class [`check`]
//!   (short-circuiting on the first failure, like the engines themselves),
//!   so instrumented wrappers keep working unchanged; [`GraphChecker`]
//!   overrides it with the bit-sliced batch plane: each chunk of up to
//!   [`properties::BATCH_WIDTH`] classes is transposed into a
//!   [`properties::MembershipTable`] and each adjacency row is loaded
//!   **once** for the whole chunk.  The `CycleProfile` build and patch
//!   hand their classes over in batches of that width.
//!
//! [`GraphChecker`] holds one layout: a packed copy of the [`Graph`], whose
//! rows in node order are a compressed-sparse-row (CSR) layout.  Both
//! granularities walk each member's upper neighbours
//! ([`Graph::neighbors_above`]), so every edge is probed once, from its
//! lower endpoint: a conflicting pair is always caught at its smaller
//! member.
//!
//! The holiday number is passed alongside each set so the verdict source
//! can be audited: the verdict must not depend on it, but instrumentation
//! wants to see it — the profile build promises exactly one probe per
//! residue class, batched or not.
//!
//! A checker never crosses a thread: the `CycleProfile` build walks its
//! cycle on the calling thread, and the serving tier's fleet build
//! (`ProfileService::build_pending`) creates each slot's [`GraphChecker`]
//! inside the worker that builds the slot.  So the trait asks for no
//! `Sync`, and an instrumented checker may keep plain interior state.

use std::cell::RefCell;

use fhg_graph::{properties, FixedBitSet, Graph, HappySet};

/// A per-holiday independence verdict source.
///
/// The holiday number is passed alongside the set so instrumented checkers
/// (e.g. the counting checker in `tests/residue_cache.rs`) can observe
/// *which* holidays a sweep or a profile build actually verifies — the
/// build promises each residue class is probed exactly once.
pub trait HolidayChecker {
    /// Whether the happy set emitted at holiday `t` is an independent set.
    fn check(&self, t: u64, happy: &FixedBitSet) -> bool;

    /// Whether **every** class in the batch is independent.
    ///
    /// The default delegates to per-class [`HolidayChecker::check`] in
    /// order, short-circuiting on the first failure — exactly the shape the
    /// engines had before batching, so instrumented checkers that only
    /// override `check` observe the same probes.  [`GraphChecker`]
    /// overrides this with the bit-sliced batch plane.
    fn check_batch(&self, classes: &[(u64, &FixedBitSet)]) -> bool {
        classes.iter().all(|&(t, set)| self.check(t, set))
    }
}

/// A fixed-width buffer of residue classes awaiting batched verification:
/// up to [`properties::BATCH_WIDTH`] `(holiday, happy set)` slots that the
/// profile build and patch fill round-robin, flushing through
/// [`HolidayChecker::check_batch`] when full.  The slots are plain
/// [`HappySet`]s reused across flushes (each `fill` resets its slot) and
/// the flush builds its borrow array on the stack, so steady-state
/// batching performs zero heap allocations (proved by
/// `tests/zero_alloc.rs`).
pub(crate) struct ClassBatch {
    slots: Vec<HappySet>,
    ts: [u64; properties::BATCH_WIDTH],
    len: usize,
}

impl ClassBatch {
    /// A batch whose slots hold sets over `capacity` nodes.
    pub(crate) fn new(capacity: usize) -> Self {
        ClassBatch {
            slots: (0..properties::BATCH_WIDTH).map(|_| HappySet::new(capacity)).collect(),
            ts: [0; properties::BATCH_WIDTH],
            len: 0,
        }
    }

    /// The next free slot, tagged with holiday `t`.  Fill it, then call
    /// [`ClassBatch::commit`].
    pub(crate) fn slot(&mut self, t: u64) -> &mut HappySet {
        self.ts[self.len] = t;
        &mut self.slots[self.len]
    }

    /// Seals the slot handed out by [`ClassBatch::slot`]; `true` means the
    /// batch is full and must be flushed before the next `slot` call.
    pub(crate) fn commit(&mut self) -> bool {
        self.len += 1;
        self.len == properties::BATCH_WIDTH
    }

    /// Verifies and drains the buffered classes: `true` iff every one is
    /// independent.
    pub(crate) fn flush<C: HolidayChecker + ?Sized>(&mut self, checker: &C) -> bool {
        let len = std::mem::take(&mut self.len);
        if len == 0 {
            return true;
        }
        // The borrow array lives on the stack (padded with repeats of the
        // last class, then sliced to `len`) so a flush never allocates.
        let refs: [(u64, &FixedBitSet); properties::BATCH_WIDTH] = std::array::from_fn(|i| {
            let j = i.min(len - 1);
            (self.ts[j], self.slots[j].as_bitset())
        });
        checker.check_batch(&refs[..len])
    }
}

/// The default checker: a packed copy of the graph (CSR), probed once per
/// edge from its lower endpoint.  Batched checks run on a thread-local
/// [`properties::MembershipTable`] (allocation-free after warm-up).
#[derive(Debug)]
pub struct GraphChecker {
    graph: Graph,
}

thread_local! {
    /// Per-thread transpose scratch for batched checks: grows once to the
    /// graph's size, then every fill re-uses it — the fleet build batches
    /// from every worker of the pool, so the scratch follows the thread,
    /// not the checker.
    static BATCH_SCRATCH: RefCell<properties::MembershipTable> =
        RefCell::new(properties::MembershipTable::new());
}

impl GraphChecker {
    /// Builds the checker for `graph`: a packed copy of its rows.
    pub fn new(graph: &Graph) -> Self {
        GraphChecker { graph: graph.clone() }
    }

    /// Adjacency memory in bytes: the packed graph's row table and arena.
    pub fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes()
    }
}

impl HolidayChecker for GraphChecker {
    fn check(&self, _t: u64, happy: &FixedBitSet) -> bool {
        self.graph.is_independent(happy)
    }

    fn check_batch(&self, classes: &[(u64, &FixedBitSet)]) -> bool {
        if classes.len() <= 1 {
            // A batch of one gains nothing from the transpose.
            return classes.iter().all(|&(t, set)| self.check(t, set));
        }
        BATCH_SCRATCH.with(|scratch| {
            let mut table = scratch.borrow_mut();
            classes.chunks(properties::BATCH_WIDTH).all(|chunk| {
                table.fill(self.graph.node_count(), chunk.iter().map(|&(_, set)| set));
                self.graph.batch_violations(&table) == 0
            })
        })
    }
}

/// A copy-free checker that probes adjacency straight off a borrowed
/// [`Graph`] through [`Graph::is_independent`].
///
/// [`GraphChecker`] amortises a packed copy of the graph over an entire
/// cycle's worth of classes; the incremental patch path
/// (`CycleProfile::patch`) verifies a handful of classes against a graph
/// that *just mutated*, where copying the graph per edge event would dwarf
/// the repair itself and allocate.  `ScanChecker` costs
/// `O(Σ deg(member))` per class, allocates nothing, and always reflects
/// the graph's current edges.
pub struct ScanChecker<'g> {
    graph: &'g Graph,
}

impl<'g> ScanChecker<'g> {
    /// A checker borrowing `graph`; verdicts track its live edge set.
    pub fn new(graph: &'g Graph) -> Self {
        ScanChecker { graph }
    }
}

impl HolidayChecker for ScanChecker<'_> {
    fn check(&self, _t: u64, happy: &FixedBitSet) -> bool {
        // Fault-injection site: an `err` action makes the checker falsely
        // report a violation, silently poisoning a patched verdict — the
        // corruption mode the serving tier's background audit exists to
        // catch (the audit re-derives through `GraphChecker`, so it never
        // shares this site).
        crate::fail_point!("checker.batch", return false);
        self.graph.is_independent(happy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhg_graph::generators::erdos_renyi;

    #[test]
    fn scan_checker_agrees_with_graph_checker() {
        let g = erdos_renyi(130, 0.05, 9);
        let scan = ScanChecker::new(&g);
        let full = GraphChecker::new(&g);
        for t in 0..24u64 {
            let mut set = FixedBitSet::new(130);
            for k in 0..8usize {
                set.insert(((t as usize + 1) * (k * 17 + 1)) % 130);
            }
            assert_eq!(
                scan.check(t, &set),
                full.check(t, &set),
                "scan and packed checkers disagree at t={t}"
            );
        }
    }

    #[test]
    fn batch_and_per_class_agree() {
        let g = erdos_renyi(130, 0.05, 9);
        let mut classes = Vec::new();
        for t in 0..10u64 {
            let mut set = FixedBitSet::new(130);
            // Spread-out members: mostly independent, occasionally not.
            for k in 0..8usize {
                set.insert(((t as usize + 1) * (k * 17 + 1)) % 130);
            }
            classes.push((t, set));
        }
        let checker = GraphChecker::new(&g);
        assert!(checker.memory_bytes() > 0);
        let refs: Vec<(u64, &FixedBitSet)> = classes.iter().map(|(t, s)| (*t, s)).collect();
        let per_class = refs.iter().all(|&(t, s)| checker.check(t, s));
        assert_eq!(checker.check_batch(&refs), per_class);
    }
}
