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
//! * [`HolidayChecker::check_batch`] — up to 64 residue classes at once.
//!   The default implementation falls back to per-class [`check`]
//!   (short-circuiting on the first failure, like the engines themselves),
//!   so instrumented wrappers keep working unchanged; [`GraphChecker`]
//!   overrides it with the bit-sliced batch plane: the classes are
//!   transposed into a [`properties::MembershipTable`] and each adjacency
//!   row is loaded **once**, answering the AND-any question for the whole
//!   batch through the `intersects_many` kernel family.  The `CycleProfile`
//!   build hands each shard's classes over in batches, which turns the
//!   memory-bound per-class row walk into a compute-dense multi-bitmap
//!   kernel.
//!
//! [`GraphChecker`] picks among three adjacency layouts by node count:
//!
//! * **flat** ([`properties::AdjacencyBitmap`], `n²/8` bytes) up to the
//!   dense limit — [`DENSE_ADJACENCY_LIMIT`] by default, tunable at runtime
//!   via the `FHG_DENSE_LIMIT` environment variable (parsed once, same
//!   `OnceLock` discipline as `FHG_KERNEL`);
//! * **blocked** ([`properties::BlockedAdjacency`]) from the dense limit up
//!   to [`BLOCKED_ADJACENCY_LIMIT`] nodes — 256×256-bit tiles materialised
//!   only where high-degree rows have edges, CSR probes for the sparse
//!   remainder, so dense-style verification reaches ~64k nodes at bounded
//!   memory;
//! * **CSR** probes beyond that.
//!
//! All layouts walk sets through `fhg_graph::kernels`, so verification
//! rides the same runtime-dispatched wide loops as emission.
//!
//! The holiday number is passed alongside each set so the verdict source
//! can be audited: the verdict must not depend on it, but instrumentation
//! wants to see it — the profile build promises exactly one probe per
//! residue class, batched or not.
//!
//! Checkers must be `Sync` because the parallel `CycleProfile` build probes
//! from worker threads, each class from the one shard that owns its range —
//! so the once-per-class promise holds at every thread count, and
//! verification (the build's dominant cost on large cycles) scales with the
//! pool.

use std::cell::RefCell;
use std::sync::OnceLock;

use fhg_graph::{properties, CsrGraph, FixedBitSet, Graph, HappySet};

/// Default largest node count for which the analysis materialises flat
/// dense adjacency bit rows (`n²/8` bytes — 2 MiB at the limit) to verify
/// independence with whole-word ANDs.  Override at runtime with
/// `FHG_DENSE_LIMIT`; see [`dense_limit`].
pub const DENSE_ADJACENCY_LIMIT: usize = 4096;

/// Largest node count for which the analysis builds the cache-blocked
/// hybrid layout; beyond this, raw CSR probes.
pub const BLOCKED_ADJACENCY_LIMIT: usize = 65_536;

/// The flat-dense/blocked threshold, decided once per process and cached in
/// a `OnceLock`: the `FHG_DENSE_LIMIT` environment variable when set (so
/// benches can sweep the crossover without recompiling), otherwise
/// [`DENSE_ADJACENCY_LIMIT`].
///
/// A malformed value is **not** fatal: a long-lived serving process must
/// not be killable by a typo in its environment, so unparseable overrides
/// log one warning to stderr and fall back to the default (pinned by the
/// unit tests below).
pub fn dense_limit() -> usize {
    static LIMIT: OnceLock<usize> = OnceLock::new();
    *LIMIT.get_or_init(|| parse_dense_limit(std::env::var("FHG_DENSE_LIMIT").ok().as_deref()))
}

/// Parses the `FHG_DENSE_LIMIT` override (factored out of [`dense_limit`]
/// so the fallback policy is testable despite the process-wide cache):
/// unset or empty means the default, a non-negative integer is taken
/// verbatim, and anything else warns and falls back to the default.
fn parse_dense_limit(raw: Option<&str>) -> usize {
    match raw {
        None => DENSE_ADJACENCY_LIMIT,
        Some(raw) if raw.trim().is_empty() => DENSE_ADJACENCY_LIMIT,
        Some(raw) => match raw.trim().parse() {
            Ok(limit) => limit,
            Err(_) => {
                eprintln!(
                    "warning: FHG_DENSE_LIMIT={raw:?} is not a node count; \
                     using the default {DENSE_ADJACENCY_LIMIT}"
                );
                DENSE_ADJACENCY_LIMIT
            }
        },
    }
}

/// A per-holiday independence verdict source, shareable across worker
/// threads.
///
/// The holiday number is passed alongside the set so instrumented checkers
/// (e.g. the counting checker in `tests/residue_cache.rs`) can observe
/// *which* holidays a sweep or a profile build actually verifies — the
/// build promises each residue class is probed exactly once.
pub trait HolidayChecker: Sync {
    /// Whether the happy set emitted at holiday `t` is an independent set.
    fn check(&self, t: u64, happy: &FixedBitSet) -> bool;

    /// Whether **every** class in the batch is independent.
    ///
    /// The default delegates to per-class [`HolidayChecker::check`] in
    /// order, short-circuiting on the first failure — exactly the shape the
    /// engines had before batching, so instrumented checkers that only
    /// override `check` observe the same probes.  [`GraphChecker`]
    /// overrides this with the bit-sliced batch plane.
    ///
    /// Callers pass at most [`properties::BATCH_WIDTH`] classes per call.
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
    /// independent.  `enabled: false` drains without probing — a previous
    /// class already failed, mirroring the per-class engines'
    /// `all_independent &&` short-circuit, under which the checker is never
    /// consulted again.
    pub(crate) fn flush<C: HolidayChecker + ?Sized>(&mut self, enabled: bool, checker: &C) -> bool {
        let len = std::mem::take(&mut self.len);
        if !enabled || len == 0 {
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

/// Which adjacency layout a [`GraphChecker`] picked.
enum Layout {
    Flat(properties::AdjacencyBitmap),
    Blocked(properties::BlockedAdjacency),
    Csr(CsrGraph),
}

impl std::fmt::Debug for GraphChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphChecker").field("layout", &self.layout()).finish()
    }
}

/// The default checker: flat dense adjacency rows up to [`dense_limit`]
/// nodes, the blocked hybrid up to [`BLOCKED_ADJACENCY_LIMIT`], branchless
/// CSR neighbour probes beyond.  Batched checks run on a thread-local
/// [`properties::MembershipTable`] (allocation-free after warm-up).
pub struct GraphChecker {
    layout: Layout,
}

thread_local! {
    /// Per-thread transpose scratch for batched checks: grows once to the
    /// graph's size, then every fill re-uses it — the parallel profile
    /// build batches from worker threads, so the scratch follows the
    /// thread, not the checker.
    static BATCH_SCRATCH: RefCell<properties::MembershipTable> =
        RefCell::new(properties::MembershipTable::new());
}

impl GraphChecker {
    /// Builds the checker for `graph`, choosing the layout by node count:
    /// flat dense rows up to [`dense_limit`], the blocked hybrid up to
    /// [`BLOCKED_ADJACENCY_LIMIT`], CSR beyond.
    pub fn new(graph: &Graph) -> Self {
        Self::with_limits(graph, dense_limit(), BLOCKED_ADJACENCY_LIMIT)
    }

    /// Builds the checker with explicit layout thresholds — the test and
    /// bench entry point for forcing a layout regardless of graph size
    /// (`(usize::MAX, _)` forces flat, `(0, usize::MAX)` blocked, `(0, 0)`
    /// CSR).
    pub fn with_limits(graph: &Graph, flat_limit: usize, blocked_limit: usize) -> Self {
        let n = graph.node_count();
        let layout = if n <= flat_limit {
            Layout::Flat(properties::AdjacencyBitmap::from_graph(graph))
        } else if n <= blocked_limit {
            Layout::Blocked(properties::BlockedAdjacency::from_graph(graph))
        } else {
            Layout::Csr(CsrGraph::from_graph(graph))
        };
        GraphChecker { layout }
    }

    /// The adjacency layout this checker picked (`"flat"`, `"blocked"` or
    /// `"csr"`), for bench rows and layout assertions.
    pub fn layout(&self) -> &'static str {
        match &self.layout {
            Layout::Flat(_) => "flat",
            Layout::Blocked(_) => "blocked",
            Layout::Csr(_) => "csr",
        }
    }

    /// Peak adjacency memory of the chosen layout in bytes (the flat
    /// bitmap's `n²/8`, the blocked hybrid's tiles + grid + CSR arrays, or
    /// the raw CSR arrays).
    pub fn memory_bytes(&self) -> usize {
        match &self.layout {
            Layout::Flat(adj) => adj.node_count() * adj.node_count().div_ceil(64) * 8,
            Layout::Blocked(adj) => adj.memory_bytes(),
            Layout::Csr(csr) => (csr.node_count() + 1) * 8 + 2 * csr.edge_count() * 8,
        }
    }

    /// The graph's node count, whichever layout holds it.
    fn node_count(&self) -> usize {
        match &self.layout {
            Layout::Flat(adj) => adj.node_count(),
            Layout::Blocked(adj) => adj.node_count(),
            Layout::Csr(csr) => csr.node_count(),
        }
    }
}

impl HolidayChecker for GraphChecker {
    fn check(&self, _t: u64, happy: &FixedBitSet) -> bool {
        match &self.layout {
            Layout::Flat(adj) => adj.is_independent(happy),
            Layout::Blocked(adj) => adj.is_independent(happy),
            Layout::Csr(csr) => csr.is_independent(happy),
        }
    }

    fn check_batch(&self, classes: &[(u64, &FixedBitSet)]) -> bool {
        if classes.len() <= 1 {
            // A batch of one gains nothing from the transpose.
            return classes.iter().all(|&(t, set)| self.check(t, set));
        }
        BATCH_SCRATCH.with(|scratch| {
            let mut table = scratch.borrow_mut();
            table.fill(self.node_count(), classes.iter().map(|&(_, set)| set));
            let violations = match &self.layout {
                Layout::Flat(adj) => adj.batch_violations(&table),
                Layout::Blocked(adj) => adj.batch_violations(&table),
                Layout::Csr(csr) => csr.batch_violations(&table),
            };
            violations == 0
        })
    }
}

/// A layout-free checker that probes adjacency straight off a borrowed
/// [`Graph`]: for every member of the set, scan its (sorted) neighbour
/// list and demand no neighbour is also a member.
///
/// [`GraphChecker`] amortises a precomputed adjacency layout over an
/// entire cycle's worth of classes; the incremental patch path
/// (`CycleProfile::patch`) verifies a handful of classes against a graph
/// that *just mutated*, where rebuilding a layout per edge event would
/// dwarf the repair itself and allocate.  `ScanChecker` costs
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
        let n = self.graph.node_count();
        fhg_graph::kernels::all_set_bits(happy.as_words(), |u| {
            u < n && self.graph.neighbors(u).iter().all(|&v| !happy.contains(v))
        })
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
                "scan and layout checkers disagree at t={t}"
            );
        }
    }

    #[test]
    fn dense_limit_override_falls_back_instead_of_panicking() {
        // A malformed FHG_DENSE_LIMIT must never kill the process: the
        // fallback to the compiled default is the pinned contract.
        assert_eq!(parse_dense_limit(None), DENSE_ADJACENCY_LIMIT);
        assert_eq!(parse_dense_limit(Some("")), DENSE_ADJACENCY_LIMIT);
        assert_eq!(parse_dense_limit(Some("  ")), DENSE_ADJACENCY_LIMIT);
        assert_eq!(parse_dense_limit(Some("garbage")), DENSE_ADJACENCY_LIMIT);
        assert_eq!(parse_dense_limit(Some("-3")), DENSE_ADJACENCY_LIMIT);
        assert_eq!(parse_dense_limit(Some("1e4")), DENSE_ADJACENCY_LIMIT);
        assert_eq!(parse_dense_limit(Some("0")), 0, "zero is a valid crossover");
        assert_eq!(parse_dense_limit(Some("8192")), 8192);
        assert_eq!(parse_dense_limit(Some(" 512 ")), 512, "whitespace is trimmed");
    }

    #[test]
    fn layout_selection_follows_the_limits() {
        let g = erdos_renyi(50, 0.1, 3);
        assert_eq!(GraphChecker::new(&g).layout(), "flat", "50 nodes sit under every limit");
        assert_eq!(GraphChecker::with_limits(&g, usize::MAX, usize::MAX).layout(), "flat");
        assert_eq!(GraphChecker::with_limits(&g, 0, usize::MAX).layout(), "blocked");
        assert_eq!(GraphChecker::with_limits(&g, 0, 0).layout(), "csr");
        for limits in [(usize::MAX, usize::MAX), (0, usize::MAX), (0, 0)] {
            let checker = GraphChecker::with_limits(&g, limits.0, limits.1);
            assert!(checker.memory_bytes() > 0);
            assert!(format!("{checker:?}").contains(checker.layout()));
        }
    }

    #[test]
    fn batch_and_per_class_agree_on_every_layout() {
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
        for limits in [(usize::MAX, usize::MAX), (0, usize::MAX), (0, 0)] {
            let checker = GraphChecker::with_limits(&g, limits.0, limits.1);
            let refs: Vec<(u64, &FixedBitSet)> = classes.iter().map(|(t, s)| (*t, s)).collect();
            let per_class = refs.iter().all(|&(t, s)| checker.check(t, s));
            assert_eq!(
                checker.check_batch(&refs),
                per_class,
                "layout {} disagrees with per-class checks",
                checker.layout()
            );
        }
    }
}
