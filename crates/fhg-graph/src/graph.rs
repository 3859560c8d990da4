//! The conflict graph: sorted neighbour rows in one flat arena.
//!
//! [`Graph`] is the workspace's one graph type.  Generators build it,
//! dynamic edge events (paper §6) edit it in place, and every read-only
//! pass (the schedulers, the independence checkers, the analysis's edge
//! pass, the distributed simulator) scans it as it is.
//!
//! Each node's sorted neighbour row lives in one shared arena.  Node `u`
//! keeps `(start, len, cap, split)`, with `split` the index of its first
//! neighbour above `u`, so [`Graph::neighbors`] is a slice and
//! [`Graph::neighbors_above`] (every edge once, from its lower endpoint) is
//! a slice with no search.  A **packed** graph holds its rows in node order
//! with no slack and no garbage, which is exactly a compressed-sparse-row
//! (CSR) layout; [`Graph::from_edges`], `Clone`, the generators and snapshot
//! decode all return packed graphs.
//!
//! Edits stay in place while a row has room.  A full row grows in place if
//! it ends the arena and otherwise moves to the tail with `GROWTH` times its
//! capacity, leaving its old span behind as garbage.  Once the garbage
//! passes `1 / GARBAGE_SHARE` of the arena, compaction re-lays the rows in
//! node order, each keeping its capacity.

use std::fmt;
use std::ops::Range;

use crate::bitset::FixedBitSet;
use crate::error::GraphError;
use crate::{kernels, NodeId};

/// A full row that moves gets this many times its capacity.
const GROWTH: usize = 2;

/// The least capacity a grown row gets.
const MIN_ROW_CAP: usize = 4;

/// Compaction runs once the garbage exceeds this share of the arena, so
/// after every edit `garbage * GARBAGE_SHARE <= arena.len()`.
const GARBAGE_SHARE: usize = 4;

/// An undirected edge, stored with `u <= v` when produced by [`Graph::edges`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    /// One endpoint.
    pub u: NodeId,
    /// The other endpoint.
    pub v: NodeId,
}

impl Edge {
    /// Creates an edge, normalising so that `u <= v`.
    pub fn new(a: NodeId, b: NodeId) -> Self {
        if a <= b {
            Edge { u: a, v: b }
        } else {
            Edge { u: b, v: a }
        }
    }

    /// Returns the endpoint different from `x`.
    ///
    /// # Panics
    /// Panics if `x` is not an endpoint of the edge.
    pub fn other(&self, x: NodeId) -> NodeId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("node {x} is not an endpoint of edge ({}, {})", self.u, self.v)
        }
    }
}

/// One node's row: `arena[start..start + len]`, sorted, inside a span of
/// `cap` slots, with the neighbours above the node from index `split` on.
/// Offsets and capacities reach `u32` through [`narrow`]; `len` and `split`
/// stay at most `cap`.
#[derive(Debug, Clone, Copy, Default)]
struct Row {
    start: u32,
    len: u32,
    cap: u32,
    split: u32,
}

impl Row {
    fn live(self) -> Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// Narrows an arena index or length to a row field.
fn narrow(x: usize) -> Result<u32, GraphError> {
    u32::try_from(x).map_err(|_| {
        GraphError::InvalidParameter(format!("adjacency arena index {x} exceeds u32::MAX"))
    })
}

/// A mutable, undirected, simple graph stored as sorted neighbour rows in
/// one arena (see the module docs for the layout).
///
/// Invariants maintained by every method:
///
/// * no self-loops, no parallel edges;
/// * each row is sorted in increasing node order;
/// * `edge_count` equals the number of unordered edges;
/// * the rows' spans are disjoint, and together with the garbage they make
///   up the arena.
///
/// Equality compares the neighbour rows, not their layout.
#[derive(Default)]
pub struct Graph {
    rows: Vec<Row>,
    arena: Vec<NodeId>,
    edge_count: usize,
    /// Arena slots no row owns: the old spans of moved rows.
    garbage: usize,
}

impl Graph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Graph { rows: vec![Row::default(); n], ..Graph::default() }
    }

    /// Creates a packed graph from an edge list over nodes `0..n`.
    ///
    /// Duplicate edges, self-loops and a node count whose row table cannot
    /// be allocated are rejected.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<Self, GraphError> {
        let edges: Vec<(NodeId, NodeId)> = edges.into_iter().collect();
        let mut rows = Vec::new();
        rows.try_reserve_exact(n).map_err(|_| {
            GraphError::InvalidParameter(format!("cannot allocate a graph of {n} nodes"))
        })?;
        rows.resize(n, Row::default());
        // Every row offset below is at most the arena length.
        narrow(2 * edges.len())?;
        for &(u, v) in &edges {
            if u.max(v) >= n {
                return Err(GraphError::NodeOutOfBounds { node: u.max(v), node_count: n });
            }
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            rows[u].cap += 1;
            rows[v].cap += 1;
        }
        let mut start = 0;
        for row in &mut rows {
            row.start = start;
            start += row.cap;
        }
        let mut arena = vec![0; start as usize];
        for &(u, v) in &edges {
            for (x, y) in [(u, v), (v, u)] {
                let row = &mut rows[x];
                arena[row.live().end] = y;
                row.len += 1;
            }
        }
        for (u, row) in rows.iter_mut().enumerate() {
            let nbrs = &mut arena[row.live()];
            nbrs.sort_unstable();
            if let Some(w) = nbrs.windows(2).find(|w| w[0] == w[1]) {
                return Err(GraphError::DuplicateEdge(u, w[0]));
            }
            row.split = narrow(nbrs.partition_point(|&v| v < u))?;
        }
        Ok(Graph { rows, arena, edge_count: edges.len(), garbage: 0 })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of (unordered) edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns an iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.node_count()
    }

    /// Adds an isolated node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        self.rows.push(Row::default());
        self.rows.len() - 1
    }

    /// Degree of `u`.
    ///
    /// # Panics
    /// Panics if `u` is out of bounds.
    pub fn degree(&self, u: NodeId) -> usize {
        self.rows[u].len as usize
    }

    /// Sorted slice of neighbours of `u`.
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.arena[self.rows[u].live()]
    }

    /// Sorted slice of the neighbours of `u` above `u`: every edge appears
    /// in exactly one of these slices, its lower endpoint's.
    pub fn neighbors_above(&self, u: NodeId) -> &[NodeId] {
        let row = self.rows[u];
        &self.arena[row.start as usize + row.split as usize..row.live().end]
    }

    /// Whether the edge `(u, v)` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u >= self.node_count() || v >= self.node_count() {
            return false;
        }
        self.neighbors(u).binary_search(&v).is_ok()
    }

    fn check_node(&self, u: NodeId) -> Result<(), GraphError> {
        if u >= self.node_count() {
            Err(GraphError::NodeOutOfBounds { node: u, node_count: self.node_count() })
        } else {
            Ok(())
        }
    }

    /// Adds the undirected edge `(u, v)`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        let Err(pos_u) = self.neighbors(u).binary_search(&v) else {
            return Err(GraphError::DuplicateEdge(u, v));
        };
        let pos_v = self.neighbors(v).binary_search(&u).expect_err("adjacency symmetry");
        // Both rows get room before either changes, so a failed growth
        // leaves the edge set as it was.
        self.reserve_one(u)?;
        self.reserve_one(v)?;
        self.insert(u, pos_u, v);
        self.insert(v, pos_v, u);
        self.edge_count += 1;
        Ok(())
    }

    /// Removes the undirected edge `(u, v)`.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        self.check_node(u)?;
        self.check_node(v)?;
        let Ok(pos_u) = self.neighbors(u).binary_search(&v) else {
            return Err(GraphError::MissingEdge(u, v));
        };
        let pos_v = self.neighbors(v).binary_search(&u).expect("adjacency symmetry");
        self.remove(u, pos_u);
        self.remove(v, pos_v);
        self.edge_count -= 1;
        Ok(())
    }

    /// Gives `u`'s row room for one more neighbour: a full row grows in
    /// place if it ends the arena and otherwise moves to the tail, after
    /// which the garbage bound may trigger a compaction.
    fn reserve_one(&mut self, u: NodeId) -> Result<(), GraphError> {
        let row = self.rows[u];
        if row.len < row.cap {
            return Ok(());
        }
        let cap = (row.cap as usize * GROWTH).max(MIN_ROW_CAP);
        let moves = row.start as usize + row.cap as usize != self.arena.len();
        let start = if moves { self.arena.len() } else { row.start as usize };
        // The new arena end must fit too: the next moved row starts there.
        narrow(start + cap)?;
        let grown = Row { start: narrow(start)?, cap: narrow(cap)?, ..row };
        if moves {
            self.arena.extend_from_within(row.live());
            self.garbage += row.cap as usize;
        }
        self.arena.resize(start + cap, 0);
        self.rows[u] = grown;
        if self.garbage * GARBAGE_SHARE > self.arena.len() {
            *self = self.relaid(true);
        }
        Ok(())
    }

    /// Inserts `v` at `pos` of `u`'s row, which has room.
    fn insert(&mut self, u: NodeId, pos: usize, v: NodeId) {
        let row = &mut self.rows[u];
        let at = row.start as usize + pos;
        self.arena.copy_within(at..row.live().end, at + 1);
        self.arena[at] = v;
        row.len += 1;
        row.split += u32::from(v < u);
    }

    /// Removes the neighbour at `pos` of `u`'s row.
    fn remove(&mut self, u: NodeId, pos: usize) {
        let row = &mut self.rows[u];
        let at = row.start as usize + pos;
        row.split -= u32::from(self.arena[at] < u);
        self.arena.copy_within(at + 1..row.live().end, at);
        row.len -= 1;
    }

    /// The rows copied in node order into a fresh arena with no garbage,
    /// each keeping its capacity if `keep_slack` and packed otherwise.
    fn relaid(&self, keep_slack: bool) -> Graph {
        let live = if keep_slack { self.arena.len() - self.garbage } else { 2 * self.edge_count };
        let mut arena = Vec::with_capacity(live);
        // The copy is no longer than this arena, whose length fits a row.
        let mut start = 0;
        let rows = self
            .rows
            .iter()
            .map(|&row| {
                let cap = if keep_slack { row.cap } else { row.len };
                arena.extend_from_slice(&self.arena[row.live()]);
                arena.resize(arena.len() + (cap - row.len) as usize, 0);
                let moved = Row { start, cap, ..row };
                start += cap;
                moved
            })
            .collect();
        Graph { rows, arena, edge_count: self.edge_count, garbage: 0 }
    }

    /// Iterator over all edges with `u <= v`, in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nodes().flat_map(move |u| self.neighbors_above(u).iter().map(move |&v| Edge { u, v }))
    }

    /// Maximum degree Δ of the graph (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.rows.iter().map(|r| r.len as usize).max().unwrap_or(0)
    }

    /// Minimum degree δ of the graph (0 for the empty graph).
    pub fn min_degree(&self) -> usize {
        self.rows.iter().map(|r| r.len as usize).min().unwrap_or(0)
    }

    /// Vector of all node degrees, indexed by node id.
    pub fn degrees(&self) -> Vec<usize> {
        self.rows.iter().map(|r| r.len as usize).collect()
    }

    /// Average degree `2m / n` (0.0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / self.node_count() as f64
        }
    }

    /// Bytes held by the row table and the arena, garbage and slack
    /// included.
    pub fn memory_bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<Row>()
            + self.arena.len() * std::mem::size_of::<NodeId>()
    }

    /// Whether `set` (as a bit set over node ids) is an independent set.
    ///
    /// Walks the set's backing words through the set-bit-extraction kernel
    /// ([`kernels::all_set_bits`], early exit on the first conflict) and
    /// probes each member's upper neighbours ([`Graph::neighbors_above`])
    /// against the raw words with branchless OR-accumulation (the
    /// conditional per neighbour is a data dependency, not a branch, which
    /// beats short-circuit probes on scattered members).  Each edge is
    /// probed once: a conflicting pair is caught at its smaller member.
    /// Members `>= node_count()` make the set invalid, mirroring
    /// [`crate::properties::is_independent_set`].
    pub fn is_independent(&self, set: &FixedBitSet) -> bool {
        let n = self.node_count();
        if set.capacity() < n {
            // Undersized sets cannot be probed word-raw (a neighbour's word
            // may not exist); use the checked probe instead.
            return set
                .iter()
                .all(|u| u < n && self.neighbors_above(u).iter().all(|&v| !set.contains(v)));
        }
        let words = set.as_words();
        kernels::all_set_bits(words, |u| {
            if u >= n {
                return false;
            }
            let mut hit = 0u64;
            for &v in self.neighbors_above(u) {
                hit |= words[v >> 6] & (1u64 << (v & 63));
            }
            hit == 0
        })
    }
}

impl AsRef<Graph> for Graph {
    /// The graph itself, so APIs that take any `AsRef<Graph>` take a graph.
    fn as_ref(&self) -> &Graph {
        self
    }
}

impl Clone for Graph {
    /// A packed copy: rows in node order, no slack, no garbage.
    fn clone(&self) -> Self {
        self.relaid(false)
    }
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.node_count() == other.node_count()
            && self.edge_count == other.edge_count
            && self.nodes().all(|u| self.neighbors(u) == other.neighbors(u))
    }
}

impl Eq for Graph {}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.nodes().map(|u| (u, self.neighbors(u)))).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn new_graph_is_empty() {
        let g = Graph::new(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.min_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.nodes().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_graph_edge_cases() {
        for g in [Graph::new(0), Graph::from_edges(0, []).unwrap()] {
            assert_eq!(g.node_count(), 0);
            assert_eq!(g.edge_count(), 0);
            assert_eq!(g.max_degree(), 0);
            assert_eq!(g.average_degree(), 0.0);
            assert_eq!(g.edges().count(), 0);
            assert!(is_packed(&g));
        }
    }

    #[test]
    fn from_edges_rejects_invalid_edges() {
        assert_eq!(Graph::from_edges(2, [(0, 0)]), Err(GraphError::SelfLoop(0)));
        assert!(matches!(
            Graph::from_edges(2, [(0, 5)]),
            Err(GraphError::NodeOutOfBounds { node: 5, .. })
        ));
        assert_eq!(Graph::from_edges(3, [(0, 1), (1, 0)]), Err(GraphError::DuplicateEdge(0, 1)));
        assert!(matches!(Graph::from_edges(usize::MAX, []), Err(GraphError::InvalidParameter(_))));
    }

    #[test]
    fn is_independent_handles_range_and_capacity_edge_cases() {
        let g = Graph::from_edges(70, [(0, 1), (0, 69), (2, 3)]).unwrap();
        let mut ok = FixedBitSet::new(70);
        ok.insert(1);
        ok.insert(69);
        ok.insert(2);
        assert!(g.is_independent(&ok));
        ok.insert(0); // adjacent to both 1 and 69, in a different word than 69
        assert!(!g.is_independent(&ok));

        // Oversized capacity with an out-of-range member is invalid.
        let mut oversized = FixedBitSet::new(100);
        oversized.insert(99);
        assert!(!g.is_independent(&oversized));

        // Undersized capacity takes the checked path.
        let mut small = FixedBitSet::new(1);
        small.insert(0);
        assert!(g.is_independent(&small), "node 0's neighbours lie beyond the set capacity");
        let empty = FixedBitSet::new(0);
        assert!(g.is_independent(&empty));
    }

    #[test]
    fn add_and_remove_edges() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(3, 1).unwrap();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(1), 3);
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.neighbors(1), &[0, 2, 3]);

        g.remove_edge(1, 2).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert!(!g.has_edge(2, 1));
        assert_eq!(g.neighbors(1), &[0, 3]);
    }

    #[test]
    fn rejects_self_loops_duplicates_and_bad_nodes() {
        let mut g = Graph::new(3);
        assert_eq!(g.add_edge(1, 1), Err(GraphError::SelfLoop(1)));
        g.add_edge(0, 1).unwrap();
        assert_eq!(g.add_edge(0, 1), Err(GraphError::DuplicateEdge(0, 1)));
        assert_eq!(g.add_edge(1, 0), Err(GraphError::DuplicateEdge(1, 0)));
        assert!(matches!(g.add_edge(0, 9), Err(GraphError::NodeOutOfBounds { node: 9, .. })));
        assert_eq!(g.remove_edge(0, 2), Err(GraphError::MissingEdge(0, 2)));
        assert!(!g.has_edge(0, 99));
    }

    #[test]
    fn edges_are_lexicographic_and_unique() {
        let g = Graph::from_edges(4, [(2, 3), (0, 3), (0, 1)]).unwrap();
        let e: Vec<(usize, usize)> = g.edges().map(|e| (e.u, e.v)).collect();
        assert_eq!(e, vec![(0, 1), (0, 3), (2, 3)]);
    }

    #[test]
    fn add_node_extends_graph() {
        let mut g = Graph::new(1);
        let v = g.add_node();
        assert_eq!(v, 1);
        g.add_edge(0, 1).unwrap();
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(5, 2);
        assert_eq!((e.u, e.v), (2, 5));
        assert_eq!(e.other(2), 5);
        assert_eq!(e.other(5), 2);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn edge_other_panics_for_non_endpoint() {
        Edge::new(0, 1).other(2);
    }

    #[test]
    fn degree_statistics() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.min_degree(), 1);
        assert_eq!(g.degrees(), vec![3, 1, 1, 1]);
        assert!((g.average_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn edge_list_text_roundtrip() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let text = crate::io::to_edge_list(&g);
        let back = crate::io::from_edge_list(&text).unwrap();
        assert_eq!(g, back);
    }

    /// Whether `g` is packed: rows in node order, no slack, no garbage.
    fn is_packed(g: &Graph) -> bool {
        let mut next = 0;
        let in_order = g.rows.iter().all(|r| {
            let at = next;
            next += r.len as usize;
            r.start as usize == at && r.cap == r.len
        });
        in_order && g.garbage == 0 && next == g.arena.len()
    }

    /// Checks `g` against the model edge set `{(u, v) : u < v}` (with
    /// symmetry, the upper slices pin every row), then the layout's
    /// promises: row spans plus garbage make up the arena, the garbage
    /// stays in its bound, and the clone is equal and packed.
    fn check_model(g: &Graph, model: &BTreeSet<(usize, usize)>) {
        prop_assert!(g.edges().map(|e| (e.u, e.v)).eq(model.iter().copied()), "edges() order");
        prop_assert_eq!(g.edge_count(), model.len());
        for u in g.nodes() {
            let nbrs = g.neighbors(u);
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "sorted, no dup");
            prop_assert!(nbrs.iter().all(|&v| g.neighbors(v).binary_search(&u).is_ok()));
            prop_assert_eq!(g.degree(u), nbrs.len());
            let above: Vec<usize> = nbrs.iter().copied().filter(|&v| v > u).collect();
            prop_assert_eq!(g.neighbors_above(u), &above[..]);
        }
        let caps: usize = g.rows.iter().map(|r| r.cap as usize).sum();
        prop_assert_eq!(caps + g.garbage, g.arena.len());
        prop_assert!(g.garbage * GARBAGE_SHARE <= g.arena.len(), "garbage past the bound");
        let copy = g.clone();
        prop_assert_eq!(&copy, g);
        prop_assert!(is_packed(&copy));
    }

    /// Sequences long enough that rows fill up, move and get compacted.
    fn arb_edges(n: usize, len: Range<usize>) -> impl Strategy<Value = Vec<(usize, usize)>> {
        proptest::collection::vec((0..n, 0..n), len)
    }

    proptest! {
        /// Inserts only: every row grows past its first capacities, so rows
        /// move to the tail and the garbage forces compactions.
        #[test]
        fn adjacency_is_always_symmetric_and_sorted(pairs in arb_edges(30, 200..400)) {
            let mut g = Graph::new(30);
            let mut model = BTreeSet::new();
            let (mut moved, mut compacted) = (false, false);
            for (u, v) in pairs.into_iter().filter(|&(u, v)| u != v) {
                let garbage = g.garbage;
                prop_assert_eq!(g.add_edge(u, v).is_ok(), model.insert((u.min(v), u.max(v))));
                moved |= g.garbage > garbage;
                compacted |= g.garbage < garbage;
                check_model(&g, &model);
            }
            prop_assert!(moved && compacted, "the sequence must move and compact rows");
        }

        /// Toggles: each pair inserts its edge if absent and deletes it if
        /// present; then every remaining edge is deleted, newest first.
        #[test]
        fn remove_undoes_add(pairs in arb_edges(20, 100..300)) {
            let mut g = Graph::from_edges(20, [(0, 19), (3, 7)]).unwrap();
            let mut model = BTreeSet::from([(0, 19), (3, 7)]);
            let mut added = vec![(0, 19), (3, 7)];
            for (u, v) in pairs.into_iter().filter(|&(u, v)| u != v) {
                let e = (u.min(v), u.max(v));
                if model.remove(&e) {
                    g.remove_edge(v, u).unwrap();
                } else {
                    g.add_edge(u, v).unwrap();
                    model.insert(e);
                    added.push(e);
                }
                check_model(&g, &model);
            }
            for &(u, v) in added.iter().rev() {
                if model.remove(&(u, v)) {
                    g.remove_edge(u, v).unwrap();
                    check_model(&g, &model);
                }
            }
            prop_assert_eq!(g.edge_count(), 0);
            for u in g.nodes() {
                prop_assert_eq!(g.degree(u), 0);
            }
        }
    }
}
