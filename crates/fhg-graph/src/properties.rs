//! Structural graph properties.
//!
//! Measurements used throughout the workspace: degree statistics for the
//! experiment tables, bipartiteness (the paper's two-village example),
//! connected components, degeneracy orderings (the greedy colouring bound),
//! triangle counting (triangle-free graphs admit better colourings, §5
//! footnote) and independent-set verification (every gathering's happy set
//! must be independent).
//!
//! [`is_independent_set`] is the slice reference.  The fast verifier lives
//! on the packed [`Graph`] itself: [`Graph::is_independent`] checks one
//! bit set and probes each edge once, from its lower endpoint's upper
//! slice.

use crate::bitset::FixedBitSet;
use crate::{Graph, NodeId};

/// Summary statistics of a degree sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree δ.
    pub min: usize,
    /// Maximum degree Δ.
    pub max: usize,
    /// Mean degree `2m/n`.
    pub mean: f64,
    /// Median degree.
    pub median: f64,
    /// Standard deviation of the degree sequence.
    pub std_dev: f64,
}

/// Computes [`DegreeStats`] for a graph.  Returns all-zero stats for the
/// empty graph.
pub fn degree_stats(g: &Graph) -> DegreeStats {
    let mut degrees = g.degrees();
    if degrees.is_empty() {
        return DegreeStats { min: 0, max: 0, mean: 0.0, median: 0.0, std_dev: 0.0 };
    }
    degrees.sort_unstable();
    let n = degrees.len();
    let min = degrees[0];
    let max = degrees[n - 1];
    let mean = degrees.iter().sum::<usize>() as f64 / n as f64;
    let median = if n % 2 == 1 {
        degrees[n / 2] as f64
    } else {
        (degrees[n / 2 - 1] + degrees[n / 2]) as f64 / 2.0
    };
    let var = degrees.iter().map(|&d| (d as f64 - mean).powi(2)).sum::<f64>() / n as f64;
    DegreeStats { min, max, mean, median, std_dev: var.sqrt() }
}

/// Connected components of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// `component[u]` is the id of the component containing `u`.
    pub component: Vec<usize>,
    /// Number of nodes in each component, indexed by component id.
    pub sizes: Vec<usize>,
}

impl Components {
    /// Number of connected components.
    pub fn component_count(&self) -> usize {
        self.sizes.len()
    }

    /// Size of the largest component (0 for the empty graph).
    pub fn largest(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0)
    }
}

/// Computes connected components with an iterative BFS.
pub fn connected_components(g: &Graph) -> Components {
    let n = g.node_count();
    let mut component = vec![usize::MAX; n];
    let mut sizes = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if component[start] != usize::MAX {
            continue;
        }
        let id = sizes.len();
        let mut size = 0usize;
        component[start] = id;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            size += 1;
            for &v in g.neighbors(u) {
                if component[v] == usize::MAX {
                    component[v] = id;
                    queue.push_back(v);
                }
            }
        }
        sizes.push(size);
    }
    Components { component, sizes }
}

/// Attempts to 2-colour the graph; returns the side assignment if bipartite.
pub fn bipartition(g: &Graph) -> Option<Vec<u8>> {
    let n = g.node_count();
    let mut side = vec![u8::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if side[start] != u8::MAX {
            continue;
        }
        side[start] = 0;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if side[v] == u8::MAX {
                    side[v] = 1 - side[u];
                    queue.push_back(v);
                } else if side[v] == side[u] {
                    return None;
                }
            }
        }
    }
    Some(side)
}

/// Whether the graph is bipartite (contains no odd cycle).
pub fn is_bipartite(g: &Graph) -> bool {
    bipartition(g).is_some()
}

/// Degeneracy ordering and the graph's degeneracy.
///
/// Returned as `(ordering, degeneracy)` where `ordering` lists nodes in the
/// order produced by repeatedly removing a minimum-degree node.  Colouring
/// greedily in the *reverse* of this ordering uses at most `degeneracy + 1`
/// colours.
pub fn degeneracy_ordering(g: &Graph) -> (Vec<NodeId>, usize) {
    let n = g.node_count();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let mut degree = g.degrees();
    let max_deg = *degree.iter().max().unwrap_or(&0);
    // Bucket queue over degrees.
    let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); max_deg + 1];
    for (u, &d) in degree.iter().enumerate() {
        buckets[d].push(u);
    }
    let mut removed = FixedBitSet::new(n);
    let mut ordering = Vec::with_capacity(n);
    let mut degeneracy = 0usize;
    let mut cursor = 0usize;
    for _ in 0..n {
        // Find the smallest non-empty bucket at or after `cursor`, falling
        // back to scanning from zero (degrees only decrease by one at a time,
        // so cursor-1 is a valid restart point).
        cursor = cursor.saturating_sub(1);
        while buckets[cursor].is_empty() {
            cursor += 1;
        }
        // Pop a node that is still current (lazy deletion).
        let u = loop {
            match buckets[cursor].pop() {
                Some(u) if !removed.contains(u) && degree[u] == cursor => break u,
                Some(_) => continue,
                None => {
                    cursor += 1;
                    while buckets[cursor].is_empty() {
                        cursor += 1;
                    }
                }
            }
        };
        removed.insert(u);
        degeneracy = degeneracy.max(cursor);
        ordering.push(u);
        for &v in g.neighbors(u) {
            if !removed.contains(v) {
                degree[v] -= 1;
                buckets[degree[v]].push(v);
            }
        }
    }
    (ordering, degeneracy)
}

/// Counts the triangles in the graph.
///
/// Uses the standard forward/degree-ordered algorithm which runs in
/// `O(m^{3/2})`.
pub fn triangle_count(g: &Graph) -> usize {
    let n = g.node_count();
    // Order nodes by (degree, id); orient each edge from lower to higher rank.
    let mut rank = vec![0usize; n];
    let mut order: Vec<NodeId> = (0..n).collect();
    order.sort_by_key(|&u| (g.degree(u), u));
    for (r, &u) in order.iter().enumerate() {
        rank[u] = r;
    }
    let mut forward: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for e in g.edges() {
        let (a, b) = if rank[e.u] < rank[e.v] { (e.u, e.v) } else { (e.v, e.u) };
        forward[a].push(b);
    }
    for list in &mut forward {
        list.sort_unstable();
    }
    let mut count = 0usize;
    for u in 0..n {
        for &v in &forward[u] {
            // Intersect forward[u] and forward[v].
            let (mut i, mut j) = (0, 0);
            let (fu, fv) = (&forward[u], &forward[v]);
            while i < fu.len() && j < fv.len() {
                match fu[i].cmp(&fv[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        count += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    count
}

/// Whether `set` is an independent set of `g` (no two members adjacent).
pub fn is_independent_set(g: &Graph, set: &[NodeId]) -> bool {
    let mut members = FixedBitSet::new(g.node_count());
    for &u in set {
        if u >= g.node_count() {
            return false;
        }
        members.insert(u);
    }
    for &u in set {
        for &v in g.neighbors(u) {
            if members.contains(v) {
                return false;
            }
        }
    }
    true
}

/// Whether `set` is a *maximal* independent set (independent and no node can
/// be added).
pub fn is_maximal_independent_set(g: &Graph, set: &[NodeId]) -> bool {
    if !is_independent_set(g, set) {
        return false;
    }
    let mut members = FixedBitSet::new(g.node_count());
    for &u in set {
        members.insert(u);
    }
    for u in g.nodes() {
        if !members.contains(u) && g.neighbors(u).iter().all(|&v| !members.contains(v)) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::structured::{complete, complete_bipartite, cycle, grid, path, star};
    use crate::generators::{erdos_renyi, random_tree};
    use proptest::prelude::*;

    #[test]
    fn degree_stats_of_star() {
        let s = degree_stats(&star(5));
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert!((s.mean - 8.0 / 5.0).abs() < 1e-12);
        assert_eq!(s.median, 1.0);
        assert!(s.std_dev > 0.0);
    }

    #[test]
    fn degree_stats_empty_graph() {
        let s = degree_stats(&Graph::new(0));
        assert_eq!(s.max, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn degree_stats_median_even_count() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let s = degree_stats(&g);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn components_of_disconnected_graph() {
        let mut g = path(3);
        g.add_node();
        g.add_node();
        let extra = g.add_node();
        g.add_edge(4, extra).unwrap();
        let c = connected_components(&g);
        assert_eq!(c.component_count(), 3);
        assert_eq!(c.largest(), 3);
        assert_eq!(c.component[0], c.component[2]);
        assert_ne!(c.component[0], c.component[3]);
        assert_eq!(c.sizes.iter().sum::<usize>(), g.node_count());
    }

    #[test]
    fn components_empty_graph() {
        let c = connected_components(&Graph::new(0));
        assert_eq!(c.component_count(), 0);
        assert_eq!(c.largest(), 0);
    }

    #[test]
    fn bipartiteness_classics() {
        assert!(is_bipartite(&path(10)));
        assert!(is_bipartite(&cycle(10)));
        assert!(!is_bipartite(&cycle(9)));
        assert!(is_bipartite(&grid(4, 7)));
        assert!(is_bipartite(&complete_bipartite(3, 5)));
        assert!(!is_bipartite(&complete(3)));
        assert!(is_bipartite(&Graph::new(4)), "edgeless graph is bipartite");
    }

    #[test]
    fn bipartition_is_a_proper_2_colouring() {
        let g = grid(5, 6);
        let side = bipartition(&g).unwrap();
        for e in g.edges() {
            assert_ne!(side[e.u], side[e.v]);
        }
    }

    #[test]
    fn degeneracy_of_known_graphs() {
        assert_eq!(degeneracy_ordering(&complete(7)).1, 6);
        assert_eq!(degeneracy_ordering(&cycle(10)).1, 2);
        assert_eq!(degeneracy_ordering(&path(10)).1, 1);
        assert_eq!(degeneracy_ordering(&random_tree(100, 3)).1, 1);
        assert_eq!(degeneracy_ordering(&grid(5, 5)).1, 2);
        assert_eq!(degeneracy_ordering(&Graph::new(0)).1, 0);
        assert_eq!(degeneracy_ordering(&Graph::new(5)).1, 0);
    }

    #[test]
    fn degeneracy_ordering_is_a_permutation() {
        let g = erdos_renyi(80, 0.1, 4);
        let (order, _) = degeneracy_ordering(&g);
        let mut seen = [false; 80];
        for &u in &order {
            assert!(!seen[u]);
            seen[u] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn triangle_counts_of_known_graphs() {
        assert_eq!(triangle_count(&complete(4)), 4);
        assert_eq!(triangle_count(&complete(6)), 20);
        assert_eq!(triangle_count(&cycle(3)), 1);
        assert_eq!(triangle_count(&cycle(4)), 0);
        assert_eq!(triangle_count(&star(10)), 0);
        assert_eq!(triangle_count(&grid(4, 4)), 0);
        assert_eq!(triangle_count(&Graph::new(0)), 0);
    }

    #[test]
    fn independent_set_checks() {
        let g = cycle(5);
        assert!(is_independent_set(&g, &[0, 2]));
        assert!(is_independent_set(&g, &[]));
        assert!(!is_independent_set(&g, &[0, 1]));
        assert!(!is_independent_set(&g, &[0, 99]), "out-of-range member rejected");
        assert!(is_maximal_independent_set(&g, &[0, 2]));
        assert!(!is_maximal_independent_set(&g, &[0]));
        assert!(!is_maximal_independent_set(&g, &[0, 1]));
    }

    /// A seeded run of edge toggles (add if absent, remove if present):
    /// rows grow, move to the arena tail and get compacted, and every
    /// split shifts with its row.
    fn toggle(g: &mut Graph, pairs: &[(usize, usize)]) {
        let n = g.node_count();
        for &(a, b) in pairs {
            let (u, v) = (a % n, b % n);
            if u == v {
                continue;
            }
            if g.has_edge(u, v) {
                g.remove_edge(u, v).unwrap();
            } else {
                g.add_edge(u, v).unwrap();
            }
        }
    }

    proptest! {
        /// `Graph::is_independent` agrees with the slice reference on
        /// arbitrary subsets, on the packed graph and again after edge
        /// toggles: for sets as wide as the graph, wider (with and without
        /// a member `>= n`) and narrower.
        #[test]
        fn independence_checkers_agree(
            seed in 0u64..40,
            mask in 0u64..(1 << 20),
            beyond in 20usize..90,
            narrow in 0usize..20,
            toggles in prop::collection::vec((0usize..20, 0usize..20), 0..150),
        ) {
            let mut g = erdos_renyi(20, 0.2, seed);
            let members: Vec<usize> = (0..20).filter(|u| mask & (1 << u) != 0).collect();
            let below: Vec<usize> = members.iter().copied().filter(|&u| u < narrow).collect();
            let mut out_of_range = members.clone();
            out_of_range.push(beyond);
            for churned in [false, true] {
                if churned {
                    toggle(&mut g, &toggles);
                }
                for (capacity, set) in
                    [(20, &members), (90, &members), (90, &out_of_range), (narrow, &below)]
                {
                    let mut bits = FixedBitSet::new(capacity);
                    for &u in set {
                        bits.insert(u);
                    }
                    prop_assert_eq!(
                        g.is_independent(&bits),
                        is_independent_set(&g, set),
                        "capacity {}, churned {}", capacity, churned
                    );
                }
            }
        }

        #[test]
        fn degeneracy_is_at_most_max_degree(seed in 0u64..50) {
            let g = erdos_renyi(60, 0.08, seed);
            let (_, d) = degeneracy_ordering(&g);
            prop_assert!(d <= g.max_degree());
        }

        #[test]
        fn triangle_count_matches_brute_force(seed in 0u64..20) {
            let g = erdos_renyi(25, 0.25, seed);
            let mut brute = 0usize;
            for a in 0..25 {
                for b in (a + 1)..25 {
                    for c in (b + 1)..25 {
                        if g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c) {
                            brute += 1;
                        }
                    }
                }
            }
            prop_assert_eq!(triangle_count(&g), brute);
        }

        #[test]
        fn component_sizes_partition_nodes(seed in 0u64..20) {
            let g = erdos_renyi(60, 0.02, seed);
            let c = connected_components(&g);
            prop_assert_eq!(c.sizes.iter().sum::<usize>(), 60);
            for e in g.edges() {
                prop_assert_eq!(c.component[e.u], c.component[e.v]);
            }
        }
    }
}
