//! Deterministic structured graph families.
//!
//! These families are the worst cases and sanity checks referenced throughout
//! the paper: the clique (where `d + 1` is unbeatable), the cycle (odd cycles
//! need 3 colours), complete bipartite "two villages" graphs (period 2 for
//! everyone), grids, stars, caterpillars, trees and circulants.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::Graph;

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let edges = (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v)));
    Graph::from_edges(n, edges).expect("complete graph edges are simple")
}

/// Simple path `P_n` on `n` nodes (`n - 1` edges).
pub fn path(n: usize) -> Graph {
    Graph::from_edges(n, (1..n).map(|u| (u - 1, u))).expect("path edges are simple")
}

/// Simple cycle `C_n`.  For `n < 3` this degenerates to a path.
pub fn cycle(n: usize) -> Graph {
    let closing = (n >= 3).then(|| (n - 1, 0));
    Graph::from_edges(n, (1..n).map(|u| (u - 1, u)).chain(closing)).expect("cycle edges are simple")
}

/// Star `K_{1,n-1}`: node 0 is the centre.
pub fn star(n: usize) -> Graph {
    Graph::from_edges(n, (1..n).map(|v| (0, v))).expect("star edges are simple")
}

/// Complete bipartite graph `K_{a,b}`; the first `a` nodes form one side.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let edges = (0..a).flat_map(|u| (a..a + b).map(move |v| (u, v)));
    Graph::from_edges(a + b, edges).expect("bipartite edges are simple")
}

/// `rows x cols` 2D grid graph; node `(r, c)` has id `r * cols + c`.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let id = r * cols + c;
            if c + 1 < cols {
                edges.push((id, id + 1));
            }
            if r + 1 < rows {
                edges.push((id, id + cols));
            }
        }
    }
    Graph::from_edges(rows * cols, edges).expect("grid edges are simple")
}

/// Uniform random labelled tree on `n` nodes via a random Prüfer sequence.
pub fn random_tree(n: usize, seed: u64) -> Graph {
    if n <= 2 {
        return path(n);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.gen_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &x in &prufer {
        degree[x] += 1;
    }
    // Standard Prüfer decoding with a pointer + leaf variable, O(n) time.
    let mut ptr = 0;
    while degree[ptr] != 1 {
        ptr += 1;
    }
    let mut leaf = ptr;
    let mut edges = Vec::with_capacity(n - 1);
    for &x in &prufer {
        edges.push((leaf, x));
        degree[x] -= 1;
        if degree[x] == 1 && x < ptr {
            leaf = x;
        } else {
            ptr += 1;
            while degree[ptr] != 1 {
                ptr += 1;
            }
            leaf = ptr;
        }
    }
    edges.push((leaf, n - 1));
    Graph::from_edges(n, edges).expect("Prüfer decoding yields a simple tree")
}

/// Caterpillar: a spine path of `spine` nodes, each with `legs` pendant leaves.
///
/// Caterpillars exercise the degree-bound schedulers with a mix of degree-2
/// spine nodes and degree-1 leaves hanging off higher-degree hubs.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    let n = spine + spine * legs;
    let spine_edges = (1..spine).map(|u| (u - 1, u));
    let leg_edges = (0..spine).flat_map(|s| (0..legs).map(move |l| (s, spine + s * legs + l)));
    Graph::from_edges(n, spine_edges.chain(leg_edges)).expect("caterpillar edges are simple")
}

/// Circulant graph `C_n(1..=k)`: node `i` is adjacent to `i ± 1, …, i ± k`
/// (mod `n`), giving a `2k`-regular graph when `2k < n`.
///
/// Regular graphs make every node's local bound identical, isolating the
/// scheduler's behaviour from degree variance.
///
/// # Panics
/// Panics if `2 * k >= n` and `n > 0` (the construction would not be simple).
pub fn regular_circulant(n: usize, k: usize) -> Graph {
    if n == 0 {
        return Graph::new(0);
    }
    assert!(2 * k < n, "circulant requires 2k < n (got n={n}, k={k})");
    // Offsets `1..=k` with `2k < n` never reach a pair twice.
    let edges = (0..n).flat_map(|u| (1..=k).map(move |d| (u, (u + d) % n)));
    Graph::from_edges(n, edges).expect("circulant edges are simple")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;

    #[test]
    fn complete_graph_counts() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert_eq!(g.max_degree(), 5);
        assert_eq!(g.min_degree(), 5);
        assert_eq!(complete(0).node_count(), 0);
        assert_eq!(complete(1).edge_count(), 0);
    }

    #[test]
    fn path_and_cycle_counts() {
        assert_eq!(path(5).edge_count(), 4);
        assert_eq!(path(1).edge_count(), 0);
        assert_eq!(path(0).edge_count(), 0);
        assert_eq!(cycle(5).edge_count(), 5);
        assert_eq!(cycle(2).edge_count(), 1, "C_2 degenerates to an edge");
        assert_eq!(cycle(3).max_degree(), 2);
    }

    #[test]
    fn cycle_parity_and_bipartiteness() {
        assert!(properties::is_bipartite(&cycle(8)));
        assert!(!properties::is_bipartite(&cycle(7)));
    }

    #[test]
    fn star_shape() {
        let g = star(10);
        assert_eq!(g.degree(0), 9);
        for v in 1..10 {
            assert_eq!(g.degree(v), 1);
        }
        assert_eq!(star(1).edge_count(), 0);
    }

    #[test]
    fn complete_bipartite_counts() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 12);
        assert!(properties::is_bipartite(&g));
        for u in 0..3 {
            assert_eq!(g.degree(u), 4);
        }
        for v in 3..7 {
            assert_eq!(g.degree(v), 3);
        }
    }

    #[test]
    fn grid_counts_and_degrees() {
        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.degree(0), 2); // corner
        assert!(properties::is_bipartite(&g));
        assert_eq!(grid(1, 1).edge_count(), 0);
        assert_eq!(grid(0, 5).node_count(), 0);
    }

    #[test]
    fn random_tree_is_a_tree() {
        for seed in 0..10u64 {
            for &n in &[2usize, 3, 5, 17, 64, 301] {
                let g = random_tree(n, seed);
                assert_eq!(g.edge_count(), n - 1, "tree edge count, n={n}");
                let comps = properties::connected_components(&g);
                assert_eq!(comps.component_count(), 1, "tree is connected, n={n}");
            }
        }
        assert_eq!(random_tree(1, 0).edge_count(), 0);
        assert_eq!(random_tree(0, 0).node_count(), 0);
    }

    #[test]
    fn random_tree_varies_with_seed() {
        assert_ne!(random_tree(50, 1), random_tree(50, 2));
        assert_eq!(random_tree(50, 1), random_tree(50, 1));
    }

    #[test]
    fn caterpillar_structure() {
        let g = caterpillar(4, 3);
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 3 + 12);
        // Interior spine node: 2 spine neighbours + 3 legs.
        assert_eq!(g.degree(1), 5);
        // Leaves have degree 1.
        assert_eq!(g.degree(15), 1);
        assert_eq!(caterpillar(0, 3).node_count(), 0);
        assert_eq!(caterpillar(3, 0).edge_count(), 2);
    }

    #[test]
    fn circulant_is_regular() {
        let g = regular_circulant(11, 3);
        assert_eq!(g.edge_count(), 11 * 3);
        for u in g.nodes() {
            assert_eq!(g.degree(u), 6);
        }
        assert_eq!(regular_circulant(0, 2).node_count(), 0);
        let g = regular_circulant(5, 2);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    #[should_panic(expected = "2k < n")]
    fn circulant_rejects_wraparound() {
        regular_circulant(6, 3);
    }
}
