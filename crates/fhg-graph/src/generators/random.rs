//! Random graph models: Erdős–Rényi and the "two villages" bipartite model.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::Graph;

/// Generates an Erdős–Rényi `G(n, p)` graph: every unordered pair is an edge
/// independently with probability `p`.
///
/// Uses the geometric-skipping technique so the running time is
/// `O(n + m)` rather than `O(n^2)`, which matters for the large sparse
/// instances used in experiment E1/E5.
///
/// # Panics
/// Panics if `p` is not in `[0, 1]` or is NaN.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "edge probability must be in [0, 1], got {p}");
    if n < 2 || p == 0.0 {
        return Graph::new(n);
    }
    if p >= 1.0 {
        return super::complete(n);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Iterate over the pairs (u, v), u < v, in lexicographic order, skipping
    // ahead by geometrically distributed gaps.
    let log_q = (1.0 - p).ln();
    let mut edges = Vec::new();
    let mut u: usize = 0;
    let mut v: i64 = 0; // candidate index within row u, offset from u+1
    'pairs: while u < n - 1 {
        let r: f64 = rng.gen_range(f64::EPSILON..1.0);
        let skip = (r.ln() / log_q).floor() as i64;
        v += skip + 1;
        // Move to the next rows while v overflows the current row.
        loop {
            let row_len = (n - u - 1) as i64;
            if v < row_len {
                break;
            }
            v -= row_len;
            u += 1;
            if u >= n - 1 {
                break 'pairs;
            }
        }
        edges.push((u, u + 1 + v as usize));
    }
    Graph::from_edges(n, edges).expect("pair enumeration never repeats an edge")
}

/// Generates a uniform `G(n, m)` graph with exactly `m` distinct edges.
///
/// # Panics
/// Panics if `m` exceeds the number of possible edges `n(n-1)/2`.
pub fn gnm(n: usize, m: usize, seed: u64) -> Graph {
    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(m <= max_edges, "requested {m} edges but only {max_edges} are possible");
    if m == 0 {
        return Graph::new(n);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Dense request: sample by enumerating all pairs and shuffling a prefix.
    if m * 3 >= max_edges {
        let mut pairs: Vec<(usize, usize)> =
            (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v))).collect();
        // Partial Fisher-Yates: we only need the first m entries.
        for i in 0..m {
            let j = rng.gen_range(i..pairs.len());
            pairs.swap(i, j);
        }
        pairs.truncate(m);
        return Graph::from_edges(n, pairs).expect("distinct pairs");
    }
    // Sparse request: rejection sampling.
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            chosen.insert((u.min(v), u.max(v)));
        }
    }
    Graph::from_edges(n, chosen).expect("distinct pairs")
}

/// The paper's motivating "two villages" example: parents split into groups
/// `A` (size `a`) and `B` (size `b`); only inter-group marriages occur, each
/// with probability `p`.  The resulting conflict graph is bipartite, so a
/// 2-colouring schedules every parent with period 2 regardless of degree.
///
/// # Panics
/// Panics if `p` is not in `[0, 1]`.
pub fn bipartite_villages(a: usize, b: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "edge probability must be in [0, 1], got {p}");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for u in 0..a {
        for v in a..a + b {
            if rng.gen_bool(p) {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(a + b, edges).expect("bipartite pairs are simple")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;

    #[test]
    fn erdos_renyi_extremes() {
        assert_eq!(erdos_renyi(10, 0.0, 1).edge_count(), 0);
        assert_eq!(erdos_renyi(10, 1.0, 1).edge_count(), 45);
        assert_eq!(erdos_renyi(0, 0.5, 1).node_count(), 0);
        assert_eq!(erdos_renyi(1, 0.5, 1).edge_count(), 0);
    }

    #[test]
    fn erdos_renyi_is_deterministic_per_seed() {
        let a = erdos_renyi(50, 0.2, 9);
        let b = erdos_renyi(50, 0.2, 9);
        let c = erdos_renyi(50, 0.2, 10);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should almost surely differ");
    }

    #[test]
    fn erdos_renyi_edge_density_close_to_p() {
        let n = 400;
        let p = 0.05;
        let g = erdos_renyi(n, p, 123);
        let possible = (n * (n - 1) / 2) as f64;
        let density = g.edge_count() as f64 / possible;
        assert!((density - p).abs() < 0.01, "density {density} too far from {p}");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn erdos_renyi_rejects_bad_p() {
        erdos_renyi(10, 1.5, 0);
    }

    #[test]
    fn gnm_exact_edge_count_sparse_and_dense() {
        let g = gnm(30, 20, 5);
        assert_eq!(g.edge_count(), 20);
        let g = gnm(30, 400, 5);
        assert_eq!(g.edge_count(), 400);
        let g = gnm(30, 435, 5);
        assert_eq!(g.edge_count(), 435); // complete graph
        assert_eq!(gnm(10, 0, 5).edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "possible")]
    fn gnm_rejects_too_many_edges() {
        gnm(5, 11, 0);
    }

    #[test]
    fn bipartite_villages_is_bipartite() {
        let g = bipartite_villages(20, 30, 0.3, 77);
        assert_eq!(g.node_count(), 50);
        assert!(properties::is_bipartite(&g));
        // No intra-village edges.
        for u in 0..20 {
            for v in 0..20 {
                assert!(!g.has_edge(u, v));
            }
        }
    }

    #[test]
    fn bipartite_villages_full_probability_is_complete_bipartite() {
        let g = bipartite_villages(4, 6, 1.0, 0);
        assert_eq!(g.edge_count(), 24);
    }
}
