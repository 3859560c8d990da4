//! Barabási–Albert preferential attachment graphs.
//!
//! Heavy-tailed degree distributions are the regime where the paper's
//! *local* bounds (degree `d_p`, colour `c_p`) dramatically beat the global
//! `Δ + 1` bound: a handful of hub parents have enormous degree while the
//! median parent has degree close to `m`.  Experiment E6 uses this family.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::{Graph, NodeId};

/// Generates a Barabási–Albert preferential-attachment graph.
///
/// Starts from a clique on `m + 1` nodes (or a single node when `m == 0`),
/// then attaches each new node to `m` distinct existing nodes chosen with
/// probability proportional to their current degree (implemented with the
/// standard "repeated endpoints" urn).
///
/// # Panics
/// Panics if `m == 0` or `n < m + 1`.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Graph {
    assert!(m >= 1, "attachment count m must be at least 1");
    assert!(n > m, "need at least m+1 = {} nodes, got {n}", m + 1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Urn of node ids, each appearing once per incident edge endpoint: the
    // edge list itself, flattened.
    let mut urn: Vec<NodeId> = Vec::with_capacity(2 * m * n);
    // Seed clique on the first m+1 nodes.
    for u in 0..=m {
        for v in (u + 1)..=m {
            urn.push(u);
            urn.push(v);
        }
    }
    let mut chosen: Vec<NodeId> = Vec::with_capacity(m);
    for new in (m + 1)..n {
        chosen.clear();
        // Sample m distinct targets by preferential attachment.
        while chosen.len() < m {
            let target = urn[rng.gen_range(0..urn.len())];
            if !chosen.contains(&target) {
                chosen.push(target);
            }
        }
        for &target in &chosen {
            urn.push(new);
            urn.push(target);
        }
    }
    let edges = urn.chunks_exact(2).map(|e| (e[0], e[1]));
    Graph::from_edges(n, edges).expect("new nodes attach to distinct old nodes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_and_edge_counts() {
        let n = 500;
        let m = 3;
        let g = barabasi_albert(n, m, 42);
        assert_eq!(g.node_count(), n);
        // Seed clique has C(m+1, 2) edges, each later node adds exactly m.
        let expected = (m + 1) * m / 2 + (n - m - 1) * m;
        assert_eq!(g.edge_count(), expected);
    }

    #[test]
    fn minimum_degree_is_m() {
        let g = barabasi_albert(300, 4, 7);
        assert!(g.min_degree() >= 4);
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let g = barabasi_albert(3000, 2, 11);
        let max = g.max_degree();
        let avg = g.average_degree();
        // Hubs should be far above the average degree (which is about 2m = 4).
        assert!(max as f64 > 5.0 * avg, "expected heavy tail: max degree {max} vs average {avg}");
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(barabasi_albert(200, 2, 5), barabasi_albert(200, 2, 5));
        assert_ne!(barabasi_albert(200, 2, 5), barabasi_albert(200, 2, 6));
    }

    #[test]
    fn smallest_valid_instance_is_a_clique() {
        let g = barabasi_albert(3, 2, 0);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_m_panics() {
        barabasi_albert(10, 0, 0);
    }

    #[test]
    #[should_panic(expected = "need at least")]
    fn too_few_nodes_panics() {
        barabasi_albert(3, 3, 0);
    }
}
