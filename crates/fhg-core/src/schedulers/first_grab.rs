//! The "first come first grab" chaotic baseline (§1).
//!
//! Each holiday, parents wake up at independent uniformly random times and
//! grab whichever of their children have not been grabbed yet.  A parent is
//! happy exactly when it wakes up before *all* of its in-laws, which happens
//! with probability `1/(deg(p) + 1)`; the expected wait between happy
//! holidays is therefore `deg(p) + 1`.  This is the fairness landmark the
//! paper's deterministic algorithms are measured against — but it offers no
//! worst-case guarantee, is not periodic, and requires fresh randomness every
//! holiday.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use fhg_graph::{Graph, HappySet, NodeId};

use crate::scheduler::Scheduler;

/// The random wake-up baseline.
#[derive(Debug, Clone)]
pub struct FirstComeFirstGrab {
    graph: Graph,
    rng: ChaCha8Rng,
    /// Reusable wake-up order scratch (a permutation of the nodes).
    order: Vec<NodeId>,
    /// Reusable inverse permutation: `rank[p]` is `p`'s wake-up position.
    rank: Vec<usize>,
}

impl FirstComeFirstGrab {
    /// Creates the baseline with a deterministic seed.
    pub fn new(graph: &Graph, seed: u64) -> Self {
        let n = graph.node_count();
        FirstComeFirstGrab {
            graph: graph.clone(),
            rng: ChaCha8Rng::seed_from_u64(seed),
            order: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    /// The empirical happiness probability `1/(deg(p)+1)` the process targets.
    pub fn target_probability(&self, p: NodeId) -> f64 {
        1.0 / (self.graph.degree(p) as f64 + 1.0)
    }
}

impl Scheduler for FirstComeFirstGrab {
    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn fill_happy_set(&mut self, _t: u64, out: &mut HappySet) {
        let n = self.graph.node_count();
        out.reset(n);
        // Draw a uniformly random wake-up order (the scratch permutation from
        // the previous holiday is a fine starting point for the shuffle).
        self.order.shuffle(&mut self.rng);
        for (r, &p) in self.order.iter().enumerate() {
            self.rank[p] = r;
        }
        // A parent is happy iff it wakes before every in-law.
        for p in 0..n {
            if self.graph.neighbors(p).iter().all(|&q| self.rank[p] < self.rank[q]) {
                out.insert(p);
            }
        }
    }

    fn name(&self) -> &'static str {
        "first-come-first-grab"
    }

    fn is_periodic(&self) -> bool {
        false
    }

    fn period(&self, _p: NodeId) -> Option<u64> {
        None
    }

    fn unhappiness_bound(&self, _p: NodeId) -> Option<u64> {
        // No worst-case guarantee; only the expectation deg + 1.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_schedule;
    use crate::scheduler::happy_vec;
    use fhg_graph::generators::erdos_renyi;
    use fhg_graph::generators::structured::{complete, cycle, star};

    #[test]
    fn happy_sets_are_always_independent() {
        // The grab set is the set of local minima of a random wake-up order:
        // always independent (two in-laws cannot both wake first), though not
        // necessarily maximal — a parent may lose the race for one child yet
        // block nobody else.
        let g = erdos_renyi(40, 0.15, 3);
        let mut s = FirstComeFirstGrab::new(&g, 9);
        // One checker and one member buffer reused across the sweep
        // (`is_independent_set` would rebuild its scratch per holiday).
        let checker = crate::analysis::GraphChecker::new(&g);
        let mut members = fhg_graph::FixedBitSet::new(g.node_count());
        for t in 0..200 {
            let happy = happy_vec(&mut s, t);
            members.clear();
            happy.iter().for_each(|&p| {
                members.insert(p);
            });
            assert!(
                crate::analysis::HolidayChecker::check(&checker, t, &members),
                "holiday {t}: the grab set must be independent"
            );
            assert!(!happy.is_empty(), "some parent always wakes first overall");
        }
    }

    #[test]
    fn happiness_frequency_approaches_one_over_degree_plus_one() {
        let g = complete(5); // every node has degree 4, target probability 1/5
        let mut s = FirstComeFirstGrab::new(&g, 1);
        let horizon = 5000u64;
        let analysis = analyze_schedule(&g, &mut s, horizon);
        for node in &analysis.per_node {
            let freq = node.happy_count as f64 / horizon as f64;
            assert!(
                (freq - 0.2).abs() < 0.03,
                "node {} happiness frequency {freq} too far from 1/5",
                node.node
            );
        }
    }

    #[test]
    fn star_center_rarely_hosts_but_leaves_usually_do() {
        let g = star(9);
        let mut s = FirstComeFirstGrab::new(&g, 4);
        let horizon = 4000u64;
        let analysis = analyze_schedule(&g, &mut s, horizon);
        let center = &analysis.per_node[0];
        let center_freq = center.happy_count as f64 / horizon as f64;
        assert!((center_freq - 1.0 / 9.0).abs() < 0.03, "centre frequency {center_freq}");
        let leaf = &analysis.per_node[3];
        let leaf_freq = leaf.happy_count as f64 / horizon as f64;
        assert!((leaf_freq - 0.5).abs() < 0.05, "leaf frequency {leaf_freq}");
    }

    #[test]
    fn deterministic_per_seed_but_not_across_seeds() {
        let g = cycle(12);
        let mut a = FirstComeFirstGrab::new(&g, 7);
        let mut b = FirstComeFirstGrab::new(&g, 7);
        let mut c = FirstComeFirstGrab::new(&g, 8);
        let run_a: Vec<_> = (0..20).map(|t| happy_vec(&mut a, t)).collect();
        let run_b: Vec<_> = (0..20).map(|t| happy_vec(&mut b, t)).collect();
        let run_c: Vec<_> = (0..20).map(|t| happy_vec(&mut c, t)).collect();
        assert_eq!(run_a, run_b);
        assert_ne!(run_a, run_c);
    }

    #[test]
    fn metadata_and_degenerate_graphs() {
        let g = Graph::new(3);
        let mut s = FirstComeFirstGrab::new(&g, 0);
        assert_eq!(happy_vec(&mut s, 0), vec![0, 1, 2], "isolated parents always host");
        assert_eq!(s.name(), "first-come-first-grab");
        assert!(!s.is_periodic());
        assert_eq!(s.period(0), None);
        assert_eq!(s.unhappiness_bound(0), None);
        assert_eq!(s.target_probability(0), 1.0);
        let mut empty = FirstComeFirstGrab::new(&Graph::new(0), 0);
        assert!(happy_vec(&mut empty, 0).is_empty());
    }
}
