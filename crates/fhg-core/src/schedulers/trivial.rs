//! The trivial sequential scheduler (§4, Example 1).
//!
//! Nodes are "coloured" sequentially `0, 1, …, n-1` and node `p` is happy at
//! holiday `t` exactly when `t ≡ p (mod n)`.  No two adjacent nodes are ever
//! happy together (no two nodes at all are), but `mul(p) = n` for everyone —
//! the canonical example of a schedule whose guarantee depends on a *global*
//! property of the graph, which the paper's algorithms are designed to avoid.

use fhg_graph::{Graph, HappySet, NodeId};

use crate::scheduler::Scheduler;
use crate::schedulers::residue::ResidueSchedule;

/// One node per holiday, cycling through all `n` nodes.
#[derive(Debug, Clone)]
pub struct TrivialSequential {
    n: usize,
    /// Residue view `t ≡ p (mod n)` for the progression analysis; scan-only
    /// because a word-row table for the identity schedule would cost `n²/8`
    /// bytes — the view emits through its `O(n)`-memory residue bucket index
    /// (one divide + one insert per holiday) instead.
    schedule: ResidueSchedule,
}

impl TrivialSequential {
    /// Creates the scheduler for a graph with `graph.node_count()` parents.
    pub fn new(graph: &Graph) -> Self {
        let n = graph.node_count();
        let slots: Vec<u64> = (0..n as u64).collect();
        let schedule = ResidueSchedule::scan_only(slots, vec![(n as u64).max(1); n]);
        TrivialSequential { n, schedule }
    }
}

impl Scheduler for TrivialSequential {
    fn node_count(&self) -> usize {
        self.n
    }

    fn fill_happy_set(&mut self, t: u64, out: &mut HappySet) {
        out.reset(self.n);
        if self.n > 0 {
            out.insert((t % self.n as u64) as NodeId);
        }
    }

    fn name(&self) -> &'static str {
        "trivial-sequential"
    }

    fn is_periodic(&self) -> bool {
        true
    }

    fn period(&self, _p: NodeId) -> Option<u64> {
        Some(self.n as u64)
    }

    fn unhappiness_bound(&self, _p: NodeId) -> Option<u64> {
        Some(self.n as u64)
    }

    fn residue_schedule(&self) -> Option<&ResidueSchedule> {
        Some(&self.schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_schedule;
    use crate::scheduler::happy_vec;
    use crate::scheduler::SchedulerExt;
    use fhg_graph::generators::structured::cycle;

    #[test]
    fn exactly_one_node_per_holiday() {
        let g = cycle(5);
        let mut s = TrivialSequential::new(&g);
        assert_eq!(happy_vec(&mut s, 0), vec![0]);
        assert_eq!(happy_vec(&mut s, 3), vec![3]);
        assert_eq!(happy_vec(&mut s, 5), vec![0]);
        assert_eq!(happy_vec(&mut s, 12), vec![2]);
    }

    #[test]
    fn every_node_has_period_n() {
        let g = cycle(6);
        let mut s = TrivialSequential::new(&g);
        let analysis = analyze_schedule(&g, &mut s, 60);
        for node in &analysis.per_node {
            assert_eq!(node.observed_period, Some(6));
            assert_eq!(node.max_unhappiness, 5);
        }
        assert!(analysis.all_happy_sets_independent);
    }

    #[test]
    fn empty_graph_yields_empty_sets() {
        let g = fhg_graph::Graph::new(0);
        let mut s = TrivialSequential::new(&g);
        assert!(happy_vec(&mut s, 0).is_empty());
        assert!(s.run(3).iter().all(Vec::is_empty));
    }

    #[test]
    fn metadata() {
        let s = TrivialSequential::new(&cycle(4));
        assert_eq!(s.name(), "trivial-sequential");
        assert!(s.is_periodic());
        assert_eq!(s.period(2), Some(4));
        assert_eq!(s.unhappiness_bound(0), Some(4));
    }
}
