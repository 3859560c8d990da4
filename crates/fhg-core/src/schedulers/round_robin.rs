//! The round-robin colouring scheduler (§1).
//!
//! Colour the conflict graph with `k` colours; at holiday `t` the parents of
//! colour `(t mod k) + 1` are happy.  Every parent is happy exactly every `k`
//! holidays.  With a greedy colouring `k ≤ Δ + 1`, so the guarantee depends
//! on the *maximum* degree in the graph — the paper's motivating complaint:
//! parents of a single child wait `Δ + 1` holidays because someone else has a
//! large brood.

use fhg_coloring::{greedy_coloring, Coloring, GreedyOrder};
use fhg_graph::{Graph, HappySet, NodeId};

use crate::scheduler::Scheduler;
use crate::schedulers::residue::ResidueSchedule;

/// Round-robin over the colour classes of a proper colouring.
#[derive(Debug, Clone)]
pub struct RoundRobinColoring {
    coloring: Coloring,
    k: u64,
    /// Residue view `t ≡ colour - 1 (mod k)`: the colour-class bit rows live
    /// in its word-packed table (one OR per holiday, falling back to a
    /// per-node scan over the memory budget).  `None` only for defective
    /// colourings with out-of-range colours, which emit via the legacy scan
    /// that silently skips those nodes.
    schedule: Option<ResidueSchedule>,
}

impl RoundRobinColoring {
    /// Builds the scheduler from a greedy (natural-order) colouring, which
    /// uses at most `Δ + 1` colours.
    pub fn new(graph: &Graph) -> Self {
        Self::with_coloring(greedy_coloring(graph, GreedyOrder::Natural))
    }

    /// Builds the scheduler from an explicit colouring (e.g. an optimal or
    /// bipartite 2-colouring, reproducing the paper's two-village example).
    pub fn with_coloring(coloring: Coloring) -> Self {
        let k = u64::from(coloring.max_color()).max(1);
        let n = coloring.len();
        let colors_valid = coloring.as_slice().iter().all(|&c| c >= 1 && u64::from(c) <= k);
        let schedule = colors_valid.then(|| {
            let slots: Vec<u64> = coloring.as_slice().iter().map(|&c| u64::from(c) - 1).collect();
            ResidueSchedule::new(slots, vec![k; n])
        });
        RoundRobinColoring { coloring, k, schedule }
    }

    /// The number of colours being cycled.
    pub fn cycle_length(&self) -> u64 {
        self.k
    }

    /// The colouring driving the schedule.
    pub fn coloring(&self) -> &Coloring {
        &self.coloring
    }
}

impl Scheduler for RoundRobinColoring {
    fn node_count(&self) -> usize {
        self.coloring.len()
    }

    fn fill_happy_set(&mut self, t: u64, out: &mut HappySet) {
        match &self.schedule {
            Some(schedule) => schedule.fill(t, out),
            None => {
                let (colors, active) = (self.coloring.as_slice(), (t % self.k) as u32 + 1);
                out.assign_where(colors.len(), |p| colors[p] == active);
            }
        }
    }

    fn name(&self) -> &'static str {
        "round-robin-coloring"
    }

    fn is_periodic(&self) -> bool {
        true
    }

    fn period(&self, _p: NodeId) -> Option<u64> {
        Some(self.k)
    }

    fn unhappiness_bound(&self, _p: NodeId) -> Option<u64> {
        Some(self.k)
    }

    fn residue_schedule(&self) -> Option<&ResidueSchedule> {
        self.schedule.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_schedule;
    use crate::scheduler::happy_vec;
    use fhg_coloring::two_coloring;
    use fhg_graph::generators::structured::{complete, star};
    use fhg_graph::generators::{bipartite_villages, erdos_renyi};

    #[test]
    fn every_node_happy_exactly_every_k_holidays() {
        let g = erdos_renyi(40, 0.1, 2);
        let mut s = RoundRobinColoring::new(&g);
        let k = s.cycle_length();
        assert!(k <= g.max_degree() as u64 + 1);
        let analysis = analyze_schedule(&g, &mut s, 20 * k);
        assert!(analysis.all_happy_sets_independent);
        for node in &analysis.per_node {
            assert_eq!(node.observed_period, Some(k));
        }
    }

    #[test]
    fn two_village_example_gives_period_two_to_everyone() {
        // The paper's §1 example: bipartite marriages, alternate villages.
        let g = bipartite_villages(15, 20, 0.4, 3);
        let coloring = two_coloring(&g).unwrap();
        let mut s = RoundRobinColoring::with_coloring(coloring);
        assert_eq!(s.cycle_length(), 2);
        let analysis = analyze_schedule(&g, &mut s, 40);
        for node in &analysis.per_node {
            assert_eq!(node.observed_period, Some(2), "every family gathers every 2 years");
        }
    }

    #[test]
    fn clique_needs_n_holidays_per_cycle() {
        let g = complete(7);
        let mut s = RoundRobinColoring::new(&g);
        assert_eq!(s.cycle_length(), 7);
        let analysis = analyze_schedule(&g, &mut s, 70);
        assert_eq!(analysis.max_unhappiness(), 6);
    }

    #[test]
    fn star_punishes_the_leaves_with_the_global_bound() {
        // The motivating complaint: leaves have degree 1 but still wait the
        // full cycle because the colouring is cycled globally.
        let g = star(10);
        let mut s = RoundRobinColoring::new(&g);
        let analysis = analyze_schedule(&g, &mut s, 50);
        let leaf = &analysis.per_node[5];
        assert_eq!(leaf.degree, 1);
        assert_eq!(leaf.observed_period, Some(s.cycle_length()));
    }

    #[test]
    fn edgeless_graph_everyone_happy_every_holiday() {
        let g = Graph::new(4);
        let mut s = RoundRobinColoring::new(&g);
        assert_eq!(s.cycle_length(), 1);
        assert_eq!(happy_vec(&mut s, 9), vec![0, 1, 2, 3]);
    }

    #[test]
    fn fallback_scan_matches_precomputed_rows() {
        // Force the legacy scan path by rebuilding the scheduler with the
        // residue view dropped, and compare schedules against the row path.
        let g = erdos_renyi(40, 0.1, 2);
        let mut with_rows = RoundRobinColoring::new(&g);
        assert!(with_rows.residue_schedule().is_some());
        let mut scanned = with_rows.clone();
        scanned.schedule = None;
        for t in 0..3 * with_rows.cycle_length() {
            assert_eq!(happy_vec(&mut with_rows, t), happy_vec(&mut scanned, t), "holiday {t}");
        }
    }

    #[test]
    fn metadata() {
        let s = RoundRobinColoring::new(&complete(3));
        assert_eq!(s.name(), "round-robin-coloring");
        assert!(s.is_periodic());
        assert_eq!(s.period(1), Some(3));
        assert_eq!(s.unhappiness_bound(1), Some(3));
        assert_eq!(s.coloring().len(), 3);
    }
}
