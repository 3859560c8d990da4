//! The periodic lightweight degree-bound scheduler (§5, Theorem 5.3).
//!
//! Every node `p` of degree `d` picks an integer slot `x_p ∈ [0, 2^{j_p})`
//! with `j_p = ⌈log₂(d+1)⌉`, such that no neighbour's slot is congruent to
//! `x_p` modulo `2^{j_p}`; `p` then hosts every holiday
//! `t ≡ x_p (mod 2^{j_p})`.  The sequential §5.1 algorithm assigns slots in
//! decreasing-degree order (Lemma 5.1 guarantees a free slot always exists);
//! the distributed §5.2 variant runs `⌈log₂(Δ+1)⌉ + 1` phases of a
//! restricted-palette distributed colouring.  Either way every node is happy
//! exactly every `2^{j_p} ≤ 2·d_p` holidays — perfectly periodic, zero
//! communication after setup.

use fhg_coloring::{restricted_greedy_slot, slot_exponent};
use fhg_distributed::distributed_slot_assignment;
use fhg_graph::{Graph, HappySet, NodeId};

use crate::scheduler::Scheduler;
use crate::schedulers::residue::ResidueSchedule;

/// The sequential §5.1 periodic degree-bound scheduler.
#[derive(Debug, Clone)]
pub struct PeriodicDegreeBound {
    /// The `(slot, 2^exponent)` rows as a thread-safe pure function of the
    /// holiday number (word-packed rows inside when within budget).
    schedule: ResidueSchedule,
    degrees: Vec<usize>,
}

/// The slot-assignment order for the sequential §5.1 algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignmentOrder {
    /// Decreasing degree — the order Lemma 5.1 requires for correctness.
    DecreasingDegree,
    /// Increasing degree — deliberately wrong: low-degree nodes pick their
    /// slots first, and since the algorithm's conflict check only looks at
    /// residues modulo the *assignee's own* period, a later high-degree node
    /// can collide with an earlier low-degree neighbour.  Exposed for the E4
    /// ablation (the §6 remark that higher-degree nodes must colour first).
    IncreasingDegree,
    /// Node-id order, also unsound in general.
    Natural,
}

impl PeriodicDegreeBound {
    /// Runs the §5.1 greedy slot assignment in decreasing-degree order.
    ///
    /// # Panics
    /// Never panics: Lemma 5.1 guarantees a slot exists for every node under
    /// this order.
    pub fn new(graph: &Graph) -> Self {
        Self::with_order(graph, AssignmentOrder::DecreasingDegree)
            .expect("Lemma 5.1: decreasing-degree order always finds a slot")
    }

    /// Runs the paper's greedy slot-assignment rule (smallest residue not
    /// blocked modulo the assignee's own period) visiting nodes in the given
    /// order.  Returns `None` if some node finds every residue blocked.
    ///
    /// Only [`AssignmentOrder::DecreasingDegree`] guarantees a *conflict-free*
    /// schedule (Lemma 5.1); other orders may succeed yet produce adjacent
    /// nodes hosting the same holiday — check with
    /// [`ResidueSchedule::conflict`] on the
    /// [`residue_schedule`](Scheduler::residue_schedule).
    pub fn with_order(graph: &Graph, order: AssignmentOrder) -> Option<Self> {
        let n = graph.node_count();
        let mut nodes: Vec<NodeId> = graph.nodes().collect();
        match order {
            AssignmentOrder::DecreasingDegree => {
                nodes.sort_by_key(|&u| std::cmp::Reverse(graph.degree(u)));
            }
            AssignmentOrder::IncreasingDegree => nodes.sort_by_key(|&u| graph.degree(u)),
            AssignmentOrder::Natural => {}
        }
        let exponents: Vec<u32> = graph.nodes().map(|u| slot_exponent(graph.degree(u))).collect();
        let mut assigned: Vec<Option<u64>> = vec![None; n];
        for &u in &nodes {
            let slot = restricted_greedy_slot(graph, &assigned, u, exponents[u])?;
            assigned[u] = Some(slot);
        }
        let slots: Vec<u64> =
            assigned.into_iter().map(|s| s.expect("all nodes assigned")).collect();
        let schedule = ResidueSchedule::from_exponents(slots, &exponents);
        Some(PeriodicDegreeBound { schedule, degrees: graph.degrees() })
    }
}

impl Scheduler for PeriodicDegreeBound {
    fn node_count(&self) -> usize {
        self.schedule.node_count()
    }

    fn fill_happy_set(&mut self, t: u64, out: &mut HappySet) {
        self.schedule.fill(t, out);
    }

    fn name(&self) -> &'static str {
        "periodic-degree-bound"
    }

    fn is_periodic(&self) -> bool {
        true
    }

    fn period(&self, p: NodeId) -> Option<u64> {
        Some(self.schedule.modulus(p))
    }

    fn unhappiness_bound(&self, p: NodeId) -> Option<u64> {
        // Theorem 5.3: the cycle length is at most 2d (and at least d + 1).
        Some((2 * self.degrees[p].max(1)) as u64)
    }

    fn residue_schedule(&self) -> Option<&ResidueSchedule> {
        Some(&self.schedule)
    }
}

/// The distributed §5.2 periodic degree-bound scheduler: the same guarantees
/// as [`PeriodicDegreeBound`], with the slot assignment computed by phased
/// restricted-palette distributed colouring on the LOCAL-model simulator.
#[derive(Debug, Clone)]
pub struct DistributedDegreeBound {
    /// LOCAL rounds the §5.2 assignment took.
    rounds: u64,
    degrees: Vec<usize>,
    /// The assignment as a thread-safe pure function of the holiday number.
    schedule: ResidueSchedule,
}

impl DistributedDegreeBound {
    /// Runs the §5.2 phased distributed slot assignment with the given seed.
    pub fn new(graph: &Graph, seed: u64) -> Self {
        let outcome = distributed_slot_assignment(graph, seed);
        let schedule = ResidueSchedule::from_exponents(outcome.slots, &outcome.exponents);
        DistributedDegreeBound { rounds: outcome.stats.rounds, degrees: graph.degrees(), schedule }
    }
}

impl Scheduler for DistributedDegreeBound {
    fn node_count(&self) -> usize {
        self.schedule.node_count()
    }

    fn fill_happy_set(&mut self, t: u64, out: &mut HappySet) {
        self.schedule.fill(t, out);
    }

    fn name(&self) -> &'static str {
        "distributed-degree-bound"
    }

    fn is_periodic(&self) -> bool {
        true
    }

    fn period(&self, p: NodeId) -> Option<u64> {
        Some(self.schedule.modulus(p))
    }

    fn unhappiness_bound(&self, p: NodeId) -> Option<u64> {
        Some((2 * self.degrees[p].max(1)) as u64)
    }

    fn residue_schedule(&self) -> Option<&ResidueSchedule> {
        Some(&self.schedule)
    }

    fn init_rounds(&self) -> u64 {
        self.rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_schedule;
    use crate::scheduler::happy_vec;
    use fhg_graph::generators::structured::{complete, star};
    use fhg_graph::generators::{barabasi_albert, erdos_renyi};
    use proptest::prelude::*;

    #[test]
    fn theorem_5_3_sequential_period_bounds() {
        for seed in 0..5u64 {
            let g = erdos_renyi(70, 0.08, seed);
            let mut s = PeriodicDegreeBound::new(&g);
            let analysis = analyze_schedule(&g, &mut s, 512);
            assert!(analysis.all_happy_sets_independent);
            for node in &analysis.per_node {
                let d = node.degree as u64;
                let period = s.period(node.node).unwrap();
                if d > 0 {
                    assert!(
                        period <= 2 * d,
                        "node {}: period {period} > 2d = {}",
                        node.node,
                        2 * d
                    );
                    assert!(period > d, "period must exceed the degree");
                }
                if period <= 512 / 2 {
                    assert_eq!(node.observed_period, Some(period), "node {}", node.node);
                }
            }
        }
    }

    /// The first edge whose endpoints ever host together (Lemma 5.2 holds
    /// iff there is none).
    fn conflict(s: &impl Scheduler, g: &Graph) -> Option<(NodeId, NodeId)> {
        s.residue_schedule().expect("periodic").conflict(g)
    }

    #[test]
    fn lemma_5_1_no_adjacent_conflicts() {
        let g = erdos_renyi(60, 0.12, 11);
        let s = PeriodicDegreeBound::new(&g);
        assert_eq!(conflict(&s, &g), None);
        // The same check, edge by edge against the exponents' definition.
        let view = s.residue_schedule().unwrap();
        for e in g.edges() {
            let m = 1u64 << slot_exponent(g.degree(e.u)).min(slot_exponent(g.degree(e.v)));
            assert_ne!(view.slot(e.u) % m, view.slot(e.v) % m, "edge ({}, {})", e.u, e.v);
        }
    }

    #[test]
    fn clique_gets_power_of_two_round_robin() {
        let g = complete(6); // degree 5 → exponent 3 → period 8
        let mut s = PeriodicDegreeBound::new(&g);
        for p in g.nodes() {
            assert_eq!(s.period(p), Some(8));
        }
        let analysis = analyze_schedule(&g, &mut s, 64);
        assert!(analysis.all_happy_sets_independent);
        for node in &analysis.per_node {
            assert_eq!(node.observed_period, Some(8));
        }
    }

    #[test]
    fn star_center_period_scales_with_degree_leaves_stay_at_two() {
        let g = star(9);
        let s = PeriodicDegreeBound::new(&g);
        assert_eq!(s.period(0), Some(16)); // degree 8
        for leaf in 1..9 {
            assert_eq!(s.period(leaf), Some(2));
        }
    }

    #[test]
    fn wrong_order_can_create_hosting_conflicts() {
        // The §6 remark ablation: higher-degree nodes must pick their slots
        // before lower-degree ones.  Crafted gadget where id-order assignment
        // produces a conflict:
        //   node 0 — node 1, node 1 — node 3, node 2 — node 3, node 3 — node 4.
        // Id order gives node 1 the value 1 (mod 4), node 2 the value 0
        // (mod 2), and node 3 then greedily takes 2 (mod 4), which collides
        // with node 2 at every holiday t ≡ 2 (mod 4).
        let g = Graph::from_edges(5, [(0, 1), (1, 3), (2, 3), (3, 4)]).unwrap();
        let natural = PeriodicDegreeBound::with_order(&g, AssignmentOrder::Natural)
            .expect("assignment itself succeeds");
        assert_eq!(
            conflict(&natural, &g),
            Some((2, 3)),
            "the crafted gadget must expose a conflict under id order"
        );
        let correct = PeriodicDegreeBound::with_order(&g, AssignmentOrder::DecreasingDegree)
            .expect("Lemma 5.1");
        assert_eq!(conflict(&correct, &g), None);
    }

    #[test]
    fn wrong_orders_conflict_on_random_graphs_sometimes_but_decreasing_never_does() {
        let mut wrong_order_conflicts = 0usize;
        for seed in 0..150u64 {
            let g = erdos_renyi(20, 0.25, seed);
            let correct = PeriodicDegreeBound::with_order(&g, AssignmentOrder::DecreasingDegree)
                .expect("Lemma 5.1: a slot always exists under decreasing degree");
            assert_eq!(conflict(&correct, &g), None, "Lemma 5.2 violated at seed {seed}");
            for order in [AssignmentOrder::IncreasingDegree, AssignmentOrder::Natural] {
                if let Some(wrong) = PeriodicDegreeBound::with_order(&g, order) {
                    if conflict(&wrong, &g).is_some() {
                        wrong_order_conflicts += 1;
                    }
                }
            }
        }
        assert!(
            wrong_order_conflicts > 0,
            "expected the increasing-degree ablation to conflict on at least one of 150 graphs"
        );
    }

    #[test]
    fn distributed_variant_matches_the_same_bounds() {
        let g = erdos_renyi(50, 0.1, 4);
        let mut s = DistributedDegreeBound::new(&g, 9);
        assert!(s.init_rounds() >= 1);
        assert_eq!(conflict(&s, &g), None);
        let analysis = analyze_schedule(&g, &mut s, 256);
        assert!(analysis.all_happy_sets_independent);
        for node in &analysis.per_node {
            let d = node.degree as u64;
            if d > 0 {
                assert!(s.period(node.node).unwrap() <= 2 * d);
            }
        }
    }

    #[test]
    fn isolated_nodes_host_every_holiday() {
        let g = Graph::new(3);
        let mut s = PeriodicDegreeBound::new(&g);
        assert_eq!(happy_vec(&mut s, 0), vec![0, 1, 2]);
        assert_eq!(happy_vec(&mut s, 17), vec![0, 1, 2]);
        assert_eq!(s.period(1), Some(1));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        let mut s = PeriodicDegreeBound::new(&g);
        assert!(happy_vec(&mut s, 5).is_empty());
        let mut d = DistributedDegreeBound::new(&g, 0);
        assert!(happy_vec(&mut d, 5).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn sequential_and_distributed_agree_on_the_guarantee(seed in 0u64..60) {
            let g = barabasi_albert(60, 2, seed);
            let mut seq = PeriodicDegreeBound::new(&g);
            let mut dist = DistributedDegreeBound::new(&g, seed ^ 0xBEEF);
            let a_seq = analyze_schedule(&g, &mut seq, 300);
            let a_dist = analyze_schedule(&g, &mut dist, 300);
            prop_assert!(a_seq.all_happy_sets_independent);
            prop_assert!(a_dist.all_happy_sets_independent);
            for p in g.nodes() {
                // The periods agree exactly: both are 2^{ceil log2(d+1)}.
                prop_assert_eq!(seq.period(p), dist.period(p));
            }
        }
    }
}
