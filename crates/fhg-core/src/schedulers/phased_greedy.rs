//! The Phased Greedy Coloring scheduler (§3, Theorem 3.1).
//!
//! The non-periodic degree-bound algorithm.  Nodes start from any colouring
//! in which each node's colour is at most `deg + 1` (sequential greedy here;
//! the paper uses the BEPS distributed algorithm, and
//! [`PhasedGreedy::with_distributed_init`] reproduces that path through the
//! Johansson substitute).  At holiday `i` the nodes whose current colour is
//! `i` are happy; each such node immediately recolours itself with the
//! smallest colour `s > i` not held by any neighbour.  Because a node has
//! `d` neighbours, `s ≤ i + d + 1`, so a node is happy at least once in every
//! window of `d + 1` consecutive holidays — but the schedule is not periodic
//! and each holiday costs a round of communication (or full local knowledge
//! of the neighbourhood).

use fhg_coloring::{greedy_coloring, Coloring, GreedyOrder};
use fhg_distributed::johansson_coloring;
use fhg_graph::{Graph, HappySet, NodeId};

use crate::scheduler::Scheduler;

/// The §3 phased greedy colouring scheduler.
#[derive(Debug, Clone)]
pub struct PhasedGreedy {
    graph: Graph,
    /// Current colour of every node; strictly greater than the last executed
    /// holiday for every node (the §3 invariant).
    colors: Vec<u64>,
    /// The next holiday this scheduler expects to execute.
    next_holiday: u64,
    /// Rounds charged to the distributed initialisation (0 when sequential).
    init_rounds: u64,
    /// Reusable recolouring scratch (one flag per candidate colour offset,
    /// max degree + 1 entries), so no holiday allocates.
    used_offsets: Vec<bool>,
}

impl PhasedGreedy {
    /// Builds the scheduler from a sequential greedy colouring (colours are
    /// at most `deg + 1`, as required).
    pub fn new(graph: &Graph) -> Self {
        Self::with_coloring(graph, &greedy_coloring(graph, GreedyOrder::Natural))
    }

    /// Builds the scheduler from an explicit `deg + 1`-bounded colouring.
    ///
    /// # Panics
    /// Panics if the colouring is not proper or some colour exceeds
    /// `deg + 1` (the Theorem 3.1 guarantee would not hold).
    pub fn with_coloring(graph: &Graph, coloring: &Coloring) -> Self {
        assert!(coloring.is_proper(graph), "initial colouring must be proper");
        assert!(
            coloring.is_degree_plus_one_bounded(graph),
            "initial colouring must satisfy colour <= degree + 1"
        );
        PhasedGreedy {
            used_offsets: vec![false; graph.max_degree() + 1],
            graph: graph.clone(),
            colors: coloring.as_slice().iter().map(|&c| u64::from(c)).collect(),
            next_holiday: 1,
            init_rounds: 0,
        }
    }

    /// Builds the scheduler by running the distributed `(deg+1)`-colouring on
    /// the LOCAL-model simulator, charging its round count to
    /// [`Scheduler::init_rounds`] — the full §3 pipeline.
    pub fn with_distributed_init(graph: &Graph, seed: u64) -> Self {
        let (coloring, stats) = johansson_coloring(graph, seed);
        let mut s = Self::with_coloring(graph, &coloring);
        s.init_rounds = stats.rounds;
        s
    }

    /// The current colour of node `p` (changes over time).
    pub fn current_color(&self, p: NodeId) -> u64 {
        self.colors[p]
    }

    /// Greedy recolouring rule of §3: the smallest colour greater than
    /// `holiday` not used by any neighbour of `p`.  Uses the reusable
    /// `used_offsets` scratch; only the first `deg(p) + 1` entries are
    /// touched (and re-cleared before returning).
    fn recolor(&mut self, p: NodeId, holiday: u64) -> u64 {
        let neighbors = self.graph.neighbors(p);
        let window = neighbors.len() + 1;
        let used = &mut self.used_offsets[..window];
        for &v in neighbors {
            let c = self.colors[v];
            if c > holiday && (c - holiday) as usize <= window {
                used[(c - holiday - 1) as usize] = true;
            }
        }
        let offset = used.iter().position(|&b| !b).unwrap_or(window - 1);
        used.fill(false);
        holiday + offset as u64 + 1
    }
}

impl Scheduler for PhasedGreedy {
    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn fill_happy_set(&mut self, t: u64, out: &mut HappySet) {
        assert_eq!(
            t, self.next_holiday,
            "PhasedGreedy is stateful: holidays must be executed consecutively \
             (expected {}, got {t})",
            self.next_holiday
        );
        out.reset(self.graph.node_count());
        for p in self.graph.nodes() {
            if self.colors[p] == t {
                out.insert(p);
            }
        }
        // Recolour in increasing node order, matching the sequential rule:
        // later happy nodes see the colours earlier ones just picked.
        for p in out.iter() {
            let c = self.recolor(p, t);
            self.colors[p] = c;
        }
        self.next_holiday += 1;
    }

    fn name(&self) -> &'static str {
        "phased-greedy"
    }

    fn is_periodic(&self) -> bool {
        false
    }

    fn period(&self, _p: NodeId) -> Option<u64> {
        None
    }

    fn unhappiness_bound(&self, p: NodeId) -> Option<u64> {
        Some(self.graph.degree(p) as u64 + 1)
    }

    fn init_rounds(&self) -> u64 {
        self.init_rounds
    }

    fn rounds_per_holiday(&self) -> u64 {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_schedule;
    use crate::scheduler::happy_vec;
    use fhg_graph::generators::structured::{complete, cycle, star};
    use fhg_graph::generators::{barabasi_albert, erdos_renyi};
    use proptest::prelude::*;

    #[test]
    fn theorem_3_1_holds_on_random_graphs() {
        for seed in 0..5u64 {
            let g = erdos_renyi(60, 0.08, seed);
            let mut s = PhasedGreedy::new(&g);
            let analysis = analyze_schedule(&g, &mut s, 400);
            assert!(analysis.all_happy_sets_independent);
            for node in &analysis.per_node {
                // A window of d + 1 consecutive holidays always contains a
                // happy one, i.e. the longest unhappy streak is at most d.
                assert!(
                    node.max_unhappiness <= node.degree as u64,
                    "node {} (degree {}) had an unhappy streak of {}",
                    node.node,
                    node.degree,
                    node.max_unhappiness
                );
            }
        }
    }

    #[test]
    fn happy_sets_are_color_classes_and_recoloring_stays_proper() {
        let g = erdos_renyi(40, 0.12, 9);
        let mut s = PhasedGreedy::new(&g);
        // One checker and one member buffer reused across the sweep
        // (`is_independent_set` would rebuild its scratch per holiday).
        let checker = crate::analysis::GraphChecker::new(&g);
        let mut members = fhg_graph::FixedBitSet::new(g.node_count());
        for t in 1..200u64 {
            let happy = happy_vec(&mut s, t);
            members.clear();
            happy.iter().for_each(|&p| {
                members.insert(p);
            });
            assert!(crate::analysis::HolidayChecker::check(&checker, t, &members), "holiday {t}");
            // Invariant: every colour now exceeds t.
            for p in g.nodes() {
                assert!(s.current_color(p) > t, "node {p} colour {} <= {t}", s.current_color(p));
            }
            // Colours stay proper.
            for e in g.edges() {
                assert_ne!(s.current_color(e.u), s.current_color(e.v));
            }
        }
    }

    #[test]
    fn clique_round_robins_with_gap_d_plus_one() {
        let g = complete(5);
        let mut s = PhasedGreedy::new(&g);
        let analysis = analyze_schedule(&g, &mut s, 100);
        for node in &analysis.per_node {
            assert_eq!(node.max_unhappiness, 4, "clique node must wait exactly d holidays");
            assert_eq!(node.observed_period, Some(5), "on a clique the schedule is periodic");
        }
    }

    #[test]
    fn star_leaves_are_happy_almost_every_other_holiday() {
        let g = star(8);
        let mut s = PhasedGreedy::new(&g);
        let analysis = analyze_schedule(&g, &mut s, 100);
        for node in &analysis.per_node {
            if node.degree == 1 {
                assert!(node.max_unhappiness <= 1);
            } else {
                assert!(node.max_unhappiness <= node.degree as u64);
            }
        }
    }

    #[test]
    fn distributed_init_charges_rounds_and_satisfies_the_same_bound() {
        let g = erdos_renyi(50, 0.1, 4);
        let mut s = PhasedGreedy::with_distributed_init(&g, 77);
        assert!(s.init_rounds() >= 1);
        assert_eq!(s.rounds_per_holiday(), 1);
        let analysis = analyze_schedule(&g, &mut s, 300);
        for node in &analysis.per_node {
            assert!(node.max_unhappiness <= node.degree as u64);
        }
    }

    #[test]
    #[should_panic(expected = "consecutively")]
    fn skipping_holidays_is_rejected() {
        let g = cycle(4);
        let mut s = PhasedGreedy::new(&g);
        happy_vec(&mut s, 1);
        happy_vec(&mut s, 3);
    }

    #[test]
    #[should_panic(expected = "degree + 1")]
    fn rejects_unbounded_colorings() {
        let g = cycle(4);
        let coloring = Coloring::new(&g, vec![1, 2, 1, 7]).unwrap();
        PhasedGreedy::with_coloring(&g, &coloring);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        let mut s = PhasedGreedy::new(&g);
        assert!(happy_vec(&mut s, 1).is_empty());
    }

    #[test]
    fn isolated_nodes_are_happy_every_holiday() {
        let g = Graph::new(3);
        let mut s = PhasedGreedy::new(&g);
        for t in 1..20 {
            assert_eq!(happy_vec(&mut s, t), vec![0, 1, 2]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn degree_bound_holds_on_heavy_tailed_graphs(seed in 0u64..50) {
            let g = barabasi_albert(80, 2, seed);
            let mut s = PhasedGreedy::new(&g);
            let analysis = analyze_schedule(&g, &mut s, 600);
            prop_assert!(analysis.all_happy_sets_independent);
            for node in &analysis.per_node {
                prop_assert!(node.max_unhappiness <= node.degree as u64);
            }
        }
    }
}
