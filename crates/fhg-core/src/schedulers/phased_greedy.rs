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
//!
//! A holiday costs one pass over the colours plus the degrees of its happy
//! nodes.  The pass writes the happy set a word at a time
//! ([`HappySet::assign_where`]).  A recolouring marks each neighbour's
//! colour offset in a bitmask of `⌈(Δ + 1)/64⌉` reused words and takes the
//! first clear bit, so no holiday allocates and no degree takes another
//! path.

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
    /// Reusable recolouring scratch: one bit per candidate colour offset,
    /// `⌈(max degree + 1)/64⌉` words, all clear between recolourings.
    used_offsets: Vec<u64>,
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
            used_offsets: vec![0; (graph.max_degree() + 1).div_ceil(64)],
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
    /// `holiday` not used by any neighbour of `p`.  Neighbour colour `c`
    /// sets bit `c − holiday − 1` (wrapping, so colours at or below
    /// `holiday` fall outside) of the `used_offsets` words when that offset
    /// is below the window of `deg(p) + 1` candidates; the answer is the
    /// first clear bit.  Only the window's words are touched, and they are
    /// cleared before returning.
    fn recolor(&mut self, p: NodeId, holiday: u64) -> u64 {
        let neighbors = self.graph.neighbors(p);
        let window = neighbors.len() as u64 + 1;
        let used = &mut self.used_offsets[..window.div_ceil(64) as usize];
        let last = used.len() - 1;
        for &v in neighbors {
            let offset = self.colors[v].wrapping_sub(holiday + 1);
            let inside = offset < window;
            used[(offset / 64).min(last as u64) as usize] |= u64::from(inside) << (offset % 64);
        }
        // `deg(p)` neighbours cannot fill `deg(p) + 1` offsets, and no bit
        // past the window is set, so the first clear bit is inside it.
        let word = used.iter().position(|&w| w != u64::MAX).expect("a clear offset exists");
        let free = word as u64 * 64 + u64::from((!used[word]).trailing_zeros());
        used.fill(0);
        holiday + free + 1
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
        let colors = &self.colors;
        out.assign_where(colors.len(), |p| colors[p] == t);
        // Recolour in increasing node order, matching the sequential rule:
        // later happy nodes see the colours earlier ones just picked.
        out.for_each(|p| {
            let c = self.recolor(p, t);
            self.colors[p] = c;
        });
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

    /// The recolouring rule as first written, one flag per candidate
    /// offset: the specification the bitmask must reproduce.
    fn recolor_by_flags(graph: &Graph, colors: &[u64], p: NodeId, holiday: u64) -> u64 {
        let neighbors = graph.neighbors(p);
        let window = neighbors.len() + 1;
        let mut used = vec![false; window];
        for &v in neighbors {
            let c = colors[v];
            if c > holiday && (c - holiday) as usize <= window {
                used[(c - holiday - 1) as usize] = true;
            }
        }
        holiday + used.iter().position(|&b| !b).unwrap_or(window - 1) as u64 + 1
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn bitmask_recolor_matches_the_flag_rule(
            n in 64usize..141,
            seed in 0u64..1000,
            holiday in 0u64..3,
            offsets in proptest::collection::vec(0u64..72, 140..141),
            hole_pick in 0usize..1000,
        ) {
            // Degrees around 64, so windows of one and two words both
            // occur (`n = 64` is the 63-regular clique).
            let g = erdos_renyi(n, (64.0 / (n as f64 - 1.0)).min(1.0), seed);
            let mut s = PhasedGreedy::new(&g);
            // Scattered colours: some at or below the holiday, some past
            // the window.
            s.colors = offsets[..n].iter().map(|&o| (holiday + o).saturating_sub(1)).collect();
            for p in g.nodes() {
                let want = recolor_by_flags(&g, &s.colors, p, holiday);
                prop_assert_eq!(s.recolor(p, holiday), want, "scattered, node {}", p);
            }
            // Packed colours: the neighbours fill every offset but the
            // hole, so the answer is the hole, up to the window's last
            // offset (`hole == deg`), on either side of a word edge.
            for p in g.nodes() {
                let deg = g.degree(p);
                let hole = hole_pick % (deg + 1);
                for (i, &v) in g.neighbors(p).iter().enumerate() {
                    let off = if i < hole { i } else { i + 1 };
                    s.colors[v] = holiday + 1 + off as u64;
                }
                let want = recolor_by_flags(&g, &s.colors, p, holiday);
                prop_assert_eq!(want, holiday + 1 + hole as u64);
                prop_assert_eq!(s.recolor(p, holiday), want, "packed, node {}", p);
            }
            prop_assert!(s.used_offsets.iter().all(|&w| w == 0), "scratch left dirty");
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
