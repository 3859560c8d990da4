//! The periodic lightweight colour-bound scheduler (§4.2, Theorem 4.2).
//!
//! Colour the conflict graph once; encode every colour with a prefix-free
//! code (Elias omega by default).  Node `p` with colour `c` is happy at
//! holiday `i` exactly when the reversed codeword of `c` is a suffix of the
//! binary representation of `i` — equivalently, when
//! `i ≡ offset(c) (mod 2^{ρ(c)})`.  The schedule is perfectly periodic
//! (period `2^{ρ(c)}`), lightweight (a node needs only its colour), needs no
//! per-holiday communication, and Theorem 4.2 bounds the period by
//! `2^{1 + log* c} · φ(c)`, nearly matching the Theorem 4.1 lower bound.

use fhg_codes::{CodeSchedule, EliasCode, PrefixFreeCode, UnaryCode};
use fhg_coloring::{greedy_coloring, Coloring, GreedyOrder};
use fhg_graph::{Graph, HappySet, NodeId};

use crate::scheduler::Scheduler;
use crate::schedulers::residue::ResidueSchedule;

/// The §4.2 prefix-code scheduler, generic over the prefix-free code.
#[derive(Debug, Clone)]
pub struct PrefixCodeScheduler {
    coloring: Coloring,
    code_name: &'static str,
    /// Each node's colour progression as a thread-safe pure function of the
    /// holiday number (word-packed rows inside when within budget).
    schedule: ResidueSchedule,
}

impl PrefixCodeScheduler {
    /// The paper's configuration: greedy `(deg+1)`-bounded colouring encoded
    /// with the Elias **omega** code.
    pub fn omega(graph: &Graph) -> Self {
        Self::with_code(graph, &greedy_coloring(graph, GreedyOrder::Natural), EliasCode::omega())
    }

    /// Ablation: Elias **gamma** code (longer codewords, longer periods).
    pub fn gamma(graph: &Graph) -> Self {
        Self::with_code(graph, &greedy_coloring(graph, GreedyOrder::Natural), EliasCode::gamma())
    }

    /// Ablation: Elias **delta** code.
    pub fn delta(graph: &Graph) -> Self {
        Self::with_code(graph, &greedy_coloring(graph, GreedyOrder::Natural), EliasCode::delta())
    }

    /// Ablation: the unary code — the §4 "Prefix Free Color Code" example in
    /// its crudest form, giving colour `c` a period of `2^c`.
    pub fn unary(graph: &Graph) -> Self {
        Self::with_code(graph, &greedy_coloring(graph, GreedyOrder::Natural), UnaryCode)
    }

    /// Builds the scheduler from an explicit colouring and prefix-free code.
    ///
    /// # Panics
    /// Panics if the colouring is not proper for `graph` (the independence of
    /// every happy set depends on it), or if some codeword is 64 bits or
    /// longer (period would overflow a `u64`).
    pub fn with_code<C: PrefixFreeCode>(graph: &Graph, coloring: &Coloring, code: C) -> Self {
        assert!(coloring.is_proper(graph), "colouring must be proper");
        let code = CodeSchedule::new(code);
        let rows = coloring.as_slice().iter().map(|&c| code.slot(u64::from(c)));
        PrefixCodeScheduler {
            coloring: coloring.clone(),
            code_name: code.code().name(),
            schedule: ResidueSchedule::from_rows(rows),
        }
    }

    /// The colour of node `p`.
    pub fn color(&self, p: NodeId) -> u32 {
        self.coloring.color(p)
    }

    /// The underlying colouring.
    pub fn coloring(&self) -> &Coloring {
        &self.coloring
    }
}

impl Scheduler for PrefixCodeScheduler {
    fn node_count(&self) -> usize {
        self.schedule.node_count()
    }

    fn fill_happy_set(&mut self, t: u64, out: &mut HappySet) {
        self.schedule.fill(t, out);
    }

    fn name(&self) -> &'static str {
        match self.code_name {
            "elias-omega" => "prefix-code-omega",
            "elias-gamma" => "prefix-code-gamma",
            "elias-delta" => "prefix-code-delta",
            "unary" => "prefix-code-unary",
            _ => "prefix-code",
        }
    }

    fn is_periodic(&self) -> bool {
        true
    }

    fn period(&self, p: NodeId) -> Option<u64> {
        Some(self.schedule.modulus(p))
    }

    fn unhappiness_bound(&self, p: NodeId) -> Option<u64> {
        Some(self.schedule.modulus(p))
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
    use fhg_codes::{log_star, phi, rho_omega};
    use fhg_coloring::two_coloring;
    use fhg_graph::generators::structured::{complete, cycle, star};
    use fhg_graph::generators::{bipartite_villages, erdos_renyi};
    use proptest::prelude::*;

    #[test]
    fn happy_sets_are_single_color_classes_and_independent() {
        let g = erdos_renyi(50, 0.1, 3);
        let mut s = PrefixCodeScheduler::omega(&g);
        // One checker and one member buffer reused across the sweep
        // (`is_independent_set` would rebuild its scratch per holiday).
        let checker = crate::analysis::GraphChecker::new(&g);
        let mut members = fhg_graph::FixedBitSet::new(g.node_count());
        for t in 0..512u64 {
            let happy = happy_vec(&mut s, t);
            members.clear();
            happy.iter().for_each(|&p| {
                members.insert(p);
            });
            assert!(crate::analysis::HolidayChecker::check(&checker, t, &members));
            // All happy nodes share one colour (condition (1) of the scheme).
            let colors: std::collections::HashSet<u32> =
                happy.iter().map(|&p| s.color(p)).collect();
            assert!(colors.len() <= 1, "holiday {t} woke colours {colors:?}");
        }
    }

    #[test]
    fn period_is_exactly_two_to_rho_of_color() {
        let g = erdos_renyi(60, 0.08, 5);
        let mut s = PrefixCodeScheduler::omega(&g);
        let analysis = analyze_schedule(&g, &mut s, 4096);
        for node in &analysis.per_node {
            let c = u64::from(s.color(node.node));
            let expected = 1u64 << rho_omega(c);
            assert_eq!(s.period(node.node), Some(expected));
            // Low colours recur often enough within the horizon to observe
            // the exact period empirically.
            if expected <= 1024 {
                assert_eq!(
                    node.observed_period,
                    Some(expected),
                    "node {} colour {c} expected period {expected}",
                    node.node
                );
            }
        }
    }

    #[test]
    fn theorem_4_2_bound_on_the_period() {
        let g = erdos_renyi(80, 0.1, 7);
        let s = PrefixCodeScheduler::omega(&g);
        for p in g.nodes() {
            let c = u64::from(s.color(p)) as f64;
            let bound = 2f64.powi(1 + log_star(c) as i32) * phi(c);
            assert!(
                s.period(p).unwrap() as f64 <= bound * (1.0 + 1e-9),
                "node {p}: period {} exceeds Theorem 4.2 bound {bound}",
                s.period(p).unwrap()
            );
        }
    }

    #[test]
    fn two_village_coloring_gives_period_at_most_four() {
        // With colours {1, 2}: ω(1) = "0" (period 2), ω(2) = "100" (period 8)…
        // so even the optimal colouring pays the code overhead — exactly the
        // trade-off the paper discusses.  Colour 1 keeps period 2.
        let g = bipartite_villages(10, 12, 0.5, 1);
        let coloring = two_coloring(&g).unwrap();
        let mut s = PrefixCodeScheduler::with_code(&g, &coloring, EliasCode::omega());
        let analysis = analyze_schedule(&g, &mut s, 64);
        assert!(analysis.all_happy_sets_independent);
        for p in g.nodes() {
            match s.color(p) {
                1 => assert_eq!(s.period(p), Some(2)),
                2 => assert_eq!(s.period(p), Some(8)),
                other => panic!("unexpected colour {other}"),
            }
        }
    }

    #[test]
    fn code_ablation_orders_periods_as_expected() {
        // For the same colouring, unary periods >= gamma periods >= omega
        // periods once colours are large enough; on a clique colours go up
        // to n so the gap is visible.
        let g = complete(12);
        let omega = PrefixCodeScheduler::omega(&g);
        let gamma = PrefixCodeScheduler::gamma(&g);
        let unary = PrefixCodeScheduler::unary(&g);
        let mut saw_strict = false;
        for p in g.nodes() {
            let (po, pg, pu) =
                (omega.period(p).unwrap(), gamma.period(p).unwrap(), unary.period(p).unwrap());
            assert!(pu >= pg || unary.color(p) <= 4, "unary should be worst for colour >= 5");
            if pu > pg && pg >= po {
                saw_strict = true;
            }
        }
        assert!(saw_strict, "expected at least one node where unary > gamma >= omega");
    }

    #[test]
    fn star_and_cycle_low_colors_get_tiny_periods() {
        let mut s = PrefixCodeScheduler::omega(&star(20));
        // Leaves have colour 2 under natural greedy; the centre colour 1.
        assert_eq!(s.period(0), Some(2));
        let g = cycle(8);
        let mut s2 = PrefixCodeScheduler::omega(&g);
        let analysis = analyze_schedule(&g, &mut s2, 64);
        assert!(analysis.all_happy_sets_independent);
        assert!(happy_vec(&mut s, 0).contains(&0));
    }

    #[test]
    #[should_panic(expected = "proper")]
    fn rejects_improper_colorings() {
        let g = cycle(4);
        let coloring = Coloring::from_vec_unchecked(vec![1, 1, 1, 1]);
        PrefixCodeScheduler::with_code(&g, &coloring, EliasCode::omega());
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        let mut s = PrefixCodeScheduler::omega(&g);
        assert!(happy_vec(&mut s, 0).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn all_codes_give_conflict_free_periodic_schedules(seed in 0u64..40, p in 0.02f64..0.25) {
            let g = erdos_renyi(35, p, seed);
            let coloring = greedy_coloring(&g, GreedyOrder::SmallestLast);
            for (mut sched, label) in [
                (PrefixCodeScheduler::with_code(&g, &coloring, EliasCode::omega()), "omega"),
                (PrefixCodeScheduler::with_code(&g, &coloring, EliasCode::gamma()), "gamma"),
                (PrefixCodeScheduler::with_code(&g, &coloring, EliasCode::delta()), "delta"),
            ] {
                let analysis = analyze_schedule(&g, &mut sched, 256);
                prop_assert!(analysis.all_happy_sets_independent, "{label}");
            }
        }
    }
}
