//! Property-based cross-crate invariants, exercised through the public `fhg`
//! API: whatever graph family, seed, colouring or scheduler is chosen, the
//! defining invariants of the Family Holiday Gathering Problem must hold.

use proptest::prelude::*;

use fhg::codes::{CodeSchedule, EliasCode, PrefixFreeCode, UnaryCode};
use fhg::coloring::{dsatur, greedy_coloring, GreedyOrder};
use fhg::core::analysis::analyze_schedule;
use fhg::core::prelude::*;
use fhg::graph::generators::Family;
use fhg::graph::properties;

fn arb_family() -> impl Strategy<Value = Family> {
    prop::sample::select(Family::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every happy set of every core scheduler is an independent set, on any
    /// family, for any seed.
    #[test]
    fn all_schedulers_emit_independent_sets(family in arb_family(), seed in 0u64..500) {
        let graph = family.generate(40, 4.0, seed);
        let schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(PhasedGreedy::new(&graph)),
            Box::new(PrefixCodeScheduler::omega(&graph)),
            Box::new(PeriodicDegreeBound::new(&graph)),
            Box::new(DistributedDegreeBound::new(&graph, seed)),
            Box::new(FirstComeFirstGrab::new(&graph, seed)),
        ];
        let mut buf = HappySet::new(0);
        for mut s in schedulers {
            let start = s.first_holiday();
            for t in start..start + 48 {
                s.fill_happy_set(t, &mut buf);
                prop_assert!(
                    properties::is_independent_set(&graph, &buf.to_vec()),
                    "{} holiday {t} on {}", s.name(), family.name()
                );
            }
        }
    }

    /// The periodic schedulers really are perfectly periodic: the analysis
    /// observes exactly the period they advertise (when the horizon is long
    /// enough to see two occurrences).
    #[test]
    fn advertised_periods_are_observed(family in arb_family(), seed in 0u64..200) {
        let graph = family.generate(30, 4.0, seed);
        let mut s = PeriodicDegreeBound::new(&graph);
        let horizon = 4 * graph.nodes().map(|p| s.period(p).unwrap()).max().unwrap_or(1);
        let analysis = analyze_schedule(&graph, &mut s, horizon);
        for node in &analysis.per_node {
            prop_assert_eq!(node.observed_period, s.period(node.node), "node {}", node.node);
        }
    }

    /// Colour-bound schedules never wake two different colours in the same
    /// holiday, for any prefix-free code and any colouring algorithm.
    #[test]
    fn one_color_per_holiday(seed in 0u64..300, holiday in 0u64..50_000u64) {
        let graph = Family::ErdosRenyi.generate(35, 4.0, seed);
        for coloring in [greedy_coloring(&graph, GreedyOrder::DegreeDescending), dsatur(&graph)] {
            let schedule = CodeSchedule::new(EliasCode::omega());
            let happy_colors: std::collections::HashSet<u32> = graph
                .nodes()
                .filter(|&p| schedule.is_happy(u64::from(coloring.color(p)), holiday))
                .map(|p| coloring.color(p))
                .collect();
            prop_assert!(happy_colors.len() <= 1, "colours {happy_colors:?} collided");
        }
    }

    /// Kraft-style sanity: for any set of colours, the reciprocal sum of the
    /// periods induced by a prefix-free code never exceeds 1 — the exact
    /// inequality the Theorem 4.1 proof relies on.
    #[test]
    fn induced_periods_satisfy_the_kraft_inequality(colors in proptest::collection::hash_set(1u64..5_000, 1..60)) {
        for code_sum in [
            colors.iter().map(|&c| 1.0 / (1u64 << EliasCode::omega().code_len(c)) as f64).sum::<f64>(),
            colors.iter().map(|&c| 1.0 / (1u64 << EliasCode::delta().code_len(c)) as f64).sum::<f64>(),
            colors.iter().map(|&c| 1.0 / (1u64 << UnaryCode.code_len(c).min(62)) as f64).sum::<f64>(),
        ] {
            prop_assert!(code_sum <= 1.0 + 1e-12);
        }
    }

    /// The §3 and §5 guarantees hold simultaneously on the same graph: for
    /// every node, phased greedy's streak stays below d+1 and the periodic
    /// scheduler's period stays within [d+1, 2d].
    #[test]
    fn degree_bounds_hold_jointly(seed in 0u64..200) {
        let graph = Family::UnitDisk.generate(50, 5.0, seed);
        let mut phased = PhasedGreedy::new(&graph);
        let analysis = analyze_schedule(&graph, &mut phased, 256);
        let periodic = PeriodicDegreeBound::new(&graph);
        for p in graph.nodes() {
            let d = graph.degree(p) as u64;
            prop_assert!(analysis.per_node[p].max_unhappiness <= d);
            if d > 0 {
                let period = periodic.period(p).unwrap();
                prop_assert!(period > d && period <= 2 * d);
            }
        }
    }
}
