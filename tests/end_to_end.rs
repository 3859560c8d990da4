//! Cross-crate integration tests: generate → colour → schedule → analyse →
//! verify the paper's bounds, exercising every crate through the public API
//! of the umbrella `fhg` crate.

use fhg::coloring::{dsatur, greedy_coloring, two_coloring, GreedyOrder};
use fhg::core::analysis::analyze_schedule;
use fhg::core::prelude::*;
use fhg::core::schedulers::standard_suite;
use fhg::distributed::{johansson_coloring, luby_mis};
use fhg::graph::generators::{self, Family};
use fhg::graph::properties;
use fhg::matching::{exact_mis, greedy_mis, max_satisfaction_linear, max_satisfaction_matching};
use fhg::radio::{evaluate_tdma, RadioNetwork};

/// The full §3 pipeline: distributed colouring init + phased greedy, bound
/// `mul(p) <= d_p` streaks on every graph family.
#[test]
fn theorem_3_1_across_graph_families() {
    for family in Family::ALL {
        let graph = family.generate(120, 6.0, 3);
        let mut scheduler = PhasedGreedy::with_distributed_init(&graph, 17);
        let horizon = 4 * (graph.max_degree() as u64 + 1).max(16);
        let analysis = analyze_schedule(&graph, &mut scheduler, horizon);
        assert!(analysis.all_happy_sets_independent, "{}", family.name());
        for node in &analysis.per_node {
            assert!(
                node.max_unhappiness <= node.degree as u64,
                "{}: node {} degree {} streak {}",
                family.name(),
                node.node,
                node.degree,
                node.max_unhappiness
            );
        }
    }
}

/// The full §4 pipeline on every family: any proper colouring + Elias omega
/// code gives a perfectly periodic conflict-free schedule with period
/// 2^rho(colour).
#[test]
fn theorem_4_2_across_graph_families_and_colorings() {
    for family in Family::ALL {
        let graph = family.generate(100, 5.0, 9);
        let colorings = vec![
            greedy_coloring(&graph, GreedyOrder::Natural),
            greedy_coloring(&graph, GreedyOrder::SmallestLast),
            dsatur(&graph),
        ];
        for coloring in colorings {
            let mut scheduler =
                PrefixCodeScheduler::with_code(&graph, &coloring, fhg::codes::EliasCode::omega());
            let analysis = analyze_schedule(&graph, &mut scheduler, 512);
            assert!(analysis.all_happy_sets_independent, "{}", family.name());
            for p in graph.nodes() {
                let c = u64::from(coloring.color(p));
                assert_eq!(
                    scheduler.period(p),
                    Some(1u64 << fhg::codes::rho_omega(c)),
                    "{}: node {p}",
                    family.name()
                );
            }
        }
    }
}

/// The full §5 pipeline on every family, both sequential and distributed.
#[test]
fn theorem_5_3_across_graph_families() {
    for family in Family::ALL {
        let graph = family.generate(120, 6.0, 5);
        let mut sequential = PeriodicDegreeBound::new(&graph);
        let mut distributed = DistributedDegreeBound::new(&graph, 23);
        for (label, scheduler) in [
            ("sequential", &mut sequential as &mut dyn Scheduler),
            ("distributed", &mut distributed as &mut dyn Scheduler),
        ] {
            let analysis = analyze_schedule(&graph, scheduler, 512);
            assert!(analysis.all_happy_sets_independent, "{} {}", family.name(), label);
            for p in graph.nodes() {
                let d = graph.degree(p) as u64;
                if d > 0 {
                    let period = scheduler.period(p).unwrap();
                    assert!(period > d, "{} {}: node {p}", family.name(), label);
                    assert!(period <= 2 * d, "{} {}: node {p}", family.name(), label);
                }
            }
        }
    }
}

/// The two-village story from the introduction, end to end: bipartite
/// conflict graph, 2-colouring, round-robin gives everyone a gathering every
/// second year.
#[test]
fn two_villages_story() {
    let graph = generators::bipartite_villages(40, 45, 0.15, 21);
    assert!(properties::is_bipartite(&graph));
    let coloring = two_coloring(&graph).expect("bipartite");
    let mut scheduler = RoundRobinColoring::with_coloring(coloring);
    let analysis = analyze_schedule(&graph, &mut scheduler, 64);
    for node in &analysis.per_node {
        assert_eq!(node.observed_period, Some(2));
        assert!(node.max_unhappiness <= 1);
    }
}

/// Every scheduler in the standard suite produces valid schedules and honours
/// its own advertised bound on a moderately dense random graph.
#[test]
fn standard_suite_honours_advertised_bounds() {
    let graph = generators::erdos_renyi(80, 0.07, 13);
    for mut scheduler in standard_suite(&graph, 3) {
        let horizon = 6 * (graph.max_degree() as u64 + 2) * (graph.node_count() as u64).max(64);
        let horizon = horizon.min(4096);
        let analysis = analyze_schedule(&graph, scheduler.as_mut(), horizon);
        assert!(analysis.all_happy_sets_independent, "{}", scheduler.name());
        let violations = analysis.bound_violations(scheduler.as_ref());
        assert!(
            violations.is_empty(),
            "{} violated its advertised bound at nodes {violations:?}",
            scheduler.name()
        );
    }
}

/// Distributed substrate sanity: Johansson colouring + Luby MIS validated by
/// the sequential checkers on the same graphs.
#[test]
fn distributed_substrate_cross_checks() {
    let graph = generators::erdos_renyi(150, 0.04, 31);
    let (coloring, stats) = johansson_coloring(&graph, 7);
    assert!(stats.completed);
    assert!(coloring.is_proper(&graph));
    assert!(coloring.is_degree_plus_one_bounded(&graph));

    let mis = luby_mis(&graph, 11, 2000);
    assert!(mis.stats.completed);
    assert!(mis.is_maximal_independent(&graph));
    // The distributed MIS is never larger than the exact optimum computed by
    // the Appendix A solver (on a subgraph small enough for exactness).
    let small = generators::erdos_renyi(40, 0.1, 31);
    let exact = exact_mis(&small);
    let luby = luby_mis(&small, 3, 2000);
    assert!(luby.members().len() <= exact.len());
    assert!(greedy_mis(&small).len() <= exact.len());
}

/// Appendix A satisfaction pipeline: the specialised linear algorithm matches
/// Hopcroft–Karp, and the alternating schedule satisfies everyone with
/// children every other holiday.
#[test]
fn appendix_satisfaction_pipeline() {
    let graph = generators::barabasi_albert(200, 2, 5);
    let linear = max_satisfaction_linear(&graph);
    let matching = max_satisfaction_matching(&graph);
    let count = |a: &[Option<usize>]| a.iter().filter(|x| x.is_some()).count();
    assert_eq!(count(&linear), count(&matching));

    let alternating = fhg::matching::AlternatingSatisfaction::new(&graph);
    for p in graph.nodes() {
        if graph.degree(p) > 0 {
            assert!(alternating.is_satisfied(p, 0) || alternating.is_satisfied(p, 1));
        }
    }
}

/// Radio application end to end: an interference-free TDMA schedule whose
/// latency tracks local interference, regenerating the qualitative claim of
/// the introduction.
#[test]
fn radio_tdma_end_to_end() {
    let network = RadioNetwork::random(150, 0.04, 77);
    let graph = network.interference_graph().clone();
    let mut scheduler = PeriodicDegreeBound::new(&graph);
    let report = evaluate_tdma(&network, &mut scheduler, 512);
    assert!(!report.interference_detected);
    for radio in &report.per_radio {
        if radio.interferers > 0 {
            assert!(radio.worst_latency < 2 * radio.interferers as u64);
        } else {
            assert_eq!(radio.worst_latency, 0);
        }
    }
}

/// The dynamic setting survives an adversarial mix of insertions and
/// deletions while keeping every gathering independent (paper §6).
#[test]
fn dynamic_setting_end_to_end() {
    use fhg::core::dynamic::DynamicColorBound;
    let initial = generators::erdos_renyi(60, 0.05, 41);
    let mut scheduler = DynamicColorBound::new(&initial);
    let events = fhg::graph::dynamic::random_churn(&initial, 120, 0.65, 0, 9);
    let mut holiday = 0;
    let mut buf = HappySet::new(0);
    for event in events {
        for _ in 0..2 {
            scheduler.fill_happy_set(holiday, &mut buf);
            assert!(properties::is_independent_set(scheduler.graph(), &buf.to_vec()));
            holiday += 1;
        }
        scheduler.apply_event(event).unwrap();
        assert!(scheduler.coloring_is_proper());
    }
    for p in scheduler.graph().nodes() {
        assert!(scheduler.current_period(p) <= scheduler.recovery_bound(p).max(2));
    }
}
