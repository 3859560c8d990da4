//! The E1–E20 experiment implementations (see `DESIGN.md` §5 and
//! `EXPERIMENTS.md`).
//!
//! Every experiment uses fixed seeds, so the tables in `EXPERIMENTS.md` are
//! exactly reproducible with
//! `cargo run -p fhg-bench --release --bin experiments -- all`.
//!
//! The analysis-engine experiments (`e11`–`e13`) are parameterised by an
//! [`AnalysisBenchConfig`] (full vs `--smoke` sizing) and additionally
//! report machine-readable [`BenchEntry`] medians, which the experiments
//! binary serialises to `BENCH_analysis.json` (at the repository root) so CI
//! can accumulate a perf trajectory.

use std::hint::black_box;
use std::time::Instant;

use fhg_codes::{gcd, log_star, phi, rho_omega, EliasCode, UnaryCode};
use fhg_coloring::{greedy_coloring, GreedyOrder};
use fhg_core::analysis::{analyze_schedule, analyze_schedule_totals, CycleProfile, GraphChecker};
use fhg_core::dynamic::DynamicColorBound;
use fhg_core::lower_bound::lower_bound_table;
use fhg_core::prelude::*;
use fhg_core::schedulers::degree_bound::AssignmentOrder;
use fhg_core::schedulers::standard_suite;
use fhg_distributed::{distributed_slot_assignment, johansson_coloring, luby_mis};
use fhg_graph::generators::{self, Family};
use fhg_graph::Graph;
use fhg_matching::{exact_mis, greedy_mis, max_satisfaction_linear, max_satisfaction_matching};
use fhg_radio::{evaluate_tdma, RadioNetwork};

use crate::table::Table;

/// The experiment identifiers, in order.
pub const EXPERIMENT_IDS: [&str; 20] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19", "e20",
];

/// Sizing knobs for the analysis-engine experiments (`e11`–`e19`; `e20`
/// has a fixed size).
#[derive(Debug, Clone)]
pub struct AnalysisBenchConfig {
    /// Nodes of the Erdős–Rényi conflict graph.
    pub nodes: usize,
    /// Edge probability (full config targets mean degree ~10).
    pub edge_prob: f64,
    /// Graph seed.
    pub seed: u64,
    /// The short (PR 2 acceptance) horizon.
    pub horizon: u64,
    /// The long horizon the closed form must make essentially free.
    pub long_horizon: u64,
    /// Nodes of the long-cycle residue schedule `e14` times the profile
    /// build on.
    pub build_nodes: usize,
    /// The two interleaved hosting moduli of that schedule; their lcm is
    /// the cycle (`cycle ≈ 10⁵` on the full config), long enough that the
    /// build itself — not the derivation — dominates.
    pub build_moduli: (u64, u64),
    /// Timing repetitions per measurement (the tables report medians).
    pub reps: usize,
    /// Tenant schedules the `e16` serving-tier load generator caches.
    pub serve_tenants: usize,
    /// Windowed queries the `e16` load generator issues per measured path.
    pub serve_queries: usize,
    /// Edge events the `e17` churn stream pushes through the incremental
    /// repair plane.
    pub churn_events: usize,
}

impl AnalysisBenchConfig {
    /// The full configuration the ROADMAP numbers are quoted on:
    /// `erdos_renyi(10_000, 0.001)`, 4096 holidays, 1M-holiday long
    /// horizon, and a 4096-node cycle-80000 schedule for the profile
    /// build.
    pub fn full() -> Self {
        AnalysisBenchConfig {
            nodes: 10_000,
            edge_prob: 0.001,
            seed: 42,
            horizon: 4096,
            long_horizon: 1 << 20,
            build_nodes: 4096,
            build_moduli: (128, 625),
            reps: 5,
            serve_tenants: 1024,
            serve_queries: 200_000,
            churn_events: 512,
        }
    }

    /// CI smoke sizing: same shape, ~10x smaller, so the perf trajectory
    /// accumulates on every push without slowing the pipeline.
    pub fn smoke() -> Self {
        AnalysisBenchConfig {
            nodes: 2_000,
            edge_prob: 0.005,
            seed: 42,
            horizon: 1024,
            long_horizon: 1 << 17,
            build_nodes: 1024,
            build_moduli: (32, 125),
            reps: 3,
            serve_tenants: 1024,
            serve_queries: 20_000,
            churn_events: 128,
        }
    }

    /// The cycle of the `e14` build schedule (the lcm of the two moduli).
    pub fn build_cycle(&self) -> u64 {
        let (a, b) = self.build_moduli;
        a / gcd(a, b) * b
    }
}

/// One machine-readable measurement from `e11`–`e13`, serialised to
/// `BENCH_analysis.json` by the experiments binary.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Experiment id (`"e11"` / `"e12"` / `"e13"`).
    pub experiment: &'static str,
    /// Engine label (matches the table row).
    pub engine: String,
    /// Worker threads the measurement ran with.
    pub threads: usize,
    /// Analysed horizon.
    pub horizon: u64,
    /// Median wall time over the config's repetitions, milliseconds.
    pub median_ms: f64,
    /// Speedup versus the experiment's baseline row (1.0 for the baseline).
    pub speedup: f64,
}

/// Serialises bench entries to the `BENCH_analysis.json` document (schema
/// `fhg-bench-analysis/1`).  Hand-rolled: the workspace has no JSON
/// dependency.
pub fn bench_entries_to_json(smoke: bool, entries: &[BenchEntry]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"fhg-bench-analysis/1\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"experiment\": \"{}\", \"engine\": \"{}\", \"threads\": {}, \
             \"horizon\": {}, \"median_ms\": {:.6}, \"speedup\": {:.3}}}{}\n",
            e.experiment, e.engine, e.threads, e.horizon, e.median_ms, e.speedup, comma
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs one experiment by id (`"e1"` … `"e13"`), returning its tables.
///
/// # Panics
/// Panics if the id is unknown.
pub fn run_experiment(id: &str) -> Vec<Table> {
    run_experiment_collecting(id, &AnalysisBenchConfig::full()).0
}

/// Like [`run_experiment`], but with explicit analysis-bench sizing and the
/// machine-readable entries of `e11`–`e13` (empty for other experiments).
///
/// # Panics
/// Panics if the id is unknown.
pub fn run_experiment_collecting(
    id: &str,
    cfg: &AnalysisBenchConfig,
) -> (Vec<Table>, Vec<BenchEntry>) {
    match id {
        "e1" => (e1_phased_greedy_bound(), Vec::new()),
        "e2" => (e2_elias_omega_periods(), Vec::new()),
        "e3" => (e3_lower_bound(), Vec::new()),
        "e4" => (e4_periodic_degree_bound(), Vec::new()),
        "e5" => (e5_distributed_rounds(), Vec::new()),
        "e6" => (e6_scheduler_comparison(), Vec::new()),
        "e7" => (e7_first_come_first_grab(), Vec::new()),
        "e8" => (e8_dynamic_recovery(), Vec::new()),
        "e9" => (e9_satisfaction(), Vec::new()),
        "e10" => (e10_mis_and_radio(), Vec::new()),
        "e11" => e11_analysis_engine_with(cfg),
        "e12" => e12_closed_form_engine_with(cfg),
        "e13" => e13_fused_kernel_emission_with(cfg),
        "e14" => e14_derive_and_build_with(cfg),
        "e15" => e15_verification_throughput_with(cfg),
        "e16" => e16_windowed_serving_with(cfg),
        "e17" => e17_incremental_repair_with(cfg),
        "e18" => e18_crash_only_serving_with(cfg),
        "e19" => e19_durable_recovery_with(cfg),
        "e20" => e20_edge_pass(10_000, 0.001, 201),
        other => panic!("unknown experiment id {other:?}; valid ids: {EXPERIMENT_IDS:?}"),
    }
}

/// Runs every experiment in order, returning all tables.
pub fn run_all() -> Vec<Table> {
    EXPERIMENT_IDS.iter().flat_map(|id| run_experiment(id)).collect()
}

fn family_instances(n: usize, avg_degree: f64, seed: u64) -> Vec<(Family, Graph)> {
    Family::ALL.iter().map(|&f| (f, f.generate(n, avg_degree, seed))).collect()
}

/// E1 — Theorem 3.1: the phased-greedy schedule never leaves a parent of
/// degree `d` unhappy for more than `d` consecutive holidays, on every graph
/// family, with O(1) communication rounds per holiday.
pub fn e1_phased_greedy_bound() -> Vec<Table> {
    let mut table = Table::new(
        "E1 — Theorem 3.1: phased greedy, worst unhappy streak vs the d+1 bound",
        &[
            "family",
            "n",
            "edges",
            "max degree",
            "worst streak",
            "worst streak - degree (max)",
            "bound violations",
            "init rounds",
            "rounds/holiday",
        ],
    );
    for (family, graph) in family_instances(600, 8.0, 11) {
        let mut scheduler = PhasedGreedy::with_distributed_init(&graph, 101);
        let horizon = 4 * (graph.max_degree() as u64 + 1).max(32);
        let analysis = analyze_schedule(&graph, &mut scheduler, horizon);
        let worst = analysis.max_unhappiness();
        let worst_slack = analysis
            .per_node
            .iter()
            .map(|n| n.max_unhappiness as i64 - n.degree as i64)
            .max()
            .unwrap_or(0);
        let violations = analysis.bound_violations(&scheduler).len();
        table
            .push(&[
                family.name().to_string(),
                graph.node_count().to_string(),
                graph.edge_count().to_string(),
                graph.max_degree().to_string(),
                worst.to_string(),
                worst_slack.to_string(),
                violations.to_string(),
                scheduler.init_rounds().to_string(),
                scheduler.rounds_per_holiday().to_string(),
            ])
            .claim(violations == 0, "Thm 3.1: no bound violations")
            .claim(worst_slack <= 0, "Thm 3.1: worst streak - degree <= 0");
    }
    vec![table]
}

/// E2 — Theorem 4.2: the Elias-omega schedule is perfectly periodic with
/// period `2^ρ(c) ≤ 2^{1+log* c}·φ(c)`, plus the prefix-code ablation.
pub fn e2_elias_omega_periods() -> Vec<Table> {
    let mut analytic = Table::new(
        "E2a — Theorem 4.2: per-colour period 2^rho(c) vs the bound 2^(1+log* c)·phi(c)",
        &["colour c", "rho(c)", "period 2^rho(c)", "bound", "period/bound"],
    );
    for exp in 0..=16u32 {
        let c = 1u64 << exp;
        let period = 2f64.powi(rho_omega(c) as i32);
        let bound = 2f64.powi(1 + log_star(c as f64) as i32) * phi(c as f64);
        analytic.push(&[
            c.to_string(),
            rho_omega(c).to_string(),
            format!("{period:.0}"),
            format!("{bound:.0}"),
            format!("{:.3}", period / bound),
        ]);
    }

    let mut ablation = Table::new(
        "E2b — prefix-code ablation on an Erdős–Rényi conflict graph (n=400, mean degree 8)",
        &["code", "max colour", "max period", "mean period", "conflict-free", "all periodic"],
    );
    let graph = generators::erdos_renyi(400, 8.0 / 399.0, 7);
    let coloring = greedy_coloring(&graph, GreedyOrder::Natural);
    let schedulers: Vec<(&str, PrefixCodeScheduler)> = vec![
        ("elias-omega", PrefixCodeScheduler::with_code(&graph, &coloring, EliasCode::omega())),
        ("elias-delta", PrefixCodeScheduler::with_code(&graph, &coloring, EliasCode::delta())),
        ("elias-gamma", PrefixCodeScheduler::with_code(&graph, &coloring, EliasCode::gamma())),
        ("unary", PrefixCodeScheduler::with_code(&graph, &coloring, UnaryCode)),
    ];
    let max_color = u64::from(coloring.max_color());
    for (name, mut sched) in schedulers {
        let periods: Vec<u64> = graph.nodes().map(|p| sched.period(p).unwrap()).collect();
        let max_period = periods.iter().copied().max().unwrap_or(1);
        let mean_period = periods.iter().sum::<u64>() as f64 / periods.len().max(1) as f64;
        let horizon = 1024;
        let analysis = analyze_schedule(&graph, &mut sched, horizon);
        let all_periodic = analysis.per_node.iter().all(|n| {
            n.observed_period.is_none() || Some(n.observed_period.unwrap()) == sched.period(n.node)
        });
        ablation.push(&[
            name.to_string(),
            max_color.to_string(),
            max_period.to_string(),
            format!("{mean_period:.1}"),
            analysis.all_happy_sets_independent.to_string(),
            all_periodic.to_string(),
        ]);
    }
    vec![analytic, ablation]
}

/// E3 — Theorem 4.1: the Cauchy-condensation lower bound, validated through
/// the feasibility functional `Σ 1/f(c)` and constructive packing.  The
/// Elias-omega row (the last) is feasible and packs every colour up to the
/// cap; the other three are infeasible and run out of room before it.
pub fn e3_lower_bound() -> Vec<Table> {
    let mut table = Table::new(
        "E3 — Theorem 4.1: feasibility of period functions (sum limit 10^6, packing cap 128)",
        &["period function", "sum of 1/f(c)", "feasible (sum <= 1)", "packable colours (cap 128)"],
    );
    let rows = lower_bound_table(1_000_000, 128);
    let omega = rows.len() - 1;
    for (i, row) in rows.iter().enumerate() {
        let feasible = row.reciprocal_sum <= 1.0;
        let packs_all = row.packable_colors == row.packing_cap;
        table
            .push(&[
                row.function.clone(),
                format!("{:.4}", row.reciprocal_sum),
                feasible.to_string(),
                row.packable_colors.to_string(),
            ])
            .claim(feasible == (i == omega), "Thm 4.1: only the omega periods are feasible")
            .claim(packs_all == (i == omega), "Thm 4.1: only the omega periods pack the cap");
    }
    vec![table]
}

/// E4 — Theorem 5.3 / Lemmas 5.1–5.2: the periodic degree-bound schedule has
/// period exactly `2^⌈log₂(d+1)⌉ ≤ 2d`, with no conflicts, and the
/// decreasing-degree order is necessary.
pub fn e4_periodic_degree_bound() -> Vec<Table> {
    let mut per_family = Table::new(
        "E4a — Theorem 5.3: periodic degree-bound schedule across graph families",
        &[
            "family",
            "n",
            "max degree",
            "max period",
            "max period / 2d",
            "conflicts",
            "all nodes periodic",
        ],
    );
    for (family, graph) in family_instances(600, 8.0, 13) {
        let mut scheduler = PeriodicDegreeBound::new(&graph);
        let horizon = (4 * graph.nodes().map(|p| scheduler.period(p).unwrap()).max().unwrap_or(1))
            .clamp(64, 8192);
        let analysis = analyze_schedule(&graph, &mut scheduler, horizon);
        let max_period = graph.nodes().map(|p| scheduler.period(p).unwrap()).max().unwrap_or(1);
        let worst_ratio = graph
            .nodes()
            .filter(|&p| graph.degree(p) > 0)
            .map(|p| scheduler.period(p).unwrap() as f64 / (2 * graph.degree(p)) as f64)
            .fold(0.0f64, f64::max);
        let all_periodic = analysis
            .per_node
            .iter()
            .filter(|n| scheduler.period(n.node).unwrap() * 2 <= horizon)
            .all(|n| n.observed_period == scheduler.period(n.node));
        let conflict = scheduler.residue_schedule().expect("periodic").conflict(&graph);
        per_family
            .push(&[
                family.name().to_string(),
                graph.node_count().to_string(),
                graph.max_degree().to_string(),
                max_period.to_string(),
                format!("{worst_ratio:.3}"),
                (!analysis.all_happy_sets_independent as u64).to_string(),
                all_periodic.to_string(),
            ])
            .claim(conflict.is_none(), "Lemma 5.2: no edge's rows ever meet")
            .claim(worst_ratio <= 1.0, "Thm 5.3: max period / 2d <= 1")
            .claim(all_periodic, "Thm 5.3: every node is periodic");
    }

    let mut ablation = Table::new(
        "E4b — assignment-order ablation (200 Erdős–Rényi graphs, n=24, p=0.25)",
        &["order", "graphs with hosting conflicts", "graphs where assignment failed"],
    );
    for (label, order) in [
        ("decreasing degree (paper)", AssignmentOrder::DecreasingDegree),
        ("increasing degree", AssignmentOrder::IncreasingDegree),
        ("node id", AssignmentOrder::Natural),
    ] {
        let mut conflicts = 0usize;
        let mut failures = 0usize;
        for seed in 0..200u64 {
            let graph = generators::erdos_renyi(24, 0.25, seed);
            match PeriodicDegreeBound::with_order(&graph, order) {
                None => failures += 1,
                Some(s) => {
                    if s.residue_schedule().expect("periodic").conflict(&graph).is_some() {
                        conflicts += 1;
                    }
                }
            }
        }
        let paper = order == AssignmentOrder::DecreasingDegree;
        ablation
            .push(&[label.to_string(), conflicts.to_string(), failures.to_string()])
            .claim(!paper || conflicts == 0, "Lemma 5.2: no conflicts in decreasing-degree order")
            .claim(!paper || failures == 0, "Lemma 5.1: decreasing-degree order always assigns");
    }
    vec![per_family, ablation]
}

/// E5 — distributed initialisation costs: rounds and messages of the
/// Johansson colouring, Luby MIS and the §5.2 phased slot assignment as the
/// network grows, plus the wall time of the slot assignment (median of 3
/// calls).
pub fn e5_distributed_rounds() -> Vec<Table> {
    let mut table = Table::new(
        "E5 — distributed initialisation cost vs network size (Erdős–Rényi, mean degree 8)",
        &[
            "n",
            "colouring rounds",
            "colouring msgs/node",
            "Luby MIS rounds",
            "§5.2 phases",
            "§5.2 total rounds",
            "§5.2 ms",
        ],
    );
    for &n in &[256usize, 1024, 4096, 16384, 100_000] {
        let p = 8.0 / (n as f64 - 1.0);
        let graph = generators::erdos_renyi(n, p, 3);
        let (_, coloring_stats) = johansson_coloring(&graph, 5);
        let mis = luby_mis(&graph, 7, 4096);
        let slots = distributed_slot_assignment(&graph, 9);
        let slot_ms = median_ms(3, || {
            black_box(distributed_slot_assignment(&graph, 9));
        });
        table.push(&[
            n.to_string(),
            coloring_stats.rounds.to_string(),
            format!("{:.1}", coloring_stats.messages as f64 / n as f64),
            mis.stats.rounds.to_string(),
            slots.phases.to_string(),
            slots.stats.rounds.to_string(),
            format!("{slot_ms:.2}"),
        ]);
    }
    vec![table]
}

/// E6 — local vs global guarantees: on a heavy-tailed conflict graph, compare
/// every scheduler's worst wait for low-degree parents against the global
/// `Δ+1` round robin.
pub fn e6_scheduler_comparison() -> Vec<Table> {
    let graph = generators::barabasi_albert(1000, 2, 17);
    let horizon = 4096;
    let mut table = Table::new(
        format!(
            "E6 — scheduler comparison on Barabási–Albert n=1000 (max degree {}, median degree ~2)",
            graph.max_degree()
        ),
        &[
            "scheduler",
            "worst wait (all)",
            "worst wait (degree <= 3)",
            "perfectly periodic",
            "fairness (Jain)",
            "init rounds",
        ],
    );
    for mut scheduler in standard_suite(&graph, 19) {
        let analysis = analyze_schedule(&graph, scheduler.as_mut(), horizon);
        let low_degree_worst = analysis
            .per_node
            .iter()
            .filter(|n| n.degree <= 3)
            .map(|n| n.max_unhappiness)
            .max()
            .unwrap_or(0);
        table.push(&[
            analysis.scheduler.clone(),
            analysis.max_unhappiness().to_string(),
            low_degree_worst.to_string(),
            analysis.all_periodic().to_string(),
            format!("{:.3}", analysis.jain_fairness()),
            scheduler.init_rounds().to_string(),
        ]);
    }
    vec![table]
}

/// The band E7's frequency ratios must lie in: 20 000 holidays put every
/// bucket's ratio within about 1% of 1.
const E7_RATIO_BAND: (f64, f64) = (0.97, 1.03);

/// E7 — the "first come first grab" landmark: the empirical happiness
/// frequency of a parent of degree `d` approaches `1/(d+1)`.
pub fn e7_first_come_first_grab() -> Vec<Table> {
    let mut table = Table::new(
        "E7 — first come first grab: happiness frequency vs the 1/(d+1) landmark",
        &["family", "degree bucket", "parents", "mean frequency", "mean 1/(d+1)", "ratio"],
    );
    let horizon = 20_000u64;
    for (family, graph) in [
        (Family::ErdosRenyi, Family::ErdosRenyi.generate(300, 6.0, 23)),
        (Family::BarabasiAlbert, Family::BarabasiAlbert.generate(300, 6.0, 23)),
    ] {
        let mut scheduler = FirstComeFirstGrab::new(&graph, 31);
        let analysis = analyze_schedule(&graph, &mut scheduler, horizon);
        // Bucket parents by degree range.
        let buckets: [(usize, usize); 4] = [(0, 2), (3, 5), (6, 10), (11, usize::MAX)];
        for (lo, hi) in buckets {
            let members: Vec<_> =
                analysis.per_node.iter().filter(|n| n.degree >= lo && n.degree <= hi).collect();
            if members.is_empty() {
                continue;
            }
            let mean_freq =
                members.iter().map(|n| n.happy_count as f64 / horizon as f64).sum::<f64>()
                    / members.len() as f64;
            let mean_target = members.iter().map(|n| 1.0 / (n.degree as f64 + 1.0)).sum::<f64>()
                / members.len() as f64;
            let hi_label = if hi == usize::MAX { "+".to_string() } else { hi.to_string() };
            let ratio = mean_freq / mean_target;
            let (lo_band, hi_band) = E7_RATIO_BAND;
            table
                .push(&[
                    family.name().to_string(),
                    format!("{lo}-{hi_label}"),
                    members.len().to_string(),
                    format!("{mean_freq:.4}"),
                    format!("{mean_target:.4}"),
                    format!("{ratio:.3}"),
                ])
                .claim(
                    (lo_band..=hi_band).contains(&ratio),
                    &format!("frequency ratio in [{lo_band}, {hi_band}]"),
                );
        }
    }
    vec![table]
}

/// E8 — the dynamic setting: recovery after bursts of edge insertions stays
/// within the §6 bound `w·φ(d)·2^{log* d + 1}`.
pub fn e8_dynamic_recovery() -> Vec<Table> {
    let mut table = Table::new(
        "E8 — §6 dynamic setting: hosting period of repaired nodes after edge-churn bursts",
        &[
            "burst size w",
            "repairs",
            "max post-repair period",
            "max single-event recovery bound",
            "within bound",
            "colouring proper",
        ],
    );
    for &burst in &[5usize, 20, 50, 100] {
        let initial = generators::erdos_renyi(200, 0.03, 29);
        let mut scheduler = DynamicColorBound::new(&initial);
        let events = fhg_graph::dynamic::random_churn(&initial, burst, 0.8, 0, 101 + burst as u64);
        let mut repairs = 0u64;
        let mut max_period = 0u64;
        let mut max_bound = 0u64;
        for event in events {
            let repair = scheduler.apply_event(event).expect("valid churn");
            for p in repair.recolored() {
                repairs += 1;
                max_period = max_period.max(scheduler.current_period(p));
                max_bound = max_bound.max(scheduler.recovery_bound(p));
            }
        }
        table.push(&[
            burst.to_string(),
            repairs.to_string(),
            max_period.to_string(),
            max_bound.to_string(),
            (max_period <= max_bound.max(2)).to_string(),
            scheduler.coloring_is_proper().to_string(),
        ]);
    }
    vec![table]
}

/// E9 — Appendix A.3: maximum satisfaction, Hopcroft–Karp vs the specialised
/// linear-time algorithm, and the alternation guarantee.
pub fn e9_satisfaction() -> Vec<Table> {
    let mut table = Table::new(
        "E9 — Appendix A.3: maximum satisfaction (linear-time peeling vs Hopcroft–Karp)",
        &[
            "n",
            "couples",
            "satisfied (linear)",
            "satisfied (HK)",
            "equal",
            "linear time (ms)",
            "HK time (ms)",
        ],
    );
    for &n in &[1_000usize, 10_000, 100_000, 400_000] {
        let graph = generators::erdos_renyi(n, 3.0 / (n as f64 - 1.0), 37);
        let start = Instant::now();
        let linear = max_satisfaction_linear(&graph);
        let linear_time = start.elapsed();
        let start = Instant::now();
        let matching = max_satisfaction_matching(&graph);
        let hk_time = start.elapsed();
        let count = |a: &[Option<usize>]| a.iter().filter(|x| x.is_some()).count();
        table.push(&[
            n.to_string(),
            graph.edge_count().to_string(),
            count(&linear).to_string(),
            count(&matching).to_string(),
            (count(&linear) == count(&matching)).to_string(),
            format!("{:.2}", linear_time.as_secs_f64() * 1e3),
            format!("{:.2}", hk_time.as_secs_f64() * 1e3),
        ]);
    }

    let mut alternation = Table::new(
        "E9b — alternation guarantee: every parent with children satisfied within 2 holidays",
        &["n", "parents with children", "satisfied within 2 holidays", "guarantee holds"],
    );
    for &n in &[500usize, 5_000] {
        let graph = generators::barabasi_albert(n, 2, 41);
        let alt = fhg_matching::AlternatingSatisfaction::new(&graph);
        let with_children = graph.nodes().filter(|&p| graph.degree(p) > 0).count();
        let even: std::collections::HashSet<_> = alt.satisfied_set(0).into_iter().collect();
        let odd: std::collections::HashSet<_> = alt.satisfied_set(1).into_iter().collect();
        let covered = graph
            .nodes()
            .filter(|&p| graph.degree(p) > 0 && (even.contains(&p) || odd.contains(&p)))
            .count();
        alternation.push(&[
            n.to_string(),
            with_children.to_string(),
            covered.to_string(),
            (covered == with_children).to_string(),
        ]);
    }
    vec![table, alternation]
}

/// E10 — Appendix A.1 (happiness is MIS, hence hard) and the radio
/// application: greedy-vs-exact MIS gap, and TDMA quality per scheduler.
pub fn e10_mis_and_radio() -> Vec<Table> {
    let mut mis_table = Table::new(
        "E10a — single-holiday maximum happiness: greedy vs exact MIS (Appendix A.1)",
        &["graph", "n", "exact MIS", "greedy MIS", "greedy/exact"],
    );
    let instances = vec![
        ("erdos-renyi p=0.10", generators::erdos_renyi(50, 0.10, 43)),
        ("erdos-renyi p=0.25", generators::erdos_renyi(45, 0.25, 44)),
        ("unit-disk dense", Family::UnitDisk.generate(45, 8.0, 45)),
        ("barabasi-albert m=3", generators::barabasi_albert(45, 3, 46)),
    ];
    for (label, graph) in instances {
        let exact = exact_mis(&graph).len();
        let greedy = greedy_mis(&graph).len();
        mis_table.push(&[
            label.to_string(),
            graph.node_count().to_string(),
            exact.to_string(),
            greedy.to_string(),
            format!("{:.3}", greedy as f64 / exact.max(1) as f64),
        ]);
    }

    let mut radio_table = Table::new(
        "E10b — radio TDMA quality (300 radios, unit square, tx radius 0.035, 2048 slots)",
        &[
            "scheduler",
            "interference",
            "max access latency",
            "mean reuse/slot",
            "fairness ratio",
            "total wake-ups",
        ],
    );
    let network = RadioNetwork::random(300, 0.035, 47);
    let graph = network.interference_graph().clone();
    let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(RoundRobinColoring::new(&graph)),
        Box::new(PhasedGreedy::new(&graph)),
        Box::new(PrefixCodeScheduler::omega(&graph)),
        Box::new(PeriodicDegreeBound::new(&graph)),
        Box::new(FirstComeFirstGrab::new(&graph, 49)),
    ];
    for scheduler in &mut schedulers {
        let report = evaluate_tdma(&network, scheduler.as_mut(), 2048);
        radio_table.push(&[
            report.scheduler.clone(),
            report.interference_detected.to_string(),
            report.max_latency().to_string(),
            format!("{:.2}", report.mean_transmitters_per_slot),
            format!("{:.3}", report.mean_fairness_ratio()),
            report.total_wakeups.to_string(),
        ]);
    }
    vec![mis_table, radio_table]
}

/// Median wall time of `reps` runs of `f`, in milliseconds.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    median_ms_fresh(reps, &(), |_| f())
}

/// Median wall time of `reps` runs of `f`, in milliseconds, each on a
/// fresh clone of `template` made before its timer starts (a stateful
/// scheduler cannot replay a holiday).
fn median_ms_fresh<S: Clone>(reps: usize, template: &S, mut f: impl FnMut(&mut S)) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let mut fresh = template.clone();
            let t0 = Instant::now();
            f(&mut fresh);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Structural parity of the fields every engine must agree on (timing rows
/// only need a cheap witness; the exhaustive bitwise property lives in
/// `tests/analysis_parity.rs`).
fn matches_reference(analysis: &ScheduleAnalysis, reference: &ScheduleAnalysis) -> bool {
    analysis.total_happiness == reference.total_happiness
        && analysis.all_happy_sets_independent == reference.all_happy_sets_independent
        && analysis.per_node.iter().zip(&reference.per_node).all(|(a, b)| {
            a.max_unhappiness == b.max_unhappiness && a.observed_period == b.observed_period
        })
}

/// The horizon of E11b's stateful rows: the stateful jobs' horizon in the
/// repository benchmark's analyze-mix workload.
const STATEFUL_HORIZON: u64 = 1024;

/// E11 — the two analysis engines head-to-head on the configuration's
/// Erdős–Rényi graph and short horizon: the sequential reference (every
/// holiday emitted and verified) against the production path
/// `analyze_schedule` takes for a periodic scheduler, the progression
/// engine, which emits no happy set at all (one formula per node, one
/// congruence test per edge).  Timings are medians over the config's
/// repetitions; the structural columns (happy sets emitted, parity) are
/// deterministic.
///
/// E11b times the two stateful schedulers, which have no residue view, on
/// the same graph at [`STATEFUL_HORIZON`] holidays, each run on a fresh
/// clone: the one-thread reference sweep (`analyze_schedule_reference`,
/// the baseline), `analyze_schedule`, whose pipelined engine emits on the
/// calling thread while a worker of the ambient pool verifies and records
/// (its rows report that pool's width), and emission alone
/// (`fill_happy_set` into one reused buffer), the floor the pipeline can
/// reach.  At smoke size the graph (2000 nodes, mean degree about 10) only
/// approximates analyze-mix's stateful graphs, which have 2048 nodes and
/// mean degree 4, 10 or 32 in four families.
pub fn e11_analysis_engine_with(cfg: &AnalysisBenchConfig) -> (Vec<Table>, Vec<BenchEntry>) {
    let graph = generators::erdos_renyi(cfg.nodes, cfg.edge_prob, cfg.seed);
    let horizon = cfg.horizon;
    let mut table = Table::new(
        format!(
            "E11 — analysis engines on erdos_renyi({}, {}), {} holidays, periodic-degree-bound \
             (medians of {}, single-threaded)",
            cfg.nodes, cfg.edge_prob, horizon, cfg.reps
        ),
        &["engine", "threads", "happy sets emitted", "median ms", "speedup", "matches reference"],
    );
    let mut entries = Vec::new();

    let mut scheduler = PeriodicDegreeBound::new(&graph);
    let mut reference = analyze_schedule_reference(&graph, &mut scheduler, horizon);
    let reference_ms = median_ms(cfg.reps, || {
        reference = analyze_schedule_reference(&graph, &mut scheduler, horizon)
    });
    let mut analysis = analyze_schedule(&graph, &mut scheduler, horizon);
    let production_ms =
        median_ms(cfg.reps, || analysis = analyze_schedule(&graph, &mut scheduler, horizon));
    let rows = [
        ("sequential reference", horizon, reference_ms, "-".to_string()),
        (
            "closed-form progression",
            0,
            production_ms,
            matches_reference(&analysis, &reference).to_string(),
        ),
    ];
    for (label, emitted, ms, parity) in rows {
        table.push(&[
            label.to_string(),
            "1".to_string(),
            emitted.to_string(),
            format!("{ms:.3}"),
            format!("{:.2}x", reference_ms / ms),
            parity,
        ]);
        entries.push(BenchEntry {
            experiment: "e11",
            engine: label.replace(' ', "-"),
            threads: 1,
            horizon,
            median_ms: ms,
            speedup: reference_ms / ms,
        });
    }

    let pool_threads = rayon::current_num_threads();
    let mut stateful = Table::new(
        format!(
            "E11b — stateful schedulers on erdos_renyi({}, {}), {STATEFUL_HORIZON} holidays: \
             one-thread reference vs analyze_schedule on a pool of {pool_threads} vs emission \
             alone (medians of {})",
            cfg.nodes, cfg.edge_prob, cfg.reps
        ),
        &["scheduler", "path", "threads", "median ms", "us per holiday", "speedup"],
    );
    let phased = PhasedGreedy::new(&graph);
    let grab = FirstComeFirstGrab::new(&graph, cfg.seed);
    let timings = [
        (phased.name(), stateful_timings(&graph, &phased, cfg.reps)),
        (grab.name(), stateful_timings(&graph, &grab, cfg.reps)),
    ];
    for (name, [reference_ms, analyze_ms, emit_ms]) in timings {
        for (path, threads, ms) in [
            ("reference", 1, reference_ms),
            ("analyze", pool_threads, analyze_ms),
            ("emit", 1, emit_ms),
        ] {
            stateful.push(&[
                name.to_string(),
                path.to_string(),
                threads.to_string(),
                format!("{ms:.3}"),
                format!("{:.2}", ms * 1e3 / STATEFUL_HORIZON as f64),
                format!("{:.2}x", reference_ms / ms),
            ]);
            entries.push(BenchEntry {
                experiment: "e11",
                engine: format!("{name}-{path}"),
                threads,
                horizon: STATEFUL_HORIZON,
                median_ms: ms,
                speedup: reference_ms / ms,
            });
        }
    }
    (vec![table, stateful], entries)
}

/// Median milliseconds over [`STATEFUL_HORIZON`] holidays of the reference
/// sweep, of `analyze_schedule` and of emission alone, each run on a fresh
/// clone of `template`.
fn stateful_timings<S: Scheduler + Clone>(graph: &Graph, template: &S, reps: usize) -> [f64; 3] {
    let reference_ms = median_ms_fresh(reps, template, |s| {
        let analysis = analyze_schedule_reference(graph, s, STATEFUL_HORIZON);
        assert!(analysis.all_happy_sets_independent, "{}: a dependent happy set", s.name());
    });
    let analyze_ms = median_ms_fresh(reps, template, |s| {
        let analysis = analyze_schedule(graph, s, STATEFUL_HORIZON);
        assert!(analysis.all_happy_sets_independent, "{}: a dependent happy set", s.name());
    });
    let mut buf = HappySet::new(graph.node_count());
    let emit_ms = median_ms_fresh(reps, template, |s| {
        let start = s.first_holiday();
        for t in start..start + STATEFUL_HORIZON {
            s.fill_happy_set(t, &mut buf);
            black_box(buf.len());
        }
    });
    [reference_ms, analyze_ms, emit_ms]
}

/// E12 — horizon scaling: the cost of an analysis must not depend on the
/// horizon.  Baseline is the production analysis (the progression engine)
/// at the short horizon; the same analysis at the long (1M-holiday) horizon
/// must land within 2x of it — the acceptance criterion, witnessed by the
/// `criterion` column.  The final row reuses one prebuilt `CycleProfile`
/// and only derives, the serving tier's horizon-free path.  Parity
/// witnesses: the short-horizon row compares against the sequential
/// reference, the long-horizon row against the profile's derivation (the
/// same per-node formula, applied to lanes from a walk of one cycle of
/// residue classes rather than to the view rows), and the derive-only row
/// against the long-horizon production analysis.
pub fn e12_closed_form_engine_with(cfg: &AnalysisBenchConfig) -> (Vec<Table>, Vec<BenchEntry>) {
    let graph = generators::erdos_renyi(cfg.nodes, cfg.edge_prob, cfg.seed);
    let mut table = Table::new(
        format!(
            "E12 — horizon scaling on erdos_renyi({}, {}), periodic-degree-bound (medians of {}, \
             single-threaded)",
            cfg.nodes, cfg.edge_prob, cfg.reps
        ),
        &["engine", "horizon", "median ms", "vs short horizon", "matches reference", "criterion"],
    );
    let mut entries = Vec::new();

    let mut scheduler = PeriodicDegreeBound::new(&graph);
    let reference = analyze_schedule_reference(&graph, &mut scheduler, cfg.horizon);
    let mut time_analysis = |horizon: u64| {
        let mut analysis = analyze_schedule(&graph, &mut scheduler, horizon);
        let ms =
            median_ms(cfg.reps, || analysis = analyze_schedule(&graph, &mut scheduler, horizon));
        (ms, analysis)
    };
    let (short_ms, short_analysis) = time_analysis(cfg.horizon);
    let (long_ms, long_analysis) = time_analysis(cfg.long_horizon);

    // The serving tier's horizon-free derivation: build the profile once,
    // derive the long horizon from it on every repetition.  Its first
    // derivation is the long-horizon row's witness.
    let scheduler = PeriodicDegreeBound::new(&graph);
    let view = scheduler.residue_schedule().expect("perfectly periodic");
    let profile = CycleProfile::build(view, scheduler.first_holiday(), graph.node_count(), &graph);
    let long_witness = profile.derive(scheduler.name(), &graph, cfg.long_horizon).unwrap();
    let mut derived = long_witness.clone();
    let derive_ms = median_ms(cfg.reps, || {
        derived = profile.derive(scheduler.name(), &graph, cfg.long_horizon).unwrap();
    });
    let rows: [(&str, u64, f64, String, String); 3] = [
        (
            "closed-form progression",
            cfg.horizon,
            short_ms,
            matches_reference(&short_analysis, &reference).to_string(),
            "-".to_string(),
        ),
        (
            "closed-form progression",
            cfg.long_horizon,
            long_ms,
            matches_reference(&long_analysis, &long_witness).to_string(),
            format!("<=2x of short horizon: {}", long_ms <= 2.0 * short_ms),
        ),
        (
            "derive only (lane fold)",
            cfg.long_horizon,
            derive_ms,
            matches_reference(&derived, &long_analysis).to_string(),
            "horizon-free".to_string(),
        ),
    ];
    for (label, horizon, ms, parity, criterion) in rows {
        table.push(&[
            label.to_string(),
            horizon.to_string(),
            format!("{ms:.3}"),
            format!("{:.2}x", short_ms / ms),
            parity,
            criterion,
        ]);
        entries.push(BenchEntry {
            experiment: "e12",
            engine: label.replace(' ', "-"),
            threads: 1,
            horizon,
            median_ms: ms,
            speedup: short_ms / ms,
        });
    }
    (vec![table], entries)
}

/// Word-packed residue rows grouped per distinct modulus — `(modulus, one
/// bit row per residue)` — the raw-word form of `ResidueSchedule`'s
/// word-packed table, shared by experiment `e13` and `benches/kernels.rs`
/// so both drive byte-identical inputs.
pub type ModulusRows = Vec<(u64, Vec<Vec<u64>>)>;

/// Rebuilds the word-packed emission rows of `view` (one bit row per
/// `(modulus, residue)` pair) from its public assignment, plus the row
/// width in words.  This is the input the kernel-level emission paths of
/// `e13` and the kernels bench gather from.
pub fn emission_rows(
    view: &fhg_core::schedulers::residue::ResidueSchedule,
) -> (usize, ModulusRows) {
    let n = view.node_count();
    let words = n.div_ceil(64);
    let mut distinct: Vec<u64> = (0..n).map(|p| view.modulus(p)).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let mut rows: ModulusRows =
        distinct.iter().map(|&m| (m, vec![vec![0u64; words]; m as usize])).collect();
    for p in 0..n {
        let gi = distinct.binary_search(&view.modulus(p)).expect("modulus is distinct");
        rows[gi].1[view.slot(p) as usize][p / 64] |= 1u64 << (p % 64);
    }
    (words, rows)
}

/// Drives `horizon` holidays of the residue emission at raw-word level:
/// per holiday, gather one row per distinct modulus and combine them into
/// `dst` with `emit` (which owns the whole per-holiday write, zeroing
/// included where its strategy needs one), returning the summed
/// cardinalities (the checksum every emission path must agree on).
pub fn fill_sweep(
    rows: &ModulusRows,
    words: usize,
    horizon: u64,
    mut emit: impl FnMut(&mut [u64], &[&[u64]]) -> u64,
) -> u64 {
    let mut dst = vec![0u64; words];
    let mut refs: Vec<&[u64]> = Vec::with_capacity(rows.len());
    let mut sum = 0u64;
    for t in 0..horizon {
        refs.clear();
        for (m, residue_rows) in rows {
            let r = if m.is_power_of_two() { t & (m - 1) } else { t % m };
            refs.push(residue_rows[r as usize].as_slice());
        }
        sum += emit(&mut dst, &refs);
    }
    sum
}

/// E13 — the fused word-kernel subsystem: the closed form is emission-bound
/// (ROADMAP "Scale directions" after PR 3), so this experiment times the
/// per-holiday fill at the E11 configuration under three emission paths on
/// identical row data: the PR 3 scalar shape (reset memset, one full `dst`
/// OR pass per distinct modulus, then a separate popcount rescan), the
/// fused gather+popcount kernel (`set_rows_count`: one write-only pass,
/// rows indexed inner, count fused) in its baseline compilation
/// (`portable`), and the same source as dispatched (compiled for AVX2 +
/// POPCNT wherever the CPU has both).  A fourth row drives the production
/// `ResidueSchedule::fill` end to end.
/// All paths must produce identical cardinality checksums, and a second
/// table witnesses that the production analysis engines still match
/// `analyze_schedule_reference` bitwise after the kernel refactor.
/// Acceptance: the dispatched fused path is at least 2x faster than the
/// scalar shape (the `criterion` column).
pub fn e13_fused_kernel_emission_with(cfg: &AnalysisBenchConfig) -> (Vec<Table>, Vec<BenchEntry>) {
    use fhg_graph::kernels::{self, KernelMode};

    let graph = generators::erdos_renyi(cfg.nodes, cfg.edge_prob, cfg.seed);
    let mut scheduler = PeriodicDegreeBound::new(&graph);
    let view = scheduler.residue_schedule().expect("perfectly periodic").clone();
    let n = view.node_count();
    let horizon = cfg.horizon;

    // The word-packed emission rows (one bit row per (modulus, residue))
    // rebuilt from the schedule's public assignment, so the scalar and
    // fused paths run on byte-identical inputs.
    let (words, rows) = emission_rows(&view);

    let mut table = Table::new(
        format!(
            "E13 — fused kernel emission on erdos_renyi({}, {}), {} fills of {} distinct-modulus \
             rows x {} words (medians of {})",
            cfg.nodes,
            cfg.edge_prob,
            horizon,
            rows.len(),
            words,
            cfg.reps
        ),
        &["emission path", "kernel mode", "median ms", "speedup vs scalar", "criterion"],
    );
    let mut entries = Vec::new();

    let mut scalar_sum = 0u64;
    let scalar_ms = median_ms(cfg.reps, || {
        scalar_sum = fill_sweep(&rows, words, horizon, kernels::scalar::set_rows_count);
    });
    let mut portable_sum = 0u64;
    let portable_ms = median_ms(cfg.reps, || {
        portable_sum = fill_sweep(&rows, words, horizon, |dst, refs| {
            kernels::set_rows_count_in(KernelMode::Portable, dst, refs)
        });
    });
    let mut fused_sum = 0u64;
    let fused_ms = median_ms(cfg.reps, || {
        fused_sum = fill_sweep(&rows, words, horizon, kernels::set_rows_count);
    });
    let mut fill_sum = 0u64;
    let fill_ms = median_ms(cfg.reps, || {
        let mut buf = fhg_graph::HappySet::new(n);
        fill_sum = 0;
        for t in 0..horizon {
            view.fill(t, &mut buf);
            fill_sum += buf.len() as u64;
        }
    });
    assert_eq!(scalar_sum, portable_sum, "portable kernel checksum diverged");
    assert_eq!(scalar_sum, fused_sum, "dispatched kernel checksum diverged");
    assert_eq!(scalar_sum, fill_sum, "ResidueSchedule::fill checksum diverged");

    let active = match KernelMode::active() {
        KernelMode::Wide => "wide",
        KernelMode::Portable => "portable",
    };
    let rows_out: [(&str, &str, f64, String); 4] = [
        ("scalar reset+OR-then-rescan (PR 3 shape)", "-", scalar_ms, "-".to_string()),
        ("fused gather+popcount", "portable", portable_ms, "-".to_string()),
        (
            "fused gather+popcount (dispatched)",
            active,
            fused_ms,
            format!(">=2x vs scalar: {}", scalar_ms / fused_ms >= 2.0),
        ),
        ("ResidueSchedule::fill end-to-end", active, fill_ms, "-".to_string()),
    ];
    let engine_label = |path: &str, mode: &str| {
        if mode == "-" {
            path.replace(' ', "-")
        } else {
            format!("{}-{}", path.replace(' ', "-"), mode)
        }
    };
    for (path, mode, ms, criterion) in rows_out {
        table.push(&[
            path.to_string(),
            mode.to_string(),
            format!("{ms:.3}"),
            format!("{:.2}x", scalar_ms / ms),
            criterion,
        ]);
        entries.push(BenchEntry {
            experiment: "e13",
            engine: engine_label(path, mode),
            threads: 1,
            horizon,
            median_ms: ms,
            speedup: scalar_ms / ms,
        });
    }

    // Parity witness: the production engine and the profile's window fold
    // still match the sequential reference (emission through the fused
    // gathers) bitwise.
    let mut parity = Table::new(
        "E13b — engine parity after the kernel refactor (same graph, short horizon)",
        &["engine", "horizon", "matches reference"],
    );
    let reference = analyze_schedule_reference(&graph, &mut scheduler, horizon);
    let production = analyze_schedule(&graph, &mut scheduler, horizon);
    let profile = CycleProfile::build(&view, scheduler.first_holiday(), graph.node_count(), &graph);
    let derived = profile.derive_window(scheduler.name(), &graph, 0, horizon);
    for (label, analysis) in
        [("closed-form progression", production), ("cycle profile window fold", derived)]
    {
        parity.push(&[
            label.to_string(),
            horizon.to_string(),
            matches_reference(&analysis, &reference).to_string(),
        ]);
    }

    (vec![table, parity], entries)
}

/// E14 — the prebuilt-profile derivation and the profile build.  Two
/// tables:
///
/// * **E14a** (the E12 configuration): the profile's totals-only fast path
///   (skips per-node assembly and float work), cross-checked against the
///   reduced full derive, and the production end-to-end analysis
///   (`analyze_schedule`, the progression engine) at the short horizon
///   (acceptance on the full config: ≤ 1.0 ms).
///
/// * **E14b** (`cycle ≈ 10⁵`, two interleaved moduli whose lcm is the
///   cycle, an edgeless conflict graph): `CycleProfile::build`, the edge
///   pass (one congruence test per edge, none here) plus the `O(n)` lane
///   grouping, on the calling thread.  Its cost does not depend on the
///   cycle.  Derive-only and totals-only rows on the same long-cycle
///   profile round out the table.
pub fn e14_derive_and_build_with(cfg: &AnalysisBenchConfig) -> (Vec<Table>, Vec<BenchEntry>) {
    use fhg_core::schedulers::residue::ResidueSchedule;

    let mut entries = Vec::new();

    // Sub-millisecond measurements: many more repetitions than the
    // multi-ms experiments, or the median is container noise.
    let derive_reps = cfg.reps * 7;

    // --- E14a: the derivation on the E12 configuration. ---
    let graph = generators::erdos_renyi(cfg.nodes, cfg.edge_prob, cfg.seed);
    let mut scheduler = PeriodicDegreeBound::new(&graph);
    let view = scheduler.residue_schedule().expect("perfectly periodic").clone();
    let profile = CycleProfile::build(&view, scheduler.first_holiday(), graph.node_count(), &graph);

    let mut derive_table = Table::new(
        format!(
            "E14a — prebuilt-profile derivation on erdos_renyi({}, {}), horizon {} (medians of \
             {}, single-threaded)",
            cfg.nodes, cfg.edge_prob, cfg.long_horizon, derive_reps
        ),
        &["path", "horizon", "median ms", "criterion"],
    );

    let mut totals = profile.derive_totals(cfg.long_horizon).unwrap();
    let totals_ms = median_ms(derive_reps, || {
        totals = profile.derive_totals(cfg.long_horizon).unwrap();
    });
    // Parity: the totals-only fast path must equal the reduced full derive.
    let derived = profile.derive(scheduler.name(), &graph, cfg.long_horizon).unwrap();
    assert_eq!(totals, derived.totals(), "totals fast path diverged from the full derive");
    // The production end-to-end analysis at the short horizon.
    let e2e_ms = median_ms(derive_reps, || {
        let analysis = analyze_schedule(&graph, &mut scheduler, cfg.horizon);
        assert!(analysis.all_happy_sets_independent);
    });

    let derive_rows: [(&str, u64, f64, String); 2] = [
        (
            "derive totals-only (lane fold, no float finalise)",
            cfg.long_horizon,
            totals_ms,
            "-".into(),
        ),
        (
            "closed-form end-to-end (progression)",
            cfg.horizon,
            e2e_ms,
            format!("<=1.0ms: {}", e2e_ms <= 1.0),
        ),
    ];
    for (path, horizon, ms, criterion) in derive_rows {
        derive_table.push(&[path.to_string(), horizon.to_string(), format!("{ms:.3}"), criterion]);
        entries.push(BenchEntry {
            experiment: "e14",
            engine: path.replace(' ', "-"),
            threads: 1,
            horizon,
            median_ms: ms,
            // No baseline row left in E14a: each row is its own baseline.
            speedup: 1.0,
        });
    }

    // --- E14b: the profile build on a long cycle. ---
    let n = cfg.build_nodes;
    let (m_a, m_b) = cfg.build_moduli;
    let cycle = cfg.build_cycle();
    // Interleaved moduli with spread slots; an edgeless conflict graph
    // keeps the schedule trivially independent, so the build is the edge
    // pass's row walk and the lane grouping, with no early exit.
    let slots: Vec<u64> = (0..n as u64)
        .map(|p| {
            let m = if p % 2 == 0 { m_a } else { m_b };
            p.wrapping_mul(0x9E37_79B9) % m
        })
        .collect();
    let moduli: Vec<u64> = (0..n as u64).map(|p| if p % 2 == 0 { m_a } else { m_b }).collect();
    let schedule = ResidueSchedule::new(slots, moduli);
    assert_eq!(schedule.cycle(), cycle);
    let build_graph = fhg_graph::Graph::new(n);

    let mut build_table = Table::new(
        format!(
            "E14b — CycleProfile build, {} nodes, moduli ({}, {}), cycle {} (build medians of \
             {}, derive medians of {}, single-threaded)",
            n, m_a, m_b, cycle, cfg.reps, derive_reps
        ),
        &["path", "threads", "median ms", "criterion"],
    );

    let mut long_profile = CycleProfile::build(&schedule, 0, n, &build_graph);
    let build_ms = median_ms(cfg.reps, || {
        long_profile = CycleProfile::build(&schedule, 0, n, &build_graph);
    });
    assert!(long_profile.all_classes_independent(), "the edgeless schedule is independent");
    build_table.push(&[
        "profile build (edge pass + lane grouping)".to_string(),
        "1".to_string(),
        format!("{build_ms:.2}"),
        "-".to_string(),
    ]);
    entries.push(BenchEntry {
        experiment: "e14",
        engine: "profile-build".to_string(),
        threads: 1,
        horizon: cycle,
        median_ms: build_ms,
        speedup: 1.0,
    });

    // Derive rows on the long-cycle profile: its nodes share at most
    // `m_a + m_b` progressions, so the totals fold reads that many lanes
    // while the full derive reads every node.
    let horizon = 4 * cycle + 3;
    let mut full = long_profile.derive("e14b", &build_graph, horizon).unwrap();
    let derive_ms = median_ms(derive_reps, || {
        full = long_profile.derive("e14b", &build_graph, horizon).unwrap();
    });
    let mut totals = long_profile.derive_totals(horizon).unwrap();
    let totals_ms = median_ms(derive_reps, || {
        totals = long_profile.derive_totals(horizon).unwrap();
    });
    assert_eq!(totals, full.totals(), "long-cycle totals fast path diverged");
    for (path, ms) in
        [("derive only (lane fold)", derive_ms), ("derive totals-only (lane fold)", totals_ms)]
    {
        build_table.push(&[path.to_string(), "1".to_string(), format!("{ms:.3}"), "-".to_string()]);
        entries.push(BenchEntry {
            experiment: "e14",
            engine: format!("long-cycle-{}", path.replace(' ', "-")),
            threads: 1,
            horizon,
            median_ms: ms,
            // No comparable baseline row for the long-cycle derivations —
            // a build-to-derive ratio would be meaningless in the
            // trajectory, so these rows are their own baseline.
            speedup: 1.0,
        });
    }

    (vec![derive_table, build_table], entries)
}

/// E15 — verification throughput on the one checker layout: the packed
/// graph (CSR), probed once per edge from its lower endpoint.  One table
/// (**E15a**, the E12 configuration): per-class `check` over materialised
/// residue classes, the sequential sweep's verification shape, and the
/// production end-to-end analysis at the short horizon, which verifies by
/// one congruence test per edge instead of any class check (acceptance on
/// the full config: ≤ 0.8 ms).
pub fn e15_verification_throughput_with(
    cfg: &AnalysisBenchConfig,
) -> (Vec<Table>, Vec<BenchEntry>) {
    use fhg_core::analysis::HolidayChecker;
    use fhg_graph::{FixedBitSet, HappySet};

    let mut entries = Vec::new();
    let graph = generators::erdos_renyi(cfg.nodes, cfg.edge_prob, cfg.seed);
    let mut scheduler = PeriodicDegreeBound::new(&graph);
    let view = scheduler.residue_schedule().expect("perfectly periodic").clone();
    let n = view.node_count();

    // Materialise the classes once (the E12 configuration probes
    // `cfg.horizon` of them), so the timed loop is verification alone.
    let classes: Vec<(u64, FixedBitSet)> = {
        let mut buf = HappySet::new(n);
        (0..cfg.horizon)
            .map(|t| {
                view.fill(t, &mut buf);
                (t, buf.as_bitset().clone())
            })
            .collect()
    };
    let refs: Vec<(u64, &FixedBitSet)> = classes.iter().map(|(t, s)| (*t, s)).collect();

    let checker = GraphChecker::new(&graph);
    let mut table = Table::new(
        format!(
            "E15a — verification throughput on erdos_renyi({}, {}), {} residue classes, \
             packed graph (CSR) (medians of {})",
            cfg.nodes, cfg.edge_prob, cfg.horizon, cfg.reps
        ),
        &["path", "median ms", "speedup vs per-class", "criterion"],
    );
    let per_class_ms = median_ms(cfg.reps, || {
        let mut ok = true;
        for &(t, set) in &refs {
            ok &= checker.check(t, set);
        }
        assert!(ok, "the periodic schedule must verify");
    });
    table.push(&[
        "per-class check".to_string(),
        format!("{per_class_ms:.3}"),
        "1.00x".to_string(),
        "-".to_string(),
    ]);
    entries.push(BenchEntry {
        experiment: "e15",
        engine: "per-class-check-csr".to_string(),
        threads: 1,
        horizon: cfg.horizon,
        median_ms: per_class_ms,
        speedup: 1.0,
    });
    // The production end-to-end analysis at the short horizon: no class is
    // verified at all, so the checker is not involved (the e14 criterion
    // was <= 1.0 ms; this one is tighter).
    let e2e_ms = median_ms(cfg.reps * 7, || {
        let analysis = analyze_schedule(&graph, &mut scheduler, cfg.horizon);
        assert!(analysis.all_happy_sets_independent);
    });
    table.push(&[
        "closed-form end-to-end (progression)".to_string(),
        format!("{e2e_ms:.3}"),
        "-".to_string(),
        format!("<=0.8ms: {}", e2e_ms <= 0.8),
    ]);
    entries.push(BenchEntry {
        experiment: "e15",
        engine: "closed-form-end-to-end-progression".to_string(),
        threads: 1,
        horizon: cfg.horizon,
        median_ms: e2e_ms,
        speedup: 1.0,
    });

    (vec![table], entries)
}

/// E16 — the windowed profile-serving tier under sustained load.
///
/// A load generator registers `cfg.serve_tenants` independent tenant
/// schedules (small Erdős–Rényi conflict graphs, each under a
/// `PeriodicDegreeBound` schedule), builds every profile once through the
/// sharded `ProfileService::build_pending`, then replays
/// `cfg.serve_queries` windowed queries with LCG-drawn tenants and ragged
/// `[t0, t1)` windows.  Reported per path: p50/p99 per-query latency and
/// sustained queries/sec — the acceptance criterion is ≥10⁴ windowed
/// totals-queries/sec on a single core over ≥1k warm tenants.  A plain
/// `query_totals` loop with no per-query clock is the baseline the
/// `query_batch` row is read against.
pub fn e16_windowed_serving_with(cfg: &AnalysisBenchConfig) -> (Vec<Table>, Vec<BenchEntry>) {
    use fhg_core::serving::{ProfileService, Query};

    let mut entries = Vec::new();
    let tenants = cfg.serve_tenants;

    // --- Registration: one small conflict graph + periodic schedule per
    // tenant, sizes jittered so the cached cycles differ across tenants. ---
    let mut service = ProfileService::new();
    for i in 0..tenants {
        let n = 40 + (i % 17) * 2;
        let graph = generators::erdos_renyi(n, 4.0 / n as f64, 0xE16 ^ i as u64);
        let scheduler = PeriodicDegreeBound::new(&graph);
        service
            .register(i as u64, &graph, &scheduler)
            .expect("periodic tenants must register cleanly");
    }
    assert_eq!(service.tenant_count(), tenants);

    // --- Sharded cold build across the persistent pool. ---
    let build_threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(8);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(build_threads).build().unwrap();
    let t0 = Instant::now();
    let built = pool.install(|| service.build_pending());
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(built >= 1 && built <= tenants, "every cold key builds exactly once");
    assert_eq!(service.warm_count(), service.key_count());

    // --- The query mix: LCG-drawn tenant + ragged window per request.
    // Widths span sub-cycle through many-cycle and starts are arbitrary
    // phases, so every window shape stays in the mix. ---
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 16
    };
    let queries: Vec<Query> = (0..cfg.serve_queries)
        .map(|_| {
            let tenant = next() % tenants as u64;
            let t0 = next() % (1 << 16);
            let width = next() % (1 << 12);
            Query { tenant, window: (t0, t0 + width) }
        })
        .collect();

    let percentile =
        |sorted: &[u64], p: usize| -> f64 { sorted[(sorted.len() - 1) * p / 100] as f64 / 1e6 };
    let mut table = Table::new(
        format!(
            "E16 — windowed serving over {tenants} cached tenants ({built} profiles built in \
             {build_ms:.1} ms on {build_threads} threads), {} LCG queries per path",
            cfg.serve_queries
        ),
        &["path", "threads", "p50 latency µs", "p99 latency µs", "queries/s", "criterion"],
    );
    entries.push(BenchEntry {
        experiment: "e16",
        engine: "profile-build".into(),
        threads: build_threads,
        horizon: tenants as u64,
        median_ms: build_ms,
        speedup: 1.0,
    });

    // --- Single-core sustained totals queries (the acceptance path). ---
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(queries.len());
    let mut checksum = 0u64;
    let wall = Instant::now();
    for q in &queries {
        let t = Instant::now();
        let totals = service.query_totals(q.tenant, q.window.0, q.window.1).unwrap();
        latencies_ns.push(t.elapsed().as_nanos() as u64);
        checksum = checksum.wrapping_add(totals.total_happiness);
    }
    let totals_qps = queries.len() as f64 / wall.elapsed().as_secs_f64();
    assert!(checksum > 0, "the query mix must touch non-trivial windows");
    latencies_ns.sort_unstable();
    let (p50, p99) = (percentile(&latencies_ns, 50), percentile(&latencies_ns, 99));
    table.push(&[
        "query_totals (steady-state fold)".into(),
        "1".into(),
        format!("{:.2}", p50 * 1e3),
        format!("{:.2}", p99 * 1e3),
        format!("{totals_qps:.0}"),
        format!(">=10000 q/s/core: {}", totals_qps >= 1e4),
    ]);
    entries.push(BenchEntry {
        experiment: "e16",
        engine: "windowed-totals-qps".into(),
        threads: 1,
        horizon: queries.len() as u64,
        median_ms: p50,
        speedup: totals_qps,
    });
    entries.push(BenchEntry {
        experiment: "e16",
        engine: "windowed-totals-p99".into(),
        threads: 1,
        horizon: queries.len() as u64,
        median_ms: p99,
        speedup: 1.0,
    });

    // --- Full per-node analyses (allocates the per-node vector, so it is
    // the expensive tier; a quarter of the mix keeps the runtime flat). ---
    let full_queries = &queries[..queries.len() / 4];
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(full_queries.len());
    let wall = Instant::now();
    for q in full_queries {
        let t = Instant::now();
        let analysis = service.query(q.tenant, q.window.0, q.window.1).unwrap();
        latencies_ns.push(t.elapsed().as_nanos() as u64);
        checksum = checksum.wrapping_add(analysis.per_node.len() as u64);
    }
    let full_qps = full_queries.len() as f64 / wall.elapsed().as_secs_f64();
    latencies_ns.sort_unstable();
    let (p50, p99) = (percentile(&latencies_ns, 50), percentile(&latencies_ns, 99));
    table.push(&[
        "query (full per-node analysis)".into(),
        "1".into(),
        format!("{:.2}", p50 * 1e3),
        format!("{:.2}", p99 * 1e3),
        format!("{full_qps:.0}"),
        "- (informational)".into(),
    ]);
    entries.push(BenchEntry {
        experiment: "e16",
        engine: "windowed-full-qps".into(),
        threads: 1,
        horizon: full_queries.len() as u64,
        median_ms: p50,
        speedup: full_qps,
    });
    entries.push(BenchEntry {
        experiment: "e16",
        engine: "windowed-full-p99".into(),
        threads: 1,
        horizon: full_queries.len() as u64,
        median_ms: p99,
        speedup: 1.0,
    });

    // --- The plain loop: the same mix through `query_totals` with no
    // per-query clock, the baseline the batch front must beat. ---
    let wall = Instant::now();
    for q in &queries {
        let totals = service.query_totals(q.tenant, q.window.0, q.window.1).unwrap();
        checksum = checksum.wrapping_add(totals.total_happiness);
    }
    let loop_secs = wall.elapsed().as_secs_f64();
    let loop_qps = queries.len() as f64 / loop_secs;
    table.push(&[
        "query_totals plain loop (no per-query clock)".into(),
        "1".into(),
        "-".into(),
        "-".into(),
        format!("{loop_qps:.0}"),
        "- (informational)".into(),
    ]);
    entries.push(BenchEntry {
        experiment: "e16",
        engine: "windowed-totals-loop-qps".into(),
        threads: 1,
        horizon: queries.len() as u64,
        median_ms: loop_secs * 1e3,
        speedup: loop_qps,
    });

    // --- The batch front: the same mix through `query_batch`, sharded
    // across the pool in 4096-query slabs. ---
    let wall = Instant::now();
    let mut served = 0usize;
    for slab in queries.chunks(4096) {
        let responses = pool.install(|| service.query_batch(slab));
        served += responses.iter().filter(|r| r.is_ok()).count();
    }
    let batch_secs = wall.elapsed().as_secs_f64();
    let batch_qps = served as f64 / batch_secs;
    assert_eq!(served, queries.len(), "every batched query must be answerable");
    table.push(&[
        "query_batch (4096-query slabs)".into(),
        build_threads.to_string(),
        "-".into(),
        "-".into(),
        format!("{batch_qps:.0}"),
        // With one worker the batch front is the single-core path plus
        // slab bookkeeping, so the scaling criterion only binds when the
        // pool actually has parallelism.
        if build_threads > 1 {
            format!(">= single-core qps: {}", batch_qps >= totals_qps)
        } else {
            "- (single worker)".into()
        },
    ]);
    entries.push(BenchEntry {
        experiment: "e16",
        engine: "windowed-batch-qps".into(),
        threads: build_threads,
        horizon: queries.len() as u64,
        median_ms: batch_secs * 1e3,
        speedup: batch_qps,
    });

    // --- Cache observability: every query above resolved a registered
    // tenant's warm profile, so the counters must show pure hits. ---
    let stats = service.stats();
    assert_eq!(stats.misses, 0, "the e16 mix only queries registered tenants");
    assert_eq!(stats.rebuilds, built as u64, "one build per cold key, no fallbacks");
    table.push(&[
        "cache counters".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        format!(
            "hits={} misses={} patches={} rebuilds={} evictions={}",
            stats.hits, stats.misses, stats.patches, stats.rebuilds, stats.evictions
        ),
    ]);

    (vec![table], entries)
}

/// E17 — incremental profile repair under dynamic edge events: one
/// [`DynamicColorBound`] tenant on the `e12` conflict graph is cached by
/// the serving tier, then a fixed LCG stream of edge events (delete when
/// the drawn edge exists, insert otherwise) flows through
/// `DynamicColorBound::apply_event` and `ProfileService::patch`, which
/// repairs only the touched lanes of the cached closed form and re-tests
/// only the edges at the recoloured nodes.  The table compares the median
/// per-event repair against the full `CycleProfile::build` each event
/// would otherwise force (its rebuild baseline: the edge pass over every
/// edge plus the lane grouping), reports the service cache counters, and
/// hard-asserts the churned profile is content-identical (hence every
/// derived analysis is bitwise-identical) to rebuild-from-scratch oracles
/// on 1-, 2- and 8-thread pools.
/// Acceptance: median repair >= 25x cheaper than a full build (the
/// `criterion` column).
pub fn e17_incremental_repair_with(cfg: &AnalysisBenchConfig) -> (Vec<Table>, Vec<BenchEntry>) {
    use fhg_core::serving::{PatchOutcome, ProfileService};
    use fhg_graph::{EdgeEvent, EdgeEventKind};

    let graph = generators::erdos_renyi(cfg.nodes, cfg.edge_prob, cfg.seed);
    let mut sched = DynamicColorBound::new(&graph);
    let n = graph.node_count();

    let mut service = ProfileService::new();
    service.register(0, sched.graph(), &sched).expect("the dynamic tenant registers cleanly");
    assert_eq!(service.build_pending(), 1, "exactly one cold profile to build");

    // --- Full-rebuild baseline on the initial graph: what every edge
    // event would cost without the patch plane. ---
    let full_ms = {
        let view = sched.residue_schedule().expect("colour-bound schedules are periodic");
        let mut profile = CycleProfile::build(view, sched.first_holiday(), n, sched.graph());
        let ms = median_ms(cfg.reps, || {
            profile = CycleProfile::build(view, sched.first_holiday(), n, sched.graph());
        });
        assert!(profile.all_classes_independent(), "the colour bound keeps gatherings independent");
        ms
    };

    // --- The churn stream: LCG-drawn endpoints; delete when the edge is
    // present, insert otherwise, so the graph hovers around its seeded
    // density while the cached profile is patched event by event. ---
    let mut state = 0x000E_17C0_FFEE_u64 ^ cfg.seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 16
    };
    let events = cfg.churn_events;
    let mut per_event_ns: Vec<u64> = Vec::with_capacity(events);
    let (mut patched, mut fell_back) = (0usize, 0usize);
    for holiday in 0..events as u64 {
        let u = (next() % n as u64) as usize;
        let v = loop {
            let v = (next() % n as u64) as usize;
            if v != u {
                break v;
            }
        };
        let kind = if sched.graph().has_edge(u, v) {
            EdgeEventKind::Delete
        } else {
            EdgeEventKind::Insert
        };
        let repair = sched
            .apply_event(EdgeEvent { kind, u, v, holiday })
            .expect("drawn endpoints are in range and distinct");
        let t = Instant::now();
        let outcome = service.patch(0, &repair).expect("tenant 0 stays registered");
        per_event_ns.push(t.elapsed().as_nanos() as u64);
        match outcome {
            PatchOutcome::Patched(_) => patched += 1,
            PatchOutcome::Rebuilt => fell_back += 1,
            PatchOutcome::Cold => unreachable!("the tenant was built before the stream"),
        }
    }
    per_event_ns.sort_unstable();
    let patch_ms = per_event_ns[per_event_ns.len() / 2] as f64 / 1e6;
    let speedup = full_ms / patch_ms;

    // --- Parity: the served, event-patched profile must be
    // content-identical to a rebuild-from-scratch oracle of the final
    // schedule at every pool width. ---
    let served = service.profile(0).expect("the tenant stays warm through the stream");
    let view = sched.residue_schedule().expect("still perfectly periodic after churn");
    let mut parity_rows = Vec::new();
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let t0 = Instant::now();
        let oracle =
            pool.install(|| CycleProfile::build(view, sched.first_holiday(), n, sched.graph()));
        let oracle_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(
            served.content_eq(&oracle),
            "patched profile diverged from the {threads}-thread rebuild oracle"
        );
        parity_rows.push((threads, oracle_ms));
    }

    let stats = service.stats();
    assert_eq!(stats.patches as usize, patched, "every in-place repair is counted");
    assert_eq!(stats.rebuilds as usize, fell_back + 1, "cold build plus every fallback");

    let mut table = Table::new(
        format!(
            "E17 — incremental repair under edge churn on erdos_renyi({}, {}): {events} LCG \
             events, {patched} patched in place / {fell_back} fell back to rebuild (rebuild \
             medians of {})",
            cfg.nodes, cfg.edge_prob, cfg.reps
        ),
        &["path", "threads", "median ms", "vs full rebuild", "criterion"],
    );
    table.push(&[
        "full rebuild (per-event baseline)".into(),
        "1".into(),
        format!("{full_ms:.3}"),
        "1.00x".into(),
        "-".into(),
    ]);
    table.push(&[
        "service patch (in-place repair)".into(),
        "1".into(),
        format!("{patch_ms:.4}"),
        format!("{speedup:.1}x"),
        format!(">=25x vs rebuild: {}", speedup >= 25.0),
    ]);
    for &(threads, oracle_ms) in &parity_rows {
        table.push(&[
            format!("rebuild-from-scratch oracle ({threads} threads)"),
            threads.to_string(),
            format!("{oracle_ms:.3}"),
            "-".into(),
            "content parity with patched profile: true".into(),
        ]);
    }
    table.push(&[
        "cache counters".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        format!(
            "hits={} misses={} patches={} rebuilds={} evictions={}",
            stats.hits, stats.misses, stats.patches, stats.rebuilds, stats.evictions
        ),
    ]);

    let mut entries = vec![
        BenchEntry {
            experiment: "e17",
            engine: "full-rebuild".into(),
            threads: 1,
            horizon: events as u64,
            median_ms: full_ms,
            speedup: 1.0,
        },
        BenchEntry {
            experiment: "e17",
            engine: "repair-vs-rebuild".into(),
            threads: 1,
            horizon: events as u64,
            median_ms: patch_ms,
            speedup,
        },
    ];
    for (threads, oracle_ms) in parity_rows {
        entries.push(BenchEntry {
            experiment: "e17",
            engine: format!("patch-parity-{threads}t"),
            threads,
            horizon: events as u64,
            median_ms: oracle_ms,
            speedup: full_ms / oracle_ms,
        });
    }
    (vec![table], entries)
}

/// E18 — the crash-only serving tier under measurement: (a) the tax the
/// failpoint instrumentation puts on the `e16` windowed-serving qps path.
/// The acceptance criterion is the *disabled* tax — what the sites cost
/// with `FHG_FAILPOINTS` unset, the state every production run serves in:
/// per-hit cost of the compiled fast path (relaxed atomic loads) measured
/// head-on and expressed as a fraction of the per-query service time,
/// which must stay ≤ 2%.  An interleaved A/B against a registry armed on
/// an *unrelated* site (the worst case for clean code: every instrumented
/// site pays the registry lookup and misses) rides along as an
/// informational row; and (b) the median quarantine → rebuild
/// recovery latency: tenants are quarantined one at a time by an injected
/// `patch.after_rows` panic, the fault is cleared, and
/// [`repair_quarantined`](fhg_core::serving::ProfileService::repair_quarantined)
/// is timed rebuilding the slot cold.  Both land in `BENCH_analysis.json`
/// as the greppable `failpoint-overhead` and `quarantine-recovery` rows.
pub fn e18_crash_only_serving_with(cfg: &AnalysisBenchConfig) -> (Vec<Table>, Vec<BenchEntry>) {
    use fhg_core::failpoint;
    use fhg_core::serving::{PatchError, ProfileService, Query};
    use fhg_graph::{EdgeEvent, EdgeEventKind};

    // The registry is process-global: start from a known-disabled state
    // and hand whatever the environment pinned back at the end.
    failpoint::clear();

    let mut entries = Vec::new();
    let tenants = cfg.serve_tenants;

    // --- Part (a): the e16 serving tier, verbatim — same tenant sizing,
    // same LCG query mix — so the baseline row is directly comparable. ---
    let mut service = ProfileService::new();
    for i in 0..tenants {
        let n = 40 + (i % 17) * 2;
        let graph = generators::erdos_renyi(n, 4.0 / n as f64, 0xE16 ^ i as u64);
        let scheduler = PeriodicDegreeBound::new(&graph);
        service
            .register(i as u64, &graph, &scheduler)
            .expect("periodic tenants must register cleanly");
    }
    let build_threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(8);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(build_threads).build().unwrap();
    pool.install(|| service.build_pending());
    assert_eq!(service.warm_count(), service.key_count());

    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 16
    };
    let queries: Vec<Query> = (0..cfg.serve_queries)
        .map(|_| {
            let tenant = next() % tenants as u64;
            let t0 = next() % (1 << 16);
            let width = next() % (1 << 12);
            Query { tenant, window: (t0, t0 + width) }
        })
        .collect();

    // The sustained single-core totals path — zero failpoint sites, the
    // exact e16 acceptance loop — anchors the comparison.
    let mut checksum = 0u64;
    let wall = Instant::now();
    for q in &queries {
        let totals = service.query_totals(q.tenant, q.window.0, q.window.1).unwrap();
        checksum = checksum.wrapping_add(totals.total_happiness);
    }
    let totals_qps = queries.len() as f64 / wall.elapsed().as_secs_f64();
    assert!(checksum > 0, "the query mix must touch non-trivial windows");

    // The instrumented path: `query_batch` evaluates the `query.batch`
    // site (plus a `catch_unwind`) once per request.  One worker, so the
    // A/B difference is the failpoint machinery, not pool scheduling.
    let solo = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let run_batch = |service: &ProfileService, queries: &[Query]| -> f64 {
        let wall = Instant::now();
        let mut served = 0usize;
        for slab in queries.chunks(4096) {
            let responses = solo.install(|| service.query_batch(slab));
            served += responses.iter().filter(|r| r.is_ok()).count();
        }
        assert_eq!(served, queries.len(), "every batched query must be answerable");
        queries.len() as f64 / wall.elapsed().as_secs_f64()
    };
    // Warm caches before the A/B samples.
    run_batch(&service, &queries);

    // A shared host is bursty on scales of tens of milliseconds and up,
    // so any estimator that compares whole passes — medians, best-of-N,
    // even back-to-back pairs — flaps by several percent run to run,
    // swamping a sub-percent effect.  Interleave at slab granularity
    // instead: each 4096-query slab is served twice, disabled and armed,
    // milliseconds apart (order alternating to cancel bias), and each
    // side accumulates its own wall time across every pass.  Noise
    // bursts land on both sides almost equally, so the aggregate
    // throughput ratio isolates the failpoint machinery itself.
    let mut side_ns = [0u64; 2]; // [disabled, armed]
    let mut side_served = [0u64; 2];
    for pass in 0..2 * cfg.reps.max(1) {
        for (si, slab) in queries.chunks(4096).enumerate() {
            let order = if (pass + si) % 2 == 0 { [false, true] } else { [true, false] };
            for armed in order {
                if armed {
                    failpoint::configure_with_seed("e18.unrelated=err", 0xE18);
                } else {
                    failpoint::clear();
                }
                let wall = Instant::now();
                let responses = solo.install(|| service.query_batch(slab));
                let elapsed = wall.elapsed().as_nanos() as u64;
                let served = responses.iter().filter(|r| r.is_ok()).count();
                assert_eq!(served, slab.len(), "every batched query must be answerable");
                side_ns[armed as usize] += elapsed;
                side_served[armed as usize] += slab.len() as u64;
            }
        }
    }
    failpoint::clear();
    let disabled_qps = side_served[0] as f64 / (side_ns[0] as f64 / 1e9);
    let armed_qps = side_served[1] as f64 / (side_ns[1] as f64 / 1e9);
    let ratio = armed_qps / disabled_qps;
    let armed_pct = (1.0 - ratio) * 100.0;

    // The acceptance criterion is the *disabled* tax — what the
    // instrumentation costs the PR 7 qps path when `FHG_FAILPOINTS` is
    // unset, which is the state every production run serves in.  The
    // disabled site is one relaxed atomic load; measure it head-on with
    // a tight loop (stable even on a noisy host — the per-hit cost is
    // nanoseconds against a microsecond query) and express it as a
    // fraction of the measured per-query service time.  `query_batch`
    // evaluates exactly one site per request.
    let per_hit_ns = {
        let hits = 20_000_000u64;
        let mut live = 0u64;
        let wall = Instant::now();
        for _ in 0..hits {
            live += failpoint::check(black_box("query.batch")).is_some() as u64;
        }
        let ns = wall.elapsed().as_nanos() as f64 / hits as f64;
        assert_eq!(live, 0, "the disabled registry must never fire");
        ns
    };
    let per_query_ns = 1e9 / disabled_qps;
    let disabled_pct = per_hit_ns / per_query_ns * 100.0;

    let mut table = Table::new(
        format!(
            "E18 — crash-only serving: failpoint tax on the e16 qps path ({tenants} tenants, {} \
             LCG queries, {} slab-interleaved A/B passes) and quarantine → rebuild recovery",
            cfg.serve_queries,
            2 * cfg.reps.max(1)
        ),
        &["path", "threads", "median", "vs disabled", "criterion"],
    );
    table.push(&[
        "query_totals (e16 acceptance path, no sites)".into(),
        "1".into(),
        format!("{totals_qps:.0} q/s"),
        "-".into(),
        "- (baseline anchor)".into(),
    ]);
    table.push(&[
        "query_batch, failpoints disabled".into(),
        "1".into(),
        format!("{disabled_qps:.0} q/s"),
        "1.000x".into(),
        "-".into(),
    ]);
    table.push(&[
        "query_batch, armed on an unrelated site".into(),
        "1".into(),
        format!("{armed_qps:.0} q/s"),
        format!("{ratio:.3}x interleaved"),
        format!("armed tax {armed_pct:.2}% (registry lookup/query, informational)"),
    ]);
    table.push(&[
        "fail_point! check, disabled (per site hit)".into(),
        "1".into(),
        format!("{per_hit_ns:.1} ns"),
        format!("{disabled_pct:.4}% of a query"),
        format!("disabled tax <= 2%: {}", disabled_pct <= 2.0),
    ]);
    entries.push(BenchEntry {
        experiment: "e18",
        engine: "serving-baseline-qps".into(),
        threads: 1,
        horizon: queries.len() as u64,
        median_ms: 0.0,
        speedup: totals_qps,
    });
    entries.push(BenchEntry {
        experiment: "e18",
        engine: "failpoint-disabled-qps".into(),
        threads: 1,
        horizon: queries.len() as u64,
        median_ms: 0.0,
        speedup: disabled_qps,
    });
    entries.push(BenchEntry {
        experiment: "e18",
        // median_ms carries the disabled-site tax (% of a query, the
        // acceptance number); speedup carries the armed/disabled
        // interleaved qps ratio (informational).
        engine: "failpoint-overhead".into(),
        threads: 1,
        horizon: queries.len() as u64,
        median_ms: disabled_pct,
        speedup: ratio,
    });

    // --- Part (b): quarantine → rebuild recovery.  One dynamic tenant at
    // a time is killed past its commit point by an injected panic, the
    // fault is cleared, and the cold repair is timed. ---
    let samples = cfg.churn_events.clamp(8, 64);
    let mut dyn_service = ProfileService::new();
    let mut dyn_scheds: Vec<DynamicColorBound> = (0..samples)
        .map(|i| {
            let n = 48 + (i % 7) * 4;
            let graph = generators::erdos_renyi(n, 4.0 / n as f64, 0xE18 ^ i as u64);
            let sched = DynamicColorBound::new(&graph);
            dyn_service
                .register(i as u64, &graph, &sched)
                .expect("dynamic tenants must register cleanly");
            sched
        })
        .collect();
    pool.install(|| dyn_service.build_pending());

    // The injected panics below are all caught by the service's
    // `catch_unwind`; silence the default hook so they don't spray 64
    // backtraces over the report, and restore it afterwards.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut recovery_ns: Vec<u64> = Vec::with_capacity(samples);
    for (i, sched) in dyn_scheds.iter_mut().enumerate() {
        failpoint::configure_with_seed("patch.after_rows=panic", 0xE18 + i as u64);
        let n = sched.node_count();
        let (u, v) = (i % n, (i + 1 + i % (n - 1)) % n);
        let (u, v) = if u == v { (u, (v + 1) % n) } else { (u, v) };
        let kind = if sched.graph().has_edge(u, v) {
            EdgeEventKind::Delete
        } else {
            EdgeEventKind::Insert
        };
        let repair = sched
            .apply_event(EdgeEvent { kind, u, v, holiday: i as u64 })
            .expect("drawn endpoints are in range and distinct");
        let err = dyn_service.patch(i as u64, &repair);
        assert!(
            matches!(err, Err(PatchError::Quarantined(_))),
            "the injected commit-point panic must quarantine, got {err:?}"
        );
        failpoint::clear();
        let t = Instant::now();
        assert_eq!(dyn_service.repair_quarantined(), 1, "exactly one slot to repair");
        recovery_ns.push(t.elapsed().as_nanos() as u64);
    }
    std::panic::set_hook(hook);
    recovery_ns.sort_unstable();
    let recovery_ms = recovery_ns[recovery_ns.len() / 2] as f64 / 1e6;
    assert_eq!(dyn_service.quarantined_count(), 0, "every quarantined tenant recovered");
    assert_eq!(dyn_service.stats().quarantines as usize, samples);

    table.push(&[
        format!("quarantine -> rebuild recovery ({samples} tenants)"),
        "1".into(),
        format!("{recovery_ms:.4} ms"),
        "-".into(),
        "every quarantined tenant rebuilt warm: true".into(),
    ]);
    entries.push(BenchEntry {
        experiment: "e18",
        engine: "quarantine-recovery".into(),
        threads: 1,
        horizon: samples as u64,
        median_ms: recovery_ms,
        speedup: 1.0,
    });

    // Hand the registry back to whatever the environment pinned.
    failpoint::reset_to_env();
    (vec![table], entries)
}

/// E19 — durable serving (PR 10 acceptance): the checksummed snapshot
/// format is at least 3x denser than a naive `Vec<u64>` dump, a
/// 1024-tenant snapshot + recover round trip completes with every
/// uncorrupted slot **rehydrated** (never cold-built), and WAL replay
/// through the patch plane sustains a measured frames/s rate.
///
/// The experiment runs under whatever fault schedule `FHG_FAILPOINTS`
/// pins (the CI recovery-smoke step injects `wal.append` /
/// `recover.replay` faults): refused appends follow the
/// do-not-apply-on-`Err` protocol, faulted replays must land typed
/// quarantines, and the bitwise-convergence assertions are checked on
/// the fault-free configuration only.
pub fn e19_durable_recovery_with(cfg: &AnalysisBenchConfig) -> (Vec<Table>, Vec<BenchEntry>) {
    use fhg_core::failpoint;
    use fhg_core::serving::{ProfileService, WalSync, WalWriter};
    use fhg_graph::{EdgeEvent, EdgeEventKind};

    // Run under the environment's fault schedule (the smoke step pins
    // one); `chaos` below gates the fault-free-only assertions.
    failpoint::reset_to_env();
    let chaos = failpoint::active();

    let mut entries = Vec::new();
    let static_tenants = cfg.serve_tenants;
    const DYNAMIC_TENANTS: usize = 8;
    let total_tenants = static_tenants + DYNAMIC_TENANTS;

    // The e16 tenant population plus a dynamic cohort for WAL churn.
    // `naive_words` accumulates the baseline encoding: one u64 per scalar
    // — start, node counts, every (slot, modulus) pair, every adjacency
    // entry (both directions, as an adjacency list dump would store them),
    // degrees, and the verdict — per tenant, no sharing, no bit packing.
    let mut service = ProfileService::new();
    let mut naive_words: u64 = 0;
    let mut naive_of = |graph: &Graph, view_nodes: usize| {
        naive_words += 2 + 2 * view_nodes as u64 + 1; // start, n, (slot, modulus)*, verdict
        naive_words += 1; // graph node count
        for u in graph.nodes() {
            naive_words += 1 + graph.degree(u) as u64; // degree + neighbor list
        }
    };
    for i in 0..static_tenants {
        let n = 40 + (i % 17) * 2;
        let graph = generators::erdos_renyi(n, 4.0 / n as f64, 0xE16 ^ i as u64);
        let scheduler = PeriodicDegreeBound::new(&graph);
        service
            .register(i as u64, &graph, &scheduler)
            .expect("periodic tenants must register cleanly");
        naive_of(&graph, scheduler.residue_schedule().expect("periodic").node_count());
    }
    let mut dyn_scheds: Vec<DynamicColorBound> = (0..DYNAMIC_TENANTS)
        .map(|i| {
            let n = 48 + (i % 7) * 4;
            let graph = generators::erdos_renyi(n, 4.0 / n as f64, 0xE19 ^ i as u64);
            let sched = DynamicColorBound::new(&graph);
            service
                .register((static_tenants + i) as u64, &graph, &sched)
                .expect("dynamic tenants must register cleanly");
            naive_of(&graph, sched.node_count());
            sched
        })
        .collect();
    let build_threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(8);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(build_threads).build().unwrap();
    let initial_builds = pool.install(|| service.build_pending()) as u64;
    assert_eq!(service.warm_count(), service.key_count());

    // --- Snapshot density: the PR 10 acceptance criterion. ---
    let snapshot_bytes = service.snapshot_bytes().len() as u64;
    let naive_bytes = naive_words * 8;
    let bytes_per_tenant = snapshot_bytes as f64 / total_tenants as f64;
    let naive_per_tenant = naive_bytes as f64 / total_tenants as f64;
    let density = naive_bytes as f64 / snapshot_bytes as f64;
    assert!(
        snapshot_bytes * 3 <= naive_bytes,
        "snapshot encoding must be at least 3x denser than the naive Vec<u64> dump \
         ({snapshot_bytes} vs {naive_bytes} bytes)"
    );

    let dir = std::env::temp_dir().join(format!("fhg-e19-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // --- Snapshot wall time (atomic temp+rename+fsync included). ---
    let mut snap_ns: Vec<u64> = Vec::new();
    for _ in 0..cfg.reps.max(1) {
        let t = Instant::now();
        match service.snapshot(&dir) {
            Ok(stats) => {
                assert_eq!(stats.bytes, snapshot_bytes);
                snap_ns.push(t.elapsed().as_nanos() as u64);
            }
            Err(e) => {
                assert!(chaos, "snapshot failed without an armed fault schedule: {e}");
            }
        }
    }
    while snap_ns.is_empty() {
        // Every timed attempt died to injected faults: keep (unmeasured)
        // retries until one snapshot lands so the recovery half can run.
        if let Ok(stats) = service.snapshot(&dir) {
            assert_eq!(stats.bytes, snapshot_bytes);
            snap_ns.push(0);
        }
    }
    snap_ns.sort_unstable();
    let snap_ms = snap_ns[snap_ns.len() / 2] as f64 / 1e6;

    // --- WAL churn: toggle one initially-absent edge per dynamic tenant.
    // A refused append (injected `wal.append` fault) follows the
    // protocol: the event is NOT applied to the live service, and that
    // tenant's stream stops so log and service content stay in step. ---
    let mut wal = WalWriter::with_sync(&dir, WalSync::Always).expect("the WAL opens");
    let toggles: Vec<(usize, usize)> = dyn_scheds
        .iter()
        .map(|sched| {
            let g = sched.graph();
            let n = g.node_count();
            (0..n)
                .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
                .find(|&(a, b)| !g.has_edge(a, b))
                .expect("a sparse graph has absent edges")
        })
        .collect();
    let mut dirty = [false; DYNAMIC_TENANTS];
    let mut appended = 0u64;
    let churn = cfg.churn_events.max(DYNAMIC_TENANTS);
    let wal_wall = Instant::now();
    for step in 0..churn {
        let d = step % DYNAMIC_TENANTS;
        if dirty[d] {
            continue;
        }
        let tenant = (static_tenants + d) as u64;
        let (u, v) = toggles[d];
        let kind = if dyn_scheds[d].graph().has_edge(u, v) {
            EdgeEventKind::Delete
        } else {
            EdgeEventKind::Insert
        };
        let repair = dyn_scheds[d]
            .apply_event(EdgeEvent { kind, u, v, holiday: step as u64 })
            .expect("toggling an absent edge is always valid");
        match wal.append(tenant, &repair) {
            Ok(()) => {
                appended += 1;
                service.patch(tenant, &repair).expect("fault-free toggles patch cleanly");
            }
            Err(e) => {
                assert!(chaos, "append failed without an armed fault schedule: {e}");
                dirty[d] = true; // protocol: not applied, stream stops
            }
        }
    }
    let wal_append_ms = wal_wall.elapsed().as_secs_f64() * 1e3;
    drop(wal);
    let live_stats = service.stats();

    // --- Recover: snapshot load + rehydration + WAL replay + audit. ---
    let mut recover_ns: Vec<u64> = Vec::new();
    let mut last = None;
    for _ in 0..cfg.reps.max(1) {
        let t = Instant::now();
        let (recovered, report) =
            ProfileService::recover(&dir).expect("an intact snapshot always recovers");
        recover_ns.push(t.elapsed().as_nanos() as u64);
        last = Some((recovered, report));
    }
    recover_ns.sort_unstable();
    let recover_ms = recover_ns[recover_ns.len() / 2] as f64 / 1e6;
    let (recovered, report) = last.expect("at least one recovery ran");

    // The recovery ledger: every slot the snapshot held was rehydrated —
    // `CycleProfile::build` never ran for an uncorrupted slot — and the
    // only rebuilds are the ones the replayed patches themselves chose
    // (`build_pending` counts into `rebuilds`, so live = initial builds
    // plus churn rebuilds while recovery pays only the churn share).
    assert_eq!(report.slots_loaded, service.key_count());
    assert_eq!(report.tenants_restored, total_tenants);
    assert_eq!(report.profiles_rehydrated, service.key_count(), "every warm slot rehydrates");
    assert!(!report.snapshot_torn && !report.wal_torn, "the writer was never killed mid-file");
    let replay_rate =
        if recover_ms > 0.0 { report.wal_frames_replayed as f64 / (recover_ms / 1e3) } else { 0.0 };
    if !chaos {
        assert_eq!(appended, churn as u64, "no injected faults: every append lands");
        assert_eq!(report.wal_frames_replayed as u64, appended);
        assert_eq!(report.quarantined, 0);
        let rec_stats = recovered.stats();
        assert_eq!(
            rec_stats.rebuilds,
            live_stats.rebuilds - initial_builds,
            "recovery must add no cold build beyond what live churn chose"
        );
        assert_eq!(rec_stats.patches, live_stats.patches);
        for t in 0..total_tenants as u64 {
            let live = service.profile(t).expect("live tenant is warm");
            let rec = recovered.profile(t).expect("recovered tenant is warm");
            assert!(rec.content_eq(live), "tenant {t} must recover bitwise-equal");
            let cycle = live.cycle();
            assert_eq!(
                service.query_totals(t, 1, 2 * cycle + 3).expect("live answers"),
                recovered.query_totals(t, 1, 2 * cycle + 3).expect("recovered answers"),
                "tenant {t}: windowed answers must be bitwise-stable across recovery"
            );
        }
    } else {
        // Under injected faults the contract is the typed degraded path:
        // every tenant is warm or quarantined, never silently wrong.
        for t in 0..total_tenants as u64 {
            assert!(
                recovered.profile(t).is_some() || recovered.quarantine_reason(t).is_some(),
                "tenant {t}: must recover warm or typed-quarantined under chaos"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut table = Table::new(
        format!(
            "E19 — durable serving: snapshot density, {total_tenants}-tenant snapshot + recover \
             wall time, and WAL replay rate ({appended} frames{})",
            if chaos { ", under the environment-pinned fault schedule" } else { "" }
        ),
        &["path", "threads", "median", "vs naive", "criterion"],
    );
    table.push(&[
        "snapshot bytes/tenant (sections + FNV checksums)".into(),
        "1".into(),
        format!("{bytes_per_tenant:.1} B"),
        format!("{density:.2}x denser than {naive_per_tenant:.0} B naive"),
        format!("<= 1/3 of naive Vec<u64>: {}", snapshot_bytes * 3 <= naive_bytes),
    ]);
    table.push(&[
        format!("snapshot write ({} slots, atomic rename + fsync)", service.key_count()),
        "1".into(),
        format!("{snap_ms:.3} ms"),
        "-".into(),
        "-".into(),
    ]);
    table.push(&[
        format!(
            "recover ({} slots rehydrated, {} frames replayed, audit sample)",
            report.profiles_rehydrated, report.wal_frames_replayed
        ),
        "1".into(),
        format!("{recover_ms:.3} ms"),
        "-".into(),
        format!(
            "zero cold builds for uncorrupted slots: {}",
            report.profiles_rehydrated == service.key_count()
        ),
    ]);
    table.push(&[
        format!("WAL append ({appended} frames, sync=always)"),
        "1".into(),
        format!("{wal_append_ms:.3} ms"),
        "-".into(),
        "-".into(),
    ]);
    entries.push(BenchEntry {
        experiment: "e19",
        // median_ms carries bytes/tenant; speedup the density ratio vs
        // the naive Vec<u64> dump (acceptance: >= 3).
        engine: "snapshot-bytes-per-tenant".into(),
        threads: 1,
        horizon: total_tenants as u64,
        median_ms: bytes_per_tenant,
        speedup: density,
    });
    entries.push(BenchEntry {
        experiment: "e19",
        engine: "snapshot-wall".into(),
        threads: 1,
        horizon: total_tenants as u64,
        median_ms: snap_ms,
        speedup: 1.0,
    });
    entries.push(BenchEntry {
        experiment: "e19",
        engine: "recover-wall".into(),
        threads: 1,
        horizon: total_tenants as u64,
        median_ms: recover_ms,
        speedup: 1.0,
    });
    entries.push(BenchEntry {
        experiment: "e19",
        // median_ms carries the replayed frame count; speedup the
        // frames/s replay rate through the patch plane.
        engine: "wal-replay-rate".into(),
        threads: 1,
        horizon: appended,
        median_ms: report.wal_frames_replayed as f64,
        speedup: replay_rate,
    });

    failpoint::reset_to_env();
    (vec![table], entries)
}

/// E20 — the one-shot edge pass on the flat graph: `analyze_schedule`,
/// `analyze_schedule_totals`, and the totals call on an edgeless graph of
/// the same size, for `PeriodicDegreeBound` over 4096 holidays of
/// `erdos_renyi(nodes, p)` (medians of `runs`, single-threaded).  The two
/// totals rows differ by the edge pass alone.  The experiments run it at
/// one fixed size, `--smoke` included, because its `full < 0.5 ms`
/// criterion is stated for `erdos_renyi(10_000, 0.001)`.
fn e20_edge_pass(nodes: usize, p: f64, runs: usize) -> (Vec<Table>, Vec<BenchEntry>) {
    const HORIZON: u64 = 4096;
    let graph = generators::erdos_renyi(nodes, p, 42);
    let edgeless = Graph::new(nodes);
    let mut scheduler = PeriodicDegreeBound::new(&graph);
    let full = median_ms(runs, || {
        black_box(analyze_schedule(&graph, &mut scheduler, HORIZON));
    });
    let totals = median_ms(runs, || {
        black_box(analyze_schedule_totals(&graph, &mut scheduler, HORIZON));
    });
    let edgeless_totals = median_ms(runs, || {
        black_box(analyze_schedule_totals(&edgeless, &mut scheduler, HORIZON));
    });
    let mut table = Table::new(
        format!(
            "E20 — the edge pass on erdos_renyi({nodes}, {p}) ({} edges), periodic-degree-bound, \
             {HORIZON} holidays (medians of {runs}, single-threaded)",
            graph.edge_count()
        ),
        &["call", "graph", "median ms", "full < 0.5 ms"],
    );
    let rows = [
        ("analyze_schedule", "full", "erdos-renyi", full),
        ("analyze_schedule_totals", "totals", "erdos-renyi", totals),
        ("analyze_schedule_totals", "totals-edgeless", "edgeless", edgeless_totals),
        ("edge pass (difference)", "edge-pass", "erdos-renyi", totals - edgeless_totals),
    ];
    let mut entries = Vec::new();
    for (call, engine, graph_label, ms) in rows {
        let criterion = if engine == "full" { (full < 0.5).to_string() } else { "-".to_string() };
        table.push(&[call.to_string(), graph_label.to_string(), format!("{ms:.3}"), criterion]);
        entries.push(BenchEntry {
            experiment: "e20",
            engine: engine.to_string(),
            threads: 1,
            horizon: HORIZON,
            median_ms: ms,
            speedup: full / ms,
        });
    }
    (vec![table], entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny configuration for structural tests (no perf assertions).
    fn tiny_cfg() -> AnalysisBenchConfig {
        AnalysisBenchConfig {
            nodes: 120,
            edge_prob: 0.05,
            seed: 7,
            horizon: 128,
            long_horizon: 4096,
            build_nodes: 64,
            build_moduli: (8, 27),
            reps: 1,
            serve_tenants: 12,
            serve_queries: 512,
            churn_events: 32,
        }
    }

    /// `e18` arms the process-global failpoint registry; any test that
    /// drives `ProfileService::patch` (which `e17` does) must not overlap
    /// with it, so both serialize here.
    static FAILPOINT_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn experiment_ids_are_wired_up() {
        assert_eq!(EXPERIMENT_IDS.len(), 20);
    }

    #[test]
    fn e20_reports_the_three_calls_and_the_edge_pass() {
        let (tables, entries) = e20_edge_pass(300, 0.02, 3);
        assert_eq!(tables.len(), 1);
        let md = tables[0].to_markdown();
        assert!(md.contains("full < 0.5 ms"), "{md}");
        assert!(md.contains("edgeless"), "{md}");
        let engines: Vec<&str> = entries.iter().map(|e| e.engine.as_str()).collect();
        assert_eq!(engines, ["full", "totals", "totals-edgeless", "edge-pass"]);
        assert!(entries.iter().all(|e| e.experiment == "e20" && e.horizon == 4096));
    }

    #[test]
    fn e16_reports_throughput_and_tail_latency_rows() {
        let (tables, entries) = run_experiment_collecting("e16", &tiny_cfg());
        assert_eq!(tables.len(), 1);
        let md = tables[0].to_markdown();
        assert!(md.contains("query_totals"), "{md}");
        assert!(md.contains("query_batch"), "{md}");
        assert!(md.contains("cache counters"), "{md}");
        assert!(md.contains("hits="), "{md}");
        for engine in [
            "profile-build",
            "windowed-totals-qps",
            "windowed-totals-p99",
            "windowed-totals-loop-qps",
            "windowed-batch-qps",
        ] {
            assert!(entries.iter().any(|e| e.engine == engine), "missing {engine} row");
        }
        let qps = entries.iter().find(|e| e.engine == "windowed-totals-qps").unwrap();
        assert!(qps.speedup > 0.0, "qps rides the speedup field");
        let json = bench_entries_to_json(true, &entries);
        assert!(json.contains("windowed-totals-p99"));
    }

    #[test]
    fn e11_and_e12_report_entries_and_json() {
        let cfg = tiny_cfg();
        let (tables, entries) = run_experiment_collecting("e11", &cfg);
        assert_eq!(tables.len(), 2);
        assert_eq!(entries.len(), 8, "reference and production rows, then 3 per stateful");
        assert!(entries.iter().any(|e| e.engine == "closed-form-progression"));
        assert!((entries[0].speedup - 1.0).abs() < 1e-9, "baseline speedup is 1");
        assert!(!tables[0].to_markdown().contains("| false |"));
        for (engine, threads) in [
            ("phased-greedy-reference", 1),
            ("phased-greedy-analyze", rayon::current_num_threads()),
            ("phased-greedy-emit", 1),
            ("first-come-first-grab-reference", 1),
            ("first-come-first-grab-analyze", rayon::current_num_threads()),
            ("first-come-first-grab-emit", 1),
        ] {
            let entry = entries.iter().find(|e| e.engine == engine).expect(engine);
            assert_eq!(entry.horizon, STATEFUL_HORIZON, "{engine}");
            assert_eq!(entry.threads, threads, "{engine}");
        }

        let (tables, entries) = run_experiment_collecting("e12", &cfg);
        assert_eq!(tables.len(), 1);
        assert_eq!(entries.len(), 3, "2x closed form, derive-only rows");
        let md = tables[0].to_markdown();
        assert!(md.contains("closed-form progression"));
        assert!(md.contains("derive only (lane fold)"));
        assert!(!md.contains("| false |"), "every engine must match the reference: {md}");

        let json = bench_entries_to_json(true, &entries);
        assert!(json.contains("\"schema\": \"fhg-bench-analysis/1\""));
        assert!(json.contains("\"smoke\": true"));
        assert_eq!(json.matches("\"experiment\": \"e12\"").count(), 3);
        assert!(!json.contains(",\n  ]"), "no trailing comma before the array close");
    }

    #[test]
    fn e14_reports_derive_and_build_rows_with_parity() {
        let cfg = tiny_cfg();
        // The parity cross-check (totals vs reduced full derive) asserts
        // inside e14.
        let (tables, entries) = run_experiment_collecting("e14", &cfg);
        assert_eq!(tables.len(), 2, "derivation table plus the build table");
        let derive_md = tables[0].to_markdown();
        assert!(derive_md.contains("totals-only"));
        assert!(derive_md.contains("closed-form end-to-end"));
        assert!(!derive_md.contains("AoS"), "the AoS baseline rows are gone: {derive_md}");
        let build_md = tables[1].to_markdown();
        assert!(build_md.contains("profile build (edge pass + lane grouping)"));
        assert_eq!(
            entries.iter().filter(|e| e.engine == "profile-build").count(),
            1,
            "one single-thread build row"
        );
        assert_eq!(
            entries.iter().filter(|e| e.engine.starts_with("long-cycle-")).count(),
            2,
            "the long-cycle derive rows"
        );
        assert!(entries.iter().all(|e| e.experiment == "e14"));
        let json = bench_entries_to_json(true, &entries);
        assert_eq!(json.matches("\"experiment\": \"e14\"").count(), entries.len());
    }

    #[test]
    fn e15_reports_per_class_and_end_to_end_rows() {
        // Tiny configuration: structure + the internal verdict asserts, no
        // perf criteria evaluated at this size beyond being printed.
        let cfg = tiny_cfg();
        let (tables, entries) = run_experiment_collecting("e15", &cfg);
        assert_eq!(tables.len(), 1, "one table: per-class, plus end-to-end");
        let md = tables[0].to_markdown();
        assert!(md.contains("per-class"));
        assert!(entries.iter().all(|e| e.experiment == "e15"));
        assert_eq!(entries.len(), 2, "the per-class and end-to-end rows");
        assert!(entries.iter().any(|e| e.engine == "per-class-check-csr"));
        assert!(entries.iter().any(|e| e.engine == "closed-form-end-to-end-progression"));
        let json = bench_entries_to_json(true, &entries);
        assert_eq!(json.matches("\"experiment\": \"e15\"").count(), entries.len());
    }

    #[test]
    fn e13_reports_all_paths_and_agreeing_checksums() {
        // Tiny configuration: structure + kernel-level parity (the checksum
        // asserts inside e13), no perf assertions.
        let cfg = AnalysisBenchConfig {
            nodes: 150,
            edge_prob: 0.04,
            seed: 11,
            horizon: 96,
            long_horizon: 1024,
            build_nodes: 48,
            build_moduli: (4, 9),
            reps: 1,
            serve_tenants: 8,
            serve_queries: 128,
            churn_events: 32,
        };
        let (tables, entries) = run_experiment_collecting("e13", &cfg);
        assert_eq!(tables.len(), 2, "timing table plus the parity witness");
        assert_eq!(entries.len(), 4, "scalar, portable, dispatched, end-to-end");
        assert!((entries[0].speedup - 1.0).abs() < 1e-9, "scalar baseline speedup is 1");
        assert!(entries.iter().any(|e| e.engine.contains("fused-gather+popcount")));
        let parity = tables[1].to_markdown();
        assert!(!parity.contains("| false |"), "every engine must match the reference: {parity}");
    }

    #[test]
    fn e17_reports_repair_and_parity_rows() {
        // Tiny configuration: the per-event patches, the fallback path and
        // the 1/2/8-thread rebuild-oracle parity all assert inside e17; the
        // >=25x criterion is printed, not evaluated, at this size.
        let _guard = FAILPOINT_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let (tables, entries) = run_experiment_collecting("e17", &tiny_cfg());
        assert_eq!(tables.len(), 1);
        let md = tables[0].to_markdown();
        assert!(md.contains("service patch"), "{md}");
        assert!(md.contains("rebuild-from-scratch oracle"), "{md}");
        assert!(md.contains("cache counters"), "{md}");
        for engine in [
            "full-rebuild",
            "repair-vs-rebuild",
            "patch-parity-1t",
            "patch-parity-2t",
            "patch-parity-8t",
        ] {
            assert!(entries.iter().any(|e| e.engine == engine), "missing {engine} row");
        }
        let repair = entries.iter().find(|e| e.engine == "repair-vs-rebuild").unwrap();
        assert!(repair.speedup > 0.0, "the repair row carries the speedup ratio");
        let json = bench_entries_to_json(true, &entries);
        assert!(json.contains("repair-vs-rebuild"));
        assert!(json.contains("patch-parity-8t"));
    }

    #[test]
    fn e18_reports_overhead_and_recovery_rows() {
        let _guard = FAILPOINT_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let (tables, entries) = run_experiment_collecting("e18", &tiny_cfg());
        assert_eq!(tables.len(), 1);
        let md = tables[0].to_markdown();
        assert!(md.contains("failpoints disabled"), "{md}");
        assert!(md.contains("armed on an unrelated site"), "{md}");
        assert!(md.contains("disabled tax <= 2%: true"), "{md}");
        assert!(md.contains("quarantine -> rebuild recovery"), "{md}");
        for engine in [
            "serving-baseline-qps",
            "failpoint-disabled-qps",
            "failpoint-overhead",
            "quarantine-recovery",
        ] {
            assert!(entries.iter().any(|e| e.engine == engine), "missing {engine} row");
        }
        let recovery = entries.iter().find(|e| e.engine == "quarantine-recovery").unwrap();
        assert!(recovery.median_ms > 0.0, "a cold rebuild takes measurable time");
        let json = bench_entries_to_json(true, &entries);
        assert!(json.contains("failpoint-overhead"));
        assert!(json.contains("quarantine-recovery"));
        assert!(!fhg_core::failpoint::active(), "e18 must leave the registry as it found it");
    }

    #[test]
    fn e19_reports_density_and_recovery_rows() {
        let _guard = FAILPOINT_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let (tables, entries) = run_experiment_collecting("e19", &tiny_cfg());
        assert_eq!(tables.len(), 1);
        let md = tables[0].to_markdown();
        assert!(md.contains("snapshot bytes/tenant"), "{md}");
        assert!(md.contains("<= 1/3 of naive Vec<u64>: true"), "{md}");
        assert!(md.contains("frames replayed"), "{md}");
        assert!(md.contains("zero cold builds for uncorrupted slots: true"), "{md}");
        for engine in
            ["snapshot-bytes-per-tenant", "snapshot-wall", "recover-wall", "wal-replay-rate"]
        {
            assert!(entries.iter().any(|e| e.engine == engine), "missing {engine} row");
        }
        let density = entries.iter().find(|e| e.engine == "snapshot-bytes-per-tenant").unwrap();
        assert!(density.speedup >= 3.0, "the density ratio rides the speedup field");
        let replay = entries.iter().find(|e| e.engine == "wal-replay-rate").unwrap();
        assert!(replay.speedup > 0.0, "frames/s rides the speedup field");
        let json = bench_entries_to_json(true, &entries);
        assert!(json.contains("snapshot-bytes-per-tenant"));
        assert!(json.contains("recover-wall"));
    }

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_id_panics() {
        run_experiment("e99");
    }

    #[test]
    fn e3_table_shows_the_expected_feasibility_split() {
        let tables = e3_lower_bound();
        assert_eq!(tables.len(), 1);
        let md = tables[0].to_markdown();
        assert!(md.contains("linear"));
        assert!(md.contains("Elias omega"));
        assert_eq!(tables[0].row_count(), 4);
    }

    #[test]
    fn e4_ablation_reports_zero_conflicts_for_the_paper_order() {
        let tables = e4_periodic_degree_bound();
        let md = tables[1].to_markdown();
        let paper_row: Vec<&str> =
            md.lines().find(|l| l.contains("decreasing degree")).unwrap().split('|').collect();
        assert!(
            paper_row[2].trim().parse::<u64>().unwrap() == 0,
            "paper order must be conflict-free"
        );
        assert!(paper_row[3].trim().parse::<u64>().unwrap() == 0, "paper order must never fail");
    }

    #[test]
    fn e2_analytic_table_never_exceeds_the_bound() {
        let tables = e2_elias_omega_periods();
        let md = tables[0].to_markdown();
        for line in
            md.lines().filter(|l| l.starts_with('|') && !l.contains("colour") && !l.contains("---"))
        {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            if cells.len() >= 6 && !cells[5].is_empty() {
                if let Ok(ratio) = cells[5].parse::<f64>() {
                    assert!(ratio <= 1.0 + 1e-9, "period exceeded the Theorem 4.2 bound: {line}");
                }
            }
        }
    }
}
