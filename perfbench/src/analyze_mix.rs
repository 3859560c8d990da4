//! `analyze-mix`: one-shot analyses run back to back by one client through
//! `analyze_schedule`, on a pool sized to the core count.
//!
//! The job list is fixed by the seed: graphs of four families over a grid
//! of sizes and mean degrees (see [`cells`]), the six periodic members of
//! `standard_suite` on every graph at four horizons, one mixed-coprime
//! residue schedule, and the two stateful schedulers at 1024 holidays on
//! some graphs of at most 10 000 nodes.  Jobs are classed by scheduler
//! type: periodic jobs are `op`, stateful jobs `op2`.  Every job's first
//! answer is checked against `analyze_schedule_reference` (short jobs) or
//! the progression oracle (long jobs); every later answer must equal the
//! first.

use std::time::Instant;

use fhg_core::analysis::{
    analyze_schedule, analyze_schedule_reference, AnalysisEngine, CycleProfile, GraphChecker,
    HolidayChecker,
};
use fhg_core::schedulers::residue::ResidueSchedule;
use fhg_core::schedulers::{
    DistributedDegreeBound, FirstComeFirstGrab, PeriodicDegreeBound, PhasedGreedy,
    PrefixCodeScheduler, RoundRobinColoring, TrivialSequential,
};
use fhg_core::{ScheduleAnalysis, Scheduler};
use fhg_graph::generators::Family;
use fhg_graph::{Graph, HappySet, NodeId};

use crate::oracle::{self, Verdict};
use crate::trace::Tracer;
use crate::util::{median, ns_since, p99, Rng};
use crate::{put, timed_setup, Config, Ledger, Metrics, Scale};

/// The fixed mid-length periodic horizon.
const MID_HORIZON: u64 = 4096;
/// Jobs with `horizon × nodes` up to this are checked against the
/// sequential reference (which verifies every holiday); longer ones
/// against the progression oracle.
const REFERENCE_WORK: u64 = 1 << 23;
/// The stateful jobs' horizon.
const STATEFUL_HORIZON: u64 = 1024;
/// The largest periodic horizon.
const LONG_HORIZON: u64 = 1 << 20;
const FAMILIES: [Family; 4] =
    [Family::ErdosRenyi, Family::UnitDisk, Family::BarabasiAlbert, Family::BipartiteVillages];

/// One graph of the job list.
struct Cell {
    n: usize,
    degree: f64,
    family: Family,
    /// Whether the stateful schedulers run on it too.
    stateful: bool,
}

/// The graphs.  The smallest size is generated in all four families, the
/// larger sizes in two, the pairs rotating so every family meets every
/// size; the stateful schedulers run on two families of the smallest size.
/// The 100 000-node cell is one Erdős–Rényi graph: Barabási–Albert hubs
/// would push the degree-bound schedules past the profile's attendance
/// budget, so their long horizons would fall to the per-holiday sweep and
/// one job would run for minutes.
fn cells(scale: Scale) -> Vec<Cell> {
    let grid: Vec<(usize, f64)> = match scale {
        Scale::Full => {
            [2048, 10_000, 16_384].iter().flat_map(|&n| [4.0, 10.0, 32.0].map(|d| (n, d))).collect()
        }
        Scale::Small => vec![(128, 4.0), (256, 10.0), (512, 4.0)],
    };
    let smallest = grid[0].0;
    let mut cells = Vec::new();
    for (c, &(n, degree)) in grid.iter().enumerate() {
        let families = if n == smallest { 4 } else { 2 };
        for k in 0..families {
            let family = FAMILIES[(c + k) % 4];
            cells.push(Cell { n, degree, family, stateful: n == smallest && k < 2 });
        }
    }
    let big = if scale == Scale::Full { 100_000 } else { 2048 };
    cells.push(Cell { n: big, degree: 4.0, family: Family::ErdosRenyi, stateful: false });
    cells
}

/// The two-village marriage model: nodes `0..a` and `a..a+b`, each
/// inter-village pair an edge with probability `p`, drawn by geometric
/// skipping over the `a·b` pairs so large villages cost `O(a + b + m)`.
fn villages(n: usize, degree: f64, rng: &mut Rng) -> Graph {
    let (a, b) = (n / 2, n - n / 2);
    let p = (degree / b as f64).min(1.0);
    let mut g = Graph::new(n);
    let pairs = (a * b) as u64;
    let log_q = (1.0 - p).ln();
    let mut i: u64 = 0;
    loop {
        let r = rng.unit().max(f64::EPSILON);
        i += (r.ln() / log_q).floor() as u64;
        if i >= pairs {
            return g;
        }
        let (u, v) = ((i / b as u64) as usize, a + (i % b as u64) as usize);
        g.add_edge(u, v).expect("each pair is visited once");
        i += 1;
    }
}

fn generate(family: Family, n: usize, degree: f64, rng: &mut Rng) -> Graph {
    match family {
        Family::BipartiteVillages => villages(n, degree, rng),
        other => other.generate(n, degree, rng.seed()),
    }
}

/// A seeded residue schedule behind the `Scheduler` trait: the
/// mixed-coprime-moduli shape whose cycle the degree-bound schedulers never
/// produce.
struct ResidueJob {
    view: ResidueSchedule,
}

impl Scheduler for ResidueJob {
    fn node_count(&self) -> usize {
        self.view.node_count()
    }
    fn fill_happy_set(&mut self, t: u64, out: &mut HappySet) {
        self.view.fill(t, out);
    }
    fn name(&self) -> &'static str {
        "mixed-coprime-residue"
    }
    fn is_periodic(&self) -> bool {
        true
    }
    fn period(&self, p: NodeId) -> Option<u64> {
        Some(self.view.modulus(p))
    }
    fn unhappiness_bound(&self, p: NodeId) -> Option<u64> {
        Some(self.view.modulus(p))
    }
    fn residue_schedule(&self) -> Option<&ResidueSchedule> {
        Some(&self.view)
    }
}

fn residue_job(scale: Scale, rng: &mut Rng) -> (Graph, ResidueJob) {
    let (n, (ma, mb)) = match scale {
        Scale::Full => (4096, (128u64, 625u64)),
        Scale::Small => (256, (8, 27)),
    };
    let mut moduli: Vec<u64> = (0..n).map(|p| if p % 2 == 0 { ma } else { mb }).collect();
    shuffle(&mut moduli, rng);
    let slots = moduli.iter().map(|&m| rng.below(m)).collect();
    // Edgeless, as in the e14b build experiment: no class short-circuits.
    (Graph::new(n), ResidueJob { view: ResidueSchedule::new(slots, moduli) })
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// A stateful scheduler template; every job runs a fresh clone.
#[derive(Clone)]
enum Stateful {
    Phased(PhasedGreedy),
    Grab(FirstComeFirstGrab),
}

impl Stateful {
    fn fresh(&self) -> Box<dyn Scheduler> {
        match self {
            Stateful::Phased(s) => Box::new(s.clone()),
            Stateful::Grab(s) => Box::new(s.clone()),
        }
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Periodic(usize),
    Stateful(usize),
}

#[derive(Clone, Copy)]
struct Job {
    kind: Kind,
    horizon: u64,
}

struct Setup {
    graphs: Vec<Graph>,
    periodic: Vec<(usize, Box<dyn Scheduler>)>,
    stateful: Vec<(usize, Stateful)>,
    jobs: Vec<Job>,
}

fn setup(cfg: &Config) -> Setup {
    let mut rng = Rng::new(cfg.seed, 0xA1);
    let cells = cells(cfg.scale);
    let mut graphs: Vec<Graph> =
        cells.iter().map(|c| generate(c.family, c.n, c.degree, &mut rng)).collect();
    let mut periodic: Vec<(usize, Box<dyn Scheduler>)> = Vec::new();
    let mut stateful = Vec::new();
    for (g, graph) in graphs.iter().enumerate() {
        periodic.push((g, Box::new(TrivialSequential::new(graph))));
        periodic.push((g, Box::new(RoundRobinColoring::new(graph))));
        periodic.push((g, Box::new(PrefixCodeScheduler::omega(graph))));
        periodic.push((g, Box::new(PrefixCodeScheduler::gamma(graph))));
        periodic.push((g, Box::new(PeriodicDegreeBound::new(graph))));
        periodic.push((g, Box::new(DistributedDegreeBound::new(graph, rng.seed()))));
        if cells[g].stateful {
            stateful.push((g, Stateful::Phased(PhasedGreedy::new(graph))));
            stateful.push((g, Stateful::Grab(FirstComeFirstGrab::new(graph, rng.seed()))));
        }
    }
    let (graph, job) = residue_job(cfg.scale, &mut rng);
    graphs.push(graph);
    periodic.push((graphs.len() - 1, Box::new(job)));

    let mut jobs = Vec::new();
    for (i, (_, sched)) in periodic.iter().enumerate() {
        let cycle = sched.schedule_cycle().expect("periodic schedulers expose a cycle");
        let ragged = if cycle > 1 { rng.range(1, cycle - 1) } else { 0 };
        for horizon in [cycle - 1, MID_HORIZON, 8 * cycle + ragged, LONG_HORIZON] {
            jobs.push(Job { kind: Kind::Periodic(i), horizon });
        }
    }
    for i in 0..stateful.len() {
        jobs.push(Job { kind: Kind::Stateful(i), horizon: STATEFUL_HORIZON });
    }
    shuffle(&mut jobs, &mut rng);
    Setup { graphs, periodic, stateful, jobs }
}

/// Runs `job` (a stateful job on a fresh clone made before the timer
/// starts) and returns the analysis with its wall time.
fn run_job(s: &mut Setup, job: Job, tracer: &mut Tracer) -> (ScheduleAnalysis, u64) {
    let Setup { graphs, periodic, stateful, .. } = s;
    let (graph, mut fresh);
    let sched: &mut dyn Scheduler = match job.kind {
        Kind::Periodic(i) => {
            graph = &graphs[periodic[i].0];
            periodic[i].1.as_mut()
        }
        Kind::Stateful(i) => {
            graph = &graphs[stateful[i].0];
            fresh = stateful[i].1.fresh();
            fresh.as_mut()
        }
    };
    let t = Instant::now();
    let analysis = tracer.op("analyze.job", |tr| {
        tr.call("analysis::analyze_schedule", || analyze_schedule(graph, sched, job.horizon))
    });
    (analysis, ns_since(t))
}

/// The first-answer check: reference for short jobs and stateful
/// schedulers, the progression oracle for long periodic jobs.
fn check(s: &mut Setup, job: Job, got: &ScheduleAnalysis) -> bool {
    match job.kind {
        Kind::Stateful(i) => {
            let graph = &s.graphs[s.stateful[i].0];
            let mut fresh = s.stateful[i].1.fresh();
            oracle::analysis_eq(
                got,
                &analyze_schedule_reference(graph, fresh.as_mut(), job.horizon),
            )
        }
        Kind::Periodic(i) => {
            let (g, sched) = &mut s.periodic[i];
            let graph = &s.graphs[*g];
            if job.horizon.saturating_mul(graph.node_count() as u64) <= REFERENCE_WORK {
                let reference = analyze_schedule_reference(graph, sched.as_mut(), job.horizon);
                oracle::analysis_eq(got, &reference)
            } else {
                let view = sched.residue_schedule().expect("periodic");
                let want = oracle::totals(
                    view,
                    graph,
                    sched.first_holiday(),
                    (0, job.horizon),
                    Verdict::Prefix(job.horizon),
                );
                oracle::totals_eq(&got.totals(), &want)
            }
        }
    }
}

/// One pass over the job list, checking each answer against `expected`.
struct Pass {
    periodic_ns: Vec<u64>,
    stateful_ns: Vec<u64>,
    wall_ns: u64,
}

fn pass(s: &mut Setup, expected: &[u64], tracer: &mut Tracer, ledger: &mut Ledger) -> Pass {
    let mut out = Pass { periodic_ns: Vec::new(), stateful_ns: Vec::new(), wall_ns: 0 };
    for (j, &want) in expected.iter().enumerate() {
        let job = s.jobs[j];
        let (analysis, ns) = run_job(s, job, tracer);
        out.wall_ns += ns;
        match job.kind {
            Kind::Periodic(_) => out.periodic_ns.push(ns),
            Kind::Stateful(_) => out.stateful_ns.push(ns),
        }
        ledger.op(oracle::analysis_hash(&analysis) == want, || {
            format!("analyze job {j} changed its answer")
        });
    }
    out
}

pub fn run(cfg: &Config, ledger: &mut Ledger) -> Metrics {
    let (mut s, setup_s) = timed_setup(cfg, || setup(cfg));
    let mut tracer = Tracer::new(false);

    // Check pass: every job's first answer against the reference or the
    // oracle; its fingerprint is what every later run of the job must give.
    let checked = Instant::now();
    let mut expected = Vec::with_capacity(s.jobs.len());
    for j in 0..s.jobs.len() {
        let job = s.jobs[j];
        let (analysis, _) = run_job(&mut s, job, &mut tracer);
        let ok = check(&mut s, job, &analysis);
        ledger.op(ok, || {
            format!("analyze job {j} (horizon {}) disagrees with its oracle", job.horizon)
        });
        expected.push(oracle::analysis_hash(&analysis));
    }
    eprintln!(
        "perfbench: analyze-mix: {} jobs, set-up {setup_s:.2} s, check pass {:.2} s",
        s.jobs.len(),
        checked.elapsed().as_secs_f64()
    );

    let mut m = Metrics::new();
    if !cfg.trace {
        // Whole passes, at least two, while another pass would end within
        // half a pass of the budget.
        let (mut periodic, mut stateful, mut wall, mut jobs) = (Vec::new(), Vec::new(), 0u64, 0);
        let started = Instant::now();
        let mut last = std::time::Duration::ZERO;
        let mut passes = 0;
        while passes < 2 || started.elapsed() + last / 2 < cfg.budget() {
            passes += 1;
            let t = Instant::now();
            let p = pass(&mut s, &expected, &mut tracer, ledger);
            last = t.elapsed();
            jobs += p.periodic_ns.len() + p.stateful_ns.len();
            periodic.extend(p.periodic_ns);
            stateful.extend(p.stateful_ns);
            wall += p.wall_ns;
            eprintln!("perfbench: analyze-mix: pass of {:.2} s", p.wall_ns as f64 / 1e9);
        }
        put(&mut m, "setup_s", setup_s);
        put(&mut m, "op_p50_us", median(&periodic) / 1e3);
        put(&mut m, "op2_p50_us", median(&stateful) / 1e3);
        put(&mut m, "throughput_per_s", jobs as f64 / (wall as f64 / 1e9));
        return m;
    }

    // Two untraced passes: the p99 needs a thousand samples, and the
    // second is the overhead baseline.
    let mut periodic = pass(&mut s, &expected, &mut tracer, ledger).periodic_ns;
    let untraced = pass(&mut s, &expected, &mut tracer, ledger);
    periodic.extend(&untraced.periodic_ns);
    put(&mut m, "op_p99_us", p99(&periodic).unwrap_or(0.0) / 1e3);
    let mut tracer = Tracer::new(true);
    traced_pass(&mut s, &expected, &mut tracer, ledger, &mut m);
    put(&mut m, "trace.overhead", tracer.op_wall_ns() as f64 / untraced.wall_ns as f64 - 1.0);
    put(&mut m, "trace.unattributed_share", tracer.unattributed_share());
    let path = cfg.state_dir.join(format!("trace-analyze-mix-{}.tsv", cfg.seed));
    if let Err(e) = tracer.write(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    m
}

/// The traced pass: every job under an op span, then per-layer replays of
/// the same input through each layer's own public function.
fn traced_pass(
    s: &mut Setup,
    expected: &[u64],
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    m: &mut Metrics,
) {
    let checkers: Vec<GraphChecker> = s.graphs.iter().map(GraphChecker::new).collect();
    let checker_bytes: usize = checkers.iter().map(GraphChecker::memory_bytes).sum();
    let (mut build_ns, mut profile_ns, mut derive_ns, mut batch_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut classes, mut events) = (0u64, 0u64);
    let (mut emit_total, mut check_total, mut holidays) = (0u64, 0u64, 0u64);
    let mut sweep_self = Vec::new();

    for (j, &want) in expected.iter().enumerate() {
        let job = s.jobs[j];
        let (analysis, job_ns) = run_job(s, job, tracer);
        let hash = oracle::analysis_hash(&analysis);
        ledger.op(hash == want, || format!("traced analyze job {j} changed its answer"));
        match job.kind {
            Kind::Periodic(i) => {
                let (g, sched) = &s.periodic[i];
                let graph = &s.graphs[*g];
                if AnalysisEngine::select(sched.as_ref(), job.horizon) != AnalysisEngine::ClosedForm
                {
                    continue;
                }
                let view = sched.residue_schedule().expect("periodic");
                let start = sched.first_holiday();
                let (checker, ns) = tracer
                    .replay("replay::checker::GraphChecker::new", || GraphChecker::new(graph));
                build_ns.push(ns);
                let (profile, ns) = tracer.replay("replay::profile::CycleProfile::build", || {
                    CycleProfile::build(view, start, graph.node_count(), &checker)
                });
                profile_ns.push(ns);
                classes += view.cycle();
                events += view.attendance_per_cycle();
                let (derived, ns) = tracer.replay("replay::profile::derive_window", || {
                    profile.derive_window(sched.name(), graph, 0, job.horizon)
                });
                derive_ns.push(ns);
                ledger.op(oracle::analysis_hash(&derived) == hash, || {
                    format!("replayed derive of job {j} differs from analyze_schedule")
                });
                // One 64-class batch through the batched verifier.
                let width = view.cycle().min(64);
                let sets: Vec<HappySet> = (0..width)
                    .map(|k| {
                        let mut set = HappySet::new(view.node_count());
                        view.fill(start + k, &mut set);
                        set
                    })
                    .collect();
                let refs: Vec<(u64, &fhg_graph::FixedBitSet)> = sets
                    .iter()
                    .enumerate()
                    .map(|(k, set)| (start + k as u64, set.as_bitset()))
                    .collect();
                let (ok, ns) =
                    tracer.replay("replay::checker::check_batch", || checker.check_batch(&refs));
                batch_ns.push(ns);
                let want = oracle::independent(view, graph, start, Verdict::Prefix(width));
                ledger.op(ok == want, || format!("replayed check_batch of job {j} is wrong"));
            }
            Kind::Stateful(i) => {
                let (g, template) = &s.stateful[i];
                let checker = &checkers[*g];
                let mut sched = template.fresh();
                let start = sched.first_holiday();
                let mut buf = HappySet::new(sched.node_count());
                let (happy, emit_ns) = tracer.replay("replay::schedulers::fill_happy_set", || {
                    let mut happy = 0u64;
                    for t in start..start + job.horizon {
                        sched.fill_happy_set(t, &mut buf);
                        happy += buf.len() as u64;
                    }
                    happy
                });
                let mut sched = template.fresh();
                let ((independent, check_ns), _) = tracer.replay("replay::checker::check", || {
                    let (mut all, mut ns) = (true, 0u64);
                    for t in start..start + job.horizon {
                        sched.fill_happy_set(t, &mut buf);
                        let c = Instant::now();
                        all &= checker.check(t, buf.as_bitset());
                        ns += ns_since(c);
                    }
                    (all, ns)
                });
                ledger.op(
                    happy == analysis.total_happiness
                        && independent == analysis.all_happy_sets_independent,
                    || format!("replayed emission/check of stateful job {j} differs"),
                );
                emit_total += emit_ns;
                check_total += check_ns;
                holidays += job.horizon;
                sweep_self.push(job_ns.saturating_sub(emit_ns + check_ns));
            }
        }
    }
    let per = |total: u64, n: u64| if n == 0 { 0.0 } else { total as f64 / n as f64 };
    put(m, "schedulers.emit_ns_per_holiday", per(emit_total, holidays));
    put(m, "checker.build_ms", median(&build_ns) / 1e6);
    put(m, "checker.bytes", checker_bytes as f64);
    put(m, "checker.check_ns_per_set", per(check_total, holidays));
    put(m, "checker.check_batch_us", median(&batch_ns) / 1e3);
    put(m, "profile.build_ms", median(&profile_ns) / 1e6);
    put(m, "profile.classes_walked", classes as f64);
    put(m, "profile.events", events as f64);
    put(m, "profile.derive_ms", median(&derive_ns) / 1e6);
    put(m, "sweep.self_ms", median(&sweep_self) / 1e6);
}
