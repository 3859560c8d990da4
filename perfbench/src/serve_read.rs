//! `serve-read`: windowed read traffic against a warm multi-tenant
//! `ProfileService`.
//!
//! 4096 tenants: nine in ten small (the e16 shape, `PeriodicDegreeBound`
//! on 40–72 nodes), one in ten large (1024–4048 nodes, mean degree 10,
//! prefix-code ω / round-robin / degree-bound in turn).  Every fourth
//! tenant registers content identical to an earlier tenant of its class,
//! so it shares that tenant's profile key.  The query stream draws tenants
//! Zipf(1.0) by id, window starts uniform in `[0, 2^20)` and widths
//! log-uniform in `[1, 2^16]`; nine in ten are `query_totals` (`op`), one in
//! ten `query` (`op2`).  The stream runs on one client, through
//! `query_batch` in fixed slabs on every core (`throughput_per_s`), and the
//! fleet is rebuilt cold (`invalidate_all` + `build_pending`), the three
//! phases interleaved in small units over the whole run.  Every answer of
//! the batch front must equal the one-client answer, and every sixteenth
//! query is checked against the progression oracle.

use std::time::Instant;

use fhg_core::analysis::{CycleProfile, GraphChecker};
use fhg_core::schedulers::{PeriodicDegreeBound, PrefixCodeScheduler, RoundRobinColoring};
use fhg_core::serving::{ProfileService, Query};
use fhg_core::Scheduler;
use fhg_graph::generators::erdos_renyi;
use fhg_graph::Graph;

use crate::oracle::{self, Verdict};
use crate::trace::Tracer;
use crate::util::{median, median_i64, ns_since, p99, Rng, Zipf};
use crate::{put, timed_setup, Config, Ledger, Metrics, Scale};

const WINDOW_START: u64 = 1 << 20;
const MAX_WIDTH: u64 = 1 << 16;
/// Queries per `query_batch` call.
const SLAB: usize = 4096;
/// One query in this many is checked against the oracle.
const CHECK_EVERY: usize = 16;

struct Content {
    graph: Graph,
    sched: Box<dyn Scheduler>,
}

struct Setup {
    service: ProfileService,
    contents: Vec<Content>,
    /// tenant id → content index.
    tenant_content: Vec<usize>,
    queries: Vec<Query>,
    /// Whether query `i` asks for the full per-node analysis.
    full: Vec<bool>,
}

fn sizes(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (4096, 1_500_000),
        Scale::Small => (256, 20_000),
    }
}

fn setup(cfg: &Config) -> Result<Setup, String> {
    let (tenants, stream) = sizes(cfg.scale);
    let mut rng = Rng::new(cfg.seed, 0x5E);
    let mut service = ProfileService::new();
    let mut contents: Vec<Content> = Vec::new();
    let mut tenant_content = Vec::with_capacity(tenants);
    let large = |i: usize| i % 10 == 9;
    for i in 0..tenants {
        if i % 4 == 3 {
            // Shared content: an earlier tenant of the same class.
            let peers: Vec<usize> = (0..i).filter(|&j| large(j) == large(i)).collect();
            if !peers.is_empty() {
                tenant_content.push(tenant_content[peers[rng.below(peers.len() as u64) as usize]]);
                continue;
            }
        }
        let content = if large(i) {
            // Sizes spread evenly over the range by id, so the seed moves
            // the edges but never which Zipf ranks are heavy.
            let spread = (i / 10) * 37 % 64;
            let n = match cfg.scale {
                Scale::Full => 1024 + spread * 48,
                Scale::Small => 128 + spread * 2,
            };
            let graph = erdos_renyi(n, 10.0 / (n - 1) as f64, rng.seed());
            let sched: Box<dyn Scheduler> = match (i / 10) % 3 {
                0 => Box::new(PrefixCodeScheduler::omega(&graph)),
                1 => Box::new(RoundRobinColoring::new(&graph)),
                _ => Box::new(PeriodicDegreeBound::new(&graph)),
            };
            Content { graph, sched }
        } else {
            let n = 40 + (i % 17) * 2;
            let graph = erdos_renyi(n, 4.0 / n as f64, rng.seed());
            let sched = Box::new(PeriodicDegreeBound::new(&graph));
            Content { graph, sched }
        };
        contents.push(content);
        tenant_content.push(contents.len() - 1);
    }
    for (t, &c) in tenant_content.iter().enumerate() {
        let content = &contents[c];
        service
            .register(t as u64, &content.graph, content.sched.as_ref())
            .map_err(|e| format!("tenant {t}: {e}"))?;
    }
    let built = service.build_pending();
    if built != service.key_count() {
        return Err(format!("initial build made {built} of {} profiles", service.key_count()));
    }

    let zipf = Zipf::new(tenants, 1.0);
    let mut queries = Vec::with_capacity(stream);
    let mut full = Vec::with_capacity(stream);
    for _ in 0..stream {
        let tenant = zipf.sample(&mut rng) as u64;
        let t0 = rng.below(WINDOW_START);
        let width = rng.log_uniform(1, MAX_WIDTH);
        queries.push(Query { tenant, window: (t0, t0 + width) });
        full.push(rng.below(10) == 0);
    }
    Ok(Setup { service, contents, tenant_content, queries, full })
}

impl Setup {
    fn content(&self, tenant: u64) -> &Content {
        &self.contents[self.tenant_content[tenant as usize]]
    }

    fn oracle_totals(&self, q: &Query) -> fhg_core::AnalysisTotals {
        let c = self.content(q.tenant);
        let view = c.sched.residue_schedule().expect("periodic");
        oracle::totals(view, &c.graph, c.sched.first_holiday(), q.window, Verdict::WholeCycle)
    }
}

/// What the one-client phase measured: latencies per kind, plus a
/// fingerprint of every answer (by stream position) for the batch phase
/// to match.
#[derive(Default)]
struct OneClient {
    totals_ns: Vec<u64>,
    full_ns: Vec<u64>,
    hashes: Vec<u64>,
    wall_ns: u64,
}

/// The next `count` queries of the stream on one client, continuing where
/// `out` left off.  `replay` runs after every query with its stream index
/// and call time.
fn one_client(
    s: &Setup,
    out: &mut OneClient,
    count: usize,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    mut replay: impl FnMut(&mut Tracer, usize, u64),
) {
    for _ in 0..count {
        let i = out.hashes.len();
        let k = i % s.queries.len();
        let q = s.queries[k];
        let (t0, t1) = q.window;
        let check = i.is_multiple_of(CHECK_EVERY);
        let (hash, ok, ns) = if s.full[k] {
            let t = Instant::now();
            let r = tracer.op("serve.query", |tr| {
                tr.call("serving::query", || s.service.query(q.tenant, t0, t1))
            });
            let ns = ns_since(t);
            out.full_ns.push(ns);
            match r {
                Ok(a) => {
                    let ok = !check || {
                        let c = s.content(q.tenant);
                        let view = c.sched.residue_schedule().expect("periodic");
                        let want = oracle::analysis(
                            c.sched.name(),
                            view,
                            &c.graph,
                            c.sched.first_holiday(),
                            q.window,
                            Verdict::WholeCycle,
                        );
                        oracle::analysis_eq(&a, &want)
                    };
                    (oracle::totals_hash(&a.totals()), ok, ns)
                }
                Err(_) => (0, false, ns),
            }
        } else {
            let t = Instant::now();
            let r = tracer.op("serve.query_totals", |tr| {
                tr.call("serving::query_totals", || s.service.query_totals(q.tenant, t0, t1))
            });
            let ns = ns_since(t);
            out.totals_ns.push(ns);
            match r {
                Ok(a) => {
                    let ok = !check || oracle::totals_eq(&a, &s.oracle_totals(&q));
                    (oracle::totals_hash(&a), ok, ns)
                }
                Err(_) => (0, false, ns),
            }
        };
        out.wall_ns += ns;
        ledger
            .op(ok, || format!("query {k} (tenant {}, window {:?}) is wrong", q.tenant, q.window));
        out.hashes.push(hash);
        replay(tracer, k, ns);
    }
}

/// What the batch phase measured.
#[derive(Default)]
struct Batch {
    /// Stream position of the next slab.
    next: usize,
    answered: usize,
    wall_ns: u64,
}

/// The next `slabs` slabs of the same stream through `query_batch`; every
/// answer must equal the one-client answer at its stream position.
fn batch(
    s: &Setup,
    out: &mut Batch,
    slabs: usize,
    reference: &[u64],
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) {
    for _ in 0..slabs {
        let from = out.next % s.queries.len();
        let slab = &s.queries[from..(from + SLAB).min(s.queries.len())];
        let t = Instant::now();
        let results = tracer.op("serve.query_batch", |tr| {
            tr.call("serving::query_batch", || s.service.query_batch(slab))
        });
        out.wall_ns += ns_since(t);
        for (j, r) in results.iter().enumerate() {
            let i = out.next + j;
            let ok = match r {
                Ok(w) => match reference.get(i) {
                    Some(&h) => oracle::totals_hash(&w.totals) == h,
                    None => {
                        !i.is_multiple_of(CHECK_EVERY) || {
                            oracle::totals_eq(&w.totals, &s.oracle_totals(&slab[j]))
                        }
                    }
                },
                Err(_) => false,
            };
            ledger.op(ok, || format!("batched query {i} is wrong"));
        }
        out.answered += results.len();
        out.next += slab.len();
    }
}

/// One cold rebuild of the whole fleet; returns its wall time.
fn rebuild(s: &mut Setup, tracer: &mut Tracer, ledger: &mut Ledger) -> u64 {
    let service = &mut s.service;
    let t = Instant::now();
    let built = tracer.op("serve.rebuild", |tr| {
        tr.call("serving::invalidate_all", || service.invalidate_all());
        tr.call("serving::build_pending", || service.build_pending())
    });
    let ns = ns_since(t);
    ledger.op(built == service.key_count() && service.warm_count() == built, || {
        format!("cold rebuild built {built} of {} keys", service.key_count())
    });
    // A sample of answers after the rebuild must match the oracle.
    for q in s.queries.iter().step_by(s.queries.len() / 64 + 1) {
        let ok = s
            .service
            .query_totals(q.tenant, q.window.0, q.window.1)
            .is_ok_and(|a| oracle::totals_eq(&a, &s.oracle_totals(q)));
        ledger.op(ok, || format!("post-rebuild query for tenant {} is wrong", q.tenant));
    }
    ns
}

/// Shares of the untraced run's time: one client, batch front, cold
/// rebuilds.  The phases interleave in small units, so each metric samples
/// the whole run.
const SHARES: [f64; 3] = [0.5, 0.35, 0.15];
/// Queries per one-client unit, slabs per batch unit.
const CLIENT_UNIT: usize = 8192;
const BATCH_UNIT: usize = 2;

pub fn run(cfg: &Config, ledger: &mut Ledger) -> Result<Metrics, String> {
    let (s, setup_s) = timed_setup(cfg, || setup(cfg));
    let mut s = s?;
    let mut m = Metrics::new();
    let budget = cfg.budget();
    let threads = cfg.threads;

    if !cfg.trace {
        let mut off = Tracer::new(false);
        let (mut one, mut bat) = (OneClient::default(), Batch::default());
        let mut spent = [0.0f64; 3];
        let started = Instant::now();
        while started.elapsed() < budget {
            // The phase furthest behind its share runs next.
            let total: f64 = spent.iter().sum();
            let behind = |k: usize| SHARES[k] * total - spent[k];
            let k = (0..3).fold(0, |best, k| if behind(k) > behind(best) { k } else { best });
            let t = Instant::now();
            match k {
                0 => one_client(&s, &mut one, CLIENT_UNIT, &mut off, ledger, |_, _, _| {}),
                1 => batch(&s, &mut bat, BATCH_UNIT, &one.hashes, &mut off, ledger),
                _ => {
                    rebuild(&mut s, &mut off, ledger);
                }
            }
            spent[k] += t.elapsed().as_secs_f64();
        }
        put(&mut m, "setup_s", setup_s);
        put(&mut m, "op_p50_us", median(&one.totals_ns) / 1e3);
        put(&mut m, "op2_p50_us", median(&one.full_ns) / 1e3);
        put(&mut m, "throughput_per_s", bat.answered as f64 / (bat.wall_ns as f64 / 1e9));
        return Ok(m);
    }

    // Traced run: a fixed query count, first untraced (the overhead
    // baseline), then traced with a direct fold of the same window on the
    // tenant's profile after every query.
    let count = match cfg.scale {
        Scale::Full => 100_000,
        Scale::Small => 4_000,
    };
    let mut off = Tracer::new(false);
    let mut untraced = OneClient::default();
    one_client(&s, &mut untraced, count, &mut off, ledger, |_, _, _| {});
    let mut tracer = Tracer::new(true);
    let (mut fold_totals, mut fold_full, mut lookup) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced = OneClient::default();
    {
        let s = &s;
        one_client(s, &mut traced, count, &mut tracer, ledger, |tr, k, call_ns| {
            let q = s.queries[k];
            let Some(profile) = s.service.profile(q.tenant) else { return };
            let (t0, t1) = q.window;
            if s.full[k] {
                let c = s.content(q.tenant);
                let (_, ns) = tr.replay("replay::profile::derive_window", || {
                    profile.derive_window(c.sched.name(), &c.graph, t0, t1)
                });
                fold_full.push(ns);
            } else {
                let (_, ns) = tr.replay("replay::profile::derive_window_totals", || {
                    profile.derive_window_totals(t0, t1)
                });
                fold_totals.push(ns);
                lookup.push(call_ns as i64 - ns as i64);
            }
        });
    }
    let mut bat = Batch::default();
    batch(&s, &mut bat, count / SLAB, &traced.hashes, &mut tracer, ledger);
    let walls: Vec<u64> = (0..3).map(|_| rebuild(&mut s, &mut tracer, ledger)).collect();

    // Replays of the cold build, per distinct content: checker layout and
    // profile build through their own public functions.
    let (mut checker_ns, mut profile_ns) = (Vec::new(), Vec::new());
    let (mut bytes, mut classes, mut events) = (0usize, 0u64, 0u64);
    for (c, content) in s.contents.iter().enumerate() {
        let view = content.sched.residue_schedule().expect("periodic");
        let (checker, ns) = tracer
            .replay("replay::checker::GraphChecker::new", || GraphChecker::new(&content.graph));
        checker_ns.push(ns);
        bytes += checker.memory_bytes();
        let start = content.sched.first_holiday();
        let n = content.graph.node_count();
        let (profile, ns) = tracer.replay("replay::profile::CycleProfile::build", || {
            CycleProfile::build(view, start, n, &checker)
        });
        profile_ns.push(ns);
        classes += view.cycle();
        events += view.attendance_per_cycle();
        let tenant = s.tenant_content.iter().position(|&x| x == c).expect("content has a tenant");
        let served = s.service.profile(tenant as u64);
        ledger.op(served.is_some_and(|p| p.content_eq(&profile)), || {
            format!("replayed build of content {c} differs from the served profile")
        });
    }

    let totals_qps =
        traced.totals_ns.len() as f64 / (traced.totals_ns.iter().sum::<u64>() as f64 / 1e9);
    let batch_qps = bat.answered as f64 / (bat.wall_ns as f64 / 1e9);
    let stats = s.service.stats();
    put(&mut m, "checker.build_ms", median(&checker_ns) / 1e6);
    put(&mut m, "checker.bytes", bytes as f64);
    put(&mut m, "profile.build_ms", median(&profile_ns) / 1e6);
    put(&mut m, "profile.classes_walked", classes as f64);
    put(&mut m, "profile.events", events as f64);
    put(&mut m, "op_p99_us", p99(&untraced.totals_ns).unwrap_or(0.0) / 1e3);
    put(&mut m, "profile.window_totals_ns", median(&fold_totals));
    put(&mut m, "profile.window_full_ns", median(&fold_full));
    put(&mut m, "serving.lookup_ns", median_i64(&lookup));
    put(
        &mut m,
        "serving.tenants_per_key",
        s.service.tenant_count() as f64 / s.service.key_count() as f64,
    );
    put(&mut m, "serving.cache.hits", stats.hits as f64);
    put(&mut m, "serving.cache.misses", stats.misses as f64);
    put(&mut m, "serving.cache.rebuilds", stats.rebuilds as f64);
    put(&mut m, "serving.cache.quarantines", stats.quarantines as f64);
    put(&mut m, "rayon.batch_efficiency", batch_qps / (threads as f64 * totals_qps));
    put(&mut m, "serve.build_ms", median(&walls) / 1e6);
    put(&mut m, "trace.overhead", traced.wall_ns as f64 / untraced.wall_ns as f64 - 1.0);
    put(&mut m, "trace.unattributed_share", tracer.unattributed_share());
    let path = cfg.state_dir.join(format!("trace-serve-read-{}.tsv", cfg.seed));
    if let Err(e) = tracer.write(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    Ok(m)
}
