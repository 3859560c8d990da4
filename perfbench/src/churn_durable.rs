//! `churn-durable`: edge events beside reads, with durability on.
//!
//! The fleet is the 1024-tenant e16 static fleet plus 64
//! `DynamicColorBound` tenants (Erdős–Rényi, 512–4040 nodes, mean degree
//! 8).  Each event draws a dynamic tenant Zipf(1.0) and a node pair; it
//! deletes the edge if present and inserts it otherwise.  An event is
//! acknowledged after `apply_event`, `WalWriter::append` (flush policy
//! `WalSync::Always`) and `ProfileService::patch` (`op`); one
//! `query_totals` on a seeded dynamic tenant and a ragged window follows
//! (`op2`).  Every `CHECKPOINT` events the service is snapshotted and the
//! WAL truncated.  The run ends with a tail of `TAIL` logged events,
//! recovers from the directory, and checks that the recovered service
//! equals the live one and that every patched tenant equals a
//! rebuild-from-scratch oracle.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fhg_core::analysis::{CycleProfile, GraphChecker};
use fhg_core::dynamic::DynamicColorBound;
use fhg_core::schedulers::PeriodicDegreeBound;
use fhg_core::serving::{
    PatchOutcome, ProfileService, WalSync, WalWriter, SNAPSHOT_FILE, WAL_FILE,
};
use fhg_core::{Scheduler, AUDIT_STEP};
use fhg_graph::generators::erdos_renyi;
use fhg_graph::{EdgeEvent, EdgeEventKind};

use crate::oracle::{self, Verdict};
use crate::trace::Tracer;
use crate::util::{median, median_i64, ns_since, p99, Rng, Zipf};
use crate::{put, timed_setup, Config, Ledger, Metrics, Scale};

const WINDOW_START: u64 = 1 << 20;
const MAX_WIDTH: u64 = 1 << 16;
/// Logged events after the last checkpoint, replayed by recovery.
const TAIL: usize = 300;
/// Recoveries timed from the final directory.
const RECOVERIES: usize = 5;
/// One read in this many is checked against the oracle.
const CHECK_EVERY: usize = 32;

#[derive(Clone, Copy)]
struct Event {
    dynamic: usize,
    u: usize,
    v: usize,
    read: usize,
    window: (u64, u64),
}

struct Setup {
    service: ProfileService,
    dynamic: Vec<DynamicColorBound>,
    statics: u64,
    wal: WalWriter,
    dir: PathBuf,
    events: Vec<Event>,
    checkpoint: usize,
}

/// Static tenants, dynamic tenants, (smallest dynamic size, size step),
/// pre-generated events.
fn sizes(scale: Scale) -> (usize, usize, (usize, usize), usize) {
    match scale {
        Scale::Full => (1024, 64, (512, 56), 400_000),
        Scale::Small => (64, 8, (64, 24), 20_000),
    }
}

/// Events between checkpoints (snapshot, then WAL truncate).
fn checkpoint_every(scale: Scale) -> usize {
    match scale {
        Scale::Full => 4096,
        Scale::Small => 256,
    }
}

fn setup(cfg: &Config, dir: &Path) -> Result<Setup, String> {
    let (statics, dynamics, (lo, step), stream) = sizes(cfg.scale);
    let mut rng = Rng::new(cfg.seed, 0xC4);
    let mut service = ProfileService::new();
    for i in 0..statics {
        let n = 40 + (i % 17) * 2;
        let graph = erdos_renyi(n, 4.0 / n as f64, rng.seed());
        service
            .register(i as u64, &graph, &PeriodicDegreeBound::new(&graph))
            .map_err(|e| format!("static tenant {i}: {e}"))?;
    }
    let mut dynamic = Vec::with_capacity(dynamics);
    for d in 0..dynamics {
        // Sizes spread evenly by tenant index, so the seed moves the edges
        // but never which Zipf ranks are large.
        let n = lo + (d * 37 % dynamics) * step;
        let sched = DynamicColorBound::new(&erdos_renyi(n, 8.0 / (n - 1) as f64, rng.seed()));
        service
            .register((statics + d) as u64, sched.graph(), &sched)
            .map_err(|e| format!("dynamic tenant {d}: {e}"))?;
        dynamic.push(sched);
    }
    let built = service.build_pending();
    if built != service.key_count() {
        return Err(format!("initial build made {built} of {} profiles", service.key_count()));
    }
    let _ = fs::remove_dir_all(dir);
    service.snapshot(dir).map_err(|e| format!("initial snapshot: {e}"))?;
    let mut wal = WalWriter::with_sync(dir, WalSync::Always).map_err(|e| format!("WAL: {e}"))?;
    wal.truncate().map_err(|e| format!("WAL truncate: {e}"))?;

    let zipf = Zipf::new(dynamics, 1.0);
    let events = (0..stream)
        .map(|_| {
            let d = zipf.sample(&mut rng);
            let n = dynamic[d].graph().node_count() as u64;
            let u = rng.below(n) as usize;
            let v = (u + 1 + rng.below(n - 1) as usize) % n as usize;
            let t0 = rng.below(WINDOW_START);
            let window = (t0, t0 + rng.log_uniform(1, MAX_WIDTH));
            Event { dynamic: d, u, v, read: rng.below(dynamics as u64) as usize, window }
        })
        .collect();
    Ok(Setup {
        service,
        dynamic,
        statics: statics as u64,
        wal,
        dir: dir.to_path_buf(),
        events,
        checkpoint: checkpoint_every(cfg.scale),
    })
}

/// What the event loop measured.
#[derive(Default)]
struct Churn {
    event_ns: Vec<u64>,
    read_ns: Vec<u64>,
    snapshot_ns: Vec<u64>,
    /// Event + read wall time, excluding checkpoints.
    wall_ns: u64,
    /// Per-layer call times (traced run only).
    apply_ns: Vec<u64>,
    append_ns: Vec<u64>,
    patch_ns: Vec<u64>,
    /// Patched / rebuilt outcomes and the patch work counts.
    patched: u64,
    lanes: u64,
    classes_verified: u64,
    /// Read windows and call times, for the direct-fold replay.
    lookups: Vec<(u64, (u64, u64), u64)>,
}

impl Setup {
    fn tenant(&self, d: usize) -> u64 {
        self.statics + d as u64
    }

    /// Events of the stream from `next` on (wrapping) until `until` says
    /// stop, with a checkpoint every `self.checkpoint` events when
    /// `checkpoints` is set.
    fn churn(
        &mut self,
        mut next: usize,
        until: impl Fn(usize, &Instant) -> bool,
        checkpoints: bool,
        tracer: &mut Tracer,
        ledger: &mut Ledger,
    ) -> (Churn, usize) {
        let mut out = Churn::default();
        let started = Instant::now();
        let mut done = 0usize;
        while !until(done, &started) {
            let e = self.events[next % self.events.len()];
            next += 1;
            done += 1;
            let tenant = self.tenant(e.dynamic);
            let kind = if self.dynamic[e.dynamic].graph().has_edge(e.u, e.v) {
                EdgeEventKind::Delete
            } else {
                EdgeEventKind::Insert
            };
            let event = EdgeEvent { kind, u: e.u, v: e.v, holiday: next as u64 };
            let Setup { service, dynamic, wal, .. } = self;
            let sched = &mut dynamic[e.dynamic];
            let t = Instant::now();
            let acked = tracer.op("churn.event", |tr| {
                let repair = tr.call("dynamic::apply_event", || sched.apply_event(event));
                let apply = tr.last_ns();
                let repair = repair.map_err(|e| format!("apply_event: {e}"))?;
                let appended =
                    tr.call("persist::WalWriter::append", || wal.append(tenant, &repair));
                let append = tr.last_ns();
                appended.map_err(|e| format!("append: {e}"))?;
                let outcome = tr.call("serving::patch", || service.patch(tenant, &repair));
                let patch = tr.last_ns();
                let outcome = outcome.map_err(|e| format!("patch: {e}"))?;
                Ok::<_, String>((outcome, [apply, append, patch]))
            });
            let ns = ns_since(t);
            out.event_ns.push(ns);
            out.wall_ns += ns;
            match acked {
                Ok((outcome, [apply, append, patch])) => {
                    ledger.op(true, String::new);
                    if tracer.enabled() {
                        out.apply_ns.push(apply);
                        out.append_ns.push(append);
                        out.patch_ns.push(patch);
                    }
                    if let PatchOutcome::Patched(stats) = outcome {
                        out.patched += 1;
                        out.lanes += stats.lanes_patched as u64;
                        out.classes_verified += stats.classes_verified as u64;
                    }
                }
                Err(why) => ledger.op(false, || format!("event on tenant {tenant}: {why}")),
            }

            let reader = self.tenant(e.read);
            let (t0, t1) = e.window;
            let service = &self.service;
            let t = Instant::now();
            let read = tracer.op("churn.read", |tr| {
                tr.call("serving::query_totals", || service.query_totals(reader, t0, t1))
            });
            let ns = ns_since(t);
            out.read_ns.push(ns);
            out.wall_ns += ns;
            if tracer.enabled() {
                out.lookups.push((reader, e.window, ns));
            }
            let ok = match read {
                Ok(totals) => {
                    !done.is_multiple_of(CHECK_EVERY) || {
                        let sched = &self.dynamic[e.read];
                        let view = sched.residue_schedule().expect("periodic");
                        let want = oracle::totals(
                            view,
                            sched.graph(),
                            sched.first_holiday(),
                            e.window,
                            Verdict::WholeCycle,
                        );
                        oracle::totals_eq(&totals, &want)
                    }
                }
                Err(_) => false,
            };
            ledger.op(ok, || format!("read of tenant {reader} window {:?} is wrong", e.window));

            if checkpoints && done.is_multiple_of(self.checkpoint) {
                let t = Instant::now();
                let snap = tracer.op("churn.checkpoint", |tr| {
                    tr.call("persist::snapshot", || self.service.snapshot(&self.dir))
                });
                out.snapshot_ns.push(ns_since(t));
                let truncated = snap.is_ok() && self.wal.truncate().is_ok();
                ledger.op(truncated, || format!("checkpoint failed: {snap:?}"));
            }
        }
        (out, next)
    }

    /// Checkpoints, then logs a tail of `TAIL` events for recovery to
    /// replay.  Returns the WAL length right after the checkpoint.
    fn tail(&mut self, next: usize, ledger: &mut Ledger) -> u64 {
        let snap = self.service.snapshot(&self.dir);
        ledger.op(snap.is_ok() && self.wal.truncate().is_ok(), || {
            format!("final checkpoint: {snap:?}")
        });
        let empty = fs::metadata(self.wal.path()).map_or(0, |m| m.len());
        let mut off = Tracer::new(false);
        self.churn(next, |done, _| done >= TAIL, false, &mut off, ledger);
        empty
    }
}

fn copy_dir(from: &Path, to: &Path, with_wal: bool) -> std::io::Result<()> {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to)?;
    fs::copy(from.join(SNAPSHOT_FILE), to.join(SNAPSHOT_FILE))?;
    if with_wal {
        fs::copy(from.join(WAL_FILE), to.join(WAL_FILE))?;
    }
    Ok(())
}

/// The end-of-run checks: recovered == live, patched == rebuilt.
fn verify(s: &Setup, recovered: &ProfileService, ledger: &mut Ledger) {
    let tenants = s.statics + s.dynamic.len() as u64;
    for t in 0..tenants {
        let ok = match (s.service.profile(t), recovered.profile(t)) {
            (Some(live), Some(rec)) => {
                let w = (1, 2 * live.cycle() + 3);
                live.content_eq(rec)
                    && s.service.query_totals(t, w.0, w.1).ok()
                        == recovered.query_totals(t, w.0, w.1).ok()
            }
            _ => false,
        };
        ledger.op(ok, || format!("tenant {t} recovered differently from the live service"));
    }
    for (d, sched) in s.dynamic.iter().enumerate() {
        let view = sched.residue_schedule().expect("periodic");
        let graph = sched.graph();
        let oracle = CycleProfile::build(
            view,
            sched.first_holiday(),
            graph.node_count(),
            &GraphChecker::new(graph),
        );
        let ok = s.service.profile(s.tenant(d)).is_some_and(|p| p.content_eq(&oracle));
        ledger.op(ok, || format!("patched dynamic tenant {d} differs from its rebuild"));
    }
}

pub fn run(cfg: &Config, ledger: &mut Ledger) -> Result<Metrics, String> {
    // Per-process directories, so concurrent runs never share a WAL.
    let pid = std::process::id();
    let dir = cfg.state_dir.join(format!("churn-wal-{pid}"));
    let copy = cfg.state_dir.join(format!("churn-recover-{pid}"));
    let base_dir = cfg.state_dir.join(format!("churn-base-{pid}"));
    let (setup_result, setup_s) = timed_setup(cfg, || setup(cfg, &dir));
    let mut s = setup_result?;
    let mut m = Metrics::new();
    let tenants = s.statics as f64 + s.dynamic.len() as f64;

    let (churn, next, mut tracer, untraced) = if cfg.trace {
        // Overhead baseline: the same fixed event count untraced on a fresh
        // fleet, then traced on this one.
        let count = 4 * checkpoint_every(cfg.scale);
        let mut base = setup(cfg, &base_dir)?;
        let mut off = Tracer::new(false);
        let (untraced, _) = base.churn(0, |d, _| d >= count, true, &mut off, ledger);
        drop(base);
        let _ = fs::remove_dir_all(&base_dir);
        let mut tracer = Tracer::new(true);
        let (churn, next) = s.churn(0, |d, _| d >= count, true, &mut tracer, ledger);
        (churn, next, tracer, untraced)
    } else {
        let budget = cfg.budget();
        let mut off = Tracer::new(false);
        let (churn, next) = s.churn(0, |_, t| t.elapsed() >= budget, true, &mut off, ledger);
        (churn, next, off, Churn::default())
    };
    let wal_empty = s.tail(next, ledger);

    let wal_len = fs::metadata(s.dir.join(WAL_FILE)).map_or(0, |m| m.len());
    let disk = fs::metadata(s.dir.join(SNAPSHOT_FILE)).map_or(0, |m| m.len()) + wal_len;

    // Recovery from a fresh copy of the directory, so every attempt reads
    // identical bytes (timed several times in the traced run).
    let mut recover_ns = Vec::new();
    let mut last = None;
    for _ in 0..if cfg.trace { RECOVERIES } else { 1 } {
        copy_dir(&s.dir, &copy, true).map_err(|e| format!("copying the WAL directory: {e}"))?;
        let t = Instant::now();
        let r = tracer.op("churn.recover", |tr| {
            tr.call("persist::recover", || ProfileService::recover(&copy))
        });
        recover_ns.push(ns_since(t));
        match r {
            Ok((svc, report)) => {
                let ok = report.wal_frames_replayed == TAIL && report.quarantined == 0;
                ledger.op(ok, || format!("recovery report {report:?}"));
                last = Some((svc, report));
            }
            Err(e) => ledger.op(false, || format!("recover: {e}")),
        }
    }
    if let Some((recovered, _)) = &last {
        verify(&s, recovered, ledger);
    }

    if !cfg.trace {
        put(&mut m, "setup_s", setup_s);
        put(&mut m, "op_p50_us", median(&churn.event_ns) / 1e3);
        put(&mut m, "op2_p50_us", median(&churn.read_ns) / 1e3);
        put(&mut m, "throughput_per_s", churn.event_ns.len() as f64 / (churn.wall_ns as f64 / 1e9));
        let _ = fs::remove_dir_all(&copy);
        let _ = fs::remove_dir_all(&dir);
        return Ok(m);
    }

    // Per-layer replays: the direct fold of each read, the snapshot
    // encode, a snapshot-only recovery, and an audit step.
    let mut fold_ns = Vec::new();
    let mut lookup = Vec::new();
    for &(tenant, (t0, t1), call_ns) in &churn.lookups {
        if let Some(profile) = s.service.profile(tenant) {
            let (_, ns) = tracer.replay("replay::profile::derive_window_totals", || {
                profile.derive_window_totals(t0, t1)
            });
            fold_ns.push(ns);
            lookup.push(call_ns as i64 - ns as i64);
        }
    }
    let mut encode_ns = Vec::new();
    for _ in 0..churn.snapshot_ns.len().max(1) {
        let (bytes, ns) =
            tracer.replay("replay::persist::snapshot_bytes", || s.service.snapshot_bytes());
        encode_ns.push(ns);
        drop(bytes);
    }
    let mut load_ns = Vec::new();
    for _ in 0..RECOVERIES {
        copy_dir(&s.dir, &copy, false).map_err(|e| format!("copying the snapshot: {e}"))?;
        let (r, ns) = tracer
            .replay("replay::persist::recover(snapshot only)", || ProfileService::recover(&copy));
        load_ns.push(ns);
        ledger.op(r.is_ok(), || "snapshot-only recovery failed".to_string());
    }
    let mut audit_ns = Vec::new();
    if let Some((recovered, _)) = &mut last {
        for _ in 0..RECOVERIES {
            let (_, ns) =
                tracer.replay("replay::serving::audit_step", || recovered.audit_step(AUDIT_STEP));
            audit_ns.push(ns);
        }
    }
    let mut checker_ns = Vec::new();
    let mut bytes = 0usize;
    for sched in &s.dynamic {
        let (checker, ns) = tracer
            .replay("replay::checker::GraphChecker::new", || GraphChecker::new(sched.graph()));
        checker_ns.push(ns);
        bytes += checker.memory_bytes();
    }
    let _ = fs::remove_dir_all(&copy);
    let _ = fs::remove_dir_all(&dir);

    let events = churn.event_ns.len() as f64;
    let report = last.as_ref().map(|(_, r)| r.clone()).unwrap_or_default();
    let stats = s.service.stats();
    let recover_ms = median(&recover_ns) / 1e6;
    let load_ms = median(&load_ns) / 1e6;
    let snapshot_ms = median(&churn.snapshot_ns) / 1e6;
    let encode_ms = median(&encode_ns) / 1e6;
    put(&mut m, "dynamic.apply_event_us", median(&churn.apply_ns) / 1e3);
    put(&mut m, "checker.build_ms", median(&checker_ns) / 1e6);
    put(&mut m, "checker.bytes", bytes as f64);
    put(&mut m, "profile.window_totals_ns", median(&fold_ns));
    put(&mut m, "profile.patch.lanes", churn.lanes as f64);
    put(&mut m, "profile.patch.classes_verified", churn.classes_verified as f64);
    put(&mut m, "serving.lookup_ns", median_i64(&lookup));
    put(&mut m, "serving.tenants_per_key", tenants / s.service.key_count() as f64);
    put(&mut m, "serving.patch_us", median(&churn.patch_ns) / 1e3);
    put(&mut m, "serving.patched_share", churn.patched as f64 / events);
    put(&mut m, "serving.cache.hits", stats.hits as f64);
    put(&mut m, "serving.cache.misses", stats.misses as f64);
    put(&mut m, "serving.cache.rebuilds", stats.rebuilds as f64);
    put(&mut m, "serving.cache.quarantines", stats.quarantines as f64);
    put(&mut m, "serving.audit_step_ms", median(&audit_ns) / 1e6);
    put(&mut m, "persist.wal_append_us", median(&churn.append_ns) / 1e3);
    // One fdatasync per appended frame under `WalSync::Always`.
    put(
        &mut m,
        "persist.fsyncs_per_event",
        s.wal.frames_appended() as f64 / (events + TAIL as f64),
    );
    put(&mut m, "persist.wal_bytes_per_event", (wal_len - wal_empty) as f64 / TAIL as f64);
    put(&mut m, "persist.snapshot_encode_ms", encode_ms);
    put(&mut m, "persist.snapshot_sync_ms", snapshot_ms - encode_ms);
    put(&mut m, "persist.recover_load_ms", load_ms);
    put(&mut m, "persist.replay_us_per_frame", (recover_ms - load_ms) * 1e3 / TAIL as f64);
    put(&mut m, "persist.rehydrated", report.profiles_rehydrated as f64);
    put(&mut m, "persist.frames_replayed", report.wal_frames_replayed as f64);
    put(&mut m, "churn.snapshot_ms", snapshot_ms);
    put(&mut m, "churn.recover_ms", recover_ms);
    put(&mut m, "churn.disk_bytes_per_tenant", disk as f64 / tenants);
    put(&mut m, "op_p99_us", p99(&untraced.event_ns).unwrap_or(0.0) / 1e3);
    put(&mut m, "trace.overhead", churn.wall_ns as f64 / untraced.wall_ns as f64 - 1.0);
    put(&mut m, "trace.unattributed_share", tracer.unattributed_share());
    let path = cfg.state_dir.join(format!("trace-churn-durable-{}.tsv", cfg.seed));
    if let Err(e) = tracer.write(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    Ok(m)
}
