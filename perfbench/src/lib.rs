//! The repository benchmark: three seeded, closed-loop workloads that drive
//! the FHG library from one process, check every answer, and report the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced run)
//! named in `BENCHMARK.json`.  See `README.md` beside this crate for what
//! each metric measures on each workload.

mod analyze_mix;
mod churn_durable;
mod oracle;
mod serve_read;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Input sizes: `Full` is the benchmark; `Small` keeps every code path but
/// shrinks every input, for the crate's own tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Small,
}

#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// How long the untraced run measures.
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off.  `true`: the traced run,
    /// a fixed amount of work, reporting per-layer metrics.
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory for the WAL, snapshots and span dumps.
    pub state_dir: PathBuf,
    /// Worker threads (the detected core count).
    pub threads: usize,
}

impl Config {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Operations attempted and failed.  A typed error and a wrong answer both
/// count as a failed operation.
#[derive(Default, Debug)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    /// Counts one operation; `ok == false` counts it failed and logs why.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: failed operation: {}", what());
            }
        }
    }
}

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

pub struct Outcome {
    pub ledger: Ledger,
    pub metrics: Metrics,
}

/// The end-to-end metrics every workload reports with tracing off (besides
/// `peak_rss_mb`, which the launcher measures from outside the process).
const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("op_p50_us", "us"), ("op2_p50_us", "us"), ("throughput_per_s", "1/s")];

/// The per-layer metrics every workload reports in the traced run; a
/// layer the workload does not reach reads 0.  `op_p99_us` is the
/// workload's `op` tail, from the untraced half of the traced run: it does
/// not repeat closely enough between runs to gate on.
const PER_LAYER: [(&str, &str); 41] = [
    ("op_p99_us", "us"),
    ("schedulers.emit_ns_per_holiday", "ns"),
    ("dynamic.apply_event_us", "us"),
    ("checker.build_ms", "ms"),
    ("checker.bytes", "B"),
    ("checker.check_ns_per_set", "ns"),
    ("checker.check_batch_us", "us"),
    ("profile.build_ms", "ms"),
    ("profile.classes_walked", "count"),
    ("profile.events", "count"),
    ("profile.derive_ms", "ms"),
    ("profile.window_totals_ns", "ns"),
    ("profile.window_full_ns", "ns"),
    ("profile.patch.lanes", "count"),
    ("profile.patch.classes_verified", "count"),
    ("sweep.self_ms", "ms"),
    ("serving.lookup_ns", "ns"),
    ("serving.tenants_per_key", "ratio"),
    ("serving.patch_us", "us"),
    ("serving.patched_share", "ratio"),
    ("serving.cache.hits", "count"),
    ("serving.cache.misses", "count"),
    ("serving.cache.rebuilds", "count"),
    ("serving.cache.quarantines", "count"),
    ("serving.audit_step_ms", "ms"),
    ("rayon.batch_efficiency", "ratio"),
    ("persist.wal_append_us", "us"),
    ("persist.fsyncs_per_event", "count"),
    ("persist.wal_bytes_per_event", "B"),
    ("persist.snapshot_encode_ms", "ms"),
    ("persist.snapshot_sync_ms", "ms"),
    ("persist.recover_load_ms", "ms"),
    ("persist.replay_us_per_frame", "us"),
    ("persist.rehydrated", "count"),
    ("persist.frames_replayed", "count"),
    ("serve.build_ms", "ms"),
    ("churn.snapshot_ms", "ms"),
    ("churn.recover_ms", "ms"),
    ("churn.disk_bytes_per_tenant", "B"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// A metric set with every name of `names` present, zero where unset.
fn complete(names: &[(&'static str, &'static str)], set: Metrics) -> Metrics {
    let mut out = Metrics::new();
    for &(name, unit) in names {
        out.insert(name, (set.get(name).map_or(0.0, |v| v.0), unit));
    }
    out
}

/// Inserts `name` with the unit the metric tables give it.
fn put(m: &mut Metrics, name: &'static str, value: f64) {
    let unit = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the metric tables"));
    m.insert(name, (value, unit));
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Runs `setup` `SETUP_REPS` times (once in the traced run), dropping all
/// but the last result, and returns it with the median set-up time in
/// seconds.
fn timed_setup<T>(cfg: &Config, mut setup: impl FnMut() -> T) -> (T, f64) {
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), util::median_f64(&secs))
}

/// Runs the configured workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    fhg_core::failpoint::clear();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(cfg.threads)
        .build()
        .map_err(|e| format!("thread pool: {e}"))?;
    let mut ledger = Ledger::default();
    let metrics = pool.install(|| match cfg.workload.as_str() {
        "analyze-mix" => Ok(analyze_mix::run(cfg, &mut ledger)),
        "serve-read" => serve_read::run(cfg, &mut ledger),
        "churn-durable" => churn_durable::run(cfg, &mut ledger),
        other => Err(format!("unknown workload {other:?}")),
    })?;
    let names: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    Ok(Outcome { ledger, metrics: complete(names, metrics) })
}

/// Every `FHG_*` variable set in the environment, for the result record.
pub fn fhg_env() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> =
        std::env::vars().filter(|(k, _)| k.starts_with("FHG_")).collect();
    vars.sort();
    vars
}
