//! The benchmark's own contract, at small input sizes: every count metric
//! of the traced run repeats exactly for one seed, and every answer check
//! passes on a second seed.

use std::path::PathBuf;

use perfbench::{run, Config, Outcome, Scale};

/// Metrics that count work rather than time it.
const COUNTS: [&str; 16] = [
    "checker.bytes",
    "profile.classes_walked",
    "profile.events",
    "profile.patch.lanes",
    "profile.patch.classes_verified",
    "serving.tenants_per_key",
    "serving.patched_share",
    "serving.cache.hits",
    "serving.cache.misses",
    "serving.cache.rebuilds",
    "serving.cache.quarantines",
    "persist.fsyncs_per_event",
    "persist.wal_bytes_per_event",
    "persist.rehydrated",
    "persist.frames_replayed",
    "churn.disk_bytes_per_tenant",
];

fn traced(workload: &str, seed: u64) -> Outcome {
    let state_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{seed}"));
    std::fs::create_dir_all(&state_dir).expect("state directory");
    let cfg = Config {
        workload: workload.to_string(),
        seed,
        seconds: 1.0,
        trace: true,
        scale: Scale::Small,
        state_dir,
        threads: 2,
    };
    run(&cfg).expect("the workload runs")
}

fn counts(outcome: &Outcome) -> Vec<(&'static str, f64)> {
    COUNTS.iter().map(|&name| (name, outcome.metrics[name].0)).collect()
}

fn check(workload: &str) {
    let first = traced(workload, 7);
    let again = traced(workload, 7);
    assert_eq!(first.ledger.failed, 0, "{workload}: answer checks failed on seed 7");
    assert_eq!(counts(&first), counts(&again), "{workload}: counts differ between two runs");
    assert_eq!(first.ledger.attempted, again.ledger.attempted, "{workload}: attempted differs");
    let other = traced(workload, 8);
    assert!(other.ledger.attempted > 0);
    assert_eq!(other.ledger.failed, 0, "{workload}: answer checks failed on seed 8");
}

#[test]
fn analyze_mix_counts_repeat_and_answers_check() {
    check("analyze-mix");
}

#[test]
fn serve_read_counts_repeat_and_answers_check() {
    check("serve-read");
}

#[test]
fn churn_durable_counts_repeat_and_answers_check() {
    check("churn-durable");
}
