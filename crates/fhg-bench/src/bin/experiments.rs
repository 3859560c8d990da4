//! Experiment runner: regenerates every table in `EXPERIMENTS.md`.
//!
//! Usage:
//!
//! ```text
//! cargo run -p fhg-bench --release --bin experiments -- all
//! cargo run -p fhg-bench --release --bin experiments -- e4 e5
//! cargo run -p fhg-bench --release --bin experiments -- --smoke e11 e12
//! cargo run -p fhg-bench --release --bin experiments -- --list
//! ```
//!
//! `--smoke` shrinks the analysis-engine experiments (`e11`–`e19`) to CI
//! sizing (`e20` keeps its one size).  Whenever any of `e11`–`e20` run,
//! their machine-readable medians are written to `BENCH_analysis.json`
//! **at the repository root** — the
//! compile-time manifest location when that checkout still exists,
//! otherwise the nearest enclosing workspace of the invocation directory —
//! so the perf trajectory accumulates across commits no matter where the
//! binary is launched from.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// The directory `BENCH_analysis.json` belongs in: the repository root.
///
/// Preference order: the nearest ancestor of the current directory that is
/// an FHG checkout (contains `crates/fhg-bench/Cargo.toml` — so a binary
/// built in one clone but run inside another writes into the clone it runs
/// in, and an unrelated project's `Cargo.lock` never matches), then the
/// build-time manifest's workspace root (covers running from outside any
/// checkout, e.g. `/tmp`), then the current directory.
fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().ok();
    if let Some(cwd) = &cwd {
        if let Some(root) =
            cwd.ancestors().find(|d| d.join("crates/fhg-bench/Cargo.toml").is_file())
        {
            return root.to_path_buf();
        }
    }
    let baked = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if baked.is_dir() {
        return baked;
    }
    cwd.unwrap_or_else(|| PathBuf::from("."))
}

use fhg_bench::{
    bench_entries_to_json, run_experiment_collecting, AnalysisBenchConfig, EXPERIMENT_IDS,
};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for id in EXPERIMENT_IDS {
            println!("{id}");
        }
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let ids: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        EXPERIMENT_IDS.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };
    for id in &ids {
        if !EXPERIMENT_IDS.contains(&id.as_str()) {
            eprintln!("unknown experiment {id:?}; valid ids: {EXPERIMENT_IDS:?} or `all`");
            std::process::exit(2);
        }
    }
    let cfg = if smoke { AnalysisBenchConfig::smoke() } else { AnalysisBenchConfig::full() };
    let mut entries = Vec::new();
    for id in &ids {
        let start = Instant::now();
        let (tables, mut bench_entries) = run_experiment_collecting(id, &cfg);
        for table in &tables {
            println!("{}", table.to_markdown());
        }
        entries.append(&mut bench_entries);
        eprintln!("[{} finished in {:.1}s]\n", id, start.elapsed().as_secs_f64());
    }
    if !entries.is_empty() {
        let json = bench_entries_to_json(smoke, &entries);
        // Repo root, not CWD, so the trajectory file lands next to
        // ROADMAP.md regardless of where the binary was invoked.
        let path = repo_root().join("BENCH_analysis.json");
        // Write-then-rename so a crashed or fault-injected run can never
        // leave a truncated trajectory file behind: the rename is atomic
        // on the same filesystem, so readers see the old file or the new
        // one, never a partial write.
        let tmp = path.with_extension("json.tmp");
        match std::fs::write(&tmp, &json).and_then(|()| std::fs::rename(&tmp, &path)) {
            Ok(()) => {
                eprintln!("[wrote {}: {} entries]", path.display(), entries.len());
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}
