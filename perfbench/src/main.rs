//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --state-dir <dir> [--fs <type>]`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.  The line before it
//! records the environment the result was measured in.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{fhg_env, run, Config, Scale};

fn arg(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn parse() -> Result<(Config, String), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let need = |name: &str| arg(&args, name).ok_or(format!("missing {name}"));
    let number = |name: &str| -> Result<f64, String> {
        need(name)?.parse::<f64>().map_err(|e| format!("{name}: {e}"))
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = Config {
        workload: need("--workload")?,
        seed: need("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: number("--seconds")?,
        trace: match need("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace {other:?} is not 0 or 1")),
        },
        scale: Scale::Full,
        state_dir: PathBuf::from(need("--state-dir")?),
        threads,
    };
    Ok((cfg, arg(&args, "--fs").unwrap_or_else(|| "unknown".into())))
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let (cfg, fs) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.state_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.state_dir.display());
        return ExitCode::from(2);
    }
    let outcome = match run(&cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };

    let env: Vec<String> =
        fhg_env().iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect();
    println!(
        "perfbench-env {{\"workload\":{},\"seed\":{},\"nproc\":{},\"pool_threads\":{},\
         \"kernel\":{},\"wal_fs\":{},\"wal_sync\":\"always\",\"fhg_env\":{{{}}}}}",
        json_str(&cfg.workload),
        cfg.seed,
        cfg.threads,
        cfg.threads,
        json_str(&format!("{:?}", fhg_graph::KernelMode::active())),
        json_str(&fs),
        env.join(",")
    );

    let mut correct = outcome.ledger.failed == 0;
    let mut metrics = Vec::new();
    for (name, (value, unit)) in &outcome.metrics {
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite");
            correct = false;
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        metrics.push(format!(
            "{}:{{\"value\":{value:?},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.ledger.attempted.max(1),
        outcome.ledger.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
