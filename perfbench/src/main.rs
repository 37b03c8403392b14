//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the Impliance end-to-end benchmark and prints,
//! as the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The traced run also writes its spans to
//! `perfbench/out/trace-<workload>-<seed>.json`.

use std::process::ExitCode;
use std::time::Duration;

use impliance_perfbench::{run, Budget, Opts, WORKLOADS};

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    let opts = Opts {
        seed,
        budget: Budget::Time(Duration::from_secs_f64(seconds)),
        trace,
        scale: 1.0,
        setup_reps: SETUP_REPS,
    };
    let Some(report) = run(&workload, &opts) else {
        return usage(&format!("unknown workload {workload}"));
    };
    if let Some(json) = &report.trace_json {
        let path = format!("perfbench/out/trace-{workload}-{seed}.json");
        let written =
            std::fs::create_dir_all("perfbench/out").and_then(|_| std::fs::write(&path, json));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {path}: {e}");
        } else {
            eprintln!("perfbench: spans written to {path}");
        }
    }
    let metrics = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
