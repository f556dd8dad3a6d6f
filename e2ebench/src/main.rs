//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a human-readable report followed, as the
//! last line of standard output, by one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! Exits non-zero when the oracle finds a wrong or missing output.

use cosmos_e2ebench::report::{Report, END_TO_END, PER_LAYER};
use cosmos_e2ebench::world::Scale;
use cosmos_e2ebench::{churn, faulty, sensor, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: e2ebench --workload <sensor-stream|query-churn|faulty-stream> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        scale: Scale::paper(),
        span_dir: Some(PathBuf::from(".bench_out")),
    };
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let val = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => cfg.workload = val,
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(val.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.seed = seed.ok_or("--seed is required")?;
    cfg.seconds = seconds.ok_or("--seconds is required")?;
    cfg.trace = trace.ok_or("--trace is required")?;
    if !(1..=600).contains(&cfg.seconds) {
        return Err(format!("--seconds must be in 1..=600, got {}", cfg.seconds));
    }
    Ok(cfg)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_metrics(ms: &[(&str, f64, &str)]) -> String {
    let items: Vec<String> = ms
        .iter()
        .map(|(name, v, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(*v))
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn main() -> ExitCode {
    let cfg = match parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let rep: Report = match cfg.workload.as_str() {
        "sensor-stream" => sensor::run(&cfg),
        "query-churn" => churn::run(&cfg),
        "faulty-stream" => faulty::run(&cfg),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    println!(
        "# {} seed={} seconds={} trace={} nproc={nproc} host={host} input_digest={:016x}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8, rep.input_digest
    );
    for line in &rep.meta {
        println!("# {line}");
    }
    let failed_frac = rep.failed as f64 / rep.attempted.max(1) as f64;
    println!("# failed_frac = {failed_frac} ({} of {} oracle checks)", rep.failed, rep.attempted);
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        if let Some(v) = rep.get(name) {
            println!("{name:<36} {v:>18.6} {unit}");
        }
    }
    let metrics = match rep.list(cfg.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &rep.failures {
        println!("# FAILED: {f}");
    }
    let correct = rep.failed == 0 && rep.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        rep.attempted.max(1),
        rep.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
