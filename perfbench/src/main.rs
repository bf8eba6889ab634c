//! `td-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints each reported metric as `name value unit`, then, as the last line,
//! the result object `{"correct", "attempted", "failed", "metrics"}`.
//! `--out-dir` sets where snapshots and span files go. A run that measured a
//! metric as NaN or infinite exits non-zero without printing a result.

use std::path::PathBuf;
use std::process::ExitCode;

use td_perfbench::{run, Config, WorkloadKind};

fn parse() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out_dir = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.parse::<WorkloadKind>()?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let mut cfg = Config::new(
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds,
        trace.ok_or("--trace is required")?,
    );
    if let Some(dir) = out_dir {
        cfg.out_dir = dir;
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("td-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(&cfg);
    for failure in &report.checks.first_failures {
        eprintln!("td-perfbench: check failed: {failure}");
    }
    if let Some(path) = &report.trace_file {
        println!("spans written to {}", path.display());
    }
    let json = match report.to_json() {
        Ok(json) => json,
        Err(e) => {
            eprintln!("td-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit) in report.reported() {
        println!("{name} {value} {unit}");
    }
    println!("{json}");
    ExitCode::SUCCESS
}
