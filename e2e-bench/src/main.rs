//! The end-to-end benchmark of the model-assertion monitor.
//!
//! ```text
//! omg-e2e-bench --workload <video-stream|ecg-service|al-select>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run builds the workload's inputs from the seed, measures for the
//! given seconds, checks every output against a reference, prints a run
//! header (lines starting with `#`), and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. An untraced run
//! (`--trace 0`) reports the end-to-end metrics; a traced run reports
//! the per-layer metrics from spans recorded around calls into each
//! layer (see `trace.rs`) and writes the spans to `.bench_trace/`.

mod al_select;
mod alloc;
mod common;
mod ecg_service;
mod openloop;
mod report;
mod stats;
mod trace;
mod video_stream;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The workloads, by their command-line names.
const WORKLOADS: [&str; 3] = ["video-stream", "ecg-service", "al-select"];

/// One run's settings, from the command line.
pub struct RunConfig {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured time, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

const USAGE: &str = "usage: omg-e2e-bench --workload <video-stream|ecg-service|al-select> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    common::print_header(&config);
    let outcome = match config.workload.as_str() {
        "video-stream" => video_stream::run(&config),
        "ecg-service" => ecg_service::run(&config),
        _ => al_select::run(&config),
    };
    let line = outcome.and_then(|o| o.json_line(config.trace));
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let c = parse_args(&args(
            "--workload al-select --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (c.workload.as_str(), c.seed, c.seconds, c.trace),
            ("al-select", 7, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload al-select --seed -1 --seconds 1 --trace 0",
            "--workload al-select --seed 1 --seconds 0 --trace 0",
            "--workload al-select --seed 1 --seconds 1 --trace 2",
            "--workload al-select --seed 1 --seconds 1",
            "--workload al-select --seed 1 --seconds 1 --trace",
            "--workload al-select --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
