//! The SENECA reproduction's benchmark.
//!
//! ```text
//! perfbench --workload <paper-frame|clinic-mix|deploy-16m> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each workload builds everything it needs from the fixed benchmark
//! configuration inside the process (no model cache is read or written),
//! makes its inputs from `--seed`, measures for `--seconds`, checks every
//! output bit for bit against an INT8 oracle, and prints as its last
//! stdout line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the workload runs traced and prints the per-layer metrics
//! and one ledger line per executed IR node. Lines before the last give
//! the run's context, each metric's sample summary and the outcome counts.
//! The process exits 1 when any output check fails and 2 on bad arguments.

mod clinic_mix;
mod common;
mod deploy;
mod ledger;
mod loadgen;
mod paper_frame;
mod report;
mod stats;

use report::{Report, END_TO_END, PER_LAYER};
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["paper-frame", "clinic-mix", "deploy-16m"];

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| (1..=600).contains(&s)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed must be a non-negative integer")),
        seconds: Duration::from_secs(
            seconds.unwrap_or_else(|| usage("--seconds must be an integer in 1..=600")),
        ),
        trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
    }
}

fn main() {
    let args = parse_args();
    let cfg = common::bench_config();
    println!(
        "{{\"run\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"git_rev\": \"{}\", \"source_fingerprint\": \"{}\", \
         \"config_fingerprint\": \"{}\"}}}}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        args.trace as u8,
        common::nproc(),
        std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into()),
        std::env::var("PERFBENCH_SOURCE_FINGERPRINT").unwrap_or_else(|_| "unknown".into()),
        common::config_fingerprint(&cfg),
    );

    let mut report = Report::default();
    match args.workload.as_str() {
        "paper-frame" => paper_frame::run(&args, &mut report),
        "clinic-mix" => clinic_mix::run(&args, &mut report),
        "deploy-16m" => deploy::run(&args, &mut report),
        _ => unreachable!("workload validated by parse_args"),
    }

    println!("{{\"outcomes\": {}}}", report.outcomes.to_json());
    println!("{}", report.final_line(if args.trace { PER_LAYER } else { END_TO_END }));
    if !report.correct() {
        eprintln!("[perfbench] output checks failed: {}", report.check_failures.join("; "));
        std::process::exit(1);
    }
}
