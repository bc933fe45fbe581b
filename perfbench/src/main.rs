//! End-to-end benchmark of the cxrpq workspace.
//!
//! ```text
//! perfbench --workload <serve-mixed|crpq-cold|xregex-cold|ingest-stream>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run generates its inputs from the seed, sets up the workload several
//! times, measures for the given seconds, checks every answer against the
//! independent reference evaluator, and prints one JSON object as its last
//! line: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! (computed from spans recorded around each call into the program) with
//! `--trace 1`. It exits non-zero after that line when an answer was wrong
//! or an operation failed. See README.md.

mod cold;
mod common;
mod crpq_cold;
mod expr;
mod ingest_stream;
mod layers;
mod reference;
mod serve_mixed;
mod trace;
mod xregex_cold;

use common::{quantile, windowed_p99, Opts, Outcome};
use std::fmt::Write as _;

const WORKLOADS: [&str; 4] = ["serve-mixed", "crpq-cold", "xregex-cold", "ingest-stream"];

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .unwrap_or_else(|| usage(&format!("{} needs a value", args[i])));
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    if seconds.is_nan() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }

    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let opts = Opts {
        seed,
        seconds,
        trace,
    };
    let outcome = match workload.as_str() {
        "serve-mixed" => serve_mixed::run(opts),
        "crpq-cold" => crpq_cold::run(opts),
        "xregex-cold" => xregex_cold::run(opts),
        "ingest-stream" => ingest_stream::run(opts),
        other => usage(&format!("unknown workload {other}")),
    };

    let metrics = if trace {
        let path =
            std::path::PathBuf::from(format!("perfbench/traces/{workload}-seed{seed}.jsonl"));
        if let Err(e) = trace::write_spans(&path, &outcome.tracer.spans) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        layers::per_layer(&outcome)
    } else {
        end_to_end(&outcome)
    };
    eprintln!(
        "set-up: {} repetitions, median {:.3} ms",
        outcome.setup_s.len(),
        common::median(&outcome.setup_s) * 1e3
    );
    eprintln!(
        "{workload} seed {seed}: {} operations, {} failed, correct {}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    println!(
        "{}",
        render(outcome.correct, outcome.attempted, outcome.failed, &metrics)
    );
    if !outcome.correct || outcome.failed > 0 {
        std::process::exit(1);
    }
}

/// The end-to-end metrics, every one on every workload.
fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let lat = &o.latencies_ms;
    vec![
        ("setup_s", common::median(&o.setup_s), "s"),
        ("throughput_qps", lat.len() as f64 / o.busy_s, "1/s"),
        ("latency_p50_ms", quantile(lat, 0.50), "ms"),
        ("latency_p99_ms", windowed_p99(lat, o.round_ops), "ms"),
        ("ingest_eps", o.ingest_eps, "1/s"),
        ("peak_rss_mb", o.peak_rss_mb, "MiB"),
    ]
}

fn render(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}
