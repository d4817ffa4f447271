//! The repository's end-to-end benchmark.
//!
//! Starts an in-process `PowServer` with the default `ServerConfig`,
//! drives it over loopback TCP with `PowClient`s and a raw-frame flooder,
//! checks every reply, and prints each metric by name and unit. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics, or with `--trace 1`
//! the per-layer ones).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload puzzle_fetch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--workload all` runs the three workloads in turn.

mod flood;
mod host;
mod measure;
mod probes;
mod stats;
mod workload;

use measure::{Metric, Outcome, RunConfig, END_TO_END, LAYERS};
use std::fmt::Write as _;
use std::process::ExitCode;
use workload::Workload;

/// A seed kept out of development, for checking a later claim on inputs
/// it was not tuned on.
const HELD_OUT_SEED: u64 = 20_220_627;

const USAGE: &str = "usage: perfbench [--workload puzzle_fetch|bypass_fetch|fig2_attack|all] \
[--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u32,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                parsed.workloads = match value.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::parse(name).ok_or_else(|| bad("workload"))?],
                }
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| bad("seconds (1..=600)"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(parsed)
}

fn fmt_value(value: Option<f64>) -> String {
    value.map_or_else(|| "n/a".into(), |v| format!("{v:.4}"))
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<40} {:>14} {}", m.name, fmt_value(m.value), m.unit);
    }
}

fn print_outcome(outcome: &Outcome) {
    let c = outcome.config;
    let h = &outcome.host;
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        c.workload.name(),
        c.seed,
        c.seconds,
        u8::from(c.trace)
    );
    println!(
        "host nproc={} cpu_flags={} rustc=\"{}\" reactor_shards={} steal_share={:.4} held_out_seed={}",
        h.nproc,
        h.cpu_flags.join(","),
        h.rustc,
        h.reactor_shards,
        h.steal_share,
        HELD_OUT_SEED
    );
    print_table(
        "end-to-end (median over the least-stolen half of the untraced half-second slices)",
        &outcome.end_to_end,
    );
    if c.trace {
        print_table("per-layer (pooled over traced slices)", &outcome.layers);
    }
    println!("checks");
    for check in &outcome.checks {
        let verdict = if check.passed { "ok  " } else { "FAIL" };
        println!("  {verdict} {:<28} {}", check.name, check.detail);
    }
}

/// The metrics `BENCHMARK.json` lists for this mode, all of which must
/// have been measured.
fn result_metrics<'a>(
    outcome: &'a Outcome,
    prefix: &str,
) -> Result<Vec<(String, &'a Metric)>, String> {
    let (names, pool): (&[&str], _) = if outcome.config.trace {
        (&LAYERS, &outcome.layers)
    } else {
        (&END_TO_END, &outcome.end_to_end)
    };
    names
        .iter()
        .map(|name| {
            pool.iter()
                .find(|m| m.name == *name && m.value.is_some())
                .map(|m| (format!("{prefix}{name}"), m))
                .ok_or_else(|| {
                    format!(
                        "{}: metric {name} was not measured",
                        outcome.config.workload.name()
                    )
                })
        })
        .collect()
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &Metric)],
) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, m)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = m.value.expect("result metrics are measured");
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.unit
        );
    }
    line.push_str("}}");
    line
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let multiple = args.workloads.len() > 1;
    let mut outcomes = Vec::new();
    for &workload in &args.workloads {
        let config = RunConfig {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
        };
        match measure::run(config) {
            Ok(outcome) => {
                print_outcome(&outcome);
                outcomes.push(outcome);
            }
            Err(e) => {
                eprintln!("perfbench: {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    let mut metrics = Vec::new();
    for outcome in &outcomes {
        let prefix = if multiple {
            format!("{}.", outcome.config.workload.name())
        } else {
            String::new()
        };
        match result_metrics(outcome, &prefix) {
            Ok(m) => metrics.extend(m),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let correct = outcomes.iter().all(|o| o.checks.iter().all(|c| c.passed));
    let attempted = outcomes.iter().map(|o| o.attempted).sum();
    let failed = outcomes.iter().map(|o| o.failed).sum();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
