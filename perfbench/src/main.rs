//! The repository benchmark.
//!
//! ```text
//! perfbench --workload batch_week|live_query_mix|analysis_suite
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload builds its inputs from `--seed`, measures for about
//! `--seconds`, checks its outputs and prints, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics with the
//! `mobilenet-obs` instrumentation off; `--trace 1` runs the traced variant
//! and reports the per-layer metrics instead. See `README.md` beside this
//! file for what each workload is for and which layer moves which metric.

mod analysis;
mod batch;
mod live;
mod probe;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    name: String,
    value: f64,
    unit: String,
}

/// Shorthand constructor for a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit: unit.into(),
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (collections, queries, analysis passes).
    pub attempted: u64,
    /// Attempted operations whose output check failed.
    pub failed: u64,
    /// Output checks that are not per-operation; any entry makes the run
    /// incorrect.
    pub errors: Vec<String>,
    /// The metrics, end-to-end or per-layer depending on `--trace`.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one operation and whether its checks passed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds a metric.
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }
}

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// How long the measured part of the run lasts.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// One unit of `live_query_mix` to run in this (child) process.
    pub unit: Option<String>,
}

const USAGE: &str = "usage: perfbench --workload batch_week|live_query_mix|analysis_suite \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut unit = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|_| format!("bad seconds {value}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value} (expected 0 or 1)")),
                })
            }
            "--unit" => unit = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        unit,
    })
}

/// The traced run: every part of the apparatus once, with the
/// benchmark's layer timers and `mobilenet-obs` on — the batch chain, the
/// live server under queries and the analyses — so that every workload's
/// traced run reports every per-layer metric. `trace.overhead_frac` is the
/// overhead of the part the workload itself exercises.
fn census(args: &Args, threads: usize) -> Outcome {
    let mut outcome = Outcome::default();
    let mut own_overhead = f64::NAN;
    for (workload, traced) in [
        (
            "batch_week",
            batch::traced as fn(&Args, usize) -> (Outcome, f64),
        ),
        ("live_query_mix", live::traced),
        ("analysis_suite", analysis::traced),
    ] {
        let (part, overhead) = traced(args, threads);
        println!("{workload}: tracing overhead {:+.1}%", 100.0 * overhead);
        if workload == args.workload {
            own_overhead = overhead;
        }
        outcome.attempted += part.attempted;
        outcome.failed += part.failed;
        outcome.errors.extend(part.errors);
        outcome.metrics.extend(part.metrics);
    }
    outcome.push(metric("trace.overhead_frac", own_overhead, "frac"));
    outcome
}

/// The scale tier a workload runs at.
pub fn tier_of(workload: &str) -> &'static str {
    match workload {
        "analysis_suite" => analysis::TIER,
        _ => batch::TIER,
    }
}

/// Renders a metric value as a JSON number with every digit kept.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = probe::nproc();
    if let Some(unit) = &args.unit {
        return match live::run_unit(&args, threads, unit) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let run = match args.workload.as_str() {
        "batch_week" => batch::run,
        "live_query_mix" => live::run,
        "analysis_suite" => analysis::run,
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        census(&args, threads)
    } else {
        run(&args, threads)
    };
    println!("provenance {}", probe::provenance_json(&args, threads));
    for e in &outcome.errors {
        println!("check failed: {e}");
    }
    let correct = outcome.errors.is_empty() && outcome.failed == 0 && outcome.attempted > 0;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    // A run that attempted nothing reports one failed attempt.
    let (attempted, failed) = if outcome.attempted == 0 {
        (1, 1)
    } else {
        (outcome.attempted, outcome.failed)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
