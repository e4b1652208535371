//! `servebench` — runs one workload of the serving-path benchmark and
//! prints its result as the last line of standard output.
//!
//! ```text
//! servebench --workload intersection|edge_fanin|daemon_loop
//!            [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The result line is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 1` the metrics are
//! the per-layer ones and the spans are written under `traces/` next to
//! this package's manifest. The exit code is 0 only when every check
//! passed.

use servebench::{run, Options, Workload};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: servebench --workload intersection|edge_fanin|daemon_loop \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    ExitCode::from(2)
}

/// Parses the command line; `Err` names the offending argument.
fn parse(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::Intersection,
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                opts.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds wants a non-negative number")?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("servebench: {e}");
            return usage();
        }
    };
    let (workload, seed) = (opts.workload, opts.seed);
    let outcome = run(&opts);

    for m in &outcome.metrics {
        eprintln!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "servebench: {} seed {}: {} frames, {} checks passed, {} failed",
        workload.name(),
        seed,
        outcome.attempted,
        outcome.checks_passed,
        outcome.failures.len()
    );
    for f in &outcome.failures {
        eprintln!("  CHECK FAILED: {f}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
