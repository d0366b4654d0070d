//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (see the library docs), prints every metric and note
//! as a readable line, writes a traced run's spans under `out/` in this
//! package's directory, and ends with the one-line JSON result. Exits
//! non-zero on bad arguments, a set-up error, a failed correctness check or
//! a failed op. `run.py` builds it and runs it with the worker pool pinned
//! to width 1.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use cps_e2ebench::{metric_specs, run, trace, RunConfig, Workload};

const USAGE: &str =
    "usage: e2ebench --workload <case_study_minimize|admit_churn_cold|admit_churn_warm> \
                     --seed <n> --seconds <s> [--trace <0|1>]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<RunConfig, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                );
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (0.0..=3600.0).contains(s))
                    .ok_or_else(|| format!("--seconds {value}: expected 0 to 3600"))?;
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let config = match parse_args(std::env::args().skip(1)) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&config) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} seed {} trace {}: {} ops attempted, {} failed, correct {}",
        config.workload.name(),
        config.seed,
        u8::from(config.trace),
        outcome.attempted,
        outcome.failed,
        outcome.correct
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in metric_specs(config.trace) {
        println!("  {} = {} {}", m.name, outcome.metrics[m.name], m.unit);
    }
    if config.trace {
        for (name, ns) in trace::self_time_ns(&outcome.spans) {
            println!("  self time {name}: {:.3} ms", ns as f64 / 1e6);
        }
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "{}-seed{}.spans.tsv",
                config.workload.name(),
                config.seed
            ));
        if let Err(e) = trace::write_tsv(&outcome.spans, &path) {
            eprintln!("e2ebench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "  {} spans written to {}",
            outcome.spans.len(),
            path.display()
        );
    }
    println!("{}", outcome.to_json(config.trace));
    if outcome.correct && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
