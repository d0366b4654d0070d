//! Shared plumbing of the `bench_*` binaries: `--quick` parsing, wall-clock
//! timing, and the flat `"key": value` JSON report format the CI bench-smoke
//! jobs grep.
//!
//! Every performance binary follows the same protocol: it accepts a
//! `--quick` flag selecting reduced CI sizes, takes best-of-N timings, and
//! writes a `BENCH_<name>.json` at the repository root whose scalar fields
//! sit alone on one line each (`  "key": value,`) so the CI can check their
//! presence and values with `grep`. This module is the single home of that
//! protocol; the per-binary code only decides *what* to measure.

use std::fmt::Display;
use std::path::Path;
use std::time::Instant;

/// Parses the `--quick` flag (reduced CI smoke sizes) from the process
/// arguments.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Milliseconds spent in `f`, returning the value as well.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// Best-of-three timing, applied to baseline and engine configurations alike
/// so reported speedups compare like with like.
pub fn timed_best<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut value, mut best) = timed(&mut f);
    for _ in 0..2 {
        let (v, ms) = timed(&mut f);
        if ms < best {
            best = ms;
            value = v;
        }
    }
    (value, best)
}

/// Writes a rendered report next to the workspace `Cargo.toml` as
/// `BENCH_<name>.json` and echoes the path, as every bench binary does.
///
/// # Panics
///
/// Panics if the file cannot be written — a bench run that cannot record
/// its results has failed.
pub fn write_report(name: &str, json: &str) {
    let out_path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{name}.json"));
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("writes BENCH_{name}.json: {e}"));
    println!("wrote {}", out_path.display());
}

/// Builder for the flat JSON report shape: scalar fields one per line
/// (`  "key": value`), pre-rendered arrays/objects passed through verbatim,
/// commas managed centrally.
#[derive(Debug, Default)]
pub struct JsonReport {
    entries: Vec<String>,
}

impl JsonReport {
    /// An empty report; callers usually open with
    /// [`JsonReport::field`]`("quick", quick)`.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scalar field rendered with `Display` — numbers and booleans. The
    /// rendered value must not contain quotes of its own.
    pub fn field(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.entries.push(format!("  \"{key}\": {value}"));
        self
    }

    /// A float field with three decimals — the precision every timing and
    /// rate field uses so small-but-present values stay non-zero in the
    /// rendered text.
    pub fn field_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.entries.push(format!("  \"{key}\": {value:.3}"));
        self
    }

    /// Renders the report as a JSON object.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&self.entries.join(",\n"));
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_best_returns_a_value_and_a_duration() {
        let (v, ms) = timed_best(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
    }

    #[test]
    fn json_report_renders_flat_greppable_lines() {
        let mut report = JsonReport::new();
        report
            .field("quick", true)
            .field_f64("p99_us", 12.3456)
            .field("memo_hits", 7usize);
        let rendered = report.render();
        assert!(rendered.starts_with("{\n"));
        assert!(rendered.ends_with("\n}\n"));
        // One scalar per line, the shape the CI greps for.
        assert!(rendered.contains("  \"quick\": true,\n"));
        assert!(rendered.contains("  \"p99_us\": 12.346,\n"));
        assert!(rendered.contains("  \"memo_hits\": 7\n}"));
    }
}
