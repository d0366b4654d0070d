//! Order statistics and process measurements.

use std::time::Duration;

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` in a sample of `n > 0`. A product
/// within rounding error of a whole number counts as that number, so that
/// p99.9 of 20 000 samples is rank 19 980.
fn rank(n: usize, p: f64) -> usize {
    let exact = p / 100.0 * n as f64;
    let rank = if (exact - exact.round()).abs() < 1e-6 {
        exact.round()
    } else {
        exact.ceil()
    };
    (rank as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` of an ascending sample (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        sorted[rank(sorted.len(), p) - 1]
    }
}

/// Percentile `p` of an ascending sample, when at least [`TAIL_BEYOND`]
/// samples lie beyond it. Each workload fixes its tail percentile and runs
/// enough ops for it, so one metric name always means one percentile.
pub fn tail(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    (n > 0 && n - rank(n, p) >= TAIL_BEYOND).then(|| percentile(sorted, p))
}

/// The sample sorted ascending.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// Milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's resident-memory high-water mark (`VmHWM`) in MiB, or 0
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let sample = |n: usize| sorted((1..=n).map(|i| i as f64).collect());
        // 40 samples: p75 is rank 30, with 10 beyond it.
        assert_eq!(tail(&sample(40), 75.0), Some(30.0));
        assert_eq!(tail(&sample(39), 75.0), None);
        // 10 000 samples: p99.9 is rank 9 990, with 10 beyond it.
        assert_eq!(tail(&sample(10_000), 99.9), Some(9_990.0));
        assert_eq!(tail(&sample(9_999), 99.9), None);
        assert_eq!(tail(&[], 50.0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(median(&[5.0, 9.0, 1.0]), 5.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
