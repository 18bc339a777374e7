//! Order statistics, aggregates and process memory readings.

use std::time::Duration;

/// The `q`-quantile of `samples` (`0 ≤ q ≤ 1`) by linear interpolation
/// between closest ranks; `NaN` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A tail percentile, reported only when at least ten samples lie beyond
/// it; `None` otherwise, so a "p99" of 200 samples never passes for a tail.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    // The epsilon keeps 100 × (1 − 0.9) from flooring to 9.
    let beyond = (samples.len() as f64 * (1.0 - q) + 1e-9).floor();
    (beyond >= 10.0).then(|| quantile(samples, q))
}

/// The arithmetic mean of `samples`.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The geometric mean of positive `values`.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set size (`VmHWM`) of process `pid` in MiB, or of this
/// process when `pid` is `None`.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(tail(&xs, 0.9).is_none());
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(tail(&xs, 0.9).is_some());
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
    }
}
