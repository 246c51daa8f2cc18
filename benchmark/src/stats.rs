//! Order statistics for the harness, on top of `dbat_workload`'s
//! interpolated percentile: the median-of-passes reducer every timing
//! metric goes through, and the "highest percentile the sample supports"
//! rule (at least ten samples must lie beyond a percentile for it to be
//! reported).

pub use dbat_workload::percentile_sorted;

/// Samples that must lie beyond a percentile before it is trusted.
pub const MIN_BEYOND: usize = 10;

/// Sort in place and return the sorted slice's percentile.
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    xs.sort_by(f64::total_cmp);
    percentile_sorted(xs, p)
}

pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The highest percentile of an `n`-sample with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when not even the median qualifies.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    if n < 2 * MIN_BEYOND {
        return None;
    }
    Some((n - MIN_BEYOND) as f64 / n as f64 * 100.0)
}

/// A latency sample reduced the way the harness reports it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TailSummary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
    /// `(percentile, value)` of the highest supported percentile.
    pub tail: Option<(f64, f64)>,
}

impl TailSummary {
    pub fn of(xs: &mut [f64]) -> Self {
        xs.sort_by(f64::total_cmp);
        TailSummary {
            n: xs.len(),
            p50: percentile_sorted(xs, 50.0),
            p90: percentile_sorted(xs, 90.0),
            p99: percentile_sorted(xs, 99.0),
            max: xs.last().copied().unwrap_or(0.0),
            tail: highest_supported_percentile(xs.len()).map(|p| (p, percentile_sorted(xs, p))),
        }
    }

    /// One printed line: the sample count travels with the percentiles.
    pub fn line(&self, what: &str, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p:.2} {v:.3} {unit} (>= {MIN_BEYOND} samples beyond)"),
            None => format!("no percentile has {MIN_BEYOND} samples beyond it"),
        };
        format!(
            "{what}: n {} | p50 {:.3} {unit} | p90 {:.3} {unit} | {tail}",
            self.n, self.p50, self.p90
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_interpolation() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&xs, 90.0), 90.0);
        assert_eq!(percentile_sorted(&xs, 0.0), 0.0);
        assert_eq!(percentile_sorted(&xs, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = TailSummary::of(&mut xs);
        let (p, v) = s.tail.unwrap();
        assert_eq!(p, 99.0);
        // Exactly ten samples (991..=1000) lie beyond the reported value.
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), MIN_BEYOND);
        let line = s.line("decide", "us");
        assert!(line.contains("n 1000") && line.contains("p99.00"), "{line}");
        let few = TailSummary::of(&mut [1.0, 2.0, 3.0]);
        assert!(few.tail.is_none());
        assert!(few.line("x", "us").contains("n 3"));
    }
}
