//! Latency summaries and the paper's SLO Violation Count Ratio (VCR).

use dbat_workload::stats::{interp_tracked_percentile, percentile_sorted};
use serde::{Deserialize, Serialize};

/// The latency percentiles the surrogate model predicts (plus cost).
pub const PERCENTILE_KEYS: [f64; 4] = [50.0, 90.0, 95.0, 99.0];

/// Latency distribution summary over one evaluation window.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    pub p50: f64,
    pub p90: f64,
    pub p95: f64,
    pub p99: f64,
    pub mean: f64,
    pub max: f64,
    pub count: usize,
}

impl LatencySummary {
    pub fn from_latencies(latencies: &[f64]) -> Self {
        if latencies.is_empty() {
            return LatencySummary {
                p50: 0.0,
                p90: 0.0,
                p95: 0.0,
                p99: 0.0,
                mean: 0.0,
                max: 0.0,
                count: 0,
            };
        }
        let mut sorted = latencies.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        LatencySummary {
            p50: percentile_sorted(&sorted, 50.0),
            p90: percentile_sorted(&sorted, 90.0),
            p95: percentile_sorted(&sorted, 95.0),
            p99: percentile_sorted(&sorted, 99.0),
            mean,
            max: *sorted.last().unwrap(),
            count: sorted.len(),
        }
    }

    /// Look up a percentile. The four tracked keys (50/90/95/99) return
    /// their stored values exactly; any other `p` in [0, 100] is estimated
    /// by linear interpolation between the bracketing tracked keys
    /// (clamped to p50 below 50 and p99 above 99).
    pub fn percentile(&self, p: f64) -> f64 {
        interp_tracked_percentile(&PERCENTILE_KEYS, &self.percentile_vector(), p)
    }

    /// The tracked percentiles as a vector (surrogate training target order).
    pub fn percentile_vector(&self) -> [f64; 4] {
        [self.p50, self.p90, self.p95, self.p99]
    }
}

/// SLO Violation Count Ratio (Eq. 11): the percentage of decision intervals
/// whose measured latency exceeded the SLO.
pub(crate) fn vcr(violations: &[bool]) -> f64 {
    if violations.is_empty() {
        return 0.0;
    }
    violations.iter().filter(|&&v| v).count() as f64 / violations.len() as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let lat: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencySummary::from_latencies(&lat);
        assert_eq!(s.count, 100);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.p95 - 95.05).abs() < 1e-9);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn percentiles_monotone() {
        let lat = [0.3, 0.1, 0.9, 0.5, 0.2, 0.8];
        let s = LatencySummary::from_latencies(&lat);
        assert!(s.p50 <= s.p90);
        assert!(s.p90 <= s.p95);
        assert!(s.p95 <= s.p99);
        assert!(s.p99 <= s.max);
    }

    #[test]
    fn empty_summary_zeroes() {
        let s = LatencySummary::from_latencies(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.p95, 0.0);
    }

    #[test]
    fn percentile_lookup() {
        let s = LatencySummary::from_latencies(&[1.0, 2.0, 3.0]);
        assert_eq!(s.percentile(50.0), s.p50);
        assert_eq!(s.percentile(99.0), s.p99);
        assert_eq!(s.percentile_vector(), [s.p50, s.p90, s.p95, s.p99]);
    }

    #[test]
    fn percentile_lookup_untracked_key_interpolates() {
        let s = LatencySummary::from_latencies(&(1..=100).map(|i| i as f64).collect::<Vec<_>>());
        // Untracked keys no longer panic: below the first tracked key
        // clamps to p50, between keys interpolates, above clamps to p99.
        assert_eq!(s.percentile(42.0), s.p50);
        let p92_5 = s.percentile(92.5);
        assert!(
            s.p90 <= p92_5 && p92_5 <= s.p95,
            "p92.5 {p92_5} outside [{}, {}]",
            s.p90,
            s.p95
        );
        assert_eq!(s.percentile(100.0), s.p99);
    }

    #[test]
    fn vcr_percentages() {
        assert_eq!(vcr(&[]), 0.0);
        assert_eq!(vcr(&[false, false]), 0.0);
        assert_eq!(vcr(&[true, false, false, false]), 25.0);
        assert_eq!(vcr(&[true, true]), 100.0);
    }
}
