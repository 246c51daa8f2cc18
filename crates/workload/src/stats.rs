//! Descriptive statistics for arrival processes: moments, autocorrelation,
//! and the index of dispersion for counts (IDC) used in the paper's Fig. 5.

use crate::trace::Trace;
use serde::{Deserialize, Serialize};

/// Log-scale summary of a window of interarrival times. Shared by the
/// drift detector (`dbat-core`) and the controller audit trail
/// (`dbat-sim::controller`), hence it lives at the bottom of the stack.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Mean of log-interarrivals (log-rate proxy).
    pub log_mean: f64,
    /// Standard deviation of log-interarrivals (burstiness proxy).
    pub(crate) log_std: f64,
}

impl WindowStats {
    pub fn from_window(window: &[f64]) -> Self {
        assert!(!window.is_empty(), "window must be non-empty");
        let logs: Vec<f64> = window.iter().map(|&x| (x + 1e-6).ln()).collect();
        let mean = logs.iter().sum::<f64>() / logs.len() as f64;
        let var = logs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / logs.len() as f64;
        WindowStats {
            log_mean: mean,
            log_std: var.sqrt(),
        }
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; 0 for fewer than two samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Squared coefficient of variation `var / mean²`; 0 on degenerate input.
pub fn scv(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if m == 0.0 {
        return 0.0;
    }
    variance(xs) / (m * m)
}

/// Lag-`k` autocorrelation; 0 when undefined.
pub fn autocorrelation(xs: &[f64], k: usize) -> f64 {
    if k == 0 {
        return 1.0;
    }
    if xs.len() <= k + 1 {
        return 0.0;
    }
    let m = mean(xs);
    let var = variance(xs);
    if var <= 0.0 {
        return 0.0;
    }
    let n = xs.len() - k;
    let cov: f64 = (0..n).map(|i| (xs[i] - m) * (xs[i + k] - m)).sum::<f64>() / n as f64;
    cov / var
}

/// Empirical IDC of a trace from its interarrival times:
/// `IDC = SCV · (1 + 2 Σ_{k=1}^{K} ρ_k)`, truncating the autocorrelation sum
/// at `max_lag` (empirical ACFs vanish at high lags, §IV-A of the paper).
pub fn idc_from_interarrivals(ia: &[f64], max_lag: usize) -> f64 {
    if ia.len() < 4 {
        return 1.0;
    }
    let s = scv(ia);
    let mut acc = 0.0;
    for k in 1..=max_lag.min(ia.len() / 4) {
        let rho = autocorrelation(ia, k);
        acc += rho;
    }
    (s * (1.0 + 2.0 * acc)).max(0.0)
}

/// Empirical IDC by the counting method: split the trace into bins of width
/// `bin` and return `Var(N)/E[N]` of the per-bin counts.
pub fn idc_by_counts(trace: &Trace, bin: f64) -> f64 {
    let counts: Vec<f64> = trace.counts(bin).into_iter().map(|c| c as f64).collect();
    let m = mean(&counts);
    if m == 0.0 {
        return 1.0;
    }
    variance(&counts) / m
}

/// Per-segment IDC series: cut the trace into consecutive segments of
/// `segment` seconds (the paper uses one hour) and compute the counting-IDC
/// with bins of width `bin` inside each. This regenerates Fig. 5.
pub fn idc_series(trace: &Trace, segment: f64, bin: f64) -> Vec<f64> {
    assert!(segment > bin, "segment must exceed bin width");
    let nseg = (trace.horizon() / segment).floor() as usize;
    (0..nseg)
        .map(|i| {
            let s = trace.slice(i as f64 * segment, (i + 1) as f64 * segment);
            idc_by_counts(&s, bin)
        })
        .collect()
}

/// Percentile of a sample by linear interpolation (p in [0, 100]).
/// Returns 0 on empty input.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    percentile_sorted(&sorted, p)
}

/// Percentile of an already-sorted sample (ascending).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Estimate an arbitrary percentile from values tracked at a few known
/// percentile keys, by linear interpolation between the bracketing keys.
/// Queries below the first key clamp to its value; queries above the last
/// key clamp likewise (the tail beyond the highest tracked percentile is
/// unobserved, so extrapolating would invent data).
///
/// `keys` must be strictly increasing and the same length as `values`.
pub fn interp_tracked_percentile(keys: &[f64], values: &[f64], p: f64) -> f64 {
    assert_eq!(keys.len(), values.len());
    assert!(!keys.is_empty(), "need at least one tracked percentile");
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile must be in [0, 100], got {p}"
    );
    if p <= keys[0] {
        return values[0];
    }
    if p >= keys[keys.len() - 1] {
        return values[values.len() - 1];
    }
    let hi = keys.partition_point(|&k| k < p);
    let (k0, k1) = (keys[hi - 1], keys[hi]);
    let w = (p - k0) / (k1 - k0);
    values[hi - 1] * (1.0 - w) + values[hi] * w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::Map;
    use crate::mmpp::Mmpp2;
    use crate::rng::Rng;

    #[test]
    fn mean_variance_scv() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((scv(&xs) - 4.0 / 25.0).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_of_alternating_sequence() {
        let xs: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!(autocorrelation(&xs, 1) < -0.9);
        assert!(autocorrelation(&xs, 2) > 0.9);
        assert_eq!(autocorrelation(&xs, 0), 1.0);
    }

    #[test]
    fn autocorrelation_degenerate() {
        assert_eq!(autocorrelation(&[1.0, 1.0, 1.0], 1), 0.0); // zero variance
        assert_eq!(autocorrelation(&[1.0], 1), 0.0); // too short
    }

    #[test]
    fn poisson_idc_near_one() {
        let m = Map::poisson(20.0);
        let mut rng = Rng::new(5);
        let arr = m.simulate(&mut rng, 0.0, 2_000.0);
        let tr = Trace::new(arr, 2_000.0);
        let idc = idc_by_counts(&tr, 10.0);
        assert!((idc - 1.0).abs() < 0.3, "idc {idc}");
        let idc_ia = idc_from_interarrivals(&tr.interarrivals(), 100);
        assert!((idc_ia - 1.0).abs() < 0.35, "idc_ia {idc_ia}");
    }

    #[test]
    fn bursty_idc_large() {
        let m = Mmpp2::from_targets(20.0, 50.0, 15.0, 0.3).to_map().unwrap();
        let mut rng = Rng::new(6);
        let tr = Trace::new(m.simulate(&mut rng, 0.0, 8_000.0), 8_000.0);
        let idc = idc_by_counts(&tr, 20.0);
        assert!(idc > 10.0, "idc {idc} should reflect strong burstiness");
    }

    #[test]
    fn idc_series_segments() {
        let m = Map::poisson(10.0);
        let mut rng = Rng::new(7);
        let tr = Trace::new(m.simulate(&mut rng, 0.0, 3_600.0), 3_600.0);
        let series = idc_series(&tr, 600.0, 5.0);
        assert_eq!(series.len(), 6);
        for v in series {
            assert!((v - 1.0).abs() < 0.5, "{v}");
        }
    }

    #[test]
    fn percentile_interpolation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        assert!((percentile(&xs, 75.0) - 3.25).abs() < 1e-12);
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn percentile_monotone_in_p() {
        let xs = [5.0, 1.0, 9.0, 3.0, 7.0];
        let mut prev = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0] {
            let v = percentile(&xs, p);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn interp_tracked_exact_keys_and_between() {
        let keys = [50.0, 90.0, 95.0, 99.0];
        let values = [1.0, 2.0, 3.0, 5.0];
        for (k, v) in keys.iter().zip(values) {
            assert_eq!(interp_tracked_percentile(&keys, &values, *k), v);
        }
        // Midway between p90 and p95.
        assert!((interp_tracked_percentile(&keys, &values, 92.5) - 2.5).abs() < 1e-12);
        // Quarter of the way between p95 and p99.
        assert!((interp_tracked_percentile(&keys, &values, 96.0) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn interp_tracked_clamps_outside_range() {
        let keys = [50.0, 90.0, 95.0, 99.0];
        let values = [1.0, 2.0, 3.0, 5.0];
        assert_eq!(interp_tracked_percentile(&keys, &values, 0.0), 1.0);
        assert_eq!(interp_tracked_percentile(&keys, &values, 42.0), 1.0);
        assert_eq!(interp_tracked_percentile(&keys, &values, 100.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn interp_tracked_rejects_out_of_domain() {
        interp_tracked_percentile(&[50.0, 99.0], &[1.0, 2.0], 150.0);
    }
}
