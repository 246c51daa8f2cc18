//! Lock-cheap metric primitives: counters, gauges, and streaming
//! histograms with percentile estimation.
//!
//! All types are updated with relaxed atomics only — safe to hammer from
//! rayon worker threads — and read with a consistent-enough snapshot for
//! reporting (exact totals once writers quiesce, which is how the sweep
//! and simulator use them).

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// The percentiles reported by [`Histogram::percentile_vector`], matching
/// the surrogate's `PERCENTILE_KEYS` in `dbat-sim`.
pub(crate) const TRACKED_PERCENTILES: [f64; 4] = [50.0, 90.0, 95.0, 99.0];

/// Streaming fixed-bucket histogram with quantile estimation.
///
/// Buckets are log-spaced between `lo` and `hi` (plus underflow/overflow
/// buckets), which matches latency-like positive data over many orders of
/// magnitude. Recording is two relaxed atomic adds plus CAS loops for the
/// sum/min/max — cheap enough for simulator hot loops when telemetry is
/// enabled, and skipped entirely when it is not.
#[derive(Debug)]
pub struct Histogram {
    /// `bounds[i]` is the inclusive upper edge of bucket `i`; the last
    /// bucket is the overflow bucket with an open upper edge.
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

/// Plain-data view of a histogram for sinks and assertions.
#[derive(Clone, Debug, Serialize)]
pub(crate) struct HistogramSnapshot {
    pub(crate) count: u64,
    pub(crate) sum: f64,
    pub(crate) min: f64,
    pub(crate) max: f64,
    pub(crate) mean: f64,
    pub(crate) p50: f64,
    pub(crate) p90: f64,
    pub(crate) p95: f64,
    pub(crate) p99: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        // 1 µs .. 10 ks covers latencies, service times, and span
        // durations; 16 buckets per decade keeps interpolation error small.
        Histogram::log_spaced(1e-6, 1e4, 16)
    }
}

impl Histogram {
    /// Log-spaced bucket edges from `lo` to `hi` with `per_decade` buckets
    /// per factor of 10.
    pub(crate) fn log_spaced(lo: f64, hi: f64, per_decade: usize) -> Self {
        assert!(lo > 0.0 && hi > lo && per_decade > 0);
        let decades = (hi / lo).log10();
        let n = (decades * per_decade as f64).ceil() as usize;
        let ratio = (hi / lo).powf(1.0 / n as f64);
        let mut bounds = Vec::with_capacity(n + 2);
        bounds.push(lo);
        let mut edge = lo;
        for _ in 0..n {
            edge *= ratio;
            bounds.push(edge);
        }
        bounds.push(f64::INFINITY);
        let buckets = (0..bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    fn bucket_index(&self, v: f64) -> usize {
        // Binary search over the upper edges; `partition_point` returns the
        // first bucket whose upper edge is >= v.
        self.bounds.partition_point(|&edge| edge < v)
    }

    pub fn record(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let idx = self.bucket_index(v).min(self.buckets.len() - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.sum_bits, v);
        atomic_f64_min(&self.min_bits, v);
        atomic_f64_max(&self.max_bits, v);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    pub(crate) fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    pub(crate) fn min(&self) -> f64 {
        f64::from_bits(self.min_bits.load(Ordering::Relaxed))
    }

    pub(crate) fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// Estimate the `p`-th percentile (0..=100) by linear interpolation
    /// inside the bucket containing the rank. `None` when empty.
    pub(crate) fn quantile(&self, p: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
        let rank = p / 100.0 * (total.saturating_sub(1)) as f64;
        let mut cum = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let c = bucket.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            if cum as f64 + c as f64 > rank {
                // The rank falls inside this bucket: interpolate between
                // its edges, clamped by the observed min/max.
                let lower = if i == 0 {
                    self.min()
                } else {
                    self.bounds[i - 1]
                };
                let upper = if self.bounds[i].is_finite() {
                    self.bounds[i]
                } else {
                    self.max()
                };
                let lower = lower.max(self.min());
                let upper = upper.min(self.max());
                let frac = (rank - cum as f64 + 1.0) / c as f64;
                return Some(lower + (upper - lower) * frac.clamp(0.0, 1.0));
            }
            cum += c;
        }
        Some(self.max())
    }

    /// `[p50, p90, p95, p99]`, matching `dbat-sim`'s `PERCENTILE_KEYS`.
    pub(crate) fn percentile_vector(&self) -> Option<[f64; 4]> {
        if self.count() == 0 {
            return None;
        }
        let mut out = [0.0; 4];
        for (o, p) in out.iter_mut().zip(TRACKED_PERCENTILES) {
            *o = self.quantile(p).unwrap();
        }
        Some(out)
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let pv = self.percentile_vector().unwrap_or([0.0; 4]);
        let empty = self.count() == 0;
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: if empty { 0.0 } else { self.min() },
            max: if empty { 0.0 } else { self.max() },
            mean: self.mean(),
            p50: pv[0],
            p90: pv[1],
            p95: pv[2],
            p99: pv[3],
        }
    }
}

fn atomic_f64_add(bits: &AtomicU64, v: f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

fn atomic_f64_min(bits: &AtomicU64, v: f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    while v < f64::from_bits(cur) {
        match bits.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

fn atomic_f64_max(bits: &AtomicU64, v: f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    while v > f64::from_bits(cur) {
        match bits.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        assert_eq!(g.get(), 0.0);
        g.set(-2.5);
        assert_eq!(g.get(), -2.5);
    }

    #[test]
    fn histogram_quantiles_close_to_exact() {
        let h = Histogram::default();
        // Latency-like sample: 1 ms .. 1 s uniform on a log grid.
        let samples: Vec<f64> = (0..2000).map(|i| 1e-3 * (1.0 + i as f64 * 0.5)).collect();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for p in [50.0, 90.0, 95.0, 99.0] {
            let exact = {
                let rank = p / 100.0 * (sorted.len() - 1) as f64;
                let lo = rank.floor() as usize;
                let hi = rank.ceil() as usize;
                let w = rank - lo as f64;
                sorted[lo] * (1.0 - w) + sorted[hi] * w
            };
            let est = h.quantile(p).unwrap();
            let rel = (est - exact).abs() / exact;
            assert!(rel < 0.16, "p{p}: est {est} vs exact {exact} (rel {rel})");
        }
        assert_eq!(h.count(), 2000);
        assert!(h.min() >= 1e-3 && h.max() <= 1.1);
    }

    #[test]
    fn histogram_empty_and_extremes() {
        let h = Histogram::default();
        assert_eq!(h.quantile(95.0), None);
        assert!(h.percentile_vector().is_none());
        h.record(f64::NAN); // ignored
        assert_eq!(h.count(), 0);
        h.record(1e-12); // underflow bucket
        h.record(1e12); // overflow bucket
        assert_eq!(h.count(), 2);
        assert!(h.quantile(0.0).is_some());
    }

    #[test]
    fn quantile_p100_is_exact_max_p0_stays_in_first_bucket() {
        let h = Histogram::default();
        let samples = [0.004, 0.011, 0.032, 0.095, 0.25, 0.61];
        for &s in &samples {
            h.record(s);
        }
        // p=100 lands on the observed max exactly: the containing
        // bucket's upper edge is clamped by max().
        assert_eq!(h.quantile(100.0).unwrap(), 0.61);
        // p=0 starts at the observed min and cannot leave min's bucket
        // (one bucket is a factor of 10^(1/16) ≈ 1.155 wide).
        let q0 = h.quantile(0.0).unwrap();
        assert!((0.004..=0.004 * 1.16).contains(&q0), "p0 -> {q0}");
    }

    #[test]
    fn out_of_range_values_clamp_to_edge_buckets() {
        let h = Histogram::default(); // covers 1e-6 .. 1e4
        h.record(1e-12); // below lo -> underflow bucket
        h.record(1.0);
        h.record(1e12); // above hi -> overflow bucket
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 1e-12);
        assert_eq!(h.max(), 1e12);
        // The underflow estimate is bracketed by the true min and the
        // first real edge; the overflow estimate by the last edge and
        // the true max (quantile interpolation clamps to min/max).
        let q0 = h.quantile(0.0).unwrap();
        assert!((1e-12..=1e-6).contains(&q0), "underflow p0 -> {q0}");
        assert_eq!(h.quantile(100.0).unwrap(), 1e12);
        let pv = h.percentile_vector().unwrap();
        assert!(pv.windows(2).all(|w| w[0] <= w[1]), "monotone: {pv:?}");
    }

    #[test]
    fn percentile_vector_matches_quantile_calls() {
        let h = Histogram::default();
        for i in 0..500 {
            h.record(1e-3 * (1.0 + i as f64));
        }
        let pv = h.percentile_vector().unwrap();
        for (v, p) in pv.iter().zip(TRACKED_PERCENTILES) {
            assert_eq!(*v, h.quantile(p).unwrap());
        }
    }

    #[test]
    fn quantile_cross_checks_against_interp_tracked_percentile() {
        use dbat_workload::stats::interp_tracked_percentile;
        // A smooth latency-like sample: percentiles are near-linear in p,
        // so interpolating the tracked vector and querying the histogram
        // directly must agree to within bucket resolution.
        let h = Histogram::default();
        for i in 0..4000 {
            h.record(0.010 + 0.090 * (i as f64 / 3999.0));
        }
        let pv = h.percentile_vector().unwrap();
        for p in [50.0, 60.0, 75.0, 90.0, 92.5, 95.0, 97.0, 99.0] {
            let direct = h.quantile(p).unwrap();
            let interp = interp_tracked_percentile(&TRACKED_PERCENTILES, &pv, p);
            let rel = (direct - interp).abs() / direct;
            assert!(
                rel < 0.10,
                "p{p}: direct {direct} vs interpolated {interp} (rel {rel})"
            );
        }
        // Outside the tracked range the interpolation clamps to the
        // nearest tracked value by design.
        assert_eq!(
            interp_tracked_percentile(&TRACKED_PERCENTILES, &pv, 10.0),
            pv[0]
        );
        assert_eq!(
            interp_tracked_percentile(&TRACKED_PERCENTILES, &pv, 100.0),
            pv[3]
        );
    }

    #[test]
    fn histogram_single_value() {
        let h = Histogram::default();
        h.record(0.25);
        for p in [0.0, 50.0, 100.0] {
            let q = h.quantile(p).unwrap();
            assert!((q - 0.25).abs() < 0.02, "p{p} -> {q}");
        }
        assert_eq!(h.snapshot().count, 1);
    }
}
