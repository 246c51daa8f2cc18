//! Arrival traces: sorted timestamp sequences with slicing and counting.

use serde::{Deserialize, Serialize};

/// A trace of arrival timestamps (seconds, sorted ascending) over a horizon.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Trace {
    timestamps: Vec<f64>,
    /// Observation horizon `[0, horizon)` in seconds; timestamps live inside it.
    horizon: f64,
}

impl Trace {
    /// Construct from timestamps, sorting defensively. Panics on a
    /// non-finite timestamp or a non-positive horizon.
    pub fn new(mut timestamps: Vec<f64>, horizon: f64) -> Self {
        assert!(horizon > 0.0, "horizon must be positive");
        assert!(
            timestamps.iter().all(|t| t.is_finite()),
            "timestamps must be finite"
        );
        timestamps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Trace {
            timestamps,
            horizon,
        }
    }

    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    pub fn timestamps(&self) -> &[f64] {
        &self.timestamps
    }

    /// Mean arrival rate over the whole horizon.
    pub fn mean_rate(&self) -> f64 {
        self.len() as f64 / self.horizon
    }

    /// Successive interarrival times (length `len() - 1`).
    pub fn interarrivals(&self) -> Vec<f64> {
        self.timestamps.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Index of the first timestamp `>= t` (binary search).
    pub fn lower_bound(&self, t: f64) -> usize {
        self.timestamps.partition_point(|&x| x < t)
    }

    /// Number of arrivals in `[t0, t1)`.
    pub fn count_in(&self, t0: f64, t1: f64) -> usize {
        self.lower_bound(t1) - self.lower_bound(t0)
    }

    /// Sub-trace of arrivals in `[t0, t1)`, re-based so that `t0` maps to 0.
    pub fn slice(&self, t0: f64, t1: f64) -> Trace {
        assert!(t1 > t0, "slice requires t1 > t0");
        let lo = self.lower_bound(t0);
        let hi = self.lower_bound(t1);
        let ts = self.timestamps[lo..hi].iter().map(|t| t - t0).collect();
        Trace {
            timestamps: ts,
            horizon: t1 - t0,
        }
    }

    /// Arrivals in `[t0, t1)` as a borrowed sub-slice, **without** the
    /// rebasing [`Trace::slice`] applies. Rebasing subtracts `t0` from
    /// every timestamp, which perturbs the float bits of the arrivals —
    /// enough to break bitwise-equivalence comparisons between a sliced
    /// replay and a full-trace run. Use this when the window must carry
    /// the exact original timestamps.
    pub fn slice_raw(&self, t0: f64, t1: f64) -> &[f64] {
        assert!(t1 >= t0, "slice_raw requires t1 >= t0");
        let lo = self.lower_bound(t0);
        let hi = self.lower_bound(t1);
        &self.timestamps[lo..hi]
    }

    /// Arrival counts in consecutive bins of width `bin` (covers the horizon).
    pub(crate) fn counts(&self, bin: f64) -> Vec<usize> {
        assert!(bin > 0.0);
        let nbins = (self.horizon / bin).ceil() as usize;
        let mut counts = vec![0usize; nbins.max(1)];
        for &t in &self.timestamps {
            let b = ((t / bin) as usize).min(counts.len() - 1);
            counts[b] += 1;
        }
        counts
    }

    /// Arrival rate (req/s) per bin of width `bin` — the series of Fig. 4.
    pub fn rate_series(&self, bin: f64) -> Vec<f64> {
        self.counts(bin)
            .into_iter()
            .map(|c| c as f64 / bin)
            .collect()
    }

    /// Concatenate another trace after this one (its timestamps shifted by
    /// this trace's horizon).
    pub(crate) fn extend_with(&mut self, other: &Trace) {
        let off = self.horizon;
        self.timestamps
            .extend(other.timestamps.iter().map(|t| t + off));
        self.horizon += other.horizon;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Trace {
        Trace::new(vec![0.5, 1.0, 1.5, 3.0, 7.0], 10.0)
    }

    #[test]
    fn basic_accessors() {
        let tr = t();
        assert_eq!(tr.len(), 5);
        assert!(!tr.is_empty());
        assert_eq!(tr.horizon(), 10.0);
        assert!((tr.mean_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sorts_on_construction() {
        let tr = Trace::new(vec![3.0, 1.0, 2.0], 5.0);
        assert_eq!(tr.timestamps(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn interarrivals() {
        assert_eq!(t().interarrivals(), vec![0.5, 0.5, 1.5, 4.0]);
    }

    #[test]
    fn count_in_halfopen() {
        let tr = t();
        assert_eq!(tr.count_in(0.5, 1.5), 2); // 0.5, 1.0 (1.5 excluded)
        assert_eq!(tr.count_in(0.0, 10.0), 5);
        assert_eq!(tr.count_in(8.0, 10.0), 0);
    }

    #[test]
    fn slice_rebases() {
        let s = t().slice(1.0, 4.0);
        assert_eq!(s.timestamps(), &[0.0, 0.5, 2.0]);
        assert_eq!(s.horizon(), 3.0);
    }

    #[test]
    fn slice_raw_preserves_bits() {
        let ts = vec![0.1 + 1e-17, 1.0 / 3.0, 0.7, 2.9];
        let tr = Trace::new(ts.clone(), 3.0);
        let s = tr.slice_raw(0.2, 1.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].to_bits(), (1.0f64 / 3.0).to_bits());
        assert_eq!(s[1].to_bits(), 0.7f64.to_bits());
        // Whole-trace slice is the timestamps themselves.
        assert_eq!(tr.slice_raw(0.0, 3.0), tr.timestamps());
        assert!(tr.slice_raw(1.0, 1.0).is_empty());
    }

    #[test]
    fn counts_and_rates() {
        let tr = t();
        let c = tr.counts(2.5);
        // bins: [0,2.5) -> {0.5,1.0,1.5}, [2.5,5) -> {3.0}, [5,7.5) -> {7.0}, [7.5,10) -> {}
        assert_eq!(c, vec![3, 1, 1, 0]);
        let r = tr.rate_series(2.5);
        assert!((r[0] - 1.2).abs() < 1e-12);
    }

    #[test]
    fn extend_shifts_offsets() {
        let mut a = Trace::new(vec![1.0], 2.0);
        let b = Trace::new(vec![0.5], 3.0);
        a.extend_with(&b);
        assert_eq!(a.timestamps(), &[1.0, 2.5]);
        assert_eq!(a.horizon(), 5.0);
    }

    #[test]
    fn empty_trace_ok() {
        let tr = Trace::new(vec![], 1.0);
        assert!(tr.is_empty());
        assert_eq!(tr.counts(0.5), vec![0, 0]);
        assert!(tr.interarrivals().is_empty());
    }
}
