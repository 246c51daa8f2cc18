//! Two-phase Markov-Modulated Poisson Processes (MMPP(2)).
//!
//! The workhorse bursty-arrival model: a Poisson process whose rate switches
//! between `r1` (burst) and `r2` (quiet) according to a two-state CTMC with
//! switching rates `s1` (leave burst) and `s2` (leave quiet). MMPP(2) is the
//! model BATCH fits to observed traces and the building block of the paper's
//! synthetic MAP-generated workload.

use crate::error::DbatError;
use crate::map::{Map, MapError};
use dbat_linalg::Mat;

/// Parameters of a two-phase MMPP.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mmpp2 {
    /// Arrival rate in phase 1 (conventionally the bursty phase).
    pub r1: f64,
    /// Arrival rate in phase 2.
    pub r2: f64,
    /// Rate of leaving phase 1.
    pub(crate) s1: f64,
    /// Rate of leaving phase 2.
    pub(crate) s2: f64,
}

impl Mmpp2 {
    pub fn new(r1: f64, r2: f64, s1: f64, s2: f64) -> Self {
        Mmpp2::try_new(r1, r2, s1, s2).expect("invalid MMPP(2) parameters")
    }

    /// Fallible constructor: rejects negative arrival rates and
    /// non-positive switching rates instead of panicking.
    pub(crate) fn try_new(r1: f64, r2: f64, s1: f64, s2: f64) -> Result<Self, DbatError> {
        if !(r1 >= 0.0 && r2 >= 0.0) {
            return Err(DbatError::parameter(format!(
                "arrival rates must be non-negative (r1={r1}, r2={r2})"
            )));
        }
        if !(s1 > 0.0 && s2 > 0.0) {
            return Err(DbatError::parameter(format!(
                "switching rates must be positive (s1={s1}, s2={s2})"
            )));
        }
        Ok(Mmpp2 { r1, r2, s1, s2 })
    }

    /// Stationary probability of being in phase 1.
    pub fn p1(&self) -> f64 {
        self.s2 / (self.s1 + self.s2)
    }

    /// Long-run arrival rate.
    pub(crate) fn rate(&self) -> f64 {
        let p1 = self.p1();
        p1 * self.r1 + (1.0 - p1) * self.r2
    }

    /// Asymptotic index of dispersion for counts (closed form for MMPP(2)):
    /// `IDC(∞) = 1 + 2 p1 p2 (r1 − r2)² / (λ (s1 + s2))`.
    pub fn idc(&self) -> f64 {
        let p1 = self.p1();
        let p2 = 1.0 - p1;
        let lam = self.rate();
        if lam <= 0.0 {
            return 1.0;
        }
        1.0 + 2.0 * p1 * p2 * (self.r1 - self.r2) * (self.r1 - self.r2)
            / (lam * (self.s1 + self.s2))
    }

    /// Convert to the general MAP representation.
    pub fn to_map(&self) -> Result<Map, MapError> {
        let d0 = Mat::from_rows(&[
            &[-(self.r1 + self.s1), self.s1],
            &[self.s2, -(self.r2 + self.s2)],
        ]);
        let d1 = Mat::from_rows(&[&[self.r1, 0.0], &[0.0, self.r2]]);
        Map::new(d0, d1)
    }

    /// Construct an MMPP(2) hitting a target mean `rate`, asymptotic `idc`
    /// (> 1), burst-to-quiet rate ratio `ratio` (> 1) and mean burst-cycle
    /// time `cycle` (the mean time of one burst+quiet alternation).
    ///
    /// With `p1` the burst-phase probability (chosen 0.5 by default callers),
    /// the construction solves the closed-form IDC expression for the
    /// switching rates.
    pub fn from_targets(rate: f64, idc: f64, ratio: f64, p1: f64) -> Self {
        Mmpp2::try_from_targets(rate, idc, ratio, p1).expect("invalid MMPP(2) targets")
    }

    /// Fallible variant of [`Mmpp2::from_targets`] validating the target
    /// domain (`rate > 0`, `idc > 1`, `ratio > 1`, `p1 ∈ (0, 1)`).
    pub(crate) fn try_from_targets(
        rate: f64,
        idc: f64,
        ratio: f64,
        p1: f64,
    ) -> Result<Self, DbatError> {
        if !(rate > 0.0 && idc > 1.0 && ratio > 1.0 && (0.0..1.0).contains(&p1) && p1 > 0.0) {
            return Err(DbatError::parameter(format!(
                "targets out of domain: need rate > 0, idc > 1, ratio > 1, p1 in (0,1) \
                 (got rate={rate}, idc={idc}, ratio={ratio}, p1={p1})"
            )));
        }
        let p2 = 1.0 - p1;
        // rate = p1 r1 + p2 r2 and r1 = ratio * r2:
        let r2 = rate / (p1 * ratio + p2);
        let r1 = ratio * r2;
        // idc - 1 = 2 p1 p2 (r1-r2)^2 / (rate * (s1+s2))
        let s_total = 2.0 * p1 * p2 * (r1 - r2) * (r1 - r2) / (rate * (idc - 1.0));
        // p1 = s2/(s1+s2):
        let s2 = p1 * s_total;
        let s1 = s_total - s2;
        Mmpp2::try_new(r1, r2, s1, s2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn rate_and_p1() {
        let m = Mmpp2::new(10.0, 1.0, 1.0, 1.0);
        assert!((m.p1() - 0.5).abs() < 1e-14);
        assert!((m.rate() - 5.5).abs() < 1e-14);
    }

    #[test]
    fn idc_closed_form_matches_map() {
        let m = Mmpp2::new(30.0, 2.0, 0.2, 0.05);
        let map = m.to_map().unwrap();
        let idc_map = map.idc();
        let idc_cf = m.idc();
        assert!(
            (idc_map - idc_cf).abs() / idc_cf < 1e-6,
            "map {idc_map} vs closed-form {idc_cf}"
        );
    }

    #[test]
    fn to_map_rate_agrees() {
        let m = Mmpp2::new(30.0, 2.0, 0.2, 0.05);
        let map = m.to_map().unwrap();
        assert!((map.rate() - m.rate()).abs() / m.rate() < 1e-10);
    }

    #[test]
    fn from_targets_hits_targets() {
        let (rate, idc, ratio, p1) = (25.0, 40.0, 12.0, 0.3);
        let m = Mmpp2::from_targets(rate, idc, ratio, p1);
        assert!((m.rate() - rate).abs() / rate < 1e-10);
        assert!((m.idc() - idc).abs() / idc < 1e-10);
        assert!((m.r1 / m.r2 - ratio).abs() / ratio < 1e-10);
        assert!((m.p1() - p1).abs() < 1e-10);
    }

    #[test]
    fn poisson_limit_idc_one() {
        // Equal rates in both phases degenerate to Poisson: IDC = 1.
        let m = Mmpp2::new(5.0, 5.0, 1.0, 1.0);
        assert!((m.idc() - 1.0).abs() < 1e-12);
        let map = m.to_map().unwrap();
        assert!((map.scv() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn simulated_counts_show_burstiness() {
        let m = Mmpp2::from_targets(20.0, 30.0, 10.0, 0.4);
        let map = m.to_map().unwrap();
        let mut rng = Rng::new(42);
        let horizon = 4_000.0;
        let arr = map.simulate(&mut rng, 0.0, horizon);
        // Count per 10s bin; variance/mean should be far above 1.
        let bin = 10.0;
        let nbins = (horizon / bin) as usize;
        let mut counts = vec![0.0f64; nbins];
        for &t in &arr {
            let b = (t / bin) as usize;
            if b < nbins {
                counts[b] += 1.0;
            }
        }
        let mean = counts.iter().sum::<f64>() / nbins as f64;
        let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / nbins as f64;
        assert!(var / mean > 3.0, "dispersion {} too low", var / mean);
    }
}
