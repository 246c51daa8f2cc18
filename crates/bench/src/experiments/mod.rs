//! The paper's figures and tables, and the ablations, as functions: each
//! takes the shared [`ExpSettings`] (and, where it needs one, the
//! process's `Models`, each surrogate loaded or trained once) and returns a
//! small typed summary that [`crate::ledger`] writes into the reproduction
//! ledger. Values are rounded to the precision the figure reports, in its
//! units (ms, µ$ per request or in total, %).
//!
//! [`ExpSettings`]: crate::ExpSettings

pub(crate) mod multiclass;
pub(crate) mod policies;
pub(crate) mod surrogate;
pub(crate) mod tokens;
pub(crate) mod workload;

use dbat_sim::{hourly_vcr, RunOutcome};
use dbat_workload::HOUR;
use serde::Serialize;

/// `v` rounded to `decimals` places exactly as `{:.decimals$}` prints it.
pub(crate) fn r(v: f64, decimals: usize) -> f64 {
    format!("{v:.decimals$}")
        .parse()
        .expect("a formatted float parses")
}

/// A closed-loop run's aggregates: [`RunOutcome`]'s own VCR and
/// served-request-weighted cost, and the mean of the intervals' p95.
#[derive(Clone, Debug, Serialize)]
pub(crate) struct Totals {
    pub intervals: usize,
    pub vcr_pct: f64,
    pub mean_p95_ms: f64,
    pub cost_uusd: f64,
}

impl Totals {
    pub(crate) fn of(out: &RunOutcome) -> Self {
        let ms = &out.measurements;
        let mean_p95 = ms.iter().map(|m| m.summary.p95).sum::<f64>() / ms.len().max(1) as f64;
        Totals {
            intervals: ms.len(),
            vcr_pct: r(out.vcr(), 1),
            mean_p95_ms: r(mean_p95 * 1e3, 1),
            cost_uusd: r(out.cost_per_request() * 1e6, 4),
        }
    }
}

/// A run over one showcase span, interval by interval (Figs. 6, 7, 9, 12).
#[derive(Clone, Debug, Serialize)]
pub(crate) struct Span {
    pub totals: Totals,
    pub p95_ms: Vec<f64>,
    pub cost_uusd: Vec<f64>,
    /// Indices (minutes into the span) of the intervals that violated.
    pub violated: Vec<usize>,
    pub config: Vec<String>,
}

impl Span {
    pub(crate) fn of(out: &RunOutcome) -> Self {
        let ms = &out.measurements;
        Span {
            totals: Totals::of(out),
            p95_ms: ms.iter().map(|m| r(m.summary.p95 * 1e3, 1)).collect(),
            cost_uusd: ms.iter().map(|m| r(m.cost_per_request * 1e6, 4)).collect(),
            violated: (ms.iter().enumerate())
                .filter(|(_, m)| m.violation)
                .map(|(i, _)| i)
                .collect(),
            config: ms.iter().map(|m| m.config.to_string()).collect(),
        }
    }
}

/// A multi-hour run with its per-hour VCR series (Figs. 8 and 10).
#[derive(Clone, Debug, Serialize)]
pub(crate) struct Hourly {
    pub totals: Totals,
    pub hourly_vcr_pct: Vec<f64>,
}

impl Hourly {
    pub(crate) fn of(out: &RunOutcome, hours: usize) -> Self {
        Hourly {
            totals: Totals::of(out),
            hourly_vcr_pct: (hourly_vcr(&out.measurements, hours, HOUR).iter())
                .map(|&v| r(v, 1))
                .collect(),
        }
    }
}

/// `xs` never decreases (each step ≥ the previous).
pub(crate) fn non_decreasing(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[1] >= w[0])
}

/// `xs` never increases.
pub(crate) fn non_increasing(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[1] <= w[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounding_matches_the_printed_precision() {
        assert_eq!(r(0.70234, 4), 0.7023);
        assert_eq!(r(121.04999, 1), 121.0);
        assert_eq!(format!("{:.1}", r(2.25, 1)), format!("{:.1}", 2.25));
        assert!(r(f64::NAN, 2).is_nan());
    }
}
