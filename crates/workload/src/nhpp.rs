//! Non-homogeneous Poisson process generation by thinning (Lewis–Shedler).

use crate::rng::Rng;
use crate::trace::Trace;

/// Generate arrivals of a non-homogeneous Poisson process with instantaneous
/// rate `rate(t)` on `[0, horizon)`, where `rate(t) <= rate_max` everywhere.
///
/// Uses thinning: candidates arrive at rate `rate_max` and are kept with
/// probability `rate(t)/rate_max`. Panics (debug) if the bound is violated.
pub(crate) fn nhpp<F: Fn(f64) -> f64>(
    rng: &mut Rng,
    rate: F,
    rate_max: f64,
    horizon: f64,
) -> Trace {
    assert!(rate_max > 0.0, "rate_max must be positive");
    assert!(horizon > 0.0, "horizon must be positive");
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += rng.exp(rate_max);
        if t >= horizon {
            break;
        }
        let r = rate(t);
        debug_assert!(
            r <= rate_max * (1.0 + 1e-9),
            "rate({t}) = {r} exceeds bound {rate_max}"
        );
        if rng.uniform() * rate_max < r {
            out.push(t);
        }
    }
    Trace::new(out, horizon)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate_reduces_to_poisson() {
        let mut rng = Rng::new(1);
        let tr = nhpp(&mut rng, |_| 10.0, 10.0, 2_000.0);
        let rate = tr.mean_rate();
        assert!((rate - 10.0).abs() < 0.3, "rate {rate}");
        // Poisson counts: dispersion near 1.
        let counts = tr.counts(5.0);
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        let var = counts
            .iter()
            .map(|&c| (c as f64 - mean) * (c as f64 - mean))
            .sum::<f64>()
            / counts.len() as f64;
        assert!((var / mean - 1.0).abs() < 0.25, "dispersion {}", var / mean);
    }

    #[test]
    fn time_varying_rate_tracks_profile() {
        let mut rng = Rng::new(2);
        // Step: 20/s in the first half, 2/s in the second.
        let tr = nhpp(
            &mut rng,
            |t| if t < 500.0 { 20.0 } else { 2.0 },
            20.0,
            1_000.0,
        );
        let first = tr.count_in(0.0, 500.0) as f64 / 500.0;
        let second = tr.count_in(500.0, 1_000.0) as f64 / 500.0;
        assert!((first - 20.0).abs() < 1.0, "first {first}");
        assert!((second - 2.0).abs() < 0.5, "second {second}");
    }

    #[test]
    fn zero_rate_produces_nothing() {
        let mut rng = Rng::new(3);
        let tr = nhpp(&mut rng, |_| 0.0, 5.0, 100.0);
        assert!(tr.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = nhpp(
            &mut Rng::new(42),
            |t| 5.0 + (t / 10.0).sin().abs() * 5.0,
            10.0,
            100.0,
        );
        let b = nhpp(
            &mut Rng::new(42),
            |t| 5.0 + (t / 10.0).sin().abs() * 5.0,
            10.0,
            100.0,
        );
        assert_eq!(a.timestamps(), b.timestamps());
    }
}
