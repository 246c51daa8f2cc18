//! Fixed-length interarrival windows — the surrogate model's input unit.
//!
//! DeepBAT's deep surrogate consumes a window of `l` interarrival times
//! (the paper uses `l = 256`). When a window would need more history than is
//! available, it is left-padded (§III-A mentions padding / sliding windows).

use crate::rng::Rng;
use crate::trace::Trace;

/// A window of `l` interarrival times ending at `end_time`.
#[derive(Clone, Debug, PartialEq)]
pub struct Window {
    /// Exactly `l` interarrival times (seconds), oldest first.
    pub interarrivals: Vec<f64>,
    /// Absolute time of the last arrival in the window.
    pub(crate) end_time: f64,
    /// How many leading entries are padding rather than observed data.
    pub(crate) padded: usize,
}

/// Extract the window of the `l` interarrivals ending at the `k`-th arrival
/// (0-based; requires `k >= 1`). Left-pads with the window's own mean
/// interarrival (or `pad_default` when no data) if history is short.
pub(crate) fn window_ending_at(trace: &Trace, k: usize, l: usize, pad_default: f64) -> Window {
    assert!(l >= 1, "window length must be >= 1");
    assert!(
        k >= 1 && k < trace.len(),
        "k must index an arrival with a predecessor"
    );
    let ts = trace.timestamps();
    let lo = k.saturating_sub(l);
    let mut ia: Vec<f64> = (lo..k).map(|i| ts[i + 1] - ts[i]).collect();
    let padded = l - ia.len();
    if padded > 0 {
        let pad = if ia.is_empty() {
            pad_default
        } else {
            ia.iter().sum::<f64>() / ia.len() as f64
        };
        let mut padded_vec = vec![pad; padded];
        padded_vec.append(&mut ia);
        ia = padded_vec;
    }
    Window {
        interarrivals: ia,
        end_time: ts[k],
        padded,
    }
}

/// The most recent window at absolute time `t` (uses the last `l`
/// interarrivals among arrivals `< t`). Returns `None` when fewer than two
/// arrivals precede `t`.
pub fn window_at_time(trace: &Trace, t: f64, l: usize, pad_default: f64) -> Option<Window> {
    let idx = trace.lower_bound(t);
    if idx < 2 {
        return None;
    }
    Some(window_ending_at(trace, idx - 1, l, pad_default))
}

/// Uniformly sample `count` full (unpadded) windows from the trace. Used for
/// the paper's random-sampling training-set construction (§III-D). Returns
/// fewer than `count` windows if the trace is too short to host any.
pub fn sample_windows(trace: &Trace, l: usize, count: usize, rng: &mut Rng) -> Vec<Window> {
    if trace.len() <= l {
        return Vec::new();
    }
    (0..count)
        .map(|_| {
            let k = l + rng.below(trace.len() - l);
            window_ending_at(trace, k, l, 1.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Trace {
        // interarrivals: 1, 2, 3, 4, 5
        Trace::new(vec![0.0, 1.0, 3.0, 6.0, 10.0, 15.0], 20.0)
    }

    #[test]
    fn window_exact_history() {
        let w = window_ending_at(&trace(), 5, 3, 1.0);
        assert_eq!(w.interarrivals, vec![3.0, 4.0, 5.0]);
        assert_eq!(w.end_time, 15.0);
        assert_eq!(w.padded, 0);
    }

    #[test]
    fn window_padding_short_history() {
        let w = window_ending_at(&trace(), 2, 5, 1.0);
        // Observed interarrivals up to arrival 2: [1, 2]; mean = 1.5 padding.
        assert_eq!(w.padded, 3);
        assert_eq!(w.interarrivals, vec![1.5, 1.5, 1.5, 1.0, 2.0]);
    }

    #[test]
    fn window_at_time_picks_last_complete() {
        let w = window_at_time(&trace(), 10.5, 2, 1.0).unwrap();
        // arrivals < 10.5: indices 0..=4; last is 10.0 -> interarrivals [3,4]
        assert_eq!(w.interarrivals, vec![3.0, 4.0]);
        assert_eq!(w.end_time, 10.0);
    }

    #[test]
    fn window_at_time_insufficient_history() {
        assert!(window_at_time(&trace(), 0.5, 4, 1.0).is_none());
        assert!(window_at_time(&Trace::new(vec![], 1.0), 0.5, 4, 1.0).is_none());
    }

    #[test]
    fn sample_windows_full_length_unpadded() {
        let mut rng = Rng::new(4);
        let ws = sample_windows(&trace(), 3, 10, &mut rng);
        assert_eq!(ws.len(), 10);
        for w in ws {
            assert_eq!(w.interarrivals.len(), 3);
            assert_eq!(w.padded, 0);
        }
    }

    #[test]
    fn sample_windows_too_short_trace() {
        let mut rng = Rng::new(4);
        let tiny = Trace::new(vec![0.0, 1.0], 2.0);
        assert!(sample_windows(&tiny, 5, 3, &mut rng).is_empty());
    }
}
