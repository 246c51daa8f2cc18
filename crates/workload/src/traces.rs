//! Synthetic equivalents of the paper's four evaluation traces.
//!
//! The paper evaluates on the Azure Functions 2019 trace, a Twitter-stream
//! trace, the Alibaba MLaaS cluster trace, and a synthetic MAP-generated
//! trace. The raw datasets are not redistributable here, so each generator
//! reproduces the *statistical role* the trace plays in the evaluation
//! (see DESIGN.md §2):
//!
//! * [`TraceKind::AzureLike`] — diurnal rate with moderate Markov-modulated
//!   burstiness (time-varying IDC in the tens; Fig. 5a);
//! * [`TraceKind::TwitterLike`] — statistically similar to Azure but flatter,
//!   with IDC ≈ 4 (Fig. 5b) — the "unseen but in-distribution" workload;
//! * [`TraceKind::AlibabaLike`] — long quiet periods punctured by sharp
//!   peaks (the paper calls out hours 4, 6 and 20) with strong on-off
//!   modulation — the "out-of-distribution, highly bursty" workload;
//! * [`TraceKind::SyntheticMap`] — 24 independent hourly MMPP(2) segments
//!   with widely varying rate and burstiness, exactly the construction of
//!   §IV-A-2.

use crate::mmpp::Mmpp2;
use crate::nhpp::nhpp;
use crate::rng::Rng;
use crate::trace::Trace;

/// One hour, in seconds.
pub const HOUR: f64 = 3_600.0;
/// One day, in seconds — the default horizon of every generator.
pub(crate) const DAY: f64 = 86_400.0;

/// Piecewise-constant modulation factor driven by a two-state CTMC.
#[derive(Clone, Debug)]
struct ModulationPath {
    /// Segment start times (first is 0); factor `i` applies on
    /// `[starts[i], starts[i+1])`.
    starts: Vec<f64>,
    factors: Vec<f64>,
}

impl ModulationPath {
    /// Simulate a two-state alternating path over `[0, horizon)`.
    fn simulate(rng: &mut Rng, horizon: f64, factors: [f64; 2], mean_sojourn: [f64; 2]) -> Self {
        let mut starts = vec![0.0];
        let mut fs = Vec::new();
        let mut state =
            usize::from(rng.bernoulli(mean_sojourn[1] / (mean_sojourn[0] + mean_sojourn[1])));
        let mut t = 0.0;
        loop {
            fs.push(factors[state]);
            t += rng.exp(1.0 / mean_sojourn[state]);
            if t >= horizon {
                break;
            }
            starts.push(t);
            state = 1 - state;
        }
        ModulationPath {
            starts,
            factors: fs,
        }
    }

    fn factor_at(&self, t: f64) -> f64 {
        let i = self.starts.partition_point(|&s| s <= t);
        self.factors[i.saturating_sub(1)]
    }

    fn max_factor(&self) -> f64 {
        self.factors.iter().fold(0.0_f64, |m, &f| m.max(f))
    }
}

/// The four workload families of the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceKind {
    AzureLike,
    TwitterLike,
    AlibabaLike,
    SyntheticMap,
}

impl TraceKind {
    /// All four kinds, in the paper's figure order.
    pub const ALL: [TraceKind; 4] = [
        TraceKind::AzureLike,
        TraceKind::TwitterLike,
        TraceKind::AlibabaLike,
        TraceKind::SyntheticMap,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::AzureLike => "azure",
            TraceKind::TwitterLike => "twitter",
            TraceKind::AlibabaLike => "alibaba",
            TraceKind::SyntheticMap => "synthetic",
        }
    }

    /// Parse a config-file workload name (the [`Self::name`] strings,
    /// plus `map` for the synthetic MAP workload).
    pub fn parse(name: &str) -> Option<TraceKind> {
        match name.to_ascii_lowercase().as_str() {
            "azure" => Some(TraceKind::AzureLike),
            "twitter" => Some(TraceKind::TwitterLike),
            "alibaba" => Some(TraceKind::AlibabaLike),
            "synthetic" | "map" => Some(TraceKind::SyntheticMap),
            _ => None,
        }
    }

    /// Generate a trace over an arbitrary horizon (seconds). Shorter horizons
    /// sample the *prefix* of the daily pattern, so hour indices in the
    /// figures remain meaningful.
    pub fn generate_for(&self, seed: u64, horizon: f64) -> Trace {
        let mut rng = Rng::new(seed ^ self.seed_salt());
        match self {
            TraceKind::AzureLike => azure_like(&mut rng, horizon),
            TraceKind::TwitterLike => twitter_like(&mut rng, horizon),
            TraceKind::AlibabaLike => alibaba_like(&mut rng, horizon),
            TraceKind::SyntheticMap => synthetic_map(&mut rng, horizon),
        }
    }

    fn seed_salt(&self) -> u64 {
        match self {
            TraceKind::AzureLike => 0xA2,
            TraceKind::TwitterLike => 0x77,
            TraceKind::AlibabaLike => 0xA11,
            TraceKind::SyntheticMap => 0x5E7,
        }
    }
}

/// Diurnal base rate: sinusoid peaking in the evening (the paper's Fig. 6
/// snapshot is taken at 19:40-19:50, near the Azure peak).
fn diurnal(t: f64, base: f64, amplitude: f64) -> f64 {
    let phase = 2.0 * std::f64::consts::PI * (t / DAY) - 2.0 * std::f64::consts::PI * 19.5 / 24.0;
    base * (1.0 + amplitude * phase.cos())
}

fn azure_like(rng: &mut Rng, horizon: f64) -> Trace {
    let modulation = ModulationPath::simulate(rng, horizon, [0.75, 1.35], [20.0, 15.0]);
    let base = 28.0;
    let amplitude = 0.45;
    let peak = base * (1.0 + amplitude) * modulation.max_factor();
    nhpp(
        rng,
        |t| diurnal(t, base, amplitude) * modulation.factor_at(t),
        peak,
        horizon,
    )
}

fn twitter_like(rng: &mut Rng, horizon: f64) -> Trace {
    // Flatter profile, milder and faster modulation: IDC ≈ 4.
    let modulation = ModulationPath::simulate(rng, horizon, [0.90, 1.12], [12.0, 10.0]);
    let base = 24.0;
    let amplitude = 0.25;
    let peak = base * (1.0 + amplitude) * modulation.max_factor();
    nhpp(
        rng,
        |t| diurnal(t, base, amplitude) * modulation.factor_at(t),
        peak,
        horizon,
    )
}

/// Hours (fractional) at which the Alibaba-like trace spikes, with spike
/// amplitudes (req/s added at the peak) and widths (hours). The paper's
/// analysis highlights unpredicted peaks at hours 4, 6 and 20 following flat
/// preceding hours.
const ALIBABA_PEAKS: [(f64, f64, f64); 5] = [
    (4.3, 120.0, 0.30),
    (6.2, 95.0, 0.25),
    (11.5, 70.0, 0.40),
    (15.8, 55.0, 0.35),
    (20.4, 130.0, 0.28),
];

fn alibaba_like(rng: &mut Rng, horizon: f64) -> Trace {
    let modulation = ModulationPath::simulate(rng, horizon, [0.18, 3.2], [240.0, 110.0]);
    let base = 3.0;
    let rate = |t: f64| {
        let h = t / HOUR;
        let mut r = base;
        for &(center, amp, width) in &ALIBABA_PEAKS {
            let d = (h - center) / width;
            r += amp * (-0.5 * d * d).exp();
        }
        r * modulation.factor_at(t)
    };
    let peak = (base + 130.0 + 30.0) * modulation.max_factor();
    nhpp(rng, rate, peak, horizon)
}

/// Parameters of one hourly MMPP(2) segment of the synthetic trace, exposed
/// so experiments can report the ground-truth burstiness profile.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SyntheticSegment {
    pub(crate) hour: usize,
    pub(crate) mmpp: Mmpp2,
}

/// The deterministic per-hour MMPP parameters of the synthetic trace for a
/// given seed (used by both the generator and the experiment reports).
pub(crate) fn synthetic_segments(seed: u64, hours: usize) -> Vec<SyntheticSegment> {
    let mut rng = Rng::new(seed ^ 0x5E7_u64 ^ 0xFEED);
    (0..hours)
        .map(|hour| {
            let rate = rng.uniform_in(4.0, 70.0);
            let idc = rng.uniform_in(15.0, 180.0);
            let ratio = rng.uniform_in(6.0, 25.0);
            let p1 = rng.uniform_in(0.15, 0.45);
            SyntheticSegment {
                hour,
                mmpp: Mmpp2::from_targets(rate, idc, ratio, p1),
            }
        })
        .collect()
}

fn synthetic_map(rng: &mut Rng, horizon: f64) -> Trace {
    let hours = (horizon / HOUR).ceil() as usize;
    let segments = synthetic_segments(0xD5EED, hours.max(1));
    let mut out = Trace::new(vec![], f64::MIN_POSITIVE);
    let mut first = true;
    for seg in &segments {
        let seg_len = HOUR.min(horizon - seg.hour as f64 * HOUR);
        if seg_len <= 0.0 {
            break;
        }
        let map = seg.mmpp.to_map().expect("from_targets yields a valid MMPP");
        let arrivals = map.simulate(rng, 0.0, seg_len);
        let piece = Trace::new(arrivals, seg_len);
        if first {
            out = piece;
            first = false;
        } else {
            out.extend_with(&piece);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{idc_by_counts, idc_series};

    #[test]
    fn all_kinds_generate_nonempty() {
        for kind in TraceKind::ALL {
            let tr = kind.generate_for(1, 2.0 * HOUR);
            assert!(!tr.is_empty(), "{} produced empty trace", kind.name());
            assert!(tr.timestamps().windows(2).all(|w| w[0] <= w[1]));
            assert!(tr.timestamps().iter().all(|&t| t < tr.horizon()));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        for kind in TraceKind::ALL {
            let a = kind.generate_for(7, HOUR);
            let b = kind.generate_for(7, HOUR);
            assert_eq!(a.timestamps(), b.timestamps(), "{}", kind.name());
            let c = kind.generate_for(8, HOUR);
            assert_ne!(a.len(), 0);
            // Different seeds should (overwhelmingly) differ.
            assert_ne!(a.timestamps(), c.timestamps(), "{}", kind.name());
        }
    }

    #[test]
    fn twitter_milder_than_alibaba() {
        let tw = TraceKind::TwitterLike.generate_for(3, 4.0 * HOUR);
        let al = TraceKind::AlibabaLike.generate_for(3, 4.0 * HOUR);
        let idc_tw = idc_by_counts(&tw, 30.0);
        let idc_al = idc_by_counts(&al, 30.0);
        assert!(
            idc_al > idc_tw * 2.0,
            "alibaba IDC {idc_al} should dwarf twitter {idc_tw}"
        );
    }

    #[test]
    fn twitter_idc_moderate() {
        let tw = TraceKind::TwitterLike.generate_for(11, 6.0 * HOUR);
        let series = idc_series(&tw, HOUR, 20.0);
        let avg = series.iter().sum::<f64>() / series.len() as f64;
        assert!(
            avg > 1.5 && avg < 15.0,
            "twitter mean IDC {avg} outside mild range"
        );
    }

    #[test]
    fn alibaba_has_peak_at_hour_4() {
        let tr = TraceKind::AlibabaLike.generate_for(5, 6.0 * HOUR);
        let r3 = tr.count_in(3.0 * HOUR, 3.5 * HOUR) as f64; // flat stretch
        let r4 = tr.count_in(4.0 * HOUR, 4.6 * HOUR) as f64; // peak window
        assert!(
            r4 > 4.0 * r3.max(1.0),
            "hour-4 peak ({r4}) should dominate the flat hour-3 stretch ({r3})"
        );
    }

    #[test]
    fn synthetic_segments_deterministic() {
        let a = synthetic_segments(99, 24);
        let b = synthetic_segments(99, 24);
        assert_eq!(a.len(), 24);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mmpp, y.mmpp);
        }
    }

    #[test]
    fn synthetic_hourly_rates_vary() {
        let tr = TraceKind::SyntheticMap.generate_for(1, 5.0 * HOUR);
        let rates: Vec<f64> = (0..5)
            .map(|h| tr.count_in(h as f64 * HOUR, (h + 1) as f64 * HOUR) as f64 / HOUR)
            .collect();
        let max = rates.iter().cloned().fold(0.0_f64, f64::max);
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max / min.max(0.01) > 1.5,
            "hourly rates {rates:?} barely vary"
        );
    }

    #[test]
    fn azure_rate_in_expected_band() {
        let tr = TraceKind::AzureLike.generate_for(2, 2.0 * HOUR);
        let rate = tr.mean_rate();
        assert!(rate > 5.0 && rate < 120.0, "azure rate {rate}");
    }
}
