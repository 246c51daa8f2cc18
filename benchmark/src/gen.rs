//! Seed → inputs. Everything a workload feeds the program under test is
//! generated here (or by `TraceKind::generate_for`) from `--seed`; the
//! same seed gives the same inputs, bit for bit.

use dbat_workload::{Mmpp2, Rng};

/// FNV-1a over 64-bit words: the harness's order-sensitive fingerprint
/// for arrival vectors and decision sequences.
pub fn fnv1a(acc: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(acc, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

pub fn hash_f64s(xs: &[f64]) -> u64 {
    xs.iter().fold(FNV_OFFSET, |h, x| fnv1a(h, x.to_bits()))
}

/// Burst and calm arrival rates of the paced schedule's MMPP(2), as
/// multiples of the mean rate, and the share of time spent bursting.
const BURST_FACTOR: f64 = 3.0;
const CALM_FACTOR: f64 = 0.5;
const BURST_SHARE: f64 = 0.2;
/// Mean burst length in seconds.
const BURST_MEAN_S: f64 = 0.2;

/// The open-loop schedule of `gateway_paced`: send offsets in seconds,
/// ascending, in `[0, seconds)`. Arrivals follow an MMPP(2) whose bursts
/// run at three times the mean rate; the draw is rescaled in time so the
/// schedule holds exactly `rate * seconds` requests, which keeps the
/// offered load the same for every seed while the burst pattern varies.
pub fn paced_schedule(seed: u64, seconds: f64, rate: f64) -> Vec<f64> {
    let n = (rate * seconds).round().max(1.0) as usize;
    let leave_burst = 1.0 / BURST_MEAN_S;
    let leave_calm = leave_burst * BURST_SHARE / (1.0 - BURST_SHARE);
    let map = Mmpp2::new(
        rate * BURST_FACTOR,
        rate * CALM_FACTOR,
        leave_burst,
        leave_calm,
    )
    .to_map()
    .expect("a valid MMPP(2)");
    let mut horizon = seconds * 1.5;
    let raw = loop {
        let ts = map.simulate(&mut Rng::new(seed ^ 0x9ACE_D0FF), 0.0, horizon);
        if ts.len() > n {
            break ts;
        }
        horizon *= 2.0;
    };
    let scale = seconds / raw[n];
    raw[..n].iter().map(|t| t * scale).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbat_workload::TraceKind;

    #[test]
    fn same_seed_same_arrivals() {
        let a = paced_schedule(7, 4.0, 300.0);
        let b = paced_schedule(7, 4.0, 300.0);
        let c = paced_schedule(8, 4.0, 300.0);
        assert_eq!(hash_f64s(&a), hash_f64s(&b));
        assert_ne!(hash_f64s(&a), hash_f64s(&c));
        for kind in [TraceKind::SyntheticMap, TraceKind::AzureLike] {
            let x = kind.generate_for(7, 600.0);
            let y = kind.generate_for(7, 600.0);
            let z = kind.generate_for(8, 600.0);
            assert_eq!(hash_f64s(x.timestamps()), hash_f64s(y.timestamps()));
            assert_ne!(hash_f64s(x.timestamps()), hash_f64s(z.timestamps()));
        }
    }

    #[test]
    fn schedule_holds_exactly_rate_times_seconds_sorted_offsets() {
        for seed in 0..5 {
            let s = paced_schedule(seed, 2.0, 300.0);
            assert_eq!(s.len(), 600);
            assert!(s.windows(2).all(|w| w[0] <= w[1]));
            assert!(s[0] >= 0.0 && *s.last().unwrap() < 2.0);
        }
    }

    #[test]
    fn hash_is_order_sensitive() {
        assert_ne!(hash_f64s(&[1.0, 2.0]), hash_f64s(&[2.0, 1.0]));
        assert_eq!(hash_f64s(&[]), FNV_OFFSET);
    }
}
