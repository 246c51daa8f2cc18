//! Model-based property tests of the window core: `simulate_batching` and
//! a rotating `BatcherCore` against a deliberately naive O(n²) reference
//! that recomputes every window by scanning forward from its opener.

use dbat_sim::{simulate_batching, Admitted, BatcherCore, FormedBatch, LambdaConfig, SimParams};
use proptest::prelude::*;

/// One window of the reference: member indices, open stamp, dispatch stamp.
type RefWindow = (Vec<usize>, f64, f64);

/// The §III-B rule, written the slow obvious way. The first unserved
/// request opens a window; scanning forward from it, requests arriving no
/// later than `open + T` join until there are `B`. A full window
/// dispatches at its last member's arrival, a partial one at `open + T`.
/// `B = 1` or `T = 0` means no buffering at all: every request is its own
/// window, even among simultaneous arrivals.
fn reference(times: &[f64], b: u32, t: f64) -> Vec<RefWindow> {
    let mut served = vec![false; times.len()];
    let mut windows = Vec::new();
    while let Some(opener) = served.iter().position(|&s| !s) {
        let open = times[opener];
        let deadline = open + t;
        let mut members = vec![opener];
        if b > 1 && t > 0.0 {
            for (j, &a) in times.iter().enumerate().skip(opener + 1) {
                if members.len() < b as usize && a <= deadline {
                    members.push(j);
                }
            }
        }
        let dispatch = if members.len() == b as usize || t == 0.0 {
            times[*members.last().unwrap()]
        } else {
            deadline
        };
        for &m in &members {
            served[m] = true;
        }
        windows.push((members, open, dispatch));
    }
    windows
}

/// The timeouts [`config`] draws from.
const TIMEOUTS: [f64; 4] = [0.0, 0.001, 0.03, 0.25];

/// Sorted arrivals mixing exact ties, sub-millisecond bursts, ordinary
/// gaps, gaps of exactly one timeout (an arrival landing on `open + T`)
/// and gaps far beyond any timeout, from a possibly negative start.
fn arrivals() -> impl Strategy<Value = Vec<f64>> {
    (
        -5.0f64..5.0,
        prop::collection::vec((0u8..5, 0.0f64..1.0), 1..120),
    )
        .prop_map(|(start, steps)| {
            let mut t = start;
            steps
                .iter()
                .map(|&(kind, u)| {
                    t += match kind {
                        0 => 0.0,
                        1 => u * 0.002,
                        2 => u * 0.1,
                        3 => TIMEOUTS[(u * 4.0) as usize],
                        _ => u * 100.0,
                    };
                    t
                })
                .collect()
        })
}

fn config() -> impl Strategy<Value = LambdaConfig> {
    (
        prop::sample::select(vec![512u32, 2048, 3008]),
        1u32..=9,
        prop::sample::select(TIMEOUTS.to_vec()),
    )
        .prop_map(|(m, b, t)| LambdaConfig::new(m, b, t))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn simulate_batching_equals_the_naive_reference(arr in arrivals(), cfg in config()) {
        let out = simulate_batching(&arr, &cfg, &SimParams::default(), None);
        // The simulator stamps on times rebased to a non-negative start.
        let t0 = arr[0].min(0.0);
        let rel: Vec<f64> = arr.iter().map(|a| a - t0).collect();
        let want = reference(&rel, cfg.batch_size, cfg.timeout_s);

        prop_assert_eq!(out.batches.len(), want.len());
        let mut seen = vec![0u32; arr.len()];
        for (k, (members, open, dispatch)) in want.iter().enumerate() {
            let got = &out.batches[k];
            prop_assert_eq!(got.size as usize, members.len());
            prop_assert!(got.size <= cfg.batch_size, "batch over B");
            prop_assert_eq!(got.opened_at.to_bits(), (open + t0).to_bits());
            prop_assert_eq!(got.dispatched_at.to_bits(), (dispatch + t0).to_bits());
            for &m in members {
                prop_assert_eq!(out.requests[m].batch, k);
                prop_assert_eq!(out.requests[m].dispatch.to_bits(), (dispatch + t0).to_bits());
                seen[m] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "every request in exactly one batch");
        let total: u32 = out.batches.iter().map(|b| b.size).sum();
        prop_assert_eq!(total as usize, arr.len());
    }

    #[test]
    fn rotation_never_splits_or_drops_a_window(
        arr in arrivals(),
        cfgs in prop::collection::vec(config(), 1..6),
        rotate_every in 1usize..25,
    ) {
        // Rotate to the next config before every `rotate_every`-th
        // arrival; `epoch_of[i]` is the configuration epoch request `i`
        // was admitted under.
        let mut core = BatcherCore::new(cfgs[0]);
        let mut formed: Vec<FormedBatch> = Vec::new();
        let mut epoch_of = Vec::with_capacity(arr.len());
        let mut epoch = 0usize;
        for (i, &t) in arr.iter().enumerate() {
            if i > 0 && i % rotate_every == 0 {
                epoch += 1;
                core.rotate(cfgs[epoch % cfgs.len()]);
            }
            epoch_of.push(epoch);
            core.on_arrival(Admitted { id: i as u64, arrival: t, class: 0 }, &mut formed);
        }
        core.due(f64::INFINITY, &mut formed);
        prop_assert!(core.is_idle());

        // Every admitted id leaves in exactly one batch of at most B, and
        // one epoch (hence one config) per batch.
        let mut seen = vec![0u32; arr.len()];
        for fb in &formed {
            let e = epoch_of[fb.requests[0].id as usize];
            prop_assert_eq!(fb.config, cfgs[e % cfgs.len()]);
            prop_assert!(fb.requests.len() <= fb.config.batch_size as usize, "batch over B");
            for r in &fb.requests {
                prop_assert_eq!(epoch_of[r.id as usize], e);
                seen[r.id as usize] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "dropped or duplicated a request");

        // Never split: each epoch's requests are batched exactly as if
        // the epoch had been served on its own.
        for e in 0..=epoch {
            let ids: Vec<usize> = (0..arr.len()).filter(|&i| epoch_of[i] == e).collect();
            let times: Vec<f64> = ids.iter().map(|&i| arr[i]).collect();
            let cfg = cfgs[e % cfgs.len()];
            let want = reference(&times, cfg.batch_size, cfg.timeout_s);
            let mut got: Vec<&FormedBatch> = formed
                .iter()
                .filter(|fb| epoch_of[fb.requests[0].id as usize] == e)
                .collect();
            got.sort_by_key(|fb| fb.requests[0].id);
            prop_assert_eq!(got.len(), want.len());
            for (fb, (members, open, dispatch)) in got.iter().zip(&want) {
                let got_ids: Vec<usize> = fb.requests.iter().map(|r| r.id as usize).collect();
                let want_ids: Vec<usize> = members.iter().map(|&m| ids[m]).collect();
                prop_assert_eq!(got_ids, want_ids);
                prop_assert_eq!(fb.opened_at.to_bits(), open.to_bits());
                prop_assert_eq!(fb.dispatched_at.to_bits(), dispatch.to_bits());
            }
        }
    }
}
