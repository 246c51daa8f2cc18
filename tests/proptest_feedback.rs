//! Generated-case test of the closed-loop feedback protocol. A recording
//! controller is driven over random traces, horizons and decision
//! intervals by the two drivers that run the protocol offline —
//! `run_controller` and `run_controller_tokens`. Both close an interval
//! before they decide the next, so each call log must be exactly
//! `decide(k) [observe(k)] commit(k)` for `k = 0, 1, …`, with `observe`
//! called for precisely the intervals something arrived in.

use deepbat::prelude::*;
use deepbat::sim::{run_controller_tokens, TokenParams};
use deepbat::workload::{LognormalTokens, TokenMix, TokenSlo, TokenizedTrace};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Call {
    Decide(usize),
    Observe(usize),
    Commit(usize),
}

/// Logs every protocol call; cycles a short script so consecutive
/// intervals run different configurations.
struct Recorder {
    /// Start of every decided interval, by index.
    starts: Vec<f64>,
    calls: Vec<Call>,
}

const SCRIPT: [(u32, u32, f64); 4] = [
    (2048, 4, 0.05),
    (1024, 16, 0.5),
    (3008, 1, 0.0),
    (2048, 8, 0.2),
];

impl Recorder {
    fn new() -> Self {
        Recorder {
            starts: Vec::new(),
            calls: Vec::new(),
        }
    }
}

impl Controller for Recorder {
    fn name(&self) -> &'static str {
        "recorder"
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> DecisionRecord {
        self.starts.push(ctx.start);
        self.calls.push(Call::Decide(ctx.index));
        let (m, b, t) = SCRIPT[ctx.index % SCRIPT.len()];
        let config = LambdaConfig::new(m, b, t);
        DecisionRecord::new(ctx.index, ctx.start, ctx.end, config, 0.1, 95.0)
    }

    fn observe(&mut self, m: &IntervalMeasurement) {
        let k = self.starts.iter().position(|&s| s == m.start);
        self.calls.push(Call::Observe(
            k.expect("observed an interval never decided"),
        ));
    }

    fn commit(&mut self, record: &DecisionRecord) {
        self.calls.push(Call::Commit(record.index));
    }
}

/// Check one driver's call log against the exact order
/// `decide(k) [observe(k)] commit(k)`, interval by interval, and return
/// the intervals it observed (the non-empty ones), ascending.
fn check_contract(driver: &str, calls: &[Call], intervals: usize) -> Vec<usize> {
    let mut calls = calls.iter().copied().peekable();
    let mut observed = Vec::new();
    for k in 0..intervals {
        assert_eq!(
            calls.next(),
            Some(Call::Decide(k)),
            "{driver}: interval {k} opens with its decide"
        );
        if calls.next_if_eq(&Call::Observe(k)).is_some() {
            observed.push(k);
        }
        assert_eq!(
            calls.next(),
            Some(Call::Commit(k)),
            "{driver}: interval {k} is committed before the next decide"
        );
    }
    assert_eq!(
        calls.next(),
        None,
        "{driver}: a call after the last interval"
    );
    observed
}

/// Sorted arrivals from random gaps; one gap in ten is long enough to
/// leave whole decision intervals empty.
fn arrivals() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0.0f64..1.0, 0u32..10), 0..150).prop_map(|gaps| {
        let mut t = 0.0;
        gaps.iter()
            .map(|&(g, long)| {
                t += if long == 0 { 20.0 * g } else { 0.2 * g };
                t
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_driver_honours_the_feedback_contract(
        ts in arrivals(),
        interval in 0.3f64..8.0,
        t1_share in 0.05f64..1.0,
    ) {
        let horizon = ts.last().copied().unwrap_or(0.0) + 1.0;
        // Almost never a multiple of the interval: the last one is short.
        let t1 = t1_share * horizon;
        let trace = Trace::new(ts, horizon);
        let opts = SimConfig::builder()
            .slo(0.1)
            .decision_interval(interval)
            .build()
            .unwrap();

        // The interval grid and its non-empty members, from the trace alone.
        let mut expect_nonempty = Vec::new();
        let (mut t, mut intervals) = (0.0, 0usize);
        while t < t1 {
            let end = (t + interval).min(t1);
            if !trace.slice(t, end).is_empty() {
                expect_nonempty.push(intervals);
            }
            t = end;
            intervals += 1;
        }
        let offered = trace.slice(0.0, t1).len();

        let mut ctl = Recorder::new();
        let out = run_controller(&mut ctl, &trace, 0.0, t1, &opts);
        prop_assert_eq!(out.records.len(), intervals);
        prop_assert_eq!(out.measurements.iter().map(|m| m.requests).sum::<usize>(), offered);
        let sim = check_contract("run_controller", &ctl.calls, intervals);

        let tokenized = TokenizedTrace::sample(
            trace,
            &TokenMix::Lognormal(LognormalTokens::chat()),
            7,
        );
        let mut ctl = Recorder::new();
        let out = run_controller_tokens(
            &mut ctl,
            &tokenized,
            0.0,
            t1,
            &opts,
            &TokenParams::llm_like(),
            &TokenSlo::new(0.5, 0.05),
        );
        prop_assert_eq!(out.records.len(), intervals);
        prop_assert_eq!(out.measurements.iter().map(|m| m.requests).sum::<usize>(), offered);
        let tokens = check_contract("run_controller_tokens", &ctl.calls, intervals);

        prop_assert_eq!(&sim, &expect_nonempty);
        prop_assert_eq!(&tokens, &expect_nonempty);
    }
}
