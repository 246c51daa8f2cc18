//! Generated-case test of the closed-loop feedback protocol. A recording
//! controller is driven over random traces, horizons and decision
//! intervals by the three drivers that run the protocol offline —
//! `run_controller`, `run_controller_tokens` and
//! `VirtualGateway::replay_controlled` — and each must honour the same
//! per-interval contract. The replay may defer an interval's `observe`
//! past the next `decide` (a sealed window can outlive the boundary), so
//! the contract is per interval, not one global interleaving.

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

impl Call {
    fn interval(self) -> usize {
        match self {
            Call::Decide(k) | Call::Observe(k) | Call::Commit(k) => k,
        }
    }
}

/// Logs every protocol call; cycles a short script so consecutive
/// intervals run different windows (long timeouts straddle boundaries).
struct Recorder {
    /// Start of every decided interval, by index.
    starts: Vec<f64>,
    calls: Vec<Call>,
    records: Vec<DecisionRecord>,
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
            records: Vec::new(),
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

    fn commit(&mut self, record: DecisionRecord) {
        self.calls.push(Call::Commit(record.index));
        self.records.push(record);
    }

    fn audit(&self) -> &[DecisionRecord] {
        &self.records
    }

    fn audit_mut(&mut self) -> &mut Vec<DecisionRecord> {
        &mut self.records
    }
}

/// Check the per-interval contract over one driver's call log and return
/// the intervals it observed (the non-empty ones), ascending.
fn check_contract(driver: &str, calls: &[Call], intervals: usize) -> Vec<usize> {
    let in_order: Vec<usize> = (0..intervals).collect();
    // The intervals one kind of call was made for, in call order.
    let of = |kind: fn(usize) -> Call| -> Vec<usize> {
        let ks = calls.iter().map(|c| c.interval());
        ks.zip(calls)
            .filter(|&(k, &c)| c == kind(k))
            .map(|(k, _)| k)
            .collect()
    };
    let (decides, commits, mut observed) = (of(Call::Decide), of(Call::Commit), of(Call::Observe));
    assert_eq!(
        decides, in_order,
        "{driver}: one decide per interval, in order"
    );
    assert_eq!(
        commits, in_order,
        "{driver}: one commit per interval, in order"
    );
    let at = |c: Call| calls.iter().position(|&x| x == c).expect("logged");
    for k in 0..intervals {
        assert!(at(Call::Decide(k)) < at(Call::Commit(k)), "{driver}: {k}");
    }
    for &k in &observed {
        let o = at(Call::Observe(k));
        assert!(
            at(Call::Decide(k)) < o && o < at(Call::Commit(k)),
            "{driver}: observe of interval {k} outside its decide..commit"
        );
    }
    observed.sort_unstable();
    let before = observed.len();
    observed.dedup();
    assert_eq!(
        observed.len(),
        before,
        "{driver}: an interval observed twice"
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
            trace.clone(),
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

        let mut ctl = Recorder::new();
        let out = VirtualGateway::from_params(&opts.params)
            .replay_controlled(&mut ctl, &trace, 0.0, t1, &opts);
        prop_assert_eq!(out.records.len(), intervals);
        prop_assert_eq!(out.measurements.iter().map(|m| m.requests).sum::<usize>(), offered);
        let replay = check_contract("replay_controlled", &ctl.calls, intervals);

        prop_assert_eq!(&sim, &expect_nonempty);
        prop_assert_eq!(&tokens, &expect_nonempty);
        prop_assert_eq!(&replay, &expect_nonempty);
    }
}
