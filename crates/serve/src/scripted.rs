//! A controller that replays a fixed per-interval configuration script.
//!
//! Useful for tests and replays that need a *predetermined*
//! reconfiguration sequence: the equivalence suite uses it to force a
//! configuration change at an exact interval boundary and compare the
//! gateway against per-interval simulations.

use dbat_sim::{Controller, DecisionContext, DecisionRecord, LambdaConfig};

/// Applies `script[i]` to decision interval `i`, holding the last entry
/// once the script runs out.
#[derive(Clone, Debug)]
pub struct ScriptedController {
    script: Vec<LambdaConfig>,
    pub(crate) slo: f64,
    pub(crate) percentile: f64,
    records: Vec<DecisionRecord>,
}

impl ScriptedController {
    /// `script` must be non-empty.
    pub fn new(script: Vec<LambdaConfig>, slo: f64) -> Self {
        assert!(
            !script.is_empty(),
            "script must contain at least one config"
        );
        ScriptedController {
            script,
            slo,
            percentile: 95.0,
            records: Vec::new(),
        }
    }
}

impl Controller for ScriptedController {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> DecisionRecord {
        let config = self.script[ctx.index.min(self.script.len() - 1)];
        DecisionRecord::new(
            ctx.index,
            ctx.start,
            ctx.end,
            config,
            self.slo,
            self.percentile,
        )
    }

    fn audit(&self) -> &[DecisionRecord] {
        &self.records
    }

    fn audit_mut(&mut self) -> &mut Vec<DecisionRecord> {
        &mut self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbat_workload::Trace;

    #[test]
    fn script_indexes_and_saturates() {
        let a = LambdaConfig::new(2048, 4, 0.05);
        let b = LambdaConfig::new(1024, 8, 0.025);
        let mut ctl = ScriptedController::new(vec![a, b], 0.1);
        let trace = Trace::new(vec![0.5], 10.0);
        for (i, expect) in [(0usize, a), (1, b), (5, b)] {
            let ctx = DecisionContext {
                trace: &trace,
                start: i as f64,
                end: i as f64 + 1.0,
                index: i,
            };
            assert_eq!(ctl.decide(&ctx).config, expect);
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_script_rejected() {
        ScriptedController::new(Vec::new(), 0.1);
    }
}
