//! In-run correctness checks. A failed check makes the run incorrect:
//! it is counted among the failed operations, the result line says
//! `"correct": false`, and the process exits non-zero.

use dbat_serve::ServeCounts;
use dbat_sim::TokenSimOutcome;

#[derive(Debug, Default)]
pub struct Checker {
    /// Operations the workload attempted (requests, decisions, calls).
    pub attempted: u64,
    /// Operations failed, refused or lost, plus failed checks.
    pub failed: u64,
    failures: Vec<String>,
}

impl Checker {
    /// Count a block of operations and how many of them failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Record one check. It is named only if it fails, so a check may sit
    /// between timed operations.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Gateway conservation after a graceful drain:
    /// `submitted == accepted + rejected` and `completed == accepted`.
    pub fn gateway_conserved(&mut self, what: &str, c: &ServeCounts) {
        self.check(
            c.submitted == c.accepted + c.rejected && c.completed == c.accepted,
            || format!("{what}: gateway conservation {c:?}"),
        );
    }

    /// The token simulators' ledger: `served + rejected == offered`.
    pub fn tokens_conserved(&mut self, what: &str, out: &TokenSimOutcome) {
        self.check(out.conserved(), || {
            format!(
                "{what}: token conservation (served {} + rejected {} vs offered {})",
                out.served.len(),
                out.rejected,
                out.offered
            )
        });
    }

    pub fn finite(&mut self, name: &str, value: f64) {
        self.check(value.is_finite(), || {
            format!("metric {name} is finite (got {value})")
        });
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_non_conserving_outcome_fails_the_run() {
        let mut ok = Checker::default();
        ok.gateway_conserved(
            "clean",
            &ServeCounts {
                submitted: 10,
                accepted: 8,
                rejected: 2,
                completed: 8,
                steals: 3,
            },
        );
        assert!(ok.correct());
        assert_eq!((ok.attempted, ok.failed), (1, 0));

        // One request vanished between admission and completion.
        let mut lost = Checker::default();
        lost.gateway_conserved(
            "lossy",
            &ServeCounts {
                submitted: 10,
                accepted: 8,
                rejected: 2,
                completed: 7,
                steals: 0,
            },
        );
        assert!(!lost.correct());
        assert_eq!(lost.failed, 1);
        assert!(lost.failures()[0].contains("lossy"));

        // A submission neither accepted nor rejected.
        let mut leak = Checker::default();
        leak.gateway_conserved(
            "leak",
            &ServeCounts {
                submitted: 10,
                accepted: 8,
                rejected: 1,
                completed: 8,
                steals: 0,
            },
        );
        assert!(!leak.correct());

        let mut tok = Checker::default();
        tok.tokens_conserved(
            "tokens",
            &TokenSimOutcome {
                served: Vec::new(),
                rejected: 1,
                offered: 3,
                invocations: Vec::new(),
                total_cost: 0.0,
            },
        );
        assert!(!tok.correct());

        let mut fin = Checker::default();
        fin.finite("x", 1.5);
        fin.finite("y", f64::NAN);
        assert_eq!(fin.failed, 1);
    }
}
