//! AWS Lambda pricing model (x86, us-east-1, 2023 rates as used by BATCH).

use serde::{Deserialize, Serialize};

/// Pay-as-you-go pricing parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Pricing {
    /// Price per GB-second of billed duration (USD).
    pub per_gb_second: f64,
    /// Flat price per invocation (USD).
    pub per_invocation: f64,
}

impl Pricing {
    /// AWS Lambda list prices: $0.0000166667 / GB-s and $0.20 per 1M requests.
    pub(crate) fn aws_lambda() -> Self {
        Pricing {
            per_gb_second: 1.66667e-5,
            per_invocation: 2.0e-7,
        }
    }

    /// Cost (USD) of a single invocation of duration `duration_s` at
    /// `memory_mb`. Duration is billed in 1 ms increments, rounded up.
    pub fn invocation_cost(&self, memory_mb: u32, duration_s: f64) -> f64 {
        assert!(duration_s >= 0.0);
        let billed_s = (duration_s * 1000.0).ceil() / 1000.0;
        let gb = memory_mb as f64 / 1024.0;
        billed_s * gb * self.per_gb_second + self.per_invocation
    }

    /// Cost of an invocation whose container paid `init_s` of cold-start
    /// initialisation before `service_s` of work. The init phase is billed
    /// as regular GB-seconds (the post-2025 Lambda billing model), so a
    /// cold invocation costs strictly more than a warm one.
    pub(crate) fn invocation_cost_with_init(
        &self,
        memory_mb: u32,
        init_s: f64,
        service_s: f64,
    ) -> f64 {
        assert!(init_s >= 0.0);
        self.invocation_cost(memory_mb, init_s + service_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_price_example() {
        let p = Pricing::aws_lambda();
        // 1 GB for exactly 1 s: 1.66667e-5 + 2e-7.
        let c = p.invocation_cost(1024, 1.0);
        assert!((c - (1.66667e-5 + 2.0e-7)).abs() < 1e-12);
    }

    #[test]
    fn duration_rounds_up_to_ms() {
        let p = Pricing::aws_lambda();
        let a = p.invocation_cost(1024, 0.0101);
        let b = p.invocation_cost(1024, 0.0110);
        assert!((a - b).abs() < 1e-15, "10.1ms and 11ms both bill as 11ms");
        let c = p.invocation_cost(1024, 0.0111);
        assert!(c > b, "11.1ms bills as 12ms");
    }

    #[test]
    fn cost_scales_with_memory() {
        let p = Pricing::aws_lambda();
        let lo = p.invocation_cost(512, 0.1);
        let hi = p.invocation_cost(2048, 0.1);
        // GB-s component scales 4x; flat fee identical.
        assert!(((hi - p.per_invocation) / (lo - p.per_invocation) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_still_charges_invocation() {
        let p = Pricing::aws_lambda();
        assert!((p.invocation_cost(1024, 0.0) - p.per_invocation).abs() < 1e-15);
    }
}
