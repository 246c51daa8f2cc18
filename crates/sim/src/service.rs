//! Deterministic service-time profile of batched ML inference on Lambda.
//!
//! The paper profiles ASR inference (TED-LIUM) on AWS Lambda and relies on
//! the (experimentally established) fact that inference service times are
//! deterministic given the configuration. We model the profiled surface as
//!
//! ```text
//! s(M, B) = (w0 + w1 · B^γ) / speed(M),   speed(M) = min(M, M_sat) / M_ref
//! ```
//!
//! * `w0` — fixed per-invocation work (model load from warm cache, batch
//!   assembly, framework overhead) at the reference memory;
//! * `w1 · B^γ` — per-batch compute; `γ < 1` captures the sub-linear scaling
//!   that makes batching attractive (vectorisation amortises per-request
//!   overhead);
//! * `speed(M)` — Lambda allocates CPU proportionally to memory until the
//!   kernel can no longer use additional vCPUs (`M_sat`).

use serde::{Deserialize, Serialize};

/// A profiled deterministic service-time surface.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ServiceProfile {
    /// Fixed work per invocation at the reference memory (seconds).
    pub w0: f64,
    /// Incremental work coefficient per request (seconds).
    pub w1: f64,
    /// Batch-scaling exponent in (0, 1]; 1 = perfectly linear.
    pub gamma: f64,
    /// Memory (MB) at which `speed = 1`.
    pub ref_memory_mb: u32,
    /// Memory (MB) beyond which extra CPU no longer helps.
    pub saturation_mb: u32,
}

impl ServiceProfile {
    /// The profile used throughout the reproduction, calibrated so the
    /// SLO = 0.1 s frontier crosses the configuration grid: B = 1 at the
    /// reference memory (1792 MB = 1 vCPU) costs 42 ms, and large batches
    /// need high memory to stay under the SLO.
    pub fn ted_lium_like() -> Self {
        ServiceProfile {
            w0: 0.030,
            w1: 0.012,
            gamma: 0.9,
            ref_memory_mb: 1792,
            saturation_mb: 3008,
        }
    }

    /// Relative CPU speed at the given memory size.
    pub fn speed(&self, memory_mb: u32) -> f64 {
        memory_mb.min(self.saturation_mb) as f64 / self.ref_memory_mb as f64
    }

    /// Deterministic service time (seconds) of a batch of `batch` requests
    /// at `memory_mb`, rounded up to the 1 ms billing granularity.
    pub fn service_time(&self, memory_mb: u32, batch: u32) -> f64 {
        assert!(batch >= 1, "batch must be >= 1");
        let work = self.w0 + self.w1 * (batch as f64).powf(self.gamma);
        let raw = work / self.speed(memory_mb);
        // Round up to 1 ms: Lambda bills (and we observe) at ms granularity.
        (raw * 1000.0).ceil() / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_point() {
        let p = ServiceProfile::ted_lium_like();
        // B=1 at 1792 MB: (0.030 + 0.012) / 1.0 = 42 ms.
        assert!((p.service_time(1792, 1) - 0.042).abs() < 1e-9);
    }

    #[test]
    fn more_memory_is_faster_until_saturation() {
        let p = ServiceProfile::ted_lium_like();
        let s512 = p.service_time(512, 4);
        let s1024 = p.service_time(1024, 4);
        let s3008 = p.service_time(3008, 4);
        let s4096 = p.service_time(4096, 4);
        assert!(s512 > s1024);
        assert!(s1024 > s3008);
        assert_eq!(s3008, s4096, "beyond saturation memory does not help");
    }

    #[test]
    fn batching_is_sublinear() {
        let p = ServiceProfile::ted_lium_like();
        let s1 = p.service_time(2048, 1);
        let s8 = p.service_time(2048, 8);
        assert!(s8 > s1);
        assert!(
            s8 < 8.0 * s1,
            "batch of 8 must be far cheaper than 8 singles"
        );
    }

    #[test]
    fn service_monotone_in_batch() {
        let p = ServiceProfile::ted_lium_like();
        let mut prev = 0.0;
        for b in 1..=32 {
            let s = p.service_time(1024, b);
            assert!(s >= prev, "service time must not decrease with batch size");
            prev = s;
        }
    }

    #[test]
    fn ms_rounding() {
        let p = ServiceProfile::ted_lium_like();
        let s = p.service_time(3008, 3);
        let ms = s * 1000.0;
        assert!((ms - ms.round()).abs() < 1e-9, "service {s} not on ms grid");
    }
}
