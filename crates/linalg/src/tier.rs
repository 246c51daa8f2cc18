//! The instruction-set tier every vector kernel of this crate runs on.
//!
//! The workspace builds against the portable x86-64 baseline, so the wide
//! kernels are reached by runtime detection, never by per-host `RUSTFLAGS`.
//! One cached [`Tier`] picks the flavour of every kernel family at once:
//! the GEMM tile, the softmax and the fused attention head. A vector
//! family is one body over the lane types, which a vector tier only
//! instantiates on its lanes. `DBAT_GEMM_FORCE_SCALAR=1` (any value other
//! than `0`) pins [`Tier::Scalar`] for every family.
//!
//! [`Tier::Avx2`] and [`Tier::Avx512`] give the same bits: every output
//! element runs the same chain of correctly-rounded fused operations in
//! the same order, only more lanes at a time. [`Tier::Scalar`] rounds the
//! GEMM and attention products differently (multiply then add), so it
//! trains different weights; the softmax alone is bitwise equal on all
//! three.

/// A kernel flavour, ordered from the narrowest to the widest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Portable code: plain multiply-then-add products, which the compiler
    /// autovectorises at whatever width the target offers.
    Scalar,
    /// 256-bit AVX2 + FMA lanes.
    Avx2,
    /// 512-bit AVX-512F lanes, with AVX2 + FMA for the remainders.
    Avx512,
}

impl Tier {
    /// Every tier, narrowest first.
    pub const ALL: [Tier; 3] = [Tier::Scalar, Tier::Avx2, Tier::Avx512];

    /// The widest tier this CPU runs, whatever `DBAT_GEMM_FORCE_SCALAR`
    /// says.
    pub fn detect() -> Tier {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx2") && has!("fma") {
                return if has!("avx512f") {
                    Tier::Avx512
                } else {
                    Tier::Avx2
                };
            }
        }
        Tier::Scalar
    }

    /// Whether this CPU can run the tier's kernels.
    pub fn supported(self) -> bool {
        self <= Tier::detect()
    }

    /// Whether the tier's products are fused multiply-adds.
    pub fn fused(self) -> bool {
        self != Tier::Scalar
    }
}

/// `DBAT_GEMM_FORCE_SCALAR` set to anything but `0`.
fn force_scalar_env() -> bool {
    std::env::var_os("DBAT_GEMM_FORCE_SCALAR").is_some_and(|v| v != "0")
}

/// The tier the dispatching entry points use: [`Tier::detect`], or
/// [`Tier::Scalar`] under `DBAT_GEMM_FORCE_SCALAR`. Read once per process.
#[inline]
pub fn kernel_tier() -> Tier {
    use std::sync::atomic::{AtomicU8, Ordering};
    // 0 = not yet detected, otherwise the tier's index in `Tier::ALL` + 1.
    static CACHED: AtomicU8 = AtomicU8::new(0);
    match CACHED.load(Ordering::Relaxed) {
        0 => {
            let tier = if force_scalar_env() {
                Tier::Scalar
            } else {
                Tier::detect()
            };
            CACHED.store(tier as u8 + 1, Ordering::Relaxed);
            tier
        }
        i => Tier::ALL[usize::from(i) - 1],
    }
}

/// The vector kernels' SAFETY rests on this: a tier pinned by a caller
/// must be one the CPU runs. One atomic load on the dispatched path.
#[inline]
pub(crate) fn assert_runs(tier: Tier) {
    assert!(
        tier <= kernel_tier() || tier.supported(),
        "{tier:?} kernels requested on a CPU without them"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Prints the tier the dispatching kernels use here, so a test log
    /// shows which flavours the suite exercised (`--nocapture`).
    #[test]
    fn kernel_tier_is_supported_and_reported() {
        let tier = kernel_tier();
        println!(
            "dbat-linalg kernel tier: {tier:?} (CPU supports up to {:?})",
            Tier::detect()
        );
        assert!(tier.supported());
        assert_eq!(
            tier == Tier::Scalar,
            force_scalar_env() || !Tier::Avx2.supported()
        );
        assert!(Tier::Scalar.supported());
    }
}
