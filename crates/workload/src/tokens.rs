//! Per-request token lengths for LLM-shaped workloads.
//!
//! DeepBAT's service model treats every request as one fixed-cost unit.
//! LLM inference is not shaped like that: cost splits into a *prefill*
//! phase (proportional to prompt length) and a per-token *decode* phase,
//! and the figure of merit becomes goodput under TTFT/TPOT SLOs rather
//! than a single end-to-end percentile.
//!
//! This module layers token lengths onto existing arrival traces:
//!
//! * [`TokenSpec`] — one request's prompt/output token counts;
//! * [`LognormalTokens`] — a seeded sampler
//!   (same seed ⇒ same specs, bit for bit);
//! * [`TokenizedTrace`] — a [`Trace`] paired with per-request specs,
//!   timestamps untouched (no rebasing, mirroring `ClassedTrace`), so
//!   token-aware runs stay bitwise comparable with token-blind ones;
//! * [`TokenSlo`] — TTFT/TPOT targets next to the existing e2e SLO.

use crate::error::DbatError;
use crate::rng::Rng;
use crate::trace::Trace;
use serde::{Deserialize, Serialize};

/// Token counts of one request: prompt (prefill) and output (decode).
///
/// Both counts are at least 1 — a request always has a prompt and emits
/// at least one token, which keeps TTFT well defined.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenSpec {
    pub prompt_tokens: u32,
    pub output_tokens: u32,
}

impl TokenSpec {
    pub fn new(prompt_tokens: u32, output_tokens: u32) -> Self {
        TokenSpec {
            prompt_tokens: prompt_tokens.max(1),
            output_tokens: output_tokens.max(1),
        }
    }

    /// The invariant [`TokenSpec::new`] establishes, for specs that did not
    /// come through it (the fields are public and deserialisable).
    pub fn validate(&self) -> Result<(), DbatError> {
        if self.prompt_tokens == 0 || self.output_tokens == 0 {
            return Err(DbatError::config(format!(
                "token spec needs at least one prompt and one output token, got {}/{}",
                self.prompt_tokens, self.output_tokens
            )));
        }
        Ok(())
    }

    /// Total resident tokens (prompt + output), the KV-cache footprint
    /// the request reaches right before it completes.
    pub fn total_tokens(&self) -> u64 {
        self.prompt_tokens as u64 + self.output_tokens as u64
    }

    /// The degenerate unit request: 1 prompt token, 1 output token.
    /// Used by the reduction proofs back to the token-blind simulator.
    pub(crate) fn unit() -> Self {
        TokenSpec {
            prompt_tokens: 1,
            output_tokens: 1,
        }
    }
}

/// Token-level SLOs: time to first token and time per output token.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TokenSlo {
    /// Time-to-first-token target (seconds).
    pub ttft_s: f64,
    /// Time-per-output-token target (seconds per token, after the first).
    pub tpot_s: f64,
}

impl TokenSlo {
    pub fn new(ttft_s: f64, tpot_s: f64) -> Self {
        TokenSlo { ttft_s, tpot_s }
    }
}

/// Lognormal prompt/output length sampler: `exp(N(mu, sigma))`, rounded
/// and clamped to `[1, cap]`. The usual shape for production LLM traces
/// (heavy right tail, no mass at zero).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LognormalTokens {
    /// `ln`-space mean of the prompt length.
    pub(crate) mu_prompt: f64,
    pub(crate) sigma_prompt: f64,
    /// `ln`-space mean of the output length.
    pub(crate) mu_output: f64,
    pub(crate) sigma_output: f64,
    /// Hard cap on either count (context-window stand-in).
    pub(crate) cap: u32,
}

impl LognormalTokens {
    pub(crate) fn new(
        median_prompt: f64,
        sigma_prompt: f64,
        median_output: f64,
        sigma_output: f64,
    ) -> Self {
        LognormalTokens {
            mu_prompt: median_prompt.ln(),
            sigma_prompt,
            mu_output: median_output.ln(),
            sigma_output,
            cap: 4096,
        }
    }

    /// Chat-like: mid prompts, mid outputs.
    pub fn chat() -> Self {
        LognormalTokens::new(128.0, 0.7, 64.0, 0.7)
    }

    /// Summarisation-like: long prompts, short outputs (prefill-heavy).
    pub fn summarize() -> Self {
        LognormalTokens::new(512.0, 0.5, 32.0, 0.5)
    }

    /// Generation-like: short prompts, long outputs (decode-heavy).
    /// This is the "long-decode" distribution of the `abl_tokens` ablation.
    pub fn long_decode() -> Self {
        LognormalTokens::new(48.0, 0.5, 256.0, 0.6)
    }

    fn draw(&self, rng: &mut Rng, mu: f64, sigma: f64) -> u32 {
        let x = rng.normal_with(mu, sigma).exp().round();
        (x as u32).clamp(1, self.cap.max(1))
    }

    pub(crate) fn sample(&self, rng: &mut Rng) -> TokenSpec {
        // Prompt first, then output: the draw order is part of the
        // determinism contract (same seed ⇒ same spec stream).
        let prompt = self.draw(rng, self.mu_prompt, self.sigma_prompt);
        let output = self.draw(rng, self.mu_output, self.sigma_output);
        TokenSpec {
            prompt_tokens: prompt,
            output_tokens: output,
        }
    }
}

/// A token-length distribution.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenMix {
    Lognormal(LognormalTokens),
}

impl TokenMix {
    pub(crate) fn sample(&self, rng: &mut Rng) -> TokenSpec {
        match self {
            TokenMix::Lognormal(l) => l.sample(rng),
        }
    }
}

/// An arrival trace with per-request token specs (parallel to
/// `trace.timestamps()`). Timestamps are never rebased or perturbed —
/// the token layer rides on top of the existing trace, exactly like
/// `ClassedTrace` does for class labels.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TokenizedTrace {
    trace: Trace,
    specs: Vec<TokenSpec>,
}

impl TokenizedTrace {
    /// Draw one spec per arrival from a seeded stream (same seed ⇒ same
    /// specs), leaving the timestamps bit-identical.
    pub fn sample(trace: Trace, mix: &TokenMix, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let specs = (0..trace.len()).map(|_| mix.sample(&mut rng)).collect();
        TokenizedTrace { trace, specs }
    }

    /// Every request 1 prompt token / 1 output token: the degenerate
    /// workload the reduction proofs run through.
    pub fn degenerate(trace: Trace) -> Self {
        let specs = vec![TokenSpec::unit(); trace.len()];
        TokenizedTrace { trace, specs }
    }

    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    pub fn specs(&self) -> &[TokenSpec] {
        &self.specs
    }

    pub fn arrivals(&self) -> &[f64] {
        self.trace.timestamps()
    }

    pub fn len(&self) -> usize {
        self.trace.len()
    }

    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Index range `[lo, hi)` of arrivals in `[t0, t1)` — used to slice
    /// arrival/spec pairs per decision interval without rebasing.
    pub fn index_range(&self, t0: f64, t1: f64) -> (usize, usize) {
        (self.trace.lower_bound(t0), self.trace.lower_bound(t1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(n: usize) -> Trace {
        Trace::new((0..n).map(|i| i as f64 * 0.05).collect(), n as f64 * 0.05)
    }

    #[test]
    fn sampling_is_seeded_and_layered_without_rebasing() {
        let tr = trace(500);
        let mix = TokenMix::Lognormal(LognormalTokens::chat());
        let a = TokenizedTrace::sample(tr.clone(), &mix, 9);
        let b = TokenizedTrace::sample(tr.clone(), &mix, 9);
        assert_eq!(a.specs(), b.specs());
        let c = TokenizedTrace::sample(tr.clone(), &mix, 10);
        assert_ne!(a.specs(), c.specs());
        // Timestamps untouched, bit for bit.
        for (x, y) in a.arrivals().iter().zip(tr.timestamps()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn lognormal_presets_have_the_advertised_shape() {
        let tr = trace(4000);
        let sum = TokenizedTrace::sample(
            tr.clone(),
            &TokenMix::Lognormal(LognormalTokens::summarize()),
            3,
        );
        let gen =
            TokenizedTrace::sample(tr, &TokenMix::Lognormal(LognormalTokens::long_decode()), 3);
        // (mean prompt, mean output) lengths.
        let means = |t: &TokenizedTrace| {
            let n = t.len() as f64;
            let sum = |f: fn(&TokenSpec) -> u32| t.specs().iter().map(|s| f(s) as f64).sum::<f64>();
            (sum(|s| s.prompt_tokens) / n, sum(|s| s.output_tokens) / n)
        };
        let (s, g) = (means(&sum), means(&gen));
        // Summarisation: prefill-heavy. Long-decode: decode-heavy.
        assert!(s.0 > s.1 * 4.0, "{s:?}");
        assert!(g.1 > g.0 * 2.0, "{g:?}");
        // All counts at least 1.
        assert!(sum
            .specs()
            .iter()
            .all(|s| s.prompt_tokens >= 1 && s.output_tokens >= 1));
    }

    #[test]
    fn index_ranges_by_time() {
        let tt = TokenizedTrace::degenerate(trace(100)); // arrivals at 0.00, 0.05, ..., 4.95
        assert_eq!(tt.index_range(1.0, 2.0), (20, 40));
        assert_eq!(tt.index_range(50.0, 60.0), (100, 100));
    }

    #[test]
    fn degenerate_and_validation() {
        let tr = trace(3);
        let tt = TokenizedTrace::degenerate(tr.clone());
        assert!(tt.specs().iter().all(|s| *s == TokenSpec::unit()));
        assert_eq!(TokenSpec::unit().total_tokens(), 2);
    }

    #[test]
    fn deserialised_zero_token_spec_is_a_typed_error() {
        // The fields are public and deserialisable, so `TokenSpec::new`'s
        // `.max(1)` is not the only way in.
        for json in [
            r#"{"prompt_tokens": 5, "output_tokens": 0}"#,
            r#"{"prompt_tokens": 0, "output_tokens": 5}"#,
        ] {
            let spec: TokenSpec = serde_json::from_str(json).unwrap();
            let err = spec.validate().unwrap_err();
            assert!(matches!(err, DbatError::InvalidConfig(_)), "{err:?}");
        }
    }
}
