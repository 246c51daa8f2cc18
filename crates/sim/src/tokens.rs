//! Token-aware two-phase service model and the continuous-batching
//! discipline.
//!
//! The paper's service surface `s(M, B)` charges every request one fixed
//! unit of work. LLM inference splits into a *prefill* phase whose work
//! grows with the summed prompt length of the batch and a *decode* phase
//! that emits one token per active request per step:
//!
//! ```text
//! work_prefill(ΣP) = p0 + p1 · (ΣP)^γp
//! work_decode(b)   = d0 + d1 · b^γd          (one step, b active)
//! time(work, M)    = ceil_ms(work / speed(M))
//! ```
//!
//! with the same memory-speed law (and 1 ms billing granularity) as
//! [`ServiceProfile`](crate::ServiceProfile). Two disciplines serve a
//! [`TokenizedTrace`]-shaped workload:
//!
//! * [`simulate_tokens_windowed`] — the paper's clairvoyant window
//!   batching, re-costed token by token. Windows come from the same walk
//!   over the window core as [`crate::simulate_batching`]'s (formation
//!   only depends on arrivals and `(B, T)`), so the degenerate workload
//!   (1 prompt / 1 output token each, no capacity limit) reduces to the
//!   base simulator **bit for bit**.
//! * [`simulate_tokens_continuous`] — continuous batching: requests join
//!   the running batch at decode-step boundaries and leave on completion,
//!   over a fixed fleet of engine replicas with KV-cache
//!   capacity-constrained admission. Every decode step is dispatched as
//!   one serverless invocation of the step's duration, which is exactly
//!   [`crate::simulate_batching`]'s cost accounting in the degenerate case.
//!
//! Both disciplines are event-driven and bit-for-bit deterministic under
//! fixed seeds, and both keep a conservation ledger:
//! `completed + rejected == offered`.
//!

use crate::config::{LambdaConfig, SimConfig};
use crate::controller::{drive_intervals, Controller, IntervalMeasurement, RunOutcome};
use crate::faults::FaultCounts;
use crate::metrics::LatencySummary;
use crate::pricing::Pricing;
use crate::publish::publish_tokens;
use crate::window::walk_windows;
use dbat_telemetry::{TraceConfig, TraceEvent, TraceId, TraceStage, Tracer};
use dbat_workload::{TokenSlo, TokenSpec, TokenizedTrace};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Round a duration up to the 1 ms billing granularity, the same rule
/// [`crate::ServiceProfile::service_time`] applies.
pub(crate) fn ceil_ms(seconds: f64) -> f64 {
    (seconds * 1000.0).ceil() / 1000.0
}

/// Two-phase service surface: prefill work over the batch's summed
/// prompt tokens, decode work per step over the active cohort, both
/// divided by the same memory-speed law as [`crate::ServiceProfile`].
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub(crate) struct TokenProfile {
    /// Fixed prefill work per invocation at the reference memory (s).
    pub(crate) prefill_w0: f64,
    /// Prefill work per (summed) prompt token (s).
    pub(crate) prefill_w1: f64,
    /// Prefill scaling exponent over the summed prompt length.
    pub(crate) prefill_gamma: f64,
    /// Fixed work per decode step (s).
    pub(crate) decode_w0: f64,
    /// Decode work coefficient over the active cohort (s).
    pub(crate) decode_w1: f64,
    /// Decode batch-scaling exponent in (0, 1].
    pub(crate) decode_gamma: f64,
    /// Memory (MB) at which `speed = 1`.
    pub(crate) ref_memory_mb: u32,
    /// Memory (MB) beyond which extra CPU no longer helps.
    pub(crate) saturation_mb: u32,
}

impl TokenProfile {
    /// An LLM-shaped profile: prefill linear in the summed prompt length,
    /// decode steps ~4–15 ms with sub-linear batch scaling, on the same
    /// memory-speed law as the ASR profile.
    pub(crate) fn llm_like() -> Self {
        TokenProfile {
            prefill_w0: 0.004,
            prefill_w1: 2.0e-5,
            prefill_gamma: 1.0,
            decode_w0: 0.004,
            decode_w1: 0.0015,
            decode_gamma: 0.8,
            ref_memory_mb: 1792,
            saturation_mb: 3008,
        }
    }

    /// The degenerate profile that reduces the token model to a base
    /// `ServiceProfile`: all prefill weight on the constant term, all
    /// decode weight on the cohort term. With unit token specs the step
    /// work is `(w0 + 0·P) + (0 + w1·b^γ)`, which is bitwise the base
    /// `w0 + w1·b^γ` (adding literal `0.0` to a finite f64 is exact).
    #[cfg(test)]
    pub(crate) fn degenerate(base: &crate::ServiceProfile) -> Self {
        TokenProfile {
            prefill_w0: base.w0,
            prefill_w1: 0.0,
            prefill_gamma: 1.0,
            decode_w0: 0.0,
            decode_w1: base.w1,
            decode_gamma: base.gamma,
            ref_memory_mb: base.ref_memory_mb,
            saturation_mb: base.saturation_mb,
        }
    }

    /// Relative CPU speed at the given memory size (identical expression
    /// to [`crate::ServiceProfile::speed`] — bitwise part of the reduction).
    pub(crate) fn speed(&self, memory_mb: u32) -> f64 {
        memory_mb.min(self.saturation_mb) as f64 / self.ref_memory_mb as f64
    }

    /// Prefill work (reference-memory seconds) for a batch whose prompt
    /// tokens sum to `prompt_tokens`.
    pub(crate) fn prefill_work(&self, prompt_tokens: u64) -> f64 {
        self.prefill_w0 + self.prefill_w1 * (prompt_tokens as f64).powf(self.prefill_gamma)
    }

    /// Work (reference-memory seconds) of one decode step with `active`
    /// requests in the cohort.
    pub(crate) fn decode_work(&self, active: u32) -> f64 {
        self.decode_w0 + self.decode_w1 * (active as f64).powf(self.decode_gamma)
    }
}

/// Environment for the token-aware disciplines: the two-phase profile,
/// pricing, and the KV-cache capacity law.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TokenParams {
    pub(crate) profile: TokenProfile,
    pub(crate) pricing: Pricing,
    /// KV-cache bytes held per resident token; `<= 0` disables the
    /// capacity constraint entirely.
    pub kv_bytes_per_token: f64,
    /// Memory (MB) reserved for weights and runtime before any KV cache.
    pub model_mb: u32,
}

impl TokenParams {
    /// LLM-shaped defaults: 0.5 MiB of KV per token on top of 512 MB of
    /// weights — a 3008 MB function holds ~5k resident tokens.
    pub fn llm_like() -> Self {
        TokenParams {
            profile: TokenProfile::llm_like(),
            pricing: Pricing::aws_lambda(),
            kv_bytes_per_token: 524288.0,
            model_mb: 512,
        }
    }

    /// No capacity constraint (the degenerate-reduction environment).
    #[cfg(test)]
    pub(crate) fn unconstrained(profile: TokenProfile) -> Self {
        TokenParams {
            profile,
            pricing: Pricing::aws_lambda(),
            kv_bytes_per_token: 0.0,
            model_mb: 0,
        }
    }

    /// Resident-token capacity of a function with `memory_mb` of memory;
    /// `None` means unbounded (no KV constraint configured).
    pub(crate) fn capacity_tokens(&self, memory_mb: u32) -> Option<u64> {
        if self.kv_bytes_per_token <= 0.0 {
            return None;
        }
        let free_mb = memory_mb.saturating_sub(self.model_mb) as f64;
        Some((free_mb * 1024.0 * 1024.0 / self.kv_bytes_per_token).floor() as u64)
    }
}

/// Both disciplines' admission rule: a request whose own KV footprint
/// (`prompt + output` tokens) exceeds the capacity can never run.
fn admits(capacity: Option<u64>, spec: &TokenSpec) -> bool {
    capacity.is_none_or(|c| spec.total_tokens() <= c)
}

/// A decode step's work, and the billed duration and cost of a step that
/// only decodes, for every cohort size `b` one call can form (at most `B`
/// and at most its request count). Each entry is one evaluation of the
/// expression a step would otherwise evaluate itself, so a table lookup
/// is bitwise the direct computation.
struct StepTable {
    params: TokenParams,
    memory_mb: u32,
    speed: f64,
    /// `decode_work(b)`.
    work: Vec<f64>,
    /// `ceil_ms(decode_work(b) / speed)`.
    busy_s: Vec<f64>,
    /// The invocation cost of `busy_s[b]`.
    cost: Vec<f64>,
}

impl StepTable {
    fn new(params: &TokenParams, cfg: &LambdaConfig, requests: usize) -> Self {
        let memory_mb = cfg.memory_mb;
        let speed = params.profile.speed(memory_mb);
        let max_cohort = (cfg.batch_size as usize).min(requests) as u32;
        let work: Vec<f64> = (0..=max_cohort)
            .map(|b| params.profile.decode_work(b))
            .collect();
        let busy_s: Vec<f64> = work.iter().map(|w| ceil_ms(w / speed)).collect();
        let cost = busy_s
            .iter()
            .map(|&busy| params.pricing.invocation_cost(memory_mb, busy))
            .collect();
        StepTable {
            params: *params,
            memory_mb,
            speed,
            work,
            busy_s,
            cost,
        }
    }

    /// The billed duration and cost of a step over `cohort` requests, of
    /// which `joined` joined it with `joiner_prompts` prompt tokens in
    /// all: prefill (skipped when nobody joined) plus one decode unit.
    fn step(&self, cohort: usize, joined: u32, joiner_prompts: u64) -> (f64, f64) {
        if joined == 0 {
            return (self.busy_s[cohort], self.cost[cohort]);
        }
        let work = self.params.profile.prefill_work(joiner_prompts) + self.work[cohort];
        let busy = ceil_ms(work / self.speed);
        (
            busy,
            self.params.pricing.invocation_cost(self.memory_mb, busy),
        )
    }
}

/// One served request under a token-aware discipline.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TokenRequestRecord {
    pub(crate) arrival: f64,
    /// Time the request entered service (window dispatch / first step
    /// join).
    pub(crate) dispatch: f64,
    /// End of the first decode step the request participated in.
    pub(crate) first_token: f64,
    pub(crate) completion: f64,
    pub(crate) spec: TokenSpec,
}

impl TokenRequestRecord {
    /// Time to first token.
    pub(crate) fn ttft(&self) -> f64 {
        self.first_token - self.arrival
    }

    /// Time per output token after the first (0 for single-token
    /// outputs, which trivially satisfy any TPOT target).
    pub(crate) fn tpot(&self) -> f64 {
        if self.spec.output_tokens <= 1 {
            0.0
        } else {
            (self.completion - self.first_token) / (self.spec.output_tokens - 1) as f64
        }
    }

    /// End-to-end latency.
    pub(crate) fn latency(&self) -> f64 {
        self.completion - self.arrival
    }

    /// Both token SLOs met.
    pub(crate) fn slo_ok(&self, slo: &TokenSlo) -> bool {
        self.ttft() <= slo.ttft_s && self.tpot() <= slo.tpot_s
    }
}

/// One billed invocation: a whole window batch (windowed discipline) or
/// one decode step (continuous discipline).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TokenInvocation {
    pub(crate) start: f64,
    /// Billed busy time (ms-rounded).
    pub(crate) busy_s: f64,
    /// Requests active in the invocation.
    pub(crate) size: u32,
    /// Requests that joined at the start of this invocation.
    pub(crate) joined: u32,
    pub(crate) cost: f64,
    /// Engine replica that ran it (always 0 for the windowed discipline).
    pub(crate) engine: u32,
    /// Index of the first active request (trace anchor).
    pub(crate) anchor: usize,
}

/// Goodput: SLO-satisfying throughput under the token SLOs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Goodput {
    /// Requests completed.
    pub served: usize,
    /// Completed requests meeting both TTFT and TPOT.
    pub ok: usize,
    /// Wall of trace time the count covers (seconds).
    pub horizon_s: f64,
}

impl Goodput {
    /// SLO-satisfying requests per second.
    pub fn rps(&self) -> f64 {
        if self.horizon_s > 0.0 {
            self.ok as f64 / self.horizon_s
        } else {
            0.0
        }
    }

    /// Share (%) of completed requests meeting the token SLOs.
    pub fn attainment_pct(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.ok as f64 / self.served as f64 * 100.0
        }
    }

    /// Absorb another interval's counts (horizons add).
    pub(crate) fn absorb(&mut self, other: &Goodput) {
        self.served += other.served;
        self.ok += other.ok;
        self.horizon_s += other.horizon_s;
    }
}

/// Outcome of a token-aware simulation run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TokenSimOutcome {
    /// Served requests in arrival order (rejected ones omitted).
    pub served: Vec<TokenRequestRecord>,
    /// Requests rejected at admission (KV footprint exceeds capacity).
    pub rejected: usize,
    /// Requests offered (served + rejected must equal this).
    pub offered: usize,
    pub invocations: Vec<TokenInvocation>,
    pub total_cost: f64,
}

impl TokenSimOutcome {
    /// The conservation ledger: every offered request is accounted for.
    pub fn conserved(&self) -> bool {
        self.served.len() + self.rejected == self.offered
    }

    pub(crate) fn latencies(&self) -> Vec<f64> {
        self.served.iter().map(|r| r.latency()).collect()
    }

    pub(crate) fn summary(&self) -> LatencySummary {
        LatencySummary::from_owned(self.latencies())
    }

    pub fn cost_per_request(&self) -> f64 {
        if self.served.is_empty() {
            0.0
        } else {
            self.total_cost / self.served.len() as f64
        }
    }

    /// Goodput over `horizon_s` of trace time under the token SLOs.
    pub fn goodput(&self, slo: &TokenSlo, horizon_s: f64) -> Goodput {
        let ok = self.served.iter().filter(|r| r.slo_ok(slo)).count();
        Goodput {
            served: self.served.len(),
            ok,
            horizon_s,
        }
    }
}

/// Fill `active[k − 1]` with the count of requests active in decode step
/// `k`, for a batch with the given output lengths: walks `k = 1..=max`
/// with a sorted pointer instead of re-scanning members (O(b log b + max)).
fn decode_schedule(outputs: &mut [u32], active: &mut Vec<u32>) {
    outputs.sort_unstable();
    let max = *outputs.last().expect("non-empty batch") as usize;
    active.clear();
    active.reserve(max);
    let mut alive = outputs.len() as u32;
    let mut ptr = 0usize;
    for k in 1..=max as u32 {
        active.push(alive);
        while ptr < outputs.len() && outputs[ptr] == k {
            ptr += 1;
            alive -= 1;
        }
    }
}

/// Both token simulators index decode schedules by `output_tokens − 1`
/// and count a request's first step, so a zero count is a caller bug:
/// [`TokenSpec::new`] and the [`TokenizedTrace`] samplers cannot produce
/// one.
fn assert_positive_specs(specs: &[TokenSpec]) {
    assert!(
        specs.iter().all(|s| s.validate().is_ok()),
        "token specs must have at least one prompt and one output token"
    );
}

/// The paper's clairvoyant window batching, re-costed with the two-phase
/// token model.
///
/// Window formation (open on first arrival, dispatch at `min(B-th
/// arrival, open + T)`, every batch on its own autoscaled instance) only
/// depends on arrivals and `(B, T)`: the admitted arrivals go through
/// `window::walk_windows`, the walk [`crate::simulate_batching`] uses. Each
/// dispatched batch then runs prefill over its summed prompt tokens
/// followed by one decode step per output token, with members leaving the
/// cohort as their outputs complete; the invocation bills its total
/// ms-rounded busy time.
///
/// Admission: a request whose own KV footprint (`prompt + output`
/// tokens) exceeds the function's capacity is rejected up front.
/// Batch-level KV pressure is not modelled here — every window batch is
/// its own instance (see [`simulate_tokens_continuous`] for resident-set
/// admission).
pub fn simulate_tokens_windowed(
    arrivals: &[f64],
    specs: &[TokenSpec],
    cfg: &LambdaConfig,
    params: &TokenParams,
) -> TokenSimOutcome {
    assert_eq!(arrivals.len(), specs.len(), "one spec per arrival");
    assert_positive_specs(specs);
    cfg.validate().expect("invalid configuration");
    let capacity = params.capacity_tokens(cfg.memory_mb);

    // Admission: oversize requests can never fit an instance.
    let admitted: Vec<usize> = (0..arrivals.len())
        .filter(|&i| admits(capacity, &specs[i]))
        .collect();

    let steps = StepTable::new(params, cfg, admitted.len());
    let speed = steps.speed;
    let mut served: Vec<Option<TokenRequestRecord>> = vec![None; arrivals.len()];
    let mut invocations = Vec::new();
    let mut total_cost = 0.0;
    // Per-window scratch, reused across windows.
    let (mut outputs, mut active, mut step_ends) = (Vec::new(), Vec::new(), Vec::new());

    let windowed = admitted.iter().map(|&i| (i, arrivals[i]));
    walk_windows(windowed, cfg, |fb| {
        let members = || fb.requests.iter().map(|r| r.id as usize);
        let dispatch = fb.dispatched_at;
        let prompt_sum: u64 = members().map(|i| specs[i].prompt_tokens as u64).sum();
        outputs.clear();
        outputs.extend(members().map(|i| specs[i].output_tokens));
        decode_schedule(&mut outputs, &mut active);

        let mut work = params.profile.prefill_work(prompt_sum);
        step_ends.clear();
        for &b in &active {
            work += steps.work[b as usize];
            step_ends.push(dispatch + ceil_ms(work / speed));
        }
        let busy = ceil_ms(work / speed);
        let cost = params.pricing.invocation_cost(cfg.memory_mb, busy);
        total_cost += cost;
        invocations.push(TokenInvocation {
            start: dispatch,
            busy_s: busy,
            size: fb.requests.len() as u32,
            joined: fb.requests.len() as u32,
            cost,
            engine: 0,
            anchor: fb.requests[0].id as usize,
        });
        for i in members() {
            let spec = specs[i];
            served[i] = Some(TokenRequestRecord {
                arrival: arrivals[i],
                dispatch,
                first_token: step_ends[0],
                completion: step_ends[spec.output_tokens as usize - 1],
                spec,
            });
        }
    });

    TokenSimOutcome {
        served: served.into_iter().flatten().collect(),
        rejected: arrivals.len() - admitted.len(),
        offered: arrivals.len(),
        invocations,
        total_cost,
    }
}

/// An event of the continuous discipline: the next pending arrival, or
/// the end of the running decode step on one engine.
#[derive(Clone, Copy, Debug, PartialEq)]
enum TokenEvent {
    Arrival,
    StepEnd(usize),
}

#[derive(Clone, Copy, Debug)]
struct ActiveSlot {
    /// Request index.
    idx: usize,
    /// Output tokens still to emit.
    remaining: u32,
    first_token: Option<f64>,
    dispatch: f64,
}

#[derive(Clone, Debug, Default)]
struct Engine {
    queue: VecDeque<usize>,
    active: Vec<ActiveSlot>,
    kv_used: u64,
    step_end: Option<f64>,
}

impl Engine {
    fn load(&self) -> usize {
        self.queue.len() + self.active.len()
    }
}

/// Continuous-batching state machine over a fixed fleet of engine
/// replicas: the state behind [`simulate_tokens_continuous`], which
/// documents the discipline.
struct ContinuousCore<'a> {
    arrivals: &'a [f64],
    specs: &'a [TokenSpec],
    config: LambdaConfig,
    capacity: Option<u64>,
    steps: StepTable,
    engines: Vec<Engine>,
    next_arrival: usize,
    served: Vec<Option<TokenRequestRecord>>,
    invocations: Vec<TokenInvocation>,
    rejected: usize,
    total_cost: f64,
}

impl<'a> ContinuousCore<'a> {
    /// `replicas` engine instances, each running `config.memory_mb` of
    /// memory with cohort bound `config.batch_size`.
    fn new(
        arrivals: &'a [f64],
        specs: &'a [TokenSpec],
        config: &LambdaConfig,
        params: &TokenParams,
        replicas: usize,
    ) -> Self {
        assert_eq!(arrivals.len(), specs.len(), "one spec per arrival");
        assert!(replicas >= 1, "at least one engine replica");
        assert_positive_specs(specs);
        config.validate().expect("invalid configuration");
        debug_assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "arrivals must be sorted"
        );
        ContinuousCore {
            arrivals,
            specs,
            config: *config,
            capacity: params.capacity_tokens(config.memory_mb),
            steps: StepTable::new(params, config, arrivals.len()),
            engines: vec![Engine::default(); replicas],
            next_arrival: 0,
            served: vec![None; arrivals.len()],
            invocations: Vec::new(),
            rejected: 0,
            total_cost: 0.0,
        }
    }

    /// The canonical next event: the earliest of the pending arrival and
    /// every engine's running step end. Arrivals win ties (they were
    /// scheduled first), engines tie-break by ascending id. `None` once
    /// everything drained.
    fn next_event(&self) -> Option<(f64, TokenEvent)> {
        let mut best: Option<(f64, TokenEvent)> = self
            .arrivals
            .get(self.next_arrival)
            .map(|&t| (t, TokenEvent::Arrival));
        for (e, eng) in self.engines.iter().enumerate() {
            if let Some(end) = eng.step_end {
                // Strict < keeps arrival-first and lowest-id tie-breaks.
                if best.is_none_or(|(t, _)| end < t) {
                    best = Some((end, TokenEvent::StepEnd(e)));
                }
            }
        }
        best
    }

    fn on_arrival(&mut self, t: f64) {
        let i = self.next_arrival;
        self.next_arrival += 1;
        if !admits(self.capacity, &self.specs[i]) {
            self.rejected += 1;
            return;
        }
        // Least-loaded replica, lowest id on ties.
        let e = self
            .engines
            .iter()
            .enumerate()
            .min_by_key(|(id, eng)| (eng.load(), *id))
            .map(|(id, _)| id)
            .expect("at least one engine");
        self.engines[e].queue.push_back(i);
        if self.engines[e].step_end.is_none() {
            self.begin_step(e, t);
        }
    }

    fn begin_step(&mut self, e: usize, t: f64) {
        let (mut joined, mut joiner_prompts) = (0u32, 0u64);
        {
            let eng = &mut self.engines[e];
            while eng.active.len() < self.config.batch_size as usize {
                let Some(&i) = eng.queue.front() else { break };
                let need = self.specs[i].total_tokens();
                if self.capacity.is_some_and(|c| eng.kv_used + need > c) {
                    break;
                }
                eng.queue.pop_front();
                eng.kv_used += need;
                eng.active.push(ActiveSlot {
                    idx: i,
                    remaining: self.specs[i].output_tokens,
                    first_token: None,
                    dispatch: t,
                });
                joined += 1;
                joiner_prompts += self.specs[i].prompt_tokens as u64;
            }
            if eng.active.is_empty() {
                eng.step_end = None;
                return;
            }
        }
        let cohort = self.engines[e].active.len();
        let (dur, cost) = self.steps.step(cohort, joined, joiner_prompts);
        self.total_cost += cost;
        self.invocations.push(TokenInvocation {
            start: t,
            busy_s: dur,
            size: cohort as u32,
            joined,
            cost,
            engine: e as u32,
            anchor: self.engines[e].active[0].idx,
        });
        self.engines[e].step_end = Some(t + dur);
    }

    fn on_step_end(&mut self, e: usize, t: f64) {
        let (arrivals, specs) = (self.arrivals, self.specs);
        let eng = &mut self.engines[e];
        debug_assert_eq!(eng.step_end, Some(t));
        eng.step_end = None;
        // In place, keeping member order: the next step's anchor is the
        // cohort's longest-resident member.
        eng.active.retain_mut(|slot| {
            let first_token = *slot.first_token.get_or_insert(t);
            slot.remaining -= 1;
            if slot.remaining > 0 {
                return true;
            }
            let i = slot.idx;
            eng.kv_used -= specs[i].total_tokens();
            self.served[i] = Some(TokenRequestRecord {
                arrival: arrivals[i],
                dispatch: slot.dispatch,
                first_token,
                completion: t,
                spec: specs[i],
            });
            false
        });
        self.begin_step(e, t);
    }

    /// Drain every event in canonical order.
    fn run_to_completion(&mut self) {
        while let Some((t, ev)) = self.next_event() {
            match ev {
                TokenEvent::Arrival => self.on_arrival(t),
                TokenEvent::StepEnd(e) => self.on_step_end(e, t),
            }
        }
    }

    fn into_outcome(self) -> TokenSimOutcome {
        debug_assert!(
            self.next_arrival == self.arrivals.len() && self.engines.iter().all(|e| e.load() == 0),
            "outcome taken before the core drained"
        );
        TokenSimOutcome {
            served: self.served.into_iter().flatten().collect(),
            rejected: self.rejected,
            offered: self.arrivals.len(),
            invocations: self.invocations,
            total_cost: self.total_cost,
        }
    }
}

/// Continuous batching over `replicas` engine instances, each running
/// `cfg.memory_mb` of memory with cohort bound `cfg.batch_size`. Events
/// run in one canonical order — the earliest of the pending arrival and
/// every engine's step end; arrivals win ties, engines tie-break by id.
///
/// Discipline per engine:
/// * an arriving request routes to the least-loaded replica (lowest id
///   on ties) and is rejected only when its own KV footprint exceeds
///   the replica's capacity;
/// * at every step boundary the engine admits queued requests (FIFO)
///   while the cohort is below `B` and the KV cache has room;
/// * a step's work is prefill over the joiners' summed prompts (skipped
///   when nobody joined) plus one decode unit over the cohort;
/// * every step is dispatched as one invocation of the step's
///   ms-rounded duration — [`crate::simulate_batching`]'s cost accounting
///   in the degenerate case;
/// * members leave as their outputs complete, releasing KV room.
///
/// `cfg.timeout_s` is not consulted: continuous batching has no
/// windows to time out.
pub fn simulate_tokens_continuous(
    arrivals: &[f64],
    specs: &[TokenSpec],
    cfg: &LambdaConfig,
    params: &TokenParams,
    replicas: usize,
) -> TokenSimOutcome {
    let mut core = ContinuousCore::new(arrivals, specs, cfg, params, replicas);
    core.run_to_completion();
    core.into_outcome()
}

/// Record causal trace events for a settled token run over `specs`,
/// reading only the outcome's stamps: Admit/Enqueue at arrival, Dispatch
/// at service entry, one [`TraceStage::DecodeStep`] per invocation
/// (anchored on its first active request, sized with the cohort),
/// Complete at the last token. Every id is `next.0` plus the request's
/// offered index, the index an invocation's anchor holds; `next` advances
/// past the run even while the tracer is off.
fn record_token_trace(
    tracer: &Tracer,
    out: &TokenSimOutcome,
    (specs, params, config): (&[TokenSpec], &TokenParams, &LambdaConfig),
    next: &mut (u64, u64),
) {
    let (req_offset, inv_offset) = *next;
    *next = (
        req_offset + out.offered as u64,
        inv_offset + out.invocations.len() as u64,
    );
    if !tracer.is_active() {
        return;
    }
    let cfg = TraceConfig {
        memory_mb: config.memory_mb,
        batch_size: config.batch_size,
        timeout_s: config.timeout_s,
        group: 0,
    };
    let mut events = Vec::with_capacity(out.invocations.len() + 4 * out.served.len());
    for (k, inv) in out.invocations.iter().enumerate() {
        events.push(
            TraceEvent::new(
                TraceId(req_offset + inv.anchor as u64),
                TraceStage::DecodeStep,
                inv.start,
            )
            .with_span(dbat_telemetry::SpanId(inv_offset + k as u64))
            .with_config(cfg)
            .with_size(inv.size)
            .with_lane(inv.engine),
        );
    }
    // The served records are the admitted requests in offered order.
    let capacity = params.capacity_tokens(config.memory_mb);
    let offered = (0..specs.len()).filter(|&i| admits(capacity, &specs[i]));
    debug_assert_eq!(out.offered, specs.len());
    for (i, r) in offered.zip(&out.served) {
        let id = TraceId(req_offset + i as u64);
        events.push(TraceEvent::new(id, TraceStage::Admit, r.arrival));
        events.push(TraceEvent::new(id, TraceStage::Enqueue, r.arrival));
        events.push(TraceEvent::new(id, TraceStage::Dispatch, r.dispatch).with_config(cfg));
        events.push(TraceEvent::new(id, TraceStage::Complete, r.completion));
    }
    tracer.record_many(&events);
}

/// Drive any [`Controller`] over a tokenized trace with the windowed
/// token discipline — the same interval cycle and publishing to
/// `opts.telemetry` as [`crate::run_controller`], each interval measured by
/// [`simulate_tokens_windowed`] — with goodput accumulated across the run
/// and reported in [`RunOutcome::goodput`]. Its horizon is every decided
/// interval's span, silent intervals included, so `rps` is over `t1 − t0`.
///
/// The fault layer does not compose with the token model yet, so
/// `opts.faults` must be inert; `opts.slo`/`opts.percentile` keep their
/// e2e meaning for the violation flag, while `slo` carries the token
/// targets.
pub fn run_controller_tokens<C: Controller + ?Sized>(
    ctl: &mut C,
    tokenized: &TokenizedTrace,
    t0: f64,
    t1: f64,
    opts: &SimConfig,
    params: &TokenParams,
    slo: &TokenSlo,
) -> RunOutcome {
    assert!(
        opts.faults.is_inert(),
        "fault injection does not compose with the token model yet"
    );
    let trace = tokenized.trace();
    let mut goodput = Goodput::default();
    let mut trace_ids = (0, 0);
    let feedback = drive_intervals(ctl, trace, t0, t1, opts, |ctx, config| {
        let (lo, hi) = tokenized.index_range(ctx.start, ctx.end.min(trace.horizon()));
        if lo == hi {
            goodput.horizon_s += ctx.end - ctx.start;
            return None;
        }
        let t_wall = std::time::Instant::now();
        let specs = &tokenized.specs()[lo..hi];
        let out = simulate_tokens_windowed(&tokenized.arrivals()[lo..hi], specs, config, params);
        debug_assert!(out.conserved());
        goodput.absorb(&out.goodput(slo, ctx.end - ctx.start));
        let m = IntervalMeasurement::new(
            (ctx.start, ctx.end),
            *config,
            out.summary(),
            out.cost_per_request(),
            out.offered,
            (opts.slo, opts.percentile),
            t_wall.elapsed().as_secs_f64(),
        );
        publish_tokens(&opts.telemetry, &out, config);
        let tracer = opts.telemetry.tracer();
        record_token_trace(tracer, &out, (specs, params, config), &mut trace_ids);
        Some(m.with_losses(0, 0, out.rejected))
    });
    RunOutcome {
        measurements: feedback.measurements,
        records: feedback.records,
        counts: FaultCounts::default(),
        goodput: Some(goodput),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batching::{simulate_batching, SimParams};
    use dbat_workload::{LognormalTokens, TokenMix, Trace, TraceKind};

    fn azure_slice(n_target: usize) -> Trace {
        let tr = TraceKind::AzureLike.generate_for(11, 400.0);
        // Keep tests fast: cap the request count.
        let ts: Vec<f64> = tr.timestamps().iter().copied().take(n_target).collect();
        let horizon = ts.last().copied().unwrap_or(0.0) + 1.0;
        Trace::new(ts, horizon)
    }

    fn chat_tokens(trace: &Trace) -> TokenizedTrace {
        TokenizedTrace::sample(
            trace.clone(),
            &TokenMix::Lognormal(LognormalTokens::chat()),
            42,
        )
    }

    #[test]
    fn windowed_degenerate_reduces_to_simulate_batching_bitwise() {
        let trace = azure_slice(600);
        let tt = TokenizedTrace::degenerate(trace.clone());
        let base_params = SimParams::default();
        let tparams = TokenParams::unconstrained(TokenProfile::degenerate(&base_params.profile));
        for cfg in [
            LambdaConfig::new(1792, 8, 0.1),
            LambdaConfig::new(3008, 32, 0.25),
            LambdaConfig::new(1024, 1, 0.0),
        ] {
            let tok = simulate_tokens_windowed(tt.arrivals(), tt.specs(), &cfg, &tparams);
            let base = simulate_batching(tt.arrivals(), &cfg, &base_params, None);
            assert!(tok.conserved());
            assert_eq!(tok.rejected, 0);
            assert_eq!(tok.served.len(), base.requests.len());
            for (t, b) in tok.served.iter().zip(&base.requests) {
                assert_eq!(t.dispatch.to_bits(), b.dispatch.to_bits());
                assert_eq!(t.completion.to_bits(), b.completion.to_bits());
                assert_eq!(t.first_token.to_bits(), b.completion.to_bits());
            }
            assert_eq!(tok.invocations.len(), base.batches.len());
            for (t, b) in tok.invocations.iter().zip(&base.batches) {
                assert_eq!(t.size, b.size);
                assert_eq!(t.busy_s.to_bits(), b.service_s.to_bits());
                assert_eq!(t.cost.to_bits(), b.cost.to_bits());
            }
            assert_eq!(tok.total_cost.to_bits(), base.total_cost.to_bits());
        }
    }

    #[test]
    fn continuous_degenerate_sparse_reduces_to_simulate_batching_bitwise() {
        // Arrivals spaced far beyond any step time: each request runs
        // alone, so the continuous engine's invocation stream must be
        // the base simulator's (B = 1, T = 0) dispatch stream.
        let arrivals: Vec<f64> = (0..40).map(|i| i as f64 * 0.5).collect();
        let tt = TokenizedTrace::degenerate(Trace::new(arrivals.clone(), 25.0));
        let base_params = SimParams::default();
        let tparams = TokenParams::unconstrained(TokenProfile::degenerate(&base_params.profile));
        let cfg = LambdaConfig::new(2048, 1, 0.0);
        let tok = simulate_tokens_continuous(tt.arrivals(), tt.specs(), &cfg, &tparams, 1);
        let base = simulate_batching(&arrivals, &cfg, &base_params, None);
        assert!(tok.conserved());
        assert_eq!(tok.invocations.len(), base.batches.len());
        for (t, b) in tok.invocations.iter().zip(&base.batches) {
            assert_eq!(t.size, b.size);
            assert_eq!(t.busy_s.to_bits(), b.service_s.to_bits());
            assert_eq!(t.cost.to_bits(), b.cost.to_bits());
        }
        for (t, b) in tok.served.iter().zip(&base.requests) {
            assert_eq!(t.dispatch.to_bits(), b.dispatch.to_bits());
            assert_eq!(t.completion.to_bits(), b.completion.to_bits());
        }
        assert_eq!(tok.total_cost.to_bits(), base.total_cost.to_bits());
    }

    #[test]
    fn continuous_degenerate_dense_bills_each_step_like_a_batch() {
        // Dense arrivals: steps carry multi-request cohorts. Every step
        // must bill exactly what `simulate_batching` would bill a batch
        // of the same size — the cost-accounting reduction.
        let trace = azure_slice(500);
        let tt = TokenizedTrace::degenerate(trace);
        let base_params = SimParams::default();
        let tparams = TokenParams::unconstrained(TokenProfile::degenerate(&base_params.profile));
        let cfg = LambdaConfig::new(2560, 16, 0.1);
        let tok = simulate_tokens_continuous(tt.arrivals(), tt.specs(), &cfg, &tparams, 1);
        assert!(tok.conserved());
        assert_eq!(tok.rejected, 0);
        let mut refold = 0.0;
        for inv in &tok.invocations {
            let service = base_params.profile.service_time(cfg.memory_mb, inv.size);
            let cost = base_params.pricing.invocation_cost(cfg.memory_mb, service);
            assert_eq!(inv.busy_s.to_bits(), service.to_bits());
            assert_eq!(inv.cost.to_bits(), cost.to_bits());
            refold += cost;
        }
        assert_eq!(tok.total_cost.to_bits(), refold.to_bits());
    }

    #[test]
    fn continuous_is_deterministic_and_conserves() {
        let trace = azure_slice(800);
        let tt = chat_tokens(&trace);
        let cfg = LambdaConfig::new(3008, 16, 0.1);
        let params = TokenParams::llm_like();
        let a = simulate_tokens_continuous(tt.arrivals(), tt.specs(), &cfg, &params, 4);
        let b = simulate_tokens_continuous(tt.arrivals(), tt.specs(), &cfg, &params, 4);
        assert!(a.conserved());
        assert_eq!(a.served.len(), b.served.len());
        assert_eq!(a.invocations.len(), b.invocations.len());
        assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits());
        for (x, y) in a.served.iter().zip(&b.served) {
            assert_eq!(x.completion.to_bits(), y.completion.to_bits());
            assert_eq!(x.first_token.to_bits(), y.first_token.to_bits());
        }
    }

    #[test]
    fn kv_capacity_rejects_oversize_and_bounds_residency() {
        // Tiny capacity: 640 MB minus 512 MB of weights at 0.5 MiB per
        // token leaves room for 256 resident tokens.
        let mut params = TokenParams::llm_like();
        params.model_mb = 512;
        let cfg = LambdaConfig::new(640, 8, 0.1);
        let cap = params.capacity_tokens(cfg.memory_mb).unwrap();
        assert_eq!(cap, 256);
        let arrivals: Vec<f64> = (0..20).map(|i| i as f64 * 0.01).collect();
        let mut specs = vec![TokenSpec::new(100, 20); 19];
        specs.push(TokenSpec::new(400, 20)); // 420 > 256: oversize
        let out = simulate_tokens_continuous(&arrivals, &specs, &cfg, &params, 1);
        assert!(out.conserved());
        assert_eq!(out.rejected, 1);
        assert_eq!(out.served.len(), 19);
        // No step cohort ever exceeded the KV room (120 tokens each).
        assert!(out
            .invocations
            .iter()
            .all(|inv| inv.size as u64 * 120 <= cap));
        // Windowed admission rejects the same oversize request.
        let w = simulate_tokens_windowed(&arrivals, &specs, &cfg, &params);
        assert!(w.conserved());
        assert_eq!(w.rejected, 1);
    }

    /// A spec built around `TokenSpec::new` (public fields, `Deserialize`).
    fn zero_output() -> Vec<TokenSpec> {
        vec![TokenSpec {
            prompt_tokens: 8,
            output_tokens: 0,
        }]
    }

    #[test]
    #[should_panic(expected = "at least one prompt and one output token")]
    fn windowed_rejects_a_zero_output_spec_at_entry() {
        let params = TokenParams::llm_like();
        simulate_tokens_windowed(
            &[0.0],
            &zero_output(),
            &LambdaConfig::new(2048, 4, 0.05),
            &params,
        );
    }

    #[test]
    #[should_panic(expected = "at least one prompt and one output token")]
    fn continuous_rejects_a_zero_output_spec_at_entry() {
        let params = TokenParams::llm_like();
        simulate_tokens_continuous(
            &[0.0],
            &zero_output(),
            &LambdaConfig::new(2048, 4, 0.05),
            &params,
            1,
        );
    }

    #[test]
    fn continuous_joins_at_step_boundaries() {
        // Second request arrives mid-step: it must wait for the boundary,
        // then join the running batch (cohort of 2 on the next step).
        let params = TokenParams::unconstrained(TokenProfile::llm_like());
        let cfg = LambdaConfig::new(1792, 8, 0.1);
        let arrivals = vec![0.0, 0.001];
        let specs = vec![TokenSpec::new(64, 3), TokenSpec::new(64, 3)];
        let out = simulate_tokens_continuous(&arrivals, &specs, &cfg, &params, 1);
        assert!(out.conserved());
        assert_eq!(out.served.len(), 2);
        let first_step_end = out.invocations[0].start + out.invocations[0].busy_s;
        assert_eq!(out.invocations[0].size, 1);
        assert_eq!(out.invocations[1].size, 2);
        assert_eq!(out.served[1].dispatch.to_bits(), first_step_end.to_bits());
        // The joiner's first token lands at the end of its first step.
        assert!(out.served[1].first_token > out.served[1].dispatch);
        // TTFT/TPOT are well-formed.
        for r in &out.served {
            assert!(r.ttft() > 0.0);
            assert!(r.tpot() > 0.0);
        }
    }

    #[test]
    fn replicas_spread_load_and_improve_ttft() {
        let trace = azure_slice(600);
        let tt = TokenizedTrace::sample(
            trace.clone(),
            &TokenMix::Lognormal(LognormalTokens::long_decode()),
            7,
        );
        let cfg = LambdaConfig::new(3008, 16, 0.1);
        let params = TokenParams::llm_like();
        let one = simulate_tokens_continuous(tt.arrivals(), tt.specs(), &cfg, &params, 1);
        let many = simulate_tokens_continuous(tt.arrivals(), tt.specs(), &cfg, &params, 8);
        assert!(one.conserved() && many.conserved());
        let slo = TokenSlo::new(0.3, 0.05);
        let g1 = one.goodput(&slo, trace.horizon());
        let g8 = many.goodput(&slo, trace.horizon());
        assert!(
            g8.ok >= g1.ok,
            "more replicas cannot hurt goodput here: {g1:?} vs {g8:?}"
        );
        assert!(many.invocations.iter().any(|i| i.engine > 0));
    }

    #[test]
    fn goodput_counts_token_slos() {
        let r = TokenRequestRecord {
            arrival: 0.0,
            dispatch: 0.1,
            first_token: 0.2,
            completion: 1.2,
            spec: TokenSpec::new(10, 11),
        };
        assert!((r.ttft() - 0.2).abs() < 1e-12);
        assert!((r.tpot() - 0.1).abs() < 1e-12);
        assert!(r.slo_ok(&TokenSlo::new(0.25, 0.15)));
        assert!(!r.slo_ok(&TokenSlo::new(0.25, 0.05)));
        let mut g = Goodput {
            served: 10,
            ok: 5,
            horizon_s: 10.0,
        };
        g.absorb(&Goodput {
            served: 10,
            ok: 10,
            horizon_s: 5.0,
        });
        assert_eq!(g.served, 20);
        assert!((g.rps() - 1.0).abs() < 1e-12);
        assert!((g.attainment_pct() - 75.0).abs() < 1e-12);
    }

    #[test]
    fn run_controller_tokens_reports_goodput() {
        use crate::controller::StaticController;
        let trace = azure_slice(800);
        let horizon = trace.horizon();
        let tt = chat_tokens(&trace);
        let mut ctl = StaticController::new(LambdaConfig::new(3008, 8, 0.05), 2.0);
        let opts = SimConfig::builder()
            .slo(2.0)
            .decision_interval(60.0)
            .build()
            .unwrap();
        let out = run_controller_tokens(
            &mut ctl,
            &tt,
            0.0,
            horizon,
            &opts,
            &TokenParams::llm_like(),
            &TokenSlo::new(0.5, 0.05),
        );
        let g = out.goodput.expect("token runs report goodput");
        assert_eq!(g.served, tt.len());
        assert!(g.ok > 0);
        assert!(!out.measurements.is_empty());
        assert_eq!(out.records.len(), out.measurements.len());
    }

    #[test]
    fn goodput_horizon_counts_silent_intervals() {
        use crate::controller::StaticController;
        // Arrivals in the first and the fourth minute only: minutes two and
        // three are decided but have nothing to measure.
        let ts = (1..=40).chain(181..=220).map(f64::from).collect();
        let tt = chat_tokens(&Trace::new(ts, 240.0));
        let mut ctl = StaticController::new(LambdaConfig::new(3008, 8, 0.05), 2.0);
        let opts = SimConfig::builder()
            .slo(2.0)
            .decision_interval(60.0)
            .build()
            .unwrap();
        let (t0, t1) = (0.0, 240.0);
        let out = run_controller_tokens(
            &mut ctl,
            &tt,
            t0,
            t1,
            &opts,
            &TokenParams::llm_like(),
            &TokenSlo::new(0.5, 0.05),
        );
        assert_eq!(out.records.len(), 4);
        assert_eq!(out.measurements.len(), 2);
        let g = out.goodput.expect("token runs report goodput");
        assert_eq!(g.horizon_s, t1 - t0);
        assert_eq!(g.rps(), g.ok as f64 / 240.0);
    }

    /// Generated continuous-batching cases: a token mix, cohort bound,
    /// fleet size and memory (640 and 1 024 MB are KV-bound) over sorted
    /// arrivals with repeated stamps.
    mod generated {
        use super::*;
        use proptest::prelude::*;

        fn case() -> impl Strategy<Value = (TokenizedTrace, LambdaConfig, usize)> {
            let mix = prop::sample::select(vec![
                LognormalTokens::chat(),
                LognormalTokens::summarize(),
                LognormalTokens::long_decode(),
            ]);
            // One in four gaps is zero.
            let gap = (0u32..4, 0.0f64..0.05).prop_map(|(k, g)| if k == 0 { 0.0 } else { g });
            let memory = prop::sample::select(vec![640u32, 1024, 2048, 3008]);
            (
                (mix, 0u64..1000),
                prop::collection::vec(gap, 1..200),
                memory,
                1u32..=32,
                1usize..=16,
            )
                .prop_map(|((mix, seed), gaps, memory_mb, b, replicas)| {
                    let mut t = 0.0;
                    let arrivals: Vec<f64> = gaps
                        .iter()
                        .map(|g| {
                            t += g;
                            t
                        })
                        .collect();
                    let trace = Trace::new(arrivals, t + 1.0);
                    let tt = TokenizedTrace::sample(trace, &TokenMix::Lognormal(mix), seed);
                    (tt, LambdaConfig::new(memory_mb, b, 0.05), replicas)
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn continuous_engine_invariants(drawn in case()) {
                let (tt, cfg, replicas) = drawn;
                let params = TokenParams::llm_like();
                let run = || {
                    simulate_tokens_continuous(tt.arrivals(), tt.specs(), &cfg, &params, replicas)
                };
                let out = run();
                prop_assert!(out.conserved());
                prop_assert_eq!(out.offered, tt.len());

                let again = run();
                prop_assert_eq!(&again.served, &out.served);
                prop_assert_eq!(&again.invocations, &out.invocations);
                prop_assert_eq!(again.rejected, out.rejected);
                prop_assert_eq!(again.total_cost.to_bits(), out.total_cost.to_bits());

                let mut last: Vec<Option<&TokenInvocation>> = vec![None; replicas];
                let mut cost = 0.0;
                for inv in &out.invocations {
                    prop_assert!(inv.size <= cfg.batch_size && inv.joined <= inv.size);
                    if let Some(prev) = last[inv.engine as usize] {
                        let end = prev.start + prev.busy_s;
                        prop_assert!(inv.start > prev.start);
                        prop_assert!(
                            inv.start == end
                                || (inv.start > end && tt.arrivals().contains(&inv.start)),
                            "engine {} restarts at {} after a step ending at {}",
                            inv.engine,
                            inv.start,
                            end
                        );
                    }
                    last[inv.engine as usize] = Some(inv);
                    cost += inv.cost;
                }
                prop_assert_eq!(out.total_cost.to_bits(), cost.to_bits());

                for r in &out.served {
                    prop_assert!(
                        r.arrival <= r.dispatch
                            && r.dispatch < r.first_token
                            && r.first_token <= r.completion,
                        "{:?}",
                        r
                    );
                }
            }
        }
    }

    /// Causal trace ids of the token-aware closed loop: every request's
    /// events carry its offered index, so a decode step's anchor joins the
    /// request it names even after a KV rejection.
    #[test]
    fn trace_ids_are_offered_indices_after_a_kv_rejection() {
        use crate::controller::StaticController;
        use std::collections::BTreeMap;
        // 640 MB less 512 MB of weights at 0.5 MiB per token: 256 resident
        // tokens, so about a third of chat-sized requests are rejected.
        let (config, capacity_tokens) = (LambdaConfig::new(640, 8, 0.05), 256);
        let (interval_s, intervals) = (10.0, 3);
        let chat = TokenMix::Lognormal(LognormalTokens::chat());
        let tokenized =
            TokenizedTrace::sample(TraceKind::AzureLike.generate_for(3, 600.0), &chat, 8);
        let (arrivals, specs) = (tokenized.arrivals(), tokenized.specs());
        let params = TokenParams::llm_like();
        let fits = |i: usize| specs[i].total_tokens() <= capacity_tokens;

        // The run starts on an oversize request, so its first interval does.
        let first = (1..arrivals.len())
            .find(|&i| !fits(i) && arrivals[i - 1] < arrivals[i])
            .expect("an oversize request");
        let t0 = arrivals[first];
        let t1 = t0 + intervals as f64 * interval_s;
        let opts = SimConfig::builder().slo(2.0).decision_interval(interval_s);
        let opts = opts.build().unwrap();
        opts.telemetry.tracer().enable_capture();
        let mut ctl = StaticController::new(config, 2.0);
        let slo = TokenSlo::new(0.5, 0.05);
        let out = run_controller_tokens(&mut ctl, &tokenized, t0, t1, &opts, &params, &slo);
        let events = opts.telemetry.tracer().drain();
        assert_eq!(out.measurements.len(), intervals);
        assert!(out.measurements.iter().all(|m| m.lost > 0));

        // Every admitted request's arrival and completion, keyed by its
        // offered index counted from `t0` (the ids the closed loop hands
        // out); rejected requests have no events at all.
        let (mut admit, mut complete) = (BTreeMap::new(), BTreeMap::new());
        for k in 0..intervals {
            let start = t0 + k as f64 * interval_s;
            let (lo, hi) = tokenized.index_range(start, start + interval_s);
            let sim = simulate_tokens_windowed(&arrivals[lo..hi], &specs[lo..hi], &config, &params);
            for (i, r) in (lo..hi).filter(|&i| fits(i)).zip(&sim.served) {
                admit.insert((i - first) as u64, arrivals[i].to_bits());
                complete.insert((i - first) as u64, r.completion.to_bits());
            }
        }
        let of = |stage| {
            events
                .iter()
                .filter(move |e: &&TraceEvent| e.stage == stage)
        };
        let stamps = |stage| {
            of(stage)
                .map(|e| (e.trace.0, e.t.to_bits()))
                .collect::<BTreeMap<_, _>>()
        };
        for (stage, want) in [
            (TraceStage::Admit, &admit),
            (TraceStage::Complete, &complete),
        ] {
            assert_eq!(
                of(stage).count(),
                want.len(),
                "one {stage:?} per admitted request"
            );
            assert_eq!(&stamps(stage), want, "{stage:?} stamps by id");
        }
        let mut steps = of(TraceStage::DecodeStep).peekable();
        assert!(steps.peek().is_some());
        for step in steps {
            let id = step.trace.0;
            let (a, c) = (f64::from_bits(admit[&id]), f64::from_bits(complete[&id]));
            assert!(
                a <= step.t && step.t < c,
                "decode step at {} outside id {id}",
                step.t
            );
        }
    }
}
