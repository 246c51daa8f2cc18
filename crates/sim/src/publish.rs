//! What a closed-loop driver publishes to the hub it was handed. Simulators
//! and controllers touch no hub; they return what they saw, and the drivers
//! publish it here, so a run's metrics land in its own hub only.

use crate::config::LambdaConfig;
use crate::controller::DecisionRecord;
use crate::faults::FaultSimOutcome;
use crate::tokens::TokenSimOutcome;
use dbat_telemetry::Telemetry;

/// Publish one decision of any policy: the `controller.{decisions,
/// fallbacks}` counters and the `controller.{decide_s, infer_s, encode_s,
/// score_s}` histograms, where `score_s = infer_s − encode_s`.
pub fn publish_decision(hub: &Telemetry, rec: &DecisionRecord) {
    if !hub.is_enabled() {
        return;
    }
    hub.counter("controller.decisions").inc();
    hub.counter("controller.fallbacks").add(rec.fallback as u64);
    for (name, s) in [
        ("controller.decide_s", rec.decide_s),
        ("controller.infer_s", rec.infer_s),
        ("controller.encode_s", rec.encode_s),
        ("controller.score_s", rec.infer_s - rec.encode_s),
    ] {
        hub.histogram(name).record(s);
    }
}

/// Publish one simulated run under `config`: its window metrics (where an
/// invocation is one attempt), one `sim.fault` event per injected fault,
/// and the `sim.fault.*` and `sim.clamped_events` counters.
pub fn publish_sim(hub: &Telemetry, out: &FaultSimOutcome, config: &LambdaConfig) {
    if !hub.is_enabled() {
        return;
    }
    let sizes = out.sim.batches.iter().map(|b| b.size);
    publish_windows(hub, out.sim.requests.len(), sizes, config.batch_size);
    for ev in &out.events {
        hub.emit("sim.fault", serde_json::to_value(ev));
    }
    let c = &out.counts;
    for (name, n) in [
        ("sim.fault.cold_starts", c.cold_starts),
        ("sim.fault.failures", c.failures),
        ("sim.fault.retries", c.retries),
        ("sim.fault.exhausted_requests", c.exhausted_requests),
        ("sim.fault.throttled", c.throttled),
        ("sim.fault.shed_requests", c.shed_requests),
        ("sim.fault.stragglers", c.stragglers),
        ("sim.clamped_events", c.clamped_events),
    ] {
        hub.counter(name).add(n as u64);
    }
}

/// Publish one windowed token run: its window metrics and `sim.tokens.rejected`.
pub(crate) fn publish_tokens(hub: &Telemetry, out: &TokenSimOutcome, config: &LambdaConfig) {
    if !hub.is_enabled() {
        return;
    }
    let sizes = out.invocations.iter().map(|inv| inv.size);
    publish_windows(hub, out.served.len(), sizes, config.batch_size);
    hub.counter("sim.tokens.rejected").add(out.rejected as u64);
}

/// `sim.events` (requests plus invocations), `sim.batch_size` and
/// `sim.flush.*`: only a capacity flush reaches `b` requests.
fn publish_windows(hub: &Telemetry, requests: usize, sizes: impl Iterator<Item = u32>, b: u32) {
    let histogram = hub.histogram("sim.batch_size");
    let (mut invocations, mut full) = (0, 0);
    for size in sizes {
        histogram.record(size as f64);
        invocations += 1;
        full += u64::from(size >= b);
    }
    hub.counter("sim.events").add(requests as u64 + invocations);
    hub.counter("sim.flush.capacity").add(full);
    hub.counter("sim.flush.timeout").add(invocations - full);
}
