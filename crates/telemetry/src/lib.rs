//! # dbat-telemetry
//!
//! Structured observability for the DeepBAT workspace: lock-cheap metric
//! primitives (counters, gauges, streaming histograms), structured events
//! with pluggable sinks, and leveled stderr logging.
//!
//! ## Design
//!
//! A single process-wide [`Telemetry`] handle (see [`global`]) starts
//! **disabled**. In that state every instrumentation call is a single
//! relaxed atomic load followed by an early return — cheap enough to leave
//! in simulator hot loops. Binaries that want observability call
//! [`Telemetry::enable`] (or [`init_from_env`]) once at startup, attach
//! sinks, and read metrics or drain events at the end of the run.
//!
//! Metrics are identified by dotted string names (`"sim.batch_size"`,
//! `"controller.infer_s"`). Handles are `Arc`s: hot paths resolve a handle
//! once and then update it without touching the registry lock again.
//!
//! ## Example
//!
//! ```
//! use dbat_telemetry::{global, MemorySink};
//! use std::sync::Arc;
//!
//! let t = global();
//! let sink = Arc::new(MemorySink::new());
//! t.enable();
//! t.add_sink(sink.clone());
//!
//! t.counter("demo.events").inc();
//! t.histogram("demo.latency").record(0.012);
//! t.emit("demo.done", serde_json::json!({"ok": true}));
//!
//! assert_eq!(t.counter("demo.events").get(), 1);
//! assert_eq!(sink.events_of_kind("demo.done").len(), 1);
//! # t.disable();
//! # t.clear_sinks();
//! # t.reset_metrics();
//! ```

pub mod export;
pub mod log;
pub mod metrics;
pub mod sink;
pub mod slo;
pub mod trace;

pub use export::{sanitize_metric_name, MetricsExporter};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, TRACKED_PERCENTILES};
// Re-export so downstream binaries can build event payloads without adding
// their own serde_json dependency.
pub use serde_json;
pub use sink::{read_jsonl, Event, JsonlSink, MemorySink, Sink};
pub use slo::{BurnRate, BurnRateConfig};
pub use trace::{FlushKind, SpanId, TraceConfig, TraceEvent, TraceId, TraceStage, Tracer};

use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Process-wide telemetry hub: a metric registry plus a list of event
/// sinks, all behind an enabled/disabled switch.
pub struct Telemetry {
    enabled: AtomicBool,
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    sinks: Mutex<Vec<Arc<dyn Sink>>>,
    tracer: Tracer,
}

// `GatewayConfig` derives Debug and carries an `Arc<Telemetry>`; the hub
// itself summarizes rather than dumping registries.
impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .field("counters", &self.counters.read().unwrap().len())
            .field("gauges", &self.gauges.read().unwrap().len())
            .field("histograms", &self.histograms.read().unwrap().len())
            .field("sinks", &self.sinks.lock().unwrap().len())
            .field("tracing", &self.tracer.is_active())
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A fresh, disabled hub. Most code should use [`global`] instead;
    /// this exists for isolated tests.
    pub fn new() -> Self {
        Telemetry {
            enabled: AtomicBool::new(false),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
            sinks: Mutex::new(Vec::new()),
            tracer: Tracer::new(),
        }
    }

    /// This hub's request tracer. Disarmed (and nearly free) by default;
    /// see [`Tracer`] for the capture / flight-recorder switches.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    // ---- switch -----------------------------------------------------

    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// The no-op gate. Instrumented code checks this before doing any
    /// work; when false, instrumentation costs one relaxed load.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    // ---- metrics ----------------------------------------------------

    /// Get or create the counter with this name. Returns an owned handle;
    /// hot paths should resolve once and reuse it.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().unwrap().get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().unwrap().get(name) {
            return g.clone();
        }
        self.gauges
            .write()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().unwrap().get(name) {
            return h.clone();
        }
        self.histograms
            .write()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Resolve a counter handle only when telemetry is enabled; `None`
    /// otherwise. Lets hot paths skip registry access entirely.
    pub fn counter_if_enabled(&self, name: &str) -> Option<Arc<Counter>> {
        if self.is_enabled() {
            Some(self.counter(name))
        } else {
            None
        }
    }

    /// Zero every registered metric (registry entries survive so existing
    /// handles stay valid).
    pub fn reset_metrics(&self) {
        for c in self.counters.read().unwrap().values() {
            c.reset();
        }
        for g in self.gauges.read().unwrap().values() {
            g.set(0.0);
        }
        for h in self.histograms.read().unwrap().values() {
            h.reset();
        }
    }

    // ---- events & sinks ---------------------------------------------

    pub fn add_sink(&self, sink: Arc<dyn Sink>) {
        self.sinks.lock().unwrap().push(sink);
    }

    pub fn clear_sinks(&self) {
        let drained: Vec<_> = std::mem::take(&mut *self.sinks.lock().unwrap());
        for s in &drained {
            s.flush();
        }
    }

    /// Emit a structured event to every attached sink. No-op (and the
    /// payload expression at call sites should be cheap or guarded by
    /// [`Telemetry::is_enabled`]) when disabled.
    pub fn emit(&self, kind: &str, data: Value) {
        if !self.is_enabled() {
            return;
        }
        let event = Event::new(kind, data);
        for sink in self.sinks.lock().unwrap().iter() {
            sink.emit(&event);
        }
    }

    /// Like [`Telemetry::emit`], but stamped with an explicit timestamp
    /// (virtual seconds) instead of wall time. The serving layer routes
    /// every event through its `Clock` via this, so JSONL output under a
    /// virtual clock is deterministic and diffable across runs.
    pub fn emit_at(&self, kind: &str, ts: f64, data: Value) {
        if !self.is_enabled() {
            return;
        }
        let event = Event::with_ts(ts, kind, data);
        for sink in self.sinks.lock().unwrap().iter() {
            sink.emit(&event);
        }
    }

    pub fn flush(&self) {
        for sink in self.sinks.lock().unwrap().iter() {
            sink.flush();
        }
    }

    // ---- tracing ----------------------------------------------------

    /// Dump the flight recorder (most recent trace events) to the sinks
    /// as `trace.flight` events tagged with why the dump happened
    /// (`"degradation"`, `"drain"`, …), clearing the ring. Returns the
    /// dumped events; the post-mortem costs nothing while healthy.
    pub fn dump_flight(&self, why: &str) -> Vec<TraceEvent> {
        let events = self.tracer.take_flight();
        if self.is_enabled() && !events.is_empty() {
            for ev in &events {
                let mut data = match serde_json::to_value(ev) {
                    Value::Object(m) => m,
                    other => {
                        let mut m = serde_json::Map::new();
                        m.insert("event".to_string(), other);
                        m
                    }
                };
                data.insert("why".to_string(), Value::String(why.to_string()));
                self.emit_at("trace.flight", ev.t, Value::Object(data));
            }
            self.flush();
        }
        events
    }

    // ---- reporting --------------------------------------------------

    /// Human-readable summary of every non-empty metric, for end-of-run
    /// printing.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let counters = self.counters.read().unwrap();
        let gauges = self.gauges.read().unwrap();
        let histograms = self.histograms.read().unwrap();
        if counters.values().any(|c| c.get() > 0) {
            out.push_str("counters:\n");
            for (name, c) in counters.iter() {
                if c.get() > 0 {
                    out.push_str(&format!("  {:<32} {}\n", name, c.get()));
                }
            }
        }
        let live_gauges: Vec<_> = gauges.iter().filter(|(_, g)| g.get() != 0.0).collect();
        if !live_gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, g) in live_gauges {
                out.push_str(&format!("  {:<32} {:.6}\n", name, g.get()));
            }
        }
        if histograms.values().any(|h| h.count() > 0) {
            out.push_str("histograms:\n");
            out.push_str(&format!(
                "  {:<32} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
                "name", "count", "mean", "p50", "p95", "p99"
            ));
            for (name, h) in histograms.iter() {
                if h.count() == 0 {
                    continue;
                }
                let s = h.snapshot();
                out.push_str(&format!(
                    "  {:<32} {:>8} {:>12.6} {:>12.6} {:>12.6} {:>12.6}\n",
                    name, s.count, s.mean, s.p50, s.p95, s.p99
                ));
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }

    /// Every registered counter's `(name, value)`, in name order.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .read()
            .unwrap()
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect()
    }

    /// Every registered gauge's `(name, value)`, in name order.
    pub fn gauge_values(&self) -> Vec<(String, f64)> {
        self.gauges
            .read()
            .unwrap()
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect()
    }

    /// Every registered histogram's `(name, handle)`, in name order.
    pub fn histogram_handles(&self) -> Vec<(String, Arc<Histogram>)> {
        self.histograms
            .read()
            .unwrap()
            .iter()
            .map(|(n, h)| (n.clone(), h.clone()))
            .collect()
    }

    /// All metrics as one JSON object, e.g. for a final `metrics` event.
    pub fn metrics_json(&self) -> Value {
        let mut obj = serde_json::Map::new();
        let mut counters = serde_json::Map::new();
        for (name, c) in self.counters.read().unwrap().iter() {
            if c.get() > 0 {
                counters.insert(name.clone(), Value::Number(c.get() as f64));
            }
        }
        let mut gauges = serde_json::Map::new();
        for (name, g) in self.gauges.read().unwrap().iter() {
            if g.get() != 0.0 {
                gauges.insert(name.clone(), Value::Number(g.get()));
            }
        }
        let mut hists = serde_json::Map::new();
        for (name, h) in self.histograms.read().unwrap().iter() {
            if h.count() > 0 {
                hists.insert(name.clone(), serde_json::to_value(&h.snapshot()));
            }
        }
        obj.insert("counters".to_string(), Value::Object(counters));
        obj.insert("gauges".to_string(), Value::Object(gauges));
        obj.insert("histograms".to_string(), Value::Object(hists));
        Value::Object(obj)
    }
}

static GLOBAL: OnceLock<Arc<Telemetry>> = OnceLock::new();

/// The process-wide telemetry hub. Starts disabled; instrumented library
/// code is a no-op until a binary enables it.
pub fn global() -> &'static Telemetry {
    GLOBAL.get_or_init(|| Arc::new(Telemetry::new()))
}

/// The process-wide hub as an owned handle, for code that stores its
/// telemetry (e.g. `GatewayConfig`) so tests can inject a scoped hub
/// instead of contending on the global one.
pub fn global_arc() -> Arc<Telemetry> {
    GLOBAL.get_or_init(|| Arc::new(Telemetry::new())).clone()
}

/// Convenience startup for binaries: enable the global hub and, when
/// `jsonl_path` is given, attach a JSONL sink writing there. Returns the
/// sink so callers can flush explicitly.
///
/// The environment can veto: `DEEPBAT_TELEMETRY=0|off|false` leaves the
/// hub disabled and attaches no sink.
pub fn init_from_env(jsonl_path: Option<&std::path::Path>) -> Option<Arc<JsonlSink>> {
    if let Ok(v) = std::env::var("DEEPBAT_TELEMETRY") {
        if matches!(
            v.to_ascii_lowercase().as_str(),
            "0" | "off" | "false" | "no"
        ) {
            return None;
        }
    }
    let t = global();
    t.enable();
    match jsonl_path {
        Some(path) => match JsonlSink::create(path) {
            Ok(sink) => {
                let sink = Arc::new(sink);
                t.add_sink(sink.clone());
                Some(sink)
            }
            Err(e) => {
                log_warn!(
                    "telemetry",
                    "cannot open JSONL sink {}: {e}",
                    path.display()
                );
                None
            }
        },
        None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    // These tests use private hubs, not `global()`, so they can run in
    // parallel without crosstalk.

    #[test]
    fn disabled_hub_emits_nothing() {
        let t = Telemetry::new();
        let sink = Arc::new(MemorySink::new());
        t.add_sink(sink.clone());
        assert!(!t.is_enabled());
        t.emit("x", json!({"a": 1}));
        assert!(sink.is_empty());
        assert!(t.counter_if_enabled("c").is_none());
    }

    #[test]
    fn enabled_hub_routes_events_to_all_sinks() {
        let t = Telemetry::new();
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        t.add_sink(a.clone());
        t.add_sink(b.clone());
        t.enable();
        t.emit("k", json!({"v": 7}));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(a.events()[0].data["v"].as_u64(), Some(7));
    }

    #[test]
    fn registry_returns_same_handle() {
        let t = Telemetry::new();
        let c1 = t.counter("same");
        let c2 = t.counter("same");
        c1.inc();
        c2.inc();
        assert_eq!(t.counter("same").get(), 2);
        assert!(Arc::ptr_eq(&c1, &c2));
    }

    #[test]
    fn reset_metrics_zeroes_but_keeps_handles() {
        let t = Telemetry::new();
        let c = t.counter("n");
        c.add(5);
        t.histogram("h").record(1.0);
        t.gauge("g").set(2.0);
        t.reset_metrics();
        assert_eq!(c.get(), 0);
        assert_eq!(t.histogram("h").count(), 0);
        assert_eq!(t.gauge("g").get(), 0.0);
    }

    #[test]
    fn summary_table_lists_live_metrics() {
        let t = Telemetry::new();
        assert!(t.summary_table().contains("no metrics"));
        t.counter("sim.events").add(3);
        t.histogram("sim.batch_size").record(4.0);
        let table = t.summary_table();
        assert!(table.contains("sim.events"));
        assert!(table.contains("sim.batch_size"));
    }

    #[test]
    fn metrics_json_shape() {
        let t = Telemetry::new();
        t.counter("c").add(2);
        t.gauge("g").set(1.5);
        t.histogram("h").record(0.5);
        let v = t.metrics_json();
        assert_eq!(v["counters"]["c"].as_u64(), Some(2));
        assert_eq!(v["gauges"]["g"].as_f64(), Some(1.5));
        assert_eq!(v["histograms"]["h"]["count"].as_u64(), Some(1));
    }

    #[test]
    fn counters_correct_under_parallel_updates() {
        use rayon::prelude::*;
        let t = Telemetry::new();
        t.enable();
        let c = t.counter("par.events");
        let h = t.histogram("par.values");
        let items: Vec<u64> = (0..10_000).collect();
        items.par_iter().for_each(|&i| {
            c.inc();
            h.record(1e-3 * (1.0 + (i % 100) as f64));
        });
        assert_eq!(c.get(), 10_000);
        assert_eq!(h.count(), 10_000);
        let expected_sum: f64 = items.iter().map(|&i| 1e-3 * (1.0 + (i % 100) as f64)).sum();
        assert!((h.sum() - expected_sum).abs() / expected_sum < 1e-9);
    }
}
