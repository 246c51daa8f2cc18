//! # dbat-telemetry
//!
//! Structured observability for the DeepBAT workspace: lock-cheap metric
//! primitives (counters, gauges, streaming histograms), structured events
//! with pluggable sinks, and leveled stderr logging.
//!
//! ## Design
//!
//! A [`Telemetry`] hub is an argument, never process state: each run owns
//! one and hands it to the drivers that publish into it, so two runs in
//! one process never see each other's metrics, events or traces. A hub
//! starts **disabled**; in that state every call is a single relaxed
//! atomic load followed by an early return. Binaries build theirs with
//! [`Telemetry::from_env`] (enabled unless `DEEPBAT_TELEMETRY` vetoes it,
//! with an optional JSONL sink) and read metrics or drain events at the
//! end of the run.
//!
//! Metrics are identified by dotted string names (`"sim.batch_size"`,
//! `"controller.infer_s"`). Handles are `Arc`s: hot paths resolve a handle
//! once and then update it without touching the registry lock again.
//!
//! ## Example
//!
//! ```
//! use dbat_telemetry::{MemorySink, Telemetry};
//! use std::sync::Arc;
//!
//! let t = Telemetry::new();
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
//! ```

mod export;
pub mod log;
mod metrics;
mod sink;
mod trace;

pub use export::MetricsExporter;
pub use metrics::{Counter, Gauge, Histogram};
// Re-export so downstream binaries can build event payloads without adding
// their own serde_json dependency.
pub use serde_json;
pub use sink::{read_jsonl, Event, JsonlSink, MemorySink, Sink};
pub use trace::{FlushKind, SpanId, TraceConfig, TraceEvent, TraceId, TraceStage, Tracer};

use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// A telemetry hub: a metric registry, a list of event sinks and a
/// request tracer, all behind an enabled/disabled switch.
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
    /// A fresh, disabled hub.
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

    /// A binary's hub: enabled, streaming events as JSONL to `jsonl_path`
    /// when given (its directory is created), unless the environment
    /// vetoes with `DEEPBAT_TELEMETRY=0|off|false|no`, which yields a
    /// disabled hub with no sink.
    pub fn from_env(jsonl_path: Option<&std::path::Path>) -> Arc<Telemetry> {
        let hub = Arc::new(Telemetry::new());
        if std::env::var("DEEPBAT_TELEMETRY").is_ok_and(|v| vetoes(&v)) {
            return hub;
        }
        hub.enable();
        if let Some(path) = jsonl_path {
            let dir = path.parent().unwrap_or(std::path::Path::new("."));
            match std::fs::create_dir_all(dir).and_then(|()| JsonlSink::create(path)) {
                Ok(sink) => hub.add_sink(Arc::new(sink)),
                Err(e) => log_warn!(
                    "telemetry",
                    "cannot open JSONL sink {}: {e}",
                    path.display()
                ),
            }
        }
        hub
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

    // ---- events & sinks ---------------------------------------------

    pub fn add_sink(&self, sink: Arc<dyn Sink>) {
        self.sinks.lock().unwrap().push(sink);
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
    pub(crate) fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .read()
            .unwrap()
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect()
    }

    /// Every registered gauge's `(name, value)`, in name order.
    pub(crate) fn gauge_values(&self) -> Vec<(String, f64)> {
        self.gauges
            .read()
            .unwrap()
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect()
    }

    /// Every registered histogram's `(name, handle)`, in name order.
    pub(crate) fn histogram_handles(&self) -> Vec<(String, Arc<Histogram>)> {
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

/// Whether a `DEEPBAT_TELEMETRY` value switches telemetry off.
fn vetoes(value: &str) -> bool {
    matches!(
        value.to_ascii_lowercase().as_str(),
        "0" | "off" | "false" | "no"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn disabled_hub_emits_nothing() {
        let t = Telemetry::new();
        let sink = Arc::new(MemorySink::new());
        t.add_sink(sink.clone());
        assert!(!t.is_enabled());
        t.emit("x", json!({"a": 1}));
        assert!(sink.events_of_kind("x").is_empty());
    }

    #[test]
    fn the_veto_reads_off_switches_only() {
        for off in ["0", "off", "OFF", "false", "False", "no"] {
            assert!(vetoes(off), "{off}");
        }
        for on in ["1", "on", "true", "yes", "", "offline"] {
            assert!(!vetoes(on), "{on}");
        }
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
        assert_eq!(b.events_of_kind("k").len(), 1);
        let got = a.events_of_kind("k");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].data["v"].as_u64(), Some(7));
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
