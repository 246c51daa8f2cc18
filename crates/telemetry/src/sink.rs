//! Event sinks: where structured telemetry goes once emitted.
//!
//! An [`Event`] is a timestamped, named JSON payload. Sinks are pluggable:
//! the in-memory sink backs tests and programmatic inspection, and the
//! JSONL sink streams one JSON object per line to a file for offline
//! analysis.

use serde_json::Value;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// A single structured telemetry event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Seconds since the Unix epoch at emission time.
    pub(crate) ts: f64,
    /// Dotted event kind, e.g. `"controller.decision"` or `"train.epoch"`.
    pub kind: String,
    /// Structured payload; shape is owned by the emitting layer.
    pub data: Value,
}

impl Event {
    pub(crate) fn new(kind: &str, data: Value) -> Self {
        let ts = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0);
        Event {
            ts,
            kind: kind.to_string(),
            data,
        }
    }

    /// An event stamped with an explicit timestamp instead of wall time
    /// — the serving layer passes its clock's virtual seconds here so
    /// events line up with the stamps they describe.
    pub(crate) fn with_ts(ts: f64, kind: &str, data: Value) -> Self {
        Event {
            ts,
            kind: kind.to_string(),
            data,
        }
    }

    /// The wire form: `{"ts":…,"kind":…,"data":{…}}` on one line.
    pub(crate) fn to_json_line(&self) -> String {
        let mut obj = serde_json::Map::new();
        obj.insert("ts".to_string(), Value::Number(self.ts));
        obj.insert("kind".to_string(), Value::String(self.kind.clone()));
        obj.insert("data".to_string(), self.data.clone());
        serde_json::to_string(&Value::Object(obj)).expect("Value serialization is infallible")
    }

    /// Parse one JSONL line back into an event.
    pub(crate) fn from_json_line(line: &str) -> Result<Event, serde_json::Error> {
        let v: Value = serde_json::from_str(line)?;
        let ts = v["ts"]
            .as_f64()
            .ok_or_else(|| serde_json::Error::new("event missing numeric 'ts'"))?;
        let kind = v["kind"]
            .as_str()
            .ok_or_else(|| serde_json::Error::new("event missing string 'kind'"))?
            .to_string();
        Ok(Event {
            ts,
            kind,
            data: v["data"].clone(),
        })
    }
}

/// Destination for telemetry events. Implementations must be thread-safe;
/// events may arrive from rayon workers.
pub trait Sink: Send + Sync {
    fn emit(&self, event: &Event);
    /// Flush buffered output (no-op for unbuffered sinks).
    fn flush(&self) {}
}

/// Buffers events in memory; the test and inspection sink.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Events whose kind matches exactly.
    pub fn events_of_kind(&self, kind: &str) -> Vec<Event> {
        self.events
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.kind == kind)
            .cloned()
            .collect()
    }
}

impl Sink for MemorySink {
    fn emit(&self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}

/// Streams events to a file, one JSON object per line.
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl Sink for JsonlSink {
    fn emit(&self, event: &Event) {
        let mut w = self.writer.lock().unwrap();
        // A failed telemetry write must never take down the computation.
        let _ = writeln!(w, "{}", event.to_json_line());
    }

    fn flush(&self) {
        let _ = self.writer.lock().unwrap().flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Read every event back out of a JSONL telemetry file.
pub fn read_jsonl(path: impl AsRef<Path>) -> std::io::Result<Vec<Event>> {
    let text = std::fs::read_to_string(path)?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev = Event::from_json_line(line).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line {}: {}", i + 1, e),
            )
        })?;
        out.push(ev);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn memory_sink_collects_and_filters() {
        let sink = MemorySink::new();
        sink.emit(&Event::new("a", json!({"x": 1})));
        sink.emit(&Event::new("b", json!({"y": 2.5})));
        sink.emit(&Event::new("a", json!({"x": 3})));
        assert_eq!(sink.events.lock().unwrap().len(), 3);
        let a = sink.events_of_kind("a");
        assert_eq!(a.len(), 2);
        assert_eq!(a[1].data["x"].as_f64(), Some(3.0));
    }

    #[test]
    fn event_json_line_round_trip() {
        let ev = Event::new(
            "controller.decision",
            json!({"memory_mb": 3008, "cost": 1.25e-6}),
        );
        let line = ev.to_json_line();
        assert!(!line.contains('\n'));
        let back = Event::from_json_line(&line).unwrap();
        assert_eq!(back.kind, "controller.decision");
        assert!((back.ts - ev.ts).abs() < 1e-9);
        assert_eq!(back.data["memory_mb"].as_u64(), Some(3008));
        assert_eq!(back.data["cost"].as_f64(), Some(1.25e-6));
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let dir = std::env::temp_dir().join(format!("dbat-telemetry-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        {
            let sink = JsonlSink::create(&path).unwrap();
            for i in 0..5 {
                sink.emit(&Event::new("tick", json!({"i": i})));
            }
            sink.flush();
        }
        let events = read_jsonl(&path).unwrap();
        assert_eq!(events.len(), 5);
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.kind, "tick");
            assert_eq!(ev.data["i"].as_u64(), Some(i as u64));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_line_is_an_error() {
        assert!(Event::from_json_line("not json").is_err());
        assert!(Event::from_json_line("{\"kind\":\"x\"}").is_err());
    }
}
