//! Pull-based metrics export: Prometheus text format and JSON snapshots
//! over a plain `std::net::TcpListener` — no async runtime, matching the
//! thread-per-role design of the serving layer.
//!
//! [`MetricsExporter::start`] binds an address and spawns one accept
//! thread. Each connection gets a minimal HTTP/1.1 exchange:
//!
//! * `GET /metrics`  → Prometheus text exposition (version 0.0.4)
//! * `GET /snapshot` → the hub's [`crate::Telemetry::metrics_json`]
//! * anything else   → 404
//!
//! Rendering reads the same relaxed-atomic metric handles the hot paths
//! write, so a scrape never blocks instrumentation. Histograms are
//! exposed as Prometheus *summaries*: one streaming-quantile gauge per
//! tracked percentile (p50/p90/p95/p99) plus `_sum`/`_count`, which is
//! what a dashboard needs to plot p95/p99 admission-to-completion
//! latency live.

use crate::metrics::TRACKED_PERCENTILES;
use crate::Telemetry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Map a dotted metric name onto the Prometheus grammar:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`. Every illegal character becomes `_`, and
/// a leading digit gets a `_` prefix.
pub(crate) fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    out
}

impl Telemetry {
    /// Render every registered metric in the Prometheus text exposition
    /// format. Counters get the conventional `_total` suffix, histograms
    /// render as summaries with `quantile` labels.
    pub(crate) fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.counter_values() {
            let mut n = sanitize_metric_name(&name);
            if !n.ends_with("_total") {
                n.push_str("_total");
            }
            out.push_str(&format!("# TYPE {n} counter\n{n} {value}\n"));
        }
        for (name, value) in self.gauge_values() {
            let n = sanitize_metric_name(&name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {value}\n"));
        }
        for (name, h) in self.histogram_handles() {
            let n = sanitize_metric_name(&name);
            out.push_str(&format!("# TYPE {n} summary\n"));
            if h.count() > 0 {
                for &p in TRACKED_PERCENTILES.iter() {
                    if let Some(q) = h.quantile(p) {
                        out.push_str(&format!("{n}{{quantile=\"{}\"}} {q}\n", p / 100.0));
                    }
                }
            }
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum(), h.count()));
        }
        out
    }
}

/// A background thread serving the hub's metrics over HTTP.
///
/// Dropping the exporter shuts it down; [`MetricsExporter::shutdown`]
/// does the same explicitly and joins the thread.
pub struct MetricsExporter {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsExporter {
    /// Bind `addr` (e.g. `"127.0.0.1:9184"`, or port 0 for an ephemeral
    /// port — see [`MetricsExporter::addr`]) and start serving `tel`.
    pub fn start(tel: Arc<Telemetry>, addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("dbat-metrics".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        // One request per connection; errors only lose
                        // that scrape, never the exporter.
                        let _ = serve_one(stream, &tel);
                    }
                }
            })
            .expect("spawning the metrics exporter thread");
        Ok(MetricsExporter {
            local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address — useful with port 0.
    pub fn addr(&self) -> SocketAddr {
        self.local
    }

    /// Stop accepting and join the serving thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Relaxed);
            // Wake the blocking accept with a throwaway connection.
            let _ = TcpStream::connect(self.local);
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve_one(mut stream: TcpStream, tel: &Telemetry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;

    // Read until the end of the request head (or the buffer fills —
    // more than enough for any GET we answer).
    let mut buf = [0u8; 4096];
    let mut used = 0;
    loop {
        let n = stream.read(&mut buf[used..])?;
        used += n;
        if n == 0 || used == buf.len() || buf[..used].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf[..used]);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");

    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                tel.prometheus_text(),
            ),
            "/snapshot" => (
                "200 OK",
                "application/json",
                crate::serde_json::to_string(&tel.metrics_json())
                    .unwrap_or_else(|_| "{}".to_string()),
            ),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found; try /metrics or /snapshot\n".to_string(),
            ),
        }
    };
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        let (head, body) = resp
            .split_once("\r\n\r\n")
            .expect("response has a head/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn sanitizes_names_into_prometheus_grammar() {
        assert_eq!(sanitize_metric_name("serve.completed"), "serve_completed");
        assert_eq!(
            sanitize_metric_name("controller.decide_s"),
            "controller_decide_s"
        );
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("a-b c"), "a_b_c");
    }

    #[test]
    fn prometheus_text_renders_all_metric_kinds() {
        let t = Telemetry::new();
        t.counter("serve.completed").add(42);
        t.gauge("serve.queue_depth").set(3.5);
        for i in 1..=100 {
            t.histogram("serve.latency").record(i as f64 * 1e-3);
        }
        let text = t.prometheus_text();
        assert!(text.contains("# TYPE serve_completed_total counter\n"));
        assert!(text.contains("serve_completed_total 42\n"));
        assert!(text.contains("# TYPE serve_queue_depth gauge\n"));
        assert!(text.contains("serve_queue_depth 3.5\n"));
        assert!(text.contains("# TYPE serve_latency summary\n"));
        assert!(text.contains("serve_latency{quantile=\"0.95\"}"));
        assert!(text.contains("serve_latency{quantile=\"0.99\"}"));
        assert!(text.contains("serve_latency_count 100\n"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut it = line.rsplitn(2, ' ');
            let value = it.next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable sample value in line: {line}"
            );
            assert!(it.next().is_some());
        }
    }

    #[test]
    fn counter_named_total_keeps_single_suffix() {
        let t = Telemetry::new();
        t.counter("requests_total").inc();
        let text = t.prometheus_text();
        assert!(text.contains("requests_total 1\n"));
        assert!(!text.contains("requests_total_total"));
    }

    #[test]
    fn exporter_serves_metrics_snapshot_and_404() {
        let tel = Arc::new(Telemetry::new());
        tel.counter("serve.completed").add(7);
        tel.histogram("serve.latency").record(0.05);
        let exp = MetricsExporter::start(tel.clone(), "127.0.0.1:0").unwrap();
        let addr = exp.addr();

        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "head: {head}");
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(body.contains("serve_completed_total 7\n"));

        let (head, body) = http_get(addr, "/snapshot");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        let v: crate::serde_json::Value = crate::serde_json::from_str(&body).unwrap();
        assert_eq!(v["counters"]["serve.completed"].as_u64(), Some(7));
        assert_eq!(v["histograms"]["serve.latency"]["count"].as_u64(), Some(1));

        let (head, _) = http_get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        // A scrape after shutdown must fail: the listener is gone.
        exp.shutdown();
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may briefly accept then reset; either way no
                // well-formed response comes back.
                let mut s = TcpStream::connect(addr).unwrap();
                let _ = write!(s, "GET /metrics HTTP/1.1\r\n\r\n");
                let mut out = String::new();
                s.read_to_string(&mut out).is_err() || out.is_empty()
            }
        );
    }

    #[test]
    fn quantile_lines_reconcile_with_histogram_handles() {
        let t = Telemetry::new();
        let h = t.histogram("lat");
        for i in 1..=1000 {
            h.record(i as f64 * 1e-4);
        }
        let text = t.prometheus_text();
        let line = text
            .lines()
            .find(|l| l.starts_with("lat{quantile=\"0.95\"}"))
            .expect("p95 quantile line present");
        let rendered: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert_eq!(rendered, h.quantile(95.0).unwrap());
    }
}
