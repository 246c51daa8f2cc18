//! One run's shared state: the arguments, the checker, the metric
//! values gathered so far, the span recorder, and the final report.

use crate::checks::Checker;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::spans::{self, Recorder};
use crate::stats::median;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-up is repeated at least this many times in an untraced run and
/// `setup_s` is the median, so one slow allocation or page-in does not
/// decide it.
const SETUP_REPEATS: usize = 3;
/// A set-up of tens of milliseconds is repeated further, until the
/// repeats have taken this long together or there are this many of them:
/// the median of three 30 ms builds moves with every neighbour's burst.
const SETUP_MIN_TOTAL_S: f64 = 2.0;
const SETUP_MAX_REPEATS: usize = 25;

/// Share of `--seconds` a traced run spends in the traced workload; the
/// layer probes take the rest.
const TRACED_WORKLOAD_SHARE: f64 = 0.5;

pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Cores available; generator threads never exceed it.
    pub nproc: usize,
    pub check: Checker,
    pub rec: Recorder,
    values: BTreeMap<&'static str, f64>,
}

impl Ctx {
    pub fn new(workload: &'static str, seed: u64, seconds: f64, traced: bool) -> Self {
        Ctx {
            workload,
            seed,
            seconds,
            traced,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            check: Checker::default(),
            rec: Recorder::new(traced),
            values: BTreeMap::new(),
        }
    }

    fn table(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Record a metric of this run's table; metrics of the other table
    /// are dropped, so workloads can report both without branching.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "unknown metric {name}"
        );
        if self.table().iter().any(|m| m.name == name) {
            self.values.insert(name, value);
        }
    }

    /// Build the workload's inputs. Untraced runs build them several
    /// times (see [`SETUP_REPEATS`]) and report the median as `setup_s`.
    pub fn setup<T>(&mut self, mut build: impl FnMut() -> T) -> T {
        let mut times = Vec::new();
        let mut built = None;
        loop {
            drop(built.take());
            let t0 = Instant::now();
            built = Some(build());
            times.push(t0.elapsed().as_secs_f64());
            let enough = times.len() >= SETUP_REPEATS
                && (times.iter().sum::<f64>() >= SETUP_MIN_TOTAL_S
                    || times.len() >= SETUP_MAX_REPEATS);
            if self.traced || enough {
                break;
            }
        }
        println!("setup: {} x, seconds each {times:.3?}", times.len());
        self.set("setup_s", median(&mut times));
        built.expect("at least one set-up")
    }

    /// How long the workload itself may measure.
    pub fn budget(&self) -> Duration {
        let share = if self.traced {
            TRACED_WORKLOAD_SHARE
        } else {
            1.0
        };
        Duration::from_secs_f64(self.seconds * share)
    }

    /// Per-layer self-time shares of the recorded spans, the span count,
    /// and the span dump.
    fn close_spans(&mut self) {
        if !self.traced {
            return;
        }
        let by_layer = spans::self_time_by_layer(self.rec.spans());
        let total: f64 = by_layer.values().sum();
        for (layer, name) in [
            ("core", "core.self_share_pct"),
            ("sim", "sim.self_share_pct"),
            ("serve", "serve.self_share_pct"),
            ("workload", "workload.self_share_pct"),
            ("bench", "bench.self_share_pct"),
        ] {
            let own = by_layer.get(layer).copied().unwrap_or(0.0);
            self.set(
                name,
                if total > 0.0 {
                    own / total * 100.0
                } else {
                    0.0
                },
            );
        }
        self.set("bench.spans", self.rec.spans().len() as f64);
        println!("spans: self time and calls by name");
        for (name, (calls, ns)) in spans::self_time_by_name(self.rec.spans()) {
            println!("  {name:<28} {calls:>9} calls {:>12.6} s", ns as f64 * 1e-9);
        }
        let path = format!(
            "benchmark/out/{}-seed{}.spans.jsonl",
            self.workload, self.seed
        );
        match self.rec.dump(std::path::Path::new(&path)) {
            Ok(()) => println!("spans: {} written to {path}", self.rec.spans().len()),
            Err(e) => self
                .check
                .check(false, || format!("span dump to {path}: {e}")),
        }
    }

    /// Print every metric of this run's table by name with its unit, then
    /// the result line. Returns the process exit code.
    pub fn finish(mut self) -> i32 {
        self.close_spans();
        self.set("bench.peak_rss_mb", peak_rss_mb());
        let mut fields = Vec::new();
        for m in self.table() {
            let value = match self.values.get(m.name) {
                Some(&v) => v,
                // A layer the workload never enters did no work.
                None if self.traced => 0.0,
                None => f64::NAN,
            };
            self.check.finite(m.name, value);
            let value = if value.is_finite() { value } else { 0.0 };
            println!(
                "metric {:<34} {value:>18.6} {} ({} is better)",
                m.name,
                m.unit,
                m.better.as_str()
            );
            fields.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        for f in self.check.failures() {
            println!("CHECK FAILED: {f}");
        }
        let correct = self.check.correct();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.check.attempted.max(1),
            self.check.failed,
            fields.join(", ")
        );
        i32::from(!correct)
    }
}

/// Peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
