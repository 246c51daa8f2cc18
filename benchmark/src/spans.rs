//! The harness's own span recorder. Spans are taken in the benchmark's
//! files, around the calls into each layer's public functions; they stay
//! in memory while the run measures and are written to `benchmark/out/`
//! when it ends. Spans inside the crates are a later change.
//!
//! A span's name is `<layer>.<call>`, its layer the crate it enters. A
//! layer's self time is its spans' duration minus the part of that
//! interval their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<u32>,
    /// The operation (interval, request, step) the span belongs to;
    /// spans of one operation share it.
    pub op: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle returned by [`Recorder::enter`]; give it back to
/// [`Recorder::exit`].
#[derive(Clone, Copy, Debug)]
pub struct Open(u32);

/// Single-threaded span recorder. An inert recorder records nothing, so
/// one loop can run traced and untraced.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    active: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(active: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            active,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder for another thread sharing this one's time origin.
    pub fn sibling(&self) -> Recorder {
        Recorder {
            origin: self.origin,
            active: self.active,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.active {
            return Open(u32::MAX);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn exit(&mut self, open: Open) {
        if !self.active {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    /// Time `f` under a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, op);
        let out = f();
        self.exit(open);
        out
    }

    /// Append another thread's finished spans, keeping parent links.
    pub fn absorb(&mut self, other: Recorder) {
        assert!(
            other.stack.is_empty(),
            "absorbing a recorder with open spans"
        );
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, one per line.
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Calls and summed self time, keyed by span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += self_ns;
    }
    out
}

/// Summed self time in seconds, keyed by layer (the name's first part).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer()).or_default() += self_ns as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = [
            span("bench.interval", 0, 100, None),
            span("core.choose", 10, 40, Some(0)),
            // Overlaps the first child by 10 ns: the union covers 10..60.
            span("sim.measure", 30, 60, Some(0)),
            // Runs past the parent's end: clipped to 90..100.
            span("core.observe", 90, 120, Some(0)),
            span("linalg.gemm", 12, 20, Some(1)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![100 - 50 - 10, 30 - 8, 30, 30, 8]);
        let by_layer = self_time_by_layer(&spans);
        assert!((by_layer["core"] - 52e-9).abs() < 1e-15);
        assert!((by_layer["bench"] - 40e-9).abs() < 1e-15);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["sim.measure"], (1, 30));
    }

    #[test]
    fn recorder_nests_and_an_inert_one_records_nothing() {
        let mut rec = Recorder::new(true);
        let outer = rec.enter("bench.interval", 7);
        let got = rec.span("core.choose", 7, || 42);
        rec.exit(outer);
        assert_eq!(got, 42);
        let s = rec.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].op, 7);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut other = rec.sibling();
        let o = other.enter("serve.submit", 1);
        other.span("serve.inner", 1, || ());
        other.exit(o);
        rec.absorb(other);
        assert_eq!(rec.spans()[3].parent, Some(2));

        let mut inert = Recorder::new(false);
        let o = inert.enter("x.y", 0);
        inert.exit(o);
        assert!(inert.spans().is_empty());
    }
}
