//! Benchmark-owned tracing: spans around the benchmark's own calls into
//! each layer's public functions (the program itself is not instrumented).
//!
//! A span records its name, start, end, parent span and request id.  Spans
//! are kept in memory and written out as JSON lines when the run ends.  A
//! span's *self time* is its duration minus the part of it its children
//! cover.  With tracing off, [`Tracer::open`] returns `None` and nothing is
//! recorded or timed.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

/// One closed span, times in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run.
    pub id: SpanId,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// Request (query or event chunk) the span belongs to.
    pub request: u64,
    /// Layer-qualified name, e.g. `cluster.rpc.solve`.
    pub name: &'static str,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// A span that has been opened but not yet closed.
#[derive(Debug)]
pub struct Open {
    id: SpanId,
    parent: Option<SpanId>,
    request: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// The id children of this span refer to.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span starting now.
    pub fn open(&self, name: &'static str, request: u64, parent: Option<&Open>) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        self.open_at(name, request, parent.map(Open::id), Instant::now())
    }

    /// Opens a span with an explicit start (e.g. an open-loop request's due
    /// time) and parent id.
    pub fn open_at(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        start: Instant,
    ) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        Some(Open {
            id: SpanId(self.next_id.fetch_add(1, Ordering::Relaxed)),
            parent,
            request,
            name,
            start,
        })
    }

    /// Closes a span at the current instant.
    pub fn close(&self, open: Option<Open>) {
        if let Some(open) = open {
            self.close_at(open, Instant::now());
        }
    }

    /// Closes a span at `end`.
    fn close_at(&self, open: Open, end: Instant) {
        let offset = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_ns: offset(open.start),
            end_ns: offset(end),
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Runs `f` inside a span named `name`.
    pub fn in_span<R>(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<&Open>,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open(name, request, parent);
        let out = f();
        self.close(open);
        out
    }

    /// Every closed span, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.0.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id.0, parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-span self time in milliseconds: the span's duration minus the union
/// of its children's intervals clipped to it (children may overlap when a
/// layer fans out concurrently).
pub fn self_ms(spans: &[Span]) -> HashMap<SpanId, f64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let total = s.end_ns.saturating_sub(s.start_ns);
            (s.id, total.saturating_sub(covered) as f64 / 1e6)
        })
        .collect()
}

/// Durations (ms) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Self times (ms) of every span named `name`.
pub fn self_durations(spans: &[Span], self_times: &HashMap<SpanId, f64>, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| self_times[&s.id])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id: SpanId(id),
            parent: parent.map(SpanId),
            request: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..10ms; children 1..4 and 3..6 overlap (union 1..6) and one
        // sticks out past the parent's end (clipped to 8..10).
        let spans = vec![
            span(1, None, 0, 10_000_000),
            span(2, Some(1), 1_000_000, 4_000_000),
            span(3, Some(1), 3_000_000, 6_000_000),
            span(4, Some(1), 8_000_000, 12_000_000),
        ];
        let own = self_ms(&spans);
        assert!((own[&SpanId(1)] - 3.0).abs() < 1e-9);
        assert!((own[&SpanId(2)] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let open = t.open("x", 1, None);
        assert!(open.is_none());
        t.close(open);
        assert!(t.spans().is_empty());
    }
}
