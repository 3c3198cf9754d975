//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer (a crate of the program). One root span opens one
//! request (`req`); spans opened while another is open become its
//! children. Only the benchmark's driver thread records, so a plain
//! stack tracks parentage. Nothing is written until [`Tracer::write_jsonl`].

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    /// Request the span belongs to (one per batch / request).
    pub req: u64,
    /// Crate the spanned call enters.
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operations the span covers (events, profiles, frames, ...).
    pub count: u64,
    pub bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// Per-(layer, name) totals derived from the spans.
#[derive(Clone, Debug, Default)]
pub struct SpanTotals {
    pub spans: u64,
    pub total_ns: f64,
    /// Total minus the time covered by child spans.
    pub self_ns: f64,
    pub count: u64,
    pub bytes: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
    reqs: Cell<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            reqs: Cell::new(0),
        }
    }

    /// Run `f` inside a span. With tracing off this is a plain call.
    pub fn span<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        count: u64,
        bytes: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let parent = self.open.borrow().last().copied().unwrap_or(0);
        if parent == 0 {
            self.reqs.set(self.reqs.get() + 1);
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len() as u32 + 1;
            spans.push(Span {
                id,
                parent,
                req: self.reqs.get(),
                layer,
                name,
                start_ns: 0,
                end_ns: 0,
                count,
                bytes,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        let span = &mut spans[id as usize - 1];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    /// Record a span whose duration was measured by the callee (a
    /// kernel reports its own time); it ends now and has no children.
    pub fn record_ns(&self, layer: &'static str, name: &'static str, count: u64, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.borrow().last().copied().unwrap_or(0);
        if parent == 0 {
            self.reqs.set(self.reqs.get() + 1);
        }
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let mut spans = self.spans.borrow_mut();
        let id = spans.len() as u32 + 1;
        spans.push(Span {
            id,
            parent,
            req: self.reqs.get(),
            layer,
            name,
            start_ns: end_ns.saturating_sub(dur_ns),
            end_ns,
            count,
            bytes: 0,
        });
    }

    /// Per-operation durations (ns) of every span named `layer`/`name`.
    pub fn per_op_ns(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.dur_ns() / s.count.max(1) as f64)
            .collect()
    }

    /// Whole durations (ns) of every span named `layer`/`name`.
    pub fn durations_ns(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Totals with self time, keyed `(layer, name)`.
    pub fn totals(&self) -> BTreeMap<(&'static str, &'static str), SpanTotals> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0.0f64; spans.len() + 1];
        for s in spans.iter() {
            child_ns[s.parent as usize] += s.dur_ns();
        }
        let mut out: BTreeMap<(&'static str, &'static str), SpanTotals> = BTreeMap::new();
        for s in spans.iter() {
            let t = out.entry((s.layer, s.name)).or_default();
            t.spans += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns() - child_ns[s.id as usize];
            t.count += s.count;
            t.bytes += s.bytes;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.borrow().iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{},\"bytes\":{}}}",
                s.id, s.parent, s.req, s.layer, s.name, s.start_ns, s.end_ns, s.count, s.bytes
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_reqs_count_roots() {
        let t = Tracer::new(true);
        t.span("a", "outer", 1, 0, || {
            t.span("b", "inner", 4, 8, || std::hint::black_box(1));
            t.span("b", "inner", 4, 8, || std::hint::black_box(2));
        });
        t.span("a", "outer", 1, 0, || ());
        let totals = t.totals();
        let outer = &totals[&("a", "outer")];
        let inner = &totals[&("b", "inner")];
        assert_eq!(
            (outer.spans, inner.spans, inner.count, inner.bytes),
            (2, 2, 8, 16)
        );
        assert!((outer.self_ns - (outer.total_ns - inner.total_ns)).abs() < 1e-6);
        let spans = t.spans.borrow();
        assert_eq!(spans[1].parent, 1);
        assert_eq!((spans[0].req, spans[2].req, spans[3].req), (1, 1, 2));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a", "x", 1, 0, || 7), 7);
        assert!(t.totals().is_empty());
    }
}
