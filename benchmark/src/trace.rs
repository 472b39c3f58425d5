//! In-memory host-time spans recorded around calls into each layer.
//!
//! Spans are recorded only from the benchmark's own code: a request span
//! wraps the real calls (`gpu_sim.device_new`, `compile`, the execution
//! entry point), and probe spans measure side work (compile phases,
//! admission, interpreter replay, oracle operators) as separate roots
//! tagged with the same request id, so probes never count toward request
//! time. A disabled tracer runs the wrapped closures and records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::metrics::Metric;

/// Requests whose spans the Chrome export holds. Short-request workloads
/// record millions of spans; `layers.json` still covers all of them.
const EXPORT_REQUESTS: u64 = 1_000;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Layer-qualified name, e.g. `compile.weave`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id shared by a request span and its probes.
    pub request: u64,
}

impl SpanRecord {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals: what `layers.json` holds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    request: u64,
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs the closures.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            request: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Tag spans opened from now on with request id `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    /// Every span recorded so far, in open order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Count, total and self time per span name. Spans on one thread nest
    /// without overlapping, so the children's summed durations are exactly
    /// the part of the parent's interval they cover.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.ns();
            t.self_ns += s.ns() - child;
        }
        out
    }

    /// The spans of the first `EXPORT_REQUESTS` requests as Chrome trace
    /// events (loadable in Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let exported: Vec<&SpanRecord> = self
            .spans
            .iter()
            .filter(|s| s.request < EXPORT_REQUESTS)
            .collect();
        for (i, s) in exported.iter().enumerate() {
            let cat = s.name.split('.').next().unwrap_or(s.name);
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request\":{}}}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.request,
                if i + 1 < exported.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }

    /// [`Tracer::layers`] as JSON, times in milliseconds, plus the
    /// per-layer metrics derived from them.
    pub fn layers_json(&self, metrics: &[Metric]) -> String {
        let layers = self.layers();
        let mut out = String::from("{\n  \"spans\": {\n");
        for (i, (name, t)) in layers.iter().enumerate() {
            let _ = writeln!(
                out,
                "    \"{name}\": {{\"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}{}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                if i + 1 < layers.len() { "," } else { "" }
            );
        }
        out.push_str("  },\n  \"metrics\": {\n");
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let _ = writeln!(
                out,
                "    \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}{}",
                if i + 1 < metrics.len() { "," } else { "" }
            );
        }
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_request(7);
        t.span("request", |t| {
            t.span("compile", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("executor.execute_compiled", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let layers = t.layers();
        let req = layers["request"];
        let child = layers["compile"].total_ns + layers["executor.execute_compiled"].total_ns;
        assert_eq!(req.count, 1);
        assert_eq!(req.self_ns, req.total_ns - child);
        assert!(t.spans().iter().all(|s| s.request == 7));
        assert_eq!(t.spans()[1].parent, Some(0));
        kw_gpu_sim::parse_json(&t.chrome_json()).expect("chrome trace parses");
        kw_gpu_sim::parse_json(&t.layers_json(&[("x.y", 1.5, "ms")])).expect("layers parse");

        let mut off = Tracer::new(false);
        assert_eq!(off.span("request", |_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
