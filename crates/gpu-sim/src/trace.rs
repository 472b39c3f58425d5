//! Structured execution tracing.
//!
//! Every kernel launch, PCIe transfer, allocation event, injected fault and
//! retry backoff recorded by a [`crate::Device`] becomes one [`Span`]: a
//! labelled interval on the device's unified cycle clock carrying the exact
//! [`SimStats`] delta that operation charged, plus the operator provenance
//! the executor pushed via [`crate::Device::push_scope`].
//!
//! The span log is the device's one record of activity. Spans make the
//! simulator's aggregate counters *attributable*: the paper argues through
//! end-of-run totals (global-memory cycles of Fig. 18, allocation of
//! Fig. 17, PCIe traffic of Fig. 21), and spans show which woven kernel
//! each cycle and byte belongs to ([`cycles_for_label`]). They are also a
//! standing correctness check: [`reconcile`] asserts that per-span deltas
//! sum back to the aggregate — any cost the device charges outside a span,
//! or charges twice, fails the invariant. Debug builds enforce it after
//! every recorded span.
//!
//! [`TraceSink`] exports a span list as Chrome trace-event JSON (loadable in
//! Perfetto / `chrome://tracing`) and as a per-operator summary table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use crate::{Engine, SimStats};

/// What kind of device operation a [`Span`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A kernel execution (duration = the kernel's total cycles).
    Kernel,
    /// A PCIe transfer (duration = transfer seconds on the cycle clock).
    Transfer,
    /// A device allocation (instant).
    Alloc,
    /// A device free (instant).
    Free,
    /// An injected fault; the faulted operation was charged nothing, the
    /// fault itself is the record (instant).
    Fault,
    /// Retry backoff charged to the simulated clock (duration).
    Backoff,
}

impl SpanKind {
    /// Short category name (used as the Chrome trace `cat` field).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Kernel => "kernel",
            SpanKind::Transfer => "pcie",
            SpanKind::Alloc => "alloc",
            SpanKind::Free => "free",
            SpanKind::Fault => "fault",
            SpanKind::Backoff => "backoff",
        }
    }
}

/// One traced device operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Sequence number on the recording device (0-based).
    pub id: u64,
    /// Operation kind.
    pub kind: SpanKind,
    /// Operation label (kernel label, transfer direction, buffer label…).
    pub label: String,
    /// The `/`-joined provenance scope stack at record time — operator,
    /// fusion set, attempt and mode frames pushed by the executor layers.
    pub provenance: String,
    /// Start position on the device's unified cycle clock.
    pub start_cycle: u64,
    /// End position on the cycle clock (equal to `start_cycle` for instant
    /// events).
    pub end_cycle: u64,
    /// Exactly what this operation charged: the difference between the
    /// device's aggregate [`SimStats`] after and before it.
    pub delta: SimStats,
    /// The hardware engine this operation occupied, when it went through
    /// the stream model (`None` for serial-path and instant events). Used
    /// by the Chrome export to give each engine its own lane, so
    /// copy-compute overlap is visible instead of collapsing into one row.
    pub engine: Option<Engine>,
}

impl Span {
    /// Duration in cycles (zero for instant events).
    pub fn cycles(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }
}

/// Sum the [`SimStats`] deltas of `spans`.
pub fn sum_deltas(spans: &[Span]) -> SimStats {
    let mut sum = SimStats::default();
    for s in spans {
        sum.merge(&s.delta);
    }
    sum
}

/// Whether `label` matches `needle` under delimiter-aware matching: either
/// the full label equals the needle, or the needle's `.`-separated segments
/// appear as a contiguous run of the label's segments.
///
/// Substring matching is deliberately *not* used: `"join"` must not count
/// `"n5.semijoin.compute"` kernels, which a `contains`-based filter silently
/// did.
///
/// ```
/// use kw_gpu_sim::label_matches;
/// assert!(label_matches("n7.sort.pass3", "sort"));
/// assert!(label_matches("n7.sort.pass3", "n7.sort"));
/// assert!(!label_matches("n5.semijoin.compute", "join"));
/// assert!(!label_matches("n7.sort.pass3", "sort.compute"));
/// ```
pub fn label_matches(label: &str, needle: &str) -> bool {
    if label == needle {
        return true;
    }
    let segs: Vec<&str> = label.split('.').collect();
    let want: Vec<&str> = needle.split('.').filter(|s| !s.is_empty()).collect();
    if want.is_empty() || want.len() > segs.len() {
        return false;
    }
    segs.windows(want.len()).any(|w| w == want.as_slice())
}

/// Sum the GPU cycles of every kernel span whose label matches `needle`
/// (see [`label_matches`] — exact segment matching, not substring). This
/// is the per-operator cost breakdown behind the paper's Section 5.2
/// ("SORT is 71% of TPC-H Q1").
pub fn cycles_for_label(spans: &[Span], needle: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.kind == SpanKind::Kernel && label_matches(&s.label, needle))
        .map(|s| s.delta.gpu_cycles)
        .sum()
}

/// Check that the per-span deltas of `spans` sum to `aggregate`.
///
/// Integer counters must match exactly; the two `f64` counters
/// (`pcie_seconds`, `backoff_seconds`) within a relative 1e-9.
///
/// # Errors
///
/// Returns a description of the first mismatching counter.
pub fn reconcile(spans: &[Span], aggregate: &SimStats) -> Result<(), String> {
    compare_stats(&sum_deltas(spans), aggregate)
}

/// The comparison behind [`reconcile`], for callers that already hold the
/// summed deltas (the device's debug-build invariant keeps a running sum).
pub(crate) fn compare_stats(sum: &SimStats, aggregate: &SimStats) -> Result<(), String> {
    let ints = [
        (
            "kernel_launches",
            sum.kernel_launches,
            aggregate.kernel_launches,
        ),
        ("launch_cycles", sum.launch_cycles, aggregate.launch_cycles),
        (
            "global_bytes_read",
            sum.global_bytes_read,
            aggregate.global_bytes_read,
        ),
        (
            "global_bytes_written",
            sum.global_bytes_written,
            aggregate.global_bytes_written,
        ),
        (
            "global_access_cycles",
            sum.global_access_cycles,
            aggregate.global_access_cycles,
        ),
        (
            "shared_bytes_read",
            sum.shared_bytes_read,
            aggregate.shared_bytes_read,
        ),
        (
            "shared_bytes_written",
            sum.shared_bytes_written,
            aggregate.shared_bytes_written,
        ),
        (
            "shared_access_cycles",
            sum.shared_access_cycles,
            aggregate.shared_access_cycles,
        ),
        ("alu_ops", sum.alu_ops, aggregate.alu_ops),
        ("alu_cycles", sum.alu_cycles, aggregate.alu_cycles),
        ("barriers", sum.barriers, aggregate.barriers),
        (
            "barrier_cycles",
            sum.barrier_cycles,
            aggregate.barrier_cycles,
        ),
        ("gpu_cycles", sum.gpu_cycles, aggregate.gpu_cycles),
        ("h2d_transfers", sum.h2d_transfers, aggregate.h2d_transfers),
        ("h2d_bytes", sum.h2d_bytes, aggregate.h2d_bytes),
        ("d2h_transfers", sum.d2h_transfers, aggregate.d2h_transfers),
        ("d2h_bytes", sum.d2h_bytes, aggregate.d2h_bytes),
        (
            "faults_injected",
            sum.faults_injected,
            aggregate.faults_injected,
        ),
    ];
    for (name, got, want) in ints {
        if got != want {
            return Err(format!(
                "trace does not reconcile: sum of span deltas has {name}={got}, \
                 aggregate SimStats has {name}={want}"
            ));
        }
    }
    let floats = [
        ("pcie_seconds", sum.pcie_seconds, aggregate.pcie_seconds),
        (
            "backoff_seconds",
            sum.backoff_seconds,
            aggregate.backoff_seconds,
        ),
    ];
    for (name, got, want) in floats {
        let tol = 1e-9 * want.abs().max(1.0);
        if (got - want).abs() > tol {
            return Err(format!(
                "trace does not reconcile: sum of span deltas has {name}={got}, \
                 aggregate SimStats has {name}={want}"
            ));
        }
    }
    Ok(())
}

/// Aggregated cost of all spans sharing one provenance scope.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorSummary {
    /// The provenance scope (or `"(unscoped)"`).
    pub operator: String,
    /// Kernel spans under this scope.
    pub kernels: u64,
    /// PCIe transfer spans under this scope.
    pub transfers: u64,
    /// Injected faults under this scope.
    pub faults: u64,
    /// Total GPU cycles charged.
    pub gpu_cycles: u64,
    /// Cycles attributed to global-memory access.
    pub global_access_cycles: u64,
    /// Bytes moved through global memory.
    pub global_bytes: u64,
    /// Bytes moved over PCIe.
    pub pcie_bytes: u64,
}

/// Group `spans` by provenance scope and total each group's costs.
///
/// Rows are ordered by first appearance in the trace, which for a plan
/// execution is operator execution order.
pub fn operator_summary(spans: &[Span]) -> Vec<OperatorSummary> {
    let mut order: Vec<String> = Vec::new();
    let mut rows: BTreeMap<String, OperatorSummary> = BTreeMap::new();
    for s in spans {
        let key = if s.provenance.is_empty() {
            "(unscoped)".to_string()
        } else {
            s.provenance.clone()
        };
        let row = rows.entry(key.clone()).or_insert_with(|| {
            order.push(key.clone());
            OperatorSummary {
                operator: key,
                kernels: 0,
                transfers: 0,
                faults: 0,
                gpu_cycles: 0,
                global_access_cycles: 0,
                global_bytes: 0,
                pcie_bytes: 0,
            }
        });
        match s.kind {
            SpanKind::Kernel => row.kernels += 1,
            SpanKind::Transfer => row.transfers += 1,
            SpanKind::Fault => row.faults += 1,
            _ => {}
        }
        row.gpu_cycles += s.delta.gpu_cycles;
        row.global_access_cycles += s.delta.global_access_cycles;
        row.global_bytes += s.delta.global_bytes();
        row.pcie_bytes += s.delta.pcie_bytes();
    }
    order
        .into_iter()
        .map(|k| rows.remove(&k).expect("inserted"))
        .collect()
}

/// Render [`operator_summary`] rows as an aligned text table.
pub fn summary_table(rows: &[OperatorSummary]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<52} {:>7} {:>5} {:>6} {:>14} {:>14} {:>12} {:>12}",
        "operator",
        "kernels",
        "xfers",
        "faults",
        "gpu cycles",
        "gmem cycles",
        "gmem bytes",
        "pcie bytes"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<52} {:>7} {:>5} {:>6} {:>14} {:>14} {:>12} {:>12}",
            r.operator,
            r.kernels,
            r.transfers,
            r.faults,
            r.gpu_cycles,
            r.global_access_cycles,
            r.global_bytes,
            r.pcie_bytes
        );
    }
    out
}

/// Escape a string for inclusion in a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render `spans` as Chrome trace-event JSON, loadable in Perfetto and
/// `chrome://tracing`.
///
/// Timestamps are microseconds on the device's unified cycle clock at
/// `clock_ghz`. Duration spans (kernels, transfers, backoff) become `"X"`
/// complete events; instant events (alloc/free/fault) become `"i"` events.
/// Every event carries its provenance and `SimStats` delta in `args`.
pub fn chrome_trace_json(spans: &[Span], clock_ghz: f64) -> String {
    // Lanes: the serial-path families keep the three fixed rows; every
    // distinct stream-model engine gets its own row above them. Deriving
    // the lane purely from SpanKind used to collapse concurrent ops on
    // different engines into one Perfetto row, hiding the very overlap
    // the stream model exists to show.
    let kind_tid = |k: SpanKind| match k {
        SpanKind::Kernel => 0,
        SpanKind::Transfer | SpanKind::Backoff => 1,
        SpanKind::Alloc | SpanKind::Free | SpanKind::Fault => 2,
    };
    let mut engine_lanes: BTreeMap<Engine, u64> = BTreeMap::new();
    for s in spans {
        if let Some(e) = s.engine {
            if !engine_lanes.contains_key(&e) {
                engine_lanes.insert(e, 3 + engine_lanes.len() as u64);
            }
        }
    }
    let tid = |s: &Span| match s.engine {
        Some(e) => engine_lanes[&e],
        None => kind_tid(s.kind),
    };
    let us = |cycles: u64| cycles as f64 / (clock_ghz * 1e3);

    let mut lanes: Vec<(u64, String)> = vec![
        (0, "compute".to_string()),
        (1, "pcie+backoff".to_string()),
        (2, "memory+faults".to_string()),
    ];
    lanes.extend(
        engine_lanes
            .iter()
            .map(|(e, &t)| (t, format!("engine:{}", e.name()))),
    );
    lanes.sort_by_key(|&(t, _)| t);

    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (t, name) in &lanes {
        let _ = writeln!(
            out,
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{t},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{name}\"}}}},"
        );
    }
    if spans.is_empty() {
        // No span events follow: drop the last metadata line's trailing
        // comma (",\n") so the array stays well-formed JSON.
        out.truncate(out.len() - 2);
        out.push('\n');
    }
    for (i, s) in spans.iter().enumerate() {
        let d = &s.delta;
        let args = format!(
            "{{\"provenance\":\"{}\",\"cycles\":{},\"global_bytes_read\":{},\
             \"global_bytes_written\":{},\"global_access_cycles\":{},\
             \"shared_access_cycles\":{},\"alu_cycles\":{},\"barrier_cycles\":{},\
             \"launch_cycles\":{},\"h2d_bytes\":{},\"d2h_bytes\":{},\
             \"faults_injected\":{}}}",
            escape_json(&s.provenance),
            s.cycles(),
            d.global_bytes_read,
            d.global_bytes_written,
            d.global_access_cycles,
            d.shared_access_cycles,
            d.alu_cycles,
            d.barrier_cycles,
            d.launch_cycles,
            d.h2d_bytes,
            d.d2h_bytes,
            d.faults_injected,
        );
        if s.start_cycle == s.end_cycle {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{:.4},\"pid\":0,\"tid\":{},\"args\":{}}}",
                escape_json(&s.label),
                s.kind.name(),
                us(s.start_cycle),
                tid(s),
                args
            );
        } else {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\
                 \"ts\":{:.4},\"dur\":{:.4},\"pid\":0,\"tid\":{},\"args\":{}}}",
                escape_json(&s.label),
                s.kind.name(),
                us(s.start_cycle),
                us(s.cycles()),
                tid(s),
                args
            );
        }
        out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push_str("]}\n");
    out
}

// ---------------------------------------------------------------------------
// Minimal JSON validation (the build environment is offline, so the schema
// check in ci.sh cannot shell out to a JSON tool).
// ---------------------------------------------------------------------------

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// `"X"`/`"i"` trace events seen inside the `traceEvents` array.
    events: usize,
}

impl<'a> JsonParser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("invalid JSON at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' | b'f' => out.push(' '),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (already-valid input: the
                    // caller handed us a &str).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.err("bad number"))
    }

    /// Parse any JSON value; `in_trace_events` marks object members of the
    /// `traceEvents` array so they are schema-checked as trace events.
    fn parse_value(&mut self, in_trace_events: bool) -> Result<(), String> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'{' => self.parse_object(in_trace_events),
            b'[' => self.parse_array(false),
            b'"' => self.parse_string().map(|_| ()),
            b't' => self.parse_lit("true"),
            b'f' => self.parse_lit("false"),
            b'n' => self.parse_lit("null"),
            _ => self.parse_number().map(|_| ()),
        }
    }

    fn parse_lit(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn parse_array(&mut self, trace_events: bool) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.parse_value(trace_events)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// Parse an object. When `trace_event` is set, require the trace-event
    /// schema: a string `ph`, a string `name`, and for `"X"`/`"i"` phases a
    /// numeric `ts`.
    fn parse_object(&mut self, trace_event: bool) -> Result<(), String> {
        self.expect(b'{')?;
        let mut ph: Option<String> = None;
        let mut has_name = false;
        let mut has_ts = false;
        let mut trace_events_seen = false;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                let key = self.parse_string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                match key.as_str() {
                    "traceEvents" if self.peek() == Some(b'[') => {
                        trace_events_seen = true;
                        self.parse_array(true)?;
                    }
                    "ph" if self.peek() == Some(b'"') => ph = Some(self.parse_string()?),
                    "name" if self.peek() == Some(b'"') => {
                        has_name = true;
                        self.parse_string()?;
                    }
                    "ts" => {
                        has_ts = self.peek() != Some(b'"');
                        self.parse_value(false)?;
                    }
                    _ => self.parse_value(false)?,
                }
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                    }
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.err("expected ',' or '}'")),
                }
            }
        }
        if trace_event {
            let ph = ph.ok_or_else(|| self.err("trace event missing \"ph\""))?;
            if !has_name {
                return Err(self.err("trace event missing \"name\""));
            }
            if matches!(ph.as_str(), "X" | "i") {
                if !has_ts {
                    return Err(self.err("trace event missing numeric \"ts\""));
                }
                self.events += 1;
            }
        }
        let _ = trace_events_seen;
        Ok(())
    }
}

/// Validate that `text` is one well-formed JSON document (any value shape,
/// no schema requirements beyond syntax). The bench harness uses this to
/// gate its machine-readable result files in the offline CI environment.
///
/// # Errors
///
/// Returns a message locating the first syntax violation.
pub fn validate_json(text: &str) -> Result<(), String> {
    let mut p = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
        events: 0,
    };
    p.parse_value(false)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after JSON document"));
    }
    Ok(())
}

/// Validate that `text` is well-formed Chrome trace-event JSON: a top-level
/// object whose `traceEvents` array members each carry a `ph`, a `name`, and
/// (for durable/instant phases) a numeric `ts`.
///
/// Returns the number of non-metadata trace events.
///
/// # Errors
///
/// Returns a message locating the first syntax or schema violation.
pub fn validate_chrome_json(text: &str) -> Result<usize, String> {
    let mut p = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
        events: 0,
    };
    p.skip_ws();
    if p.peek() != Some(b'{') {
        return Err(p.err("expected top-level object"));
    }
    p.parse_object(false)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after JSON document"));
    }
    if p.events == 0 {
        return Err("trace contains no events".to_string());
    }
    Ok(p.events)
}

/// Writes traces captured from a [`crate::Device`] to a directory.
///
/// ```no_run
/// use kw_gpu_sim::{Device, DeviceConfig, TraceSink};
/// let dev = Device::new(DeviceConfig::fermi_c2050());
/// let sink = TraceSink::new("traces")?;
/// let path = sink.export("run", &dev)?;
/// println!("open {} in https://ui.perfetto.dev", path.display());
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct TraceSink {
    dir: PathBuf,
}

impl TraceSink {
    /// Create a sink rooted at `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<TraceSink> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(TraceSink { dir })
    }

    /// The sink's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Export `device`'s spans as `<name>.trace.json` (Chrome trace-event
    /// JSON) plus `<name>.summary.txt` (the per-operator table), after
    /// verifying the trace reconciles against the device's aggregate stats.
    ///
    /// Returns the path of the JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] if the trace fails
    /// reconciliation, and propagates filesystem errors.
    pub fn export(&self, name: &str, device: &crate::Device) -> io::Result<PathBuf> {
        self.export_spans(
            name,
            device.spans(),
            device.stats(),
            device.config().clock_ghz,
        )
    }

    /// [`TraceSink::export`] for a captured span log (e.g. the
    /// `PlanReport` snapshot of a device that has since been dropped).
    /// `aggregate` is the stats block the spans must reconcile against.
    ///
    /// # Errors
    ///
    /// Same contract as [`TraceSink::export`].
    pub fn export_spans(
        &self,
        name: &str,
        spans: &[Span],
        aggregate: &SimStats,
        clock_ghz: f64,
    ) -> io::Result<PathBuf> {
        reconcile(spans, aggregate).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let json = chrome_trace_json(spans, clock_ghz);
        let path = self.dir.join(format!("{name}.trace.json"));
        std::fs::write(&path, &json)?;
        let table = summary_table(&operator_summary(spans));
        std::fs::write(self.dir.join(format!("{name}.summary.txt")), table)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, label: &str, prov: &str, start: u64, cycles: u64, d: SimStats) -> Span {
        Span {
            id: 0,
            kind,
            label: label.into(),
            provenance: prov.into(),
            start_cycle: start,
            end_cycle: start + cycles,
            delta: d,
            engine: None,
        }
    }

    fn kernel_delta(cycles: u64, bytes: u64) -> SimStats {
        SimStats {
            kernel_launches: 1,
            gpu_cycles: cycles,
            global_access_cycles: cycles,
            global_bytes_read: bytes,
            ..SimStats::default()
        }
    }

    #[test]
    fn empty_span_list_exports_well_formed_json() {
        // Regression: the metadata lines used to leave a trailing comma
        // when no span events followed, producing syntactically invalid
        // JSON. An empty trace is still *semantically* empty — the
        // validator reports "no events", not a parse error.
        let json = chrome_trace_json(&[], 1.15);
        let err = validate_chrome_json(&json).unwrap_err();
        assert_eq!(err, "trace contains no events", "got: {err}");
    }

    #[test]
    fn reconcile_accepts_matching_and_rejects_drift() {
        let spans = vec![
            span(SpanKind::Kernel, "k0", "step0", 0, 10, kernel_delta(10, 64)),
            span(SpanKind::Kernel, "k1", "step1", 10, 5, kernel_delta(5, 32)),
        ];
        let mut agg = SimStats::default();
        agg.merge(&spans[0].delta);
        agg.merge(&spans[1].delta);
        assert!(reconcile(&spans, &agg).is_ok());

        agg.global_bytes_read += 1;
        let err = reconcile(&spans, &agg).unwrap_err();
        assert!(err.contains("global_bytes_read"), "{err}");
    }

    #[test]
    fn summary_groups_by_provenance_in_first_seen_order() {
        let spans = vec![
            span(
                SpanKind::Kernel,
                "b.compute",
                "step0:b",
                0,
                10,
                kernel_delta(10, 100),
            ),
            span(
                SpanKind::Kernel,
                "a.compute",
                "step1:a",
                10,
                5,
                kernel_delta(5, 50),
            ),
            span(
                SpanKind::Kernel,
                "b.gather",
                "step0:b",
                15,
                1,
                kernel_delta(1, 8),
            ),
            span(SpanKind::Fault, "fault", "", 16, 0, SimStats::default()),
        ];
        let rows = operator_summary(&spans);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].operator, "step0:b");
        assert_eq!(rows[0].kernels, 2);
        assert_eq!(rows[0].global_bytes, 108);
        assert_eq!(rows[1].operator, "step1:a");
        assert_eq!(rows[2].operator, "(unscoped)");
        assert_eq!(rows[2].faults, 1);
        let table = summary_table(&rows);
        assert!(table.contains("step0:b"));
    }

    #[test]
    fn chrome_json_is_valid_and_counts_events() {
        let spans = vec![
            span(
                SpanKind::Kernel,
                "k\"quoted\"",
                "p\\q",
                0,
                10,
                kernel_delta(10, 64),
            ),
            span(SpanKind::Alloc, "buf", "", 10, 0, SimStats::default()),
            span(
                SpanKind::Transfer,
                "HostToDevice",
                "stage-in",
                10,
                7,
                SimStats {
                    h2d_transfers: 1,
                    h2d_bytes: 64,
                    pcie_seconds: 1e-6,
                    ..SimStats::default()
                },
            ),
        ];
        let json = chrome_trace_json(&spans, 1.15);
        assert_eq!(validate_chrome_json(&json).unwrap(), 3);
    }

    #[test]
    fn streamed_spans_get_one_lane_per_engine() {
        // Three concurrent ops on three distinct engines must land on
        // three distinct rows (tids 3+), each with its own thread_name
        // metadata; an engine-less serial span keeps the legacy lane.
        let mut spans = vec![
            span(SpanKind::Kernel, "k", "q0", 0, 10, kernel_delta(10, 64)),
            span(SpanKind::Transfer, "h2d", "q1", 0, 8, SimStats::default()),
            span(SpanKind::Transfer, "d2h", "q2", 0, 6, SimStats::default()),
            span(SpanKind::Kernel, "serial", "", 20, 4, kernel_delta(4, 16)),
        ];
        spans[0].engine = Some(Engine::Compute(0));
        spans[1].engine = Some(Engine::CopyH2D);
        spans[2].engine = Some(Engine::CopyD2H);
        let json = chrome_trace_json(&spans, 1.15);
        validate_chrome_json(&json).unwrap();
        for lane in ["\"tid\":3", "\"tid\":4", "\"tid\":5"] {
            assert!(json.contains(lane), "missing {lane} in:\n{json}");
        }
        for name in ["engine:compute0", "engine:copy.h2d", "engine:copy.d2h"] {
            assert!(json.contains(name), "missing lane metadata {name}");
        }
        // The serial kernel stays on the fixed compute lane.
        assert!(json.contains("\"name\":\"serial\",\"cat\":\"kernel\",\"ph\":\"X\",\"ts\":"));
        let serial_evt = json
            .lines()
            .find(|l| l.contains("\"name\":\"serial\""))
            .unwrap();
        assert!(serial_evt.contains("\"tid\":0"), "{serial_evt}");
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_chrome_json("").is_err());
        assert!(validate_chrome_json("[]").is_err());
        assert!(validate_chrome_json("{\"traceEvents\":[").is_err());
        assert!(validate_chrome_json("{\"traceEvents\":[]}").is_err());
        // Event without "ph".
        assert!(validate_chrome_json("{\"traceEvents\":[{\"name\":\"x\",\"ts\":1}]}").is_err());
        // Event with a string ts.
        assert!(validate_chrome_json(
            "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":\"1\"}]}"
        )
        .is_err());
        // Trailing garbage.
        assert!(validate_chrome_json(
            "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":1,\"dur\":1}]} junk"
        )
        .is_err());
    }

    /// A kernel span charging `cycles`, for the label-matching tests.
    fn kernel(label: &str, cycles: u64) -> Span {
        span(
            SpanKind::Kernel,
            label,
            "",
            0,
            cycles,
            kernel_delta(cycles, 0),
        )
    }

    #[test]
    fn label_filtering() {
        let spans = vec![
            kernel("sort.partition", 10),
            kernel("sort.compute", 20),
            kernel("select.compute", 5),
            // Only kernel spans count, whatever their label or delta.
            span(SpanKind::Free, "sort", "", 35, 0, kernel_delta(7, 0)),
        ];
        assert_eq!(cycles_for_label(&spans, "sort"), 30);
        assert_eq!(cycles_for_label(&spans, "select"), 5);
    }

    #[test]
    fn matching_is_segment_exact_not_substring() {
        let spans = vec![
            kernel("n4.join.compute", 100),
            kernel("n5.semijoin.compute", 10),
            kernel("n6.antijoin.gather", 1),
        ];
        // "join" previously (substring matching) counted all three.
        assert_eq!(cycles_for_label(&spans, "join"), 100);
        assert_eq!(cycles_for_label(&spans, "semijoin"), 10);
        // Dotted needles match contiguous segment runs, with or without the
        // legacy surrounding dots.
        assert_eq!(cycles_for_label(&spans, "n4.join"), 100);
        assert_eq!(cycles_for_label(&spans, ".join."), 100);
        assert_eq!(cycles_for_label(&spans, "join.gather"), 0);
        // A needle longer than the label never matches.
        assert!(!label_matches("sort", "n7.sort"));
        assert!(label_matches("sort", "sort"));
    }

    #[test]
    fn empty_trace_reconciles_with_empty_stats() {
        assert!(reconcile(&[], &SimStats::default()).is_ok());
        assert!(reconcile(&[], &kernel_delta(1, 1)).is_err());
    }
}
