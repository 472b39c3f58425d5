//! Every metric the benchmark prints: end-to-end metrics from the untraced
//! run, per-layer metrics from the traced run. The names and units here
//! are the ones `BENCHMARK.json` declares.

use std::collections::BTreeMap;

use crate::trace::Tracer;
use crate::workloads::{
    Counters, Sample, ServicePoint, SimFigures, SERVICE_LAYER_RATE, SERVICE_RATES,
};

/// `(name, value, unit)`.
pub type Metric = (&'static str, f64, &'static str);

const MIB: f64 = 1024.0 * 1024.0;

/// Host time of one request.
#[derive(Debug, Clone, Copy)]
pub struct RequestTime {
    /// Position of the request in its pass.
    pub index: usize,
    /// Wall-clock seconds of the request span.
    pub host_s: f64,
    /// Requests it stands for (arrivals for the service).
    pub weight: usize,
}

/// What one measured phase recorded.
#[derive(Debug, Default)]
pub struct Measurement {
    /// Every request, in run order; whole passes only.
    pub requests: Vec<RequestTime>,
    /// Passes completed.
    pub passes: usize,
    /// Checked samples of the first pass, by position.
    pub first_pass: Vec<Option<Sample>>,
    /// Requests attempted and failed, weighted like [`RequestTime::weight`].
    pub attempted: usize,
    /// See [`Measurement::attempted`].
    pub failed: usize,
    /// Why requests failed.
    pub errors: Vec<String>,
    /// Input tuples the traced run's interpreter replay processed.
    pub interp_tuples: u64,
    /// Seconds of each calibration-kernel run during the phase.
    pub calibration_s: Vec<f64>,
}

impl Measurement {
    /// How much slower than the reference the machine ran in this phase.
    pub fn slowdown(&self) -> f64 {
        crate::speed::slowdown(&self.calibration_s)
    }

    /// Requests per host second of request time.
    pub fn host_qps(&self) -> f64 {
        let weight: usize = self.requests.iter().map(|r| r.weight).sum();
        weight as f64 / self.requests.iter().map(|r| r.host_s).sum::<f64>()
    }

    /// A pass's requests per host second of its request time, for the
    /// pass at the 10th percentile of time, as measured.
    pub fn pass_qps(&self) -> f64 {
        let len = (self.requests.len() / self.passes.max(1)).max(1);
        let seconds: Vec<f64> = self
            .requests
            .chunks(len)
            .map(|pass| pass.iter().map(|r| r.host_s).sum())
            .collect();
        let weight: usize = self.requests.iter().take(len).map(|r| r.weight).sum();
        ratio(weight as f64, percentile(&seconds, 0.1))
    }

    /// Mean over a pass's requests of each request's 10th-percentile host
    /// milliseconds across passes (per arrival for the service), as
    /// measured.
    pub fn host_ms_p10(&self) -> f64 {
        let mut by_position: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for r in &self.requests {
            by_position
                .entry(r.index)
                .or_default()
                .push(r.host_s * 1e3 / r.weight as f64);
        }
        let best: Vec<f64> = by_position.values().map(|ms| percentile(ms, 0.1)).collect();
        ratio(best.iter().sum(), best.len() as f64)
    }

    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.first_pass.iter().flatten()
    }

    /// The service figures at `SERVICE_RATES[rate]`; all zero for the plan
    /// workloads.
    fn service_point(&self, rate: usize) -> ServicePoint {
        self.samples()
            .filter_map(|s| s.service)
            .find(|p| p.offered_qps == SERVICE_RATES[rate])
            .unwrap_or_default()
    }
}

/// Nearest-rank percentile of `xs` (sorted here); 0 when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn rss_peak_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The end-to-end metrics of an untraced phase. Host times are scaled to
/// the calibration kernel's reference speed: `setup_s` by the slowdown
/// measured during set-up (`setup_slowdown`), the others by the measured
/// phase's.
///
/// `host_ms_p10` is [`Measurement::host_ms_p10`]. The seed fixes every
/// request's host work, so its time varies only with what else the machine
/// is doing: the 10th percentile is its cost with the least interference.
/// `host_qps` is [`Measurement::pass_qps`]: it sums whole passes, so it
/// also shows costs that land on a different request each pass (amortised
/// resizes, allocator stalls) which the per-request 10th percentile filters
/// out, and takes the 10th-percentile pass so that passes a neighbour
/// slowed do not count.
pub fn end_to_end(
    setup_s: &[f64],
    setup_slowdown: f64,
    m: &Measurement,
    rss_mib: f64,
) -> Vec<Metric> {
    let figures: Vec<&SimFigures> = m.samples().map(|s| &s.sim).collect();
    let sim: Vec<f64> = figures
        .iter()
        .flat_map(|f| f.latencies.iter().copied())
        .collect();
    let busy: f64 = figures.iter().map(|f| f.busy_s).sum();
    let done: usize = figures.iter().map(|f| f.done).sum();
    let peak: u64 = figures.iter().map(|f| f.peak_bytes).sum();
    vec![
        ("setup_s", percentile(setup_s, 0.5) / setup_slowdown, "s"),
        ("host_ms_p10", m.host_ms_p10() / m.slowdown(), "ms"),
        ("host_qps", m.pass_qps() * m.slowdown(), "req/s"),
        ("host_rss_peak_mb", rss_mib, "MiB"),
        ("sim_ms_p50", percentile(&sim, 0.5) * 1e3, "ms"),
        ("sim_ms_p99", percentile(&sim, 0.99) * 1e3, "ms"),
        ("sim_qps", ratio(done as f64, busy), "req/s"),
        (
            "sim_device_peak_mb",
            ratio(peak as f64, figures.len() as f64) / MIB,
            "MiB",
        ),
    ]
}

/// Set-up and bookkeeping figures the traced run reports alongside the
/// layers.
#[derive(Debug, Clone, Copy)]
pub struct Bookkeeping {
    /// Median seconds the set-ups spent generating inputs.
    pub gen_s: f64,
    /// Seconds the oracle took.
    pub oracle_s: f64,
    /// Untraced over traced request throughput, minus one.
    pub trace_overhead: f64,
}

/// Per-layer counts: simulated figures from the first pass, which every
/// run of the same seed reproduces bit for bit.
pub fn layer_counts(m: &Measurement) -> Vec<Metric> {
    let mut c = Counters::default();
    for s in m.samples() {
        c.add(&s.counters);
    }
    let n = c.executions;
    let st = c.stats;
    let at = m.service_point(SERVICE_LAYER_RATE);
    let max_qps_at_slo = (0..SERVICE_RATES.len())
        .map(|r| m.service_point(r))
        .filter(|p| p.sustained)
        .map(|p| p.offered_qps)
        .fold(0.0, f64::max);
    vec![
        (
            "compile.fused_op_share",
            ratio(c.fused_steps, c.steps),
            "ratio",
        ),
        ("compile.steps_per_request", ratio(c.steps, n), "count"),
        (
            "executor.arena_reservation_mb",
            ratio(c.arena_reservation, n) / MIB,
            "MiB",
        ),
        (
            "executor.arena_high_water_mb",
            ratio(c.arena_high_water, n) / MIB,
            "MiB",
        ),
        ("gpu_sim.spans_per_request", ratio(c.spans, n), "count"),
        (
            "gpu_sim.kernel_launches",
            ratio(st.kernel_launches as f64, n),
            "count",
        ),
        (
            "gpu_sim.launch_share",
            ratio(st.launch_cycles as f64, st.gpu_cycles as f64),
            "ratio",
        ),
        (
            "gpu_sim.global_mb",
            ratio(st.global_bytes() as f64, n) / MIB,
            "MiB",
        ),
        (
            "gpu_sim.global_access_cycles",
            ratio(st.global_access_cycles as f64, n),
            "cycles",
        ),
        ("gpu_sim.h2d_mb", ratio(st.h2d_bytes as f64, n) / MIB, "MiB"),
        ("gpu_sim.d2h_mb", ratio(st.d2h_bytes as f64, n) / MIB, "MiB"),
        ("gpu_sim.pcie_ms", ratio(st.pcie_seconds, n) * 1e3, "ms"),
        ("chunked.chunks_per_request", ratio(c.chunks, n), "count"),
        (
            "chunked.overlap_ratio",
            ratio(c.serialized_s, c.total_s),
            "ratio",
        ),
        ("scheduler.dispatches", at.dispatches as f64, "count"),
        ("scheduler.busy_frac", at.busy_frac, "ratio"),
        ("service.queueing_ms_p99", at.queueing_p99_s * 1e3, "ms"),
        ("service.execution_ms_p99", at.execution_p99_s * 1e3, "ms"),
        (
            "service.max_queue_depth",
            at.max_queue_depth as f64,
            "count",
        ),
        ("service.compile_ms_total", at.compile_s * 1e3, "ms"),
        ("service.cache_hit_ratio", at.cache_hit_ratio, "ratio"),
        (
            "service.p99_ms_r5k",
            m.service_point(0).total_p99_s * 1e3,
            "ms",
        ),
        (
            "service.p99_ms_r20k",
            m.service_point(2).total_p99_s * 1e3,
            "ms",
        ),
        (
            "service.achieved_qps_r5k",
            m.service_point(0).achieved_qps,
            "req/s",
        ),
        (
            "service.achieved_qps_r20k",
            m.service_point(2).achieved_qps,
            "req/s",
        ),
        ("service.max_qps_at_slo", max_qps_at_slo, "req/s"),
    ]
}

/// Per-layer host timings of a traced phase, from its spans.
pub fn layer_timings(m: &Measurement, tracer: &Tracer, book: Bookkeeping) -> Vec<Metric> {
    // Span durations (ns) by name; execution and replay time per request.
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut exec_by_req: BTreeMap<u64, f64> = BTreeMap::new();
    let mut interp_by_req: BTreeMap<u64, f64> = BTreeMap::new();
    for s in tracer.spans() {
        let ns = s.ns() as f64;
        by_name.entry(s.name).or_default().push(ns);
        match s.name {
            "executor.execute_compiled" | "resilient.execute_compiled_resilient" => {
                *exec_by_req.entry(s.request).or_default() += ns
            }
            name if name.starts_with("interp.") => {
                *interp_by_req.entry(s.request).or_default() += ns
            }
            _ => {}
        }
    }
    let spans = |name: &str| by_name.get(name).map(Vec::as_slice).unwrap_or(&[]);
    let total = |names: &[&str]| names.iter().flat_map(|n| spans(n)).fold(0.0, |a, b| a + b);
    let mean_us = |name: &str| ratio(total(&[name]), spans(name).len() as f64) / 1e3;
    let p50_us = |name: &str| percentile(spans(name), 0.5) / 1e3;
    let requests = spans("request").len() as f64;
    let per_request_ms = |names: &[&str]| ratio(total(names), requests) / 1e6;

    const EXEC: [&str; 2] = [
        "executor.execute_compiled",
        "resilient.execute_compiled_resilient",
    ];
    const INTERP: [&str; 3] = ["interp.streaming", "interp.sort", "interp.aggregate"];
    const RELATIONAL: [&str; 4] = [
        "relational.streaming",
        "relational.join",
        "relational.sort",
        "relational.aggregate",
    ];
    let exec: Vec<f64> = EXEC.iter().flat_map(|n| spans(n)).copied().collect();
    let self_ns: Vec<f64> = exec_by_req
        .iter()
        .map(|(req, ns)| ns - interp_by_req.get(req).copied().unwrap_or(0.0))
        .collect();
    let chunks: f64 = m
        .samples()
        .map(|s| s.counters.chunks)
        .fold(0.0, |a, b| a + b);
    let chunks_per_request = ratio(chunks, m.samples().count() as f64);
    let is_service = m.samples().any(|s| s.service.is_some());
    let host_ms_per_arrival = |rate: usize| {
        let (s, w) = m
            .requests
            .iter()
            .filter(|r| is_service && r.index == rate)
            .fold((0.0, 0usize), |(s, w), r| (s + r.host_s, w + r.weight));
        ratio(s * 1e3, w as f64)
    };
    let req = tracer.layers().get("request").copied().unwrap_or_default();

    vec![
        ("compile.host_us_p50", p50_us("compile"), "us"),
        ("compile.candidates_us", mean_us("compile.candidates"), "us"),
        ("compile.selection_us", mean_us("compile.selection"), "us"),
        ("compile.weave_us", mean_us("compile.weave"), "us"),
        ("compile.optimize_us", mean_us("compile.optimize"), "us"),
        ("admission.host_us_p50", p50_us("admission.admit"), "us"),
        ("executor.host_ms_p50", percentile(&exec, 0.5) / 1e6, "ms"),
        (
            "executor.self_ms_mean",
            ratio(self_ns.iter().fold(0.0, |a, b| a + b), self_ns.len() as f64) / 1e6,
            "ms",
        ),
        ("interp.streaming_ms", per_request_ms(&INTERP[..1]), "ms"),
        ("interp.sort_ms", per_request_ms(&INTERP[1..2]), "ms"),
        ("interp.aggregate_ms", per_request_ms(&INTERP[2..]), "ms"),
        (
            "interp.ns_per_tuple",
            ratio(total(&INTERP), m.interp_tuples as f64),
            "ns",
        ),
        (
            "relational.ms_per_request",
            per_request_ms(&RELATIONAL),
            "ms",
        ),
        (
            "relational.join_ms",
            per_request_ms(&RELATIONAL[1..2]),
            "ms",
        ),
        (
            "relational.sort_ms",
            per_request_ms(&RELATIONAL[2..3]),
            "ms",
        ),
        (
            "relational.aggregate_ms",
            per_request_ms(&RELATIONAL[3..]),
            "ms",
        ),
        ("gpu_sim.device_new_us", p50_us("gpu_sim.device_new"), "us"),
        (
            "chunked.host_ms_per_chunk",
            ratio(per_request_ms(&EXEC[1..]), chunks_per_request),
            "ms",
        ),
        (
            "service.host_ms_per_arrival_r5k",
            host_ms_per_arrival(0),
            "ms",
        ),
        (
            "service.host_ms_per_arrival_r10k",
            host_ms_per_arrival(1),
            "ms",
        ),
        (
            "service.host_ms_per_arrival_r20k",
            host_ms_per_arrival(2),
            "ms",
        ),
        ("tpch.gen_s", book.gen_s, "s"),
        ("bench.oracle_s", book.oracle_s, "s"),
        ("bench.trace_overhead", book.trace_overhead, "ratio"),
        ("bench.host_slowdown", m.slowdown(), "ratio"),
        (
            "bench.span_coverage",
            ratio((req.total_ns - req.self_ns) as f64, req.total_ns as f64),
            "ratio",
        ),
    ]
}
