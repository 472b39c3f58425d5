//! Bottleneck-attribution profiling.
//!
//! The span log says *what* each operation charged; this module says what
//! that implies: where a plan (or batch) sits on a roofline-style
//! classification. [`ProfileReport`] folds span deltas and the aggregate
//! [`SimStats`] into achieved-vs-peak bandwidth figures for global memory
//! and PCIe, busy fractions for the GPU and the link, the launch-overhead
//! share, and a single [`Bottleneck`] verdict — per run and per operator.
//!
//! Classification rule (documented in DESIGN.md):
//!
//! 1. If PCIe busy time is at least GPU busy time, the run is
//!    **transfer**-bound — the link is the busiest resource, so no amount
//!    of kernel fusion helps until data movement shrinks (the paper's
//!    argument for why pattern (d) stays transfer-dominated on Fermi).
//! 2. Otherwise the dominant component of the GPU's own cycles decides:
//!    launch cycles → **launch**-bound (the overhead fusion exists to
//!    amortize), global-memory access cycles → **memory**-bound (the
//!    traffic fusion exists to eliminate), everything else (shared, ALU,
//!    barriers) → **compute**-bound.
//!
//! Every figure derives from the simulated cycle clock, so profiles are
//! deterministic and byte-stable across identical runs.

use std::fmt;

use kw_gpu_sim::{escape_json, json_f64, DeviceConfig, SimStats, Span};

/// Which resource bounds a run (or one operator's slice of it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// PCIe transfer time dominates: the link is the busiest resource.
    Transfer,
    /// Kernel-launch overhead dominates the GPU's own cycles.
    Launch,
    /// Global-memory access cycles dominate the GPU's own cycles.
    Memory,
    /// Shared-memory/ALU/barrier cycles dominate: genuinely compute-bound.
    Compute,
}

impl Bottleneck {
    /// Stable lowercase name used in JSON exports and bench baselines.
    pub fn name(self) -> &'static str {
        match self {
            Bottleneck::Transfer => "transfer",
            Bottleneck::Launch => "launch",
            Bottleneck::Memory => "memory",
            Bottleneck::Compute => "compute",
        }
    }
}

impl fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One operator's (or query's) slice of a profile: costs are grouped by
/// the outermost provenance frame, which is the operator step for a plan
/// execution and the query scope for a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorProfile {
    /// The outermost provenance frame (e.g. `step0:select` or `q1:beta`),
    /// `(unscoped)` for spans recorded outside any scope.
    pub operator: String,
    /// GPU seconds charged under this scope.
    pub gpu_seconds: f64,
    /// PCIe seconds charged under this scope.
    pub pcie_seconds: f64,
    /// Launch cycles as a fraction of this scope's GPU cycles.
    pub launch_share: f64,
    /// Global-memory access cycles as a fraction of this scope's GPU cycles.
    pub memory_share: f64,
    /// This scope's verdict under the classification rule.
    pub bottleneck: Bottleneck,
    /// For batch executions: the owning query's outcome (`completed`,
    /// `retried`, `degraded`, `failed`), folded in by the scheduler via
    /// [`ProfileReport::annotate_outcomes`]. `None` for plan-level rows.
    pub outcome: Option<String>,
}

/// Roofline-style attribution for one execution: achieved vs. peak
/// bandwidths, busy fractions, launch share, and a [`Bottleneck`] verdict,
/// plus the same breakdown per operator/query.
///
/// Attached to every `PlanReport` and `BatchReport`, folded over the
/// report's window of the device's record: its spans and stats delta.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// The wall time the figures are normalized against (the run's
    /// end-to-end seconds on the simulated clock).
    pub wall_seconds: f64,
    /// Seconds the GPU spent executing kernels.
    pub gpu_busy_seconds: f64,
    /// Seconds the PCIe link spent transferring.
    pub pcie_busy_seconds: f64,
    /// `gpu_busy_seconds / wall_seconds` (0 for a zero-wall run).
    pub gpu_busy_fraction: f64,
    /// `pcie_busy_seconds / wall_seconds` (0 for a zero-wall run).
    pub pcie_busy_fraction: f64,
    /// Seconds of pure kernel-launch overhead.
    pub launch_seconds: f64,
    /// Launch cycles as a fraction of all GPU cycles.
    pub launch_share: f64,
    /// Global-memory access cycles as a fraction of all GPU cycles.
    pub memory_share: f64,
    /// Achieved global-memory bandwidth over the wall time, GB/s.
    pub achieved_global_gbs: f64,
    /// The device's peak global-memory bandwidth, GB/s.
    pub peak_global_gbs: f64,
    /// `achieved_global_gbs / peak_global_gbs`.
    pub global_bw_utilization: f64,
    /// Achieved PCIe bandwidth over the wall time, GB/s.
    pub achieved_pcie_gbs: f64,
    /// The device's peak PCIe bandwidth, GB/s.
    pub peak_pcie_gbs: f64,
    /// `achieved_pcie_gbs / peak_pcie_gbs`.
    pub pcie_bw_utilization: f64,
    /// The run-level verdict.
    pub bottleneck: Bottleneck,
    /// Per-operator (plan) or per-query (batch) breakdown, in first-seen
    /// span order.
    pub operators: Vec<OperatorProfile>,
    /// The device's memory high-water mark when the report was built,
    /// bytes — a device-lifetime figure, not the window's — including
    /// footprint reached on forked scratch devices (chunked execution folds
    /// it back via [`kw_gpu_sim::Device::absorb_scratch`]). Zero when the
    /// caller had no memory tracker in scope (e.g. profiles built from bare
    /// span logs).
    pub peak_device_bytes: u64,
}

/// The classification rule shared by the run-level and per-operator
/// verdicts. `other_cycles` is everything in `gpu_cycles` that is neither
/// launch nor global-memory access.
fn classify(
    gpu_seconds: f64,
    pcie_seconds: f64,
    launch_cycles: u64,
    global_cycles: u64,
    other_cycles: u64,
) -> Bottleneck {
    if pcie_seconds >= gpu_seconds && pcie_seconds > 0.0 {
        Bottleneck::Transfer
    } else if launch_cycles >= global_cycles && launch_cycles >= other_cycles {
        Bottleneck::Launch
    } else if global_cycles >= other_cycles {
        Bottleneck::Memory
    } else {
        Bottleneck::Compute
    }
}

fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl ProfileReport {
    /// Build a profile from a span log, the matching aggregate stats, the
    /// device configuration, and the run's wall seconds.
    ///
    /// `wall_seconds` is the end-to-end time the caller reports for the
    /// run (serialized seconds for a serial run, pipelined makespan for a
    /// streamed one); busy fractions and achieved bandwidths are
    /// normalized against it.
    pub fn from_spans(
        spans: &[Span],
        stats: &SimStats,
        config: &DeviceConfig,
        wall_seconds: f64,
    ) -> ProfileReport {
        ProfileReport::from_spans_with_residual(spans, stats, config, wall_seconds, 0.0)
    }

    /// [`ProfileReport::from_spans`] plus transfer seconds the span log
    /// cannot carry: a chunked run folds staged-intermediate round trips
    /// into its compute spans (a compute span's stat delta must be
    /// compute-only), so the chunked executor passes those *residual* PCIe
    /// seconds here and the run-level link-busy figures and bottleneck
    /// verdict count them. Per-operator rows still attribute boundary
    /// transfers only — the residual is not attributable to a single frame.
    pub fn from_spans_with_residual(
        spans: &[Span],
        stats: &SimStats,
        config: &DeviceConfig,
        wall_seconds: f64,
        residual_pcie_seconds: f64,
    ) -> ProfileReport {
        let gpu_busy_seconds = config.cycles_to_seconds(stats.gpu_cycles);
        let pcie_busy_seconds = stats.pcie_seconds + residual_pcie_seconds;
        let other_cycles = stats
            .gpu_cycles
            .saturating_sub(stats.launch_cycles + stats.global_access_cycles);

        // Per-operator rows: group span deltas by the outermost provenance
        // frame, in first-seen order.
        let mut order: Vec<String> = Vec::new();
        let mut groups: std::collections::BTreeMap<String, SimStats> =
            std::collections::BTreeMap::new();
        for s in spans {
            let key = match s.provenance.split('/').next() {
                Some(first) if !first.is_empty() => first.to_string(),
                _ => "(unscoped)".to_string(),
            };
            if !groups.contains_key(&key) {
                order.push(key.clone());
            }
            groups.entry(key).or_default().merge(&s.delta);
        }
        let operators = order
            .into_iter()
            .map(|key| {
                let g = &groups[&key];
                let g_other = g
                    .gpu_cycles
                    .saturating_sub(g.launch_cycles + g.global_access_cycles);
                let g_gpu_seconds = config.cycles_to_seconds(g.gpu_cycles);
                OperatorProfile {
                    bottleneck: classify(
                        g_gpu_seconds,
                        g.pcie_seconds,
                        g.launch_cycles,
                        g.global_access_cycles,
                        g_other,
                    ),
                    operator: key,
                    gpu_seconds: g_gpu_seconds,
                    pcie_seconds: g.pcie_seconds,
                    launch_share: frac(g.launch_cycles as f64, g.gpu_cycles as f64),
                    memory_share: frac(g.global_access_cycles as f64, g.gpu_cycles as f64),
                    outcome: None,
                }
            })
            .collect();

        let mut profile = ProfileReport {
            wall_seconds: 0.0,
            gpu_busy_seconds,
            pcie_busy_seconds,
            gpu_busy_fraction: 0.0,
            pcie_busy_fraction: 0.0,
            launch_seconds: config.cycles_to_seconds(stats.launch_cycles),
            launch_share: frac(stats.launch_cycles as f64, stats.gpu_cycles as f64),
            memory_share: frac(stats.global_access_cycles as f64, stats.gpu_cycles as f64),
            achieved_global_gbs: 0.0,
            peak_global_gbs: config.global_bandwidth_gbs,
            global_bw_utilization: 0.0,
            achieved_pcie_gbs: 0.0,
            peak_pcie_gbs: config.pcie_bandwidth_gbs,
            pcie_bw_utilization: 0.0,
            bottleneck: classify(
                gpu_busy_seconds,
                pcie_busy_seconds,
                stats.launch_cycles,
                stats.global_access_cycles,
                other_cycles,
            ),
            operators,
            peak_device_bytes: 0,
        };
        profile.set_wall_seconds(wall_seconds, stats);
        profile
    }

    /// Re-normalize the wall-dependent figures (busy fractions, achieved
    /// bandwidths and utilizations) against `wall_seconds`; `stats` must
    /// be the aggregate the profile was built from. The resilient driver
    /// uses this to add retry backoff to a chunked run's wall.
    pub(crate) fn set_wall_seconds(&mut self, wall_seconds: f64, stats: &SimStats) {
        self.wall_seconds = wall_seconds;
        self.gpu_busy_fraction = frac(self.gpu_busy_seconds, wall_seconds);
        self.pcie_busy_fraction = frac(self.pcie_busy_seconds, wall_seconds);
        self.achieved_global_gbs = frac(stats.global_bytes() as f64, wall_seconds) / 1e9;
        self.global_bw_utilization = frac(self.achieved_global_gbs, self.peak_global_gbs);
        self.achieved_pcie_gbs = frac(stats.pcie_bytes() as f64, wall_seconds) / 1e9;
        self.pcie_bw_utilization = frac(self.achieved_pcie_gbs, self.peak_pcie_gbs);
    }

    /// Fold per-query batch outcomes into the matching operator rows:
    /// every row whose scope starts with an `(scope, outcome)` pair's
    /// scope gets that outcome label. Rows without a match keep `None`.
    pub fn annotate_outcomes(&mut self, outcomes: &[(String, String)]) {
        for row in &mut self.operators {
            if let Some((_, outcome)) = outcomes.iter().find(|(scope, _)| &row.operator == scope) {
                row.outcome = Some(outcome.clone());
            }
        }
    }

    /// Machine-readable JSON (hand-rolled, like every exporter in this
    /// workspace). Byte-stable across identical runs.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"bottleneck\": \"{}\",", self.bottleneck);
        for (key, value) in [
            ("wall_seconds", self.wall_seconds),
            ("gpu_busy_seconds", self.gpu_busy_seconds),
            ("pcie_busy_seconds", self.pcie_busy_seconds),
            ("gpu_busy_fraction", self.gpu_busy_fraction),
            ("pcie_busy_fraction", self.pcie_busy_fraction),
            ("launch_seconds", self.launch_seconds),
            ("launch_share", self.launch_share),
            ("memory_share", self.memory_share),
            ("achieved_global_gbs", self.achieved_global_gbs),
            ("peak_global_gbs", self.peak_global_gbs),
            ("global_bw_utilization", self.global_bw_utilization),
            ("achieved_pcie_gbs", self.achieved_pcie_gbs),
            ("peak_pcie_gbs", self.peak_pcie_gbs),
            ("pcie_bw_utilization", self.pcie_bw_utilization),
        ] {
            let _ = writeln!(out, "  \"{key}\": {},", json_f64(value));
        }
        let _ = writeln!(out, "  \"peak_device_bytes\": {},", self.peak_device_bytes);
        out.push_str("  \"operators\": [");
        for (i, op) in self.operators.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let outcome = match &op.outcome {
                Some(o) => format!(", \"outcome\": \"{}\"", escape_json(o)),
                None => String::new(),
            };
            let _ = write!(
                out,
                "\n    {{\"operator\": \"{}\", \"bottleneck\": \"{}\", \
                 \"gpu_seconds\": {}, \"pcie_seconds\": {}, \
                 \"launch_share\": {}, \"memory_share\": {}{}}}",
                escape_json(&op.operator),
                op.bottleneck,
                json_f64(op.gpu_seconds),
                json_f64(op.pcie_seconds),
                json_f64(op.launch_share),
                json_f64(op.memory_share),
                outcome,
            );
        }
        if self.operators.is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }

    /// Human-readable summary block for examples and `paper_tables`.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bottleneck: {}  (wall {:.3} ms, gpu busy {:.0}%, pcie busy {:.0}%, launch share {:.0}%)",
            self.bottleneck,
            self.wall_seconds * 1e3,
            self.gpu_busy_fraction * 100.0,
            self.pcie_busy_fraction * 100.0,
            self.launch_share * 100.0,
        );
        let _ = writeln!(
            out,
            "global mem: {:.2} / {:.1} GB/s ({:.1}% of peak)   pcie: {:.2} / {:.1} GB/s ({:.1}% of peak)",
            self.achieved_global_gbs,
            self.peak_global_gbs,
            self.global_bw_utilization * 100.0,
            self.achieved_pcie_gbs,
            self.peak_pcie_gbs,
            self.pcie_bw_utilization * 100.0,
        );
        for op in &self.operators {
            let _ = writeln!(
                out,
                "  {:<44} {:>8}  gpu {:>9.3} ms  pcie {:>9.3} ms  launch {:>4.0}%  mem {:>4.0}%{}",
                op.operator,
                op.bottleneck.name(),
                op.gpu_seconds * 1e3,
                op.pcie_seconds * 1e3,
                op.launch_share * 100.0,
                op.memory_share * 100.0,
                match &op.outcome {
                    Some(o) => format!("  [{o}]"),
                    None => String::new(),
                },
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_gpu_sim::parse_json;

    fn span(prov: &str, delta: SimStats) -> Span {
        Span {
            id: 0,
            kind: kw_gpu_sim::SpanKind::Kernel,
            label: "k".into(),
            provenance: prov.into(),
            start_cycle: 0,
            end_cycle: delta.gpu_cycles,
            delta,
            engine: None,
        }
    }

    #[test]
    fn classify_covers_all_regimes() {
        // Link busier than GPU → transfer.
        assert_eq!(classify(1e-3, 2e-3, 0, 100, 0), Bottleneck::Transfer);
        // GPU busier; launch cycles dominate → launch.
        assert_eq!(classify(2e-3, 1e-3, 600, 100, 100), Bottleneck::Launch);
        // Global-access cycles dominate → memory.
        assert_eq!(classify(2e-3, 1e-3, 10, 600, 100), Bottleneck::Memory);
        // Shared/ALU/barrier cycles dominate → compute.
        assert_eq!(classify(2e-3, 0.0, 10, 100, 600), Bottleneck::Compute);
        // Degenerate all-zero run falls through to launch, never transfer.
        assert_eq!(classify(0.0, 0.0, 0, 0, 0), Bottleneck::Launch);
    }

    #[test]
    fn profile_groups_by_outer_provenance_and_validates() {
        let config = kw_gpu_sim::DeviceConfig::fermi_c2050();
        let mk = |launch: u64, global: u64| SimStats {
            kernel_launches: 1,
            launch_cycles: launch,
            global_access_cycles: global,
            gpu_cycles: launch + global,
            global_bytes_read: 1 << 20,
            ..SimStats::default()
        };
        let spans = vec![
            span("step0:sel/inner", mk(6000, 100)),
            span("step0:sel/other", mk(6000, 50)),
            span("step1:join", mk(10, 90_000)),
        ];
        let mut stats = SimStats::default();
        for s in &spans {
            stats.merge(&s.delta);
        }
        let wall = config.cycles_to_seconds(stats.gpu_cycles);
        let p = ProfileReport::from_spans(&spans, &stats, &config, wall);
        assert_eq!(p.operators.len(), 2, "inner frames fold into step0:sel");
        assert_eq!(p.operators[0].operator, "step0:sel");
        assert_eq!(p.operators[0].bottleneck, Bottleneck::Launch);
        assert_eq!(p.operators[1].bottleneck, Bottleneck::Memory);
        assert!((p.gpu_busy_fraction - 1.0).abs() < 1e-9);
        assert_eq!(p.bottleneck, Bottleneck::Memory);
        parse_json(&p.to_json()).expect("profile JSON parses");
        assert!(p.to_json().contains("\"bottleneck\": \"memory\""));
        assert!(p.summary().contains("step1:join"));
    }

    #[test]
    fn outcome_annotation_reaches_matching_rows_and_json() {
        let config = kw_gpu_sim::DeviceConfig::fermi_c2050();
        let mk = SimStats {
            kernel_launches: 1,
            launch_cycles: 10,
            gpu_cycles: 10,
            ..SimStats::default()
        };
        let spans = vec![span("q0:alpha/step0", mk), span("q1:beta/step0", mk)];
        let mut stats = SimStats::default();
        for s in &spans {
            stats.merge(&s.delta);
        }
        let mut p = ProfileReport::from_spans(&spans, &stats, &config, 1e-3);
        p.annotate_outcomes(&[("q1:beta".to_string(), "retried".to_string())]);
        assert_eq!(p.operators[0].outcome, None);
        assert_eq!(p.operators[1].outcome.as_deref(), Some("retried"));
        let json = p.to_json();
        parse_json(&json).expect("annotated profile JSON parses");
        assert!(json.contains("\"outcome\": \"retried\""));
        assert!(p.summary().contains("[retried]"));
    }

    #[test]
    fn residual_transfer_seconds_count_toward_the_link() {
        // A chunked run's staged-intermediate round trips are invisible to
        // the span log (folded into compute spans); the residual-aware
        // constructor must still charge them to the PCIe busy figures and
        // let them flip the run-level verdict to transfer-bound.
        let config = kw_gpu_sim::DeviceConfig::fermi_c2050();
        let stats = SimStats {
            kernel_launches: 1,
            launch_cycles: 10,
            global_access_cycles: 900_000,
            gpu_cycles: 1_000_000,
            pcie_seconds: 1e-6,
            ..SimStats::default()
        };
        let wall = config.cycles_to_seconds(stats.gpu_cycles) + 1e-3;
        let without = ProfileReport::from_spans(&[], &stats, &config, wall);
        let with = ProfileReport::from_spans_with_residual(&[], &stats, &config, wall, 1e-3);
        assert!((with.pcie_busy_seconds - (without.pcie_busy_seconds + 1e-3)).abs() < 1e-15);
        assert!(with.pcie_busy_fraction > without.pcie_busy_fraction);
        assert_eq!(without.bottleneck, Bottleneck::Memory);
        assert_eq!(with.bottleneck, Bottleneck::Transfer);
    }

    #[test]
    fn zero_wall_profile_is_all_zeroes() {
        let config = kw_gpu_sim::DeviceConfig::fermi_c2050();
        let p = ProfileReport::from_spans(&[], &SimStats::default(), &config, 0.0);
        assert_eq!(p.gpu_busy_fraction, 0.0);
        assert_eq!(p.global_bw_utilization, 0.0);
        assert!(p.operators.is_empty());
        parse_json(&p.to_json()).expect("empty profile JSON parses");
    }
}
