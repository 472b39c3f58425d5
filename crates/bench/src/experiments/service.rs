//! Open-loop service saturation: offered load vs latency SLO, with and
//! without the compiled-plan cache.
//!
//! The scheduler experiment answers "how fast does a fixed batch run";
//! this campaign answers the serving question: *what offered load can one
//! device sustain at a latency SLO, and how much of that headroom does
//! plan caching buy?* For each device preset it:
//!
//! 1. **probes** the unloaded system (1 query/s) to calibrate a per-device
//!    SLO (3x the unloaded total p99) and the serial service rate
//!    (1 / mean execution latency);
//! 2. **sweeps** offered load across multiples of that serial rate, from
//!    deep under-load to well past saturation;
//! 3. at every load runs the *same seeded arrival schedule* twice — plan
//!    cache enabled vs the compile-per-arrival baseline — and records
//!    queueing/execution/total percentiles, achieved QPS and cache
//!    counters for both;
//! 4. reports the **saturation knee**: the highest offered load whose
//!    cached run still met the SLO.
//!
//! Invariants asserted on every row: exactly one cache lookup per arrival
//! (hits + misses == arrivals), the cached run's total p99 strictly beats
//! the uncached run's, and cached achieved QPS never loses.

use kw_core::{run_service, BatchQuery, ServiceConfig, ServiceReport, WeaverConfig};
use kw_gpu_sim::{Device, DeviceConfig};
use kw_relational::Relation;
use kw_tpch::Workload;

use super::scheduler::MIX;

/// Arrivals per service run of the full campaign.
pub const ARRIVALS: usize = 96;
/// Offered-load multiples of the probe-derived serial service rate.
pub const LOAD_FACTORS: [f64; 6] = [0.1, 0.5, 1.0, 2.0, 4.0, 8.0];
/// SLO calibration: the latency objective is this multiple of the unloaded
/// total p99.
pub const SLO_FACTOR: f64 = 3.0;
/// Plan-cache capacity of the cached variant.
pub const CACHE_CAPACITY: usize = 32;

/// Device presets the campaign sweeps.
pub fn device_presets() -> Vec<(&'static str, DeviceConfig)> {
    vec![
        ("fermi_c2050", DeviceConfig::fermi_c2050()),
        ("fused_apu", DeviceConfig::fused_apu()),
    ]
}

/// One service run's reported metrics (one load, one cache setting).
#[derive(Debug, Clone)]
pub struct VariantRow {
    /// Successful queries per second of service span.
    pub achieved_qps: f64,
    /// Arrivals that produced outputs.
    pub completed: usize,
    /// Arrivals quarantined.
    pub failed: usize,
    /// Dispatch batches issued.
    pub dispatches: usize,
    /// Deepest the admission queue got.
    pub max_queue_depth: usize,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses.
    pub cache_misses: u64,
    /// Plan-cache LRU evictions.
    pub cache_evictions: u64,
    /// Simulated compile seconds charged across all misses.
    pub compile_seconds_total: f64,
    /// Sum of dispatch makespans, seconds.
    pub busy_seconds: f64,
    /// Service span, seconds.
    pub duration_seconds: f64,
    /// Queueing-delay p99 over successes, seconds.
    pub queueing_p99_seconds: f64,
    /// Execution-latency p99 over successes, seconds.
    pub execution_p99_seconds: f64,
    /// Total-latency percentiles over successes, seconds.
    pub total_p50_seconds: f64,
    /// 95th percentile of total latency.
    pub total_p95_seconds: f64,
    /// 99th percentile of total latency — the SLO metric.
    pub total_p99_seconds: f64,
    /// Whether total p99 met the SLO.
    pub slo_met: bool,
}

impl VariantRow {
    fn from_report(r: &ServiceReport) -> VariantRow {
        VariantRow {
            achieved_qps: r.achieved_qps,
            completed: r.completed,
            failed: r.failed,
            dispatches: r.dispatches,
            max_queue_depth: r.max_queue_depth,
            cache_hits: r.cache_hits,
            cache_misses: r.cache_misses,
            cache_evictions: r.cache_evictions,
            compile_seconds_total: r.compile_seconds_total,
            busy_seconds: r.busy_seconds,
            duration_seconds: r.duration_seconds,
            queueing_p99_seconds: r.queueing.p99_seconds,
            execution_p99_seconds: r.execution.p99_seconds,
            total_p50_seconds: r.total.p50_seconds,
            total_p95_seconds: r.total.p95_seconds,
            total_p99_seconds: r.total.p99_seconds,
            slo_met: r.slo_met,
        }
    }
}

/// One offered load: the cached and uncached runs side by side.
#[derive(Debug, Clone)]
pub struct LoadRow {
    /// Offered load of both runs, queries per second.
    pub offered_qps: f64,
    /// This row's multiple of the probe-derived serial rate.
    pub load_factor: f64,
    /// The plan-cache-enabled run.
    pub cached: VariantRow,
    /// The compile-per-arrival baseline.
    pub uncached: VariantRow,
}

impl LoadRow {
    /// How much the cache shrank total p99 (`> 1` = cache wins).
    pub fn p99_gain(&self) -> f64 {
        if self.cached.total_p99_seconds > 0.0 {
            self.uncached.total_p99_seconds / self.cached.total_p99_seconds
        } else {
            0.0
        }
    }
}

/// One device's full saturation sweep.
#[derive(Debug, Clone)]
pub struct DeviceSweep {
    /// Device preset name.
    pub device: &'static str,
    /// The calibrated latency objective (SLO_FACTOR x unloaded p99).
    pub slo_p99_seconds: f64,
    /// Probe-derived serial service rate (1 / mean unloaded execution).
    pub base_qps: f64,
    /// The saturation knee: highest offered load whose cached run met the
    /// SLO (0 when even the lightest load broke it).
    pub saturation_offered_qps: f64,
    /// One row per entry of [`LOAD_FACTORS`].
    pub rows: Vec<LoadRow>,
}

/// Run the full campaign: every device preset, every load factor.
pub fn run(n: usize, arrivals: usize) -> Vec<DeviceSweep> {
    device_presets()
        .into_iter()
        .map(|(name, cfg)| sweep_device(name, cfg, n, arrivals))
        .collect()
}

fn sweep_device(
    name: &'static str,
    device_config: DeviceConfig,
    n: usize,
    arrivals: usize,
) -> DeviceSweep {
    let workloads: Vec<Workload> = MIX
        .iter()
        .enumerate()
        .map(|(i, p)| p.build(n, super::SEED + i as u64))
        .collect();
    let bindings: Vec<Vec<(&str, &Relation)>> = workloads.iter().map(|w| w.bindings()).collect();
    let shapes: Vec<BatchQuery<'_>> = workloads
        .iter()
        .zip(&bindings)
        .map(|(w, b)| BatchQuery {
            name: &w.name,
            plan: &w.plan,
            bindings: b,
        })
        .collect();
    let config = WeaverConfig::default();
    let run_one = |offered_qps: f64, cache_capacity: usize, slo: f64| -> ServiceReport {
        let mut dev = Device::new(device_config.clone());
        let service = ServiceConfig {
            offered_qps,
            arrivals,
            seed: super::SEED,
            slo_p99_seconds: slo,
            cache_capacity,
            ..ServiceConfig::default()
        };
        run_service(&shapes, &mut dev, &config, &service).expect("service run")
    };

    // Probe the unloaded system: 1 query per simulated second is far below
    // any device's service rate, so its p99 and mean execution are the
    // no-queueing baselines.
    let probe = run_one(1.0, CACHE_CAPACITY, f64::INFINITY);
    assert_eq!(probe.completed, arrivals, "probe must complete everything");
    let slo_p99_seconds = SLO_FACTOR * probe.total.p99_seconds;
    assert!(
        slo_p99_seconds > 0.0 && slo_p99_seconds.is_finite(),
        "{name}: the calibrated SLO must be a positive latency, got {slo_p99_seconds}"
    );
    let base_qps = 1.0 / probe.mean_execution_seconds;

    let rows: Vec<LoadRow> = LOAD_FACTORS
        .iter()
        .map(|&factor| {
            let offered_qps = factor * base_qps;
            let cached =
                VariantRow::from_report(&run_one(offered_qps, CACHE_CAPACITY, slo_p99_seconds));
            let uncached = VariantRow::from_report(&run_one(offered_qps, 0, slo_p99_seconds));
            for v in [&cached, &uncached] {
                assert_eq!(
                    v.cache_hits + v.cache_misses,
                    arrivals as u64,
                    "{name}: exactly one cache lookup per arrival"
                );
                assert_eq!(
                    v.completed + v.failed,
                    arrivals,
                    "{name}: arrivals accounted"
                );
            }
            assert!(cached.cache_hits > 0, "{name}: repeated shapes must hit");
            assert_eq!(uncached.cache_hits, 0, "{name}: disabled cache never hits");
            assert!(
                cached.total_p99_seconds < uncached.total_p99_seconds,
                "{name} @ {offered_qps:.0} qps: cached p99 {} must strictly beat uncached {}",
                cached.total_p99_seconds,
                uncached.total_p99_seconds
            );
            assert!(
                cached.achieved_qps >= uncached.achieved_qps - 1e-9,
                "{name} @ {offered_qps:.0} qps: cache must never lose throughput"
            );
            LoadRow {
                offered_qps,
                load_factor: factor,
                cached,
                uncached,
            }
        })
        .collect();

    let saturation_offered_qps = rows
        .iter()
        .filter(|r| r.cached.slo_met)
        .map(|r| r.offered_qps)
        .fold(0.0f64, f64::max);

    DeviceSweep {
        device: name,
        slo_p99_seconds,
        base_qps,
        saturation_offered_qps,
        rows,
    }
}

/// A number or an explicit `null` when the run had no successes (a
/// percentile over zero queries is meaningless, and the gate must see
/// that, not a fake zero).
fn num_or_null(v: f64, completed: usize) -> String {
    if completed == 0 {
        "null".to_string()
    } else {
        format!("{v}")
    }
}

fn variant_json(v: &VariantRow) -> String {
    format!(
        "{{\"achieved_qps\": {}, \"completed\": {}, \"failed\": {}, \
         \"dispatches\": {}, \"max_queue_depth\": {}, \"cache_hits\": {}, \
         \"cache_misses\": {}, \"cache_evictions\": {}, \
         \"compile_seconds_total\": {}, \"busy_seconds\": {}, \
         \"duration_seconds\": {}, \"queueing_p99_seconds\": {}, \
         \"execution_p99_seconds\": {}, \"total_p50_seconds\": {}, \
         \"total_p95_seconds\": {}, \"total_p99_seconds\": {}, \"slo_met\": {}}}",
        v.achieved_qps,
        v.completed,
        v.failed,
        v.dispatches,
        v.max_queue_depth,
        v.cache_hits,
        v.cache_misses,
        v.cache_evictions,
        v.compile_seconds_total,
        v.busy_seconds,
        v.duration_seconds,
        num_or_null(v.queueing_p99_seconds, v.completed),
        num_or_null(v.execution_p99_seconds, v.completed),
        num_or_null(v.total_p50_seconds, v.completed),
        num_or_null(v.total_p95_seconds, v.completed),
        num_or_null(v.total_p99_seconds, v.completed),
        v.slo_met
    )
}

/// Render the campaign as the machine-readable `BENCH_service.json`
/// document the CI gate parses (hand-rolled: the workspace carries no JSON
/// serializer dependency).
pub fn to_json(n: usize, arrivals: usize, sweeps: &[DeviceSweep]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"service\",\n");
    out.push_str(&format!("  \"tuples_per_query\": {n},\n"));
    out.push_str(&format!("  \"arrivals\": {arrivals},\n"));
    out.push_str(&format!("  \"shapes\": {},\n", MIX.len()));
    out.push_str(&format!("  \"seed\": {},\n", super::SEED));
    out.push_str("  \"configs\": [\n");
    for (i, s) in sweeps.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"device\": \"{}\", \"slo_p99_seconds\": {}, \"base_qps\": {}, \
             \"saturation_offered_qps\": {},\n     \"rows\": [\n",
            s.device, s.slo_p99_seconds, s.base_qps, s.saturation_offered_qps
        ));
        for (j, r) in s.rows.iter().enumerate() {
            let p99_gain = if r.cached.completed == 0 || r.uncached.completed == 0 {
                "null".to_string()
            } else {
                format!("{}", r.p99_gain())
            };
            out.push_str(&format!(
                "      {{\"offered_qps\": {}, \"load_factor\": {}, \"p99_gain\": {p99_gain}, \
                 \"cached\": {}, \"uncached\": {}}}{}\n",
                r.offered_qps,
                r.load_factor,
                variant_json(&r.cached),
                variant_json(&r.uncached),
                if j + 1 < s.rows.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "     ]}}{}\n",
            if i + 1 < sweeps.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_run_beats_uncached_at_every_load() {
        // One small device, two loads: the assertions inside sweep_device
        // are the test (one lookup per arrival, cached p99 strictly wins,
        // throughput never loses).
        let sweep = sweep_device("fermi_c2050", DeviceConfig::fermi_c2050(), 1 << 12, 16);
        assert_eq!(sweep.rows.len(), LOAD_FACTORS.len());
        assert!(sweep.slo_p99_seconds > 0.0);
        assert!(sweep.base_qps > 0.0);
        for r in &sweep.rows {
            assert!(r.p99_gain() > 1.0, "cache must shrink p99 at every load");
        }
    }

    #[test]
    fn sweep_finds_a_saturation_knee() {
        let sweep = sweep_device("fermi_c2050", DeviceConfig::fermi_c2050(), 1 << 12, 24);
        let first = sweep.rows.first().expect("rows");
        let last = sweep.rows.last().expect("rows");
        assert!(
            first.cached.slo_met,
            "lightest load must meet the calibrated SLO: p99 {} vs slo {}",
            first.cached.total_p99_seconds, sweep.slo_p99_seconds
        );
        assert!(
            !last.cached.slo_met,
            "heaviest load must break the SLO: p99 {} vs slo {}",
            last.cached.total_p99_seconds, sweep.slo_p99_seconds
        );
        assert!(sweep.saturation_offered_qps > 0.0);
        assert!(sweep.saturation_offered_qps < last.offered_qps);
    }

    #[test]
    fn json_export_is_well_formed() {
        let sweeps = vec![sweep_device(
            "fermi_c2050",
            DeviceConfig::fermi_c2050(),
            1 << 12,
            16,
        )];
        let json = to_json(1 << 12, 16, &sweeps);
        kw_gpu_sim::validate_json(&json).expect("service JSON parses");
        let doc = kw_gpu_sim::parse_json(&json).expect("service JSON parses into values");
        let configs = doc.get("configs").unwrap().as_array().unwrap();
        assert_eq!(configs.len(), 1);
        let rows = configs[0].get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), LOAD_FACTORS.len());
        for key in ["offered_qps", "p99_gain", "cached", "uncached"] {
            assert!(rows[0].get(key).is_some(), "missing {key}");
        }
        assert!(rows[0]
            .get("cached")
            .unwrap()
            .get("total_p99_seconds")
            .is_some());
    }

    #[test]
    fn all_failed_variant_exports_null_percentiles() {
        let v = VariantRow {
            achieved_qps: 0.0,
            completed: 0,
            failed: 4,
            dispatches: 1,
            max_queue_depth: 4,
            cache_hits: 3,
            cache_misses: 1,
            cache_evictions: 0,
            compile_seconds_total: 0.001,
            busy_seconds: 0.0,
            duration_seconds: 0.5,
            queueing_p99_seconds: 0.0,
            execution_p99_seconds: 0.0,
            total_p50_seconds: 0.0,
            total_p95_seconds: 0.0,
            total_p99_seconds: 0.0,
            slo_met: false,
        };
        let json = variant_json(&v);
        let doc = kw_gpu_sim::parse_json(&json).expect("variant JSON parses");
        assert_eq!(
            doc.get("total_p99_seconds"),
            Some(&kw_gpu_sim::JsonValue::Null),
            "all-failed runs must export explicit nulls, not fake zeros"
        );
        assert_eq!(doc.get("failed").unwrap().as_f64(), Some(4.0));
    }
}
