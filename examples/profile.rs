//! Observability tour and CI schema gate for the telemetry subsystem.
//!
//! Runs pattern (d) staged (transfer-bound on the discrete Fermi) and a
//! small multi-query batch, then:
//!
//! * prints the bottleneck-attribution profile (`ProfileReport::summary`),
//! * prints the run's metrics in Prometheus text format: the device's
//!   rendering of its records plus the series the plan report publishes,
//! * validates that the registry's JSON export and the profile's JSON
//!   export parse and carry every key downstream tooling consumes.
//!
//! Exits non-zero on any failure so `ci.sh` can gate on it.
//!
//! ```bash
//! cargo run -p kw-examples --example profile
//! ```

use kw_core::{compile, execute_batch, BatchQuery, ExecMode, RetryPolicy, WeaverConfig};
use kw_gpu_sim::{parse_json, Device, DeviceConfig};
use kw_relational::Relation;
use kw_tpch::Pattern;

/// Series a kernel-running workload must export.
const REQUIRED_METRICS: [&str; 6] = [
    "kw_spans_total",
    "kw_kernel_launches_total",
    "kw_gpu_cycles_total",
    "kw_global_bytes_total",
    "kw_kernel_cycles",
    "kw_plans_executed_total",
];

/// Keys the profile JSON export must carry.
const REQUIRED_PROFILE_KEYS: [&str; 6] = [
    "\"bottleneck\"",
    "\"gpu_busy_fraction\"",
    "\"pcie_busy_fraction\"",
    "\"launch_share\"",
    "\"global_bw_utilization\"",
    "\"operators\"",
];

fn main() {
    let mut failures = 0usize;

    // --- Single staged query: profile + registry. ---
    let w = Pattern::D.build(1 << 16, 0xC2050);
    let cfg = WeaverConfig {
        mode: ExecMode::Staged,
        ..WeaverConfig::default()
    };
    let mut dev = Device::new(DeviceConfig::fermi_c2050());
    let report = w.run(&mut dev, &cfg).expect("pattern (d) staged executes");

    println!("== Bottleneck profile: pattern (d), staged, Fermi C2050 ==");
    println!("{}", report.profile.summary());
    if report.profile.bottleneck != kw_core::Bottleneck::Transfer {
        eprintln!(
            "INVALID: pattern (d) staged should be transfer-bound, got {}",
            report.profile.bottleneck
        );
        failures += 1;
    }

    println!("== Device metrics (Prometheus text format) ==");
    let mut metrics = dev.metrics();
    report.publish(&mut metrics);
    print!("{}", metrics.prometheus_text());
    println!();

    // --- Schema gates: both JSON exports parse and carry their keys. ---
    let metrics_json = metrics.to_json();
    match parse_json(&metrics_json) {
        Ok(doc) => {
            for section in ["counters", "gauges", "histograms"] {
                if doc.get(section).is_none() {
                    eprintln!("INVALID: metrics JSON missing \"{section}\" section");
                    failures += 1;
                }
            }
        }
        Err(e) => {
            eprintln!("INVALID: metrics JSON does not parse: {e}");
            failures += 1;
        }
    }
    for name in REQUIRED_METRICS {
        if !metrics_json.contains(&format!("\"{name}\"")) {
            eprintln!("INVALID: metrics JSON missing metric \"{name}\"");
            failures += 1;
        }
    }

    let profile_json = report.profile.to_json();
    if let Err(e) = parse_json(&profile_json) {
        eprintln!("INVALID: profile JSON does not parse: {e}");
        failures += 1;
    }
    for key in REQUIRED_PROFILE_KEYS {
        if !profile_json.contains(key) {
            eprintln!("INVALID: profile JSON missing key {key}");
            failures += 1;
        }
    }

    // --- Batch: exact nearest-rank latency percentiles. ---
    let workloads: Vec<_> = [Pattern::A, Pattern::D, Pattern::E, Pattern::A]
        .iter()
        .enumerate()
        .map(|(i, p)| p.build(1 << 14, 0xC2050 + i as u64))
        .collect();
    let bindings: Vec<Vec<(&str, &Relation)>> = workloads.iter().map(|w| w.bindings()).collect();
    let queries: Vec<BatchQuery<'_>> = workloads
        .iter()
        .zip(&bindings)
        .map(|(w, b)| BatchQuery {
            name: &w.name,
            plan: &w.plan,
            bindings: b,
        })
        .collect();
    let config = WeaverConfig::default();
    let compiled: Vec<_> = workloads
        .iter()
        .map(|w| compile(&w.plan, &config).expect("plan compiles"))
        .collect();
    let mut batch_dev = Device::new(DeviceConfig::fermi_c2050());
    let batch = execute_batch(
        &queries,
        &compiled,
        &mut batch_dev,
        &config,
        &RetryPolicy::default(),
    )
    .expect("batch executes");

    println!("== Batch latency percentiles (4 queries) ==");
    println!(
        "  p50 {:.3} ms   p95 {:.3} ms   p99 {:.3} ms   makespan {:.3} ms",
        batch.latency_p50_seconds * 1e3,
        batch.latency_p95_seconds * 1e3,
        batch.latency_p99_seconds * 1e3,
        batch.makespan_seconds * 1e3
    );
    for (engine, util) in &batch.engine_utilization {
        println!("  engine {engine}: {:.0}% busy", util * 100.0);
    }
    let monotone = batch.latency_p50_seconds <= batch.latency_p95_seconds
        && batch.latency_p95_seconds <= batch.latency_p99_seconds;
    if !monotone || batch.latency_p99_seconds <= 0.0 {
        eprintln!("INVALID: batch percentiles not monotone positive");
        failures += 1;
    }
    if batch.engine_utilization.is_empty() {
        eprintln!("INVALID: batch reported no engine utilization");
        failures += 1;
    }

    if failures > 0 {
        eprintln!("\n{failures} observability check(s) failed");
        std::process::exit(1);
    }
    println!("\nall observability schema checks passed");
}
