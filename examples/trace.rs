//! Structured execution tracing — export a fused vs unfused TPC-H Q1 run
//! as Chrome trace-event JSON and a per-operator summary.
//!
//! Every kernel launch, PCIe transfer, allocation and injected fault the
//! simulator performs becomes one span carrying the operator provenance the
//! executor pushed and the exact `SimStats` delta it charged. This example
//! runs Q1 both ways, checks the reconciliation invariant (per-span deltas
//! sum to the aggregate counters), validates the emitted JSON against the
//! trace-event schema, and writes the files for Perfetto. It then runs
//! fused Q1 a second time on the same device: that report must hold only
//! its own run, so its spans reconcile with its stats and repeat the first
//! run's spans.
//!
//! ```bash
//! cargo run --release -p kw-examples --example trace [-- <output-dir>]
//! # then open <output-dir>/q1.fused.trace.json in https://ui.perfetto.dev
//! ```
//!
//! Exits non-zero if any trace fails reconciliation or schema validation,
//! or the second run's report differs from the first's, which is how
//! `ci.sh` uses it.

use kw_core::{PlanReport, WeaverConfig};
use kw_gpu_sim::{
    chrome_trace_json, operator_summary, reconcile, summary_table, validate_chrome_json, Device,
    DeviceConfig, SimStats, Span, SpanKind, TraceSink,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::args().nth(1).unwrap_or_else(|| "traces".into());
    let sink = TraceSink::new(&dir)?;
    let workload = kw_tpch::q1(8.0, 7);
    println!("lineitem: {} rows", workload.data[0].1.len());

    let mut fused_dev = Device::new(DeviceConfig::fermi_c2050());
    let fused = workload.run(&mut fused_dev, &WeaverConfig::default())?;
    let mut base_dev = Device::new(DeviceConfig::fermi_c2050());
    let base = workload.run(&mut base_dev, &WeaverConfig::default().baseline())?;
    assert_eq!(fused.outputs, base.outputs, "tracing changed the answer");

    let mut paths = Vec::new();
    for (name, dev, report) in [
        ("q1.fused", &fused_dev, &fused),
        ("q1.baseline", &base_dev, &base),
    ] {
        // The invariant TraceSink::export also enforces, spelled out.
        reconcile(dev.spans(), dev.stats())
            .map_err(|e| format!("{name}: trace does not reconcile: {e}"))?;
        let json = chrome_trace_json(dev.spans(), dev.config().clock_ghz);
        let events = validate_chrome_json(&json)
            .map_err(|e| format!("{name}: invalid Chrome trace JSON: {e}"))?;

        let kernels = dev
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Kernel)
            .count();
        println!(
            "\n{name}: {} spans ({kernels} kernels), {events} trace events, \
             {} global bytes",
            dev.spans().len(),
            report.stats.global_bytes()
        );
        print!("{}", summary_table(&operator_summary(dev.spans())));
        paths.push(sink.export(name, dev)?);
    }

    // Fusion, visible in the trace itself: fewer kernel spans, less global
    // memory moved.
    let count = |d: &Device| {
        d.spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Kernel)
            .count()
    };
    assert!(
        count(&fused_dev) < count(&base_dev),
        "fused trace should contain fewer kernel spans"
    );
    assert!(
        fused.stats.global_bytes() < base.stats.global_bytes(),
        "fused trace should move less global memory"
    );

    // A reused device: the second report's window holds its own run only.
    let again = workload.run(&mut fused_dev, &WeaverConfig::default())?;
    reconcile(&again.spans, &again.stats)
        .map_err(|e| format!("q1.fused rerun: report does not reconcile: {e}"))?;
    if let Some(i) = first_mismatch(&fused, &again) {
        return Err(format!("q1.fused rerun: span {i} differs from the first run's").into());
    }
    println!(
        "
q1.fused rerun on the same device: {} spans, as the first run",
        again.spans.len()
    );

    println!();
    for p in paths {
        println!("wrote {}", p.display());
    }
    println!("open the .trace.json files in https://ui.perfetto.dev");
    Ok(())
}

/// The index of the first span where `second` differs from `first` in kind,
/// label, provenance or delta, or that only one of them has. A span's
/// seconds are differences of the device's running sums, which round
/// differently as the device ages, so they match to 1e-12 of the larger
/// value or of one second, the tolerance shape `reconcile` uses.
fn first_mismatch(first: &PlanReport, second: &PlanReport) -> Option<usize> {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0);
    let ints = |s: &SimStats| SimStats {
        pcie_seconds: 0.0,
        backoff_seconds: 0.0,
        ..*s
    };
    let same = |a: &Span, b: &Span| {
        (a.kind, &a.label, &a.provenance) == (b.kind, &b.label, &b.provenance)
            && ints(&a.delta) == ints(&b.delta)
            && close(a.delta.pcie_seconds, b.delta.pcie_seconds)
            && close(a.delta.backoff_seconds, b.delta.backoff_seconds)
    };
    let pairs = first.spans.iter().zip(&second.spans);
    pairs
        .enumerate()
        .find(|(_, (a, b))| !same(a, b))
        .map(|(i, _)| i)
        .or_else(|| {
            let (a, b) = (first.spans.len(), second.spans.len());
            (a != b).then_some(a.min(b))
        })
}
