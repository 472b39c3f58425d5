//! Integration tests for the structured tracing layer: determinism of the
//! Chrome trace export, the reconciliation invariant (per-span deltas sum
//! to the aggregate `SimStats`) on every execution path under fault
//! injection, and the fusion signature visible in the spans themselves.

use proptest::prelude::*;

use kw_core::{
    compile, execute_batch, execute_compiled_resilient, execute_plan, run_service,
    select_chunk_strategy, BatchQuery, ChunkStrategy, ExecMode, QueryPlan, RetryPolicy,
    ServiceConfig, WeaverConfig,
};
use kw_gpu_sim::{
    chrome_trace_json, reconcile, validate_chrome_json, Device, DeviceConfig, FaultConfig, SpanKind,
};
use kw_primitives::RaOp;
use kw_relational::ops::AggFn;
use kw_relational::{gen, CmpOp, Predicate, Relation, Value};
use kw_tpch::{Pattern, Workload};

fn q1() -> Workload {
    kw_tpch::q1(2.0, 7)
}

fn run(w: &Workload, fusion: bool) -> (Device, kw_core::PlanReport) {
    let config = WeaverConfig {
        fusion,
        ..WeaverConfig::default()
    };
    let mut dev = Device::new(DeviceConfig::fermi_c2050());
    let report = w.run(&mut dev, &config).expect("q1 executes");
    (dev, report)
}

#[test]
fn identical_runs_export_byte_identical_traces() {
    let w = q1();
    let (d1, _) = run(&w, true);
    let (d2, _) = run(&w, true);
    let j1 = chrome_trace_json(d1.spans(), d1.config().clock_ghz);
    let j2 = chrome_trace_json(d2.spans(), d2.config().clock_ghz);
    assert_eq!(j1, j2, "trace export must be deterministic");
    validate_chrome_json(&j1).expect("valid Chrome trace JSON");
}

#[test]
fn per_span_deltas_sum_to_aggregate_stats() {
    let w = q1();
    for fusion in [true, false] {
        let (dev, report) = run(&w, fusion);
        // Both the device's live log and the PlanReport snapshot reconcile.
        reconcile(dev.spans(), dev.stats())
            .unwrap_or_else(|e| panic!("device (fusion={fusion}): {e}"));
        reconcile(&report.spans, &report.stats)
            .unwrap_or_else(|e| panic!("report (fusion={fusion}): {e}"));
    }
}

#[test]
fn traces_reconcile_under_fault_injection() {
    let w = q1();
    // Generous budget with gentle backoff: at a 10% per-op fault rate most
    // attempts see at least one fault, so retries stack up well past the
    // default budget of 4.
    let policy = RetryPolicy {
        max_retries: 64,
        base_backoff_seconds: 1e-4,
        backoff_multiplier: 1.1,
    };
    let mut reports = Vec::new();
    for fusion in [true, false] {
        let config = WeaverConfig {
            fusion,
            ..WeaverConfig::default()
        };
        let mut dev = Device::new(DeviceConfig::fermi_c2050());
        dev.inject_faults(FaultConfig::uniform(0xC2050, 0.10));
        let compiled = compile(&w.plan, &config).unwrap();
        let report = execute_compiled_resilient(
            &w.plan,
            &compiled,
            &w.bindings(),
            &mut dev,
            &config,
            &policy,
        )
        .expect("resilient q1 under faults");
        // The span log covers the whole resilient episode: failed attempts,
        // fault markers, backoff, and the attempt that landed. Its deltas
        // must still sum exactly to the device's aggregate counters.
        reconcile(dev.spans(), dev.stats())
            .unwrap_or_else(|e| panic!("faulted device (fusion={fusion}): {e}"));
        reconcile(&report.spans, &report.stats)
            .unwrap_or_else(|e| panic!("faulted report (fusion={fusion}): {e}"));

        let res = report.resilience.as_ref().expect("resilience report");
        if res.faults_survived > 0 {
            assert!(
                report.spans.iter().any(|s| s.kind == SpanKind::Fault),
                "survived faults must appear as fault spans (fusion={fusion})"
            );
            assert!(
                report.spans.iter().any(|s| s.kind == SpanKind::Backoff),
                "retries must appear as backoff spans (fusion={fusion})"
            );
            // Retry provenance frames mark which attempt each span fed.
            assert!(
                report
                    .spans
                    .iter()
                    .any(|s| s.provenance.starts_with("attempt")),
                "spans must carry attempt provenance (fusion={fusion})"
            );
        }
        let json = chrome_trace_json(&report.spans, 1.15);
        validate_chrome_json(&json).expect("faulted trace exports valid JSON");
        reports.push(report);
    }
    assert_eq!(
        reports[0].outputs, reports[1].outputs,
        "fault injection changed the answer"
    );
}

#[test]
fn fused_trace_has_fewer_kernel_spans_and_less_global_traffic() {
    let w = q1();
    let (fused_dev, fused) = run(&w, true);
    let (base_dev, base) = run(&w, false);
    assert_eq!(fused.outputs, base.outputs);

    let kernels = |d: &Device| {
        d.spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Kernel)
            .count()
    };
    assert!(
        kernels(&fused_dev) < kernels(&base_dev),
        "fused {} vs baseline {}",
        kernels(&fused_dev),
        kernels(&base_dev)
    );
    assert!(
        fused.stats.global_bytes() < base.stats.global_bytes(),
        "fused {} vs baseline {}",
        fused.stats.global_bytes(),
        base.stats.global_bytes()
    );
    // Fusion-candidate provenance flows from the compiler into span labels.
    assert!(fused_dev
        .spans()
        .iter()
        .any(|s| s.provenance.contains("fused[")));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The metrics registry is part of the deterministic surface: two
    /// identical seeded runs export byte-identical Prometheus text and
    /// JSON snapshots, whatever the pattern, size, seed or fusion mode.
    #[test]
    fn metrics_snapshots_are_deterministic(
        pat_idx in 0usize..Pattern::all().len(),
        n in 512usize..4_096,
        seed in any::<u64>(),
        fusion in any::<bool>(),
    ) {
        let w = Pattern::all()[pat_idx].build(n, seed);
        let config = WeaverConfig { fusion, ..WeaverConfig::default() };
        let mut d1 = Device::new(DeviceConfig::fermi_c2050());
        let mut d2 = Device::new(DeviceConfig::fermi_c2050());
        w.run(&mut d1, &config).expect("first run");
        w.run(&mut d2, &config).expect("second run");
        prop_assert_eq!(
            d1.metrics().prometheus_text(),
            d2.metrics().prometheus_text()
        );
        prop_assert_eq!(d1.metrics().to_json(), d2.metrics().to_json());
    }

    /// The histogram/counter layer reconciles with the span log and the
    /// aggregate `SimStats` it was folded from: the kernel-cycle histogram
    /// counts exactly the kernel spans and sums exactly their durations,
    /// and every mirrored counter equals its `SimStats` source.
    #[test]
    fn metric_totals_reconcile_with_stats_and_spans(
        pat_idx in 0usize..Pattern::all().len(),
        n in 512usize..4_096,
        seed in any::<u64>(),
        fusion in any::<bool>(),
    ) {
        let w = Pattern::all()[pat_idx].build(n, seed);
        let config = WeaverConfig { fusion, ..WeaverConfig::default() };
        let mut dev = Device::new(DeviceConfig::fermi_c2050());
        let report = w.run(&mut dev, &config).expect("workload executes");
        let mut m = dev.metrics();
        report.publish(&mut m);

        let kernel_spans: Vec<_> = dev
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Kernel)
            .collect();
        let hist = m
            .histogram("kw_kernel_cycles")
            .expect("kernel histogram populated");
        prop_assert_eq!(hist.count(), kernel_spans.len() as u64);
        let span_cycles: u64 = kernel_spans.iter().map(|s| s.cycles()).sum();
        prop_assert_eq!(hist.sum(), span_cycles);
        // Serial resident runs charge GPU cycles only through kernel spans.
        prop_assert_eq!(span_cycles, dev.stats().gpu_cycles);

        prop_assert_eq!(m.counter("kw_gpu_cycles_total"), dev.stats().gpu_cycles);
        prop_assert_eq!(m.counter("kw_launch_cycles_total"), dev.stats().launch_cycles);
        prop_assert_eq!(
            m.counter("kw_kernel_launches_total"),
            dev.stats().kernel_launches
        );
        prop_assert_eq!(m.counter("kw_global_bytes_total"), dev.stats().global_bytes());
        prop_assert_eq!(m.counter("kw_h2d_bytes_total"), dev.stats().h2d_bytes);
        prop_assert_eq!(m.counter("kw_d2h_bytes_total"), dev.stats().d2h_bytes);
        prop_assert_eq!(m.counter("kw_spans_total"), dev.spans().len() as u64);
        prop_assert_eq!(m.counter("kw_plans_executed_total"), 1);
    }
}

/// The accounting every execution path must keep, whether the call landed
/// or died to an injected fault: the span log reconciles with the aggregate
/// stats, and the rendered metrics agree with both.
fn assert_accounting(dev: &Device, path: &str) {
    reconcile(dev.spans(), dev.stats()).unwrap_or_else(|e| panic!("{path}: {e}"));
    let m = dev.metrics();
    let s = dev.stats();
    for (name, want) in [
        ("kw_kernel_launches_total", s.kernel_launches),
        ("kw_launch_cycles_total", s.launch_cycles),
        ("kw_gpu_cycles_total", s.gpu_cycles),
        ("kw_global_bytes_total", s.global_bytes()),
        ("kw_h2d_bytes_total", s.h2d_bytes),
        ("kw_d2h_bytes_total", s.d2h_bytes),
        ("kw_faults_injected_total", s.faults_injected),
    ] {
        assert_eq!(m.counter(name), want, "{path}: {name}");
    }
    assert_eq!(
        m.counter("kw_spans_total"),
        dev.spans().len() as u64,
        "{path}"
    );
    let kernels: Vec<_> = dev
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Kernel)
        .collect();
    let (count, sum) = m
        .histogram("kw_kernel_cycles")
        .map_or((0, 0), |h| (h.count(), h.sum()));
    assert_eq!(
        count,
        kernels.len() as u64,
        "{path}: kernel histogram count"
    );
    let cycles: u64 = kernels.iter().map(|s| s.cycles()).sum();
    assert_eq!(sum, cycles, "{path}: kernel histogram sum");
}

/// A chain of two selects over `t`.
fn select_chain(input: &Relation) -> QueryPlan {
    let mut plan = QueryPlan::new();
    let mut cur = plan.add_input("t", input.schema().clone());
    for attr in 0..2 {
        let pred = Predicate::cmp(attr, CmpOp::Lt, Value::U32(u32::MAX / 2));
        cur = plan.add_op(RaOp::Select { pred }, &[cur]).unwrap();
    }
    plan.mark_output(cur);
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The span log is the device's one activity record, so it must
    /// reconcile on every execution path under seeded fault injection:
    /// resident and staged, fused and unfused; each chunk strategy; the
    /// resilient ladder on a capped device; a batch with forced waves and a
    /// ladder-tail query; and the open-loop service.
    #[test]
    fn span_log_reconciles_on_every_path_under_faults(
        pat_idx in 0usize..Pattern::all().len(),
        n in 256usize..1_024,
        seed in any::<u64>(),
        rate_permille in 0u32..150,
        cap_pct in 25u64..200,
    ) {
        let faults = FaultConfig::uniform(seed, f64::from(rate_permille) / 1000.0);
        let faulted = |config: DeviceConfig| {
            let mut dev = Device::new(config);
            dev.inject_faults(faults.clone());
            dev
        };
        let fermi = DeviceConfig::fermi_c2050;
        let default = WeaverConfig::default();

        let w = Pattern::all()[pat_idx].build(n, seed);
        for fusion in [true, false] {
            for mode in [ExecMode::Resident, ExecMode::Staged] {
                let config = WeaverConfig { fusion, mode, ..default };
                let mut dev = faulted(fermi());
                let _ = w.run(&mut dev, &config);
                assert_accounting(&dev, &format!("{mode:?} fusion={fusion}"));
            }
        }

        let input = gen::micro_input(n, seed);
        let (left, right) = gen::join_inputs(n, 2, 0.5, seed);
        let row_slice = select_chain(&input);
        let mut aggregate = QueryPlan::new();
        let t = aggregate.add_input("t", input.schema().clone());
        let aggs = vec![AggFn::Count, AggFn::Sum(1)];
        let a = aggregate.add_op(RaOp::Aggregate { group_by: vec![0], aggs }, &[t]).unwrap();
        aggregate.mark_output(a);
        let mut join = QueryPlan::new();
        let l = join.add_input("l", left.schema().clone());
        let r = join.add_input("r", right.schema().clone());
        let j = join.add_op(RaOp::Join { key_len: 1 }, &[l, r]).unwrap();
        join.mark_output(j);
        for (plan, bindings, strategy) in [
            (&row_slice, vec![("t", &input)], ChunkStrategy::RowSlice),
            (&join, vec![("l", &left), ("r", &right)], ChunkStrategy::HashPartition),
            (&aggregate, vec![("t", &input)], ChunkStrategy::PartialAggregate),
        ] {
            prop_assert_eq!(select_chunk_strategy(plan), Some(strategy));
            let mut dev = faulted(fermi());
            let _ = execute_plan(plan, &bindings, &mut dev, &WeaverConfig { chunks: Some(4), ..default });
            assert_accounting(&dev, &format!("chunked {strategy:?}"));
        }

        let bindings = w.bindings();
        let input_bytes: u64 = bindings.iter().map(|(_, r)| r.byte_size() as u64).sum();
        let capped = DeviceConfig {
            global_mem_bytes: input_bytes * cap_pct / 100,
            ..fermi()
        };
        let mut dev = faulted(capped);
        let policy = RetryPolicy::default();
        let compiled = compile(&w.plan, &default).unwrap();
        let _ = execute_compiled_resilient(&w.plan, &compiled, &bindings, &mut dev, &default, &policy);
        assert_accounting(&dev, "resilient on a capped device");

        // Three wave queries sized so only one fits at a time, plus a whale
        // too large for any wave, which takes the ladder tail.
        let smalls: Vec<Relation> = (1..4).map(|i| gen::micro_input(n, seed ^ i)).collect();
        let whale = gen::micro_input(4 * n, seed);
        let small_plan = select_chain(&smalls[0]);
        let small_bindings: Vec<[(&str, &Relation); 1]> =
            smalls.iter().map(|r| [("t", r)]).collect();
        let whale_bindings = [("t", &whale)];
        let mut queries: Vec<BatchQuery<'_>> = small_bindings
            .iter()
            .map(|b| BatchQuery { name: "small", plan: &small_plan, bindings: b })
            .collect();
        queries.push(BatchQuery { name: "whale", plan: &small_plan, bindings: &whale_bindings });
        let small_compiled = compile(&small_plan, &default).unwrap();
        let small_peak = kw_core::admit(&small_plan, &small_compiled, &small_bindings[0], u64::MAX)
            .unwrap()
            .resident_peak;
        let one_wave = DeviceConfig { global_mem_bytes: small_peak * 3 / 2, ..fermi() };
        let mut dev = faulted(one_wave);
        let compiled = vec![small_compiled; queries.len()];
        let batch = execute_batch(&queries, &compiled, &mut dev, &default, &policy).unwrap();
        prop_assert!(batch.waves >= 2 || batch.quarantined_count() > 0, "waves {}", batch.waves);
        assert_accounting(&dev, "batch with waves and a ladder tail");

        let shapes = [
            BatchQuery { name: "pattern", plan: &w.plan, bindings: &bindings },
            BatchQuery { name: "chain", plan: &small_plan, bindings: &small_bindings[0] },
        ];
        let service = ServiceConfig {
            arrivals: 6,
            offered_qps: 5_000.0,
            ..ServiceConfig::default()
        };
        let mut dev = faulted(fermi());
        run_service(&shapes, &mut dev, &default, &service).unwrap();
        assert_accounting(&dev, "service");
    }
}
