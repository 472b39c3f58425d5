//! Integration coverage for the Section 2.3 / Section 6 extensions:
//! rescheduling, chunked double buffering, DOT export, and alternative
//! device targets — all through the public API only.

use kw_core::{
    compile, execute_plan, plan_to_dot, reschedule, select_chunk_strategy, ChunkStrategy,
    QueryPlan, WeaverConfig,
};
use kw_gpu_sim::{Device, DeviceConfig};
use kw_primitives::RaOp;
use kw_relational::{gen, CmpOp, Predicate, Schema, Value};

fn sel(attr: usize) -> RaOp {
    RaOp::Select {
        pred: Predicate::cmp(attr, CmpOp::Lt, Value::U32(u32::MAX / 2)),
    }
}

#[test]
fn rescheduled_plans_execute_identically_and_faster() {
    let input = gen::micro_input(60_000, 61);
    let mut plan = QueryPlan::new();
    let t = plan.add_input("t", input.schema().clone());
    let pre = plan.add_op(sel(1), &[t]).unwrap();
    let srt = plan.add_op(RaOp::Sort { attrs: vec![2] }, &[pre]).unwrap();
    let post = plan.add_op(sel(1), &[srt]).unwrap();
    plan.mark_output(post);

    let r = reschedule(&plan).unwrap();
    assert_eq!(r.swaps, 1);

    let mut d1 = Device::new(DeviceConfig::fermi_c2050());
    let plain = execute_plan(&plan, &[("t", &input)], &mut d1, &WeaverConfig::default()).unwrap();
    let mut d2 = Device::new(DeviceConfig::fermi_c2050());
    let moved = execute_plan(&r.plan, &[("t", &input)], &mut d2, &WeaverConfig::default()).unwrap();

    let out_plain = &plain.outputs[&post];
    let out_moved = &moved.outputs[&r.node_map[&post]];
    assert_eq!(out_plain, out_moved);
    assert!(
        moved.gpu_seconds < plain.gpu_seconds,
        "{} vs {}",
        moved.gpu_seconds,
        plain.gpu_seconds
    );
}

#[test]
fn chunked_execution_scales_with_chunk_count() {
    let input = gen::micro_input(80_000, 62);
    let mut plan = QueryPlan::new();
    let t = plan.add_input("t", input.schema().clone());
    let s = plan.add_op(sel(2), &[t]).unwrap();
    plan.mark_output(s);
    assert_eq!(select_chunk_strategy(&plan), Some(ChunkStrategy::RowSlice));

    let mut prev_outputs = None;
    for chunks in [1usize, 3, 16] {
        let mut dev = Device::new(DeviceConfig::fermi_c2050());
        let config = WeaverConfig {
            chunks: Some(chunks),
            ..WeaverConfig::default()
        };
        let report = execute_plan(&plan, &[("t", &input)], &mut dev, &config).unwrap();
        assert_eq!(report.chunks, chunks);
        assert!(report.total_seconds <= report.serialized_seconds + 1e-12);
        if let Some(prev) = &prev_outputs {
            assert_eq!(&report.outputs, prev, "chunk count must not change results");
        }
        prev_outputs = Some(report.outputs);
    }
}

#[test]
fn dot_export_covers_fused_and_boundary_nodes() {
    let input_schema = Schema::uniform_u32(4);
    let mut plan = QueryPlan::new();
    let t = plan.add_input("t", input_schema);
    let a = plan.add_op(sel(1), &[t]).unwrap();
    let b = plan.add_op(sel(2), &[a]).unwrap();
    let srt = plan.add_op(RaOp::Sort { attrs: vec![3] }, &[b]).unwrap();
    plan.mark_output(srt);

    let compiled = compile(&plan, &WeaverConfig::default()).unwrap();
    let dot = plan_to_dot(&plan, Some(&compiled));
    assert!(dot.contains("cluster_fused_0"), "{dot}");
    assert!(dot.contains("SORT"));
    assert!(dot.contains("SELECT"));
    // Well-formed-ish: braces balance.
    assert_eq!(dot.matches('{').count(), dot.matches('}').count());
}

#[test]
fn alternative_devices_run_all_patterns() {
    for cfg in [DeviceConfig::fused_apu(), DeviceConfig::cpu_like()] {
        for pattern in kw_tpch::Pattern::all() {
            let w = pattern.build(2_000, 63);
            let mut fused_dev = Device::new(cfg.clone());
            let fused = w.run(&mut fused_dev, &WeaverConfig::default()).unwrap();
            let mut base_dev = Device::new(cfg.clone());
            let base = w
                .run(&mut base_dev, &WeaverConfig::default().baseline())
                .unwrap();
            assert_eq!(
                fused.outputs,
                base.outputs,
                "{} on {}",
                pattern.label(),
                cfg.name
            );
            assert!(
                fused.gpu_seconds <= base.gpu_seconds,
                "{} on {}: fusion must not lose",
                pattern.label(),
                cfg.name
            );
        }
    }
}

#[test]
fn overlapped_seconds_is_max_of_streams() {
    // Non-streamed (resident) run: nothing was measured, so the accessor
    // falls back to the closed-form perfect-overlap estimate max(gpu, pcie).
    let input = gen::micro_input(10_000, 64);
    let mut plan = QueryPlan::new();
    let t = plan.add_input("t", input.schema().clone());
    let s = plan.add_op(sel(1), &[t]).unwrap();
    plan.mark_output(s);
    let mut dev = Device::new(DeviceConfig::fermi_c2050());
    let report = execute_plan(&plan, &[("t", &input)], &mut dev, &WeaverConfig::default()).unwrap();
    assert!(report.pipelined_seconds.is_none());
    let expect = report.gpu_seconds.max(report.pcie_seconds);
    assert!((report.overlapped_seconds() - expect).abs() < 1e-15);

    // Streamed (staged) run: the accessor must report the *measured*
    // stream-graph wallclock, not the closed-form estimate — the measured
    // value respects data dependences, so it can only be slower than (or
    // equal to) perfect overlap, and never slower than fully serialized.
    let staged = WeaverConfig {
        mode: kw_core::ExecMode::Staged,
        ..WeaverConfig::default()
    };
    let mut dev = Device::new(DeviceConfig::fermi_c2050());
    let report = execute_plan(&plan, &[("t", &input)], &mut dev, &staged).unwrap();
    let measured = report.pipelined_seconds.expect("staged runs are streamed");
    assert!((report.overlapped_seconds() - measured).abs() < 1e-15);
    let perfect = report.gpu_seconds.max(report.pcie_seconds);
    assert!(
        measured >= perfect - 1e-12,
        "{measured} vs perfect {perfect}"
    );
    assert!(measured <= report.serialized_seconds + 1e-12);
}

#[test]
fn staged_mode_overlaps_transfers_with_compute() {
    // Independent selects over a shared staged input (the paper's pattern
    // (d)): the first select's result download overlaps the second
    // select's computation, so the measured wallclock beats the fully
    // serialized schedule — and both bounds of the report stay ordered and
    // reconciled. (A pure chain would legitimately *not* overlap: each
    // result round-trips into the very next step.)
    let input = gen::micro_input(200_000, 65);
    let mut plan = QueryPlan::new();
    let t = plan.add_input("t", input.schema().clone());
    let a = plan.add_op(sel(0), &[t]).unwrap();
    let b = plan.add_op(sel(1), &[t]).unwrap();
    plan.mark_output(a);
    plan.mark_output(b);
    let staged = WeaverConfig {
        mode: kw_core::ExecMode::Staged,
        ..WeaverConfig::default()
    };

    let mut dev = Device::new(DeviceConfig::fermi_c2050());
    let unfused = execute_plan(&plan, &[("t", &input)], &mut dev, &staged.baseline()).unwrap();
    assert!(
        unfused.total_seconds < unfused.serialized_seconds * 0.999,
        "staged streaming should overlap real time: {} vs {}",
        unfused.total_seconds,
        unfused.serialized_seconds
    );
    // serialized_seconds is still the pre-stream serial cost: every charge
    // summed with nothing hidden.
    let serial_sum = dev.gpu_seconds() + dev.pcie_secs();
    assert!((unfused.serialized_seconds - serial_sum).abs() < 1e-9);
    kw_gpu_sim::reconcile(&unfused.spans, &unfused.stats).unwrap();

    // Streaming must not change results: the staged run still matches a
    // resident run of the same plan.
    let mut resident_dev = Device::new(DeviceConfig::fermi_c2050());
    let resident = execute_plan(
        &plan,
        &[("t", &input)],
        &mut resident_dev,
        &WeaverConfig::default().baseline(),
    )
    .unwrap();
    assert_eq!(unfused.outputs, resident.outputs);
}
