//! Scratch-arena acceptance tests: predictor fidelity (the admission
//! replay IS the executor's allocation schedule, so a fresh device's
//! tracker peak equals the predicted peak bit-exactly), the O(1)
//! alloc/free span invariant per fused plan, byte-identical outputs
//! across chunk strategies and fault injection, and the spill that
//! completes a run whose estimate under-shot.

use kw_core::{
    admit, compile, execute_compiled, execute_compiled_resilient, execute_plan, ChunkStrategy,
    ExecMode, PlanReport, QueryPlan, RetryPolicy, WeaverConfig,
};
use kw_gpu_sim::{Device, DeviceConfig, FaultConfig, SpanKind};
use kw_primitives::RaOp;
use kw_relational::ops::AggFn;
use kw_relational::{gen, ops, CmpOp, Predicate, Relation, Schema, Value};
use kw_tpch::Pattern;
use proptest::prelude::*;

fn device() -> Device {
    Device::new(DeviceConfig::fermi_c2050())
}

fn in_chunks(chunks: usize) -> WeaverConfig {
    WeaverConfig {
        chunks: Some(chunks),
        ..WeaverConfig::default()
    }
}

/// Compile `plan` and run it through the resilient ladder.
fn run_resilient(
    plan: &QueryPlan,
    bindings: &[(&str, &Relation)],
    dev: &mut Device,
    policy: &RetryPolicy,
) -> kw_core::Result<PlanReport> {
    let config = WeaverConfig::default();
    let compiled = compile(plan, &config)?;
    execute_compiled_resilient(plan, &compiled, bindings, dev, &config, policy)
}

fn span_counts(spans: &[kw_gpu_sim::Span]) -> (usize, usize) {
    let allocs = spans.iter().filter(|s| s.kind == SpanKind::Alloc).count();
    let frees = spans.iter().filter(|s| s.kind == SpanKind::Free).count();
    (allocs, frees)
}

fn grouped_aggregate_workload(n: usize, seed: u64) -> (QueryPlan, Relation) {
    let input = gen::micro_input(n, seed);
    let mut plan = QueryPlan::new();
    let t = plan.add_input("t", input.schema().clone());
    let s = plan
        .add_op(
            RaOp::Select {
                pred: Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 2)),
            },
            &[t],
        )
        .unwrap();
    let a = plan
        .add_op(
            RaOp::Aggregate {
                group_by: vec![0],
                aggs: vec![AggFn::Sum(1), AggFn::Count],
            },
            &[s],
        )
        .unwrap();
    plan.mark_output(a);
    (plan, input)
}

/// Satellite: the measured `MemoryTracker::peak()` on a fresh device equals
/// the `AdmissionReport`'s predicted peak bit-exactly — patterns (a)–(d),
/// fused and unfused, resident and staged. The reservation is the
/// prediction; no per-run drift, no slack, no spills.
#[test]
fn predicted_peak_is_measured_peak_on_micro_patterns() {
    for pattern in [Pattern::A, Pattern::B, Pattern::C, Pattern::D] {
        let w = pattern.build(4_000, 7);
        let bindings = w.bindings();
        for fusion in [true, false] {
            for mode in [ExecMode::Resident, ExecMode::Staged] {
                let config = WeaverConfig {
                    fusion,
                    mode,
                    ..WeaverConfig::default()
                };
                let compiled = compile(&w.plan, &config).unwrap();
                let admission = admit(&w.plan, &compiled, &bindings, u64::MAX).unwrap();
                let predicted = match mode {
                    ExecMode::Resident => admission.resident_peak,
                    ExecMode::Staged => admission.staged_peak,
                };

                let mut dev = device();
                let report =
                    execute_compiled(&w.plan, &compiled, &bindings, &mut dev, &config).unwrap();
                let ctx = format!("{} fusion={fusion} mode={mode:?}", pattern.label());
                assert_eq!(
                    dev.metrics().counter("kw_arena_spills_total"),
                    0,
                    "{ctx}: prediction must cover the whole run"
                );
                assert_eq!(
                    dev.memory().peak(),
                    predicted,
                    "{ctx}: measured != predicted"
                );
                let arena = report.arena.expect("direct runs carry arena stats");
                assert_eq!(arena.reservation, predicted, "{ctx}");
                assert!(arena.high_water <= arena.reservation, "{ctx}");
                assert_eq!(dev.memory().in_use(), 0, "{ctx}: leak");
            }
        }
    }
}

/// The same fidelity invariant on a grouped aggregate (select → group-by
/// SUM/COUNT), fused and unfused.
#[test]
fn predicted_peak_is_measured_peak_on_grouped_aggregate() {
    let (plan, input) = grouped_aggregate_workload(12_000, 8);
    for fusion in [true, false] {
        for mode in [ExecMode::Resident, ExecMode::Staged] {
            let config = WeaverConfig {
                fusion,
                mode,
                ..WeaverConfig::default()
            };
            let compiled = compile(&plan, &config).unwrap();
            let admission = admit(&plan, &compiled, &[("t", &input)], u64::MAX).unwrap();
            let predicted = match mode {
                ExecMode::Resident => admission.resident_peak,
                ExecMode::Staged => admission.staged_peak,
            };
            let mut dev = device();
            execute_compiled(&plan, &compiled, &[("t", &input)], &mut dev, &config).unwrap();
            assert_eq!(
                dev.memory().peak(),
                predicted,
                "fusion={fusion} mode={mode:?}"
            );
            assert_eq!(dev.metrics().counter("kw_arena_spills_total"), 0);
        }
    }
}

/// Tentpole regression gate: a fused plan's trace carries exactly one Alloc
/// and one Free span — the arena reservation and its return — regardless of
/// plan depth. Per-buffer churn is sub-allocation, invisible to the trace.
#[test]
fn alloc_free_spans_are_o1_across_plan_depths() {
    for depth in [1usize, 2, 4, 6] {
        let input = gen::micro_input(10_000, depth as u64);
        let mut plan = QueryPlan::new();
        let t = plan.add_input("t", input.schema().clone());
        let mut cur = t;
        for d in 0..depth {
            cur = plan
                .add_op(
                    RaOp::Select {
                        pred: Predicate::cmp(d % 3, CmpOp::Lt, Value::U32(u32::MAX - d as u32)),
                    },
                    &[cur],
                )
                .unwrap();
        }
        plan.mark_output(cur);
        for fusion in [true, false] {
            let config = WeaverConfig {
                fusion,
                ..WeaverConfig::default()
            };
            let mut dev = device();
            let report = execute_plan(&plan, &[("t", &input)], &mut dev, &config).unwrap();
            assert_eq!(
                span_counts(&report.spans),
                (1, 1),
                "depth={depth} fusion={fusion}: spans must not scale with steps"
            );
            // Fusion may collapse the chain to one step, but every run
            // still needs input + scratch + result — all arena-served.
            let arena = report.arena.unwrap();
            assert!(
                arena.sub_allocs >= 3,
                "per-step buffers go through the arena"
            );
            if !fusion {
                assert!(
                    arena.sub_allocs as usize >= depth,
                    "unfused: one scratch+result per step"
                );
            }
        }
    }
}

/// The same gate for out-of-core runs: one arena serves every chunk (reset
/// between iterations), so the parent device's trace gains NO alloc/free
/// spans no matter the chunk count, and the arena reports one reset per
/// executed chunk.
#[test]
fn chunked_runs_share_one_arena_across_chunks() {
    let input = gen::micro_input(40_000, 31);
    let mut plan = QueryPlan::new();
    let t = plan.add_input("t", input.schema().clone());
    let s = plan
        .add_op(
            RaOp::Select {
                pred: Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 2)),
            },
            &[t],
        )
        .unwrap();
    plan.mark_output(s);

    for chunks in [2usize, 4, 8] {
        let mut dev = device();
        let report = execute_plan(&plan, &[("t", &input)], &mut dev, &in_chunks(chunks)).unwrap();
        assert_eq!(report.chunks, chunks);
        assert_eq!(
            span_counts(dev.spans()),
            (0, 0),
            "chunks={chunks}: scratch allocation must not reach the parent trace"
        );
        let arena = report.arena.expect("executed chunks imply an arena");
        assert_eq!(
            arena.resets as usize, chunks,
            "one reset per chunk iteration"
        );
        assert!(arena.high_water <= arena.reservation);
        // Satellite: the fork's footprint reaches the parent gauges. What
        // the fork really allocated is the arena reservation (an upper
        // envelope of the per-chunk sub-allocation peak).
        assert_eq!(dev.memory().peak(), arena.reservation);
        assert!(dev.memory().peak() >= report.peak_device_bytes);
        assert!(report.peak_device_bytes > 0);
    }
}

/// Byte-identity across every chunk strategy: row-slice, hash-partition and
/// partial-aggregate runs produce exactly the resident executor's answer.
#[test]
fn chunk_strategies_are_byte_identical_to_resident() {
    // Row slice.
    let input = gen::micro_input(24_000, 41);
    let mut plan = QueryPlan::new();
    let t = plan.add_input("t", input.schema().clone());
    let s = plan
        .add_op(
            RaOp::Select {
                pred: Predicate::cmp(2, CmpOp::Lt, Value::U32(u32::MAX / 3)),
            },
            &[t],
        )
        .unwrap();
    plan.mark_output(s);
    let mut d1 = device();
    let resident =
        execute_plan(&plan, &[("t", &input)], &mut d1, &WeaverConfig::default()).unwrap();
    let mut d2 = device();
    let chunked = execute_plan(&plan, &[("t", &input)], &mut d2, &in_chunks(6)).unwrap();
    assert_eq!(chunked.strategy, Some(ChunkStrategy::RowSlice));
    assert_eq!(chunked.outputs, resident.outputs);

    // Hash partition (join).
    let (a, b) = gen::join_inputs(6_000, 2, 0.5, 42);
    let mut jp = QueryPlan::new();
    let na = jp.add_input("a", a.schema().clone());
    let nb = jp.add_input("b", b.schema().clone());
    let j = jp.add_op(RaOp::Join { key_len: 1 }, &[na, nb]).unwrap();
    jp.mark_output(j);
    let mut d3 = device();
    let resident = execute_plan(
        &jp,
        &[("a", &a), ("b", &b)],
        &mut d3,
        &WeaverConfig::default(),
    )
    .unwrap();
    let mut d4 = device();
    let chunked = execute_plan(&jp, &[("a", &a), ("b", &b)], &mut d4, &in_chunks(4)).unwrap();
    assert_eq!(chunked.strategy, Some(ChunkStrategy::HashPartition));
    assert_eq!(chunked.outputs, resident.outputs);

    // Partial aggregate.
    let (ap, input2) = grouped_aggregate_workload(18_000, 43);
    let mut d5 = device();
    let resident = execute_plan(&ap, &[("t", &input2)], &mut d5, &WeaverConfig::default()).unwrap();
    let mut d6 = device();
    let chunked = execute_plan(&ap, &[("t", &input2)], &mut d6, &in_chunks(5)).unwrap();
    assert_eq!(chunked.strategy, Some(ChunkStrategy::PartialAggregate));
    assert_eq!(chunked.outputs, resident.outputs);
}

/// Fault injection does not bend results: a resilient run under transient
/// faults returns the clean run's bytes, and the span invariant holds for
/// the winning attempt's trace.
#[test]
fn faulted_runs_stay_byte_identical() {
    let w = Pattern::B.build(6_000, 51);
    let bindings = w.bindings();
    let mut clean_dev = device();
    let clean = run_resilient(&w.plan, &bindings, &mut clean_dev, &RetryPolicy::default()).unwrap();

    for seed in [1u64, 2, 3] {
        let mut dev = device();
        dev.inject_faults(FaultConfig {
            seed,
            transfer_rate: 0.05,
            launch_rate: 0.05,
            ..FaultConfig::default()
        });
        let report = run_resilient(
            &w.plan,
            &bindings,
            &mut dev,
            &RetryPolicy {
                max_retries: 64,
                ..RetryPolicy::default()
            },
        )
        .unwrap();
        assert_eq!(report.outputs, clean.outputs, "seed={seed}");
        assert_eq!(dev.memory().in_use(), 0, "seed={seed}: leak after faults");
    }
}

/// A duplicate-key join whose true output exceeds the admission estimate
/// spills past the arena reservation and completes, with the
/// mispredictions counted and the footprint above the reservation.
#[test]
fn underestimated_join_spills_and_completes() {
    let schema = Schema::uniform_u32(2);
    let build = |n: usize, salt: u64| {
        let mut words = Vec::with_capacity(n * 2);
        for i in 0..n {
            words.push(7u64);
            words.push((i as u64).wrapping_mul(salt) % 499);
        }
        Relation::from_words(schema.clone(), words).unwrap()
    };
    let (l, r) = (build(800, 13), build(500, 31));
    let mut plan = QueryPlan::new();
    let x = plan.add_input("x", l.schema().clone());
    let y = plan.add_input("y", r.schema().clone());
    let j = plan.add_op(RaOp::Join { key_len: 1 }, &[x, y]).unwrap();
    plan.mark_output(j);
    let bindings: &[(&str, &Relation)] = &[("x", &l), ("y", &r)];

    let mut dev = device();
    let report = execute_plan(&plan, bindings, &mut dev, &WeaverConfig::default()).unwrap();
    assert_eq!(report.outputs[&j], ops::join(&l, &r, 1).unwrap());
    assert!(dev.metrics().counter("kw_arena_spills_total") > 0);
    assert!(report.peak_device_bytes > report.arena.unwrap().reservation);
    assert_eq!(dev.memory().in_use(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: chunked execution is byte-identical to resident execution
    /// for any elementwise plan, input size and chunk count, and the
    /// parent trace never gains alloc/free spans.
    #[test]
    fn prop_chunked_byte_identity(
        n in 256usize..8_192,
        seed in 0u64..1_000,
        chunks in 1usize..10,
        fusion in any::<bool>(),
    ) {
        let input = gen::micro_input(n, seed);
        let mut plan = QueryPlan::new();
        let t = plan.add_input("t", input.schema().clone());
        let s = plan
            .add_op(
                RaOp::Select {
                    pred: Predicate::cmp(0, CmpOp::Lt, Value::U32(u32::MAX / 2)),
                },
                &[t],
            )
            .unwrap();
        let p = plan
            .add_op(
                RaOp::Project { attrs: vec![0, 2], key_arity: 1 },
                &[s],
            )
            .unwrap();
        plan.mark_output(p);
        let config = WeaverConfig { fusion, ..WeaverConfig::default() };

        let mut d1 = device();
        let resident = execute_plan(&plan, &[("t", &input)], &mut d1, &config).unwrap();
        let mut d2 = device();
        let chunked_config = WeaverConfig { chunks: Some(chunks), ..config };
        let chunked = execute_plan(&plan, &[("t", &input)], &mut d2, &chunked_config).unwrap();

        prop_assert_eq!(&chunked.outputs, &resident.outputs);
        prop_assert_eq!(span_counts(&resident.spans), (1, 1));
        prop_assert_eq!(span_counts(d2.spans()), (0, 0));
        prop_assert_eq!(d2.memory().in_use(), 0);
    }

    /// Property: predictor fidelity holds for arbitrary select/project
    /// pipelines in both modes — the fresh-device tracker peak IS the
    /// admission prediction.
    #[test]
    fn prop_predicted_peak_is_exact(
        n in 256usize..4_096,
        seed in 0u64..1_000,
        depth in 1usize..5,
        staged in any::<bool>(),
    ) {
        let input = gen::micro_input(n, seed);
        let mut plan = QueryPlan::new();
        let t = plan.add_input("t", input.schema().clone());
        let mut cur = t;
        for d in 0..depth {
            cur = plan
                .add_op(
                    RaOp::Select {
                        pred: Predicate::cmp(d % 3, CmpOp::Lt, Value::U32(u32::MAX / 2 + d as u32)),
                    },
                    &[cur],
                )
                .unwrap();
        }
        plan.mark_output(cur);
        let mode = if staged { ExecMode::Staged } else { ExecMode::Resident };
        let config = WeaverConfig { mode, ..WeaverConfig::default() };
        let compiled = compile(&plan, &config).unwrap();
        let admission = admit(&plan, &compiled, &[("t", &input)], u64::MAX).unwrap();
        let predicted = match mode {
            ExecMode::Resident => admission.resident_peak,
            ExecMode::Staged => admission.staged_peak,
        };
        let mut dev = device();
        execute_compiled(&plan, &compiled, &[("t", &input)], &mut dev, &config).unwrap();
        prop_assert_eq!(dev.memory().peak(), predicted);
        prop_assert_eq!(dev.metrics().counter("kw_arena_spills_total"), 0);
    }
}
