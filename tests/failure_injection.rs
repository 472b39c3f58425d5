//! Failure injection: capacity exhaustion, infeasible launches, transient
//! device faults, malformed bindings and hostile plans must surface as typed
//! errors — never panics, never wrong answers, never leaked device memory.
//! The resilient driver additionally has to *absorb* the recoverable subset:
//! transient faults by retrying, capacity misses by degrading
//! Resident → Staged → Chunked.

use kw_core::{
    compile, execute_batch, execute_compiled_resilient, execute_plan, AdmittedMode, BatchQuery,
    LadderStop, PlanReport, QueryOutcome, QueryPlan, ResourceBudget, RetryPolicy, WeaverConfig,
    WeaverError,
};
use kw_gpu_sim::{Device, DeviceConfig, FaultConfig, FaultKind, ScriptedFault, SimError};
use kw_primitives::RaOp;
use kw_relational::{gen, CmpOp, Predicate, Relation, Schema, Value};
use proptest::prelude::*;

/// Compile `plan` and run it through the resilient ladder.
fn run_resilient(
    plan: &QueryPlan,
    bindings: &[(&str, &Relation)],
    dev: &mut Device,
    config: &WeaverConfig,
    policy: &RetryPolicy,
) -> kw_core::Result<PlanReport> {
    let compiled = compile(plan, config)?;
    execute_compiled_resilient(plan, &compiled, bindings, dev, config, policy)
}

fn select_plan(schema: Schema) -> QueryPlan {
    let mut plan = QueryPlan::new();
    let t = plan.add_input("t", schema);
    let s = plan
        .add_op(
            RaOp::Select {
                pred: Predicate::cmp(0, CmpOp::Lt, Value::U32(u32::MAX / 2)),
            },
            &[t],
        )
        .unwrap();
    plan.mark_output(s);
    plan
}

#[test]
fn device_out_of_memory_is_reported() {
    // 1 MiB device; 64k tuples * 16 B = 1 MiB of input alone cannot fit
    // input + output.
    let input = gen::micro_input(65_536, 1);
    let plan = select_plan(input.schema().clone());
    let mut dev = Device::new(DeviceConfig::tiny());
    let err =
        execute_plan(&plan, &[("t", &input)], &mut dev, &WeaverConfig::default()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("out of memory"), "{msg}");
    assert!(err.is_capacity());
    // The executor's cleanup guard must free every buffer it allocated
    // before the OOM, including the input uploads.
    assert_eq!(dev.memory().in_use(), 0, "error path leaked device memory");
}

#[test]
fn small_data_fits_tiny_device() {
    let input = gen::micro_input(1_000, 2);
    let plan = select_plan(input.schema().clone());
    let mut dev = Device::new(DeviceConfig::tiny());
    let report = execute_plan(&plan, &[("t", &input)], &mut dev, &WeaverConfig::default()).unwrap();
    assert_eq!(report.outputs.len(), 1);
    // Everything freed at the end.
    assert_eq!(dev.memory().in_use(), 0);
}

#[test]
fn infeasible_launch_surfaces_from_raw_device() {
    let mut dev = Device::new(DeviceConfig::fermi_c2050());
    let err = dev
        .launch(
            "monster",
            kw_gpu_sim::LaunchDims::new(1, 256),
            kw_gpu_sim::KernelResources {
                registers_per_thread: 64,
                shared_per_cta: 0,
            },
            &kw_gpu_sim::KernelQuantities::default(),
        )
        .unwrap_err();
    assert!(matches!(err, SimError::InfeasibleLaunch { .. }));
}

#[test]
fn zero_budget_still_executes_unfused() {
    // A budget nothing fits simply disables fusion; execution proceeds.
    let input = gen::micro_input(2_000, 3);
    let mut plan = QueryPlan::new();
    let t = plan.add_input("t", input.schema().clone());
    let a = plan
        .add_op(
            RaOp::Select {
                pred: Predicate::cmp(1, CmpOp::Lt, Value::U32(9)),
            },
            &[t],
        )
        .unwrap();
    let b = plan
        .add_op(
            RaOp::Select {
                pred: Predicate::cmp(2, CmpOp::Lt, Value::U32(9)),
            },
            &[a],
        )
        .unwrap();
    plan.mark_output(b);
    let config = WeaverConfig {
        budget: ResourceBudget {
            max_registers_per_thread: 1,
            max_shared_per_cta: 0,
        },
        ..WeaverConfig::default()
    };
    let mut dev = Device::new(DeviceConfig::fermi_c2050());
    let report = execute_plan(&plan, &[("t", &input)], &mut dev, &config).unwrap();
    assert!(report.fusion_sets.is_empty());
    assert_eq!(report.operator_count, 2);
}

#[test]
fn duplicate_binding_names_use_first() {
    let input = gen::micro_input(100, 4);
    let other = gen::micro_input(100, 5);
    let plan = select_plan(input.schema().clone());
    let mut dev = Device::new(DeviceConfig::fermi_c2050());
    // First binding wins; execution succeeds deterministically.
    let r1 = execute_plan(
        &plan,
        &[("t", &input), ("t", &other)],
        &mut dev,
        &WeaverConfig::default(),
    )
    .unwrap();
    let mut dev2 = Device::new(DeviceConfig::fermi_c2050());
    let r2 = execute_plan(&plan, &[("t", &input)], &mut dev2, &WeaverConfig::default()).unwrap();
    assert_eq!(r1.outputs, r2.outputs);
}

#[test]
fn empty_relations_flow_through_everything() {
    let schema = Schema::uniform_u32(4);
    let empty = kw_relational::Relation::empty(schema.clone());
    let pattern_plan = select_plan(schema.clone());
    let mut dev = Device::new(DeviceConfig::fermi_c2050());
    let report = execute_plan(
        &pattern_plan,
        &[("t", &empty)],
        &mut dev,
        &WeaverConfig::default(),
    )
    .unwrap();
    assert!(report.outputs.values().all(|r| r.is_empty()));
    // Joins of empty relations.
    let mut plan = QueryPlan::new();
    let x = plan.add_input("x", schema.clone());
    let y = plan.add_input("y", schema.clone());
    let j = plan.add_op(RaOp::Join { key_len: 1 }, &[x, y]).unwrap();
    plan.mark_output(j);
    let mut dev = Device::new(DeviceConfig::fermi_c2050());
    let report = execute_plan(
        &plan,
        &[("x", &empty), ("y", &empty)],
        &mut dev,
        &WeaverConfig::default(),
    )
    .unwrap();
    assert!(report.outputs[&j].is_empty());
}

#[test]
fn self_join_is_handled() {
    let input = gen::micro_input(1_000, 6);
    let mut plan = QueryPlan::new();
    let t = plan.add_input("t", input.schema().clone());
    let j = plan.add_op(RaOp::Join { key_len: 1 }, &[t, t]).unwrap();
    plan.mark_output(j);
    for fusion in [true, false] {
        let config = WeaverConfig {
            fusion,
            ..WeaverConfig::default()
        };
        let mut dev = Device::new(DeviceConfig::fermi_c2050());
        let report = execute_plan(&plan, &[("t", &input)], &mut dev, &config).unwrap();
        let oracle = kw_relational::ops::join(&input, &input, 1).unwrap();
        assert_eq!(report.outputs[&j], oracle, "fusion={fusion}");
    }
}

/// Acceptance: a plan too large for Resident on `DeviceConfig::tiny()` runs
/// to completion via automatic degradation, and the answer matches a clean
/// run on a big device.
#[test]
fn too_large_for_resident_degrades_and_matches_oracle() {
    let input = gen::micro_input(65_536, 1);
    let plan = select_plan(input.schema().clone());

    let mut big = Device::new(DeviceConfig::fermi_c2050());
    let oracle = execute_plan(&plan, &[("t", &input)], &mut big, &WeaverConfig::default())
        .expect("oracle run");

    let mut dev = Device::new(DeviceConfig::tiny());
    let report = run_resilient(
        &plan,
        &[("t", &input)],
        &mut dev,
        &WeaverConfig::default(),
        &RetryPolicy::default(),
    )
    .expect("resilient run on tiny device");

    assert_eq!(report.outputs, oracle.outputs);
    let res = report.resilience.as_ref().unwrap();
    assert_ne!(res.final_mode, AdmittedMode::Resident, "{res:?}");
    assert!(res.admission.resident_peak > res.admission.capacity);
    assert_eq!(
        dev.memory().in_use(),
        0,
        "degraded run leaked device memory"
    );
}

/// Acceptance: the same oversized run with a ≥10% transient PCIe + launch
/// fault rate still completes with identical outputs, the retries are
/// visible in the ResilienceReport, and nothing leaks.
#[test]
fn faulty_degraded_run_completes_with_identical_outputs() {
    // 32Ki tuples: still over tiny()'s Resident/Staged capacity (degrades to
    // chunked(2)) but with a small enough per-attempt fault cross-section
    // that a bounded retry budget is guaranteed to get through at 10%.
    let input = gen::micro_input(32_768, 1);
    let plan = select_plan(input.schema().clone());

    let mut clean_dev = Device::new(DeviceConfig::tiny());
    let clean = run_resilient(
        &plan,
        &[("t", &input)],
        &mut clean_dev,
        &WeaverConfig::default(),
        &RetryPolicy::default(),
    )
    .expect("fault-free resilient run");

    let mut dev = Device::new(DeviceConfig::tiny());
    dev.inject_faults(FaultConfig {
        seed: 0xFA18,
        transfer_rate: 0.10,
        launch_rate: 0.10,
        ..FaultConfig::default()
    });
    let policy = RetryPolicy {
        max_retries: 64,
        base_backoff_seconds: 1e-4,
        backoff_multiplier: 1.05,
    };
    let report = run_resilient(
        &plan,
        &[("t", &input)],
        &mut dev,
        &WeaverConfig::default(),
        &policy,
    )
    .expect("resilient run under 10% faults");

    assert_eq!(report.outputs, clean.outputs, "faults changed the answer");
    let res = report.resilience.as_ref().unwrap();
    assert!(res.retries >= 1, "no retry recorded at 10% faults: {res:?}");
    assert_eq!(res.faults_survived, res.retries);
    assert!(res.backoff_seconds > 0.0);
    // Chunked attempts run on scratch devices, so the parent's own fault
    // counter only sees faults on its mirrored transfers — the driver-side
    // ResilienceReport above is the authoritative count.
    assert_eq!(dev.memory().in_use(), 0, "faulty run leaked device memory");
}

/// A scripted first-launch fault costs exactly one retry with exactly the
/// base backoff: the whole fault → retry → success path is deterministic.
#[test]
fn scripted_fault_costs_exactly_one_retry() {
    let input = gen::micro_input(1_000, 2);
    let plan = select_plan(input.schema().clone());
    let mut dev = Device::new(DeviceConfig::fermi_c2050());
    dev.inject_faults(FaultConfig::scripted(vec![ScriptedFault {
        kind: FaultKind::Launch,
        attempt: 0,
    }]));
    let policy = RetryPolicy::default();
    let report = run_resilient(
        &plan,
        &[("t", &input)],
        &mut dev,
        &WeaverConfig::default(),
        &policy,
    )
    .unwrap();
    let res = report.resilience.as_ref().unwrap();
    assert_eq!((res.attempts, res.retries, res.faults_survived), (2, 1, 1));
    assert!((res.backoff_seconds - policy.base_backoff_seconds).abs() < 1e-15);
    assert_eq!(dev.stats().faults_injected, 1);
    assert_eq!(dev.memory().in_use(), 0);
}

/// A self-join over `keys` distinct key values, `n` rows total, whose
/// output is quadratic per key group: the admission estimator (which sizes
/// joins at `max(left, right)` rows) under-predicts it, so the plan is
/// admitted and then hits a *mid-run* capacity miss that only the
/// hash-partitioned Chunked rung can absorb — and only if the keys
/// actually spread across buckets.
fn exploding_join(n: usize, keys: u32) -> (QueryPlan, Relation) {
    let schema = Schema::uniform_u32(2);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::U32(i as u32 % keys), Value::U32(i as u32)])
        .collect();
    let input = Relation::from_rows(schema.clone(), &rows).unwrap();
    let mut plan = QueryPlan::new();
    let t = plan.add_input("t", schema);
    let j = plan.add_op(RaOp::Join { key_len: 1 }, &[t, t]).unwrap();
    plan.mark_output(j);
    (plan, input)
}

/// Ladder exhaustion is a *typed* verdict: with every key identical, hash
/// partitioning puts the whole input into one bucket at any chunk count,
/// so the ladder doubles chunks until the `MaxChunksExceeded` ceiling —
/// not a bare capacity error, and not a wrong answer.
#[test]
fn exploding_join_exhausts_ladder_with_typed_reason() {
    // 1024 all-equal keys: 8 KiB of input sails through admission, but the
    // 1 Mi-row join output cannot fit the 1 MiB device in any mode, and
    // one key means one bucket no matter how many chunks the ladder tries.
    let (plan, input) = exploding_join(1024, 1);
    let mut dev = Device::new(DeviceConfig::tiny());
    let err = run_resilient(
        &plan,
        &[("t", &input)],
        &mut dev,
        &WeaverConfig::default(),
        &RetryPolicy::default(),
    )
    .unwrap_err();
    match &err {
        WeaverError::LadderExhausted { stop, .. } => {
            assert_eq!(*stop, LadderStop::MaxChunksExceeded, "{err}");
        }
        other => panic!("expected LadderExhausted, got {other}"),
    }
    assert!(err.to_string().contains("chunk-count ceiling"), "{err}");
    assert_eq!(
        dev.memory().in_use(),
        0,
        "exhausted ladder leaked device memory"
    );
}

/// A genuinely non-partitionable plan (full SORT) over capacity is the one
/// case that still lands on `NonElementwiseBlocksChunking`: there is no
/// chunk strategy, so no rung exists below Staged.
#[test]
fn oversized_sort_exhausts_ladder_with_no_chunk_strategy() {
    let input = gen::micro_input(131_072, 3);
    let mut plan = QueryPlan::new();
    let t = plan.add_input("t", input.schema().clone());
    let s = plan.add_op(RaOp::Sort { attrs: vec![0] }, &[t]).unwrap();
    plan.mark_output(s);
    let mut dev = Device::new(DeviceConfig::tiny());
    let err = run_resilient(
        &plan,
        &[("t", &input)],
        &mut dev,
        &WeaverConfig::default(),
        &RetryPolicy::default(),
    )
    .unwrap_err();
    let msg = err.to_string();
    match &err {
        WeaverError::LadderExhausted { stop, .. } => {
            assert_eq!(*stop, LadderStop::NonElementwiseBlocksChunking, "{err}");
            assert!(msg.contains("no chunk strategy"), "{msg}");
        }
        // Admission may already prove no mode fits before the first run.
        WeaverError::Admission { detail } => {
            assert!(detail.contains("no chunk strategy"), "{detail}");
        }
        other => panic!("expected a typed no-strategy verdict, got {other}"),
    }
    assert_eq!(dev.memory().in_use(), 0, "error path leaked device memory");
}

/// With distinct keys the same mid-run explosion is *survivable*: the
/// ladder lands on hash-partitioned chunking, doubles the bucket count
/// until each bucket pair fits the 1 MiB device, and the answer is
/// byte-identical to the relational oracle.
#[test]
fn exploding_join_completes_via_hash_partitioned_chunks() {
    // 4096 rows over 64 keys: admission predicts a 4096-row join output,
    // but 64 rows per key explode to 64 * 64² = 262_144 output rows
    // (~6 MiB) — far past the 1 MiB device until partitioning splits the
    // key groups across buckets.
    let (plan, input) = exploding_join(4096, 64);
    let oracle = kw_relational::ops::join(&input, &input, 1).unwrap();

    let mut dev = Device::new(DeviceConfig::tiny());
    let report = run_resilient(
        &plan,
        &[("t", &input)],
        &mut dev,
        &WeaverConfig::default(),
        &RetryPolicy::default(),
    )
    .expect("exploding join should survive via hash partitioning");

    let out = report.outputs.values().next().unwrap();
    assert_eq!(out, &oracle, "partitioned join changed the answer");
    let res = report.resilience.as_ref().unwrap();
    assert!(
        matches!(res.final_mode, AdmittedMode::Chunked { chunks } if chunks >= 2),
        "{res:?}"
    );
    assert_eq!(dev.memory().in_use(), 0, "partitioned run leaked memory");
}

/// The same exploding join inside a batch quarantines only itself: the
/// batch completes, the join reports `Failed` with the ladder-exhaustion
/// reason, and its neighbors' answers are untouched.
#[test]
fn exploding_join_in_batch_quarantines_only_itself() {
    let (join_plan, join_input) = exploding_join(1024, 1);
    let ok_input = gen::micro_input(5_000, 9);
    let ok_plan = select_plan(ok_input.schema().clone());
    let bj = [("t", &join_input)];
    let bo = [("t", &ok_input)];
    let queries = [
        BatchQuery {
            name: "boom",
            plan: &join_plan,
            bindings: &bj,
        },
        BatchQuery {
            name: "ok",
            plan: &ok_plan,
            bindings: &bo,
        },
    ];
    let config = WeaverConfig::default();
    let compiled = [
        compile(&join_plan, &config).unwrap(),
        compile(&ok_plan, &config).unwrap(),
    ];
    let mut dev = Device::new(DeviceConfig::tiny());
    let batch = execute_batch(
        &queries,
        &compiled,
        &mut dev,
        &config,
        &RetryPolicy::default(),
    )
    .unwrap();

    let boom = &batch.queries[0];
    match &boom.outcome {
        QueryOutcome::Failed { reason } => {
            assert!(reason.contains("chunk-count ceiling"), "{reason}");
        }
        other => panic!("expected quarantine, got {other:?}"),
    }
    assert!(boom.outputs.is_empty());

    let ok = &batch.queries[1];
    assert!(ok.outcome.is_success(), "{:?}", ok.outcome);
    let mut solo = Device::new(DeviceConfig::fermi_c2050());
    let oracle = execute_plan(&ok_plan, &bo, &mut solo, &WeaverConfig::default()).unwrap();
    assert_eq!(ok.outputs, oracle.outputs);
    assert_eq!(dev.memory().in_use(), 0, "quarantine leaked device memory");
}

/// An elementwise SELECT/PROJECT chain of the given depth (≥ 1) over a
/// 3-column schema, for the property test below.
fn chain_plan(schema: Schema, depth: usize) -> QueryPlan {
    let mut plan = QueryPlan::new();
    let mut cur = plan.add_input("t", schema);
    for i in 0..depth.max(1) {
        let op = if i % 2 == 0 {
            RaOp::Select {
                pred: Predicate::cmp(i % 3, CmpOp::Lt, Value::U32(u32::MAX / 2)),
            }
        } else {
            RaOp::Project {
                attrs: vec![0, 1, 2],
                key_arity: 1,
            }
        };
        cur = plan.add_op(op, &[cur]).unwrap();
    }
    plan.mark_output(cur);
    plan
}

proptest! {
    /// Arbitrary small plans on arbitrary small devices under arbitrary
    /// transient-fault rates: the resilient driver either returns
    /// oracle-equal outputs or a typed error — it never panics, never leaks
    /// device memory, and is deterministic (two identical runs agree).
    #[test]
    fn resilient_execution_is_safe_and_deterministic(
        depth in 1usize..4,
        n in 0usize..300,
        data_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        cap_idx in 0usize..4,
        rate_idx in 0usize..3,
    ) {
        let input = gen::micro_input(n, data_seed);
        let plan = chain_plan(input.schema().clone(), depth);
        let capacities = [3u64 << 30, 1 << 20, 1 << 13, 1 << 10];
        let rate = [0.0, 0.05, 0.2][rate_idx];
        let faults = FaultConfig {
            seed: fault_seed,
            transfer_rate: rate,
            launch_rate: rate,
            ..FaultConfig::default()
        };
        let policy = RetryPolicy {
            max_retries: 32,
            base_backoff_seconds: 1e-4,
            backoff_multiplier: 1.1,
        };

        let run_once = || {
            let mut dev = Device::new(DeviceConfig {
                global_mem_bytes: capacities[cap_idx],
                ..DeviceConfig::fermi_c2050()
            });
            dev.inject_faults(faults.clone());
            let result = run_resilient(
                &plan,
                &[("t", &input)],
                &mut dev,
                &WeaverConfig::default(),
                &policy,
            );
            let leaked = dev.memory().in_use();
            (result.map(|r| r.outputs).map_err(|e| e.to_string()), leaked)
        };

        let (first, leak1) = run_once();
        let (second, leak2) = run_once();
        prop_assert_eq!(leak1, 0, "first run leaked");
        prop_assert_eq!(leak2, 0, "second run leaked");
        prop_assert_eq!(&first, &second, "identical runs disagreed");

        match &first {
            Ok(outputs) => {
                let mut big = Device::new(DeviceConfig::fermi_c2050());
                let oracle = execute_plan(
                    &plan,
                    &[("t", &input)],
                    &mut big,
                    &WeaverConfig::default(),
                )
                .expect("oracle run on a clean full-size device");
                prop_assert_eq!(outputs, &oracle.outputs);
            }
            Err(msg) => prop_assert!(!msg.is_empty(), "untyped empty error"),
        }
    }
}

#[test]
fn all_weaver_errors_display_nonempty() {
    use kw_core::WeaverError;
    let errors: Vec<WeaverError> = vec![
        WeaverError::plan("broken"),
        WeaverError::binding("missing"),
        kw_relational::RelationalError::NotSorted { index: 1 }.into(),
        kw_gpu_sim::SimError::InvalidBuffer { id: 1 }.into(),
        kw_kernel_ir::IrError::validation("bad").into(),
        kw_primitives::IrBuildError::new("nope").into(),
    ];
    for e in errors {
        assert!(!e.to_string().is_empty());
        let _ = format!("{e:?}");
    }
}
