//! Property and acceptance tests for the multi-query stream scheduler:
//! batching never changes results, never loses to running the queries one
//! at a time, never beats the busiest engine's physical floor — and on
//! real batches it strictly wins while the trace still reconciles.

use proptest::prelude::*;

use kw_core::{
    compile, execute_batch, execute_plan, BatchQuery, BatchReport, QueryPlan, RetryPolicy,
    WeaverConfig,
};
use kw_gpu_sim::{Device, DeviceConfig, FaultConfig, FaultKind, ScriptedFault};
use kw_primitives::RaOp;
use kw_relational::{gen, CmpOp, Predicate, Relation, Value};

fn device() -> Device {
    Device::new(DeviceConfig::fermi_c2050())
}

/// Compile every query and run the batch under `policy`.
fn run_batch(
    queries: &[BatchQuery<'_>],
    dev: &mut Device,
    policy: &RetryPolicy,
) -> kw_core::Result<BatchReport> {
    let config = WeaverConfig::default();
    let compiled = queries
        .iter()
        .map(|q| compile(q.plan, &config))
        .collect::<kw_core::Result<Vec<_>>>()?;
    execute_batch(queries, &compiled, dev, &config, policy)
}

/// A SELECT chain of `depth` steps over a 4-attribute u32 input. Chains
/// have no intra-query parallelism, so a solo chain's makespan equals its
/// serialized cost — which makes "batch beats serial" a tight property.
fn chain(input: &Relation, depth: usize) -> QueryPlan {
    let mut plan = QueryPlan::new();
    let mut cur = plan.add_input("t", input.schema().clone());
    for a in 0..depth {
        cur = plan
            .add_op(
                RaOp::Select {
                    pred: Predicate::cmp(a % 4, CmpOp::Lt, Value::U32(u32::MAX / 2 + a as u32)),
                },
                &[cur],
            )
            .expect("chain type-checks");
    }
    plan.mark_output(cur);
    plan
}

/// Random per-query shapes: `(tuples, seed, depth)`.
fn arb_batch() -> impl Strategy<Value = Vec<(usize, u64, usize)>> {
    proptest::collection::vec((64usize..4_000, any::<u64>(), 1usize..4), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sharing the device never loses to running the same queries one at
    /// a time, and never beats the busiest engine's busy time.
    #[test]
    fn batch_makespan_is_bounded_both_ways(shapes in arb_batch()) {
        let inputs: Vec<Relation> =
            shapes.iter().map(|&(n, seed, _)| gen::micro_input(n, seed)).collect();
        let plans: Vec<QueryPlan> =
            shapes.iter().zip(&inputs).map(|(&(_, _, d), i)| chain(i, d)).collect();
        let bindings: Vec<[(&str, &Relation); 1]> =
            inputs.iter().map(|i| [("t", i)]).collect();
        let queries: Vec<BatchQuery<'_>> = plans
            .iter()
            .zip(&bindings)
            .map(|(p, b)| BatchQuery { name: "q", plan: p, bindings: b })
            .collect();

        let mut dev = device();
        let batch = run_batch(&queries, &mut dev, &RetryPolicy::default()).unwrap();

        let mut solo_sum = 0.0;
        for q in &queries {
            let mut d = device();
            solo_sum += run_batch(&[*q], &mut d, &RetryPolicy::default())
                .unwrap()
                .makespan_seconds;
        }
        prop_assert!(
            batch.makespan_seconds <= solo_sum + 1e-12,
            "batch {} vs serial {}",
            batch.makespan_seconds,
            solo_sum
        );

        let busiest = dev.streams().engine_busy().values().copied().max().unwrap_or(0);
        let floor = dev.config().cycles_to_seconds(busiest);
        prop_assert!(
            batch.makespan_seconds >= floor - 1e-12,
            "makespan {} under engine floor {}",
            batch.makespan_seconds,
            floor
        );
        prop_assert!(batch.makespan_seconds <= batch.serialized_seconds + 1e-12);
    }

    /// Stream interleaving decides when work runs, never what it computes:
    /// every query's outputs are byte-identical to its solo execution, in
    /// any batch order, and the schedule itself is deterministic.
    #[test]
    fn batched_outputs_are_solo_outputs_and_deterministic(shapes in arb_batch()) {
        let inputs: Vec<Relation> =
            shapes.iter().map(|&(n, seed, _)| gen::micro_input(n, seed)).collect();
        let plans: Vec<QueryPlan> =
            shapes.iter().zip(&inputs).map(|(&(_, _, d), i)| chain(i, d)).collect();
        let bindings: Vec<[(&str, &Relation); 1]> =
            inputs.iter().map(|i| [("t", i)]).collect();
        let queries: Vec<BatchQuery<'_>> = plans
            .iter()
            .zip(&bindings)
            .map(|(p, b)| BatchQuery { name: "q", plan: p, bindings: b })
            .collect();

        let mut dev = device();
        let batch = run_batch(&queries, &mut dev, &RetryPolicy::default()).unwrap();

        // Byte-identical to solo execution.
        for (q, r) in queries.iter().zip(&batch.queries) {
            let mut d = device();
            let solo = execute_plan(q.plan, q.bindings, &mut d, &WeaverConfig::default()).unwrap();
            prop_assert_eq!(&r.outputs, &solo.outputs);
        }

        // Deterministic: an identical batch reproduces the exact schedule.
        let mut dev2 = device();
        let again = run_batch(&queries, &mut dev2, &RetryPolicy::default()).unwrap();
        prop_assert_eq!(batch.makespan_seconds.to_bits(), again.makespan_seconds.to_bits());
        for (a, b) in batch.queries.iter().zip(&again.queries) {
            prop_assert_eq!(&a.outputs, &b.outputs);
            prop_assert_eq!(a.latency_seconds.to_bits(), b.latency_seconds.to_bits());
        }
        // The nearest-rank percentiles are deterministic too.
        prop_assert_eq!(
            batch.latency_p50_seconds.to_bits(),
            again.latency_p50_seconds.to_bits()
        );
        prop_assert_eq!(
            batch.latency_p99_seconds.to_bits(),
            again.latency_p99_seconds.to_bits()
        );

        // Reversing the batch reorders streams but not answers.
        let reversed: Vec<BatchQuery<'_>> = queries.iter().rev().copied().collect();
        let mut dev3 = device();
        let rev = run_batch(&reversed, &mut dev3, &RetryPolicy::default()).unwrap();
        for (r, fwd) in rev.queries.iter().zip(batch.queries.iter().rev()) {
            prop_assert_eq!(&r.outputs, &fwd.outputs);
        }
    }

    /// Fault domains do not bleed: under arbitrary transient fault rates,
    /// every *surviving* query's outputs are byte-identical to the same
    /// batch run fault-free, quarantined queries return nothing, the
    /// retried batch still satisfies `serialized >= makespan`, no device
    /// memory leaks, and the whole thing is deterministic.
    #[test]
    fn faulted_batch_preserves_survivor_outputs(
        shapes in arb_batch(),
        fault_seed in any::<u64>(),
        rate_idx in 0usize..3,
    ) {
        let rate = [0.02, 0.05, 0.10][rate_idx];
        let inputs: Vec<Relation> =
            shapes.iter().map(|&(n, seed, _)| gen::micro_input(n, seed)).collect();
        let plans: Vec<QueryPlan> =
            shapes.iter().zip(&inputs).map(|(&(_, _, d), i)| chain(i, d)).collect();
        let bindings: Vec<[(&str, &Relation); 1]> =
            inputs.iter().map(|i| [("t", i)]).collect();
        let queries: Vec<BatchQuery<'_>> = plans
            .iter()
            .zip(&bindings)
            .map(|(p, b)| BatchQuery { name: "q", plan: p, bindings: b })
            .collect();

        let mut clean_dev = device();
        let clean = run_batch(&queries, &mut clean_dev, &RetryPolicy::default()).unwrap();

        let faults = FaultConfig {
            seed: fault_seed,
            transfer_rate: rate,
            launch_rate: rate,
            ..FaultConfig::default()
        };
        let policy = RetryPolicy {
            max_retries: 64,
            base_backoff_seconds: 1e-4,
            backoff_multiplier: 1.1,
        };
        let run_once = || {
            let mut dev = device();
            dev.inject_faults(faults.clone());
            let batch =
                run_batch(&queries, &mut dev, &policy)
                    .unwrap();
            let leaked = dev.memory().in_use();
            let reconciled = kw_gpu_sim::reconcile(dev.spans(), dev.stats());
            (batch, leaked, reconciled)
        };
        let (batch, leaked, reconciled) = run_once();

        prop_assert_eq!(leaked, 0, "faulted batch leaked device memory");
        prop_assert!(reconciled.is_ok(), "{:?}", reconciled);
        for (f, c) in batch.queries.iter().zip(&clean.queries) {
            if f.outcome.is_success() {
                prop_assert_eq!(
                    &f.outputs, &c.outputs,
                    "survivor diverged from fault-free run"
                );
            } else {
                prop_assert!(f.outputs.is_empty(), "quarantined query kept outputs");
            }
        }
        prop_assert!(
            batch.serialized_seconds >= batch.makespan_seconds - 1e-12,
            "retried batch broke serialized {} >= makespan {}",
            batch.serialized_seconds,
            batch.makespan_seconds
        );
        let successes = batch.queries.iter().filter(|q| q.outcome.is_success()).count();
        if batch.makespan_seconds > 0.0 {
            let expect = successes as f64 / batch.makespan_seconds;
            prop_assert!((batch.goodput_qps - expect).abs() < 1e-9);
        }

        // Identical faulted runs agree bit-for-bit.
        let (again, _, _) = run_once();
        prop_assert_eq!(
            batch.makespan_seconds.to_bits(),
            again.makespan_seconds.to_bits()
        );
        for (a, b) in batch.queries.iter().zip(&again.queries) {
            prop_assert_eq!(&a.outcome, &b.outcome);
            prop_assert_eq!(&a.outputs, &b.outputs);
        }
    }
}

/// A scripted transient fault on the batch's first shared-device transfer
/// is absorbed deterministically: the struck query reports `Retried` with
/// the quoted backoff, its outputs and every other query's outputs are
/// byte-identical to the fault-free batch, and the retried batch still
/// satisfies `serialized >= makespan` (the backoff is serial work, so it
/// counts in both).
#[test]
fn scripted_batch_fault_retries_without_changing_answers() {
    let a = gen::micro_input(60_000, 91);
    let b = gen::micro_input(50_000, 92);
    let pa = chain(&a, 2);
    let pb = chain(&b, 3);
    let (ba, bb) = ([("t", &a)], [("t", &b)]);
    let queries = [
        BatchQuery {
            name: "alpha",
            plan: &pa,
            bindings: &ba,
        },
        BatchQuery {
            name: "beta",
            plan: &pb,
            bindings: &bb,
        },
    ];

    let mut clean_dev = device();
    let clean = run_batch(&queries, &mut clean_dev, &RetryPolicy::default()).unwrap();

    let mut dev = device();
    dev.inject_faults(FaultConfig::scripted(vec![ScriptedFault {
        kind: FaultKind::Transfer,
        attempt: 0,
    }]));
    let policy = RetryPolicy::default();
    let batch = run_batch(&queries, &mut dev, &policy).unwrap();

    let struck: Vec<_> = batch.queries.iter().filter(|q| q.retries > 0).collect();
    assert_eq!(struck.len(), 1, "exactly one query absorbs the fault");
    assert_eq!(struck[0].retries, 1);
    assert!((struck[0].backoff_seconds - policy.base_backoff_seconds).abs() < 1e-15);
    assert_eq!(batch.quarantined_count(), 0);
    for (f, c) in batch.queries.iter().zip(&clean.queries) {
        assert_eq!(f.outputs, c.outputs, "{}", f.name);
    }
    assert!(
        batch.serialized_seconds >= batch.makespan_seconds - 1e-15,
        "serialized {} vs makespan {}",
        batch.serialized_seconds,
        batch.makespan_seconds
    );
    // The backoff delayed the batch relative to the clean run.
    assert!(batch.makespan_seconds > clean.makespan_seconds);
    assert_eq!(dev.memory().in_use(), 0);
    kw_gpu_sim::reconcile(dev.spans(), dev.stats()).unwrap();
}

/// One seeded batch on a tiny device covers the whole outcome taxonomy: a
/// scripted transient fault on the first wave's upload is retried, a whale
/// too big for any wave degrades down the ladder, an unbound binding fails,
/// and the remaining query completes clean. The batch never aborts
/// wholesale: survivors match the fault-free run, the failed query keeps no
/// outputs, no device memory leaks and the trace reconciles.
#[test]
fn one_batch_covers_the_whole_outcome_taxonomy() {
    let small_a = gen::micro_input(20_000, 61);
    let small_b = gen::micro_input(20_000, 62);
    let whale_in = gen::micro_input(120_000, 63);
    let plan_a = chain(&small_a, 2);
    let plan_b = chain(&small_b, 3);
    let whale_plan = chain(&whale_in, 2);
    let (ba, bb, bw) = ([("t", &small_a)], [("t", &small_b)], [("t", &whale_in)]);
    let unbound = [("wrong_name", &small_b)];
    let queries = [
        BatchQuery {
            name: "struck",
            plan: &plan_a,
            bindings: &ba,
        },
        BatchQuery {
            name: "steady",
            plan: &plan_b,
            bindings: &bb,
        },
        BatchQuery {
            name: "whale",
            plan: &whale_plan,
            bindings: &bw,
        },
        BatchQuery {
            name: "unbound",
            plan: &plan_b,
            bindings: &unbound,
        },
    ];

    let mut clean_dev = Device::new(DeviceConfig::tiny());
    let clean = run_batch(&queries, &mut clean_dev, &RetryPolicy::default()).unwrap();

    let mut dev = Device::new(DeviceConfig::tiny());
    dev.inject_faults(FaultConfig::scripted(vec![ScriptedFault {
        kind: FaultKind::Transfer,
        attempt: 0,
    }]));
    let batch = run_batch(&queries, &mut dev, &RetryPolicy::default()).unwrap();

    let outcomes: Vec<&str> = batch.queries.iter().map(|q| q.outcome.name()).collect();
    assert_eq!(outcomes, ["retried", "completed", "degraded", "failed"]);
    for (f, c) in batch.queries.iter().zip(&clean.queries) {
        if f.outcome.is_success() {
            assert_eq!(f.outputs, c.outputs, "{}: survivor diverged", f.name);
        } else {
            assert!(
                f.outputs.is_empty(),
                "{}: failed query kept outputs",
                f.name
            );
        }
    }
    assert!(
        batch.serialized_seconds >= batch.makespan_seconds - 1e-15,
        "serialized {} vs makespan {}",
        batch.serialized_seconds,
        batch.makespan_seconds
    );
    assert!(
        batch.goodput_qps < batch.throughput_qps,
        "the failed query must cost goodput"
    );
    assert_eq!(dev.memory().in_use(), 0);
    kw_gpu_sim::reconcile(dev.spans(), dev.stats()).unwrap();
}

/// The ISSUE's acceptance bar: for at least two independent plans, the
/// batch makespan is *strictly* smaller than the sum of solo makespans,
/// per-query outputs match solo execution exactly, and the shared device's
/// span log still reconciles with its counters.
#[test]
fn concurrent_batch_strictly_beats_serial_with_identical_outputs() {
    let a = gen::micro_input(150_000, 71);
    let b = gen::micro_input(120_000, 72);
    let c = gen::micro_input(90_000, 73);
    let pa = chain(&a, 2);
    let pb = chain(&b, 3);
    let pc = chain(&c, 2);
    let (ba, bb, bc) = ([("t", &a)], [("t", &b)], [("t", &c)]);
    let queries = [
        BatchQuery {
            name: "alpha",
            plan: &pa,
            bindings: &ba,
        },
        BatchQuery {
            name: "beta",
            plan: &pb,
            bindings: &bb,
        },
        BatchQuery {
            name: "gamma",
            plan: &pc,
            bindings: &bc,
        },
    ];

    let mut dev = device();
    let batch = run_batch(&queries, &mut dev, &RetryPolicy::default()).unwrap();
    kw_gpu_sim::reconcile(dev.spans(), dev.stats()).unwrap();

    let mut solo_sum = 0.0;
    for q in &queries {
        let mut d = device();
        let solo = run_batch(&[*q], &mut d, &RetryPolicy::default()).unwrap();
        solo_sum += solo.makespan_seconds;

        let mut pd = device();
        let plain = execute_plan(q.plan, q.bindings, &mut pd, &WeaverConfig::default()).unwrap();
        let batched = &batch.queries[queries.iter().position(|x| x.name == q.name).unwrap()];
        assert_eq!(batched.outputs, plain.outputs, "{}", q.name);
    }
    assert!(
        batch.makespan_seconds < solo_sum,
        "batch must strictly beat serial: {} vs {}",
        batch.makespan_seconds,
        solo_sum
    );
    assert!((batch.throughput_qps - 3.0 / batch.makespan_seconds).abs() < 1e-9);
}

/// The observability fields of `BatchReport`: latency percentiles are
/// exact nearest-rank order statistics over the successful queries (p99
/// bit-identical to the slowest at these batch sizes), per-engine busy
/// time is reported in seconds, and utilization is busy over makespan
/// in (0, 1].
#[test]
fn batch_report_percentiles_and_engine_utilization_are_consistent() {
    let a = gen::micro_input(150_000, 81);
    let b = gen::micro_input(120_000, 82);
    let c = gen::micro_input(90_000, 83);
    let pa = chain(&a, 2);
    let pb = chain(&b, 3);
    let pc = chain(&c, 2);
    let (ba, bb, bc) = ([("t", &a)], [("t", &b)], [("t", &c)]);
    let queries = [
        BatchQuery {
            name: "alpha",
            plan: &pa,
            bindings: &ba,
        },
        BatchQuery {
            name: "beta",
            plan: &pb,
            bindings: &bb,
        },
        BatchQuery {
            name: "gamma",
            plan: &pc,
            bindings: &bc,
        },
    ];

    let mut dev = device();
    let batch = run_batch(&queries, &mut dev, &RetryPolicy::default()).unwrap();

    // Percentiles are monotone, positive, and *exact*: each one is a real
    // observed latency (nearest rank), and with fewer than 100 queries the
    // p99 is bit-identical to the slowest successful query — not a
    // power-of-two histogram bucket bound.
    assert!(batch.latency_p50_seconds > 0.0);
    assert!(batch.latency_p50_seconds <= batch.latency_p95_seconds);
    assert!(batch.latency_p95_seconds <= batch.latency_p99_seconds);
    let slowest = batch
        .queries
        .iter()
        .filter(|q| q.outcome.is_success())
        .map(|q| q.latency_seconds)
        .fold(0.0f64, f64::max);
    assert_eq!(
        batch.latency_p99_seconds.to_bits(),
        slowest.to_bits(),
        "exact p99 {} must equal max successful latency {slowest}",
        batch.latency_p99_seconds
    );
    for p in [
        batch.latency_p50_seconds,
        batch.latency_p95_seconds,
        batch.latency_p99_seconds,
    ] {
        assert!(
            batch
                .queries
                .iter()
                .any(|q| q.latency_seconds.to_bits() == p.to_bits()),
            "percentile {p} is not an observed latency"
        );
    }

    // Engine accounting: the three Fermi engines all worked, busy time is
    // bounded by the makespan, and utilization = busy / makespan.
    for engine in ["compute0", "copy.h2d", "copy.d2h"] {
        let busy = *batch
            .engine_busy_seconds
            .get(engine)
            .unwrap_or_else(|| panic!("missing engine {engine}"));
        let util = batch.engine_utilization[engine];
        assert!(busy > 0.0, "{engine} idle");
        assert!(busy <= batch.makespan_seconds + 1e-12, "{engine}");
        assert!(util > 0.0 && util <= 1.0 + 1e-9, "{engine} util {util}");
        assert!(
            (util - busy / batch.makespan_seconds).abs() < 1e-9,
            "{engine}"
        );
    }

    // The attached profile covers the whole batch window.
    assert!(batch.profile.wall_seconds > 0.0);
    assert!(
        (batch.profile.wall_seconds - batch.makespan_seconds).abs()
            < 1e-12 + 1e-9 * batch.makespan_seconds
    );
}
