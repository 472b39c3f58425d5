//! Integration and property tests for the open-loop query service and the
//! compiled-plan cache: caching never changes answers, cache keys separate
//! exactly the shapes that compile differently, and a service run is a
//! pure function of its seed.

use proptest::prelude::*;

use kw_core::{
    compile, execute_batch, plan_shape_key, run_service, BatchQuery, PlanCache, QueryPlan,
    RetryPolicy, ServiceConfig, WeaverConfig,
};
use kw_gpu_sim::{Device, DeviceConfig};
use kw_primitives::RaOp;
use kw_relational::{gen, CmpOp, Predicate, Relation, Value};

fn device() -> Device {
    Device::new(DeviceConfig::fermi_c2050())
}

/// A SELECT chain of `depth` steps over the 4-attribute micro schema.
fn chain(input: &Relation, depth: usize, threshold: u32) -> QueryPlan {
    let mut plan = QueryPlan::new();
    let mut cur = plan.add_input("t", input.schema().clone());
    for a in 0..depth {
        cur = plan
            .add_op(
                RaOp::Select {
                    pred: Predicate::cmp(a % 4, CmpOp::Lt, Value::U32(threshold)),
                },
                &[cur],
            )
            .expect("chain type-checks");
    }
    plan.mark_output(cur);
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Executing a shape with a cache-served compiled plan is byte-identical
    /// to compiling it fresh for every query — for any shape, binding
    /// contents, and repeat count.
    #[test]
    fn cached_compile_execution_is_byte_identical(
        n in 64usize..3_000,
        seed in any::<u64>(),
        depth in 1usize..4,
        threshold in any::<u32>(),
        repeats in 1usize..4,
    ) {
        let input = gen::micro_input(n, seed);
        let plan = chain(&input, depth, threshold);
        let bindings = [("t", &input)];
        let queries: Vec<BatchQuery<'_>> = (0..repeats)
            .map(|_| BatchQuery { name: "q", plan: &plan, bindings: &bindings })
            .collect();
        let config = WeaverConfig::default();

        // Fresh path: one compilation per query.
        let fresh_compiled: Vec<_> = (0..repeats).map(|_| compile(&plan, &config).unwrap()).collect();
        let mut fresh_dev = device();
        let fresh = execute_batch(
            &queries,
            &fresh_compiled,
            &mut fresh_dev,
            &config,
            &RetryPolicy::default(),
        )
        .unwrap();

        // Cached path: every compiled plan comes from the cache; after the
        // first miss each lookup is a hit serving the same artifact.
        let mut cache = PlanCache::new(4);
        let compiled: Vec<_> = (0..repeats)
            .map(|_| cache.get_or_compile(&plan, &config).unwrap().0)
            .collect();
        prop_assert_eq!(cache.stats().misses, 1);
        prop_assert_eq!(cache.stats().hits, repeats as u64 - 1);
        let mut cached_dev = device();
        let cached = execute_batch(
            &queries,
            &compiled,
            &mut cached_dev,
            &config,
            &RetryPolicy::default(),
        )
        .unwrap();

        prop_assert_eq!(
            fresh.makespan_seconds.to_bits(),
            cached.makespan_seconds.to_bits()
        );
        for (f, c) in fresh.queries.iter().zip(&cached.queries) {
            prop_assert_eq!(&f.outputs, &c.outputs);
            prop_assert_eq!(&f.outcome, &c.outcome);
            prop_assert_eq!(f.latency_seconds.to_bits(), c.latency_seconds.to_bits());
        }
    }

    /// Shape keys collide exactly when the shapes are genuinely identical:
    /// same structure + same fusion-relevant config ⇒ same key, and any
    /// structural difference (depth, predicate constant) ⇒ different keys.
    #[test]
    fn shape_keys_separate_exactly_the_distinct_shapes(
        depth_a in 1usize..5,
        depth_b in 1usize..5,
        thr_a in any::<u32>(),
        thr_b in any::<u32>(),
    ) {
        let input = gen::micro_input(64, 1);
        let config = WeaverConfig::default();
        let a = chain(&input, depth_a, thr_a);
        let b = chain(&input, depth_b, thr_b);
        let rebuilt_a = chain(&input, depth_a, thr_a);

        // Identical construction ⇒ identical key.
        prop_assert_eq!(plan_shape_key(&a, &config), plan_shape_key(&rebuilt_a, &config));
        // Key equality ⇔ plan equality (the key is an injective encoding).
        prop_assert_eq!(
            plan_shape_key(&a, &config) == plan_shape_key(&b, &config),
            a == b
        );
        // Fusion-relevant config always separates keys.
        prop_assert_ne!(
            plan_shape_key(&a, &config),
            plan_shape_key(&a, &config.baseline())
        );
    }

    /// A service run is a pure function of its seed: identical seeds agree
    /// bit-for-bit, and the arrival schedule actually depends on the seed.
    #[test]
    fn service_runs_are_seed_deterministic(
        seed in any::<u64>(),
        offered_idx in 0usize..3,
    ) {
        let offered = [400.0, 1_500.0, 6_000.0][offered_idx];
        let input = gen::micro_input(2_000, 11);
        let plan = chain(&input, 2, u32::MAX / 2);
        let bindings = [("t", &input)];
        let shapes = [BatchQuery { name: "q", plan: &plan, bindings: &bindings }];
        let service = ServiceConfig {
            arrivals: 16,
            offered_qps: offered,
            seed,
            ..ServiceConfig::default()
        };

        let run = || {
            let mut dev = device();
            run_service(&shapes, &mut dev, &WeaverConfig::default(), &service).unwrap()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.arrivals, 16);
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.dispatches, b.dispatches);
        prop_assert_eq!(a.total.p99_seconds.to_bits(), b.total.p99_seconds.to_bits());
        prop_assert_eq!(a.achieved_qps.to_bits(), b.achieved_qps.to_bits());
        for (x, y) in a.queries.iter().zip(&b.queries) {
            prop_assert_eq!(x.arrival_seconds.to_bits(), y.arrival_seconds.to_bits());
            prop_assert_eq!(x.total_seconds.to_bits(), y.total_seconds.to_bits());
            prop_assert_eq!(x.cache_hit, y.cache_hit);
        }

        // A different seed moves the arrival schedule.
        let other = ServiceConfig { seed: seed.wrapping_add(1), ..service };
        let mut dev = device();
        let c = run_service(&shapes, &mut dev, &WeaverConfig::default(), &other).unwrap();
        prop_assert_ne!(
            a.queries[0].arrival_seconds.to_bits(),
            c.queries[0].arrival_seconds.to_bits()
        );
    }
}

/// Service-level accounting invariants on a mixed-shape run: every arrival
/// is accounted for, exactly one cache lookup happens per arrival, totals
/// decompose into queueing + execution, and percentiles are monotone.
#[test]
fn service_accounting_invariants_hold_on_mixed_shapes() {
    let inputs: Vec<Relation> = (0..3).map(|i| gen::micro_input(4_000, 40 + i)).collect();
    let plans: Vec<QueryPlan> = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| chain(input, i + 1, u32::MAX / 2 + i as u32))
        .collect();
    let bindings: Vec<[(&str, &Relation); 1]> = inputs.iter().map(|i| [("t", i)]).collect();
    let names = ["alpha", "beta", "gamma"];
    let shapes: Vec<BatchQuery<'_>> = plans
        .iter()
        .zip(&bindings)
        .zip(names)
        .map(|((p, b), name)| BatchQuery {
            name,
            plan: p,
            bindings: b,
        })
        .collect();

    let service = ServiceConfig {
        arrivals: 48,
        offered_qps: 3_000.0,
        ..ServiceConfig::default()
    };
    let mut dev = device();
    let report = run_service(&shapes, &mut dev, &WeaverConfig::default(), &service).unwrap();

    assert_eq!(report.arrivals, 48);
    assert_eq!(report.completed + report.failed, report.arrivals);
    assert_eq!(
        report.cache_hits + report.cache_misses,
        report.arrivals as u64,
        "exactly one cache lookup per arrival"
    );
    assert_eq!(report.cache_misses, 3, "one miss per distinct shape");
    assert!(report.dispatches >= 1);

    for q in &report.queries {
        assert!(
            (q.total_seconds - (q.queueing_seconds + q.execution_seconds)).abs() < 1e-12,
            "{}: total must decompose",
            q.name
        );
        assert!(q.queueing_seconds >= q.compile_seconds - 1e-12);
        if q.cache_hit {
            assert_eq!(q.compile_seconds, 0.0);
        }
    }
    for fam in [&report.queueing, &report.execution, &report.total] {
        assert!(fam.p50_seconds <= fam.p95_seconds);
        assert!(fam.p95_seconds <= fam.p99_seconds);
    }
    assert!(report.total.p99_seconds >= report.queueing.p99_seconds);
    assert!(report.total.p99_seconds >= report.execution.p99_seconds);
    assert!(report.duration_seconds > 0.0);
    assert!(report.achieved_qps > 0.0);
    let mut m = dev.metrics();
    report.publish(dev.config(), &mut m);
    assert_eq!(m.counter("kw_service_arrivals_total"), 48);
    assert_eq!(m.counter("kw_plan_cache_hits_total"), report.cache_hits);
}

/// The tentpole's acceptance bar at unit scale: at a fixed offered load
/// with repeated shapes, the cached service strictly beats the
/// compile-per-arrival baseline on total p99 and never loses on achieved
/// QPS.
#[test]
fn cached_service_strictly_beats_uncached_baseline() {
    let input = gen::micro_input(8_000, 55);
    let plan = chain(&input, 3, u32::MAX / 2);
    let bindings = [("t", &input)];
    let shapes = [BatchQuery {
        name: "repeat",
        plan: &plan,
        bindings: &bindings,
    }];
    let base = ServiceConfig {
        arrivals: 32,
        offered_qps: 2_500.0,
        ..ServiceConfig::default()
    };

    let run = |cache_capacity: usize| {
        let mut dev = device();
        let service = ServiceConfig {
            cache_capacity,
            ..base
        };
        run_service(&shapes, &mut dev, &WeaverConfig::default(), &service).unwrap()
    };
    let cached = run(32);
    let uncached = run(0);

    assert_eq!(cached.cache_misses, 1);
    assert_eq!(cached.cache_hits, 31);
    assert_eq!(uncached.cache_hits, 0);
    assert_eq!(uncached.cache_misses, 32);
    assert!(
        cached.total.p99_seconds < uncached.total.p99_seconds,
        "cached p99 {} must strictly beat uncached {}",
        cached.total.p99_seconds,
        uncached.total.p99_seconds
    );
    assert!(cached.achieved_qps >= uncached.achieved_qps - 1e-12);
    assert!(cached.compile_seconds_total < uncached.compile_seconds_total);
}
