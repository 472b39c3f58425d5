//! Property tests over random *DAG-shaped* plans (branches, shared
//! producers, multiple outputs): whatever Algorithm 1/2 and the weaver
//! decide, results must equal the CPU oracle (`kw_relational::ops` applied
//! node by node) on every execution path — fused and unfused, resident,
//! staged and chunked, under both arena policies, through the resilient
//! ladder and in a batch.

use std::collections::BTreeMap;

use proptest::prelude::*;

use kw_core::{
    compile, execute_batch, execute_compiled_resilient, execute_plan, select_chunk_strategy,
    ArenaPolicy, BatchQuery, ExecMode, NodeId, PlanNode, QueryPlan, RetryPolicy, WeaverConfig,
    WeaverError,
};
use kw_gpu_sim::{reconcile, Device, DeviceConfig};
use kw_primitives::RaOp;
use kw_relational::{gen, ops, CmpOp, Expr, Predicate, Relation, Schema, Value};

fn device() -> Device {
    Device::new(DeviceConfig::fermi_c2050())
}

/// Instructions for growing a random DAG: each entry picks producers by
/// index modulo the current frontier and an operator shape.
#[derive(Debug, Clone)]
enum GrowStep {
    Select(usize, u32),
    MapAdd(usize, u32),
    Join(usize, usize),
    SemiJoin(usize, usize, bool),
    Union(usize, usize),
}

fn arb_grow() -> impl Strategy<Value = GrowStep> {
    prop_oneof![
        (any::<usize>(), any::<u32>()).prop_map(|(a, v)| GrowStep::Select(a, v)),
        (any::<usize>(), 1u32..1000).prop_map(|(a, v)| GrowStep::MapAdd(a, v)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| GrowStep::Join(a, b)),
        (any::<usize>(), any::<usize>(), any::<bool>())
            .prop_map(|(a, b, n)| GrowStep::SemiJoin(a, b, n)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| GrowStep::Union(a, b)),
    ]
}

/// Grow a plan whose every node keeps the uniform 4×u32 schema (joins are
/// re-projected down), so any composition type-checks.
fn grow_plan(steps: &[GrowStep]) -> (QueryPlan, Vec<NodeId>) {
    let schema = Schema::uniform_u32(4);
    let mut plan = QueryPlan::new();
    let t0 = plan.add_input("t0", schema.clone());
    let t1 = plan.add_input("t1", schema);
    let mut frontier = vec![t0, t1];

    for step in steps {
        let pick = |i: usize| frontier[i % frontier.len()];
        let node = match step {
            GrowStep::Select(a, v) => plan
                .add_op(
                    RaOp::Select {
                        pred: Predicate::cmp(1 + (a % 3), CmpOp::Lt, Value::U32(*v | 0x0fff_ffff)),
                    },
                    &[pick(*a)],
                )
                .unwrap(),
            GrowStep::MapAdd(a, v) => plan
                .add_op(
                    RaOp::Map {
                        exprs: vec![
                            Expr::attr(0),
                            Expr::attr(1).add(Expr::lit(*v)),
                            Expr::attr(2),
                            Expr::attr(3),
                        ],
                        key_arity: 1,
                    },
                    &[pick(*a)],
                )
                .unwrap(),
            GrowStep::Join(a, b) => {
                let j = plan
                    .add_op(RaOp::Join { key_len: 1 }, &[pick(*a), pick(*b)])
                    .unwrap();
                // Back to 4 attributes so the frontier stays uniform.
                plan.add_op(
                    RaOp::Project {
                        attrs: vec![0, 1, 2, 3],
                        key_arity: 1,
                    },
                    &[j],
                )
                .unwrap()
            }
            GrowStep::SemiJoin(a, b, negated) => {
                let op = if *negated {
                    RaOp::AntiJoin { key_len: 1 }
                } else {
                    RaOp::SemiJoin { key_len: 1 }
                };
                plan.add_op(op, &[pick(*a), pick(*b)]).unwrap()
            }
            GrowStep::Union(a, b) => plan.add_op(RaOp::Union, &[pick(*a), pick(*b)]).unwrap(),
        };
        frontier.push(node);
    }

    // Every sink (unconsumed node) is a plan output.
    let sinks: Vec<NodeId> = frontier
        .iter()
        .copied()
        .filter(|&n| {
            plan.consumers(n).is_empty() && !matches!(plan.node(n), kw_core::PlanNode::Input { .. })
        })
        .collect();
    let outputs = if sinks.is_empty() {
        vec![*frontier.last().unwrap()]
    } else {
        sinks
    };
    for &o in &outputs {
        plan.mark_output(o);
    }
    (plan, outputs)
}

/// The marked outputs of `plan`, and nothing else, after evaluating every
/// node on the CPU with the matching `kw_relational::ops` call, `t0` bound
/// to `a` and `t1` to `b`. Node ids are in insertion order, so producers
/// come first.
fn oracle(plan: &QueryPlan, a: &Relation, b: &Relation) -> BTreeMap<NodeId, Relation> {
    let mut out: BTreeMap<NodeId, Relation> = BTreeMap::new();
    for id in plan.node_ids() {
        let rel = match plan.node(id) {
            PlanNode::Input { name, .. } => if name == "t0" { a } else { b }.clone(),
            PlanNode::Operator { op, inputs } => {
                let arg = |i: usize| &out[&inputs[i]];
                match op {
                    RaOp::Select { pred } => ops::select(arg(0), pred),
                    RaOp::Map { exprs, key_arity } => ops::compute(arg(0), exprs, *key_arity),
                    RaOp::Join { key_len } => ops::join(arg(0), arg(1), *key_len),
                    RaOp::Project { attrs, key_arity } => ops::project(arg(0), attrs, *key_arity),
                    RaOp::SemiJoin { key_len } => ops::semi_join(arg(0), arg(1), *key_len),
                    RaOp::AntiJoin { key_len } => ops::anti_join(arg(0), arg(1), *key_len),
                    RaOp::Union => ops::union(arg(0), arg(1)),
                    other => unreachable!("grow_plan adds no {other:?}"),
                }
                .expect("oracle evaluation")
            }
        };
        out.insert(id, rel);
    }
    plan.outputs()
        .iter()
        .map(|o| (*o, out[o].clone()))
        .collect()
}

fn inputs_for(seed: u64, n: usize) -> (Relation, Relation) {
    let schema = Schema::uniform_u32(4);
    let a = gen::random_relation(&schema, n, 256, &mut gen::rng(seed));
    let b = gen::random_relation(&schema, n, 256, &mut gen::rng(seed ^ 0xABCD));
    (a, b)
}

/// Every single-query path of `plan` as a config: fused and unfused, each
/// resident and staged, each whole and in 1, 2, 3 and 7 chunks (chunked
/// only when the plan has a chunk strategy), under `arena`.
fn path_configs(plan: &QueryPlan, arena: ArenaPolicy) -> Vec<WeaverConfig> {
    let chunk_counts: &[Option<usize>] = if select_chunk_strategy(plan).is_some() {
        &[None, Some(1), Some(2), Some(3), Some(7)]
    } else {
        &[None]
    };
    let mut configs = Vec::new();
    for fusion in [true, false] {
        for mode in [ExecMode::Resident, ExecMode::Staged] {
            for &chunks in chunk_counts {
                configs.push(WeaverConfig {
                    fusion,
                    mode,
                    chunks,
                    arena,
                    ..WeaverConfig::default()
                });
            }
        }
    }
    configs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_dags_fuse_correctly(
        steps in proptest::collection::vec(arb_grow(), 1..8),
        seed in any::<u64>(),
        n in 1usize..400,
    ) {
        let (plan, _) = grow_plan(&steps);
        prop_assume!(plan.validate().is_ok());
        let (a, b) = inputs_for(seed, n);
        let bindings = [("t0", &a), ("t1", &b)];
        // Every path shares the interpreter, so hold each to the CPU oracle:
        // an error they share would pass a comparison between paths.
        let expected = oracle(&plan, &a, &b);

        for arena in [ArenaPolicy::Spill, ArenaPolicy::Strict] {
            for config in path_configs(&plan, arena) {
                let mut dev = device();
                match execute_plan(&plan, &bindings, &mut dev, &config) {
                    Ok(report) => {
                        prop_assert_eq!(&report.outputs, &expected, "{:?}", config);
                        prop_assert!(report.gpu_seconds > 0.0, "{:?}", config);
                        prop_assert!(report.stats.kernel_launches > 0, "{:?}", config);
                        if config.chunks.is_some() {
                            prop_assert!(report.strategy.is_some(), "{:?}", config);
                            let reconciled = reconcile(dev.spans(), dev.stats());
                            prop_assert!(reconciled.is_ok(), "{:?}: {:?}", config, reconciled);
                        }
                    }
                    // A Strict arena may refuse a footprint the estimate
                    // under-shot; nothing else may fail.
                    Err(e) => prop_assert!(
                        arena == ArenaPolicy::Strict && e.is_capacity(),
                        "{:?}: {}", config, e
                    ),
                }
                prop_assert_eq!(dev.memory().in_use(), 0, "{:?}: all buffers freed", config);
            }
        }

        // The ladder on a device half the size of the inputs: the oracle's
        // answer, or a typed error — admission when no rung is predicted to
        // fit, ladder exhaustion when a bucket of duplicate join keys still
        // overflows at the chunk ceiling.
        let config = WeaverConfig::default();
        let compiled = compile(&plan, &config).expect("random DAGs compile");
        let input_bytes = (a.byte_size() + b.byte_size()) as u64;
        let mut dev = Device::new(DeviceConfig {
            global_mem_bytes: (input_bytes / 2).max(4096),
            ..DeviceConfig::fermi_c2050()
        });
        let policy = RetryPolicy::default();
        match execute_compiled_resilient(&plan, &compiled, &bindings, &mut dev, &config, &policy) {
            Ok(report) => prop_assert_eq!(&report.outputs, &expected, "ladder"),
            Err(e) => prop_assert!(matches!(e, WeaverError::Admission { .. } | WeaverError::LadderExhausted { .. }), "ladder: {}", e),
        }
        prop_assert_eq!(dev.memory().in_use(), 0, "ladder freed everything");

        // A two-query batch, the second query with its inputs swapped.
        let swapped = [("t0", &b), ("t1", &a)];
        let queries = [
            BatchQuery { name: "ab", plan: &plan, bindings: &bindings },
            BatchQuery { name: "ba", plan: &plan, bindings: &swapped },
        ];
        let mut dev = device();
        let compiled = [compiled.clone(), compiled];
        let batch = execute_batch(&queries, &compiled, &mut dev, &config, &policy)
            .expect("batches never abort wholesale");
        let swapped_expected = oracle(&plan, &b, &a);
        for (q, want) in batch.queries.iter().zip([&expected, &swapped_expected]) {
            prop_assert!(q.outcome.is_success(), "{}: {}", q.name, q.outcome);
            prop_assert_eq!(&q.outputs, want, "{}", q.name);
        }
        prop_assert_eq!(dev.memory().in_use(), 0, "batch freed everything");
    }
}
