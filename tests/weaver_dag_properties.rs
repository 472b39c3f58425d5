//! Property tests over random *DAG-shaped* plans (branches, shared
//! producers, multiple outputs): whatever Algorithm 1/2 and the weaver
//! decide, results must equal the CPU oracle (`kw_relational::ops` applied
//! node by node) on every execution path — fused and unfused, resident,
//! staged and chunked, through the resilient ladder and in a batch. The
//! plans `compile` builds must equal those its public phases build one
//! after another, every operator's resource estimate must equal the
//! nested-loop estimate it replaced, and Algorithm 2, which prices each
//! fusion attempt from its layout, must choose what it chose when it wove
//! every attempt.

use std::collections::BTreeMap;

use proptest::prelude::*;

use kw_core::{
    compile, execute_batch, execute_compiled_resilient, execute_plan, find_candidates,
    fused_resources, is_weavable, select_chunk_strategy, select_fusions, weave, BatchQuery,
    CompiledPlan, CompiledStep, ExecMode, FusionOptions, NodeId, PlanNode, QueryPlan,
    ResourceBudget, RetryPolicy, WeaverConfig, WeaverError, WovenOperator,
};
use kw_gpu_sim::{reconcile, Device, DeviceConfig, KernelResources};
use kw_kernel_ir::{
    estimate_resources, infer_schemas, optimize, tuple_registers, validate, GpuOperator,
    InferredSchemas, IrError, OperatorBody, OptLevel, PartitionSpec, SlotDecl, SlotId, Space, Step,
    BASE_REGISTERS, DEFAULT_THREADS_PER_CTA, SHARED_SLOT_OVERHEAD,
};
use kw_primitives::{build_unfused, consumer_class, op_step, DependenceClass, RaOp};
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
/// only when the plan has a chunk strategy).
fn path_configs(plan: &QueryPlan) -> Vec<WeaverConfig> {
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
                    ..WeaverConfig::default()
                });
            }
        }
    }
    configs
}

/// Fusion on and off, each at `-O0` and `-O3`.
fn compile_configs() -> Vec<WeaverConfig> {
    let mut configs = Vec::new();
    for fusion in [true, false] {
        for opt in [OptLevel::O0, OptLevel::O3] {
            configs.push(WeaverConfig {
                fusion,
                opt,
                ..WeaverConfig::default()
            });
        }
    }
    configs
}

/// `plan` compiled through the public phase functions one after another,
/// as the repo benchmark's phase probe calls them: `find_candidates` →
/// `select_fusions` → `weave` → `optimize`, with `build_unfused` for the
/// unfused nodes. Also returns the woven operators before optimization.
fn compile_by_phases(plan: &QueryPlan, config: &WeaverConfig) -> (CompiledPlan, Vec<GpuOperator>) {
    let mut fusion_sets: Vec<Vec<NodeId>> = Vec::new();
    if config.fusion {
        let options = FusionOptions {
            input_dependence: config.input_dependence,
        };
        for group in find_candidates(plan, options) {
            let sets = select_fusions(plan, &group, config.budget, config.threads_per_cta).unwrap();
            fusion_sets.extend(sets.into_iter().filter(|s| s.len() >= 2));
        }
    }
    let mut steps = Vec::new();
    let mut woven_ops = Vec::new();
    for set in &fusion_sets {
        let woven = weave(plan, set, config.threads_per_cta).unwrap();
        steps.push(CompiledStep {
            op: optimize(&woven.op, config.opt).unwrap().0,
            inputs: woven.external_inputs,
            outputs: woven.stored_nodes,
            fused: true,
        });
        woven_ops.push(woven.op);
    }
    for (id, op, producers) in plan.operator_nodes() {
        if fusion_sets.iter().any(|s| s.contains(&id)) {
            continue;
        }
        let schemas: Vec<Schema> = producers.iter().map(|&p| plan.schema(p).clone()).collect();
        let gpu = build_unfused(op, &schemas, format!("{id}.{}", op.mnemonic())).unwrap();
        steps.push(CompiledStep {
            op: optimize(&gpu, config.opt).unwrap().0,
            inputs: producers.to_vec(),
            outputs: vec![id],
            fused: false,
        });
    }
    (CompiledPlan { steps, fusion_sets }, woven_ops)
}

/// Registers a step holds for its own temporaries: the table
/// `estimate_resources` used when this reference was taken.
fn reference_scratch(step: &Step) -> u32 {
    match step {
        Step::Load { .. } | Step::Project { .. } | Step::Store { .. } => 2,
        Step::Filter { pred, .. } => 2 + (pred.alu_ops() as u32).min(8),
        Step::Compute { exprs, .. } => {
            2 + exprs
                .iter()
                .map(|e| (e.alu_ops() as u32).min(8))
                .max()
                .unwrap_or(0)
        }
        Step::Join { .. } => 24,
        Step::Product { .. } | Step::SetOp { .. } => 12,
        Step::SemiJoin { .. } => 14,
        Step::Unique { .. } => 6,
        Step::Compact { .. } => 4,
        Step::Barrier => 0,
    }
}

/// The nested-loop `estimate_resources` that the single sweep replaced, kept
/// as its reference: the slots each step reads are collected anew for
/// every pass, and at `-O3` each step sums the demand of every slot live
/// there.
fn reference_resources(
    op: &GpuOperator,
    inferred: &InferredSchemas,
    opt: OptLevel,
) -> Result<KernelResources, IrError> {
    let OperatorBody::Streaming { slots, steps, .. } = &op.body else {
        return Ok(KernelResources {
            registers_per_thread: 24,
            shared_per_cta: 4 * 1024,
        });
    };
    let sources = |step: &Step| step.sources().collect::<Vec<_>>();
    let mut used = vec![false; slots.len()];
    for step in steps {
        for s in sources(step) {
            used[s.0] = true;
        }
        if let Some(d) = step.dest() {
            used[d.0] = true;
        }
    }
    let live_ranges = || {
        let mut def = vec![usize::MAX; slots.len()];
        let mut last_use = vec![0usize; slots.len()];
        for (idx, step) in steps.iter().enumerate() {
            if let Some(d) = step.dest() {
                def[d.0] = def[d.0].min(idx);
            }
            for s in sources(step) {
                last_use[s.0] = last_use[s.0].max(idx);
            }
        }
        (def, last_use)
    };

    let tile_bytes = |i: usize| -> Result<u64, IrError> {
        let schema = inferred
            .slots
            .get(i)
            .and_then(|s| s.as_ref())
            .ok_or_else(|| IrError::validation(format!("shared slot %{i} has no schema")))?;
        Ok(u64::from(op.threads_per_cta) * schema.tuple_bytes() as u64
            + u64::from(SHARED_SLOT_OVERHEAD))
    };
    let shared_slots: Vec<usize> = (0..slots.len())
        .filter(|&i| used[i] && slots[i].space == Space::Shared)
        .collect();
    let shared: u64 = match opt {
        OptLevel::O0 => {
            let mut sum = 0;
            for &i in &shared_slots {
                sum += tile_bytes(i)?;
            }
            sum
        }
        OptLevel::O3 => {
            let (def, last_use) = live_ranges();
            let mut max_live = 0u64;
            for idx in 0..steps.len() {
                let mut live = 0u64;
                for &i in &shared_slots {
                    if def[i] <= idx && last_use[i] >= idx {
                        live += tile_bytes(i)?;
                    }
                }
                max_live = max_live.max(live);
            }
            max_live
        }
    };

    let width = |i: usize| -> Result<u32, IrError> {
        inferred
            .slots
            .get(i)
            .and_then(|s| s.as_ref())
            .map(tuple_registers)
            .ok_or_else(|| IrError::validation(format!("register slot %{i} has no schema")))
    };
    let reg_slots: Vec<usize> = (0..slots.len())
        .filter(|&i| used[i] && slots[i].space == Space::Register)
        .collect();
    let slot_regs = match opt {
        OptLevel::O0 => {
            let mut sum = 0;
            for &i in &reg_slots {
                sum += width(i)?;
            }
            sum
        }
        OptLevel::O3 => {
            let (def, last_use) = live_ranges();
            let mut max_live = 0u32;
            for idx in 0..steps.len() {
                let mut live = 0u32;
                for &i in &reg_slots {
                    if def[i] <= idx && last_use[i] >= idx {
                        live += width(i)?;
                    }
                }
                max_live = max_live.max(live);
            }
            max_live
        }
    };

    let scratch = steps.iter().map(reference_scratch).max().unwrap_or(0);
    Ok(KernelResources {
        registers_per_thread: BASE_REGISTERS + slot_regs + scratch,
        shared_per_cta: shared.min(u64::from(u32::MAX)) as u32,
    })
}

/// `weave` as it was before it split into a layout and its rendering, kept
/// as the reference of both: it weaves with maps keyed by node, and every
/// attempt Algorithm 2 priced was woven this way.
fn reference_weave(
    plan: &QueryPlan,
    set: &[NodeId],
    threads_per_cta: u32,
) -> Result<WovenOperator, WeaverError> {
    if set.is_empty() {
        return Err(WeaverError::plan("cannot weave an empty set"));
    }
    let in_set = |n: NodeId| set.contains(&n);

    let mut ops: BTreeMap<NodeId, &RaOp> = BTreeMap::new();
    for &n in set {
        match plan.node(n) {
            PlanNode::Operator { op, .. } if is_weavable(op) => {
                ops.insert(n, op);
            }
            PlanNode::Operator { op, .. } => {
                return Err(WeaverError::plan(format!(
                    "node {n} ({op}) is not weavable"
                )));
            }
            PlanNode::Input { .. } => {
                return Err(WeaverError::plan(format!("node {n} is an input node")));
            }
        }
    }

    let mut external_inputs: Vec<NodeId> = Vec::new();
    for &n in set {
        for &p in plan.producers(n) {
            if !in_set(p) && !external_inputs.contains(&p) {
                external_inputs.push(p);
            }
        }
    }

    let stored_nodes: Vec<NodeId> = set
        .iter()
        .copied()
        .filter(|&n| plan.is_output(n) || plan.consumers(n).iter().any(|&c| !in_set(c)))
        .collect();
    if stored_nodes.is_empty() {
        return Err(WeaverError::plan("fused set stores no results"));
    }

    let thread_only_consumers = |n: NodeId| -> bool {
        plan.consumers(n)
            .iter()
            .filter(|&&c| in_set(c))
            .all(|&c| match plan.node(c) {
                PlanNode::Operator { op, .. } => consumer_class(op) == DependenceClass::Thread,
                PlanNode::Input { .. } => true,
            })
    };
    let node_class = |n: NodeId| -> DependenceClass {
        match plan.node(n) {
            PlanNode::Operator { op, .. } => consumer_class(op),
            PlanNode::Input { .. } => DependenceClass::Thread,
        }
    };

    let any_cta = set.iter().any(|&n| node_class(n) == DependenceClass::Cta);
    let partition = if any_cta {
        PartitionSpec::KeyRange {
            pivot: 0,
            key_len: 1,
        }
    } else {
        PartitionSpec::Even
    };

    let mut slots: Vec<SlotDecl> = Vec::new();
    let alloc = |name: String, space: Space, slots: &mut Vec<SlotDecl>| -> SlotId {
        slots.push(SlotDecl::new(name, space));
        SlotId(slots.len() - 1)
    };

    let mut input_slot: BTreeMap<NodeId, SlotId> = BTreeMap::new();
    let mut steps: Vec<Step> = Vec::new();
    for (idx, &p) in external_inputs.iter().enumerate() {
        let space = if thread_only_consumers(p) {
            Space::Register
        } else {
            Space::Shared
        };
        let slot = alloc(format!("in{idx}"), space, &mut slots);
        input_slot.insert(p, slot);
        steps.push(Step::Load {
            input: idx,
            dst: slot,
        });
    }

    let mut result_slot: BTreeMap<NodeId, SlotId> = BTreeMap::new();
    let mut sparse: BTreeMap<NodeId, bool> = BTreeMap::new();
    let mut unsynced: Vec<SlotId> = slots
        .iter()
        .enumerate()
        .filter(|(_, d)| d.space == Space::Shared)
        .map(|(i, _)| SlotId(i))
        .collect();

    for &n in set {
        let op = ops[&n];
        let producers = plan.producers(n);
        let srcs: Vec<SlotId> = producers
            .iter()
            .map(|p| {
                if in_set(*p) {
                    result_slot[p]
                } else {
                    input_slot[p]
                }
            })
            .collect();

        let needs_sync = srcs
            .iter()
            .any(|s| slots[s.0].space == Space::Shared && unsynced.contains(s));
        if needs_sync {
            steps.push(Step::Barrier);
            unsynced.clear();
        }

        let class = consumer_class(op);
        let space = if class == DependenceClass::Thread && thread_only_consumers(n) {
            Space::Register
        } else {
            Space::Shared
        };
        let dst = alloc(format!("{}.{}", n, op.mnemonic()), space, &mut slots);
        steps.push(op_step(op, &srcs, dst)?);
        if space == Space::Shared {
            unsynced.push(dst);
        }
        result_slot.insert(n, dst);

        let s = if space != Space::Register {
            false
        } else {
            match op {
                RaOp::Select { .. } => true,
                RaOp::Project { .. } | RaOp::Map { .. } => producers
                    .iter()
                    .any(|p| in_set(*p) && sparse.get(p).copied().unwrap_or(false)),
                _ => false,
            }
        };
        sparse.insert(n, s);
    }

    for (out_idx, &n) in stored_nodes.iter().enumerate() {
        let mut src = result_slot[&n];
        if sparse[&n] {
            let dense = alloc(format!("{n}.dense"), Space::Shared, &mut slots);
            steps.push(Step::Compact { src, dst: dense });
            steps.push(Step::Barrier);
            unsynced.clear();
            src = dense;
        } else if slots[src.0].space == Space::Shared && unsynced.contains(&src) {
            steps.push(Step::Barrier);
            unsynced.clear();
        }
        steps.push(Step::Store {
            src,
            output: out_idx,
        });
    }

    let label = {
        let names: Vec<String> = set
            .iter()
            .map(|n| format!("{}{}", ops[n].mnemonic(), n.0))
            .collect();
        format!("fused[{}]", names.join("+"))
    };
    let input_schemas = external_inputs
        .iter()
        .map(|&p| plan.schema(p).clone())
        .collect();

    let mut gpu = GpuOperator::streaming(
        label,
        input_schemas,
        stored_nodes.len(),
        slots,
        steps,
        partition,
    );
    gpu.threads_per_cta = threads_per_cta;
    let schemas = validate(&gpu)?;

    Ok(WovenOperator {
        op: gpu,
        schemas,
        external_inputs,
        stored_nodes,
    })
}

/// Algorithm 2 as it was when it wove every attempt to price it, kept as
/// the reference of `select_fusions`: the fusion sets it chooses, and
/// every attempt it makes (each set it tries to grow into, whether or not
/// it weaves it).
fn reference_selection(
    plan: &QueryPlan,
    group: &[NodeId],
    budget: ResourceBudget,
    threads_per_cta: u32,
) -> (Vec<Vec<NodeId>>, Vec<Vec<NodeId>>) {
    let (mut sets, mut attempts) = (Vec::new(), Vec::new());
    let Some((&first, rest)) = group.split_first() else {
        return (sets, attempts);
    };
    let mut current = vec![first];
    for &n in rest {
        let producers_ok = plan
            .producers(n)
            .iter()
            .filter(|p| group.contains(p))
            .all(|p| current.contains(p));
        let mut attempt = current.clone();
        attempt.push(n);
        attempts.push(attempt.clone());
        if producers_ok && reference_fits(plan, &attempt, budget, threads_per_cta) {
            current = attempt;
        } else {
            sets.push(std::mem::replace(&mut current, vec![n]));
        }
    }
    sets.push(current);
    (sets, attempts)
}

/// Whether the woven fusion of `set` fits `budget`, as Algorithm 2 decided
/// it by weaving: no external input may depend on a member, and the woven
/// operator's `-O3` estimate must fit.
fn reference_fits(
    plan: &QueryPlan,
    set: &[NodeId],
    budget: ResourceBudget,
    threads_per_cta: u32,
) -> bool {
    let depends_on_set = |node: NodeId| {
        let mut stack = vec![node];
        let mut seen = vec![false; plan.len()];
        while let Some(n) = stack.pop() {
            if seen[n.0] {
                continue;
            }
            seen[n.0] = true;
            for &p in plan.producers(n) {
                if set.contains(&p) {
                    return true;
                }
                stack.push(p);
            }
        }
        false
    };
    let external = set
        .iter()
        .flat_map(|&n| plan.producers(n).iter().copied())
        .filter(|p| !set.contains(p));
    if external.clone().any(depends_on_set) {
        return false;
    }
    let Ok(woven) = reference_weave(plan, set, threads_per_cta) else {
        return false;
    };
    estimate_resources(&woven.op, &woven.schemas, OptLevel::O3).is_ok_and(|res| budget.admits(res))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn selection_prices_attempts_as_weaving_them_did(
        steps in proptest::collection::vec(arb_grow(), 1..8),
        registers in 16u32..64,
        shared in 4_096u32..49_153,
    ) {
        let (plan, _) = grow_plan(&steps);
        prop_assume!(plan.validate().is_ok());
        let tpc = DEFAULT_THREADS_PER_CTA;
        let tight = ResourceBudget {
            max_registers_per_thread: registers,
            max_shared_per_cta: shared,
        };
        for group in find_candidates(&plan, FusionOptions::default()) {
            let mut attempts = Vec::new();
            for budget in [ResourceBudget::default(), tight] {
                let (sets, tried) = reference_selection(&plan, &group, budget, tpc);
                prop_assert_eq!(
                    select_fusions(&plan, &group, budget, tpc).unwrap(),
                    sets,
                    "{:?}", budget
                );
                attempts.extend(tried);
            }
            for attempt in &attempts {
                let reference = reference_weave(&plan, attempt, tpc);
                // The layout's price is the woven operator's estimate, and
                // it refuses what weaving refuses, with the same error.
                let priced = reference.as_ref().map_err(ToString::to_string).map(|w| {
                    estimate_resources(&w.op, &w.schemas, OptLevel::O3).unwrap()
                });
                prop_assert_eq!(
                    fused_resources(&plan, attempt, tpc).map_err(|e| e.to_string()),
                    priced,
                    "{:?}", attempt
                );
                // Rendering the layout weaves what the reference wove.
                match (weave(&plan, attempt, tpc), &reference) {
                    (Ok(w), Ok(r)) => {
                        prop_assert_eq!(&w.op, &r.op);
                        prop_assert_eq!(&w.schemas, &r.schemas);
                        prop_assert_eq!(&w.external_inputs, &r.external_inputs);
                        prop_assert_eq!(&w.stored_nodes, &r.stored_nodes);
                    }
                    (Err(w), Err(r)) => prop_assert_eq!(w.to_string(), r.to_string()),
                    (w, r) => prop_assert!(
                        false,
                        "{:?}: weave {:?}, reference {:?}",
                        attempt,
                        w.map(|w| w.op.label),
                        r.as_ref().map(|r| &r.op.label)
                    ),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compile_equals_its_public_phases(steps in proptest::collection::vec(arb_grow(), 1..8)) {
        let (plan, _) = grow_plan(&steps);
        prop_assume!(plan.validate().is_ok());
        for config in compile_configs() {
            let compiled = compile(&plan, &config).expect("random DAGs compile");
            let (mut phased, _) = compile_by_phases(&plan, &config);
            prop_assert_eq!(&compiled.fusion_sets, &phased.fusion_sets, "{:?}", config);
            prop_assert_eq!(compiled.steps.len(), phased.steps.len(), "{:?}", config);
            // `compile` orders its steps topologically; match them by the
            // nodes they compute.
            for step in &compiled.steps {
                let i = phased
                    .steps
                    .iter()
                    .position(|s| s.outputs == step.outputs)
                    .unwrap_or_else(|| panic!("{config:?}: no phase step for {:?}", step.outputs));
                let twin = phased.steps.swap_remove(i);
                prop_assert_eq!(&step.op, &twin.op, "{:?}", config);
                prop_assert_eq!(&step.inputs, &twin.inputs, "{:?}", config);
                prop_assert_eq!(step.fused, twin.fused, "{:?}", config);
            }
        }
    }

    #[test]
    fn resources_equal_the_nested_loop_reference(
        steps in proptest::collection::vec(arb_grow(), 1..8),
    ) {
        let (plan, _) = grow_plan(&steps);
        prop_assume!(plan.validate().is_ok());
        for config in compile_configs() {
            // The compiled operators, and the woven ones Algorithm 2 prices.
            let (compiled, woven) = compile_by_phases(&plan, &config);
            for op in compiled.steps.iter().map(|s| &s.op).chain(&woven) {
                let inferred = infer_schemas(op).unwrap();
                for opt in [OptLevel::O0, OptLevel::O3] {
                    prop_assert_eq!(
                        estimate_resources(op, &inferred, opt),
                        reference_resources(op, &inferred, opt),
                        "{} at {:?}", op.label, opt
                    );
                }
            }
        }
    }
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

        // A footprint the estimate under-shot spills, so no path may fail.
        for config in path_configs(&plan) {
            let mut dev = device();
            let report = execute_plan(&plan, &bindings, &mut dev, &config)
                .unwrap_or_else(|e| panic!("{config:?}: {e}"));
            prop_assert_eq!(&report.outputs, &expected, "{:?}", config);
            prop_assert!(report.gpu_seconds > 0.0, "{:?}", config);
            prop_assert!(report.stats.kernel_launches > 0, "{:?}", config);
            if config.chunks.is_some() {
                prop_assert!(report.strategy.is_some(), "{:?}", config);
                let reconciled = reconcile(dev.spans(), dev.stats());
                prop_assert!(reconciled.is_ok(), "{:?}: {:?}", config, reconciled);
            }
            prop_assert_eq!(dev.memory().in_use(), 0, "{:?}: all buffers freed", config);
        }

        // The ladder on a device half the size of the inputs: the oracle's
        // answer, or a typed error — admission when no rung is predicted to
        // fit, ladder exhaustion when a bucket of duplicate join keys still
        // does not fit at the chunk ceiling.
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
