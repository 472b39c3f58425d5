//! Kernel weaving: code generation for fused operators (Section 4.3).
//!
//! Given a connected, topologically ordered set of weavable plan nodes,
//! [`weave`] produces one fused [`GpuOperator`]:
//!
//! * external inputs become loads whose destination space depends on their
//!   consumers' dependence class (registers for thread-only consumers,
//!   shared memory otherwise);
//! * each fused operator contributes its compute step, reading its
//!   producers' slots directly — the variable table of Figure 11;
//! * CTA-dependent intermediates live in shared memory behind barriers
//!   (Figure 13(b)); thread-dependent intermediates stay in registers
//!   (Figure 12);
//! * results leaving the fused kernel are stream-compacted (when sparse)
//!   and stored; interior compactions and gathers disappear — the paper's
//!   headline saving.

use std::collections::BTreeMap;

use kw_kernel_ir::{GpuOperator, InferredSchemas, PartitionSpec, SlotDecl, SlotId, Space, Step};
use kw_primitives::{consumer_class, op_step, DependenceClass, RaOp};

use crate::{is_weavable, NodeId, PlanNode, QueryPlan, Result, WeaverError};

/// A fused operator plus its plan-level wiring.
#[derive(Debug, Clone)]
pub struct WovenOperator {
    /// The generated fused operator.
    pub op: GpuOperator,
    /// The schemas of `op`'s slots and outputs, as validating it inferred
    /// them.
    pub schemas: InferredSchemas,
    /// Plan nodes bound to the operator inputs, in input order.
    pub external_inputs: Vec<NodeId>,
    /// Plan nodes whose results the operator outputs, in output order.
    pub stored_nodes: Vec<NodeId>,
}

#[cfg(test)]
thread_local! {
    /// Calls of [`weave`] on this thread.
    pub(crate) static WEAVES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Weave the plan nodes `set` into one fused operator.
///
/// `set` must be topologically ordered (ascending [`NodeId`]), connected,
/// and contain only weavable operators. A node's result is stored iff it is
/// a plan output or has a consumer outside the set.
///
/// # Errors
///
/// Returns [`WeaverError`] if the set contains non-weavable operators or
/// the generated IR fails validation.
pub fn weave(plan: &QueryPlan, set: &[NodeId], threads_per_cta: u32) -> Result<WovenOperator> {
    #[cfg(test)]
    WEAVES.with(|w| w.set(w.get() + 1));
    if set.is_empty() {
        return Err(WeaverError::plan("cannot weave an empty set"));
    }
    let in_set = |n: NodeId| set.contains(&n);

    // Collect per-node ops and check weavability.
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

    // External inputs: producers outside the set, deduplicated in order.
    let mut external_inputs: Vec<NodeId> = Vec::new();
    for &n in set {
        for &p in plan.producers(n) {
            if !in_set(p) && !external_inputs.contains(&p) {
                external_inputs.push(p);
            }
        }
    }

    // Stored nodes: results leaving the set.
    let stored_nodes: Vec<NodeId> = set
        .iter()
        .copied()
        .filter(|&n| plan.is_output(n) || plan.consumers(n).iter().any(|&c| !in_set(c)))
        .collect();
    if stored_nodes.is_empty() {
        return Err(WeaverError::plan("fused set stores no results"));
    }

    // Dependence classes: is a node's result consumed only by thread-class
    // operators inside the set?
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

    // Does the fused kernel need key-range partitioning?
    let any_cta = set.iter().any(|&n| node_class(n) == DependenceClass::Cta);
    let partition = if any_cta {
        PartitionSpec::KeyRange {
            pivot: 0,
            key_len: 1,
        }
    } else {
        PartitionSpec::Even
    };

    // Slot allocation.
    let mut slots: Vec<SlotDecl> = Vec::new();
    let alloc = |name: String, space: Space, slots: &mut Vec<SlotDecl>| -> SlotId {
        slots.push(SlotDecl::new(name, space));
        SlotId(slots.len() - 1)
    };

    // One load slot per external input.
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

    // Result slots per fused node. Sparsity tracking decides whether a
    // register result needs compaction before store.
    let mut result_slot: BTreeMap<NodeId, SlotId> = BTreeMap::new();
    let mut sparse: BTreeMap<NodeId, bool> = BTreeMap::new();
    // Shared slots defined since the last barrier.
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

        // Barrier before reading unsynced shared slots.
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

        // Sparsity: a register-space filter leaves idle lanes; elementwise
        // ops inherit; CTA-wide ops and shared writes densify.
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

    // Stores (with compaction for sparse register results).
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
    let schemas = kw_kernel_ir::validate(&gpu)?;

    Ok(WovenOperator {
        op: gpu,
        schemas,
        external_inputs,
        stored_nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_kernel_ir::DEFAULT_THREADS_PER_CTA;
    use kw_relational::{CmpOp, Predicate, Schema, Value};

    fn sel(attr: usize) -> RaOp {
        RaOp::Select {
            pred: Predicate::cmp(attr, CmpOp::Lt, Value::U32(1 << 30)),
        }
    }

    #[test]
    fn weave_select_chain_stays_in_registers() {
        let mut p = QueryPlan::new();
        let t = p.add_input("t", Schema::uniform_u32(4));
        let a = p.add_op(sel(0), &[t]).unwrap();
        let b = p.add_op(sel(1), &[a]).unwrap();
        p.mark_output(b);
        let w = weave(&p, &[a, b], DEFAULT_THREADS_PER_CTA).unwrap();

        assert_eq!(w.external_inputs, vec![t]);
        assert_eq!(w.stored_nodes, vec![b]);
        // Only the final compaction slot is shared.
        let shared =
            w.op.slots()
                .unwrap()
                .iter()
                .filter(|s| s.space == Space::Shared)
                .count();
        assert_eq!(shared, 1);
        // One load, one store: the Figure 12 shape.
        let steps = w.op.steps().unwrap();
        assert_eq!(
            steps
                .iter()
                .filter(|s| matches!(s, Step::Load { .. }))
                .count(),
            1
        );
        assert_eq!(
            steps
                .iter()
                .filter(|s| matches!(s, Step::Compact { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn weave_select_into_join_uses_shared() {
        // Figure 13: select -> join with CTA dependence.
        let mut p = QueryPlan::new();
        let x = p.add_input("x", Schema::uniform_u32(2));
        let y = p.add_input("y", Schema::uniform_u32(2));
        let sx = p.add_op(sel(1), &[x]).unwrap();
        let j = p.add_op(RaOp::Join { key_len: 1 }, &[sx, y]).unwrap();
        p.mark_output(j);
        let w = weave(&p, &[sx, j], DEFAULT_THREADS_PER_CTA).unwrap();

        // The select's result slot must be shared (its consumer is a join).
        let slots = w.op.slots().unwrap();
        let sel_slot = slots.iter().find(|s| s.name.contains("select")).unwrap();
        assert_eq!(sel_slot.space, Space::Shared);
        // Key-range partitioning.
        assert!(matches!(
            w.op.body,
            kw_kernel_ir::OperatorBody::Streaming {
                partition: PartitionSpec::KeyRange { .. },
                ..
            }
        ));
        // Barriers inserted.
        assert!(w
            .op
            .steps()
            .unwrap()
            .iter()
            .any(|s| matches!(s, Step::Barrier)));
    }

    #[test]
    fn interior_results_not_stored() {
        let mut p = QueryPlan::new();
        let t = p.add_input("t", Schema::uniform_u32(4));
        let a = p.add_op(sel(0), &[t]).unwrap();
        let b = p.add_op(sel(1), &[a]).unwrap();
        let c = p.add_op(sel(2), &[b]).unwrap();
        p.mark_output(c);
        let w = weave(&p, &[a, b, c], DEFAULT_THREADS_PER_CTA).unwrap();
        assert_eq!(w.op.output_count(), 1);
        assert_eq!(w.stored_nodes, vec![c]);
    }

    #[test]
    fn interior_result_with_outside_consumer_is_stored() {
        let mut p = QueryPlan::new();
        let t = p.add_input("t", Schema::uniform_u32(4));
        let a = p.add_op(sel(0), &[t]).unwrap();
        let b = p.add_op(sel(1), &[a]).unwrap();
        let srt = p.add_op(RaOp::Sort { attrs: vec![1] }, &[a]).unwrap();
        p.mark_output(b);
        p.mark_output(srt);
        let w = weave(&p, &[a, b], DEFAULT_THREADS_PER_CTA).unwrap();
        // `a` feeds the outside SORT, so both a and b are stored.
        assert_eq!(w.stored_nodes, vec![a, b]);
        assert_eq!(w.op.output_count(), 2);
    }

    #[test]
    fn shared_input_pattern_d() {
        let mut p = QueryPlan::new();
        let t = p.add_input("t", Schema::uniform_u32(4));
        let a = p.add_op(sel(0), &[t]).unwrap();
        let b = p.add_op(sel(1), &[t]).unwrap();
        p.mark_output(a);
        p.mark_output(b);
        let w = weave(&p, &[a, b], DEFAULT_THREADS_PER_CTA).unwrap();
        assert_eq!(w.external_inputs, vec![t]);
        assert_eq!(w.op.output_count(), 2);
        // The weaver deduplicates the shared input: one load feeds both
        // filters (the common-computation-elimination benefit of fusing
        // input-dependent operators).
        let loads =
            w.op.steps()
                .unwrap()
                .iter()
                .filter(|s| matches!(s, Step::Load { .. }))
                .count();
        assert_eq!(loads, 1);
    }

    #[test]
    fn non_weavable_rejected() {
        let mut p = QueryPlan::new();
        let t = p.add_input("t", Schema::uniform_u32(2));
        let s = p.add_op(RaOp::Sort { attrs: vec![0] }, &[t]).unwrap();
        let a = p.add_op(sel(0), &[s]).unwrap();
        p.mark_output(a);
        assert!(weave(&p, &[s, a], DEFAULT_THREADS_PER_CTA).is_err());
        assert!(weave(&p, &[], DEFAULT_THREADS_PER_CTA).is_err());
    }
}
