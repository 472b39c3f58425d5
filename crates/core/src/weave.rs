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
//!
//! Weaving runs in two passes. A [`Layout`] records those decisions as
//! indices into the set and the plan, and [`Layout::render`] turns one
//! layout into the named, validated operator. Algorithm 2 prices each set
//! it tries from its layout alone ([`Layout::resources`], public as
//! [`fused_resources`]) and renders only the sets it chooses.

use std::fmt::Write as _;

use kw_gpu_sim::KernelResources;
use kw_kernel_ir::{
    sweep_resources, GpuOperator, InferredSchemas, IrError, OptLevel, PartitionSpec, SlotDecl,
    SlotId, Space, Step, StepKind, StepUse,
};
use kw_primitives::{consumer_class, op_step, op_step_kind, DependenceClass, RaOp};

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
    /// Layouts rendered into operators on this thread: [`weave`] calls and
    /// the fused sets `compile` generates code for.
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
    let mut layout = Layout::new(plan);
    layout.lay_out(set)?;
    layout.render(threads_per_cta)
}

/// The registers per thread and shared bytes per CTA, at `-O3`, of the
/// operator [`weave`] generates for `set`, priced from the set's layout
/// without generating it: Algorithm 2's price of a fusion set. It equals
/// [`kw_kernel_ir::estimate_resources`] of the woven operator at `-O3`.
///
/// # Errors
///
/// Returns an error for exactly the sets [`weave`] refuses.
pub fn fused_resources(
    plan: &QueryPlan,
    set: &[NodeId],
    threads_per_cta: u32,
) -> Result<KernelResources> {
    let mut layout = Layout::new(plan);
    layout.lay_out(set)?;
    layout.resources(threads_per_cta)
}

/// The decisions weaving makes for one set, as indices: the producers that
/// feed the fused kernel and the members whose results leave it, each
/// slot's space and the plan node whose schema it holds, and the step
/// sequence with its barriers and compactions.
///
/// Slots are numbered as they are allocated: external input `i` is slot
/// `i`, member `m`'s result is the slot after the inputs and the `m`
/// members before it, and each compacted result's dense copy follows in
/// store order. One layout is reused for attempt after attempt, so its
/// buffers are allocated once.
pub(crate) struct Layout<'p> {
    plan: &'p QueryPlan,
    /// The set, with each member's operator.
    members: Vec<(NodeId, &'p RaOp)>,
    /// Producers outside the set, in order of first use.
    external: Vec<NodeId>,
    /// Members whose results leave the kernel, in output order.
    stored: Vec<usize>,
    slots: Vec<LaidSlot>,
    steps: Vec<LaidStep>,
    /// Per member, whether its result is a register slot with idle lanes,
    /// which must be compacted before it is stored.
    sparse: Vec<bool>,
    /// Whether a member is CTA-dependent, so the kernel partitions by key
    /// range.
    key_range: bool,
}

#[derive(Debug, Clone, Copy)]
struct LaidSlot {
    space: Space,
    /// The plan node whose result the slot holds.
    node: NodeId,
    /// The step that defines it.
    defined_at: usize,
}

/// A [`Step`] of a [`Layout`], with a member's operation named by its
/// index in the set.
#[derive(Debug, Clone, Copy)]
enum LaidStep {
    Load {
        input: usize,
        dst: SlotId,
    },
    /// Member `member`'s compute step, reading its producers' slots.
    Op {
        member: usize,
        srcs: [Option<SlotId>; 2],
        dst: SlotId,
    },
    Compact {
        src: SlotId,
        dst: SlotId,
    },
    Barrier,
    Store {
        src: SlotId,
        output: usize,
    },
}

impl<'p> Layout<'p> {
    /// An empty layout over `plan`.
    pub(crate) fn new(plan: &'p QueryPlan) -> Layout<'p> {
        Layout {
            plan,
            members: Vec::new(),
            external: Vec::new(),
            stored: Vec::new(),
            slots: Vec::new(),
            steps: Vec::new(),
            sparse: Vec::new(),
            key_range: false,
        }
    }

    /// Lay out `set`, replacing the previous layout.
    ///
    /// # Errors
    ///
    /// The structural refusals of [`weave`]: an empty set, a member that
    /// is an input or not weavable, a set that stores no result, and a
    /// member that precedes one of its producers in the set.
    pub(crate) fn lay_out(&mut self, set: &[NodeId]) -> Result<()> {
        let Layout {
            plan,
            members,
            external,
            stored,
            slots,
            steps,
            sparse,
            key_range,
        } = self;
        let plan = *plan;
        members.clear();
        external.clear();
        stored.clear();
        slots.clear();
        steps.clear();
        sparse.clear();
        if set.is_empty() {
            return Err(WeaverError::plan("cannot weave an empty set"));
        }
        let in_set = |n: NodeId| set.contains(&n);

        for &n in set {
            match plan.node(n) {
                PlanNode::Operator { op, .. } if is_weavable(op) => members.push((n, op)),
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
        for &n in set {
            for &p in plan.producers(n) {
                if !in_set(p) && !external.contains(&p) {
                    external.push(p);
                }
            }
        }

        // Stored members: results leaving the set.
        stored.extend((0..set.len()).filter(|&m| {
            let n = set[m];
            plan.is_output(n) || plan.consumers(n).iter().any(|&c| !in_set(c))
        }));
        if stored.is_empty() {
            return Err(WeaverError::plan("fused set stores no results"));
        }

        // Dependence classes: is a node's result consumed only by
        // thread-class operators inside the set?
        let thread_only_consumers = |n: NodeId| {
            plan.consumers(n)
                .iter()
                .filter(|&&c| in_set(c))
                .all(|&c| node_class(plan, c) == DependenceClass::Thread)
        };
        *key_range = set
            .iter()
            .any(|&n| node_class(plan, n) == DependenceClass::Cta);

        // One load slot per external input.
        for (input, &p) in external.iter().enumerate() {
            let space = if thread_only_consumers(p) {
                Space::Register
            } else {
                Space::Shared
            };
            slots.push(LaidSlot {
                space,
                node: p,
                defined_at: steps.len(),
            });
            steps.push(LaidStep::Load {
                input,
                dst: SlotId(input),
            });
        }

        // Steps before `synced` are behind the last barrier, so a shared
        // slot defined at or after it is unsynced.
        let mut synced = 0;
        let unsynced = |slots: &[LaidSlot], synced: usize, s: SlotId| {
            slots[s.0].space == Space::Shared && slots[s.0].defined_at >= synced
        };
        for (member, &(n, op)) in members.iter().enumerate() {
            // Weavable operators read one or two producers.
            let mut srcs = [None; 2];
            for (src, &p) in srcs.iter_mut().zip(plan.producers(n)) {
                *src = Some(match set.iter().position(|&q| q == p) {
                    Some(q) if q < member => SlotId(external.len() + q),
                    Some(_) => {
                        return Err(WeaverError::plan(format!(
                            "node {n} consumes {p}, which follows it in the set"
                        )))
                    }
                    None => SlotId(
                        external
                            .iter()
                            .position(|&e| e == p)
                            .expect("every producer outside the set is an external input"),
                    ),
                });
            }

            // Barrier before reading unsynced shared slots.
            if srcs.iter().flatten().any(|&s| unsynced(slots, synced, s)) {
                steps.push(LaidStep::Barrier);
                synced = steps.len();
            }

            let space = if consumer_class(op) == DependenceClass::Thread && thread_only_consumers(n)
            {
                Space::Register
            } else {
                Space::Shared
            };
            let dst = SlotId(slots.len());
            slots.push(LaidSlot {
                space,
                node: n,
                defined_at: steps.len(),
            });
            steps.push(LaidStep::Op { member, srcs, dst });

            // Sparsity: a register-space filter leaves idle lanes;
            // elementwise ops inherit; CTA-wide ops and shared writes
            // densify.
            sparse.push(
                space == Space::Register
                    && match op {
                        RaOp::Select { .. } => true,
                        RaOp::Project { .. } | RaOp::Map { .. } => srcs
                            .iter()
                            .flatten()
                            .any(|s| s.0 >= external.len() && sparse[s.0 - external.len()]),
                        _ => false,
                    },
            );
        }

        // Stores (with compaction for sparse register results).
        for (output, &member) in stored.iter().enumerate() {
            let mut src = SlotId(external.len() + member);
            if sparse[member] {
                let dense = SlotId(slots.len());
                slots.push(LaidSlot {
                    space: Space::Shared,
                    node: set[member],
                    defined_at: steps.len(),
                });
                steps.push(LaidStep::Compact { src, dst: dense });
                steps.push(LaidStep::Barrier);
                synced = steps.len();
                src = dense;
            } else if unsynced(slots, synced, src) {
                steps.push(LaidStep::Barrier);
                synced = steps.len();
            }
            steps.push(LaidStep::Store { src, output });
        }
        Ok(())
    }

    /// The resources of the operator [`Layout::render`] generates, at
    /// `-O3`: [`sweep_resources`] over the layout's steps, each slot
    /// holding its plan node's schema, which is the schema validation
    /// infers for it.
    ///
    /// # Errors
    ///
    /// The refusal of validation that no structural check makes: a
    /// key-range kernel whose inputs' first key attributes differ, or one
    /// without a key.
    pub(crate) fn resources(&self, threads_per_cta: u32) -> Result<KernelResources> {
        let plan = self.plan;
        if self.key_range {
            // Mirrors `validate`'s check of a `KeyRange { pivot: 0,
            // key_len: 1 }` partition, with its errors.
            let pivot = plan.schema(self.external[0]);
            for (i, &p) in self.external.iter().enumerate() {
                let s = plan.schema(p);
                if s.key_arity() < 1 {
                    return Err(IrError::validation(format!(
                        "input {i} key arity {} shorter than partition key 1",
                        s.key_arity()
                    ))
                    .into());
                }
                if s.attr(0) != pivot.attr(0) {
                    return Err(IrError::validation(format!(
                        "input {i} partition-key attribute 0 type mismatch"
                    ))
                    .into());
                }
            }
        }
        let steps = self.steps.iter().map(|&step| match step {
            LaidStep::Load { dst, .. } => StepUse {
                kind: StepKind::Load,
                sources: [None, None],
                dest: Some(dst),
            },
            LaidStep::Op { member, srcs, dst } => StepUse {
                kind: op_step_kind(self.members[member].1)
                    .expect("weavable operators have a streaming step"),
                sources: srcs,
                dest: Some(dst),
            },
            LaidStep::Compact { src, dst } => StepUse {
                kind: StepKind::Compact,
                sources: [Some(src), None],
                dest: Some(dst),
            },
            LaidStep::Barrier => StepUse {
                kind: StepKind::Barrier,
                sources: [None, None],
                dest: None,
            },
            LaidStep::Store { src, .. } => StepUse {
                kind: StepKind::Store,
                sources: [Some(src), None],
                dest: None,
            },
        });
        let slot = |i: usize| {
            let slot = self.slots[i];
            (slot.space, Some(plan.schema(slot.node)))
        };
        Ok(sweep_resources(
            steps,
            self.slots.len(),
            slot,
            threads_per_cta,
            OptLevel::O3,
        )?)
    }

    /// The named, validated operator of this layout.
    ///
    /// # Errors
    ///
    /// Returns [`WeaverError`] if the generated IR fails validation.
    pub(crate) fn render(&self, threads_per_cta: u32) -> Result<WovenOperator> {
        #[cfg(test)]
        WEAVES.with(|w| w.set(w.get() + 1));
        let plan = self.plan;
        let inputs = self.external.len();
        let slots = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let name = match i.checked_sub(inputs) {
                    None => format!("in{i}"),
                    Some(m) if m < self.members.len() => {
                        format!("{}.{}", slot.node, self.members[m].1.mnemonic())
                    }
                    Some(_) => format!("{}.dense", slot.node),
                };
                SlotDecl::new(name, slot.space)
            })
            .collect();
        let steps = self
            .steps
            .iter()
            .map(|&step| {
                Ok(match step {
                    LaidStep::Load { input, dst } => Step::Load { input, dst },
                    LaidStep::Op { member, srcs, dst } => {
                        let arity = srcs.iter().flatten().count();
                        let srcs = srcs.map(|s| s.unwrap_or(dst));
                        op_step(self.members[member].1, &srcs[..arity], dst)?
                    }
                    LaidStep::Compact { src, dst } => Step::Compact { src, dst },
                    LaidStep::Barrier => Step::Barrier,
                    LaidStep::Store { src, output } => Step::Store { src, output },
                })
            })
            .collect::<Result<Vec<Step>>>()?;

        let mut label = String::from("fused[");
        for (i, (n, op)) in self.members.iter().enumerate() {
            let sep = if i == 0 { "" } else { "+" };
            let _ = write!(label, "{sep}{}{}", op.mnemonic(), n.0);
        }
        label.push(']');
        let input_schemas = self
            .external
            .iter()
            .map(|&p| plan.schema(p).clone())
            .collect();
        let partition = if self.key_range {
            PartitionSpec::KeyRange {
                pivot: 0,
                key_len: 1,
            }
        } else {
            PartitionSpec::Even
        };

        let mut gpu = GpuOperator::streaming(
            label,
            input_schemas,
            self.stored.len(),
            slots,
            steps,
            partition,
        );
        gpu.threads_per_cta = threads_per_cta;
        let schemas = kw_kernel_ir::validate(&gpu)?;

        Ok(WovenOperator {
            op: gpu,
            schemas,
            external_inputs: self.external.clone(),
            stored_nodes: self.stored.iter().map(|&m| self.members[m].0).collect(),
        })
    }

    /// The plan whose sets this layout lays out.
    pub(crate) fn plan(&self) -> &'p QueryPlan {
        self.plan
    }

    /// The producers outside the set that feed the fused kernel.
    pub(crate) fn external_inputs(&self) -> &[NodeId] {
        &self.external
    }
}

/// The dependence class a plan node imposes on its inputs; an input node
/// counts as thread-class.
fn node_class(plan: &QueryPlan, n: NodeId) -> DependenceClass {
    match plan.node(n) {
        PlanNode::Operator { op, .. } => consumer_class(op),
        PlanNode::Input { .. } => DependenceClass::Thread,
    }
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
    fn fused_resources_refuse_what_weaving_refuses() {
        use kw_relational::AttrType;
        let mut p = QueryPlan::new();
        let t = p.add_input("t", Schema::uniform_u32(4));
        let wide = p.add_input("wide", Schema::new(vec![AttrType::U64, AttrType::U32], 1));
        let keyless = p.add_input("keyless", Schema::new(vec![AttrType::U32; 2], 0));
        let a = p.add_op(sel(0), &[t]).unwrap();
        let srt = p.add_op(RaOp::Sort { attrs: vec![1] }, &[a]).unwrap();
        let b = p.add_op(sel(1), &[a]).unwrap();
        let x = p.add_op(sel(2), &[t]).unwrap();
        let y = p.add_op(sel(3), &[x]).unwrap();
        let w = p.add_op(sel(1), &[wide]).unwrap();
        let k = p.add_op(sel(1), &[keyless]).unwrap();
        let j = p.add_op(RaOp::Join { key_len: 1 }, &[t, t]).unwrap();
        for out in [srt, b, w, k, j] {
            p.mark_output(out);
        }
        let tpc = DEFAULT_THREADS_PER_CTA;
        let refusals: [&[NodeId]; 7] = [
            &[],       // empty
            &[t, a],   // an input node
            &[a, srt], // a kernel-dependent operator
            &[x, y],   // no result leaves the set
            &[b, a],   // not in topological order
            &[w, j],   // key-range inputs whose keys differ in type
            &[k, j],   // a key-range input without a key
        ];
        for set in refusals {
            let woven = weave(&p, set, tpc).map(|_| ()).map_err(|e| e.to_string());
            let priced = fused_resources(&p, set, tpc)
                .map(|_| ())
                .map_err(|e| e.to_string());
            assert!(woven.is_err(), "{set:?}");
            assert_eq!(priced, woven, "{set:?}");
        }
        let woven = weave(&p, &[a, b], tpc).unwrap();
        let estimate = kw_kernel_ir::estimate_resources(&woven.op, &woven.schemas, OptLevel::O3);
        assert_eq!(fused_resources(&p, &[a, b], tpc).ok(), estimate.ok());
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
