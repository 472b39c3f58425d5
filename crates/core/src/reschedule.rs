//! Operator rescheduling (the paper's Section 6 closing remark): "a more
//! complicated fusion framework can use invariant analysis to reschedule
//! operators ... if switching the order of SORT and SELECT of Figure 9(c)
//! does not alter the final result, the switch brings more opportunity to
//! optimize since SELECT can thus fuse with the operators before SORT."
//!
//! SELECT is order-insensitive, so `σ_p(sort(R)) = sort(σ_{p'}(R))` always
//! holds once the predicate's attribute references are remapped through the
//! sort's permutation. Hoisting the SELECT (a) shrinks the SORT's input and
//! (b) moves the SELECT into the fusion region *below* the SORT boundary.

use std::collections::BTreeMap;

use kw_primitives::RaOp;

use crate::{NodeId, PlanNode, QueryPlan, Result, WeaverError};

/// A rescheduled plan plus the node mapping from the original.
#[derive(Debug, Clone)]
pub struct Rescheduled {
    /// The transformed plan.
    pub plan: QueryPlan,
    /// Maps every original node to its equivalent in the new plan.
    pub node_map: BTreeMap<NodeId, NodeId>,
    /// How many SELECT-over-SORT pairs were swapped.
    pub swaps: usize,
}

/// Hoist SELECTs above SORTs wherever the SORT has no other consumer and is
/// not itself a plan output. Applied to fixpoint.
///
/// # Errors
///
/// Returns [`WeaverError`] if the plan is invalid.
///
/// # Examples
///
/// ```
/// use kw_core::{reschedule, QueryPlan};
/// use kw_primitives::RaOp;
/// use kw_relational::{Predicate, Schema};
///
/// let mut plan = QueryPlan::new();
/// let t = plan.add_input("t", Schema::uniform_u32(2));
/// let srt = plan.add_op(RaOp::Sort { attrs: vec![1] }, &[t])?;
/// let sel = plan.add_op(RaOp::Select { pred: Predicate::True }, &[srt])?;
/// plan.mark_output(sel);
///
/// let r = reschedule(&plan)?;
/// assert_eq!(r.swaps, 1); // the select now runs before (and shrinks) the sort
/// # Ok::<(), kw_core::WeaverError>(())
/// ```
pub fn reschedule(plan: &QueryPlan) -> Result<Rescheduled> {
    plan.validate()?;
    let mut current = plan.clone();
    let mut node_map: BTreeMap<NodeId, NodeId> = plan.node_ids().map(|n| (n, n)).collect();
    let mut total_swaps = 0;

    loop {
        let (next, step_map, swaps) = hoist_once(&current)?;
        if swaps == 0 {
            break;
        }
        total_swaps += swaps;
        for v in node_map.values_mut() {
            *v = step_map[v];
        }
        current = next;
    }

    Ok(Rescheduled {
        plan: current,
        node_map,
        swaps: total_swaps,
    })
}

/// One rewrite pass. Returns the new plan, the old→new node map, and the
/// number of swaps performed.
fn hoist_once(plan: &QueryPlan) -> Result<(QueryPlan, BTreeMap<NodeId, NodeId>, usize)> {
    let mut out = QueryPlan::new();
    let mut map: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    let mut swaps = 0;

    for id in plan.node_ids() {
        match plan.node(id) {
            PlanNode::Input { name, schema } => {
                let n = out.add_input(name.clone(), schema.clone());
                map.insert(id, n);
            }
            PlanNode::Operator { op, inputs } => {
                // Pattern: SELECT whose only producer is a single-consumer,
                // non-output SORT.
                if let (RaOp::Select { pred }, [sort_id]) = (op, inputs.as_slice()) {
                    if let PlanNode::Operator {
                        op: RaOp::Sort { attrs },
                        inputs: sort_inputs,
                    } = plan.node(*sort_id)
                    {
                        let only_consumer = plan.consumers(*sort_id) == [id];
                        if only_consumer && !plan.is_output(*sort_id) {
                            let base = sort_inputs[0];
                            // Remap the predicate through the sort's
                            // permutation: sorted attribute j is original
                            // attribute order[j].
                            let arity = plan.schema(base).arity();
                            let mut order: Vec<usize> = attrs.clone();
                            for a in 0..arity {
                                if !attrs.contains(&a) {
                                    order.push(a);
                                }
                            }
                            let remap: Vec<Option<usize>> =
                                order.iter().map(|&o| Some(o)).collect();
                            if let Some(pred2) = pred.remap_attrs(&remap) {
                                let new_sel =
                                    out.add_op(RaOp::Select { pred: pred2 }, &[map[&base]])?;
                                let new_sort = out.add_op(
                                    RaOp::Sort {
                                        attrs: attrs.clone(),
                                    },
                                    &[new_sel],
                                )?;
                                // The old sort's result no longer exists as
                                // a distinct node; point it at the new sort
                                // (it had no other consumers).
                                map.insert(*sort_id, new_sort);
                                map.insert(id, new_sort);
                                swaps += 1;
                                continue;
                            }
                        }
                    }
                }
                // Default: copy the operator. Skip sorts that were already
                // consumed by a swap above.
                if map.contains_key(&id) {
                    continue;
                }
                if matches!(op, RaOp::Sort { .. })
                    && plan
                        .consumers(id)
                        .iter()
                        .all(|c| is_hoisted_select(plan, *c))
                    && !plan.is_output(id)
                    && !plan.consumers(id).is_empty()
                {
                    // This sort will be re-created by its consuming select;
                    // defer (handled when the select is visited).
                    continue;
                }
                let new_inputs: Vec<NodeId> = inputs
                    .iter()
                    .map(|p| {
                        map.get(p).copied().ok_or_else(|| {
                            WeaverError::plan(format!("producer {p} not yet mapped"))
                        })
                    })
                    .collect::<Result<_>>()?;
                let n = out.add_op(op.clone(), &new_inputs)?;
                map.insert(id, n);
            }
        }
    }

    for &o in plan.outputs() {
        out.mark_output(map[&o]);
    }
    Ok((out, map, swaps))
}

/// Whether `id` is a SELECT over a single-consumer, non-output SORT (the
/// hoist pattern).
fn is_hoisted_select(plan: &QueryPlan, id: NodeId) -> bool {
    if let PlanNode::Operator {
        op: RaOp::Select { .. },
        inputs,
    } = plan.node(id)
    {
        if let [sort_id] = inputs.as_slice() {
            if let PlanNode::Operator {
                op: RaOp::Sort { .. },
                ..
            } = plan.node(*sort_id)
            {
                return plan.consumers(*sort_id) == [id] && !plan.is_output(*sort_id);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_relational::{CmpOp, Predicate, Schema, Value};

    fn sel(attr: usize) -> RaOp {
        RaOp::Select {
            pred: Predicate::cmp(attr, CmpOp::Lt, Value::U32(100)),
        }
    }

    #[test]
    fn select_hoisted_above_sort() {
        let mut p = QueryPlan::new();
        let t = p.add_input("t", Schema::uniform_u32(3));
        let srt = p.add_op(RaOp::Sort { attrs: vec![2] }, &[t]).unwrap();
        // After sort the layout is (a2, a0, a1); select on position 1 = a0.
        let s = p.add_op(sel(1), &[srt]).unwrap();
        p.mark_output(s);

        let r = reschedule(&p).unwrap();
        assert_eq!(r.swaps, 1);
        // New plan: select (on original attribute 0) then sort.
        let ops: Vec<&RaOp> = r.plan.operator_nodes().map(|(_, op, _)| op).collect();
        assert!(matches!(ops[0], RaOp::Select { .. }));
        assert!(matches!(ops[1], RaOp::Sort { .. }));
        if let RaOp::Select { pred } = ops[0] {
            assert_eq!(pred.max_attr(), Some(0), "predicate remapped: {pred}");
        }
        r.plan.validate().unwrap();
    }

    #[test]
    fn chain_of_selects_hoists_to_fixpoint() {
        let mut p = QueryPlan::new();
        let t = p.add_input("t", Schema::uniform_u32(3));
        let srt = p.add_op(RaOp::Sort { attrs: vec![1] }, &[t]).unwrap();
        let s1 = p.add_op(sel(0), &[srt]).unwrap();
        let s2 = p.add_op(sel(2), &[s1]).unwrap();
        p.mark_output(s2);

        let r = reschedule(&p).unwrap();
        assert_eq!(r.swaps, 2);
        let ops: Vec<&RaOp> = r.plan.operator_nodes().map(|(_, op, _)| op).collect();
        assert!(matches!(ops[0], RaOp::Select { .. }));
        assert!(matches!(ops[1], RaOp::Select { .. }));
        assert!(matches!(ops[2], RaOp::Sort { .. }));
    }

    #[test]
    fn sort_with_other_consumers_not_touched() {
        let mut p = QueryPlan::new();
        let t = p.add_input("t", Schema::uniform_u32(2));
        let srt = p.add_op(RaOp::Sort { attrs: vec![1] }, &[t]).unwrap();
        let s = p.add_op(sel(0), &[srt]).unwrap();
        p.mark_output(s);
        p.mark_output(srt); // the sorted relation itself leaves the plan
        let r = reschedule(&p).unwrap();
        assert_eq!(r.swaps, 0);
        assert_eq!(r.plan, p);
    }

    #[test]
    fn node_map_tracks_outputs() {
        let mut p = QueryPlan::new();
        let t = p.add_input("t", Schema::uniform_u32(2));
        let srt = p.add_op(RaOp::Sort { attrs: vec![1] }, &[t]).unwrap();
        let s = p.add_op(sel(0), &[srt]).unwrap();
        p.mark_output(s);
        let r = reschedule(&p).unwrap();
        let mapped = r.node_map[&s];
        assert!(r.plan.is_output(mapped));
    }
}
