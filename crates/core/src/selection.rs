//! Algorithm 2: choosing which candidates to fuse under resource
//! constraints.
//!
//! The paper's heuristic: walk the candidate group in topological order,
//! greedily growing the current fusion set as long as the fused kernel's
//! estimated registers/thread and shared memory/CTA stay within budget —
//! "it is more important to fuse operators executed earlier than those
//! executed later", because data volumes shrink as filters apply. When a
//! candidate does not fit, the current set is closed and a new one starts.

use kw_gpu_sim::DeviceConfig;
use kw_kernel_ir::{estimate_resources, OptLevel};

use crate::{weave, NodeId, QueryPlan, Result, WovenOperator};

/// Per-kernel resource budget Algorithm 2 enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Maximum registers per thread.
    pub max_registers_per_thread: u32,
    /// Maximum shared memory per CTA, bytes.
    pub max_shared_per_cta: u32,
}

impl ResourceBudget {
    /// The budget implied by a device configuration: the architectural
    /// register limit and the full shared memory of one SM.
    pub fn from_device(cfg: &DeviceConfig) -> ResourceBudget {
        ResourceBudget {
            max_registers_per_thread: cfg.max_registers_per_thread,
            max_shared_per_cta: cfg.shared_mem_per_sm,
        }
    }

    /// Whether `res` fits the budget.
    pub fn admits(&self, res: kw_gpu_sim::KernelResources) -> bool {
        res.registers_per_thread <= self.max_registers_per_thread
            && res.shared_per_cta <= self.max_shared_per_cta
    }
}

impl Default for ResourceBudget {
    fn default() -> Self {
        ResourceBudget::from_device(&DeviceConfig::fermi_c2050())
    }
}

/// Split one candidate group into fusion sets under `budget`.
///
/// Sets of size one are returned too (the caller executes them unfused).
/// Within a set, a node is only admitted if all its in-group producers are
/// in the *current* set — an intermediate that already left the kernel
/// cannot be re-fused.
///
/// # Errors
///
/// Propagates codegen errors other than budget refusals.
pub fn select_fusions(
    plan: &QueryPlan,
    group: &[NodeId],
    budget: ResourceBudget,
    threads_per_cta: u32,
) -> Result<Vec<Vec<NodeId>>> {
    Ok(select_woven(plan, group, budget, threads_per_cta)
        .into_iter()
        .map(|set| set.nodes)
        .collect())
}

/// One fusion set Algorithm 2 chose.
pub(crate) struct FusionSet {
    /// The set's plan nodes, in topological order.
    pub(crate) nodes: Vec<NodeId>,
    /// For a set of two or more nodes, the operator its last admitted
    /// attempt wove: code generation for the set itself.
    pub(crate) woven: Option<WovenOperator>,
}

/// [`select_fusions`], keeping the operator each set's last admitted
/// attempt wove.
pub(crate) fn select_woven(
    plan: &QueryPlan,
    group: &[NodeId],
    budget: ResourceBudget,
    threads_per_cta: u32,
) -> Vec<FusionSet> {
    let single = |n: NodeId| FusionSet {
        nodes: vec![n],
        woven: None,
    };
    let mut sets: Vec<FusionSet> = Vec::new();
    let Some((&first, rest)) = group.split_first() else {
        return sets;
    };
    let mut current = single(first);
    for &n in rest {
        // All in-group producers of `n` must be in the current set.
        let producers_ok = plan
            .producers(n)
            .iter()
            .filter(|p| group.contains(p))
            .all(|p| current.nodes.contains(p));

        let mut attempt = current.nodes.clone();
        attempt.push(n);
        let woven = if producers_ok {
            woven_within(plan, &attempt, budget, threads_per_cta)
        } else {
            None
        };
        match woven {
            Some(woven) => {
                current = FusionSet {
                    nodes: attempt,
                    woven: Some(woven),
                }
            }
            None => sets.push(std::mem::replace(&mut current, single(n))),
        }
    }
    sets.push(current);
    sets
}

/// The woven fusion of `set` if it fits `budget` (a set that fails to
/// weave at all — e.g. disconnected after splitting — does not fit). The
/// resources are estimated from the schemas weaving inferred.
fn woven_within(
    plan: &QueryPlan,
    set: &[NodeId],
    budget: ResourceBudget,
    threads_per_cta: u32,
) -> Option<WovenOperator> {
    // Scheduling acyclicity: no external input of the fused kernel may
    // transitively depend on a member of the set (that happens when a
    // kernel-dependent operator sits on a path *between* two candidates —
    // e.g. `u → aggregate → j` with `u` and `j` both fusible).
    let external: Vec<NodeId> = set
        .iter()
        .flat_map(|&n| plan.producers(n).iter().copied())
        .filter(|p| !set.contains(p))
        .collect();
    if external.iter().any(|&p| depends_on_any(plan, p, set)) {
        return None;
    }

    let woven = weave(plan, set, threads_per_cta).ok()?;
    let res = estimate_resources(&woven.op, &woven.schemas, OptLevel::O3).ok()?;
    budget.admits(res).then_some(woven)
}

/// Whether `node` transitively depends on any node in `targets`.
fn depends_on_any(plan: &QueryPlan, node: NodeId, targets: &[NodeId]) -> bool {
    let mut stack = vec![node];
    let mut seen = vec![false; plan.len()];
    while let Some(n) = stack.pop() {
        if seen[n.0] {
            continue;
        }
        seen[n.0] = true;
        for &p in plan.producers(n) {
            if targets.contains(&p) {
                return true;
            }
            stack.push(p);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{find_candidates, FusionOptions};
    use kw_kernel_ir::DEFAULT_THREADS_PER_CTA;
    use kw_primitives::RaOp;
    use kw_relational::{CmpOp, Predicate, Schema, Value};

    fn sel(attr: usize) -> RaOp {
        RaOp::Select {
            pred: Predicate::cmp(attr, CmpOp::Lt, Value::U32(9)),
        }
    }

    #[test]
    fn small_chain_fuses_entirely() {
        let mut p = QueryPlan::new();
        let t = p.add_input("t", Schema::uniform_u32(4));
        let a = p.add_op(sel(0), &[t]).unwrap();
        let b = p.add_op(sel(1), &[a]).unwrap();
        let c = p.add_op(sel(2), &[b]).unwrap();
        p.mark_output(c);
        let groups = find_candidates(&p, FusionOptions::default());
        let sets = select_fusions(
            &p,
            &groups[0],
            ResourceBudget::default(),
            DEFAULT_THREADS_PER_CTA,
        )
        .unwrap();
        assert_eq!(sets, vec![vec![a, b, c]]);
    }

    #[test]
    fn tight_shared_budget_splits_join_chain() {
        let mut p = QueryPlan::new();
        let s = Schema::uniform_u32(2);
        let t0 = p.add_input("t0", s.clone());
        let t1 = p.add_input("t1", s.clone());
        let t2 = p.add_input("t2", s.clone());
        let j1 = p.add_op(RaOp::Join { key_len: 1 }, &[t0, t1]).unwrap();
        let j2 = p.add_op(RaOp::Join { key_len: 1 }, &[j1, t2]).unwrap();
        p.mark_output(j2);
        let groups = find_candidates(&p, FusionOptions::default());
        assert_eq!(groups.len(), 1);

        // Generous budget: both joins fuse.
        let sets = select_fusions(
            &p,
            &groups[0],
            ResourceBudget::default(),
            DEFAULT_THREADS_PER_CTA,
        )
        .unwrap();
        assert_eq!(sets, vec![vec![j1, j2]]);

        // Starved shared budget: the chain splits into singletons.
        let tight = ResourceBudget {
            max_registers_per_thread: 63,
            max_shared_per_cta: 8 * 1024,
        };
        let sets = select_fusions(&p, &groups[0], tight, DEFAULT_THREADS_PER_CTA).unwrap();
        assert_eq!(sets, vec![vec![j1], vec![j2]]);
    }

    #[test]
    fn earlier_operators_get_priority() {
        // Six parallel selects over one input (pattern (d) at scale): every
        // fused result stays live until the stores, so registers accumulate
        // and a tight budget must split the group — keeping the earliest
        // operators fused together, per the paper's heuristic.
        let mut p = QueryPlan::new();
        let t = p.add_input("t", Schema::uniform_u32(4));
        let mut nodes = Vec::new();
        for i in 0..6 {
            let n = p.add_op(sel(i % 4), &[t]).unwrap();
            p.mark_output(n);
            nodes.push(n);
        }
        let groups = find_candidates(&p, FusionOptions::default());
        assert_eq!(groups.len(), 1);
        let tight = ResourceBudget {
            max_registers_per_thread: 30,
            max_shared_per_cta: 48 * 1024,
        };
        let sets = select_fusions(&p, &groups[0], tight, DEFAULT_THREADS_PER_CTA).unwrap();
        assert!(sets.len() > 1, "budget should split the group: {sets:?}");
        assert_eq!(sets.concat(), nodes, "topological order preserved");
        assert!(
            sets[0].len() >= 2,
            "earliest operators should fuse first: {sets:?}"
        );
    }

    #[test]
    fn fusion_never_spans_a_kernel_dependent_bridge() {
        // u -> aggregate -> j with u and j both weavable: fusing {u, j}
        // would make the fused kernel depend on the aggregate, which
        // depends on the fused kernel — a scheduling cycle. Algorithm 2
        // must refuse it (the regression behind TPC-H Q21's count-distinct
        // rewrite).
        use kw_relational::ops::AggFn;
        let mut p = QueryPlan::new();
        let t = p.add_input("t", Schema::uniform_u32(2));
        let u = p.add_op(RaOp::Unique, &[t]).unwrap();
        let agg = p
            .add_op(
                RaOp::Aggregate {
                    group_by: vec![0],
                    aggs: vec![AggFn::Count],
                },
                &[u],
            )
            .unwrap();
        let agg_sel = p
            .add_op(
                RaOp::Select {
                    pred: Predicate::cmp(1, CmpOp::Ge, Value::U64(2)),
                },
                &[agg],
            )
            .unwrap();
        let j = p
            .add_op(RaOp::SemiJoin { key_len: 1 }, &[u, agg_sel])
            .unwrap();
        p.mark_output(j);

        let groups = find_candidates(&p, FusionOptions::default());
        for g in &groups {
            let sets =
                select_fusions(&p, g, ResourceBudget::default(), DEFAULT_THREADS_PER_CTA).unwrap();
            for set in sets {
                assert!(
                    !(set.contains(&u) && set.contains(&j)),
                    "u and j must not fuse across the aggregate: {set:?}"
                );
            }
        }
        // And the whole plan compiles + schedules.
        let compiled = crate::compile(&p, &crate::WeaverConfig::default()).unwrap();
        assert!(!compiled.steps.is_empty());
    }

    #[test]
    fn budget_admits() {
        let b = ResourceBudget {
            max_registers_per_thread: 32,
            max_shared_per_cta: 1024,
        };
        assert!(b.admits(kw_gpu_sim::KernelResources {
            registers_per_thread: 32,
            shared_per_cta: 1024
        }));
        assert!(!b.admits(kw_gpu_sim::KernelResources {
            registers_per_thread: 33,
            shared_per_cta: 0
        }));
    }
}
