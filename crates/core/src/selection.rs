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

use crate::weave::Layout;
use crate::{NodeId, QueryPlan, Result};

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
/// cannot be re-fused. Each attempt is priced from its layout, as
/// [`fused_resources`](crate::fused_resources) prices it, and none is
/// woven.
///
/// # Errors
///
/// Never returns an error. An attempt that [`weave`](crate::weave) would
/// refuse does not fit, like one over budget, and its node starts the next
/// set.
pub fn select_fusions(
    plan: &QueryPlan,
    group: &[NodeId],
    budget: ResourceBudget,
    threads_per_cta: u32,
) -> Result<Vec<Vec<NodeId>>> {
    Ok(select_in(
        &mut Layout::new(plan),
        group,
        budget,
        threads_per_cta,
    ))
}

/// [`select_fusions`], laying each attempt out in `layout`, which is left
/// holding the last attempt's layout.
pub(crate) fn select_in(
    layout: &mut Layout,
    group: &[NodeId],
    budget: ResourceBudget,
    threads_per_cta: u32,
) -> Vec<Vec<NodeId>> {
    let plan = layout.plan();
    let mut sets: Vec<Vec<NodeId>> = Vec::new();
    let Some((&first, rest)) = group.split_first() else {
        return sets;
    };
    let mut current = vec![first];
    for &n in rest {
        // All in-group producers of `n` must be in the current set.
        let producers_ok = plan
            .producers(n)
            .iter()
            .filter(|p| group.contains(p))
            .all(|p| current.contains(p));

        current.push(n);
        if !(producers_ok && fits(layout, &current, budget, threads_per_cta)) {
            current.pop();
            sets.push(std::mem::replace(&mut current, vec![n]));
        }
    }
    sets.push(current);
    sets
}

/// Whether the fusion of `set`, laid out into `layout`, fits `budget` (a
/// set that fails to lay out or to price, as one [`weave`](crate::weave)
/// would refuse, does not fit). The resources are estimated from the
/// layout and the plan's schemas.
fn fits(layout: &mut Layout, set: &[NodeId], budget: ResourceBudget, threads_per_cta: u32) -> bool {
    if layout.lay_out(set).is_err() {
        return false;
    }
    // Scheduling acyclicity: no external input of the fused kernel may
    // transitively depend on a member of the set (that happens when a
    // kernel-dependent operator sits on a path *between* two candidates —
    // e.g. `u → aggregate → j` with `u` and `j` both fusible).
    if depends_on_any(layout.plan(), layout.external_inputs(), set) {
        return false;
    }
    layout
        .resources(threads_per_cta)
        .is_ok_and(|res| budget.admits(res))
}

/// Whether any node of `from` transitively depends on a node of `targets`.
fn depends_on_any(plan: &QueryPlan, from: &[NodeId], targets: &[NodeId]) -> bool {
    // Producers precede their consumers, so nothing below the lowest
    // target depends on one.
    let Some(&lowest) = targets.iter().min() else {
        return false;
    };
    let mut stack: Vec<NodeId> = from.iter().copied().filter(|&n| n > lowest).collect();
    if stack.is_empty() {
        return false;
    }
    let mut seen = vec![false; plan.len()];
    while let Some(n) = stack.pop() {
        if std::mem::replace(&mut seen[n.0], true) {
            continue;
        }
        for &p in plan.producers(n) {
            if targets.contains(&p) {
                return true;
            }
            if p > lowest {
                stack.push(p);
            }
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
    fn attempts_that_fail_to_weave_do_not_fit_and_are_no_error() {
        // `select_fusions` never fails: an attempt that cannot be woven
        // closes the current set, like one over budget. Each group below is
        // one a caller could pass.
        use kw_relational::AttrType;
        let mut p = QueryPlan::new();
        let t = p.add_input("t", Schema::uniform_u32(4));
        let wide = p.add_input("wide", Schema::new(vec![AttrType::U64, AttrType::U32], 1));
        let a = p.add_op(sel(0), &[t]).unwrap();
        let srt = p.add_op(RaOp::Sort { attrs: vec![1] }, &[a]).unwrap();
        let b = p.add_op(sel(1), &[srt]).unwrap();
        // Neither result leaves {x, y}: no output, no outside consumer.
        let x = p.add_op(sel(2), &[t]).unwrap();
        let y = p.add_op(sel(3), &[x]).unwrap();
        // A key-range kernel over inputs whose keys differ in type.
        let w = p.add_op(sel(1), &[wide]).unwrap();
        let j = p.add_op(RaOp::Join { key_len: 1 }, &[t, t]).unwrap();
        p.mark_output(b);
        p.mark_output(w);
        p.mark_output(j);

        let tpc = DEFAULT_THREADS_PER_CTA;
        let budget = ResourceBudget::default();
        let cases: [(&[NodeId], Vec<Vec<NodeId>>); 3] = [
            (&[t, a, srt, b], vec![vec![t], vec![a], vec![srt], vec![b]]),
            (&[x, y], vec![vec![x], vec![y]]),
            (&[w, j], vec![vec![w], vec![j]]),
        ];
        for (group, sets) in cases {
            assert_eq!(select_fusions(&p, group, budget, tpc).unwrap(), sets);
            for pair in group.windows(2) {
                assert!(crate::weave(&p, pair, tpc).is_err(), "{pair:?}");
            }
        }
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
