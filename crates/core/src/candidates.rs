//! Algorithm 1: finding kernel-fusion candidates.
//!
//! As in the paper, operators causing kernel dependences (SORT, grouped
//! AGGREGATE) are removed from the dependence graph; the remaining connected
//! operators — connected by producer-consumer edges and, with the Section
//! 4.4 extension enabled, by shared-input edges — form candidate groups
//! bounded by the kernel-dependent operators.

use std::collections::BTreeSet;

use kw_primitives::{is_fusible, RaOp};

use crate::{NodeId, PlanNode, QueryPlan};

/// Options controlling candidate discovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionOptions {
    /// Also connect operators that share an input relation (the paper's
    /// first Section 4.4 extension; enables micro-benchmark pattern (d)).
    pub input_dependence: bool,
}

impl Default for FusionOptions {
    fn default() -> Self {
        FusionOptions {
            input_dependence: true,
        }
    }
}

/// Whether an operator can be woven into a fused kernel.
///
/// Kernel-dependent operators (SORT, AGGREGATE) cannot; CROSS PRODUCT runs
/// as a streaming operator but replicates its right input across CTAs, which
/// is incompatible with the shared key-range partitioning a fused kernel
/// uses, so it executes standalone as well.
pub fn is_weavable(op: &RaOp) -> bool {
    is_fusible(op) && !matches!(op, RaOp::Product)
}

/// Find fusion candidate groups: maximal connected sets of weavable
/// operators, each returned in topological order. Groups with fewer than
/// two operators are omitted (there is nothing to fuse).
///
/// # Examples
///
/// ```
/// use kw_core::{find_candidates, FusionOptions, QueryPlan};
/// use kw_primitives::RaOp;
/// use kw_relational::{Predicate, Schema};
///
/// let mut plan = QueryPlan::new();
/// let t = plan.add_input("t", Schema::uniform_u32(2));
/// let s1 = plan.add_op(RaOp::Select { pred: Predicate::True }, &[t])?;
/// let srt = plan.add_op(RaOp::Sort { attrs: vec![1] }, &[s1])?;
/// let s2 = plan.add_op(RaOp::Select { pred: Predicate::True }, &[srt])?;
/// let s3 = plan.add_op(RaOp::Select { pred: Predicate::True }, &[s2])?;
/// plan.mark_output(s3);
/// // SORT bounds the candidates: only {s2, s3} is a group of >= 2 operators.
/// let groups = find_candidates(&plan, FusionOptions::default());
/// assert_eq!(groups, vec![vec![s2, s3]]);
/// # Ok::<(), kw_core::WeaverError>(())
/// ```
pub fn find_candidates(plan: &QueryPlan, opts: FusionOptions) -> Vec<Vec<NodeId>> {
    let weavable: BTreeSet<NodeId> = plan
        .operator_nodes()
        .filter(|(_, op, _)| is_weavable(op))
        .map(|(id, _, _)| id)
        .collect();

    // Union-find over weavable nodes.
    let mut parent: Vec<usize> = (0..plan.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]]; // path halving
            x = parent[x];
        }
        x
    }
    fn union(parent: &mut [usize], a: usize, b: usize) {
        let ra = find(parent, a);
        let rb = find(parent, b);
        if ra != rb {
            parent[ra] = rb;
        }
    }

    for &id in &weavable {
        // Producer-consumer edges between weavable operators.
        for &p in plan.producers(id) {
            if weavable.contains(&p) {
                union(&mut parent, p.0, id.0);
            }
        }
        // Input-dependence edges: operators sharing any producer node.
        if opts.input_dependence {
            for &p in plan.producers(id) {
                for &c in plan.consumers(p) {
                    if c != id && weavable.contains(&c) {
                        union(&mut parent, c.0, id.0);
                    }
                }
            }
        }
    }

    let mut groups: std::collections::BTreeMap<usize, Vec<NodeId>> = Default::default();
    for &id in &weavable {
        let root = find(&mut parent, id.0);
        groups.entry(root).or_default().push(id);
    }
    let mut out: Vec<Vec<NodeId>> = groups.into_values().filter(|g| g.len() >= 2).collect();
    for g in &mut out {
        g.sort(); // insertion order is topological
    }
    out.sort_by_key(|g| g[0]);
    out
}

/// The kernel-dependent boundary nodes of a plan (SORT / AGGREGATE — the
/// operators that bound fusion regions, per Figure 9).
pub fn kernel_boundaries(plan: &QueryPlan) -> Vec<NodeId> {
    plan.operator_nodes()
        .filter(|(_, op, _)| !is_fusible(op))
        .map(|(id, _, _)| id)
        .collect()
}

/// Whether a plan node is an input node.
pub fn is_input_node(plan: &QueryPlan, id: NodeId) -> bool {
    matches!(plan.node(id), PlanNode::Input { .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_relational::{Predicate, Schema};

    fn sel() -> RaOp {
        RaOp::Select {
            pred: Predicate::True,
        }
    }

    #[test]
    fn chain_is_one_group() {
        let mut p = QueryPlan::new();
        let t = p.add_input("t", Schema::uniform_u32(2));
        let a = p.add_op(sel(), &[t]).unwrap();
        let b = p.add_op(sel(), &[a]).unwrap();
        let c = p.add_op(sel(), &[b]).unwrap();
        p.mark_output(c);
        let g = find_candidates(&p, FusionOptions::default());
        assert_eq!(g, vec![vec![a, b, c]]);
    }

    #[test]
    fn sort_bounds_groups() {
        let mut p = QueryPlan::new();
        let t = p.add_input("t", Schema::uniform_u32(2));
        let a = p.add_op(sel(), &[t]).unwrap();
        let b = p.add_op(sel(), &[a]).unwrap();
        let s = p.add_op(RaOp::Sort { attrs: vec![1] }, &[b]).unwrap();
        let c = p.add_op(sel(), &[s]).unwrap();
        let d = p.add_op(sel(), &[c]).unwrap();
        p.mark_output(d);
        let g = find_candidates(&p, FusionOptions::default());
        assert_eq!(g, vec![vec![a, b], vec![c, d]]);
        assert_eq!(kernel_boundaries(&p), vec![s]);
    }

    #[test]
    fn input_dependence_connects_siblings() {
        let mut p = QueryPlan::new();
        let t = p.add_input("t", Schema::uniform_u32(2));
        let a = p.add_op(sel(), &[t]).unwrap();
        let b = p.add_op(sel(), &[t]).unwrap();
        p.mark_output(a);
        p.mark_output(b);

        let with = find_candidates(&p, FusionOptions::default());
        assert_eq!(with, vec![vec![a, b]]);

        let without = find_candidates(
            &p,
            FusionOptions {
                input_dependence: false,
            },
        );
        assert!(without.is_empty());
    }

    #[test]
    fn joins_and_selects_group_together() {
        let mut p = QueryPlan::new();
        let x = p.add_input("x", Schema::uniform_u32(2));
        let y = p.add_input("y", Schema::uniform_u32(2));
        let sx = p.add_op(sel(), &[x]).unwrap();
        let sy = p.add_op(sel(), &[y]).unwrap();
        let j = p.add_op(RaOp::Join { key_len: 1 }, &[sx, sy]).unwrap();
        p.mark_output(j);
        let g = find_candidates(&p, FusionOptions::default());
        assert_eq!(g, vec![vec![sx, sy, j]]);
    }

    #[test]
    fn product_is_not_weavable() {
        assert!(!is_weavable(&RaOp::Product));
        assert!(is_weavable(&RaOp::Join { key_len: 1 }));
        assert!(!is_weavable(&RaOp::Sort { attrs: vec![0] }));
        let mut p = QueryPlan::new();
        let t = p.add_input("t", Schema::uniform_u32(2));
        let a = p.add_op(RaOp::Product, &[t, t]).unwrap();
        let b = p.add_op(sel(), &[a]).unwrap();
        p.mark_output(b);
        assert!(find_candidates(&p, FusionOptions::default()).is_empty());
    }
}
