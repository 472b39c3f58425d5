//! CPU oracle: evaluates a [`QueryPlan`] with the `kw_relational::ops`
//! reference implementations, one call per plan operator.
//!
//! Every request the benchmark times is checked against these values, and
//! the traced run replays compiled steps over them, so the oracle is the
//! single source of expected relations for all four workloads.

use std::collections::BTreeMap;

use kw_core::{NodeId, PlanNode, QueryPlan};
use kw_primitives::RaOp;
use kw_relational::{ops, Relation};

use crate::trace::Tracer;

/// The `relational.*` span an operator's reference call is recorded under.
fn span_name(op: &RaOp) -> &'static str {
    match op {
        RaOp::Join { .. } | RaOp::SemiJoin { .. } | RaOp::AntiJoin { .. } | RaOp::Product => {
            "relational.join"
        }
        RaOp::Sort { .. } => "relational.sort",
        RaOp::Aggregate { .. } => "relational.aggregate",
        _ => "relational.streaming",
    }
}

/// Every node's relation, indexed by [`NodeId`].
#[derive(Debug)]
pub struct Evaluation {
    /// `values[n.0]` is node `n`'s relation.
    pub values: Vec<Relation>,
}

impl Evaluation {
    /// Node `id`'s relation.
    pub fn value(&self, id: NodeId) -> &Relation {
        &self.values[id.0]
    }

    /// The plan's marked outputs, keyed like `PlanReport::outputs`.
    pub fn outputs(&self, plan: &QueryPlan) -> BTreeMap<NodeId, Relation> {
        plan.outputs()
            .iter()
            .map(|&o| (o, self.value(o).clone()))
            .collect()
    }
}

/// Evaluate every node of `plan` over `bindings`, one `relational.*` span
/// per operator.
///
/// # Errors
///
/// Returns a message for an unbound input or a failing reference call.
pub fn evaluate(
    plan: &QueryPlan,
    bindings: &[(&str, &Relation)],
    tracer: &mut Tracer,
) -> Result<Evaluation, String> {
    let mut values: Vec<Relation> = Vec::with_capacity(plan.len());
    for id in plan.node_ids() {
        let value = match plan.node(id) {
            PlanNode::Input { name, .. } => bindings
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, r)| (*r).clone())
                .ok_or_else(|| format!("no relation bound to '{name}'"))?,
            PlanNode::Operator { op, inputs } => {
                let ins: Vec<&Relation> = inputs.iter().map(|i| &values[i.0]).collect();
                tracer
                    .span(span_name(op), |_| apply(op, &ins))
                    .map_err(|e| format!("{id} {}: {e}", op.mnemonic()))?
            }
        };
        values.push(value);
    }
    Ok(Evaluation { values })
}

fn apply(op: &RaOp, ins: &[&Relation]) -> kw_relational::Result<Relation> {
    match op {
        RaOp::Select { pred } => ops::select(ins[0], pred),
        RaOp::Project { attrs, key_arity } => ops::project(ins[0], attrs, *key_arity),
        RaOp::Map { exprs, key_arity } => ops::compute(ins[0], exprs, *key_arity),
        RaOp::Join { key_len } => ops::join(ins[0], ins[1], *key_len),
        RaOp::Product => ops::product(ins[0], ins[1]),
        RaOp::SemiJoin { key_len } => ops::semi_join(ins[0], ins[1], *key_len),
        RaOp::AntiJoin { key_len } => ops::anti_join(ins[0], ins[1], *key_len),
        RaOp::Union => ops::union(ins[0], ins[1]),
        RaOp::Intersect => ops::intersect(ins[0], ins[1]),
        RaOp::Difference => ops::difference(ins[0], ins[1]),
        RaOp::Unique => ops::unique(ins[0]),
        RaOp::Sort { attrs } => ops::sort_on(ins[0], attrs),
        RaOp::Aggregate { group_by, aggs } => ops::aggregate(ins[0], group_by, aggs),
    }
}

/// Compare a run's outputs with the oracle's. Relations are kept sorted on
/// their full tuple, so outputs assembled from chunks or hash partitions in
/// any order compare equal exactly when they hold the same tuples.
///
/// # Errors
///
/// Names the first output whose relation differs or is missing.
pub fn check_outputs(
    expected: &BTreeMap<NodeId, Relation>,
    got: &BTreeMap<NodeId, Relation>,
) -> Result<(), String> {
    for (o, want) in expected {
        match got.get(o) {
            Some(r) if r == want => {}
            Some(r) => {
                return Err(format!(
                    "output {o} differs from the oracle: {} rows vs {} expected",
                    r.len(),
                    want.len()
                ))
            }
            None => return Err(format!("output {o} missing")),
        }
    }
    if got.len() != expected.len() {
        return Err(format!(
            "expected {} outputs, got {}",
            expected.len(),
            got.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_core::{execute_plan, WeaverConfig};
    use kw_gpu_sim::{Device, DeviceConfig};
    use kw_tpch::{Pattern, Workload};

    fn run(w: &Workload) -> BTreeMap<NodeId, Relation> {
        let mut dev = Device::new(DeviceConfig::fermi_c2050());
        execute_plan(&w.plan, &w.bindings(), &mut dev, &WeaverConfig::default())
            .expect("plan runs")
            .outputs
    }

    #[test]
    fn oracle_matches_executor_on_patterns_and_queries() {
        let db = kw_tpch::generate(0.5, 3);
        let mut workloads: Vec<Workload> =
            Pattern::all().iter().map(|p| p.build(3_000, 11)).collect();
        workloads.push(kw_tpch::q1_plan(db.clone()));
        workloads.push(kw_tpch::q3_plan(db.clone()));
        workloads.push(kw_tpch::q6_plan(db.clone()));
        workloads.push(kw_tpch::q21_plan(db));
        for w in &workloads {
            let eval = evaluate(&w.plan, &w.bindings(), &mut Tracer::new(false))
                .expect("oracle evaluates");
            check_outputs(&eval.outputs(&w.plan), &run(w))
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(
                eval.values.len(),
                w.plan.len(),
                "{}: one value per node",
                w.name
            );
        }
    }

    #[test]
    fn corrupted_output_fails_the_check() {
        let w = Pattern::A.build(2_000, 5);
        let eval =
            evaluate(&w.plan, &w.bindings(), &mut Tracer::new(false)).expect("oracle evaluates");
        let mut got = run(&w);
        check_outputs(&eval.outputs(&w.plan), &got).expect("clean run matches");

        let out = w.plan.outputs()[0];
        let rel = &got[&out];
        let mut words = rel.words().to_vec();
        words[0] ^= 1;
        let corrupted = Relation::from_words(rel.schema().clone(), words).expect("same schema");
        got.insert(out, corrupted);
        assert!(check_outputs(&eval.outputs(&w.plan), &got).is_err());

        got.remove(&out);
        assert!(check_outputs(&eval.outputs(&w.plan), &got).is_err());
    }
}
