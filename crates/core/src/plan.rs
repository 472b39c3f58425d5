//! Query plan graphs: the RA dependence graph of Figure 9.
//!
//! A [`QueryPlan`] is a DAG whose nodes are either named base-relation
//! inputs or [`RaOp`] operators; edges are producer→consumer dependences.
//! The language front-end (`kw-datalog`) produces these graphs and Kernel
//! Weaver compiles them.

use kw_primitives::RaOp;
use kw_relational::Schema;

use crate::{Result, WeaverError};

/// Identifier of a plan node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One node of a query plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// A named base relation supplied at execution time.
    Input {
        /// Binding name (e.g. `lineitem`).
        name: String,
        /// Schema the bound relation must have.
        schema: Schema,
    },
    /// An operator over earlier nodes.
    Operator {
        /// The RA operator.
        op: RaOp,
        /// Producer nodes, in input order.
        inputs: Vec<NodeId>,
    },
}

/// A query plan DAG.
///
/// # Examples
///
/// ```
/// use kw_core::QueryPlan;
/// use kw_primitives::RaOp;
/// use kw_relational::{CmpOp, Predicate, Schema, Value};
///
/// let mut plan = QueryPlan::new();
/// let t = plan.add_input("t", Schema::uniform_u32(4));
/// let s1 = plan.add_op(
///     RaOp::Select { pred: Predicate::cmp(0, CmpOp::Lt, Value::U32(100)) },
///     &[t],
/// )?;
/// let s2 = plan.add_op(
///     RaOp::Select { pred: Predicate::cmp(1, CmpOp::Lt, Value::U32(100)) },
///     &[s1],
/// )?;
/// plan.mark_output(s2);
/// assert_eq!(plan.operator_nodes().count(), 2);
/// # Ok::<(), kw_core::WeaverError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryPlan {
    nodes: Vec<PlanNode>,
    schemas: Vec<Schema>,
    /// Every node's consumers back to back, each node's ascending and each
    /// consumer once: node `i`'s end at `consumer_ends[i]` and start where
    /// node `i - 1`'s end. One list for the plan, not one per node.
    consumers: Vec<NodeId>,
    consumer_ends: Vec<usize>,
    outputs: Vec<NodeId>,
}

impl QueryPlan {
    /// Create an empty plan.
    pub fn new() -> QueryPlan {
        QueryPlan::default()
    }

    /// Add a named base-relation input.
    pub fn add_input(&mut self, name: impl Into<String>, schema: Schema) -> NodeId {
        self.nodes.push(PlanNode::Input {
            name: name.into(),
            schema: schema.clone(),
        });
        self.schemas.push(schema);
        self.consumer_ends.push(self.consumers.len());
        NodeId(self.nodes.len() - 1)
    }

    /// Add an operator node consuming `inputs`.
    ///
    /// # Errors
    ///
    /// Returns [`WeaverError::Plan`] for bad node references and
    /// [`WeaverError::Relational`] when the operator does not type-check
    /// against its input schemas.
    pub fn add_op(&mut self, op: RaOp, inputs: &[NodeId]) -> Result<NodeId> {
        for &i in inputs {
            if i.0 >= self.nodes.len() {
                return Err(WeaverError::plan(format!("operator references {i}")));
            }
        }
        let in_schemas: Vec<&Schema> = inputs.iter().map(|&i| &self.schemas[i.0]).collect();
        let out = op.output_schema(&in_schemas)?;
        let id = NodeId(self.nodes.len());
        for (k, &i) in inputs.iter().enumerate() {
            if inputs[..k].contains(&i) {
                continue;
            }
            // `id` is the highest consumer yet, so it ends `i`'s list.
            self.consumers.insert(self.consumer_ends[i.0], id);
            for end in &mut self.consumer_ends[i.0..] {
                *end += 1;
            }
        }
        self.nodes.push(PlanNode::Operator {
            op,
            inputs: inputs.to_vec(),
        });
        self.schemas.push(out);
        self.consumer_ends.push(self.consumers.len());
        Ok(id)
    }

    /// Mark a node as a plan output (its relation is returned to the host).
    pub fn mark_output(&mut self, node: NodeId) {
        if !self.outputs.contains(&node) {
            self.outputs.push(node);
        }
    }

    /// The plan output nodes.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the plan has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &PlanNode {
        &self.nodes[id.0]
    }

    /// The schema of node `id`'s result.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn schema(&self, id: NodeId) -> &Schema {
        &self.schemas[id.0]
    }

    /// Iterate over all node ids in insertion (topological) order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Iterate over operator nodes as `(id, op, inputs)`.
    pub fn operator_nodes(&self) -> impl Iterator<Item = (NodeId, &RaOp, &[NodeId])> {
        self.nodes.iter().enumerate().filter_map(|(i, n)| match n {
            PlanNode::Operator { op, inputs } => Some((NodeId(i), op, inputs.as_slice())),
            PlanNode::Input { .. } => None,
        })
    }

    /// The producer nodes of `id` (empty for inputs).
    pub fn producers(&self, id: NodeId) -> &[NodeId] {
        match &self.nodes[id.0] {
            PlanNode::Input { .. } => &[],
            PlanNode::Operator { inputs, .. } => inputs,
        }
    }

    /// The consumer nodes of `id`, ascending, each once (a node that
    /// consumes `id` twice, as a self-join does, is listed once).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn consumers(&self, id: NodeId) -> &[NodeId] {
        let start = id.0.checked_sub(1).map_or(0, |i| self.consumer_ends[i]);
        &self.consumers[start..self.consumer_ends[id.0]]
    }

    /// Whether node `id`'s result leaves the plan (is a marked output).
    pub fn is_output(&self, id: NodeId) -> bool {
        self.outputs.contains(&id)
    }

    /// Validate plan-level invariants: every output exists, every operator's
    /// producers precede it (acyclicity is structural: nodes only reference
    /// earlier nodes), and at least one output is marked.
    ///
    /// # Errors
    ///
    /// Returns [`WeaverError::Plan`] describing the violation.
    pub fn validate(&self) -> Result<()> {
        if self.outputs.is_empty() {
            return Err(WeaverError::plan("plan has no marked outputs"));
        }
        for &o in &self.outputs {
            if o.0 >= self.nodes.len() {
                return Err(WeaverError::plan(format!("output {o} does not exist")));
            }
        }
        for id in self.node_ids() {
            for &p in self.producers(id) {
                if p.0 >= id.0 {
                    return Err(WeaverError::plan(format!(
                        "node {id} consumes later node {p}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Render the plan for diagnostics.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for id in self.node_ids() {
            match self.node(id) {
                PlanNode::Input { name, schema } => {
                    let _ = writeln!(s, "{id}: input {name} {schema}");
                }
                PlanNode::Operator { op, inputs } => {
                    let _ = write!(s, "{id}: {op} <-");
                    for i in inputs {
                        let _ = write!(s, " {i}");
                    }
                    let out = if self.is_output(id) { "  [output]" } else { "" };
                    let _ = writeln!(s, "{out}");
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_relational::{CmpOp, Predicate, Value};

    fn select(threshold: u32) -> RaOp {
        RaOp::Select {
            pred: Predicate::cmp(0, CmpOp::Lt, Value::U32(threshold)),
        }
    }

    #[test]
    fn build_and_introspect() {
        let mut p = QueryPlan::new();
        let a = p.add_input("a", Schema::uniform_u32(2));
        let b = p.add_input("b", Schema::uniform_u32(2));
        let j = p.add_op(RaOp::Join { key_len: 1 }, &[a, b]).unwrap();
        let s = p.add_op(select(5), &[j]).unwrap();
        p.mark_output(s);

        assert_eq!(p.schema(j).arity(), 3);
        assert_eq!(p.consumers(j), [s]);
        assert_eq!(p.producers(j), &[a, b]);
        assert!(p.validate().is_ok());
        assert!(p.describe().contains("JOIN"));
    }

    #[test]
    fn consumers_are_listed_once_in_node_order() {
        let mut p = QueryPlan::new();
        let a = p.add_input("a", Schema::uniform_u32(2));
        let b = p.add_input("b", Schema::uniform_u32(2));
        let self_join = p.add_op(RaOp::Join { key_len: 1 }, &[a, a]).unwrap();
        let s = p.add_op(select(5), &[a]).unwrap();
        let u = p.add_op(RaOp::Union, &[s, s]).unwrap();
        let j = p.add_op(RaOp::Join { key_len: 1 }, &[b, a]).unwrap();
        assert_eq!(p.consumers(a), [self_join, s, j]);
        assert_eq!(p.consumers(b), [j]);
        assert_eq!(p.consumers(s), [u]);
        assert!(p.consumers(u).is_empty());
        // The index lists what a scan of every node's producers finds.
        for id in p.node_ids() {
            let scanned: Vec<NodeId> = p
                .node_ids()
                .filter(|&c| p.producers(c).contains(&id))
                .collect();
            assert_eq!(p.consumers(id), scanned, "{id}");
        }
    }

    #[test]
    fn type_errors_rejected() {
        let mut p = QueryPlan::new();
        let a = p.add_input("a", Schema::uniform_u32(2));
        let b = p.add_input("b", Schema::uniform_u32(3));
        assert!(p.add_op(RaOp::Union, &[a, b]).is_err());
    }

    #[test]
    fn missing_output_detected() {
        let mut p = QueryPlan::new();
        let a = p.add_input("a", Schema::uniform_u32(2));
        let _ = p.add_op(select(1), &[a]).unwrap();
        assert!(p.validate().is_err());
    }

    #[test]
    fn bad_node_reference_rejected() {
        let mut p = QueryPlan::new();
        assert!(p.add_op(select(1), &[NodeId(7)]).is_err());
    }

    #[test]
    fn mark_output_is_idempotent() {
        let mut p = QueryPlan::new();
        let a = p.add_input("a", Schema::uniform_u32(2));
        let s = p.add_op(select(1), &[a]).unwrap();
        p.mark_output(s);
        p.mark_output(s);
        assert_eq!(p.outputs().len(), 1);
    }
}
