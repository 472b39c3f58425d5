//! Plan compilation: from the RA dependence graph to an ordered list of
//! (possibly fused) GPU operators.
//!
//! This is the full Kernel Weaver pipeline of Figure 5: candidate discovery
//! (Algorithm 1) → greedy selection under resource budgets (Algorithm 2) →
//! weaving/code generation → classic compiler optimization over the fused
//! bodies. Algorithm 2 prices each set it tries from the set's layout
//! without weaving it, and code generation renders the layout of each set
//! it chooses: each fused set is woven, and its schemas inferred, once.

use kw_kernel_ir::{optimize, optimize_inferred, GpuOperator, OptLevel, DEFAULT_THREADS_PER_CTA};
use kw_primitives::build_unfused;

use crate::selection::select_in;
use crate::weave::Layout;
use crate::{
    find_candidates, ExecMode, FusionOptions, NodeId, PlanNode, QueryPlan, ResourceBudget, Result,
    WeaverError,
};

/// Configuration of the Kernel Weaver compiler and executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeaverConfig {
    /// Whether kernel fusion runs at all (off = the paper's baseline).
    pub fusion: bool,
    /// Compiler optimization level (the Figure 19 axis).
    pub opt: OptLevel,
    /// Resource budget for Algorithm 2.
    pub budget: ResourceBudget,
    /// Enable the shared-input fusion extension (pattern (d)).
    pub input_dependence: bool,
    /// Threads per CTA for every generated kernel.
    pub threads_per_cta: u32,
    /// Execution mode (GPU-resident vs PCIe-staged); for a chunked run,
    /// the mode each chunk executes in.
    pub mode: ExecMode,
    /// `Some(n)` streams the plan through the device in `n` double-buffered
    /// chunks under the plan's [`crate::ChunkStrategy`] (`Some(0)` runs one
    /// chunk; above [`crate::MAX_CHUNKS`] the run is rejected). `None` runs
    /// the whole plan at once.
    pub chunks: Option<usize>,
}

impl Default for WeaverConfig {
    fn default() -> Self {
        WeaverConfig {
            fusion: true,
            opt: OptLevel::O3,
            budget: ResourceBudget::default(),
            input_dependence: true,
            threads_per_cta: DEFAULT_THREADS_PER_CTA,
            mode: ExecMode::Resident,
            chunks: None,
        }
    }
}

impl WeaverConfig {
    /// The unfused baseline configuration at the same optimization level.
    pub fn baseline(self) -> WeaverConfig {
        WeaverConfig {
            fusion: false,
            ..self
        }
    }
}

/// One executable (possibly fused) operator of a compiled plan.
#[derive(Debug, Clone)]
pub struct CompiledStep {
    /// The operator to execute (already optimized).
    pub op: GpuOperator,
    /// Plan nodes bound to the operator inputs, in order (duplicates allowed
    /// for self-joins).
    pub inputs: Vec<NodeId>,
    /// Plan nodes the operator outputs correspond to, in order.
    pub outputs: Vec<NodeId>,
    /// Whether this step is a fusion of two or more plan operators.
    pub fused: bool,
}

/// A compiled plan: ordered operator steps plus the fusion decisions made.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    /// Steps in execution order.
    pub steps: Vec<CompiledStep>,
    /// The fusion sets chosen by Algorithm 2 (size >= 2 only).
    pub fusion_sets: Vec<Vec<NodeId>>,
}

impl CompiledPlan {
    /// Total kernels the plan will launch (3 per streaming operator,
    /// multi-pass for global operators) — the paper's "Q1 maps to 107
    /// kernels" metric is this count at fusion-off.
    pub fn operator_count(&self) -> usize {
        self.steps.len()
    }
}

/// Compile `plan` under `config`.
///
/// # Errors
///
/// Returns [`WeaverError`] for invalid plans or failed code generation.
///
/// # Examples
///
/// ```
/// use kw_core::{compile, QueryPlan, WeaverConfig};
/// use kw_primitives::RaOp;
/// use kw_relational::{Predicate, Schema};
///
/// let mut plan = QueryPlan::new();
/// let t = plan.add_input("t", Schema::uniform_u32(2));
/// let a = plan.add_op(RaOp::Select { pred: Predicate::True }, &[t])?;
/// let b = plan.add_op(RaOp::Select { pred: Predicate::True }, &[a])?;
/// plan.mark_output(b);
///
/// let fused = compile(&plan, &WeaverConfig::default())?;
/// assert_eq!(fused.steps.len(), 1); // both selects woven into one kernel
///
/// let baseline = compile(&plan, &WeaverConfig::default().baseline())?;
/// assert_eq!(baseline.steps.len(), 2);
/// # Ok::<(), kw_core::WeaverError>(())
/// ```
pub fn compile(plan: &QueryPlan, config: &WeaverConfig) -> Result<CompiledPlan> {
    plan.validate()?;

    // Fusion decisions, and a step per fused set: Algorithm 2 prices each
    // attempt from its layout, and each set of two or more nodes it chooses
    // is laid out once more, rendered and optimized here. One layout's
    // buffers serve every attempt and every set.
    let mut fusion_sets: Vec<Vec<NodeId>> = Vec::new();
    let mut steps: Vec<CompiledStep> = Vec::new();
    if config.fusion {
        let groups = find_candidates(
            plan,
            FusionOptions {
                input_dependence: config.input_dependence,
            },
        );
        let mut layout = Layout::new(plan);
        for group in groups {
            let sets = select_in(&mut layout, &group, config.budget, config.threads_per_cta);
            for set in sets.into_iter().filter(|set| set.len() >= 2) {
                layout.lay_out(&set)?;
                let woven = layout.render(config.threads_per_cta)?;
                let (op, _) = optimize_inferred(woven.op, &woven.schemas, config.opt)?;
                steps.push(CompiledStep {
                    op,
                    inputs: woven.external_inputs,
                    outputs: woven.stored_nodes,
                    fused: true,
                });
                fusion_sets.push(set);
            }
        }
    }
    let in_fused = |n: NodeId| fusion_sets.iter().any(|s| s.contains(&n));

    // A step per unfused node.
    for (id, op, producers) in plan.operator_nodes() {
        if in_fused(id) {
            continue;
        }
        let input_schemas: Vec<_> = producers.iter().map(|&p| plan.schema(p).clone()).collect();
        let gpu = build_unfused(op, &input_schemas, format!("{id}.{}", op.mnemonic()))?;
        let (gpu, _) = optimize(&gpu, config.opt)?;
        steps.push(CompiledStep {
            op: gpu,
            inputs: producers.to_vec(),
            outputs: vec![id],
            fused: false,
        });
    }

    // Topological ordering of steps: a step is ready once every input is a
    // plan input node or produced by an already-scheduled step.
    let mut ordered: Vec<CompiledStep> = Vec::new();
    let mut available: std::collections::BTreeSet<NodeId> = plan
        .node_ids()
        .filter(|&n| matches!(plan.node(n), PlanNode::Input { .. }))
        .collect();
    let mut pending = steps;
    while !pending.is_empty() {
        let idx = pending
            .iter()
            .position(|s| s.inputs.iter().all(|i| available.contains(i)))
            .ok_or_else(|| {
                WeaverError::plan("compiled steps contain a dependency cycle".to_string())
            })?;
        let step = pending.remove(idx);
        available.extend(step.outputs.iter().copied());
        ordered.push(step);
    }

    Ok(CompiledPlan {
        steps: ordered,
        fusion_sets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_primitives::RaOp;
    use kw_relational::{CmpOp, Expr, Predicate, Schema, Value};

    fn sel(attr: usize) -> RaOp {
        RaOp::Select {
            pred: Predicate::cmp(attr, CmpOp::Lt, Value::U32(5)),
        }
    }

    #[test]
    fn fusion_reduces_step_count() {
        let mut p = QueryPlan::new();
        let t = p.add_input("t", Schema::uniform_u32(4));
        let a = p.add_op(sel(0), &[t]).unwrap();
        let b = p.add_op(sel(1), &[a]).unwrap();
        let c = p.add_op(sel(2), &[b]).unwrap();
        p.mark_output(c);

        let fused = compile(&p, &WeaverConfig::default()).unwrap();
        assert_eq!(fused.steps.len(), 1);
        assert!(fused.steps[0].fused);
        assert_eq!(fused.fusion_sets, vec![vec![a, b, c]]);

        let base = compile(&p, &WeaverConfig::default().baseline()).unwrap();
        assert_eq!(base.steps.len(), 3);
        assert!(base.fusion_sets.is_empty());
    }

    fn weaves() -> usize {
        crate::weave::WEAVES.with(std::cell::Cell::get)
    }

    #[test]
    fn each_fused_set_is_woven_once() {
        // Algorithm 2 prices {a, b}, {a, b, c} and {a, b, c, d} from their
        // layouts, and code generation renders the last of them.
        let mut p = QueryPlan::new();
        let t = p.add_input("t", Schema::uniform_u32(4));
        let mut chain = vec![t];
        for attr in 0..4 {
            chain.push(p.add_op(sel(attr), &chain[attr..=attr]).unwrap());
        }
        p.mark_output(chain[4]);

        let before = weaves();
        let c = compile(&p, &WeaverConfig::default()).unwrap();
        assert_eq!(c.fusion_sets, vec![chain[1..].to_vec()]);
        assert_eq!(weaves() - before, 1);
    }

    #[test]
    fn a_chain_split_by_the_budget_is_woven_once_per_set() {
        // t -> a (widen to 16 attributes) -> b (project back to 4) -> c
        // (a filter of nine ALU operations) -> d. The registers of a
        // kernel are its largest live set plus its largest step scratch:
        // {a, b} holds 20 live words, {c, d} needs 10 scratch registers,
        // and {a, b, c} needs both, so a budget between them splits the
        // chain in two fused sets.
        let mut p = QueryPlan::new();
        let t = p.add_input("t", Schema::uniform_u32(4));
        let widen = RaOp::Map {
            exprs: (0..16).map(|i| Expr::attr(i % 4)).collect(),
            key_arity: 1,
        };
        let a = p.add_op(widen, &[t]).unwrap();
        let narrow = RaOp::Project {
            attrs: vec![0, 1, 2, 3],
            key_arity: 1,
        };
        let b = p.add_op(narrow, &[a]).unwrap();
        let pred = (1..5).fold(Predicate::cmp(0, CmpOp::Lt, Value::U32(5)), |acc, i| {
            acc.and(Predicate::cmp(i % 4, CmpOp::Lt, Value::U32(5)))
        });
        let c = p.add_op(RaOp::Select { pred }, &[b]).unwrap();
        let d = p.add_op(sel(1), &[c]).unwrap();
        p.mark_output(d);

        let price = |set: &[NodeId]| {
            crate::fused_resources(&p, set, DEFAULT_THREADS_PER_CTA)
                .unwrap()
                .registers_per_thread
        };
        let (ab, abc, cd) = (price(&[a, b]), price(&[a, b, c]), price(&[c, d]));
        assert!(ab.max(cd) < abc, "{ab} {cd} {abc}");
        let config = WeaverConfig {
            budget: ResourceBudget {
                max_registers_per_thread: ab.max(cd),
                ..ResourceBudget::default()
            },
            ..WeaverConfig::default()
        };
        let before = weaves();
        let compiled = compile(&p, &config).unwrap();
        assert_eq!(compiled.fusion_sets, vec![vec![a, b], vec![c, d]]);
        assert_eq!(weaves() - before, 2);
    }

    #[test]
    fn sort_stays_standalone() {
        let mut p = QueryPlan::new();
        let t = p.add_input("t", Schema::uniform_u32(4));
        let a = p.add_op(sel(0), &[t]).unwrap();
        let s = p.add_op(RaOp::Sort { attrs: vec![1] }, &[a]).unwrap();
        let b = p.add_op(sel(0), &[s]).unwrap();
        p.mark_output(b);

        let c = compile(&p, &WeaverConfig::default()).unwrap();
        // Nothing fuses (two singleton groups around the sort).
        assert_eq!(c.steps.len(), 3);
        // Execution order respects the sort in the middle.
        let labels: Vec<&str> = c.steps.iter().map(|s| s.op.label.as_str()).collect();
        assert!(labels[1].contains("sort"), "{labels:?}");
    }

    #[test]
    fn steps_are_topologically_ordered() {
        let mut p = QueryPlan::new();
        let x = p.add_input("x", Schema::uniform_u32(2));
        let y = p.add_input("y", Schema::uniform_u32(2));
        let sx = p.add_op(sel(0), &[x]).unwrap();
        let sy = p.add_op(sel(1), &[y]).unwrap();
        let j = p.add_op(RaOp::Join { key_len: 1 }, &[sx, sy]).unwrap();
        p.mark_output(j);

        let c = compile(&p, &WeaverConfig::default()).unwrap();
        // Everything fuses into one step here.
        assert_eq!(c.steps.len(), 1);

        let base = compile(&p, &WeaverConfig::default().baseline()).unwrap();
        assert_eq!(base.steps.len(), 3);
        let j_pos = base
            .steps
            .iter()
            .position(|s| s.outputs.contains(&j))
            .unwrap();
        assert_eq!(j_pos, 2, "join must run last");
    }
}
