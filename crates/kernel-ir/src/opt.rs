//! The kernel optimizer: the paper's "larger optimization scope" benefit.
//!
//! Fusing kernels enlarges the textual scope visible to the compiler; these
//! passes are the IR analogues of what `nvcc -O3` does across a fused body:
//!
//! * **predicate combining** — back-to-back filters become one filter (the
//!   common-computation elimination of Section 2.3);
//! * **common step elimination** — identical loads/steps are deduplicated
//!   (this is what makes input-dependence fusion, pattern (d), profitable);
//! * **constant folding** — arithmetic expressions are simplified;
//! * **dead code elimination** — steps whose results are never consumed
//!   disappear;
//! * **barrier simplification** — redundant synchronizations are dropped.
//!
//! At [`OptLevel::O0`] nothing runs, and (as with real `-O0` PTX) the
//! interpreter additionally spills register intermediates to local memory —
//! which lives in global DRAM — while resource estimation performs no
//! register reuse. That reproduces Figure 19's observation that fused
//! kernels benefit *more* from optimization than unfused ones.

use crate::{infer_schemas, validate, GpuOperator, InferredSchemas, OperatorBody, Result, Step};

/// Optimization level for code generation and execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// No optimization; register intermediates spill to local memory.
    O0,
    /// Full optimization (the default).
    #[default]
    O3,
}

/// Counters describing what the optimizer did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Filters merged by predicate combining.
    pub filters_combined: usize,
    /// Steps removed by common-step elimination.
    pub steps_deduplicated: usize,
    /// Steps removed as dead code.
    pub dead_steps_removed: usize,
    /// Compute expressions that shrank under constant folding.
    pub constants_folded: usize,
    /// Barriers removed.
    pub barriers_removed: usize,
}

impl PassStats {
    /// Total IR changes performed.
    pub fn total(&self) -> usize {
        self.filters_combined
            + self.steps_deduplicated
            + self.dead_steps_removed
            + self.constants_folded
            + self.barriers_removed
    }
}

/// Optimize `op` at `level`, returning the transformed operator and pass
/// statistics. At [`OptLevel::O0`] the operator is returned unchanged.
///
/// # Errors
///
/// Returns [`crate::IrError`] if the input (or, as an internal invariant,
/// the output) fails validation.
///
/// # Examples
///
/// ```
/// use kw_kernel_ir::{optimize, GpuOperator, OptLevel};
/// use kw_relational::Schema;
///
/// // Global operators pass through untouched; streaming bodies get the
/// // full pass pipeline (see the module docs for what each pass does).
/// let sort = GpuOperator::global_sort("s", Schema::uniform_u32(2), vec![1]);
/// let (optimized, stats) = optimize(&sort, OptLevel::O3)?;
/// assert_eq!(optimized, sort);
/// assert_eq!(stats.total(), 0);
/// # Ok::<(), kw_kernel_ir::IrError>(())
/// ```
pub fn optimize(op: &GpuOperator, level: OptLevel) -> Result<(GpuOperator, PassStats)> {
    if level == OptLevel::O0 || !op.body.is_streaming() {
        return Ok((op.clone(), PassStats::default()));
    }
    optimize_inferred(op.clone(), &validate(op)?, level)
}

/// [`optimize`] for an operator whose schemas are known: `inferred` must be
/// what [`validate`] returned for `op`, as the weaver keeps it. The input
/// is not validated again; the output still is.
///
/// # Errors
///
/// Returns [`crate::IrError`] if the output fails validation, an internal
/// invariant.
pub fn optimize_inferred(
    mut op: GpuOperator,
    inferred: &InferredSchemas,
    level: OptLevel,
) -> Result<(GpuOperator, PassStats)> {
    let mut stats = PassStats::default();
    if level == OptLevel::O0 || !op.body.is_streaming() {
        return Ok((op, stats));
    }

    stats.constants_folded += fold_inferred(&mut op, inferred);
    loop {
        let mut changed = 0;
        changed += combine_filters(&mut op);
        stats.filters_combined += changed;
        let dedup = eliminate_common_steps(&mut op);
        stats.steps_deduplicated += dedup;
        changed += dedup;
        if changed == 0 {
            break;
        }
    }
    stats.dead_steps_removed += eliminate_dead_steps(&mut op);
    stats.barriers_removed += simplify_barriers(&mut op);

    validate(&op)?;
    Ok((op, stats))
}

fn steps_mut(op: &mut GpuOperator) -> &mut Vec<Step> {
    match &mut op.body {
        OperatorBody::Streaming { steps, .. } => steps,
        _ => unreachable!("optimizer passes run on streaming bodies only"),
    }
}

/// Fold constant sub-expressions in every Compute step. Returns the number
/// of expressions that shrank.
///
/// # Errors
///
/// Returns [`crate::IrError`] if `op`'s schemas cannot be inferred.
pub fn fold_constants(op: &mut GpuOperator) -> Result<usize> {
    let inferred = infer_schemas(op)?;
    Ok(fold_inferred(op, &inferred))
}

/// [`fold_constants`] over `op`'s known schemas.
fn fold_inferred(op: &mut GpuOperator, inferred: &InferredSchemas) -> usize {
    let mut folded = 0;
    for step in steps_mut(op) {
        if let Step::Compute { src, exprs, .. } = step {
            if let Some(Some(schema)) = inferred.slots.get(src.0) {
                for e in exprs.iter_mut() {
                    let f = e.fold_constants(schema);
                    if f.alu_ops() < e.alu_ops() {
                        folded += 1;
                        *e = f;
                    }
                }
            }
        }
    }
    folded
}

fn use_counts(steps: &[Step], slot_count: usize) -> Vec<usize> {
    let mut counts = vec![0usize; slot_count];
    for s in steps {
        for src in s.sources() {
            counts[src.0] += 1;
        }
    }
    counts
}

fn slot_count(op: &GpuOperator) -> usize {
    op.slots().map(<[_]>::len).unwrap_or(0)
}

/// Merge `filter(filter(x, p1), p2)` into `filter(x, p1 && p2)` when the
/// intermediate has no other consumer. Returns merges performed.
#[allow(clippy::needless_range_loop)] // index-pair scan over a mutating vec
pub fn combine_filters(op: &mut GpuOperator) -> usize {
    let n_slots = slot_count(op);
    let mut merged = 0;
    loop {
        let steps = steps_mut(op);
        let counts = use_counts(steps, n_slots);
        let mut action: Option<(usize, usize)> = None;
        'outer: for j in 0..steps.len() {
            let Step::Filter { src: b, .. } = &steps[j] else {
                continue;
            };
            if counts[b.0] != 1 {
                continue;
            }
            for i in 0..j {
                if let Step::Filter { dst, .. } = &steps[i] {
                    if dst == b {
                        action = Some((i, j));
                        break 'outer;
                    }
                }
            }
        }
        let Some((i, j)) = action else { break };
        let Step::Filter {
            pred: p2, dst: c, ..
        } = steps[j].clone()
        else {
            unreachable!()
        };
        let Step::Filter {
            src: a, pred: p1, ..
        } = steps[i].clone()
        else {
            unreachable!()
        };
        steps[i] = Step::Filter {
            src: a,
            pred: p1.and(p2),
            dst: c,
        };
        steps.remove(j);
        merged += 1;
    }
    merged
}

/// Deduplicate identical steps (same sources and parameters) whose
/// destinations live in the same space. This removes the duplicate loads of
/// input-dependent fusion. Returns steps removed.
#[allow(clippy::needless_range_loop)] // index-pair scan over a mutating vec
pub fn eliminate_common_steps(op: &mut GpuOperator) -> usize {
    let spaces: Vec<crate::Space> = op
        .slots()
        .map(|s| s.iter().map(|d| d.space).collect())
        .unwrap_or_default();
    let mut removed = 0;
    loop {
        let steps = steps_mut(op);
        let mut action: Option<(usize, usize)> = None;
        'outer: for i in 0..steps.len() {
            let (Some(di), false) = (steps[i].dest(), matches!(steps[i], Step::Barrier)) else {
                continue;
            };
            for j in i + 1..steps.len() {
                let Some(dj) = steps[j].dest() else { continue };
                if di == dj {
                    continue;
                }
                if spaces[di.0] != spaces[dj.0] {
                    continue;
                }
                let mut a = steps[i].clone();
                let mut b = steps[j].clone();
                // Compare with destinations normalized.
                a.map_slots(|s| {
                    if s == di {
                        crate::SlotId(usize::MAX)
                    } else {
                        s
                    }
                });
                b.map_slots(|s| {
                    if s == dj {
                        crate::SlotId(usize::MAX)
                    } else {
                        s
                    }
                });
                if a == b {
                    action = Some(
                        (dj.0, di.0), // rewrite dj -> di
                    );
                    steps.remove(j);
                    removed += 1;
                    break 'outer;
                }
            }
        }
        match action {
            Some((from, to)) => {
                for s in steps_mut(op).iter_mut() {
                    s.map_slots(|x| if x.0 == from { crate::SlotId(to) } else { x });
                }
            }
            None => break,
        }
    }
    removed
}

/// Remove steps whose destination is never consumed. Returns steps removed.
pub fn eliminate_dead_steps(op: &mut GpuOperator) -> usize {
    let n_slots = slot_count(op);
    let mut removed = 0;
    loop {
        let steps = steps_mut(op);
        let counts = use_counts(steps, n_slots);
        let before = steps.len();
        steps.retain(|s| match s.dest() {
            Some(d) => counts[d.0] > 0,
            None => true,
        });
        let r = before - steps.len();
        removed += r;
        if r == 0 {
            break;
        }
    }
    removed
}

/// Drop redundant barriers: consecutive duplicates and barriers with no
/// preceding shared-slot definition. Returns barriers removed.
pub fn simplify_barriers(op: &mut GpuOperator) -> usize {
    let spaces: Vec<crate::Space> = op
        .slots()
        .map(|s| s.iter().map(|d| d.space).collect())
        .unwrap_or_default();
    let steps = steps_mut(op);
    let before = steps.len();
    let mut shared_def_pending = false;
    let mut keep = Vec::with_capacity(steps.len());
    for s in steps.drain(..) {
        match &s {
            Step::Barrier => {
                if shared_def_pending {
                    keep.push(s);
                    shared_def_pending = false;
                }
            }
            _ => {
                if let Some(d) = s.dest() {
                    if spaces.get(d.0) == Some(&crate::Space::Shared) {
                        shared_def_pending = true;
                    }
                }
                keep.push(s);
            }
        }
    }
    *steps = keep;
    before - steps.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PartitionSpec, SlotDecl, SlotId, Space};
    use kw_relational::{CmpOp, Expr, Predicate, Schema, Value};

    fn two_filter_op() -> GpuOperator {
        GpuOperator::streaming(
            "fused-selects",
            vec![Schema::uniform_u32(4)],
            1,
            vec![
                SlotDecl::new("in", Space::Register),
                SlotDecl::new("f1", Space::Register),
                SlotDecl::new("f2", Space::Register),
                SlotDecl::new("dense", Space::Shared),
            ],
            vec![
                Step::Load {
                    input: 0,
                    dst: SlotId(0),
                },
                Step::Filter {
                    src: SlotId(0),
                    pred: Predicate::cmp(0, CmpOp::Lt, Value::U32(100)),
                    dst: SlotId(1),
                },
                Step::Filter {
                    src: SlotId(1),
                    pred: Predicate::cmp(1, CmpOp::Gt, Value::U32(5)),
                    dst: SlotId(2),
                },
                Step::Compact {
                    src: SlotId(2),
                    dst: SlotId(3),
                },
                Step::Barrier,
                Step::Store {
                    src: SlotId(3),
                    output: 0,
                },
            ],
            PartitionSpec::Even,
        )
    }

    #[test]
    fn filters_combine_at_o3() {
        let (out, stats) = optimize(&two_filter_op(), OptLevel::O3).unwrap();
        assert_eq!(stats.filters_combined, 1);
        let filters = out
            .steps()
            .unwrap()
            .iter()
            .filter(|s| matches!(s, Step::Filter { .. }))
            .count();
        assert_eq!(filters, 1);
    }

    #[test]
    fn o0_changes_nothing() {
        let (out, stats) = optimize(&two_filter_op(), OptLevel::O0).unwrap();
        assert_eq!(stats.total(), 0);
        assert_eq!(out, two_filter_op());
    }

    #[test]
    fn duplicate_loads_eliminated() {
        // Input-dependence pattern (d): two selects over the same input.
        let op = GpuOperator::streaming(
            "pattern-d",
            vec![Schema::uniform_u32(4)],
            2,
            vec![
                SlotDecl::new("in_a", Space::Register),
                SlotDecl::new("in_b", Space::Register),
                SlotDecl::new("f1", Space::Register),
                SlotDecl::new("f2", Space::Register),
                SlotDecl::new("d1", Space::Shared),
                SlotDecl::new("d2", Space::Shared),
            ],
            vec![
                Step::Load {
                    input: 0,
                    dst: SlotId(0),
                },
                Step::Load {
                    input: 0,
                    dst: SlotId(1),
                },
                Step::Filter {
                    src: SlotId(0),
                    pred: Predicate::cmp(0, CmpOp::Lt, Value::U32(9)),
                    dst: SlotId(2),
                },
                Step::Filter {
                    src: SlotId(1),
                    pred: Predicate::cmp(1, CmpOp::Lt, Value::U32(9)),
                    dst: SlotId(3),
                },
                Step::Compact {
                    src: SlotId(2),
                    dst: SlotId(4),
                },
                Step::Compact {
                    src: SlotId(3),
                    dst: SlotId(5),
                },
                Step::Barrier,
                Step::Store {
                    src: SlotId(4),
                    output: 0,
                },
                Step::Store {
                    src: SlotId(5),
                    output: 1,
                },
            ],
            PartitionSpec::Even,
        );
        let (out, stats) = optimize(&op, OptLevel::O3).unwrap();
        assert_eq!(stats.steps_deduplicated, 1);
        let loads = out
            .steps()
            .unwrap()
            .iter()
            .filter(|s| matches!(s, Step::Load { .. }))
            .count();
        assert_eq!(loads, 1);
    }

    #[test]
    fn dead_steps_removed() {
        let mut op = two_filter_op();
        if let OperatorBody::Streaming { slots, steps, .. } = &mut op.body {
            slots.push(SlotDecl::new("dead", Space::Register));
            steps.insert(
                1,
                Step::Project {
                    src: SlotId(0),
                    attrs: vec![0],
                    key_arity: 1,
                    dst: SlotId(4),
                },
            );
        }
        let (out, stats) = optimize(&op, OptLevel::O3).unwrap();
        assert!(stats.dead_steps_removed >= 1);
        assert!(!out
            .steps()
            .unwrap()
            .iter()
            .any(|s| matches!(s, Step::Project { .. })));
    }

    #[test]
    fn constant_folding_counts() {
        let op = GpuOperator::streaming(
            "arith",
            vec![Schema::uniform_u32(2)],
            1,
            vec![
                SlotDecl::new("in", Space::Register),
                SlotDecl::new("c", Space::Register),
                SlotDecl::new("d", Space::Shared),
            ],
            vec![
                Step::Load {
                    input: 0,
                    dst: SlotId(0),
                },
                Step::Compute {
                    src: SlotId(0),
                    exprs: vec![
                        Expr::attr(0),
                        Expr::attr(1).mul(Expr::lit(2u32).add(Expr::lit(3u32))),
                    ],
                    key_arity: 1,
                    dst: SlotId(1),
                },
                Step::Compact {
                    src: SlotId(1),
                    dst: SlotId(2),
                },
                Step::Barrier,
                Step::Store {
                    src: SlotId(2),
                    output: 0,
                },
            ],
            PartitionSpec::Even,
        );
        let (_, stats) = optimize(&op, OptLevel::O3).unwrap();
        assert_eq!(stats.constants_folded, 1);
    }

    #[test]
    fn optimized_ir_stays_valid_and_equivalent_shape() {
        let (out, _) = optimize(&two_filter_op(), OptLevel::O3).unwrap();
        assert!(validate(&out).is_ok());
        // Output schema unchanged.
        let a = infer_schemas(&two_filter_op()).unwrap().outputs;
        let b = infer_schemas(&out).unwrap().outputs;
        assert_eq!(a, b);
    }
}
