//! The RA primitives library: canonical multi-stage skeletons.
//!
//! [`build_unfused`] instantiates the library implementation of a single
//! operator — the baseline the paper compares kernel fusion against ("the
//! implementation from the primitive library without fusion"). Each skeleton
//! follows Diamos et al.'s partition / compute / gather structure from
//! Section 3, e.g. SELECT = filter + stream compaction (Figure 7).
//!
//! [`op_step`] emits the single compute step an operator contributes to a
//! fused body; the weaver (in `kw-core`) surrounds it with loads, compacts,
//! barriers and stores according to the dependence classes involved.

use kw_kernel_ir::{GpuOperator, PartitionSpec, SlotDecl, SlotId, Space, Step, StepKind};
use kw_relational::Schema;

use crate::{IrBuildError, RaOp};

/// Emit the compute step for `op` reading `srcs` and defining `dst`.
///
/// # Errors
///
/// Returns [`IrBuildError`] if `op` is kernel-dependent (SORT/AGGREGATE have
/// no streaming step) or the source count is wrong.
pub fn op_step(op: &RaOp, srcs: &[SlotId], dst: SlotId) -> Result<Step, IrBuildError> {
    if srcs.len() != op.arity() {
        return Err(IrBuildError::new(format!(
            "{} takes {} sources, got {}",
            op.mnemonic(),
            op.arity(),
            srcs.len()
        )));
    }
    Ok(match op {
        RaOp::Select { pred } => Step::Filter {
            src: srcs[0],
            pred: pred.clone(),
            dst,
        },
        RaOp::Project { attrs, key_arity } => Step::Project {
            src: srcs[0],
            attrs: attrs.clone(),
            key_arity: *key_arity,
            dst,
        },
        RaOp::Map { exprs, key_arity } => Step::Compute {
            src: srcs[0],
            exprs: exprs.clone(),
            key_arity: *key_arity,
            dst,
        },
        RaOp::Join { key_len } => Step::Join {
            left: srcs[0],
            right: srcs[1],
            key_len: *key_len,
            dst,
        },
        RaOp::Product => Step::Product {
            left: srcs[0],
            right: srcs[1],
            dst,
        },
        RaOp::SemiJoin { key_len } => Step::SemiJoin {
            left: srcs[0],
            right: srcs[1],
            key_len: *key_len,
            negated: false,
            dst,
        },
        RaOp::AntiJoin { key_len } => Step::SemiJoin {
            left: srcs[0],
            right: srcs[1],
            key_len: *key_len,
            negated: true,
            dst,
        },
        RaOp::Union => Step::SetOp {
            kind: kw_kernel_ir::SetOpKind::Union,
            left: srcs[0],
            right: srcs[1],
            dst,
        },
        RaOp::Intersect => Step::SetOp {
            kind: kw_kernel_ir::SetOpKind::Intersect,
            left: srcs[0],
            right: srcs[1],
            dst,
        },
        RaOp::Difference => Step::SetOp {
            kind: kw_kernel_ir::SetOpKind::Difference,
            left: srcs[0],
            right: srcs[1],
            dst,
        },
        RaOp::Unique => Step::Unique { src: srcs[0], dst },
        RaOp::Sort { .. } | RaOp::Aggregate { .. } => {
            return Err(IrBuildError::new(format!(
                "{} is kernel-dependent and has no streaming step",
                op.mnemonic()
            )))
        }
    })
}

/// What the step [`op_step`] emits for `op` computes, without emitting it
/// (so without cloning its predicate or expressions); `None` for the
/// kernel-dependent SORT and AGGREGATE, which have no streaming step.
pub fn op_step_kind(op: &RaOp) -> Option<StepKind<'_>> {
    Some(match op {
        RaOp::Select { pred } => StepKind::Filter(pred),
        RaOp::Project { .. } => StepKind::Project,
        RaOp::Map { exprs, .. } => StepKind::Compute(exprs),
        RaOp::Join { .. } => StepKind::Join,
        RaOp::Product => StepKind::Product,
        RaOp::SemiJoin { .. } | RaOp::AntiJoin { .. } => StepKind::SemiJoin,
        RaOp::Union | RaOp::Intersect | RaOp::Difference => StepKind::SetOp,
        RaOp::Unique => StepKind::Unique,
        RaOp::Sort { .. } | RaOp::Aggregate { .. } => return None,
    })
}

/// The partition policy of the unfused skeleton for `op`.
pub fn partition_spec(op: &RaOp, inputs: &[Schema]) -> PartitionSpec {
    match op {
        RaOp::Select { .. } | RaOp::Project { .. } | RaOp::Map { .. } => PartitionSpec::Even,
        RaOp::Product => PartitionSpec::ReplicateRight,
        RaOp::Join { key_len } | RaOp::SemiJoin { key_len } | RaOp::AntiJoin { key_len } => {
            PartitionSpec::KeyRange {
                pivot: 0,
                key_len: *key_len,
            }
        }
        RaOp::Union | RaOp::Intersect | RaOp::Difference | RaOp::Unique => {
            PartitionSpec::KeyRange {
                pivot: 0,
                key_len: inputs.first().map_or(1, |s| s.key_arity().max(1)),
            }
        }
        RaOp::Sort { .. } | RaOp::Aggregate { .. } => PartitionSpec::Even,
    }
}

/// Build the unfused primitive-library implementation of `op`.
///
/// # Errors
///
/// Returns [`IrBuildError`] for schema-incompatible inputs.
///
/// # Examples
///
/// ```
/// use kw_primitives::{build_unfused, RaOp};
/// use kw_relational::{CmpOp, Predicate, Schema, Value};
///
/// let op = RaOp::Select { pred: Predicate::cmp(0, CmpOp::Lt, Value::U32(10)) };
/// let gpu = build_unfused(&op, &[Schema::uniform_u32(4)], "q.select0")?;
/// assert_eq!(gpu.output_count(), 1);
/// # Ok::<(), kw_primitives::IrBuildError>(())
/// ```
pub fn build_unfused(
    op: &RaOp,
    inputs: &[Schema],
    label: impl Into<String>,
) -> Result<GpuOperator, IrBuildError> {
    let label = label.into();
    let input_refs: Vec<&Schema> = inputs.iter().collect();
    op.output_schema(&input_refs)
        .map_err(|e| IrBuildError::new(format!("{label}: {e}")))?;

    match op {
        RaOp::Sort { attrs } => {
            return Ok(GpuOperator::global_sort(
                label,
                inputs[0].clone(),
                attrs.clone(),
            ));
        }
        RaOp::Aggregate { group_by, aggs } => {
            return Ok(GpuOperator::global_aggregate(
                label,
                inputs[0].clone(),
                group_by.clone(),
                aggs.clone(),
            ));
        }
        _ => {}
    }

    let partition = partition_spec(op, inputs);
    let mut slots = Vec::new();
    let mut steps = Vec::new();

    match op {
        RaOp::Select { .. } => {
            slots.push(SlotDecl::new("in", Space::Register));
            slots.push(SlotDecl::new("matched", Space::Register));
            slots.push(SlotDecl::new("dense", Space::Shared));
            steps.push(Step::Load {
                input: 0,
                dst: SlotId(0),
            });
            steps.push(op_step(op, &[SlotId(0)], SlotId(1))?);
            steps.push(Step::Compact {
                src: SlotId(1),
                dst: SlotId(2),
            });
            steps.push(Step::Barrier);
            steps.push(Step::Store {
                src: SlotId(2),
                output: 0,
            });
        }
        RaOp::Project { .. } | RaOp::Map { .. } => {
            // Dense elementwise transforms store straight from registers.
            slots.push(SlotDecl::new("in", Space::Register));
            slots.push(SlotDecl::new("out", Space::Register));
            steps.push(Step::Load {
                input: 0,
                dst: SlotId(0),
            });
            steps.push(op_step(op, &[SlotId(0)], SlotId(1))?);
            steps.push(Step::Store {
                src: SlotId(1),
                output: 0,
            });
        }
        RaOp::Join { .. }
        | RaOp::Product
        | RaOp::SemiJoin { .. }
        | RaOp::AntiJoin { .. }
        | RaOp::Union
        | RaOp::Intersect
        | RaOp::Difference => {
            slots.push(SlotDecl::new("left", Space::Shared));
            slots.push(SlotDecl::new("right", Space::Shared));
            slots.push(SlotDecl::new("out", Space::Shared));
            steps.push(Step::Load {
                input: 0,
                dst: SlotId(0),
            });
            steps.push(Step::Load {
                input: 1,
                dst: SlotId(1),
            });
            steps.push(Step::Barrier);
            steps.push(op_step(op, &[SlotId(0), SlotId(1)], SlotId(2))?);
            steps.push(Step::Barrier);
            steps.push(Step::Store {
                src: SlotId(2),
                output: 0,
            });
        }
        RaOp::Unique => {
            slots.push(SlotDecl::new("in", Space::Shared));
            slots.push(SlotDecl::new("out", Space::Shared));
            steps.push(Step::Load {
                input: 0,
                dst: SlotId(0),
            });
            steps.push(Step::Barrier);
            steps.push(op_step(op, &[SlotId(0)], SlotId(1))?);
            steps.push(Step::Barrier);
            steps.push(Step::Store {
                src: SlotId(1),
                output: 0,
            });
        }
        RaOp::Sort { .. } | RaOp::Aggregate { .. } => unreachable!("handled above"),
    }

    Ok(GpuOperator::streaming(
        label,
        inputs.to_vec(),
        1,
        slots,
        steps,
        partition,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_gpu_sim::{Device, DeviceConfig};
    use kw_kernel_ir::{execute, validate, OptLevel};
    use kw_relational::ops::AggFn;
    use kw_relational::{gen, ops, CmpOp, Predicate, Value};

    fn device() -> Device {
        Device::new(DeviceConfig::fermi_c2050())
    }

    #[test]
    fn all_unfused_skeletons_validate() {
        let s4 = Schema::uniform_u32(4);
        let ops: Vec<(RaOp, Vec<Schema>)> = vec![
            (
                RaOp::Select {
                    pred: Predicate::cmp(0, CmpOp::Lt, Value::U32(10)),
                },
                vec![s4.clone()],
            ),
            (
                RaOp::Project {
                    attrs: vec![0, 1],
                    key_arity: 1,
                },
                vec![s4.clone()],
            ),
            (
                RaOp::Map {
                    exprs: vec![kw_relational::Expr::attr(0)],
                    key_arity: 1,
                },
                vec![s4.clone()],
            ),
            (RaOp::Join { key_len: 1 }, vec![s4.clone(), s4.clone()]),
            (RaOp::SemiJoin { key_len: 1 }, vec![s4.clone(), s4.clone()]),
            (RaOp::AntiJoin { key_len: 1 }, vec![s4.clone(), s4.clone()]),
            (RaOp::Product, vec![s4.clone(), s4.clone()]),
            (RaOp::Union, vec![s4.clone(), s4.clone()]),
            (RaOp::Intersect, vec![s4.clone(), s4.clone()]),
            (RaOp::Difference, vec![s4.clone(), s4.clone()]),
            (RaOp::Unique, vec![s4.clone()]),
            (RaOp::Sort { attrs: vec![1] }, vec![s4.clone()]),
            (
                RaOp::Aggregate {
                    group_by: vec![0],
                    aggs: vec![AggFn::Count],
                },
                vec![s4.clone()],
            ),
        ];
        for (op, inputs) in ops {
            let gpu = build_unfused(&op, &inputs, op.mnemonic()).unwrap();
            validate(&gpu).unwrap_or_else(|e| panic!("{}: {e}", op.mnemonic()));
            // The kind `op_step_kind` names is that of the step `op_step` emits.
            let srcs = [SlotId(0), SlotId(1)];
            let step = op_step(&op, &srcs[..op.arity()], SlotId(2)).ok();
            assert_eq!(
                op_step_kind(&op),
                step.as_ref().map(Step::kind),
                "{}",
                op.mnemonic()
            );
        }
    }

    #[test]
    fn every_streaming_primitive_matches_oracle() {
        let a = gen::micro_input(3000, 1);
        let b = gen::micro_input(300, 2);
        let cases: Vec<(RaOp, Vec<&kw_relational::Relation>)> = vec![
            (
                RaOp::Select {
                    pred: Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 3)),
                },
                vec![&a],
            ),
            (
                RaOp::Project {
                    attrs: vec![0, 2],
                    key_arity: 1,
                },
                vec![&a],
            ),
            (RaOp::Join { key_len: 1 }, vec![&a, &b]),
            (RaOp::Product, vec![&b, &b]),
            (RaOp::Union, vec![&a, &b]),
            (RaOp::Intersect, vec![&a, &a]),
            (RaOp::Difference, vec![&a, &b]),
            (RaOp::Unique, vec![&a]),
        ];
        for (op, inputs) in cases {
            let schemas: Vec<Schema> = inputs.iter().map(|r| r.schema().clone()).collect();
            let gpu = build_unfused(&op, &schemas, op.mnemonic()).unwrap();
            let mut dev = device();
            let got = execute(&gpu, &inputs, &mut dev, OptLevel::O3)
                .unwrap_or_else(|e| panic!("{}: {e}", op.mnemonic()));
            let want = match &op {
                RaOp::Select { pred } => ops::select(inputs[0], pred).unwrap(),
                RaOp::Project { attrs, key_arity } => {
                    ops::project(inputs[0], attrs, *key_arity).unwrap()
                }
                RaOp::Join { key_len } => ops::join(inputs[0], inputs[1], *key_len).unwrap(),
                RaOp::Product => ops::product(inputs[0], inputs[1]).unwrap(),
                RaOp::Union => ops::union(inputs[0], inputs[1]).unwrap(),
                RaOp::Intersect => ops::intersect(inputs[0], inputs[1]).unwrap(),
                RaOp::Difference => ops::difference(inputs[0], inputs[1]).unwrap(),
                RaOp::Unique => ops::unique(inputs[0]).unwrap(),
                _ => unreachable!(),
            };
            assert_eq!(got.outputs[0], want, "{} mismatch", op.mnemonic());
        }
    }

    #[test]
    fn kernel_dependent_ops_have_no_step() {
        assert!(op_step(&RaOp::Sort { attrs: vec![0] }, &[SlotId(0)], SlotId(1)).is_err());
        let err = op_step(&RaOp::Join { key_len: 1 }, &[SlotId(0)], SlotId(1)).unwrap_err();
        assert!(err.to_string().contains("sources"));
    }

    #[test]
    fn bad_schema_rejected_at_build() {
        let op = RaOp::Select {
            pred: Predicate::cmp(9, CmpOp::Lt, Value::U32(1)),
        };
        assert!(build_unfused(&op, &[Schema::uniform_u32(2)], "x").is_err());
    }
}
