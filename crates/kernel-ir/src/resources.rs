//! Register and shared-memory usage estimation.
//!
//! Mirrors the paper's Section 4.3.3: intermediate data of thread-dependent
//! fusion occupies registers (width = tuple word count), CTA-dependent
//! fusion occupies shared memory (a tile of `threads_per_CTA` tuples plus a
//! size counter), and stage-internal temporaries can reuse registers — so a
//! fused operator's register demand is the *maximum* live set plus the
//! largest per-stage working set, not the sum.
//!
//! At `-O0` the compiler performs no liveness-based reuse (every slot holds
//! its registers for the whole kernel), which is how fusion's larger bodies
//! lose occupancy without optimization (Figure 19's counterpoint).

use std::ops::{AddAssign, SubAssign};

use kw_gpu_sim::KernelResources;
use kw_relational::{AttrType, Schema};

use crate::{GpuOperator, InferredSchemas, IrError, OperatorBody, OptLevel, Result, Space, Step};

/// Base per-thread registers any kernel consumes (indices, bounds, loop
/// counters).
pub const BASE_REGISTERS: u32 = 10;
/// Bookkeeping bytes per shared slot (size counter + alignment).
pub const SHARED_SLOT_OVERHEAD: u32 = 64;

/// Registers needed to hold one tuple of `schema` in a thread.
pub fn tuple_registers(schema: &Schema) -> u32 {
    schema
        .attrs()
        .iter()
        .map(|a| match a {
            AttrType::U64 => 2,
            _ => 1,
        })
        .sum()
}

/// Transient (stage-internal) registers of one step.
fn step_scratch(step: &Step) -> u32 {
    match step {
        Step::Load { .. } => 2,
        Step::Filter { pred, .. } => 2 + (pred.alu_ops() as u32).min(8),
        Step::Project { .. } => 2,
        Step::Compute { exprs, .. } => {
            2 + exprs
                .iter()
                .map(|e| (e.alu_ops() as u32).min(8))
                .max()
                .unwrap_or(0)
        }
        Step::Join { .. } => 24,
        Step::Product { .. } => 12,
        Step::SemiJoin { .. } => 14,
        Step::SetOp { .. } => 12,
        Step::Unique { .. } => 6,
        Step::Compact { .. } => 4,
        Step::Barrier => 0,
        Step::Store { .. } => 2,
    }
}

/// A slot's demand on the two budgets Algorithm 2 enforces.
#[derive(Debug, Clone, Copy, Default)]
struct Demand {
    shared: u64,
    registers: u32,
}

impl AddAssign for Demand {
    fn add_assign(&mut self, other: Demand) {
        self.shared += other.shared;
        self.registers += other.registers;
    }
}

impl SubAssign for Demand {
    fn sub_assign(&mut self, other: Demand) {
        self.shared -= other.shared;
        self.registers -= other.registers;
    }
}

/// Estimate the kernel resources of `op`.
///
/// One pass over the steps finds each slot's live range, from the first
/// step that defines it to the last that reads it, and the largest
/// per-step scratch; each used slot's demand is computed once; and at
/// [`OptLevel::O3`] one sweep over the steps finds the largest live sets.
///
/// # Errors
///
/// Returns [`IrError::Validation`] if a referenced slot has no schema.
pub fn estimate_resources(
    op: &GpuOperator,
    inferred: &InferredSchemas,
    opt: OptLevel,
) -> Result<KernelResources> {
    let OperatorBody::Streaming { slots, steps, .. } = &op.body else {
        // Global operators (SORT / AGGREGATE phases) run library kernels with
        // fixed, modest resource demands.
        return Ok(KernelResources {
            registers_per_thread: 24,
            shared_per_cta: 4 * 1024,
        });
    };

    // Per slot, the first step that defines it and the last that reads it.
    let mut ranges: Vec<(Option<usize>, Option<usize>)> = vec![(None, None); slots.len()];
    let mut scratch = 0;
    for (idx, step) in steps.iter().enumerate() {
        for s in step.sources() {
            ranges[s.0].1 = Some(idx);
        }
        if let Some(d) = step.dest() {
            ranges[d.0].0.get_or_insert(idx);
        }
        scratch = scratch.max(step_scratch(step));
    }

    // Each referenced slot's demand: a shared slot holds a tile of
    // threads_per_cta tuples plus its bookkeeping, a register slot one
    // tuple's words. At -O0 every slot holds it for the whole kernel. At
    // -O3 the allocator reuses the tiles and registers of dead slots (the
    // paper's §4.3.3: "variables ... are live until they are no longer
    // needed"), so a slot's demand enters the live set at its definition
    // and leaves it after its last read; a slot no step reads counts as
    // last read at step 0.
    let schema = |i: usize, space: &str| -> Result<&Schema> {
        inferred
            .slots
            .get(i)
            .and_then(Option::as_ref)
            .ok_or_else(|| IrError::validation(format!("{space} slot %{i} has no schema")))
    };
    let mut total = Demand::default();
    // Per step, the demand (entering, leaving) the live set there.
    let mut events = vec![(Demand::default(), Demand::default()); steps.len()];
    for (i, (decl, &(def, last_read))) in slots.iter().zip(&ranges).enumerate() {
        if def.is_none() && last_read.is_none() {
            continue;
        }
        let demand = match decl.space {
            Space::Shared => Demand {
                shared: u64::from(op.threads_per_cta) * schema(i, "shared")?.tuple_bytes() as u64
                    + u64::from(SHARED_SLOT_OVERHEAD),
                registers: 0,
            },
            Space::Register => Demand {
                shared: 0,
                registers: tuple_registers(schema(i, "register")?),
            },
            Space::Global => continue,
        };
        total += demand;
        let end = last_read.unwrap_or(0);
        if let Some(def) = def.filter(|&def| def <= end) {
            events[def].0 += demand;
            events[end].1 += demand;
        }
    }
    let peak = match opt {
        OptLevel::O0 => total,
        OptLevel::O3 => {
            let (mut live, mut peak) = (Demand::default(), Demand::default());
            for &(enter, leave) in &events {
                live += enter;
                peak.shared = peak.shared.max(live.shared);
                peak.registers = peak.registers.max(live.registers);
                live -= leave;
            }
            peak
        }
    };

    Ok(KernelResources {
        registers_per_thread: BASE_REGISTERS + peak.registers + scratch,
        shared_per_cta: peak.shared.min(u64::from(u32::MAX)) as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{infer_schemas, PartitionSpec, SlotDecl, SlotId};
    use kw_relational::{CmpOp, Predicate, Value};

    fn select_op() -> GpuOperator {
        GpuOperator::streaming(
            "select",
            vec![Schema::uniform_u32(4)],
            1,
            vec![
                SlotDecl::new("in", Space::Register),
                SlotDecl::new("f", Space::Register),
                SlotDecl::new("dense", Space::Shared),
            ],
            vec![
                Step::Load {
                    input: 0,
                    dst: SlotId(0),
                },
                Step::Filter {
                    src: SlotId(0),
                    pred: Predicate::cmp(0, CmpOp::Lt, Value::U32(7)),
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
        )
    }

    #[test]
    fn select_resources() {
        let op = select_op();
        let inf = infer_schemas(&op).unwrap();
        let r = estimate_resources(&op, &inf, OptLevel::O3).unwrap();
        // 10 base + 8 live regs (two 4-word tuples overlap at the filter) + 4 scratch.
        assert!(r.registers_per_thread >= 15 && r.registers_per_thread <= 30);
        // One shared tile: 256 threads * 16 B + overhead.
        assert_eq!(r.shared_per_cta, 256 * 16 + SHARED_SLOT_OVERHEAD);
    }

    #[test]
    fn o0_uses_more_registers() {
        let op = select_op();
        let inf = infer_schemas(&op).unwrap();
        let o3 = estimate_resources(&op, &inf, OptLevel::O3).unwrap();
        let o0 = estimate_resources(&op, &inf, OptLevel::O0).unwrap();
        assert!(o0.registers_per_thread >= o3.registers_per_thread);
    }

    #[test]
    fn tuple_register_widths() {
        assert_eq!(tuple_registers(&Schema::uniform_u32(4)), 4);
        let s = Schema::new(vec![AttrType::U64, AttrType::U32], 1);
        assert_eq!(tuple_registers(&s), 3);
    }

    #[test]
    fn global_ops_have_fixed_resources() {
        let op = GpuOperator::global_sort("s", Schema::uniform_u32(2), vec![0]);
        let inf = infer_schemas(&op).unwrap();
        let r = estimate_resources(&op, &inf, OptLevel::O3).unwrap();
        assert!(r.registers_per_thread > 0);
    }

    #[test]
    fn unused_slots_cost_nothing() {
        let mut op = select_op();
        if let OperatorBody::Streaming { slots, .. } = &mut op.body {
            slots.push(SlotDecl::new("unused", Space::Shared));
        }
        let inf = infer_schemas(&op).unwrap();
        let with_unused = estimate_resources(&op, &inf, OptLevel::O3).unwrap();
        let plain = select_op();
        let inf2 = infer_schemas(&plain).unwrap();
        let base = estimate_resources(&plain, &inf2, OptLevel::O3).unwrap();
        assert_eq!(with_unused, base);
    }
}
