//! Kernel intermediate representation, optimizer and simulating interpreter
//! for the Kernel Weaver reproduction (MICRO 2012).
//!
//! A [`GpuOperator`] is one (possibly fused) relational-algebra operator in
//! the paper's multi-stage form: partition / compute / gather. The compute
//! stage is a list of [`Step`]s over *slots* in explicit memory [`Space`]s —
//! the IR-level analogue of the CUDA the paper's code generator emits, at
//! the granularity its variable table actually manipulates.
//!
//! The crate provides:
//!
//! * the IR ([`Step`], [`SlotDecl`], [`GpuOperator`], [`PartitionSpec`]),
//! * schema inference and structural [`validate`]-ion (including the
//!   barrier discipline of CTA-dependent fusion),
//! * an optimizer ([`optimize`], [`OptLevel`]) whose passes model what
//!   `nvcc -O3` gains from fusion's larger textual scope,
//! * resource estimation ([`estimate_resources`]) feeding the occupancy
//!   model, and
//! * the interpreter ([`execute`]) that runs operators over real
//!   [`kw_relational::Relation`]s while charging a simulated
//!   [`kw_gpu_sim::Device`].
//!
//! # Examples
//!
//! ```
//! use kw_kernel_ir::{execute, GpuOperator, OptLevel, PartitionSpec, SlotDecl, SlotId, Space, Step};
//! use kw_gpu_sim::{Device, DeviceConfig};
//! use kw_relational::{gen, CmpOp, Predicate, Value};
//!
//! let input = gen::micro_input(1000, 1);
//! let op = GpuOperator::streaming(
//!     "select",
//!     vec![input.schema().clone()],
//!     1,
//!     vec![
//!         SlotDecl::new("in", Space::Register),
//!         SlotDecl::new("matched", Space::Register),
//!         SlotDecl::new("dense", Space::Shared),
//!     ],
//!     vec![
//!         Step::Load { input: 0, dst: SlotId(0) },
//!         Step::Filter {
//!             src: SlotId(0),
//!             pred: Predicate::cmp(0, CmpOp::Lt, Value::U32(1 << 30)),
//!             dst: SlotId(1),
//!         },
//!         Step::Compact { src: SlotId(1), dst: SlotId(2) },
//!         Step::Barrier,
//!         Step::Store { src: SlotId(2), output: 0 },
//!     ],
//!     PartitionSpec::Even,
//! );
//! let mut device = Device::new(DeviceConfig::fermi_c2050());
//! let result = execute(&op, &[&input], &mut device, OptLevel::O3)?;
//! assert_eq!(result.kernels, 3); // partition, compute, gather
//! # Ok::<(), kw_kernel_ir::IrError>(())
//! ```

#![warn(missing_docs)]

mod error;
mod infer;
mod interp;
mod operator;
mod opt;
mod resources;
mod step;
mod validate;

pub use error::{IrError, Result};
pub use infer::{aggregate_schema, infer_schemas, sorted_schema, InferredSchemas};
pub use interp::{execute, ExecResult, MAX_GRID_CTAS, SORT_PASSES_PER_ATTR};
pub use operator::{GpuOperator, OperatorBody, PartitionSpec, DEFAULT_THREADS_PER_CTA};
pub use opt::{
    combine_filters, eliminate_common_steps, eliminate_dead_steps, fold_constants, optimize,
    optimize_inferred, simplify_barriers, OptLevel, PassStats,
};
pub use resources::{estimate_resources, tuple_registers, BASE_REGISTERS, SHARED_SLOT_OVERHEAD};
pub use step::{SetOpKind, SlotDecl, SlotId, Space, Step};
pub use validate::validate;
