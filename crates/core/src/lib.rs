//! **Kernel Weaver** — a reproduction of "Kernel Weaver: Automatically
//! Fusing Database Primitives for Efficient GPU Computation" (Wu, Diamos,
//! Cadambi, Yalamanchili — MICRO 2012), running on a simulated Fermi GPU.
//!
//! The compiler pipeline mirrors the paper's Figure 5:
//!
//! 1. a query plan ([`QueryPlan`]) arrives from the front-end (built by
//!    hand, by `kw-datalog`, or by `kw-tpch`);
//! 2. [`find_candidates`] (Algorithm 1) removes kernel-dependent operators
//!    (SORT, AGGREGATE) and groups the connected fusible remainder;
//! 3. [`select_fusions`] (Algorithm 2) greedily grows fusion sets in
//!    topological order under a register/shared-memory [`ResourceBudget`],
//!    pricing each attempt from its layout ([`fused_resources`]) without
//!    generating its code;
//! 4. [`weave`] generates the fused kernel IR — thread-dependent
//!    intermediates in registers, CTA-dependent ones in shared memory behind
//!    barriers — and the `kw-kernel-ir` optimizer cleans it up;
//! 5. [`execute_plan`] runs the compiled plan on a simulated
//!    [`kw_gpu_sim::Device`], GPU-resident, PCIe-staged or chunked.
//!
//! Five functions run plans; [`WeaverConfig`] selects the path inside each:
//!
//! | function | serves |
//! |---|---|
//! | [`execute_plan`] | compile, then [`execute_compiled`] |
//! | [`execute_compiled`] | one query: resident or staged ([`WeaverConfig::mode`]), or chunked ([`WeaverConfig::chunks`]) |
//! | [`execute_compiled_resilient`] | one query through admission, retry and the Resident → Staged → Chunked ladder |
//! | [`execute_batch`] | independent queries sharing one device, each its own fault domain |
//! | [`run_service`] | an open-loop arrival stream dispatched in batches, with a compiled-plan cache |
//!
//! # Examples
//!
//! ```
//! use kw_core::{execute_plan, QueryPlan, WeaverConfig};
//! use kw_gpu_sim::{Device, DeviceConfig};
//! use kw_primitives::RaOp;
//! use kw_relational::{gen, CmpOp, Predicate, Value};
//!
//! // SELECT-SELECT chain (micro-benchmark pattern (a)).
//! let input = gen::micro_input(10_000, 7);
//! let mut plan = QueryPlan::new();
//! let t = plan.add_input("t", input.schema().clone());
//! let s1 = plan.add_op(
//!     RaOp::Select { pred: Predicate::cmp(0, CmpOp::Lt, Value::U32(1 << 31)) },
//!     &[t],
//! )?;
//! let s2 = plan.add_op(
//!     RaOp::Select { pred: Predicate::cmp(1, CmpOp::Lt, Value::U32(1 << 31)) },
//!     &[s1],
//! )?;
//! plan.mark_output(s2);
//!
//! let mut fused_dev = Device::new(DeviceConfig::fermi_c2050());
//! let fused = execute_plan(&plan, &[("t", &input)], &mut fused_dev, &WeaverConfig::default())?;
//!
//! let mut base_dev = Device::new(DeviceConfig::fermi_c2050());
//! let base = execute_plan(
//!     &plan, &[("t", &input)], &mut base_dev, &WeaverConfig::default().baseline(),
//! )?;
//!
//! assert_eq!(fused.outputs, base.outputs);          // same answer...
//! assert!(base.gpu_seconds > fused.gpu_seconds);    // ...faster fused
//! # Ok::<(), kw_core::WeaverError>(())
//! ```

#![warn(missing_docs)]

mod admission;
mod candidates;
mod chunk_strategy;
mod chunked;
mod compile;
mod dot;
mod error;
mod executor;
mod plan;
mod plan_cache;
mod profile;
mod reschedule;
mod resilient;
mod scheduler;
mod scratch;
mod selection;
mod service;
mod weave;

pub use admission::{admit, AdmissionReport, AdmittedMode, MAX_CHUNKS};
pub use candidates::{
    find_candidates, is_input_node, is_weavable, kernel_boundaries, FusionOptions,
};
pub use chunk_strategy::{select_chunk_strategy, ChunkStrategy};
pub use chunked::pipeline_makespan;
pub use compile::{compile, CompiledPlan, CompiledStep, WeaverConfig};
pub use dot::plan_to_dot;
pub use error::{LadderStop, Result, WeaverError};
pub use executor::{execute_compiled, execute_plan, ExecMode, PlanReport};
pub use plan::{NodeId, PlanNode, QueryPlan};
pub use plan_cache::{plan_shape_key, shape_fingerprint, PlanCache, PlanCacheStats};
pub use profile::{Bottleneck, OperatorProfile, ProfileReport};
pub use reschedule::{reschedule, Rescheduled};
pub use resilient::{execute_compiled_resilient, Degradation, ResilienceReport, RetryPolicy};
pub use scheduler::{execute_batch, BatchQuery, BatchQueryReport, BatchReport, QueryOutcome};
pub use selection::{select_fusions, ResourceBudget};
pub use service::{
    run_service, ServiceConfig, ServicePercentiles, ServiceQueryReport, ServiceReport,
};
pub use weave::{fused_resources, weave, WovenOperator};
