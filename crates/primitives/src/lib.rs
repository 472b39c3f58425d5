//! The relational-algebra primitives library of the Kernel Weaver
//! reproduction.
//!
//! Provides the plan-level operator vocabulary ([`RaOp`]), the paper's
//! dependence classification (Section 4.1: thread / CTA / kernel, in
//! [`DependenceClass`]), and the multi-stage skeleton builders the compiler
//! instantiates — both the unfused library implementations
//! ([`build_unfused`]) and the per-operator compute steps ([`op_step`]) the
//! weaver stitches into fused kernels.
//!
//! # Examples
//!
//! ```
//! use kw_primitives::{consumer_class, build_unfused, DependenceClass, RaOp};
//! use kw_relational::{Predicate, Schema};
//!
//! let select = RaOp::Select { pred: Predicate::True };
//! assert_eq!(consumer_class(&select), DependenceClass::Thread);
//!
//! let join = RaOp::Join { key_len: 1 };
//! assert_eq!(consumer_class(&join), DependenceClass::Cta);
//!
//! let s = Schema::uniform_u32(2);
//! let gpu = build_unfused(&join, &[s.clone(), s], "demo.join")?;
//! assert!(gpu.body.is_streaming());
//! # Ok::<(), kw_primitives::IrBuildError>(())
//! ```

#![warn(missing_docs)]

mod build;
mod dependence;
mod ra_op;

use std::fmt;

pub use build::{build_unfused, op_step, op_step_kind, partition_spec};
pub use dependence::{consumer_class, edge_class, is_fusible, producer_class, DependenceClass};
pub use ra_op::RaOp;

/// Error produced when a skeleton cannot be instantiated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrBuildError {
    detail: String,
}

impl IrBuildError {
    /// Create a build error with the given description.
    pub fn new(detail: impl Into<String>) -> IrBuildError {
        IrBuildError {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for IrBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot build operator skeleton: {}", self.detail)
    }
}

impl std::error::Error for IrBuildError {}
