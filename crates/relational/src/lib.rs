//! Relational data model and CPU reference operators for the Kernel Weaver
//! reproduction.
//!
//! A [`Relation`] is a densely packed, key-sorted array of fixed-width
//! tuples — the storage format of Diamos et al. that the paper's multi-stage
//! GPU skeletons rely on for binary-search partitioning. This crate provides:
//!
//! * the data model ([`Schema`], [`Relation`], [`Value`], [`AttrType`]) and
//!   [`RelView`], the borrowed, canonical-by-construction form in which
//!   every operator reads its inputs,
//! * filter predicates ([`Predicate`]) and arithmetic expressions ([`Expr`]),
//!   bound once to a schema and then evaluated per tuple (the reference the
//!   operators in [`ops`] use) or over a block of rows at a time
//!   ([`BoundPredicate::eval_block`], [`BoundExpr::eval_block_into`]), and
//!   [`keep_rows`], which selects the rows a block's flags keep,
//! * CPU reference implementations of every RA operator in [`ops`] (the
//!   correctness oracle for the GPU simulator), and
//! * reproducible random workload generators in [`gen`].
//!
//! # Examples
//!
//! ```
//! use kw_relational::{ops, CmpOp, Predicate, Relation, Schema, Value};
//!
//! let r = Relation::from_words(Schema::uniform_u32(2), vec![1, 10, 2, 20, 3, 30])?;
//! let small = ops::select(&r, &Predicate::cmp(0, CmpOp::Lt, Value::U32(3)))?;
//! let keys = ops::project(&small, &[0], 1)?;
//! assert_eq!(keys.to_rows(), vec![vec![Value::U32(1)], vec![Value::U32(2)]]);
//! # Ok::<(), kw_relational::RelationalError>(())
//! ```

#![warn(missing_docs)]

mod error;
mod expr;
mod predicate;
mod relation;
mod types;

pub mod gen;
pub mod ops;

pub use error::{RelationalError, Result};
pub use expr::{BoundExpr, Expr};
pub use predicate::{BoundPredicate, CmpOp, Predicate};
pub use relation::{
    compare_keys, compare_tuples, equal_rows_are_identical, keep_rows, RelView, Relation,
};
pub use types::{compare_words, AttrType, Schema, Value};
