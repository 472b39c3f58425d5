//! CPU reference implementations of every relational algebra operator.
//!
//! These are the correctness oracle for the GPU simulator: every fused or
//! unfused kernel execution must produce bit-identical relations to these
//! functions. They are also the "CPU baseline" end of the paper's CPU/GPU
//! comparisons.

mod aggregate;
mod anti_join;
mod join;
mod map;
mod product;
mod project;
mod select;
mod set_ops;
mod sort;
mod unique;

pub use aggregate::{aggregate, AggFn};
pub use anti_join::{anti_join, semi_join};
pub use join::{join, join_schema};
pub use map::compute;
pub use product::product;
pub use project::project;
pub use select::select;
pub use set_ops::{difference, intersect, union};
pub use sort::sort_on;
pub use unique::unique;
