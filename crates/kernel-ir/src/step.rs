//! The step-level kernel IR.
//!
//! A kernel's compute stage is a list of [`Step`]s, each a data-parallel
//! operation executed by every CTA over its partition. Steps read and write
//! *slots* — virtual tuple buffers placed in a memory [`Space`] — which is
//! exactly the paper's variable table: fusing operators concatenates their
//! steps and rewires slots, placing intermediates in registers (thread
//! dependence) or shared memory (CTA dependence) instead of global memory.

use std::fmt;

use kw_relational::{Expr, Predicate};

/// The memory space a slot lives in.
///
/// The dependence classification of the paper maps directly onto spaces:
/// thread-dependent intermediates live in [`Space::Register`],
/// CTA-dependent intermediates in [`Space::Shared`], and kernel-dependent
/// boundaries force [`Space::Global`] round trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Per-thread registers (free traffic; subject to divergence).
    Register,
    /// Per-CTA shared memory (on-chip; requires barriers between producer
    /// and consumer steps).
    Shared,
    /// Off-chip global memory.
    Global,
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Space::Register => "reg",
            Space::Shared => "shared",
            Space::Global => "global",
        };
        f.write_str(s)
    }
}

/// Identifier of a slot within one [`crate::GpuOperator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub usize);

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Declaration of a slot: a named tuple buffer in a memory space.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotDecl {
    /// Diagnostic name (e.g. `select0.out`).
    pub name: String,
    /// Memory space of the slot.
    pub space: Space,
}

impl SlotDecl {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, space: Space) -> SlotDecl {
        SlotDecl {
            name: name.into(),
            space,
        }
    }
}

/// Which keyed set operation a [`Step::SetOp`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetOpKind {
    /// Keys in either input.
    Union,
    /// Keys in both inputs.
    Intersect,
    /// Keys in left but not right.
    Difference,
}

impl fmt::Display for SetOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SetOpKind::Union => "union",
            SetOpKind::Intersect => "intersect",
            SetOpKind::Difference => "difference",
        };
        f.write_str(s)
    }
}

/// One data-parallel operation of a compute-stage kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Load the CTA's partition of global input `input` into `dst`.
    Load {
        /// Index into the operator's input list.
        input: usize,
        /// Destination slot.
        dst: SlotId,
    },
    /// Keep tuples of `src` satisfying `pred`.
    Filter {
        /// Source slot.
        src: SlotId,
        /// The predicate.
        pred: Predicate,
        /// Destination slot.
        dst: SlotId,
    },
    /// Keep a subset of attributes.
    Project {
        /// Source slot.
        src: SlotId,
        /// Attribute indices to keep, in order.
        attrs: Vec<usize>,
        /// Key arity of the result.
        key_arity: usize,
        /// Destination slot.
        dst: SlotId,
    },
    /// Evaluate arithmetic expressions per tuple (the paper's §4.4
    /// arithmetic extension).
    Compute {
        /// Source slot.
        src: SlotId,
        /// One expression per output attribute.
        exprs: Vec<Expr>,
        /// Key arity of the result.
        key_arity: usize,
        /// Destination slot.
        dst: SlotId,
    },
    /// Merge-join two slots on their first `key_len` attributes.
    Join {
        /// Left source slot.
        left: SlotId,
        /// Right source slot.
        right: SlotId,
        /// Join key length.
        key_len: usize,
        /// Destination slot.
        dst: SlotId,
    },
    /// Cross product of two slots.
    Product {
        /// Left source slot.
        left: SlotId,
        /// Right source slot.
        right: SlotId,
        /// Destination slot.
        dst: SlotId,
    },
    /// Semi- or anti-join: keep left tuples whose key prefix does (or
    /// does not) match the right slot (`EXISTS` / `NOT EXISTS`).
    SemiJoin {
        /// Left source slot.
        left: SlotId,
        /// Right source slot.
        right: SlotId,
        /// Key prefix length.
        key_len: usize,
        /// `true` for anti-join (`NOT EXISTS`).
        negated: bool,
        /// Destination slot.
        dst: SlotId,
    },
    /// Keyed set operation between two slots of identical schema.
    SetOp {
        /// Which set operation.
        kind: SetOpKind,
        /// Left source slot.
        left: SlotId,
        /// Right source slot.
        right: SlotId,
        /// Destination slot.
        dst: SlotId,
    },
    /// Remove duplicate tuples (within the CTA partition).
    Unique {
        /// Source slot.
        src: SlotId,
        /// Destination slot.
        dst: SlotId,
    },
    /// Stream-compact `src` into a dense `dst` (prefix-sum compaction; the
    /// "compact" phase of Figure 7).
    Compact {
        /// Source slot.
        src: SlotId,
        /// Destination slot.
        dst: SlotId,
    },
    /// CTA-wide barrier synchronization.
    Barrier,
    /// Write `src` to global output buffer `output`.
    Store {
        /// Source slot.
        src: SlotId,
        /// Index of the operator output.
        output: usize,
    },
}

impl Step {
    /// The slots this step reads, at most two, in operand order.
    pub fn sources(&self) -> impl Iterator<Item = SlotId> {
        let (first, second) = match self {
            Step::Load { .. } | Step::Barrier => (None, None),
            Step::Filter { src, .. }
            | Step::Project { src, .. }
            | Step::Compute { src, .. }
            | Step::Unique { src, .. }
            | Step::Compact { src, .. }
            | Step::Store { src, .. } => (Some(*src), None),
            Step::Join { left, right, .. }
            | Step::Product { left, right, .. }
            | Step::SemiJoin { left, right, .. }
            | Step::SetOp { left, right, .. } => (Some(*left), Some(*right)),
        };
        first.into_iter().chain(second)
    }

    /// The slot this step defines, if any.
    pub fn dest(&self) -> Option<SlotId> {
        match self {
            Step::Load { dst, .. }
            | Step::Filter { dst, .. }
            | Step::Project { dst, .. }
            | Step::Compute { dst, .. }
            | Step::Join { dst, .. }
            | Step::Product { dst, .. }
            | Step::SemiJoin { dst, .. }
            | Step::SetOp { dst, .. }
            | Step::Unique { dst, .. }
            | Step::Compact { dst, .. } => Some(*dst),
            Step::Barrier | Step::Store { .. } => None,
        }
    }

    /// Rewrite every slot reference through `f`.
    pub fn map_slots(&mut self, mut f: impl FnMut(SlotId) -> SlotId) {
        match self {
            Step::Load { dst, .. } => *dst = f(*dst),
            Step::Filter { src, dst, .. }
            | Step::Project { src, dst, .. }
            | Step::Compute { src, dst, .. }
            | Step::Unique { src, dst, .. }
            | Step::Compact { src, dst, .. } => {
                *src = f(*src);
                *dst = f(*dst);
            }
            Step::Join {
                left, right, dst, ..
            }
            | Step::Product {
                left, right, dst, ..
            }
            | Step::SemiJoin {
                left, right, dst, ..
            }
            | Step::SetOp {
                left, right, dst, ..
            } => {
                *left = f(*left);
                *right = f(*right);
                *dst = f(*dst);
            }
            Step::Store { src, .. } => *src = f(*src),
            Step::Barrier => {}
        }
    }

    /// A short mnemonic for diagnostics and labels.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Step::Load { .. } => "load",
            Step::Filter { .. } => "filter",
            Step::Project { .. } => "project",
            Step::Compute { .. } => "compute",
            Step::Join { .. } => "join",
            Step::Product { .. } => "product",
            Step::SemiJoin { negated: false, .. } => "semijoin",
            Step::SemiJoin { negated: true, .. } => "antijoin",
            Step::SetOp { .. } => "setop",
            Step::Unique { .. } => "unique",
            Step::Compact { .. } => "compact",
            Step::Barrier => "barrier",
            Step::Store { .. } => "store",
        }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Load { input, dst } => write!(f, "{dst} = load in{input}"),
            Step::Filter { src, pred, dst } => write!(f, "{dst} = filter {src} where {pred}"),
            Step::Project {
                src, attrs, dst, ..
            } => write!(f, "{dst} = project {src} {attrs:?}"),
            Step::Compute {
                src, exprs, dst, ..
            } => {
                write!(f, "{dst} = compute {src} [")?;
                for (i, e) in exprs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
            Step::Join {
                left,
                right,
                key_len,
                dst,
            } => write!(f, "{dst} = join {left} {right} key={key_len}"),
            Step::Product { left, right, dst } => write!(f, "{dst} = product {left} {right}"),
            Step::SemiJoin {
                left,
                right,
                key_len,
                negated,
                dst,
            } => {
                let name = if *negated { "antijoin" } else { "semijoin" };
                write!(f, "{dst} = {name} {left} {right} key={key_len}")
            }
            Step::SetOp {
                kind,
                left,
                right,
                dst,
            } => write!(f, "{dst} = {kind} {left} {right}"),
            Step::Unique { src, dst } => write!(f, "{dst} = unique {src}"),
            Step::Compact { src, dst } => write!(f, "{dst} = compact {src}"),
            Step::Barrier => write!(f, "barrier"),
            Step::Store { src, output } => write!(f, "store {src} -> out{output}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_relational::{CmpOp, Value};

    #[test]
    fn sources_and_dest() {
        let s = Step::Join {
            left: SlotId(1),
            right: SlotId(2),
            key_len: 1,
            dst: SlotId(3),
        };
        assert!(s.sources().eq([SlotId(1), SlotId(2)]));
        assert_eq!(s.dest(), Some(SlotId(3)));
        assert_eq!(Step::Barrier.dest(), None);
        assert_eq!(Step::Barrier.sources().count(), 0);
    }

    #[test]
    fn map_slots_rewrites_everything() {
        let mut s = Step::Filter {
            src: SlotId(0),
            pred: Predicate::cmp(0, CmpOp::Eq, Value::U32(1)),
            dst: SlotId(1),
        };
        s.map_slots(|SlotId(i)| SlotId(i + 10));
        assert!(s.sources().eq([SlotId(10)]));
        assert_eq!(s.dest(), Some(SlotId(11)));
    }

    #[test]
    fn display_nonempty() {
        let s = Step::Store {
            src: SlotId(0),
            output: 0,
        };
        assert_eq!(s.to_string(), "store %0 -> out0");
        assert_eq!(s.mnemonic(), "store");
    }
}
