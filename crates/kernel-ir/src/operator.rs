//! GPU operator descriptions: the unit the interpreter executes.
//!
//! A [`GpuOperator`] is one (possibly fused) RA operator in the paper's
//! multi-stage form: a *partition* policy, a *compute* body of [`Step`]s
//! over slots, and an implicit *gather* stage that densifies stored
//! outputs. Kernel-dependent operators (SORT, grouped AGGREGATE) are
//! *global* bodies that cannot be expressed as independent CTA streams —
//! which is precisely why the paper cannot fuse across them.

use kw_relational::ops::AggFn;
use kw_relational::Schema;

use crate::{SlotDecl, SlotId, Space, Step};

/// How the inputs are partitioned across CTAs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionSpec {
    /// Split every input evenly by tuple index. Valid for elementwise
    /// (thread-dependent) bodies: SELECT, PROJECT, arithmetic.
    Even,
    /// Partition by key ranges: the pivot input is split at key boundaries
    /// and every other input is partitioned by binary search on the shared
    /// key prefix of length `key_len` (Figure 13(a) of the paper).
    KeyRange {
        /// Index of the pivot input.
        pivot: usize,
        /// Length of the shared key prefix.
        key_len: usize,
    },
    /// Every CTA sees input 0 partitioned evenly and the full range of all
    /// other inputs (used by CROSS PRODUCT, whose right side is replicated).
    ReplicateRight,
}

/// The body of a [`GpuOperator`].
#[derive(Debug, Clone, PartialEq)]
pub enum OperatorBody {
    /// A streaming (fusible) body: per-CTA steps over partitioned inputs.
    Streaming {
        /// Slot declarations.
        slots: Vec<SlotDecl>,
        /// The compute-stage step list.
        steps: Vec<Step>,
        /// How inputs are split across CTAs.
        partition: PartitionSpec,
    },
    /// A global SORT on the given attributes (kernel-dependent).
    GlobalSort {
        /// Attributes to sort on (become the new key, see
        /// [`kw_relational::ops::sort_on`]).
        attrs: Vec<usize>,
    },
    /// A global grouped aggregation (kernel-dependent: requires a global
    /// sort phase on the group attributes).
    GlobalAggregate {
        /// Grouping attributes.
        group_by: Vec<usize>,
        /// Aggregates to compute.
        aggs: Vec<AggFn>,
    },
}

impl OperatorBody {
    /// Whether this body is a streaming (fusible) body.
    pub fn is_streaming(&self) -> bool {
        matches!(self, OperatorBody::Streaming { .. })
    }
}

/// A complete GPU operator: label, input schemas, body and launch shape.
///
/// # Examples
///
/// Build a SELECT by hand (the `kw-primitives` crate provides canonical
/// builders):
///
/// ```
/// use kw_kernel_ir::{GpuOperator, OperatorBody, PartitionSpec, SlotDecl, SlotId, Space, Step};
/// use kw_relational::{CmpOp, Predicate, Schema, Value};
///
/// let schema = Schema::uniform_u32(4);
/// let op = GpuOperator::streaming(
///     "select",
///     vec![schema],
///     1,
///     vec![
///         SlotDecl::new("in", Space::Register),
///         SlotDecl::new("matched", Space::Register),
///         SlotDecl::new("dense", Space::Shared),
///     ],
///     vec![
///         Step::Load { input: 0, dst: SlotId(0) },
///         Step::Filter {
///             src: SlotId(0),
///             pred: Predicate::cmp(0, CmpOp::Lt, Value::U32(100)),
///             dst: SlotId(1),
///         },
///         Step::Compact { src: SlotId(1), dst: SlotId(2) },
///         Step::Barrier,
///         Step::Store { src: SlotId(2), output: 0 },
///     ],
///     PartitionSpec::Even,
/// );
/// assert_eq!(op.output_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GpuOperator {
    /// Diagnostic label (prefixes the labels of the kernel spans it launches).
    pub label: String,
    /// Schemas of the global inputs, in order.
    pub inputs: Vec<Schema>,
    /// Number of global outputs.
    pub outputs: usize,
    /// The operator body.
    pub body: OperatorBody,
    /// Threads per CTA (the paper fixes one launch shape for all fusion
    /// candidates; 256 works best in most cases).
    pub threads_per_cta: u32,
}

/// Default CTA size used across the reproduction.
pub const DEFAULT_THREADS_PER_CTA: u32 = 256;

impl GpuOperator {
    /// Construct a streaming operator.
    pub fn streaming(
        label: impl Into<String>,
        inputs: Vec<Schema>,
        outputs: usize,
        slots: Vec<SlotDecl>,
        steps: Vec<Step>,
        partition: PartitionSpec,
    ) -> GpuOperator {
        GpuOperator {
            label: label.into(),
            inputs,
            outputs,
            body: OperatorBody::Streaming {
                slots,
                steps,
                partition,
            },
            threads_per_cta: DEFAULT_THREADS_PER_CTA,
        }
    }

    /// Construct a global SORT operator.
    pub fn global_sort(label: impl Into<String>, input: Schema, attrs: Vec<usize>) -> GpuOperator {
        GpuOperator {
            label: label.into(),
            inputs: vec![input],
            outputs: 1,
            body: OperatorBody::GlobalSort { attrs },
            threads_per_cta: DEFAULT_THREADS_PER_CTA,
        }
    }

    /// Construct a global grouped-aggregate operator.
    pub fn global_aggregate(
        label: impl Into<String>,
        input: Schema,
        group_by: Vec<usize>,
        aggs: Vec<AggFn>,
    ) -> GpuOperator {
        GpuOperator {
            label: label.into(),
            inputs: vec![input],
            outputs: 1,
            body: OperatorBody::GlobalAggregate { group_by, aggs },
            threads_per_cta: DEFAULT_THREADS_PER_CTA,
        }
    }

    /// Number of global outputs.
    pub fn output_count(&self) -> usize {
        self.outputs
    }

    /// The streaming slots, if this is a streaming body.
    pub fn slots(&self) -> Option<&[SlotDecl]> {
        match &self.body {
            OperatorBody::Streaming { slots, .. } => Some(slots),
            _ => None,
        }
    }

    /// The streaming steps, if this is a streaming body.
    pub fn steps(&self) -> Option<&[Step]> {
        match &self.body {
            OperatorBody::Streaming { steps, .. } => Some(steps),
            _ => None,
        }
    }

    /// The space of slot `id`.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-streaming body or with a bad slot id;
    /// validated IR never does.
    pub fn slot_space(&self, id: SlotId) -> Space {
        self.slots().expect("streaming body")[id.0].space
    }

    /// Render the body as pseudo-assembly for diagnostics (the analogue of
    /// the paper's Figure 15 generated code listing).
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("operator {} ({} inputs)\n", self.label, self.inputs.len());
        match &self.body {
            OperatorBody::Streaming {
                slots,
                steps,
                partition,
            } => {
                let _ = writeln!(s, "  partition: {partition:?}");
                for (i, d) in slots.iter().enumerate() {
                    let _ = writeln!(s, "  slot %{i}: {} [{}]", d.name, d.space);
                }
                for st in steps {
                    let _ = writeln!(s, "  {st}");
                }
            }
            OperatorBody::GlobalSort { attrs } => {
                let _ = writeln!(s, "  global sort on {attrs:?}");
            }
            OperatorBody::GlobalAggregate { group_by, aggs } => {
                let _ = writeln!(s, "  global aggregate by {group_by:?}: {aggs:?}");
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let s = Schema::uniform_u32(2);
        let op = GpuOperator::global_sort("sort", s.clone(), vec![0]);
        assert!(!op.body.is_streaming());
        assert_eq!(op.output_count(), 1);
        assert!(op.steps().is_none());

        let op = GpuOperator::global_aggregate("agg", s, vec![0], vec![AggFn::Count]);
        assert!(matches!(op.body, OperatorBody::GlobalAggregate { .. }));
    }

    #[test]
    fn disassembly_mentions_steps() {
        let s = Schema::uniform_u32(2);
        let op = GpuOperator::streaming(
            "t",
            vec![s],
            1,
            vec![SlotDecl::new("in", Space::Register)],
            vec![
                Step::Load {
                    input: 0,
                    dst: SlotId(0),
                },
                Step::Store {
                    src: SlotId(0),
                    output: 0,
                },
            ],
            PartitionSpec::Even,
        );
        let d = op.disassemble();
        assert!(d.contains("load"));
        assert!(d.contains("store"));
        assert_eq!(op.slot_space(SlotId(0)), Space::Register);
    }
}
