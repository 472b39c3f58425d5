//! The kernel interpreter: executes operators over real relations while
//! charging the simulated device.
//!
//! Execution follows the paper's three-stage skeleton:
//!
//! 1. **partition** — one kernel computing per-CTA input ranges (even split,
//!    binary-search key ranges, or replicate-right);
//! 2. **compute** — one kernel running the step list per CTA over its
//!    partition, producing real output tuples and accumulating work
//!    quantities (bytes per memory space, ALU ops, barriers);
//! 3. **gather** — one kernel densifying the per-CTA results into the
//!    output relation.
//!
//! Kernel-dependent operators (SORT, grouped AGGREGATE) execute as
//! multi-pass global kernels instead.
//!
//! ## Host execution: borrowed slots, canonical order only where needed
//!
//! The compute stage runs the step list once per CTA. Slots are
//! single-assignment, so steps read them by reference:
//!
//! * **Load** borrows the CTA's input range (checking that it is in
//!   canonical order) instead of copying it;
//! * the thread-dependent steps — Filter, Project, Compute, Compact and
//!   Store — write plain word buffers, evaluating predicates and expressions
//!   bound once per operator;
//! * only the CTA-dependent steps — Join, SemiJoin, SetOp, Unique and
//!   Product — see a canonical [`Relation`] and call the same
//!   `kw_relational::ops` function a step-at-a-time interpreter would.
//!
//! Each slot carries a `sorted` flag. Load and every CTA-dependent step set
//! it, Filter and Compact keep their source's, Project and Compute clear
//! it. A sorted slot holds exactly the relation a step-at-a-time
//! interpreter would hold; an unsorted one holds the same multiset, and
//! `Relation::from_words` turns it into that relation, because canonical
//! order is full-tuple order and rows that compare equal are bit-identical
//! (Project restores canonical order first for the one exception, F32 words
//! with high bits set). Canonical order is therefore restored in two places
//! only: when a CTA-dependent step reads an unsorted slot, and in the gather,
//! which sorts the concatenated CTA results once per output. Every
//! [`KernelQuantities`] charge comes from counts (rows, lanes, tuple bytes),
//! so none depends on how the host represents a slot.
//!
//! ## Divergence model
//!
//! Runtime slots carry a *lane count* alongside their tuples: the number of
//! thread lanes occupied. A filter into registers keeps its input's lanes
//! (threads whose tuple failed the predicate idle but stay allocated — the
//! Figure 20 effect), while stream compaction re-densifies lanes at the
//! price of shared-memory traffic and a prefix sum.

use std::borrow::Cow;

use kw_gpu_sim::{Device, KernelQuantities, KernelResources, LaunchDims};
use kw_relational::{
    check_sorted, equal_rows_are_identical, ops, BoundExpr, BoundPredicate, Relation, Schema,
};

use crate::{
    estimate_resources, validate, GpuOperator, IrError, OperatorBody, OptLevel, PartitionSpec,
    Result, SetOpKind, SlotId, Space, Step,
};

/// Maximum CTAs per grid (CUDA's 65535 x-dimension limit).
pub const MAX_GRID_CTAS: u32 = 65_535;

/// Per-element local-memory spill bytes charged (each way) for every step
/// at `-O0`: unoptimized PTX keeps working values in local memory, which
/// resides in global DRAM.
pub const O0_SPILL_BYTES: u64 = 8;

/// Radix-sort passes charged per key attribute by the SORT cost model
/// (eight 4-bit digit passes over a 32-bit key).
pub const SORT_PASSES_PER_ATTR: u64 = 8;

/// Result of executing one operator.
#[derive(Debug)]
pub struct ExecResult {
    /// The produced output relations, in output order.
    pub outputs: Vec<Relation>,
    /// The resources the compute kernel occupied.
    pub resources: KernelResources,
    /// Kernels launched for this operator.
    pub kernels: u64,
}

/// Execute `op` on `device` over `inputs`.
///
/// `opt` controls the `-O0` spill model: at [`OptLevel::O0`] register
/// intermediates are charged as local-memory (global DRAM) traffic and no
/// register reuse is assumed, mirroring unoptimized PTX.
///
/// # Errors
///
/// Returns [`IrError`] for invalid IR, schema-mismatched inputs, or device
/// failures (out of memory, infeasible launch).
pub fn execute(
    op: &GpuOperator,
    inputs: &[&Relation],
    device: &mut Device,
    opt: OptLevel,
) -> Result<ExecResult> {
    let inferred = validate(op)?;
    if inputs.len() != op.inputs.len() {
        return Err(IrError::validation(format!(
            "operator {} expects {} inputs, got {}",
            op.label,
            op.inputs.len(),
            inputs.len()
        )));
    }
    for (i, r) in inputs.iter().enumerate() {
        if r.schema() != &op.inputs[i] {
            return Err(IrError::validation(format!(
                "input {i} schema {} does not match declared {}",
                r.schema(),
                op.inputs[i]
            )));
        }
    }

    match &op.body {
        OperatorBody::Streaming {
            steps, partition, ..
        } => execute_streaming(op, steps, *partition, inputs, &inferred, device, opt),
        OperatorBody::GlobalSort { attrs } => execute_sort(op, attrs, inputs[0], device),
        OperatorBody::GlobalAggregate { group_by, aggs } => {
            execute_aggregate(op, group_by, aggs, inputs[0], device)
        }
    }
}

/// The tuples a runtime slot holds for one CTA.
#[derive(Debug, Clone)]
enum Tuples<'a> {
    /// A borrowed range of an operator input (Load).
    View(&'a [u64]),
    /// Rows written by a thread-dependent step.
    Rows(Vec<u64>),
    /// The relation a CTA-dependent step returned.
    Rel(Relation),
}

impl Tuples<'_> {
    fn words(&self) -> &[u64] {
        match self {
            Tuples::View(w) => w,
            Tuples::Rows(w) => w,
            Tuples::Rel(r) => r.words(),
        }
    }
}

/// A runtime slot: one CTA's tuples, whether they are in canonical order,
/// and the occupied lane count.
#[derive(Debug, Clone)]
struct RtSlot<'a> {
    tuples: Tuples<'a>,
    /// The tuples are exactly the relation a step-at-a-time interpreter
    /// would hold here. When clear they are the same multiset in another
    /// order, and `Relation::from_words` restores that relation.
    sorted: bool,
    lanes: u64,
}

/// What the compute stage knows about one slot before any CTA runs.
struct SlotInfo<'s> {
    schema: Option<&'s Schema>,
    space: Space,
    arity: usize,
    tuple_bytes: u64,
}

/// Expressions or a predicate of one step, bound to its source schema.
enum Bound {
    None,
    Pred(BoundPredicate),
    Exprs(Vec<BoundExpr>),
}

/// Everything the compute stage shares across CTAs.
struct Stage<'a, 's> {
    inputs: &'s [&'a Relation],
    ranges: &'s [Vec<(usize, usize)>],
    info: Vec<SlotInfo<'s>>,
    opt: OptLevel,
}

#[allow(clippy::too_many_arguments)]
fn execute_streaming(
    op: &GpuOperator,
    steps: &[Step],
    partition: PartitionSpec,
    inputs: &[&Relation],
    inferred: &crate::InferredSchemas,
    device: &mut Device,
    opt: OptLevel,
) -> Result<ExecResult> {
    let resources = estimate_resources(op, inferred, opt)?;
    let threads = cta_threads(op, device);

    let pivot_index = match partition {
        PartitionSpec::Even | PartitionSpec::ReplicateRight => 0,
        PartitionSpec::KeyRange { pivot, .. } => pivot,
    };
    let n_pivot = inputs.get(pivot_index).map_or(0, |r| r.len());
    let grid = grid_for(n_pivot as u64, threads);
    let dims = LaunchDims::new(grid, threads);

    // ---- Partition stage -------------------------------------------------
    let ranges = compute_partitions(partition, inputs, grid)?;
    let mut pq = KernelQuantities::default();
    for r in inputs {
        // The partition kernel reads one pivot tuple per CTA and binary
        // searches each input.
        let key_bytes = r.schema().tuple_bytes() as u64;
        pq.global_bytes_read += u64::from(grid) * key_bytes.min(16);
        pq.alu_ops += u64::from(grid) * ((r.len().max(2) as f64).log2().ceil() as u64);
    }
    device.launch(
        format!("{}.partition", op.label),
        dims,
        KernelResources {
            registers_per_thread: 16,
            shared_per_cta: 0,
        },
        &pq,
    )?;

    // ---- Compute stage ---------------------------------------------------
    let decls = op.slots().unwrap_or(&[]);
    let stage = Stage {
        inputs,
        ranges: &ranges,
        info: decls
            .iter()
            .zip(&inferred.slots)
            .map(|(decl, schema)| SlotInfo {
                schema: schema.as_ref(),
                space: decl.space,
                arity: schema.as_ref().map_or(1, Schema::arity),
                tuple_bytes: schema.as_ref().map_or(0, |s| s.tuple_bytes() as u64),
            })
            .collect(),
        opt,
    };
    let bound = steps
        .iter()
        .map(|step| bind_step(step, inferred))
        .collect::<Result<Vec<_>>>()?;
    let mut q = KernelQuantities::default();
    let mut out_words: Vec<Vec<u64>> = vec![Vec::new(); op.outputs];
    let mut slots: Vec<Option<RtSlot>> = Vec::with_capacity(decls.len());
    for cta in 0..grid as usize {
        slots.clear();
        slots.resize(decls.len(), None);
        for (step, bound) in steps.iter().zip(&bound) {
            stage.exec_step(step, bound, cta, &mut slots, &mut q, &mut out_words)?;
        }
    }
    device.launch(format!("{}.compute", op.label), dims, resources, &q)?;

    // ---- Gather stage ----------------------------------------------------
    // The compute stage keeps each CTA's results on chip and records their
    // sizes; gather prefix-sums the size array and performs the (single)
    // dense global write — which the Store steps above already charged. The
    // gather kernel itself only touches the per-CTA size array. Sorting the
    // concatenated CTA results restores canonical order.
    let mut outputs = Vec::with_capacity(op.outputs);
    let mut gq = KernelQuantities::default();
    for (i, words) in out_words.into_iter().enumerate() {
        let schema = inferred.outputs[i]
            .clone()
            .ok_or_else(|| IrError::validation(format!("output {i} never stored")))?;
        gq.global_bytes_read += u64::from(grid) * 8;
        gq.global_bytes_written += u64::from(grid) * 8;
        gq.alu_ops += u64::from(grid); // prefix sum over CTA result sizes

        // Store grew the buffer by doubling, and the output outlives this
        // call: give it an exact-size copy. (Shrinking it in place with
        // `shrink_to_fit` raised the benchmark's peak RSS instead.)
        let words = if words.capacity() > words.len() {
            words.as_slice().to_vec()
        } else {
            words
        };
        outputs.push(Relation::from_words(schema, words)?);
    }
    device.launch(
        format!("{}.gather", op.label),
        dims,
        KernelResources {
            registers_per_thread: 12,
            shared_per_cta: 0,
        },
        &gq,
    )?;

    Ok(ExecResult {
        outputs,
        resources,
        kernels: 3,
    })
}

/// Bind a Filter's predicate or a Compute's expressions to the step's
/// source schema, once per operator rather than once per tuple.
fn bind_step(step: &Step, inferred: &crate::InferredSchemas) -> Result<Bound> {
    Ok(match step {
        Step::Filter { src, pred, .. } => Bound::Pred(pred.bind(inferred.slot(*src)?)?),
        Step::Compute { src, exprs, .. } => {
            let schema = inferred.slot(*src)?;
            Bound::Exprs(
                exprs
                    .iter()
                    .map(|e| e.bind(schema))
                    .collect::<kw_relational::Result<_>>()?,
            )
        }
        _ => Bound::None,
    })
}

/// Per-CTA input ranges: `ranges[cta][input] = (start, end)`.
fn compute_partitions(
    partition: PartitionSpec,
    inputs: &[&Relation],
    grid: u32,
) -> Result<Vec<Vec<(usize, usize)>>> {
    let grid = grid as usize;
    let mut ranges = vec![vec![(0usize, 0usize); inputs.len()]; grid];
    match partition {
        PartitionSpec::Even => {
            for (i, r) in inputs.iter().enumerate() {
                for (cta, row) in ranges.iter_mut().enumerate() {
                    let s = cta * r.len() / grid;
                    let e = (cta + 1) * r.len() / grid;
                    row[i] = (s, e);
                }
            }
        }
        PartitionSpec::ReplicateRight => {
            for (i, r) in inputs.iter().enumerate() {
                for (cta, row) in ranges.iter_mut().enumerate() {
                    row[i] = if i == 0 {
                        (cta * r.len() / grid, (cta + 1) * r.len() / grid)
                    } else {
                        (0, r.len())
                    };
                }
            }
        }
        PartitionSpec::KeyRange { pivot, key_len } => {
            let pr = inputs[pivot];
            // Boundary keys at even pivot positions, realigned to key-run
            // starts so equal keys never straddle CTAs.
            let mut starts = vec![vec![0usize; inputs.len()]; grid + 1];
            for (cta, row) in starts.iter_mut().enumerate().take(grid).skip(1) {
                let pos = cta * pr.len() / grid;
                if pr.is_empty() {
                    continue;
                }
                let probe: Vec<u64> = pr.tuple(pos.min(pr.len() - 1))[..key_len].to_vec();
                for (i, r) in inputs.iter().enumerate() {
                    row[i] = r.lower_bound(&probe);
                }
            }
            for (i, r) in inputs.iter().enumerate() {
                starts[grid][i] = r.len();
            }
            // Enforce monotonicity (duplicate pivot keys may repeat bounds).
            for i in 0..inputs.len() {
                let mut prev = starts[0][i];
                for row in starts.iter_mut().skip(1) {
                    if row[i] < prev {
                        row[i] = prev;
                    }
                    prev = row[i];
                }
            }
            for cta in 0..grid {
                for i in 0..inputs.len() {
                    ranges[cta][i] = (starts[cta][i], starts[cta + 1][i]);
                }
            }
        }
    }
    Ok(ranges)
}

impl<'a> Stage<'a, '_> {
    fn schema(&self, id: SlotId) -> Result<&Schema> {
        self.info[id.0]
            .schema
            .ok_or_else(|| IrError::validation(format!("slot {id} has no inferred schema")))
    }

    fn rows(&self, id: SlotId, slot: &RtSlot) -> u64 {
        (slot.tuples.words().len() / self.info[id.0].arity) as u64
    }

    /// Charge a read of slot `id`; lanes matter for O0 spills.
    fn charge_read(&self, q: &mut KernelQuantities, id: SlotId, slot: &RtSlot) {
        let info = &self.info[id.0];
        match info.space {
            Space::Register => {
                if self.opt == OptLevel::O0 {
                    q.global_bytes_read += slot.lanes * info.tuple_bytes; // local-memory spill
                }
            }
            Space::Shared => q.shared_bytes_read += self.rows(id, slot) * info.tuple_bytes,
            Space::Global => q.global_bytes_read += self.rows(id, slot) * info.tuple_bytes,
        }
    }

    /// Charge writing `rows` dense tuples occupying `lanes` lanes to `id`.
    fn charge_write(&self, q: &mut KernelQuantities, id: SlotId, rows: u64, lanes: u64) {
        let info = &self.info[id.0];
        let dense = rows * info.tuple_bytes;
        match info.space {
            Space::Register => {
                if self.opt == OptLevel::O0 {
                    q.global_bytes_written += (lanes * info.tuple_bytes).max(dense);
                }
            }
            Space::Shared => q.shared_bytes_written += dense,
            Space::Global => q.global_bytes_written += dense,
        }
    }

    /// Write the rows a thread-dependent step produced from a source with
    /// `src_lanes` lanes: register destinations keep the source's sparse
    /// lanes (idle threads), CTA-visible ones are written compacted.
    fn write_rows(
        &self,
        q: &mut KernelQuantities,
        dst: SlotId,
        tuples: Tuples<'a>,
        sorted: bool,
        src_lanes: u64,
    ) -> RtSlot<'a> {
        let rows = (tuples.words().len() / self.info[dst.0].arity) as u64;
        let lanes = if self.info[dst.0].space == Space::Register {
            src_lanes
        } else {
            rows
        };
        self.charge_write(q, dst, rows, lanes);
        RtSlot {
            tuples,
            sorted,
            lanes,
        }
    }

    /// Write the relation a CTA-dependent step returned: dense lanes,
    /// canonical order.
    fn write_relation(&self, q: &mut KernelQuantities, dst: SlotId, rel: Relation) -> RtSlot<'a> {
        debug_assert_eq!(
            Some(rel.schema()),
            self.info[dst.0].schema,
            "inferred schema of {dst}"
        );
        let lanes = rel.len() as u64;
        self.charge_write(q, dst, lanes, lanes);
        RtSlot {
            tuples: Tuples::Rel(rel),
            sorted: true,
            lanes,
        }
    }

    /// The canonical relation slot `id` holds, for a CTA-dependent step.
    fn relation<'r>(&self, id: SlotId, slot: &'r RtSlot) -> Result<Cow<'r, Relation>> {
        if let Tuples::Rel(rel) = &slot.tuples {
            return Ok(Cow::Borrowed(rel));
        }
        let (schema, words) = (self.schema(id)?.clone(), slot.tuples.words().to_vec());
        Ok(Cow::Owned(if slot.sorted {
            Relation::from_sorted_words(schema, words)?
        } else {
            Relation::from_words(schema, words)?
        }))
    }

    fn exec_step(
        &self,
        step: &Step,
        bound: &Bound,
        cta: usize,
        slots: &mut [Option<RtSlot<'a>>],
        q: &mut KernelQuantities,
        out_words: &mut [Vec<u64>],
    ) -> Result<()> {
        let get = |id: SlotId| -> Result<&RtSlot<'a>> {
            slots[id.0]
                .as_ref()
                .ok_or_else(|| IrError::validation(format!("slot {id} empty at runtime")))
        };

        // -O0 local-memory spills: unoptimized code round-trips each step's
        // working values through local memory (global DRAM).
        if self.opt == OptLevel::O0 {
            let processed: u64 = step
                .sources()
                .into_iter()
                .filter_map(|id| slots[id.0].as_ref().map(|s| self.rows(id, s)))
                .sum();
            q.global_bytes_read += processed * O0_SPILL_BYTES;
            q.global_bytes_written += processed * O0_SPILL_BYTES;
        }

        let (dst, written) = match (step, bound) {
            (Step::Load { input, dst }, _) => {
                let rel = self.inputs[*input];
                let arity = rel.schema().arity();
                let (start, end) = self.ranges[cta][*input];
                let words = &rel.words()[start * arity..end * arity];
                check_sorted(rel.schema(), words)?;
                let rows = (end - start) as u64;
                q.global_bytes_read += rows * rel.schema().tuple_bytes() as u64;
                self.charge_write(q, *dst, rows, rows);
                let slot = RtSlot {
                    tuples: Tuples::View(words),
                    sorted: true,
                    lanes: rows,
                };
                (*dst, slot)
            }
            (Step::Filter { src, pred, dst }, Bound::Pred(bound)) => {
                let s = get(*src)?;
                self.charge_read(q, *src, s);
                q.alu_ops += s.lanes * pred.alu_ops();
                let arity = self.info[src.0].arity;
                // At most every source row passes: one allocation, no regrowth.
                let mut rows = Vec::with_capacity(s.tuples.words().len());
                for t in s.tuples.words().chunks_exact(arity) {
                    if bound.eval(t) {
                        rows.extend_from_slice(t);
                    }
                }
                let slot = self.write_rows(q, *dst, Tuples::Rows(rows), s.sorted, s.lanes);
                (*dst, slot)
            }
            (
                Step::Project {
                    src, attrs, dst, ..
                },
                _,
            ) => {
                let s = get(*src)?;
                self.charge_read(q, *src, s);
                q.alu_ops += s.lanes * attrs.len() as u64;
                let schema = self.schema(*src)?;
                let words = s.tuples.words();
                // Projection can make rows that differed compare equal. If
                // such rows can differ in bytes, which of them ends up first
                // depends on the source's order, so restore the canonical
                // one before projecting.
                let canonical;
                let words = if s.sorted || equal_rows_are_identical(schema, words) {
                    words
                } else {
                    canonical = Relation::from_words(schema.clone(), words.to_vec())?;
                    canonical.words()
                };
                let mut rows = Vec::with_capacity(words.len() / schema.arity() * attrs.len());
                for t in words.chunks_exact(schema.arity()) {
                    rows.extend(attrs.iter().map(|&a| t[a]));
                }
                let slot = self.write_rows(q, *dst, Tuples::Rows(rows), false, s.lanes);
                (*dst, slot)
            }
            (
                Step::Compute {
                    src, exprs, dst, ..
                },
                Bound::Exprs(bound),
            ) => {
                let s = get(*src)?;
                self.charge_read(q, *src, s);
                let ops_per_tuple: u64 = exprs.iter().map(|e| e.alu_ops() + 1).sum();
                q.alu_ops += s.lanes * ops_per_tuple;
                let arity = self.info[src.0].arity;
                let words = s.tuples.words();
                let mut rows = Vec::with_capacity(words.len() / arity * bound.len());
                for t in words.chunks_exact(arity) {
                    rows.extend(bound.iter().map(|e| e.eval(t).encode()));
                }
                let slot = self.write_rows(q, *dst, Tuples::Rows(rows), false, s.lanes);
                (*dst, slot)
            }
            (
                Step::Join {
                    left,
                    right,
                    key_len,
                    dst,
                },
                _,
            ) => {
                let (l, r) = (get(*left)?, get(*right)?);
                self.charge_read(q, *left, l);
                self.charge_read(q, *right, r);
                let (l, r) = (self.relation(*left, l)?, self.relation(*right, r)?);
                let rel = ops::join(&l, &r, *key_len)?;
                q.alu_ops += (l.len() + r.len()) as u64 * *key_len as u64 + 2 * rel.len() as u64;
                (*dst, self.write_relation(q, *dst, rel))
            }
            (Step::Product { left, right, dst }, _) => {
                let (l, r) = (get(*left)?, get(*right)?);
                self.charge_read(q, *left, l);
                self.charge_read(q, *right, r);
                let (l, r) = (self.relation(*left, l)?, self.relation(*right, r)?);
                let rel = ops::product(&l, &r)?;
                q.alu_ops += l.len() as u64 + rel.len() as u64;
                (*dst, self.write_relation(q, *dst, rel))
            }
            (
                Step::SemiJoin {
                    left,
                    right,
                    key_len,
                    negated,
                    dst,
                },
                _,
            ) => {
                let (l, r) = (get(*left)?, get(*right)?);
                self.charge_read(q, *left, l);
                self.charge_read(q, *right, r);
                let (l, r) = (self.relation(*left, l)?, self.relation(*right, r)?);
                let rel = if *negated {
                    ops::anti_join(&l, &r, *key_len)?
                } else {
                    ops::semi_join(&l, &r, *key_len)?
                };
                // One binary search per left tuple over the right partition.
                q.alu_ops += l.len() as u64
                    * ((r.len().max(2) as f64).log2().ceil() as u64)
                    * *key_len as u64;
                (*dst, self.write_relation(q, *dst, rel))
            }
            (
                Step::SetOp {
                    kind,
                    left,
                    right,
                    dst,
                },
                _,
            ) => {
                let (l, r) = (get(*left)?, get(*right)?);
                self.charge_read(q, *left, l);
                self.charge_read(q, *right, r);
                let (l, r) = (self.relation(*left, l)?, self.relation(*right, r)?);
                let rel = match kind {
                    SetOpKind::Union => ops::union(&l, &r)?,
                    SetOpKind::Intersect => ops::intersect(&l, &r)?,
                    SetOpKind::Difference => ops::difference(&l, &r)?,
                };
                q.alu_ops += (l.len() + r.len()) as u64 * l.schema().key_arity().max(1) as u64
                    + rel.len() as u64;
                (*dst, self.write_relation(q, *dst, rel))
            }
            (Step::Unique { src, dst }, _) => {
                let s = get(*src)?;
                self.charge_read(q, *src, s);
                let s = self.relation(*src, s)?;
                let rel = ops::unique(&s)?;
                q.alu_ops += s.len() as u64 * s.schema().arity() as u64;
                (*dst, self.write_relation(q, *dst, rel))
            }
            (Step::Compact { src, dst }, _) => {
                let s = get(*src)?;
                self.charge_read(q, *src, s);
                q.alu_ops += 2 * s.lanes; // prefix-sum scan over allocated lanes
                let rows = self.rows(*src, s);
                self.charge_write(q, *dst, rows, rows);
                let slot = RtSlot {
                    tuples: s.tuples.clone(),
                    sorted: s.sorted,
                    lanes: rows,
                };
                (*dst, slot)
            }
            (Step::Barrier, _) => {
                q.barriers += 1;
                return Ok(());
            }
            (Step::Store { src, output }, _) => {
                let s = get(*src)?;
                self.charge_read(q, *src, s);
                q.global_bytes_written += self.rows(*src, s) * self.info[src.0].tuple_bytes;
                out_words[*output].extend_from_slice(s.tuples.words());
                return Ok(());
            }
            (Step::Filter { .. } | Step::Compute { .. }, _) => {
                unreachable!("bind_step binds every Filter and Compute")
            }
        };
        slots[dst.0] = Some(written);
        Ok(())
    }
}

// ---- Global (kernel-dependent) operators ---------------------------------

fn execute_sort(
    op: &GpuOperator,
    attrs: &[usize],
    input: &Relation,
    device: &mut Device,
) -> Result<ExecResult> {
    let out = ops::sort_on(input, attrs)?;
    let kernels = sort_cost(op, input, attrs.len().max(1) as u64, device)?;
    Ok(ExecResult {
        outputs: vec![out],
        resources: KernelResources {
            registers_per_thread: 24,
            shared_per_cta: 4 * 1024,
        },
        kernels,
    })
}

/// CTA size for `op` on `device`: the operator's preferred size, shrunk to
/// the device's hardware limit. This is an explicit code-generation choice
/// (smaller targets like the CPU-via-Ocelot config allow only 64-thread
/// CTAs); the occupancy calculator itself no longer clamps — it reports an
/// oversized launch as infeasible.
fn cta_threads(op: &GpuOperator, device: &Device) -> u32 {
    op.threads_per_cta
        .max(1)
        .min(device.config().max_threads_per_cta)
}

/// CTAs covering `rows` tuples at `threads` (≥ 1) per CTA: at least one,
/// at most CUDA's [`MAX_GRID_CTAS`]. The clamp happens before narrowing to
/// `u32`, so a row count past `u32::MAX` CTAs cannot wrap to a tiny grid.
fn grid_for(rows: u64, threads: u32) -> u32 {
    rows.div_ceil(u64::from(threads))
        .clamp(1, u64::from(MAX_GRID_CTAS)) as u32
}

/// Charge a multi-pass radix sort over `input` and return kernels launched.
fn sort_cost(
    op: &GpuOperator,
    input: &Relation,
    key_attrs: u64,
    device: &mut Device,
) -> Result<u64> {
    let n = input.len() as u64;
    let bytes = input.byte_size() as u64;
    let threads = cta_threads(op, device);
    let grid = grid_for(n, threads);
    let passes = SORT_PASSES_PER_ATTR * key_attrs;
    let res = KernelResources {
        registers_per_thread: 24,
        shared_per_cta: 4 * 1024,
    };
    for pass in 0..passes {
        let q = KernelQuantities {
            global_bytes_read: bytes,
            global_bytes_written: bytes,
            shared_bytes_read: n * 4,
            shared_bytes_written: n * 4,
            alu_ops: 4 * n,
            barriers: 2,
        };
        device.launch(
            format!("{}.sort.pass{pass}", op.label),
            LaunchDims::new(grid, threads),
            res,
            &q,
        )?;
    }
    Ok(passes)
}

fn execute_aggregate(
    op: &GpuOperator,
    group_by: &[usize],
    aggs: &[kw_relational::ops::AggFn],
    input: &Relation,
    device: &mut Device,
) -> Result<ExecResult> {
    let out = ops::aggregate(input, group_by, aggs)?;
    // Phase 1: sort by the group attributes (kernel-dependent phase).
    let mut kernels = if group_by.is_empty() {
        0
    } else {
        sort_cost(op, input, group_by.len() as u64, device)?
    };
    // Phase 2: segmented reduction.
    let n = input.len() as u64;
    let threads = cta_threads(op, device);
    let grid = grid_for(n, threads);
    let alu_per_tuple: u64 = aggs.iter().map(|a| a.alu_ops()).sum::<u64>().max(1);
    let q = KernelQuantities {
        global_bytes_read: input.byte_size() as u64,
        global_bytes_written: out.byte_size() as u64,
        shared_bytes_read: n * 8,
        shared_bytes_written: n * 8,
        alu_ops: n * alu_per_tuple,
        barriers: 2,
    };
    device.launch(
        format!("{}.reduce", op.label),
        LaunchDims::new(grid, threads),
        KernelResources {
            registers_per_thread: 28,
            shared_per_cta: 8 * 1024,
        },
        &q,
    )?;
    kernels += 1;
    Ok(ExecResult {
        outputs: vec![out],
        resources: KernelResources {
            registers_per_thread: 28,
            shared_per_cta: 8 * 1024,
        },
        kernels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PartitionSpec, SlotDecl, SlotId};
    use kw_gpu_sim::DeviceConfig;
    use kw_relational::ops::AggFn;
    use kw_relational::{gen, CmpOp, Predicate, Schema, Value};

    fn device() -> Device {
        Device::new(DeviceConfig::fermi_c2050())
    }

    fn select_op(schema: Schema, pred: Predicate) -> GpuOperator {
        GpuOperator::streaming(
            "select",
            vec![schema],
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
                    pred,
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
    fn grid_for_clamps_and_never_returns_zero() {
        assert_eq!(grid_for(0, 256), 1);
        assert_eq!(grid_for(1, 256), 1);
        assert_eq!(grid_for(257, 256), 2);
        assert_eq!(grid_for(u64::from(MAX_GRID_CTAS), 1), MAX_GRID_CTAS);
        assert_eq!(grid_for(u64::from(MAX_GRID_CTAS) + 1, 1), MAX_GRID_CTAS);
        // 2^32 CTAs would truncate to 0 if narrowed before clamping.
        assert_eq!(grid_for(1 << 32, 1), MAX_GRID_CTAS);
        assert_eq!(grid_for(u64::MAX, 1), MAX_GRID_CTAS);
    }

    #[test]
    fn select_matches_cpu_oracle() {
        let input = gen::micro_input(10_000, 42);
        let pred = Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 2));
        let op = select_op(input.schema().clone(), pred.clone());
        let mut dev = device();
        let result = execute(&op, &[&input], &mut dev, OptLevel::O3).unwrap();
        let oracle = ops::select(&input, &pred).unwrap();
        assert_eq!(result.outputs[0], oracle);
        assert_eq!(result.kernels, 3);
        assert_eq!(dev.stats().kernel_launches, 3);
        assert!(dev.stats().global_bytes_read >= input.byte_size() as u64);
    }

    #[test]
    fn join_key_range_matches_cpu_oracle() {
        let (l, r) = gen::join_inputs(5_000, 2, 0.5, 7);
        let op = GpuOperator::streaming(
            "join",
            vec![l.schema().clone(), r.schema().clone()],
            1,
            vec![
                SlotDecl::new("l", Space::Shared),
                SlotDecl::new("r", Space::Shared),
                SlotDecl::new("o", Space::Shared),
            ],
            vec![
                Step::Load {
                    input: 0,
                    dst: SlotId(0),
                },
                Step::Load {
                    input: 1,
                    dst: SlotId(1),
                },
                Step::Barrier,
                Step::Join {
                    left: SlotId(0),
                    right: SlotId(1),
                    key_len: 1,
                    dst: SlotId(2),
                },
                Step::Barrier,
                Step::Store {
                    src: SlotId(2),
                    output: 0,
                },
            ],
            PartitionSpec::KeyRange {
                pivot: 0,
                key_len: 1,
            },
        );
        let mut dev = device();
        let result = execute(&op, &[&l, &r], &mut dev, OptLevel::O3).unwrap();
        let oracle = ops::join(&l, &r, 1).unwrap();
        assert_eq!(result.outputs[0], oracle);
        assert!(dev.stats().shared_bytes_written > 0);
        assert!(dev.stats().barriers > 0);
    }

    #[test]
    fn join_with_heavy_duplicates_stays_correct() {
        // Heavy key duplication stresses run-aligned partitioning.
        let schema = Schema::uniform_u32(2);
        let mut r = gen::rng(3);
        use rand::Rng;
        let words: Vec<u64> = (0..4000)
            .flat_map(|_| vec![u64::from(r.gen_range(0..20u32)), u64::from(r.gen::<u32>())])
            .collect();
        let left = Relation::from_words(schema.clone(), words.clone()).unwrap();
        let right = Relation::from_words(schema.clone(), words[..2000].to_vec()).unwrap();
        let op = GpuOperator::streaming(
            "join",
            vec![schema.clone(), schema],
            1,
            vec![
                SlotDecl::new("l", Space::Shared),
                SlotDecl::new("r", Space::Shared),
                SlotDecl::new("o", Space::Shared),
            ],
            vec![
                Step::Load {
                    input: 0,
                    dst: SlotId(0),
                },
                Step::Load {
                    input: 1,
                    dst: SlotId(1),
                },
                Step::Barrier,
                Step::Join {
                    left: SlotId(0),
                    right: SlotId(1),
                    key_len: 1,
                    dst: SlotId(2),
                },
                Step::Barrier,
                Step::Store {
                    src: SlotId(2),
                    output: 0,
                },
            ],
            PartitionSpec::KeyRange {
                pivot: 0,
                key_len: 1,
            },
        );
        let mut dev = device();
        let result = execute(&op, &[&left, &right], &mut dev, OptLevel::O3).unwrap();
        let oracle = ops::join(&left, &right, 1).unwrap();
        assert_eq!(result.outputs[0], oracle);
    }

    #[test]
    fn o0_spills_registers_to_global() {
        let input = gen::micro_input(10_000, 11);
        let pred = Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 2));
        let op = select_op(input.schema().clone(), pred);

        let mut d3 = device();
        execute(&op, &[&input], &mut d3, OptLevel::O3).unwrap();
        let mut d0 = device();
        execute(&op, &[&input], &mut d0, OptLevel::O0).unwrap();

        assert!(d0.stats().global_bytes() > d3.stats().global_bytes());
        assert!(d0.stats().gpu_cycles > d3.stats().gpu_cycles);
        // Results identical regardless of optimization level.
    }

    #[test]
    fn sort_matches_oracle_and_launches_passes() {
        let input = gen::micro_input(5_000, 9);
        let op = GpuOperator::global_sort("sort", input.schema().clone(), vec![2]);
        let mut dev = device();
        let result = execute(&op, &[&input], &mut dev, OptLevel::O3).unwrap();
        assert_eq!(result.outputs[0], ops::sort_on(&input, &[2]).unwrap());
        assert_eq!(dev.stats().kernel_launches, SORT_PASSES_PER_ATTR);
    }

    #[test]
    fn aggregate_matches_oracle() {
        let schema = Schema::uniform_u32(2);
        let mut r = gen::rng(5);
        use rand::Rng;
        let words: Vec<u64> = (0..3000)
            .flat_map(|_| {
                vec![
                    u64::from(r.gen_range(0..10u32)),
                    u64::from(r.gen_range(0..100u32)),
                ]
            })
            .collect();
        let input = Relation::from_words(schema.clone(), words).unwrap();
        let op = GpuOperator::global_aggregate(
            "agg",
            schema,
            vec![0],
            vec![AggFn::Sum(1), AggFn::Count],
        );
        let mut dev = device();
        let result = execute(&op, &[&input], &mut dev, OptLevel::O3).unwrap();
        let oracle = ops::aggregate(&input, &[0], &[AggFn::Sum(1), AggFn::Count]).unwrap();
        assert_eq!(result.outputs[0], oracle);
        assert!(dev.stats().kernel_launches > SORT_PASSES_PER_ATTR);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let input = gen::micro_input(100, 1);
        let op = select_op(Schema::uniform_u32(2), Predicate::True);
        let mut dev = device();
        assert!(execute(&op, &[&input], &mut dev, OptLevel::O3).is_err());
    }

    #[test]
    fn empty_input_works() {
        let schema = Schema::uniform_u32(4);
        let empty = Relation::empty(schema.clone());
        let op = select_op(schema, Predicate::True);
        let mut dev = device();
        let result = execute(&op, &[&empty], &mut dev, OptLevel::O3).unwrap();
        assert!(result.outputs[0].is_empty());
    }

    #[test]
    fn replicate_right_product() {
        let l = gen::micro_input(500, 2);
        let r = gen::micro_input(40, 3);
        let op = GpuOperator::streaming(
            "product",
            vec![l.schema().clone(), r.schema().clone()],
            1,
            vec![
                SlotDecl::new("l", Space::Shared),
                SlotDecl::new("r", Space::Shared),
                SlotDecl::new("o", Space::Shared),
            ],
            vec![
                Step::Load {
                    input: 0,
                    dst: SlotId(0),
                },
                Step::Load {
                    input: 1,
                    dst: SlotId(1),
                },
                Step::Barrier,
                Step::Product {
                    left: SlotId(0),
                    right: SlotId(1),
                    dst: SlotId(2),
                },
                Step::Barrier,
                Step::Store {
                    src: SlotId(2),
                    output: 0,
                },
            ],
            PartitionSpec::ReplicateRight,
        );
        let mut dev = device();
        let result = execute(&op, &[&l, &r], &mut dev, OptLevel::O3).unwrap();
        assert_eq!(result.outputs[0], ops::product(&l, &r).unwrap());
    }
}
