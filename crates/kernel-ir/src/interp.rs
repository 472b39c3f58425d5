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
//! ## Host execution: borrowed slots, order carried by type
//!
//! The compute stage runs the step list once per CTA. Slots are
//! single-assignment, so steps read them by reference:
//!
//! * **Load** borrows the CTA's input range as a [`RelView`], a sub-slice of
//!   the input relation's view: canonical by construction, so neither
//!   copied nor checked;
//! * the thread-dependent steps — Filter, Project, Compute, Compact and
//!   Store — write word buffers. Filter and Compute bind their
//!   predicate or expressions once per operator and evaluate them once per
//!   CTA block ([`BoundPredicate::eval_block`],
//!   [`BoundExpr::eval_block_into`]): each node runs over all of the CTA's
//!   rows before its parent, the way the fused kernel runs each instruction
//!   across a CTA's threads. Filter then compacts, as the kernel's stream
//!   compaction does: its pass flags become the passing rows' positions,
//!   and each passing row is copied once into a buffer of exactly their size
//!   ([`keep_rows`]). Project and Compute size their output rows up front:
//!   Project appends each row to a buffer reserved for all of them, and
//!   each of Compute's expressions writes its own column into the rows.
//!   Compact and Store take their source's rows when they are the last
//!   step to read that slot, and copy them otherwise;
//! * only the CTA-dependent steps — Join, SemiJoin, SetOp, Unique and
//!   Product — read a slot as a canonical [`RelView`] and call the same
//!   `kw_relational::ops` function a step-at-a-time interpreter would.
//!
//! A slot's order is its type. Load lends a view of the input, and a
//! CTA-dependent step's result is a [`Relation`]; a Filter of either keeps
//! the rows that pass as a relation too ([`RelView::filter`]), and Compact
//! keeps its source's form. All of these are canonical without a check.
//! Project and Compute write plain rows. Canonical rows are exactly the
//! relation a step-at-a-time interpreter would hold; plain rows are the
//! same multiset, and `Relation::from_words` turns them into that relation,
//! because canonical order is full-tuple order and rows that compare equal
//! are bit-identical (Project restores canonical order first for the one
//! exception, F32 words with high bits set). Canonical order is therefore
//! restored in two places only: when a CTA-dependent step reads plain rows,
//! and once per output and range of CTAs (below). Every [`KernelQuantities`]
//! charge comes from counts (rows, lanes, tuple bytes), so none depends on
//! how the host represents a slot.
//!
//! ## Host threads: CTA ranges, merged at the gather
//!
//! As in the paper's skeleton, no CTA of the compute stage reads another's
//! results, so the host runs a large grid's CTAs on several threads: at
//! most one per hardware thread (read once per process), one per
//! [`MIN_ROWS_PER_WORKER`] pivot rows and one per CTA. The calling thread
//! is the first worker and `std::thread::scope` threads the others; a
//! worker whose thread cannot start runs on the calling thread. Workers
//! share the grid in pairs: each pair's block of CTAs is taken one CTA at
//! a time, by one worker from the front and by the other from the back. So
//! each worker's CTAs form one contiguous range, and a worker whose core
//! runs faster (on a shared host one core of a machine can run 1.5× slower
//! than the other) takes more of them instead of waiting for the slower
//! one.
//! Each worker keeps its own slots and [`KernelQuantities`], and Store
//! collects each CTA's rows per output in the order the worker took the
//! CTAs. At the end of its range every output is written once, in CTA
//! order (a worker that took its CTAs from the back reverses its parts
//! first), into a buffer of its exact size and sorted into a canonical
//! relation. The calling thread waits for the other workers awake rather
//! than asleep, as a sleeping thread can take milliseconds to be
//! scheduled again on a busy virtual machine. The
//! gather sums the ranges' quantities and merges each output's parts with
//! [`Relation::merge`], a stable merge in which the earlier range wins
//! ties, which is exactly the stable sort of the concatenated CTA results
//! a single thread would make. No device call moves, so outputs, charges,
//! spans and simulated times do not depend on the number of workers or on
//! where their ranges meet. A failure ends the call as the serial loop
//! over the CTAs would: the lowest failing CTA's error is returned, and
//! its panic resumes on the caller. Small grids (fewer than two workers'
//! worth of rows) run on the calling thread alone.
//!
//! ## Divergence model
//!
//! Runtime slots carry a *lane count* alongside their tuples: the number of
//! thread lanes occupied. A filter into registers keeps its input's lanes
//! (threads whose tuple failed the predicate idle but stay allocated — the
//! Figure 20 effect), while stream compaction re-densifies lanes at the
//! price of shared-memory traffic and a prefix sum.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;

use kw_gpu_sim::{Device, KernelQuantities, KernelResources, LaunchDims};
use kw_relational::{
    equal_rows_are_identical, keep_rows, ops, BoundExpr, BoundPredicate, RelView, Relation, Schema,
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
/// Returns [`IrError`] for an invalid device configuration
/// ([`kw_gpu_sim::DeviceConfig::validate`], checked before any device
/// operation), invalid IR, schema-mismatched inputs, or device failures (out
/// of memory, infeasible launch).
pub fn execute(
    op: &GpuOperator,
    inputs: &[&Relation],
    device: &mut Device,
    opt: OptLevel,
) -> Result<ExecResult> {
    execute_with_workers(op, inputs, device, opt, None)
}

/// [`execute`] with a streaming operator's CTAs split over `workers` host
/// threads, or over as many as [`workers_for`] picks when `None`.
pub(crate) fn execute_with_workers(
    op: &GpuOperator,
    inputs: &[&Relation],
    device: &mut Device,
    opt: OptLevel,
    workers: Option<usize>,
) -> Result<ExecResult> {
    device.config().validate()?;
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
        } => execute_streaming(
            op, steps, *partition, inputs, &inferred, device, opt, workers,
        ),
        OperatorBody::GlobalSort { attrs } => execute_sort(op, attrs, inputs[0], device),
        OperatorBody::GlobalAggregate { group_by, aggs } => {
            execute_aggregate(op, group_by, aggs, inputs[0], device)
        }
    }
}

/// The tuples a runtime slot holds for one CTA. The first two forms are
/// in canonical order: exactly the relation a step-at-a-time interpreter
/// would hold here.
#[derive(Debug, Clone)]
enum Tuples<'a> {
    /// A range of an operator input, borrowed (Load).
    Input(RelView<'a>),
    /// Canonical rows a step produced: a CTA-dependent step's result, or
    /// the canonical rows that passed a Filter.
    Canonical(Relation),
    /// The same multiset in another order (Project, Compute and the
    /// Filters and Compacts of their rows); `Relation::from_words`
    /// restores the relation.
    Rows(Vec<u64>),
}

impl Tuples<'_> {
    fn words(&self) -> &[u64] {
        match self {
            Tuples::Input(v) => v.words(),
            Tuples::Canonical(r) => r.words(),
            Tuples::Rows(w) => w,
        }
    }

    /// The tuples as a canonical view, unless they are plain rows.
    fn view(&self) -> Option<RelView<'_>> {
        match self {
            Tuples::Input(v) => Some(*v),
            Tuples::Canonical(r) => Some(r.view()),
            Tuples::Rows(_) => None,
        }
    }
}

/// A runtime slot: one CTA's tuples and the occupied lane count.
#[derive(Debug, Clone)]
struct RtSlot<'a> {
    tuples: Tuples<'a>,
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

/// Everything the compute stage shares across CTAs, and across the host
/// threads that run them.
struct Stage<'a, 's> {
    inputs: &'s [&'a Relation],
    ranges: &'s [Vec<(usize, usize)>],
    steps: &'s [Step],
    bound: Vec<Bound>,
    info: Vec<SlotInfo<'s>>,
    /// Per slot, the index of the last step that reads it.
    last_read: Vec<Option<usize>>,
    /// The schema of each output.
    outputs: Vec<&'s Schema>,
    opt: OptLevel,
}

/// What one contiguous range of CTAs produced: its work quantities and, per
/// output, its rows as a canonical relation.
struct RangeRun {
    q: KernelQuantities,
    outputs: Vec<Relation>,
}

/// Fewest pivot rows per host worker thread. The value keeps operators of
/// 16,384 rows and fewer (the query service's, the ad-hoc plans' and
/// out-of-core chunks) on the calling thread, while TPC-H's 96,000-row
/// operators split. The thread's own cost would allow far fewer rows: on a
/// 2-vCPU Intel Xeon virtual machine a scoped thread's start and join took
/// 39–51 µs, about what 250 rows of TPC-H Q1's fused operator take. But at
/// 8,192 rows, which splits the service's operators, the repo benchmark's
/// `service_open_loop` served 6–9% fewer requests per second, and
/// `tpch_analytics` read no resolved difference.
const MIN_ROWS_PER_WORKER: usize = 32_768;

/// The host's hardware threads, read once per process: asking on every
/// operator call costs more than a small operator's whole run.
fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Host workers for a grid of `grid` CTAs over `pivot_rows` pivot rows:
/// at most one per hardware thread, per [`MIN_ROWS_PER_WORKER`] rows and per
/// CTA, and at least one.
fn workers_for(pivot_rows: usize, grid: usize) -> usize {
    host_threads()
        .min(pivot_rows / MIN_ROWS_PER_WORKER)
        .min(grid)
        .max(1)
}

/// CTAs shared by at most two workers: one takes them one at a time from
/// the front and the other from the back. Each worker's CTAs therefore stay
/// one contiguous range, while the faster worker takes more of them.
struct Block {
    ctas: Range<usize>,
    /// CTAs taken from either end so far.
    taken: AtomicUsize,
}

/// The CTAs one worker takes from one end of a [`Block`], in the order it
/// takes them: ascending from the front, descending from the back.
struct Claims<'b> {
    block: &'b Block,
    from_back: bool,
    /// CTAs this worker has taken.
    taken: usize,
}

impl Iterator for Claims<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let ctas = &self.block.ctas;
        if self.block.taken.fetch_add(1, Ordering::Relaxed) >= ctas.len() {
            return None;
        }
        self.taken += 1;
        Some(if self.from_back {
            ctas.end - self.taken
        } else {
            ctas.start + self.taken - 1
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.block.ctas.len() - self.taken))
    }
}

/// Run CTAs `0..grid` on `workers` workers, each over the CTAs of one
/// contiguous range, in the order it takes them. One worker takes
/// `0..grid` in order. More take [`Claims`]: worker `w` works block
/// `w / 2`, from the front when `w` is even and from the back when it is
/// odd, and each block holds an equal share of CTAs per worker. The
/// calling thread is worker 0 and scoped threads are the rest; a worker
/// whose thread cannot start runs on the calling thread after worker 0.
/// The result is every worker's value in the order of their ranges, or the
/// outcome of the lowest range that failed, as a serial loop over the CTAs
/// would end: its error is returned and its panic resumes on the caller. A
/// worker stops at its first failing CTA while the other worker of its
/// block goes on taking CTAs, so every CTA below the lowest failing one
/// runs, and the lowest failing range holds the lowest failing CTA.
fn in_ranges<T: Send>(
    grid: usize,
    workers: usize,
    run: impl Fn(&mut dyn Iterator<Item = usize>) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let workers = workers.clamp(1, grid.max(1));
    if workers == 1 {
        return Ok(vec![run(&mut (0..grid))?]);
    }
    let blocks: Vec<Block> = (0..workers.div_ceil(2))
        .map(|b| Block {
            ctas: 2 * b * grid / workers..(2 * b + 2).min(workers) * grid / workers,
            taken: AtomicUsize::new(0),
        })
        .collect();
    let claims = |w: usize| Claims {
        block: &blocks[w / 2],
        from_back: w % 2 == 1,
        taken: 0,
    };
    let outcomes: Vec<Mutex<Option<thread::Result<Result<T>>>>> =
        (0..workers).map(|_| Mutex::new(None)).collect();
    let work = |w: usize| {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| run(&mut claims(w))));
        *outcomes[w].lock().expect("no lock holder panics") = Some(outcome);
    };
    let finished = AtomicUsize::new(0);
    thread::scope(|scope| {
        let (work, finished) = (&work, &finished);
        let unstarted: Vec<usize> = (1..workers)
            .filter(|&w| {
                let spawned = thread::Builder::new().spawn_scoped(scope, move || {
                    work(w);
                    finished.fetch_add(1, Ordering::Release);
                });
                spawned.is_err()
            })
            .collect();
        work(0);
        for &w in &unstarted {
            work(w);
        }
        // Wait for the other workers awake, not asleep in a join: a thread
        // that sleeps until a worker exits can take milliseconds to be
        // scheduled again on a busy virtual machine. The workers take CTAs
        // one at a time, so they end together and the wait is short. A
        // worker counts itself finished (Release) after storing its
        // outcome, panic included, and this load (Acquire) pairs with it;
        // the scope then waits for each worker to return.
        while finished.load(Ordering::Acquire) + unstarted.len() + 1 < workers {
            thread::yield_now();
        }
    });
    let mut values = Vec::with_capacity(workers);
    for outcome in outcomes {
        match outcome.into_inner().expect("no lock holder panics") {
            Some(Ok(Ok(value))) => values.push(value),
            Some(Ok(Err(e))) => return Err(e),
            Some(Err(panic)) => panic::resume_unwind(panic),
            None => unreachable!("every worker ran before the scope ended"),
        }
    }
    Ok(values)
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
    workers: Option<usize>,
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
        steps,
        bound: steps
            .iter()
            .map(|step| bind_step(step, inferred))
            .collect::<Result<_>>()?,
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
        last_read: last_reads(steps, decls.len()),
        outputs: inferred
            .outputs
            .iter()
            .enumerate()
            .map(|(i, schema)| {
                schema
                    .as_ref()
                    .ok_or_else(|| IrError::validation(format!("output {i} never stored")))
            })
            .collect::<Result<_>>()?,
        opt,
    };
    let workers = workers.unwrap_or_else(|| workers_for(n_pivot, grid as usize));
    let runs = in_ranges(grid as usize, workers, |ctas| stage.run_range(ctas))?;
    let mut q = KernelQuantities::default();
    for run in &runs {
        q.merge(&run.q);
    }
    device.launch(format!("{}.compute", op.label), dims, resources, &q)?;

    // ---- Gather stage ----------------------------------------------------
    // The compute stage keeps each CTA's results on chip and records their
    // sizes; gather prefix-sums the size array and performs the (single)
    // dense global write — which the Store steps above already charged. The
    // gather kernel itself only touches the per-CTA size array. Each CTA
    // range sorted its own rows, so merging the ranges' parts restores
    // canonical order.
    let mut parts: Vec<Vec<Relation>> = (0..op.outputs)
        .map(|_| Vec::with_capacity(runs.len()))
        .collect();
    for run in runs {
        for (part, rel) in parts.iter_mut().zip(run.outputs) {
            part.push(rel);
        }
    }
    let mut outputs = Vec::with_capacity(op.outputs);
    let mut gq = KernelQuantities::default();
    for (part, schema) in parts.into_iter().zip(&stage.outputs) {
        gq.global_bytes_read += u64::from(grid) * 8;
        gq.global_bytes_written += u64::from(grid) * 8;
        gq.alu_ops += u64::from(grid); // prefix sum over CTA result sizes
        outputs.push(Relation::merge((*schema).clone(), part)?);
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

/// For each of `slots` slots, the index of the last step that reads it.
fn last_reads(steps: &[Step], slots: usize) -> Vec<Option<usize>> {
    let mut last = vec![None; slots];
    for (index, step) in steps.iter().enumerate() {
        for src in step.sources() {
            last[src.0] = Some(index);
        }
    }
    last
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
    /// Run the step list over the CTAs `ctas` yields, then write each
    /// output's rows once, in CTA order, into a buffer of exactly their
    /// size, and sort them.
    fn run_range(&self, ctas: &mut dyn Iterator<Item = usize>) -> Result<RangeRun> {
        let mut q = KernelQuantities::default();
        let most = ctas.size_hint().1.unwrap_or(0);
        let mut stored: Vec<Vec<Tuples<'a>>> = (0..self.outputs.len())
            .map(|_| Vec::with_capacity(most))
            .collect();
        let mut slots: Vec<Option<RtSlot>> = Vec::with_capacity(self.info.len());
        let (mut first, mut last) = (None, 0);
        for cta in ctas {
            first.get_or_insert(cta);
            last = cta;
            slots.clear();
            slots.resize(self.info.len(), None);
            for (index, (step, bound)) in self.steps.iter().zip(&self.bound).enumerate() {
                self.exec_step(index, step, bound, cta, &mut slots, &mut q, &mut stored)?;
            }
        }
        // Store kept each output's parts in the order the CTAs were taken,
        // which a worker at the back of its block took last first.
        let descended = first.is_some_and(|first| last < first);
        let outputs = stored
            .into_iter()
            .zip(&self.outputs)
            .map(|(mut parts, schema)| {
                if descended {
                    parts.reverse();
                }
                let mut words = Vec::with_capacity(parts.iter().map(|t| t.words().len()).sum());
                for part in parts {
                    words.extend_from_slice(part.words());
                }
                Relation::from_words((*schema).clone(), words)
            })
            .collect::<kw_relational::Result<_>>()?;
        Ok(RangeRun { q, outputs })
    }

    /// The tuples of slot `src` for the step at `index`: taken when that
    /// step is the slot's last reader, copied otherwise.
    fn take_or_copy(
        &self,
        index: usize,
        src: SlotId,
        slots: &mut [Option<RtSlot<'a>>],
    ) -> Tuples<'a> {
        let slot = &mut slots[src.0];
        if self.last_read[src.0] == Some(index) {
            slot.take().expect("read by the step").tuples
        } else {
            slot.as_ref().expect("read by the step").tuples.clone()
        }
    }

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
        src_lanes: u64,
    ) -> RtSlot<'a> {
        let rows = (tuples.words().len() / self.info[dst.0].arity) as u64;
        let lanes = if self.info[dst.0].space == Space::Register {
            src_lanes
        } else {
            rows
        };
        self.charge_write(q, dst, rows, lanes);
        RtSlot { tuples, lanes }
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
            tuples: Tuples::Canonical(rel),
            lanes,
        }
    }

    /// Slot `id` as a canonical view, for a CTA-dependent step: canonical
    /// tuples are lent as they are; plain rows are sorted once, into
    /// `sorted`.
    fn view<'r>(
        &self,
        id: SlotId,
        slot: &'r RtSlot,
        sorted: &'r mut Option<Relation>,
    ) -> Result<RelView<'r>> {
        if let Some(view) = slot.tuples.view() {
            return Ok(view);
        }
        let rel = Relation::from_words(self.schema(id)?.clone(), slot.tuples.words().to_vec())?;
        Ok(sorted.insert(rel).view())
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_step(
        &self,
        index: usize,
        step: &Step,
        bound: &Bound,
        cta: usize,
        slots: &mut [Option<RtSlot<'a>>],
        q: &mut KernelQuantities,
        stored: &mut [Vec<Tuples<'a>>],
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
                .filter_map(|id| slots[id.0].as_ref().map(|s| self.rows(id, s)))
                .sum();
            q.global_bytes_read += processed * O0_SPILL_BYTES;
            q.global_bytes_written += processed * O0_SPILL_BYTES;
        }

        let (dst, written) = match (step, bound) {
            (Step::Load { input, dst }, _) => {
                let (start, end) = self.ranges[cta][*input];
                let view = self.inputs[*input].view().slice(start, end);
                let rows = (end - start) as u64;
                q.global_bytes_read += rows * view.schema().tuple_bytes() as u64;
                self.charge_write(q, *dst, rows, rows);
                let slot = RtSlot {
                    tuples: Tuples::Input(view),
                    lanes: rows,
                };
                (*dst, slot)
            }
            (Step::Filter { src, pred, dst }, Bound::Pred(bound)) => {
                let s = get(*src)?;
                self.charge_read(q, *src, s);
                q.alu_ops += s.lanes * pred.alu_ops();
                let arity = self.info[src.0].arity;
                let words = s.tuples.words();
                let pass = bound.eval_block(words, arity);
                let tuples = match s.tuples.view() {
                    Some(view) => Tuples::Canonical(view.filter(&pass)),
                    None => Tuples::Rows(keep_rows(words, arity, &pass)),
                };
                let slot = self.write_rows(q, *dst, tuples, s.lanes);
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
                let words = if s.tuples.view().is_some() || equal_rows_are_identical(schema, words)
                {
                    words
                } else {
                    canonical = Relation::from_words(schema.clone(), words.to_vec())?;
                    canonical.words()
                };
                // Reserved up front and filled row by row: zero-filling a
                // pre-sized buffer first costs more on short CTA blocks.
                let mut rows = Vec::with_capacity(words.len() / schema.arity() * attrs.len());
                for t in words.chunks_exact(schema.arity()) {
                    rows.extend(attrs.iter().map(|&a| t[a]));
                }
                let slot = self.write_rows(q, *dst, Tuples::Rows(rows), s.lanes);
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
                let width = bound.len();
                let mut rows = vec![0; words.len() / arity * width];
                for (col, e) in bound.iter().enumerate() {
                    e.eval_block_into(words, arity, &mut rows, width, col);
                }
                let slot = self.write_rows(q, *dst, Tuples::Rows(rows), s.lanes);
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
                let (mut ls, mut rs) = (None, None);
                let (l, r) = (
                    self.view(*left, l, &mut ls)?,
                    self.view(*right, r, &mut rs)?,
                );
                let rel = ops::join(l, r, *key_len)?;
                q.alu_ops += (l.len() + r.len()) as u64 * *key_len as u64 + 2 * rel.len() as u64;
                (*dst, self.write_relation(q, *dst, rel))
            }
            (Step::Product { left, right, dst }, _) => {
                let (l, r) = (get(*left)?, get(*right)?);
                self.charge_read(q, *left, l);
                self.charge_read(q, *right, r);
                let (mut ls, mut rs) = (None, None);
                let (l, r) = (
                    self.view(*left, l, &mut ls)?,
                    self.view(*right, r, &mut rs)?,
                );
                let rel = ops::product(l, r)?;
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
                let (mut ls, mut rs) = (None, None);
                let (l, r) = (
                    self.view(*left, l, &mut ls)?,
                    self.view(*right, r, &mut rs)?,
                );
                let rel = if *negated {
                    ops::anti_join(l, r, *key_len)?
                } else {
                    ops::semi_join(l, r, *key_len)?
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
                let (mut ls, mut rs) = (None, None);
                let (l, r) = (
                    self.view(*left, l, &mut ls)?,
                    self.view(*right, r, &mut rs)?,
                );
                let rel = match kind {
                    SetOpKind::Union => ops::union(l, r)?,
                    SetOpKind::Intersect => ops::intersect(l, r)?,
                    SetOpKind::Difference => ops::difference(l, r)?,
                };
                q.alu_ops += (l.len() + r.len()) as u64 * l.schema().key_arity().max(1) as u64
                    + rel.len() as u64;
                (*dst, self.write_relation(q, *dst, rel))
            }
            (Step::Unique { src, dst }, _) => {
                let s = get(*src)?;
                self.charge_read(q, *src, s);
                let mut sorted = None;
                let s = self.view(*src, s, &mut sorted)?;
                let rel = ops::unique(s)?;
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
                    tuples: self.take_or_copy(index, *src, slots),
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
                let tuples = self.take_or_copy(index, *src, slots);
                stored[*output].push(tuples);
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
    use kw_relational::{gen, AttrType, CmpOp, Expr, Predicate, Schema, Value};
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

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
    fn compact_copies_a_source_that_a_later_step_reads() {
        // The Compact's source is stored after it, and the first Store's
        // source is stored again, so both must copy their source's rows
        // rather than take them.
        let input = gen::micro_input(5_000, 21);
        let pred = Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 3));
        let mut op = select_op(input.schema().clone(), pred.clone());
        op.outputs = 3;
        let OperatorBody::Streaming { steps, .. } = &mut op.body else {
            unreachable!("select_op is streaming")
        };
        steps.push(Step::Store {
            src: SlotId(1),
            output: 1,
        });
        steps.push(Step::Store {
            src: SlotId(2),
            output: 2,
        });
        assert_eq!(last_reads(steps, 3), vec![Some(1), Some(5), Some(6)]);
        let oracle = ops::select(&input, &pred).unwrap();
        for opt in [OptLevel::O0, OptLevel::O3] {
            let result = execute(&op, &[&input], &mut device(), opt).unwrap();
            assert_eq!(result.outputs, vec![oracle.clone(); 3]);
        }
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

    /// What one run of an operator leaves behind: its outputs, its kernel
    /// count, and the device's stats and spans.
    type Run = (
        Vec<Relation>,
        u64,
        kw_gpu_sim::SimStats,
        Vec<kw_gpu_sim::Span>,
    );

    fn run_at(op: &GpuOperator, inputs: &[&Relation], opt: OptLevel, workers: usize) -> Run {
        let mut dev = device();
        let result = execute_with_workers(op, inputs, &mut dev, opt, Some(workers)).unwrap();
        (
            result.outputs,
            result.kernels,
            *dev.stats(),
            dev.spans().to_vec(),
        )
    }

    /// Run `op` at 1, 2 and 3 host workers and at one more than its CTAs,
    /// at `-O0` and `-O3`: every run must equal the one-worker run. Returns
    /// the one-worker `-O3` outputs.
    fn assert_split_is_invisible(op: &GpuOperator, inputs: &[&Relation]) -> Vec<Relation> {
        let pivot = match op.body {
            OperatorBody::Streaming {
                partition: PartitionSpec::KeyRange { pivot, .. },
                ..
            } => pivot,
            _ => 0,
        };
        let grid = grid_for(inputs[pivot].len() as u64, op.threads_per_cta) as usize;
        assert!(grid >= 4, "{}: {grid} CTAs split trivially", op.label);
        let mut outputs = Vec::new();
        for opt in [OptLevel::O0, OptLevel::O3] {
            let serial = run_at(op, inputs, opt, 1);
            for workers in [2, 3, grid + 1] {
                let split = run_at(op, inputs, opt, workers);
                assert!(
                    split == serial,
                    "{} at {workers} workers, {opt:?}, differs from one worker",
                    op.label
                );
            }
            outputs = serial.0;
        }
        outputs
    }

    fn slots(spaces: &[Space]) -> Vec<SlotDecl> {
        spaces
            .iter()
            .enumerate()
            .map(|(i, &space)| SlotDecl::new(format!("s{i}"), space))
            .collect()
    }

    /// Load both inputs into shared memory, apply `step` (slots 0 and 1 to
    /// slot 2) and store slot 2.
    fn binary_op(l: &Relation, r: &Relation, step: Step, partition: PartitionSpec) -> GpuOperator {
        GpuOperator::streaming(
            "binary",
            vec![l.schema().clone(), r.schema().clone()],
            1,
            slots(&[Space::Shared; 3]),
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
                step,
                Step::Barrier,
                Step::Store {
                    src: SlotId(2),
                    output: 0,
                },
            ],
            partition,
        )
    }

    #[test]
    fn split_fused_select_project_compute_chain() {
        let input = gen::micro_input(5_000, 3);
        let pred = Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 3));
        let op = GpuOperator::streaming(
            "chain",
            vec![input.schema().clone()],
            1,
            slots(&[
                Space::Register,
                Space::Register,
                Space::Register,
                Space::Register,
                Space::Shared,
            ]),
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
                Step::Project {
                    src: SlotId(1),
                    attrs: vec![2, 0],
                    key_arity: 1,
                    dst: SlotId(2),
                },
                Step::Compute {
                    src: SlotId(2),
                    exprs: vec![
                        Expr::attr(0).div(Expr::lit(u32::MAX / 7)),
                        Expr::attr(1).add(Expr::attr(0)),
                    ],
                    key_arity: 1,
                    dst: SlotId(3),
                },
                Step::Compact {
                    src: SlotId(3),
                    dst: SlotId(4),
                },
                Step::Barrier,
                Step::Store {
                    src: SlotId(4),
                    output: 0,
                },
            ],
            PartitionSpec::Even,
        );
        assert_split_is_invisible(&op, &[&input]);
    }

    #[test]
    fn split_key_range_join() {
        let (l, r) = gen::join_inputs(5_000, 2, 0.5, 7);
        let step = Step::Join {
            left: SlotId(0),
            right: SlotId(1),
            key_len: 1,
            dst: SlotId(2),
        };
        let partition = PartitionSpec::KeyRange {
            pivot: 0,
            key_len: 1,
        };
        let outputs = assert_split_is_invisible(&binary_op(&l, &r, step, partition), &[&l, &r]);
        assert_eq!(outputs, vec![ops::join(&l, &r, 1).unwrap()]);
    }

    #[test]
    fn split_unique() {
        // Projecting to one narrow column leaves many duplicates per CTA.
        let input = gen::micro_input(5_000, 5);
        let op = GpuOperator::streaming(
            "unique",
            vec![input.schema().clone()],
            1,
            slots(&[Space::Register, Space::Shared, Space::Shared]),
            vec![
                Step::Load {
                    input: 0,
                    dst: SlotId(0),
                },
                Step::Compute {
                    src: SlotId(0),
                    exprs: vec![Expr::attr(1).div(Expr::lit(u32::MAX / 16))],
                    key_arity: 1,
                    dst: SlotId(1),
                },
                Step::Barrier,
                Step::Unique {
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
        );
        let outputs = assert_split_is_invisible(&op, &[&input]);
        // Every CTA keeps its own distinct values, so the merge sees many
        // ties across ranges.
        assert!(outputs[0].len() > 16);
    }

    #[test]
    fn split_two_output_pattern_d() {
        // Pattern (d): two selections of one shared input, fused into one
        // operator with one Load and two outputs.
        let input = gen::micro_input(5_000, 13);
        let (p0, p1) = (
            Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 2)),
            Predicate::cmp(2, CmpOp::Ge, Value::U32(u32::MAX / 4)),
        );
        let op = GpuOperator::streaming(
            "pattern_d",
            vec![input.schema().clone()],
            2,
            slots(&[
                Space::Register,
                Space::Register,
                Space::Shared,
                Space::Register,
                Space::Shared,
            ]),
            vec![
                Step::Load {
                    input: 0,
                    dst: SlotId(0),
                },
                Step::Filter {
                    src: SlotId(0),
                    pred: p0.clone(),
                    dst: SlotId(1),
                },
                Step::Compact {
                    src: SlotId(1),
                    dst: SlotId(2),
                },
                Step::Filter {
                    src: SlotId(0),
                    pred: p1.clone(),
                    dst: SlotId(3),
                },
                Step::Compact {
                    src: SlotId(3),
                    dst: SlotId(4),
                },
                Step::Barrier,
                Step::Store {
                    src: SlotId(2),
                    output: 0,
                },
                Step::Store {
                    src: SlotId(4),
                    output: 1,
                },
            ],
            PartitionSpec::Even,
        );
        let outputs = assert_split_is_invisible(&op, &[&input]);
        let oracle = vec![
            ops::select(&input, &p0).unwrap(),
            ops::select(&input, &p1).unwrap(),
        ];
        assert_eq!(outputs, oracle);
    }

    #[test]
    fn split_replicate_right_product() {
        let (l, r) = (gen::micro_input(1_500, 2), gen::micro_input(12, 3));
        let step = Step::Product {
            left: SlotId(0),
            right: SlotId(1),
            dst: SlotId(2),
        };
        let op = binary_op(&l, &r, step, PartitionSpec::ReplicateRight);
        let outputs = assert_split_is_invisible(&op, &[&l, &r]);
        assert_eq!(outputs, vec![ops::product(&l, &r).unwrap()]);
    }

    #[test]
    fn split_empty_input() {
        // One CTA: every worker count runs it on the calling thread.
        let empty = Relation::empty(Schema::uniform_u32(4));
        let op = select_op(empty.schema().clone(), Predicate::True);
        let serial = run_at(&op, &[&empty], OptLevel::O3, 1);
        assert!(serial.0[0].is_empty());
        for workers in [2, 3] {
            assert!(run_at(&op, &[&empty], OptLevel::O3, workers) == serial);
        }
    }

    #[test]
    fn split_project_keeps_the_order_of_compare_equal_f32_rows() {
        // F32 words that compare equal but differ in their high 32 bits:
        // which of them comes first is visible in the output bytes, and
        // rows of every CTA range tie with rows of the others.
        let schema = Schema::new(vec![AttrType::U32, AttrType::U32, AttrType::F32], 1);
        let mut rng = gen::rng(61);
        use rand::Rng;
        let words: Vec<u64> = (0..5_000)
            .flat_map(|_| {
                let high = [0u64, 1 << 32, 5 << 32][rng.gen_range(0..3)];
                let low = [0x7fc0_0000, 0, 0x8000_0000, 0x3fc0_0000][rng.gen_range(0..4)];
                [rng.gen_range(0..1_000), rng.gen_range(0..3), high | low]
            })
            .collect();
        let input = Relation::from_words(schema.clone(), words).unwrap();
        let op = GpuOperator::streaming(
            "project",
            vec![schema],
            1,
            slots(&[Space::Register, Space::Register]),
            vec![
                Step::Load {
                    input: 0,
                    dst: SlotId(0),
                },
                Step::Project {
                    src: SlotId(0),
                    attrs: vec![1, 2],
                    key_arity: 1,
                    dst: SlotId(1),
                },
                Step::Store {
                    src: SlotId(1),
                    output: 0,
                },
            ],
            PartitionSpec::Even,
        );
        let outputs = assert_split_is_invisible(&op, &[&input]);
        assert!(!equal_rows_are_identical(
            outputs[0].schema(),
            outputs[0].words()
        ));
    }

    /// A worker that fails at CTA `fail_from` and at every later one and
    /// panics at CTA `panic_at`, each time naming the CTA, and otherwise
    /// returns the CTAs it took in ascending order.
    fn failing(
        fail_from: usize,
        panic_at: usize,
    ) -> impl Fn(&mut dyn Iterator<Item = usize>) -> Result<Vec<usize>> + Sync {
        move |claims: &mut dyn Iterator<Item = usize>| {
            let mut ctas = Vec::new();
            for cta in claims {
                if cta == panic_at {
                    panic!("CTA {cta}");
                }
                if cta >= fail_from {
                    return Err(IrError::validation(format!("CTA {cta}")));
                }
                ctas.push(cta);
            }
            ctas.sort_unstable();
            Ok(ctas)
        }
    }

    #[test]
    fn in_ranges_splits_in_order_and_fails_like_a_serial_loop() {
        for workers in [1, 2, 3, 4, 64] {
            // One contiguous range per worker (at most one per CTA), in
            // CTA order.
            let ranges = in_ranges(10, workers, failing(usize::MAX, usize::MAX)).unwrap();
            assert_eq!(ranges.len(), workers.min(10));
            assert_eq!(ranges.concat(), (0..10).collect::<Vec<_>>());
            // The lowest failing CTA's error is returned ...
            let err = in_ranges(10, workers, failing(4, usize::MAX)).unwrap_err();
            assert_eq!(err, IrError::validation("CTA 4"));
            // ... also over a panic at a later CTA ...
            let err = in_ranges(10, workers, failing(4, 7)).unwrap_err();
            assert_eq!(err, IrError::validation("CTA 4"));
            // ... and a panic at an earlier CTA resumes on the caller.
            let panic = panic::catch_unwind(|| in_ranges(10, workers, failing(7, 4))).unwrap_err();
            assert_eq!(panic.downcast_ref::<String>().unwrap(), "CTA 4");
        }
    }

    #[test]
    fn a_faster_worker_takes_more_ctas() {
        // The worker at the front of the block holds CTA 0 until the
        // worker at the back has run out of CTAs, so the back worker takes
        // all the others. The back worker, after its first CTA, waits
        // until CTA 0 has been taken, so that it cannot take CTA 0 itself
        // however the threads are scheduled. (Each wait ends after ten
        // seconds whatever happens, so that a thread that never starts
        // cannot hang the test.)
        let wait_for = |done: &AtomicBool| {
            let since = Instant::now();
            while !done.load(Ordering::Acquire) && since.elapsed() < Duration::from_secs(10) {
                thread::yield_now();
            }
        };
        let (zero_taken, back_done) = (AtomicBool::new(false), AtomicBool::new(false));
        let ranges = in_ranges(10, 2, |claims: &mut dyn Iterator<Item = usize>| {
            let mut ctas = Vec::new();
            for cta in claims {
                if cta == 0 {
                    zero_taken.store(true, Ordering::Release);
                    wait_for(&back_done);
                } else if ctas.is_empty() {
                    wait_for(&zero_taken);
                }
                ctas.push(cta);
            }
            if !ctas.contains(&0) {
                back_done.store(true, Ordering::Release);
            }
            ctas.sort_unstable();
            Ok(ctas)
        })
        .unwrap();
        assert_eq!(ranges, vec![vec![0], (1..10).collect()]);
    }

    #[test]
    fn workers_stay_within_rows_ctas_and_host_threads() {
        assert_eq!(workers_for(0, 1), 1);
        assert_eq!(workers_for(MIN_ROWS_PER_WORKER - 1, 1_000), 1);
        assert_eq!(workers_for(16_384, 64), 1);
        assert_eq!(workers_for(10 * MIN_ROWS_PER_WORKER, 1), 1);
        let many = workers_for(usize::MAX, usize::MAX);
        assert_eq!(many, host_threads());
        assert_eq!(workers_for(2 * MIN_ROWS_PER_WORKER, 1_000), many.min(2));
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
