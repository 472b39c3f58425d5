//! Plan execution on the simulated device.
//!
//! [`execute_compiled`] runs every single-query path; [`WeaverConfig`]
//! picks the path. Two modes reproduce the paper's two experimental setups:
//!
//! * [`ExecMode::Resident`] — small inputs (Section 5.1.2): every base
//!   relation is transferred to the GPU once, intermediates live in device
//!   global memory, final results return to the host at the end.
//! * [`ExecMode::Staged`] — large inputs (Section 5.1.3): "every operator
//!   has to move its result data back to host to make room for the next
//!   operator": each step transfers its inputs host→device and its results
//!   device→host, then frees everything. Fused operators transfer only
//!   their external inputs and outputs — the PCIe saving of Figure 21.
//!
//! [`WeaverConfig::chunks`] set to `Some(n)` streams the plan in `n`
//! double-buffered chunks instead, each chunk executed in
//! [`WeaverConfig::mode`] (see the `chunked` module).
//!
//! Staged transfers are issued on dedicated H2D/D2H copy streams (the same
//! double-buffering machinery chunked runs use), so a step's result
//! download overlaps the next step's computation and stage-in uploads hide
//! under earlier kernels. Data dependences are kept honest with events: a
//! kernel synchronizes on its inputs' upload events before it is charged,
//! and a re-staged upload waits on the download that produced the bytes.
//! [`PlanReport::serialized_seconds`] still reports the fully serialized
//! cost (the paper's Figure 21 "overall" metric); the overlap shows up in
//! [`PlanReport::total_seconds`] / [`PlanReport::pipelined_seconds`].
//!
//! Each streaming operator acquires a gather scratch buffer alongside its
//! final outputs (compute writes scratch, gather densifies), matching the
//! allocation behaviour behind Figure 17.
//!
//! # The scratch arena
//!
//! Every buffer a run needs — input stage-ins, staged re-stages, gather
//! scratch, results — is a sub-allocation of one upfront [`ScratchArena`]
//! reservation sized by the admission predictor's replay of this
//! executor's exact acquire/release schedule
//! (`admission::predict_reservation`). The reservation *is* the predicted
//! peak: one `Alloc` span up front, one `Free` span at the end, O(1) per
//! plan regardless of step or chunk count, and a fresh device's
//! [`kw_gpu_sim::MemoryTracker::peak`] equals the admission report's peak
//! bit-exactly by construction. A sub-allocation that exceeds the
//! reservation means the row estimates under-shot (duplicate-heavy joins
//! are the one under-estimating case), and it spills to a real device
//! allocation counted in `kw_arena_spills_total`: the query completes, and
//! the misprediction stays loud in the trace and the metrics.

use std::borrow::Cow;
use std::collections::BTreeMap;

use kw_gpu_sim::{
    ArenaSlice, ArenaStats, BufferId, Device, Direction, EventId, MetricsRegistry, ScratchArena,
    SimError, SimStats, Span,
};
use kw_kernel_ir::execute as execute_op;
use kw_relational::Relation;

use crate::{
    compile, CompiledPlan, NodeId, PlanNode, ProfileReport, QueryPlan, Result, WeaverConfig,
    WeaverError,
};

/// Where intermediate results live between operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Inputs fit on the GPU; transfer once (the Figure 16 setup).
    #[default]
    Resident,
    /// Inputs exceed GPU memory; stage every operator over PCIe (the
    /// Figure 21 setup).
    Staged,
}

/// The result of executing a plan.
///
/// A report covers its own *window* of the device's record, opened when the
/// call starts: one [`execute_compiled`] run, or the whole episode of
/// [`crate::execute_compiled_resilient`] (failed attempts, faults, backoff
/// and the attempt that landed). On a fresh device the window is the whole
/// record. [`PlanReport::free_errors`], [`PlanReport::first_free_error`] and
/// the profile's `peak_device_bytes` stay device-lifetime.
#[derive(Debug)]
pub struct PlanReport {
    /// Relations of the marked plan outputs.
    pub outputs: BTreeMap<NodeId, Relation>,
    /// GPU computation seconds in the window.
    pub gpu_seconds: f64,
    /// PCIe transfer seconds in the window. A chunked run sums its own
    /// chunks' transfers instead: the attempt that landed, rounded per
    /// chunk.
    pub pcie_seconds: f64,
    /// End-to-end seconds. Resident: GPU + PCIe + backoff seconds of the
    /// window. Staged: the stream clock from the window's start to the
    /// run's end, overlap included. Chunked: the landed attempt's
    /// [`PlanReport::pipelined_seconds`] plus the ladder's retry backoff,
    /// the one total that is not a fold of the window. Compare with
    /// [`PlanReport::serialized_seconds`] for the no-overlap cost.
    pub total_seconds: f64,
    /// End-to-end seconds with every transfer serialized against compute:
    /// GPU + PCIe + backoff seconds of the window (equal to
    /// [`PlanReport::total_seconds`] when resident). A chunked run sums its
    /// own chunks' stages plus the ladder's backoff instead.
    pub serialized_seconds: f64,
    /// Overlap-aware wallclock of the attempt that landed, from the
    /// device-level stream/event graph, `Some` only when the run was
    /// streamed (staged mode, or a chunked run). Excludes retry backoff;
    /// `None` means nothing was overlapped.
    pub pipelined_seconds: Option<f64>,
    /// What the device charged in the window.
    pub stats: SimStats,
    /// Peak bytes of live relation data this run actually held at once
    /// (Figure 17): arena sub-allocations plus spills plus whatever was
    /// already resident when the run started. The arena *reservation*
    /// (= the admission prediction) is an upper envelope of this and is
    /// reported separately in [`PlanReport::arena`].
    pub peak_device_bytes: u64,
    /// The fusion sets the compiler chose.
    pub fusion_sets: Vec<Vec<NodeId>>,
    /// Number of (possibly fused) operators executed.
    pub operator_count: usize,
    /// How the resilient driver got here (mode chosen, retries, faults
    /// survived, degradations). `None` for direct executor calls.
    pub resilience: Option<crate::resilient::ResilienceReport>,
    /// Scratch-arena accounting for this run: the upfront reservation, the
    /// high-water mark actually reached (`high_water <= reservation`
    /// always), sub-allocations served span-free, and resets (one per
    /// chunk iteration in out-of-core runs).
    pub arena: Option<ArenaStats>,
    /// Count of free errors the device swallowed on drain-on-error paths
    /// (`kw_free_errors_total`) over its lifetime, not the window's;
    /// non-zero means some unwind hit accounting corruption worth
    /// investigating.
    pub free_errors: u64,
    /// The first swallowed free error on the device, if any.
    pub first_free_error: Option<String>,
    /// Structured execution trace: one span per kernel launch, PCIe
    /// transfer, allocation and fault, with operator provenance and a
    /// per-span [`SimStats`] delta. The device's spans in the window, which
    /// reconcile with [`PlanReport::stats`] (see [`kw_gpu_sim::reconcile`]);
    /// ids and cycles are device-global, so they join the device's log.
    pub spans: Vec<Span>,
    /// Roofline-style bottleneck attribution for this run: achieved vs.
    /// peak bandwidths, busy fractions, launch share and a per-operator
    /// breakdown (see [`crate::ProfileReport`]), folded over the window.
    pub profile: crate::ProfileReport,
    /// The decomposition a chunked run executed; `None` unless the run was
    /// chunked.
    pub strategy: Option<crate::ChunkStrategy>,
    /// Chunks actually executed (0 unless the run was chunked). Chunk slots
    /// whose every input is empty are skipped — they launch no kernels and
    /// emit no spans — so this equals the number of `chunk{i}` stream
    /// groups in the trace, not the requested chunk count.
    pub chunks: usize,
}

impl PlanReport {
    /// End-to-end time under transfer/compute overlap (the double-buffering
    /// technique the paper's related work cites as orthogonal to kernel
    /// fusion).
    ///
    /// When the run was actually streamed this is the *measured*
    /// [`PlanReport::pipelined_seconds`] from the device's stream/event
    /// graph. Otherwise it falls back to the closed-form estimate of
    /// *perfect* overlap — the longer of the two engines bounds the
    /// runtime, `max(gpu, pcie)` — which the measured value can exceed
    /// (data dependences keep real schedules from overlapping perfectly)
    /// but never beat.
    pub fn overlapped_seconds(&self) -> f64 {
        self.pipelined_seconds
            .unwrap_or_else(|| self.gpu_seconds.max(self.pcie_seconds))
    }

    /// Render this run's layer series into `metrics`: one plan and
    /// [`PlanReport::operator_count`] steps executed, plus the resilient
    /// driver's runs, retries, faults survived and degradations when the
    /// run went through the ladder. Compose with
    /// [`Device::metrics`] to export a run.
    pub fn publish(&self, metrics: &mut MetricsRegistry) {
        metrics.inc("kw_plans_executed_total", 1);
        metrics.inc("kw_steps_executed_total", self.operator_count as u64);
        if let Some(res) = &self.resilience {
            metrics.inc("kw_resilient_runs_total", 1);
            metrics.inc("kw_retries_total", u64::from(res.retries));
            metrics.inc("kw_faults_survived_total", u64::from(res.faults_survived));
            metrics.inc("kw_degradations_total", res.degradations.len() as u64);
        }
    }
}

/// Compile and execute `plan` over the named input `bindings` on `device`.
///
/// The report covers this run alone (see [`PlanReport`]), but the device's
/// memory high-water mark accumulates: compare peaks on fresh devices.
///
/// # Errors
///
/// Returns [`WeaverError`] for compilation failures, missing or mis-typed
/// bindings, and device errors, among them a device configuration that
/// fails [`kw_gpu_sim::DeviceConfig::validate`] (checked before the first
/// device operation).
///
/// # Examples
///
/// ```
/// use kw_core::{execute_plan, QueryPlan, WeaverConfig};
/// use kw_gpu_sim::{Device, DeviceConfig};
/// use kw_primitives::RaOp;
/// use kw_relational::{gen, CmpOp, Predicate, Value, Schema};
///
/// let input = gen::micro_input(1000, 1);
/// let mut plan = QueryPlan::new();
/// let t = plan.add_input("t", input.schema().clone());
/// let s = plan.add_op(
///     RaOp::Select { pred: Predicate::cmp(0, CmpOp::Lt, Value::U32(1 << 30)) },
///     &[t],
/// )?;
/// plan.mark_output(s);
///
/// let mut device = Device::new(DeviceConfig::fermi_c2050());
/// let report = execute_plan(&plan, &[("t", &input)], &mut device, &WeaverConfig::default())?;
/// assert!(report.gpu_seconds > 0.0);
/// # Ok::<(), kw_core::WeaverError>(())
/// ```
pub fn execute_plan(
    plan: &QueryPlan,
    bindings: &[(&str, &Relation)],
    device: &mut Device,
    config: &WeaverConfig,
) -> Result<PlanReport> {
    let compiled = compile(plan, config)?;
    execute_compiled(plan, &compiled, bindings, device, config)
}

/// Execute an already-compiled plan (lets callers inspect or reuse the
/// compilation) on the path `config` selects: resident or staged
/// ([`WeaverConfig::mode`]), or chunked ([`WeaverConfig::chunks`]).
///
/// Resident and staged runs size their scratch-arena reservation with the
/// admission predictor's replay for [`WeaverConfig::mode`] — the same
/// number [`crate::admit`] reports as `resident_peak` / `staged_peak`.
/// A chunked run reserves one arena for all its chunks.
///
/// # Errors
///
/// Same conditions as [`execute_plan`]. A chunked run also returns
/// [`WeaverError::Plan`] when no chunk strategy preserves the plan's
/// answer (e.g. a full sort) or the chunk count exceeds
/// [`crate::MAX_CHUNKS`].
///
/// # Examples
///
/// One compilation serves every path; here the same plan runs whole and in
/// eight double-buffered chunks.
///
/// ```
/// use kw_core::{compile, execute_compiled, ChunkStrategy, QueryPlan, WeaverConfig};
/// use kw_gpu_sim::{Device, DeviceConfig};
/// use kw_primitives::RaOp;
/// use kw_relational::{gen, CmpOp, Predicate, Value};
///
/// let input = gen::micro_input(100_000, 3);
/// let mut plan = QueryPlan::new();
/// let t = plan.add_input("t", input.schema().clone());
/// let s = plan.add_op(
///     RaOp::Select { pred: Predicate::cmp(1, CmpOp::Lt, Value::U32(1 << 31)) },
///     &[t],
/// )?;
/// plan.mark_output(s);
/// let compiled = compile(&plan, &WeaverConfig::default())?;
///
/// let whole = execute_compiled(&plan, &compiled, &[("t", &input)],
///     &mut Device::new(DeviceConfig::fermi_c2050()), &WeaverConfig::default())?;
/// let chunked_config = WeaverConfig { chunks: Some(8), ..WeaverConfig::default() };
/// let chunked = execute_compiled(&plan, &compiled, &[("t", &input)],
///     &mut Device::new(DeviceConfig::fermi_c2050()), &chunked_config)?;
/// assert_eq!(chunked.outputs, whole.outputs);
/// assert_eq!((chunked.strategy, chunked.chunks), (Some(ChunkStrategy::RowSlice), 8));
/// assert!(chunked.total_seconds <= chunked.serialized_seconds);
/// # Ok::<(), kw_core::WeaverError>(())
/// ```
pub fn execute_compiled(
    plan: &QueryPlan,
    compiled: &CompiledPlan,
    bindings: &[(&str, &Relation)],
    device: &mut Device,
    config: &WeaverConfig,
) -> Result<PlanReport> {
    device.config().validate()?;
    let window = RunWindow::open(device);
    let mut report = run(plan, compiled, bindings, device, config, &window)?;
    // The one span snapshot, taken after the arena's Free span.
    report.spans = window.spans(device).to_vec();
    Ok(report)
}

/// Where a run starts in its device's record: the span index, a
/// [`SimStats`] snapshot and the stream clock. A report folds its window,
/// from the opening to the device's present, so it describes its own run
/// on a reused device and the whole record on a fresh one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunWindow {
    first_span: usize,
    stats: SimStats,
    start_cycle: u64,
}

impl RunWindow {
    /// Settle in-flight streamed work and open a window at the present.
    pub(crate) fn open(device: &mut Device) -> RunWindow {
        let start_cycle = device.sync_streams();
        let (first_span, stats) = (device.spans().len(), *device.stats());
        RunWindow {
            first_span,
            stats,
            start_cycle,
        }
    }

    /// The spans recorded since the window opened.
    pub(crate) fn spans<'d>(&self, device: &'d Device) -> &'d [Span] {
        &device.spans()[self.first_span..]
    }

    /// What the device charged since the window opened.
    pub(crate) fn stats(&self, device: &Device) -> SimStats {
        device.stats().diff(&self.stats)
    }

    /// Stream-clock cycles from the window's opening to `end_cycle`.
    pub(crate) fn elapsed(&self, end_cycle: u64) -> u64 {
        end_cycle - self.start_cycle
    }

    /// The window's profile against `wall` seconds, counting `residual_pcie`
    /// transfer seconds its spans cannot carry (see
    /// [`ProfileReport::from_spans_with_residual`]), with the device's
    /// lifetime memory peak.
    pub(crate) fn profile(&self, device: &Device, wall: f64, residual_pcie: f64) -> ProfileReport {
        let stats = self.stats(device);
        let mut profile = ProfileReport::from_spans_with_residual(
            self.spans(device),
            &stats,
            device.config(),
            wall,
            residual_pcie,
        );
        profile.peak_device_bytes = device.memory().peak();
        profile
    }
}

/// [`execute_compiled`] over the caller's `window`, without the span
/// snapshot: the report's `spans` stay empty. The resilient driver opens
/// one window for its episode, passes it to every attempt and snapshots
/// the spans once, when its run lands.
pub(crate) fn run(
    plan: &QueryPlan,
    compiled: &CompiledPlan,
    bindings: &[(&str, &Relation)],
    device: &mut Device,
    config: &WeaverConfig,
    window: &RunWindow,
) -> Result<PlanReport> {
    if let Some(chunks) = config.chunks {
        return crate::chunked::execute(plan, compiled, bindings, device, config, chunks, window);
    }
    let reservation = crate::admission::predict_reservation(plan, compiled, bindings, config.mode)?;
    let mut arena = device.create_arena(reservation, "plan.arena")?;
    match execute_compiled_in_arena(plan, compiled, bindings, device, config, &mut arena) {
        Ok(exec) => {
            // Folded before the arena's Free span, which a report's
            // profile does not count.
            let mut report = fold_report(exec, compiled, device, config.mode, window);
            report.arena = Some(device.release_arena(arena)?);
            Ok(report)
        }
        Err(e) => {
            // The reservation goes back in one piece; a failed free is
            // counted, not propagated (the original error is the one worth
            // reporting).
            if let Err(fe) = device.release_arena(arena) {
                device.note_free_error(&fe);
            }
            Err(e)
        }
    }
}

/// Settle the clock and fold `window` into the report of the resident or
/// staged run that measured `exec`. For a streamed (staged) run the
/// overlap-aware total comes from the event graph's makespan on the unified
/// cycle clock; the serialized cost is the sum of every charge, exactly
/// what the pre-stream staged executor reported. The `max` guard absorbs
/// sub-cycle rounding (each streamed transfer's duration rounds to whole
/// cycles) so `serialized >= total` can never invert. `pipelined` counts
/// from this attempt's start, which under the ladder is later than the
/// window's.
fn fold_report(
    exec: Execution,
    compiled: &CompiledPlan,
    device: &mut Device,
    mode: ExecMode,
    window: &RunWindow,
) -> PlanReport {
    let end_cycles = device.sync_streams();
    let stats = window.stats(device);
    let gpu_seconds = device.config().cycles_to_seconds(stats.gpu_cycles);
    // `Device::total_seconds`'s formula, over the window.
    let serial = gpu_seconds + stats.pcie_seconds + stats.backoff_seconds;
    let (total_seconds, serialized_seconds, pipelined_seconds) = if mode == ExecMode::Staged {
        let total = device
            .config()
            .cycles_to_seconds(window.elapsed(end_cycles));
        let pipelined = device
            .config()
            .cycles_to_seconds(end_cycles - exec.start_cycle);
        (total, serial.max(total), Some(pipelined))
    } else {
        (serial, serial, None)
    };

    let profile = window.profile(device, total_seconds, 0.0);

    PlanReport {
        outputs: exec.outputs,
        gpu_seconds,
        pcie_seconds: stats.pcie_seconds,
        total_seconds,
        serialized_seconds,
        pipelined_seconds,
        stats,
        peak_device_bytes: exec.peak_device_bytes,
        fusion_sets: compiled.fusion_sets.clone(),
        operator_count: compiled.steps.len(),
        resilience: None,
        arena: None, // filled by `run` once the arena settles
        free_errors: device.free_errors(),
        first_free_error: device.first_free_error().map(String::from),
        spans: Vec::new(), // snapshot once by the public entry points
        profile,
        strategy: None,
        chunks: 0,
    }
}

/// What one compiled-plan execution measured; no report is folded from it
/// unless a caller sees one.
pub(crate) struct Execution {
    /// Relations of the marked plan outputs.
    pub outputs: BTreeMap<NodeId, Relation>,
    /// One compute-only cost per compiled step, in step order.
    pub steps: Vec<SimStats>,
    /// The run's true footprint peak (see [`PlanReport::peak_device_bytes`]).
    pub peak_device_bytes: u64,
    /// The stream-clock cycle the run started at.
    pub start_cycle: u64,
}

/// Execute a compiled plan inside a caller-owned arena and return what it
/// measured; no report is folded here. The chunked driver reserves one
/// arena for a whole out-of-core run and calls this per chunk with a
/// [`ScratchArena::reset`] in between, so the alloc/free span count stays
/// O(1) for the entire run, not O(chunks). Always runs the whole plan in
/// [`WeaverConfig::mode`]; [`WeaverConfig::chunks`] is not read here.
///
/// The arena is NOT created, reset or released here: on error the run's
/// spills are freed and the caller releases the arena.
pub(crate) fn execute_compiled_in_arena(
    plan: &QueryPlan,
    compiled: &CompiledPlan,
    bindings: &[(&str, &Relation)],
    device: &mut Device,
    config: &WeaverConfig,
    arena: &mut ScratchArena,
) -> Result<Execution> {
    // Bytes already resident before this run (a batch wave's other working
    // sets) are part of the true footprint but not of this arena, whose
    // backing reservation the tracker already counts.
    let base_in_use = device.memory().in_use().saturating_sub(arena.reservation());
    let mut live = LiveBuffers::default();
    let scope_depth = device.scope_depth();
    let result = run_compiled(
        plan,
        compiled,
        bindings,
        device,
        config,
        arena,
        &mut live,
        base_in_use,
    );
    if result.is_err() {
        // Cleanup guard: any early error return would otherwise leak the
        // run's spills, leaving the device unusable for a retry or a
        // degraded re-execution. Unwind any provenance scopes the failed
        // run left pushed and drain in-flight streamed staging so the
        // retry's clock starts from a settled makespan. Arena slices need
        // no individual release, and free errors during unwind are counted
        // on the device, not propagated.
        device.truncate_scope(scope_depth);
        device.sync_streams();
        for slot in live.drain() {
            if let Slot::Spill(buf, _) = slot {
                if let Err(fe) = device.free(buf) {
                    device.note_free_error(&fe);
                }
            }
        }
    }
    result
}

/// One live buffer of an in-flight execution: a span-free arena slice, or
/// a real device allocation the arena could not hold (an admission
/// under-prediction, with its byte size retained for footprint
/// accounting).
#[derive(Debug, Clone, Copy)]
enum Slot {
    Arena(ArenaSlice),
    Spill(BufferId, u64),
}

/// Device buffers currently owned by an in-flight execution: the per-node
/// buffer map plus the transient gather-scratch acquisition.
#[derive(Default)]
struct LiveBuffers {
    by_node: BTreeMap<NodeId, Slot>,
    scratch: Option<Slot>,
}

impl LiveBuffers {
    fn drain(&mut self) -> impl Iterator<Item = Slot> {
        let by_node = std::mem::take(&mut self.by_node);
        by_node.into_values().chain(self.scratch.take())
    }
}

/// Running footprint accounting for one execution: bytes resident before
/// the run started, live spill bytes, and the high-water mark of
/// `base + arena.in_use() + spills` — the run's true Figure 17 peak, which
/// the reservation envelope only bounds from above.
struct Footprint {
    base_in_use: u64,
    spill_in_use: u64,
    actual_peak: u64,
}

impl Footprint {
    fn new(base_in_use: u64) -> Footprint {
        Footprint {
            base_in_use,
            spill_in_use: 0,
            actual_peak: base_in_use,
        }
    }

    fn note(&mut self, arena: &ScratchArena) {
        self.actual_peak = self
            .actual_peak
            .max(self.base_in_use + arena.in_use() + self.spill_in_use);
    }
}

/// Sub-allocate `bytes` from the arena, spilling to a real device
/// allocation when the reservation is exhausted (`kw_arena_spills_total`
/// counts every such misprediction; each spill emits its own alloc and
/// free spans).
fn acquire_slot(
    device: &mut Device,
    arena: &mut ScratchArena,
    fp: &mut Footprint,
    bytes: u64,
    label: impl FnOnce() -> String,
) -> Result<Slot> {
    match arena.acquire(bytes) {
        Ok(slice) => {
            fp.note(arena);
            Ok(Slot::Arena(slice))
        }
        Err(SimError::ArenaOverflow { .. }) => {
            let buf = device.alloc_spill(bytes, label())?;
            fp.spill_in_use += bytes;
            fp.note(arena);
            Ok(Slot::Spill(buf, bytes))
        }
        Err(e) => Err(e.into()),
    }
}

/// Return a slot to wherever it came from.
fn release_slot(
    device: &mut Device,
    arena: &mut ScratchArena,
    fp: &mut Footprint,
    slot: Slot,
) -> Result<()> {
    match slot {
        Slot::Arena(slice) => arena.release(slice)?,
        Slot::Spill(buf, bytes) => {
            device.free(buf)?;
            fp.spill_in_use -= bytes;
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn run_compiled(
    plan: &QueryPlan,
    compiled: &CompiledPlan,
    bindings: &[(&str, &Relation)],
    device: &mut Device,
    config: &WeaverConfig,
    arena: &mut ScratchArena,
    live: &mut LiveBuffers,
    base_in_use: u64,
) -> Result<Execution> {
    // Each step's kernel-side cost, for callers that replay the run.
    // Allocated before the relation buffers below: a small live block
    // placed above them on the heap keeps the allocator from returning
    // their memory, which raised host peak RSS ~10% on TPC-H.
    let mut step_costs = Vec::with_capacity(compiled.steps.len());
    // Resolve input nodes to bound relations, borrowed: a per-run copy of
    // every base relation fragmented the host heap (TPC-H peak RSS swung by
    // one lineitem-sized block with unrelated allocation changes).
    let mut values: BTreeMap<NodeId, Cow<'_, Relation>> = BTreeMap::new();
    for id in plan.node_ids() {
        if let PlanNode::Input { name, schema } = plan.node(id) {
            let bound = bindings
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, r)| *r)
                .ok_or_else(|| WeaverError::binding(format!("no relation bound to '{name}'")))?;
            if bound.schema() != schema {
                return Err(WeaverError::binding(format!(
                    "relation bound to '{name}' has schema {}, expected {schema}",
                    bound.schema()
                )));
            }
            values.insert(id, Cow::Borrowed(bound));
        }
    }

    // How many steps consume each node, plus one virtual consumer for plan
    // outputs (kept on device until the final transfer in resident mode):
    // the same counts the predictor replays to size the arena reservation.
    let mut refcount = crate::admission::buffer_refcounts(plan, compiled);

    let mut fp = Footprint::new(base_in_use);

    // Staged mode issues its transfers on dedicated copy streams so the
    // stream scheduler — not a side formula — decides how much traffic
    // hides behind compute. Upload events gate the kernels that consume
    // them; download events gate re-staged uploads of the same bytes.
    let start_cycle = device.sync_streams();
    let copy_streams =
        (config.mode == ExecMode::Staged).then(|| (device.create_stream(), device.create_stream()));
    let mut upload_done: BTreeMap<NodeId, EventId> = BTreeMap::new();
    let mut download_done: BTreeMap<NodeId, EventId> = BTreeMap::new();

    // Upload every referenced base relation once (both modes: the paper's
    // staged experiment streams operator *results* back to the host; base
    // relations are transferred when first needed and shared inputs are not
    // re-sent, which is why pattern (d) sees no PCIe benefit).
    device.push_scope("stage-in");
    for id in plan.node_ids() {
        if matches!(plan.node(id), PlanNode::Input { .. })
            && refcount.get(&id).copied().unwrap_or(0) > 0
        {
            let rel = &values[&id];
            let bytes = rel.byte_size() as u64;
            let slot = acquire_slot(device, arena, &mut fp, bytes, || format!("input.{id}"))?;
            live.by_node.insert(id, slot);
            if let Some((h2d, _)) = copy_streams {
                device.transfer_on(h2d, Direction::HostToDevice, bytes)?;
                upload_done.insert(id, device.record_event(h2d)?);
            } else {
                device.transfer(Direction::HostToDevice, bytes)?;
            }
        }
    }
    device.pop_scope();

    for (step_idx, step) in compiled.steps.iter().enumerate() {
        let before = *device.stats();
        // Every span this step emits (kernels, staging transfers, faults)
        // carries the operator's provenance. Fused steps keep their
        // `fused[...]` label, so fusion candidates stay identifiable in the
        // trace.
        device.push_scope(format!("step{step_idx}:{}", step.op.label));
        // Staged mode: intermediates were sent back to the host after the
        // step that produced them; re-stage the ones this step consumes.
        if let Some((h2d, _)) = copy_streams {
            for &i in &step.inputs {
                if let std::collections::btree_map::Entry::Vacant(slot) = live.by_node.entry(i) {
                    let rel = values.get(&i).ok_or_else(|| {
                        WeaverError::plan(format!("step input {i} not yet computed"))
                    })?;
                    let bytes = rel.byte_size() as u64;
                    let s = acquire_slot(device, arena, &mut fp, bytes, || format!("staged.{i}"))?;
                    slot.insert(s);
                    // The bytes being re-staged come off the download that
                    // returned them to the host — the upload cannot start
                    // before that download has finished.
                    if let Some(&ev) = download_done.get(&i) {
                        device.wait_event(h2d, ev)?;
                    }
                    device.transfer_on(h2d, Direction::HostToDevice, bytes)?;
                    upload_done.insert(i, device.record_event(h2d)?);
                }
            }
            // Data-ready edge: the serially-charged kernels below consume
            // these uploads, so they cannot be charged before the copy
            // engine has delivered the bytes.
            for &i in &step.inputs {
                if let Some(&ev) = upload_done.get(&i) {
                    device.sync_event(ev)?;
                }
            }
        }

        // Execute the operator over the real relations.
        let input_rels: Vec<&Relation> = step
            .inputs
            .iter()
            .map(|i| {
                values
                    .get(i)
                    .map(Cow::as_ref)
                    .ok_or_else(|| WeaverError::plan(format!("step input {i} not computed")))
            })
            .collect::<Result<_>>()?;
        let result = execute_op(&step.op, &input_rels, device, config.opt)?;

        // Acquire gather scratch + final output buffers.
        let out_bytes: u64 = result.outputs.iter().map(|r| r.byte_size() as u64).sum();
        let scratch = acquire_slot(device, arena, &mut fp, out_bytes, || {
            format!("{}.scratch", step.op.label)
        })?;
        live.scratch = Some(scratch);
        for (rel, &node) in result.outputs.iter().zip(&step.outputs) {
            let bytes = rel.byte_size() as u64;
            let slot = acquire_slot(device, arena, &mut fp, bytes, || format!("result.{node}"))?;
            live.by_node.insert(node, slot);
        }
        live.scratch = None;
        release_slot(device, arena, &mut fp, scratch)?;

        for (rel, &node) in result.outputs.into_iter().zip(&step.outputs) {
            values.insert(node, Cow::Owned(rel));
        }

        // Release inputs nobody else needs (base relations and, in resident
        // mode, intermediates).
        let mut seen = Vec::new();
        for &i in &step.inputs {
            if seen.contains(&i) {
                continue;
            }
            seen.push(i);
            let rc = refcount.get_mut(&i).expect("counted above");
            *rc -= 1;
            let intermediate = !matches!(plan.node(i), PlanNode::Input { .. });
            let release = *rc == 0 || (config.mode == ExecMode::Staged && intermediate);
            if release {
                if let Some(slot) = live.by_node.remove(&i) {
                    release_slot(device, arena, &mut fp, slot)?;
                }
            }
        }

        // Staged mode: results return to the host immediately to make room
        // for the next operator. The download is issued on the D2H copy
        // stream — its `not_before` floor is the serial clock, which the
        // producing kernels just advanced, so it cannot predate the data;
        // it then overlaps the *next* step's computation. The device buffer
        // is released at issue time (the memory model is not time-aware),
        // matching the serialized accounting exactly.
        if let Some((_, d2h)) = copy_streams {
            for &node in &step.outputs {
                let bytes = values[&node].byte_size() as u64;
                device.transfer_on(d2h, Direction::DeviceToHost, bytes)?;
                download_done.insert(node, device.record_event(d2h)?);
                if let Some(slot) = live.by_node.remove(&node) {
                    release_slot(device, arena, &mut fp, slot)?;
                }
            }
        }
        device.pop_scope();
        step_costs.push(device.stats().diff(&before).compute_only());
    }

    // Resident mode: download marked outputs. Then release whatever remains.
    if config.mode == ExecMode::Resident {
        device.push_scope("stage-out");
        for &o in plan.outputs() {
            let bytes = values
                .get(&o)
                .map(|r| r.byte_size() as u64)
                .ok_or_else(|| {
                    WeaverError::plan(format!("plan output {o} was never computed by any step"))
                })?;
            device.transfer(Direction::DeviceToHost, bytes)?;
        }
        device.pop_scope();
    }
    let ids: Vec<NodeId> = live.by_node.keys().copied().collect();
    for id in ids {
        let slot = live.by_node.remove(&id).expect("key exists");
        release_slot(device, arena, &mut fp, slot)?;
    }

    // Move the outputs out of `values`: only an output that is itself a
    // bound input (a borrowed value) is copied. An output listed twice is
    // taken once.
    let mut outputs: BTreeMap<NodeId, Relation> = BTreeMap::new();
    for &o in plan.outputs() {
        if outputs.contains_key(&o) {
            continue;
        }
        let rel = values.remove(&o).ok_or_else(|| {
            WeaverError::plan(format!("plan output {o} was never computed by any step"))
        })?;
        outputs.insert(o, rel.into_owned());
    }

    Ok(Execution {
        outputs,
        steps: step_costs,
        peak_device_bytes: fp.actual_peak,
        start_cycle,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_gpu_sim::{DeviceConfig, SpanKind};
    use kw_primitives::RaOp;
    use kw_relational::{gen, ops, CmpOp, Predicate, Value};

    fn device() -> Device {
        Device::new(DeviceConfig::fermi_c2050())
    }

    fn sel(attr: usize, v: u32) -> RaOp {
        RaOp::Select {
            pred: Predicate::cmp(attr, CmpOp::Lt, Value::U32(v)),
        }
    }

    fn select_chain_plan(schema: kw_relational::Schema) -> (QueryPlan, NodeId) {
        let mut p = QueryPlan::new();
        let t = p.add_input("t", schema);
        let a = p.add_op(sel(0, u32::MAX / 2), &[t]).unwrap();
        let b = p.add_op(sel(1, u32::MAX / 2), &[a]).unwrap();
        let c = p.add_op(sel(2, u32::MAX / 2), &[b]).unwrap();
        p.mark_output(c);
        (p, c)
    }

    #[test]
    fn fused_and_unfused_agree_with_oracle() {
        let input = gen::micro_input(20_000, 1);
        let (plan, out) = select_chain_plan(input.schema().clone());

        let p1 = Predicate::cmp(0, CmpOp::Lt, Value::U32(u32::MAX / 2));
        let p2 = Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 2));
        let p3 = Predicate::cmp(2, CmpOp::Lt, Value::U32(u32::MAX / 2));
        let oracle = ops::select(
            &ops::select(&ops::select(&input, &p1).unwrap(), &p2).unwrap(),
            &p3,
        )
        .unwrap();

        let mut d1 = device();
        let fused =
            execute_plan(&plan, &[("t", &input)], &mut d1, &WeaverConfig::default()).unwrap();
        let mut d2 = device();
        let base = execute_plan(
            &plan,
            &[("t", &input)],
            &mut d2,
            &WeaverConfig::default().baseline(),
        )
        .unwrap();

        assert_eq!(fused.outputs[&out], oracle);
        assert_eq!(base.outputs[&out], oracle);
    }

    #[test]
    fn fusion_is_faster_and_smaller() {
        let input = gen::micro_input(50_000, 2);
        let (plan, _) = select_chain_plan(input.schema().clone());

        let mut d1 = device();
        let fused =
            execute_plan(&plan, &[("t", &input)], &mut d1, &WeaverConfig::default()).unwrap();
        let mut d2 = device();
        let base = execute_plan(
            &plan,
            &[("t", &input)],
            &mut d2,
            &WeaverConfig::default().baseline(),
        )
        .unwrap();

        assert!(
            base.gpu_seconds > 1.5 * fused.gpu_seconds,
            "fusion speedup too small: {} vs {}",
            base.gpu_seconds,
            fused.gpu_seconds
        );
        assert!(base.peak_device_bytes > fused.peak_device_bytes);
        assert!(base.stats.kernel_launches > fused.stats.kernel_launches);
        assert_eq!(fused.operator_count, 1);
        assert_eq!(base.operator_count, 3);
    }

    #[test]
    fn staged_mode_moves_more_pcie_when_unfused() {
        let input = gen::micro_input(50_000, 3);
        let (plan, _) = select_chain_plan(input.schema().clone());
        let staged = WeaverConfig {
            mode: ExecMode::Staged,
            ..WeaverConfig::default()
        };

        let mut d1 = device();
        let fused = execute_plan(&plan, &[("t", &input)], &mut d1, &staged).unwrap();
        let mut d2 = device();
        let base = execute_plan(&plan, &[("t", &input)], &mut d2, &staged.baseline()).unwrap();

        assert!(
            base.stats.pcie_bytes() > fused.stats.pcie_bytes(),
            "{} vs {}",
            base.stats.pcie_bytes(),
            fused.stats.pcie_bytes()
        );
        assert!(base.pcie_seconds > fused.pcie_seconds);
        // Both modes produce identical results.
        let out = plan.outputs()[0];
        assert_eq!(fused.outputs[&out], base.outputs[&out]);
    }

    #[test]
    fn alloc_free_spans_are_constant_per_plan() {
        // The tentpole invariant: one Alloc (the arena reservation) and one
        // Free (its return) regardless of plan depth or mode — per-step
        // buffers are span-free sub-allocations.
        let input = gen::micro_input(20_000, 5);
        let (plan, _) = select_chain_plan(input.schema().clone());
        for fusion in [true, false] {
            for mode in [ExecMode::Resident, ExecMode::Staged] {
                let config = WeaverConfig {
                    fusion,
                    mode,
                    ..WeaverConfig::default()
                };
                let mut d = device();
                let report = execute_plan(&plan, &[("t", &input)], &mut d, &config).unwrap();
                let allocs = report
                    .spans
                    .iter()
                    .filter(|s| s.kind == SpanKind::Alloc)
                    .count();
                let frees = report
                    .spans
                    .iter()
                    .filter(|s| s.kind == SpanKind::Free)
                    .count();
                assert_eq!(
                    (allocs, frees),
                    (1, 1),
                    "fusion={fusion} mode={mode:?}: spans must be O(1)"
                );
                let arena = report.arena.unwrap();
                assert!(
                    arena.sub_allocs > 1,
                    "sub-allocations went through the arena"
                );
            }
        }
    }

    #[test]
    fn arena_reservation_is_the_tracker_peak() {
        // Predictor fidelity at the executor level: a fresh device's
        // tracker peak is exactly the arena reservation, which is exactly
        // the admission prediction — they are one computation.
        let input = gen::micro_input(30_000, 6);
        let (plan, _) = select_chain_plan(input.schema().clone());
        for mode in [ExecMode::Resident, ExecMode::Staged] {
            let config = WeaverConfig {
                mode,
                ..WeaverConfig::default()
            };
            let compiled = compile(&plan, &config).unwrap();
            let mut d = device();
            let report =
                execute_compiled(&plan, &compiled, &[("t", &input)], &mut d, &config).unwrap();
            let arena = report.arena.unwrap();
            assert_eq!(d.memory().peak(), arena.reservation, "{mode:?}");
            assert!(arena.high_water <= arena.reservation, "{mode:?}");
            assert_eq!(d.memory().in_use(), 0, "{mode:?}");
            let admission = crate::admit(&plan, &compiled, &[("t", &input)], u64::MAX).unwrap();
            let predicted = match mode {
                ExecMode::Resident => admission.resident_peak,
                ExecMode::Staged => admission.staged_peak,
            };
            assert_eq!(arena.reservation, predicted, "{mode:?}");
        }
    }

    /// Two relations whose join key is one constant: every row matches
    /// every row, so the true join output is quadratic while the admission
    /// estimate stays at `max(|L|, |R|)` rows — the canonical arena
    /// misprediction.
    fn all_collide_inputs(nl: usize, nr: usize) -> (Relation, Relation) {
        let schema = kw_relational::Schema::uniform_u32(2);
        let build = |n: usize, salt: u64| {
            let mut words = Vec::with_capacity(n * 2);
            for i in 0..n {
                words.push(7u64);
                words.push((i as u64).wrapping_mul(salt) % 997);
            }
            Relation::from_words(schema.clone(), words).unwrap()
        };
        (build(nl, 13), build(nr, 31))
    }

    #[test]
    fn underestimated_join_spills_and_completes() {
        let (l, r) = all_collide_inputs(600, 400);
        let mut plan = QueryPlan::new();
        let x = plan.add_input("x", l.schema().clone());
        let y = plan.add_input("y", r.schema().clone());
        let j = plan.add_op(RaOp::Join { key_len: 1 }, &[x, y]).unwrap();
        plan.mark_output(j);
        let bindings: &[(&str, &Relation)] = &[("x", &l), ("y", &r)];

        // The quadratic output cannot fit the max(|L|,|R|)-sized
        // reservation: the run spills, counts the mispredictions, and
        // matches the oracle byte-for-byte.
        let mut d = device();
        let report = execute_plan(&plan, bindings, &mut d, &WeaverConfig::default()).unwrap();
        let oracle = ops::join(&l, &r, 1).unwrap();
        assert_eq!(report.outputs[&j], oracle);
        assert!(d.metrics().counter("kw_arena_spills_total") > 0);
        assert_eq!(d.memory().in_use(), 0);
        // Spills are real allocations: the actual footprint exceeded the
        // reservation envelope and the report says so.
        let arena = report.arena.unwrap();
        assert!(report.peak_device_bytes > arena.reservation);
    }

    #[test]
    fn missing_binding_rejected() {
        let input = gen::micro_input(10, 4);
        let (plan, _) = select_chain_plan(input.schema().clone());
        let mut d = device();
        let err = execute_plan(
            &plan,
            &[("wrong", &input)],
            &mut d,
            &WeaverConfig::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("no relation bound"));
    }

    #[test]
    fn schema_mismatch_rejected() {
        let (plan, _) = select_chain_plan(kw_relational::Schema::uniform_u32(4));
        let wrong = gen::selectivity_input(10, 2, 1);
        let mut d = device();
        assert!(execute_plan(&plan, &[("t", &wrong)], &mut d, &WeaverConfig::default()).is_err());
    }

    #[test]
    fn join_plan_fused_matches_oracle() {
        let (l, r) = gen::join_inputs(5_000, 2, 0.4, 9);
        let mut plan = QueryPlan::new();
        let x = plan.add_input("x", l.schema().clone());
        let y = plan.add_input("y", r.schema().clone());
        let sx = plan.add_op(sel(1, u32::MAX / 2), &[x]).unwrap();
        let j = plan.add_op(RaOp::Join { key_len: 1 }, &[sx, y]).unwrap();
        plan.mark_output(j);

        let oracle = ops::join(
            &ops::select(&l, &Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 2))).unwrap(),
            &r,
            1,
        )
        .unwrap();

        let mut d1 = device();
        let fused = execute_plan(
            &plan,
            &[("x", &l), ("y", &r)],
            &mut d1,
            &WeaverConfig::default(),
        )
        .unwrap();
        assert_eq!(fused.outputs[&j], oracle);
        assert_eq!(fused.fusion_sets.len(), 1);

        let mut d2 = device();
        let base = execute_plan(
            &plan,
            &[("x", &l), ("y", &r)],
            &mut d2,
            &WeaverConfig::default().baseline(),
        )
        .unwrap();
        assert_eq!(base.outputs[&j], oracle);
        assert!(base.gpu_seconds > fused.gpu_seconds);
    }
}
