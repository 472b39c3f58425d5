//! The simulated device facade.
//!
//! [`Device`] owns the memory tracker, statistics, trace spans and stream
//! model, and is the single place where kernel launches and PCIe transfers
//! are charged. Each charged operation is recorded once: in the aggregate
//! [`SimStats`] and as one [`Span`]. [`Device::metrics`] renders the metrics
//! registry from those records on demand.

use crate::{
    kernel_cost, pcie_seconds, ArenaStats, BufferId, DeviceConfig, Direction, Engine, EventId,
    FaultConfig, FaultInjector, FaultKind, KernelCost, KernelQuantities, KernelResources,
    LaunchDims, MemoryTracker, MetricsRegistry, Result, ScratchArena, SimError, SimStats, Span,
    SpanKind, StreamId, StreamModel,
};

/// A simulated GPU.
///
/// # Examples
///
/// ```
/// use kw_gpu_sim::{Device, DeviceConfig, LaunchDims, KernelResources, KernelQuantities};
///
/// let mut dev = Device::new(DeviceConfig::fermi_c2050());
/// let buf = dev.alloc(1 << 20, "input")?;
/// let cost = dev.launch(
///     "select.compute",
///     LaunchDims::new(1024, 256),
///     KernelResources { registers_per_thread: 18, shared_per_cta: 2048 },
///     &KernelQuantities { global_bytes_read: 1 << 20, ..Default::default() },
/// )?;
/// assert!(cost.total_cycles() > 0);
/// dev.free(buf)?;
/// # Ok::<(), kw_gpu_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct Device {
    config: DeviceConfig,
    memory: MemoryTracker,
    stats: SimStats,
    faults: Option<FaultInjector>,
    /// Structured trace: one span per charged operation (see [`Span`]).
    spans: Vec<Span>,
    /// Provenance scope stack; joined into each recorded span.
    scope: Vec<String>,
    /// Unified trace clock: GPU cycles, PCIe time and backoff all advance
    /// it, so spans of all kinds share one timeline.
    clock_cycles: u64,
    /// Stream/event scheduler for overlapped (asynchronous) operations.
    streams: StreamModel,
    /// Whether a scratch fork's footprint was folded into the tracker,
    /// which puts the memory gauges on the export like an allocation does.
    absorbed_fork: bool,
    /// Every released arena folded together: the last reservation, the
    /// highest high water, summed sub-allocations and resets.
    arenas: Option<ArenaStats>,
    /// Sub-allocations that overflowed their arena into a real allocation.
    arena_spills: u64,
    /// Swallowed free errors (drain-on-error paths) and the first one's
    /// message: accounting corruption that must surface on reports instead
    /// of vanishing.
    free_errors: u64,
    first_free_error: Option<String>,
}

impl Device {
    /// Create a device with the given configuration.
    pub fn new(config: DeviceConfig) -> Device {
        let memory = MemoryTracker::new(config.global_mem_bytes);
        let streams = StreamModel::new(config.compute_engines);
        Device {
            config,
            memory,
            stats: SimStats::default(),
            faults: None,
            // Room for a typical plan's spans up front: growing the log
            // reallocates it between relation-sized buffers, and the freed
            // copies fragmented the host heap (TPC-H peak RSS rose by up to
            // ~11% without this, depending on the binary's start path).
            spans: Vec::with_capacity(32),
            scope: Vec::new(),
            clock_cycles: 0,
            streams,
            absorbed_fork: false,
            arenas: None,
            arena_spills: 0,
            free_errors: 0,
            first_free_error: None,
        }
    }

    /// Install a fault injector; subsequent transfers, launches and
    /// allocations may fail with transient [`SimError`] variants.
    pub fn inject_faults(&mut self, config: FaultConfig) {
        self.faults = Some(FaultInjector::new(config));
    }

    /// A fresh device with the same configuration, sharing no state — except
    /// that if this device injects faults, the scratch device gets a derived
    /// (deterministic, independent) fault stream at the same rates. Chunked
    /// execution uses this so per-chunk work stays under fault pressure.
    pub fn fork_scratch(&mut self) -> Device {
        let mut scratch = Device::new(self.config.clone());
        scratch.faults = self.faults.as_mut().map(FaultInjector::split);
        scratch
    }

    /// Whether an injected fault fires for the next operation of `kind`;
    /// when it does, the fault is recorded in the stats and the trace.
    fn fault_fires(&mut self, kind: FaultKind, label: &str) -> bool {
        let fires = self.faults.as_mut().is_some_and(|f| f.should_fault(kind));
        if fires {
            let before = self.stats;
            self.stats.faults_injected += 1;
            self.record_span(
                SpanKind::Fault,
                format!("fault.{}:{label}", kind.name()),
                before,
                0,
            );
        }
        fires
    }

    /// Record one span covering everything charged to `stats` since
    /// `before`, advancing the trace clock by `duration_cycles`.
    fn record_span(
        &mut self,
        kind: SpanKind,
        label: String,
        before: SimStats,
        duration_cycles: u64,
    ) {
        let start_cycle = self.clock_cycles;
        // Saturate like SimStats::merge: a pathological duration (e.g. an
        // exponential backoff that left f64 range) clamps instead of
        // wrapping the clock backwards.
        self.clock_cycles = self.clock_cycles.saturating_add(duration_cycles);
        self.record_span_at(kind, label, before, start_cycle, self.clock_cycles, None);
    }

    /// Record one span with an explicit `[start, end)` cycle interval
    /// (streamed operations: the interval comes from the stream scheduler,
    /// and the serial trace clock does NOT advance — issuing async work is
    /// free; only [`Device::sync_streams`] moves the clock). The span delta
    /// still counts toward the reconciliation invariant.
    fn record_span_at(
        &mut self,
        kind: SpanKind,
        label: String,
        before: SimStats,
        start_cycle: u64,
        end_cycle: u64,
        engine: Option<Engine>,
    ) {
        self.spans.push(Span {
            id: self.spans.len() as u64,
            kind,
            label,
            provenance: self.scope.join("/"),
            start_cycle,
            end_cycle,
            delta: self.stats.diff(&before),
            engine,
        });
    }

    /// Render the device's metrics registry from its records. Span counts
    /// per kind and the kernel, PCIe and backoff cycle histograms come from
    /// the span log; the seven `*_total` cost counters from [`SimStats`];
    /// the memory gauges from the tracker; the arena, spill and free-error
    /// series from their typed counters. A series exists exactly when its
    /// record does. Rendering builds a fresh registry, so it belongs in
    /// exporters and tests, never on a request path.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::default();
        for span in &self.spans {
            m.inc("kw_spans_total", 1);
            let (count, cycles) = match span.kind {
                SpanKind::Kernel => ("kw_kernel_spans_total", Some("kw_kernel_cycles")),
                SpanKind::Transfer => ("kw_pcie_spans_total", Some("kw_pcie_cycles")),
                SpanKind::Alloc => ("kw_alloc_spans_total", None),
                SpanKind::Free => ("kw_free_spans_total", None),
                SpanKind::Fault => ("kw_fault_spans_total", None),
                SpanKind::Backoff => ("kw_backoff_spans_total", Some("kw_backoff_cycles")),
            };
            m.inc(count, 1);
            if let Some(histogram) = cycles {
                m.observe(histogram, span.cycles());
            }
        }
        if !self.spans.is_empty() {
            let s = &self.stats;
            m.inc("kw_kernel_launches_total", s.kernel_launches);
            m.inc("kw_launch_cycles_total", s.launch_cycles);
            m.inc("kw_gpu_cycles_total", s.gpu_cycles);
            m.inc("kw_global_bytes_total", s.global_bytes());
            m.inc("kw_h2d_bytes_total", s.h2d_bytes);
            m.inc("kw_d2h_bytes_total", s.d2h_bytes);
            m.inc("kw_faults_injected_total", s.faults_injected);
        }
        if self.memory.alloc_count() > 0 || self.absorbed_fork {
            m.set_gauge("kw_device_mem_in_use_bytes", self.memory.in_use() as f64);
            m.set_gauge("kw_device_mem_peak_bytes", self.memory.peak() as f64);
        }
        if let Some(a) = self.arenas {
            m.set_gauge("kw_arena_reservation_bytes", a.reservation as f64);
            m.set_gauge("kw_arena_high_water_bytes", a.high_water as f64);
            m.inc("kw_arena_suballocs_total", a.sub_allocs);
            m.inc("kw_arena_resets_total", a.resets);
        }
        if self.arena_spills > 0 {
            m.inc("kw_arena_spills_total", self.arena_spills);
        }
        if self.free_errors > 0 {
            m.inc("kw_free_errors_total", self.free_errors);
        }
        m
    }

    /// The recorded trace spans, in charge order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Current position of the unified trace clock, cycles.
    pub fn clock_cycles(&self) -> u64 {
        self.clock_cycles
    }

    /// Push a provenance frame; spans recorded until the matching
    /// [`Device::pop_scope`] carry it in [`Span::provenance`].
    pub fn push_scope(&mut self, frame: impl Into<String>) {
        self.scope.push(frame.into());
    }

    /// Pop the innermost provenance frame (no-op on an empty stack).
    pub fn pop_scope(&mut self) {
        self.scope.pop();
    }

    /// Depth of the provenance stack (for balanced unwinding on error
    /// paths, via [`Device::truncate_scope`]).
    pub fn scope_depth(&self) -> usize {
        self.scope.len()
    }

    /// Drop provenance frames down to `depth` (error-path cleanup).
    pub fn truncate_scope(&mut self, depth: usize) {
        self.scope.truncate(depth);
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The memory tracker.
    pub fn memory(&self) -> &MemoryTracker {
        &self.memory
    }

    /// Allocate a global-memory buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] past device capacity, or
    /// [`SimError::AllocFault`] when an injected transient fault fires.
    pub fn alloc(&mut self, bytes: u64, label: impl Into<String>) -> Result<BufferId> {
        let label = label.into();
        if self.fault_fires(FaultKind::Alloc, &label) {
            return Err(SimError::AllocFault { requested: bytes });
        }
        let id = self.memory.alloc(bytes, label.clone())?;
        let before = self.stats;
        self.record_span(SpanKind::Alloc, label, before, 0);
        Ok(id)
    }

    /// Allocate a real buffer for a sub-allocation its arena could not
    /// hold, counted in `kw_arena_spills_total`.
    ///
    /// # Errors
    ///
    /// Same contract as [`Device::alloc`].
    pub fn alloc_spill(&mut self, bytes: u64, label: impl Into<String>) -> Result<BufferId> {
        let id = self.alloc(bytes, label)?;
        self.arena_spills += 1;
        Ok(id)
    }

    /// Free a global-memory buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidBuffer`] for unknown ids.
    pub fn free(&mut self, id: BufferId) -> Result<()> {
        let bytes = self.memory.size_of(id)?;
        self.memory.free(id)?;
        let before = self.stats;
        self.record_span(SpanKind::Free, format!("free.{bytes}B"), before, 0);
        Ok(())
    }

    /// Reserve a [`ScratchArena`] of `bytes` in one backing allocation.
    ///
    /// This is the only `Alloc` span an arena-run plan emits: every
    /// input/staging/scratch/result buffer inside the plan becomes a
    /// span-free sub-allocation of the reservation, which is what drops
    /// alloc/free span counts from O(steps × chunks) to O(1) per plan.
    ///
    /// # Errors
    ///
    /// Same contract as [`Device::alloc`]: [`SimError::OutOfMemory`] past
    /// device capacity, [`SimError::AllocFault`] on an injected fault.
    pub fn create_arena(&mut self, bytes: u64, label: impl Into<String>) -> Result<ScratchArena> {
        let backing = self.alloc(bytes, label)?;
        Ok(ScratchArena::new(backing, bytes))
    }

    /// Free an arena's backing reservation (the plan's single `Free`
    /// span) and fold its accounting into the device's arena totals, which
    /// render as the `kw_arena_reservation_bytes` and
    /// `kw_arena_high_water_bytes` gauges (high water kept monotone across
    /// arenas) and the `kw_arena_suballocs_total` and
    /// `kw_arena_resets_total` counters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidBuffer`] when the backing buffer is gone
    /// — accounting corruption, not a recoverable condition.
    pub fn release_arena(&mut self, arena: ScratchArena) -> Result<ArenaStats> {
        let stats = arena.stats();
        self.free(arena.backing())?;
        self.fold_arena(stats);
        Ok(stats)
    }

    /// Fold one released arena's accounting into the device's totals.
    fn fold_arena(&mut self, stats: ArenaStats) {
        let totals = self.arenas.get_or_insert_with(ArenaStats::default);
        totals.reservation = stats.reservation;
        totals.high_water = totals.high_water.max(stats.high_water);
        totals.sub_allocs += stats.sub_allocs;
        totals.resets += stats.resets;
    }

    /// Fold a scratch fork (see [`Device::fork_scratch`]) into this device:
    /// its memory high-water mark — the bytes it held are bytes the
    /// simulated hardware really held, so `peak()` and the
    /// `kw_device_mem_peak_bytes` gauge must see them — its arena totals,
    /// its arena spills and its swallowed free errors (count and first
    /// message). The fork's costs are NOT folded: callers replay those as
    /// streamed operations.
    pub fn absorb_scratch(&mut self, scratch: &Device) {
        self.memory.raise_peak(scratch.memory.peak());
        self.absorbed_fork = true;
        if let Some(stats) = scratch.arenas {
            self.fold_arena(stats);
        }
        self.arena_spills += scratch.arena_spills;
        self.free_errors += scratch.free_errors;
        if self.first_free_error.is_none() {
            self.first_free_error = scratch.first_free_error.clone();
        }
    }

    /// Count a swallowed free error from a drain-on-error path
    /// (`kw_free_errors_total`) and retain the first one so reports can
    /// surface it instead of silently dropping accounting corruption.
    pub fn note_free_error(&mut self, e: &SimError) {
        self.free_errors += 1;
        if self.first_free_error.is_none() {
            self.first_free_error = Some(e.to_string());
        }
    }

    /// Free errors noted on this device over its lifetime, forks included.
    pub fn free_errors(&self) -> u64 {
        self.free_errors
    }

    /// The first swallowed free error noted on this device, if any.
    pub fn first_free_error(&self) -> Option<&str> {
        self.first_free_error.as_deref()
    }

    /// Charge one kernel execution and record it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InfeasibleLaunch`] when the per-thread registers
    /// or per-CTA shared memory fit no CTA on an SM — the constraint that
    /// the paper's Algorithm 2 exists to respect.
    pub fn launch(
        &mut self,
        label: impl Into<String>,
        dims: LaunchDims,
        res: KernelResources,
        q: &KernelQuantities,
    ) -> Result<KernelCost> {
        let label = label.into();
        let (before, cost) = self.charge_kernel(&label, dims, res, q)?;
        self.record_span(SpanKind::Kernel, label, before, cost.total_cycles());
        Ok(cost)
    }

    /// Fault-check, price and charge one kernel execution to the stats.
    /// Span recording is left to the caller: serial launches advance the
    /// trace clock, streamed launches take their interval from the stream
    /// scheduler.
    fn charge_kernel(
        &mut self,
        label: &str,
        dims: LaunchDims,
        res: KernelResources,
        q: &KernelQuantities,
    ) -> Result<(SimStats, KernelCost)> {
        if self.fault_fires(FaultKind::Launch, label) {
            return Err(SimError::LaunchFault {
                label: label.to_string(),
            });
        }
        let cost =
            kernel_cost(&self.config, dims, res, q).ok_or_else(|| SimError::InfeasibleLaunch {
                detail: format!(
                    "{label}: {} regs/thread, {} B shared/CTA, {} threads/CTA",
                    res.registers_per_thread, res.shared_per_cta, dims.threads_per_cta
                ),
            })?;

        let before = self.stats;
        self.stats.kernel_launches += 1;
        self.stats.launch_cycles += cost.launch_cycles;
        self.stats.global_bytes_read += q.global_bytes_read;
        self.stats.global_bytes_written += q.global_bytes_written;
        self.stats.global_access_cycles += cost.global_cycles;
        self.stats.shared_bytes_read += q.shared_bytes_read;
        self.stats.shared_bytes_written += q.shared_bytes_written;
        self.stats.shared_access_cycles += cost.shared_cycles;
        self.stats.alu_ops += q.alu_ops;
        self.stats.alu_cycles += cost.alu_cycles;
        self.stats.barriers += q.barriers;
        self.stats.barrier_cycles += cost.barrier_cycles;
        self.stats.gpu_cycles += cost.total_cycles();
        debug_assert!(
            self.stats.cycles_consistent(),
            "gpu_cycles drifted from its component cycle counters after kernel {label:?}"
        );
        Ok((before, cost))
    }

    /// Charge a PCIe transfer and record it. Returns the transfer seconds.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TransferFault`] when an injected transient fault
    /// fires; the failed transfer is charged nothing.
    pub fn transfer(&mut self, direction: Direction, bytes: u64) -> Result<f64> {
        let (before, seconds) = self.charge_transfer(direction, bytes)?;
        self.record_span(
            SpanKind::Transfer,
            format!("{direction:?}.{bytes}B"),
            before,
            self.config.seconds_to_cycles(seconds),
        );
        Ok(seconds)
    }

    /// Fault-check, price and charge one PCIe transfer to the stats (span
    /// recording left to the caller, as with [`Device::charge_kernel`]).
    fn charge_transfer(&mut self, direction: Direction, bytes: u64) -> Result<(SimStats, f64)> {
        if self.fault_fires(FaultKind::Transfer, &format!("{direction:?}")) {
            return Err(SimError::TransferFault { direction, bytes });
        }
        let seconds = pcie_seconds(&self.config, bytes);
        let before = self.stats;
        match direction {
            Direction::HostToDevice => {
                self.stats.h2d_transfers += 1;
                self.stats.h2d_bytes += bytes;
            }
            Direction::DeviceToHost => {
                self.stats.d2h_transfers += 1;
                self.stats.d2h_bytes += bytes;
            }
        }
        self.stats.pcie_seconds += seconds;
        Ok((before, seconds))
    }

    /// Charge simulated wall-clock time spent backing off before a retry.
    pub fn charge_backoff(&mut self, seconds: f64) {
        let before = self.stats;
        self.stats.backoff_seconds += seconds;
        self.record_span(
            SpanKind::Backoff,
            "backoff".to_string(),
            before,
            self.config.seconds_to_cycles(seconds),
        );
    }

    // ---- streams & events (asynchronous, overlapped execution) ----

    /// Create a new stream. Operations issued to it via
    /// [`Device::launch_on`] / [`Device::transfer_on`] execute in issue
    /// order but overlap with other streams wherever the engines allow.
    pub fn create_stream(&mut self) -> StreamId {
        self.streams.create_stream()
    }

    /// The stream scheduler: per-engine busy time and the event-graph
    /// makespan. Each streamed operation's interval and engine are on its
    /// [`Span`].
    pub fn streams(&self) -> &StreamModel {
        &self.streams
    }

    /// Launch a kernel asynchronously on `stream`.
    ///
    /// Charges exactly what [`Device::launch`] charges (stats, fault
    /// injection, reconcilable span), but the span's interval comes from
    /// the stream scheduler and the serial trace clock does not advance —
    /// call [`Device::sync_streams`] to realize the wallclock.
    ///
    /// # Errors
    ///
    /// As [`Device::launch`], plus [`SimError::InvalidStream`] for a stale
    /// stream handle.
    pub fn launch_on(
        &mut self,
        stream: StreamId,
        label: impl Into<String>,
        dims: LaunchDims,
        res: KernelResources,
        q: &KernelQuantities,
    ) -> Result<KernelCost> {
        let label = label.into();
        self.streams.validate(stream)?;
        let (before, cost) = self.charge_kernel(&label, dims, res, q)?;
        let engine = self.streams.compute_engine(stream);
        let (start, end) =
            self.streams
                .schedule(stream, engine, cost.total_cycles(), self.clock_cycles)?;
        self.record_span_at(SpanKind::Kernel, label, before, start, end, Some(engine));
        Ok(cost)
    }

    /// Issue a PCIe transfer asynchronously on `stream`; it occupies the
    /// dedicated copy engine for its direction, overlapping compute and
    /// the opposite-direction engine. Returns the transfer seconds.
    ///
    /// # Errors
    ///
    /// As [`Device::transfer`], plus [`SimError::InvalidStream`] for a
    /// stale stream handle.
    pub fn transfer_on(
        &mut self,
        stream: StreamId,
        direction: Direction,
        bytes: u64,
    ) -> Result<f64> {
        self.streams.validate(stream)?;
        let (before, seconds) = self.charge_transfer(direction, bytes)?;
        let engine = match direction {
            Direction::HostToDevice => Engine::CopyH2D,
            Direction::DeviceToHost => Engine::CopyD2H,
        };
        let duration = self.config.seconds_to_cycles(seconds);
        let (start, end) = self
            .streams
            .schedule(stream, engine, duration, self.clock_cycles)?;
        let label = format!("{direction:?}.{bytes}B");
        self.record_span_at(SpanKind::Transfer, label, before, start, end, Some(engine));
        Ok(seconds)
    }

    /// Charge an externally-priced block of compute to this device and
    /// schedule it on `stream`'s compute engine for `duration_cycles`.
    ///
    /// Chunked execution prices each chunk on a scratch device and uses
    /// this to mirror the chunk's kernel-side counters into the parent's
    /// stats/trace as one streamed compute span. `delta` must be
    /// compute-only (no transfer or fault counters — those are mirrored
    /// separately as real streamed transfers, and double counting would
    /// break the reconciliation invariant).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidStream`] for a stale stream handle.
    pub fn compute_on(
        &mut self,
        stream: StreamId,
        label: impl Into<String>,
        delta: &SimStats,
        duration_cycles: u64,
    ) -> Result<()> {
        let label = label.into();
        self.streams.validate(stream)?;
        debug_assert!(
            delta.h2d_transfers == 0
                && delta.d2h_transfers == 0
                && delta.h2d_bytes == 0
                && delta.d2h_bytes == 0
                && delta.pcie_seconds == 0.0
                && delta.faults_injected == 0
                && delta.backoff_seconds == 0.0,
            "compute_on delta must be compute-only: {delta:?}"
        );
        let before = self.stats;
        self.stats.merge(delta);
        debug_assert!(
            self.stats.cycles_consistent(),
            "mirrored compute delta broke cycle consistency for {label:?}"
        );
        let engine = self.streams.compute_engine(stream);
        let (start, end) =
            self.streams
                .schedule(stream, engine, duration_cycles, self.clock_cycles)?;
        self.record_span_at(SpanKind::Kernel, label, before, start, end, Some(engine));
        Ok(())
    }

    /// Record an event on `stream` (see [`StreamModel::record_event`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidStream`] for a stale stream handle.
    pub fn record_event(&mut self, stream: StreamId) -> Result<EventId> {
        self.streams.record_event(stream)
    }

    /// Make `stream` wait for `event` (see [`StreamModel::wait_event`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidStream`] for a stale stream or event.
    pub fn wait_event(&mut self, stream: StreamId, event: EventId) -> Result<()> {
        self.streams.wait_event(stream, event)
    }

    /// Block until `event` has completed: the serial trace clock advances to
    /// the event's recorded cycle (it never moves backwards). Returns the
    /// new clock.
    ///
    /// This is the host-side half of a producer/consumer edge: serially
    /// executed work (e.g. a kernel that consumes a streamed upload) calls
    /// this before being charged, so it cannot pretend to predate the data
    /// it reads.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidStream`] for a stale event handle.
    pub fn sync_event(&mut self, event: EventId) -> Result<u64> {
        let at = self.streams.event_cycle(event)?;
        self.clock_cycles = self.clock_cycles.max(at);
        Ok(self.clock_cycles)
    }

    /// Block until all streamed work has finished: the serial trace clock
    /// advances to the stream makespan (it never moves backwards). Returns
    /// the new clock. Call this before reading wallclock after streamed
    /// work, and on error paths so retries start from a settled clock.
    pub fn sync_streams(&mut self) -> u64 {
        self.clock_cycles = self.clock_cycles.max(self.streams.makespan());
        self.clock_cycles
    }

    /// The cycle at which all work — serial and streamed — has finished:
    /// the serial trace clock joined with the per-engine busy intervals of
    /// the stream scheduler.
    pub fn makespan(&self) -> u64 {
        self.clock_cycles.max(self.streams.makespan())
    }

    /// Seconds of GPU computation so far.
    pub fn gpu_seconds(&self) -> f64 {
        self.config.cycles_to_seconds(self.stats.gpu_cycles)
    }

    /// Seconds of PCIe transfer so far.
    pub fn pcie_secs(&self) -> f64 {
        self.stats.pcie_seconds
    }

    /// GPU + PCIe + backoff seconds (the paper's Figure 21 "overall" metric;
    /// the simulator serializes computation and transfer as the paper's
    /// baseline runtime does, and retry backoff waits on the same clock).
    pub fn total_seconds(&self) -> f64 {
        self.gpu_seconds() + self.pcie_secs() + self.stats.backoff_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Device {
        Device::new(DeviceConfig::fermi_c2050())
    }

    fn quantities(bytes: u64) -> KernelQuantities {
        KernelQuantities {
            global_bytes_read: bytes,
            ..KernelQuantities::default()
        }
    }

    #[test]
    fn launch_updates_stats_and_timeline() {
        let mut d = device();
        let res = KernelResources {
            registers_per_thread: 20,
            shared_per_cta: 1024,
        };
        d.launch("k1", LaunchDims::new(512, 256), res, &quantities(1 << 20))
            .unwrap();
        assert_eq!(d.stats().kernel_launches, 1);
        assert_eq!(d.stats().global_bytes_read, 1 << 20);
        assert!(d.stats().gpu_cycles > 0);
        assert_eq!(d.spans().len(), 1);
        assert_eq!(d.spans()[0].delta.gpu_cycles, d.stats().gpu_cycles);
        assert!(d.gpu_seconds() > 0.0);
    }

    #[test]
    fn infeasible_launch_rejected() {
        let mut d = device();
        let res = KernelResources {
            registers_per_thread: 200,
            shared_per_cta: 0,
        };
        let err = d
            .launch(
                "bad",
                LaunchDims::new(1, 256),
                res,
                &KernelQuantities::default(),
            )
            .unwrap_err();
        assert!(matches!(err, SimError::InfeasibleLaunch { .. }));
        assert_eq!(d.stats().kernel_launches, 0);
    }

    #[test]
    fn transfer_updates_stats() {
        let mut d = device();
        let t = d.transfer(Direction::HostToDevice, 1 << 30).unwrap();
        assert!(t > 0.1);
        d.transfer(Direction::DeviceToHost, 1 << 20).unwrap();
        assert_eq!(d.stats().h2d_transfers, 1);
        assert_eq!(d.stats().d2h_transfers, 1);
        assert!((d.pcie_secs() - d.stats().pcie_seconds).abs() < 1e-12);
        assert!(d.total_seconds() >= d.pcie_secs());
    }

    #[test]
    fn alloc_free_tracked_in_timeline() {
        let mut d = device();
        let b = d.alloc(1024, "x").unwrap();
        d.free(b).unwrap();
        let kinds: Vec<SpanKind> = d.spans().iter().map(|s| s.kind).collect();
        assert_eq!(kinds, [SpanKind::Alloc, SpanKind::Free]);
        assert_eq!(d.memory().peak(), 1024);
    }

    #[test]
    fn arena_lifecycle_is_two_spans_and_publishes_metrics() {
        let mut d = device();
        let mut arena = d.create_arena(4096, "plan.arena").unwrap();
        // Sub-allocations are pure accounting: no spans, no tracker churn.
        let a = arena.acquire(1000).unwrap();
        let b = arena.acquire(2000).unwrap();
        arena.release(a).unwrap();
        arena.release(b).unwrap();
        arena.reset();
        let stats = d.release_arena(arena).unwrap();
        assert_eq!(stats.reservation, 4096);
        assert_eq!(stats.high_water, 3000);
        assert_eq!(stats.sub_allocs, 2);
        assert_eq!(stats.resets, 1);
        let allocs = d
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Alloc)
            .count();
        let frees = d
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Free)
            .count();
        assert_eq!((allocs, frees), (1, 1));
        assert_eq!(d.memory().peak(), 4096, "tracker sees only the reservation");
        assert_eq!(d.memory().alloc_count(), 1);
        assert_eq!(d.metrics().gauge("kw_arena_high_water_bytes"), Some(3000.0));
        assert_eq!(d.metrics().counter("kw_arena_suballocs_total"), 2);
        assert_eq!(d.metrics().counter("kw_arena_resets_total"), 1);
    }

    #[test]
    fn absorb_scratch_peak_raises_parent_gauges() {
        let mut d = device();
        let b = d.alloc(100, "x").unwrap();
        d.free(b).unwrap();
        let mut fork = d.fork_scratch();
        let big = fork.alloc(5000, "y").unwrap();
        fork.free(big).unwrap();
        d.absorb_scratch(&fork);
        assert_eq!(d.memory().peak(), 5000);
        assert_eq!(d.metrics().gauge("kw_device_mem_peak_bytes"), Some(5000.0));
        // Absorbing a smaller peak is a no-op (high-water semantics).
        d.absorb_scratch(&device());
        assert_eq!(d.memory().peak(), 5000);
        // An absorbed fork alone puts the memory gauges on the export.
        let mut parent = device();
        assert_eq!(parent.metrics().gauge("kw_device_mem_in_use_bytes"), None);
        parent.absorb_scratch(&device());
        assert_eq!(
            parent.metrics().gauge("kw_device_mem_in_use_bytes"),
            Some(0.0)
        );
    }

    #[test]
    fn absorb_folds_arena_totals_spills_and_free_errors() {
        let mut d = device();
        let mut own = d.create_arena(4096, "a").unwrap();
        own.acquire(3000).unwrap();
        d.release_arena(own).unwrap();
        let mut fork = d.fork_scratch();
        let mut arena = fork.create_arena(1024, "b").unwrap();
        arena.acquire(1000).unwrap();
        arena.reset();
        fork.release_arena(arena).unwrap();
        let spill = fork.alloc_spill(10, "spill").unwrap();
        fork.free(spill).unwrap();
        fork.note_free_error(&SimError::InvalidBuffer { id: 3 });
        d.absorb_scratch(&fork);
        let m = d.metrics();
        assert_eq!(m.gauge("kw_arena_reservation_bytes"), Some(1024.0));
        assert_eq!(m.gauge("kw_arena_high_water_bytes"), Some(3000.0));
        assert_eq!(m.counter("kw_arena_suballocs_total"), 2);
        assert_eq!(m.counter("kw_arena_resets_total"), 1);
        assert_eq!(m.counter("kw_arena_spills_total"), 1);
        assert_eq!(m.counter("kw_free_errors_total"), 1);
        assert_eq!(d.free_errors(), 1);
    }

    #[test]
    fn free_errors_are_counted_and_first_is_retained() {
        let mut d = device();
        assert!(d.first_free_error().is_none());
        d.note_free_error(&SimError::InvalidBuffer { id: 7 });
        d.note_free_error(&SimError::InvalidBuffer { id: 9 });
        assert_eq!(d.free_errors(), 2);
        assert_eq!(d.metrics().counter("kw_free_errors_total"), 2);
        assert!(d.first_free_error().unwrap().contains('7'));
    }

    #[test]
    fn injected_transfer_fault_surfaces_and_charges_nothing() {
        let mut d = device();
        d.inject_faults(crate::FaultConfig::scripted(vec![crate::ScriptedFault {
            kind: crate::FaultKind::Transfer,
            attempt: 0,
        }]));
        let err = d.transfer(Direction::HostToDevice, 1 << 20).unwrap_err();
        assert!(matches!(err, SimError::TransferFault { bytes, .. } if bytes == 1 << 20));
        assert!(err.is_transient());
        assert_eq!(d.stats().h2d_transfers, 0);
        assert_eq!(d.stats().faults_injected, 1);
        assert_eq!(d.spans()[0].kind, SpanKind::Fault);
        assert_eq!(d.spans()[0].label, "fault.transfer:HostToDevice");
        // The retry (attempt 1) succeeds.
        assert!(d.transfer(Direction::HostToDevice, 1 << 20).is_ok());
    }

    #[test]
    fn injected_launch_and_alloc_faults_surface() {
        let mut d = device();
        d.inject_faults(crate::FaultConfig::scripted(vec![
            crate::ScriptedFault {
                kind: crate::FaultKind::Launch,
                attempt: 0,
            },
            crate::ScriptedFault {
                kind: crate::FaultKind::Alloc,
                attempt: 0,
            },
        ]));
        let res = KernelResources {
            registers_per_thread: 20,
            shared_per_cta: 0,
        };
        let err = d
            .launch("k", LaunchDims::new(64, 256), res, &quantities(1024))
            .unwrap_err();
        assert!(matches!(err, SimError::LaunchFault { .. }));
        assert_eq!(d.stats().kernel_launches, 0);
        let err = d.alloc(1024, "buf").unwrap_err();
        assert!(matches!(err, SimError::AllocFault { requested: 1024 }));
        assert_eq!(d.memory().in_use(), 0);
        // Retries of both succeed and charge normally.
        d.launch("k", LaunchDims::new(64, 256), res, &quantities(1024))
            .unwrap();
        d.alloc(1024, "buf").unwrap();
        assert_eq!(d.stats().faults_injected, 2);
    }

    #[test]
    fn backoff_charges_total_seconds() {
        let mut d = device();
        let before = d.total_seconds();
        d.charge_backoff(0.125);
        assert!((d.total_seconds() - before - 0.125).abs() < 1e-12);
        assert_eq!(d.spans()[0].kind, SpanKind::Backoff);
    }

    #[test]
    fn streamed_pipeline_overlaps_and_reconciles() {
        let mut d = device();
        let res = KernelResources {
            registers_per_thread: 20,
            shared_per_cta: 0,
        };
        let mut serialized_cycles = 0u64;
        for i in 0..3 {
            let s = d.create_stream();
            let up = d.transfer_on(s, Direction::HostToDevice, 1 << 24).unwrap();
            let cost = d
                .launch_on(
                    s,
                    format!("k{i}"),
                    LaunchDims::new(4096, 256),
                    res,
                    &quantities(1 << 24),
                )
                .unwrap();
            let down = d.transfer_on(s, Direction::DeviceToHost, 1 << 24).unwrap();
            serialized_cycles += d.config().seconds_to_cycles(up)
                + cost.total_cycles()
                + d.config().seconds_to_cycles(down);
        }
        // Issuing async work is free; sync realizes the makespan.
        assert_eq!(d.clock_cycles(), 0);
        let end = d.sync_streams();
        assert_eq!(end, d.makespan());
        assert!(
            end > 0 && end < serialized_cycles,
            "{end} vs {serialized_cycles}"
        );
        let busiest = *d.streams().engine_busy().values().max().unwrap();
        assert!(end >= busiest);
        // Streamed spans still reconcile with the aggregate counters.
        crate::reconcile(d.spans(), d.stats()).unwrap();
        assert_eq!(d.stats().kernel_launches, 3);
        assert_eq!(d.stats().h2d_transfers, 3);
        assert_eq!(d.spans().len(), 9);
    }

    #[test]
    fn streamed_ops_respect_issue_clock_floor() {
        let mut d = device();
        // Serial work first: the clock has advanced when the stream starts.
        d.transfer(Direction::HostToDevice, 1 << 20).unwrap();
        let floor = d.clock_cycles();
        assert!(floor > 0);
        let s = d.create_stream();
        d.transfer_on(s, Direction::HostToDevice, 1 << 20).unwrap();
        let span = d.spans().last().unwrap();
        assert_eq!(span.engine, Some(Engine::CopyH2D));
        assert!(
            span.start_cycle >= floor,
            "async work cannot predate its issue"
        );
    }

    #[test]
    fn streamed_transfer_faults_fire() {
        let mut d = device();
        d.inject_faults(crate::FaultConfig::scripted(vec![crate::ScriptedFault {
            kind: crate::FaultKind::Transfer,
            attempt: 0,
        }]));
        let s = d.create_stream();
        let err = d
            .transfer_on(s, Direction::HostToDevice, 1 << 20)
            .unwrap_err();
        assert!(err.is_transient());
        assert_eq!(d.stats().h2d_transfers, 0);
        assert_eq!(d.stats().faults_injected, 1);
        // Retry on the same stream succeeds.
        assert!(d.transfer_on(s, Direction::HostToDevice, 1 << 20).is_ok());
        crate::reconcile(d.spans(), d.stats()).unwrap();
    }

    #[test]
    fn compute_on_rejects_stale_stream_and_charges_delta() {
        let mut d = device();
        let s = d.create_stream();
        let delta = SimStats {
            kernel_launches: 2,
            gpu_cycles: 1000,
            launch_cycles: 1000,
            ..SimStats::default()
        };
        d.compute_on(s, "chunk0.compute", &delta, 1500).unwrap();
        assert_eq!(d.stats().kernel_launches, 2);
        assert_eq!(d.sync_streams(), 1500);
        crate::reconcile(d.spans(), d.stats()).unwrap();

        // A handle from another device is stale on one with no streams.
        let mut fresh = device();
        let err = fresh.compute_on(s, "stale", &delta, 10).unwrap_err();
        assert!(matches!(err, SimError::InvalidStream { .. }));
        assert_eq!(
            fresh.stats().kernel_launches,
            0,
            "stale handle charges nothing"
        );
    }

    #[test]
    fn metrics_render_from_stats_spans_and_tracker() {
        assert!(device().metrics().is_empty(), "no records, no series");
        let mut d = device();
        let res = KernelResources {
            registers_per_thread: 20,
            shared_per_cta: 0,
        };
        let b = d.alloc(1 << 20, "buf").unwrap();
        d.transfer(Direction::HostToDevice, 1 << 20).unwrap();
        d.launch("k", LaunchDims::new(512, 256), res, &quantities(1 << 20))
            .unwrap();
        let s = d.create_stream();
        d.launch_on(
            s,
            "k2",
            LaunchDims::new(512, 256),
            res,
            &quantities(1 << 20),
        )
        .unwrap();
        let m = d.metrics();
        assert_eq!(m.counter("kw_gpu_cycles_total"), d.stats().gpu_cycles);
        assert_eq!(m.counter("kw_global_bytes_total"), d.stats().global_bytes());
        assert_eq!(m.counter("kw_h2d_bytes_total"), d.stats().h2d_bytes);
        assert_eq!(m.counter("kw_kernel_launches_total"), 2);
        assert_eq!(m.counter("kw_kernel_spans_total"), 2);
        assert_eq!(m.counter("kw_pcie_spans_total"), 1);
        assert_eq!(m.counter("kw_spans_total"), d.spans().len() as u64);
        let h = m.histogram("kw_kernel_cycles").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(
            h.sum(),
            d.stats().gpu_cycles,
            "both kernels charged serially-priced cycles"
        );
        assert_eq!(
            m.gauge("kw_device_mem_in_use_bytes"),
            Some((1 << 20) as f64)
        );
        d.free(b).unwrap();
        assert_eq!(d.metrics().gauge("kw_device_mem_in_use_bytes"), Some(0.0));
    }

    #[test]
    fn fork_scratch_propagates_fault_rates() {
        let mut d = device();
        d.inject_faults(crate::FaultConfig::uniform(5, 1.0));
        let mut scratch = d.fork_scratch();
        assert!(scratch.transfer(Direction::HostToDevice, 8).is_err());
        let mut plain = device();
        assert!(plain
            .fork_scratch()
            .transfer(Direction::HostToDevice, 8)
            .is_ok());
    }
}
