//! Multi-query stream scheduling: concurrent plans on one shared device,
//! with per-query fault domains and elastic admission waves.
//!
//! The paper measures fusion one query at a time; this module is the regime
//! where those wins compound. [`execute_batch`] takes a batch of independent
//! queries and schedules every (possibly fused) step of every query on the
//! shared device's stream/event model:
//!
//! * **Stream assignment** — each step of each query gets its own CUDA-style
//!   stream. Streams are created slot-major (step 0 of every query, then
//!   step 1, …) so the round-robin compute-engine assignment of
//!   [`kw_gpu_sim::StreamModel`] spreads *queries* — not steps of one
//!   query — across engines first.
//! * **Event edges** — a step waits on `record_event`/`wait_event` edges
//!   from the steps that produce its inputs and from the uploads of the
//!   base relations it consumes; nothing else orders it. Independent
//!   queries therefore overlap wherever the engines allow: one query's
//!   uploads hide under another's kernels, downloads under later compute.
//! * **Fairness** — work is *issued* slot-major round-robin across queries.
//!   Engines are FIFO in issue order (Fermi exposes a single hardware work
//!   queue), so round-robin issue is what keeps one long query from
//!   starving the rest; it also means a stalled step can head-of-line
//!   block its engine, exactly as the paper's hardware would.
//! * **Fault domains** — each query is its own fault domain. A transient
//!   injected fault striking a query's phase-1 scratch run or phase-2
//!   issue is retried with bounded exponential backoff
//!   ([`crate::RetryPolicy`], backoff charged to the shared clock); budget
//!   exhaustion or a fatal error *quarantines* that query
//!   ([`QueryOutcome::Failed`]) and frees its device reservation, instead
//!   of aborting the batch.
//! * **Admission waves** — when the sum of resident peaks exceeds free
//!   device bytes, [`crate::plan_waves`] partitions the batch into
//!   sequential waves that each fit (first-fit-decreasing over resident
//!   peaks). Queries too large even for a solo wave run after the waves
//!   via the [`crate::execute_compiled_resilient`] Resident → Staged →
//!   Chunked ladder and report [`QueryOutcome::Degraded`].
//!
//! Per-query computation runs ahead of the replay on a scratch run — one
//! fork of the shared device per attempt, the same fork-and-replay seam
//! chunked runs use: real relations in, real relations out,
//! one typed compute-only cost per compiled step, and the fork's peak and
//! free errors folded back into the shared device. The shared device
//! then sees each step as one `compute_on` span plus real streamed boundary
//! transfers, so its span log still reconciles ([`kw_gpu_sim::reconcile`])
//! and its stream graph — not a side formula — produces the batch makespan,
//! per-query latencies and throughput of [`BatchReport`]. While a wave is
//! in flight the device holds one reservation buffer per member query,
//! sized to its predicted resident peak, so the memory tracker sees the
//! concurrent footprint admission signed off on — and every error path
//! frees those reservations before moving on.

use std::collections::BTreeMap;

use kw_gpu_sim::{
    BufferId, Device, DeviceConfig, Direction, EventId, MetricsRegistry, SpanKind, StreamId,
};
use kw_relational::Relation;

use crate::admission::{
    plan_waves, AdmittedMode, BatchAdmissionQuery, BatchWavePlan, QueryAdmission,
};
use crate::resilient::{rung_config, RetryBudget, RetryPolicy};
use crate::scratch::{ScratchExecution, ScratchRun};
use crate::{
    CompiledPlan, NodeId, PlanNode, PlanReport, QueryPlan, Result, WeaverConfig, WeaverError,
};

/// One query of a batch: a plan, its input bindings, and a name for
/// reports and trace provenance.
#[derive(Debug, Clone, Copy)]
pub struct BatchQuery<'a> {
    /// Name used in reports and span provenance (`q{i}:{name}` frames).
    pub name: &'a str,
    /// The plan to execute.
    pub plan: &'a QueryPlan,
    /// Named input relations, as for [`crate::execute_plan`].
    pub bindings: &'a [(&'a str, &'a Relation)],
}

/// How one query of a batch ended up: its fault-domain verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    /// Clean first-try completion inside its admission wave.
    Completed,
    /// Completed after one or more transient faults were absorbed by
    /// retry-with-backoff (in the scratch run, the streamed issue, or a
    /// ladder attempt).
    Retried,
    /// Completed, but not concurrently resident: the query fell down the
    /// Resident → Staged → Chunked ladder to the given mode.
    Degraded {
        /// The mode that finally produced the answer.
        mode: AdmittedMode,
    },
    /// Quarantined: the query did not produce outputs, and the rest of the
    /// batch ran on without it.
    Failed {
        /// The error that exhausted the query's fault domain.
        reason: String,
    },
}

impl QueryOutcome {
    /// Stable lowercase name used in JSON exports and profile annotations.
    pub fn name(&self) -> &'static str {
        match self {
            QueryOutcome::Completed => "completed",
            QueryOutcome::Retried => "retried",
            QueryOutcome::Degraded { .. } => "degraded",
            QueryOutcome::Failed { .. } => "failed",
        }
    }

    /// Whether the query produced its outputs (anything but `Failed`).
    pub fn is_success(&self) -> bool {
        !matches!(self, QueryOutcome::Failed { .. })
    }
}

impl std::fmt::Display for QueryOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryOutcome::Degraded { mode } => write!(f, "degraded({mode})"),
            QueryOutcome::Failed { reason } => write!(f, "failed: {reason}"),
            other => f.write_str(other.name()),
        }
    }
}

/// Per-query results and metrics of a batched execution.
#[derive(Debug)]
pub struct BatchQueryReport {
    /// The query's name, as given in [`BatchQuery`].
    pub name: String,
    /// How the query's fault domain resolved.
    pub outcome: QueryOutcome,
    /// The admission wave the query ran in (`None` for ladder-tail and
    /// quarantined queries).
    pub wave: Option<usize>,
    /// Transient-fault retries this query absorbed, across phases.
    pub retries: u32,
    /// Simulated seconds of retry backoff charged for this query.
    pub backoff_seconds: f64,
    /// Relations of the query's marked plan outputs (empty when
    /// quarantined).
    pub outputs: BTreeMap<NodeId, Relation>,
    /// Seconds from batch start until this query's last scheduled
    /// operation finished on the shared device (0 when quarantined).
    pub latency_seconds: f64,
    /// GPU computation seconds charged by this query's kernels.
    pub gpu_seconds: f64,
    /// PCIe seconds of this query's boundary transfers.
    pub pcie_seconds: f64,
    /// Number of (possibly fused) operators scheduled.
    pub operator_count: usize,
    /// The fusion sets the compiler chose.
    pub fusion_sets: Vec<Vec<NodeId>>,
    /// Peak device bytes of the query's working set (what the shared
    /// device must reserve for it while it is in flight).
    pub peak_device_bytes: u64,
}

/// What a batched execution did on the shared device.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-query results, in batch order.
    pub queries: Vec<BatchQueryReport>,
    /// Shared-device makespan of the whole batch, seconds: from batch
    /// start to the last operation's end (waves and ladder tail included).
    pub makespan_seconds: f64,
    /// The same scheduled work with no overlap at all — the sum of every
    /// span's duration in the batch window (streamed ops, ladder work and
    /// retry backoff alike). An upper bound on `makespan_seconds`.
    pub serialized_seconds: f64,
    /// Submitted queries per second of makespan (0 for an empty batch).
    pub throughput_qps: f64,
    /// *Successful* queries per second of makespan — what the batch
    /// actually delivered once quarantines are subtracted.
    pub goodput_qps: f64,
    /// Number of admission waves that actually issued work.
    pub waves: usize,
    /// Median per-query latency over successful queries: the exact
    /// nearest-rank order statistic of the observed latencies (0 when no
    /// query succeeded). [`BatchReport::publish`] still renders the
    /// log-bucketed `kw_batch_query_latency_cycles` histogram, but the
    /// report quotes real percentiles, not power-of-two bucket bounds.
    pub latency_p50_seconds: f64,
    /// Exact 95th-percentile per-query latency (nearest rank — always one
    /// of the observed latencies).
    pub latency_p95_seconds: f64,
    /// Exact 99th-percentile per-query latency (nearest rank).
    pub latency_p99_seconds: f64,
    /// Busy seconds per hardware engine over this batch's window, keyed by
    /// engine name (`compute{i}`, `copy.h2d`, `copy.d2h`).
    pub engine_busy_seconds: BTreeMap<String, f64>,
    /// Per-engine busy time as a fraction of the batch makespan — the
    /// copy-compute overlap picture the stream model exists to produce.
    pub engine_utilization: BTreeMap<String, f64>,
    /// Roofline-style bottleneck attribution for the batch, with one
    /// operator row per query scope annotated with the query's outcome
    /// (see [`crate::ProfileReport`]).
    pub profile: crate::ProfileReport,
    /// Free errors the device swallowed on drain-on-error paths
    /// (`kw_free_errors_total` at batch end). Like
    /// [`PlanReport::free_errors`] this is a device-lifetime count, not
    /// this batch's alone; non-zero means some drain hit accounting
    /// corruption worth investigating.
    pub free_errors: u64,
    /// The first swallowed free error on the device, if any.
    pub first_free_error: Option<String>,
    /// The elastic admission verdict: wave packing, ladder routing,
    /// per-query rejections.
    pub admission: BatchWavePlan,
}

impl BatchReport {
    /// Queries that finished clean on the first try.
    pub fn completed_count(&self) -> usize {
        self.count(|o| matches!(o, QueryOutcome::Completed))
    }

    /// Queries that needed transient-fault retries but completed.
    pub fn retried_count(&self) -> usize {
        self.count(|o| matches!(o, QueryOutcome::Retried))
    }

    /// Queries that completed via a cheaper mode down the ladder.
    pub fn degraded_count(&self) -> usize {
        self.count(|o| matches!(o, QueryOutcome::Degraded { .. }))
    }

    /// Queries quarantined without producing outputs.
    pub fn quarantined_count(&self) -> usize {
        self.count(|o| matches!(o, QueryOutcome::Failed { .. }))
    }

    fn count(&self, pred: impl Fn(&QueryOutcome) -> bool) -> usize {
        self.queries.iter().filter(|q| pred(&q.outcome)).count()
    }

    /// Render this batch's layer series into `metrics`: the six
    /// `kw_batch*_total` counters and the `kw_batch_query_latency_cycles`
    /// histogram over successful queries, on `config`'s clock (the device
    /// the batch ran on).
    pub fn publish(&self, config: &DeviceConfig, metrics: &mut MetricsRegistry) {
        let retries: u64 = self.queries.iter().map(|q| u64::from(q.retries)).sum();
        metrics.inc("kw_batches_total", 1);
        metrics.inc("kw_batch_queries_total", self.queries.len() as u64);
        metrics.inc("kw_batch_waves_total", self.waves as u64);
        metrics.inc("kw_batch_retries_total", retries);
        metrics.inc(
            "kw_batch_quarantines_total",
            self.quarantined_count() as u64,
        );
        metrics.inc("kw_batch_degradations_total", self.degraded_count() as u64);
        for q in self.queries.iter().filter(|q| q.outcome.is_success()) {
            let cycles = config.seconds_to_cycles(q.latency_seconds);
            metrics.observe("kw_batch_query_latency_cycles", cycles);
        }
    }
}

/// A streamed transfer inside a query's fault domain: transient faults are
/// absorbed by `counters` until its budget runs out.
fn transfer_with_retry(
    device: &mut Device,
    stream: StreamId,
    direction: Direction,
    bytes: u64,
    policy: &RetryPolicy,
    counters: &mut RetryBudget,
) -> Result<()> {
    loop {
        match device.transfer_on(stream, direction, bytes) {
            Ok(_) => return Ok(()),
            Err(e) if e.is_transient() && counters.absorb(device, policy) => {}
            Err(e) => return Err(e.into()),
        }
    }
}

/// An allocation inside a query's fault domain (wave reservations), with
/// the same transient-fault absorption as [`transfer_with_retry`].
fn alloc_with_retry(
    device: &mut Device,
    bytes: u64,
    label: &str,
    policy: &RetryPolicy,
    counters: &mut RetryBudget,
) -> Result<BufferId> {
    loop {
        match device.alloc(bytes, label) {
            Ok(id) => return Ok(id),
            Err(e) if e.is_transient() && counters.absorb(device, policy) => {}
            Err(e) => return Err(e.into()),
        }
    }
}

/// Execute a batch of independent queries concurrently on one shared
/// device, each query its own fault domain under `policy`.
///
/// `compiled[i]` must be `compile(queries[i].plan, config)` (or an equal
/// plan/config pair), so a compiled-plan cache can hand the same
/// [`CompiledPlan`] to every arrival of a repeated shape. Each query's
/// relational work runs ahead on a scratch device fork (real data,
/// per-step costs measured), then every step is scheduled on the shared
/// device — one stream per step, `record_event`/`wait_event` edges for data
/// dependences, boundary transfers on the H2D/D2H copy engines — and the
/// stream graph's makespan becomes the batch wallclock. Outputs are
/// byte-identical to solo execution by construction: stream interleaving
/// decides *when* work runs, never what it computes.
///
/// Faults and capacity misses never abort the batch: each query reports a
/// [`QueryOutcome`]. A batch whose concurrent footprint exceeds free device
/// bytes is partitioned into sequential admission waves; queries too large
/// for a solo wave degrade down the Resident → Staged → Chunked ladder
/// after the waves. The scheduler picks every query's mode and chunk count,
/// so [`WeaverConfig::mode`] and [`WeaverConfig::chunks`] are ignored.
///
/// # Errors
///
/// Returns [`WeaverError::Plan`] when `queries` and `compiled` disagree in
/// length (a caller bug, not a fault domain). Everything from admission
/// onward — binding errors, injected faults, capacity misses — is absorbed
/// into per-query outcomes.
///
/// # Examples
///
/// ```
/// use kw_core::{
///     compile, execute_batch, BatchQuery, QueryOutcome, QueryPlan, RetryPolicy, WeaverConfig,
/// };
/// use kw_gpu_sim::{Device, DeviceConfig};
/// use kw_primitives::RaOp;
/// use kw_relational::{gen, CmpOp, Predicate, Value};
///
/// let input = gen::micro_input(10_000, 11);
/// let mut plan = QueryPlan::new();
/// let t = plan.add_input("t", input.schema().clone());
/// let s = plan.add_op(
///     RaOp::Select { pred: Predicate::cmp(0, CmpOp::Lt, Value::U32(1 << 31)) },
///     &[t],
/// )?;
/// plan.mark_output(s);
///
/// let config = WeaverConfig::default();
/// let compiled = compile(&plan, &config)?;
/// let bindings = [("t", &input)];
/// let queries = [
///     BatchQuery { name: "q0", plan: &plan, bindings: &bindings },
///     BatchQuery { name: "q1", plan: &plan, bindings: &bindings },
/// ];
/// let mut device = Device::new(DeviceConfig::fermi_c2050());
/// let batch = execute_batch(
///     &queries, &[compiled.clone(), compiled], &mut device, &config, &RetryPolicy::default(),
/// )?;
/// assert_eq!(batch.queries.len(), 2);
/// assert!(batch.queries.iter().all(|q| q.outcome == QueryOutcome::Completed));
/// assert!(batch.makespan_seconds <= batch.serialized_seconds);
/// # Ok::<(), kw_core::WeaverError>(())
/// ```
pub fn execute_batch(
    queries: &[BatchQuery<'_>],
    compiled: &[CompiledPlan],
    device: &mut Device,
    config: &WeaverConfig,
    policy: &RetryPolicy,
) -> Result<BatchReport> {
    if queries.len() != compiled.len() {
        return Err(WeaverError::plan(format!(
            "batch has {} queries but {} compiled plans",
            queries.len(),
            compiled.len()
        )));
    }

    // The batch window opens before phase 1: scratch runs charge nothing
    // to the shared clock except retry backoff, which belongs inside the
    // window (the wait delays the streamed work that follows).
    let batch_start = device.sync_streams();
    let spans_before = device.spans().len();

    // Elastic admission: pack wave-sized queries first-fit-decreasing,
    // route oversized ones to the ladder tail, reject per query.
    let free = device
        .memory()
        .capacity()
        .saturating_sub(device.memory().in_use());
    let admission_input: Vec<BatchAdmissionQuery<'_>> = queries
        .iter()
        .zip(compiled)
        .map(|(q, c)| (q.plan, c, q.bindings))
        .collect();
    let admission = plan_waves(&admission_input, free);

    let mut wave_of: Vec<Option<usize>> = Vec::with_capacity(queries.len());
    let mut on_ladder: Vec<bool> = Vec::with_capacity(queries.len());
    let mut failed: Vec<Option<String>> = Vec::with_capacity(queries.len());
    for verdict in &admission.per_query {
        match verdict {
            QueryAdmission::Wave { wave, .. } => {
                wave_of.push(Some(*wave));
                on_ladder.push(false);
                failed.push(None);
            }
            QueryAdmission::Ladder { .. } => {
                wave_of.push(None);
                on_ladder.push(true);
                failed.push(None);
            }
            QueryAdmission::Rejected { reason } => {
                wave_of.push(None);
                on_ladder.push(false);
                failed.push(Some(reason.clone()));
            }
        }
    }
    let mut counters: Vec<RetryBudget> = vec![RetryBudget::default(); queries.len()];
    let mut degraded: Vec<Option<AdmittedMode>> = vec![None; queries.len()];
    // The cycle each query's last operation finished at: its wave steps'
    // completion events, or the device makespan after its ladder run.
    let mut finish_cycle: Vec<u64> = vec![batch_start; queries.len()];

    // Phase 1: run every wave query on a scratch run (derived fault
    // streams keep injected faults striking inside query execution) to
    // obtain its outputs and measured per-step compute costs. Each query
    // is a fault domain: transients retry with backoff, a capacity miss
    // re-routes the query to the ladder tail, anything else quarantines it.
    let mut scratch: Vec<Option<ScratchExecution>> = (0..queries.len()).map(|_| None).collect();
    for (qi, q) in queries.iter().enumerate() {
        if wave_of[qi].is_none() || failed[qi].is_some() {
            continue;
        }
        // Size the scratch run's arena from the admission verdict this wave
        // was planned with — reservation and plan are one prediction.
        let reservation = match &admission.per_query[qi] {
            QueryAdmission::Wave { report, .. } => report.resident_peak,
            _ => unreachable!("phase 1 only runs wave-admitted queries"),
        };
        let cfg = rung_config(AdmittedMode::Resident, config);
        loop {
            // One scratch run per attempt: every fork advances the parent's
            // fault stream, so a retry meets fresh derived faults.
            let attempt =
                ScratchRun::open(device, reservation, "plan.arena").and_then(|mut run| {
                    let result = run.execute(q.plan, &compiled[qi], q.bindings, &cfg);
                    run.close(device);
                    result
                });
            match attempt {
                Ok(run) => {
                    scratch[qi] = Some(run);
                    break;
                }
                Err(e) if e.is_transient() => {
                    device.push_scope(format!("q{qi}:{}", q.name));
                    let absorbed = counters[qi].absorb(device, policy);
                    device.pop_scope();
                    if !absorbed {
                        failed[qi] = Some(e.to_string());
                        wave_of[qi] = None;
                        break;
                    }
                }
                Err(e) if e.is_capacity() => {
                    // Admission over-estimated the free headroom (or the
                    // estimate under-shot the real footprint): fall out of
                    // the wave and take the ladder after the batch.
                    wave_of[qi] = None;
                    on_ladder[qi] = true;
                    break;
                }
                Err(e) => {
                    failed[qi] = Some(e.to_string());
                    wave_of[qi] = None;
                    break;
                }
            }
        }
    }

    // Phase 2: schedule each wave on the shared device. Streams are
    // created slot-major so the engine round-robin spreads queries first.
    let mut waves_issued = 0usize;
    for (wi, wave) in admission.waves.iter().enumerate() {
        let members: Vec<usize> = wave
            .iter()
            .copied()
            .filter(|&qi| wave_of[qi] == Some(wi) && failed[qi].is_none() && scratch[qi].is_some())
            .collect();
        if members.is_empty() {
            continue;
        }
        waves_issued += 1;

        // Reserve each member's predicted resident peak for the wave's
        // flight, so the shared memory tracker sees the concurrent
        // footprint admission signed off on. A reservation that cannot be
        // allocated (past retries) quarantines only its query.
        let mut reservations: BTreeMap<usize, BufferId> = BTreeMap::new();
        for &qi in &members {
            counters[qi].reset();
            let peak = match &admission.per_query[qi] {
                QueryAdmission::Wave { report, .. } => report.resident_peak,
                _ => unreachable!("wave members are wave-admitted"),
            };
            if peak == 0 {
                continue;
            }
            device.push_scope(format!("q{qi}:{}", queries[qi].name));
            let got = alloc_with_retry(
                device,
                peak,
                &format!("q{qi}.workingset"),
                policy,
                &mut counters[qi],
            );
            device.pop_scope();
            match got {
                Ok(buf) => {
                    reservations.insert(qi, buf);
                }
                Err(e) => failed[qi] = Some(e.to_string()),
            }
        }

        let alive: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&qi| failed[qi].is_none())
            .collect();
        let max_steps = alive
            .iter()
            .map(|&qi| compiled[qi].steps.len())
            .max()
            .unwrap_or(0);
        let mut step_streams: Vec<Vec<StreamId>> = vec![Vec::new(); queries.len()];
        for slot in 0..max_steps {
            for &qi in &alive {
                if slot < compiled[qi].steps.len() {
                    step_streams[qi].push(device.create_stream());
                }
            }
        }

        // Per-query issue state for this wave.
        struct QState {
            /// `node -> producing step index` for intermediate results.
            producer: BTreeMap<NodeId, usize>,
            /// Upload event per base relation; `None` for zero-byte uploads
            /// (skipped outright, nothing to wait for).
            uploaded: BTreeMap<NodeId, Option<(StreamId, EventId)>>,
            /// Completion event per issued step.
            step_done: Vec<Option<EventId>>,
        }
        let mut states: BTreeMap<usize, QState> = alive
            .iter()
            .map(|&qi| {
                let c = &compiled[qi];
                let mut producer = BTreeMap::new();
                for (i, step) in c.steps.iter().enumerate() {
                    for &o in &step.outputs {
                        producer.insert(o, i);
                    }
                }
                (
                    qi,
                    QState {
                        producer,
                        uploaded: BTreeMap::new(),
                        step_done: vec![None; c.steps.len()],
                    },
                )
            })
            .collect();

        for slot in 0..max_steps {
            for &qi in &alive {
                if failed[qi].is_some() {
                    continue; // quarantined mid-wave: skip its later slots
                }
                let q = &queries[qi];
                let Some(step) = compiled[qi].steps.get(slot) else {
                    continue;
                };
                let stream = step_streams[qi][slot];
                let state = states.get_mut(&qi).expect("alive queries have state");
                let ScratchExecution { report, steps, .. } =
                    scratch[qi].as_ref().expect("alive queries ran ahead");
                let budget = &mut counters[qi];
                let finish = &mut finish_cycle[qi];

                // Every span this step emits carries the query's identity,
                // so a batch trace shows which query each overlapped op
                // belongs to.
                device.push_scope(format!("q{qi}:{}", q.name));
                let issued = (|device: &mut Device| -> Result<()> {
                    // Upload base relations on their first consumer's
                    // stream. Zero-byte relations are skipped outright (no
                    // fabricated per-transfer latency), mirroring chunked
                    // execution.
                    for &node in &step.inputs {
                        if !matches!(q.plan.node(node), PlanNode::Input { .. })
                            || state.uploaded.contains_key(&node)
                        {
                            continue;
                        }
                        let name = match q.plan.node(node) {
                            PlanNode::Input { name, .. } => name,
                            PlanNode::Operator { .. } => unreachable!("checked above"),
                        };
                        let bytes = q
                            .bindings
                            .iter()
                            .find(|(n, _)| n == name)
                            .map(|(_, r)| r.byte_size() as u64)
                            .ok_or_else(|| {
                                WeaverError::binding(format!("no relation bound to '{name}'"))
                            })?;
                        let ev = if bytes > 0 {
                            transfer_with_retry(
                                device,
                                stream,
                                Direction::HostToDevice,
                                bytes,
                                policy,
                                budget,
                            )?;
                            Some((stream, device.record_event(stream)?))
                        } else {
                            None
                        };
                        state.uploaded.insert(node, ev);
                    }

                    // Dependence edges: producing steps and cross-stream
                    // uploads must complete before this step's kernels run.
                    // Same-stream uploads are already ordered by stream FIFO.
                    for &node in &step.inputs {
                        if let Some(&p) = state.producer.get(&node) {
                            let ev = state.step_done[p].ok_or_else(|| {
                                WeaverError::plan(format!(
                                    "step input {node} scheduled before its producer"
                                ))
                            })?;
                            device.wait_event(stream, ev)?;
                        } else if let Some(&Some((src, ev))) = state.uploaded.get(&node) {
                            if src != stream {
                                device.wait_event(stream, ev)?;
                            }
                        }
                    }

                    let cost = &steps[slot];
                    device.compute_on(stream, step.op.label.clone(), cost, cost.gpu_cycles)?;

                    // Marked plan outputs return to the host as soon as
                    // their producing step finishes; the download then
                    // overlaps whatever the engines run next.
                    for &node in &step.outputs {
                        if !q.plan.outputs().contains(&node) {
                            continue;
                        }
                        let bytes = report.outputs[&node].byte_size() as u64;
                        if bytes > 0 {
                            transfer_with_retry(
                                device,
                                stream,
                                Direction::DeviceToHost,
                                bytes,
                                policy,
                                budget,
                            )?;
                        }
                    }
                    let done = device.record_event(stream)?;
                    state.step_done[slot] = Some(done);
                    *finish = (*finish).max(device.streams().event_cycle(done)?);
                    Ok(())
                })(device);
                device.pop_scope();
                if let Err(e) = issued {
                    // Quarantine this query only: drain in-flight work so
                    // the clock settles, free the query's reservation so
                    // nothing stays resident on its behalf, and let the
                    // rest of the wave keep issuing.
                    device.sync_streams();
                    if let Some(buf) = reservations.remove(&qi) {
                        // A reservation that cannot be returned is
                        // accounting corruption, not a reason to abort the
                        // wave: count it and keep the first message.
                        if let Err(fe) = device.free(buf) {
                            device.note_free_error(&fe);
                        }
                    }
                    failed[qi] = Some(e.to_string());
                }
            }
        }

        // Wave barrier: the next wave's reservations replace this one's,
        // so its streamed work must be fully drained and freed first.
        device.sync_streams();
        for (_, buf) in reservations {
            device.free(buf)?;
        }
    }

    // Ladder tail: queries too large for a solo wave (or whose scratch run
    // hit a capacity miss) run one at a time through the resilient
    // Resident → Staged → Chunked driver on the now-empty shared device.
    let mut ladder_done: Vec<Option<(PlanReport, u64, f64)>> =
        (0..queries.len()).map(|_| None).collect();
    for (qi, q) in queries.iter().enumerate() {
        if !on_ladder[qi] || failed[qi].is_some() {
            continue;
        }
        let gpu_before = device.stats().gpu_cycles;
        let pcie_before = device.stats().pcie_seconds;
        device.push_scope(format!("q{qi}:{}", q.name));
        let result = crate::execute_compiled_resilient(
            q.plan,
            &compiled[qi],
            q.bindings,
            device,
            config,
            policy,
        );
        device.pop_scope();
        match result {
            Ok(report) => {
                let res = report
                    .resilience
                    .as_ref()
                    .expect("resilient runs carry a resilience report");
                counters[qi].retries += res.retries;
                counters[qi].backoff_seconds += res.backoff_seconds;
                if res.final_mode != AdmittedMode::Resident {
                    degraded[qi] = Some(res.final_mode);
                }
                let gpu_cycles = device.stats().gpu_cycles - gpu_before;
                let pcie = device.stats().pcie_seconds - pcie_before;
                finish_cycle[qi] = finish_cycle[qi].max(device.makespan());
                ladder_done[qi] = Some((report, gpu_cycles, pcie));
            }
            Err(e) => {
                // The executor's cleanup guards already freed the attempt's
                // buffers; settle the clock and quarantine.
                device.sync_streams();
                failed[qi] = Some(e.to_string());
            }
        }
    }

    // Read the batch off the stream graph and the window's spans: makespan
    // from the unified cycle clock; serialized cost as the overlap-free sum
    // of every span's duration (streamed ops, ladder work and backoff alike
    // — so `serialized >= makespan` survives retried batches); busy time
    // per engine from the spans that occupied one (the device-lifetime
    // `engine_busy()` would include any pre-batch streamed work).
    let end_cycles = device.sync_streams();
    let makespan_cycles = end_cycles - batch_start;
    let makespan_seconds = device.config().cycles_to_seconds(makespan_cycles);
    let mut serialized_cycles = 0u64;
    let mut engine_busy_cycles: BTreeMap<String, u64> = BTreeMap::new();
    for s in &device.spans()[spans_before..] {
        serialized_cycles += s.cycles();
        if let Some(engine) = s.engine {
            *engine_busy_cycles.entry(engine.name()).or_insert(0) += s.cycles();
        }
    }
    let serialized_seconds = device.config().cycles_to_seconds(serialized_cycles);

    let mut reports = Vec::with_capacity(queries.len());
    let mut latencies: Vec<f64> = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        let outcome = if let Some(reason) = failed[qi].take() {
            QueryOutcome::Failed { reason }
        } else if let Some(mode) = degraded[qi] {
            QueryOutcome::Degraded { mode }
        } else if counters[qi].retries > 0 {
            QueryOutcome::Retried
        } else {
            QueryOutcome::Completed
        };

        let (outputs, gpu_cycles, pcie_seconds, peak) = if let Some(run) = &scratch[qi] {
            if outcome.is_success() {
                let gpu: u64 = run.steps.iter().map(|s| s.gpu_cycles).sum();
                // This query's streamed transfer spans, by scope frame.
                let frame = format!("q{qi}:{}", q.name);
                let pcie: f64 = device.spans()[spans_before..]
                    .iter()
                    .filter(|s| s.kind == SpanKind::Transfer)
                    .filter(|s| s.provenance.split('/').next() == Some(frame.as_str()))
                    .map(|s| s.delta.pcie_seconds)
                    .sum();
                (run.report.outputs.clone(), gpu, pcie, run.fork_peak)
            } else {
                (BTreeMap::new(), 0, 0.0, run.fork_peak)
            }
        } else if let Some((report, gpu_cycles, pcie)) = &ladder_done[qi] {
            (
                report.outputs.clone(),
                *gpu_cycles,
                *pcie,
                report.peak_device_bytes,
            )
        } else {
            (BTreeMap::new(), 0, 0.0, 0)
        };
        let latency_cycles = if outcome.is_success() {
            finish_cycle[qi] - batch_start
        } else {
            0
        };

        if outcome.is_success() {
            latencies.push(device.config().cycles_to_seconds(latency_cycles));
        }
        reports.push(BatchQueryReport {
            name: q.name.to_string(),
            wave: if outcome.is_success() {
                wave_of[qi]
            } else {
                None
            },
            retries: counters[qi].retries,
            backoff_seconds: counters[qi].backoff_seconds,
            outputs,
            latency_seconds: device.config().cycles_to_seconds(latency_cycles),
            gpu_seconds: device.config().cycles_to_seconds(gpu_cycles),
            pcie_seconds,
            operator_count: compiled[qi].steps.len(),
            fusion_sets: compiled[qi].fusion_sets.clone(),
            peak_device_bytes: peak,
            outcome,
        });
    }

    let successes = reports.iter().filter(|r| r.outcome.is_success()).count();
    let throughput_qps = if makespan_seconds > 0.0 {
        queries.len() as f64 / makespan_seconds
    } else {
        0.0
    };
    let goodput_qps = if makespan_seconds > 0.0 {
        successes as f64 / makespan_seconds
    } else {
        0.0
    };

    let engine_busy_seconds: BTreeMap<String, f64> = engine_busy_cycles
        .iter()
        .map(|(name, &c)| (name.clone(), device.config().cycles_to_seconds(c)))
        .collect();
    let engine_utilization: BTreeMap<String, f64> = engine_busy_seconds
        .iter()
        .map(|(name, &busy)| {
            let util = if makespan_seconds > 0.0 {
                busy / makespan_seconds
            } else {
                0.0
            };
            (name.clone(), util)
        })
        .collect();

    let mut profile = crate::ProfileReport::from_spans(
        device.spans(),
        device.stats(),
        device.config(),
        device.config().cycles_to_seconds(end_cycles),
    );
    profile.peak_device_bytes = device.memory().peak();
    let outcome_labels: Vec<(String, String)> = queries
        .iter()
        .enumerate()
        .map(|(qi, q)| {
            (
                format!("q{qi}:{}", q.name),
                reports[qi].outcome.name().to_string(),
            )
        })
        .collect();
    profile.annotate_outcomes(&outcome_labels);

    // Exact nearest-rank percentiles over the successful queries' observed
    // latencies. The log-bucketed histogram `BatchReport::publish` renders
    // serves cheap monitoring; the report quotes the true order statistics
    // so a quoted p95 is always one of the actual latencies, not a
    // power-of-two bucket's upper bound.
    let latency = crate::service::percentiles(&mut latencies);

    Ok(BatchReport {
        queries: reports,
        makespan_seconds,
        serialized_seconds,
        throughput_qps,
        goodput_qps,
        waves: waves_issued,
        latency_p50_seconds: latency.p50_seconds,
        latency_p95_seconds: latency.p95_seconds,
        latency_p99_seconds: latency.p99_seconds,
        engine_busy_seconds,
        engine_utilization,
        profile,
        free_errors: device.free_errors(),
        first_free_error: device.first_free_error().map(String::from),
        admission,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, execute_plan};
    use kw_gpu_sim::{DeviceConfig, FaultConfig, FaultKind, ScriptedFault};
    use kw_primitives::RaOp;
    use kw_relational::{gen, CmpOp, Predicate, Value};

    fn device() -> Device {
        Device::new(DeviceConfig::fermi_c2050())
    }

    /// Compile every query and run the batch under the default policy.
    fn run_batch(
        queries: &[BatchQuery<'_>],
        dev: &mut Device,
        config: &WeaverConfig,
    ) -> Result<BatchReport> {
        let compiled: Vec<CompiledPlan> = queries
            .iter()
            .map(|q| compile(q.plan, config))
            .collect::<Result<_>>()?;
        execute_batch(queries, &compiled, dev, config, &RetryPolicy::default())
    }

    fn sel(attr: usize, v: u32) -> RaOp {
        RaOp::Select {
            pred: Predicate::cmp(attr, CmpOp::Lt, Value::U32(v)),
        }
    }

    fn chain(schema: kw_relational::Schema, depth: usize) -> QueryPlan {
        let mut p = QueryPlan::new();
        let mut cur = p.add_input("t", schema);
        for a in 0..depth {
            cur = p.add_op(sel(a % 4, u32::MAX / 2), &[cur]).unwrap();
        }
        p.mark_output(cur);
        p
    }

    #[test]
    fn batch_outputs_match_solo_execution() {
        let a = gen::micro_input(20_000, 41);
        let b = gen::micro_input(30_000, 42);
        let pa = chain(a.schema().clone(), 2);
        let pb = chain(b.schema().clone(), 3);
        let ba = [("t", &a)];
        let bb = [("t", &b)];
        let queries = [
            BatchQuery {
                name: "qa",
                plan: &pa,
                bindings: &ba,
            },
            BatchQuery {
                name: "qb",
                plan: &pb,
                bindings: &bb,
            },
        ];
        let mut dev = device();
        let batch = run_batch(&queries, &mut dev, &WeaverConfig::default()).unwrap();

        for (q, r) in queries.iter().zip(&batch.queries) {
            assert_eq!(r.outcome, QueryOutcome::Completed);
            let mut solo_dev = device();
            let solo =
                execute_plan(q.plan, q.bindings, &mut solo_dev, &WeaverConfig::default()).unwrap();
            assert_eq!(r.outputs, solo.outputs, "{}", r.name);
        }
        assert_eq!(batch.waves, 1, "both queries fit one wave on the C2050");
        assert_eq!(dev.memory().in_use(), 0, "reservations must be freed");
    }

    #[test]
    fn batch_beats_serial_and_respects_engine_bounds() {
        let a = gen::micro_input(100_000, 43);
        let b = gen::micro_input(100_000, 44);
        let pa = chain(a.schema().clone(), 2);
        let pb = chain(b.schema().clone(), 2);
        let ba = [("t", &a)];
        let bb = [("t", &b)];
        let queries = [
            BatchQuery {
                name: "qa",
                plan: &pa,
                bindings: &ba,
            },
            BatchQuery {
                name: "qb",
                plan: &pb,
                bindings: &bb,
            },
        ];
        let mut dev = device();
        let batch = run_batch(&queries, &mut dev, &WeaverConfig::default()).unwrap();

        // Solo makespans on fresh devices.
        let mut solo_sum = 0.0;
        for q in &queries {
            let mut d = device();
            let solo = run_batch(&[*q], &mut d, &WeaverConfig::default()).unwrap();
            solo_sum += solo.makespan_seconds;
        }
        assert!(
            batch.makespan_seconds < solo_sum,
            "sharing the device must beat serial: {} vs {}",
            batch.makespan_seconds,
            solo_sum
        );
        // Lower bound: the busiest engine's busy time.
        let busiest = *dev.streams().engine_busy().values().max().unwrap();
        let floor = dev.config().cycles_to_seconds(busiest);
        assert!(batch.makespan_seconds >= floor - 1e-15);
        assert!(batch.makespan_seconds <= batch.serialized_seconds + 1e-15);
        assert!(batch.throughput_qps > 0.0);
        assert_eq!(batch.goodput_qps, batch.throughput_qps, "no quarantines");
        // Latencies end inside the batch window.
        for r in &batch.queries {
            assert!(r.latency_seconds > 0.0);
            assert!(r.latency_seconds <= batch.makespan_seconds + 1e-15);
        }
    }

    #[test]
    fn batch_trace_reconciles_and_carries_query_provenance() {
        let a = gen::micro_input(30_000, 45);
        let pa = chain(a.schema().clone(), 2);
        let ba = [("t", &a)];
        let queries = [
            BatchQuery {
                name: "alpha",
                plan: &pa,
                bindings: &ba,
            },
            BatchQuery {
                name: "beta",
                plan: &pa,
                bindings: &ba,
            },
        ];
        let mut dev = device();
        let batch = run_batch(&queries, &mut dev, &WeaverConfig::default()).unwrap();
        kw_gpu_sim::reconcile(dev.spans(), dev.stats()).unwrap();
        let provs: Vec<&str> = dev.spans().iter().map(|s| s.provenance.as_str()).collect();
        assert!(provs.iter().any(|p| p.starts_with("q0:alpha")), "{provs:?}");
        assert!(provs.iter().any(|p| p.starts_with("q1:beta")), "{provs:?}");
        // Outcomes are folded into the profile's per-query rows.
        let annotated: Vec<_> = batch
            .profile
            .operators
            .iter()
            .filter(|op| op.outcome.is_some())
            .collect();
        assert_eq!(annotated.len(), 2, "{:?}", batch.profile.operators);
        assert!(annotated
            .iter()
            .all(|op| op.outcome.as_deref() == Some("completed")));
    }

    #[test]
    fn oversubscribed_batch_runs_in_sequential_waves() {
        // 8 queries whose summed resident peaks blow past the tiny device:
        // the old scheduler rejected this batch outright; waves absorb it.
        let input = gen::micro_input(20_000, 46);
        let plan = chain(input.schema().clone(), 2);
        let bindings = [("t", &input)];
        let queries: Vec<BatchQuery<'_>> = (0..8)
            .map(|_| BatchQuery {
                name: "q",
                plan: &plan,
                bindings: &bindings,
            })
            .collect();
        let mut dev = Device::new(DeviceConfig::tiny());
        let batch = run_batch(&queries, &mut dev, &WeaverConfig::default()).unwrap();
        assert!(
            batch.waves >= 2,
            "expected multiple waves, got {}",
            batch.waves
        );
        assert_eq!(batch.quarantined_count(), 0);

        let mut solo_dev = device();
        let solo = execute_plan(&plan, &bindings, &mut solo_dev, &WeaverConfig::default()).unwrap();
        for r in &batch.queries {
            assert_eq!(r.outcome, QueryOutcome::Completed);
            assert!(r.wave.is_some());
            assert_eq!(r.outputs, solo.outputs);
        }
        assert_eq!(dev.memory().in_use(), 0);
        kw_gpu_sim::reconcile(dev.spans(), dev.stats()).unwrap();
    }

    #[test]
    fn oversized_query_degrades_down_the_ladder() {
        // One whale that cannot fit resident even alone rides the ladder
        // tail and still answers; the small query stays in a wave.
        let whale_in = gen::micro_input(120_000, 47);
        let small_in = gen::micro_input(5_000, 48);
        let whale_plan = chain(whale_in.schema().clone(), 2);
        let small_plan = chain(small_in.schema().clone(), 2);
        let bw = [("t", &whale_in)];
        let bs = [("t", &small_in)];
        let queries = [
            BatchQuery {
                name: "whale",
                plan: &whale_plan,
                bindings: &bw,
            },
            BatchQuery {
                name: "small",
                plan: &small_plan,
                bindings: &bs,
            },
        ];
        let mut dev = Device::new(DeviceConfig::tiny());
        let batch = run_batch(&queries, &mut dev, &WeaverConfig::default()).unwrap();

        let whale = &batch.queries[0];
        assert!(
            matches!(whale.outcome, QueryOutcome::Degraded { .. }),
            "{:?}",
            whale.outcome
        );
        assert_eq!(whale.wave, None);
        let mut solo_dev = device();
        let solo = execute_plan(&whale_plan, &bw, &mut solo_dev, &WeaverConfig::default()).unwrap();
        assert_eq!(whale.outputs, solo.outputs);

        let small = &batch.queries[1];
        assert_eq!(small.outcome, QueryOutcome::Completed);
        assert!(small.wave.is_some());
        assert_eq!(dev.memory().in_use(), 0);
        kw_gpu_sim::reconcile(dev.spans(), dev.stats()).unwrap();
    }

    #[test]
    fn faulted_query_is_quarantined_not_the_batch() {
        // Query 1 has no binding for its input: a deterministic fatal error
        // in its fault domain. The batch must complete around it.
        let a = gen::micro_input(20_000, 49);
        let plan = chain(a.schema().clone(), 2);
        let good = [("t", &a)];
        let bad = [("wrong", &a)];
        let queries = [
            BatchQuery {
                name: "good",
                plan: &plan,
                bindings: &good,
            },
            BatchQuery {
                name: "bad",
                plan: &plan,
                bindings: &bad,
            },
        ];
        let mut dev = device();
        let batch = run_batch(&queries, &mut dev, &WeaverConfig::default()).unwrap();
        assert_eq!(batch.queries[0].outcome, QueryOutcome::Completed);
        assert!(
            matches!(batch.queries[1].outcome, QueryOutcome::Failed { .. }),
            "{:?}",
            batch.queries[1].outcome
        );
        assert!(batch.queries[1].outputs.is_empty());
        assert_eq!(batch.quarantined_count(), 1);
        assert!(batch.goodput_qps < batch.throughput_qps);
        assert_eq!(dev.memory().in_use(), 0);
        let mut m = dev.metrics();
        batch.publish(dev.config(), &mut m);
        assert_eq!(m.counter("kw_batch_quarantines_total"), 1);
    }

    #[test]
    fn scripted_transient_fault_is_retried_with_backoff() {
        let a = gen::micro_input(20_000, 50);
        let plan = chain(a.schema().clone(), 2);
        let bindings = [("t", &a)];
        let queries = [BatchQuery {
            name: "q",
            plan: &plan,
            bindings: &bindings,
        }];
        let mut dev = device();
        // Attempt 0 of the parent device's transfer stream is the first
        // phase-2 upload; the scratch fork uses a derived stream.
        dev.inject_faults(FaultConfig::scripted(vec![ScriptedFault {
            kind: FaultKind::Transfer,
            attempt: 0,
        }]));
        let batch = run_batch(&queries, &mut dev, &WeaverConfig::default()).unwrap();
        let q = &batch.queries[0];
        assert_eq!(q.outcome, QueryOutcome::Retried, "{:?}", q.outcome);
        assert!(q.retries >= 1);
        assert!(q.backoff_seconds > 0.0);
        assert!(dev.stats().backoff_seconds > 0.0);

        let mut clean_dev = device();
        let clean = run_batch(&queries, &mut clean_dev, &WeaverConfig::default()).unwrap();
        assert_eq!(q.outputs, clean.queries[0].outputs);
        assert!(
            batch.serialized_seconds >= batch.makespan_seconds - 1e-15,
            "serialized {} must not dip below makespan {}",
            batch.serialized_seconds,
            batch.makespan_seconds
        );
        assert_eq!(dev.memory().in_use(), 0);
        kw_gpu_sim::reconcile(dev.spans(), dev.stats()).unwrap();
    }

    #[test]
    fn scratch_peak_reaches_the_parent_even_when_the_query_fails() {
        let a = gen::micro_input(20_000, 53);
        let plan = chain(a.schema().clone(), 2);
        let bindings = [("t", &a)];
        let queries = [BatchQuery {
            name: "q",
            plan: &plan,
            bindings: &bindings,
        }];
        let mut dev = device();
        // Attempt 0 of the parent's alloc stream is the wave reservation,
        // made after the scratch run; with no retries it quarantines.
        dev.inject_faults(FaultConfig::scripted(vec![ScriptedFault {
            kind: FaultKind::Alloc,
            attempt: 0,
        }]));
        let policy = RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        };
        let cfg = WeaverConfig::default();
        let compiled = vec![compile(&plan, &cfg).unwrap()];
        let batch = execute_batch(&queries, &compiled, &mut dev, &cfg, &policy).unwrap();
        let q = &batch.queries[0];
        assert!(matches!(q.outcome, QueryOutcome::Failed { .. }), "{q:?}");
        assert!(q.peak_device_bytes > 0);
        assert!(dev.memory().peak() >= q.peak_device_bytes);
        assert_eq!(dev.memory().in_use(), 0);
    }

    #[test]
    fn all_failed_batch_reports_finite_zero_percentiles() {
        // Every query binds the wrong name, so every fault domain fails and
        // the percentile computation runs over zero successful latencies.
        // The report must stay total: exact zeros, no NaN, no index past an
        // empty vector.
        let a = gen::micro_input(10_000, 51);
        let plan = chain(a.schema().clone(), 2);
        let bad = [("wrong", &a)];
        let queries: Vec<BatchQuery<'_>> = (0..3)
            .map(|_| BatchQuery {
                name: "doomed",
                plan: &plan,
                bindings: &bad,
            })
            .collect();
        let mut dev = device();
        let batch = run_batch(&queries, &mut dev, &WeaverConfig::default()).unwrap();
        assert_eq!(batch.quarantined_count(), 3);
        for p in [
            batch.latency_p50_seconds,
            batch.latency_p95_seconds,
            batch.latency_p99_seconds,
        ] {
            assert!(p.is_finite(), "percentile must be finite, got {p}");
            assert_eq!(p, 0.0, "no successes must quote 0.0, got {p}");
        }
        assert_eq!(batch.goodput_qps, 0.0);
        assert_eq!(dev.memory().in_use(), 0);
    }

    #[test]
    fn precompiled_batch_matches_internal_compilation() {
        let a = gen::micro_input(20_000, 52);
        let plan = chain(a.schema().clone(), 3);
        let bindings = [("t", &a)];
        let queries = [
            BatchQuery {
                name: "qa",
                plan: &plan,
                bindings: &bindings,
            },
            BatchQuery {
                name: "qb",
                plan: &plan,
                bindings: &bindings,
            },
        ];
        let cfg = WeaverConfig::default();
        let compiled = vec![compile(&plan, &cfg).unwrap(), compile(&plan, &cfg).unwrap()];
        let mut d1 = device();
        let pre =
            execute_batch(&queries, &compiled, &mut d1, &cfg, &RetryPolicy::default()).unwrap();
        let mut d2 = device();
        let auto = run_batch(&queries, &mut d2, &cfg).unwrap();
        assert_eq!(pre.queries.len(), auto.queries.len());
        for (p, a) in pre.queries.iter().zip(&auto.queries) {
            assert_eq!(p.outputs, a.outputs);
            assert_eq!(p.outcome, a.outcome);
        }
        assert_eq!(pre.makespan_seconds, auto.makespan_seconds);

        // Length mismatch is a caller bug, reported as a plan error.
        let err = execute_batch(
            &queries,
            &compiled[..1],
            &mut device(),
            &cfg,
            &RetryPolicy::default(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn empty_batch_is_a_clean_no_op() {
        let mut dev = device();
        let batch = run_batch(&[], &mut dev, &WeaverConfig::default()).unwrap();
        assert!(batch.queries.is_empty());
        assert_eq!(batch.makespan_seconds, 0.0);
        assert_eq!(batch.throughput_qps, 0.0);
        assert_eq!(batch.goodput_qps, 0.0);
        assert_eq!(batch.waves, 0);
    }

    #[test]
    fn fused_batch_beats_unfused_batch() {
        let a = gen::micro_input(80_000, 47);
        let b = gen::micro_input(80_000, 48);
        let pa = chain(a.schema().clone(), 3);
        let pb = chain(b.schema().clone(), 3);
        let ba = [("t", &a)];
        let bb = [("t", &b)];
        let queries = [
            BatchQuery {
                name: "qa",
                plan: &pa,
                bindings: &ba,
            },
            BatchQuery {
                name: "qb",
                plan: &pb,
                bindings: &bb,
            },
        ];
        let mut d1 = device();
        let fused = run_batch(&queries, &mut d1, &WeaverConfig::default()).unwrap();
        let mut d2 = device();
        let base = run_batch(&queries, &mut d2, &WeaverConfig::default().baseline()).unwrap();
        assert!(
            fused.makespan_seconds < base.makespan_seconds,
            "{} vs {}",
            fused.makespan_seconds,
            base.makespan_seconds
        );
        assert!(fused.throughput_qps > base.throughput_qps);
        for (f, b) in fused.queries.iter().zip(&base.queries) {
            assert_eq!(f.outputs, b.outputs);
        }
    }
}
