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
//! * **Admission waves** — each query is priced once, at its predicted
//!   resident peak: the bytes its scratch arena and its wave reservation
//!   hold. When the prices exceed free device bytes, the batch runs in
//!   sequential waves that each fit, packed first-fit-decreasing (each
//!   wave issues its members largest price first, ties in batch order).
//!   Queries too large even for a solo wave run after the waves via the
//!   [`crate::execute_compiled_resilient`] Resident → Staged → Chunked
//!   ladder and report [`QueryOutcome::Degraded`]; the ladder's own
//!   admission quarantines any query that no mode fits.
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

use std::borrow::Borrow;
use std::collections::BTreeMap;

use kw_gpu_sim::{
    BufferId, Device, DeviceConfig, Direction, EventId, MetricsRegistry, SpanKind, StreamId,
};
use kw_relational::Relation;

use crate::admission::{predict_reservation, AdmittedMode};
use crate::executor::{Execution, RunWindow};
use crate::resilient::{rung_config, RetryBudget, RetryPolicy};
use crate::scratch::{ScratchExecution, ScratchRun};
use crate::{
    CompiledPlan, ExecMode, NodeId, PlanNode, PlanReport, QueryPlan, Result, WeaverConfig,
    WeaverError,
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
    /// GPU computation seconds charged by this query's kernels: the sum of
    /// its wave steps' costs, or its ladder run's window (failed attempts
    /// included) when it rode the ladder tail.
    pub gpu_seconds: f64,
    /// PCIe seconds of this query's boundary transfers in the batch
    /// window, or of its ladder run's window.
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
///
/// Like [`PlanReport`], a batch report folds its own window of the device's
/// record, opened when [`execute_batch`] starts: its makespan, serialized
/// seconds, engine busy times and profile cover this batch alone, however
/// old the device is. [`BatchReport::free_errors`],
/// [`BatchReport::first_free_error`] and the profile's
/// [`crate::ProfileReport::peak_device_bytes`] stay device-lifetime.
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
    /// (see [`crate::ProfileReport`]). It folds the window's spans and
    /// stats against `makespan_seconds`, which is its `wall_seconds`.
    pub profile: crate::ProfileReport,
    /// Free errors the device swallowed on drain-on-error paths
    /// (`kw_free_errors_total` at batch end). Like
    /// [`PlanReport::free_errors`] this is a device-lifetime count, not
    /// this batch's alone; non-zero means some drain hit accounting
    /// corruption worth investigating.
    pub free_errors: u64,
    /// The first swallowed free error on the device over its lifetime, if
    /// any.
    pub first_free_error: Option<String>,
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

/// Execute a batch of independent queries concurrently on one shared
/// device, each query its own fault domain under `policy`.
///
/// `compiled[i]` must be `compile(queries[i].plan, config)` (or an equal
/// plan/config pair), so a compiled-plan cache can hand the same
/// [`CompiledPlan`] to every arrival of a repeated shape: owned, borrowed
/// or shared (`Rc`), so the cache's plans are never copied. Each query's
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
/// length (a caller bug, not a fault domain), and [`WeaverError::Sim`] when
/// the device configuration fails [`kw_gpu_sim::DeviceConfig::validate`].
/// Everything from admission
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
    compiled: &[impl Borrow<CompiledPlan>],
    device: &mut Device,
    config: &WeaverConfig,
    policy: &RetryPolicy,
) -> Result<BatchReport> {
    device.config().validate()?;
    let compiled: Vec<&CompiledPlan> = compiled.iter().map(|c| c.borrow()).collect();
    if queries.len() != compiled.len() {
        return Err(WeaverError::plan(format!(
            "batch has {} queries but {} compiled plans",
            queries.len(),
            compiled.len()
        )));
    }
    let prices: Vec<Option<u64>> = queries
        .iter()
        .zip(&compiled)
        .map(|(q, c)| price_of(q, c))
        .collect();
    run_priced(queries, &compiled, &prices, device, config, policy)
}

/// A batched query's one price: its predicted resident peak, the bytes its
/// scratch arena and its wave reservation hold. `None` when the query
/// cannot be priced (an unbound input); the ladder tail's admission then
/// says why it fails.
pub(crate) fn price_of(query: &BatchQuery<'_>, compiled: &CompiledPlan) -> Option<u64> {
    predict_reservation(query.plan, compiled, query.bindings, ExecMode::Resident).ok()
}

/// Where a query of a batch runs.
#[derive(Default)]
enum Route {
    /// In admission wave `wave`, its scratch arena and wave reservation
    /// holding its `price`.
    Wave { wave: usize, price: u64 },
    /// Alone after the waves, down the Resident → Staged → Chunked ladder.
    #[default]
    Ladder,
}

/// What a query of a batch has produced so far.
#[derive(Default)]
enum Answer {
    /// Nothing yet.
    #[default]
    Pending,
    /// A wave query's run-ahead, replayed into its wave.
    Scratch(ScratchExecution),
    /// A ladder-tail query's resilient run.
    Ladder(Box<PlanReport>),
    /// Quarantined, with the peak of its scratch run if one ran.
    Failed { reason: String, peak: u64 },
}

/// One query's record through a batch.
#[derive(Default)]
struct QueryRun {
    route: Route,
    /// The query's fault domain.
    budget: RetryBudget,
    /// The reservation of its price while its wave is in flight.
    reservation: Option<BufferId>,
    /// Cycles from the window's start until the query's last operation
    /// finished: its wave steps' completion events, or the device makespan
    /// after its ladder run.
    finish_cycles: u64,
    answer: Answer,
}

impl QueryRun {
    /// Quarantine the query, keeping its scratch run's peak for the report.
    fn fail(&mut self, reason: String) {
        let peak = match &self.answer {
            Answer::Scratch(ran) => ran.fork_peak,
            _ => 0,
        };
        self.answer = Answer::Failed { reason, peak };
    }
}

/// A wave member's issue state while its wave is in flight.
struct Flight {
    qi: usize,
    /// One stream per step, created slot-major across the wave.
    streams: Vec<StreamId>,
    /// `node -> producing step index` for intermediate results.
    producer: BTreeMap<NodeId, usize>,
    /// Upload event per base relation; `None` for zero-byte uploads
    /// (skipped outright, nothing to wait for).
    uploaded: BTreeMap<NodeId, Option<(StreamId, EventId)>>,
    /// Completion event per issued step.
    step_done: Vec<Option<EventId>>,
}

/// The scope frame of query `qi`'s spans: `q{i}:{name}`.
fn frame(qi: usize, query: &BatchQuery<'_>) -> String {
    format!("q{qi}:{}", query.name)
}

/// First-fit-decreasing over prices: each query whose price fits `free`
/// bytes alone joins the first wave with room for it, largest price first
/// and ties in batch order, or opens a new wave. Returns each wave's
/// members with their prices, in issue order; the queries left out take
/// the ladder tail.
fn pack_waves(prices: &[Option<u64>], free: u64) -> Vec<Vec<(usize, u64)>> {
    let mut fits: Vec<(usize, u64)> = prices
        .iter()
        .enumerate()
        .filter_map(|(qi, price)| price.filter(|&p| p <= free).map(|p| (qi, p)))
        .collect();
    // Stable, so equal prices keep batch order.
    fits.sort_by_key(|&(_, price)| std::cmp::Reverse(price));
    let mut waves: Vec<(Vec<(usize, u64)>, u64)> = Vec::new();
    for (qi, price) in fits {
        match waves.iter_mut().find(|(_, room)| *room >= price) {
            Some((members, room)) => {
                members.push((qi, price));
                *room -= price;
            }
            None => waves.push((vec![(qi, price)], free - price)),
        }
    }
    waves.into_iter().map(|(members, _)| members).collect()
}

/// [`execute_batch`] over queries already priced by [`price_of`]: the
/// service prices each arrival once, when it packs a dispatch, and hands
/// those prices here.
pub(crate) fn run_priced(
    queries: &[BatchQuery<'_>],
    compiled: &[&CompiledPlan],
    prices: &[Option<u64>],
    device: &mut Device,
    config: &WeaverConfig,
    policy: &RetryPolicy,
) -> Result<BatchReport> {
    // The batch window opens before phase 1: scratch runs charge nothing
    // to the shared clock except retry backoff, which belongs inside the
    // window (the wait delays the streamed work that follows).
    let window = RunWindow::open(device);

    // Elastic admission: the queries that fit the free bytes alone are
    // packed into waves; the rest take the ladder tail.
    let free = device
        .memory()
        .capacity()
        .saturating_sub(device.memory().in_use());
    let waves = pack_waves(prices, free);
    let mut runs: Vec<QueryRun> = queries.iter().map(|_| QueryRun::default()).collect();
    for (wave, members) in waves.iter().enumerate() {
        for &(qi, price) in members {
            runs[qi].route = Route::Wave { wave, price };
        }
    }

    // Phase 1: run every wave query on a scratch run (derived fault
    // streams keep injected faults striking inside query execution) to
    // obtain its outputs and measured per-step compute costs. Each query
    // is a fault domain: transients retry with backoff, a capacity miss
    // re-routes the query to the ladder tail, anything else quarantines it.
    let resident = rung_config(AdmittedMode::Resident, config);
    for (qi, (q, run)) in queries.iter().zip(&mut runs).enumerate() {
        let Route::Wave { price, .. } = run.route else {
            continue;
        };
        loop {
            // One scratch run per attempt: every fork advances the parent's
            // fault stream, so a retry meets fresh derived faults. Its arena
            // holds the price the wave was packed with.
            let attempt = ScratchRun::open(device, price, "plan.arena").and_then(|mut scratch| {
                let result = scratch.execute(q.plan, compiled[qi], q.bindings, &resident);
                scratch.close(device);
                result
            });
            match attempt {
                Ok(ran) => run.answer = Answer::Scratch(ran),
                Err(e) if e.is_transient() => {
                    device.push_scope(frame(qi, q));
                    let absorbed = run.budget.absorb(device, policy);
                    device.pop_scope();
                    if absorbed {
                        continue;
                    }
                    run.fail(e.to_string());
                }
                // Admission over-estimated the free headroom (or the
                // estimate under-shot the real footprint): fall out of the
                // wave and take the ladder after the batch.
                Err(e) if e.is_capacity() => run.route = Route::Ladder,
                Err(e) => run.fail(e.to_string()),
            }
            break;
        }
    }

    // Phase 2: schedule each wave on the shared device. Streams are
    // created slot-major so the engine round-robin spreads queries first.
    let mut waves_issued = 0usize;
    for wave in &waves {
        let members: Vec<(usize, u64)> = wave
            .iter()
            .copied()
            .filter(|&(qi, _)| matches!(runs[qi].answer, Answer::Scratch(_)))
            .collect();
        if members.is_empty() {
            continue;
        }
        waves_issued += 1;

        // Reserve each member's price for the wave's flight, so the shared
        // memory tracker sees the concurrent footprint admission signed off
        // on. A reservation that cannot be allocated (past retries)
        // quarantines only its query.
        let mut flights: Vec<Flight> = Vec::with_capacity(members.len());
        for (qi, price) in members {
            let run = &mut runs[qi];
            run.budget.reset();
            if price > 0 {
                device.push_scope(frame(qi, &queries[qi]));
                let label = format!("q{qi}.workingset");
                let got = run
                    .budget
                    .retry(device, policy, |d| d.alloc(price, label.as_str()));
                device.pop_scope();
                match got {
                    Ok(buf) => run.reservation = Some(buf),
                    Err(e) => {
                        run.fail(e.to_string());
                        continue;
                    }
                }
            }
            let steps = &compiled[qi].steps;
            let mut producer = BTreeMap::new();
            for (i, step) in steps.iter().enumerate() {
                for &o in &step.outputs {
                    producer.insert(o, i);
                }
            }
            flights.push(Flight {
                qi,
                streams: Vec::with_capacity(steps.len()),
                producer,
                uploaded: BTreeMap::new(),
                step_done: vec![None; steps.len()],
            });
        }

        let max_steps = flights.iter().map(|f| f.step_done.len()).max().unwrap_or(0);
        for slot in 0..max_steps {
            for f in &mut flights {
                if slot < f.step_done.len() {
                    f.streams.push(device.create_stream());
                }
            }
        }

        for slot in 0..max_steps {
            for f in &mut flights {
                let qi = f.qi;
                let q = &queries[qi];
                let QueryRun {
                    budget,
                    finish_cycles,
                    answer: Answer::Scratch(ran),
                    ..
                } = &mut runs[qi]
                else {
                    continue; // quarantined mid-wave: skip its later slots
                };
                let Some(step) = compiled[qi].steps.get(slot) else {
                    continue;
                };
                let stream = f.streams[slot];
                let Execution { outputs, steps, .. } = &ran.exec;

                // Every span this step emits carries the query's identity,
                // so a batch trace shows which query each overlapped op
                // belongs to.
                device.push_scope(frame(qi, q));
                let issued = (|device: &mut Device| -> Result<()> {
                    // Upload base relations on their first consumer's
                    // stream. Zero-byte relations are skipped outright (no
                    // fabricated per-transfer latency), mirroring chunked
                    // execution.
                    for &node in &step.inputs {
                        let PlanNode::Input { name, .. } = q.plan.node(node) else {
                            continue;
                        };
                        if f.uploaded.contains_key(&node) {
                            continue;
                        }
                        let bytes = q
                            .bindings
                            .iter()
                            .find(|(n, _)| n == name)
                            .map(|(_, r)| r.byte_size() as u64)
                            .ok_or_else(|| {
                                WeaverError::binding(format!("no relation bound to '{name}'"))
                            })?;
                        let ev = if bytes > 0 {
                            budget.retry(device, policy, |d| {
                                d.transfer_on(stream, Direction::HostToDevice, bytes)
                            })?;
                            Some((stream, device.record_event(stream)?))
                        } else {
                            None
                        };
                        f.uploaded.insert(node, ev);
                    }

                    // Dependence edges: producing steps and cross-stream
                    // uploads must complete before this step's kernels run.
                    // Same-stream uploads are already ordered by stream FIFO.
                    for &node in &step.inputs {
                        if let Some(&p) = f.producer.get(&node) {
                            let ev = f.step_done[p].ok_or_else(|| {
                                WeaverError::plan(format!(
                                    "step input {node} scheduled before its producer"
                                ))
                            })?;
                            device.wait_event(stream, ev)?;
                        } else if let Some(&Some((src, ev))) = f.uploaded.get(&node) {
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
                        let bytes = outputs[&node].byte_size() as u64;
                        if bytes > 0 {
                            budget.retry(device, policy, |d| {
                                d.transfer_on(stream, Direction::DeviceToHost, bytes)
                            })?;
                        }
                    }
                    let done = device.record_event(stream)?;
                    f.step_done[slot] = Some(done);
                    *finish_cycles =
                        (*finish_cycles).max(window.elapsed(device.streams().event_cycle(done)?));
                    Ok(())
                })(device);
                device.pop_scope();
                if let Err(e) = issued {
                    // Quarantine this query only: drain in-flight work so
                    // the clock settles, free the query's reservation so
                    // nothing stays resident on its behalf, and let the
                    // rest of the wave keep issuing.
                    device.sync_streams();
                    if let Some(buf) = runs[qi].reservation.take() {
                        // A reservation that cannot be returned is
                        // accounting corruption, not a reason to abort the
                        // wave: count it and keep the first message.
                        if let Err(fe) = device.free(buf) {
                            device.note_free_error(&fe);
                        }
                    }
                    runs[qi].fail(e.to_string());
                }
            }
        }

        // Wave barrier: the next wave's reservations replace this one's,
        // so its streamed work must be fully drained and freed first.
        device.sync_streams();
        for buf in runs.iter_mut().filter_map(|run| run.reservation.take()) {
            device.free(buf)?;
        }
    }

    // Ladder tail: queries too large for a solo wave (or whose scratch run
    // hit a capacity miss) run one at a time through the resilient
    // Resident → Staged → Chunked driver on the now-empty shared device.
    // Its admission quarantines any query no mode fits, or that cannot be
    // priced at all.
    for (qi, (q, run)) in queries.iter().zip(&mut runs).enumerate() {
        if !matches!(run.route, Route::Ladder) {
            continue;
        }
        device.push_scope(frame(qi, q));
        let result = crate::execute_compiled_resilient(
            q.plan,
            compiled[qi],
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
                run.budget.retries += res.retries;
                run.budget.backoff_seconds += res.backoff_seconds;
                run.finish_cycles = run.finish_cycles.max(window.elapsed(device.makespan()));
                run.answer = Answer::Ladder(Box::new(report));
            }
            Err(e) => {
                // The executor's cleanup guards already freed the attempt's
                // buffers; settle the clock and quarantine.
                device.sync_streams();
                run.fail(e.to_string());
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
    let makespan_cycles = window.elapsed(end_cycles);
    let makespan_seconds = device.config().cycles_to_seconds(makespan_cycles);
    let mut serialized_cycles = 0u64;
    let mut engine_busy_cycles: BTreeMap<String, u64> = BTreeMap::new();
    for s in window.spans(device) {
        serialized_cycles += s.cycles();
        if let Some(engine) = s.engine {
            *engine_busy_cycles.entry(engine.name()).or_insert(0) += s.cycles();
        }
    }
    let serialized_seconds = device.config().cycles_to_seconds(serialized_cycles);

    let mut reports = Vec::with_capacity(queries.len());
    let mut latencies: Vec<f64> = Vec::new();
    for (qi, (q, run)) in queries.iter().zip(runs).enumerate() {
        let clean = if run.budget.retries > 0 {
            QueryOutcome::Retried
        } else {
            QueryOutcome::Completed
        };
        let (outcome, outputs, gpu_cycles, pcie_seconds, peak) = match run.answer {
            Answer::Scratch(ran) => {
                let gpu: u64 = ran.exec.steps.iter().map(|s| s.gpu_cycles).sum();
                // This query's streamed transfer spans, by scope frame.
                let frame = frame(qi, q);
                let pcie: f64 = window
                    .spans(device)
                    .iter()
                    .filter(|s| s.kind == SpanKind::Transfer)
                    .filter(|s| s.provenance.split('/').next() == Some(frame.as_str()))
                    .map(|s| s.delta.pcie_seconds)
                    .sum();
                (clean, ran.exec.outputs, gpu, pcie, ran.fork_peak)
            }
            Answer::Ladder(report) => {
                let outcome = match report.resilience.as_ref().map(|r| r.final_mode) {
                    Some(mode) if mode != AdmittedMode::Resident => QueryOutcome::Degraded { mode },
                    _ => clean,
                };
                (
                    outcome,
                    report.outputs,
                    report.stats.gpu_cycles,
                    report.stats.pcie_seconds,
                    report.peak_device_bytes,
                )
            }
            Answer::Failed { reason, peak } => {
                let outcome = QueryOutcome::Failed { reason };
                (outcome, BTreeMap::new(), 0, 0.0, peak)
            }
            Answer::Pending => unreachable!("the waves and the ladder tail answer every query"),
        };
        let latency_cycles = if outcome.is_success() {
            run.finish_cycles
        } else {
            0
        };

        if outcome.is_success() {
            latencies.push(device.config().cycles_to_seconds(latency_cycles));
        }
        reports.push(BatchQueryReport {
            name: q.name.to_string(),
            wave: match run.route {
                Route::Wave { wave, .. } if outcome.is_success() => Some(wave),
                _ => None,
            },
            retries: run.budget.retries,
            backoff_seconds: run.budget.backoff_seconds,
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

    let mut profile = window.profile(device, makespan_seconds, 0.0);
    let outcome_labels: Vec<(String, String)> = queries
        .iter()
        .enumerate()
        .map(|(qi, q)| (frame(qi, q), reports[qi].outcome.name().to_string()))
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
    fn query_no_mode_fits_fails_at_the_ladders_admission() {
        // A full sort over more than the tiny device holds: its price
        // exceeds the free bytes, so it takes the ladder tail, whose
        // admission finds no mode (a sort has no chunk strategy) before
        // any device operation. The small query runs in its wave.
        let doomed_in = gen::micro_input(100_000, 54);
        let mut doomed_plan = QueryPlan::new();
        let t = doomed_plan.add_input("t", doomed_in.schema().clone());
        let s = doomed_plan
            .add_op(RaOp::Sort { attrs: vec![1] }, &[t])
            .unwrap();
        doomed_plan.mark_output(s);
        let small_in = gen::micro_input(5_000, 55);
        let small_plan = chain(small_in.schema().clone(), 2);
        let bd = [("t", &doomed_in)];
        let bs = [("t", &small_in)];
        let queries = [
            BatchQuery {
                name: "doomed",
                plan: &doomed_plan,
                bindings: &bd,
            },
            BatchQuery {
                name: "small",
                plan: &small_plan,
                bindings: &bs,
            },
        ];
        // Without faults, and with seeded faults: the doomed query draws
        // nothing from the device's fault stream either, so the small
        // query meets the same faults as when it is batched alone.
        for faults in [None, Some(FaultConfig::uniform(61, 0.2))] {
            let run = |queries: &[BatchQuery<'_>]| {
                let mut dev = Device::new(DeviceConfig::tiny());
                if let Some(f) = &faults {
                    dev.inject_faults(f.clone());
                }
                let batch = run_batch(queries, &mut dev, &WeaverConfig::default()).unwrap();
                (batch, dev)
            };
            let (batch, dev) = run(&queries);
            let doomed = &batch.queries[0];
            match &doomed.outcome {
                QueryOutcome::Failed { reason } => {
                    assert!(reason.contains("no chunk strategy"), "{reason}")
                }
                other => panic!("expected an admission failure, got {other:?}"),
            }
            assert_eq!(doomed.wave, None);
            assert!(doomed.outputs.is_empty());
            assert!(
                dev.spans()
                    .iter()
                    .all(|s| s.provenance.split('/').next() != Some("q0:doomed")),
                "the doomed query must not reach the device"
            );
            assert_eq!(dev.memory().in_use(), 0);
            kw_gpu_sim::reconcile(dev.spans(), dev.stats()).unwrap();

            // The small query alone charges the device exactly as much:
            // the doomed one added no work, no memory peak, no makespan.
            let (alone, alone_dev) = run(&queries[1..]);
            let (small, solo) = (&batch.queries[1], &alone.queries[0]);
            assert_eq!(
                (&small.outcome, small.wave, small.retries),
                (&solo.outcome, solo.wave, solo.retries)
            );
            assert_eq!(small.outputs, solo.outputs);
            assert_eq!(dev.stats(), alone_dev.stats());
            assert_eq!(dev.memory().peak(), alone_dev.memory().peak());
            assert_eq!(batch.makespan_seconds, alone.makespan_seconds);
            if faults.is_none() {
                assert_eq!(small.outcome, QueryOutcome::Completed);
                assert_eq!(small.wave, Some(0));
                let mut solo_dev = device();
                let cfg = WeaverConfig::default();
                let plain = execute_plan(&small_plan, &bs, &mut solo_dev, &cfg).unwrap();
                assert_eq!(small.outputs, plain.outputs);
            } else {
                assert!(dev.stats().faults_injected > 0, "the faults must strike");
            }
        }
    }

    #[test]
    fn pack_waves_issues_first_fit_decreasing() {
        // Room for one big and one small together, but not two bigs: each
        // wave leads with a big query and a small backfills it.
        let (small, big) = (10, 40);
        let free = big + small + small / 2;
        let waves = pack_waves(&[Some(small), Some(big), Some(small), Some(big)], free);
        assert_eq!(
            waves,
            vec![vec![(1, big), (0, small)], vec![(3, big), (2, small)]]
        );

        // A query that cannot be priced, or that fits no wave alone, is left
        // to the ladder tail; one that exactly fills the free bytes packs.
        let waves = pack_waves(&[None, Some(free + 1), Some(free)], free);
        assert_eq!(waves, vec![vec![(2, free)]]);
        assert!(pack_waves(&[], free).is_empty());
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
