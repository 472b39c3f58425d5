//! Resilient execution: admission control + bounded retry + a
//! Resident → Staged → Chunked degradation ladder.
//!
//! [`execute_compiled_resilient`] wraps the plain executor with three
//! policies:
//!
//! 1. **Admission** ([`crate::admit`]) predicts peak device bytes per mode
//!    and starts at the cheapest rung predicted to fit, instead of
//!    discovering OOM halfway through a run.
//! 2. **Retry** — transient injected faults (PCIe transfer, kernel launch,
//!    allocation — see [`kw_gpu_sim::SimError::is_transient`]) are retried
//!    on the same rung with exponential backoff; the backoff wait is charged
//!    to the device clock so reports stay honest about elapsed time.
//! 3. **Degradation** — a mid-run capacity miss (admission under-estimated)
//!    drops one rung: Resident → Staged → Chunked(c) → Chunked(2c), chunked
//!    rungs only for plans with a [`crate::ChunkStrategy`] (row-sliceable,
//!    hash-partitionable, or merge-aggregable) and only up to
//!    [`crate::admission::MAX_CHUNKS`].
//!
//! Each attempt is one executor call under the [`WeaverConfig`] its rung
//! maps to. Every completed run carries a [`ResilienceReport`] in
//! [`PlanReport::resilience`] recording the admitted mode, the final mode,
//! retries, faults survived, degradations taken and total backoff charged.

use kw_gpu_sim::Device;
use kw_relational::Relation;

use crate::admission::{admit, AdmissionReport, AdmittedMode, MAX_CHUNKS};
use crate::chunk_strategy::select_chunk_strategy;
use crate::error::LadderStop;
use crate::{CompiledPlan, ExecMode, PlanReport, QueryPlan, Result, WeaverConfig};

/// Retry/degradation policy for [`execute_compiled_resilient`] and the
/// batch scheduler's per-query fault domains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Transient-fault retries allowed per ladder rung before the fault
    /// propagates. The budget resets when the driver changes rung.
    pub max_retries: u32,
    /// Backoff charged (simulated seconds) before the first retry.
    pub base_backoff_seconds: f64,
    /// Multiplier applied to the backoff after each retry on the same rung.
    pub backoff_multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            base_backoff_seconds: 1e-3,
            backoff_multiplier: 2.0,
        }
    }
}

/// One fault domain's retry budget and history under a [`RetryPolicy`]:
/// the budget resets per ladder rung (or per batch phase), while `retries`
/// and `backoff_seconds` accumulate over the domain's life.
#[derive(Debug, Default, Clone)]
pub(crate) struct RetryBudget {
    spent: u32,
    pub(crate) retries: u32,
    pub(crate) backoff_seconds: f64,
}

impl RetryBudget {
    /// Restore the full budget (a new rung or phase).
    pub(crate) fn reset(&mut self) {
        self.spent = 0;
    }

    /// Absorb one transient fault: charge escalating backoff to the device
    /// clock under a `retry{n}` frame (`n` counts every retry so far) inside
    /// the caller's scope, and spend one unit of budget. Returns `false`,
    /// charging nothing, when the budget is exhausted.
    pub(crate) fn absorb(&mut self, device: &mut Device, policy: &RetryPolicy) -> bool {
        if self.spent >= policy.max_retries {
            return false;
        }
        let wait = policy.base_backoff_seconds * policy.backoff_multiplier.powi(self.spent as i32);
        device.push_scope(format!("retry{}", self.retries + 1));
        device.charge_backoff(wait);
        device.pop_scope();
        self.backoff_seconds += wait;
        self.spent += 1;
        self.retries += 1;
        true
    }
}

/// One rung-change the driver took after a mid-run capacity miss.
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation {
    /// The rung that ran out of memory.
    pub from: AdmittedMode,
    /// The rung the driver dropped to.
    pub to: AdmittedMode,
    /// The capacity error that forced the drop.
    pub reason: String,
}

/// How a resilient execution got to its answer.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// The admission controller's pre-flight verdict.
    pub admission: AdmissionReport,
    /// Mode admission chose before execution started.
    pub admitted: AdmittedMode,
    /// Mode that actually produced the answer.
    pub final_mode: AdmittedMode,
    /// Total executions attempted (1 = clean first run).
    pub attempts: u32,
    /// Re-executions caused by transient faults.
    pub retries: u32,
    /// Transient injected faults the driver absorbed without failing the
    /// query.
    pub faults_survived: u32,
    /// Rung drops taken after mid-run capacity misses, in order.
    pub degradations: Vec<Degradation>,
    /// Simulated seconds of retry backoff charged to the device clock.
    pub backoff_seconds: f64,
}

/// The executor configuration of one ladder rung: `config` with the rung's
/// mode and chunk count. Each chunk of a chunked rung runs resident on its
/// scratch device; staging within a chunk would defeat the point of
/// chunking.
pub(crate) fn rung_config(rung: AdmittedMode, config: &WeaverConfig) -> WeaverConfig {
    let (mode, chunks) = match rung {
        AdmittedMode::Resident => (ExecMode::Resident, None),
        AdmittedMode::Staged => (ExecMode::Staged, None),
        AdmittedMode::Chunked { chunks } => (ExecMode::Resident, Some(chunks)),
    };
    WeaverConfig {
        mode,
        chunks,
        ..*config
    }
}

/// Run a compiled plan resiliently (admission, retry, degradation). The
/// ladder picks each attempt's mode and chunk count, so
/// [`WeaverConfig::mode`] and [`WeaverConfig::chunks`] are ignored.
///
/// # Errors
///
/// Propagates admission rejections ([`crate::WeaverError::Admission`]),
/// transient faults that exhaust the per-rung retry budget, capacity misses
/// with no rung left below, and all fatal errors.
///
/// # Examples
///
/// ```
/// use kw_core::{compile, execute_compiled_resilient, QueryPlan, RetryPolicy, WeaverConfig};
/// use kw_gpu_sim::{Device, DeviceConfig, FaultConfig};
/// use kw_primitives::RaOp;
/// use kw_relational::{gen, CmpOp, Predicate, Value};
///
/// let input = gen::micro_input(10_000, 7);
/// let mut plan = QueryPlan::new();
/// let t = plan.add_input("t", input.schema().clone());
/// let s = plan.add_op(
///     RaOp::Select { pred: Predicate::cmp(0, CmpOp::Lt, Value::U32(1 << 31)) },
///     &[t],
/// )?;
/// plan.mark_output(s);
/// let config = WeaverConfig::default();
/// let compiled = compile(&plan, &config)?;
///
/// let mut device = Device::new(DeviceConfig::fermi_c2050());
/// device.inject_faults(FaultConfig::uniform(42, 0.05)); // 5% fault rate
/// let report = execute_compiled_resilient(
///     &plan, &compiled, &[("t", &input)], &mut device,
///     &config, &RetryPolicy::default(),
/// )?;
/// let res = report.resilience.as_ref().unwrap();
/// assert_eq!(res.attempts, res.retries + 1);
/// # Ok::<(), kw_core::WeaverError>(())
/// ```
pub fn execute_compiled_resilient(
    plan: &QueryPlan,
    compiled: &CompiledPlan,
    bindings: &[(&str, &Relation)],
    device: &mut Device,
    config: &WeaverConfig,
    policy: &RetryPolicy,
) -> Result<PlanReport> {
    let free = device
        .memory()
        .capacity()
        .saturating_sub(device.memory().in_use());
    let admission = admit(plan, compiled, bindings, free)?;
    let admitted = admission.chosen;

    let mut mode = admitted;
    let mut attempts = 0u32;
    let mut budget = RetryBudget::default();
    let mut degradations: Vec<Degradation> = Vec::new();

    loop {
        attempts += 1;
        // Every span this attempt emits is labelled with the attempt number
        // and the ladder rung that produced it, so a trace of a faulted run
        // shows which work was wasted and which attempt finally landed.
        device.push_scope(format!("attempt{attempts}:{mode}"));
        // Resident and staged rungs reserve the same predicted peak that
        // admission reported as `resident_peak` / `staged_peak`.
        let rung = rung_config(mode, config);
        let result = crate::executor::run(plan, compiled, bindings, device, &rung);
        device.pop_scope();

        match result {
            Ok(mut report) => {
                if rung.chunks.is_some() {
                    // A chunked run's wallclocks are relative to its own
                    // start, so they miss the backoff charged before it.
                    // Backoff is charged to BOTH wallclocks: the retry wait
                    // elapses whether or not transfers overlap compute, so
                    // leaving it out of either side would let
                    // `serialized_seconds < total_seconds` silently invert
                    // after a retried run (pinned by
                    // `retried_chunked_run_keeps_wallclocks_ordered`).
                    report.total_seconds += budget.backoff_seconds;
                    report.serialized_seconds += budget.backoff_seconds;
                    report
                        .profile
                        .set_wall_seconds(report.total_seconds, &report.stats);
                }
                report.resilience = Some(ResilienceReport {
                    admission,
                    admitted,
                    final_mode: mode,
                    attempts,
                    retries: budget.retries,
                    faults_survived: budget.retries,
                    degradations,
                    backoff_seconds: budget.backoff_seconds,
                });
                // The device's span log covers the whole resilient episode —
                // failed attempts, backoff and the final successful run —
                // which is the history a trace should show.
                report.spans = device.spans().to_vec();
                return Ok(report);
            }
            Err(e) if e.is_transient() && budget.absorb(device, policy) => {}
            Err(e) if e.is_capacity() => match next_rung(mode, plan) {
                Ok(next) => {
                    degradations.push(Degradation {
                        from: mode,
                        to: next,
                        reason: e.to_string(),
                    });
                    mode = next;
                    budget.reset();
                }
                Err(stop) => return Err(crate::WeaverError::ladder_exhausted(stop, e.to_string())),
            },
            Err(e) => return Err(e),
        }
    }
}

/// The rung below `mode`, or the typed [`LadderStop`] explaining why the
/// ladder has none for this plan.
fn next_rung(
    mode: AdmittedMode,
    plan: &QueryPlan,
) -> std::result::Result<AdmittedMode, LadderStop> {
    match mode {
        AdmittedMode::Resident => Ok(AdmittedMode::Staged),
        AdmittedMode::Staged => {
            if select_chunk_strategy(plan).is_some() {
                Ok(AdmittedMode::Chunked { chunks: 2 })
            } else {
                Err(LadderStop::NonElementwiseBlocksChunking)
            }
        }
        AdmittedMode::Chunked { chunks } => {
            let next = chunks.saturating_mul(2);
            if next <= MAX_CHUNKS {
                Ok(AdmittedMode::Chunked { chunks: next })
            } else {
                Err(LadderStop::MaxChunksExceeded)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WeaverError;
    use kw_gpu_sim::{DeviceConfig, FaultConfig, FaultKind, ScriptedFault};
    use kw_primitives::RaOp;
    use kw_relational::{gen, CmpOp, Predicate, Value};

    fn select_plan(schema: kw_relational::Schema) -> QueryPlan {
        let mut plan = QueryPlan::new();
        let t = plan.add_input("t", schema);
        let s = plan
            .add_op(
                RaOp::Select {
                    pred: Predicate::cmp(0, CmpOp::Lt, Value::U32(u32::MAX / 2)),
                },
                &[t],
            )
            .unwrap();
        plan.mark_output(s);
        plan
    }

    /// Compile `plan` and run it through the ladder with default settings.
    fn run_resilient(
        plan: &QueryPlan,
        bindings: &[(&str, &Relation)],
        dev: &mut Device,
    ) -> Result<PlanReport> {
        let config = WeaverConfig::default();
        let compiled = crate::compile(plan, &config)?;
        execute_compiled_resilient(
            plan,
            &compiled,
            bindings,
            dev,
            &config,
            &RetryPolicy::default(),
        )
    }

    fn oracle(input: &Relation) -> Relation {
        kw_relational::ops::select(
            input,
            &Predicate::cmp(0, CmpOp::Lt, Value::U32(u32::MAX / 2)),
        )
        .unwrap()
    }

    #[test]
    fn clean_run_is_single_resident_attempt() {
        let input = gen::micro_input(5_000, 31);
        let plan = select_plan(input.schema().clone());
        let mut dev = Device::new(DeviceConfig::fermi_c2050());
        let report = run_resilient(&plan, &[("t", &input)], &mut dev).unwrap();
        let res = report.resilience.as_ref().unwrap();
        assert_eq!(res.admitted, AdmittedMode::Resident);
        assert_eq!(res.final_mode, AdmittedMode::Resident);
        assert_eq!((res.attempts, res.retries), (1, 0));
        assert!(res.degradations.is_empty());
        assert_eq!(dev.memory().in_use(), 0, "no leaked device bytes");
    }

    #[test]
    fn scripted_transfer_fault_is_retried_and_backoff_charged() {
        let input = gen::micro_input(5_000, 32);
        let plan = select_plan(input.schema().clone());
        let mut dev = Device::new(DeviceConfig::fermi_c2050());
        dev.inject_faults(FaultConfig::scripted(vec![ScriptedFault {
            kind: FaultKind::Transfer,
            attempt: 0,
        }]));
        let report = run_resilient(&plan, &[("t", &input)], &mut dev).unwrap();
        assert_eq!(report.outputs.values().next().unwrap(), &oracle(&input));
        let res = report.resilience.as_ref().unwrap();
        assert_eq!((res.attempts, res.retries, res.faults_survived), (2, 1, 1));
        assert!(res.backoff_seconds > 0.0);
        assert!(dev.stats().backoff_seconds > 0.0);
        assert_eq!(dev.memory().in_use(), 0, "retry must not leak buffers");
    }

    #[test]
    fn retry_budget_exhaustion_propagates_the_fault() {
        let input = gen::micro_input(1_000, 33);
        let plan = select_plan(input.schema().clone());
        let mut dev = Device::new(DeviceConfig::fermi_c2050());
        dev.inject_faults(FaultConfig {
            transfer_rate: 1.0, // every transfer faults, forever
            ..FaultConfig::default()
        });
        let err = run_resilient(&plan, &[("t", &input)], &mut dev).unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert_eq!(dev.memory().in_use(), 0);
    }

    #[test]
    fn tiny_device_degrades_down_the_ladder_to_chunked() {
        let input = gen::micro_input(50_000, 34);
        let plan = select_plan(input.schema().clone());
        let mut dev = Device::new(DeviceConfig::tiny());
        let report = run_resilient(&plan, &[("t", &input)], &mut dev).unwrap();
        assert_eq!(report.outputs.values().next().unwrap(), &oracle(&input));
        let res = report.resilience.as_ref().unwrap();
        assert!(
            matches!(res.final_mode, AdmittedMode::Chunked { .. }),
            "{:?}",
            res.final_mode
        );
        assert_eq!(dev.memory().in_use(), 0);
    }

    #[test]
    fn retried_chunked_run_keeps_wallclocks_ordered() {
        // Regression for the backoff-charging invariant: a transfer fault
        // striking the chunked rung's mirrored traffic forces a retry whose
        // backoff must land in BOTH `total_seconds` and
        // `serialized_seconds`, so the serialized (no-overlap) cost can
        // never dip below the overlap-aware wallclock.
        let input = gen::micro_input(50_000, 36);
        let plan = select_plan(input.schema().clone());
        let mut dev = Device::new(DeviceConfig::tiny());
        dev.inject_faults(FaultConfig::scripted(vec![ScriptedFault {
            kind: FaultKind::Transfer,
            attempt: 0,
        }]));
        let report = run_resilient(&plan, &[("t", &input)], &mut dev).unwrap();
        assert_eq!(report.outputs.values().next().unwrap(), &oracle(&input));
        let res = report.resilience.as_ref().unwrap();
        assert!(
            matches!(res.final_mode, AdmittedMode::Chunked { .. }),
            "{:?}",
            res.final_mode
        );
        assert!(res.retries >= 1, "the scripted fault must force a retry");
        assert!(res.backoff_seconds > 0.0);
        // Both wallclocks carry the backoff...
        let pipelined = report.pipelined_seconds.unwrap();
        assert!((report.total_seconds - (pipelined + res.backoff_seconds)).abs() < 1e-12);
        assert!(report.serialized_seconds >= pipelined + res.backoff_seconds);
        // ...so their ordering survives the retry.
        assert!(
            report.serialized_seconds >= report.total_seconds,
            "serialized {} must not dip below total {}",
            report.serialized_seconds,
            report.total_seconds
        );
    }

    #[test]
    fn ladder_stops_carry_typed_reasons() {
        let input = gen::micro_input(16, 37);
        let elementwise = select_plan(input.schema().clone());
        assert_eq!(
            next_rung(AdmittedMode::Resident, &elementwise),
            Ok(AdmittedMode::Staged)
        );
        assert_eq!(
            next_rung(AdmittedMode::Staged, &elementwise),
            Ok(AdmittedMode::Chunked { chunks: 2 })
        );
        assert_eq!(
            next_rung(AdmittedMode::Chunked { chunks: MAX_CHUNKS }, &elementwise),
            Err(LadderStop::MaxChunksExceeded)
        );

        // A join is no longer a ladder stop: hash partitioning gives it a
        // chunked rung.
        let (l, r) = gen::join_inputs(16, 2, 0.5, 38);
        let mut joiny = QueryPlan::new();
        let x = joiny.add_input("x", l.schema().clone());
        let y = joiny.add_input("y", r.schema().clone());
        let j = joiny.add_op(RaOp::Join { key_len: 1 }, &[x, y]).unwrap();
        joiny.mark_output(j);
        assert_eq!(
            next_rung(AdmittedMode::Staged, &joiny),
            Ok(AdmittedMode::Chunked { chunks: 2 })
        );

        // A full sort genuinely cannot chunk: the typed stop remains.
        let mut sorty = QueryPlan::new();
        let t = sorty.add_input("t", input.schema().clone());
        let s = sorty.add_op(RaOp::Sort { attrs: vec![1] }, &[t]).unwrap();
        sorty.mark_output(s);
        assert_eq!(
            next_rung(AdmittedMode::Staged, &sorty),
            Err(LadderStop::NonElementwiseBlocksChunking)
        );
    }

    #[test]
    fn non_partitionable_plan_on_hopeless_device_fails_typed() {
        // A full sort has no chunk strategy, so a device below its staged
        // footprint rejects it at admission with the no-strategy detail.
        let input = gen::micro_input(200_000, 35);
        let mut plan = QueryPlan::new();
        let t = plan.add_input("t", input.schema().clone());
        let s = plan.add_op(RaOp::Sort { attrs: vec![1] }, &[t]).unwrap();
        plan.mark_output(s);
        let mut dev = Device::new(DeviceConfig::tiny());
        let err = run_resilient(&plan, &[("t", &input)], &mut dev).unwrap_err();
        assert!(matches!(err, WeaverError::Admission { .. }), "{err}");
        assert!(err.to_string().contains("no chunk strategy"), "{err}");
    }

    #[test]
    fn oversized_join_degrades_to_hash_partitioned_chunks() {
        // A join whose inputs exceed the device now completes through the
        // ladder via hash-partitioned chunking, byte-identical to resident
        // execution on an oversized device.
        let (l, r) = gen::join_inputs(60_000, 2, 0.5, 39);
        let mut plan = QueryPlan::new();
        let x = plan.add_input("x", l.schema().clone());
        let y = plan.add_input("y", r.schema().clone());
        let j = plan.add_op(RaOp::Join { key_len: 1 }, &[x, y]).unwrap();
        plan.mark_output(j);
        let oracle = kw_relational::ops::join(&l, &r, 1).unwrap();

        let mut dev = Device::new(DeviceConfig::tiny());
        let report = run_resilient(&plan, &[("x", &l), ("y", &r)], &mut dev).unwrap();
        assert_eq!(report.outputs[&j], oracle);
        let res = report.resilience.as_ref().unwrap();
        assert!(
            matches!(res.final_mode, AdmittedMode::Chunked { .. }),
            "{:?}",
            res.final_mode
        );
        assert_eq!(
            res.admission.strategy,
            Some(crate::ChunkStrategy::HashPartition)
        );
        assert_eq!(dev.memory().in_use(), 0);
    }
}
