//! Open-loop query service: deterministic arrivals, admission queueing and
//! compiled-plan caching on one simulated device.
//!
//! The batch scheduler answers "how fast does a fixed batch run"; a
//! production database answers "what offered load can one device hold at a
//! latency SLO". [`run_service`] closes that gap with an open-loop driver:
//!
//! * **Arrivals** — a Poisson-style arrival process sampled from the seeded
//!   workspace RNG: inter-arrival gaps are exponential
//!   (`-ln(1-u)/offered_qps`) on the *simulated* clock, never the wall
//!   clock, so a run is a pure function of its seed. Arrival `i` takes the
//!   `i % shapes`-th plan shape, giving the repeated-shape traffic a plan
//!   cache exists for.
//! * **Admission queue** — arrivals wait FIFO; each dispatch admits the
//!   longest queue prefix whose summed [`admit`]-predicted resident peaks
//!   fit the device's free bytes (capped at
//!   [`ServiceConfig::max_dispatch`]), then hands it to
//!   [`execute_batch`] — waves, per-query fault
//!   domains and the degradation ladder all still apply inside a dispatch.
//!   Per-query *queueing delay* (dispatch start − arrival) is recorded
//!   separately from execution latency.
//! * **Plan cache** — a [`PlanCache`] keyed by canonical shape
//!   ([`crate::plan_shape_key`]). Each arrival performs exactly one cache
//!   lookup; a miss charges [`ServiceConfig::compile_seconds_per_step`] ×
//!   steps of simulated host time to the service clock before the dispatch
//!   (compilation delays the queue head exactly like real JIT would),
//!   while a hit is free. Hit/miss/eviction counts land on the report,
//!   which [`ServiceReport::publish`] renders as `kw_plan_cache_*` series.
//! * **Report** — exact nearest-rank p50/p95/p99 over queueing, execution
//!   and total (queueing + execution) latency of the successful queries,
//!   achieved QPS over the service span, and an SLO verdict on total p99.
//!   With zero successes every percentile is an explicit finite `0.0`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kw_gpu_sim::{Device, DeviceConfig, MetricsRegistry};

use crate::admission::admit;
use crate::plan_cache::{plan_shape_key, shape_fingerprint, PlanCache};
use crate::resilient::RetryPolicy;
use crate::scheduler::{execute_batch, BatchQuery, QueryOutcome};
use crate::{CompiledPlan, Result, WeaverConfig};

/// Tuning of one [`run_service`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Offered load: mean arrivals per simulated second of the Poisson
    /// process.
    pub offered_qps: f64,
    /// Total arrivals to generate.
    pub arrivals: usize,
    /// Seed of the arrival process.
    pub seed: u64,
    /// The latency objective checked against total (queueing + execution)
    /// p99.
    pub slo_p99_seconds: f64,
    /// Compiled-plan cache capacity in shapes; 0 disables caching (the
    /// compile-per-arrival baseline).
    pub cache_capacity: usize,
    /// Simulated host-side compile cost charged per compiled step on a
    /// cache miss. The underlying `compile()` is a host-side pure function
    /// the cycle clock never saw; this prices it so the cache's win is
    /// measurable in latency, not just counters.
    pub compile_seconds_per_step: f64,
    /// Maximum queries admitted into one dispatch batch.
    pub max_dispatch: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            offered_qps: 500.0,
            arrivals: 64,
            seed: 0xA881,
            slo_p99_seconds: 0.05,
            cache_capacity: 32,
            compile_seconds_per_step: 0.25e-3,
            max_dispatch: 8,
        }
    }
}

/// One arrival's life through the service, as reported.
#[derive(Debug, Clone)]
pub struct ServiceQueryReport {
    /// Workload name of the arrival's shape.
    pub name: String,
    /// Display fingerprint of the shape's cache key.
    pub shape_fingerprint: u64,
    /// The fault-domain verdict of the dispatch that ran it.
    pub outcome: QueryOutcome,
    /// Simulated arrival time, seconds from service start.
    pub arrival_seconds: f64,
    /// Seconds spent queued (dispatch start − arrival); includes any
    /// compile stalls charged while this query waited.
    pub queueing_seconds: f64,
    /// Simulated compile seconds this arrival itself charged (0 on a cache
    /// hit).
    pub compile_seconds: f64,
    /// Execution latency inside its dispatch batch (0 when quarantined).
    pub execution_seconds: f64,
    /// Total latency: queueing + execution.
    pub total_seconds: f64,
    /// Whether this arrival's plan came out of the cache.
    pub cache_hit: bool,
}

/// Exact nearest-rank percentiles over one latency family.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServicePercentiles {
    /// Median.
    pub p50_seconds: f64,
    /// 95th percentile.
    pub p95_seconds: f64,
    /// 99th percentile.
    pub p99_seconds: f64,
}

/// What one open-loop service run did.
#[derive(Debug)]
pub struct ServiceReport {
    /// Offered load of the arrival process, queries per second.
    pub offered_qps: f64,
    /// Successful queries per second of service span (first arrival to
    /// last completion); 0 when nothing succeeded.
    pub achieved_qps: f64,
    /// Arrivals generated.
    pub arrivals: usize,
    /// Arrivals that produced outputs.
    pub completed: usize,
    /// Arrivals quarantined by their dispatch.
    pub failed: usize,
    /// Dispatch batches issued.
    pub dispatches: usize,
    /// Deepest the admission queue ever got (arrivals waiting at once).
    pub max_queue_depth: usize,
    /// Queueing-delay percentiles over successful queries.
    pub queueing: ServicePercentiles,
    /// Execution-latency percentiles over successful queries.
    pub execution: ServicePercentiles,
    /// Total-latency (queueing + execution) percentiles over successful
    /// queries — the SLO metric.
    pub total: ServicePercentiles,
    /// Mean queueing delay over successful queries (0 with no successes).
    pub mean_queueing_seconds: f64,
    /// Mean execution latency over successful queries.
    pub mean_execution_seconds: f64,
    /// Mean total latency over successful queries.
    pub mean_total_seconds: f64,
    /// Simulated compile seconds charged across all cache misses.
    pub compile_seconds_total: f64,
    /// Device-busy seconds: sum of dispatch makespans.
    pub busy_seconds: f64,
    /// Service span in simulated seconds: max(last completion, last
    /// arrival).
    pub duration_seconds: f64,
    /// Plan-cache lookups served from cache.
    pub cache_hits: u64,
    /// Plan-cache lookups that compiled.
    pub cache_misses: u64,
    /// Plan-cache LRU evictions.
    pub cache_evictions: u64,
    /// Plan-cache capacity the run used (0 = disabled).
    pub cache_capacity: usize,
    /// Shapes held in the plan cache when the run ended.
    pub cache_entries: usize,
    /// The SLO this run was checked against.
    pub slo_p99_seconds: f64,
    /// Whether total p99 met the SLO (false when nothing succeeded).
    pub slo_met: bool,
    /// Per-arrival reports in arrival order.
    pub queries: Vec<ServiceQueryReport>,
}

impl ServiceReport {
    /// Render this run's layer series into `metrics`: the four
    /// `kw_service_*_total` counters, the `kw_plan_cache_*` counters and
    /// entries gauge, and the `kw_service_total_latency_cycles` histogram
    /// over successful arrivals, on `config`'s clock (the device the
    /// service ran on).
    pub fn publish(&self, config: &DeviceConfig, metrics: &mut MetricsRegistry) {
        metrics.inc("kw_service_arrivals_total", self.arrivals as u64);
        metrics.inc("kw_service_dispatches_total", self.dispatches as u64);
        metrics.inc("kw_service_completed_total", self.completed as u64);
        metrics.inc("kw_service_failed_total", self.failed as u64);
        metrics.inc("kw_plan_cache_hits_total", self.cache_hits);
        metrics.inc("kw_plan_cache_misses_total", self.cache_misses);
        metrics.inc("kw_plan_cache_evictions_total", self.cache_evictions);
        metrics.set_gauge("kw_plan_cache_entries", self.cache_entries as f64);
        for q in self.queries.iter().filter(|q| q.outcome.is_success()) {
            let cycles = config.seconds_to_cycles(q.total_seconds);
            metrics.observe("kw_service_total_latency_cycles", cycles);
        }
    }
}

/// Exact nearest-rank percentile over `sorted` (ascending); 0.0 when empty.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Sort `latencies` and read off the nearest-rank p50/p95/p99 — the one
/// percentile rule the batch scheduler and the service share.
pub(crate) fn percentiles(latencies: &mut [f64]) -> ServicePercentiles {
    latencies.sort_by(f64::total_cmp);
    ServicePercentiles {
        p50_seconds: percentile(latencies, 0.50),
        p95_seconds: percentile(latencies, 0.95),
        p99_seconds: percentile(latencies, 0.99),
    }
}

/// Run an open-loop service over `shapes` with the default
/// [`RetryPolicy`].
///
/// `shapes` is the pool of plan shapes arrivals cycle through (arrival `i`
/// is `shapes[i % shapes.len()]` with that shape's bindings). See the
/// module docs for the arrival, queueing and caching model.
///
/// # Errors
///
/// Returns [`crate::WeaverError`] when `shapes` is empty, when a shape
/// fails to compile, or when the service configuration is non-physical
/// (`offered_qps <= 0`, `max_dispatch == 0`). Faults *inside* a dispatch
/// never error: they surface as per-query [`QueryOutcome`]s.
pub fn run_service(
    shapes: &[BatchQuery<'_>],
    device: &mut Device,
    config: &WeaverConfig,
    service: &ServiceConfig,
) -> Result<ServiceReport> {
    if shapes.is_empty() {
        return Err(crate::WeaverError::plan(
            "service needs at least one plan shape",
        ));
    }
    if service.offered_qps <= 0.0 || !service.offered_qps.is_finite() {
        return Err(crate::WeaverError::plan(format!(
            "offered_qps must be positive and finite, got {}",
            service.offered_qps
        )));
    }
    if service.max_dispatch == 0 {
        return Err(crate::WeaverError::plan("max_dispatch must be at least 1"));
    }

    // Pre-sample the whole arrival schedule so the event loop below is
    // driven by data, not by interleaved RNG draws.
    let mut rng = StdRng::seed_from_u64(service.seed);
    let mut arrival_at: Vec<f64> = Vec::with_capacity(service.arrivals);
    let mut t = 0.0f64;
    for _ in 0..service.arrivals {
        let u: f64 = rng.gen();
        // u ∈ [0, 1): 1-u ∈ (0, 1], so the log is finite and non-positive.
        t += -(1.0f64 - u).ln() / service.offered_qps;
        arrival_at.push(t);
    }

    let mut cache = PlanCache::new(service.cache_capacity);
    // Compiled plan + (hit, compile seconds charged) per arrival, filled
    // lazily the first time the admission loop considers the arrival —
    // exactly one cache lookup per arrival.
    let mut prepared: Vec<Option<(CompiledPlan, bool, f64)>> =
        (0..service.arrivals).map(|_| None).collect();
    let mut per_query: Vec<Option<ServiceQueryReport>> =
        (0..service.arrivals).map(|_| None).collect();

    let capacity = device.memory().capacity();
    let mut now = 0.0f64;
    let mut next = 0usize; // next arrival index not yet queued
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let mut dispatches = 0usize;
    let mut max_queue_depth = 0usize;
    let mut busy_seconds = 0.0f64;
    let mut compile_seconds_total = 0.0f64;
    let mut last_completion = 0.0f64;

    while next < service.arrivals || !queue.is_empty() {
        if queue.is_empty() {
            // Idle: jump the service clock to the next arrival.
            now = now.max(arrival_at[next]);
        }
        while next < service.arrivals && arrival_at[next] <= now {
            queue.push_back(next);
            next += 1;
        }
        max_queue_depth = max_queue_depth.max(queue.len());

        // Admit the longest FIFO prefix whose predicted resident peaks fit
        // free device bytes. Compilation (cache miss) happens here, charged
        // to the service clock before the dispatch leaves.
        let free = capacity.saturating_sub(device.memory().in_use());
        let mut batch: Vec<usize> = Vec::new();
        let mut peak_sum: u64 = 0;
        for &ai in queue.iter() {
            if batch.len() >= service.max_dispatch {
                break;
            }
            let shape = &shapes[ai % shapes.len()];
            if prepared[ai].is_none() {
                let before = cache.stats();
                let (compiled, hit) = cache.get_or_compile(shape.plan, config)?;
                debug_assert_eq!(
                    cache.stats().hits + cache.stats().misses,
                    before.hits + before.misses + 1
                );
                let cost = if hit {
                    0.0
                } else {
                    service.compile_seconds_per_step * compiled.steps.len() as f64
                };
                now += cost;
                compile_seconds_total += cost;
                prepared[ai] = Some((compiled, hit, cost));
            }
            let compiled = &prepared[ai].as_ref().expect("prepared above").0;
            // Queries admission cannot price (estimate failure) dispatch
            // with a zero predicted peak; the batch executor's own
            // admission and ladder decide their fate.
            let peak = admit(shape.plan, compiled, shape.bindings, free)
                .map(|r| r.resident_peak)
                .unwrap_or(0);
            if batch.is_empty() || peak_sum.saturating_add(peak) <= free {
                peak_sum = peak_sum.saturating_add(peak);
                batch.push(ai);
            } else {
                break;
            }
        }
        for _ in 0..batch.len() {
            queue.pop_front();
        }

        let dispatch_start = now;
        let batch_queries: Vec<BatchQuery<'_>> =
            batch.iter().map(|&ai| shapes[ai % shapes.len()]).collect();
        let batch_compiled: Vec<CompiledPlan> = batch
            .iter()
            .map(|&ai| {
                prepared[ai]
                    .as_ref()
                    .expect("admitted ⇒ prepared")
                    .0
                    .clone()
            })
            .collect();
        let report = execute_batch(
            &batch_queries,
            &batch_compiled,
            device,
            config,
            &RetryPolicy::default(),
        )?;
        dispatches += 1;
        busy_seconds += report.makespan_seconds;
        now = dispatch_start + report.makespan_seconds;

        for (&ai, qr) in batch.iter().zip(&report.queries) {
            let shape = &shapes[ai % shapes.len()];
            let (_, hit, compile_cost) = prepared[ai].as_ref().expect("admitted ⇒ prepared");
            let queueing = (dispatch_start - arrival_at[ai]).max(0.0);
            let execution = if qr.outcome.is_success() {
                qr.latency_seconds
            } else {
                0.0
            };
            if qr.outcome.is_success() {
                last_completion = last_completion.max(dispatch_start + qr.latency_seconds);
            }
            per_query[ai] = Some(ServiceQueryReport {
                name: shape.name.to_string(),
                shape_fingerprint: shape_fingerprint(&plan_shape_key(shape.plan, config)),
                outcome: qr.outcome.clone(),
                arrival_seconds: arrival_at[ai],
                queueing_seconds: queueing,
                compile_seconds: *compile_cost,
                execution_seconds: execution,
                total_seconds: queueing + execution,
                cache_hit: *hit,
            });
        }
    }

    let queries: Vec<ServiceQueryReport> = per_query
        .into_iter()
        .map(|q| q.expect("every arrival was dispatched"))
        .collect();
    let successes: Vec<&ServiceQueryReport> =
        queries.iter().filter(|q| q.outcome.is_success()).collect();
    let completed = successes.len();
    let failed = queries.len() - completed;

    let mut queueing_lat: Vec<f64> = successes.iter().map(|q| q.queueing_seconds).collect();
    let mut execution_lat: Vec<f64> = successes.iter().map(|q| q.execution_seconds).collect();
    let mut total_lat: Vec<f64> = successes.iter().map(|q| q.total_seconds).collect();
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let mean_queueing_seconds = mean(&queueing_lat);
    let mean_execution_seconds = mean(&execution_lat);
    let mean_total_seconds = mean(&total_lat);
    let queueing = percentiles(&mut queueing_lat);
    let execution = percentiles(&mut execution_lat);
    let total = percentiles(&mut total_lat);

    let duration_seconds = last_completion.max(arrival_at.last().copied().unwrap_or(0.0));
    let achieved_qps = if duration_seconds > 0.0 {
        completed as f64 / duration_seconds
    } else {
        0.0
    };
    let stats = cache.stats();
    let slo_met = completed > 0 && total.p99_seconds <= service.slo_p99_seconds;

    Ok(ServiceReport {
        offered_qps: service.offered_qps,
        achieved_qps,
        arrivals: queries.len(),
        completed,
        failed,
        dispatches,
        max_queue_depth,
        queueing,
        execution,
        total,
        mean_queueing_seconds,
        mean_execution_seconds,
        mean_total_seconds,
        compile_seconds_total,
        busy_seconds,
        duration_seconds,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        cache_evictions: stats.evictions,
        cache_capacity: service.cache_capacity,
        cache_entries: cache.len(),
        slo_p99_seconds: service.slo_p99_seconds,
        slo_met,
        queries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryPlan;
    use kw_gpu_sim::DeviceConfig;
    use kw_primitives::RaOp;
    use kw_relational::{gen, CmpOp, Predicate, Relation, Value};

    fn device() -> Device {
        Device::new(DeviceConfig::fermi_c2050())
    }

    fn service_cfg() -> ServiceConfig {
        ServiceConfig {
            arrivals: 24,
            offered_qps: 2_000.0,
            ..ServiceConfig::default()
        }
    }

    fn chain(schema: kw_relational::Schema, depth: usize, threshold: u32) -> QueryPlan {
        let mut p = QueryPlan::new();
        let mut cur = p.add_input("t", schema);
        for a in 0..depth {
            cur = p
                .add_op(
                    RaOp::Select {
                        pred: Predicate::cmp(a % 4, CmpOp::Lt, Value::U32(threshold)),
                    },
                    &[cur],
                )
                .unwrap();
        }
        p.mark_output(cur);
        p
    }

    /// Three distinct select-chain shapes over three inputs — the repeated
    /// traffic mix every test below serves.
    fn run_over_shapes(n: usize, service: &ServiceConfig) -> (ServiceReport, kw_gpu_sim::SimStats) {
        let inputs: Vec<Relation> = (0..3u64)
            .map(|i| gen::micro_input(n, 0xC2050 + i))
            .collect();
        let plans: Vec<QueryPlan> = inputs
            .iter()
            .enumerate()
            .map(|(i, r)| chain(r.schema().clone(), 2 + i, u32::MAX / 2 + i as u32))
            .collect();
        let bindings: Vec<[(&str, &Relation); 1]> = inputs.iter().map(|r| [("t", r)]).collect();
        let names = ["alpha", "beta", "gamma"];
        let shapes: Vec<BatchQuery<'_>> = plans
            .iter()
            .zip(&bindings)
            .zip(names)
            .map(|((p, b), name)| BatchQuery {
                name,
                plan: p,
                bindings: b,
            })
            .collect();
        let mut dev = device();
        let report = run_service(&shapes, &mut dev, &WeaverConfig::default(), service).unwrap();
        (report, *dev.stats())
    }

    #[test]
    fn service_completes_every_arrival_and_reuses_shapes() {
        let cfg = service_cfg();
        let (report, _) = run_over_shapes(1 << 12, &cfg);
        assert_eq!(report.arrivals, cfg.arrivals);
        assert_eq!(report.completed + report.failed, report.arrivals);
        assert_eq!(report.failed, 0);
        // One lookup per arrival, 3 shapes → exactly 3 misses.
        assert_eq!(
            report.cache_hits + report.cache_misses,
            report.arrivals as u64
        );
        assert_eq!(report.cache_misses, 3);
        assert!(report.achieved_qps > 0.0);
        assert!(report.dispatches >= 1);
        // Totals decompose exactly.
        for q in &report.queries {
            assert!((q.total_seconds - (q.queueing_seconds + q.execution_seconds)).abs() < 1e-12);
            assert!(q.queueing_seconds >= q.compile_seconds - 1e-12);
        }
        // Percentile families are monotone.
        for p in [&report.queueing, &report.execution, &report.total] {
            assert!(p.p50_seconds <= p.p95_seconds);
            assert!(p.p95_seconds <= p.p99_seconds);
        }
        assert!(report.total.p99_seconds >= report.queueing.p99_seconds);
        assert!(report.total.p99_seconds >= report.execution.p99_seconds);
    }

    #[test]
    fn service_is_deterministic_in_its_seed() {
        let cfg = service_cfg();
        let (a, _) = run_over_shapes(1 << 12, &cfg);
        let (b, _) = run_over_shapes(1 << 12, &cfg);
        assert_eq!(a.total.p99_seconds, b.total.p99_seconds);
        assert_eq!(a.achieved_qps, b.achieved_qps);
        assert_eq!(a.dispatches, b.dispatches);
        let other = ServiceConfig {
            seed: cfg.seed + 1,
            ..cfg
        };
        let (c, _) = run_over_shapes(1 << 12, &other);
        assert_ne!(
            a.queries[0].arrival_seconds, c.queries[0].arrival_seconds,
            "a different seed must reshuffle arrivals"
        );
    }

    #[test]
    fn cache_beats_compile_per_arrival() {
        let cached_cfg = service_cfg();
        let uncached_cfg = ServiceConfig {
            cache_capacity: 0,
            ..cached_cfg
        };
        let (cached, _) = run_over_shapes(1 << 12, &cached_cfg);
        let (uncached, _) = run_over_shapes(1 << 12, &uncached_cfg);
        assert_eq!(uncached.cache_hits, 0);
        assert_eq!(uncached.cache_misses, uncached.arrivals as u64);
        assert!(cached.cache_hits > 0);
        assert!(
            cached.total.p99_seconds < uncached.total.p99_seconds,
            "cached p99 {} must beat uncached {}",
            cached.total.p99_seconds,
            uncached.total.p99_seconds
        );
        assert!(cached.achieved_qps >= uncached.achieved_qps);
        assert!(cached.compile_seconds_total < uncached.compile_seconds_total);
    }

    #[test]
    fn all_failed_service_stays_total() {
        // Shape whose binding name never matches: every arrival quarantines.
        let input = gen::micro_input(4_000, 9);
        let mut plan = crate::QueryPlan::new();
        let t = plan.add_input("t", input.schema().clone());
        let s = plan
            .add_op(
                RaOp::Select {
                    pred: Predicate::cmp(0, CmpOp::Lt, Value::U32(u32::MAX)),
                },
                &[t],
            )
            .unwrap();
        plan.mark_output(s);
        let bad = [("wrong", &input)];
        let shapes = [BatchQuery {
            name: "doomed",
            plan: &plan,
            bindings: &bad,
        }];
        let mut dev = device();
        let cfg = ServiceConfig {
            arrivals: 8,
            ..service_cfg()
        };
        let report = run_service(&shapes, &mut dev, &WeaverConfig::default(), &cfg).unwrap();
        assert_eq!(report.completed, 0);
        assert_eq!(report.failed, 8);
        for p in [
            report.total.p50_seconds,
            report.total.p95_seconds,
            report.total.p99_seconds,
            report.achieved_qps,
            report.mean_total_seconds,
        ] {
            assert!(p.is_finite());
            assert_eq!(p, 0.0);
        }
        assert!(!report.slo_met);
    }

    #[test]
    fn service_metrics_reach_the_registry() {
        let input = gen::micro_input(1 << 12, 7);
        let plan = chain(input.schema().clone(), 2, u32::MAX / 2);
        let bindings = [("t", &input)];
        let shapes = [BatchQuery {
            name: "alpha",
            plan: &plan,
            bindings: &bindings,
        }];
        let mut dev = device();
        let cfg = ServiceConfig {
            arrivals: 6,
            ..service_cfg()
        };
        let report = run_service(&shapes, &mut dev, &WeaverConfig::default(), &cfg).unwrap();
        let mut m = dev.metrics();
        report.publish(dev.config(), &mut m);
        assert_eq!(m.counter("kw_service_arrivals_total"), 6);
        assert_eq!(m.counter("kw_plan_cache_hits_total"), report.cache_hits);
        assert_eq!(m.counter("kw_plan_cache_misses_total"), report.cache_misses);
        assert_eq!(m.counter("kw_plan_cache_evictions_total"), 0);
        assert_eq!(m.gauge("kw_plan_cache_entries"), Some(1.0));
        assert!(m.counter("kw_service_dispatches_total") >= 1);
        let latency = m.histogram("kw_service_total_latency_cycles").unwrap();
        assert_eq!(latency.count(), report.completed as u64);
    }

    #[test]
    fn bad_service_configs_are_rejected() {
        let input = gen::micro_input(1 << 10, 7);
        let plan = chain(input.schema().clone(), 2, u32::MAX / 2);
        let bindings = [("t", &input)];
        let shapes = [BatchQuery {
            name: "alpha",
            plan: &plan,
            bindings: &bindings,
        }];
        let mut dev = device();
        let w = WeaverConfig::default();
        assert!(run_service(&[], &mut dev, &w, &ServiceConfig::default()).is_err());
        let zero_rate = ServiceConfig {
            offered_qps: 0.0,
            ..ServiceConfig::default()
        };
        assert!(run_service(&shapes, &mut dev, &w, &zero_rate).is_err());
        let zero_dispatch = ServiceConfig {
            max_dispatch: 0,
            ..ServiceConfig::default()
        };
        assert!(run_service(&shapes, &mut dev, &w, &zero_dispatch).is_err());
        let empty = ServiceConfig {
            arrivals: 0,
            ..ServiceConfig::default()
        };
        let report = run_service(&shapes, &mut dev, &w, &empty).unwrap();
        assert_eq!(report.arrivals, 0);
        assert_eq!(report.achieved_qps, 0.0);
        assert!(!report.slo_met);
    }
}
