//! The benchmark's four workloads: set-up, one request, its check, and the
//! traced run's side measurements.
//!
//! Three workloads are closed loops of single plan executions, each on a
//! fresh device: `tpch_analytics` (prepared TPC-H plans, interpreter
//! bound), `adhoc_small` (a new small plan per request, compile bound) and
//! `out_of_core` (chunked runs on a device smaller than the inputs).
//! `service_open_loop` drives `run_service` at fixed offered rates on one
//! device that lives for a whole pass, so host cost that grows with device
//! age shows.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kw_bench::experiments::out_of_core::{aggregate_workload, capacity_for};
use kw_bench::experiments::scheduler::MIX;
use kw_core::{
    admit, compile, execute_compiled, execute_compiled_resilient, find_candidates, run_service,
    select_fusions, weave, AdmittedMode, BatchQuery, CompiledPlan, FusionOptions, NodeId,
    PlanReport, QueryPlan, RetryPolicy, ServiceConfig, ServiceReport, WeaverConfig,
};
use kw_gpu_sim::{reconcile, Device, DeviceConfig, SimStats};
use kw_kernel_ir::OperatorBody;
use kw_primitives::{build_unfused, RaOp};
use kw_relational::ops::AggFn;
use kw_relational::{CmpOp, Expr, Predicate, Relation, Value};
use kw_tpch::{Pattern, Workload as Bundle};

use crate::oracle;
use crate::trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "tpch_analytics",
    "adhoc_small",
    "service_open_loop",
    "out_of_core",
];

/// Offered loads of `service_open_loop`, arrivals per simulated second.
/// Absolute, so a slower commit is measured against the same load rather
/// than against rates derived from its own speed.
pub const SERVICE_RATES: [f64; 3] = [5_000.0, 10_000.0, 20_000.0];
/// The rate whose scheduler and service figures the per-layer metrics
/// report.
pub const SERVICE_LAYER_RATE: usize = 1;
/// Latency objective on total (queueing + execution) p99, seconds.
pub const SERVICE_SLO_SECONDS: f64 = 1.0e-3;
/// A rate counts as sustained only if achieved throughput is at least this
/// share of the rate at which the run's arrivals came (no growing backlog).
pub const SERVICE_BACKLOG_SHARE: f64 = 0.9;
const SERVICE_CACHE_CAPACITY: usize = 32;
/// The arrival schedule is one fixed Poisson sample per rate, so the tail
/// latency reflects the system and not the luck of the draw; `--seed`
/// varies the data.
const SERVICE_ARRIVAL_SEED: u64 = 0x5E41;
/// The ad-hoc plans' shapes (chain depths, join orders, filtered
/// attributes, tails) come from this fixed seed and their literals and
/// inputs from `--seed`, so the simulated figures move with the data
/// rather than with a new draw of plan shapes.
const ADHOC_SHAPE_SEED: u64 = 0xAD40C;

/// Input sizes of one set-up. The benchmark runs [`Size::FULL`]; tests run
/// a smaller size through the same code.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// `kw_tpch::generate` scale factor (1.0 = 6,000 lineitem rows).
    pub tpch_scale: f64,
    /// Distinct ad-hoc plans in one pass.
    pub adhoc_plans: usize,
    /// Tuples per ad-hoc input relation, before a seeded jitter of under 1%.
    pub adhoc_tuples: usize,
    /// Tuples per service shape input.
    pub service_tuples: usize,
    /// Arrivals per service run. At 340, a pass of the three rates holds
    /// 1,020 arrivals, ten of them beyond the pooled 99th percentile, and
    /// lasts under 2 s, so the 10th-percentile host times pick from twelve
    /// passes.
    pub service_arrivals: usize,
    /// Tuples per out-of-core input, before a seeded jitter of under 1%.
    pub ooc_tuples: usize,
    /// Measured passes over the requests, per workload in [`NAMES`] order.
    pub passes: [usize; 4],
}

impl Size {
    /// The sizes the benchmark measures. Each workload's passes take 12 to
    /// 19 s on a quiet 2-vCPU Intel Xeon virtual machine.
    pub const FULL: Size = Size {
        tpch_scale: 16.0,
        adhoc_plans: 1_000,
        adhoc_tuples: 512,
        service_tuples: 16_384,
        service_arrivals: 340,
        ooc_tuples: 65_536,
        passes: [100, 120, 12, 400],
    };

    /// Measured passes of workload `name`.
    pub fn passes_of(&self, name: &str) -> usize {
        NAMES
            .iter()
            .position(|n| *n == name)
            .map_or(1, |i| self.passes[i])
    }
}

/// Deterministic per-request figures: every pass must reproduce them bit
/// for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// What the request adds to the end-to-end simulated metrics.
    pub sim: SimFigures,
    /// Additive per-layer counters.
    pub counters: Counters,
    /// The service figures of one offered rate.
    pub service: Option<ServicePoint>,
}

/// One request's simulated end-to-end figures.
#[derive(Debug, Clone, PartialEq)]
pub struct SimFigures {
    /// Simulated latencies, seconds: the plan's, or every arrival's.
    pub latencies: Vec<f64>,
    /// Simulated device-busy seconds.
    pub busy_s: f64,
    /// Requests completed in [`SimFigures::busy_s`].
    pub done: usize,
    /// Peak device bytes.
    pub peak_bytes: u64,
}

/// Per-layer counters summed over requests.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Plan executions (one per request; one per arrival for the service).
    pub executions: f64,
    /// Compiled steps executed.
    pub steps: f64,
    /// Of which fused.
    pub fused_steps: f64,
    /// Device trace spans recorded.
    pub spans: f64,
    /// Simulator counters charged.
    pub stats: SimStats,
    /// Arena reservation and high-water bytes.
    pub arena_reservation: f64,
    /// See [`Counters::arena_reservation`].
    pub arena_high_water: f64,
    /// Chunks executed (0 for resident runs).
    pub chunks: f64,
    /// Overlap-aware and serialized simulated seconds.
    pub total_s: f64,
    /// See [`Counters::total_s`].
    pub serialized_s: f64,
}

impl Counters {
    /// Add `other` into `self`.
    pub fn add(&mut self, other: &Counters) {
        self.executions += other.executions;
        self.steps += other.steps;
        self.fused_steps += other.fused_steps;
        self.spans += other.spans;
        self.stats.merge(&other.stats);
        self.arena_reservation += other.arena_reservation;
        self.arena_high_water += other.arena_high_water;
        self.chunks += other.chunks;
        self.total_s += other.total_s;
        self.serialized_s += other.serialized_s;
    }
}

/// What one `run_service` call at one offered rate reported.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServicePoint {
    /// Offered arrivals per simulated second.
    pub offered_qps: f64,
    /// Completed arrivals per simulated second of service span.
    pub achieved_qps: f64,
    /// Total-latency p99, seconds.
    pub total_p99_s: f64,
    /// Queueing-delay p99, seconds.
    pub queueing_p99_s: f64,
    /// Execution-latency p99, seconds.
    pub execution_p99_s: f64,
    /// Deepest admission queue.
    pub max_queue_depth: usize,
    /// Simulated compile seconds charged on cache misses.
    pub compile_s: f64,
    /// Plan-cache hits over lookups.
    pub cache_hit_ratio: f64,
    /// Dispatch batches issued.
    pub dispatches: usize,
    /// Device-busy seconds over service span.
    pub busy_frac: f64,
    /// Whether total p99 met the SLO and no backlog grew.
    pub sustained: bool,
}

/// What a request returns before it is checked: the report plus the device
/// state it left, so checks and teardown stay outside the timed region.
// Moved once per request; boxing would add an allocation to the timed path.
#[allow(clippy::large_enum_variant)]
pub enum Done {
    /// A plan execution and its device.
    Plan(Device, PlanReport),
    /// A `run_service` call.
    Service(ServiceRun),
}

/// A `run_service` call's report and what it did to the long-lived device.
pub struct ServiceRun {
    report: ServiceReport,
    /// Simulator counters the call charged.
    stats: SimStats,
    /// Device spans the call recorded.
    spans: usize,
    /// Device bytes still held after the call.
    in_use: u64,
    /// Device peak bytes so far in this pass.
    peak: u64,
}

/// One plan of a plan workload.
struct Instance {
    plan: QueryPlan,
    /// Index into [`PlanWorkload::pools`].
    pool: usize,
    /// Device global memory; `None` for the stock Fermi capacity.
    capacity: Option<u64>,
    /// Compiled in set-up (prepared statements), or per request.
    compiled: Option<CompiledPlan>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Path {
    /// `execute_compiled` on a fresh stock device.
    Resident,
    /// `execute_compiled_resilient` on a fresh capped device.
    Resilient,
}

/// `tpch_analytics`, `adhoc_small` and `out_of_core`.
pub struct PlanWorkload {
    pools: Vec<Vec<(String, Relation)>>,
    instances: Vec<Instance>,
    path: Path,
    expected: Vec<BTreeMap<NodeId, Relation>>,
}

/// `service_open_loop`.
pub struct ServiceWorkload {
    shapes: Vec<Bundle>,
    compiled: Vec<CompiledPlan>,
    arrivals: usize,
    warm_outputs: Vec<BTreeMap<NodeId, Relation>>,
    device: Option<Device>,
}

/// A set-up workload.
// One value per process, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Workload {
    /// One plan execution per request.
    Plans(PlanWorkload),
    /// One `run_service` call per request.
    Service(ServiceWorkload),
}

/// A set-up workload plus the part of set-up spent generating inputs.
pub struct Setup {
    /// The workload, warmed up.
    pub workload: Workload,
    /// Seconds spent in the input generators.
    pub gen_s: f64,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn fermi(capacity: Option<u64>) -> DeviceConfig {
    match capacity {
        Some(global_mem_bytes) => DeviceConfig {
            global_mem_bytes,
            ..DeviceConfig::fermi_c2050()
        },
        None => DeviceConfig::fermi_c2050(),
    }
}

fn bindings(pool: &[(String, Relation)]) -> Vec<(&str, &Relation)> {
    pool.iter().map(|(n, r)| (n.as_str(), r)).collect()
}

/// Build workload `name` from `seed` at `size`, including its untimed
/// warm-up pass.
///
/// # Errors
///
/// Unknown names, plans that fail to build, and failing warm-up runs.
pub fn setup(name: &str, seed: u64, size: &Size) -> Result<Setup, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    match name {
        "tpch_analytics" => setup_tpch(size, &mut rng),
        "adhoc_small" => setup_adhoc(size, &mut rng),
        "service_open_loop" => setup_service(size, &mut rng),
        "out_of_core" => setup_out_of_core(size, &mut rng),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// Q1, Q3, Q6 and Q21 over one database, compiled here like prepared
/// statements.
fn setup_tpch(size: &Size, rng: &mut StdRng) -> Result<Setup, String> {
    let t0 = Instant::now();
    let db = kw_tpch::generate(size.tpch_scale, rng.gen());
    let gen_s = t0.elapsed().as_secs_f64();
    let bundles = [
        kw_tpch::q1_plan(db.clone()),
        kw_tpch::q3_plan(db.clone()),
        kw_tpch::q6_plan(db.clone()),
        kw_tpch::q21_plan(db),
    ];
    let mut w = plan_workload(bundles.into_iter().map(|b| (b, None)), Path::Resident);
    for inst in &mut w.instances {
        inst.compiled = Some(compile(&inst.plan, &WeaverConfig::default()).map_err(err)?);
    }
    w.warm_up()?;
    Ok(Setup {
        workload: Workload::Plans(w),
        gen_s,
    })
}

/// A new plan per request over shared small inputs; the warm-up runs 1%
/// extra plans drawn from a separate sub-seed.
fn setup_adhoc(size: &Size, rng: &mut StdRng) -> Result<Setup, String> {
    let t0 = Instant::now();
    let pool = adhoc_inputs(size.adhoc_tuples, rng);
    let gen_s = t0.elapsed().as_secs_f64();
    let plans = |count: usize, shape: &mut StdRng, lits: &mut StdRng| {
        (0..count)
            .map(|i| adhoc_plan(i % ADHOC_TEMPLATES, &pool, shape, lits).map(adhoc_instance))
            .collect::<Result<Vec<_>, _>>()
    };
    let measured = plans(
        size.adhoc_plans,
        &mut StdRng::seed_from_u64(ADHOC_SHAPE_SEED),
        rng,
    )?;
    let warm = plans(
        (size.adhoc_plans / 100).max(ADHOC_TEMPLATES),
        &mut StdRng::seed_from_u64(rng.gen()),
        &mut StdRng::seed_from_u64(rng.gen()),
    )?;
    let mut w = PlanWorkload {
        pools: vec![pool],
        instances: warm,
        path: Path::Resident,
        expected: Vec::new(),
    };
    w.warm_up()?;
    w.instances = measured;
    Ok(Setup {
        workload: Workload::Plans(w),
        gen_s,
    })
}

/// The scheduler mix at service scale; the warm-up runs each shape once
/// and keeps its outputs for the oracle, since `run_service` returns none.
fn setup_service(size: &Size, rng: &mut StdRng) -> Result<Setup, String> {
    let t0 = Instant::now();
    let shapes: Vec<Bundle> = MIX
        .iter()
        .map(|p| p.build(size.service_tuples, rng.gen()))
        .collect();
    let gen_s = t0.elapsed().as_secs_f64();
    let config = WeaverConfig::default();
    let mut compiled = Vec::new();
    let mut warm_outputs = Vec::new();
    for s in &shapes {
        let c = compile(&s.plan, &config).map_err(err)?;
        let mut dev = Device::new(fermi(None));
        let r = execute_compiled(&s.plan, &c, &s.bindings(), &mut dev, &config).map_err(err)?;
        compiled.push(c);
        warm_outputs.push(r.outputs);
    }
    Ok(Setup {
        workload: Workload::Service(ServiceWorkload {
            shapes,
            compiled,
            arrivals: size.service_arrivals,
            warm_outputs,
            device: None,
        }),
        gen_s,
    })
}

/// Patterns (b), (c), (d) and a grouped aggregate, each on a device capped
/// below its inputs.
fn setup_out_of_core(size: &Size, rng: &mut StdRng) -> Result<Setup, String> {
    let t0 = Instant::now();
    let bundles = [
        Pattern::B.build(jittered(size.ooc_tuples, rng), rng.gen()),
        Pattern::C.build(jittered(size.ooc_tuples, rng), rng.gen()),
        Pattern::D.build(jittered(size.ooc_tuples, rng), rng.gen()),
        aggregate_workload(jittered(size.ooc_tuples, rng), rng.gen()),
    ];
    let gen_s = t0.elapsed().as_secs_f64();
    let mut w = plan_workload(
        bundles.into_iter().map(|b| {
            let cap = capacity_for(&b);
            (b, Some(cap))
        }),
        Path::Resilient,
    );
    w.warm_up()?;
    Ok(Setup {
        workload: Workload::Plans(w),
        gen_s,
    })
}

/// `n` plus a seeded jitter of under 1%. Shapes whose cost depends only on
/// their sizes would otherwise give every seed the same simulated figures;
/// the jitter makes them depend on the seed while the host work stays level.
/// The service shapes keep fixed sizes: there a 1% change in execution time
/// moves batch boundaries and swings the queueing tail by 10%.
fn jittered(n: usize, rng: &mut StdRng) -> usize {
    n + rng.gen_range(0..(n / 128).max(1))
}

/// One instance per bundle, each with its own inputs.
fn plan_workload(bundles: impl Iterator<Item = (Bundle, Option<u64>)>, path: Path) -> PlanWorkload {
    let mut pools = Vec::new();
    let mut instances = Vec::new();
    for (b, capacity) in bundles {
        instances.push(Instance {
            plan: b.plan,
            pool: pools.len(),
            capacity,
            compiled: None,
        });
        pools.push(b.data);
    }
    PlanWorkload {
        pools,
        instances,
        path,
        expected: Vec::new(),
    }
}

const ADHOC_TEMPLATES: usize = 5;

fn adhoc_instance(plan: QueryPlan) -> Instance {
    Instance {
        plan,
        pool: 0,
        capacity: None,
        compiled: None,
    }
}

/// The shared ad-hoc inputs, each of about `n` tuples: `t` (4 x u32), the
/// pattern (b) join tables `x`, `y`, `z`, and the pattern (e) f32 relation
/// `f`.
fn adhoc_inputs(n: usize, rng: &mut StdRng) -> Vec<(String, Relation)> {
    let mut pool = Pattern::A.build(jittered(n, rng), rng.gen()).data;
    pool.extend(Pattern::B.build(jittered(n, rng), rng.gen()).data);
    let f = Pattern::E
        .build(jittered(n, rng), rng.gen())
        .data
        .remove(0)
        .1;
    pool.push(("f".into(), f));
    pool
}

/// One ad-hoc plan from template `template` (the Figure 14 shapes), its
/// shape drawn from `shape` and its literals from `lits`; a quarter of them
/// get a Unique, Aggregate or Project tail.
fn adhoc_plan(
    template: usize,
    pool: &[(String, Relation)],
    shape: &mut StdRng,
    lits: &mut StdRng,
) -> Result<QueryPlan, String> {
    let schema = |name: &str| {
        pool.iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r.schema().clone())
            .expect("ad-hoc inputs hold every template input")
    };
    let mut p = QueryPlan::new();
    let select = |p: &mut QueryPlan, shape: &mut StdRng, lits: &mut StdRng, input: NodeId| {
        let pred = Predicate::cmp(shape.gen_range(1..4), CmpOp::Lt, Value::U32(lits.gen()));
        p.add_op(RaOp::Select { pred }, &[input]).map_err(err)
    };
    let join = |p: &mut QueryPlan, l: NodeId, r: NodeId| {
        p.add_op(RaOp::Join { key_len: 1 }, &[l, r]).map_err(err)
    };
    let mut outputs = Vec::new();
    match template {
        // Select chain, 2-4 deep.
        0 => {
            let mut cur = p.add_input("t", schema("t"));
            for _ in 0..shape.gen_range(2..5) {
                cur = select(&mut p, shape, lits, cur)?;
            }
            outputs.push(cur);
        }
        // Back-to-back joins over a seeded order of x, y, z.
        1 => {
            let mut names = ["x", "y", "z"];
            for i in (1..names.len()).rev() {
                names.swap(i, shape.gen_range(0..i + 1));
            }
            let ins: Vec<NodeId> = names.iter().map(|n| p.add_input(*n, schema(n))).collect();
            let j = join(&mut p, ins[0], ins[1])?;
            outputs.push(join(&mut p, j, ins[2])?);
        }
        // Joins of selected tables.
        2 => {
            let mut sel = Vec::new();
            for n in ["x", "y", "z"] {
                let input = p.add_input(n, schema(n));
                sel.push(select(&mut p, shape, lits, input)?);
            }
            let j = join(&mut p, sel[0], sel[1])?;
            outputs.push(join(&mut p, j, sel[2])?);
        }
        // Selects sharing one input.
        3 => {
            let t = p.add_input("t", schema("t"));
            for _ in 0..shape.gen_range(2..4) {
                outputs.push(select(&mut p, shape, lits, t)?);
            }
        }
        // Arithmetic maps: price * (a - discount) [* (b + tax)].
        _ => {
            let f = p.add_input("f", schema("f"));
            let (a, b) = (lits.gen_range(0.5..1.5f32), lits.gen_range(0.5..1.5f32));
            let m1 = RaOp::Map {
                exprs: vec![
                    Expr::attr(0),
                    Expr::attr(1),
                    Expr::lit(a).sub(Expr::attr(2)),
                    Expr::attr(3),
                ],
                key_arity: 1,
            };
            let m2 = RaOp::Map {
                exprs: vec![
                    Expr::attr(0),
                    Expr::attr(1).mul(Expr::attr(2)),
                    Expr::attr(3),
                ],
                key_arity: 1,
            };
            let mut cur = p.add_op(m1, &[f]).map_err(err)?;
            cur = p.add_op(m2, &[cur]).map_err(err)?;
            if shape.gen_bool(0.5) {
                let m3 = RaOp::Map {
                    exprs: vec![
                        Expr::attr(0),
                        Expr::attr(1).mul(Expr::lit(b).add(Expr::attr(2))),
                    ],
                    key_arity: 1,
                };
                cur = p.add_op(m3, &[cur]).map_err(err)?;
            }
            outputs.push(cur);
        }
    }
    if shape.gen_bool(0.25) {
        let last = p.schema(outputs[0]).arity() - 1;
        let tail = match shape.gen_range(0..3) {
            0 => RaOp::Unique,
            1 => RaOp::Aggregate {
                group_by: vec![0],
                aggs: vec![AggFn::Count, AggFn::Max(last)],
            },
            _ => RaOp::Project {
                attrs: vec![0, last],
                key_arity: 1,
            },
        };
        outputs[0] = p.add_op(tail, &[outputs[0]]).map_err(err)?;
    }
    for o in outputs {
        p.mark_output(o);
    }
    Ok(p)
}

impl Workload {
    /// Requests in one pass.
    pub fn len(&self) -> usize {
        match self {
            Workload::Plans(w) => w.instances.len(),
            Workload::Service(_) => SERVICE_RATES.len(),
        }
    }

    /// Requests one request stands for: one plan execution, or the
    /// arrivals of one service run.
    pub fn weight(&self) -> usize {
        match self {
            Workload::Plans(_) => 1,
            Workload::Service(w) => w.arrivals,
        }
    }

    /// Evaluate the CPU oracle over every plan of the workload.
    ///
    /// # Errors
    ///
    /// A failing oracle, or a service shape whose warm-up outputs differ.
    pub fn oracle(&mut self) -> Result<(), String> {
        let mut off = Tracer::new(false);
        match self {
            Workload::Plans(w) => {
                w.expected = w
                    .instances
                    .iter()
                    .map(|inst| {
                        let b = bindings(&w.pools[inst.pool]);
                        oracle::evaluate(&inst.plan, &b, &mut off).map(|e| e.outputs(&inst.plan))
                    })
                    .collect::<Result<_, _>>()?;
            }
            Workload::Service(w) => {
                for (s, got) in w.shapes.iter().zip(&w.warm_outputs) {
                    let e = oracle::evaluate(&s.plan, &s.bindings(), &mut off)?;
                    oracle::check_outputs(&e.outputs(&s.plan), got)
                        .map_err(|m| format!("{}: {m}", s.name))?;
                }
            }
        }
        Ok(())
    }

    /// Run request `i`: the timed part.
    ///
    /// # Errors
    ///
    /// Errors the layers return.
    pub fn run(&mut self, i: usize, tracer: &mut Tracer) -> Result<Done, String> {
        match self {
            Workload::Plans(w) => w.run(i, tracer),
            Workload::Service(w) => w.run(i, tracer),
        }
    }

    /// Check request `i`'s outputs and invariants, and extract its sample.
    ///
    /// # Errors
    ///
    /// Describes the first wrong output or broken invariant.
    pub fn check(&self, i: usize, done: Done) -> Result<Sample, String> {
        match (self, done) {
            (Workload::Plans(w), Done::Plan(dev, report)) => w.check(i, &dev, &report),
            (Workload::Service(w), Done::Service(run)) => w.check(&run),
            _ => Err("request returned the wrong report kind".into()),
        }
    }

    /// The traced run's side measurements for request `i`: compile phases,
    /// admission, oracle operators and an interpreter replay of every
    /// compiled step, each as its own root span. Returns the input tuples
    /// the interpreter replay processed.
    ///
    /// # Errors
    ///
    /// A failing call, or a replayed step whose output differs from the
    /// oracle.
    pub fn probe(&self, i: usize, tracer: &mut Tracer) -> Result<u64, String> {
        match self {
            Workload::Plans(w) => {
                let inst = &w.instances[i];
                let b = bindings(&w.pools[inst.pool]);
                let compiled_here;
                let compiled = match &inst.compiled {
                    Some(c) => {
                        // Prepared plans compile in set-up; time one here.
                        timed_compile(&inst.plan, tracer)?;
                        c
                    }
                    None => {
                        compiled_here =
                            compile(&inst.plan, &WeaverConfig::default()).map_err(err)?;
                        &compiled_here
                    }
                };
                let capacity = fermi(inst.capacity).global_mem_bytes;
                probe_plan(&inst.plan, compiled, &b, capacity, tracer)
            }
            Workload::Service(w) => {
                let mut tuples = 0;
                for (s, c) in w.shapes.iter().zip(&w.compiled) {
                    timed_compile(&s.plan, tracer)?;
                    let capacity = fermi(None).global_mem_bytes;
                    tuples += probe_plan(&s.plan, c, &s.bindings(), capacity, tracer)?;
                }
                Ok(tuples)
            }
        }
    }
}

impl PlanWorkload {
    /// One untimed run of every instance.
    fn warm_up(&mut self) -> Result<(), String> {
        let mut off = Tracer::new(false);
        for i in 0..self.instances.len() {
            self.run(i, &mut off)?;
        }
        Ok(())
    }

    fn run(&mut self, i: usize, tracer: &mut Tracer) -> Result<Done, String> {
        let inst = &self.instances[i];
        let b = bindings(&self.pools[inst.pool]);
        let mut dev = tracer.span("gpu_sim.device_new", |_| Device::new(fermi(inst.capacity)));
        let compiled_here;
        let compiled = match &inst.compiled {
            Some(c) => c,
            None => {
                compiled_here = tracer
                    .span("compile", |_| compile(&inst.plan, &WeaverConfig::default()))
                    .map_err(err)?;
                &compiled_here
            }
        };
        let report = match self.path {
            Path::Resident => tracer.span("executor.execute_compiled", |_| {
                execute_compiled(&inst.plan, compiled, &b, &mut dev, &WeaverConfig::default())
            }),
            Path::Resilient => tracer.span("resilient.execute_compiled_resilient", |_| {
                execute_compiled_resilient(
                    &inst.plan,
                    compiled,
                    &b,
                    &mut dev,
                    &WeaverConfig::default(),
                    &RetryPolicy::default(),
                )
            }),
        }
        .map_err(err)?;
        Ok(Done::Plan(dev, report))
    }

    fn check(&self, i: usize, dev: &Device, r: &PlanReport) -> Result<Sample, String> {
        oracle::check_outputs(&self.expected[i], &r.outputs)?;
        if dev.memory().in_use() != 0 {
            return Err(format!("{} device bytes leaked", dev.memory().in_use()));
        }
        if r.free_errors != 0 {
            return Err(format!("{} swallowed free errors", r.free_errors));
        }
        let arena = r.arena.ok_or("report carries no arena accounting")?;
        let chunks = match self.path {
            Path::Resident => {
                reconcile(&r.spans, &r.stats)?;
                let spilled = dev.metrics().counter("kw_arena_spills_total") > 0;
                if !spilled && dev.memory().peak() != arena.reservation {
                    return Err(format!(
                        "tracker peak {} != arena reservation {}",
                        dev.memory().peak(),
                        arena.reservation
                    ));
                }
                0
            }
            Path::Resilient => match r.resilience.as_ref().map(|res| res.final_mode) {
                Some(AdmittedMode::Chunked { chunks }) if chunks >= 2 => chunks,
                other => return Err(format!("expected a chunked run, got {other:?}")),
            },
        };
        let fused = r.fusion_sets.len();
        Ok(Sample {
            sim: SimFigures {
                latencies: vec![r.total_seconds],
                busy_s: r.total_seconds,
                done: 1,
                peak_bytes: r.peak_device_bytes,
            },
            counters: Counters {
                executions: 1.0,
                steps: r.operator_count as f64,
                fused_steps: fused as f64,
                spans: r.spans.len() as f64,
                stats: r.stats,
                arena_reservation: arena.reservation as f64,
                arena_high_water: arena.high_water as f64,
                chunks: chunks as f64,
                total_s: r.total_seconds,
                serialized_s: r.serialized_seconds,
            },
            service: None,
        })
    }
}

impl ServiceWorkload {
    fn run(&mut self, i: usize, tracer: &mut Tracer) -> Result<Done, String> {
        if i == 0 || self.device.is_none() {
            self.device = Some(tracer.span("gpu_sim.device_new", |_| Device::new(fermi(None))));
        }
        let dev = self.device.as_mut().expect("created above");
        let bindings: Vec<Vec<(&str, &Relation)>> =
            self.shapes.iter().map(|s| s.bindings()).collect();
        let shapes: Vec<BatchQuery<'_>> = self
            .shapes
            .iter()
            .zip(&bindings)
            .map(|(s, b)| BatchQuery {
                name: &s.name,
                plan: &s.plan,
                bindings: b,
            })
            .collect();
        let service = ServiceConfig {
            offered_qps: SERVICE_RATES[i],
            arrivals: self.arrivals,
            seed: SERVICE_ARRIVAL_SEED,
            slo_p99_seconds: SERVICE_SLO_SECONDS,
            cache_capacity: SERVICE_CACHE_CAPACITY,
            ..ServiceConfig::default()
        };
        let (stats, spans) = (*dev.stats(), dev.spans().len());
        let report = tracer
            .span("service.run_service", |_| {
                run_service(&shapes, dev, &WeaverConfig::default(), &service)
            })
            .map_err(err)?;
        Ok(Done::Service(ServiceRun {
            report,
            stats: dev.stats().diff(&stats),
            spans: dev.spans().len() - spans,
            in_use: dev.memory().in_use(),
            peak: dev.memory().peak(),
        }))
    }

    fn check(&self, run: &ServiceRun) -> Result<Sample, String> {
        let r = &run.report;
        let lookups = r.cache_hits + r.cache_misses;
        if lookups != r.arrivals as u64 || r.completed + r.failed != r.arrivals {
            return Err(format!(
                "service accounting broken: {lookups} lookups, {} completed + {} failed, {} arrivals",
                r.completed, r.failed, r.arrivals
            ));
        }
        if r.failed != 0 || run.in_use != 0 {
            return Err(format!(
                "{} arrivals failed, {} device bytes held",
                r.failed, run.in_use
            ));
        }
        let steps: usize = (0..r.arrivals)
            .map(|a| self.compiled[a % self.compiled.len()].steps.len())
            .sum();
        let fused: usize = (0..r.arrivals)
            .map(|a| self.compiled[a % self.compiled.len()].fusion_sets.len())
            .sum();
        // The arrival schedule's own rate: a short Poisson sample arrives
        // faster or slower than the nominal rate, and achieved throughput
        // can only keep up with the arrivals actually made.
        let last_arrival = r.queries.last().map_or(0.0, |q| q.arrival_seconds);
        let arrived_qps = r.arrivals as f64 / last_arrival;
        Ok(Sample {
            sim: SimFigures {
                latencies: r.queries.iter().map(|q| q.total_seconds).collect(),
                busy_s: r.busy_seconds,
                done: r.completed,
                peak_bytes: run.peak,
            },
            counters: Counters {
                executions: r.arrivals as f64,
                steps: steps as f64,
                fused_steps: fused as f64,
                spans: run.spans as f64,
                stats: run.stats,
                ..Counters::default()
            },
            service: Some(ServicePoint {
                offered_qps: r.offered_qps,
                achieved_qps: r.achieved_qps,
                total_p99_s: r.total.p99_seconds,
                queueing_p99_s: r.queueing.p99_seconds,
                execution_p99_s: r.execution.p99_seconds,
                max_queue_depth: r.max_queue_depth,
                compile_s: r.compile_seconds_total,
                cache_hit_ratio: r.cache_hits as f64 / lookups.max(1) as f64,
                dispatches: r.dispatches,
                busy_frac: r.busy_seconds / r.duration_seconds,
                sustained: r.slo_met && r.achieved_qps >= SERVICE_BACKLOG_SHARE * arrived_qps,
            }),
        })
    }
}

/// A `compile` span for a plan whose request path does not compile it.
fn timed_compile(plan: &QueryPlan, tracer: &mut Tracer) -> Result<(), String> {
    tracer
        .span("compile", |_| compile(plan, &WeaverConfig::default()))
        .map(|_| ())
        .map_err(err)
}

/// Compile phases, admission, oracle and interpreter replay of one plan;
/// returns the input tuples the replay processed.
fn probe_plan(
    plan: &QueryPlan,
    compiled: &CompiledPlan,
    b: &[(&str, &Relation)],
    capacity: u64,
    tracer: &mut Tracer,
) -> Result<u64, String> {
    probe_compile_phases(plan, tracer)?;
    tracer
        .span("admission.admit", |_| admit(plan, compiled, b, capacity))
        .map_err(err)?;
    let eval = oracle::evaluate(plan, b, tracer)?;
    let mut dev = Device::new(fermi(None));
    let mut tuples = 0;
    for step in &compiled.steps {
        let ins: Vec<&Relation> = step.inputs.iter().map(|&n| eval.value(n)).collect();
        tuples += ins.iter().map(|r| r.len() as u64).sum::<u64>();
        let name = match step.op.body {
            OperatorBody::Streaming { .. } => "interp.streaming",
            OperatorBody::GlobalSort { .. } => "interp.sort",
            OperatorBody::GlobalAggregate { .. } => "interp.aggregate",
        };
        let out = tracer
            .span(name, |_| {
                kw_kernel_ir::execute(&step.op, &ins, &mut dev, WeaverConfig::default().opt)
            })
            .map_err(err)?;
        for (rel, &node) in out.outputs.iter().zip(&step.outputs) {
            if rel != eval.value(node) {
                return Err(format!("replayed step {} differs at {node}", step.op.label));
            }
        }
    }
    Ok(tuples)
}

/// `compile`'s phases through their public functions, one span per phase.
fn probe_compile_phases(plan: &QueryPlan, tracer: &mut Tracer) -> Result<(), String> {
    let cfg = WeaverConfig::default();
    let opts = FusionOptions {
        input_dependence: cfg.input_dependence,
    };
    let groups = tracer.span("compile.candidates", |_| find_candidates(plan, opts));
    let sets = tracer.span("compile.selection", |_| {
        let mut sets = Vec::new();
        for g in &groups {
            let s = select_fusions(plan, g, cfg.budget, cfg.threads_per_cta)?;
            sets.extend(s.into_iter().filter(|s| s.len() >= 2));
        }
        Ok::<_, kw_core::WeaverError>(sets)
    });
    let sets = sets.map_err(err)?;
    let ops = tracer.span("compile.weave", |_| -> Result<Vec<_>, String> {
        let mut ops = Vec::new();
        for set in &sets {
            ops.push(weave(plan, set, cfg.threads_per_cta).map_err(err)?.op);
        }
        for (id, op, producers) in plan.operator_nodes() {
            if sets.iter().any(|s| s.contains(&id)) {
                continue;
            }
            let schemas: Vec<_> = producers.iter().map(|&p| plan.schema(p).clone()).collect();
            ops.push(build_unfused(op, &schemas, format!("{id}.{}", op.mnemonic())).map_err(err)?);
        }
        Ok(ops)
    })?;
    tracer
        .span("compile.optimize", |_| {
            ops.iter()
                .try_for_each(|op| kw_kernel_ir::optimize(op, cfg.opt).map(|_| ()))
        })
        .map_err(err)
}
