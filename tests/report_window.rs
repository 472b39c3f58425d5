//! A report describes its own run, not the device's history: on a device
//! that already ran other work, a plan's (or a batch's) report must equal
//! the report of the same call on a fresh device, apart from the
//! device-global span ids and cycles and the device-lifetime memory peak.
//!
//! Integer counters must match exactly. Seconds match to 1e-12 relative: a
//! reused device's PCIe and backoff seconds are differences of running
//! sums, which round differently from a fresh device's sums.

use kw_core::{
    compile, execute_batch, execute_compiled, execute_compiled_resilient, BatchQuery, BatchReport,
    ExecMode, PlanReport, ProfileReport, QueryPlan, RetryPolicy, WeaverConfig,
};
use kw_gpu_sim::{
    reconcile, Device, DeviceConfig, FaultConfig, FaultKind, ScriptedFault, SimStats, Span,
    SpanKind,
};
use kw_primitives::RaOp;
use kw_relational::{gen, CmpOp, Predicate, Relation, Value};

/// A SELECT chain of `depth` steps over a 4-attribute u32 input.
fn chain(input: &Relation, depth: usize) -> QueryPlan {
    let mut plan = QueryPlan::new();
    let mut cur = plan.add_input("t", input.schema().clone());
    for a in 0..depth {
        let pred = Predicate::cmp(a % 4, CmpOp::Lt, Value::U32(u32::MAX / 2 + a as u32));
        cur = plan.add_op(RaOp::Select { pred }, &[cur]).unwrap();
    }
    plan.mark_output(cur);
    plan
}

/// A join of a select with a second input.
fn join(l: &Relation, r: &Relation) -> QueryPlan {
    let mut plan = QueryPlan::new();
    let x = plan.add_input("x", l.schema().clone());
    let y = plan.add_input("y", r.schema().clone());
    let pred = Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 2));
    let s = plan.add_op(RaOp::Select { pred }, &[x]).unwrap();
    let j = plan.add_op(RaOp::Join { key_len: 1 }, &[s, y]).unwrap();
    plan.mark_output(j);
    plan
}

/// How a plan is run: straight through the executor under a config, or
/// through the resilient ladder, optionally with faults installed just
/// before the call (a fresh injector, so the reused and the fresh device
/// meet the same faults).
#[derive(Clone)]
enum Path {
    Direct(WeaverConfig),
    Ladder(Option<FaultConfig>),
}

fn run(
    path: &Path,
    plan: &QueryPlan,
    bindings: &[(&str, &Relation)],
    dev: &mut Device,
) -> PlanReport {
    let config = match path {
        Path::Direct(config) => *config,
        Path::Ladder(_) => WeaverConfig::default(),
    };
    let compiled = compile(plan, &config).unwrap();
    match path {
        Path::Direct(_) => execute_compiled(plan, &compiled, bindings, dev, &config).unwrap(),
        Path::Ladder(faults) => {
            if let Some(faults) = faults {
                dev.inject_faults(faults.clone());
            }
            let policy = RetryPolicy::default();
            execute_compiled_resilient(plan, &compiled, bindings, dev, &config, &policy).unwrap()
        }
    }
}

fn close(what: &str, got: f64, want: f64) {
    let tol = 1e-12 * got.abs().max(want.abs());
    let diff = (got - want).abs();
    assert!(diff <= tol, "{what}: {got} vs {want} (diff {diff})");
}

/// [`close`] on each named `f64` field of `$got` and `$want`.
macro_rules! close_fields {
    ($what:expr, $got:expr, $want:expr, $($field:ident),+ $(,)?) => {
        $(close(&format!("{}.{}", $what, stringify!($field)), $got.$field, $want.$field);)+
    };
}

/// Integer counters exactly, the two seconds counters to 1e-12 relative.
fn same_stats(what: &str, got: &SimStats, want: &SimStats) {
    let ints = |s: &SimStats| SimStats {
        pcie_seconds: 0.0,
        backoff_seconds: 0.0,
        ..*s
    };
    assert_eq!(ints(got), ints(want), "{what}: integer counters");
    close_fields!(what, got, want, pcie_seconds, backoff_seconds);
}

/// Every profile field but the device-lifetime `peak_device_bytes`.
fn same_profile(what: &str, got: &ProfileReport, want: &ProfileReport) {
    assert_eq!(got.bottleneck, want.bottleneck, "{what}: bottleneck");
    close_fields!(
        format!("{what}: profile"),
        got,
        want,
        wall_seconds,
        gpu_busy_seconds,
        pcie_busy_seconds,
        gpu_busy_fraction,
        pcie_busy_fraction,
        launch_seconds,
        launch_share,
        memory_share,
        achieved_global_gbs,
        peak_global_gbs,
        global_bw_utilization,
        achieved_pcie_gbs,
        peak_pcie_gbs,
        pcie_bw_utilization,
    );
    let rows = |p: &ProfileReport| p.operators.iter().map(|o| o.operator.clone()).collect();
    let names: Vec<String> = rows(got);
    assert_eq!(names, rows(want), "{what}: profile rows");
    for (g, w) in got.operators.iter().zip(&want.operators) {
        let row = format!("{what}: profile row {}", w.operator);
        assert_eq!(
            (g.bottleneck, &g.outcome),
            (w.bottleneck, &w.outcome),
            "{row}"
        );
        close_fields!(
            row,
            g,
            w,
            gpu_seconds,
            pcie_seconds,
            launch_share,
            memory_share
        );
    }
}

fn same_report(what: &str, got: &PlanReport, want: &PlanReport) {
    assert_eq!(got.outputs, want.outputs, "{what}: outputs");
    same_stats(&format!("{what}: stats"), &got.stats, &want.stats);
    close_fields!(
        what,
        got,
        want,
        gpu_seconds,
        pcie_seconds,
        total_seconds,
        serialized_seconds,
    );
    let pipelined = (got.pipelined_seconds, want.pipelined_seconds);
    assert_eq!(pipelined.0.is_some(), pipelined.1.is_some(), "{what}");
    if let (Some(g), Some(w)) = pipelined {
        close(&format!("{what}.pipelined_seconds"), g, w);
    }
    same_profile(what, &got.profile, &want.profile);
    assert_eq!(got.spans.len(), want.spans.len(), "{what}: span count");
    for (g, w) in got.spans.iter().zip(&want.spans) {
        let span = format!("{what}: span {} {}", w.id, w.label);
        let shape = |s: &Span| (s.kind, s.label.clone(), s.provenance.clone(), s.engine);
        assert_eq!(shape(g), shape(w), "{span}");
        same_stats(&span, &g.delta, &w.delta);
    }
    reconcile(&got.spans, &got.stats).unwrap_or_else(|e| panic!("{what}: {e}"));
}

#[test]
fn second_run_on_a_reused_device_reports_like_a_fresh_one() {
    let (l, r) = gen::join_inputs(6_000, 2, 0.4, 61);
    let x_plan = join(&l, &r);
    let x_bindings: &[(&str, &Relation)] = &[("x", &l), ("y", &r)];
    let big = gen::micro_input(30_000, 62);
    let huge = gen::micro_input(50_000, 63);

    let staged = WeaverConfig {
        mode: ExecMode::Staged,
        ..WeaverConfig::default()
    };
    let chunked = WeaverConfig {
        chunks: Some(4),
        ..WeaverConfig::default()
    };
    // A transient fault on Y's first transfer: the ladder's episode holds
    // a failed attempt, its fault marker and its backoff.
    let transfer_fault = FaultConfig::scripted(vec![ScriptedFault {
        kind: FaultKind::Transfer,
        attempt: 0,
    }]);
    let (fermi, tiny) = (DeviceConfig::fermi_c2050(), DeviceConfig::tiny());
    let cases = [
        ("resident", Path::Direct(Default::default()), &big, &fermi),
        ("staged", Path::Direct(staged), &big, &fermi),
        ("chunked", Path::Direct(chunked), &big, &fermi),
        ("ladder", Path::Ladder(Some(transfer_fault)), &big, &fermi),
        // Y cannot fit the tiny device whole, so the ladder chunks it.
        ("ladder to chunks", Path::Ladder(None), &huge, &tiny),
    ];
    for (name, path, input, config) in cases {
        let y_plan = chain(input, 3);
        let y_bindings: &[(&str, &Relation)] = &[("t", input)];

        let mut reused = Device::new(config.clone());
        // X through the same path, fault-free: the faults, if any, are
        // installed for Y alone.
        let x_path = match &path {
            Path::Ladder(_) => Path::Ladder(None),
            direct => direct.clone(),
        };
        run(&x_path, &x_plan, x_bindings, &mut reused);
        let before = reused.spans().len();
        let second = run(&path, &y_plan, y_bindings, &mut reused);
        let mut fresh_dev = Device::new(config.clone());
        let fresh = run(&path, &y_plan, y_bindings, &mut fresh_dev);

        same_report(name, &second, &fresh);
        // The spans are the device's own record of the run: device-global
        // ids and cycles, so they join the device's log.
        assert_eq!(second.spans, reused.spans()[before..], "{name}");
        if let Path::Ladder(Some(_)) = path {
            let res = second.resilience.as_ref().unwrap();
            assert_eq!(res.retries, 1, "{name}: the scripted fault was retried");
            // The window is the episode: the failed attempt's fault marker
            // and the backoff before the retry are in it.
            let kinds: Vec<SpanKind> = second.spans.iter().map(|s| s.kind).collect();
            assert!(kinds.contains(&SpanKind::Fault), "{name}: {kinds:?}");
            assert!(kinds.contains(&SpanKind::Backoff), "{name}: {kinds:?}");
        }
        if name == "ladder to chunks" {
            assert!(second.strategy.is_some(), "{name}: the ladder chunked Y");
        }
    }
}

fn batch(dev: &mut Device, queries: &[BatchQuery<'_>]) -> BatchReport {
    let config = WeaverConfig::default();
    let compiled: Vec<_> = queries
        .iter()
        .map(|q| compile(q.plan, &config).unwrap())
        .collect();
    execute_batch(queries, &compiled, dev, &config, &RetryPolicy::default()).unwrap()
}

#[test]
fn second_batch_on_a_reused_device_profiles_like_a_fresh_one() {
    let (l, r) = gen::join_inputs(8_000, 2, 0.4, 64);
    let a = gen::micro_input(20_000, 65);
    let b = gen::micro_input(30_000, 66);
    let join_plan = join(&l, &r);
    let (short, long) = (chain(&a, 2), chain(&b, 3));
    let jb: &[(&str, &Relation)] = &[("x", &l), ("y", &r)];
    let ab: &[(&str, &Relation)] = &[("t", &a)];
    let bb: &[(&str, &Relation)] = &[("t", &b)];
    let batch_a = [
        BatchQuery {
            name: "join",
            plan: &join_plan,
            bindings: jb,
        },
        BatchQuery {
            name: "short",
            plan: &short,
            bindings: ab,
        },
    ];
    let batch_b = [
        BatchQuery {
            name: "long",
            plan: &long,
            bindings: bb,
        },
        BatchQuery {
            name: "short",
            plan: &short,
            bindings: ab,
        },
    ];

    let mut reused = Device::new(DeviceConfig::fermi_c2050());
    batch(&mut reused, &batch_a);
    let second = batch(&mut reused, &batch_b);
    let fresh = batch(&mut Device::new(DeviceConfig::fermi_c2050()), &batch_b);

    same_profile("batch B", &second.profile, &fresh.profile);
    assert_eq!(second.profile.wall_seconds, second.makespan_seconds);
    assert_eq!(second.makespan_seconds, fresh.makespan_seconds);
    close_fields!("batch B", second, fresh, serialized_seconds);
    for (g, w) in second.queries.iter().zip(&fresh.queries) {
        assert_eq!(g.outputs, w.outputs, "{}", w.name);
        assert_eq!(g.latency_seconds, w.latency_seconds, "{}", w.name);
        close_fields!(w.name, g, w, gpu_seconds, pcie_seconds);
    }
}
