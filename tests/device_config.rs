//! A device configuration that is not physical is a typed error before the
//! first device operation, on every run path: each float field must be
//! finite and positive, each integer field at least 1.
//!
//! Without the check, pattern (a) at 4,096 tuples panicked on `warp_size: 0`
//! and `max_threads_per_cta: 0`, returned `total_seconds = inf` on
//! `clock_ghz: 0`, reported a smaller GPU time than the default on a zero
//! or NaN `global_bandwidth_gbs`, and ran on `sm_count: 0`.

use kw_core::{
    compile, execute_batch, execute_compiled, execute_compiled_resilient, run_service, BatchQuery,
    ExecMode, QueryOutcome, RetryPolicy, ServiceConfig, WeaverConfig, WeaverError,
};
use kw_gpu_sim::{Device, DeviceConfig, SimError, SimStats};
use kw_kernel_ir::IrError;
use kw_tpch::{pattern_a, Workload};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// A field's name and a function that maps its value through a closure.
type Field<T> = (&'static str, fn(&mut DeviceConfig, &mut dyn FnMut(T) -> T));

/// Each integer field (the `u32` ones widened to `u64`).
const INTEGERS: [Field<u64>; 15] = [
    ("sm_count", |c, f| c.sm_count = f(c.sm_count.into()) as u32),
    ("warp_size", |c, f| {
        c.warp_size = f(c.warp_size.into()) as u32
    }),
    ("max_threads_per_sm", |c, f| {
        c.max_threads_per_sm = f(c.max_threads_per_sm.into()) as u32
    }),
    ("max_warps_per_sm", |c, f| {
        c.max_warps_per_sm = f(c.max_warps_per_sm.into()) as u32
    }),
    ("max_ctas_per_sm", |c, f| {
        c.max_ctas_per_sm = f(c.max_ctas_per_sm.into()) as u32
    }),
    ("max_threads_per_cta", |c, f| {
        c.max_threads_per_cta = f(c.max_threads_per_cta.into()) as u32
    }),
    ("registers_per_sm", |c, f| {
        c.registers_per_sm = f(c.registers_per_sm.into()) as u32
    }),
    ("register_granularity", |c, f| {
        c.register_granularity = f(c.register_granularity.into()) as u32
    }),
    ("max_registers_per_thread", |c, f| {
        c.max_registers_per_thread = f(c.max_registers_per_thread.into()) as u32
    }),
    ("shared_mem_per_sm", |c, f| {
        c.shared_mem_per_sm = f(c.shared_mem_per_sm.into()) as u32
    }),
    ("shared_granularity", |c, f| {
        c.shared_granularity = f(c.shared_granularity.into()) as u32
    }),
    ("global_mem_bytes", |c, f| {
        c.global_mem_bytes = f(c.global_mem_bytes)
    }),
    ("kernel_launch_cycles", |c, f| {
        c.kernel_launch_cycles = f(c.kernel_launch_cycles)
    }),
    ("barrier_cycles", |c, f| {
        c.barrier_cycles = f(c.barrier_cycles)
    }),
    ("compute_engines", |c, f| {
        c.compute_engines = f(c.compute_engines.into()) as u32
    }),
];

/// Each float field.
const FLOATS: [Field<f64>; 7] = [
    ("clock_ghz", |c, f| c.clock_ghz = f(c.clock_ghz)),
    ("global_bandwidth_gbs", |c, f| {
        c.global_bandwidth_gbs = f(c.global_bandwidth_gbs)
    }),
    ("shared_bandwidth_ratio", |c, f| {
        c.shared_bandwidth_ratio = f(c.shared_bandwidth_ratio)
    }),
    ("alu_ops_per_cycle", |c, f| {
        c.alu_ops_per_cycle = f(c.alu_ops_per_cycle)
    }),
    ("bandwidth_saturation_occupancy", |c, f| {
        c.bandwidth_saturation_occupancy = f(c.bandwidth_saturation_occupancy)
    }),
    ("pcie_bandwidth_gbs", |c, f| {
        c.pcie_bandwidth_gbs = f(c.pcie_bandwidth_gbs)
    }),
    ("pcie_latency_us", |c, f| {
        c.pcie_latency_us = f(c.pcie_latency_us)
    }),
];

/// Every hostile value a float field is tried with.
const HOSTILE_FLOATS: [f64; 5] = [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

/// Every hostile configuration, named by its one hostile field.
fn hostile_configs() -> Vec<(&'static str, DeviceConfig)> {
    let mut out = Vec::new();
    for (field, map) in INTEGERS {
        let mut c = DeviceConfig::fermi_c2050();
        map(&mut c, &mut |_| 0);
        out.push((field, c));
    }
    for (field, map) in FLOATS {
        for v in HOSTILE_FLOATS {
            let mut c = DeviceConfig::fermi_c2050();
            map(&mut c, &mut |_| v);
            out.push((field, c));
        }
    }
    out
}

/// The C2050 preset with each float field scaled by its own factor in
/// [1/8, 8], drawn log-uniformly, and each integer field drawn from
/// [1, 2 × preset].
fn scaled_config(rng: &mut TestRng) -> DeviceConfig {
    let mut c = DeviceConfig::fermi_c2050();
    for (_, map) in FLOATS {
        let factor = 2f64.powf(6.0 * rng.unit_f64() - 3.0);
        map(&mut c, &mut |x| x * factor);
    }
    for (_, map) in INTEGERS {
        map(&mut c, &mut |x| 1 + rng.next_u64() % (2 * x));
    }
    c
}

/// How one run path ended: the simulated seconds of every run or query
/// that completed, or the path's error.
type Outcome = Result<Vec<f64>, WeaverError>;

/// Every run path over pattern (a) on a fresh device of `config`: the
/// step interpreter directly, resident, staged and chunked runs, the
/// resilient ladder, a batch and the service. Each result is paired with
/// the device it ran on.
fn run_every_path(w: &Workload, config: &DeviceConfig) -> Vec<(String, Outcome, Device)> {
    let bindings = w.bindings();
    let cfg = WeaverConfig::default();
    let compiled = compile(&w.plan, &cfg).unwrap();
    let mut out = Vec::new();
    let mut record = |path: &str, result: Outcome, dev: Device| {
        out.push((path.to_string(), result, dev));
    };

    let mut dev = Device::new(config.clone());
    let step = &compiled.steps[0];
    let input = &w.data[0].1;
    let ir = match kw_kernel_ir::execute(&step.op, &[input], &mut dev, cfg.opt) {
        Ok(_) => Ok(vec![dev.config().cycles_to_seconds(dev.stats().gpu_cycles)]),
        Err(IrError::Sim(e)) => Err(WeaverError::Sim(e)),
        Err(e) => Err(WeaverError::Ir(e)),
    };
    record("kernel", ir, dev);

    for (path, run_cfg) in [
        ("resident", cfg),
        (
            "staged",
            WeaverConfig {
                mode: ExecMode::Staged,
                ..cfg
            },
        ),
        (
            "chunked",
            WeaverConfig {
                chunks: Some(2),
                ..cfg
            },
        ),
    ] {
        let mut dev = Device::new(config.clone());
        let r = execute_compiled(&w.plan, &compiled, &bindings, &mut dev, &run_cfg);
        record(path, r.map(|r| vec![r.total_seconds]), dev);
    }

    let mut dev = Device::new(config.clone());
    let r = execute_compiled_resilient(
        &w.plan,
        &compiled,
        &bindings,
        &mut dev,
        &cfg,
        &RetryPolicy::default(),
    );
    record("resilient", r.map(|r| vec![r.total_seconds]), dev);

    let query = BatchQuery {
        name: "a",
        plan: &w.plan,
        bindings: &bindings,
    };
    let mut dev = Device::new(config.clone());
    let r = execute_batch(
        &[query, query],
        &[&compiled, &compiled],
        &mut dev,
        &cfg,
        &RetryPolicy::default(),
    );
    let completed = |outcome: &QueryOutcome| !matches!(outcome, QueryOutcome::Failed { .. });
    let r = r.map(|r| {
        let queries = r.queries.iter().filter(|q| completed(&q.outcome));
        queries.map(|q| q.latency_seconds).collect()
    });
    record("batch", r, dev);

    let mut dev = Device::new(config.clone());
    let service = ServiceConfig {
        arrivals: 4,
        ..ServiceConfig::default()
    };
    let r = run_service(&[query], &mut dev, &cfg, &service).map(|r| {
        let queries = r.queries.iter().filter(|q| completed(&q.outcome));
        queries.map(|q| q.total_seconds).collect()
    });
    record("service", r, dev);
    out
}

/// Whether every one of `seconds` is finite and positive.
fn finite_and_positive(seconds: &[f64]) -> bool {
    seconds.iter().all(|s| s.is_finite() && *s > 0.0)
}

/// Whether `e` is an error a valid but scaled device may cause: a capacity
/// miss, or a kernel of which no CTA fits on an SM. Any other error is a
/// bug in some layer.
fn is_device_limit(e: &WeaverError) -> bool {
    e.is_capacity() || matches!(e.sim(), Some(SimError::InfeasibleLaunch { .. }))
}

#[test]
fn presets_are_valid() {
    for c in [
        DeviceConfig::fermi_c2050(),
        DeviceConfig::fused_apu(),
        DeviceConfig::cpu_like(),
        DeviceConfig::tiny(),
    ] {
        assert_eq!(c.validate(), Ok(()), "{}", c.name);
    }
}

#[test]
fn every_path_runs_on_the_default_config() {
    let w = pattern_a(4_096, 1);
    for (path, result, _) in run_every_path(&w, &DeviceConfig::fermi_c2050()) {
        let seconds = result.unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(!seconds.is_empty(), "{path} completed nothing");
        assert!(finite_and_positive(&seconds), "{path}: {seconds:?}");
    }
}

#[test]
fn each_hostile_field_is_a_typed_error_before_any_device_operation() {
    let w = pattern_a(4_096, 1);
    let configs = hostile_configs();
    assert_eq!(
        configs.len(),
        INTEGERS.len() + FLOATS.len() * HOSTILE_FLOATS.len()
    );
    for (field, config) in configs {
        assert_eq!(
            config.validate().map_err(|e| e.to_string().contains(field)),
            Err(true),
            "{field}"
        );
        for (path, result, dev) in run_every_path(&w, &config) {
            let result = result.map(drop).map_err(|e| match e {
                WeaverError::Sim(SimError::InvalidConfig { field, .. }) => field.to_string(),
                other => format!("unexpected error: {other}"),
            });
            assert_eq!(result, Err(field.to_string()), "{path} on hostile {field}");
            assert!(
                dev.spans().is_empty(),
                "{path} on hostile {field} recorded spans"
            );
            assert_eq!(
                *dev.stats(),
                SimStats::default(),
                "{path} on hostile {field}"
            );
            assert_eq!(dev.memory().in_use(), 0, "{path} on hostile {field}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On a configuration scaled from the C2050 preset, every path ends in
    /// a capacity miss, in a launch that fits no CTA on an SM, or in finite,
    /// positive seconds, and never panics.
    #[test]
    fn scaled_configs_end_in_typed_errors_or_finite_positive_seconds(seed in any::<u32>()) {
        let config = scaled_config(&mut TestRng::for_case("scaled", seed));
        prop_assert_eq!(config.validate(), Ok(()));
        let w = pattern_a(4_096, 1);
        for (path, result, _) in run_every_path(&w, &config) {
            match result {
                Ok(seconds) => prop_assert!(
                    finite_and_positive(&seconds),
                    "{path} on {config:?}: {seconds:?}"
                ),
                Err(e) => prop_assert!(
                    is_device_limit(&e),
                    "{path} on {config:?}: unexpected error: {e}"
                ),
            }
        }
    }
}
