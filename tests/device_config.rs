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
    ExecMode, RetryPolicy, ServiceConfig, WeaverConfig, WeaverError,
};
use kw_gpu_sim::{Device, DeviceConfig, SimError, SimStats};
use kw_kernel_ir::IrError;
use kw_tpch::{pattern_a, Workload};

/// A field's name and a function that makes it hostile.
type Field<F> = (&'static str, F);
/// Sets a float field to the given value.
type SetFloat = fn(&mut DeviceConfig, f64);

/// Each integer field, set to zero.
const INTEGERS: [Field<fn(&mut DeviceConfig)>; 15] = [
    ("sm_count", |c| c.sm_count = 0),
    ("warp_size", |c| c.warp_size = 0),
    ("max_threads_per_sm", |c| c.max_threads_per_sm = 0),
    ("max_warps_per_sm", |c| c.max_warps_per_sm = 0),
    ("max_ctas_per_sm", |c| c.max_ctas_per_sm = 0),
    ("max_threads_per_cta", |c| c.max_threads_per_cta = 0),
    ("registers_per_sm", |c| c.registers_per_sm = 0),
    ("register_granularity", |c| c.register_granularity = 0),
    ("max_registers_per_thread", |c| {
        c.max_registers_per_thread = 0
    }),
    ("shared_mem_per_sm", |c| c.shared_mem_per_sm = 0),
    ("shared_granularity", |c| c.shared_granularity = 0),
    ("global_mem_bytes", |c| c.global_mem_bytes = 0),
    ("kernel_launch_cycles", |c| c.kernel_launch_cycles = 0),
    ("barrier_cycles", |c| c.barrier_cycles = 0),
    ("compute_engines", |c| c.compute_engines = 0),
];

/// Each float field, with a setter.
const FLOATS: [Field<SetFloat>; 7] = [
    ("clock_ghz", |c, v| c.clock_ghz = v),
    ("global_bandwidth_gbs", |c, v| c.global_bandwidth_gbs = v),
    ("shared_bandwidth_ratio", |c, v| {
        c.shared_bandwidth_ratio = v
    }),
    ("alu_ops_per_cycle", |c, v| c.alu_ops_per_cycle = v),
    ("bandwidth_saturation_occupancy", |c, v| {
        c.bandwidth_saturation_occupancy = v
    }),
    ("pcie_bandwidth_gbs", |c, v| c.pcie_bandwidth_gbs = v),
    ("pcie_latency_us", |c, v| c.pcie_latency_us = v),
];

/// Every hostile value a float field is tried with.
const HOSTILE_FLOATS: [f64; 5] = [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

/// Every hostile configuration, named by its one hostile field.
fn hostile_configs() -> Vec<(&'static str, DeviceConfig)> {
    let mut out = Vec::new();
    for (field, set) in INTEGERS {
        let mut c = DeviceConfig::fermi_c2050();
        set(&mut c);
        out.push((field, c));
    }
    for (field, set) in FLOATS {
        for v in HOSTILE_FLOATS {
            let mut c = DeviceConfig::fermi_c2050();
            set(&mut c, v);
            out.push((field, c));
        }
    }
    out
}

/// Every run path over pattern (a) on a fresh device of `config`: the
/// step interpreter directly, resident, staged and chunked runs, the
/// resilient ladder, a batch and the service. Each result is paired with
/// the device it ran on.
fn run_every_path(
    w: &Workload,
    config: &DeviceConfig,
) -> Vec<(String, Result<(), String>, Device)> {
    let bindings = w.bindings();
    let cfg = WeaverConfig::default();
    let compiled = compile(&w.plan, &cfg).unwrap();
    let mut out = Vec::new();
    let mut record = |path: &str, result: Result<(), WeaverError>, dev: Device| {
        let result = result.map_err(|e| match e {
            WeaverError::Sim(SimError::InvalidConfig { field, .. }) => field.to_string(),
            other => format!("unexpected error: {other}"),
        });
        out.push((path.to_string(), result, dev));
    };

    let mut dev = Device::new(config.clone());
    let step = &compiled.steps[0];
    let input = &w.data[0].1;
    let ir = kw_kernel_ir::execute(&step.op, &[input], &mut dev, cfg.opt);
    let ir = match ir {
        Ok(_) => Ok(()),
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
        record(path, r.map(drop), dev);
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
    record("resilient", r.map(drop), dev);

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
    record("batch", r.map(drop), dev);

    let mut dev = Device::new(config.clone());
    let service = ServiceConfig {
        arrivals: 4,
        ..ServiceConfig::default()
    };
    let r = run_service(&[query], &mut dev, &cfg, &service);
    record("service", r.map(drop), dev);
    out
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
        assert_eq!(result, Ok(()), "{path}");
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
