//! Resilient execution: run a plan that cannot fit GPU-resident on a 1 MiB
//! device while transient PCIe/launch faults are being injected — the
//! resilient driver picks a rung of the Resident → Staged → Chunked ladder
//! via admission control, retries transient faults with backoff, and reports
//! exactly what it survived.
//!
//! ```bash
//! cargo run --release -p kw-examples --example resilience
//! ```

use kw_core::{compile, execute_compiled_resilient, QueryPlan, RetryPolicy, WeaverConfig};
use kw_gpu_sim::{Device, DeviceConfig, FaultConfig};
use kw_primitives::RaOp;
use kw_relational::{gen, CmpOp, Predicate, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A SELECT chain over 32Ki tuples: ~0.5 MiB of input, which needs
    // ~1.5 MiB resident — too much for the 1 MiB device below.
    let input = gen::micro_input(32_768, 7);
    let mut plan = QueryPlan::new();
    let t = plan.add_input("t", input.schema().clone());
    let s1 = plan.add_op(
        RaOp::Select {
            pred: Predicate::cmp(0, CmpOp::Lt, Value::U32(u32::MAX / 2)),
        },
        &[t],
    )?;
    let s2 = plan.add_op(
        RaOp::Select {
            pred: Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 2)),
        },
        &[s1],
    )?;
    plan.mark_output(s2);

    let mut device = Device::new(DeviceConfig::tiny()); // 1 MiB of global memory
                                                        // 10% of transfers and kernel launches fail transiently, deterministically
                                                        // from this seed.
    device.inject_faults(FaultConfig {
        seed: 0xFA17,
        transfer_rate: 0.10,
        launch_rate: 0.10,
        ..FaultConfig::default()
    });

    let policy = RetryPolicy {
        max_retries: 64,
        base_backoff_seconds: 1e-4,
        backoff_multiplier: 1.05,
    };
    let config = WeaverConfig::default();
    let compiled = compile(&plan, &config)?;
    let report = execute_compiled_resilient(
        &plan,
        &compiled,
        &[("t", &input)],
        &mut device,
        &config,
        &policy,
    )?;

    let res = report.resilience.as_ref().expect("resilient runs report");
    println!("admission: capacity {} B", res.admission.capacity);
    println!(
        "           resident needs {} B, staged {} B  ->  admitted {}",
        res.admission.resident_peak, res.admission.staged_peak, res.admitted
    );
    println!("final mode: {}", res.final_mode);
    println!(
        "attempts {} (retries {}, faults survived {})",
        res.attempts, res.retries, res.faults_survived
    );
    for d in &res.degradations {
        println!("degraded {} -> {}: {}", d.from, d.to, d.reason);
    }
    println!(
        "backoff charged: {:.3} ms of {:.3} ms total",
        res.backoff_seconds * 1e3,
        report.total_seconds * 1e3
    );
    let rows: usize = report.outputs.values().map(|r| r.len()).sum();
    println!("output rows: {rows}");
    assert_eq!(device.memory().in_use(), 0, "nothing may leak");
    println!("device memory in use after run: 0 B");
    Ok(())
}
