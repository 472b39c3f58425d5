//! Fusion on the host clock: what fused and unfused execution of the
//! Figure 14 patterns cost this Rust code, next to the simulated GPU ratio.
//!
//! For each pattern at 2^12, 2^14 and 2^16 tuples per input it runs the
//! plan unfused (one operator per kernel) and fused, each on a fresh
//! simulated Fermi device, and prints the median host wall time of
//! [`RUNS`] interleaved runs beside the simulated GPU-compute speedup
//! (the Figure 16 metric). Host times vary from run to run and from machine
//! to machine; the simulated ratio does not. Exits non-zero if a fused and
//! an unfused run return different relations.
//!
//! ```bash
//! cargo run --release -p kw-examples --example host_fusion
//! ```

use std::process::ExitCode;
use std::time::Instant;

use kw_core::{PlanReport, WeaverConfig};
use kw_gpu_sim::{Device, DeviceConfig};
use kw_tpch::{Pattern, Workload};

/// Runs per configuration; the table reports their median.
const RUNS: usize = 9;

/// The seed the paper tables use for the Figure 14 patterns.
const SEED: u64 = 0xC2050;

/// Run `w` once under `config` on a fresh device, returning the report
/// and the host milliseconds the run took.
fn timed_run(w: &Workload, config: &WeaverConfig) -> (PlanReport, f64) {
    let mut dev = Device::new(DeviceConfig::fermi_c2050());
    let start = Instant::now();
    let report = w.run(&mut dev, config).expect("pattern executes");
    (report, start.elapsed().as_secs_f64() * 1e3)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() -> ExitCode {
    let fused_config = WeaverConfig::default();
    let unfused_config = fused_config.baseline();
    let mut mismatches = 0;

    println!("Fusion on the host clock: Figure 14 patterns, fused vs unfused");
    println!("(host: median wall ms of {RUNS} runs; sim: simulated GPU-compute speedup)");
    println!();
    println!(
        "{:<8} {:>7} {:>12} {:>10} {:>11} {:>10}",
        "pattern", "tuples", "unfused ms", "fused ms", "host ratio", "sim ratio"
    );
    for pattern in Pattern::all() {
        for log2 in [12, 14, 16] {
            let w = pattern.build(1 << log2, SEED);
            let (mut fused_ms, mut unfused_ms) = (Vec::new(), Vec::new());
            let mut sim_ratio = 0.0;
            for _ in 0..RUNS {
                let (unfused, u_ms) = timed_run(&w, &unfused_config);
                let (fused, f_ms) = timed_run(&w, &fused_config);
                if fused.outputs != unfused.outputs {
                    eprintln!(
                        "MISMATCH {} at 2^{log2}: fused and unfused outputs differ",
                        w.name
                    );
                    mismatches += 1;
                }
                unfused_ms.push(u_ms);
                fused_ms.push(f_ms);
                sim_ratio = unfused.gpu_seconds / fused.gpu_seconds;
            }
            let (u, f) = (median(unfused_ms), median(fused_ms));
            println!(
                "{:<8} {:>7} {:>12.3} {:>10.3} {:>10.2}x {:>9.2}x",
                pattern.label(),
                format!("2^{log2}"),
                u,
                f,
                u / f,
                sim_ratio
            );
        }
    }
    if mismatches > 0 {
        eprintln!("{mismatches} fused/unfused output mismatches");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
