//! One module per table/figure of the paper's evaluation.
//!
//! Each experiment returns structured rows so the `paper_tables` binary,
//! the Criterion benches and the integration tests share one
//! implementation. `EXPERIMENTS.md` records the paper-vs-measured numbers.

pub mod ablations;
pub mod arena;
pub mod batch_resilience;
pub mod capacity;
pub mod density;
pub mod fig04;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig21;
pub mod out_of_core;
pub mod overlap;
pub mod platforms;
pub mod profile;
pub mod queries;
pub mod robustness;
pub mod scheduler;
pub mod service;
pub mod table2;
pub mod table3;
pub mod trace;

use kw_core::{compile, BatchQuery, CompiledPlan, ExecMode, PlanReport, WeaverConfig};
use kw_gpu_sim::{Device, DeviceConfig};
use kw_tpch::Workload;

/// Default tuple count per input relation for resident-mode experiments.
pub const DEFAULT_N: usize = 1 << 20;
/// Sweep sizes averaged by the figure experiments (the paper sweeps
/// 64 MB–1 GB; the simulator's cost model is linear in size, so a smaller
/// sweep preserves every ratio).
pub const SWEEP: [usize; 3] = [1 << 16, 1 << 18, 1 << 20];
/// Workload seed.
pub const SEED: u64 = 0xC2050;

/// A fresh simulated Tesla C2050.
pub fn device() -> Device {
    Device::new(DeviceConfig::fermi_c2050())
}

/// Run `workload` fused and unfused on fresh devices, returning
/// `(fused, baseline)` reports.
pub fn run_pair(workload: &Workload, config: &WeaverConfig) -> (PlanReport, PlanReport) {
    let mut fused_dev = device();
    let fused = workload
        .run(&mut fused_dev, config)
        .expect("fused execution");
    let mut base_dev = device();
    let base = workload
        .run(&mut base_dev, &config.baseline())
        .expect("baseline execution");
    assert_eq!(
        fused.outputs, base.outputs,
        "{}: fused and baseline disagree",
        workload.name
    );
    (fused, base)
}

/// Compile every query of a batch under `config`, in batch order, for
/// [`kw_core::execute_batch`].
pub(crate) fn compile_batch(
    queries: &[BatchQuery<'_>],
    config: &WeaverConfig,
) -> Vec<CompiledPlan> {
    queries
        .iter()
        .map(|q| compile(q.plan, config).expect("campaign plans compile"))
        .collect()
}

/// Resident-mode config (Figure 16 setup).
pub fn resident() -> WeaverConfig {
    WeaverConfig::default()
}

/// Staged-mode config (Figure 21 setup).
pub fn staged() -> WeaverConfig {
    WeaverConfig {
        mode: ExecMode::Staged,
        ..WeaverConfig::default()
    }
}

/// Geometric mean of a non-empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    let ln: f64 = xs.iter().map(|x| x.ln()).sum();
    (ln / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn run_pair_checks_outputs() {
        let w = kw_tpch::Pattern::A.build(2_000, SEED);
        let (f, b) = run_pair(&w, &resident());
        assert!(b.gpu_seconds > f.gpu_seconds);
    }
}
