//! Section 2.3 / Section 6 platform study: kernel fusion on a discrete GPU
//! vs. a fused CPU+GPU die (Sandy Bridge / AMD Fusion class), and the
//! rescheduling + double-buffering extensions of Section 6.
//!
//! The paper argues four of fusion's six benefits survive on an APU (all
//! but PCIe-traffic reduction and larger resident inputs) — so fusion keeps
//! its compute-side speedup there while the transfer-side gain evaporates.

use kw_core::{reschedule, ExecMode, WeaverConfig};
use kw_gpu_sim::{Device, DeviceConfig};
use kw_primitives::RaOp;
use kw_relational::{CmpOp, Predicate, Schema, Value};
use kw_tpch::{Pattern, Workload};

use super::{DEFAULT_N, SEED};

/// Fusion speedups of one pattern on one platform.
#[derive(Debug, Clone)]
pub struct PlatformRow {
    /// Platform name.
    pub platform: &'static str,
    /// Pattern measured.
    pub pattern: Pattern,
    /// Compute-side speedup from fusion.
    pub gpu_speedup: f64,
    /// Overall (compute + transfer) speedup, staged mode. Measured on the
    /// serialized cost, matching the paper's non-overlapping harness.
    pub overall_speedup: f64,
    /// Fraction of the *baseline* serialized runtime spent on transfers.
    pub transfer_fraction: f64,
}

/// Compare fusion benefits on the discrete C2050 vs the fused APU.
pub fn run(patterns: &[Pattern]) -> Vec<PlatformRow> {
    let mut rows = Vec::new();
    for &(platform, ref cfg) in &[
        ("Tesla C2050 (discrete)", DeviceConfig::fermi_c2050()),
        ("fused APU", DeviceConfig::fused_apu()),
    ] {
        for &pattern in patterns {
            let w = pattern.build(DEFAULT_N, SEED);
            let staged = WeaverConfig {
                mode: ExecMode::Staged,
                ..WeaverConfig::default()
            };
            let mut fdev = Device::new(cfg.clone());
            let fused = w.run(&mut fdev, &staged).expect("fused");
            let mut bdev = Device::new(cfg.clone());
            let base = w.run(&mut bdev, &staged.baseline()).expect("baseline");
            rows.push(PlatformRow {
                platform,
                pattern,
                gpu_speedup: base.gpu_seconds / fused.gpu_seconds,
                overall_speedup: base.serialized_seconds / fused.serialized_seconds,
                transfer_fraction: base.pcie_seconds / base.serialized_seconds,
            });
        }
    }
    rows
}

/// The Section 6 rescheduling study: a SELECT trapped above a SORT is
/// hoisted below it, shrinking the sort and joining the pre-sort fusion
/// region. Returns `(unrescheduled, rescheduled)` GPU seconds (both fused).
pub fn rescheduling_gain() -> (f64, f64) {
    // select(sort(select(t))) — the Figure 9(c) shape.
    let input = kw_relational::gen::micro_input(DEFAULT_N, SEED);
    let mut plan = kw_core::QueryPlan::new();
    let t = plan.add_input("t", Schema::uniform_u32(4));
    let s1 = plan
        .add_op(
            RaOp::Select {
                pred: Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 2)),
            },
            &[t],
        )
        .expect("pre-sort select");
    let srt = plan
        .add_op(RaOp::Sort { attrs: vec![2] }, &[s1])
        .expect("sort");
    // Post-sort layout (a2, a0, a1, a3): filter on position 2 (= a1).
    let s2 = plan
        .add_op(
            RaOp::Select {
                pred: Predicate::cmp(2, CmpOp::Lt, Value::U32(u32::MAX / 2)),
            },
            &[srt],
        )
        .expect("post-sort select");
    plan.mark_output(s2);
    let workload = Workload::new("reschedule-study", plan, vec![("t".into(), input)]);

    let mut d1 = super::device();
    let plain = workload
        .run(&mut d1, &WeaverConfig::default())
        .expect("plain");

    let r = reschedule(&workload.plan).expect("reschedule");
    let rescheduled_workload = Workload::new("rescheduled", r.plan, workload.data.clone());
    let mut d2 = super::device();
    let moved = rescheduled_workload
        .run(&mut d2, &WeaverConfig::default())
        .expect("rescheduled");

    // Same results (modulo node ids).
    let a: Vec<_> = plain.outputs.values().collect();
    let b: Vec<_> = moved.outputs.values().collect();
    assert_eq!(a, b, "rescheduling must not change results");

    (plain.gpu_seconds, moved.gpu_seconds)
}

/// The CPU-vs-GPU comparison implied by §5.1.2 ("the baseline GPU
/// implementation should be 4x–40x faster than CPU and kernel fusion can
/// further increase the GPU advantage"): run the unfused baseline on the
/// CPU target and both variants on the GPU. Returns
/// `(gpu_baseline_over_cpu, gpu_fused_over_cpu)` for `pattern`.
pub fn cpu_comparison(pattern: Pattern) -> (f64, f64) {
    let w = pattern.build(DEFAULT_N, SEED);
    let resident = WeaverConfig::default();

    let mut cdev = Device::new(DeviceConfig::cpu_like());
    let cpu = w
        .run(&mut cdev, &resident.baseline())
        .expect("cpu baseline");
    let mut gdev = Device::new(DeviceConfig::fermi_c2050());
    let gpu_base = w
        .run(&mut gdev, &resident.baseline())
        .expect("gpu baseline");
    let mut fdev = Device::new(DeviceConfig::fermi_c2050());
    let gpu_fused = w.run(&mut fdev, &resident).expect("gpu fused");

    (
        cpu.gpu_seconds / gpu_base.gpu_seconds,
        cpu.gpu_seconds / gpu_fused.gpu_seconds,
    )
}

/// Double-buffering study on pattern (a): run the *chunked* pipelined
/// executor (8 chunks) fused vs unfused and report the fusion speedup with
/// serialized and with overlapped transfers.
pub fn overlap_study() -> (f64, f64) {
    let w = Pattern::A.build(DEFAULT_N, SEED);
    let run = |fusion: bool| {
        // Staged per-chunk execution: unfused operators round-trip their
        // intermediates to the host (the out-of-core setting where both
        // fusion and double buffering matter).
        let config = WeaverConfig {
            fusion,
            mode: ExecMode::Staged,
            chunks: Some(8),
            ..WeaverConfig::default()
        };
        let mut dev = super::device();
        kw_core::execute_plan(&w.plan, &w.bindings(), &mut dev, &config).expect("chunked run")
    };
    let fused = run(true);
    let base = run(false);
    assert_eq!(fused.outputs, base.outputs);
    (
        base.serialized_seconds / fused.serialized_seconds,
        base.total_seconds / fused.total_seconds,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apu_keeps_compute_benefit_loses_transfer_share() {
        let rows = run(&[Pattern::A]);
        let discrete = &rows[0];
        let apu = &rows[1];
        assert!(discrete.gpu_speedup > 1.5);
        assert!(apu.gpu_speedup > 1.5, "compute benefit survives: {apu:?}");
        assert!(
            apu.transfer_fraction < discrete.transfer_fraction,
            "transfers matter less on die: {apu:?} vs {discrete:?}"
        );
        assert!(apu.overall_speedup > 1.0);
    }

    #[test]
    fn rescheduling_helps() {
        let (plain, moved) = rescheduling_gain();
        assert!(
            moved < plain,
            "hoisting the select should shrink the sort: {moved} vs {plain}"
        );
    }

    #[test]
    fn gpu_beats_cpu_in_papers_band() {
        let (base_ratio, fused_ratio) = cpu_comparison(Pattern::A);
        // Paper: baseline GPU 4x–40x over CPU; fusion widens the gap.
        assert!(
            base_ratio > 3.0 && base_ratio < 50.0,
            "baseline GPU/CPU ratio {base_ratio}"
        );
        assert!(fused_ratio > base_ratio, "{fused_ratio} vs {base_ratio}");
    }

    #[test]
    fn overlap_is_orthogonal_to_fusion() {
        let (serial, overlapped) = overlap_study();
        assert!(serial > 1.3);
        assert!(overlapped > 1.3, "fusion still wins under overlap");
    }
}
