//! Fusion × double-buffering composition study (the paper's §VII remark
//! that transfer/compute overlap is the orthogonal technique fusion
//! composes with, now measurable because overlap is a device-level stream
//! mechanism rather than a side formula).
//!
//! For each elementwise pattern at a large staged input, the chunked
//! executor runs fused and unfused; each [`kw_core::PlanReport`] carries
//! both the serialized wallclock (no engine overlap) and the pipelined
//! wallclock (`total_seconds`, the stream/event graph makespan). Overlap
//! saves wallclock on every plan, and fusion still wins under overlap. On
//! transfer-bound patterns (D: many consumers of one staged input, little
//! compute to fuse away) the composition exhibits the full ordering
//! **fused-chunked < unfused-chunked < fused-serialized** — there, overlap
//! alone beats fusion alone, and composing both beats either.

use kw_core::{ExecMode, WeaverConfig};
use kw_tpch::Pattern;

use super::SEED;
use crate::table::Direction::{Exact, Lower, TwoSided};
use crate::table::Table;

/// Serialized and pipelined wallclock for one pattern, fused and unfused.
#[derive(Debug, Clone)]
pub struct OverlapRow {
    /// Pattern measured.
    pub pattern: Pattern,
    /// Tuples per input relation.
    pub n: usize,
    /// Chunk count of the double-buffered schedule.
    pub chunks: usize,
    /// Fused plan, transfers serialized against compute.
    pub fused_serialized: f64,
    /// Fused plan, stream-graph overlap.
    pub fused_pipelined: f64,
    /// Unfused plan, transfers serialized.
    pub base_serialized: f64,
    /// Unfused plan, stream-graph overlap.
    pub base_pipelined: f64,
}

impl OverlapRow {
    /// Wallclock saved by overlap on the fused plan.
    pub fn fused_overlap_gain(&self) -> f64 {
        self.fused_serialized / self.fused_pipelined
    }

    /// Wallclock saved by overlap on the unfused plan.
    pub fn base_overlap_gain(&self) -> f64 {
        self.base_serialized / self.base_pipelined
    }

    /// Fusion speedup with both plans overlapped.
    pub fn fusion_gain_pipelined(&self) -> f64 {
        self.base_pipelined / self.fused_pipelined
    }

    /// The composed win: fused + overlapped over unfused + serialized.
    pub fn composed_speedup(&self) -> f64 {
        self.base_serialized / self.fused_pipelined
    }
}

/// Run the study over `patterns` at `n` tuples per input, split into
/// `chunks` chunks, staged mode. (The campaign uses the elementwise
/// patterns (a)/(d)/(e); joins stream too nowadays, but their overlap
/// story is the `out_of_core` campaign's job.)
pub fn run(patterns: &[Pattern], n: usize, chunks: usize) -> Vec<OverlapRow> {
    patterns
        .iter()
        .map(|&pattern| {
            let w = pattern.build(n, SEED);
            let exec = |fusion: bool| {
                let config = WeaverConfig {
                    fusion,
                    // Staged per-chunk execution: the out-of-core setting
                    // where both fusion and double buffering matter.
                    mode: ExecMode::Staged,
                    chunks: Some(chunks),
                    ..WeaverConfig::default()
                };
                let mut dev = super::device();
                let report = kw_core::execute_plan(&w.plan, &w.bindings(), &mut dev, &config)
                    .expect("chunked run");
                // The reported pipelined wallclock is the device stream
                // graph's makespan, and the streamed spans reconcile.
                kw_gpu_sim::reconcile(dev.spans(), dev.stats()).expect("streamed trace reconciles");
                report
            };
            let fused = exec(true);
            let base = exec(false);
            assert_eq!(
                fused.outputs, base.outputs,
                "{pattern:?}: fused and baseline disagree"
            );
            OverlapRow {
                pattern,
                n,
                chunks,
                fused_serialized: fused.serialized_seconds,
                fused_pipelined: fused.total_seconds,
                base_serialized: base.serialized_seconds,
                base_pipelined: base.total_seconds,
            }
        })
        .collect()
}

/// The study at `n` tuples per input in `chunks` chunks as the `overlap` table.
pub fn table(n: usize, chunks: usize, rows: &[OverlapRow]) -> Table {
    Table::new("overlap")
        .param("tuples_per_input", n)
        .param("chunks", chunks)
        .column(rows, "pattern", Exact, |r| r.pattern.label())
        .column(rows, "fused_serialized", Lower, |r| r.fused_serialized)
        .column(rows, "fused_pipelined", Lower, |r| r.fused_pipelined)
        .column(rows, "base_serialized", TwoSided, |r| r.base_serialized)
        .column(rows, "base_pipelined", TwoSided, |r| r.base_pipelined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::DEFAULT_N;

    #[test]
    fn overlap_saves_wallclock_on_every_plan() {
        for row in run(&[Pattern::A, Pattern::D, Pattern::E], DEFAULT_N, 8) {
            // Acceptance: pipelined < serialized for both fused and unfused.
            assert!(
                row.fused_pipelined < row.fused_serialized,
                "fused overlap must save wallclock: {row:?}"
            );
            assert!(
                row.base_pipelined < row.base_serialized,
                "unfused overlap must save wallclock: {row:?}"
            );
            // Fusion's win survives overlap: the techniques compose.
            assert!(
                row.fused_pipelined < row.base_pipelined,
                "fusion must still win under overlap: {row:?}"
            );
        }
    }

    #[test]
    fn transfer_bound_pattern_shows_full_ordering() {
        // Pattern D stages one input into many cheap SELECTs — transfers
        // dominate, so hiding them behind compute buys more than fusing
        // the little compute there is. The headline composition:
        // fused-chunked < unfused-chunked < fused-serialized.
        let row = &run(&[Pattern::D], DEFAULT_N, 8)[0];
        assert!(
            row.fused_pipelined < row.base_pipelined,
            "composition must beat overlap alone: {row:?}"
        );
        assert!(
            row.base_pipelined < row.fused_serialized,
            "overlap alone must beat fusion alone here: {row:?}"
        );
        assert!(
            row.composed_speedup() > row.base_overlap_gain(),
            "composed win must exceed either single technique: {row:?}"
        );
        assert!(
            row.composed_speedup() > row.base_serialized / row.fused_serialized,
            "composed win must exceed the pure fusion win: {row:?}"
        );
    }
}
