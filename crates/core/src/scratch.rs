//! Fork-and-replay: the one seam through which work measured on a scratch
//! device reaches its parent.
//!
//! The chunked executor and the batch scheduler both compute real
//! relations on a [`Device::fork_scratch`] device, then re-issue the
//! measured cost on the parent's streams (`transfer_on` / `compute_on`).
//! A [`ScratchRun`] owns the fork and its one scratch arena: [`open`]
//! forks and reserves, [`execute`] runs a compiled plan and returns what
//! its callers replay (outputs, the fork's charges and typed per-step
//! costs; no provenance parsing, no folded report), and [`close`] folds
//! the fork's peak, arena totals, spills and free errors into the parent
//! exactly once — `close` consumes the run, so it cannot fold twice.
//!
//! [`open`]: ScratchRun::open
//! [`execute`]: ScratchRun::execute
//! [`close`]: ScratchRun::close

use kw_gpu_sim::{ArenaStats, Device, ScratchArena, SimStats};
use kw_relational::Relation;

use crate::executor::{Execution, RunWindow};
use crate::{CompiledPlan, QueryPlan, Result, WeaverConfig};

/// A scratch fork of a parent device plus the arena every execution on it
/// shares.
pub(crate) struct ScratchRun {
    fork: Device,
    arena: ScratchArena,
}

/// What one [`ScratchRun::execute`] measured.
pub(crate) struct ScratchExecution {
    /// The outputs, the footprint peak and one compute-only cost per
    /// compiled step; the step costs sum to `stats.compute_only()`.
    pub exec: Execution,
    /// Everything the execution charged to the fork.
    pub stats: SimStats,
    /// The fork's memory high-water mark after this execution.
    pub fork_peak: u64,
}

impl ScratchRun {
    /// Fork `parent` (the fork carries a derived fault stream, so injected
    /// faults keep striking inside scratch work) and reserve one arena of
    /// `reservation` bytes on the fork.
    pub(crate) fn open(parent: &mut Device, reservation: u64, label: &str) -> Result<ScratchRun> {
        let mut fork = parent.fork_scratch();
        let arena = fork.create_arena(reservation, label)?;
        Ok(ScratchRun { fork, arena })
    }

    /// Run a compiled plan on the fork inside the shared arena.
    pub(crate) fn execute(
        &mut self,
        plan: &QueryPlan,
        compiled: &CompiledPlan,
        bindings: &[(&str, &Relation)],
        config: &WeaverConfig,
    ) -> Result<ScratchExecution> {
        let window = RunWindow::open(&mut self.fork);
        let exec = crate::executor::execute_compiled_in_arena(
            plan,
            compiled,
            bindings,
            &mut self.fork,
            config,
            &mut self.arena,
        )?;
        Ok(ScratchExecution {
            exec,
            stats: window.stats(&self.fork),
            fork_peak: self.fork.memory().peak(),
        })
    }

    /// Rewind the arena for the next execution (one reset per chunk
    /// iteration in out-of-core runs).
    pub(crate) fn reset_arena(&mut self) {
        self.arena.reset();
    }

    /// Release the arena and fold the fork into `parent`: its memory peak,
    /// arena totals, spills, and free-error count and first message. Returns
    /// the arena's accounting, or `None` when its release itself failed
    /// (noted as a free error, which the fold carries to the parent).
    pub(crate) fn close(self, parent: &mut Device) -> Option<ArenaStats> {
        let ScratchRun { mut fork, arena } = self;
        let stats = fork
            .release_arena(arena)
            .map_err(|fe| fork.note_free_error(&fe))
            .ok();
        parent.absorb_scratch(&fork);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_gpu_sim::{DeviceConfig, SimError};
    use kw_primitives::RaOp;
    use kw_relational::{gen, CmpOp, Predicate, Value};

    #[test]
    fn close_folds_free_errors_into_the_parent() {
        let mut parent = Device::new(DeviceConfig::fermi_c2050());
        let mut run = ScratchRun::open(&mut parent, 4096, "test.arena").unwrap();
        run.fork.note_free_error(&SimError::InvalidBuffer { id: 7 });
        let stats = run.close(&mut parent);
        assert_eq!(stats.map(|s| s.reservation), Some(4096));
        assert_eq!(parent.metrics().counter("kw_free_errors_total"), 1);
        assert!(parent.first_free_error().unwrap().contains('7'));
        assert_eq!(parent.memory().peak(), 4096, "fork peak reaches the parent");
        assert_eq!(
            parent.metrics().gauge("kw_arena_reservation_bytes"),
            Some(4096.0),
            "arena metrics reach the parent"
        );
        assert_eq!(parent.memory().in_use(), 0);
    }

    #[test]
    fn step_costs_sum_to_the_compute_delta() {
        let input = gen::micro_input(20_000, 3);
        let mut plan = QueryPlan::new();
        let mut cur = plan.add_input("t", input.schema().clone());
        for attr in 0..3 {
            let pred = Predicate::cmp(attr, CmpOp::Lt, Value::U32(u32::MAX / 2));
            cur = plan.add_op(RaOp::Select { pred }, &[cur]).unwrap();
        }
        plan.mark_output(cur);
        let bindings: &[(&str, &Relation)] = &[("t", &input)];
        // Unfused: one step per select, so the sum has several terms.
        let config = WeaverConfig::default().baseline();
        let compiled = crate::compile(&plan, &config).unwrap();
        let reservation =
            crate::admission::predict_reservation(&plan, &compiled, bindings, config.mode).unwrap();

        let mut parent = Device::new(DeviceConfig::fermi_c2050());
        let mut run = ScratchRun::open(&mut parent, reservation, "test.arena").unwrap();
        let exec = run.execute(&plan, &compiled, bindings, &config).unwrap();
        run.close(&mut parent);

        assert_eq!(exec.exec.steps.len(), compiled.steps.len());
        assert!(exec.exec.steps.len() > 1);
        assert!(exec.exec.steps.iter().all(|s| s.kernel_launches > 0));
        let mut sum = SimStats::default();
        for step in &exec.exec.steps {
            sum.merge(step);
        }
        assert_eq!(sum, exec.stats.compute_only());
        assert!(
            exec.stats.pcie_seconds > 0.0,
            "the execution's stats also carry transfers"
        );
    }
}
