//! Device-level streams, events and copy/compute engines.
//!
//! The paper's §VII observes that overlapping PCIe transfers with
//! computation is the technique kernel fusion composes with: fusion shrinks
//! the compute and traffic volumes, double buffering hides what traffic
//! remains behind the kernels. Before this module existed the repo modelled
//! overlap with a closed-form makespan recurrence computed *outside* the
//! device clock; this module replaces that with the mechanism real CUDA
//! runtimes expose — streams whose operations execute in issue order,
//! dedicated copy engines per PCIe direction, and events carrying
//! happens-before edges between streams.
//!
//! The model is deliberately minimal and deterministic:
//!
//! * every operation occupies exactly one [`Engine`] for a closed cycle
//!   interval; operations on the same engine serialize in issue order
//!   (Fermi's copy queues and kernel dispatcher are FIFO);
//! * an operation starts at the latest of: its stream's ready cycle, its
//!   engine's free cycle, and the issue-time floor its caller supplies
//!   (the [`Device`](crate::Device) passes its serial trace clock, so
//!   streamed work never pretends to predate the work that enqueued it);
//! * [`StreamModel::makespan`] is the latest cycle any engine is busy
//!   until — the wallclock of the whole event graph on the same unified
//!   cycle clock the serial trace uses.
//!
//! The model keeps only the state scheduling needs (ready and free cycles,
//! per-engine busy sums); the record of each operation is its trace
//! [`Span`](crate::Span), which carries the scheduled interval and engine.
//!
//! # Examples
//!
//! A two-chunk upload/compute/download pipeline on one compute engine:
//!
//! ```
//! use kw_gpu_sim::{Engine, StreamModel};
//!
//! let mut m = StreamModel::new(1);
//! for chunk in 0..2u64 {
//!     let s = m.create_stream();
//!     m.schedule(s, Engine::CopyH2D, 10, 0).unwrap();
//!     m.schedule(s, m.compute_engine(s), 30, 0).unwrap();
//!     m.schedule(s, Engine::CopyD2H, 10, 0).unwrap();
//! }
//! // Chunk 1's upload hides behind chunk 0's compute: 10 + 30 + 30 + 10.
//! assert_eq!(m.makespan(), 80);
//! // Serialized, the same work would cost 2 * (10 + 30 + 10) = 100.
//! ```

use crate::{Result, SimError};
use std::collections::BTreeMap;

/// Handle to a stream created by [`StreamModel::create_stream`] (or
/// [`Device::create_stream`](crate::Device::create_stream)).
///
/// Operations issued to the same stream execute in issue order; operations
/// in different streams may overlap when they occupy different engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(u32);

impl StreamId {
    /// Stable index of this stream (creation order, starting at 0).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Handle to an event recorded by [`StreamModel::record_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u32);

/// The hardware unit a streamed operation occupies.
///
/// Mirrors a discrete Fermi-class card: one kernel dispatcher per compute
/// engine and one DMA engine per PCIe direction, so an upload, a kernel and
/// a download can be in flight simultaneously, but two uploads cannot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Engine {
    /// A compute engine (kernel execution). Fermi exposes one; configs may
    /// model more via [`DeviceConfig::compute_engines`](crate::DeviceConfig::compute_engines).
    Compute(u32),
    /// The dedicated host-to-device DMA engine.
    CopyH2D,
    /// The dedicated device-to-host DMA engine.
    CopyD2H,
}

impl Engine {
    /// Short human-readable name (used in trace labels and tables).
    pub fn name(&self) -> String {
        match self {
            Engine::Compute(i) => format!("compute{i}"),
            Engine::CopyH2D => "copy.h2d".to_string(),
            Engine::CopyD2H => "copy.d2h".to_string(),
        }
    }
}

/// Deterministic scheduler for streams, events and engines.
///
/// Owned by [`Device`](crate::Device), but usable standalone (the property
/// tests drive it directly against the analytical pipeline-makespan oracle).
#[derive(Debug, Clone, Default)]
pub struct StreamModel {
    /// Number of compute engines (≥ 1 treated as 1 when 0).
    compute_engines: u32,
    /// Per-stream ready cycle: the end of the last operation issued to the
    /// stream, raised further by [`StreamModel::wait_event`].
    stream_ready: Vec<u64>,
    /// Per-event completion cycle captured at record time.
    events: Vec<u64>,
    /// Cycle at which each engine finishes its last accepted operation.
    engine_free: BTreeMap<Engine, u64>,
    /// Busy cycles per engine: the running sum of scheduled durations.
    engine_busy: BTreeMap<Engine, u64>,
}

impl StreamModel {
    /// Create a model with `compute_engines` kernel engines (0 acts as 1).
    pub fn new(compute_engines: u32) -> StreamModel {
        StreamModel {
            compute_engines: compute_engines.max(1),
            ..StreamModel::default()
        }
    }

    /// Create a new stream, initially ready at cycle 0.
    pub fn create_stream(&mut self) -> StreamId {
        self.stream_ready.push(0);
        StreamId(self.stream_ready.len() as u32 - 1)
    }

    /// The compute engine kernels from `stream` run on. Streams are spread
    /// round-robin over the configured engines, so with one engine (Fermi)
    /// all kernels serialize and with N engines up to N kernels overlap.
    pub fn compute_engine(&self, stream: StreamId) -> Engine {
        Engine::Compute(stream.0 % self.compute_engines.max(1))
    }

    /// Check that `stream` belongs to this model.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidStream`] for an unknown stream id.
    pub fn validate(&self, stream: StreamId) -> Result<()> {
        self.check_stream(stream).map(|_| ())
    }

    fn check_stream(&self, stream: StreamId) -> Result<usize> {
        let idx = stream.0 as usize;
        if idx >= self.stream_ready.len() {
            return Err(SimError::InvalidStream {
                detail: format!(
                    "unknown stream id {} ({} exist)",
                    stream.0,
                    self.stream_ready.len()
                ),
            });
        }
        Ok(idx)
    }

    /// Schedule an operation of `duration_cycles` from `stream` on
    /// `engine`, starting no earlier than `not_before` (the caller's issue
    /// clock). Returns the scheduled `(start, end)` cycle interval.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidStream`] for an unknown stream id or an
    /// out-of-range compute engine.
    pub fn schedule(
        &mut self,
        stream: StreamId,
        engine: Engine,
        duration_cycles: u64,
        not_before: u64,
    ) -> Result<(u64, u64)> {
        let idx = self.check_stream(stream)?;
        if let Engine::Compute(i) = engine {
            if i >= self.compute_engines.max(1) {
                return Err(SimError::InvalidStream {
                    detail: format!(
                        "compute engine {i} out of range ({} configured)",
                        self.compute_engines.max(1)
                    ),
                });
            }
        }
        let start = self.stream_ready[idx]
            .max(self.engine_free.get(&engine).copied().unwrap_or(0))
            .max(not_before);
        let end = start.saturating_add(duration_cycles);
        self.stream_ready[idx] = end;
        self.engine_free.insert(engine, end);
        *self.engine_busy.entry(engine).or_insert(0) += end - start;
        Ok((start, end))
    }

    /// Record an event capturing `stream`'s current ready cycle. Waiting on
    /// the event (from any stream) establishes a happens-before edge from
    /// everything issued to `stream` so far.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidStream`] for an unknown stream id.
    pub fn record_event(&mut self, stream: StreamId) -> Result<EventId> {
        let idx = self.check_stream(stream)?;
        self.events.push(self.stream_ready[idx]);
        Ok(EventId(self.events.len() as u32 - 1))
    }

    /// Make `stream`'s next operation wait for `event`: its ready cycle is
    /// raised to the event's recorded completion cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidStream`] for an unknown stream or event.
    pub fn wait_event(&mut self, stream: StreamId, event: EventId) -> Result<()> {
        let idx = self.check_stream(stream)?;
        let at = self.event_cycle(event)?;
        self.stream_ready[idx] = self.stream_ready[idx].max(at);
        Ok(())
    }

    /// The completion cycle `event` captured at record time — the cycle at
    /// which everything issued to its stream before the record has finished.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidStream`] for an unknown event id.
    pub fn event_cycle(&self, event: EventId) -> Result<u64> {
        self.events
            .get(event.0 as usize)
            .copied()
            .ok_or_else(|| SimError::InvalidStream {
                detail: format!("unknown event id {} ({} exist)", event.0, self.events.len()),
            })
    }

    /// Number of streams created so far.
    pub fn stream_count(&self) -> usize {
        self.stream_ready.len()
    }

    /// The cycle at which every scheduled operation has finished (0 when
    /// nothing was scheduled) — the event graph's wallclock. Engines are
    /// FIFO, so each engine's last operation is its latest.
    pub fn makespan(&self) -> u64 {
        self.engine_free.values().copied().max().unwrap_or(0)
    }

    /// Busy cycles per engine (sum of operation durations; engines are
    /// FIFO, so intervals on one engine never overlap).
    pub fn engine_busy(&self) -> &BTreeMap<Engine, u64> {
        &self.engine_busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The closed-form 3-stage pipeline recurrence (the retired overlap
    /// formula, kept in `kw-core` as a public test oracle) in cycles.
    fn pipeline_oracle(chunks: &[(u64, u64, u64)]) -> u64 {
        let (mut up, mut mid, mut down) = (0u64, 0u64, 0u64);
        for &(h2d, compute, d2h) in chunks {
            up += h2d;
            mid = mid.max(up) + compute;
            down = down.max(mid) + d2h;
        }
        down
    }

    fn run_pipeline(m: &mut StreamModel, chunks: &[(u64, u64, u64)]) {
        for &(h2d, compute, d2h) in chunks {
            let s = m.create_stream();
            m.schedule(s, Engine::CopyH2D, h2d, 0).unwrap();
            m.schedule(s, m.compute_engine(s), compute, 0).unwrap();
            m.schedule(s, Engine::CopyD2H, d2h, 0).unwrap();
        }
    }

    #[test]
    fn empty_model_has_zero_makespan() {
        let m = StreamModel::new(1);
        assert_eq!(m.makespan(), 0);
        assert!(m.engine_busy().is_empty());
    }

    #[test]
    fn single_stream_serializes() {
        let mut m = StreamModel::new(4);
        let s = m.create_stream();
        let e = m.compute_engine(s);
        assert_eq!(m.schedule(s, e, 10, 0).unwrap(), (0, 10));
        assert_eq!(m.schedule(s, e, 5, 0).unwrap(), (10, 15));
        assert_eq!(m.makespan(), 15);
    }

    #[test]
    fn one_compute_engine_serializes_kernels_across_streams() {
        let mut m = StreamModel::new(1);
        let a = m.create_stream();
        let b = m.create_stream();
        m.schedule(a, m.compute_engine(a), 10, 0).unwrap();
        m.schedule(b, m.compute_engine(b), 10, 0).unwrap();
        assert_eq!(m.makespan(), 20, "one kernel dispatcher is FIFO");
        let mut m2 = StreamModel::new(2);
        let a = m2.create_stream();
        let b = m2.create_stream();
        m2.schedule(a, m2.compute_engine(a), 10, 0).unwrap();
        m2.schedule(b, m2.compute_engine(b), 10, 0).unwrap();
        assert_eq!(m2.makespan(), 10, "two engines overlap kernels");
    }

    #[test]
    fn copy_engines_overlap_compute() {
        let mut m = StreamModel::new(1);
        let a = m.create_stream();
        let b = m.create_stream();
        m.schedule(a, m.compute_engine(a), 100, 0).unwrap();
        let (s, e) = m.schedule(b, Engine::CopyH2D, 40, 0).unwrap();
        assert_eq!((s, e), (0, 40), "upload runs under the kernel");
        assert_eq!(m.makespan(), 100);
    }

    #[test]
    fn events_carry_happens_before_edges() {
        let mut m = StreamModel::new(2);
        let producer = m.create_stream();
        let consumer = m.create_stream();
        m.schedule(producer, Engine::CopyH2D, 50, 0).unwrap();
        let ev = m.record_event(producer).unwrap();
        // Without the wait the consumer's kernel (own engine) would start at 0.
        m.wait_event(consumer, ev).unwrap();
        let (start, _) = m
            .schedule(consumer, m.compute_engine(consumer), 10, 0)
            .unwrap();
        assert_eq!(start, 50, "kernel must wait for the producer's upload");
    }

    #[test]
    fn not_before_floors_the_start() {
        let mut m = StreamModel::new(1);
        let s = m.create_stream();
        let (start, end) = m.schedule(s, Engine::CopyH2D, 10, 1000).unwrap();
        assert_eq!((start, end), (1000, 1010));
    }

    #[test]
    fn invalid_ids_are_rejected() {
        let mut m = StreamModel::new(1);
        let s = m.create_stream();
        let bogus = StreamId(7);
        assert!(matches!(
            m.schedule(bogus, Engine::CopyH2D, 1, 0),
            Err(SimError::InvalidStream { .. })
        ));
        assert!(matches!(
            m.schedule(s, Engine::Compute(3), 1, 0),
            Err(SimError::InvalidStream { .. })
        ));
        assert!(matches!(
            m.record_event(bogus),
            Err(SimError::InvalidStream { .. })
        ));
        assert!(matches!(
            m.wait_event(s, EventId(9)),
            Err(SimError::InvalidStream { .. })
        ));
    }

    #[test]
    fn pipeline_matches_closed_form_oracle() {
        let cases: Vec<Vec<(u64, u64, u64)>> = vec![
            vec![(1, 2, 1)],
            vec![(1, 2, 1), (1, 2, 1)],
            vec![(10, 30, 10), (10, 30, 10), (10, 30, 10)],
            vec![(100, 1, 1), (100, 1, 1), (1, 500, 1)],
            vec![(0, 7, 0), (3, 0, 3), (5, 5, 5)],
        ];
        for chunks in cases {
            let mut m = StreamModel::new(1);
            run_pipeline(&mut m, &chunks);
            assert_eq!(
                m.makespan(),
                pipeline_oracle(&chunks),
                "stream schedule diverged from the pipeline recurrence on {chunks:?}"
            );
        }
    }

    #[test]
    fn makespan_bounds() {
        let chunks = vec![(10, 30, 10), (20, 5, 40), (1, 60, 2)];
        let mut m = StreamModel::new(1);
        run_pipeline(&mut m, &chunks);
        let serialized: u64 = chunks.iter().map(|(a, b, c)| a + b + c).sum();
        let busiest = m.engine_busy().values().copied().max().unwrap();
        assert!(m.makespan() <= serialized);
        assert!(m.makespan() >= busiest);
    }

    #[test]
    fn engine_names() {
        assert_eq!(Engine::Compute(0).name(), "compute0");
        assert_eq!(Engine::CopyH2D.name(), "copy.h2d");
        assert_eq!(Engine::CopyD2H.name(), "copy.d2h");
    }
}
