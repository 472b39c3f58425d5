//! Chunked, double-buffered execution — the related-work technique the
//! paper cites as orthogonal to kernel fusion, made concrete. A run takes
//! this path when [`WeaverConfig::chunks`] is `Some`.
//!
//! A plan streams through a device smaller than its inputs by decomposing
//! into chunks under a [`ChunkStrategy`] chosen by
//! [`select_chunk_strategy`]:
//!
//! * **row-slice** — an *elementwise* plan (every operator
//!   thread-dependent: SELECT, PROJECT, MAP) distributes over any row
//!   partition of its inputs, so the inputs are sliced uniformly by index;
//! * **hash-partition** — a key-matching plan (joins, semi/anti-joins, set
//!   ops over selects/projections) is co-partitioned by a hash of each
//!   tuple's leading key word: matching rows share the key, so every bucket
//!   pair is an independent sub-problem and bucket results are disjoint;
//! * **partial-aggregate** — a thread-dependent prefix feeding one final
//!   AGGREGATE runs per row slice producing *partials*, merged on the host
//!   under the aggregate's associativity.
//!
//! In every strategy chunk *i*'s computation overlaps chunk *i+1*'s upload
//! and chunk *i−1*'s download. Fusion composes with this: the fused kernel
//! still runs per chunk, and still moves less data.

use std::collections::BTreeMap;

use kw_gpu_sim::{ArenaStats, Device, Direction};
use kw_relational::{Relation, Schema};

use crate::chunk_strategy::{bucket_of, merge_partials, partial_aggregate_plan};
use crate::executor::RunWindow;
use crate::scratch::{ScratchExecution, ScratchRun};
use crate::{
    compile, select_chunk_strategy, ChunkStrategy, CompiledPlan, NodeId, PlanReport, QueryPlan,
    Result, WeaverConfig, WeaverError, MAX_CHUNKS,
};

/// Execute `plan` over `bindings` in `chunks` chunks with simulated double
/// buffering, under the strategy [`select_chunk_strategy`] picks, each
/// chunk in `config.mode`.
///
/// The report's `total_seconds` is the pipelined wallclock from this run's
/// start (chunk *i* computes while *i+1* uploads and *i−1* downloads),
/// read off the device-level stream/event graph: each chunk's upload,
/// compute and download are issued on a per-chunk stream and the H2D/D2H
/// copy engines and the kernel engine overlap them, so no side formula is
/// involved — [`pipeline_makespan`] is the closed-form oracle it must
/// match on pure three-stage pipelines. `pcie_seconds` counts boundary transfers plus
/// the staged-intermediate round trips inside chunks; `stats` and the
/// profile fold `window`; `fusion_sets` and `operator_count` describe
/// `compiled`, even when a partial-aggregate run executes a rewritten plan.
pub(crate) fn execute(
    plan: &QueryPlan,
    compiled: &CompiledPlan,
    bindings: &[(&str, &Relation)],
    device: &mut Device,
    config: &WeaverConfig,
    chunks: usize,
    window: &RunWindow,
) -> Result<PlanReport> {
    // Partitioning allocates per chunk slot, so an unbounded count would
    // exhaust host memory before any kernel runs.
    if chunks > MAX_CHUNKS {
        return Err(WeaverError::plan(format!(
            "{chunks} chunks requested; at most {MAX_CHUNKS} are supported"
        )));
    }
    let Some(strategy) = select_chunk_strategy(plan) else {
        return Err(WeaverError::plan(
            "chunked streaming requires a partitionable plan: row-sliceable (elementwise), \
             hash-partitionable, or merge-aggregable",
        ));
    };
    let chunks = chunks.max(1);

    let (run, outputs) = match strategy {
        ChunkStrategy::RowSlice => {
            let slots = row_slice_inputs(bindings, effective_chunks(bindings, chunks));
            let mut run = run_chunks(plan, compiled, &slots, device, config)?;
            let outputs = merge_outputs(&mut run)?;
            (run, outputs)
        }
        ChunkStrategy::HashPartition => {
            // No clamp: buckets are keyed by hash, not row index, and a
            // bucket count above the distinct-key count just leaves empty
            // slots that are skipped below.
            let slots = hash_partition_inputs(bindings, chunks);
            let mut run = run_chunks(plan, compiled, &slots, device, config)?;
            let outputs = merge_outputs(&mut run)?;
            (run, outputs)
        }
        ChunkStrategy::PartialAggregate => {
            let spec = partial_aggregate_plan(plan)?;
            let partial_compiled = compile(&spec.plan, config)?;
            let slots = row_slice_inputs(bindings, effective_chunks(bindings, chunks));
            let mut run = run_chunks(&spec.plan, &partial_compiled, &slots, device, config)?;
            let partials = merge_outputs(&mut run)?
                .remove(&spec.node)
                .unwrap_or_else(|| Relation::empty(spec.plan.schema(spec.node).clone()));
            let merged = merge_partials(&spec, &partials)?;
            (run, std::iter::once((spec.node, merged)).collect())
        }
    };

    // The span log cannot carry the residual round trips (they fold into
    // compute spans, whose deltas must be compute-only), so the profile
    // counts them separately. `run_chunks` absorbed the fork's footprint,
    // so the profile's peak is the true one.
    let profile = window.profile(device, run.pipelined_seconds, run.residual_pcie_seconds);
    let stats = window.stats(device);
    Ok(PlanReport {
        outputs,
        gpu_seconds: device.config().cycles_to_seconds(stats.gpu_cycles),
        pcie_seconds: run.pcie_seconds + run.residual_pcie_seconds,
        total_seconds: run.pipelined_seconds,
        serialized_seconds: run.serialized_seconds,
        pipelined_seconds: Some(run.pipelined_seconds),
        stats,
        peak_device_bytes: run.peak_device_bytes,
        fusion_sets: compiled.fusion_sets.clone(),
        operator_count: compiled.steps.len(),
        resilience: None,
        arena: run.arena,
        free_errors: device.free_errors(),
        first_free_error: device.first_free_error().map(String::from),
        spans: Vec::new(), // snapshot once by the public entry points
        profile,
        strategy: Some(strategy),
        chunks: run.executed,
    })
}

/// Satellite of the row-sliced strategies: never request more chunks than
/// the shortest bound input has rows — the extra slots would hold no data
/// yet still fork scratch devices and launch zero-row kernels.
fn effective_chunks(bindings: &[(&str, &Relation)], requested: usize) -> usize {
    let shortest = bindings.iter().map(|(_, r)| r.len()).min().unwrap_or(0);
    requested.clamp(1, shortest.max(1))
}

/// Slice every bound input into `chunks` row chunks (chunking by index
/// keeps each chunk key-sorted and their concatenation key-ordered).
fn row_slice_inputs<'a>(
    bindings: &[(&'a str, &Relation)],
    chunks: usize,
) -> Vec<Vec<(&'a str, Relation)>> {
    let mut slots: Vec<Vec<(&str, Relation)>> = vec![Vec::new(); chunks];
    for (name, rel) in bindings {
        for (c, slot) in slots.iter_mut().enumerate() {
            let lo = c * rel.len() / chunks;
            let hi = (c + 1) * rel.len() / chunks;
            slot.push((name, rel.view().slice(lo, hi).to_relation()));
        }
    }
    slots
}

/// Co-partition every bound input into `buckets` hash buckets on the
/// tuple's leading key word. Rows of every input with equal keys share a
/// bucket, so each bucket is an independent sub-problem of the plan.
fn hash_partition_inputs<'a>(
    bindings: &[(&'a str, &Relation)],
    buckets: usize,
) -> Vec<Vec<(&'a str, Relation)>> {
    let mut slots: Vec<Vec<(&str, Relation)>> = vec![Vec::new(); buckets];
    for (name, rel) in bindings {
        // `split` sizes every bucket before filling it. Buckets grown by
        // doubling hold up to twice the input, and freeing that much at
        // once lets the allocator hand the heap top back to the OS, so
        // whether the next run page-faults it all in again depends on heap
        // layout.
        let parts = rel.view().split(buckets, |t| bucket_of(t[0], buckets));
        for (slot, part) in slots.iter_mut().zip(parts) {
            slot.push((name, part));
        }
    }
    slots
}

/// Accumulated results of the per-chunk execution loop, before the
/// strategy-specific output assembly.
struct ChunkRun {
    /// Per output, each executed chunk's relation, in chunk order.
    outputs: BTreeMap<NodeId, Vec<Relation>>,
    schemas: BTreeMap<NodeId, Schema>,
    /// Boundary transfer seconds: the H2D uploads of chunk inputs and D2H
    /// downloads of chunk outputs that the stream scheduler can overlap
    /// with compute.
    pcie_seconds: f64,
    /// Residual transfer seconds: staged-intermediate round trips inside a
    /// chunk, which serialize with the compute that produces/consumes them.
    residual_pcie_seconds: f64,
    serialized_seconds: f64,
    pipelined_seconds: f64,
    executed: usize,
    peak_device_bytes: u64,
    arena: Option<ArenaStats>,
}

/// Merge each output's per-chunk relations into one canonical relation,
/// the one `Relation::from_words` would sort their concatenation into.
fn merge_outputs(run: &mut ChunkRun) -> Result<BTreeMap<NodeId, Relation>> {
    std::mem::take(&mut run.outputs)
        .into_iter()
        .map(|(node, parts)| {
            let schema = run.schemas[&node].clone();
            Ok((node, Relation::merge(schema, parts)?))
        })
        .collect()
}

/// Execute each chunk slot on a scratch device to get its isolated costs,
/// then replay the chunk's traffic and compute on the user's device as real
/// streamed operations: one stream per chunk, uploads on the H2D copy
/// engine, the chunk's kernels as one compute span, downloads on the D2H
/// engine. The stream scheduler — not a side formula — decides how much of
/// the traffic hides behind compute. Slots whose every input is empty are
/// skipped outright (no relational operator produces rows from empty
/// inputs).
fn run_chunks(
    plan: &QueryPlan,
    compiled: &CompiledPlan,
    slots: &[Vec<(&str, Relation)>],
    device: &mut Device,
    config: &WeaverConfig,
) -> Result<ChunkRun> {
    // One scratch run — one fork, ONE arena — serves every chunk
    // iteration: the reservation is the max of the per-chunk admission
    // predictions, the arena is reset between chunks, so the whole
    // out-of-core run emits one alloc/free span pair instead of
    // O(steps × chunks).
    let mut reservation: Option<u64> = None;
    for chunk in slots {
        if chunk.iter().all(|(_, r)| r.is_empty()) {
            continue;
        }
        let refs: Vec<(&str, &Relation)> = chunk.iter().map(|(n, r)| (*n, r)).collect();
        let need = crate::admission::predict_reservation(plan, compiled, &refs, config.mode)?;
        reservation = Some(reservation.unwrap_or(0).max(need));
    }
    let mut scratch = reservation
        .map(|bytes| ScratchRun::open(device, bytes, "chunked.arena"))
        .transpose()?;
    let run = replay_chunks(plan, compiled, slots, device, config, &mut scratch);
    // Fold the fork into the parent whether the run landed or died: the
    // footprint was real either way, and the parent's `kw_*` series must
    // report it.
    let arena = scratch.and_then(|s| s.close(device));
    Ok(ChunkRun { arena, ..run? })
}

/// The chunk loop of [`run_chunks`]: execute each non-empty slot on the
/// scratch run, then issue its measured cost on `device`.
fn replay_chunks(
    plan: &QueryPlan,
    compiled: &CompiledPlan,
    slots: &[Vec<(&str, Relation)>],
    device: &mut Device,
    config: &WeaverConfig,
    scratch: &mut Option<ScratchRun>,
) -> Result<ChunkRun> {
    let base_cycles = device.sync_streams();
    let mut outputs: BTreeMap<NodeId, Vec<Relation>> = Default::default();
    let mut schemas: BTreeMap<NodeId, Schema> = Default::default();
    // Prepopulate so skipped slots still leave every marked output present
    // (as an empty relation) in the assembled report.
    for &o in plan.outputs() {
        outputs.entry(o).or_default();
        schemas.entry(o).or_insert_with(|| plan.schema(o).clone());
    }

    let mut executed = 0usize;
    let mut peak_device_bytes = 0u64;
    let mut serialized_cycles = 0u64;
    let mut pcie_seconds = 0.0f64;
    let mut residual_pcie_seconds = 0.0f64;
    for (chunk_idx, chunk) in slots.iter().enumerate() {
        if chunk.iter().all(|(_, r)| r.is_empty()) {
            continue;
        }
        executed += 1;
        let refs: Vec<(&str, &Relation)> = chunk.iter().map(|(n, r)| (*n, r)).collect();
        let run = scratch.as_mut().expect("non-empty chunk implies a fork");
        // One reset per chunk iteration, whether the chunk landed or not.
        let result = run.execute(plan, compiled, &refs, config);
        run.reset_arena();
        let ScratchExecution {
            exec, stats: delta, ..
        } = result?;
        peak_device_bytes = peak_device_bytes.max(exec.peak_device_bytes);

        let in_bytes: u64 = chunk.iter().map(|(_, r)| r.byte_size() as u64).sum();
        let out_bytes: u64 = exec.outputs.values().map(|r| r.byte_size() as u64).sum();
        let h2d = kw_gpu_sim::pcie_seconds(device.config(), in_bytes);
        let d2h = kw_gpu_sim::pcie_seconds(device.config(), out_bytes);
        // Transfers of *intermediates* (staged mode's round trips) serialize
        // with the computation that produces/consumes them — they belong to
        // the middle pipeline stage, not to the overlappable edges — so
        // their duration folds into the compute span while their seconds
        // are surfaced separately as `residual_pcie_seconds`.
        let residual = (delta.pcie_seconds - h2d - d2h).max(0.0);
        residual_pcie_seconds += residual;
        let mid_cycles = delta
            .gpu_cycles
            .saturating_add(device.config().seconds_to_cycles(residual));
        // The compute span carries only the chunk's kernel-side counters:
        // the boundary transfers are mirrored below as real streamed
        // transfers (fault-injectable like any transfer).
        let compute_delta = delta.compute_only();

        // Issue the chunk on its own stream. Zero-byte transfers are
        // skipped entirely — a fully-selective filter must not pay the
        // per-transfer PCIe latency for an empty download. The scope is
        // popped before any fault propagates so a retry starts with clean
        // labels, and the streams are drained so the retry's clock starts
        // from a settled makespan.
        device.push_scope(format!("chunk{chunk_idx}"));
        let stream = device.create_stream();
        let issued = (|device: &mut Device| -> kw_gpu_sim::Result<f64> {
            let mut transfers = 0.0;
            if in_bytes > 0 {
                transfers += device.transfer_on(stream, Direction::HostToDevice, in_bytes)?;
            }
            device.compute_on(stream, "compute", &compute_delta, mid_cycles)?;
            if out_bytes > 0 {
                transfers += device.transfer_on(stream, Direction::DeviceToHost, out_bytes)?;
            }
            Ok(transfers)
        })(device);
        device.pop_scope();
        match issued {
            Ok(transfers) => pcie_seconds += transfers,
            Err(e) => {
                device.sync_streams();
                return Err(e.into());
            }
        }
        let chunk_serialized = if in_bytes > 0 {
            device.config().seconds_to_cycles(h2d)
        } else {
            0
        } + mid_cycles
            + if out_bytes > 0 {
                device.config().seconds_to_cycles(d2h)
            } else {
                0
            };
        serialized_cycles += chunk_serialized;

        for (node, rel) in exec.outputs {
            schemas.entry(node).or_insert_with(|| rel.schema().clone());
            outputs.entry(node).or_default().push(rel);
        }
    }

    // Wallclock: drain the streams and read the event graph's makespan off
    // the unified cycle clock. Serialized is the same scheduled work with
    // no engine overlap (the sum of every operation's duration), so
    // `pipelined <= serialized` holds structurally, and since all compute
    // runs on one engine `pipelined` covers the chunks' GPU time too.
    let end_cycles = device.sync_streams();
    let pipelined = device.config().cycles_to_seconds(end_cycles - base_cycles);
    let serialized = device.config().cycles_to_seconds(serialized_cycles);

    Ok(ChunkRun {
        outputs,
        schemas,
        pcie_seconds,
        residual_pcie_seconds,
        serialized_seconds: serialized,
        pipelined_seconds: pipelined,
        executed,
        peak_device_bytes,
        arena: None, // the scratch run's, set by `run_chunks` on close
    })
}

/// Makespan of a three-stage pipeline (upload → compute → download) where
/// each stage processes chunks in order and a chunk's stage can start once
/// the previous stage finished it and the stage finished the previous chunk.
///
/// This closed-form recurrence is no longer what a chunked run reports — overlap is simulated by the device's stream/event scheduler
/// (`kw_gpu_sim::StreamModel`) — but it is retained as the test oracle the
/// stream model must match on pure three-stage pipelines with one compute
/// engine (see the property tests in `tests/simulator_properties.rs`).
pub fn pipeline_makespan(chunks: &[(f64, f64, f64)]) -> f64 {
    let mut up_free = 0.0f64;
    let mut gpu_free = 0.0f64;
    let mut down_free = 0.0f64;
    for &(h2d, gpu, d2h) in chunks {
        let up_done = up_free + h2d;
        up_free = up_done;
        let gpu_done = up_done.max(gpu_free) + gpu;
        gpu_free = gpu_done;
        let down_done = gpu_done.max(down_free) + d2h;
        down_free = down_done;
    }
    down_free
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute_plan;
    use kw_gpu_sim::DeviceConfig;
    use kw_primitives::RaOp;
    use kw_relational::ops::AggFn;
    use kw_relational::{gen, ops, CmpOp, Predicate, Value};

    fn chunked(chunks: usize) -> WeaverConfig {
        WeaverConfig {
            chunks: Some(chunks),
            ..WeaverConfig::default()
        }
    }

    fn elementwise_plan(schema: kw_relational::Schema) -> (QueryPlan, NodeId) {
        let mut plan = QueryPlan::new();
        let t = plan.add_input("t", schema);
        let s = plan
            .add_op(
                RaOp::Select {
                    pred: Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 2)),
                },
                &[t],
            )
            .unwrap();
        let p = plan
            .add_op(
                RaOp::Project {
                    attrs: vec![0, 1],
                    key_arity: 1,
                },
                &[s],
            )
            .unwrap();
        plan.mark_output(p);
        (plan, p)
    }

    fn join_plan(l: &kw_relational::Relation, r: &kw_relational::Relation) -> (QueryPlan, NodeId) {
        let mut plan = QueryPlan::new();
        let na = plan.add_input("a", l.schema().clone());
        let nb = plan.add_input("b", r.schema().clone());
        let j = plan.add_op(RaOp::Join { key_len: 1 }, &[na, nb]).unwrap();
        plan.mark_output(j);
        (plan, j)
    }

    #[test]
    fn chunked_matches_whole_input_execution() {
        let input = gen::micro_input(40_000, 21);
        let (plan, out) = elementwise_plan(input.schema().clone());
        let mut dev = Device::new(DeviceConfig::fermi_c2050());
        let report = execute_plan(&plan, &[("t", &input)], &mut dev, &chunked(7)).unwrap();
        let oracle = ops::project(
            &ops::select(
                &input,
                &Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 2)),
            )
            .unwrap(),
            &[0, 1],
            1,
        )
        .unwrap();
        assert_eq!(report.outputs[&out], oracle);
        assert_eq!(report.chunks, 7);
        assert_eq!(report.strategy, Some(ChunkStrategy::RowSlice));
    }

    #[test]
    fn pipelining_beats_serialization() {
        let input = gen::micro_input(200_000, 22);
        let (plan, _) = elementwise_plan(input.schema().clone());
        let mut dev = Device::new(DeviceConfig::fermi_c2050());
        let report = execute_plan(&plan, &[("t", &input)], &mut dev, &chunked(8)).unwrap();
        assert!(
            report.total_seconds < report.serialized_seconds * 0.95,
            "overlap should shave real time: {report:?}"
        );
        // The pipeline can never beat its longest stage.
        assert!(report.total_seconds >= report.gpu_seconds.max(0.0));
    }

    #[test]
    fn pipelined_wallclock_comes_from_the_stream_graph() {
        let input = gen::micro_input(100_000, 24);
        let (plan, _) = elementwise_plan(input.schema().clone());
        let mut dev = Device::new(DeviceConfig::fermi_c2050());
        let report = execute_plan(&plan, &[("t", &input)], &mut dev, &chunked(6)).unwrap();

        // The device actually scheduled streamed work: one upload, one
        // compute and one download per chunk (nothing here is selective
        // enough to produce empty outputs).
        let streamed = dev.spans().iter().filter(|s| s.engine.is_some()).count();
        assert_eq!(streamed, 3 * report.chunks);
        // The reported wallclock IS the event graph's makespan on the
        // unified cycle clock (fresh device: base clock was 0).
        let makespan_secs = dev.config().cycles_to_seconds(dev.makespan());
        assert!((report.total_seconds - makespan_secs).abs() < 1e-15);
        assert_eq!(dev.clock_cycles(), dev.makespan(), "streams were drained");
        // Bounds: no better than the busiest engine, no worse than serial.
        let busiest = *dev.streams().engine_busy().values().max().unwrap();
        assert!(report.total_seconds >= dev.config().cycles_to_seconds(busiest) - 1e-15);
        assert!(report.total_seconds <= report.serialized_seconds);

        // The parent's stats now carry the chunks' kernel-side counters,
        // and the span log reconciles with them.
        assert!(dev.stats().kernel_launches > 0);
        assert_eq!(
            dev.config().cycles_to_seconds(dev.stats().gpu_cycles),
            report.gpu_seconds
        );
        kw_gpu_sim::reconcile(dev.spans(), dev.stats()).unwrap();
    }

    #[test]
    fn zero_byte_mirrored_transfers_are_skipped() {
        // A select nothing survives: every chunk's output is empty, so no
        // D2H transfer should be issued and no per-chunk PCIe latency paid.
        let input = gen::micro_input(50_000, 25);
        let mut plan = QueryPlan::new();
        let t = plan.add_input("t", input.schema().clone());
        let s = plan
            .add_op(
                RaOp::Select {
                    pred: Predicate::cmp(1, CmpOp::Lt, Value::U32(0)),
                },
                &[t],
            )
            .unwrap();
        plan.mark_output(s);

        let mut dev = Device::new(DeviceConfig::fermi_c2050());
        let chunks = 8;
        let report = execute_plan(&plan, &[("t", &input)], &mut dev, &chunked(chunks)).unwrap();
        assert!(report.outputs.values().all(|r| r.is_empty()));
        // Regression: each empty chunk output used to be "downloaded" as a
        // zero-byte transfer costing the full per-transfer PCIe latency
        // (chunks × 10 µs of fabricated time). Now it is skipped outright.
        assert_eq!(dev.stats().d2h_transfers, 0, "empty downloads skipped");
        assert_eq!(dev.stats().d2h_bytes, 0);
        assert_eq!(dev.stats().h2d_transfers as usize, chunks);
        assert!((report.pcie_seconds - dev.stats().pcie_seconds).abs() < 1e-12);
    }

    #[test]
    fn reported_chunks_equal_executed_chunks() {
        // Requesting far more chunks than the input has rows must clamp:
        // no zero-row scratch forks, no zero-cycle compute spans.
        let input = gen::micro_input(5, 26);
        let (plan, _) = elementwise_plan(input.schema().clone());
        let mut dev = Device::new(DeviceConfig::fermi_c2050());
        let report = execute_plan(&plan, &[("t", &input)], &mut dev, &chunked(64)).unwrap();
        assert_eq!(report.chunks, 5, "64 requested chunks clamp to 5 rows");
        assert_eq!(
            dev.stats().h2d_transfers as usize,
            report.chunks,
            "chunks_reported == chunks_executed"
        );

        // A fully-empty input executes zero chunks and still reports every
        // marked output (empty).
        let empty = kw_relational::Relation::empty(input.schema().clone());
        let mut dev = Device::new(DeviceConfig::fermi_c2050());
        let report = execute_plan(&plan, &[("t", &empty)], &mut dev, &chunked(8)).unwrap();
        assert_eq!(report.chunks, 0);
        assert_eq!(dev.stats().kernel_launches, 0, "no work for no rows");
        assert_eq!(report.outputs.len(), 1);
        assert!(report.outputs.values().all(|r| r.is_empty()));
    }

    #[test]
    fn joins_chunk_via_hash_partitioning() {
        let (a, b) = gen::join_inputs(8_000, 2, 0.5, 23);
        let (plan, out) = join_plan(&a, &b);
        assert_eq!(
            select_chunk_strategy(&plan),
            Some(ChunkStrategy::HashPartition)
        );
        let oracle = ops::join(&a, &b, 1).unwrap();

        let mut dev = Device::new(DeviceConfig::fermi_c2050());
        let report = execute_plan(&plan, &[("a", &a), ("b", &b)], &mut dev, &chunked(4)).unwrap();
        assert_eq!(report.strategy, Some(ChunkStrategy::HashPartition));
        assert_eq!(report.outputs[&out], oracle, "bucket concat == resident");
        assert!(report.chunks >= 2 && report.chunks <= 4);
        kw_gpu_sim::reconcile(dev.spans(), dev.stats()).unwrap();
    }

    #[test]
    fn chunk_counts_above_the_ceiling_are_typed_errors() {
        // Hash partitioning allocates one bucket per chunk for every input,
        // so an unchecked count exhausts host memory before any kernel runs.
        let (a, b) = gen::join_inputs(64, 2, 0.5, 28);
        let (plan, out) = join_plan(&a, &b);
        let bindings: &[(&str, &kw_relational::Relation)] = &[("a", &a), ("b", &b)];
        for chunks in [MAX_CHUNKS + 1, usize::MAX] {
            let mut dev = Device::new(DeviceConfig::fermi_c2050());
            let err = execute_plan(&plan, bindings, &mut dev, &chunked(chunks)).unwrap_err();
            assert!(matches!(err, WeaverError::Plan { .. }), "{chunks}: {err}");
            assert_eq!(dev.memory().in_use(), 0);
            assert!(dev.spans().is_empty(), "{chunks}: rejected before any work");
        }
        let mut dev = Device::new(DeviceConfig::fermi_c2050());
        let report = execute_plan(&plan, bindings, &mut dev, &chunked(MAX_CHUNKS)).unwrap();
        assert_eq!(report.outputs[&out], ops::join(&a, &b, 1).unwrap());
    }

    #[test]
    fn final_aggregate_chunks_via_partial_merge() {
        let input = gen::micro_input(20_000, 27);
        let mut plan = QueryPlan::new();
        let t = plan.add_input("t", input.schema().clone());
        let a = plan
            .add_op(
                RaOp::Aggregate {
                    group_by: vec![0],
                    aggs: vec![AggFn::Sum(1), AggFn::Count, AggFn::Avg(2)],
                },
                &[t],
            )
            .unwrap();
        plan.mark_output(a);
        let oracle =
            ops::aggregate(&input, &[0], &[AggFn::Sum(1), AggFn::Count, AggFn::Avg(2)]).unwrap();

        let mut dev = Device::new(DeviceConfig::fermi_c2050());
        let report = execute_plan(&plan, &[("t", &input)], &mut dev, &chunked(6)).unwrap();
        assert_eq!(report.strategy, Some(ChunkStrategy::PartialAggregate));
        assert_eq!(report.outputs[&a], oracle, "merged partials == resident");
        assert_eq!(report.chunks, 6);
        kw_gpu_sim::reconcile(dev.spans(), dev.stats()).unwrap();
    }

    #[test]
    fn non_partitionable_plans_rejected() {
        let input = gen::micro_input(1_000, 23);
        let mut plan = QueryPlan::new();
        let t = plan.add_input("t", input.schema().clone());
        let s = plan.add_op(RaOp::Sort { attrs: vec![1] }, &[t]).unwrap();
        plan.mark_output(s);
        assert!(select_chunk_strategy(&plan).is_none());
        let mut dev = Device::new(DeviceConfig::fermi_c2050());
        let err = execute_plan(&plan, &[("t", &input)], &mut dev, &chunked(4)).unwrap_err();
        assert!(err.to_string().contains("partitionable"));
    }

    #[test]
    fn makespan_arithmetic() {
        // One chunk: no overlap possible.
        assert!((pipeline_makespan(&[(1.0, 2.0, 1.0)]) - 4.0).abs() < 1e-12);
        // Two identical chunks: the compute of chunk 0 hides the upload of
        // chunk 1.
        // Serialized would be 8: the pipeline hides chunk 1's upload behind
        // chunk 0's compute and overlaps the downloads, finishing at 6.
        let two = pipeline_makespan(&[(1.0, 2.0, 1.0), (1.0, 2.0, 1.0)]);
        assert!((two - 6.0).abs() < 1e-12, "{two}");
    }
}
