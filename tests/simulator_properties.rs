//! Property-based tests of the GPU simulator substrate and the relational
//! data model: occupancy monotonicity, cost-model linearity, memory-tracker
//! conservation, and the algebraic laws of the CPU reference operators.

use std::collections::BTreeMap;

use proptest::prelude::*;

use kw_gpu_sim::{
    kernel_cost, occupancy, DeviceConfig, Engine, KernelQuantities, KernelResources, LaunchDims,
    MemoryTracker, StreamModel,
};
use kw_relational::{gen, ops, CmpOp, Predicate, Relation, Schema, Value};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Occupancy never increases when a kernel demands more registers or
    /// more shared memory.
    #[test]
    fn occupancy_is_monotone(
        threads in 32u32..1024,
        regs in 1u32..63,
        shared in 0u32..48 * 1024,
        dr in 0u32..8,
        ds in 0u32..4096,
    ) {
        let cfg = DeviceConfig::fermi_c2050();
        let base = occupancy(&cfg, threads, regs, shared);
        let more_regs = occupancy(&cfg, threads, regs + dr, shared);
        let more_shared = occupancy(&cfg, threads, regs, shared + ds);
        prop_assert!(more_regs.occupancy <= base.occupancy + 1e-12);
        prop_assert!(more_shared.occupancy <= base.occupancy + 1e-12);
    }

    /// Kernel cost grows monotonically in every work quantity.
    #[test]
    fn kernel_cost_is_monotone(
        bytes in 0u64..1 << 28,
        extra in 0u64..1 << 24,
        alu in 0u64..1 << 24,
    ) {
        let cfg = DeviceConfig::fermi_c2050();
        let dims = LaunchDims::new(1024, 256);
        let res = KernelResources { registers_per_thread: 20, shared_per_cta: 2048 };
        let q1 = KernelQuantities { global_bytes_read: bytes, alu_ops: alu, ..Default::default() };
        let q2 = KernelQuantities {
            global_bytes_read: bytes + extra, alu_ops: alu, ..Default::default()
        };
        let c1 = kernel_cost(&cfg, dims, res, &q1).unwrap();
        let c2 = kernel_cost(&cfg, dims, res, &q2).unwrap();
        prop_assert!(c2.total_cycles() >= c1.total_cycles());
    }

    /// The memory tracker conserves bytes: after freeing everything,
    /// in-use returns to zero and peak ≥ any single allocation.
    #[test]
    fn memory_tracker_conserves(allocs in proptest::collection::vec(1u64..1 << 16, 1..32)) {
        let total: u64 = allocs.iter().sum();
        let mut m = MemoryTracker::new(total);
        let ids: Vec<_> = allocs
            .iter()
            .map(|&b| m.alloc(b, "x").expect("fits"))
            .collect();
        prop_assert_eq!(m.in_use(), total);
        prop_assert_eq!(m.peak(), total);
        for id in ids {
            m.free(id).expect("live");
        }
        prop_assert_eq!(m.in_use(), 0);
        prop_assert_eq!(m.peak(), total);
        prop_assert_eq!(m.total_allocated(), total);
    }

    /// SELECT distributes over predicate conjunction:
    /// σ_{p∧q}(R) = σ_q(σ_p(R)).
    #[test]
    fn select_conjunction_law(n in 0usize..400, seed in any::<u64>(), a in any::<u32>(), b in any::<u32>()) {
        let r = gen::micro_input(n, seed);
        let p = Predicate::cmp(1, CmpOp::Lt, Value::U32(a));
        let q = Predicate::cmp(2, CmpOp::Ge, Value::U32(b));
        let both = ops::select(&r, &p.clone().and(q.clone())).unwrap();
        let seq = ops::select(&ops::select(&r, &p).unwrap(), &q).unwrap();
        prop_assert_eq!(both, seq);
    }

    /// Set-operation laws on keyed relations: A∩A = unique-by-key(A),
    /// A∖A = ∅, A∪∅ = A.
    #[test]
    fn set_operation_laws(n in 0usize..300, seed in any::<u64>()) {
        let a = gen::random_relation(
            &Schema::uniform_u32(2), n, 64, &mut gen::rng(seed),
        );
        let empty = Relation::empty(a.schema().clone());
        prop_assert!(ops::difference(&a, &a).unwrap().is_empty());
        // One tuple per distinct key (UNION/INTERSECT are keyed set ops).
        let distinct_keys = {
            let mut keys: Vec<u64> = a.iter().map(|t| t[0]).collect();
            keys.dedup();
            keys.len()
        };
        let union = ops::union(&a, &empty).unwrap();
        prop_assert_eq!(union.len(), distinct_keys);
        let inter = ops::intersect(&a, &a).unwrap();
        prop_assert_eq!(inter, union);
    }

    /// JOIN cardinality equals the sum over shared keys of the product of
    /// per-side multiplicities.
    #[test]
    fn join_cardinality(n in 0usize..200, m in 0usize..200, seed in any::<u64>()) {
        let a = gen::random_relation(&Schema::uniform_u32(2), n, 32, &mut gen::rng(seed));
        let b = gen::random_relation(&Schema::uniform_u32(2), m, 32, &mut gen::rng(seed ^ 1));
        let j = ops::join(&a, &b, 1).unwrap();
        let mut expected = 0usize;
        for k in 0..32u64 {
            let ca = a.iter().filter(|t| t[0] == k).count();
            let cb = b.iter().filter(|t| t[0] == k).count();
            expected += ca * cb;
        }
        prop_assert_eq!(j.len(), expected);
    }

    /// sort_on is idempotent and preserves the multiset of tuples.
    #[test]
    fn sort_on_permutes(n in 0usize..300, seed in any::<u64>(), attr in 0usize..4) {
        let r = gen::micro_input(n, seed);
        let s = ops::sort_on(&r, &[attr]).unwrap();
        prop_assert_eq!(s.len(), r.len());
        prop_assert!(s.is_sorted());
        let again = ops::sort_on(&s, &[0]).unwrap();
        prop_assert_eq!(again.words(), s.words());
    }

    /// Relations round-trip through rows.
    #[test]
    fn relation_row_roundtrip(n in 0usize..100, seed in any::<u64>()) {
        let r = gen::micro_input(n, seed);
        let rows = r.to_rows();
        let r2 = Relation::from_rows(r.schema().clone(), &rows).unwrap();
        prop_assert_eq!(r, r2);
    }

    /// On a pure three-stage pipeline (upload → compute → download per
    /// chunk, one stream per chunk, one compute engine) the stream/event
    /// scheduler's makespan equals the closed-form recurrence the chunked
    /// executor used to report. Durations are small integers, so the
    /// f64 oracle arithmetic is exact and the comparison needs no epsilon.
    #[test]
    fn stream_makespan_matches_pipeline_oracle(
        durations in proptest::collection::vec((1u64..1_000, 1u64..1_000, 1u64..1_000), 1..24),
    ) {
        let mut model = StreamModel::new(1);
        for &(h2d, gpu, d2h) in &durations {
            let s = model.create_stream();
            model.schedule(s, Engine::CopyH2D, h2d, 0).unwrap();
            model.schedule(s, model.compute_engine(s), gpu, 0).unwrap();
            model.schedule(s, Engine::CopyD2H, d2h, 0).unwrap();
        }
        let oracle: Vec<(f64, f64, f64)> = durations
            .iter()
            .map(|&(h, g, d)| (h as f64, g as f64, d as f64))
            .collect();
        prop_assert_eq!(
            model.makespan() as f64,
            kw_core::pipeline_makespan(&oracle),
            "stream schedule must reproduce the three-stage recurrence"
        );
    }

    /// The model's running totals agree with the intervals `schedule`
    /// returns: `engine_busy()` is each engine's sum of interval lengths
    /// and `makespan()` is the latest interval end, whatever the mix of
    /// streams, engines, issue floors and cross-stream event waits.
    #[test]
    fn stream_totals_match_scheduled_intervals(
        compute_engines in 1u32..4,
        ops in proptest::collection::vec((0u8..6, 0u64..10_000, 0u64..20_000), 1..48),
    ) {
        let mut model = StreamModel::new(compute_engines);
        let streams: Vec<_> = (0..4).map(|_| model.create_stream()).collect();
        let mut busy: BTreeMap<Engine, u64> = BTreeMap::new();
        let mut latest = 0u64;
        for (i, &(pick, duration, not_before)) in ops.iter().enumerate() {
            let s = streams[i % streams.len()];
            if pick == 5 {
                let ev = model.record_event(s).unwrap();
                model.wait_event(streams[(i + 1) % streams.len()], ev).unwrap();
            }
            let engine = match pick {
                0 => Engine::CopyH2D,
                1 => Engine::CopyD2H,
                _ => model.compute_engine(s),
            };
            let (start, end) = model.schedule(s, engine, duration, not_before).unwrap();
            prop_assert_eq!(end - start, duration);
            prop_assert!(start >= not_before);
            *busy.entry(engine).or_insert(0) += end - start;
            latest = latest.max(end);
        }
        prop_assert_eq!(model.engine_busy(), &busy);
        prop_assert_eq!(model.makespan(), latest);
    }

    /// The stream scheduler's makespan is bounded on both sides: it never
    /// exceeds the fully serialized sum of all scheduled work, and it never
    /// beats the busiest single engine (engines process one op at a time).
    #[test]
    fn stream_makespan_is_bounded(
        compute_engines in 1u32..4,
        ops in proptest::collection::vec((0u8..5, 1u64..10_000), 1..48),
    ) {
        let mut model = StreamModel::new(compute_engines);
        let streams: Vec<_> = (0..4).map(|_| model.create_stream()).collect();
        for &(pick, duration) in &ops {
            let s = streams[(pick as usize) % streams.len()];
            let engine = match pick {
                0 => Engine::CopyH2D,
                1 => Engine::CopyD2H,
                _ => model.compute_engine(s),
            };
            model.schedule(s, engine, duration, 0).unwrap();
        }
        let serialized: u64 = ops.iter().map(|&(_, d)| d).sum();
        let busiest = model.engine_busy().values().copied().max().unwrap_or(0);
        prop_assert!(model.makespan() <= serialized);
        prop_assert!(model.makespan() >= busiest);
    }
}
