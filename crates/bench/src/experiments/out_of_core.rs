//! Out-of-core chunking campaign: paper patterns on a device smaller than
//! their inputs.
//!
//! The chunk-strategy layer claims that any hash-partitionable,
//! merge-aggregable or row-sliceable plan completes on a device too small
//! for even its *inputs*, byte-identical to resident execution. This
//! campaign puts numbers on the claim with one workload per strategy:
//!
//! * **pattern (b)** — back-to-back JOINs, hash-partitioned by key;
//! * **pattern (c)** — JOINs of selected tables, also hash-partitioned
//!   (the SELECTs ride along inside each bucket pair);
//! * **pattern (d)** — SELECTs sharing one input, plain row slicing;
//! * **(agg)** — a grouped aggregate (COUNT/SUM/MIN/MAX), run as
//!   per-chunk partials merged under operator associativity.
//!
//! Each workload runs fused and unfused through
//! [`execute_compiled_resilient`] on a device capped *below* both its input
//! footprint and its staged peak, so the degradation ladder is forced onto
//! the Chunked rung. Outputs are
//! checked byte-identical against resident execution on an oversized
//! device — out-of-core execution must never change an answer.

use kw_core::{
    admit, compile, execute_compiled_resilient, execute_plan, AdmittedMode, RetryPolicy,
    WeaverConfig,
};
use kw_gpu_sim::{Device, DeviceConfig};
use kw_primitives::RaOp;
use kw_relational::ops::AggFn;
use kw_relational::{Relation, Schema};
use kw_tpch::{Pattern, Workload};

use super::SEED;

/// One (workload × strategy) row of the campaign.
#[derive(Debug, Clone)]
pub struct Row {
    /// Figure-style workload label, e.g. `"(b)"`.
    pub pattern: String,
    /// The chunk strategy the ladder selected (stringified
    /// [`kw_core::ChunkStrategy`]).
    pub strategy: String,
    /// Total bytes of the workload's input relations.
    pub input_bytes: u64,
    /// Device global-memory bytes the campaign capped the run at — always
    /// below `input_bytes`.
    pub device_bytes: u64,
    /// Chunk count the fused run finished at.
    pub chunks: usize,
    /// End-to-end seconds of the fused out-of-core run (overlap-aware,
    /// backoff included).
    pub fused_seconds: f64,
    /// End-to-end seconds of the unfused out-of-core run.
    pub unfused_seconds: f64,
    /// `unfused_seconds / fused_seconds` — fusion's speedup while
    /// chunk-streaming.
    pub fusion_gain: f64,
}

/// A grouped-aggregate workload: 4×u32 tuples whose keys fold into
/// `n / 16` groups (so cross-chunk merges actually combine partials),
/// reduced by every mergeable aggregate class at once.
pub fn aggregate_workload(n: usize, seed: u64) -> Workload {
    use kw_relational::gen::rng;
    use rand::Rng;

    let groups = (n / 16).max(1) as u64;
    let mut r = rng(seed);
    let schema = Schema::uniform_u32(4);
    let mut words = Vec::with_capacity(n * 4);
    for i in 0..n {
        words.push(i as u64 % groups);
        for _ in 0..3 {
            words.push(u64::from(r.gen::<u32>()));
        }
    }
    let input = Relation::from_words(schema.clone(), words).expect("aggregate input");

    let mut plan = kw_core::QueryPlan::new();
    let t = plan.add_input("t", schema);
    let agg = plan
        .add_op(
            RaOp::Aggregate {
                group_by: vec![0],
                aggs: vec![AggFn::Count, AggFn::Sum(1), AggFn::Min(2), AggFn::Max(3)],
            },
            &[t],
        )
        .expect("aggregate type-checks");
    plan.mark_output(agg);
    Workload::new("pattern (agg)", plan, vec![("t".into(), input)])
}

/// The campaign's workloads at `n` tuples per input, with their labels.
fn workloads(n: usize) -> Vec<(String, Workload)> {
    vec![
        ("(b)".into(), Pattern::B.build(n, SEED)),
        ("(c)".into(), Pattern::C.build(n, SEED)),
        ("(d)".into(), Pattern::D.build(n, SEED)),
        ("(agg)".into(), aggregate_workload(n, SEED)),
    ]
}

/// Device capacity that forces `w` out of core: half of the smaller of its
/// input footprint and its fused staged peak, so neither Resident nor
/// Staged can fit and the ladder must select a chunk strategy.
pub fn capacity_for(w: &Workload) -> u64 {
    let bindings = w.bindings();
    let input_bytes: u64 = bindings.iter().map(|(_, r)| r.byte_size() as u64).sum();
    let compiled = compile(&w.plan, &WeaverConfig::default()).expect("campaign plans compile");
    let report = admit(&w.plan, &compiled, &bindings, u64::MAX).expect("oversized admission");
    report.staged_peak.min(input_bytes) / 2
}

fn run_one(label: &str, w: &Workload) -> Row {
    let bindings = w.bindings();
    let input_bytes: u64 = bindings.iter().map(|(_, r)| r.byte_size() as u64).sum();
    let device_bytes = capacity_for(w);
    assert!(
        device_bytes < input_bytes,
        "{label}: campaign device must be smaller than the inputs"
    );

    // Resident oracle on an oversized device.
    let mut big = Device::new(DeviceConfig::fermi_c2050());
    let oracle = execute_plan(&w.plan, &bindings, &mut big, &WeaverConfig::default())
        .expect("oracle run on an oversized device");

    let small = || {
        Device::new(DeviceConfig {
            global_mem_bytes: device_bytes,
            ..DeviceConfig::fermi_c2050()
        })
    };
    let run = |config: &WeaverConfig| {
        let mut dev = small();
        let compiled = compile(&w.plan, config).expect("campaign plans compile");
        let report = execute_compiled_resilient(
            &w.plan,
            &compiled,
            &bindings,
            &mut dev,
            config,
            &RetryPolicy::default(),
        )
        .unwrap_or_else(|e| panic!("{label}: out-of-core run failed: {e}"));
        assert_eq!(
            report.outputs, oracle.outputs,
            "{label}: out-of-core outputs diverged from resident execution"
        );
        assert_eq!(dev.memory().in_use(), 0, "{label}: leaked device memory");
        report
    };

    let fused = run(&WeaverConfig::default());
    let unfused = run(&WeaverConfig::default().baseline());
    assert!(
        fused.total_seconds > 0.0 && unfused.total_seconds > 0.0,
        "{label}: runs must take simulated time"
    );

    let res = fused.resilience.as_ref().expect("resilient run reports");
    let AdmittedMode::Chunked { chunks } = res.final_mode else {
        panic!(
            "{label}: expected the Chunked rung, got {:?}",
            res.final_mode
        );
    };
    let strategy = fused.strategy.expect("chunked runs carry a strategy");

    Row {
        pattern: label.to_string(),
        strategy: strategy.to_string(),
        input_bytes,
        device_bytes,
        chunks,
        fused_seconds: fused.total_seconds,
        unfused_seconds: unfused.total_seconds,
        fusion_gain: unfused.total_seconds / fused.total_seconds,
    }
}

/// Run the full campaign at `n` tuples per input relation.
pub fn run(n: usize) -> Vec<Row> {
    workloads(n)
        .iter()
        .map(|(label, w)| run_one(label, w))
        .collect()
}

/// Render `rows` as the machine-readable `BENCH_out_of_core.json` document
/// the CI gate parses (hand-rolled: the workspace carries no JSON
/// serializer dependency).
pub fn to_json(n: usize, rows: &[Row]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"out_of_core\",\n");
    out.push_str(&format!("  \"tuples_per_input\": {n},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"pattern\": \"{}\", \"strategy\": \"{}\", \
             \"input_bytes\": {}, \"device_bytes\": {}, \"chunks\": {}, \
             \"fused_seconds\": {}, \"unfused_seconds\": {}, \
             \"fusion_gain\": {}}}{}\n",
            r.pattern,
            r.strategy,
            r.input_bytes,
            r.device_bytes,
            r.chunks,
            r.fused_seconds,
            r.unfused_seconds,
            r.fusion_gain,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_core::{execute_batch, BatchQuery, QueryOutcome};

    #[test]
    fn every_strategy_survives_out_of_core() {
        let rows = run(1 << 12);
        let expected = [
            ("(b)", "hash-partition"),
            ("(c)", "hash-partition"),
            ("(d)", "row-slice"),
            ("(agg)", "partial-aggregate"),
        ];
        assert_eq!(rows.len(), expected.len());
        for (r, (pat, strat)) in rows.iter().zip(expected) {
            assert_eq!(r.pattern, pat);
            assert_eq!(r.strategy, strat, "{r:?}");
            assert!(r.chunks >= 2, "{r:?}");
        }
    }

    /// The batch ladder tail also survives a join whale: a pattern (b)
    /// workload too big for any admission wave degrades to hash-partitioned
    /// chunks inside `execute_batch` instead of quarantining, and its
    /// outputs match resident execution.
    #[test]
    fn batch_ladder_tail_chunks_a_join_whale() {
        let normal = Pattern::A.build(1 << 12, SEED);
        let whale = Pattern::B.build(1 << 12, SEED + 1);

        // Capacity between the normal query's resident peak and the
        // whale's staged peak: the normal query runs resident in a wave,
        // the whale is forced onto the ladder tail.
        let peaks = |w: &Workload| {
            let b = w.bindings();
            let c = compile(&w.plan, &WeaverConfig::default()).unwrap();
            admit(&w.plan, &c, &b, u64::MAX).unwrap()
        };
        let normal_resident = peaks(&normal).resident_peak;
        let whale_staged = peaks(&whale).staged_peak;
        assert!(
            normal_resident < whale_staged,
            "campaign sizing assumption broken: {normal_resident} vs {whale_staged}"
        );
        let capacity = whale_staged
            .min(normal_resident * 2)
            .max(normal_resident + 1);

        let mut big = Device::new(DeviceConfig::fermi_c2050());
        let oracle = execute_plan(
            &whale.plan,
            &whale.bindings(),
            &mut big,
            &WeaverConfig::default(),
        )
        .unwrap();

        let nb = normal.bindings();
        let wb = whale.bindings();
        let queries = [
            BatchQuery {
                name: "normal",
                plan: &normal.plan,
                bindings: &nb,
            },
            BatchQuery {
                name: "whale",
                plan: &whale.plan,
                bindings: &wb,
            },
        ];
        let mut dev = Device::new(DeviceConfig {
            global_mem_bytes: capacity,
            ..DeviceConfig::fermi_c2050()
        });
        let batch = execute_batch(
            &queries,
            &crate::experiments::compile_batch(&queries, &WeaverConfig::default()),
            &mut dev,
            &WeaverConfig::default(),
            &RetryPolicy::default(),
        )
        .unwrap();

        let whale_q = &batch.queries[1];
        assert!(
            matches!(
                whale_q.outcome,
                QueryOutcome::Degraded {
                    mode: AdmittedMode::Chunked { .. }
                }
            ),
            "whale must chunk on the ladder tail, got {:?}",
            whale_q.outcome
        );
        assert_eq!(
            whale_q.outputs, oracle.outputs,
            "ladder-tail chunking changed the whale's answer"
        );
        assert!(batch.queries[0].outcome.is_success());
        assert_eq!(dev.memory().in_use(), 0, "batch leaked device memory");
    }

    #[test]
    fn json_export_is_well_formed() {
        let rows = run(1 << 12);
        let json = to_json(1 << 12, &rows);
        kw_gpu_sim::validate_json(&json).expect("out_of_core JSON parses");
        for key in [
            "\"pattern\"",
            "\"strategy\"",
            "\"input_bytes\"",
            "\"device_bytes\"",
            "\"chunks\"",
            "\"fused_seconds\"",
            "\"unfused_seconds\"",
            "\"fusion_gain\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
