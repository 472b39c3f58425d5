//! Scratch-arena alloc-churn campaign over the paper's micro patterns.
//!
//! Before the device-side arena, every intermediate of every step paid a
//! device `alloc`/`free` round trip: O(steps) tracked allocations per
//! plan, multiplied by the chunk count for out-of-core runs. The arena
//! collapses that to exactly one reservation per plan — sub-allocations
//! are pure offset arithmetic and emit no spans — so the Alloc/Free span
//! counts in the trace are the direct measure of the churn removed.
//!
//! For each of patterns (a)–(d) this experiment runs the plan fused and
//! unfused on fresh devices, byte-checks the two outputs against each
//! other, and records: the Alloc/Free spans each run actually emitted
//! (the O(1) claim, asserted per row and pinned by the regression gate),
//! the sub-allocations the arena absorbed span-free (the churn that used
//! to be device traffic), the reservation and high-water bytes, spill
//! count (zero: the admission predictor replays the executor's schedule,
//! so the reservation is exact), and the fused/unfused wallclocks (no
//! regression from routing every buffer through the arena).

use kw_gpu_sim::SpanKind;
use kw_tpch::Pattern;

/// One pattern of the arena churn table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Pattern label, e.g. `(a)`.
    pub pattern: String,
    /// Alloc spans the fused run emitted (the arena's one reservation).
    pub fused_alloc_spans: u64,
    /// Free spans the fused run emitted (the one release).
    pub fused_free_spans: u64,
    /// Alloc spans the unfused run emitted.
    pub unfused_alloc_spans: u64,
    /// Free spans the unfused run emitted.
    pub unfused_free_spans: u64,
    /// Sub-allocations the arena served span-free, fused.
    pub fused_sub_allocs: u64,
    /// Sub-allocations the arena served span-free, unfused (one per
    /// per-step intermediate — the churn the arena absorbed).
    pub unfused_sub_allocs: u64,
    /// Upfront reservation of the unfused run (the larger envelope).
    pub reservation_bytes: u64,
    /// High-water mark the unfused run actually reached.
    pub high_water_bytes: u64,
    /// Overflow spills past the reservation, summed over both runs.
    pub spills: u64,
    /// Fused end-to-end wallclock, seconds.
    pub fused_seconds: f64,
    /// Unfused end-to-end wallclock, seconds.
    pub unfused_seconds: f64,
}

impl Row {
    /// Device alloc/free pairs the arena removed from the unfused run:
    /// every sub-allocation used to be a tracked device allocation.
    pub fn saved_alloc_pairs(&self) -> u64 {
        self.unfused_sub_allocs
            .saturating_sub(self.unfused_alloc_spans)
    }
}

/// The patterns the campaign covers — (e) has no unfused counterpart
/// distinct enough to quantify churn, so the table matches Figure 17's
/// (a)–(d) set.
pub fn patterns() -> [Pattern; 4] {
    [Pattern::A, Pattern::B, Pattern::C, Pattern::D]
}

fn span_count(report: &kw_core::PlanReport, kind: SpanKind) -> u64 {
    report.spans.iter().filter(|s| s.kind == kind).count() as u64
}

/// Run the campaign at `n` tuples per input.
pub fn run(n: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for pattern in patterns() {
        let w = pattern.build(n, super::SEED);
        let cfg = super::resident();

        let mut fused_dev = super::device();
        let fused = w.run(&mut fused_dev, &cfg).expect("fused arena run");
        let mut base_dev = super::device();
        let base = w
            .run(&mut base_dev, &cfg.baseline())
            .expect("unfused arena run");
        assert_eq!(
            fused.outputs, base.outputs,
            "{}: fused and unfused outputs must stay byte-identical",
            w.name
        );

        let fused_arena = fused.arena.expect("fused run reports arena stats");
        let base_arena = base.arena.expect("unfused run reports arena stats");
        let spills = fused_dev.metrics().counter("kw_arena_spills_total")
            + base_dev.metrics().counter("kw_arena_spills_total");
        let row = Row {
            pattern: pattern.label().to_string(),
            fused_alloc_spans: span_count(&fused, SpanKind::Alloc),
            fused_free_spans: span_count(&fused, SpanKind::Free),
            unfused_alloc_spans: span_count(&base, SpanKind::Alloc),
            unfused_free_spans: span_count(&base, SpanKind::Free),
            fused_sub_allocs: fused_arena.sub_allocs,
            unfused_sub_allocs: base_arena.sub_allocs,
            reservation_bytes: base_arena.reservation,
            high_water_bytes: base_arena.high_water,
            spills,
            fused_seconds: fused.total_seconds,
            unfused_seconds: base.total_seconds,
        };
        // The arena contract: one reservation and one release per run, no
        // spills past it, and the unfused run's per-step churn absorbed.
        for spans in [
            row.fused_alloc_spans,
            row.fused_free_spans,
            row.unfused_alloc_spans,
            row.unfused_free_spans,
        ] {
            assert_eq!(
                spans, 1,
                "{}: Alloc/Free spans must stay O(1): {row:?}",
                w.name
            );
        }
        assert_eq!(row.spills, 0, "{}: spilled past the reservation", w.name);
        assert!(
            0 < row.reservation_bytes && row.high_water_bytes <= row.reservation_bytes,
            "{}: high-water must fit a non-empty reservation: {row:?}",
            w.name
        );
        assert!(
            row.unfused_sub_allocs >= row.fused_sub_allocs && row.saved_alloc_pairs() > 0,
            "{}: the arena must absorb the unfused run's churn: {row:?}",
            w.name
        );
        assert!(
            row.fused_seconds > 0.0 && row.unfused_seconds > 0.0,
            "{}: runs must take simulated time: {row:?}",
            w.name
        );
        rows.push(row);
    }
    rows
}

/// Render `rows` as the machine-readable `BENCH_arena.json` document the
/// regression gate diffs against its committed baseline (hand-rolled: the
/// workspace carries no JSON serializer dependency).
pub fn to_json(n: usize, rows: &[Row]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"arena\",\n");
    out.push_str(&format!("  \"tuples_per_input\": {n},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"pattern\": \"{}\", \
             \"fused_alloc_spans\": {}, \"fused_free_spans\": {}, \
             \"unfused_alloc_spans\": {}, \"unfused_free_spans\": {}, \
             \"fused_sub_allocs\": {}, \"unfused_sub_allocs\": {}, \
             \"saved_alloc_pairs\": {}, \
             \"reservation_bytes\": {}, \"high_water_bytes\": {}, \
             \"spills\": {}, \
             \"fused_seconds\": {}, \"unfused_seconds\": {}}}{}\n",
            r.pattern,
            r.fused_alloc_spans,
            r.fused_free_spans,
            r.unfused_alloc_spans,
            r.unfused_free_spans,
            r.fused_sub_allocs,
            r.unfused_sub_allocs,
            r.saved_alloc_pairs(),
            r.reservation_bytes,
            r.high_water_bytes,
            r.spills,
            r.fused_seconds,
            r.unfused_seconds,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_spans_are_constant_and_spill_free() {
        // `run` asserts the arena contract on every row it returns.
        assert_eq!(run(1 << 12).len(), patterns().len());
    }

    #[test]
    fn json_export_is_well_formed() {
        let rows = run(1 << 10);
        assert_eq!(rows.len(), patterns().len());
        let json = to_json(1 << 10, &rows);
        kw_gpu_sim::validate_json(&json).expect("arena JSON parses");
        for key in [
            "\"fused_alloc_spans\"",
            "\"unfused_sub_allocs\"",
            "\"saved_alloc_pairs\"",
            "\"reservation_bytes\"",
            "\"spills\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }
}
