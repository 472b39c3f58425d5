//! Diff freshly generated `BENCH_*.json` documents against the committed
//! baselines and fail CI on regression.
//!
//! ```bash
//! cargo run --release -p kw-bench --bin bench_regression -- \
//!     --baseline-dir bench_results/baselines --fresh-dir bench_results
//! ```
//!
//! `--tolerance <fraction>` sets the relative drift band (default 0.05);
//! an unparseable, negative or non-finite value exits with status 2.
//!
//! Every `*.json` under the baseline directory must have a fresh
//! counterpart. Each is a BENCH document written from a
//! [`kw_bench::table::Table`]: `experiment`, `params`, `directions` and
//! `rows`. A row value may drift as the baseline's `directions` declare
//! for its column (see [`Direction`]); `tolerance` is the relative band
//! of `lower`, `higher` and `two_sided`. Every other leaf, the
//! `directions` included, must match exactly, and so must every string,
//! bool and null. A baseline without `directions`, or a row key it
//! declares no direction for, is a failure.
//!
//! Extra keys in the fresh document are allowed (new metrics don't break
//! old baselines); keys missing from the fresh document are failures.

use std::path::Path;

use kw_bench::table::Direction;
use kw_gpu_sim::{parse_json, JsonValue};

/// Default relative tolerance for numeric drift.
const DEFAULT_TOLERANCE: f64 = 0.05;
/// Absolute slack so zero-valued baselines don't demand exact zeros.
const EPS: f64 = 1e-12;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str, default: &str| -> String {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| default.to_string())
    };
    let baseline_dir = get("--baseline-dir", "bench_results/baselines");
    let fresh_dir = get("--fresh-dir", "bench_results");
    let tolerance = match args.iter().position(|a| a == "--tolerance") {
        None => DEFAULT_TOLERANCE,
        Some(i) => {
            parse_tolerance(args.get(i + 1).map_or("", String::as_str)).unwrap_or_else(|e| {
                eprintln!("bench_regression: {e}");
                std::process::exit(2);
            })
        }
    };

    let mut failures: Vec<String> = Vec::new();
    let mut compared = 0usize;
    let entries = match std::fs::read_dir(&baseline_dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("bench_regression: cannot read baseline dir {baseline_dir}: {e}");
            std::process::exit(1);
        }
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        eprintln!("bench_regression: no *.json baselines under {baseline_dir}");
        std::process::exit(1);
    }

    for name in &names {
        let load = |dir: &str, what: &str| -> Result<JsonValue, String> {
            let path = Path::new(dir).join(name);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("{name}: cannot read {what} {}: {e}", path.display()))?;
            parse_json(&text).map_err(|e| format!("{name}: {what} does not parse: {e}"))
        };
        let (base, fresh) = match (
            load(&baseline_dir, "baseline"),
            load(&fresh_dir, "fresh result"),
        ) {
            (Ok(base), Ok(fresh)) => (base, fresh),
            (Err(e), _) | (_, Err(e)) => {
                failures.push(e);
                continue;
            }
        };
        let before = failures.len();
        let leaves = compare_doc(name, &base, &fresh, tolerance, &mut failures);
        compared += leaves;
        println!(
            "  {name}: {leaves} leaves compared, {} failures",
            failures.len() - before
        );
    }

    if failures.is_empty() {
        println!(
            "bench_regression: OK — {} files, {compared} leaves within {tolerance:.0}% \
             (or exact where required)",
            names.len(),
            tolerance = tolerance * 100.0
        );
    } else {
        eprintln!("bench_regression: {} regression(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

/// Parse `--tolerance` as a relative fraction (`0.05` = 5%). NaN would make
/// every comparison pass and a negative value would fail every leaf, so
/// only finite, non-negative numbers are accepted.
fn parse_tolerance(text: &str) -> Result<f64, String> {
    match text.parse::<f64>() {
        Ok(t) if t.is_finite() && t >= 0.0 => Ok(t),
        _ => Err(format!(
            "--tolerance takes a finite, non-negative fraction such as 0.05, got {text:?}"
        )),
    }
}

/// Compare one fresh BENCH document against its baseline: `rows` by the
/// directions the baseline declares, everything else exactly. Returns the
/// number of leaf values checked and appends any regressions to
/// `failures`.
fn compare_doc(
    name: &str,
    base: &JsonValue,
    fresh: &JsonValue,
    tol: f64,
    failures: &mut Vec<String>,
) -> usize {
    let Some(declared) = base.get("directions").and_then(JsonValue::entries) else {
        failures.push(format!("{name}: baseline declares no directions"));
        return 0;
    };
    let mut n = 0;
    for (key, bv) in base.entries().unwrap_or_default() {
        let path = format!("{name}.{key}");
        match (key.as_str(), bv.as_array(), fresh.get(key)) {
            (_, _, None) => failures.push(format!("{path}: missing from fresh result")),
            ("rows", Some(rows), Some(fv)) => {
                n += compare_rows(&path, rows, fv, declared, tol, failures)
            }
            (_, _, Some(fv)) => n += compare(&path, bv, fv, Direction::Exact, tol, failures),
        }
    }
    n
}

/// Compare a fresh `rows` array against the baseline's, each row key by
/// its `declared` direction; an undeclared key is a failure.
fn compare_rows(
    path: &str,
    base: &[JsonValue],
    fresh: &JsonValue,
    declared: &[(String, JsonValue)],
    tol: f64,
    failures: &mut Vec<String>,
) -> usize {
    let fresh = fresh.as_array().unwrap_or_default();
    if base.len() != fresh.len() {
        failures.push(format!("{path}: {} rows -> {}", base.len(), fresh.len()));
        return 0;
    }
    let mut n = 0;
    for (i, (brow, frow)) in base.iter().zip(fresh).enumerate() {
        let path = format!("{path}[{i}]");
        let Some(cells) = brow.entries() else {
            n += compare(&path, brow, frow, Direction::Exact, tol, failures);
            continue;
        };
        for (col, bcell) in cells {
            let path = format!("{path}.{col}");
            let direction = declared
                .iter()
                .find(|(k, _)| k == col)
                .and_then(|(_, d)| d.as_str())
                .and_then(Direction::parse);
            match (direction, frow.get(col)) {
                (None, _) => failures.push(format!("{path}: no declared direction")),
                (_, None) => failures.push(format!("{path}: missing from fresh result")),
                (Some(d), Some(fcell)) => n += compare(&path, bcell, fcell, d, tol, failures),
            }
        }
    }
    n
}

/// Compare `fresh` against `base` recursively, numbers by `direction`;
/// returns the number of leaf values checked and appends any regressions
/// to `failures`.
fn compare(
    path: &str,
    base: &JsonValue,
    fresh: &JsonValue,
    direction: Direction,
    tol: f64,
    failures: &mut Vec<String>,
) -> usize {
    match (base, fresh) {
        (JsonValue::Object(base_entries), JsonValue::Object(_)) => {
            let mut n = 0;
            for (key, bv) in base_entries {
                match fresh.get(key) {
                    Some(fv) => {
                        n += compare(&format!("{path}.{key}"), bv, fv, direction, tol, failures)
                    }
                    None => failures.push(format!("{path}.{key}: missing from fresh result")),
                }
            }
            n
        }
        (JsonValue::Array(bs), JsonValue::Array(fs)) => {
            if bs.len() != fs.len() {
                failures.push(format!(
                    "{path}: array length changed {} -> {}",
                    bs.len(),
                    fs.len()
                ));
                return 0;
            }
            bs.iter()
                .zip(fs)
                .enumerate()
                .map(|(i, (b, f))| compare(&format!("{path}[{i}]"), b, f, direction, tol, failures))
                .sum()
        }
        (JsonValue::Number(b), JsonValue::Number(f)) => {
            let slack = tol * b.abs() + EPS;
            let bad = match direction {
                Direction::Lower => *f > b + slack,
                Direction::Higher => *f < b - slack,
                Direction::Exact => f != b,
                Direction::TwoSided => (f - b).abs() > slack,
            };
            if bad {
                failures.push(format!(
                    "{path}: {b} -> {f} ({}, tolerance {tol})",
                    direction.name()
                ));
            }
            1
        }
        (JsonValue::Str(b), JsonValue::Str(f)) => {
            if b != f {
                failures.push(format!("{path}: \"{b}\" -> \"{f}\" (strings must match)"));
            }
            1
        }
        (JsonValue::Bool(b), JsonValue::Bool(f)) => {
            if b != f {
                failures.push(format!("{path}: {b} -> {f}"));
            }
            1
        }
        (JsonValue::Null, JsonValue::Null) => 1,
        _ => {
            failures.push(format!("{path}: type changed"));
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diff(base: &str, fresh: &str) -> Vec<String> {
        let mut failures = Vec::new();
        compare_doc(
            "doc",
            &parse_json(base).unwrap(),
            &parse_json(fresh).unwrap(),
            0.05,
            &mut failures,
        );
        failures
    }

    /// A one-row document whose column `x` declares `direction`.
    fn doc(direction: &str, x: &str) -> String {
        format!(
            "{{\"experiment\": \"t\", \"params\": {{\"n\": 8}}, \
             \"directions\": {{\"x\": \"{direction}\"}}, \"rows\": [{{\"x\": {x}}}]}}"
        )
    }

    /// Failures when column `x`, declared `direction`, moves `base -> fresh`.
    fn drift(direction: &str, base: &str, fresh: &str) -> usize {
        diff(&doc(direction, base), &doc(direction, fresh)).len()
    }

    /// The committed `BENCH_<experiment>.json` baseline.
    fn baseline(experiment: &str) -> JsonValue {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../bench_results/baselines")
            .join(format!("BENCH_{experiment}.json"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        parse_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// The gate on the committed `experiment` baseline, which must pass
    /// against itself: the returned function counts the failures when a
    /// column, declared as that baseline declares it, moves `base -> fresh`.
    fn gate(experiment: &str) -> impl Fn(&str, &str, &str) -> usize {
        let base = baseline(experiment);
        let mut failures = Vec::new();
        compare_doc(experiment, &base, &base, 0.05, &mut failures);
        assert!(failures.is_empty(), "{failures:?}");
        let experiment = experiment.to_string();
        move |column, from, to| {
            let direction = base
                .get("directions")
                .and_then(|d| d.get(column))
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("{experiment} declares no direction for {column}"));
            drift(direction, from, to)
        }
    }

    #[test]
    fn tolerance_must_be_a_finite_non_negative_fraction() {
        assert_eq!(parse_tolerance("0.05"), Ok(0.05));
        assert_eq!(parse_tolerance("0"), Ok(0.0));
        for bad in ["", "nan", "NaN", "inf", "-inf", "-0.01", "5%", "five"] {
            assert!(parse_tolerance(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn seconds_regress_only_upward() {
        // `lower` fails only upward, past the tolerance.
        assert_eq!(drift("lower", "1.0", "1.04"), 0);
        assert_eq!(drift("lower", "1.0", "0.5"), 0);
        assert_eq!(drift("lower", "1.0", "1.2"), 1);
        // The declaration decides, not the name: a `_seconds` column
        // declared `higher` fails only downward.
        let named = |x: &str| doc("higher", x).replace("\"x\"", "\"a_seconds\"");
        assert!(diff(&named("1.0"), &named("2.0")).is_empty());
        assert_eq!(diff(&named("1.0"), &named("0.5")).len(), 1);
    }

    #[test]
    fn throughput_regresses_only_downward() {
        // `higher` fails only downward, past the tolerance.
        assert_eq!(drift("higher", "100", "300"), 0);
        assert_eq!(drift("higher", "100", "96"), 0);
        assert_eq!(drift("higher", "100", "90"), 1);
    }

    #[test]
    fn two_sided_drift_fails_both_ways() {
        assert_eq!(drift("two_sided", "0.5", "0.51"), 0);
        assert_eq!(drift("two_sided", "0.5", "0.6"), 1);
        assert_eq!(drift("two_sided", "0.5", "0.4"), 1);
    }

    #[test]
    fn strings_and_structure_must_match_exactly() {
        assert_eq!(drift("exact", "4", "5"), 1);
        assert_eq!(drift("exact", "4", "4"), 0);
        // Strings, bools and nulls match exactly whatever the declaration.
        assert_eq!(drift("higher", "\"transfer\"", "\"launch\""), 1);
        assert_eq!(drift("lower", "true", "false"), 1);
        assert_eq!(drift("lower", "null", "null"), 0);
        assert_eq!(drift("lower", "null", "0.5"), 1);
        // A row more or less fails, and so does a missing column; an extra
        // fresh key is fine.
        let two_rows = doc("exact", "1").replace("[{\"x\": 1}]", "[{\"x\": 1}, {\"x\": 1}]");
        assert_eq!(diff(&doc("exact", "1"), &two_rows).len(), 1);
        let renamed = doc("exact", "1").replace("{\"x\": 1}", "{\"y\": 1}");
        assert_eq!(diff(&doc("exact", "1"), &renamed).len(), 1);
        let extra = doc("exact", "1").replace("{\"x\": 1}", "{\"x\": 1, \"y\": 2}");
        assert!(diff(&doc("exact", "1"), &extra).is_empty());
    }

    #[test]
    fn engine_utilization_is_higher_is_better() {
        let base = baseline("scheduler");
        let declared = base.get("directions").and_then(JsonValue::entries);
        let engines: Vec<&str> = declared
            .unwrap_or_default()
            .iter()
            .map(|(column, _)| column.as_str())
            .filter(|column| column.ends_with("_utilization"))
            .collect();
        assert!(!engines.is_empty(), "scheduler declares no engine columns");
        let gate = gate("scheduler");
        for engine in engines {
            assert_eq!(gate(engine, "0.8", "0.8"), 0, "{engine}");
            assert_eq!(gate(engine, "0.8", "0.9"), 0, "{engine}");
            assert_eq!(gate(engine, "0.8", "0.5"), 1, "{engine}");
        }
    }

    #[test]
    fn resilience_metrics_have_typed_directions() {
        let gate = gate("batch_resilience");
        // Goodput may not fall...
        assert_eq!(gate("goodput_qps", "100", "120"), 0);
        assert_eq!(gate("goodput_qps", "100", "90"), 1);
        // ...quarantines may not rise...
        assert_eq!(gate("quarantined", "2", "0"), 0);
        assert_eq!(gate("quarantined", "0", "1"), 1);
        // ...and the wave structure is exact.
        assert_eq!(gate("waves", "2", "3"), 1);
        assert_eq!(gate("waves", "2", "2"), 0);
    }

    #[test]
    fn out_of_core_metrics_have_typed_directions() {
        let gate = gate("out_of_core");
        // Strategy strings are structural...
        assert_eq!(gate("strategy", "\"hash-partition\"", "\"row-slice\""), 1);
        // ...byte footprints are exact...
        assert_eq!(gate("input_bytes", "1024", "1025"), 1);
        assert_eq!(gate("device_bytes", "512", "256"), 1);
        // ...and chunk counts may shrink but not grow.
        assert_eq!(gate("chunks", "8", "4"), 0);
        assert_eq!(gate("chunks", "8", "16"), 1);
    }

    #[test]
    fn service_metrics_have_typed_directions() {
        // Arrival accounting is a run parameter, and parameters are exact.
        let base = baseline("service");
        for key in ["arrivals", "seed"] {
            assert!(
                base.get("params").and_then(|p| p.get(key)).is_some(),
                "service params lack {key}"
            );
        }
        let gate = gate("service");
        // Achieved QPS and the saturation knee may not fall...
        for prefix in ["cached", "uncached"] {
            let column = format!("{prefix}_achieved_qps");
            assert_eq!(gate(&column, "100", "150"), 0, "{column}");
            assert_eq!(gate(&column, "100", "90"), 1, "{column}");
        }
        assert_eq!(gate("saturation_offered_qps", "500", "700"), 0);
        assert_eq!(gate("saturation_offered_qps", "500", "400"), 1);
        // ...the cache's p99 gain may not shrink...
        assert_eq!(gate("p99_gain", "2.0", "3.0"), 0);
        assert_eq!(gate("p99_gain", "2.0", "1.5"), 1);
        for prefix in ["cached", "uncached"] {
            let column = |field: &str| format!("{prefix}_{field}");
            // ...completions, dispatches and cache counters are structural...
            for field in ["completed", "dispatches", "cache_hits", "cache_misses"] {
                assert_eq!(gate(&column(field), "96", "95"), 1, "{field} must be exact");
            }
            // ...failures and evictions may shrink but not grow...
            assert_eq!(gate(&column("failed"), "2", "0"), 0);
            assert_eq!(gate(&column("failed"), "0", "1"), 1);
            assert_eq!(gate(&column("cache_evictions"), "4", "1"), 0);
            assert_eq!(gate(&column("cache_evictions"), "1", "4"), 1);
            // ...SLO verdicts are booleans and must match, and an
            // all-failed run's explicit null percentile stays null.
            assert_eq!(gate(&column("slo_met"), "true", "false"), 1);
            assert_eq!(gate(&column("total_p99_seconds"), "null", "null"), 0);
        }
    }

    #[test]
    fn arena_metrics_have_typed_directions() {
        let gate = gate("arena");
        // Span counts may shrink but never grow past the O(1) baseline...
        assert_eq!(gate("fused_alloc_spans", "1", "1"), 0);
        assert_eq!(gate("fused_alloc_spans", "1", "7"), 1);
        assert_eq!(gate("unfused_free_spans", "1", "2"), 1);
        // ...spills may not appear...
        assert_eq!(gate("spills", "1", "0"), 0);
        assert_eq!(gate("spills", "0", "1"), 1);
        // ...absorbed churn may not shrink...
        assert_eq!(gate("saved_alloc_pairs", "5", "6"), 0);
        assert_eq!(gate("saved_alloc_pairs", "5", "4"), 1);
        // ...and the byte envelopes and sub-allocation counts are exact.
        for key in [
            "fused_sub_allocs",
            "unfused_sub_allocs",
            "reservation_bytes",
            "high_water_bytes",
        ] {
            assert_eq!(gate(key, "96", "95"), 1, "{key} must be exact");
        }
    }

    #[test]
    fn params_and_declarations_must_match_exactly() {
        let base = doc("lower", "1.0");
        let drifted = base.replace("{\"n\": 8}", "{\"n\": 9}");
        assert_eq!(diff(&base, &drifted).len(), 1);
        let redeclared = base.replace("{\"x\": \"lower\"}", "{\"x\": \"two_sided\"}");
        assert_eq!(diff(&base, &redeclared).len(), 1);
    }

    #[test]
    fn undeclared_columns_and_baselines_without_directions_fail() {
        let base = doc("lower", "1.0").replace("{\"x\": 1.0}", "{\"x\": 1.0, \"y\": 2}");
        let failures = diff(&base, &base);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("rows[0].y: no declared direction"),
            "{failures:?}"
        );
        // An unknown direction name declares nothing.
        assert_eq!(drift("sideways", "1.0", "1.0"), 1);
        let bare = "{\"experiment\": \"t\", \"rows\": [{\"x\": 1.0}]}";
        let failures = diff(bare, bare);
        assert_eq!(failures, ["doc: baseline declares no directions"]);
    }
}
