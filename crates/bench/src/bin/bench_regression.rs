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
//! counterpart. Documents are compared leaf-by-leaf with a direction
//! inferred from the metric name:
//!
//! * keys ending in `_seconds` are lower-is-better — a fresh value more
//!   than `tolerance` above the baseline is a regression;
//! * throughputs and gains (`throughput_qps`, `achieved_qps`,
//!   `saturation_offered_qps`, `speedup_vs_serial`, `fusion_gain`,
//!   `p99_gain`) and keys under `engine_utilization` are higher-is-better;
//! * structural integers (`queries`, `tuples_per_query`, `arrivals`,
//!   `completed`, cache counters, seeds) and every string (bottleneck
//!   classifications!) must match exactly;
//! * failure counts (`quarantined`, `failed`, `cache_evictions`) and
//!   arena churn (`*_alloc_spans`, `*_free_spans`, `spills`) are
//!   lower-is-better; arena byte envelopes and sub-allocation counts are
//!   exact;
//! * all other numbers are two-sided: any relative drift beyond
//!   `tolerance` fails, in either direction.
//!
//! Extra keys in the fresh document are allowed (new metrics don't break
//! old baselines); keys missing from the fresh document are failures.

use std::path::Path;

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
        let base_path = Path::new(&baseline_dir).join(name);
        let fresh_path = Path::new(&fresh_dir).join(name);
        let base_text = match std::fs::read_to_string(&base_path) {
            Ok(t) => t,
            Err(e) => {
                failures.push(format!("{name}: cannot read baseline: {e}"));
                continue;
            }
        };
        let fresh_text = match std::fs::read_to_string(&fresh_path) {
            Ok(t) => t,
            Err(e) => {
                failures.push(format!(
                    "{name}: missing fresh result {}: {e}",
                    fresh_path.display()
                ));
                continue;
            }
        };
        let base = match parse_json(&base_text) {
            Ok(v) => v,
            Err(e) => {
                failures.push(format!("{name}: baseline does not parse: {e}"));
                continue;
            }
        };
        let fresh = match parse_json(&fresh_text) {
            Ok(v) => v,
            Err(e) => {
                failures.push(format!("{name}: fresh result does not parse: {e}"));
                continue;
            }
        };
        let before = failures.len();
        let leaves = compare(name, &base, &fresh, tolerance, &mut failures);
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

/// How a numeric metric is allowed to drift.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Direction {
    /// Fails only when fresh is worse = larger (times).
    LowerIsBetter,
    /// Fails only when fresh is worse = smaller (throughputs, speedups).
    HigherIsBetter,
    /// Structural value: must match exactly.
    Exact,
    /// Any drift beyond tolerance fails.
    TwoSided,
}

/// Classify a leaf by its path (`rows[0].latency_p95_seconds`, ...).
fn direction(path: &str) -> Direction {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    let leaf = leaf.split('[').next().unwrap_or(leaf);
    if leaf.ends_with("_seconds") {
        return Direction::LowerIsBetter;
    }
    if leaf == "throughput_qps"
        || leaf == "goodput_qps"
        || leaf == "achieved_qps"
        || leaf == "saturation_offered_qps"
        || leaf == "speedup_vs_serial"
        || leaf == "fusion_gain"
        || leaf == "p99_gain"
        || path.contains("engine_utilization")
    {
        return Direction::HigherIsBetter;
    }
    if leaf == "quarantined" || leaf == "failed" || leaf == "cache_evictions" {
        return Direction::LowerIsBetter;
    }
    // Scratch-arena churn: alloc/free span counts and reservation spills
    // are the churn the arena exists to remove — they may shrink but never
    // grow past the committed O(1) baseline.
    if leaf.ends_with("_alloc_spans") || leaf.ends_with("_free_spans") || leaf == "spills" {
        return Direction::LowerIsBetter;
    }
    // The device alloc/free round trips the arena absorbed may not shrink.
    if leaf == "saved_alloc_pairs" {
        return Direction::HigherIsBetter;
    }
    if leaf == "queries"
        || leaf == "tuples_per_query"
        || leaf == "tuples_per_input"
        || leaf == "waves"
        || leaf == "input_bytes"
        || leaf == "device_bytes"
        || leaf == "arrivals"
        || leaf == "shapes"
        || leaf == "completed"
        || leaf == "dispatches"
        || leaf == "cache_hits"
        || leaf == "cache_misses"
        || leaf == "seed"
        || leaf == "fused_sub_allocs"
        || leaf == "unfused_sub_allocs"
        || leaf == "reservation_bytes"
        || leaf == "high_water_bytes"
    {
        return Direction::Exact;
    }
    // Out-of-core chunk counts: a coarser decomposition (fewer chunks) is
    // fine, needing *more* chunks than the baseline for the same workload
    // means per-chunk footprints grew.
    if leaf == "chunks" {
        return Direction::LowerIsBetter;
    }
    Direction::TwoSided
}

/// Compare `fresh` against `base` recursively; returns the number of leaf
/// values checked and appends any regressions to `failures`.
fn compare(
    path: &str,
    base: &JsonValue,
    fresh: &JsonValue,
    tol: f64,
    failures: &mut Vec<String>,
) -> usize {
    match (base, fresh) {
        (JsonValue::Object(base_entries), JsonValue::Object(_)) => {
            let mut n = 0;
            for (key, bv) in base_entries {
                match fresh.get(key) {
                    Some(fv) => n += compare(&format!("{path}.{key}"), bv, fv, tol, failures),
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
                .map(|(i, (b, f))| compare(&format!("{path}[{i}]"), b, f, tol, failures))
                .sum()
        }
        (JsonValue::Number(b), JsonValue::Number(f)) => {
            let slack = tol * b.abs() + EPS;
            let bad = match direction(path) {
                Direction::LowerIsBetter => *f > b + slack,
                Direction::HigherIsBetter => *f < b - slack,
                Direction::Exact => f != b,
                Direction::TwoSided => (f - b).abs() > slack,
            };
            if bad {
                failures.push(format!(
                    "{path}: {b} -> {f} ({:?}, tolerance {tol})",
                    direction(path)
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
        compare(
            "doc",
            &parse_json(base).unwrap(),
            &parse_json(fresh).unwrap(),
            0.05,
            &mut failures,
        );
        failures
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
        assert!(diff("{\"a_seconds\": 1.0}", "{\"a_seconds\": 1.04}").is_empty());
        assert!(diff("{\"a_seconds\": 1.0}", "{\"a_seconds\": 0.5}").is_empty());
        assert_eq!(
            diff("{\"a_seconds\": 1.0}", "{\"a_seconds\": 1.2}").len(),
            1
        );
    }

    #[test]
    fn throughput_regresses_only_downward() {
        assert!(diff("{\"throughput_qps\": 100}", "{\"throughput_qps\": 300}").is_empty());
        assert_eq!(
            diff("{\"throughput_qps\": 100}", "{\"throughput_qps\": 90}").len(),
            1
        );
    }

    #[test]
    fn engine_utilization_is_higher_is_better() {
        let base = "{\"rows\": [{\"engine_utilization\": {\"compute0\": 0.8}}]}";
        let worse = "{\"rows\": [{\"engine_utilization\": {\"compute0\": 0.5}}]}";
        assert!(diff(base, base).is_empty());
        assert_eq!(diff(base, worse).len(), 1);
    }

    #[test]
    fn strings_and_structure_must_match_exactly() {
        assert_eq!(
            diff(
                "{\"bottleneck\": \"transfer\"}",
                "{\"bottleneck\": \"launch\"}"
            )
            .len(),
            1
        );
        assert_eq!(diff("{\"queries\": 4}", "{\"queries\": 5}").len(), 1);
        assert_eq!(diff("{\"rows\": [1, 2]}", "{\"rows\": [1]}").len(), 1);
        // A missing key fails; an extra fresh key is fine.
        assert_eq!(diff("{\"a\": 1}", "{\"b\": 1}").len(), 1);
        assert!(diff("{\"a\": 1}", "{\"a\": 1, \"b\": 2}").is_empty());
    }

    #[test]
    fn resilience_metrics_have_typed_directions() {
        // Goodput may not fall...
        assert!(diff("{\"goodput_qps\": 100}", "{\"goodput_qps\": 120}").is_empty());
        assert_eq!(
            diff("{\"goodput_qps\": 100}", "{\"goodput_qps\": 90}").len(),
            1
        );
        // ...quarantines may not rise...
        assert!(diff("{\"quarantined\": 2}", "{\"quarantined\": 0}").is_empty());
        assert_eq!(
            diff("{\"quarantined\": 0}", "{\"quarantined\": 1}").len(),
            1
        );
        // ...and the wave structure is exact.
        assert_eq!(diff("{\"waves\": 2}", "{\"waves\": 3}").len(), 1);
        assert!(diff("{\"waves\": 2}", "{\"waves\": 2}").is_empty());
    }

    #[test]
    fn out_of_core_metrics_have_typed_directions() {
        // Strategy strings are structural...
        assert_eq!(
            diff(
                "{\"strategy\": \"hash-partition\"}",
                "{\"strategy\": \"row-slice\"}"
            )
            .len(),
            1
        );
        // ...byte footprints are exact...
        assert_eq!(
            diff("{\"input_bytes\": 1024}", "{\"input_bytes\": 1025}").len(),
            1
        );
        assert_eq!(
            diff("{\"device_bytes\": 512}", "{\"device_bytes\": 256}").len(),
            1
        );
        // ...and chunk counts may shrink but not grow.
        assert!(diff("{\"chunks\": 8}", "{\"chunks\": 4}").is_empty());
        assert_eq!(diff("{\"chunks\": 8}", "{\"chunks\": 16}").len(), 1);
    }

    #[test]
    fn service_metrics_have_typed_directions() {
        // Achieved QPS and the saturation knee may not fall...
        assert!(diff("{\"achieved_qps\": 100}", "{\"achieved_qps\": 150}").is_empty());
        assert_eq!(
            diff("{\"achieved_qps\": 100}", "{\"achieved_qps\": 90}").len(),
            1
        );
        assert!(diff(
            "{\"saturation_offered_qps\": 500}",
            "{\"saturation_offered_qps\": 700}"
        )
        .is_empty());
        assert_eq!(
            diff(
                "{\"saturation_offered_qps\": 500}",
                "{\"saturation_offered_qps\": 400}"
            )
            .len(),
            1
        );
        // ...the cache's p99 gain may not shrink...
        assert!(diff("{\"p99_gain\": 2.0}", "{\"p99_gain\": 3.0}").is_empty());
        assert_eq!(diff("{\"p99_gain\": 2.0}", "{\"p99_gain\": 1.5}").len(), 1);
        // ...arrival accounting and cache counters are structural...
        for key in [
            "arrivals",
            "completed",
            "dispatches",
            "cache_hits",
            "cache_misses",
            "seed",
        ] {
            assert_eq!(
                diff(&format!("{{\"{key}\": 96}}"), &format!("{{\"{key}\": 95}}")).len(),
                1,
                "{key} must be exact"
            );
        }
        // ...failures and evictions may shrink but not grow...
        assert!(diff("{\"failed\": 2}", "{\"failed\": 0}").is_empty());
        assert_eq!(diff("{\"failed\": 0}", "{\"failed\": 1}").len(), 1);
        assert!(diff("{\"cache_evictions\": 4}", "{\"cache_evictions\": 1}").is_empty());
        assert_eq!(
            diff("{\"cache_evictions\": 1}", "{\"cache_evictions\": 4}").len(),
            1
        );
        // ...SLO verdicts are booleans and must match, and an all-failed
        // run's explicit null percentile stays null.
        assert_eq!(diff("{\"slo_met\": true}", "{\"slo_met\": false}").len(), 1);
        assert!(diff(
            "{\"total_p99_seconds\": null}",
            "{\"total_p99_seconds\": null}"
        )
        .is_empty());
    }

    #[test]
    fn arena_metrics_have_typed_directions() {
        // Span counts may shrink but never grow past the O(1) baseline...
        assert!(diff("{\"fused_alloc_spans\": 1}", "{\"fused_alloc_spans\": 1}").is_empty());
        assert_eq!(
            diff("{\"fused_alloc_spans\": 1}", "{\"fused_alloc_spans\": 7}").len(),
            1
        );
        assert_eq!(
            diff("{\"unfused_free_spans\": 1}", "{\"unfused_free_spans\": 2}").len(),
            1
        );
        // ...spills may not appear...
        assert!(diff("{\"spills\": 1}", "{\"spills\": 0}").is_empty());
        assert_eq!(diff("{\"spills\": 0}", "{\"spills\": 1}").len(), 1);
        // ...absorbed churn may not shrink...
        assert!(diff("{\"saved_alloc_pairs\": 5}", "{\"saved_alloc_pairs\": 6}").is_empty());
        assert_eq!(
            diff("{\"saved_alloc_pairs\": 5}", "{\"saved_alloc_pairs\": 4}").len(),
            1
        );
        // ...and the byte envelopes and sub-allocation counts are exact.
        for key in [
            "fused_sub_allocs",
            "unfused_sub_allocs",
            "reservation_bytes",
            "high_water_bytes",
        ] {
            assert_eq!(
                diff(&format!("{{\"{key}\": 96}}"), &format!("{{\"{key}\": 95}}")).len(),
                1,
                "{key} must be exact"
            );
        }
    }

    #[test]
    fn two_sided_drift_fails_both_ways() {
        assert!(diff("{\"launch_share\": 0.5}", "{\"launch_share\": 0.51}").is_empty());
        assert_eq!(
            diff("{\"launch_share\": 0.5}", "{\"launch_share\": 0.6}").len(),
            1
        );
        assert_eq!(
            diff("{\"launch_share\": 0.5}", "{\"launch_share\": 0.4}").len(),
            1
        );
    }
}
