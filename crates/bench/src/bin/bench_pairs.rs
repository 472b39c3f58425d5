//! Run the repo benchmark of two checkouts in alternating pairs and print
//! one comparison table.
//!
//! ```bash
//! cargo run --release -p kw-bench --bin bench_pairs -- \
//!     --a ../parent --b . --workload tpch_analytics --seed 1 --pairs 10
//! ```
//!
//! Each side is a checkout directory. A run executes the `command` of that
//! checkout's `BENCHMARK.json`, in that directory, followed by
//! `--workload <w> --seed <s> --trace <0|1> --seconds <n>`, where `--trace`
//! defaults to 0 and `<n>` is the `run_seconds` that checkout's
//! `BENCHMARK.json` declares (a file without it stops the runner). Pair `i`
//! runs A then B when `i` is even and B then A when it is odd, so a drift in
//! the host's speed falls on both sides. Runs go one at a time. `--out <dir>` keeps each run's last
//! stdout line as `<dir>/<a|b><i>.json` and its stderr as
//! `<dir>/<a|b><i>.stderr`.
//!
//! For every metric of the JSON lines the table prints each side's median
//! and quartiles, B's median over A's, the pairs B won by the direction
//! `BENCHMARK.json` declares for the metric (a tie counts for neither), and
//! whether the medians differ by more than A's interquartile range. The
//! `raw.*` rows are what an untraced run prints on stderr: the uncalibrated
//! `host_ms_p10`, `host_qps` and `setup_s`, and the calibration kernel's
//! slowdowns during measurement and set-up. A run that fails, or prints no
//! JSON line, stops the runner with status 1; bad arguments exit with 2.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use kw_gpu_sim::{parse_json, JsonValue};

const USAGE: &str = "usage: bench_pairs --a <checkout> --b <checkout> --workload <name> \
                     --seed <u64> --pairs <n> [--trace <0|1>] [--out <dir>]";

/// The stderr figures of an untraced run: the label fragment each follows,
/// the row name it gets, and whether lower is better.
const RAW: [(&str, &str, bool); 5] = [
    ("slowdown vs reference ", "raw.slowdown", true),
    ("(set-up ", "raw.setup_slowdown", true),
    ("uncalibrated host_ms_p10 ", "raw.host_ms_p10", true),
    (", host_qps ", "raw.host_qps", false),
    (", setup_s ", "raw.setup_s", true),
];

struct Args {
    sides: [PathBuf; 2],
    bench_args: Vec<String>,
    pairs: usize,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Option<&String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("{flag} is required"));
    let pairs: usize = need("--pairs")?
        .parse()
        .map_err(|e| format!("--pairs: {e}"))?;
    if pairs == 0 {
        return Err("--pairs must be at least 1".into());
    }
    let seed: u64 = need("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let bench_args = vec![
        "--workload".into(),
        need("--workload")?.clone(),
        "--seed".into(),
        seed.to_string(),
        "--trace".into(),
        get("--trace").map_or("0", String::as_str).into(),
    ];
    Ok(Args {
        sides: [need("--a")?.into(), need("--b")?.into()],
        bench_args,
        pairs,
        out: get("--out").map(PathBuf::from),
    })
}

/// A checkout's `BENCHMARK.json`, parsed.
fn benchmark_json(checkout: &Path) -> Result<JsonValue, String> {
    let path = checkout.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The benchmark command a checkout declares.
fn command(spec: &JsonValue) -> Result<Vec<String>, String> {
    let words: Option<Vec<String>> = spec
        .get("command")
        .and_then(JsonValue::as_array)
        .and_then(|a| a.iter().map(|w| w.as_str().map(String::from)).collect());
    words
        .filter(|w| !w.is_empty())
        .ok_or_else(|| "BENCHMARK.json has no command array of strings".into())
}

/// The run length a checkout's benchmark declares, as its `--seconds`
/// argument.
fn run_seconds(spec: &JsonValue) -> Result<String, String> {
    spec.get("run_seconds")
        .and_then(JsonValue::as_f64)
        .filter(|s| *s > 0.0)
        .map(|s| s.to_string())
        .ok_or_else(|| "BENCHMARK.json has no positive run_seconds".into())
}

/// Whether lower is better, per declared metric.
fn directions(spec: &JsonValue) -> BTreeMap<String, bool> {
    let mut out: BTreeMap<String, bool> = RAW
        .iter()
        .map(|&(_, name, lower)| (name.to_string(), lower))
        .collect();
    for list in ["end_to_end", "per_layer"] {
        for m in spec.get(list).and_then(JsonValue::as_array).unwrap_or(&[]) {
            if let (Some(name), Some(better)) = (
                m.get("name").and_then(JsonValue::as_str),
                m.get("better").and_then(JsonValue::as_str),
            ) {
                out.insert(name.to_string(), better == "lower");
            }
        }
    }
    out
}

/// The number that follows `label` in `text`.
fn number_after(text: &str, label: &str) -> Option<f64> {
    let rest = &text[text.find(label)? + label.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One run's metrics: the JSON line's values and the stderr figures.
fn run_once(
    checkout: &Path,
    command: &[String],
    bench_args: &[String],
    keep: Option<(&Path, String)>,
) -> Result<BTreeMap<String, f64>, String> {
    let out = Command::new(&command[0])
        .args(&command[1..])
        .args(bench_args)
        .current_dir(checkout)
        .output()
        .map_err(|e| format!("{}: cannot start {}: {e}", checkout.display(), command[0]))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.trim_start().starts_with('{'))
        .unwrap_or("");
    if let Some((dir, stem)) = keep {
        for (ext, text) in [("json", line), ("stderr", &*stderr)] {
            let path = dir.join(format!("{stem}.{ext}"));
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    if !out.status.success() || line.is_empty() {
        let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
        return Err(format!(
            "{}: run failed ({}): {}",
            checkout.display(),
            out.status,
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        ));
    }
    let json = parse_json(line).map_err(|e| format!("{}: {e}", checkout.display()))?;
    let mut metrics = BTreeMap::new();
    for (name, m) in json
        .get("metrics")
        .and_then(JsonValue::entries)
        .unwrap_or(&[])
    {
        if let Some(v) = m.get("value").and_then(JsonValue::as_f64) {
            metrics.insert(name.clone(), v);
        }
    }
    if let Some(raw) = stderr.lines().find(|l| l.contains("uncalibrated")) {
        for (label, name, _) in RAW {
            if let Some(v) = number_after(raw, label) {
                metrics.insert(name.to_string(), v);
            }
        }
    }
    Ok(metrics)
}

/// The `p`-quantile of `sorted`, interpolated linearly between ranks.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `v` to four significant digits.
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (3 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.decimals$}")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("bench_pairs: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Err(e) = run(&args) {
        eprintln!("bench_pairs: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let specs = [
        benchmark_json(&args.sides[0])?,
        benchmark_json(&args.sides[1])?,
    ];
    let commands = [command(&specs[0])?, command(&specs[1])?];
    let seconds = [run_seconds(&specs[0])?, run_seconds(&specs[1])?];
    let bench_args = seconds.clone().map(|s| {
        let mut a = args.bench_args.clone();
        a.extend(["--seconds".into(), s]);
        a
    });
    let lower_is_better = directions(&specs[0]);
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    // runs[side][pair]
    let mut runs: [Vec<BTreeMap<String, f64>>; 2] = [Vec::new(), Vec::new()];
    for pair in 0..args.pairs {
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let keep = args
                .out
                .as_deref()
                .map(|dir| (dir, format!("{}{pair}", ["a", "b"][side])));
            let metrics = run_once(&args.sides[side], &commands[side], &bench_args[side], keep)?;
            eprintln!(
                "pair {pair} {}: host_qps {}",
                ["a", "b"][side],
                metrics.get("host_qps").map_or("-".into(), |v| sig(*v))
            );
            runs[side].push(metrics);
        }
    }

    println!(
        "a = {} ({} s runs), b = {} ({} s runs); {} {}, {} alternating pairs",
        args.sides[0].display(),
        seconds[0],
        args.sides[1].display(),
        seconds[1],
        args.bench_args[1],
        args.bench_args[2..].join(" "),
        args.pairs
    );
    println!(
        "{:<36} {:>28} {:>28} {:>8} {:>7} {:>10}",
        "metric", "a median [q1, q3]", "b median [q1, q3]", "b/a", "b wins", "gap>IQR(a)"
    );
    let names: Vec<&String> = runs[0][0].keys().collect();
    for name in names {
        let values = |side: usize| -> Option<Vec<f64>> {
            runs[side].iter().map(|m| m.get(name).copied()).collect()
        };
        let (Some(a), Some(b)) = (values(0), values(1)) else {
            continue;
        };
        let lower = lower_is_better.get(name.as_str()).copied();
        let wins = match lower {
            Some(lower) => {
                let won = a
                    .iter()
                    .zip(&b)
                    .filter(|(a, b)| if lower { b < a } else { b > a })
                    .count();
                format!("{won}/{}", a.len())
            }
            None => "-".into(),
        };
        let summary = |v: &[f64]| {
            let mut v = v.to_vec();
            v.sort_by(f64::total_cmp);
            (quantile(&v, 0.5), quantile(&v, 0.25), quantile(&v, 0.75))
        };
        let ((am, aq1, aq3), (bm, bq1, bq3)) = (summary(&a), summary(&b));
        let ratio = if am == 0.0 {
            "-".into()
        } else {
            format!("{:.3}", bm / am)
        };
        println!(
            "{:<36} {:>28} {:>28} {:>8} {:>7} {:>10}",
            name,
            format!("{} [{}, {}]", sig(am), sig(aq1), sig(aq3)),
            format!("{} [{}, {}]", sig(bm), sig(bq1), sig(bq3)),
            ratio,
            wins,
            if (bm - am).abs() > aq3 - aq1 {
                "yes"
            } else {
                "no"
            }
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_stderr_figures() {
        let line = "100 of 100 passes; slowdown vs reference 1.206 (set-up 1.174); \
                    uncalibrated host_ms_p10 10.109756, host_qps 95.020, setup_s 0.079375";
        let got: Vec<Option<f64>> = RAW.iter().map(|(l, _, _)| number_after(line, l)).collect();
        assert_eq!(
            got,
            vec![
                Some(1.206),
                Some(1.174),
                Some(10.109756),
                Some(95.02),
                Some(0.079375)
            ]
        );
    }

    #[test]
    fn run_length_is_the_declared_one() {
        let seconds = |text: &str| run_seconds(&parse_json(text).unwrap());
        assert_eq!(seconds(r#"{"run_seconds": 30}"#), Ok("30".into()));
        assert_eq!(seconds(r#"{"run_seconds": 2.5}"#), Ok("2.5".into()));
        for bad in [r#"{}"#, r#"{"run_seconds": 0}"#, r#"{"run_seconds": "30"}"#] {
            assert!(seconds(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
    }

    #[test]
    fn arguments_are_checked() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let ok = parse("--a x --b y --workload w --seed 2 --pairs 3").unwrap();
        assert_eq!(ok.pairs, 3);
        assert_eq!(ok.bench_args.join(" "), "--workload w --seed 2 --trace 0");
        for bad in [
            "--a x --b y --workload w --seed 2",
            "--a x --b y --workload w --seed 2 --pairs 0",
            "--a x --b y --workload w --seed z --pairs 1",
            "--b y --workload w --seed 2 --pairs 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
