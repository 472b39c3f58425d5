//! `benchmark` — one workload of the Kernel Weaver reproduction, measured
//! on two clocks: host wall time of the Rust code and the simulated
//! device's time.
//!
//! ```bash
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload tpch_analytics --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One invocation sets the workload up, evaluates the CPU oracle, and runs
//! a fixed number of whole passes over the workload's requests, so every
//! commit does the same work; `--seconds` only caps it (no pass starts
//! after it). It then sets the workload up six more times and reports the
//! median of the seven as `setup_s`. Every output is checked, and a
//! calibration kernel is timed during set-up and measurement so host times
//! can be reported at a reference machine speed.
//! With `--trace 0` it reports the end-to-end metrics. With `--trace 1` it
//! runs the passes untraced and then traced, each capped at half of
//! `--seconds`, reports the per-layer metrics, and writes `host_trace.json`
//! and `layers.json` under `.bench_trace/<workload>/`. A human-readable
//! table goes to stderr; the last stdout line is one JSON object. The exit
//! code is non-zero on any wrong output or broken invariant.

mod metrics;
mod oracle;
mod speed;
mod trace;
mod workloads;

use std::time::Instant;

use metrics::{Measurement, Metric, RequestTime};
use trace::Tracer;
use workloads::{Size, Workload};

/// Set-ups per invocation; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Where the traced run writes its exports, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_trace";

const USAGE: &str = "usage: benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Run `passes` whole passes over `w`'s requests, starting no pass once
/// `cap_s` seconds have elapsed (at least one pass). Each request is timed
/// and checked; with `probes`, the traced side measurements follow each
/// request. Between requests the calibration kernel runs every
/// `speed::INTERVAL_S`.
fn measure(
    w: &mut Workload,
    passes: usize,
    cap_s: f64,
    tracer: &mut Tracer,
    probes: bool,
) -> Measurement {
    let mut m = Measurement {
        requests: Vec::with_capacity(passes * w.len()),
        first_pass: vec![None; w.len()],
        ..Measurement::default()
    };
    let mut kernel = speed::Kernel::default();
    let start = Instant::now();
    let mut next_calibration = 0.0;
    let mut id = 0u64;
    for pass in 0..passes.max(1) {
        if pass > 0 && start.elapsed().as_secs_f64() >= cap_s {
            break;
        }
        for i in 0..w.len() {
            if start.elapsed().as_secs_f64() >= next_calibration {
                m.calibration_s.push(kernel.seconds());
                next_calibration = start.elapsed().as_secs_f64() + speed::INTERVAL_S;
            }
            tracer.set_request(id);
            id += 1;
            let t0 = Instant::now();
            let done = tracer.span("request", |t| w.run(i, t));
            let host_s = t0.elapsed().as_secs_f64();
            let weight = w.weight();
            m.attempted += weight;
            m.requests.push(RequestTime {
                index: i,
                host_s,
                weight,
            });
            let mut result =
                done.and_then(|d| w.check(i, d))
                    .and_then(|s| match &m.first_pass[i] {
                        None if pass == 0 => {
                            m.first_pass[i] = Some(s);
                            Ok(())
                        }
                        Some(first) if *first == s => Ok(()),
                        _ => Err(format!(
                            "pass {pass} differs from the first pass's simulated figures"
                        )),
                    });
            if probes && result.is_ok() {
                result = w.probe(i, tracer).map(|tuples| m.interp_tuples += tuples);
            }
            if let Err(e) = result {
                m.failed += weight;
                m.errors.push(format!("request {i}: {e}"));
            }
        }
        m.passes += 1;
    }
    m
}

/// The outcome of one invocation.
struct Report {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

/// Set-up times and the calibration samples taken next to them.
#[derive(Default)]
struct Setups {
    kernel: speed::Kernel,
    /// Seconds of each set-up.
    seconds: Vec<f64>,
    /// Of which generating inputs.
    gen_s: Vec<f64>,
    /// Calibration-kernel seconds, one right before each set-up.
    calibration_s: Vec<f64>,
}

impl Setups {
    /// Set `args.workload` up once, timed.
    fn once(&mut self, args: &Args) -> Result<Workload, String> {
        self.calibration_s.push(self.kernel.seconds());
        let t0 = Instant::now();
        let s = workloads::setup(&args.workload, args.seed, &Size::FULL)?;
        self.seconds.push(t0.elapsed().as_secs_f64());
        self.gen_s.push(s.gen_s);
        Ok(s.workload)
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let mut setups = Setups::default();
    let mut w = setups.once(args)?;
    let passes = Size::FULL.passes_of(&args.workload);

    let t0 = Instant::now();
    w.oracle()?;
    let oracle_s = t0.elapsed().as_secs_f64();

    let mut tracer = Tracer::new(args.trace);
    let runs = if args.trace {
        let half = args.seconds / 2.0;
        let base = measure(&mut w, passes, half, &mut Tracer::new(false), false);
        vec![base, measure(&mut w, passes, half, &mut tracer, true)]
    } else {
        vec![measure(&mut w, passes, args.seconds, &mut tracer, false)]
    };
    let rss = metrics::rss_peak_mib()?;
    drop(w);
    // The other set-ups run after the peak is read, so memory they leave
    // fragmented does not count towards it.
    for _ in 1..SETUP_REPEATS {
        setups.once(args)?;
    }

    let metrics = if let [base, traced] = &runs[..] {
        let book = metrics::Bookkeeping {
            gen_s: metrics::percentile(&setups.gen_s, 0.5),
            oracle_s,
            trace_overhead: base.host_qps() / traced.host_qps() - 1.0,
        };
        let mut metrics = metrics::layer_counts(traced);
        metrics.extend(metrics::layer_timings(traced, &tracer, book));
        let dir = std::path::Path::new(TRACE_DIR).join(&args.workload);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for (file, text) in [
            ("host_trace.json", tracer.chrome_json()),
            ("layers.json", tracer.layers_json(&metrics)),
        ] {
            let path = dir.join(file);
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        metrics
    } else {
        let m = &runs[0];
        let setup_slowdown = speed::slowdown(&setups.calibration_s);
        eprintln!(
            "{} of {passes} passes; slowdown vs reference {:.3} (set-up {setup_slowdown:.3}); \
             uncalibrated host_ms_p10 {:.6}, host_qps {:.3}, setup_s {:.6}",
            m.passes,
            m.slowdown(),
            m.host_ms_p10(),
            m.pass_qps(),
            metrics::percentile(&setups.seconds, 0.5)
        );
        metrics::end_to_end(&setups.seconds, setup_slowdown, m, rss)
    };
    let mut report = Report {
        metrics,
        attempted: runs.iter().map(|m| m.attempted).sum(),
        failed: runs.iter().map(|m| m.failed).sum(),
        errors: runs.into_iter().flat_map(|m| m.errors).collect(),
    };
    for (name, value, _) in &report.metrics {
        if !value.is_finite() {
            report.errors.push(format!("{name} is not finite"));
        }
    }
    Ok(report)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let report = run(&args).unwrap_or_else(|e| {
        eprintln!("error: {} (seed {}): {e}", args.workload, args.seed);
        std::process::exit(1);
    });
    let correct = report.failed == 0 && report.errors.is_empty();

    eprintln!(
        "{} seed {} ({}): {} attempted, {} failed",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        report.attempted,
        report.failed
    );
    for e in report.errors.iter().take(10) {
        eprintln!("  error: {e}");
    }
    for (name, value, unit) in &report.metrics {
        eprintln!("  {name:<36} {value:>16.6} {unit}");
    }

    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::Bookkeeping;

    /// A test-only size: every workload's code path at a fraction of the
    /// cost.
    const SMALL: Size = Size {
        tpch_scale: 0.5,
        adhoc_plans: 40,
        adhoc_tuples: 64,
        service_tuples: 1_024,
        service_arrivals: 40,
        ooc_tuples: 4_096,
        passes: [2; 4],
    };

    /// One untraced and one traced pass of `name`: the end-to-end metrics,
    /// the per-layer counts and the per-layer timings.
    fn run_small(name: &str) -> (Vec<Metric>, Vec<Metric>, Vec<Metric>) {
        let mut w = workloads::setup(name, 1, &SMALL).expect("set-up").workload;
        w.oracle().expect("oracle");
        let passes = SMALL.passes_of(name);
        let m = measure(
            &mut w,
            passes,
            f64::INFINITY,
            &mut Tracer::new(false),
            false,
        );
        assert_eq!(m.failed, 0, "{name}: {:?}", m.errors);
        assert_eq!((m.passes, m.requests.len()), (passes, passes * w.len()));
        let e2e = metrics::end_to_end(&[1.0], 1.0, &m, 1.0);
        let mut tracer = Tracer::new(true);
        let traced = measure(&mut w, 1, f64::INFINITY, &mut tracer, true);
        assert_eq!(traced.failed, 0, "{name}: {:?}", traced.errors);
        let book = Bookkeeping {
            gen_s: 0.0,
            oracle_s: 0.0,
            trace_overhead: 0.0,
        };
        let timings = metrics::layer_timings(&traced, &tracer, book);
        (e2e, metrics::layer_counts(&traced), timings)
    }

    #[test]
    fn simulated_metrics_repeat_bit_for_bit() {
        for name in workloads::NAMES {
            let (e2e_a, counts_a, _) = run_small(name);
            let (e2e_b, counts_b, _) = run_small(name);
            let sim = |ms: &[Metric]| -> Vec<(&str, u64)> {
                ms.iter()
                    .filter(|(n, _, _)| n.starts_with("sim_"))
                    .map(|(n, v, _)| (*n, v.to_bits()))
                    .collect()
            };
            assert_eq!(sim(&e2e_a), sim(&e2e_b), "{name}");
            let bits = |ms: &[Metric]| -> Vec<(&str, u64)> {
                ms.iter().map(|(n, v, _)| (*n, v.to_bits())).collect()
            };
            assert_eq!(bits(&counts_a), bits(&counts_b), "{name}");
            for (n, v, _) in e2e_a.iter().filter(|(n, _, _)| n.starts_with("sim_")) {
                assert!(*v > 0.0, "{name}: {n} must never be 0");
            }
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = kw_gpu_sim::parse_json(&text).expect("BENCHMARK.json parses");
        let entries = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|e| {
                    let field =
                        |f: &str| e.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let workloads: Vec<String> = entries("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, workloads::NAMES);

        let (e2e, counts, timings) = run_small("tpch_analytics");
        let emitted = |ms: &[Metric]| -> std::collections::BTreeSet<(String, String)> {
            ms.iter()
                .map(|(n, _, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        let declared = |key| {
            entries(key)
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
        };
        assert_eq!(declared("end_to_end"), emitted(&e2e));
        let layers: Vec<Metric> = counts.into_iter().chain(timings).collect();
        assert_eq!(declared("per_layer"), emitted(&layers));
        for (name, unit) in entries("end_to_end")
            .into_iter()
            .chain(entries("per_layer"))
        {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {name:?}"
            );
            assert!(!unit.is_empty(), "{name} has no unit");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = parse("--workload adhoc_small --seed 2 --seconds 10 --trace 1").expect("valid");
        assert_eq!((ok.seed, ok.seconds, ok.trace), (2, 10.0, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload adhoc_small --seed x --seconds 1 --trace 0",
            "--workload adhoc_small --seed 1 --seconds 0 --trace 0",
            "--workload adhoc_small --seed 1 --seconds 1 --trace 2",
            "--workload adhoc_small --seed 1 --seconds 1",
            "--workload adhoc_small --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
