//! Regenerate every table and figure of the paper's evaluation as text.
//!
//! Each section runs behind a panic guard: a failing experiment prints a
//! diagnostic and the remaining sections still render, but the process exits
//! non-zero so CI notices. An argument that names no section is an error.
//!
//! ```bash
//! cargo run --release -p kw-bench --bin paper_tables            # everything
//! cargo run --release -p kw-bench --bin paper_tables -- fig16   # one section
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use kw_bench::experiments::{
    ablations, arena, batch_resilience, capacity, density, fig04, fig16, fig17, fig18, fig19,
    fig20, fig21, out_of_core, overlap, platforms, profile, queries, robustness, scheduler,
    service, table2, table3, trace,
};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--csv <dir>` additionally writes each figure's series as CSV.
    let csv_dir: Option<std::path::PathBuf> = args.iter().position(|a| a == "--csv").map(|i| {
        let dir = args
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| "bench_results".into());
        args.drain(i..(i + 2).min(args.len()));
        dir.into()
    });
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
    }
    // `--trace-dir <dir>` exports the trace section's span logs as
    // Perfetto-loadable Chrome trace JSON plus per-operator summaries.
    let trace_dir: Option<std::path::PathBuf> =
        args.iter().position(|a| a == "--trace-dir").map(|i| {
            let dir = args.get(i + 1).cloned().unwrap_or_else(|| "traces".into());
            args.drain(i..(i + 2).min(args.len()));
            dir.into()
        });
    // Every name is checked before anything runs, so a typo fails instead
    // of silently running nothing.
    let mut known: Vec<&str> = Vec::new();
    sections(csv_dir.as_deref(), trace_dir.as_deref(), &mut |names, _| {
        known.extend(names)
    });
    let unknown: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !known.contains(a))
        .collect();
    if !unknown.is_empty() {
        eprintln!("paper_tables: unknown section(s): {}", unknown.join(", "));
        eprintln!("known sections: {}", known.join(" "));
        std::process::exit(1);
    }

    println!("Kernel Weaver reproduction — paper tables & figures");
    println!("====================================================\n");

    let mut failed: Vec<&'static str> = Vec::new();
    // Run one guarded section: skipped unless selected, and a panic inside
    // marks it failed without killing the sections after it.
    let mut run = |names: &[&'static str], body: &dyn Fn()| {
        let wanted = args.is_empty() || args.iter().any(|a| names.iter().any(|n| n == a));
        if !wanted {
            return;
        }
        if catch_unwind(AssertUnwindSafe(body)).is_err() {
            eprintln!(
                "!! section '{}' failed; continuing with the rest\n",
                names[0]
            );
            failed.push(names[0]);
        }
    };
    sections(csv_dir.as_deref(), trace_dir.as_deref(), &mut run);

    if !failed.is_empty() {
        eprintln!("failed sections: {}", failed.join(", "));
        std::process::exit(1);
    }
}

/// A section's names; the first is the one reported on failure.
type SectionNames = &'static [&'static str];

/// Hand every section to `run` in output order, with its names and its
/// body. `csv_dir` receives the CSV series and redirects the
/// `BENCH_*.json` files, which are written on every run.
fn sections(
    csv_dir: Option<&Path>,
    trace_dir: Option<&Path>,
    run: &mut dyn FnMut(SectionNames, &dyn Fn()),
) {
    let csv = |name: &str, header: &str, rows: &[String]| {
        if let Some(dir) = csv_dir {
            let body = format!("{header}\n{}\n", rows.join("\n"));
            std::fs::write(dir.join(name), body).expect("write csv");
        }
    };
    let bench_dir = csv_dir.unwrap_or(Path::new("bench_results"));

    run(&["table2"], &|| {
        section("Table 2 / Figure 1: experimental infrastructure (simulated)");
        print!("{}", table2::render());
        println!();
    });

    run(&["fig4", "fig04"], &|| {
        section("Figure 4: back-to-back SELECT throughput (manual fusion)");
        println!("paper: 2 fused ~1.80x, 3 fused ~2.35x\n");
        println!("{:>10}  {:>10}  {:>10}", "tuples", "2 fused", "3 fused");
        let rows = fig04::run(&[1 << 15, 1 << 17, 1 << 19]);
        for r in &rows {
            println!(
                "{:>10}  {:>9.2}x  {:>9.2}x",
                r.n, r.fused2_speedup, r.fused3_speedup
            );
        }
        csv(
            "fig04.csv",
            "tuples,fused2_speedup,fused3_speedup",
            &rows
                .iter()
                .map(|r| format!("{},{},{}", r.n, r.fused2_speedup, r.fused3_speedup))
                .collect::<Vec<_>>(),
        );
        println!();
    });

    run(&["fig15"], &|| {
        section("Figure 15: generated fused computation-stage code (pattern (a))");
        let w = kw_tpch::Pattern::A.build(1_024, 1);
        let compiled = kw_core::compile(&w.plan, &kw_core::WeaverConfig::default())
            .expect("compile pattern (a)");
        let fused = compiled
            .steps
            .iter()
            .find(|s| s.fused)
            .expect("pattern (a) fuses");
        print!("{}", fused.op.disassemble());
        println!();
    });

    run(&["density"], &|| {
        section("Operator density (Section 2.3: fusion improves ops/byte)");
        println!(
            "{:>5}  {:>16}  {:>16}  {:>12}",
            "pat", "baseline op/B", "fused op/B", "improvement"
        );
        for r in density::run() {
            println!(
                "{:>5}  {:>16.4}  {:>16.4}  {:>11.2}x",
                r.pattern.label(),
                r.baseline_density,
                r.fused_density,
                r.improvement()
            );
        }
        println!();
    });

    run(&["capacity"], &|| {
        section("Benefit #4 'Larger Input Data': max resident input, 64 MiB device");
        for r in capacity::run(&[kw_tpch::Pattern::A, kw_tpch::Pattern::C]) {
            println!(
                "  {}  baseline {:>9} tuples   fused {:>9} tuples   ({:.2}x larger)",
                r.pattern.label(),
                r.baseline_max_tuples,
                r.fused_max_tuples,
                r.gain()
            );
        }
        println!();
    });

    run(&["fig16"], &|| {
        section("Figure 16: GPU-compute speedup, small inputs (paper avg 2.89x)");
        let rows = fig16::run();
        for r in &rows {
            println!(
                "  {} {:<28} {:>6.2}x",
                r.pattern.label(),
                r.pattern.description(),
                r.speedup
            );
        }
        println!("  average: {:.2}x\n", fig16::average(&rows));
        csv(
            "fig16.csv",
            "pattern,speedup",
            &rows
                .iter()
                .map(|r| format!("{},{}", r.pattern.label(), r.speedup))
                .collect::<Vec<_>>(),
        );
    });

    run(&["fig17"], &|| {
        section("Figure 17: GPU global memory allocated (peak bytes)");
        println!(
            "{:>5}  {:>14}  {:>14}  {:>10}",
            "pat", "baseline", "fused", "reduction"
        );
        let rows = fig17::run();
        for r in &rows {
            println!(
                "{:>5}  {:>14}  {:>14}  {:>9.2}x",
                r.pattern.label(),
                r.baseline_bytes,
                r.fused_bytes,
                r.reduction()
            );
        }
        println!("  (paper: fused smaller everywhere except (d))\n");
        csv(
            "fig17.csv",
            "pattern,baseline_bytes,fused_bytes",
            &rows
                .iter()
                .map(|r| {
                    format!(
                        "{},{},{}",
                        r.pattern.label(),
                        r.baseline_bytes,
                        r.fused_bytes
                    )
                })
                .collect::<Vec<_>>(),
        );
    });

    run(&["fig18"], &|| {
        section("Figure 18: global-memory access cycles (paper avg -59%)");
        let rows = fig18::run();
        for r in &rows {
            println!(
                "  {}  baseline {:>12}  fused {:>12}  saved {:>4.0}%",
                r.pattern.label(),
                r.baseline_cycles,
                r.fused_cycles,
                r.reduction() * 100.0
            );
        }
        println!(
            "  average reduction: {:.0}%\n",
            fig18::average_reduction(&rows) * 100.0
        );
        csv(
            "fig18.csv",
            "pattern,baseline_cycles,fused_cycles",
            &rows
                .iter()
                .map(|r| {
                    format!(
                        "{},{},{}",
                        r.pattern.label(),
                        r.baseline_cycles,
                        r.fused_cycles
                    )
                })
                .collect::<Vec<_>>(),
        );
    });

    run(&["fig19"], &|| {
        section("Figure 19: -O3 over -O0 speedup, with vs without fusion");
        println!("{:>5}  {:>12}  {:>12}", "pat", "unfused", "fused");
        let rows = fig19::run();
        for r in &rows {
            println!(
                "{:>5}  {:>11.2}x  {:>11.2}x",
                r.pattern.label(),
                r.unfused_o3_speedup,
                r.fused_o3_speedup
            );
        }
        println!("  (paper: optimization helps fused kernels more, every pattern)\n");
        csv(
            "fig19.csv",
            "pattern,unfused_o3_speedup,fused_o3_speedup",
            &rows
                .iter()
                .map(|r| {
                    format!(
                        "{},{},{}",
                        r.pattern.label(),
                        r.unfused_o3_speedup,
                        r.fused_o3_speedup
                    )
                })
                .collect::<Vec<_>>(),
        );
    });

    run(&["fig20"], &|| {
        section("Figure 20: two fused SELECTs vs selection ratio");
        println!("paper: ~1.28x at 10%, ~2.01x at 90%\n");
        let rows = fig20::run(&fig20::PAPER_SWEEP);
        for r in &rows {
            println!(
                "  selectivity {:>3.0}%  speedup {:>5.2}x",
                r.selectivity * 100.0,
                r.speedup
            );
        }
        csv(
            "fig20.csv",
            "selectivity,speedup",
            &rows
                .iter()
                .map(|r| format!("{},{}", r.selectivity, r.speedup))
                .collect::<Vec<_>>(),
        );
        println!();
    });

    run(&["fig21"], &|| {
        section("Figure 21: large inputs, PCIe-staged");
        println!(
            "{:>5}  {:>10}  {:>10}  {:>10}",
            "pat", "GPU", "PCIe", "overall"
        );
        let rows = fig21::run();
        for r in &rows {
            println!(
                "{:>5}  {:>9.2}x  {:>9.2}x  {:>9.2}x",
                r.pattern.label(),
                r.gpu_speedup,
                r.pcie_speedup,
                r.overall_speedup
            );
        }
        let (gpu, pcie, overall) = fig21::averages(&rows);
        println!(
            "  averages: GPU {gpu:.2}x  PCIe {pcie:.2}x  overall {overall:.2}x  \
             (paper: 2.91x / 2.08x / 1.98x)"
        );
        let (pc_pcie, pc_overall) = fig21::producer_consumer_averages(&rows);
        println!(
            "  producer-consumer only: PCIe {pc_pcie:.2}x  overall {pc_overall:.2}x  \
             (paper: 2.35x / 2.22x)\n"
        );
        csv(
            "fig21.csv",
            "pattern,gpu_speedup,pcie_speedup,overall_speedup",
            &rows
                .iter()
                .map(|r| {
                    format!(
                        "{},{},{},{}",
                        r.pattern.label(),
                        r.gpu_speedup,
                        r.pcie_speedup,
                        r.overall_speedup
                    )
                })
                .collect::<Vec<_>>(),
        );
    });

    run(&["table3"], &|| {
        section("Table 3: resource usage and occupancy");
        println!(
            "{:<14}  {:>6}  {:>10}  {:>9}",
            "kernel", "regs", "shared B", "occupancy"
        );
        for r in table3::individual_operators() {
            println!(
                "{:<14}  {:>6}  {:>10}  {:>8.0}%",
                r.name,
                r.registers,
                r.shared_bytes,
                r.occupancy * 100.0
            );
        }
        println!("  --");
        for r in table3::fused_patterns() {
            println!(
                "{:<14}  {:>6}  {:>10}  {:>8.0}%",
                r.name,
                r.registers,
                r.shared_bytes,
                r.occupancy * 100.0
            );
        }
        println!();
    });

    run(&["q1", "q21", "queries"], &|| {
        section("Section 5.2: TPC-H queries (Q1 and Q21 from the paper; Q3, Q6 extra)");
        for row in queries::suite(8.0) {
            println!("  {}:", row.name);
            println!(
                "    operators {} -> {}   kernels {} -> {}",
                row.baseline_operators,
                row.fused_operators,
                row.baseline_kernels,
                row.fused_kernels
            );
            println!(
                "    overall speedup {:.2}x   SORT share {:.0}%   speedup excl. SORT {:.2}x",
                row.overall_speedup,
                row.sort_fraction * 100.0,
                row.speedup_excluding_sort
            );
        }
        println!("  (paper: Q1 1.25x overall, SORT ~71%, 3.18x excl. SORT; Q21 1.22x)\n");
    });

    run(&["platforms"], &|| {
        section("Section 2.3 / 6 extensions: platforms, rescheduling, overlap");
        println!("  Fusion on discrete GPU vs fused APU (staged, patterns a–c):");
        println!(
            "    {:<24} {:>5}  {:>8}  {:>9}  {:>14}",
            "platform", "pat", "GPU", "overall", "transfer share"
        );
        for r in platforms::run(&[
            kw_tpch::Pattern::A,
            kw_tpch::Pattern::B,
            kw_tpch::Pattern::C,
        ]) {
            println!(
                "    {:<24} {:>5}  {:>7.2}x  {:>8.2}x  {:>13.0}%",
                r.platform,
                r.pattern.label(),
                r.gpu_speedup,
                r.overall_speedup,
                r.transfer_fraction * 100.0
            );
        }
        let (plain, moved) = platforms::rescheduling_gain();
        println!(
            "  SELECT-over-SORT rescheduling (σ(sort(σ(t)))): {:.3} ms -> {:.3} ms ({:.2}x)",
            plain * 1e3,
            moved * 1e3,
            plain / moved
        );
        let (serial, overlapped) = platforms::overlap_study();
        println!(
            "  double buffering (8-chunk pipeline, pattern (a)): fusion speedup \
             {serial:.2}x serialized, {overlapped:.2}x with overlapped transfers"
        );
        let (base_ratio, fused_ratio) = platforms::cpu_comparison(kw_tpch::Pattern::A);
        println!(
            "  GPU over 4-core CPU, pattern (a): {base_ratio:.1}x unfused, {fused_ratio:.1}x \
             fused (paper band: 4x-40x, fusion widens it)\n"
        );
    });

    run(&["overlap"], &|| {
        section("Stream overlap: fusion x double buffering (chunked, staged)");
        println!(
            "{:>5}  {:>11}  {:>11}  {:>11}  {:>11}  {:>9}",
            "pat", "fused ser", "fused pipe", "base ser", "base pipe", "composed"
        );
        let rows = overlap::run(
            &[
                kw_tpch::Pattern::A,
                kw_tpch::Pattern::D,
                kw_tpch::Pattern::E,
            ],
            1 << 20,
            8,
        );
        for r in &rows {
            println!(
                "{:>5}  {:>8.3} ms  {:>8.3} ms  {:>8.3} ms  {:>8.3} ms  {:>8.2}x",
                r.pattern.label(),
                r.fused_serialized * 1e3,
                r.fused_pipelined * 1e3,
                r.base_serialized * 1e3,
                r.base_pipelined * 1e3,
                r.composed_speedup()
            );
        }
        println!("  (pipelined wallclock is the device stream graph's makespan;");
        println!("   on transfer-bound (d), fused-chunked < unfused-chunked < fused-serialized)");
        csv(
            "overlap.csv",
            "pattern,fused_serialized,fused_pipelined,base_serialized,base_pipelined",
            &rows
                .iter()
                .map(|r| {
                    format!(
                        "{},{},{},{},{}",
                        r.pattern.label(),
                        r.fused_serialized,
                        r.fused_pipelined,
                        r.base_serialized,
                        r.base_pipelined
                    )
                })
                .collect::<Vec<_>>(),
        );
        println!();
    });

    run(&["scheduler"], &|| {
        section("Multi-query batches: stream-scheduled concurrency on one device");
        println!(
            "{:>8}  {:>12}  {:>12}  {:>12}  {:>10}  {:>9}",
            "queries", "batch fused", "batch base", "serial fused", "thru q/s", "vs serial"
        );
        let n = 1 << 18;
        let rows = scheduler::run(n, &[2, 4, 8]);
        for r in &rows {
            println!(
                "{:>8}  {:>9.3} ms  {:>9.3} ms  {:>9.3} ms  {:>10.1}  {:>8.2}x",
                r.queries,
                r.batched_fused * 1e3,
                r.batched_unfused * 1e3,
                r.serial_fused * 1e3,
                r.throughput_qps,
                r.speedup_vs_serial()
            );
        }
        println!("  (batched-fused < batched-unfused < serial-fused on every row)");
        println!("  Per-query latency (fused batch), retry/backoff and engine utilization:");
        println!(
            "{:>8}  {:>10}  {:>10}  {:>10}  {:>7}  {:>10}  engines",
            "queries", "p50", "p95", "p99", "retries", "backoff"
        );
        for r in &rows {
            let engines = r
                .engine_utilization
                .iter()
                .map(|(name, u)| format!("{name} {:.0}%", u * 100.0))
                .collect::<Vec<_>>()
                .join("  ");
            println!(
                "{:>8}  {:>7.3} ms  {:>7.3} ms  {:>7.3} ms  {:>7}  {:>7.3} ms  {engines}",
                r.queries,
                r.latency_p50 * 1e3,
                r.latency_p95 * 1e3,
                r.latency_p99 * 1e3,
                r.retries_total,
                r.backoff_seconds * 1e3,
            );
        }
        println!("  (fault-free campaign: retries and backoff are quoted, and zero)");
        write_bench(
            bench_dir,
            "BENCH_scheduler.json",
            &scheduler::to_json(n, &rows),
        );
        csv(
            "scheduler.csv",
            "queries,batched_fused,batched_unfused,serial_fused,throughput_qps",
            &rows
                .iter()
                .map(|r| {
                    format!(
                        "{},{},{},{},{}",
                        r.queries,
                        r.batched_fused,
                        r.batched_unfused,
                        r.serial_fused,
                        r.throughput_qps
                    )
                })
                .collect::<Vec<_>>(),
        );
        println!();
    });

    run(&["service"], &|| {
        section("Open-loop service: offered load vs latency SLO, plan cache on/off");
        let n = 1 << 14;
        let arrivals = service::ARRIVALS;
        let sweeps = service::run(n, arrivals);
        for s in &sweeps {
            println!(
                "  {}: SLO {:.3} ms (={:.0}x unloaded p99), serial rate {:.0} q/s, \
                 knee {:.0} q/s",
                s.device,
                s.slo_p99_seconds * 1e3,
                service::SLO_FACTOR,
                s.base_qps,
                s.saturation_offered_qps
            );
            println!(
                "{:>10}  {:>6}  {:>12}  {:>12}  {:>8}  {:>10}  {:>10}  {:>4}",
                "offered",
                "load",
                "cached p99",
                "uncach p99",
                "gain",
                "cached q/s",
                "uncach q/s",
                "SLO"
            );
            for r in &s.rows {
                println!(
                    "{:>6.0} q/s  {:>5.1}x  {:>9.3} ms  {:>9.3} ms  {:>7.2}x  {:>10.1}  {:>10.1}  {:>4}",
                    r.offered_qps,
                    r.load_factor,
                    r.cached.total_p99_seconds * 1e3,
                    r.uncached.total_p99_seconds * 1e3,
                    r.p99_gain(),
                    r.cached.achieved_qps,
                    r.uncached.achieved_qps,
                    if r.cached.slo_met { "met" } else { "miss" }
                );
            }
            println!();
        }
        println!("  (cached p99 strictly beats uncached at every load on every device)");
        write_bench(
            bench_dir,
            "BENCH_service.json",
            &service::to_json(n, arrivals, &sweeps),
        );
        csv(
            "service.csv",
            "device,offered_qps,load_factor,cached_p99_seconds,uncached_p99_seconds,\
             p99_gain,cached_achieved_qps,uncached_achieved_qps,cached_slo_met",
            &sweeps
                .iter()
                .flat_map(|s| {
                    s.rows.iter().map(|r| {
                        format!(
                            "{},{},{},{},{},{},{},{},{}",
                            s.device,
                            r.offered_qps,
                            r.load_factor,
                            r.cached.total_p99_seconds,
                            r.uncached.total_p99_seconds,
                            r.p99_gain(),
                            r.cached.achieved_qps,
                            r.uncached.achieved_qps,
                            r.cached.slo_met
                        )
                    })
                })
                .collect::<Vec<_>>(),
        );
        println!();
    });

    run(&["profile"], &|| {
        section("Bottleneck attribution: roofline profile per pattern, platform, mode");
        println!(
            "{:>5}  {:>6}  {:>9}  {:>10}  {:>9}  {:>9}  {:>8}  {:>7}  {:>7}",
            "pat",
            "plat",
            "mode",
            "bottleneck",
            "gpu busy",
            "pcie busy",
            "launch",
            "glob bw",
            "pcie bw"
        );
        let n = 1 << 16;
        let rows = profile::run(n);
        for r in &rows {
            println!(
                "{:>5}  {:>6}  {:>9}  {:>10}  {:>7.0}%   {:>7.0}%   {:>6.0}%   {:>5.0}%   {:>5.0}%",
                r.pattern,
                r.platform,
                r.mode,
                r.bottleneck,
                r.gpu_busy_fraction * 100.0,
                r.pcie_busy_fraction * 100.0,
                r.launch_share * 100.0,
                r.global_bw_utilization * 100.0,
                r.pcie_bw_utilization * 100.0
            );
        }
        println!("  (the 8 GB/s PCIe link pins every Fermi row transfer-bound;");
        println!("   removing it — the paper's fused APU — exposes the next roofline)");
        write_bench(bench_dir, "BENCH_profile.json", &profile::to_json(n, &rows));
        csv(
            "profile.csv",
            "pattern,platform,mode,bottleneck,gpu_busy_fraction,pcie_busy_fraction,launch_share",
            &rows
                .iter()
                .map(|r| {
                    format!(
                        "{},{},{},{},{},{},{}",
                        r.pattern,
                        r.platform,
                        r.mode,
                        r.bottleneck,
                        r.gpu_busy_fraction,
                        r.pcie_busy_fraction,
                        r.launch_share
                    )
                })
                .collect::<Vec<_>>(),
        );
        println!();
    });

    run(&["ablations"], &|| {
        section("Ablations");
        println!("  Algorithm-2 shared budget sweep, pattern (c):");
        for r in ablations::budget_sweep(&[4 << 10, 8 << 10, 16 << 10, 48 << 10]) {
            println!(
                "    {:>6} KiB budget -> {} fusion sets, speedup {:.2}x",
                r.shared_budget / 1024,
                r.fusion_sets,
                r.speedup
            );
        }
        let (on, off) = ablations::input_dependence_ablation();
        println!("  input-dependence extension, pattern (d): on {on:.2}x / off {off:.2}x");
        println!("  optimizer work on each fused kernel (O3 pass statistics):");
        for (p, s) in ablations::optimizer_pass_stats() {
            println!(
                "    {}: {} filters combined, {} steps deduplicated, {} dead removed, \
                 {} constants folded, {} barriers removed",
                p.label(),
                s.filters_combined,
                s.steps_deduplicated,
                s.dead_steps_removed,
                s.constants_folded,
                s.barriers_removed
            );
        }
        println!("  CTA size sweep, fused pattern (a):");
        for r in ablations::cta_sweep(&[32, 64, 128, 256, 512, 1024]) {
            println!(
                "    {:>5} threads/CTA -> {:.4} ms",
                r.threads_per_cta,
                r.gpu_seconds * 1e3
            );
        }
        println!();
    });

    run(&["trace"], &|| {
        section("Execution traces: fused vs unfused TPC-H Q1 (Chrome trace format)");
        let cmp = trace::q1(4.0);
        println!(
            "  {:<12}  {:>8}  {:>8}  {:>14}  {:>14}",
            "variant", "kernels", "pcie", "global bytes", "spans"
        );
        for cap in [&cmp.fused, &cmp.baseline] {
            println!(
                "  {:<12}  {:>8}  {:>8}  {:>14}  {:>14}",
                cap.name.rsplit('.').next().unwrap_or(&cap.name),
                cap.kernel_spans(),
                cap.transfer_spans(),
                cap.stats.global_bytes(),
                cap.spans.len()
            );
        }
        println!("\n  Per-operator summary ({}):", cmp.fused.name);
        for line in
            kw_gpu_sim::summary_table(&kw_gpu_sim::operator_summary(&cmp.fused.spans)).lines()
        {
            println!("    {line}");
        }
        if let Some(dir) = trace_dir {
            let sink = kw_gpu_sim::TraceSink::new(dir).expect("create trace dir");
            for cap in [&cmp.fused, &cmp.baseline] {
                let path = sink
                    .export_spans(&cap.name, &cap.spans, &cap.stats, cap.clock_ghz)
                    .expect("export trace");
                println!(
                    "  wrote {} (open in https://ui.perfetto.dev)",
                    path.display()
                );
            }
        } else {
            println!("  (pass --trace-dir <dir> to export Perfetto-loadable JSON)");
        }
        println!();
    });

    run(&["robustness"], &|| {
        section("Resilient execution: degradation ladder and transient faults");
        println!("  Degradation ladder, pattern (a), 32Ki tuples per capacity:");
        println!(
            "    {:>12}  {:<13}  {:<13}  {:>9}  {:>9}",
            "capacity B", "fused mode", "base mode", "fused ms", "base ms"
        );
        let rows = match robustness::run_ladder(1 << 15) {
            Ok(rows) => rows,
            Err(e) => {
                // A typed sweep error skips the table with a warning instead
                // of panicking mid-sweep (the old unwrap behaviour).
                eprintln!("  !! ladder sweep skipped: {e}");
                Vec::new()
            }
        };
        for r in &rows {
            println!(
                "    {:>12}  {:<13}  {:<13}  {:>9.4}  {:>9.4}",
                r.capacity,
                r.fused_mode.to_string(),
                r.baseline_mode.to_string(),
                r.fused_seconds * 1e3,
                r.baseline_seconds * 1e3
            );
        }
        csv(
            "robustness_ladder.csv",
            "capacity,fused_mode,baseline_mode,fused_seconds,baseline_seconds",
            &rows
                .iter()
                .map(|r| {
                    format!(
                        "{},{},{},{},{}",
                        r.capacity,
                        r.fused_mode,
                        r.baseline_mode,
                        r.fused_seconds,
                        r.baseline_seconds
                    )
                })
                .collect::<Vec<_>>(),
        );
        println!("  (fusion's smaller footprint stays Resident at capacities that");
        println!("   already pushed the baseline down the ladder)");
        println!("  Transient-fault sweep, pattern (a), 16Ki tuples, full device:");
        println!(
            "    {:>6}  {:>8}  {:>8}  {:>10}  {:>10}",
            "rate", "f.retry", "b.retry", "fused ms", "base ms"
        );
        let rows = match robustness::run_faults(1 << 14, &robustness::FAULT_RATES) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("  !! fault sweep skipped: {e}");
                Vec::new()
            }
        };
        for r in &rows {
            println!(
                "    {:>5.0}%  {:>8}  {:>8}  {:>10.4}  {:>10.4}",
                r.rate * 100.0,
                r.fused_retries,
                r.baseline_retries,
                r.fused_seconds * 1e3,
                r.baseline_seconds * 1e3
            );
        }
        csv(
            "robustness_faults.csv",
            "rate,fused_retries,baseline_retries,fused_gpu_seconds,baseline_gpu_seconds,\
             fused_seconds,baseline_seconds",
            &rows
                .iter()
                .map(|r| {
                    format!(
                        "{},{},{},{},{},{},{}",
                        r.rate,
                        r.fused_retries,
                        r.baseline_retries,
                        r.fused_gpu_seconds,
                        r.baseline_gpu_seconds,
                        r.fused_seconds,
                        r.baseline_seconds
                    )
                })
                .collect::<Vec<_>>(),
        );
        println!("  (every row produced identical outputs; retries and backoff are");
        println!("   reported by the resilient driver, never silently absorbed)");
        println!();
    });

    run(&["batch_resilience"], &|| {
        section("Batch resilience: fault rate x batch size on an oversubscribed device");
        let n = 1 << 14;
        println!(
            "  {n} tuples/query, one {}x whale per batch, device sized so the heaviest",
            batch_resilience::WHALE_FACTOR
        );
        println!("  normal query fits a wave alone and the whale fits none\n");
        println!(
            "{:>6}  {:>7}  {:>5}  {:>5}  {:>7}  {:>8}  {:>6}  {:>7}  {:>10}  {:>10}  {:>10}",
            "rate",
            "queries",
            "waves",
            "done",
            "retried",
            "degraded",
            "quar",
            "retries",
            "backoff",
            "goodput",
            "p99"
        );
        let rows = batch_resilience::run(
            n,
            &batch_resilience::FAULT_RATES,
            &batch_resilience::BATCH_SIZES,
        );
        for r in &rows {
            println!(
                "{:>5.0}%  {:>7}  {:>5}  {:>5}  {:>7}  {:>8}  {:>6}  {:>7}  {:>7.3} ms  {:>6.1} q/s  {:>7.3} ms",
                r.fault_rate * 100.0,
                r.queries,
                r.waves,
                r.completed,
                r.retried,
                r.degraded,
                r.quarantined,
                r.retries_total,
                r.backoff_seconds * 1e3,
                r.goodput_qps,
                r.latency_p99_seconds * 1e3,
            );
        }
        println!("  (admission waves absorb the oversubscription, the whale degrades");
        println!("   down the ladder, and faults cost retries/backoff — not the batch)");
        write_bench(
            bench_dir,
            "BENCH_batch_resilience.json",
            &batch_resilience::to_json(n, &rows),
        );
        csv(
            "batch_resilience.csv",
            "fault_rate,queries,waves,completed,retried,degraded,quarantined,\
             retries_total,backoff_seconds,goodput_qps,makespan_seconds,latency_p99_seconds",
            &rows
                .iter()
                .map(|r| {
                    format!(
                        "{},{},{},{},{},{},{},{},{},{},{},{}",
                        r.fault_rate,
                        r.queries,
                        r.waves,
                        r.completed,
                        r.retried,
                        r.degraded,
                        r.quarantined,
                        r.retries_total,
                        r.backoff_seconds,
                        r.goodput_qps,
                        r.makespan_seconds,
                        r.latency_p99_seconds
                    )
                })
                .collect::<Vec<_>>(),
        );
        println!();
    });

    run(&["out_of_core"], &|| {
        section("Out-of-core chunking: paper patterns on a device below their inputs");
        let n = 1 << 13;
        println!(
            "  {n} tuples/input; device capped at half of min(input footprint, staged\n  \
             peak) so the ladder must pick a chunk strategy; outputs byte-checked\n  \
             against resident execution on an oversized device\n"
        );
        println!(
            "{:>6}  {:>18}  {:>10}  {:>10}  {:>6}  {:>10}  {:>10}  {:>6}",
            "pat", "strategy", "input", "device", "chunks", "fused", "unfused", "gain"
        );
        let rows = out_of_core::run(n);
        for r in &rows {
            println!(
                "{:>6}  {:>18}  {:>7} KiB  {:>7} KiB  {:>6}  {:>7.3} ms  {:>7.3} ms  {:>5.2}x",
                r.pattern,
                r.strategy,
                r.input_bytes >> 10,
                r.device_bytes >> 10,
                r.chunks,
                r.fused_seconds * 1e3,
                r.unfused_seconds * 1e3,
                r.fusion_gain,
            );
        }
        println!("  (joins hash-partition, aggregates merge partials, selects row-slice —");
        println!("   no pattern quarantines for being larger than the device)");
        write_bench(
            bench_dir,
            "BENCH_out_of_core.json",
            &out_of_core::to_json(n, &rows),
        );
        csv(
            "out_of_core.csv",
            "pattern,strategy,input_bytes,device_bytes,chunks,\
             fused_seconds,unfused_seconds,fusion_gain",
            &rows
                .iter()
                .map(|r| {
                    format!(
                        "{},{},{},{},{},{},{},{}",
                        r.pattern,
                        r.strategy,
                        r.input_bytes,
                        r.device_bytes,
                        r.chunks,
                        r.fused_seconds,
                        r.unfused_seconds,
                        r.fusion_gain
                    )
                })
                .collect::<Vec<_>>(),
        );
        println!();
    });

    run(&["arena"], &|| {
        section("Scratch arena: alloc churn removed from fused/unfused pipelines");
        let n = 1 << 14;
        println!("  {n} tuples/input; every buffer routed through one upfront");
        println!("  reservation — Alloc/Free spans stay O(1) per plan\n");
        println!(
            "{:>6}  {:>11}  {:>11}  {:>9}  {:>9}  {:>12}  {:>12}  {:>6}  {:>10}  {:>10}",
            "pat",
            "f alloc/fr",
            "u alloc/fr",
            "f suball",
            "u suball",
            "reserved",
            "high-water",
            "spills",
            "fused",
            "unfused"
        );
        let rows = arena::run(n);
        for r in &rows {
            println!(
                "{:>6}  {:>5}/{:<5}  {:>5}/{:<5}  {:>9}  {:>9}  {:>8} KiB  {:>8} KiB  {:>6}  {:>7.3} ms  {:>7.3} ms",
                r.pattern,
                r.fused_alloc_spans,
                r.fused_free_spans,
                r.unfused_alloc_spans,
                r.unfused_free_spans,
                r.fused_sub_allocs,
                r.unfused_sub_allocs,
                r.reservation_bytes >> 10,
                r.high_water_bytes >> 10,
                r.spills,
                r.fused_seconds * 1e3,
                r.unfused_seconds * 1e3,
            );
        }
        println!("  (sub-allocations are served span-free from the reservation;");
        println!("   each used to be a tracked device alloc/free round trip)");
        write_bench(bench_dir, "BENCH_arena.json", &arena::to_json(n, &rows));
        csv(
            "arena.csv",
            "pattern,fused_alloc_spans,unfused_alloc_spans,fused_sub_allocs,\
             unfused_sub_allocs,reservation_bytes,high_water_bytes,spills,\
             fused_seconds,unfused_seconds",
            &rows
                .iter()
                .map(|r| {
                    format!(
                        "{},{},{},{},{},{},{},{},{},{}",
                        r.pattern,
                        r.fused_alloc_spans,
                        r.unfused_alloc_spans,
                        r.fused_sub_allocs,
                        r.unfused_sub_allocs,
                        r.reservation_bytes,
                        r.high_water_bytes,
                        r.spills,
                        r.fused_seconds,
                        r.unfused_seconds
                    )
                })
                .collect::<Vec<_>>(),
        );
        println!();
    });
}

/// Validate one campaign's machine-readable results and write them to
/// `dir/file`.
fn write_bench(dir: &Path, file: &str, json: &str) {
    kw_gpu_sim::validate_json(json).unwrap_or_else(|e| panic!("{file} must parse: {e}"));
    std::fs::create_dir_all(dir).expect("create bench_results dir");
    let path = dir.join(file);
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("  wrote {}", path.display());
}

fn section(title: &str) {
    println!("{title}");
    println!("{}", "-".repeat(title.len()));
}
