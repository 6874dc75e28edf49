//! `avdb-bench` — the workload-matrix benchmark harness.
//!
//! `run` expands a matrix of {transport, site count, fault profile, AV
//! allocation, zipf skew, propagation batch} cells, executes every cell
//! seeded and oracle-checked, and writes `results/BENCH_<label>.json`
//! (machine-readable trajectory) plus `BENCH_<label>.txt` (human table).
//! `compare` gates a fresh report against a committed baseline.
//!
//! ```sh
//! avdb-bench run --transports sim,threads,tcp --sites 3,7 --label local
//! avdb-bench compare results/BENCH_baseline.json results/BENCH_local.json
//! ```

use avdb::bench::report::compare;
use avdb::bench::{
    run_scenario, run_scenario_with_flight_dir, BenchReport, FaultProfile, ScenarioSpec,
    TransportKind,
};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         avdb-bench run [--transports sim,threads,tcp] [--sites 3,7] [--updates N]\n    \
         [--faults clean,loss,crash,partition] [--alloc uniform,all-at-base,...]\n    \
         [--zipf 0,900] [--batch 1,4] [--fanout 0,4] [--rebalance 0,512]\n    \
         [--coalesce 0,1] [--sample-milli 0,10,1000] [--series-window 0,64]\n    \
         [--scenarios none|all|flash-sale,kill-the-granter,...]\n    \
         [--imm-products N] [--regular-products N]\n    \
         [--stock N] [--spacing N] [--seed N] [--open-loop] [--label L] [--out DIR]\n    \
         [--flight-dir DIR]\n  \
         avdb-bench overhead [--updates N] [--sites N] [--seed N] [--window N]\n    \
         [--rounds N] [--max-overhead-pct N] [--series-out FILE]\n  \
         avdb-bench compare <baseline.json> <current.json> [--max-regress-pct N]"
    );
    std::process::exit(2);
}

fn parse_list<T, F: Fn(&str) -> Option<T>>(flag: &str, raw: &str, f: F) -> Vec<T> {
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            f(s).unwrap_or_else(|| {
                eprintln!("avdb-bench: bad value '{s}' for {flag}");
                std::process::exit(2);
            })
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("overhead") => cmd_overhead(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => usage(),
    }
}

/// Expands the fast-lane flag lists into the cross product of
/// (fanout, rebalance horizon, coalesce) cells, in flag order.
fn fast_lane_cells(
    fanouts: &[usize],
    rebalances: &[u64],
    coalesces: &[bool],
) -> Vec<(usize, u64, bool)> {
    let mut cells = Vec::new();
    for &fanout in fanouts {
        for &rebalance in rebalances {
            for &coalesce in coalesces {
                cells.push((fanout, rebalance, coalesce));
            }
        }
    }
    cells
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut transports = vec![TransportKind::Sim];
    let mut sites = vec![3usize, 7];
    let mut updates_list: Vec<usize> = Vec::new();
    let mut faults = vec![FaultProfile::Clean];
    let mut allocs = vec![avdb::types::AvAllocation::Uniform];
    let mut zipfs = vec![0u64];
    let mut batches = vec![1usize];
    let mut fanouts = vec![0usize];
    let mut rebalances = vec![0u64];
    let mut coalesces = vec![false];
    let mut sample_millis = vec![0u32];
    let mut series_windows = vec![0u64];
    let mut scenarios: Vec<Option<String>> = vec![None];
    let mut base = ScenarioSpec::base();
    let mut label = String::from("local");
    let mut out_dir = String::from("results");
    let mut flight_dir: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("avdb-bench: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--transports" => {
                transports = parse_list(arg, &value(arg), TransportKind::parse);
            }
            "--sites" => sites = parse_list(arg, &value(arg), |s| s.parse().ok()),
            "--faults" => faults = parse_list(arg, &value(arg), FaultProfile::parse),
            "--alloc" => {
                allocs = parse_list(arg, &value(arg), avdb::bench::matrix::parse_allocation);
            }
            "--zipf" => zipfs = parse_list(arg, &value(arg), |s| s.parse().ok()),
            "--batch" => batches = parse_list(arg, &value(arg), |s| s.parse().ok()),
            "--fanout" => fanouts = parse_list(arg, &value(arg), |s| s.parse().ok()),
            "--rebalance" => rebalances = parse_list(arg, &value(arg), |s| s.parse().ok()),
            "--coalesce" => {
                coalesces = parse_list(arg, &value(arg), |s| match s {
                    "0" | "false" => Some(false),
                    "1" | "true" => Some(true),
                    _ => None,
                });
            }
            "--sample-milli" => {
                sample_millis =
                    parse_list(arg, &value(arg), |s| s.parse().ok().filter(|&m| m <= 1000));
            }
            "--series-window" => {
                series_windows = parse_list(arg, &value(arg), |s| s.parse().ok());
            }
            "--scenarios" => {
                let raw = value(arg);
                scenarios = if raw == "all" {
                    avdb::chaos::Scenario::ALL
                        .iter()
                        .map(|sc| Some(sc.name().to_string()))
                        .collect()
                } else {
                    parse_list(arg, &raw, |s| {
                        if s == "none" {
                            Some(None)
                        } else {
                            avdb::chaos::Scenario::parse(s).map(|sc| Some(sc.name().to_string()))
                        }
                    })
                };
            }
            "--updates" => updates_list = parse_list(arg, &value(arg), |s| s.parse().ok()),
            "--imm-products" => {
                base.non_regular_products = value(arg).parse().unwrap_or_else(|_| usage());
            }
            "--regular-products" => {
                base.regular_products = value(arg).parse().unwrap_or_else(|_| usage());
            }
            "--stock" => base.initial_stock = value(arg).parse().unwrap_or_else(|_| usage()),
            "--spacing" => base.spacing = value(arg).parse().unwrap_or_else(|_| usage()),
            "--seed" => base.seed = value(arg).parse().unwrap_or_else(|_| usage()),
            "--open-loop" => base.closed_loop = false,
            "--label" => label = value(arg),
            "--out" => out_dir = value(arg),
            "--flight-dir" => flight_dir = Some(value(arg)),
            _ => usage(),
        }
    }

    // `--updates` is a scale axis like `--sites`: each listed count is a
    // separate matrix cell, distinguished by the label's `-uN` segment.
    if updates_list.is_empty() {
        updates_list.push(base.updates);
    }
    let mut report = BenchReport {
        label: label.clone(),
        scenarios: Vec::new(),
    };
    let mut failures = 0usize;
    for &transport in &transports {
        for &n in &sites {
            for &updates in &updates_list {
                for &fault in &faults {
                    for &allocation in &allocs {
                        for &zipf_milli in &zipfs {
                            for &batch in &batches {
                                for &(fanout, rebalance, coalesce) in
                                    fast_lane_cells(&fanouts, &rebalances, &coalesces).iter()
                                {
                                    for ((scenario, &sample_milli), &series_window) in scenarios
                                        .iter()
                                        .flat_map(|sc| sample_millis.iter().map(move |m| (sc, m)))
                                        .flat_map(|pair| {
                                            series_windows.iter().map(move |w| (pair, w))
                                        })
                                    {
                                        let mut spec = base.clone();
                                        spec.transport = transport;
                                        spec.sites = n;
                                        spec.updates = updates;
                                        spec.fault = fault;
                                        spec.allocation = allocation;
                                        spec.zipf_milli = zipf_milli;
                                        spec.propagation_batch = batch;
                                        spec.shortage_fanout = fanout;
                                        spec.rebalance_horizon_ticks = rebalance;
                                        spec.coalesce_propagation = coalesce;
                                        spec.trace_sample_milli = sample_milli;
                                        spec.series_window_ticks = series_window;
                                        spec.scenario = scenario.clone();
                                        if transport != TransportKind::Sim
                                            && (fault != FaultProfile::Clean
                                                || spec.scenario.is_some())
                                        {
                                            eprintln!(
                                                "skip {}: faults and scenarios need the \
                                             deterministic scheduler",
                                                spec.label()
                                            );
                                            continue;
                                        }
                                        eprint!("running {} ... ", spec.label());
                                        match run_scenario_with_flight_dir(
                                            &spec,
                                            flight_dir.as_ref().map(std::path::Path::new),
                                        ) {
                                            Ok(arts) => {
                                                eprintln!(
                                                    "ok ({}/{} committed)",
                                                    arts.result.stats.committed,
                                                    arts.result.stats.submitted
                                                );
                                                report.scenarios.push(arts.result);
                                            }
                                            Err(e) => {
                                                eprintln!("FAILED: {e}");
                                                failures += 1;
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    if report.scenarios.is_empty() {
        eprintln!("avdb-bench: no scenario produced results");
        return ExitCode::FAILURE;
    }
    let dir = Path::new(&out_dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("avdb-bench: cannot create {out_dir}: {e}");
        return ExitCode::FAILURE;
    }
    let json_path = dir.join(format!("BENCH_{label}.json"));
    let table_path = dir.join(format!("BENCH_{label}.txt"));
    let table = report.render_table();
    if let Err(e) = std::fs::write(&json_path, report.to_json()) {
        eprintln!("avdb-bench: cannot write {}: {e}", json_path.display());
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&table_path, &table) {
        eprintln!("avdb-bench: cannot write {}: {e}", table_path.display());
        return ExitCode::FAILURE;
    }
    println!("{table}");
    println!("wrote {}", json_path.display());
    if failures > 0 {
        eprintln!("avdb-bench: {failures} scenario(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The telemetry-overhead gate: runs one sim cell twice — series plane
/// off, then on — best-of-`rounds` each, and fails when the series plane
/// costs more than `--max-overhead-pct` wall time, records no windows,
/// or perturbs any deterministic statistic. `--series-out` dumps the
/// instrumented run's JSONL export for the CI artifact.
fn cmd_overhead(args: &[String]) -> ExitCode {
    let mut spec = ScenarioSpec::base();
    spec.sites = 7;
    spec.updates = 100_000;
    // Scale-matched default: the 100k-update cell spans ~4M ticks, so
    // 4096-tick windows give ~100-update rate resolution while keeping
    // boundary work (one roll per window per site) out of the hot path.
    let mut window = 4096u64;
    let mut rounds = 3usize;
    let mut max_overhead_pct = 5u64;
    let mut series_out: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("avdb-bench: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--updates" => spec.updates = value(arg).parse().unwrap_or_else(|_| usage()),
            "--sites" => spec.sites = value(arg).parse().unwrap_or_else(|_| usage()),
            "--seed" => spec.seed = value(arg).parse().unwrap_or_else(|_| usage()),
            "--window" => window = value(arg).parse().unwrap_or_else(|_| usage()),
            "--rounds" => rounds = value(arg).parse().unwrap_or_else(|_| usage()),
            "--max-overhead-pct" => {
                max_overhead_pct = value(arg).parse().unwrap_or_else(|_| usage());
            }
            "--series-out" => series_out = Some(value(arg)),
            _ => usage(),
        }
    }
    if window == 0 || rounds == 0 {
        usage();
    }

    // Best-of-N wall time per variant, with the variants interleaved
    // round-by-round: the min is the least-noisy estimate of a cell's
    // intrinsic cost on a busy CI box, and interleaving keeps slow drift
    // (a neighbour job starting mid-gate) from biasing one variant.
    let mut on_spec = spec.clone();
    on_spec.series_window_ticks = window;
    let run_round = |spec: &ScenarioSpec,
                     round: usize,
                     champion: &mut Option<(u64, avdb::bench::RunArtifacts)>|
     -> Result<(), String> {
        eprint!(
            "running {} (round {}/{rounds}) ... ",
            spec.label(),
            round + 1
        );
        let arts = run_scenario(spec)?;
        let ms = arts.result.wall.elapsed_ms.max(1);
        eprintln!("{ms} ms");
        if champion.as_ref().is_none_or(|(champ, _)| ms < *champ) {
            *champion = Some((ms, arts));
        }
        Ok(())
    };
    let mut best_off: Option<(u64, avdb::bench::RunArtifacts)> = None;
    let mut best_on: Option<(u64, avdb::bench::RunArtifacts)> = None;
    for round in 0..rounds {
        if let Err(e) = run_round(&spec, round, &mut best_off)
            .and_then(|()| run_round(&on_spec, round, &mut best_on))
        {
            eprintln!("avdb-bench: overhead cell failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    let (off_ms, off_arts) = best_off.expect("rounds >= 1");
    let (on_ms, on_arts) = best_on.expect("rounds >= 1");

    let mut failures = Vec::new();
    // The series plane must not change what the protocol *did* — only
    // observe it. Deterministic stats are byte-comparable across the two
    // variants because the sim schedule ignores telemetry entirely.
    if off_arts.result.stats != on_arts.result.stats {
        failures.push("deterministic stats differ between series-on and series-off".to_string());
    }
    let scopes = on_arts.export.series_scopes().len();
    let windows = on_arts.export.series.len();
    if windows == 0 {
        failures.push("series-on run exported no series windows".to_string());
    }
    let overhead_pct = (on_ms.saturating_sub(off_ms)) * 100 / off_ms;
    if overhead_pct > max_overhead_pct {
        failures.push(format!(
            "series plane costs {overhead_pct}% wall time \
             ({on_ms} ms vs {off_ms} ms; budget {max_overhead_pct}%)"
        ));
    }
    println!(
        "overhead {}: off {off_ms} ms, on {on_ms} ms ({overhead_pct}% overhead, budget \
         {max_overhead_pct}%); {windows} series windows across {scopes} scopes",
        spec.label()
    );
    if let Some(path) = &series_out {
        if let Err(e) = std::fs::write(path, on_arts.export.to_jsonl()) {
            eprintln!("avdb-bench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote instrumented export to {path}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("overhead gate failed: {f}");
        }
        ExitCode::FAILURE
    }
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut max_regress_pct = 25u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-regress-pct" => {
                max_regress_pct = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => paths.push(arg.clone()),
        }
    }
    if paths.len() != 2 {
        usage();
    }
    let load = |p: &str| -> BenchReport {
        let raw = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("avdb-bench: cannot read {p}: {e}");
            std::process::exit(1);
        });
        BenchReport::from_json(&raw).unwrap_or_else(|e| {
            eprintln!("avdb-bench: {p}: {e}");
            std::process::exit(1);
        })
    };
    let baseline = load(&paths[0]);
    let current = load(&paths[1]);
    match compare(&baseline, &current, max_regress_pct) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            println!(
                "throughput, shortage rate, amplification p95, and messages per \
                 commit within {max_regress_pct}% of baseline"
            );
            ExitCode::SUCCESS
        }
        Err(violations) => {
            for v in violations {
                eprintln!("{v}");
            }
            eprintln!("avdb-bench: regression gate failed");
            ExitCode::FAILURE
        }
    }
}
