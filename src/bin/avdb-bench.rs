//! `avdb-bench` — the workload-matrix benchmark harness.
//!
//! `run` expands a matrix of {transport, site count, fault profile, AV
//! allocation, zipf skew, propagation batch} cells, executes every cell
//! seeded and oracle-checked, and writes `results/BENCH_<label>.json`
//! (machine-readable trajectory) plus `BENCH_<label>.txt` (human table).
//! `compare` gates a fresh report against a committed baseline.
//!
//! ```sh
//! avdb-bench run --transports sim,tcp --sites 3,7 --label local
//! avdb-bench compare results/BENCH_baseline.json results/BENCH_local.json
//! ```

use avdb::bench::report::compare;
use avdb::bench::{
    run_scenario_with_flight_dir, BenchReport, FaultProfile, ScenarioSpec, TransportKind,
};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         avdb-bench run [--transports sim,tcp] [--sites 3,7] [--updates N]\n    \
         [--faults clean,loss,crash,partition] [--alloc uniform,all-at-base,...]\n    \
         [--zipf 0,900] [--batch 1,4] [--fanout 0,4] [--coalesce 0,1]\n    \
         [--sample-milli 0,10,1000] [--series-window 0,64]\n    \
         [--scenarios none|all|flash-sale,kill-the-granter,...]\n    \
         [--imm-products N] [--regular-products N]\n    \
         [--stock N] [--spacing N] [--seed N] [--open-loop] [--label L] [--out DIR]\n    \
         [--flight-dir DIR]\n  \
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
        Some("compare") => cmd_compare(&args[1..]),
        _ => usage(),
    }
}

/// Expands the fast-lane flag lists into the cross product of
/// (fanout, coalesce) cells, in flag order.
fn fast_lane_cells(fanouts: &[usize], coalesces: &[bool]) -> Vec<(usize, bool)> {
    let mut cells = Vec::new();
    for &fanout in fanouts {
        for &coalesce in coalesces {
            cells.push((fanout, coalesce));
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
                                for &(fanout, coalesce) in
                                    fast_lane_cells(&fanouts, &coalesces).iter()
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
