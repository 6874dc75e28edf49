//! `avdb-benchmark` — the repository's performance ledger.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     run --workload live-covered --seed 1 --seconds 24 --trace 0
//! ```
//!
//! `run` executes one workload (every workload, each in a child process
//! of its own, when `--workload` is absent): it generates the inputs from
//! the seed, sets the system up at least 15 times (the median is
//! `setup_s`), measures for about `--seconds`, verifies the run with the conformance
//! oracle, prints every metric by name with its unit on stderr, and
//! prints one JSON object as the last line of stdout. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` repeats the workload with the
//! benchmark's span recorder on, adds the isolated-layer probes, and
//! reports the per-layer metrics. `selfcheck` runs the suite twice and
//! compares; `manifest` prints `BENCHMARK.json`; `map` prints the layer
//! map of README.md.

mod counts;
mod driver;
mod live;
mod metrics;
mod probes;
mod sim;
mod trace;
mod workload;

use metrics::{Values, END_TO_END, LIVE_COVERED, LIVE_MIXED, WORKLOADS};
use std::process::ExitCode;

/// Seconds one run measures; `BENCHMARK.json` declares the same number.
const RUN_SECONDS: u64 = 24;
/// Times the system is set up per run at least; `setup_s` is the median.
pub const SETUPS: usize = 15;

/// What one pass over a workload produced.
#[derive(Default)]
pub struct Pass {
    pub end_to_end: Values,
    pub layer: Values,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Pass {
    pub fn e2e(&mut self, name: &str, value: f64) {
        self.end_to_end.insert(name.to_string(), value);
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|k| k.name == w) {
                    return Err(format!("unknown workload '{w}'"));
                }
                out.workload = Some(w.clone());
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&out.seconds) {
                    return Err("--seconds must be within 1..=60".into());
                }
            }
            "--trace" => out.traced = value()? == "1",
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(out)
}

/// One pass over a workload (set-ups included) and the median set-up
/// time. `once` keeps a simulated workload to a single cell.
fn one_pass(
    workload: &str,
    seed: u64,
    seconds: f64,
    tracer: Option<&trace::Tracer>,
    once: bool,
) -> (Pass, f64) {
    let mut setup_s = Vec::with_capacity(SETUPS + 8);
    let pass = match workload {
        LIVE_COVERED => live::run(live::Kind::Covered, seed, seconds, tracer, &mut setup_s),
        LIVE_MIXED => live::run(live::Kind::Mixed, seed, seconds, tracer, &mut setup_s),
        _ => sim::run_repeated(workload, seed, seconds, once, tracer, &mut setup_s),
    };
    (pass, metrics::median(&setup_s))
}

/// The single JSON object the driver reads from the last line of stdout.
fn result_line(pass: &Pass, values: &Values, units: &[(String, &str)]) -> String {
    let metrics: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            let v = values
                .get(name)
                .copied()
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        pass.correct,
        pass.attempted.max(1),
        pass.failed,
        metrics.join(", ")
    )
}

fn run_workload(workload: &str, args: &Args) -> ExitCode {
    let (pass, values, units) = if !args.traced {
        let (mut pass, setup_s) = one_pass(workload, args.seed, args.seconds, None, false);
        pass.e2e("setup_s", setup_s);
        let units: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect();
        let values = pass.end_to_end.clone();
        (pass, values, units)
    } else {
        // An untraced pass first, so the traced one has something to be
        // compared with: half the seconds each on a live cluster, one
        // whole cell each in simulation.
        let seconds = args.seconds / 2.0;
        let (mut plain, _) = one_pass(workload, args.seed, seconds, None, true);
        let tracer = trace::Tracer::new();
        let (mut pass, _) = one_pass(workload, args.seed, seconds, Some(&tracer), true);
        pass.correct &= plain.correct;
        pass.attempted += plain.attempted;
        pass.failed += plain.failed;
        // A workload's own numbers overwrite the probe suite's; what only
        // the untraced pass can take (a simulated cell's windows) stays.
        let mut values = probes::run_all(args.seed);
        values.append(&mut plain.layer);
        values.append(&mut pass.layer);
        values.insert(
            "trace.overhead_pct".into(),
            probes::overhead_pct(workload, &plain, &pass),
        );
        let counts: Vec<(String, f64)> = values.iter().map(|(k, v)| (k.clone(), *v)).collect();
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{workload}.trace.json"));
        if let Err(e) = tracer.write(&path, &counts) {
            eprintln!("cannot write {}: {e}", path.display());
        }
        for (name, ns, n) in tracer.self_times() {
            eprintln!(
                "span {name:<16} self {:>12.3} ms over {n} spans",
                ns as f64 / 1e6
            );
        }
        let units: Vec<(String, &str)> = metrics::per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect();
        (pass, values, units)
    };
    for (name, unit) in &units {
        if let Some(v) = values.get(name) {
            eprintln!("{workload:<18} {name:<44} {v:>16.4} {unit}");
        }
    }
    println!("{}", result_line(&pass, &values, &units));
    if pass.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{workload}: run is not correct (attempted {}, failed {})",
            pass.attempted, pass.failed
        );
        ExitCode::FAILURE
    }
}

/// Runs `run --workload <w>` in a child process and returns its result
/// line, so memory and threads of one workload never leak into the next.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["run", "--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| format!("{workload} printed nothing"))
}

fn run_suite(args: &Args) -> ExitCode {
    for w in &WORKLOADS {
        for traced in [false, true] {
            if traced && !args.traced {
                continue;
            }
            match child(w.name, args.seed, args.seconds, traced) {
                Ok(line) => println!("{} {line}", w.name),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn metric_values(line: &str) -> Result<Values, String> {
    let v = serde_json::parse_value(line).map_err(|e| format!("result line: {e}"))?;
    if v.get("correct") != Some(&serde::Value::Bool(true)) {
        return Err("run is not correct".into());
    }
    let Some(serde::Value::Object(metrics)) = v.get("metrics") else {
        return Err("result line has no metrics".into());
    };
    let mut out = Values::new();
    for (name, m) in metrics {
        let value = match m.get("value") {
            Some(serde::Value::Float(f)) => *f,
            Some(serde::Value::UInt(u)) => *u as f64,
            Some(serde::Value::Int(i)) => *i as f64,
            _ => return Err(format!("{name} has no value")),
        };
        out.insert(name.clone(), value);
    }
    Ok(out)
}

/// Two complete untraced sets of runs of the same code, side by side with
/// each metric's bound; fails when any end-to-end metric disagrees by
/// more than its bound, or when a simulated workload's exact counts differ
/// between two traced runs of one seed.
fn selfcheck(args: &Args) -> ExitCode {
    let mut ok = true;
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff %", "bound %"
    );
    for w in &WORKLOADS {
        let runs: Result<Vec<Values>, String> = (0..2)
            .map(|_| child(w.name, args.seed, args.seconds, false).and_then(|l| metric_values(&l)))
            .collect();
        let runs = match runs {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        };
        for m in &END_TO_END {
            let (a, b) = (runs[0][m.name], runs[1][m.name]);
            let worse = match m.better {
                metrics::Better::Lower => (b - a) / a,
                metrics::Better::Higher => (a - b) / a,
            };
            let verdict = if worse.abs() > m.bound {
                "  DISAGREE"
            } else {
                ""
            };
            ok &= worse.abs() <= m.bound;
            println!(
                "{:<18} {:<14} {a:>14.3} {b:>14.3} {:>8.2} {:>7.0}{verdict}",
                w.name,
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
        }
        if w.name.starts_with("sim-") {
            let exact: Result<Vec<Values>, String> = (0..2)
                .map(|_| {
                    child(w.name, args.seed, args.seconds, true).and_then(|l| metric_values(&l))
                })
                .collect();
            match exact {
                Ok(e) => {
                    for m in metrics::per_layer()
                        .iter()
                        .filter(|m| m.moves.starts_with('='))
                    {
                        if e[0][&m.name] != e[1][&m.name] {
                            println!(
                                "{:<18} {} differs: {} vs {}",
                                w.name, m.name, e[0][&m.name], e[1][&m.name]
                            );
                            ok = false;
                        }
                    }
                    println!("{:<18} exact counts repeat", w.name);
                }
                Err(e) => {
                    eprintln!("{}: {e}", w.name);
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if ok {
        println!("selfcheck: both sets agree within every bound");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: FAILED");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => ("", &argv[..]),
    };
    let args = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("avdb-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match cmd {
        "run" => match &args.workload {
            Some(w) => run_workload(w, &args),
            None => run_suite(&args),
        },
        "selfcheck" => selfcheck(&args),
        "manifest" => {
            print!("{}", metrics::manifest(RUN_SECONDS));
            ExitCode::SUCCESS
        }
        "map" => {
            print!("{}", metrics::layer_map());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: avdb-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1]\n       avdb-benchmark selfcheck [--seed N] [--seconds S]\n       avdb-benchmark manifest | map"
            );
            ExitCode::from(2)
        }
    }
}
