//! `avdb-check` — seed-sweep conformance fuzzer for the AV escrow protocol.
//!
//! Sweeps seeds × site counts × fault schedules (or chaos scenarios)
//! through a full [`avdb::core::DistributedSystem`] run, settles
//! propagation, and verifies every invariant the conformance oracle
//! knows about. On a violation the workload is binary-search minimized
//! to the shortest failing request prefix, and the flags that replay it
//! are printed.
//!
//! ```text
//! cargo run --bin avdb-check -- --seeds 0..500 --faults all
//! cargo run --bin avdb-check -- --seeds 0..100 --faults crash,loss --sites 3,5 --requests 60
//! cargo run --bin avdb-check -- --scenario all --seeds 0..10 --sites 3,5
//! ```
//!
//! Fault schedules (`--faults`), drawn at random per seed:
//!
//! * `clean`     — reliable network, mixed Delay + Immediate traffic
//! * `crash`     — fail-stop crashes + recoveries at random times
//! * `partition` — a random two-group partition installed and healed mid-run
//! * `loss`      — every message dropped with 5% probability
//!
//! The fault schedules drive Delay (regular-product) traffic only: the
//! Immediate path is classic presumed-abort 2PC, which assumes reliable
//! delivery of the decision round (see DESIGN.md, "Oracle & invariants").
//! `--scenario` runs the chaos library's named scenarios instead.
//!
//! The sweep itself is `avdb::bench::sweep`; this binary parses flags
//! and prints.

use avdb::bench::sweep::{Fault, Shape, Step, Sweep};
use avdb::chaos::Scenario;
use avdb::simnet::RegistrySnapshot;
use std::process::ExitCode;

const USAGE: &str = "usage: avdb-check [--seeds A..B] \
    [--faults all|clean,crash,partition,loss | --scenario all|flash-sale,kill-the-granter,...] \
    [--sites N,M] [--fanout 0,2] [--coalesce 0,1] [--requests N] [--prefix N] \
    [--verbose] [--stats]";

/// The parsed command line: the sweep plus what to print.
struct Args {
    sweep: Sweep,
    verbose: bool,
    stats: bool,
}

fn list<T>(v: &str, parse: impl Fn(&str) -> Option<T>) -> Result<Vec<T>, String> {
    v.split(',').map(|s| parse(s).ok_or_else(|| format!("bad value '{s}'"))).collect()
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut sweep = Sweep {
        seeds: 0..100,
        shapes: Vec::new(),
        sites: vec![3, 5],
        fanouts: vec![0],
        coalesces: vec![false],
        requests: 40,
        prefix: None,
    };
    let (mut verbose, mut stats) = (false, false);
    let (mut faults, mut scenarios) = (None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seeds" => {
                let v = value()?;
                let parsed =
                    v.split_once("..").and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)));
                let (a, b) = parsed.ok_or_else(|| format!("bad seed range '{v}'"))?;
                sweep.seeds = a..b;
            }
            "--faults" => {
                let v = value()?;
                faults =
                    Some(if v == "all" { Fault::ALL.to_vec() } else { list(&v, Fault::parse)? });
            }
            "--scenario" | "--scenarios" => {
                let v = value()?;
                scenarios = Some(if v == "all" {
                    Scenario::ALL.to_vec()
                } else {
                    list(&v, Scenario::parse)?
                });
            }
            "--sites" => sweep.sites = list(&value()?, |s| s.parse().ok())?,
            "--fanout" => sweep.fanouts = list(&value()?, |s| s.parse().ok())?,
            "--coalesce" => {
                sweep.coalesces = list(&value()?, |s| match s {
                    "0" | "false" => Some(false),
                    "1" | "true" => Some(true),
                    _ => None,
                })?
            }
            "--requests" => sweep.requests = value()?.parse().map_err(|_| "bad --requests")?,
            "--prefix" => sweep.prefix = Some(value()?.parse().map_err(|_| "bad --prefix")?),
            "--verbose" => verbose = true,
            "--stats" => stats = true,
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    sweep.shapes = match (faults, scenarios) {
        (Some(_), Some(_)) => return Err("--faults and --scenario exclude each other".into()),
        (None, Some(scenarios)) => scenarios.into_iter().map(Shape::Scenario).collect(),
        (faults, None) => {
            faults.unwrap_or(Fault::ALL.to_vec()).into_iter().map(Shape::Fault).collect()
        }
    };
    if sweep.seeds.is_empty()
        || sweep.shapes.is_empty()
        || sweep.sites.is_empty()
        || sweep.fanouts.is_empty()
        || sweep.coalesces.is_empty()
        || sweep.sites.contains(&0)
    {
        return Err("every axis needs at least one value, and sites at least 1".into());
    }
    Ok(Args { sweep, verbose, stats })
}

/// Prints the merged per-site registry summary for one run: message
/// counts by kind and the AV shortage-depth histogram.
fn print_stats(reg: &RegistrySnapshot) {
    println!("  registry: messages sent by kind:");
    let mut any = false;
    for (key, n) in &reg.counters {
        if let Some(kind) = key.strip_prefix("msg.sent.") {
            println!("    {kind:<16} {n}");
            any = true;
        }
    }
    if !any {
        println!("    (none)");
    }
    match reg.histograms.get("delay.shortage") {
        Some(h) => {
            println!(
                "  registry: AV shortage depth ({} shortages, mean {:.1}, max {}):",
                h.count,
                h.mean(),
                h.max
            );
            print!("{}", h.render());
        }
        None => println!("  registry: no AV shortages"),
    }
}

fn main() -> ExitCode {
    let Args { sweep, verbose, stats } = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("avdb-check: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scenario_mode = matches!(sweep.shapes[0], Shape::Scenario(_));
    let started = std::time::Instant::now();
    let seeds = format!("{}..{}", sweep.seeds.start, sweep.seeds.end);
    let shapes = sweep.shapes.iter().map(Shape::to_string).collect::<Vec<_>>().join(", ");
    if scenario_mode {
        println!(
            "avdb-check: scenarios [{shapes}], seeds {seeds}, sites {:?}, {} requests/run",
            sweep.sites, sweep.requests,
        );
    } else {
        println!(
            "avdb-check: seeds {seeds}, faults [{shapes}], sites {:?}, fanout {:?}, \
             coalesce {:?}, {} requests/run",
            sweep.sites, sweep.fanouts, sweep.coalesces, sweep.requests,
        );
    }
    // `--stats` on a single replayed case (one seed, shape, site count —
    // the shape of a printed minimal repro) summarizes that run directly;
    // on a sweep it fires only for the minimized failures.
    let single_case = sweep.seeds.end.saturating_sub(sweep.seeds.start) == 1
        && sweep.shapes.len() == 1
        && sweep.sites.len() == 1
        && sweep.fanouts.len() == 1
        && sweep.coalesces.len() == 1;
    let prefix = sweep.prefix.unwrap_or(sweep.requests);
    let (runs, failures) = sweep.run(|step| match step {
        Step::Ran(case, run) => {
            let verdict = if run.conforms() { "ok" } else { "VIOLATION" };
            if verbose {
                match case.shape {
                    Shape::Scenario(_) => {
                        println!("  {case}: {verdict} (nemesis fired {}×)", run.fired)
                    }
                    Shape::Fault(_) => println!("  {case}: {verdict}"),
                }
            }
            if stats && single_case {
                print_stats(&run.registry());
            }
            if !run.conforms() {
                println!("VIOLATION {case} requests={prefix}");
                print!("{}", run.checked.report);
            }
        }
        Step::Shrunk(case, min, run, flight) => {
            println!("  minimal repro: {}", case.flags(min));
            match flight {
                Ok(path) => println!(
                    "  flight recorder dump: {} (render with `avdb-trace flight`)",
                    path.display()
                ),
                Err(e) => eprintln!("avdb-check: could not write the flight dump: {e}"),
            }
            print!("{}", run.checked.report);
            if stats {
                print_stats(&run.registry());
            }
        }
        Step::Vacuous(scenario, n_sites) => println!(
            "VACUOUS scenario={scenario} sites={n_sites}: nemesis never fired across {} seed(s)",
            sweep.seeds.end.saturating_sub(sweep.seeds.start)
        ),
        Step::Done(shape, runs, violations) => {
            let width = if scenario_mode { 22 } else { 9 };
            let plural = if violations == 1 { "" } else { "s" };
            println!("  {:<width$} {runs} runs, {violations} violation{plural}", shape.to_string());
        }
    });
    let elapsed = started.elapsed();
    let what = if scenario_mode { "scenario runs" } else { "runs" };
    if failures == 0 {
        println!("all {runs} {what} conform ({elapsed:.1?})");
        ExitCode::SUCCESS
    } else {
        println!("{failures} of {runs} {what} violated invariants ({elapsed:.1?})");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avdb::bench::sweep::{run_case, shortest_failing_prefix, Case};

    fn parse(flags: &str) -> Result<Args, String> {
        parse_args(flags.split_whitespace().map(str::to_string))
    }

    #[test]
    fn a_printed_repro_replays_the_minimized_run() {
        let case = Case {
            shape: Shape::Fault(Fault::Crash),
            seed: 3,
            n_sites: 5,
            fanout: 0,
            coalesce: false,
            requests: 40,
        };
        // Pretend the case fails from request 17 on.
        let min = shortest_failing_prefix(case.requests, |n| n >= 17);
        let minimized = run_case(&case, min);

        let Args { sweep, .. } = parse(&case.flags(min)).expect("the repro parses");
        let mut replayed = Vec::new();
        sweep.run(|step| {
            if let Step::Ran(case, run) = step {
                replayed.push((*case, run.checked.observation.outcomes.clone()));
            }
        });
        assert_eq!(replayed.len(), 1, "the repro names one case");
        assert_eq!(replayed[0].0, case, "the repro parses back to the same case");
        assert_eq!(
            replayed[0].1, minimized.checked.observation.outcomes,
            "the replay at the printed prefix is the minimized run"
        );
        // `--requests 17` would submit the same requests but draw the
        // crash times over a shorter horizon: another run.
        let shrunk = Case { requests: min, ..case };
        assert_eq!(shrunk.schedule(), case.schedule()[..min]);
        assert_ne!(run_case(&shrunk, min).checked.observation.outcomes, replayed[0].1);
    }

    #[test]
    fn fast_lane_flags_reach_scenario_cases() {
        let Args { sweep, .. } =
            parse("--scenario flash-sale --fanout 2 --coalesce 1").expect("valid flags");
        assert_eq!(sweep.shapes, vec![Shape::Scenario(Scenario::FlashSale)]);
        assert_eq!((sweep.fanouts, sweep.coalesces), (vec![2], vec![true]));
    }

    #[test]
    fn faults_and_scenarios_exclude_each_other() {
        let err = parse("--scenario all --faults crash").err().expect("a usage error");
        assert!(err.contains("exclude"), "{err}");
        assert!(parse("--faults crash --seeds 3..3").is_err(), "an empty seed range");
        assert!(parse("--requests").is_err(), "a flag without its value");
    }
}
