//! `avdb` — command-line front end for the reproduction.
//!
//! ```sh
//! avdb fig6      [--updates N] [--seed S]     # E1: Fig. 6
//! avdb table1    [--updates N] [--seed S]     # E2: Table 1
//! avdb ablations [--ablation N] [--seed S]    # A1–A4, A6–A10 sweeps
//! avdb faults    [--ablation N] [--seed S]    # A5: crash experiments
//! avdb report    [--dir D] [--updates N] [--ablation N] [--seed S]
//! avdb demo                                    # 3-site walkthrough
//! avdb serve [--sites N] [--seed S] [--updates N] [--hold-ms MS]
//!            [--series-window N] [--addr-file PATH]
//!            [--flight-dir DIR]                      # TCP cluster + /metrics
//!                                  # + wire-protocol gateway (PATH.wire)
//! avdb top --targets HOST:PORT,... [--interval-ms N] [--once] [--check]
//! ```

use avdb::prelude::*;
use avdb::bench::paper::{
    generate_report, run_ablations, run_faults, run_fig6, run_table1, table1_checkpoints,
    ReportScale,
};
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command-line options.
struct Opts {
    updates: usize,
    ablation_updates: usize,
    seed: u64,
    dir: PathBuf,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            updates: 10_000,
            ablation_updates: 3_000,
            seed: 1,
            dir: PathBuf::from("results/json"),
        }
    }
}

fn parse_opts(args: &[String]) -> Result<Opts> {
    let mut opts = Opts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String> {
            it.next().ok_or_else(|| {
                AvdbError::InvalidConfig(format!("{name} requires a value"))
            })
        };
        match flag.as_str() {
            "--updates" => {
                opts.updates = value("--updates")?
                    .parse()
                    .map_err(|e| AvdbError::InvalidConfig(format!("--updates: {e}")))?;
            }
            "--ablation" => {
                opts.ablation_updates = value("--ablation")?
                    .parse()
                    .map_err(|e| AvdbError::InvalidConfig(format!("--ablation: {e}")))?;
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| AvdbError::InvalidConfig(format!("--seed: {e}")))?;
            }
            "--dir" => opts.dir = PathBuf::from(value("--dir")?),
            other => {
                return Err(AvdbError::InvalidConfig(format!("unknown flag {other}")));
            }
        }
    }
    Ok(opts)
}

fn cmd_fig6(opts: &Opts) {
    let result = run_fig6(opts.updates, opts.seed);
    println!("{}", result.render());
}

fn cmd_table1(opts: &Opts) {
    let result = run_table1(&table1_checkpoints(opts.updates), opts.seed);
    println!("{}", result.render());
    println!(
        "retailer unfairness: {:.1}% (paper: \"almost same\")",
        result.retailer_unfairness() * 100.0
    );
}

fn cmd_ablations(opts: &Opts) -> Result<()> {
    for artifact in run_ablations(opts.ablation_updates, opts.seed)? {
        println!("{}", artifact.text);
    }
    Ok(())
}

fn cmd_faults(opts: &Opts) {
    let (retailer, maker) = run_faults(opts.ablation_updates, opts.seed);
    for (label, r) in [("retailer (site2)", retailer), ("maker (site0)", maker)] {
        println!("=== crash of {label} ===");
        println!(
            "  proposal: {} commits total, {} during outage, converged={}",
            r.proposal_committed, r.proposal_committed_during_outage, r.converged_after_recovery
        );
        println!(
            "  conventional: {} commits total, {} during outage, worst latency {} ticks\n",
            r.conventional_committed,
            r.conventional_committed_during_outage,
            r.conventional_max_latency
        );
    }
}

fn cmd_report(opts: &Opts) -> Result<()> {
    let scale = ReportScale {
        paper_updates: opts.updates,
        ablation_updates: opts.ablation_updates,
        seed: opts.seed,
    };
    let written = generate_report(&opts.dir, scale)?;
    println!("wrote {} artifacts to {}", written.len(), opts.dir.display());
    Ok(())
}

fn cmd_demo() -> Result<()> {
    let config = SystemConfig::builder()
        .sites(3)
        .regular_products(1, Volume(90))
        .non_regular_products(1, Volume(30))
        .seed(42)
        .build()?;
    let mut system = DistributedSystem::new(config);
    system.enable_trace();
    system.submit_at(VirtualTime(0), UpdateRequest::new(SiteId(1), ProductId(0), Volume(-20)));
    system.submit_at(VirtualTime(10), UpdateRequest::new(SiteId(1), ProductId(0), Volume(-25)));
    system.submit_at(VirtualTime(20), UpdateRequest::new(SiteId(2), ProductId(1), Volume(-5)));
    system.run_until_quiescent();
    for (at, site, outcome) in system.drain_outcomes() {
        println!("t={at:<3} {site}: {outcome:?}");
    }
    println!("\nmessage sequence:\n{}", avdb::simnet::render_sequence(system.trace()));
    Ok(())
}

// ---- serve: a live TCP cluster with /metrics + /status endpoints ----------

struct ServeOpts {
    sites: usize,
    seed: u64,
    updates: usize,
    hold_ms: u64,
    series_window: u64,
    addr_file: Option<PathBuf>,
    flight_dir: Option<PathBuf>,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            sites: 3,
            seed: 1,
            updates: 150,
            hold_ms: 10_000,
            series_window: 16,
            addr_file: None,
            flight_dir: None,
        }
    }
}

fn parse_serve_opts(args: &[String]) -> Result<ServeOpts> {
    let mut opts = ServeOpts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String> {
            it.next()
                .ok_or_else(|| AvdbError::InvalidConfig(format!("{name} requires a value")))
        };
        let parse_err = |name: &str, e: &dyn std::fmt::Display| {
            AvdbError::InvalidConfig(format!("{name}: {e}"))
        };
        match flag.as_str() {
            "--sites" => {
                opts.sites = value("--sites")?.parse().map_err(|e| parse_err("--sites", &e))?;
            }
            "--seed" => {
                opts.seed = value("--seed")?.parse().map_err(|e| parse_err("--seed", &e))?;
            }
            "--updates" => {
                opts.updates =
                    value("--updates")?.parse().map_err(|e| parse_err("--updates", &e))?;
            }
            "--hold-ms" => {
                opts.hold_ms =
                    value("--hold-ms")?.parse().map_err(|e| parse_err("--hold-ms", &e))?;
            }
            "--series-window" => {
                opts.series_window = value("--series-window")?
                    .parse()
                    .map_err(|e| parse_err("--series-window", &e))?;
            }
            "--addr-file" => opts.addr_file = Some(PathBuf::from(value("--addr-file")?)),
            "--flight-dir" => opts.flight_dir = Some(PathBuf::from(value("--flight-dir")?)),
            other => return Err(AvdbError::InvalidConfig(format!("unknown flag {other}"))),
        }
    }
    Ok(opts)
}

/// Boots a TCP cluster with per-site HTTP introspection and a
/// wire-protocol gateway, pumps a small deterministic workload through
/// it, then holds the endpoints open for `--hold-ms` so `avdb top` /
/// `curl` / wire clients / CI can scrape and drive them.
fn cmd_serve(opts: &ServeOpts) -> Result<()> {
    use avdb::core::Input;
    use avdb::gateway::{Gateway, GatewayConfig};
    use avdb::simnet::TcpMesh;
    use std::sync::Arc;

    let cfg = SystemConfig::builder()
        .sites(opts.sites)
        .regular_products(3, Volume(6_000))
        .non_regular_products(1, Volume(600))
        .propagation_batch(5)
        .series_window_ticks(opts.series_window)
        .seed(opts.seed)
        .build()?;
    let actors: Vec<Accelerator> = SiteId::all(opts.sites)
        .map(|s| {
            let mut acc = Accelerator::new(s, &cfg);
            if let Some(dir) = &opts.flight_dir {
                acc.enable_flight_dump(dir.clone());
            }
            acc
        })
        .collect();
    let (mesh, addrs): (TcpMesh<Accelerator>, _) = TcpMesh::spawn_with_http(actors, opts.seed);
    let mesh = Arc::new(mesh);
    let gateway = Gateway::spawn(Arc::clone(&mesh), opts.sites, GatewayConfig::default());

    let lines: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
    let wire_lines: Vec<String> = gateway.addrs().iter().map(|a| a.to_string()).collect();
    for (i, line) in lines.iter().enumerate() {
        println!("site {i}: http://{line}  (/metrics, /status)  wire://{}", wire_lines[i]);
    }
    // A deterministic mixed workload: the base mints, retailers sell, and
    // one product runs the Immediate (2PC) path.
    for i in 0..opts.updates as u64 {
        let site = SiteId((i % opts.sites as u64) as u32);
        let (product, delta) = if i % 10 == 9 {
            (ProductId(3), Volume(-1))
        } else if site == SiteId::BASE {
            (ProductId((i % 3) as u32), Volume(10))
        } else {
            (ProductId((i % 3) as u32), Volume(-7))
        };
        mesh.inject(site, Input::Update(UpdateRequest::new(site, product, delta)));
    }
    // An outcome reaches the gateway inside the handler that produced
    // it, so a quiet mesh has counted them all; the anti-entropy round
    // drains the replication queues before anyone scrapes.
    let settle = std::time::Duration::from_secs(30);
    let quiet = mesh.quiesce(settle);
    let seen = gateway.outcome_count();
    for site in SiteId::all(opts.sites) {
        mesh.inject(site, Input::FlushPropagation);
    }
    if !(quiet && mesh.quiesce(settle)) || (seen as usize) < opts.updates {
        return Err(AvdbError::InvalidConfig(format!(
            "the workload did not settle within {settle:?}: {seen}/{} outcomes",
            opts.updates
        )));
    }
    // The addr file is written only once the workload has settled, so a
    // harness waiting on it scrapes a fully populated registry.
    if let Some(path) = &opts.addr_file {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(path, lines.join("\n") + "\n")
            .map_err(|e| AvdbError::InvalidConfig(format!("--addr-file: {e}")))?;
        // Wire-protocol addresses go in a sibling file: the main addr
        // file stays HTTP-only so `avdb top` can consume it verbatim.
        std::fs::write(path.with_extension("wire"), wire_lines.join("\n") + "\n")
            .map_err(|e| AvdbError::InvalidConfig(format!("--addr-file: {e}")))?;
    }
    println!("workload done: {seen}/{} outcomes; holding {} ms", opts.updates, opts.hold_ms);
    std::thread::sleep(std::time::Duration::from_millis(opts.hold_ms));

    let (_, _, gw_stats) = gateway.finish();
    println!(
        "gateway: {} accepted, {} refused, {} shed, {} wire updates",
        gw_stats.accepted, gw_stats.refused, gw_stats.shed, gw_stats.updates
    );
    let mesh = Arc::try_unwrap(mesh).ok().expect("the gateway released the mesh");
    let (actors, counters, _) = mesh.shutdown();
    if let Some(dir) = &opts.flight_dir {
        let mut dump = avdb::telemetry::FlightDump::new("serve-shutdown", 0);
        for acc in &actors {
            dump.push_site(acc.site().0, acc.flight());
        }
        let path = avdb::bench::run::write_flight(dir, "serve-shutdown", &dump)
            .map_err(|e| AvdbError::InvalidConfig(format!("--flight-dir: {e}")))?;
        println!("flight recorder dump: {}", path.display());
    }
    println!("shut down: {} messages on the wire", counters.total_messages());
    Ok(())
}

// ---- top: poll /status + /metrics across a cluster ------------------------

struct TopOpts {
    targets: Vec<String>,
    interval_ms: u64,
    once: bool,
    check: bool,
}

fn parse_top_opts(args: &[String]) -> Result<TopOpts> {
    let mut opts = TopOpts { targets: Vec::new(), interval_ms: 1_000, once: false, check: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String> {
            it.next()
                .ok_or_else(|| AvdbError::InvalidConfig(format!("{name} requires a value")))
        };
        match flag.as_str() {
            "--targets" => {
                opts.targets = value("--targets")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--interval-ms" => {
                opts.interval_ms = value("--interval-ms")?
                    .parse()
                    .map_err(|e| AvdbError::InvalidConfig(format!("--interval-ms: {e}")))?;
            }
            "--once" => opts.once = true,
            "--check" => opts.check = true,
            other => return Err(AvdbError::InvalidConfig(format!("unknown flag {other}"))),
        }
    }
    if opts.targets.is_empty() {
        return Err(AvdbError::InvalidConfig("top requires --targets HOST:PORT,...".into()));
    }
    Ok(opts)
}

/// One plain HTTP/1.1 GET over a fresh TCP connection. Returns
/// `(status_code, body)`.
fn http_get(target: &str, path: &str) -> std::io::Result<(u16, String)> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(target)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {target}\r\nConnection: close\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let code: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((code, body))
}

/// Metric families every healthy site must expose (the smoke contract CI
/// checks against).
const REQUIRED_FAMILIES: &[&str] =
    &["avdb_update_committed_total", "avdb_repl_queue_depth", "avdb_update_latency_ticks"];

fn render_cluster_table(rows: &[(String, Option<avdb::core::StatusSnapshot>)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:>4} {:<8} {:>8} {:>7} {:>6} {:>6} {:>6} {:>6} {:>7} {:<5}",
        "target", "site", "role", "clock", "commit", "abort", "delay", "imm", "queue", "flight",
        "slo"
    );
    for (target, status) in rows {
        match status {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "{:<22} {:>4} {:<8} {:>8} {:>7} {:>6} {:>6} {:>6} {:>6} {:>7} {:<5}",
                    target,
                    s.site,
                    s.role,
                    s.clock,
                    s.committed,
                    s.aborted,
                    s.in_flight_delay,
                    s.in_flight_imm,
                    s.repl_queue_depth,
                    s.flight_recorded,
                    s.slo.overall.label()
                );
            }
            None => {
                let _ = writeln!(out, "{target:<22} (unreachable)");
            }
        }
    }
    // Per-product divergence, when any site reports a nonzero gauge.
    let diverged: Vec<String> = rows
        .iter()
        .filter_map(|(_, s)| s.as_ref())
        .flat_map(|s| s.av.iter().filter(|r| r.divergence != 0).map(move |r| (s.site, r)))
        .map(|(site, r)| format!("site {site} p{}: {:+}", r.product, r.divergence))
        .collect();
    if !diverged.is_empty() {
        let _ = writeln!(out, "unconfirmed divergence: {}", diverged.join(", "));
    }
    // Trend panel: windowed rates from the series plane, when the cluster
    // was booted with `series_window_ticks > 0`. One row per site:
    // sparklines over the last windows plus the latest window's rates.
    const TREND_WINDOWS: usize = 12;
    let with_series: Vec<(&avdb::core::StatusSnapshot, &avdb::telemetry::SeriesSnapshot)> = rows
        .iter()
        .filter_map(|(_, s)| s.as_ref())
        .filter_map(|s| {
            s.series.as_ref().filter(|sn| !sn.windows.is_empty()).map(|sn| (s, sn))
        })
        .collect();
    if let Some((_, first)) = with_series.first() {
        let _ = writeln!(
            out,
            "trends (per {}-tick window, last {TREND_WINDOWS}):",
            first.window_ticks
        );
        let _ = writeln!(
            out,
            "  {:<4} {:<14} {:<14} {:<14} {:>8} {:>7}",
            "site", "commits", "aborts", "queue", "commit/w", "sent/w"
        );
        for (s, sn) in with_series {
            let commits = sn.counter_tail("update.committed", TREND_WINDOWS);
            let aborts = sn.counter_tail("update.aborted", TREND_WINDOWS);
            let queue: Vec<u64> = sn
                .gauge_tail("repl.queue.depth", TREND_WINDOWS)
                .iter()
                .map(|&v| v.max(0) as u64)
                .collect();
            let skip = sn.windows.len().saturating_sub(TREND_WINDOWS);
            let sent: Vec<u64> = sn
                .windows
                .iter()
                .skip(skip)
                .map(|w| {
                    w.counters
                        .iter()
                        .filter(|(k, _)| k.starts_with("msg.sent."))
                        .map(|(_, v)| v)
                        .sum()
                })
                .collect();
            let _ = writeln!(
                out,
                "  {:<4} {:<14} {:<14} {:<14} {:>8} {:>7}",
                s.site,
                avdb::telemetry::sparkline(&commits),
                avdb::telemetry::sparkline(&aborts),
                avdb::telemetry::sparkline(&queue),
                commits.last().copied().unwrap_or(0),
                sent.last().copied().unwrap_or(0)
            );
        }
    }
    // SLO panel: lane detail for every degraded site; all-green collapses
    // to a single line so the healthy steady state stays quiet.
    let degraded: Vec<&avdb::core::StatusSnapshot> = rows
        .iter()
        .filter_map(|(_, s)| s.as_ref())
        .filter(|s| s.slo.overall != avdb::telemetry::SloHealth::Green)
        .collect();
    if degraded.is_empty() {
        if rows.iter().any(|(_, s)| s.is_some()) {
            let _ = writeln!(out, "slo: GREEN (all lanes within budget)");
        }
    } else {
        for s in degraded {
            let _ = writeln!(out, "slo site {} [{}]:", s.site, s.slo.overall.label());
            let _ = write!(out, "{}", s.slo.render());
        }
    }
    out
}

/// Validates one site's `/metrics` exposition for `--check` mode.
fn check_metrics(target: &str) -> std::result::Result<(), String> {
    let (code, body) =
        http_get(target, "/metrics").map_err(|e| format!("{target}: /metrics: {e}"))?;
    if code != 200 {
        return Err(format!("{target}: /metrics returned HTTP {code}"));
    }
    avdb::telemetry::validate_exposition(&body).map_err(|e| format!("{target}: {e}"))?;
    let families = avdb::telemetry::metric_families(&body);
    for required in REQUIRED_FAMILIES {
        if !families.contains(*required) {
            return Err(format!("{target}: missing metric family {required}"));
        }
    }
    Ok(())
}

fn cmd_top(opts: &TopOpts) -> Result<()> {
    loop {
        let rows: Vec<(String, Option<avdb::core::StatusSnapshot>)> = opts
            .targets
            .iter()
            .map(|t| {
                let status = http_get(t, "/status")
                    .ok()
                    .filter(|(code, _)| *code == 200)
                    .and_then(|(_, body)| serde_json::from_str(&body).ok());
                (t.clone(), status)
            })
            .collect();
        if !opts.once {
            // Clear screen + home, like top(1).
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render_cluster_table(&rows));
        if opts.check {
            let mut failures: Vec<String> = rows
                .iter()
                .filter(|(_, s)| s.is_none())
                .map(|(t, _)| format!("{t}: /status unreachable or unparseable"))
                .collect();
            failures.extend(opts.targets.iter().filter_map(|t| check_metrics(t).err()));
            if failures.is_empty() {
                println!("check: ok ({} sites)", rows.len());
            } else {
                for f in &failures {
                    eprintln!("check failed: {f}");
                }
                return Err(AvdbError::InvalidConfig(format!(
                    "{} of {} checks failed",
                    failures.len(),
                    rows.len()
                )));
            }
        }
        if opts.once {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(opts.interval_ms));
    }
}

const USAGE: &str = "usage: avdb <fig6|table1|ablations|faults|report|demo> \
[--updates N] [--ablation N] [--seed S] [--dir D]
       avdb serve [--sites N] [--seed S] [--updates N] [--hold-ms MS] \
[--series-window N] [--addr-file PATH] [--flight-dir DIR]
       avdb top --targets HOST:PORT,... [--interval-ms N] [--once] [--check]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // serve/top parse their own flags.
    if cmd == "serve" || cmd == "top" {
        let result = match cmd.as_str() {
            "serve" => parse_serve_opts(rest).and_then(|o| cmd_serve(&o)),
            _ => parse_top_opts(rest).and_then(|o| cmd_top(&o)),
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse_opts(rest) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "fig6" => {
            cmd_fig6(&opts);
            Ok(())
        }
        "table1" => {
            cmd_table1(&opts);
            Ok(())
        }
        "ablations" => cmd_ablations(&opts),
        "faults" => {
            cmd_faults(&opts);
            Ok(())
        }
        "report" => cmd_report(&opts),
        "demo" => cmd_demo(),
        other => {
            eprintln!("unknown command {other}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
