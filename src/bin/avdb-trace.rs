//! `avdb-trace` — record and inspect causal telemetry of one run.
//!
//! ```text
//! avdb-trace record [--transport sim|tcp] [--sites N] [--seed N]
//!                   [--requests N] [--sample-milli N] [--series-window N]
//!                   [--out FILE]
//! avdb-trace report FILE [--limit N]
//! avdb-trace series FILE [--scope NAME] [--last N]
//! avdb-trace verify FILE
//! avdb-trace flight FILE
//! avdb-trace profile FILE
//! avdb-trace critical-path FILE TRACE
//! avdb-trace export-chrome FILE [--out FILE]
//! ```
//!
//! * `record` drives one seeded workload through the chosen transport with
//!   telemetry export enabled and writes the run as JSONL
//!   (`--sample-milli` sets the head-based trace sample rate in ‰;
//!   the default, 1000, keeps every trace up to the per-origin budget of
//!   16 384 per site and 1 % past it; `--series-window` sets the
//!   time-series window width in sim ticks, default 16, 0 = off).
//! * `report` renders per-update causal timelines, the latency breakdown
//!   by protocol phase (checking → selecting → deciding → transfer →
//!   commit), and message-amplification percentiles.
//! * `series` renders the run's windowed time-series scope: per site, a
//!   sparkline and totals for every counter, gauge trends, and the latest
//!   window's histogram deltas. Folds the JSONL incrementally — memory
//!   stays bounded by `--last`, not by the export size.
//! * `verify` checks span-tree completeness: every committed update must
//!   have a rooted tree with no orphan spans. Non-zero exit on failure.
//! * `flight` pretty-prints a flight-recorder dump (written by a site on a
//!   2PC abort / WAL recovery, or by a harness on an oracle violation) as
//!   one merged, time-ordered timeline across all sites.
//! * `profile` renders the run's critical-path phase profile (per-phase /
//!   per-site self-time histograms, cross-site link waits, exemplars).
//! * `critical-path` renders one update's annotated critical path (trace
//!   id decimal or `0x…` hex — take one from the profile's exemplars).
//! * `export-chrome` converts the run to Chrome `trace_event` JSON
//!   loadable in Perfetto / `chrome://tracing` (pid = site, tid = trace).
//!
//! The same trace ids flow through both transports, so a sim
//! recording and a TCP recording of the same seed produce the same causal
//! shapes (the integration suite asserts this).

use avdb::core::{export_from_accelerators, Accelerator, DistributedSystem, Input};
use avdb::simnet::{DetRng, TcpMesh};
use avdb::telemetry::analyze::{
    amplification, percentile_sorted, phase_breakdown, phase_sort_key, render_timeline, verify,
};
use avdb::telemetry::{is_aux_trace, RunExport};
use avdb::types::{
    ProductId, SiteId, SystemConfig, UpdateRequest, VirtualTime, Volume,
};
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const TICKS_PER_REQUEST: u64 = 4;

fn usage() -> ! {
    eprintln!(
        "usage:\n  avdb-trace record [--transport sim|tcp] [--sites N] [--seed N] \
         [--requests N] [--sample-milli N] [--series-window N] [--out FILE]\n  \
         avdb-trace report FILE [--limit N]\n  \
         avdb-trace series FILE [--scope NAME] [--last N]\n  \
         avdb-trace verify FILE\n  avdb-trace flight FILE\n  avdb-trace profile FILE\n  \
         avdb-trace critical-path FILE TRACE\n  avdb-trace export-chrome FILE [--out FILE]\n\
         --sample-milli: head-sampled traces in ‰; 1000 (the default) keeps every trace\n\
         up to 16 384 per origin site and 1 % after that"
    );
    std::process::exit(2);
}

struct RecordArgs {
    transport: String,
    sites: usize,
    seed: u64,
    requests: usize,
    sample_milli: u32,
    series_window: u64,
    out: Option<String>,
}

fn parse_record(mut args: std::env::Args) -> RecordArgs {
    let mut rec = RecordArgs {
        transport: "sim".to_string(),
        sites: 4,
        seed: 1,
        requests: 40,
        sample_milli: 1000,
        series_window: 16,
        out: None,
    };
    while let Some(flag) = args.next() {
        let mut value = |n: &str| args.next().unwrap_or_else(|| panic!("{n} needs a value"));
        match flag.as_str() {
            "--transport" => rec.transport = value("--transport"),
            "--sites" => rec.sites = value("--sites").parse().unwrap_or_else(|_| usage()),
            "--seed" => rec.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--requests" => {
                rec.requests = value("--requests").parse().unwrap_or_else(|_| usage())
            }
            "--sample-milli" => {
                rec.sample_milli =
                    value("--sample-milli").parse().unwrap_or_else(|_| usage())
            }
            "--series-window" => {
                rec.series_window =
                    value("--series-window").parse().unwrap_or_else(|_| usage())
            }
            "--out" => rec.out = Some(value("--out")),
            _ => usage(),
        }
    }
    if rec.sites == 0
        || rec.sample_milli > 1000
        || !["sim", "tcp"].contains(&rec.transport.as_str())
    {
        usage();
    }
    rec
}

/// The recording scenario: two AV-managed products plus one non-regular,
/// so both the Delay and the Immediate path appear in the trace.
fn config(sites: usize, seed: u64, sample_milli: u32, series_window: u64) -> SystemConfig {
    let mut builder = SystemConfig::builder()
        .sites(sites)
        .regular_products(2, Volume(40 * sites as i64))
        .non_regular_products(1, Volume(50))
        .series_window_ticks(series_window)
        .seed(seed);
    if sample_milli != 1000 {
        builder = builder.trace_sample_rate(f64::from(sample_milli) / 1000.0);
    }
    builder.build().expect("trace config is valid")
}

/// Deterministic mixed workload over all products (same seed → same
/// stream, whatever the transport).
fn workload(cfg: &SystemConfig, requests: usize) -> Vec<(VirtualTime, UpdateRequest)> {
    let mut rng = DetRng::new(cfg.seed).derive(0x7ACE);
    (0..requests)
        .map(|i| {
            let site = SiteId(rng.gen_range(cfg.n_sites as u64) as u32);
            let product = ProductId(rng.gen_range(3) as u32);
            let delta = if rng.gen_f64() < 0.65 {
                -rng.gen_i64_inclusive(1, 12)
            } else {
                rng.gen_i64_inclusive(1, 15)
            };
            (
                VirtualTime(i as u64 * TICKS_PER_REQUEST),
                UpdateRequest::new(site, product, Volume(delta)),
            )
        })
        .collect()
}

fn record_sim(cfg: &SystemConfig, requests: usize) -> RunExport {
    let schedule = workload(cfg, requests);
    let mut sys = DistributedSystem::new(cfg.clone());
    sys.enable_trace();
    for (at, req) in &schedule {
        sys.submit_at(*at, *req);
    }
    sys.run_until_quiescent();
    for _ in 0..50 {
        sys.flush_all();
        sys.run_until_quiescent();
        if sys.check_convergence().is_ok() {
            break;
        }
    }
    let outcomes = sys.drain_outcomes();
    sys.export_telemetry(&outcomes)
}

fn record_tcp(cfg: &SystemConfig, requests: usize) -> RunExport {
    let actors: Vec<Accelerator> =
        SiteId::all(cfg.n_sites).map(|s| Accelerator::new(s, cfg)).collect();
    let mesh = TcpMesh::spawn(actors, cfg.seed);
    let schedule = workload(cfg, requests);
    for (_, req) in &schedule {
        mesh.inject(req.site, Input::Update(*req));
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut outcomes = Vec::new();
    while outcomes.len() < requests && Instant::now() < deadline {
        outcomes.extend(mesh.wait_outputs(deadline.saturating_duration_since(Instant::now())));
    }
    // Anti-entropy so replication (and its spans) settle too.
    for site in SiteId::all(cfg.n_sites) {
        mesh.inject(site, Input::FlushPropagation);
    }
    mesh.quiesce(deadline.saturating_duration_since(Instant::now()));
    outcomes.extend(mesh.drain_outputs());
    let messages = mesh.message_log();
    let (actors, counters, _) = mesh.shutdown();
    export_from_accelerators(
        "tcp",
        cfg,
        &actors,
        messages.events(),
        counters.registry().snapshot(),
        &outcomes,
    )
}

fn record(rec: RecordArgs) -> ExitCode {
    let cfg = config(rec.sites, rec.seed, rec.sample_milli, rec.series_window);
    let export = match rec.transport.as_str() {
        "sim" => record_sim(&cfg, rec.requests),
        "tcp" => record_tcp(&cfg, rec.requests),
        _ => usage(),
    };
    let jsonl = export.to_jsonl();
    match &rec.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &jsonl) {
                eprintln!("avdb-trace: write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "avdb-trace: recorded {} spans, {} outcomes ({} transport) to {path}",
                export.spans.len(),
                export.outcomes.len(),
                rec.transport
            );
        }
        None => print!("{jsonl}"),
    }
    ExitCode::SUCCESS
}

/// Streams the export off disk line by line ([`RunExport::from_reader`])
/// instead of slurping the file into one `String` first — a 10⁵-update
/// recording parses without ever holding both the text and the parsed
/// structure in memory.
fn load(path: &str) -> Result<RunExport, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    RunExport::from_reader(std::io::BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
}

fn report(path: &str, limit: usize) -> ExitCode {
    let export = match load(path) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("avdb-trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(meta) = &export.meta {
        println!(
            "run: transport={} sites={} seed={}",
            meta.transport, meta.sites, meta.seed
        );
    }
    println!(
        "{} spans, {} messages, {} outcomes\n",
        export.spans.len(),
        export.messages.len(),
        export.outcomes.len()
    );

    // Per-update causal timelines, in outcome order.
    let mut shown = BTreeSet::new();
    for outcome in &export.outcomes {
        if shown.len() >= limit {
            println!("... ({} more updates; raise --limit)", export.outcomes.len() - shown.len());
            break;
        }
        if shown.insert(outcome.txn) {
            let verdict = if outcome.committed { "committed" } else { "aborted" };
            println!(
                "update {:#x} at site{} — {verdict} ({} correspondences)",
                outcome.txn, outcome.site, outcome.correspondences
            );
            print!("{}", render_timeline(&export, outcome.txn));
        }
    }

    // Latency breakdown by protocol phase.
    println!("\nphase breakdown (closed spans, update traces only):");
    let phases = phase_breakdown(&export);
    let mut names: Vec<&String> = phases.keys().collect();
    names.sort_by_key(|n| phase_sort_key(n));
    println!("  {:<12} {:>7} {:>10} {:>8}", "phase", "count", "mean", "max");
    for name in names {
        let s = &phases[name];
        println!("  {:<12} {:>7} {:>10.2} {:>8}", name, s.count, s.mean(), s.max);
    }

    // Message amplification: correspondences per committed update.
    let amp = amplification(&export);
    println!("\ncorrespondences per committed update ({} commits):", amp.len());
    for (label, p) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
        println!("  {label}: {}", percentile_sorted(&amp, p));
    }
    println!("  max: {}", amp.last().copied().unwrap_or(0));

    // Registry summary: network traffic by message kind.
    if let Some(net) = export.registry("network") {
        println!("\nnetwork messages by kind:");
        for (kind, n) in net.counters.iter().filter_map(|(k, n)| {
            k.strip_prefix("msg.kind.").map(|kind| (kind, n))
        }) {
            println!("  {kind:<16} {n}");
        }
    }
    // Series plane: point at the dedicated renderer rather than inlining.
    let scopes = export.series_scopes();
    if !scopes.is_empty() {
        println!(
            "\nseries: {} windows across {} scopes (render with `avdb-trace series`)",
            export.series.len(),
            scopes.len()
        );
    }
    let aux = export.spans.iter().filter(|s| is_aux_trace(s.trace)).count();
    println!("\n{} auxiliary (replication/push) spans", aux);
    ExitCode::SUCCESS
}

/// One scope's rolling tail of series windows, folded incrementally.
#[derive(Default)]
struct ScopeTail {
    window_ticks: u64,
    total_windows: u64,
    tail: std::collections::VecDeque<avdb::telemetry::SeriesWindowSnapshot>,
}

/// Renders the export's `series` scope as per-site sparkline panels.
/// Streams the JSONL with [`for_each_line`], keeping only the last
/// `last` windows per scope, so memory is O(scopes × last) regardless of
/// export size.
fn series_file(path: &str, scope_filter: Option<&str>, last: usize) -> ExitCode {
    use avdb::telemetry::{for_each_line, sparkline, ExportLine};
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("avdb-trace: open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut scopes: std::collections::BTreeMap<String, ScopeTail> = std::collections::BTreeMap::new();
    let folded = for_each_line(std::io::BufReader::new(file), |line| {
        if let ExportLine::Series(l) = line {
            if scope_filter.is_none_or(|s| s == l.scope) {
                let entry = scopes.entry(l.scope).or_default();
                entry.window_ticks = l.window_ticks;
                entry.total_windows += 1;
                entry.tail.push_back(l.window);
                if entry.tail.len() > last {
                    entry.tail.pop_front();
                }
            }
        }
        Ok(())
    });
    if let Err(e) = folded {
        eprintln!("avdb-trace: {path}: {e}");
        return ExitCode::FAILURE;
    }
    if scopes.is_empty() {
        match scope_filter {
            Some(s) => eprintln!(
                "avdb-trace: no series windows for scope {s:?} in {path} \
                 (recorded without --series-window?)"
            ),
            None => eprintln!(
                "avdb-trace: no series windows in {path} (recorded without --series-window?)"
            ),
        }
        return ExitCode::FAILURE;
    }
    for (scope, tail) in &scopes {
        println!(
            "{scope}: {} windows of {} ticks (showing last {})",
            tail.total_windows,
            tail.window_ticks,
            tail.tail.len()
        );
        let shown: Vec<_> = tail.tail.iter().collect();
        let counter_names: BTreeSet<&str> =
            shown.iter().flat_map(|w| w.counters.keys().map(String::as_str)).collect();
        if !counter_names.is_empty() {
            println!("  counters (delta per window):");
            for name in counter_names {
                let vals: Vec<u64> =
                    shown.iter().map(|w| w.counters.get(name).copied().unwrap_or(0)).collect();
                let total: u64 = vals.iter().sum();
                println!(
                    "    {name:<28} {}  last {:>6}  Σ {total}",
                    sparkline(&vals),
                    vals.last().copied().unwrap_or(0)
                );
            }
        }
        let gauge_names: BTreeSet<&str> =
            shown.iter().flat_map(|w| w.gauges.keys().map(String::as_str)).collect();
        if !gauge_names.is_empty() {
            println!("  gauges (value at window end):");
            for name in gauge_names {
                let vals: Vec<i64> =
                    shown.iter().map(|w| w.gauges.get(name).copied().unwrap_or(0)).collect();
                let bars: Vec<u64> = vals.iter().map(|&v| v.max(0) as u64).collect();
                println!(
                    "    {name:<28} {}  last {:>6}",
                    sparkline(&bars),
                    vals.last().copied().unwrap_or(0)
                );
            }
        }
        if let Some(latest) = shown.last() {
            if !latest.histograms.is_empty() {
                println!("  histograms (latest window, ticks {}..{}):", latest.start, latest.end);
                for (name, h) in &latest.histograms {
                    println!(
                        "    {name:<28} n {:>6}  p50 {:>6}  p99 {:>6}  max {:>6}",
                        h.count,
                        h.percentile(0.5),
                        h.percentile(0.99),
                        h.max
                    );
                }
            }
        }
        println!();
    }
    ExitCode::SUCCESS
}

fn verify_file(path: &str) -> ExitCode {
    let export = match load(path) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("avdb-trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = verify(&export);
    print!("{report}");
    if report.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn profile_file(path: &str) -> ExitCode {
    let export = match load(path) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("avdb-trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Prefer the profile the run itself exported (it reflects the run's
    // sampling decisions); recompute only for exports that predate it.
    let profile = export
        .profile
        .clone()
        .unwrap_or_else(|| avdb::telemetry::profile_export(&export));
    print!("{}", profile.render());
    ExitCode::SUCCESS
}

fn parse_trace_id(raw: &str) -> Option<u64> {
    match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

fn critical_path_file(path: &str, trace_raw: &str) -> ExitCode {
    let Some(trace) = parse_trace_id(trace_raw) else {
        eprintln!("avdb-trace: bad trace id {trace_raw:?} (decimal or 0x-hex)");
        return ExitCode::FAILURE;
    };
    let export = match load(path) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("avdb-trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    match avdb::telemetry::path_for_trace(&export, trace) {
        Some(p) => {
            print!("{}", avdb::telemetry::render_path(&p));
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "avdb-trace: trace {trace:#x} has no closed root span in {path} \
                 (not recorded, sampled away, or never finished)"
            );
            ExitCode::FAILURE
        }
    }
}

fn export_chrome_file(path: &str, out: Option<&str>) -> ExitCode {
    let export = match load(path) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("avdb-trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    let json = avdb::telemetry::chrome_trace(&export);
    match out {
        Some(dest) => {
            if let Err(e) = std::fs::write(dest, &json) {
                eprintln!("avdb-trace: write {dest}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "avdb-trace: wrote {} events to {dest} (open in Perfetto or chrome://tracing)",
                export.spans.len()
            );
        }
        None => print!("{json}"),
    }
    ExitCode::SUCCESS
}

fn flight_file(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("avdb-trace: read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match avdb::telemetry::FlightDump::from_json(&text) {
        Ok(dump) => {
            print!("{}", dump.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("avdb-trace: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args();
    let _ = args.next();
    match args.next().as_deref() {
        Some("record") => record(parse_record(args)),
        Some("flight") => {
            let Some(path) = args.next() else { usage() };
            flight_file(&path)
        }
        Some("report") => {
            let Some(path) = args.next() else { usage() };
            let mut limit = 10;
            while let Some(flag) = args.next() {
                match flag.as_str() {
                    "--limit" => {
                        limit = args
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage())
                    }
                    _ => usage(),
                }
            }
            report(&path, limit)
        }
        Some("series") => {
            let Some(path) = args.next() else { usage() };
            let mut scope = None;
            let mut last = 32usize;
            while let Some(flag) = args.next() {
                match flag.as_str() {
                    "--scope" => scope = args.next(),
                    "--last" => {
                        last = args
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n > 0)
                            .unwrap_or_else(|| usage())
                    }
                    _ => usage(),
                }
            }
            series_file(&path, scope.as_deref(), last)
        }
        Some("verify") => {
            let Some(path) = args.next() else { usage() };
            verify_file(&path)
        }
        Some("profile") => {
            let Some(path) = args.next() else { usage() };
            profile_file(&path)
        }
        Some("critical-path") => {
            let Some(path) = args.next() else { usage() };
            let Some(trace) = args.next() else { usage() };
            critical_path_file(&path, &trace)
        }
        Some("export-chrome") => {
            let Some(path) = args.next() else { usage() };
            let mut out = None;
            while let Some(flag) = args.next() {
                match flag.as_str() {
                    "--out" => out = args.next(),
                    _ => usage(),
                }
            }
            export_chrome_file(&path, out.as_deref())
        }
        _ => usage(),
    }
}
