//! Integration suite for the windowed time-series plane: ring-rollover
//! semantics under a real workload, histogram delta-merge associativity,
//! the byte-identity contract for same-seed series (exact on the sim
//! clock, content-exact on the wall-clocked TCP mesh), the
//! plane leaving a bench cell's stats untouched, and the watchdog's
//! fire-then-dump path on a seeded staleness scenario.

mod common;

use avdb::bench::{run_scenario, LiveDriver, RunArtifacts, ScenarioSpec};
use avdb::core::Accelerator;
use avdb::prelude::*;
use avdb::telemetry::{HistogramSnapshot, Registry, SeriesRecorder, SeriesSnapshot};
use common::{assert_oracle_sim, Submissions};
use std::collections::BTreeMap;
use std::time::Duration;

const P0: ProductId = ProductId(0);

/// Sums each counter's deltas across every recorded window — the series
/// plane's reconstruction of a counter's total.
fn window_totals(snap: &SeriesSnapshot, prefix: &str) -> BTreeMap<String, u64> {
    let mut totals = BTreeMap::new();
    for w in &snap.windows {
        for (name, delta) in &w.counters {
            if name.starts_with(prefix) {
                *totals.entry(name.clone()).or_insert(0) += delta;
            }
        }
    }
    totals
}

/// A fresh per-test dump directory under the system temp dir.
fn dump_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("avdb-series-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------- ring

/// Under a long workload the per-site ring keeps only the newest
/// `DEFAULT_SERIES_RING_CAPACITY` windows: the oldest are evicted, the
/// survivors stay in strictly increasing window order.
#[test]
fn ring_rollover_keeps_only_the_newest_windows_under_load() {
    let window = 10u64;
    let cfg = SystemConfig::builder()
        .sites(3)
        .regular_products(1, Volume(9_000))
        .series_window_ticks(window)
        .seed(21)
        .build()
        .unwrap();
    let mut sys = DistributedSystem::new(cfg);
    // One base-site deposit per window for ~90 windows: every window has
    // content, so far more windows roll than the ring can hold.
    for i in 0..90u64 {
        sys.submit_at(VirtualTime(i * window + 1), UpdateRequest::new(SiteId(0), P0, Volume(2)));
    }
    sys.run_until_quiescent();
    sys.drain_outcomes();

    let snap = sys.accelerator(SiteId(0)).series_snapshot().expect("series plane on");
    assert_eq!(
        snap.windows.len(),
        avdb::telemetry::DEFAULT_SERIES_RING_CAPACITY,
        "ring filled and bounded"
    );
    assert!(snap.windows[0].index > 0, "oldest windows were evicted");
    for pair in snap.windows.windows(2) {
        assert!(pair[0].index < pair[1].index, "ring stays ordered after rollover");
    }
    // The surviving tail still carries the workload's counter.
    assert!(window_totals(&snap, "update.committed")["update.committed"] > 0);
}

// ----------------------------------------------------------- histograms

/// Per-window histogram deltas are mergeable in any grouping: folding
/// them left-to-right, right-to-left, or pre-merged in pairs must all
/// reproduce the full-range snapshot exactly.
#[test]
fn histogram_window_merge_is_associative_and_lossless() {
    let mut reg = Registry::new();
    let mut rec = SeriesRecorder::new(10);
    let samples: [&[u64]; 4] = [&[3, 900], &[7], &[31, 5_000, 12], &[1, 1, 64_000]];
    for (w, batch) in samples.iter().enumerate() {
        for v in *batch {
            reg.observe("lat.us", *v);
        }
        assert!(rec.roll((w as u64 + 1) * 10, &mut reg).recorded);
    }
    let snap = rec.snapshot(&reg);
    let deltas: Vec<&HistogramSnapshot> =
        snap.windows.iter().map(|w| &w.histograms["lat.us"]).collect();
    assert_eq!(deltas.len(), 4);

    let fold = |order: &[usize]| {
        let mut acc = HistogramSnapshot::default();
        for &i in order {
            acc.merge(deltas[i]);
        }
        acc
    };
    let left = fold(&[0, 1, 2, 3]);
    let right = fold(&[3, 2, 1, 0]);
    let mut pairs = fold(&[0, 1]);
    pairs.merge(&fold(&[2, 3]));

    let full = reg.histogram("lat.us").unwrap().snapshot();
    assert_eq!(left, full, "left fold reproduces the full range");
    assert_eq!(right, full, "merge is order-independent");
    assert_eq!(pairs, full, "merge is associative under regrouping");
}

// ------------------------------------------------- sim byte-identity

/// One seeded lossy sim run's series plane, serialized site by site.
fn sim_series_fingerprint(seed: u64) -> String {
    let cfg = SystemConfig::builder()
        .sites(3)
        .regular_products(2, Volume(600))
        .drop_probability(0.05)
        .series_window_ticks(50)
        .seed(seed)
        .build()
        .unwrap();
    let mut sys = DistributedSystem::new(cfg);
    for i in 0..80u64 {
        let site = SiteId((i % 3) as u32);
        let delta = if site == SiteId::BASE { Volume(9) } else { Volume(-6) };
        sys.submit_at(VirtualTime(i * 7), UpdateRequest::new(site, ProductId((i % 2) as u32), delta));
    }
    sys.run_until_quiescent();
    sys.settle().expect("anti-entropy converges");
    sys.drain_outcomes();
    let mut out = String::new();
    for site in SiteId::all(3) {
        let snap = sys.accelerator(site).series_snapshot().expect("series plane on");
        assert!(!snap.windows.is_empty(), "{site} recorded at least one window");
        out.push_str(&serde_json::to_string(&snap).unwrap());
    }
    out
}

/// Under the sim clock the series plane is part of the determinism
/// contract: same seed, same windows, same bytes — including window
/// boundaries, per-window deltas, and histogram buckets.
#[test]
fn sim_series_scope_is_byte_identical_across_same_seed_runs() {
    let a = sim_series_fingerprint(404);
    assert_eq!(a, sim_series_fingerprint(404), "same seed ⇒ identical series bytes");
    assert_ne!(a, sim_series_fingerprint(405), "different seed ⇒ different series");
}

/// The series plane observes and never steers: one seeded sim cell run
/// with the plane off and at two window sizes reports byte-identical
/// stats, and the windowed runs export a `series` scope.
#[test]
fn series_plane_leaves_cell_stats_byte_identical() {
    let mut spec = ScenarioSpec::base();
    spec.sites = 5;
    spec.updates = 300;
    spec.zipf_milli = 900;
    let run = |window: u64| {
        let mut cell = spec.clone();
        cell.series_window_ticks = window;
        run_scenario(&cell).unwrap_or_else(|e| panic!("{}: {e}", cell.label()))
    };
    let stats = |arts: &RunArtifacts| serde_json::to_string(&arts.result.stats).unwrap();
    let off = run(0);
    assert!(off.export.series.is_empty(), "plane off exports no series");
    for window in [64, 4096] {
        let on = run(window);
        assert_eq!(stats(&on), stats(&off), "window {window} changed the cell's stats");
        assert!(!on.export.series_scopes().is_empty(), "window {window} exported no series");
    }
}

// ----------------------------------------------- tcp closed-loop runs

/// One closed-loop TCP run: per-site protocol-counter totals as the
/// series plane reconstructed them, plus the registry's own totals.
fn tcp_series_totals(seed: u64) -> Vec<(BTreeMap<String, u64>, BTreeMap<String, u64>)> {
    let window_ms = 25u64;
    let cfg = SystemConfig::builder()
        .sites(3)
        .regular_products(2, Volume(100_000))
        .series_window_ticks(window_ms)
        .seed(seed)
        .build()
        .unwrap();
    let mut live = LiveDriver::spawn(&cfg, Duration::from_secs(30));
    // Strictly sequential closed loop: one update, and everything it set
    // off, in flight at a time keeps the protocol counters
    // scheduling-independent.
    for i in 0..24u64 {
        let site = SiteId((i % 3) as u32);
        let delta = if site == SiteId::BASE { Volume(5) } else { Volume(-3) };
        live.inject(UpdateRequest::new(site, ProductId((i % 2) as u32), delta));
        live.wait(i as usize + 1).unwrap_or_else(|e| panic!("update {i} never settled: {e}"));
    }
    // Let the window timers fire past the last activity so the final
    // deltas are rolled into the ring before shutdown.
    std::thread::sleep(Duration::from_millis(window_ms * 8));
    let run = live.finish().expect("the mesh settles");

    run.actors
        .iter()
        .map(|acc| {
            let snap = acc.series_snapshot().expect("series plane on");
            assert!(!snap.windows.is_empty(), "site recorded at least one window");
            let reconstructed = window_totals(&snap, "update.");
            let registry: BTreeMap<String, u64> = acc
                .registry()
                .snapshot()
                .counters
                .into_iter()
                .filter(|(name, _)| name.starts_with("update."))
                .collect();
            (reconstructed, registry)
        })
        .collect()
}

/// On the TCP mesh virtual time is wall-clock milliseconds, so
/// window *placement* is timing-dependent — but the windowed deltas must
/// still be lossless (summing them reproduces the registry totals) and
/// the closed loop makes the protocol counters themselves replay
/// exactly, so the reconstructed totals are byte-identical across
/// same-seed runs.
#[test]
fn tcp_closed_loop_series_content_replays_exactly() {
    let first = tcp_series_totals(5);
    for (site, (reconstructed, registry)) in first.iter().enumerate() {
        assert_eq!(
            reconstructed, registry,
            "site {site}: window deltas sum to the registry totals"
        );
        assert!(!reconstructed.is_empty(), "site {site} saw update traffic");
    }
    let second = tcp_series_totals(5);
    let a: Vec<&BTreeMap<String, u64>> = first.iter().map(|(r, _)| r).collect();
    let b: Vec<&BTreeMap<String, u64>> = second.iter().map(|(r, _)| r).collect();
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "closed-loop series content is byte-identical across same-seed runs"
    );
}

// ------------------------------------------------------------ watchdog

/// One seeded staleness-spike run: site 1 is cut off from incoming
/// traffic, then forced into repeated AV consultations on knowledge that
/// only grows staler. Returns (site-1 series bytes, watchdog firings,
/// flight dumps on disk).
fn staleness_spike_run(seed: u64, tag: &str) -> (String, u64, usize) {
    let window = 20u64; // staleness bound = 4 × window = 80 ticks
    let dir = dump_dir(tag);
    let cfg = SystemConfig::builder()
        .sites(3)
        .regular_products(1, Volume(90))
        .series_window_ticks(window)
        .seed(seed)
        .build()
        .unwrap();
    let actors: Vec<Accelerator> = SiteId::all(3)
        .map(|s| {
            let mut a = Accelerator::new(s, &cfg);
            a.enable_flight_dump(dir.clone());
            a
        })
        .collect();
    let mut sys = DistributedSystem::from_actors(cfg, actors);
    // Nothing reaches site 1: its knowledge of both peers freezes at t=0
    // and every grant sent back to it is dropped.
    sys.sever_link(SiteId(0), SiteId(1));
    sys.sever_link(SiteId(2), SiteId(1));

    let mut subs = Submissions::new();
    // Each -50 overdraws site 1's local AV share (30), forcing the
    // selecting step to consult peer knowledge that is now 150+ ticks
    // stale — far past the watchdog's 80-tick bound — window after
    // window.
    for i in 0..5u64 {
        subs.submit_at(
            &mut sys,
            VirtualTime(150 + i * window),
            UpdateRequest::new(SiteId(1), P0, Volume(-50)),
        );
    }
    sys.run_until(VirtualTime(400));

    // The watchdog must have fired — and dumped the flight recorder —
    // while the run was still healthy, before any oracle check.
    let fired = sys.accelerator(SiteId(1)).registry().counter("series.watchdog.fired");
    assert!(fired > 0, "staleness watchdog fired during the partition");
    let dumps = std::fs::read_dir(&dir)
        .expect("dump dir created by the firing")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("flight-s1-"))
        .count();
    assert!(dumps > 0, "each firing wrote a site-1 flight dump");

    // Heal, settle, and hand the whole run to the conformance oracle:
    // the firings preceded any violation (there is none).
    sys.heal_link(SiteId(0), SiteId(1));
    sys.heal_link(SiteId(2), SiteId(1));
    sys.run_until_quiescent();
    sys.settle().expect("anti-entropy converges");
    let outcomes = sys.drain_outcomes();
    let series =
        serde_json::to_string(&sys.accelerator(SiteId(1)).series_snapshot().unwrap()).unwrap();
    assert_oracle_sim(&sys, subs, outcomes, "watchdog-staleness");

    let _ = std::fs::remove_dir_all(&dir);
    (series, fired, dumps)
}

/// The watchdog fires on the seeded staleness spike, dumps the flight
/// recorder before any oracle violation, and does all of it
/// deterministically: same seed, same firings, same series bytes.
#[test]
fn watchdog_fires_and_dumps_flight_deterministically() {
    let (series_a, fired_a, dumps_a) = staleness_spike_run(11, "wd-a");
    let (series_b, fired_b, dumps_b) = staleness_spike_run(11, "wd-b");
    assert_eq!(series_a, series_b, "same seed ⇒ identical series around the firing");
    assert_eq!(fired_a, fired_b, "same seed ⇒ same number of firings");
    assert_eq!(dumps_a, dumps_b);
}
