//! The two live workloads: a three-site TCP cluster (the paper's Fig. 2
//! topology — site 0 the maker, sites 1–2 retailers, 6 regular + 2
//! non-regular products, `propagation_batch(5)`) behind the wire gateway,
//! driven by two client connections.
//!
//! A run drives [`CLUSTERS`] fresh clusters one after the other, a
//! quarter of the seconds each. Where the scheduler happens to place a
//! cluster's threads moves every latency by tens of percent for as long
//! as the cluster lives; the best slice over four placements does not
//! depend on one draw.

use crate::counts::{self, Net, Tally};
use crate::driver::{closed_loop, open_loop, Completion, Outcome, Sample};
use crate::metrics::{best_slice_percentile, percentile, slices, Values};
use crate::trace::Tracer;
use crate::workload::{self, Covered, Lane};
use crate::Pass;
use avdb_client::Connection;
use avdb_core::{Accelerator, Input};
use avdb_gateway::{Gateway, GatewayConfig, GatewayStats};
use avdb_oracle::Observation;
use avdb_simnet::{CountersSnapshot, TcpMesh};
use avdb_types::{ProductId, SiteId, SystemConfig, Volume};
use avdb_wire::{Request, Response};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SITES: usize = 3;
/// Fresh clusters per run.
const CLUSTERS: usize = 4;
/// Slices each cluster's measured open loop is cut into.
const SLICES_PER_CLUSTER: usize = 3;
/// Slices the closed loop is cut into.
const CLOSED_SLICES: usize = 10;
/// Waiter threads per connection, and the gateway's in-flight window, so
/// a well-behaved run never draws `OverWindow`.
const WAITERS: usize = 64;
/// Closed-loop pipeline depth per connection.
const WINDOW: usize = 32;
/// Open-loop warm-up on every cluster; its samples are dropped.
const WARM_UP: Duration = Duration::from_secs(1);
/// Closed-loop warm-up.
const CLOSED_WARM_UP: Duration = Duration::from_millis(500);

/// Stock per product when every update must be covered locally.
pub const DEEP_STOCK: i64 = 12_000_000;
/// Stock per regular product when deltas are paper-size (1..=10 % of it).
const PAPER_STOCK: i64 = 120_000;

/// Open-loop requests per second over both connections.
const COVERED_RATE: u32 = 4_000;
const MIXED_RATE: u32 = 1_000;

pub struct Cluster {
    cfg: SystemConfig,
    mesh: Arc<TcpMesh<Accelerator>>,
    gateway: Gateway,
}

/// What a cluster leaves behind once drained, settled and shut down.
pub struct Settled {
    pub tally: Tally,
    pub net: CountersSnapshot,
    pub gateway: GatewayStats,
    pub outcome_lag: Duration,
    /// Updates the gateway injected that never produced an outcome.
    pub lost: u64,
    pub oracle_s: f64,
    pub correct: bool,
    pub peak_rss_mb: f64,
    /// When the cluster had drained and converged (before verification).
    pub settled_at: Instant,
}

/// The live cluster's configuration; `regular_stock` per regular product.
pub fn cluster_config(seed: u64, regular_stock: i64) -> SystemConfig {
    SystemConfig::builder()
        .sites(SITES)
        .regular_products(workload::REGULAR as usize, Volume(regular_stock))
        .non_regular_products(workload::NON_REGULAR as usize, Volume(DEEP_STOCK))
        .propagation_batch(5)
        .seed(seed)
        .build()
        .expect("the live cluster's configuration is valid")
}

impl Cluster {
    pub fn spawn(seed: u64, regular_stock: i64) -> Cluster {
        let cfg = cluster_config(seed, regular_stock);
        let actors = SiteId::all(SITES)
            .map(|s| Accelerator::new(s, &cfg))
            .collect();
        let (mesh, _http) = TcpMesh::spawn_with_http(actors, seed);
        let mesh = Arc::new(mesh);
        let gateway = Gateway::spawn(
            Arc::clone(&mesh),
            SITES,
            GatewayConfig {
                max_connections: 8,
                max_in_flight: WAITERS,
                shed_after: WAITERS,
                queue_slack: WAITERS,
            },
        );
        Cluster { cfg, mesh, gateway }
    }

    /// Connects and proves the path ready with one ping round trip.
    pub fn connect(&self, site: usize) -> Connection {
        let conn = Connection::connect(self.gateway.addrs()[site]).expect("connect to the gateway");
        let pong = conn.call(&Request::Ping, Duration::from_secs(5));
        assert!(
            matches!(pong, Ok(Response::Pong)),
            "gateway did not answer a ping: {pong:?}"
        );
        conn
    }

    /// Stops a cluster nothing was asked of (the repeated `setup_s` samples).
    fn discard(self) {
        let _ = self.gateway.finish();
        if let Ok(mesh) = Arc::try_unwrap(self.mesh) {
            let _ = mesh.shutdown();
        }
    }

    /// Waits for every injected update's outcome, runs anti-entropy until
    /// the replicas agree, shuts everything down and verifies the run
    /// with the conformance oracle.
    pub fn settle(self) -> Settled {
        let drain_from = Instant::now();
        let deadline = drain_from + Duration::from_secs(30);
        while self.gateway.outcome_count() < self.gateway.stats().updates
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let outcome_lag = drain_from.elapsed();
        for _ in 0..3 {
            for site in SiteId::all(SITES) {
                self.mesh.inject(site, Input::FlushPropagation);
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        let settled_at = Instant::now();
        let peak_rss_mb = crate::peak_rss_mb();

        let (submissions, mut outcomes, gateway) = self.gateway.finish();
        let mesh = Arc::try_unwrap(self.mesh)
            .ok()
            .expect("the gateway released the mesh");
        let (actors, counters, leftovers) = mesh.shutdown();
        outcomes.extend(leftovers);
        let net = counters.snapshot();
        let updates = submissions.len() as u64;
        let lost = updates.saturating_sub(outcomes.len() as u64);
        let tally = Tally::of(updates, actors.iter());
        let converged = ProductId::all(self.cfg.n_products()).all(|p| {
            let base = actors[0].db().stock(p);
            actors.iter().all(|a| a.db().stock(p) == base)
        });
        let check_from = Instant::now();
        let report = avdb_oracle::check(&Observation::from_accelerators(
            self.cfg,
            &actors,
            submissions,
            outcomes,
            net.clone(),
        ));
        if !report.is_ok() {
            eprintln!("oracle violations:\n{report}");
        }
        if !converged {
            eprintln!("replicas did not converge");
        }
        Settled {
            tally,
            net,
            gateway,
            outcome_lag,
            lost,
            oracle_s: check_from.elapsed().as_secs_f64(),
            correct: report.is_ok() && converged,
            peak_rss_mb,
            settled_at,
        }
    }
}

/// One thread per CPU that yields in a loop, held while an open loop is
/// measured, so that no virtual CPU ever halts. Waking a halted vCPU costs
/// a hypervisor exit whose price follows the host's adaptive halt
/// polling; at open-loop rates the CPUs idle between requests, and that
/// price showed as a run-long ±40 % mode in every latency (the same
/// binary, minutes apart). A yielding thread gives way to any runnable
/// thread at once, so what remains is the in-guest cost of a wake-up. Not
/// held in the closed loop: the CPUs are busy there, and the yielders
/// would only take a share of them.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        let handles = (0..n)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // Relaxed: the flag publishes nothing but itself.
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        KeepAwake { stop, handles }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Which live workload a part belongs to, and what follows from it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Covered,
    Mixed,
}

impl Kind {
    fn rate(self) -> u32 {
        match self {
            Kind::Covered => COVERED_RATE,
            Kind::Mixed => MIXED_RATE,
        }
    }

    /// Seconds of measured open loop per cluster. `live-covered` keeps
    /// 30 % of its seconds for the closed loop.
    fn open_for(self, seconds: f64) -> Duration {
        let share = if self == Kind::Covered { 0.7 } else { 1.0 };
        Duration::from_secs_f64(seconds * share / CLUSTERS as f64)
    }
}

/// Everything up to the first request of one part: inputs generated,
/// cluster and gateway up, both connections answered a ping. Timed as
/// `setup_s`.
struct Ready {
    cluster: Cluster,
    conns: [Connection; 2],
    /// Open-loop request lists, one per connection (warm-up included).
    lists: [Vec<Request>; 2],
    generate_s: f64,
}

fn set_up(kind: Kind, seed: u64, part: u64, seconds: f64) -> Ready {
    let gen_from = Instant::now();
    let n =
        ((WARM_UP + kind.open_for(seconds)).as_secs_f64() * f64::from(kind.rate()) / 2.0) as usize;
    let lists = match kind {
        Kind::Covered => [
            Covered::new(seed, 2 * part).take(n).collect(),
            Covered::new(seed, 2 * part + 1).take(n).collect(),
        ],
        Kind::Mixed => {
            let (maker, retailer) = workload::mixed(seed, part, n, PAPER_STOCK);
            [maker, retailer]
        }
    };
    let generate_s = gen_from.elapsed().as_secs_f64();
    let (cluster, conns) = match kind {
        Kind::Covered => {
            let c = Cluster::spawn(seed, DEEP_STOCK);
            let conns = [c.connect(1), c.connect(2)];
            (c, conns)
        }
        Kind::Mixed => {
            let c = Cluster::spawn(seed, PAPER_STOCK);
            let conns = [c.connect(0), c.connect(1)];
            (c, conns)
        }
    };
    Ready {
        cluster,
        conns,
        lists,
        generate_s,
    }
}

/// Runs both connections' open loops side by side at `rate` requests per
/// second in all, the second offset by half an interval so requests are
/// evenly spaced over the cluster, with the CPUs kept awake meanwhile.
pub fn open_pair(
    conns: &[Connection; 2],
    lists: &[Vec<Request>; 2],
    rate: u32,
    part: u64,
    tracer: Option<&Tracer>,
) -> Vec<Sample> {
    let _awake = KeepAwake::start();
    let interval = Duration::from_secs(2) / rate;
    let t0 = Instant::now();
    let drive = |c: usize, offset: Duration| {
        let base = (2 * part + c as u64) << 32;
        open_loop(
            &conns[c], &lists[c], t0, offset, interval, WAITERS, tracer, base,
        )
    };
    std::thread::scope(|scope| {
        let second = scope.spawn(|| drive(1, interval / 2));
        let mut all = drive(0, Duration::ZERO);
        all.extend(second.join().expect("open-loop driver panicked"));
        all
    })
}

/// One lane's committed requests over every cluster of a run, as slices
/// of latencies. A percentile is the best slice's.
#[derive(Default)]
struct LaneSlices(Vec<Vec<u64>>);

impl LaneSlices {
    fn add(&mut self, samples: &[Sample], lane: Lane, want: Outcome, measured: Duration) {
        let from = WARM_UP.as_nanos() as u64;
        let picked = samples
            .iter()
            .filter(|s| s.lane == lane && s.outcome == want)
            .map(|s| (s.due_ns, s.latency_ns));
        self.0.extend(slices(
            picked,
            from,
            from + measured.as_nanos() as u64,
            SLICES_PER_CLUSTER,
        ));
    }

    fn us(&self, p: f64) -> f64 {
        best_slice_percentile(&self.0, p) / 1e3
    }

    fn count(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }
}

/// What a run's clusters add up to.
#[derive(Default)]
struct Totals {
    tally: Tally,
    net: Net,
    open: Vec<Sample>,
    attempted: u64,
    failed: u64,
    correct: bool,
    wall_s: f64,
    peak_rss_mb: f64,
    generate_s: f64,
    oracle_s: f64,
    outcome_lag_ms: f64,
    gateway: GatewayStats,
}

impl Totals {
    fn absorb(&mut self, from: Instant, generate_s: f64, settled: Settled) {
        self.tally.absorb(&settled.tally);
        self.net.absorb(&settled.net);
        self.failed += settled.gateway.over_window
            + settled.gateway.shed
            + settled.gateway.malformed
            + settled.lost;
        self.correct &= settled.correct;
        self.wall_s += (settled.settled_at - from).as_secs_f64();
        self.peak_rss_mb = settled.peak_rss_mb;
        self.generate_s += generate_s;
        self.oracle_s += settled.oracle_s;
        self.outcome_lag_ms = self
            .outcome_lag_ms
            .max(settled.outcome_lag.as_secs_f64() * 1e3);
        self.gateway.over_window += settled.gateway.over_window;
        self.gateway.shed += settled.gateway.shed;
        self.gateway.responses += settled.gateway.responses;
    }

    /// Per-layer values a live run takes from its own samples and from
    /// what its clusters left behind.
    fn layers(&self, layer: &mut Values) {
        let mut submit: Vec<u64> = self.open.iter().map(|s| s.submit_ns).collect();
        let mut late: Vec<u64> = self.open.iter().map(|s| s.late_ns).collect();
        submit.sort_unstable();
        late.sort_unstable();
        let mut put = |name: &str, v: f64| {
            layer.insert(name.to_string(), v);
        };
        put("client.submit_ns", percentile(&submit, 0.5));
        put("client.gen_late_p99_us", percentile(&late, 0.99) / 1e3);
        put("gateway.over_window", self.gateway.over_window as f64);
        put("gateway.shed", self.gateway.shed as f64);
        put("gateway.responses", self.gateway.responses as f64);
        put("gateway.outcome_lag_ms", self.outcome_lag_ms);
        put(
            "simnet.tcp.msgs_per_update_milli",
            (self.net.messages * 1000 / self.tally.updates.max(1)) as f64,
        );
        put("workload.generate_s", self.generate_s);
        put("oracle.check_s", self.oracle_s);
        // Site threads cannot be stepped from outside: no event or timer counts.
        put("simnet.events_processed", 0.0);
        put("core.step.timer_count", 0.0);
        counts::publish(&self.tally, &self.net, layer);
    }
}

/// The closed loop of `live-covered`: both connections keep [`WINDOW`]
/// updates in flight until `count` are resolved. Returns the best slice's
/// resolved updates per second, and every completion.
fn closed_phase(ready: &Ready, seed: u64, count: usize) -> (f64, Vec<Completion>) {
    let c0 = Instant::now();
    let (conn0, conn1) = (&ready.conns[0], &ready.conns[1]);
    let per_conn: [Vec<Completion>; 2] = std::thread::scope(|scope| {
        let second = scope.spawn(move || {
            closed_loop(
                conn1,
                &mut Covered::new(seed, 101).take(count / 2),
                WINDOW,
                c0,
            )
        });
        let first = closed_loop(
            conn0,
            &mut Covered::new(seed, 100).take(count / 2),
            WINDOW,
            c0,
        );
        [first, second.join().expect("closed-loop driver panicked")]
    });
    // Measured while both connections drive: from the warm-up's end to the
    // moment the faster connection has sent its share.
    let from = CLOSED_WARM_UP.as_nanos() as u64;
    let to = per_conn
        .iter()
        .map(|c| c.last().map_or(0, |l| l.done_ns))
        .min()
        .unwrap_or(0)
        .max(from + 1);
    let all: Vec<Completion> = per_conn.into_iter().flatten().collect();
    let resolved = all
        .iter()
        .filter(|c| matches!(c.outcome, Outcome::Committed | Outcome::Aborted))
        .map(|c| (c.done_ns, 1));
    let slice_s = (to - from) as f64 / 1e9 / CLOSED_SLICES as f64;
    let best = slices(resolved, from, to, CLOSED_SLICES)
        .iter()
        .map(|s| s.len() as f64 / slice_s)
        .fold(0.0, f64::max);
    (best, all)
}

/// Runs a live workload: [`CLUSTERS`] parts, each on a cluster of its
/// own, set up (and timed) inside. Every part sets up a few times and
/// keeps the last, so the run's `crate::SETUPS` set-up samples are spread
/// over its whole length rather than taken in its first instant.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
    setup_s: &mut Vec<f64>,
) -> Pass {
    let open_for = kind.open_for(seconds);
    let (mut delay, mut imm, mut read) = (
        LaneSlices::default(),
        LaneSlices::default(),
        LaneSlices::default(),
    );
    let mut totals = Totals {
        correct: true,
        ..Totals::default()
    };
    let mut sat_ups = 0.0;
    let mut driven = Duration::ZERO;
    for part in 0..CLUSTERS as u64 {
        for _ in 1..crate::SETUPS.div_ceil(CLUSTERS) {
            let from = Instant::now();
            let unused = set_up(kind, seed, part, seconds);
            setup_s.push(from.elapsed().as_secs_f64());
            for c in &unused.conns {
                c.close();
            }
            unused.cluster.discard();
        }
        let from = Instant::now();
        let ready = set_up(kind, seed, part, seconds);
        setup_s.push(from.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let open = open_pair(&ready.conns, &ready.lists, kind.rate(), part, tracer);
        driven += t0.elapsed();
        delay.add(&open, Lane::Delay, Outcome::Committed, open_for);
        imm.add(&open, Lane::Immediate, Outcome::Committed, open_for);
        read.add(&open, Lane::Read, Outcome::ReadOk, open_for);
        totals.attempted += open.len() as u64;
        totals.failed += open.iter().filter(|s| s.outcome == Outcome::Failed).count() as u64;
        totals.open.extend(open);

        // The last covered cluster also shows what a cluster resolves per
        // second when kept busy (one cluster, so that the run's memory is
        // one cluster's and not four heaps' worth of fragmentation).
        if kind == Kind::Covered && part + 1 == CLUSTERS as u64 {
            let (best, closed) = closed_phase(&ready, seed, (seconds * 15_000.0) as usize);
            sat_ups = best;
            totals.attempted += closed.len() as u64;
            totals.failed += closed
                .iter()
                .filter(|c| c.outcome == Outcome::Failed)
                .count() as u64;
        }
        for c in &ready.conns {
            c.close();
        }
        totals.absorb(t0, ready.generate_s, ready.cluster.settle());
    }

    let mut pass = Pass::default();
    let (p50, p90, p99) = (delay.us(0.5), delay.us(0.9), delay.us(0.99));
    pass.e2e("delay_p50_us", p50);
    pass.e2e("delay_p90_us", p90);
    pass.layer.insert("client.delay_p99_us".into(), p99);
    pass.e2e("wall_s", totals.wall_s);
    pass.e2e("peak_rss_mb", totals.peak_rss_mb);
    pass.attempted = totals.attempted;
    pass.failed = totals.failed;
    pass.correct = totals.correct && totals.failed == 0;
    match kind {
        Kind::Covered => {
            // No Immediate lane here: the row carries the Delay lane.
            pass.e2e("imm_p50_us", p50);
            pass.e2e("sat_ups", sat_ups);
            // The regime this workload exists to measure: nothing coordinates.
            let coordination = totals.net.of_kinds(&[
                "av-request",
                "av-grant",
                "imm-prepare",
                "imm-vote",
                "imm-decision",
                "imm-done",
            ]);
            let local_permille = totals.tally.delay_local * 1000 / totals.tally.updates.max(1);
            if coordination != 0 || local_permille < 990 {
                eprintln!("live-covered left its regime: {coordination} coordination messages, {local_permille}‰ local commits");
                pass.correct = false;
            }
        }
        Kind::Mixed => {
            let resolved = totals
                .open
                .iter()
                .filter(|s| matches!(s.outcome, Outcome::Committed | Outcome::Aborted))
                .count();
            pass.e2e("imm_p50_us", imm.us(0.5));
            pass.layer.insert("client.imm_p99_us".into(), imm.us(0.99));
            pass.layer.insert("client.read_p50_us".into(), read.us(0.5));
            pass.e2e("sat_ups", resolved as f64 / driven.as_secs_f64());
        }
    }
    totals.layers(&mut pass.layer);
    eprintln!(
        "open loop {}/s on {CLUSTERS} clusters; committed samples in {} slices: {} Delay, {} Immediate, {} Read; {} updates, {} aborted, {} messages",
        kind.rate(),
        delay.0.len(),
        delay.count(),
        imm.count(),
        read.count(),
        totals.tally.updates,
        totals.tally.aborts(),
        totals.net.messages
    );
    pass
}
