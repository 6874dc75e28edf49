//! Gateway torture suite: pipelining correctness and seed-stable
//! determinism, admission control, in-flight-window backpressure,
//! slow-client shedding, the event-driven way back (coalesced writes,
//! prompt stop), many pipelined connections at once, and wire-level
//! abuse (garbage headers, unknown kinds, mid-frame disconnects) — all
//! against a live TCP cluster, with the conformance oracle auditing
//! every update that made it in.

use avdb::client::Connection;
use avdb::core::{Accelerator, Input};
use avdb::gateway::{Gateway, GatewayConfig};
use avdb::oracle::Observation;
use avdb::prelude::*;
use avdb::simnet::TcpMesh;
use avdb::wire::{
    encode_request, CommitKind, Decoder, ErrorCode, Request, Response, MAGIC, VERSION,
};
use bytes::BytesMut;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

// ---- harness --------------------------------------------------------------

/// One cluster at a time in this binary. Several tests hinge on the
/// gateway winning a race by a few network round trips (later pipelined
/// updates overtaking a shortage, follow-up frames decoded while a 2PC
/// holds the window), and a second cluster booting or draining on the
/// other test thread can take that margin away on a small machine.
static ONE_CLUSTER: Mutex<()> = Mutex::new(());

/// A live 3-site cluster with a gateway in front of it.
struct Cluster {
    cfg: SystemConfig,
    mesh: Arc<TcpMesh<Accelerator>>,
    gateway: Gateway,
    _alone: MutexGuard<'static, ()>,
}

/// Boots `sites` accelerators (4 Delay products, 1 Immediate product)
/// on a mesh with HTTP listeners, behind a gateway with the given knobs.
fn boot(sites: usize, seed: u64, gw: GatewayConfig) -> Cluster {
    boot_on(sites, seed, gw, |actors, seed| TcpMesh::spawn_with_http(actors, seed).0)
}

/// As [`boot`], on the mesh `spawn` makes.
fn boot_on(
    sites: usize,
    seed: u64,
    gw: GatewayConfig,
    spawn: fn(Vec<Accelerator>, u64) -> TcpMesh<Accelerator>,
) -> Cluster {
    let alone = ONE_CLUSTER.lock().unwrap_or_else(PoisonError::into_inner);
    let cfg = SystemConfig::builder()
        .sites(sites)
        .regular_products(4, Volume(9_000))
        .non_regular_products(1, Volume(9_000))
        .seed(seed)
        .build()
        .expect("config");
    let actors: Vec<Accelerator> =
        SiteId::all(sites).map(|s| Accelerator::new(s, &cfg)).collect();
    let mesh = Arc::new(spawn(actors, seed));
    let gateway = Gateway::spawn(Arc::clone(&mesh), sites, gw);
    Cluster { cfg, mesh, gateway, _alone: alone }
}

impl Cluster {
    fn addr(&self, site: usize) -> SocketAddr {
        self.gateway.addrs()[site]
    }

    /// Waits for every accepted update's outcome, settles replication,
    /// shuts everything down, and runs the conformance oracle.
    fn finish_checked(self, context: &str) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.gateway.outcome_count() < self.gateway.stats().updates {
            assert!(Instant::now() < deadline, "{context}: outcomes never drained");
            std::thread::sleep(Duration::from_millis(2));
        }
        for site in SiteId::all(self.cfg.n_sites) {
            self.mesh.inject(site, Input::FlushPropagation);
        }
        assert!(
            self.mesh.quiesce(deadline.saturating_duration_since(Instant::now())),
            "{context}: replication never settled"
        );
        let (submissions, mut outcomes, _stats) = self.gateway.finish();
        let mesh = Arc::try_unwrap(self.mesh).ok().expect("the gateway released the mesh");
        let (actors, counters, leftovers) = mesh.shutdown();
        outcomes.extend(leftovers);
        avdb::oracle::check(&Observation::from_accelerators(
            self.cfg,
            &actors,
            submissions,
            outcomes,
            counters.snapshot(),
        ))
        .assert_ok(context);
    }
}

/// Writes one update frame to a raw socket.
fn raw_update(stream: &mut TcpStream, req_id: u64, product: u32, delta: i64) {
    let mut buf = BytesMut::new();
    encode_request(req_id, &Request::Update { product, delta }, &mut buf);
    stream.write_all(&buf).expect("write update frame");
}

/// Reads response frames from a raw socket until `n` arrived, EOF, or
/// the deadline — whichever first. Returns them in arrival order.
fn raw_responses(stream: &mut TcpStream, n: usize, deadline: Duration) -> Vec<(u64, Response)> {
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("read timeout");
    let end = Instant::now() + deadline;
    let mut dec = Decoder::new();
    let mut got = Vec::new();
    let mut chunk = [0u8; 4096];
    while got.len() < n && Instant::now() < end {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(read) => {
                dec.extend(&chunk[..read]);
                while let Ok(Some(frame)) = dec.next_response() {
                    got.push(frame);
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    got
}

// ---- pipelining -----------------------------------------------------------

/// Drives one pipelined connection and returns (arrival order of request
/// ids, canonical transcript keyed by request id).
fn pipelined_run(seed: u64) -> (Vec<u64>, String) {
    let cluster = boot(3, seed, GatewayConfig::default());
    let mut stream = TcpStream::connect(cluster.addr(1)).expect("connect site 1");
    stream.set_nodelay(true).expect("nodelay");

    // Request 100: a shortage-path Delay update — site 1's local AV
    // share (9000/3 = 3000) cannot cover -4000, so the accelerator must
    // gather AV from its peers over several round trips. Requests
    // 101..=147: small local Delay commits that complete instantly.
    // Pipelining means the small ones overtake the shortage update. All
    // 48 leave in one write, so the site has them queued before any of
    // the shortage's round trips can come back.
    let mut burst = BytesMut::new();
    encode_request(100, &Request::Update { product: 0, delta: -4_000 }, &mut burst);
    for i in 0..47u64 {
        let (product, delta) = (1 + (i % 3) as u32, -(1 + (i % 3) as i64));
        encode_request(101 + i, &Request::Update { product, delta }, &mut burst);
    }
    stream.write_all(&burst).expect("write the pipelined burst");
    let got = raw_responses(&mut stream, 48, Duration::from_secs(20));
    assert_eq!(got.len(), 48, "every pipelined request must be answered");

    let arrival: Vec<u64> = got.iter().map(|(id, _)| *id).collect();
    let mut ids: Vec<u64> = arrival.clone();
    ids.sort_unstable();
    assert_eq!(ids, (100..148).collect::<Vec<u64>>(), "ids match exactly once");

    let mut sorted = got;
    sorted.sort_by_key(|(id, _)| *id);
    let transcript = sorted
        .iter()
        .map(|(id, resp)| match resp {
            // `completed_at` is wall-derived on the live transport, so the
            // canonical transcript excludes it.
            Response::Committed { txn, kind, correspondences, .. } => {
                format!("{id} committed txn={txn} kind={kind:?} corr={correspondences}")
            }
            Response::Aborted { txn, code, correspondences, .. } => {
                format!("{id} aborted txn={txn} code={code:?} corr={correspondences}")
            }
            other => format!("{id} {other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n");
    drop(stream);
    cluster.finish_checked("pipelining");
    (arrival, transcript)
}

/// N interleaved requests on one connection are matched by request id
/// regardless of completion order, and the transcript is byte-identical
/// across two runs of the same seed.
#[test]
fn pipelining_matches_by_id_and_is_seed_stable() {
    let (arrival, transcript_a) = pipelined_run(11);
    // The shortage update (id 100) was submitted first but needs peer
    // round trips; at least one later local commit must overtake it.
    let pos_shortage = arrival.iter().position(|&id| id == 100).expect("id 100 answered");
    assert!(
        pos_shortage > 0,
        "expected out-of-order completion; shortage update finished first"
    );
    // All 48 committed: the shortage was satisfiable from peer AV.
    assert!(transcript_a.lines().all(|l| l.contains("committed")), "{transcript_a}");

    let (_, transcript_b) = pipelined_run(11);
    assert_eq!(transcript_a, transcript_b, "same seed must give identical transcripts");
}

// ---- reads and status -----------------------------------------------------

/// Read and Status are queries on the site's accelerator, so a mesh
/// spawned without HTTP listeners answers them just as one with them.
#[test]
fn reads_and_status_need_no_http_listeners() {
    let answers = |spawn: fn(Vec<Accelerator>, u64) -> TcpMesh<Accelerator>| {
        let cluster = boot_on(3, 61, GatewayConfig::default(), spawn);
        let conn = Connection::connect(cluster.addr(1)).expect("connect site 1");
        let call = |req: &Request| conn.call(req, Duration::from_secs(10)).expect("answered");
        // Covered Delay updates on two products and an Immediate one,
        // so the rows read back are not the initial ones.
        for (product, delta) in [(0, -5), (1, -7), (1, -3), (4, -2)] {
            let outcome = call(&Request::Update { product, delta });
            assert!(matches!(outcome, Response::Committed { .. }), "{outcome:?}");
        }
        assert!(cluster.mesh.quiesce(Duration::from_secs(20)));
        // Products 0–4 exist; 5 does not.
        let reads: Vec<Response> = (0..6).map(|product| call(&Request::Read { product })).collect();
        let Response::StatusOk { json } = call(&Request::Status) else {
            panic!("status not answered");
        };
        let status: avdb::core::StatusSnapshot = serde_json::from_str(&json).expect("status json");
        drop(conn);
        cluster.finish_checked("reads-and-status");
        (reads, (status.site, status.role, status.committed, status.aborted, status.av))
    };
    let (reads, status) = answers(TcpMesh::spawn);
    assert_eq!(
        reads[1],
        Response::ReadOk {
            product: 1,
            stock: 9_000 - 10,
            av_defined: true,
            av_available: 3_000 - 10
        },
    );
    assert!(matches!(reads[4], Response::ReadOk { product: 4, av_defined: false, .. }));
    assert!(
        matches!(&reads[5], Response::Error { code: ErrorCode::Unavailable, .. }),
        "{:?}",
        reads[5]
    );
    assert_eq!((status.0, status.2, status.3), (1, 4, 0));
    let with_http = answers(|actors, seed| TcpMesh::spawn_with_http(actors, seed).0);
    assert_eq!((reads, status), with_http, "the HTTP listeners changed an answer");
}

// ---- admission ------------------------------------------------------------

/// Connections beyond the per-site cap are refused with a typed error,
/// and the slot frees up when an admitted connection leaves.
#[test]
fn admission_cap_refuses_with_typed_error() {
    let cluster = boot(3, 21, GatewayConfig { max_connections: 1, ..GatewayConfig::default() });

    let admitted = Connection::connect(cluster.addr(0)).expect("first connection");
    let resp = admitted.call(&Request::Ping, Duration::from_secs(5)).expect("ping");
    assert_eq!(format!("{resp:?}"), format!("{:?}", Response::Pong));

    // Over the cap: the refusal is a typed wire error, then close.
    let mut refused = TcpStream::connect(cluster.addr(0)).expect("tcp connect");
    let frames = raw_responses(&mut refused, 1, Duration::from_secs(5));
    match frames.as_slice() {
        [(0, Response::Error { code: ErrorCode::AdmissionRefused, .. })] => {}
        other => panic!("want AdmissionRefused, got {other:?}"),
    }
    assert_eq!(cluster.gateway.stats().refused, 1);

    // A different site's listener has its own cap.
    let other_site = Connection::connect(cluster.addr(1)).expect("site 1 connection");
    other_site.call(&Request::Ping, Duration::from_secs(5)).expect("site 1 ping");

    // Dropping the admitted connection frees the slot.
    drop(admitted);
    let deadline = Instant::now() + Duration::from_secs(5);
    while cluster.gateway.connections(0) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let readmitted = Connection::connect(cluster.addr(0)).expect("slot freed");
    readmitted.call(&Request::Ping, Duration::from_secs(5)).expect("ping after readmit");

    cluster.finish_checked("admission");
}

// ---- backpressure ---------------------------------------------------------

/// Pipelining past the in-flight window draws typed `OverWindow` errors
/// while the blocking update is still in flight.
#[test]
fn over_window_requests_get_typed_errors() {
    let cluster = boot(
        3,
        31,
        GatewayConfig { max_in_flight: 1, shed_after: 100, ..GatewayConfig::default() },
    );
    let mut stream = TcpStream::connect(cluster.addr(0)).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    // Product 4 is Immediate (2PC across all sites): the commit takes
    // several network round trips, holding the window open while the
    // two follow-ups are decoded. All three leave in one write, so the
    // reader sees them together and the margin is those round trips
    // against two frame decodes, not against the client's syscalls.
    let mut frames = BytesMut::new();
    encode_request(1, &Request::Update { product: 4, delta: -10 }, &mut frames);
    encode_request(2, &Request::Update { product: 1, delta: -1 }, &mut frames);
    encode_request(3, &Request::Update { product: 2, delta: -1 }, &mut frames);
    stream.write_all(&frames).expect("write the three frames");

    let got = raw_responses(&mut stream, 3, Duration::from_secs(20));
    assert_eq!(got.len(), 3, "all three answered");
    let over: Vec<u64> = got
        .iter()
        .filter_map(|(id, r)| {
            matches!(r, Response::Error { code: ErrorCode::OverWindow, .. }).then_some(*id)
        })
        .collect();
    assert_eq!(over, vec![2, 3], "both over-window requests refused, in order");
    // The blocking update itself must resolve normally (id 1).
    let resolved: Vec<&(u64, Response)> = got
        .iter()
        .filter(|(_, r)| matches!(r, Response::Committed { .. } | Response::Aborted { .. }))
        .collect();
    assert_eq!(resolved.len(), 1);
    assert_eq!(resolved[0].0, 1, "blocking update answered by id");
    assert_eq!(cluster.gateway.stats().over_window, 2);

    drop(stream);
    cluster.finish_checked("over-window");
}

/// A reader that stops draining and keeps pipelining is shed after its
/// strike budget — without delaying a concurrent well-behaved client.
#[test]
fn slow_client_is_shed_without_stalling_fast_client() {
    let cluster = boot(
        3,
        41,
        GatewayConfig {
            max_in_flight: 1,
            shed_after: 3,
            queue_slack: 8,
            ..GatewayConfig::default()
        },
    );

    // The abuser: one Immediate update to hold the window, then a burst
    // far past the strike budget, never reading a single response.
    let mut abuser = TcpStream::connect(cluster.addr(0)).expect("connect abuser");
    abuser.set_nodelay(true).expect("nodelay");
    let mut burst = BytesMut::new();
    encode_request(1, &Request::Update { product: 4, delta: -10 }, &mut burst);
    for i in 0..16u64 {
        encode_request(2 + i, &Request::Update { product: 1, delta: -1 }, &mut burst);
    }
    abuser.write_all(&burst).expect("write burst");

    // Meanwhile a fast client on its own connection (same site) gets
    // every update through promptly.
    let fast = Connection::connect(cluster.addr(0)).expect("connect fast client");
    for i in 0..20 {
        let resp = fast
            .call(
                &Request::Update { product: 1 + (i % 3), delta: -1 },
                Duration::from_secs(5),
            )
            .expect("fast client never stalls");
        assert!(
            matches!(resp, Response::Committed { .. }),
            "fast client update {i}: {resp:?}"
        );
    }

    // The abuser must be shed (strike budget exhausted).
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.gateway.stats().shed == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = cluster.gateway.stats();
    assert_eq!(stats.shed, 1, "abuser shed exactly once");
    assert!(stats.over_window >= 3, "strikes were recorded: {stats:?}");

    drop(abuser);
    drop(fast);
    // The abuser's *accepted* updates still went through the protocol;
    // the oracle accounts for every one of them.
    cluster.finish_checked("slow-client-shed");
}

/// A client that pipelines updates and never reads, with a window and a
/// strike budget it never reaches, is shed by the first write its full
/// socket will not take within the gateway's short write timeout. Its
/// site thread writes every outcome, so meanwhile a second connection at
/// the same site gets each reply within `BOUND`.
#[test]
fn a_client_that_never_reads_is_shed_when_its_socket_fills() {
    const BOUND: Duration = Duration::from_secs(1);
    const BATCH: u64 = 500;
    let cluster = boot(
        3,
        43,
        GatewayConfig {
            max_in_flight: usize::MAX,
            shed_after: usize::MAX,
            ..GatewayConfig::default()
        },
    );
    let fast = Connection::connect(cluster.addr(0)).expect("connect fast client");
    let fast_call = |i: i64| {
        let from = Instant::now();
        let resp = fast
            .call(&Request::Update { product: 2, delta: 1 - 2 * (i % 2) }, BOUND)
            .expect("the fast client gets every reply within the bound");
        assert!(matches!(resp, Response::Committed { .. }), "fast update {i}: {resp:?}");
        assert!(from.elapsed() < BOUND);
    };

    // Batches of covered ±1 updates (so the stock stays put), each sent
    // once the site has answered everything before it: the abuser's
    // replies pile up in its socket, not its updates in the mailbox.
    let mut abuser = TcpStream::connect(cluster.addr(0)).expect("connect abuser");
    let mut sent = 0u64;
    let deadline = Instant::now() + Duration::from_secs(120);
    while cluster.gateway.stats().shed == 0 {
        assert!(Instant::now() < deadline, "not shed after {sent} updates");
        let mut batch = BytesMut::new();
        for id in sent..sent + BATCH {
            let delta = if id.is_multiple_of(2) { -1 } else { 1 };
            encode_request(id, &Request::Update { product: 1, delta }, &mut batch);
        }
        if abuser.write_all(&batch).is_err() {
            break; // shed between the check and the write
        }
        sent += BATCH;
        fast_call(sent as i64);
        let drained = Instant::now() + Duration::from_secs(10);
        while cluster.gateway.outcome_count() < cluster.gateway.stats().updates {
            assert!(Instant::now() < drained, "the site stalled after {sent} updates");
            std::thread::yield_now();
        }
    }
    for i in 0..20 {
        fast_call(i);
    }
    let stats = cluster.gateway.stats();
    assert_eq!((stats.shed, stats.over_window), (1, 0), "{stats:?}");
    drop(abuser);
    drop(fast);
    cluster.finish_checked("never-reads-shed");
}

// ---- the way back: coalesced writes, prompt stop --------------------------

/// Responses coalesced into one write keep their per-connection order,
/// and `responses` counts frames, not writes.
#[test]
fn coalesced_writes_keep_order_and_count_frames() {
    // Slack for the whole burst: nothing is read until it is all sent.
    let cluster = boot(3, 91, GatewayConfig { queue_slack: 1024, ..GatewayConfig::default() });
    let mut stream = TcpStream::connect(cluster.addr(2)).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    // 600 pings (answered by the reader, in request order) with 60
    // covered updates among them (answered by the site thread, in the
    // site's commit order = submission order), in a single write: both
    // find many responses encoded at once.
    let is_update = |id: u64| id.is_multiple_of(11);
    let mut burst = BytesMut::new();
    for id in 0..660u64 {
        if is_update(id) {
            encode_request(id, &Request::Update { product: 1, delta: -1 }, &mut burst);
        } else {
            encode_request(id, &Request::Ping, &mut burst);
        }
    }
    stream.write_all(&burst).expect("write burst");
    let got = raw_responses(&mut stream, 660, Duration::from_secs(20));
    assert_eq!(got.len(), 660, "every request answered");
    for (id, resp) in &got {
        match resp {
            Response::Committed { .. } => assert!(is_update(*id), "commit for ping {id}"),
            Response::Pong => assert!(!is_update(*id), "pong for update {id}"),
            other => panic!("request {id}: {other:?}"),
        }
    }
    let ids = |updates: bool| -> Vec<u64> {
        got.iter().map(|(id, _)| *id).filter(|id| is_update(*id) == updates).collect()
    };
    assert_eq!(ids(false), (0..660).filter(|id| !is_update(*id)).collect::<Vec<_>>());
    assert_eq!(ids(true), (0..660).filter(|id| is_update(*id)).collect::<Vec<_>>());

    // The counter is bumped after the write returns; give it a moment,
    // then it must be exact.
    let deadline = Instant::now() + Duration::from_secs(5);
    while cluster.gateway.stats().responses < 660 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(cluster.gateway.stats().responses, 660, "one per frame");
    drop(stream);
    cluster.finish_checked("coalesced-writes");
}

/// Stopping an idle gateway does not wait out a poll period, and its
/// idle sites hold no lock anyone else needs.
#[test]
fn idle_gateway_finishes_promptly_and_blocks_nobody() {
    let cluster = boot(3, 101, GatewayConfig::default());
    let conn = Connection::connect(cluster.addr(0)).expect("connect");
    conn.call(&Request::Ping, Duration::from_secs(5)).expect("ping");
    drop(conn);

    // Every site is blocked on its empty mailbox by now (nothing was
    // ever emitted); none of these may wait for one.
    let from = Instant::now();
    assert!(cluster.mesh.drain_outputs().is_empty());
    assert_eq!(cluster.gateway.outcome_count(), 0);
    let _ = cluster.mesh.counters_snapshot();
    assert!(from.elapsed() < Duration::from_millis(100), "blocked behind an idle site");

    let from = Instant::now();
    let (submissions, outcomes, stats) = cluster.gateway.finish();
    let took = from.elapsed();
    assert!(took < Duration::from_millis(100), "finish() took {took:?} on an idle gateway");
    assert!(submissions.is_empty() && outcomes.is_empty());
    assert_eq!((stats.accepted, stats.pings, stats.responses), (1, 1, 1));

    // The sites have handed their desks back, so the mesh is ours to stop.
    let mesh = Arc::try_unwrap(cluster.mesh).ok().expect("the gateway released the mesh");
    let from = Instant::now();
    mesh.shutdown();
    assert!(from.elapsed() < Duration::from_secs(1), "shutdown waited on something");
}

/// `finish` takes every desk back, so with clients still connected and
/// pipelining, the mesh is free the moment it returns.
#[test]
fn finish_releases_the_mesh_with_connections_open() {
    let cluster = boot(3, 103, GatewayConfig::default());
    let clients: Vec<TcpStream> = (0..6)
        .map(|c| {
            let mut stream = TcpStream::connect(cluster.addr(c % 3)).expect("connect");
            for i in 0..8u64 {
                raw_update(&mut stream, i, (i % 4) as u32, -1);
            }
            stream
        })
        .collect();
    // One connection has been served for sure; the others may still be
    // mid-request when the gateway stops.
    let mut first = clients[0].try_clone().expect("clone client");
    assert_eq!(raw_responses(&mut first, 8, Duration::from_secs(20)).len(), 8);
    let _ = cluster.gateway.finish();
    let mesh = Arc::try_unwrap(cluster.mesh).ok().expect("the gateway released the mesh");
    mesh.shutdown();
    drop(clients);
}

/// A site that stops with its desk attached leaves it, flushed, for
/// `finish`: the updates it ran and the outcomes it emitted still reach
/// the oracle's inputs.
#[test]
fn finish_takes_back_the_desk_of_a_killed_site() {
    let cluster = boot(3, 107, GatewayConfig::default());
    let mut stream = TcpStream::connect(cluster.addr(0)).expect("connect");
    for i in 0..4u64 {
        raw_update(&mut stream, i, i as u32, -1);
    }
    assert_eq!(raw_responses(&mut stream, 4, Duration::from_secs(20)).len(), 4);
    cluster.mesh.kill(SiteId(0));
    let (submissions, outcomes, stats) = cluster.gateway.finish();
    assert_eq!((submissions.len(), stats.updates, stats.responses), (4, 4, 4));
    assert_eq!(outcomes.iter().filter(|(_, site, _)| *site == SiteId(0)).count(), 4);
    let mesh = Arc::try_unwrap(cluster.mesh).ok().expect("the gateway released the mesh");
    mesh.shutdown();
}

// ---- wire-level torture ---------------------------------------------------

/// Garbage where a header should be: typed `Malformed` error, then the
/// gateway closes the connection — and keeps serving everyone else.
#[test]
fn garbage_header_gets_typed_error_then_close() {
    let cluster = boot(3, 51, GatewayConfig::default());
    let mut vandal = TcpStream::connect(cluster.addr(2)).expect("connect");
    vandal.write_all(b"GET / HTTP/1.1\r\nHost: not-a-wire-client\r\n\r\n").expect("write");
    let frames = raw_responses(&mut vandal, 1, Duration::from_secs(5));
    match frames.as_slice() {
        [(0, Response::Error { code: ErrorCode::Malformed, .. })] => {}
        other => panic!("want Malformed error, got {other:?}"),
    }
    // Connection is closed after the error frame.
    vandal.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut rest = Vec::new();
    let _ = vandal.read_to_end(&mut rest);
    assert!(rest.is_empty(), "nothing after the typed error");

    // The cluster is unbothered.
    let healthy = Connection::connect(cluster.addr(2)).expect("connect after vandal");
    healthy.call(&Request::Ping, Duration::from_secs(5)).expect("ping");
    cluster.finish_checked("garbage-header");
}

/// A well-framed request of unknown kind is answered with a typed error
/// carrying its request id, and the connection survives.
#[test]
fn unknown_kind_is_answered_and_connection_survives() {
    let cluster = boot(3, 61, GatewayConfig::default());
    let mut stream = TcpStream::connect(cluster.addr(0)).expect("connect");

    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC.to_be_bytes());
    frame.push(VERSION);
    frame.push(0x7F); // no such kind
    frame.extend_from_slice(&777u64.to_be_bytes());
    frame.extend_from_slice(&0u32.to_be_bytes());
    stream.write_all(&frame).expect("write unknown-kind frame");

    let frames = raw_responses(&mut stream, 1, Duration::from_secs(5));
    match frames.as_slice() {
        [(777, Response::Error { code: ErrorCode::UnsupportedKind, .. })] => {}
        other => panic!("want UnsupportedKind for id 777, got {other:?}"),
    }

    // Framing stayed intact: a valid request on the same connection works.
    raw_update(&mut stream, 778, 1, -1);
    let frames = raw_responses(&mut stream, 1, Duration::from_secs(10));
    match frames.as_slice() {
        [(778, Response::Committed { .. })] => {}
        other => panic!("want commit for id 778, got {other:?}"),
    }
    drop(stream);
    cluster.finish_checked("unknown-kind");
}

/// A client that dies mid-frame neither crashes nor wedges the gateway;
/// the requests completed before the cut are fully accounted for.
#[test]
fn mid_frame_disconnect_is_contained() {
    let cluster = boot(3, 71, GatewayConfig::default());
    let mut stream = TcpStream::connect(cluster.addr(1)).expect("connect");

    // One whole update, then half a frame, then vanish.
    let mut buf = BytesMut::new();
    encode_request(5, &Request::Update { product: 1, delta: -2 }, &mut buf);
    let mut half = BytesMut::new();
    encode_request(6, &Request::Update { product: 2, delta: -3 }, &mut half);
    stream.write_all(&buf).expect("whole frame");
    stream.write_all(&half[..half.len() / 2]).expect("half frame");
    drop(stream);

    // The gateway retires the connection and stays healthy.
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.gateway.stats().closed == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(cluster.gateway.stats().closed, 1, "mid-frame EOF is a clean close");
    assert_eq!(cluster.gateway.stats().updates, 1, "only the whole frame was accepted");

    let healthy = Connection::connect(cluster.addr(1)).expect("connect after disconnect");
    healthy.call(&Request::Ping, Duration::from_secs(5)).expect("ping");
    drop(healthy);
    // The accepted update is in the submission log; the oracle checks it.
    cluster.finish_checked("mid-frame-disconnect");
}

// ---- many connections at once --------------------------------------------

/// The whole client path under concurrency: nine connections (three per
/// site) each pipeline their share of 300 updates eight deep, every
/// tenth on the Immediate product. Every update resolves, no reply is
/// lost, and the oracle audits the lot.
#[test]
fn many_pipelined_connections_are_oracle_clean() {
    const CONNECTIONS: usize = 9;
    const WINDOW: usize = 8;
    const UPDATES: usize = 300;
    let cluster = boot(
        3,
        5,
        GatewayConfig {
            max_in_flight: WINDOW,
            shed_after: WINDOW,
            queue_slack: WINDOW,
            ..GatewayConfig::default()
        },
    );
    // Update `k` rides connection `k % 9`, which serves site `k % 3`: the
    // maker (site 0) restocks and the retailers sell.
    let lane = |c: usize| -> Vec<Request> {
        (c..UPDATES)
            .step_by(CONNECTIONS)
            .map(|k| Request::Update {
                product: if k.is_multiple_of(10) { 4 } else { (k % 4) as u32 },
                delta: if c.is_multiple_of(3) { 5 } else { -3 },
            })
            .collect()
    };
    let timeout = Duration::from_secs(30);
    let replies: Vec<Response> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (addr, reqs) = (cluster.addr(c % 3), lane(c));
                s.spawn(move || {
                    let conn = Connection::connect(addr).expect("connect");
                    let mut pending = VecDeque::new();
                    let mut replies = Vec::new();
                    for req in &reqs {
                        pending.push_back(conn.submit(req).expect("submit"));
                        if pending.len() == WINDOW {
                            let oldest = pending.pop_front().expect("non-empty pipeline");
                            replies.push(oldest.wait(timeout).expect("reply"));
                        }
                    }
                    replies.extend(pending.iter().map(|p| p.wait(timeout).expect("reply")));
                    replies
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("worker")).collect()
    });

    assert_eq!(replies.len(), UPDATES, "no reply lost");
    for reply in &replies {
        assert!(
            matches!(reply, Response::Committed { .. } | Response::Aborted { .. }),
            "every update resolves: {reply:?}"
        );
    }
    assert!(
        replies
            .iter()
            .any(|r| matches!(r, Response::Committed { kind: CommitKind::Immediate, .. })),
        "the Immediate path ran"
    );
    let stats = cluster.gateway.stats();
    assert_eq!((stats.updates, stats.over_window, stats.shed), (UPDATES as u64, 0, 0));
    cluster.finish_checked("many-connections");
}
