#![warn(missing_docs)]

//! The client-facing front door: one wire-protocol listener per site,
//! layered on a running [`TcpMesh`] of accelerators.
//!
//! Responsibilities (DESIGN.md §14):
//!
//! - **Admission control** — at most [`GatewayConfig::max_connections`]
//!   client connections per site; the next one is answered with a typed
//!   `AdmissionRefused` error frame and closed.
//! - **Pipelining** — requests carry client-chosen ids; updates are
//!   injected into the site's accelerator as `Input::ClientUpdate` with
//!   a gateway-global correlation tag, and the accelerator stamps the
//!   tag back into the [`UpdateOutcome`], so responses are routed to the
//!   right connection and request id in *completion* order — no
//!   head-of-line blocking between a slow Immediate update and a fast
//!   Delay one.
//! - **Backpressure** — each connection has a bounded response queue
//!   and an in-flight window ([`GatewayConfig::max_in_flight`]).
//!   Pipelining past the window earns a typed `OverWindow` error, and
//!   [`GatewayConfig::shed_after`] such violations shed the connection.
//!   A connection whose response queue jams (a client that stopped
//!   reading) is shed too. Shedding never blocks the outcome pump or
//!   other connections: all routing uses non-blocking sends.
//! - **No timed wait on the way back** — the outcome pump blocks on the
//!   mesh's output queue ([`TcpMesh::wait_outputs`]) and is woken by the
//!   site thread that emits; it routes a drained batch under one lock
//!   of the routing table and one of the outcome log, and each
//!   connection's writer puts every response already queued into one
//!   `write`. A covered Delay update therefore costs the client a ping
//!   plus the accelerator's own work, not a poll period.
//! - **Observability for the oracle** — every injected update is logged
//!   as a [`SubmittedRequest`] in injection order, and every drained
//!   outcome is kept, so a gateway-driven run can be replayed against
//!   the conformance oracle exactly like a harness-driven one.
//!
//! Reads and status queries are served through the mesh's introspection
//! plane ([`TcpMesh::inspect`]) — answered between protocol events by
//! the site's own event loop, so a read is consistent with the site's
//! commit order at that instant.

use avdb_core::{Accelerator, Input};
use avdb_oracle::SubmittedRequest;
use avdb_simnet::TcpMesh;
use avdb_types::{ProductId, SiteId, UpdateOutcome, UpdateRequest, VirtualTime, Volume};
use avdb_wire::{
    encode_response, AbortCode, CommitKind, Decoder, ErrorCode, Request, Response, WireError,
};
use bytes::BytesMut;
use crossbeam::channel::{bounded, Receiver, SyncSender, TrySendError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Gateway tuning knobs.
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Client connections admitted per site; the next is refused.
    pub max_connections: usize,
    /// Update requests one connection may have in flight; the next earns
    /// a typed `OverWindow` error.
    pub max_in_flight: usize,
    /// Over-window violations after which the connection is shed.
    pub shed_after: usize,
    /// Extra response-queue slots beyond the in-flight window (room for
    /// error replies and reads); a full queue sheds the connection.
    pub queue_slack: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig { max_connections: 1024, max_in_flight: 64, shed_after: 64, queue_slack: 64 }
    }
}

/// Lifetime counters, all monotone.
#[derive(Default)]
struct Stats {
    accepted: AtomicU64,
    refused: AtomicU64,
    shed: AtomicU64,
    closed: AtomicU64,
    updates: AtomicU64,
    reads: AtomicU64,
    statuses: AtomicU64,
    pings: AtomicU64,
    over_window: AtomicU64,
    malformed: AtomicU64,
    responses: AtomicU64,
}

/// Point-in-time copy of the gateway counters.
#[derive(Clone, Debug, Default)]
pub struct GatewayStats {
    /// Connections admitted.
    pub accepted: u64,
    /// Connections refused at the admission cap.
    pub refused: u64,
    /// Connections shed (window violations or jammed/unwritable socket).
    pub shed: u64,
    /// Connections closed cleanly by the client.
    pub closed: u64,
    /// Updates injected into the mesh.
    pub updates: u64,
    /// Read requests served.
    pub reads: u64,
    /// Status requests served.
    pub statuses: u64,
    /// Pings answered.
    pub pings: u64,
    /// Typed `OverWindow` errors returned.
    pub over_window: u64,
    /// Malformed / unsupported frames answered with a typed error.
    pub malformed: u64,
    /// Response frames written to clients.
    pub responses: u64,
}

impl Stats {
    fn snapshot(&self) -> GatewayStats {
        GatewayStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            statuses: self.statuses.load(Ordering::Relaxed),
            pings: self.pings.load(Ordering::Relaxed),
            over_window: self.over_window.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
        }
    }
}

/// One admitted connection. Holds no response-queue `Sender` — those live
/// with the reader and the routing table, so the writer's channel
/// disconnects (and the writer exits) once both let go.
struct Conn {
    id: u64,
    site: u32,
    stream: TcpStream,
    in_flight: AtomicUsize,
    strikes: AtomicUsize,
    dead: AtomicBool,
}

/// Routing-table entry: where one in-flight update's outcome goes.
struct Route {
    req_id: u64,
    conn: Arc<Conn>,
    tx: SyncSender<(u64, Response)>,
}

/// Submission log. The oracle replays per-site submission order, so the
/// label assignment and the mesh injection happen under one lock — the
/// log order always matches the site mailbox order.
#[derive(Default)]
struct SubmissionLog {
    log: Vec<SubmittedRequest>,
    next_label: u64,
}

struct Shared {
    mesh: Arc<TcpMesh<Accelerator>>,
    cfg: GatewayConfig,
    running: AtomicBool,
    next_tag: AtomicU64,
    next_conn: AtomicU64,
    routes: Mutex<HashMap<u64, Route>>,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    site_conns: Vec<AtomicUsize>,
    submissions: Mutex<SubmissionLog>,
    outcomes: Mutex<Vec<(VirtualTime, SiteId, UpdateOutcome)>>,
    outcome_count: AtomicU64,
    stats: Stats,
}

impl Shared {
    /// Removes a connection from every table and closes its socket.
    /// Idempotent; `was_shed` distinguishes forced eviction from a clean
    /// client close in the stats.
    fn retire(&self, conn: &Arc<Conn>, was_shed: bool) {
        if conn.dead.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.site_conns[conn.site as usize].fetch_sub(1, Ordering::SeqCst);
        self.conns.lock().remove(&conn.id);
        // Drop this connection's routes: their queue senders go with
        // them, which lets the writer thread's channel disconnect.
        self.routes.lock().retain(|_, r| r.conn.id != conn.id);
        if was_shed {
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.closed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A running gateway: one wire listener per site over a live mesh.
pub struct Gateway {
    shared: Arc<Shared>,
    addrs: Vec<SocketAddr>,
    accept_handles: Vec<JoinHandle<()>>,
    pump_handle: Option<JoinHandle<()>>,
}

impl Gateway {
    /// Binds one loopback wire listener per site and starts the accept
    /// loops and the outcome pump. The mesh must have been spawned with
    /// an inspect surface ([`TcpMesh::spawn_with_http`]) for Read/Status
    /// requests to be answerable.
    pub fn spawn(mesh: Arc<TcpMesh<Accelerator>>, n_sites: usize, cfg: GatewayConfig) -> Gateway {
        assert!(cfg.max_connections > 0, "max_connections must be positive");
        assert!(cfg.max_in_flight > 0, "max_in_flight must be positive");
        assert!(cfg.shed_after > 0, "shed_after must be positive");
        let shared = Arc::new(Shared {
            mesh,
            cfg,
            running: AtomicBool::new(true),
            next_tag: AtomicU64::new(1),
            next_conn: AtomicU64::new(1),
            routes: Mutex::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
            site_conns: (0..n_sites).map(|_| AtomicUsize::new(0)).collect(),
            submissions: Mutex::new(SubmissionLog::default()),
            outcomes: Mutex::new(Vec::new()),
            outcome_count: AtomicU64::new(0),
            stats: Stats::default(),
        });

        let mut addrs = Vec::with_capacity(n_sites);
        let mut accept_handles = Vec::with_capacity(n_sites);
        for site in 0..n_sites {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind wire listener");
            addrs.push(listener.local_addr().expect("wire local addr"));
            let shared = Arc::clone(&shared);
            accept_handles.push(std::thread::spawn(move || {
                accept_loop(listener, site as u32, shared);
            }));
        }

        let pump_shared = Arc::clone(&shared);
        let pump_handle = Some(std::thread::spawn(move || pump_loop(pump_shared)));

        Gateway { shared, addrs, accept_handles, pump_handle }
    }

    /// Per-site wire-protocol addresses, indexed by site.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Outcomes drained from the mesh so far (all of them —
    /// gateway-tagged and harness-injected alike).
    pub fn outcome_count(&self) -> u64 {
        self.shared.outcome_count.load(Ordering::SeqCst)
    }

    /// Current counters.
    pub fn stats(&self) -> GatewayStats {
        self.shared.stats.snapshot()
    }

    /// Live client connections at `site`.
    pub fn connections(&self, site: usize) -> usize {
        self.shared.site_conns[site].load(Ordering::SeqCst)
    }

    /// Stops accepting, evicts remaining connections, drains the mesh
    /// one final time, and returns the run's oracle inputs: the
    /// submission log (per-site injection order), every outcome, and the
    /// counters.
    ///
    /// Call only after waiting for in-flight outcomes
    /// ([`Gateway::outcome_count`]); anything still unresolved in the
    /// mesh afterwards surfaces via `TcpMesh::shutdown` and can be
    /// appended by the caller.
    #[allow(clippy::type_complexity)]
    pub fn finish(
        mut self,
    ) -> (Vec<SubmittedRequest>, Vec<(VirtualTime, SiteId, UpdateOutcome)>, GatewayStats) {
        self.shared.running.store(false, Ordering::SeqCst);
        // Both kinds of thread block (in `accept`, on the output queue)
        // and look at `running` when woken: a connection to its own
        // listener wakes an accept loop, the mesh wakes the pump. An
        // accept loop that cannot be reached is left behind, not joined.
        for (addr, h) in self.addrs.iter().zip(self.accept_handles.drain(..)) {
            if TcpStream::connect(addr).is_ok() {
                let _ = h.join();
            }
        }
        self.shared.mesh.wake_outputs();
        if let Some(h) = self.pump_handle.take() {
            let _ = h.join();
        }
        let conns: Vec<Arc<Conn>> = self.shared.conns.lock().values().cloned().collect();
        for conn in conns {
            self.shared.retire(&conn, false);
        }
        let submissions = std::mem::take(&mut self.shared.submissions.lock().log);
        let outcomes = std::mem::take(&mut *self.shared.outcomes.lock());
        (submissions, outcomes, self.shared.stats.snapshot())
    }
}

/// Accepts clients at one site, enforcing the admission cap.
fn accept_loop(listener: TcpListener, site: u32, shared: Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if !shared.running.load(Ordering::SeqCst) {
            return; // woken by `Gateway::finish`
        }
        let Ok((stream, _)) = accepted else { continue };
        let _ = stream.set_nodelay(true);

        // Admission control: reserve a slot or refuse with a typed error.
        let count = &shared.site_conns[site as usize];
        if count.fetch_add(1, Ordering::SeqCst) >= shared.cfg.max_connections {
            count.fetch_sub(1, Ordering::SeqCst);
            shared.stats.refused.fetch_add(1, Ordering::Relaxed);
            refuse(stream);
            continue;
        }
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);

        let id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
        let conn = Arc::new(Conn {
            id,
            site,
            stream: stream.try_clone().expect("clone client stream"),
            in_flight: AtomicUsize::new(0),
            strikes: AtomicUsize::new(0),
            dead: AtomicBool::new(false),
        });
        shared.conns.lock().insert(id, Arc::clone(&conn));

        let (tx, rx) = bounded(shared.cfg.max_in_flight + shared.cfg.queue_slack);
        let writer_conn = Arc::clone(&conn);
        let writer_shared = Arc::clone(&shared);
        let writer_stream = stream.try_clone().expect("clone client stream");
        std::thread::spawn(move || writer_loop(writer_stream, rx, writer_conn, writer_shared));
        let reader_shared = Arc::clone(&shared);
        std::thread::spawn(move || reader_loop(stream, conn, tx, reader_shared));
    }
}

/// Answers an over-cap connection with `AdmissionRefused` and closes it.
fn refuse(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut buf = BytesMut::new();
    encode_response(
        0,
        &Response::Error {
            code: ErrorCode::AdmissionRefused,
            detail: "site connection cap".into(),
        },
        &mut buf,
    );
    let _ = std::io::Write::write_all(&mut stream, &buf);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Decodes and dispatches one connection's requests.
fn reader_loop(
    mut stream: TcpStream,
    conn: Arc<Conn>,
    tx: SyncSender<(u64, Response)>,
    shared: Arc<Shared>,
) {
    let mut dec = Decoder::new();
    let mut chunk = [0u8; 16 * 1024];
    'conn: loop {
        let n = match std::io::Read::read(&mut stream, &mut chunk) {
            Ok(0) | Err(_) => break 'conn,
            Ok(n) => n,
        };
        dec.extend(&chunk[..n]);
        loop {
            match dec.next_request() {
                Ok(None) => break,
                Ok(Some((req_id, req))) => {
                    if !handle_request(req_id, req, &conn, &tx, &shared) {
                        return; // connection shed
                    }
                }
                Err(WireError::UnknownKind { kind, req_id }) => {
                    // Framing is intact — answer and keep the connection.
                    shared.stats.malformed.fetch_add(1, Ordering::Relaxed);
                    if enqueue(
                        &tx,
                        req_id,
                        Response::Error {
                            code: ErrorCode::UnsupportedKind,
                            detail: format!("kind 0x{kind:02X}"),
                        },
                        &conn,
                        &shared,
                    )
                    .is_err()
                    {
                        return;
                    }
                }
                Err(e) => {
                    // Header-level damage: framing can no longer be
                    // trusted. Answer with the matching typed error and
                    // close.
                    shared.stats.malformed.fetch_add(1, Ordering::Relaxed);
                    let code = match e {
                        WireError::UnsupportedVersion { .. } => ErrorCode::UnsupportedVersion,
                        _ => ErrorCode::Malformed,
                    };
                    let _ = enqueue(
                        &tx,
                        0,
                        Response::Error { code, detail: e.to_string() },
                        &conn,
                        &shared,
                    );
                    // Give the writer a moment to flush the error before
                    // the socket closes under it.
                    std::thread::sleep(Duration::from_millis(20));
                    shared.retire(&conn, true);
                    return;
                }
            }
        }
    }
    // EOF (or socket error). A mid-frame disconnect is only a stream
    // anomaly — the requests decoded before it were already dispatched.
    shared.retire(&conn, false);
}

/// Queues one response, shedding the connection when its queue is jammed.
fn enqueue(
    tx: &SyncSender<(u64, Response)>,
    req_id: u64,
    resp: Response,
    conn: &Arc<Conn>,
    shared: &Arc<Shared>,
) -> Result<(), ()> {
    match tx.try_send((req_id, resp)) {
        Ok(()) => Ok(()),
        Err(TrySendError::Full(_)) => {
            // The client stopped draining responses: shed, never stall.
            shared.retire(conn, true);
            Err(())
        }
        Err(TrySendError::Disconnected(_)) => Err(()),
    }
}

/// Serves one decoded request. Returns `false` once the connection has
/// been shed and the reader should stop.
fn handle_request(
    req_id: u64,
    req: Request,
    conn: &Arc<Conn>,
    tx: &SyncSender<(u64, Response)>,
    shared: &Arc<Shared>,
) -> bool {
    match req {
        Request::Update { product, delta } => {
            // In-flight window: pipelining past it earns a typed error,
            // and persistent violation sheds the connection — the
            // deterministic slow-client rule (DESIGN.md §14).
            if conn.in_flight.load(Ordering::SeqCst) >= shared.cfg.max_in_flight {
                shared.stats.over_window.fetch_add(1, Ordering::Relaxed);
                let strikes = conn.strikes.fetch_add(1, Ordering::SeqCst) + 1;
                if strikes >= shared.cfg.shed_after {
                    let _ = enqueue(
                        tx,
                        req_id,
                        Response::Error {
                            code: ErrorCode::Shed,
                            detail: "persistent in-flight window violation".into(),
                        },
                        conn,
                        shared,
                    );
                    std::thread::sleep(Duration::from_millis(20));
                    shared.retire(conn, true);
                    return false;
                }
                return enqueue(
                    tx,
                    req_id,
                    Response::Error {
                        code: ErrorCode::OverWindow,
                        detail: format!("window {}", shared.cfg.max_in_flight),
                    },
                    conn,
                    shared,
                )
                .is_ok();
            }
            shared.stats.updates.fetch_add(1, Ordering::Relaxed);
            conn.in_flight.fetch_add(1, Ordering::SeqCst);
            let tag = shared.next_tag.fetch_add(1, Ordering::SeqCst);
            shared
                .routes
                .lock()
                .insert(tag, Route { req_id, conn: Arc::clone(conn), tx: tx.clone() });
            let req = UpdateRequest::new(SiteId(conn.site), ProductId(product), Volume(delta));
            let mut sub = shared.submissions.lock();
            let label = sub.next_label;
            sub.next_label += 1;
            sub.log.push(SubmittedRequest::single(VirtualTime(label), &req));
            shared.mesh.inject(req.site, Input::ClientUpdate { client: tag, req });
            drop(sub);
            true
        }
        Request::Read { product } => {
            shared.stats.reads.fetch_add(1, Ordering::Relaxed);
            let resp = match shared.mesh.inspect(SiteId(conn.site), &format!("/read/{product}")) {
                Some(json) => parse_read(&json).unwrap_or(Response::Error {
                    code: ErrorCode::Unavailable,
                    detail: "unparseable read snapshot".into(),
                }),
                None => Response::Error {
                    code: ErrorCode::Unavailable,
                    detail: format!("product {product} not readable here"),
                },
            };
            enqueue(tx, req_id, resp, conn, shared).is_ok()
        }
        Request::Status => {
            shared.stats.statuses.fetch_add(1, Ordering::Relaxed);
            let resp = match shared.mesh.inspect(SiteId(conn.site), "/status") {
                Some(json) => Response::StatusOk { json },
                None => Response::Error {
                    code: ErrorCode::Unavailable,
                    detail: "status unavailable".into(),
                },
            };
            enqueue(tx, req_id, resp, conn, shared).is_ok()
        }
        Request::Ping => {
            shared.stats.pings.fetch_add(1, Ordering::Relaxed);
            enqueue(tx, req_id, Response::Pong, conn, shared).is_ok()
        }
    }
}

/// Parses the accelerator's `/read/<p>` snapshot into a wire response.
fn parse_read(json: &str) -> Option<Response> {
    #[derive(serde::Deserialize)]
    struct ReadSnap {
        product: u32,
        stock: i64,
        av_defined: bool,
        av_available: i64,
    }
    let s: ReadSnap = serde_json::from_str(json).ok()?;
    Some(Response::ReadOk {
        product: s.product,
        stock: s.stock,
        av_defined: s.av_defined,
        av_available: s.av_available,
    })
}

/// The wait's timeout is a formality: emitting sites and
/// [`Gateway::finish`] both signal the queue the pump blocks on.
const PUMP_IDLE: Duration = Duration::from_secs(60);

/// Takes mesh outcomes as sites emit them and routes the gateway-tagged
/// ones back to their connections, a drained batch at a time. Never
/// blocks on a client: routing uses `try_send`, and a full queue sheds
/// the offender. Returns once the gateway is stopping and the mesh has
/// nothing left to take.
fn pump_loop(shared: Arc<Shared>) {
    loop {
        let batch = shared.mesh.wait_outputs(PUMP_IDLE);
        if batch.is_empty() && !shared.running.load(Ordering::SeqCst) {
            return;
        }
        let routed: Vec<Option<Route>> = {
            let mut routes = shared.routes.lock();
            batch
                .iter()
                .map(|(_, _, outcome)| outcome.client().and_then(|tag| routes.remove(&tag)))
                .collect()
        };
        // Outside the table's lock: shedding a connection sweeps it.
        for (route, (_, _, outcome)) in routed.into_iter().zip(&batch) {
            let Some(route) = route else { continue };
            route.conn.in_flight.fetch_sub(1, Ordering::SeqCst);
            if !route.conn.dead.load(Ordering::SeqCst) {
                match route.tx.try_send((route.req_id, outcome_response(outcome))) {
                    Ok(()) | Err(TrySendError::Disconnected(_)) => {}
                    Err(TrySendError::Full(_)) => shared.retire(&route.conn, true),
                }
            }
        }
        let n = batch.len() as u64;
        shared.outcomes.lock().extend(batch);
        shared.outcome_count.fetch_add(n, Ordering::SeqCst);
    }
}

/// Maps a core outcome onto the wire.
fn outcome_response(outcome: &UpdateOutcome) -> Response {
    match outcome {
        UpdateOutcome::Committed { txn, kind, completed_at, correspondences, .. } => {
            Response::Committed {
                txn: txn.0,
                kind: match kind {
                    avdb_types::UpdateKind::Delay => CommitKind::Delay,
                    avdb_types::UpdateKind::Immediate => CommitKind::Immediate,
                },
                completed_at: completed_at.ticks(),
                correspondences: *correspondences,
            }
        }
        UpdateOutcome::Aborted { txn, reason, correspondences, .. } => Response::Aborted {
            txn: txn.0,
            code: abort_code(reason),
            correspondences: *correspondences,
            detail: reason.to_string(),
        },
    }
}

fn abort_code(reason: &avdb_types::AbortReason) -> AbortCode {
    use avdb_types::AbortReason as R;
    match reason {
        R::InsufficientAv { .. } => AbortCode::InsufficientAv,
        R::PrepareFailed { .. } => AbortCode::PrepareFailed,
        R::SiteUnavailable { .. } => AbortCode::SiteUnavailable,
        R::NegativeStock => AbortCode::NegativeStock,
        R::UnknownProduct => AbortCode::UnknownProduct,
        R::NotDelayEligible => AbortCode::NotDelayEligible,
        R::RolledBack => AbortCode::RolledBack,
    }
}

/// Coalescing stops adding frames to a write once it is this large.
const MAX_COALESCED_WRITE: usize = 64 * 1024;

/// Writes queued responses to one client socket, everything already
/// queued in one `write` (in queue order, so per-connection response
/// order is the order they were queued in). Exits when every queue
/// sender is gone (reader exited and routes swept) or the socket dies.
fn writer_loop(
    mut stream: TcpStream,
    rx: Receiver<(u64, Response)>,
    conn: Arc<Conn>,
    shared: Arc<Shared>,
) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut buf = BytesMut::new();
    while let Ok(first) = rx.recv() {
        buf.clear();
        let mut frames = 0;
        for (req_id, resp) in std::iter::once(first).chain(rx.try_iter()) {
            encode_response(req_id, &resp, &mut buf);
            frames += 1;
            if buf.len() >= MAX_COALESCED_WRITE {
                break;
            }
        }
        if std::io::Write::write_all(&mut stream, &buf).is_err() {
            // Unwritable socket (stalled or gone): shed, never stall.
            shared.retire(&conn, true);
            return;
        }
        shared.stats.responses.fetch_add(frames, Ordering::Relaxed);
    }
}
