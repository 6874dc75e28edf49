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
//!   a correlation tag naming the connection, and the accelerator stamps the
//!   tag back into the [`UpdateOutcome`], so responses are routed to the
//!   right connection and request id in *completion* order — no
//!   head-of-line blocking between a slow Immediate update and a fast
//!   Delay one.
//! - **Backpressure** — each connection has an in-flight window
//!   ([`GatewayConfig::max_in_flight`]). Pipelining past it earns a
//!   typed `OverWindow` error, and [`GatewayConfig::shed_after`] such
//!   violations shed the connection. A client that stopped reading is
//!   shed once its socket fills: every client socket has a short write
//!   timeout, and a write that times out, fails or falls short sheds the
//!   connection, so no thread ever waits long on a client.
//! - **No thread hop on the way back** — the gateway is the mesh's
//!   output sink ([`TcpMesh::set_sink`]): the site thread that produces
//!   an outcome routes it and encodes its response into the
//!   connection's buffer, and when its mailbox runs dry it hands each
//!   connection it answered one `write`. A connection's reader writes its
//!   own replies (pongs, reads, status, errors) under the same lock, so
//!   frames never interleave. A covered Delay update therefore costs the
//!   client a ping plus the accelerator's own work.
//! - **Observability for the oracle** — every injected update is logged
//!   as a [`SubmittedRequest`] in injection order, and every drained
//!   outcome is kept, so a gateway-driven run can be replayed against
//!   the conformance oracle exactly like a harness-driven one.
//!
//! Reads and status queries are served through the mesh's introspection
//! plane ([`TcpMesh::inspect`]) — answered between protocol events by
//! the site's own event loop, so a read is consistent with the site's
//! commit order at that instant.

mod session;

use avdb_core::{Accelerator, Input};
use avdb_oracle::SubmittedRequest;
use avdb_simnet::live::Outputs;
use avdb_simnet::{OutputSink, TcpMesh};
use avdb_types::{ProductId, SiteId, UpdateOutcome, UpdateRequest, VirtualTime, Volume};
use avdb_wire::{encode_response, Decoder, ErrorCode};
use bytes::BytesMut;
use parking_lot::Mutex;
use session::{conn_of, read_response, status_response, Next, Session};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The longest any write to a client socket may block: a site thread
/// writes outcomes itself, so a client that stopped reading may cost it
/// no more than this, once, before the connection is shed.
const WRITE_TIMEOUT: Duration = Duration::from_millis(10);

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
    /// Frames a connection may hold encoded but unwritten: reaching it
    /// writes them at once instead of when the site next goes idle.
    pub queue_slack: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig { max_connections: 1024, max_in_flight: 64, shed_after: 64, queue_slack: 64 }
    }
}

/// Declares the counters once, as `Stats` (the atomics the threads
/// bump) and `GatewayStats` (the copy [`Gateway::stats`] returns).
macro_rules! counters {
    ($($(#[$doc:meta])+ $name:ident,)+) => {
        /// Lifetime counters, all monotone.
        #[derive(Default)]
        struct Stats {
            $($name: AtomicU64,)+
        }

        /// Point-in-time copy of the gateway counters.
        #[derive(Clone, Debug, Default)]
        pub struct GatewayStats {
            $($(#[$doc])+ pub $name: u64,)+
        }

        impl Stats {
            fn snapshot(&self) -> GatewayStats {
                GatewayStats { $($name: self.$name.load(Ordering::Relaxed),)+ }
            }
        }
    };
}

counters! {
    /// Connections admitted.
    accepted,
    /// Connections refused at the admission cap.
    refused,
    /// Connections shed (window violations, a garbage header, or a
    /// socket that would not take a write).
    shed,
    /// Connections closed cleanly by the client.
    closed,
    /// Updates injected into the mesh.
    updates,
    /// Read requests served.
    reads,
    /// Status requests served.
    statuses,
    /// Pings answered.
    pings,
    /// Typed `OverWindow` errors returned.
    over_window,
    /// Malformed / unsupported frames answered with a typed error.
    malformed,
    /// Response frames written to clients.
    responses,
}

/// One admitted connection.
struct Conn {
    id: u64,
    site: u32,
    stream: TcpStream,
    /// Held across every write, so frames never interleave.
    session: Mutex<Session>,
    dead: AtomicBool,
}

impl Conn {
    /// Writes every unwritten frame with one `write`, under the session
    /// lock the caller holds. `false` when the write timed out, failed or
    /// fell short: the connection must be shed.
    fn flush(&self, session: &mut Session, stats: &Stats) -> bool {
        let (out, frames) = session.unwritten();
        let mut written = true;
        if !out.is_empty() && !self.dead.load(Ordering::SeqCst) {
            written = (&self.stream).write(out).is_ok_and(|n| n == out.len());
            if written {
                stats.responses.fetch_add(frames, Ordering::Relaxed);
            }
        }
        session.clear();
        written
    }
}

/// One site's share of the gateway; its site thread locks it once per
/// handler that emitted outcomes.
#[derive(Default)]
struct Desk {
    conns: HashMap<u64, Arc<Conn>>,
    /// Connections holding frames the site thread encoded, written when
    /// it goes idle.
    dirty: Vec<Arc<Conn>>,
    /// Every outcome the site emitted, gateway-tagged or not.
    outcomes: Vec<(VirtualTime, SiteId, UpdateOutcome)>,
}

struct Shared {
    mesh: Arc<TcpMesh<Accelerator>>,
    cfg: GatewayConfig,
    running: AtomicBool,
    next_conn: AtomicU64,
    desks: Vec<Mutex<Desk>>,
    /// The oracle replays per-site submission order, so a label is
    /// assigned and its update injected under this one lock: the log
    /// order always matches the site mailbox order.
    submissions: Mutex<Vec<SubmittedRequest>>,
    outcome_count: AtomicU64,
    stats: Stats,
    /// Every connection's reader thread, joined by [`Gateway::finish`]
    /// so that none outlives it holding the mesh.
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// Closes a connection and forgets it. Idempotent; `was_shed`
    /// distinguishes forced eviction from a clean client close in the
    /// stats. The caller holds neither its desk nor its session.
    fn retire(&self, conn: &Conn, was_shed: bool) {
        if conn.dead.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.desks[conn.site as usize].lock().conns.remove(&conn.id);
        if was_shed {
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.closed.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn inject(&self, site: u32, tag: u64, product: u32, delta: i64) {
        let req = UpdateRequest::new(SiteId(site), ProductId(product), Volume(delta));
        let mut log = self.submissions.lock();
        let label = VirtualTime(log.len() as u64);
        log.push(SubmittedRequest::single(label, &req));
        self.mesh.inject(req.site, Input::ClientUpdate { client: tag, req });
    }
}

/// Runs on the site threads. A connection's updates complete only at
/// its own site, so each site routes through its own desk.
impl OutputSink<UpdateOutcome> for Shared {
    fn take(&self, site: SiteId, outputs: Outputs<UpdateOutcome>) {
        let mut shed = Vec::new();
        let mut guard = self.desks[site.index()].lock();
        let desk = &mut *guard;
        for (_, _, outcome) in &outputs {
            let Some(conn) = outcome.client().and_then(|tag| desk.conns.get(&conn_of(tag)))
            else {
                continue;
            };
            let mut session = conn.session.lock();
            if !session.complete(outcome) {
                continue;
            }
            // Whoever encodes into an empty buffer owes it a write: the
            // reader at the end of its read, the site thread when idle.
            if session.due() {
                if !conn.flush(&mut session, &self.stats) {
                    shed.push(Arc::clone(conn));
                }
            } else if session.unwritten().1 == 1 {
                desk.dirty.push(Arc::clone(conn));
            }
        }
        self.outcome_count.fetch_add(outputs.len() as u64, Ordering::SeqCst);
        desk.outcomes.extend(outputs);
        drop(guard);
        for conn in shed {
            self.retire(&conn, true);
        }
    }

    fn idle(&self, site: SiteId) {
        let dirty = std::mem::take(&mut self.desks[site.index()].lock().dirty);
        for conn in dirty {
            let written = conn.flush(&mut conn.session.lock(), &self.stats);
            if !written {
                self.retire(&conn, true);
            }
        }
    }
}

/// A running gateway: one wire listener per site over a live mesh.
pub struct Gateway {
    shared: Arc<Shared>,
    addrs: Vec<SocketAddr>,
    accept_handles: Vec<JoinHandle<()>>,
}

impl Gateway {
    /// Binds one loopback wire listener per site, starts the accept
    /// loops and installs the gateway as the mesh's output sink. The mesh
    /// must have been spawned with an inspect surface
    /// ([`TcpMesh::spawn_with_http`]) for Read/Status requests to be
    /// answerable.
    pub fn spawn(mesh: Arc<TcpMesh<Accelerator>>, n_sites: usize, cfg: GatewayConfig) -> Gateway {
        assert!(cfg.max_connections > 0, "max_connections must be positive");
        assert!(cfg.max_in_flight > 0, "max_in_flight must be positive");
        assert!(cfg.shed_after > 0, "shed_after must be positive");
        let shared = Arc::new(Shared {
            mesh,
            cfg,
            running: AtomicBool::new(true),
            next_conn: AtomicU64::new(1),
            desks: (0..n_sites).map(|_| Mutex::new(Desk::default())).collect(),
            submissions: Mutex::new(Vec::new()),
            outcome_count: AtomicU64::new(0),
            stats: Stats::default(),
            conn_threads: Mutex::new(Vec::new()),
        });
        shared.mesh.set_sink(Some(Arc::clone(&shared) as Arc<dyn OutputSink<UpdateOutcome>>));

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
        Gateway { shared, addrs, accept_handles }
    }

    /// Per-site wire-protocol addresses, indexed by site.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Outcomes the sites have emitted since the gateway started (all of
    /// them — gateway-tagged and harness-injected alike).
    pub fn outcome_count(&self) -> u64 {
        self.shared.outcome_count.load(Ordering::SeqCst)
    }

    /// Current counters.
    pub fn stats(&self) -> GatewayStats {
        self.shared.stats.snapshot()
    }

    /// Live client connections at `site`.
    pub fn connections(&self, site: usize) -> usize {
        self.shared.desks[site].lock().conns.len()
    }

    /// Stops accepting, hands the mesh's outputs back to its queue,
    /// evicts remaining connections, and returns the run's oracle inputs:
    /// the submission log (per-site injection order), every outcome, and
    /// the counters. Every connection thread has exited by then, so the
    /// gateway holds the mesh no longer.
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
        // An accept loop blocks in `accept` and looks at `running` when a
        // connection to its own listener wakes it. One that cannot be
        // reached is left behind, not joined.
        for (addr, h) in self.addrs.iter().zip(self.accept_handles.drain(..)) {
            if TcpStream::connect(addr).is_ok() {
                let _ = h.join();
            }
        }
        // Waits for a `take` or `idle` in progress: no site routes after it.
        self.shared.mesh.set_sink(None);
        let desks = &self.shared.desks;
        for desk in desks {
            let conns: Vec<Arc<Conn>> = desk.lock().conns.values().cloned().collect();
            for conn in conns {
                self.shared.retire(&conn, false);
            }
        }
        // A retired connection's socket is shut down, so its reader is
        // on its way out.
        let threads = std::mem::take(&mut *self.shared.conn_threads.lock());
        for h in threads {
            let _ = h.join();
        }
        let submissions = std::mem::take(&mut *self.shared.submissions.lock());
        let outcomes = desks.iter().flat_map(|d| std::mem::take(&mut d.lock().outcomes)).collect();
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
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        let id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
        let conn = Arc::new(Conn {
            id,
            site,
            stream: stream.try_clone().expect("clone client stream"),
            session: Mutex::new(Session::new(id, &shared.cfg)),
            dead: AtomicBool::new(false),
        });
        {
            let mut desk = shared.desks[site as usize].lock();
            if desk.conns.len() >= shared.cfg.max_connections {
                drop(desk);
                shared.stats.refused.fetch_add(1, Ordering::Relaxed);
                refuse(stream);
                continue;
            }
            desk.conns.insert(id, Arc::clone(&conn));
        }
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);

        let reader_shared = Arc::clone(&shared);
        let reader = std::thread::spawn(move || reader_loop(stream, conn, reader_shared));
        let mut threads = shared.conn_threads.lock();
        threads.retain(|h| !h.is_finished());
        threads.push(reader);
    }
}

/// Answers an over-cap connection with `AdmissionRefused` and closes it.
fn refuse(mut stream: TcpStream) {
    let mut buf = BytesMut::new();
    let refusal = session::error(ErrorCode::AdmissionRefused, "site connection cap");
    encode_response(0, &refusal, &mut buf);
    let _ = stream.write_all(&buf);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Decodes and serves one connection's requests until EOF, a socket
/// error, or the connection is shed. A mid-frame disconnect is only a
/// stream anomaly: the requests decoded before it were already served.
fn reader_loop(mut stream: TcpStream, conn: Arc<Conn>, shared: Arc<Shared>) {
    let mut dec = Decoder::new();
    let mut chunk = [0u8; 16 * 1024];
    let shed = loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break false,
            Ok(n) => n,
        };
        dec.extend(&chunk[..n]);
        if !serve(&mut dec, &conn, &shared) {
            break true;
        }
    };
    shared.retire(&conn, shed);
}

/// Serves every whole frame decoded so far, then writes the replies in
/// one `write`. `false` once the connection must be shed.
fn serve(dec: &mut Decoder, conn: &Conn, shared: &Shared) -> bool {
    let site = SiteId(conn.site);
    loop {
        let next = match dec.next_request() {
            Ok(None) => break,
            Ok(Some((req_id, req))) => conn.session.lock().request(req_id, req, &shared.stats),
            Err(e) => conn.session.lock().refused(e, &shared.stats),
        };
        // The site thread answers an inspection only between handlers,
        // and a handler may be waiting for this session: ask unlocked.
        let answer = match next {
            Next::Continue => None,
            Next::Close => {
                let _ = conn.flush(&mut conn.session.lock(), &shared.stats);
                return false;
            }
            Next::Inject { tag, product, delta } => {
                shared.inject(conn.site, tag, product, delta);
                None
            }
            Next::Read { req_id, product } => {
                let snapshot = shared.mesh.inspect(site, &format!("/read/{product}"));
                Some((req_id, read_response(product, snapshot)))
            }
            Next::Status { req_id } => {
                Some((req_id, status_response(shared.mesh.inspect(site, "/status"))))
            }
        };
        let mut session = conn.session.lock();
        if let Some((req_id, resp)) = answer {
            session.reply(req_id, &resp);
        }
        if session.due() && !conn.flush(&mut session, &shared.stats) {
            return false;
        }
    }
    conn.flush(&mut conn.session.lock(), &shared.stats)
}
