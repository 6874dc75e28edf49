#![warn(missing_docs)]

//! The client-facing front door: one wire-protocol listener per site,
//! layered on a running [`TcpMesh`] of accelerators and served by each
//! site's own thread.
//!
//! Responsibilities (DESIGN.md §14):
//!
//! - **No thread of its own** — each site's share of the gateway (its
//!   listener, its connections, their sessions) is a [`Front`] its site
//!   loop polls beside its mesh links. A client request is decoded, ruled
//!   on and run through the accelerator on the thread that read it, and
//!   the outcome of a covered Delay update is encoded into the
//!   connection's buffer before that handler returns: one read and one
//!   write around the accelerator's own work.
//! - **Admission control** — at most [`GatewayConfig::max_connections`]
//!   client connections per site; the next one is answered with a typed
//!   `AdmissionRefused` error frame and closed.
//! - **Pipelining** — requests carry client-chosen ids; updates enter
//!   the site's accelerator as `Input::ClientUpdate` with a correlation
//!   tag naming the connection, and the accelerator stamps the tag back
//!   into the [`UpdateOutcome`], so responses are routed to the right
//!   connection and request id in *completion* order — no head-of-line
//!   blocking between a slow Immediate update and a fast Delay one.
//! - **Backpressure** — each connection has an in-flight window
//!   ([`GatewayConfig::max_in_flight`]). Pipelining past it earns a
//!   typed `OverWindow` error, and [`GatewayConfig::shed_after`] such
//!   violations shed the connection. No write ever blocks: a connection
//!   gets one `write` per loop turn, bytes its socket refuses wait for
//!   `POLLOUT`, and a client whose socket has refused bytes for longer
//!   than a short timeout, or while its backlog grew past
//!   [`GatewayConfig::queue_slack`] frames, is shed.
//! - **Observability for the oracle** — every update is logged as a
//!   [`SubmittedRequest`] by the site that ran it, labelled from one
//!   counter in the order it entered the accelerator, and every outcome
//!   is kept, so a gateway-driven run can be replayed against the
//!   conformance oracle exactly like a harness-driven one.
//!
//! Reads and status requests are answered from the site's accelerator
//! between two handler invocations, so a read is consistent with the
//! site's commit order at that instant. A Read returns the product's row
//! (stock, AV defined, AV available) with no text in between; a Status
//! returns the accelerator's `/status` JSON. Neither needs the mesh's
//! HTTP listeners.

mod session;

use avdb_core::{Accelerator, Input};
use avdb_oracle::SubmittedRequest;
use avdb_simnet::live::Outputs;
use avdb_simnet::poll::{PollFd, POLLIN};
use avdb_simnet::tcp::{would_block, WriteSide};
use avdb_simnet::{Front, Introspect, Site, TcpMesh};
use avdb_types::{ProductId, SiteId, UpdateOutcome, UpdateRequest, VirtualTime, Volume};
use avdb_wire::{encode_response, Decoder, ErrorCode, Response};
use bytes::BytesMut;
use session::{conn_of, read_response, Next, Session};
use std::any::Any;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The longest a client socket may refuse bytes before its connection
/// is shed.
const WRITE_TIMEOUT: Duration = Duration::from_millis(10);

/// Bytes one connection's socket gives per loop turn.
const READ_CHUNK: usize = 16 * 1024;

/// Connections one listener admits per loop turn.
const ACCEPT_TURN: usize = 16;

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
    /// writes them at once instead of at the end of the loop turn, and a
    /// connection whose socket refuses bytes is shed past it.
    pub queue_slack: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig { max_connections: 1024, max_in_flight: 64, shed_after: 64, queue_slack: 64 }
    }
}

/// Declares the counters once, as `Stats` (the atomics the site threads
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

/// One admitted connection, owned by its site's thread.
struct Conn {
    stream: TcpStream,
    dec: Decoder,
    session: Session,
    side: WriteSide,
}

impl Conn {
    /// Writes the session's unwritten frames with one `write`, unless its
    /// socket refused bytes and has not reported `POLLOUT` since. `false`
    /// when the connection must be shed: the write failed, or the socket
    /// has refused bytes for `WRITE_TIMEOUT`, or while more than `slack`
    /// frames piled up.
    fn flush(&mut self, stats: &Stats, slack: usize) -> bool {
        let Ok(n) = self.side.write(&self.stream, self.session.unwritten().0) else {
            return false;
        };
        if let Some(frames) = self.session.wrote(n).filter(|&frames| frames > 0) {
            stats.responses.fetch_add(frames, Ordering::Relaxed);
        }
        let Some(since) = self.side.refused_since() else { return true };
        since.elapsed() < WRITE_TIMEOUT && self.session.unwritten().1 <= slack as u64
    }
}

/// What all of a gateway's desks share: the knobs, the counters and the
/// ids.
struct Shared {
    cfg: GatewayConfig,
    stats: Stats,
    next_conn: AtomicU64,
    /// The next submission label: one counter for every site, taken as
    /// an update enters its accelerator, so each site's labels follow its
    /// input order.
    labels: AtomicU64,
    outcome_count: AtomicU64,
    /// Live client connections per site.
    connections: Vec<AtomicUsize>,
}

/// One site's share of the gateway, served by the site's own loop.
struct Desk {
    site: SiteId,
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
    /// The connection of each entry after the listener's that the last
    /// `interest` appended.
    polled: Vec<u64>,
    /// Every update this site ran for a client, and every outcome it
    /// emitted, gateway-tagged or not.
    submissions: Vec<SubmittedRequest>,
    outcomes: Vec<(VirtualTime, SiteId, UpdateOutcome)>,
    shared: Arc<Shared>,
    chunk: Box<[u8]>,
}

impl Desk {
    /// Admits what the listener holds, up to `ACCEPT_TURN`, refusing
    /// connections over the cap.
    fn accept(&mut self) {
        let cfg = &self.shared.cfg;
        for _ in 0..ACCEPT_TURN {
            let Ok((stream, _)) = self.listener.accept() else { return };
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            if self.conns.len() >= cfg.max_connections {
                self.shared.stats.refused.fetch_add(1, Ordering::Relaxed);
                refuse(stream);
                continue;
            }
            let id = self.shared.next_conn.fetch_add(1, Ordering::Relaxed);
            let (dec, session, side) = (Decoder::new(), Session::new(id, cfg), WriteSide::default());
            self.conns.insert(id, Conn { stream, dec, session, side });
            self.shared.connections[self.site.index()].fetch_add(1, Ordering::SeqCst);
            self.shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Reads once from connection `id` and serves every whole request
    /// read so far. End of file or a socket error closes it; a mid-frame
    /// disconnect is only a stream anomaly, since the requests decoded
    /// before it were served.
    fn read(&mut self, id: u64, site: &mut Site<Accelerator>) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        match (&conn.stream).read(&mut self.chunk) {
            Ok(0) => return self.retire(id, false),
            Ok(n) => conn.dec.extend(&self.chunk[..n]),
            Err(e) if would_block(&e) => return,
            Err(_) => return self.retire(id, false),
        }
        while let Some(conn) = self.conns.get_mut(&id) {
            let stats = &self.shared.stats;
            let next = match conn.dec.next_request() {
                Ok(None) => return,
                Ok(Some((req_id, req))) => conn.session.request(req_id, req, stats),
                Err(e) => conn.session.refused(e, stats),
            };
            match next {
                Next::Continue => {}
                Next::Close => {
                    conn.flush(stats, usize::MAX);
                    return self.retire(id, true);
                }
                Next::Inject { tag, product, delta } => {
                    let req = UpdateRequest::new(site.me(), ProductId(product), Volume(delta));
                    let label = VirtualTime(self.shared.labels.fetch_add(1, Ordering::Relaxed));
                    self.submissions.push(SubmittedRequest::single(label, &req));
                    let outputs = site.input(Input::ClientUpdate { client: tag, req });
                    self.take(outputs);
                }
                Next::Read { req_id, product } => {
                    conn.session.reply(req_id, &read_response(site.actor(), product));
                }
                Next::Status { req_id } => {
                    let json = site.actor().status_json();
                    conn.session.reply(req_id, &Response::StatusOk { json });
                }
            }
            self.encoded(id);
        }
    }

    /// Writes connection `id`'s frames at once when they are due; the
    /// rest wait for the turn's [`Front::flush`].
    fn encoded(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if conn.session.due() && !conn.flush(&self.shared.stats, self.shared.cfg.queue_slack) {
            self.retire(id, true);
        }
    }

    /// Closes a connection and forgets it; `shed` tells forced eviction
    /// from a clean close in the stats.
    fn retire(&mut self, id: u64, shed: bool) {
        let Some(conn) = self.conns.remove(&id) else { return };
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.shared.connections[self.site.index()].fetch_sub(1, Ordering::SeqCst);
        let stats = &self.shared.stats;
        let counter = if shed { &stats.shed } else { &stats.closed };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl Front<Accelerator> for Desk {
    fn interest(&mut self, fds: &mut Vec<PollFd>) {
        fds.push(PollFd::new(&self.listener, POLLIN));
        self.polled.clear();
        for (&id, conn) in &self.conns {
            fds.push(PollFd::new(&conn.stream, conn.side.events()));
            self.polled.push(id);
        }
    }

    fn serve(&mut self, ready: &[PollFd], site: &mut Site<Accelerator>) {
        let Some((listener, conns)) = ready.split_first() else { return };
        for (i, entry) in conns.iter().enumerate() {
            let id = self.polled[i];
            let Some(conn) = self.conns.get_mut(&id) else { continue };
            conn.side.polled(entry);
            if entry.readable() {
                self.read(id, site);
            }
        }
        if listener.readable() {
            self.accept();
        }
    }

    /// A connection's updates complete only at its own site, so each desk
    /// routes its own site's outcomes.
    fn take(&mut self, outputs: Outputs<UpdateOutcome>) {
        self.shared.outcome_count.fetch_add(outputs.len() as u64, Ordering::SeqCst);
        for (_, _, outcome) in &outputs {
            let Some(id) = outcome.client().map(conn_of) else { continue };
            if self.conns.get_mut(&id).is_some_and(|conn| conn.session.complete(outcome)) {
                self.encoded(id);
            }
        }
        self.outcomes.extend(outputs);
    }

    /// Writes every connection's unwritten frames; the deadline is when
    /// the first socket that refuses bytes will have refused them too long.
    fn flush(&mut self) -> Option<Instant> {
        let (mut shed, mut deadline) = (Vec::new(), None::<Instant>);
        for (&id, conn) in &mut self.conns {
            if !conn.flush(&self.shared.stats, self.shared.cfg.queue_slack) {
                shed.push(id);
            } else if let Some(since) = conn.side.refused_since() {
                let due = since + WRITE_TIMEOUT;
                deadline = Some(deadline.map_or(due, |d| d.min(due)));
            }
        }
        shed.into_iter().for_each(|id| self.retire(id, true));
        deadline
    }
}

/// A running gateway: one wire listener per site over a live mesh, each
/// served by its site's thread.
pub struct Gateway {
    mesh: Arc<TcpMesh<Accelerator>>,
    shared: Arc<Shared>,
    addrs: Vec<SocketAddr>,
}

impl Gateway {
    /// Binds one loopback wire listener per site and has each site serve
    /// its own. Panics when a site has stopped.
    pub fn spawn(mesh: Arc<TcpMesh<Accelerator>>, n_sites: usize, cfg: GatewayConfig) -> Gateway {
        assert!(cfg.max_connections > 0, "max_connections must be positive");
        assert!(cfg.max_in_flight > 0, "max_in_flight must be positive");
        assert!(cfg.shed_after > 0, "shed_after must be positive");
        let shared = Arc::new(Shared {
            cfg,
            stats: Stats::default(),
            next_conn: AtomicU64::new(1),
            labels: AtomicU64::new(0),
            outcome_count: AtomicU64::new(0),
            connections: (0..n_sites).map(|_| AtomicUsize::new(0)).collect(),
        });
        let mut addrs = Vec::with_capacity(n_sites);
        for site in SiteId::all(n_sites) {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind wire listener");
            listener.set_nonblocking(true).expect("non-blocking wire listener");
            addrs.push(listener.local_addr().expect("wire local addr"));
            let desk = Desk {
                site,
                listener,
                conns: HashMap::new(),
                polled: Vec::new(),
                submissions: Vec::new(),
                outcomes: Vec::new(),
                shared: Arc::clone(&shared),
                chunk: vec![0; READ_CHUNK].into_boxed_slice(),
            };
            assert!(mesh.attach(site, Box::new(desk)), "site {site} has stopped");
        }
        Gateway { mesh, shared, addrs }
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
        self.shared.connections[site].load(Ordering::SeqCst)
    }

    /// Takes every site's desk back, so the mesh's outputs return to its
    /// queue, closes the listeners and the remaining connections, and
    /// returns the run's oracle inputs: the submission log (labelled in
    /// per-site input order), every outcome, and the counters. The
    /// gateway holds the mesh no longer. A site that stopped since
    /// ([`TcpMesh::kill`]) hands back the desk it served then, logs and
    /// all; a site that does not answer within five seconds panics the
    /// call rather than return logs without its updates.
    ///
    /// Call only after waiting for in-flight outcomes
    /// ([`Gateway::outcome_count`]); anything still unresolved in the
    /// mesh afterwards surfaces via `TcpMesh::shutdown` and can be
    /// appended by the caller.
    #[allow(clippy::type_complexity)]
    pub fn finish(
        self,
    ) -> (Vec<SubmittedRequest>, Vec<(VirtualTime, SiteId, UpdateOutcome)>, GatewayStats) {
        let (mut submissions, mut outcomes) = (Vec::new(), Vec::new());
        for site in SiteId::all(self.addrs.len()) {
            // A desk that cannot be taken back would leave its site's
            // updates out of the oracle's inputs.
            let Some(front) = self.mesh.detach(site) else {
                panic!("site {site} did not hand its gateway desk back");
            };
            let front: Box<dyn Any> = front;
            let mut desk = front.downcast::<Desk>().expect("a site serves its gateway desk");
            for id in desk.conns.keys().copied().collect::<Vec<_>>() {
                desk.retire(id, false);
            }
            submissions.append(&mut desk.submissions);
            outcomes.append(&mut desk.outcomes);
        }
        submissions.sort_by_key(|s| s.at);
        (submissions, outcomes, self.shared.stats.snapshot())
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
