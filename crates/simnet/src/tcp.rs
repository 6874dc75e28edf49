//! TCP mesh transport: the same [`Actor`] code over real sockets.
//!
//! At spawn each site binds a loopback listener, and the mesh is fully
//! connected with one TCP connection per site pair, the dialer naming
//! itself in a 4-byte handshake. The listeners close once every link is
//! up, so nothing outside the mesh can reach a site's protocol port.
//! Every protocol message travels as one `avdb-wire` binary frame
//! ([`crate::transport::encode_frame`]). This is the deployment shape the
//! paper's system would actually run in: one process per company site,
//! talking over the network. It is the only live transport; determinism
//! is the simulator's job.
//!
//! A site's links belong to its own thread (`Links`), which polls them
//! beside its mailbox (`live.rs`): there is no reader thread. A send
//! never blocks and never drops for a full socket: the frame joins the
//! link's queue, and the turn's end writes each queue with one `write`
//! on a non-blocking stream with `TCP_NODELAY` set (a protocol round is a
//! small frame the peer is waiting for, so it must not sit out Nagle's
//! and the delayed-ACK timers). What a socket refuses waits for
//! `POLLOUT`. A frame counts as dropped only when its link is gone: the
//! peer closed it, or its stream failed to decode, which shuts that link
//! down and touches nothing else. A stopping site shuts its links, so its
//! peers read end of file and drop what they send it afterwards.
//!
//! [`TcpMesh::spawn_with_http`] adds one HTTP listener thread per site
//! for `/metrics` and `/status`, answered through [`Live::query`];
//! [`Live::shutdown`] stops and joins them.

use crate::actor::Actor;
use crate::inspect::{answer, content_type, Introspect};
use crate::live::{mailbox, query, run_site, Left, Live, Mailbox, Shared, Site, SiteEvent};
use crate::poll::{PollFd, POLLIN, POLLOUT};
use crate::rng::DetRng;
use crate::transport::{decode_prefix, encode_frame, MeshCodec};
use avdb_types::SiteId;
use bytes::{Buf, BytesMut};
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Handle to a mesh of sites running over real TCP connections.
pub type TcpMesh<A> = Live<A>;

impl<A> Live<A>
where
    A: Actor + Send + 'static,
    A::Msg: MeshCodec + Send + 'static,
    A::Input: Send + 'static,
    A::Output: Send + 'static,
{
    /// Connects a full mesh of loopback sockets and spawns the site
    /// loops. Panics on socket errors (this is a test / demo harness, not
    /// a daemon).
    pub fn spawn(actors: Vec<A>, seed: u64) -> Self {
        let n = actors.len();
        // Bind listeners first so every address is known before anyone
        // connects. They are dropped, and so closed, once setup ends.
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
            .collect();
        let addrs: Vec<SocketAddr> =
            listeners.iter().map(|l| l.local_addr().expect("local addr")).collect();

        // Establish the mesh: site i dials every j > i; site j accepts
        // from every i < j. The dialing side sends its id first so the
        // acceptor knows who is calling.
        let mut streams: Vec<Vec<Option<TcpStream>>> = (0..n)
            .map(|_| (0..n).map(|_| None).collect())
            .collect();
        std::thread::scope(|scope| {
            let mut accept_handles = Vec::new();
            for (j, listener) in listeners.iter().enumerate() {
                accept_handles.push(scope.spawn(move || {
                    let mut got: Vec<(usize, TcpStream)> = Vec::new();
                    for _ in 0..j {
                        let (mut s, _) = listener.accept().expect("accept");
                        let mut id = [0u8; 4];
                        s.read_exact(&mut id).expect("peer id");
                        got.push((u32::from_be_bytes(id) as usize, s));
                    }
                    got
                }));
            }
            for (i, row) in streams.iter_mut().enumerate() {
                for (j, addr) in addrs.iter().enumerate().skip(i + 1) {
                    let mut s = TcpStream::connect(addr).expect("connect");
                    s.write_all(&(i as u32).to_be_bytes()).expect("send id");
                    row[j] = Some(s);
                }
            }
            for (j, h) in accept_handles.into_iter().enumerate() {
                for (i, s) in h.join().expect("accept thread") {
                    streams[j][i] = Some(s);
                }
            }
        });
        drop(listeners);

        let shared = Shared::new(n);
        let root = DetRng::new(seed);
        let (mut mailboxes, mut handles) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let left: Vec<Left<A>> = (0..n).map(|_| Left::default()).collect();
        for (i, (actor, streams)) in actors.into_iter().zip(streams).enumerate() {
            let (me, rng) = (SiteId(i as u32), root.derive(0x7C90_0000 + i as u64));
            let site = Site::new(me, actor, rng, Arc::clone(&shared), Links::new(streams));
            let (mailbox, inbox) = mailbox();
            mailboxes.push(mailbox);
            let (thread, left) = (std::thread::Builder::new(), Arc::clone(&left[i]));
            let run = move || run_site(site, inbox, left);
            handles.push(thread.name(format!("site-{i}")).spawn(run).expect("spawn site thread"));
        }
        Live { mailboxes, handles, left, shared, http: Vec::new() }
    }

    /// As [`TcpMesh::spawn`], but additionally binds one loopback HTTP
    /// listener per site serving `GET /metrics` (Prometheus text) and
    /// `GET /status` (JSON), and returns the per-site HTTP addresses.
    /// Queries are routed through the site's event loop, so responses are
    /// consistent snapshots taken between protocol events.
    /// [`Live::shutdown`] stops the listeners and joins their threads.
    pub fn spawn_with_http(actors: Vec<A>, seed: u64) -> (Self, Vec<SocketAddr>)
    where
        A: Introspect,
    {
        let mut mesh = Self::spawn(actors, seed);
        for mailbox in &mesh.mailboxes {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind http loopback");
            let addr = listener.local_addr().expect("http local addr");
            let (mailbox, shared) = (mailbox.clone(), Arc::clone(&mesh.shared));
            let server = std::thread::spawn(move || serve_http(listener, mailbox, shared));
            mesh.http.push((addr, server));
        }
        let addrs = mesh.http.iter().map(|(addr, _)| *addr).collect();
        (mesh, addrs)
    }
}

/// Bytes one link takes from its socket per loop turn.
const READ_CHUNK: usize = 64 * 1024;

/// One site's ends of its mesh links, indexed by peer, read and written
/// without blocking from the site's own loop.
pub(crate) struct Links {
    links: Vec<Option<Link>>,
    /// The peer of each entry the last [`Links::interest`] appended.
    polled: Vec<usize>,
    chunk: Box<[u8]>,
    /// Frames that closed links took with them, by peer, until the site
    /// counts them as drops.
    pub(crate) lost: Vec<(SiteId, u64)>,
}

struct Link {
    stream: TcpStream,
    /// Received bytes short of a whole frame.
    inbuf: BytesMut,
    /// Frames queued for the peer, and the unwritten length of each, so
    /// that a link that closes knows how many it lost.
    out: BytesMut,
    frames: VecDeque<usize>,
    side: WriteSide,
}

impl Links {
    fn new(streams: Vec<Option<TcpStream>>) -> Links {
        let links = streams
            .into_iter()
            .map(|stream| {
                let stream = stream?;
                stream.set_nodelay(true).expect("set TCP_NODELAY");
                stream.set_nonblocking(true).expect("non-blocking link");
                let (inbuf, out, frames) = (BytesMut::new(), BytesMut::new(), VecDeque::new());
                Some(Link { stream, inbuf, out, frames, side: WriteSide::default() })
            })
            .collect();
        let chunk = vec![0; READ_CHUNK].into_boxed_slice();
        Links { links, polled: Vec::new(), chunk, lost: Vec::new() }
    }

    /// Queues `msg` for `to`; `false` when it is dropped instead: no link
    /// (a self-send), a closed one, or a message too large for a frame.
    pub(crate) fn send<M: MeshCodec>(&mut self, to: SiteId, msg: &M) -> bool {
        let Some(link) = self.links.get_mut(to.index()).and_then(Option::as_mut) else {
            return false;
        };
        let before = link.out.len();
        let framed = encode_frame(msg, &mut link.out).is_ok();
        if framed {
            link.frames.push_back(link.out.len() - before);
        }
        framed
    }

    /// Writes each queue its socket is not known to refuse, with one
    /// `write` per link.
    pub(crate) fn flush(&mut self) {
        for peer in 0..self.links.len() {
            let Some(link) = &mut self.links[peer] else { continue };
            match link.side.write(&link.stream, &link.out) {
                Ok(n) => link.wrote(n),
                Err(_) => self.close(peer),
            }
        }
    }

    /// Appends one entry per open link: readable, and writable too while
    /// its socket refuses frames.
    pub(crate) fn interest(&mut self, fds: &mut Vec<PollFd>) {
        self.polled.clear();
        for (peer, link) in self.links.iter().enumerate() {
            let Some(link) = link else { continue };
            fds.push(PollFd::new(&link.stream, link.side.events()));
            self.polled.push(peer);
        }
    }

    /// Reads once from each link the wait found readable and appends the
    /// whole frames it completes to `inbound`. End of file, a socket error
    /// or a stream that fails to decode closes the link.
    pub(crate) fn read<M: MeshCodec>(&mut self, ready: &[PollFd], inbound: &mut Vec<(SiteId, M)>) {
        for (i, entry) in ready.iter().enumerate() {
            let peer = self.polled[i];
            let Some(link) = &mut self.links[peer] else { continue };
            link.side.polled(entry);
            if !entry.readable() {
                continue;
            }
            let open = match (&link.stream).read(&mut self.chunk) {
                Ok(0) => false,
                Ok(n) => {
                    link.inbuf.extend_from_slice(&self.chunk[..n]);
                    let from = SiteId(peer as u32);
                    let mut used = 0;
                    let decoded = loop {
                        match decode_prefix::<M>(&link.inbuf[used..]) {
                            Ok(Some((msg, len))) => {
                                used += len;
                                inbound.push((from, msg));
                            }
                            Ok(None) => break true,
                            Err(_) => break false,
                        }
                    };
                    link.inbuf.advance(used);
                    decoded
                }
                Err(e) => would_block(&e),
            };
            if !open {
                self.close(peer);
            }
        }
    }

    /// Shuts one link down both ways and notes the frames it still held.
    fn close(&mut self, peer: usize) {
        if let Some(link) = self.links[peer].take() {
            let _ = link.stream.shutdown(Shutdown::Both);
            if !link.frames.is_empty() {
                self.lost.push((SiteId(peer as u32), link.frames.len() as u64));
            }
        }
    }

    /// Closes every link: the site is stopping.
    pub(crate) fn close_all(&mut self) {
        (0..self.links.len()).for_each(|peer| self.close(peer));
    }
}

impl Link {
    /// Forgets the `n` bytes a write took.
    fn wrote(&mut self, mut n: usize) {
        self.out.advance(n);
        while let Some(left) = self.frames.front_mut() {
            if n < *left {
                *left -= n;
                break;
            }
            n -= *left;
            self.frames.pop_front();
        }
    }
}

/// The write side of a non-blocking socket: whether, and since when, it
/// has refused bytes its owner still holds. A socket that refused bytes
/// is not written again before the wait reports `POLLOUT`.
#[derive(Debug, Default)]
pub struct WriteSide {
    refused_since: Option<Instant>,
    /// `POLLOUT` was reported since the socket last refused bytes.
    writable: bool,
}

impl WriteSide {
    /// Writes what `stream` takes of `out` with one `write` and returns
    /// how many bytes that was: 0, with no system call, while the socket
    /// refuses bytes and has not reported `POLLOUT` since. An error is
    /// the socket's failure, never "not now".
    pub fn write(&mut self, mut stream: &TcpStream, out: &[u8]) -> io::Result<usize> {
        if out.is_empty() || (self.refused_since.is_some() && !self.writable) {
            return Ok(0);
        }
        let n = match stream.write(out) {
            Ok(n) => n,
            Err(e) if would_block(&e) => 0,
            Err(e) => return Err(e),
        };
        if n < out.len() {
            self.writable = false;
            self.refused_since.get_or_insert_with(Instant::now);
        } else {
            self.refused_since = None;
        }
        Ok(n)
    }

    /// The events to wait for: [`POLLIN`], and [`POLLOUT`] while the
    /// socket refuses bytes.
    pub fn events(&self) -> i16 {
        if self.refused_since.is_some() {
            POLLIN | POLLOUT
        } else {
            POLLIN
        }
    }

    /// Notes what the wait found for this socket.
    pub fn polled(&mut self, entry: &PollFd) {
        self.writable |= entry.writable();
    }

    /// When the socket first refused bytes it has not taken since.
    pub fn refused_since(&self) -> Option<Instant> {
        self.refused_since
    }
}

/// Whether an I/O error only means "not now".
pub fn would_block(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted)
}

/// Accept loop for one site's introspection listener, until
/// [`Live::shutdown`] has stopped the sites.
fn serve_http<A: Actor + Introspect>(
    listener: TcpListener,
    mailbox: Mailbox<SiteEvent<A>>,
    shared: Arc<Shared<A::Output>>,
) {
    for stream in listener.incoming() {
        if shared.stopped.load(SeqCst) {
            return;
        }
        if let Ok(mut stream) = stream {
            handle_http_conn(&mut stream, &mailbox);
        }
    }
}

/// Handles one HTTP connection: parse a minimal GET request, answer the
/// path through the site's event loop, write the response.
fn handle_http_conn<A: Actor + Introspect>(
    stream: &mut TcpStream,
    mailbox: &Mailbox<SiteEvent<A>>,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 1024];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.len() < 8192 {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(k) => buf.extend_from_slice(&chunk[..k]),
        }
    }
    let request = String::from_utf8_lossy(&buf);
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("").to_string();
    if method != "GET" {
        write_http(stream, 405, "text/plain; charset=utf-8", "method not allowed\n");
        return;
    }
    let ctype = content_type(&path);
    match query(mailbox, move |actor| answer(actor, &path)) {
        Some(Some(body)) => write_http(stream, 200, ctype, &body),
        Some(None) => write_http(stream, 404, "text/plain; charset=utf-8", "not found\n"),
        None => write_http(stream, 503, "text/plain; charset=utf-8", "unavailable\n"),
    }
}

fn write_http(stream: &mut TcpStream, status: u16, ctype: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Service Unavailable",
    };
    let _ = stream.write_all(
        format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Ctx, MsgInfo};
    use avdb_wire::{Reader, WireError};
    use bytes::BufMut;

    #[derive(Clone, Debug, PartialEq)]
    enum Echo {
        Ping(u64),
        Pong(u64),
    }
    impl MeshCodec for Echo {
        fn encode(&self, out: &mut BytesMut) -> u8 {
            let (kind, v) = match self {
                Echo::Ping(v) => (0x41, v),
                Echo::Pong(v) => (0x42, v),
            };
            out.put_u64(*v);
            kind
        }
        fn decode(kind: u8, payload: &[u8]) -> Result<Self, WireError> {
            let mut r = Reader::new(kind, payload);
            let v = r.u64("value")?;
            r.done()?;
            match kind {
                0x41 => Ok(Echo::Ping(v)),
                0x42 => Ok(Echo::Pong(v)),
                _ => Err(WireError::UnknownKind { kind, req_id: 0 }),
            }
        }
    }
    impl MsgInfo for Echo {
        fn kind(&self) -> &'static str {
            match self {
                Echo::Ping(_) => "ping",
                Echo::Pong(_) => "pong",
            }
        }
    }

    struct EchoActor {
        n: usize,
        pings_seen: u64,
        /// Pongs answered with a fresh ping instead of an output.
        rally: u64,
    }
    impl EchoActor {
        fn mesh(n: usize) -> Vec<EchoActor> {
            (0..n).map(|_| EchoActor { n, pings_seen: 0, rally: 0 }).collect()
        }
    }
    impl Actor for EchoActor {
        type Msg = Echo;
        type Input = u64;
        type Output = u64;
        fn on_input(&mut self, ctx: &mut Ctx<'_, Echo, u64>, v: u64) {
            for s in 0..self.n as u32 {
                if SiteId(s) != ctx.me() {
                    ctx.send(SiteId(s), Echo::Ping(v));
                }
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Echo, u64>, from: SiteId, msg: Echo) {
            match msg {
                Echo::Ping(v) => {
                    self.pings_seen += 1;
                    ctx.send(from, Echo::Pong(v));
                }
                Echo::Pong(v) if self.rally > 0 => {
                    self.rally -= 1;
                    ctx.send(from, Echo::Ping(v));
                }
                Echo::Pong(v) => ctx.emit(v),
            }
        }
    }

    #[test]
    fn tcp_mesh_round_trips_frames() {
        let mesh = TcpMesh::spawn(EchoActor::mesh(3), 1);
        for v in 0..20u64 {
            mesh.inject(SiteId((v % 3) as u32), v);
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut outs = Vec::new();
        while outs.len() < 40 {
            assert!(Instant::now() < deadline, "got {}/40", outs.len());
            outs.extend(mesh.wait_outputs(deadline.saturating_duration_since(Instant::now())));
        }
        let (actors, counters, _) = mesh.shutdown();
        // 20 inputs × 2 pings × 2 messages (ping+pong) = 80 messages.
        assert_eq!(counters.total_messages(), 80);
        assert_eq!(counters.total_correspondences(), 40);
        let pings: u64 = actors.iter().map(|a| a.pings_seen).sum();
        assert_eq!(pings, 40);
    }

    #[test]
    fn counters_snapshot_matches_the_counts_of_the_run() {
        let mesh = TcpMesh::spawn(EchoActor::mesh(3), 17);
        // Inputs 0..20 at site v % 3: 7, 7 and 6 of them. Each sends a
        // ping to both peers, and each peer answers with a pong.
        for v in 0..20u64 {
            mesh.inject(SiteId((v % 3) as u32), v);
        }
        assert!(mesh.quiesce(Duration::from_secs(20)));
        let snap = mesh.counters_snapshot();
        let (actors, counters, outs) = mesh.shutdown();
        assert_eq!(outs.len(), 40);
        assert_eq!(counters.snapshot(), snap, "nothing moved after the mesh went quiet");
        assert_eq!((snap.total_messages, snap.dropped_messages), (80, 0));
        let kinds: Vec<(&str, u64)> = snap.by_kind.iter().map(|(k, n)| (k.as_str(), *n)).collect();
        assert_eq!(kinds, [("ping", 40), ("pong", 40)]);
        // Site s sends 2 pings per own input and a pong per other input,
        // and receives the same: 14 + 13, 14 + 13, 12 + 14.
        let per_site = [(0, 27), (1, 27), (2, 26)].into_iter().collect();
        assert_eq!(snap.sent_by_site, per_site);
        assert_eq!(snap.received_by_site, per_site);
        assert_eq!(actors.iter().map(|a| a.pings_seen).sum::<u64>(), 40);
        assert_eq!(counters.on_link(SiteId(2), SiteId(0)), 6 + 7, "pings of 6 inputs, pongs of 7");
    }

    #[test]
    fn wait_outputs_returns_on_emit_and_empty_at_timeout() {
        let mesh = TcpMesh::spawn(EchoActor::mesh(2), 5);
        let idle_from = Instant::now();
        assert!(mesh.wait_outputs(Duration::from_millis(30)).is_empty());
        assert!(idle_from.elapsed() >= Duration::from_millis(30), "returned before its timeout");

        // The waiter's timeout is far beyond the test's patience, so only
        // the emit can have ended its wait. A blocked waiter holds no
        // lock: the non-blocking take and the counters stay available.
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let from = Instant::now();
                (mesh.wait_outputs(Duration::from_secs(60)), from.elapsed())
            });
            assert!(mesh.drain_outputs().is_empty());
            let _ = mesh.counters_snapshot();
            mesh.inject(SiteId(0), 9);
            let (outs, waited) = waiter.join().expect("waiter thread");
            assert_eq!(outs.iter().map(|(_, site, v)| (*site, *v)).collect::<Vec<_>>(), [(SiteId(0), 9)]);
            assert!(waited < Duration::from_secs(30), "woke on the timeout, not the emit");
        });
        mesh.shutdown();
    }

    /// A front with no sockets: records `(site, output)` per output taken
    /// and counts its flushes.
    #[derive(Default)]
    struct Recorder {
        taken: Vec<(SiteId, u64)>,
        flushes: u64,
    }
    impl crate::live::Front<EchoActor> for Recorder {
        fn interest(&mut self, _: &mut Vec<PollFd>) {}
        fn serve(&mut self, ready: &[PollFd], _: &mut Site<EchoActor>) {
            assert!(ready.is_empty(), "served sockets it never asked for");
        }
        fn take(&mut self, outputs: crate::live::Outputs<u64>) {
            self.taken.extend(outputs.into_iter().map(|(_, s, v)| (s, v)));
        }
        fn flush(&mut self) -> Option<Instant> {
            self.flushes += 1;
            None
        }
    }

    fn detach(mesh: &TcpMesh<EchoActor>, site: SiteId) -> Recorder {
        let front: Box<dyn std::any::Any> = mesh.detach(site).expect("a front is attached");
        *front.downcast::<Recorder>().expect("the front attached")
    }

    #[test]
    fn a_sink_takes_every_output_before_quiesce_returns() {
        let mesh = TcpMesh::spawn(EchoActor::mesh(2), 23);
        assert!(mesh.attach(SiteId(0), Box::<Recorder>::default()));
        mesh.inject(SiteId(0), 3);
        assert!(mesh.quiesce(Duration::from_secs(20)));
        assert!(mesh.drain_outputs().is_empty(), "the queue is bypassed");
        let front = detach(&mesh, SiteId(0));
        assert_eq!(front.taken, [(SiteId(0), 3)]);
        assert!(front.flushes > 0, "flushed once per turn and on detach");
        // Detached, the front sees nothing more and the queue is back.
        assert!(mesh.detach(SiteId(0)).is_none(), "nothing left to detach");
        mesh.inject(SiteId(0), 4);
        assert!(mesh.quiesce(Duration::from_secs(20)));
        assert_eq!(mesh.drain_outputs().len(), 1);
        // A front still attached when its site stops is flushed one last
        // time and left for a detach. The site is held inside a query
        // while the attach and the stop queue up, so both are handled in
        // one turn and only the stop can have flushed the front.
        std::thread::scope(|scope| {
            let (inside, held) = std::sync::mpsc::channel();
            let hold = scope.spawn(|| {
                mesh.query(SiteId(1), move |_| {
                    let _ = inside.send(());
                    std::thread::sleep(Duration::from_millis(100));
                })
            });
            held.recv().expect("the site ran the query");
            assert!(mesh.attach(SiteId(1), Box::<Recorder>::default()));
            mesh.kill(SiteId(1));
            assert!(hold.join().expect("query thread").is_some());
        });
        assert_eq!(detach(&mesh, SiteId(1)).flushes, 1, "flushed as its site stopped");
        assert!(mesh.detach(SiteId(1)).is_none(), "taken back once");
        mesh.shutdown();
    }

    impl Introspect for EchoActor {
        fn metrics_text(&self) -> String {
            format!("echo_pings_total {}\n", self.pings_seen)
        }
        fn status_json(&self) -> String {
            format!("{{\"pings\":{}}}", self.pings_seen)
        }
    }

    fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect http");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn http_endpoints_serve_metrics_and_status() {
        let (mesh, addrs) = TcpMesh::spawn_with_http(EchoActor::mesh(2), 3);
        assert_eq!(addrs.len(), 2);
        mesh.inject(SiteId(0), 7);
        // Wait until site 1 saw the ping (visible via its own endpoint).
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let (_, body) = http_get(addrs[1], "/metrics");
            if body.contains("echo_pings_total 1") {
                break;
            }
            assert!(Instant::now() < deadline, "site 1 never saw the ping: {body}");
            std::thread::sleep(Duration::from_millis(10));
        }
        let (head, body) = http_get(addrs[1], "/status");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        assert_eq!(body, "{\"pings\":1}");
        let (head, _) = http_get(addrs[0], "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        mesh.shutdown();
    }

    #[test]
    fn inspect_answers_between_events() {
        let (mesh, _) = TcpMesh::spawn_with_http(EchoActor::mesh(2), 5);
        mesh.inject(SiteId(0), 4);
        assert!(mesh.quiesce(Duration::from_secs(20)));
        assert_eq!(mesh.inspect(SiteId(1), "/metrics").as_deref(), Some("echo_pings_total 1\n"));
        assert_eq!(mesh.inspect(SiteId(0), "/status").as_deref(), Some("{\"pings\":0}"));
        assert_eq!(mesh.inspect(SiteId(0), "/nope"), None);
        mesh.shutdown();
    }

    #[test]
    fn query_reads_the_actor_between_handlers() {
        let mesh = TcpMesh::spawn(EchoActor::mesh(3), 7);
        for v in 0..5 {
            mesh.inject(SiteId(0), v);
        }
        // Once the mesh is quiet, site 1 has handled every ping.
        assert!(mesh.quiesce(Duration::from_secs(20)));
        assert_eq!(mesh.query(SiteId(1), |a| (a.pings_seen, a.n)), Some((5, 3)));
        mesh.kill(SiteId(2));
        let from = Instant::now();
        let gone = mesh.query(SiteId(2), |a| a.pings_seen);
        assert_eq!(gone, None, "a stopped site answers nothing");
        assert!(from.elapsed() < Duration::from_secs(1), "waited for a site that is gone");
        mesh.shutdown();
    }

    #[test]
    fn timers_fire_earliest_deadline_first() {
        struct TimerActor;
        impl Actor for TimerActor {
            type Msg = Echo;
            type Input = ();
            type Output = u64;
            fn on_input(&mut self, ctx: &mut Ctx<'_, Echo, u64>, _: ()) {
                ctx.set_timer(10, 1);
                ctx.set_timer(1, 2);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, Echo, u64>, _: SiteId, _: Echo) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Echo, u64>, token: u64) {
                ctx.emit(token);
            }
        }
        let mesh = TcpMesh::spawn(vec![TimerActor], 0);
        mesh.inject(SiteId(0), ());
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut outs = Vec::new();
        while outs.len() < 2 && Instant::now() < deadline {
            outs.extend(mesh.wait_outputs(deadline.saturating_duration_since(Instant::now())));
        }
        mesh.shutdown();
        let tokens: Vec<u64> = outs.iter().map(|(_, _, t)| *t).collect();
        assert_eq!(tokens, vec![2, 1]);
    }

    #[test]
    fn quiesce_returns_after_the_last_handler_of_a_chain() {
        // Site 0 answers its first pong with another ping: ping, pong,
        // ping, pong, and only the last handler emits.
        let mut actors = EchoActor::mesh(2);
        actors[0].rally = 1;
        let mesh = TcpMesh::spawn(actors, 9);
        mesh.inject(SiteId(0), 5);
        assert!(mesh.quiesce(Duration::from_secs(20)));
        // Neither read waits on a site: what they see was there when
        // `quiesce` returned.
        let outs: Vec<(SiteId, u64)> =
            mesh.drain_outputs().into_iter().map(|(_, site, v)| (site, v)).collect();
        assert_eq!(outs, [(SiteId(0), 5)]);
        let net = mesh.counters_snapshot();
        assert_eq!((net.received_by_site[&0], net.received_by_site[&1]), (2, 2));
        let (actors, counters, _) = mesh.shutdown();
        assert_eq!(actors[1].pings_seen, 2);
        assert_eq!(counters.total_messages(), 4);
    }

    #[test]
    fn quiesce_skips_a_killed_site() {
        let mesh = TcpMesh::spawn(EchoActor::mesh(3), 11);
        mesh.kill(SiteId(2));
        mesh.inject(SiteId(0), 6);
        assert!(mesh.quiesce(Duration::from_secs(20)), "the ping to the dead site blocked it");
        assert_eq!(mesh.counters_snapshot().sent_by_site[&0], 2, "one ping went to the dead site");
        assert_eq!(mesh.drain_outputs().len(), 1, "the live peer answered");
        mesh.shutdown();
    }

    #[test]
    fn quiesce_gives_up_on_endless_traffic() {
        let mut actors = EchoActor::mesh(2);
        for actor in &mut actors {
            actor.rally = u64::MAX;
        }
        let mesh = TcpMesh::spawn(actors, 13);
        mesh.inject(SiteId(0), 7);
        let from = Instant::now();
        assert!(!mesh.quiesce(Duration::from_millis(200)));
        assert!(from.elapsed() >= Duration::from_millis(200), "gave up before its timeout");
        mesh.shutdown();
    }
}
