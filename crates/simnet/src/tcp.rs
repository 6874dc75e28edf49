//! TCP mesh transport: the same [`Actor`] code over real sockets.
//!
//! Each site binds a loopback listener; the mesh is fully connected with
//! one TCP connection per site pair, the dialer naming itself in a 4-byte
//! handshake, and every protocol message travels as one `avdb-wire`
//! binary frame ([`crate::transport::encode_frame`]). This is the
//! deployment shape the paper's system would actually run in: one process
//! per company site, talking over the network. It is the only live
//! transport; determinism is the simulator's job.
//!
//! Per site, one thread runs the site loop (`live.rs`) and one reads
//! each peer connection. Sends happen inline on the site's
//! thread, one `write_all` per frame on a stream with `TCP_NODELAY` set:
//! a protocol round (AV request/grant, 2PC prepare/vote) is a small
//! frame the peer is waiting for, so it must not sit out Nagle's and the
//! delayed-ACK timers. Outputs leave through the loop's blocking queue:
//! [`Live::wait_outputs`] returns the moment a site emits.
//!
//! A site's mesh port stays open after setup ([`Live::mesh_addr`]), but
//! only the setup links carry protocol traffic. A late connection names
//! no trusted peer: its handshake and frames are checked and discarded,
//! and a stream that fails to decode — a bad handshake, a corrupt or
//! alien frame — or stays silent for [`LATE_LINK_TIMEOUT`] is closed,
//! touching nothing else. When a site stops it closes its links, late
//! ones included, which ends every reader, and its acceptor.

use crate::actor::Actor;
use crate::inspect::{answer, content_type, Introspect};
use crate::live::{run_site, InspectFn, Live, Mailboxes, Shared, SiteEvent};
use crate::rng::DetRng;
use crate::transport::{decode_prefix, encode_frame, MeshCodec};
use avdb_types::SiteId;
use bytes::{Buf, BytesMut};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// How long a late connection may stay silent before it is closed.
pub const LATE_LINK_TIMEOUT: Duration = Duration::from_secs(5);

/// A site's late links by accept number, each a clone of the stream its
/// reader holds, so a stopping site can close them; `None` once it has.
type LateLinks = Arc<Mutex<Option<HashMap<u64, TcpStream>>>>;

/// Handle to a mesh of sites running over real TCP connections.
pub type TcpMesh<A> = Live<A>;

impl<A> Live<A>
where
    A: Actor + Send + 'static,
    A::Msg: MeshCodec + Send + 'static,
    A::Input: Send + 'static,
    A::Output: Send + 'static,
{
    /// Binds one loopback listener per site, connects the full mesh, and
    /// spawns the event loops. Panics on socket errors (this is a test /
    /// demo harness, not a daemon).
    pub fn spawn(actors: Vec<A>, seed: u64) -> Self {
        Self::spawn_inner(actors, seed, None).0
    }

    /// As [`TcpMesh::spawn`], but additionally binds one loopback HTTP
    /// listener per site serving `GET /metrics` (Prometheus text) and
    /// `GET /status` (JSON), and returns the per-site HTTP addresses.
    /// Queries are routed through the site's event loop, so responses are
    /// consistent snapshots taken between protocol events. The accept
    /// threads are detached; they die with the process, not with
    /// [`Live::shutdown`].
    pub fn spawn_with_http(actors: Vec<A>, seed: u64) -> (Self, Vec<SocketAddr>)
    where
        A: Introspect,
    {
        let handler: InspectFn<A> = Arc::new(|actor, path| answer(actor, path));
        let (mesh, addrs) = Self::spawn_inner(actors, seed, Some(handler));
        (mesh, addrs.expect("handler implies http listeners"))
    }

    fn spawn_inner(
        actors: Vec<A>,
        seed: u64,
        inspect: Option<InspectFn<A>>,
    ) -> (Self, Option<Vec<SocketAddr>>) {
        let n = actors.len();
        // Bind listeners first so every address is known before anyone
        // connects.
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
            .collect();
        let addrs: Vec<SocketAddr> =
            listeners.iter().map(|l| l.local_addr().expect("local addr")).collect();

        // Event channels: sockets feed decoded messages in here.
        let (inputs, receivers): (Mailboxes<A>, Vec<Receiver<_>>) =
            (0..n).map(|_| unbounded()).unzip();

        // Optional HTTP introspection front-end: one listener per site,
        // queries forwarded to the event loop as `SiteEvent::Inspect`.
        let http_addrs = inspect.is_some().then(|| {
            (0..n)
                .map(|i| {
                    let listener =
                        TcpListener::bind("127.0.0.1:0").expect("bind http loopback");
                    let addr = listener.local_addr().expect("http local addr");
                    let tx = inputs[i].clone();
                    std::thread::spawn(move || serve_http(listener, tx));
                    addr
                })
                .collect::<Vec<_>>()
        });

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

        let shared = Shared::new(n);
        let root = DetRng::new(seed);

        let mut handles = Vec::with_capacity(n);
        for (i, (((actor, rx), mut writers), listener)) in
            actors.into_iter().zip(receivers).zip(streams).zip(listeners).enumerate()
        {
            let me = SiteId(i as u32);
            // Reader thread per peer: decode frames, forward to the loop.
            for (peer, stream) in writers.iter().enumerate() {
                let Some(stream) = stream else { continue };
                stream.set_nodelay(true).expect("set TCP_NODELAY");
                let reader = stream.try_clone().expect("clone stream");
                let tx = inputs[i].clone();
                let from = SiteId(peer as u32);
                std::thread::spawn(move || {
                    read_frames(reader, |msg| tx.send(SiteEvent::Msg { from, msg }).is_ok())
                });
            }
            // The listener stays open for late links until the site stops.
            let late: LateLinks = Arc::new(Mutex::new(Some(HashMap::new())));
            let acceptor = {
                let late = Arc::clone(&late);
                std::thread::spawn(move || accept_late::<A::Msg>(listener, me, n, late))
            };

            let shared = Arc::clone(&shared);
            let inspect = inspect.clone();
            let rng = root.derive(0x7C90_0000 + i as u64);
            let mesh_addr = addrs[i];
            handles.push(std::thread::spawn(move || {
                let mut frame = BytesMut::new();
                // No stream (a self-send), an unencodable message or an
                // unwritable socket all count as a drop.
                let actor = run_site(me, actor, rng, rx, &shared, inspect, |to, msg| {
                    let Some(stream) = &mut writers[to.index()] else { return false };
                    frame.clear();
                    encode_frame(&msg, &mut frame).is_ok() && stream.write_all(&frame).is_ok()
                });
                // Closing the links ends the readers at both of their
                // ends; a connection wakes the acceptor to see the late
                // links gone.
                let late = late.lock().take().unwrap_or_default();
                for stream in writers.iter().flatten().chain(late.values()) {
                    let _ = stream.shutdown(Shutdown::Both);
                }
                if TcpStream::connect(mesh_addr).is_ok() {
                    acceptor.join().expect("mesh acceptor panicked");
                }
                actor
            }));
        }
        (Live { mailboxes: inputs, handles, shared, mesh_addrs: addrs }, http_addrs)
    }
}

/// A site's mesh listener after setup: every late connection gets a
/// reader thread that checks its stream and closes it on the first fault,
/// until the site stops.
fn accept_late<M: MeshCodec>(listener: TcpListener, me: SiteId, n: usize, late: LateLinks) {
    for (key, stream) in (0u64..).zip(listener.incoming()) {
        let Ok(stream) = stream else { continue };
        let Ok(clone) = stream.try_clone() else { continue };
        match late.lock().as_mut() {
            Some(links) => links.insert(key, clone),
            None => return,
        };
        let late = Arc::clone(&late);
        std::thread::spawn(move || {
            check_late_link::<M>(stream, me, n);
            if let Some(links) = late.lock().as_mut() {
                links.remove(&key);
            }
        });
    }
}

/// Reads a late link until it closes, falls silent or turns out
/// malformed, then closes it. Its frames name a peer but come from outside the mesh, so none of
/// them reaches the site.
fn check_late_link<M: MeshCodec>(mut stream: TcpStream, me: SiteId, n: usize) {
    let mut id = [0u8; 4];
    let named_peer = stream.set_read_timeout(Some(LATE_LINK_TIMEOUT)).is_ok()
        && stream.read_exact(&mut id).is_ok()
        && (u32::from_be_bytes(id) as usize) < n
        && u32::from_be_bytes(id) != me.0;
    if named_peer {
        read_frames(stream, |_: M| true);
    } else {
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// One connection's reader: decodes frames and hands each to `deliver`
/// until the peer closes, `deliver` says the site is gone, or the stream
/// turns out corrupt, which drops the link: the socket is shut down both
/// ways, so the site's own sends on it fail as drops.
fn read_frames<M: MeshCodec>(mut stream: TcpStream, mut deliver: impl FnMut(M) -> bool) {
    let mut buf = BytesMut::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return, // peer closed
            Ok(k) => buf.extend_from_slice(&chunk[..k]),
        }
        let mut used = 0;
        loop {
            match decode_prefix::<M>(&buf[used..]) {
                Ok(Some((msg, len))) => {
                    used += len;
                    if !deliver(msg) {
                        return;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
            }
        }
        buf.advance(used);
    }
}

/// Accept loop for one site's introspection listener. Exits when the
/// site's event channel closes (the mesh shut down).
fn serve_http<M, I>(listener: TcpListener, tx: Sender<SiteEvent<M, I>>) {
    for stream in listener.incoming() {
        let Ok(mut stream) = stream else { continue };
        if handle_http_conn(&mut stream, &tx).is_err() {
            break;
        }
    }
}

/// Handles one HTTP connection: parse a minimal GET request, forward the
/// path to the event loop, write the response. `Err` means the site is
/// gone and the accept loop should stop.
fn handle_http_conn<M, I>(
    stream: &mut TcpStream,
    tx: &Sender<SiteEvent<M, I>>,
) -> Result<(), ()> {
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
        return Ok(());
    }
    let (reply_tx, reply_rx) = unbounded();
    tx.send(SiteEvent::Inspect { path: path.clone(), reply: reply_tx }).map_err(|_| ())?;
    match reply_rx.recv_timeout(Duration::from_secs(5)) {
        Ok(Some(body)) => write_http(stream, 200, content_type(&path), &body),
        Ok(None) => write_http(stream, 404, "text/plain; charset=utf-8", "not found\n"),
        Err(_) => write_http(stream, 503, "text/plain; charset=utf-8", "unavailable\n"),
    }
    Ok(())
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
    use avdb_wire::{Reader, WireError, HEADER_LEN};
    use bytes::BufMut;
    use std::time::Instant;

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

    /// Whether the site closed `stream` within the test's patience.
    fn closed(stream: &mut TcpStream) -> bool {
        stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        matches!(stream.read(&mut [0u8; 8]), Ok(0) | Err(_))
    }

    #[test]
    fn a_late_link_is_closed_on_garbage_and_never_delivered() {
        let mesh = TcpMesh::spawn(EchoActor::mesh(2), 17);
        let mut stranger = TcpStream::connect(mesh.mesh_addr(SiteId(0))).expect("connect");
        let mut bytes = BytesMut::new();
        bytes.put_u32(1); // names site 1
        encode_frame(&Echo::Ping(5), &mut bytes).unwrap();
        bytes.put_slice(&[0xEE; HEADER_LEN]);
        stranger.write_all(&bytes).unwrap();
        assert!(closed(&mut stranger), "corrupt link left open");

        // Had the ping reached site 0, its pong would have made site 1 emit 5.
        mesh.inject(SiteId(0), 6);
        assert!(mesh.quiesce(Duration::from_secs(20)));
        let outs: Vec<(SiteId, u64)> =
            mesh.drain_outputs().into_iter().map(|(_, s, v)| (s, v)).collect();
        assert_eq!(outs, [(SiteId(0), 6)], "site 0 serves its peer and nothing else");
        mesh.shutdown();
    }

    #[test]
    fn a_stopping_site_closes_its_silent_late_links() {
        let mesh = TcpMesh::spawn(EchoActor::mesh(2), 19);
        let mut named = TcpStream::connect(mesh.mesh_addr(SiteId(0))).expect("connect");
        named.write_all(&1u32.to_be_bytes()).unwrap();
        let mut mute = TcpStream::connect(mesh.mesh_addr(SiteId(0))).expect("connect");
        let from = Instant::now();
        mesh.shutdown();
        assert!(closed(&mut named) && closed(&mut mute), "a late link outlived the mesh");
        assert!(from.elapsed() < LATE_LINK_TIMEOUT, "closed by the timeout, not the stop");
    }

    #[test]
    fn wait_outputs_returns_on_emit_on_wake_and_empty_at_timeout() {
        let mesh = TcpMesh::spawn(EchoActor::mesh(2), 5);
        let idle_from = Instant::now();
        assert!(mesh.wait_outputs(Duration::from_millis(30)).is_empty());
        assert!(idle_from.elapsed() >= Duration::from_millis(30), "returned before its timeout");

        // Each waiter's timeout is far beyond the test's patience, so
        // only the emit (then the wake) can have ended its wait.
        let wait = || {
            let from = Instant::now();
            (mesh.wait_outputs(Duration::from_secs(60)), from.elapsed())
        };
        std::thread::scope(|scope| {
            let waiter = scope.spawn(wait);
            mesh.inject(SiteId(0), 9);
            let (outs, waited) = waiter.join().expect("waiter thread");
            assert_eq!(outs.iter().map(|(_, site, v)| (*site, *v)).collect::<Vec<_>>(), [(SiteId(0), 9)]);
            assert!(waited < Duration::from_secs(30), "woke on the timeout, not the emit");

            // A blocked waiter holds no lock: the non-blocking take and
            // the counters stay available. The wake is remembered, so it
            // ends the wait whether or not the waiter got there first.
            let waiter = scope.spawn(wait);
            assert!(mesh.drain_outputs().is_empty());
            let _ = mesh.counters_snapshot();
            mesh.wake_outputs();
            let (outs, waited) = waiter.join().expect("waiter thread");
            assert!(outs.is_empty());
            assert!(waited < Duration::from_secs(30), "woke on the timeout, not the wake");
        });
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
    fn inspect_without_handler_returns_none() {
        let mesh = TcpMesh::spawn(EchoActor::mesh(1), 5);
        assert_eq!(mesh.inspect(SiteId(0), "/metrics"), None);
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
