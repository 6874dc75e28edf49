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
//! Per site, one thread runs the site loop (`live.rs`) and one reads
//! each peer connection; a link whose stream fails to decode is shut
//! down, touching nothing else. Sends happen inline on the site's
//! thread, one `write_all` per frame on a stream with `TCP_NODELAY` set:
//! a protocol round (AV request/grant, 2PC prepare/vote) is a small
//! frame the peer is waiting for, so it must not sit out Nagle's and the
//! delayed-ACK timers. Outputs leave through the loop's blocking queue,
//! so [`Live::wait_outputs`] returns the moment a site emits, or, once a
//! sink is installed ([`Live::set_sink`]), go to it on the site's thread.
//! When a site stops it shuts its links down, which ends every reader at
//! both ends, and joins its own readers.
//!
//! [`TcpMesh::spawn_with_http`] adds one HTTP listener per site for
//! `/metrics` and `/status`; [`Live::shutdown`] stops and joins them.

use crate::actor::Actor;
use crate::inspect::{answer, content_type, Introspect};
use crate::live::{query, run_site, Live, Mailboxes, Shared, SiteEvent};
use crate::rng::DetRng;
use crate::transport::{decode_prefix, encode_frame, MeshCodec};
use avdb_types::SiteId;
use bytes::{Buf, BytesMut};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;
use std::time::Duration;

/// Handle to a mesh of sites running over real TCP connections.
pub type TcpMesh<A> = Live<A>;

impl<A> Live<A>
where
    A: Actor + Send + 'static,
    A::Msg: MeshCodec + Send + 'static,
    A::Input: Send + 'static,
    A::Output: Send + 'static,
{
    /// Connects a full mesh of loopback sockets and spawns the event
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

        // Event channels: sockets feed decoded messages in here.
        let (inputs, receivers): (Mailboxes<A>, Vec<Receiver<_>>) =
            (0..n).map(|_| unbounded()).unzip();

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

        let mut handles = Vec::with_capacity(n);
        for (i, ((actor, rx), mut writers)) in
            actors.into_iter().zip(receivers).zip(streams).enumerate()
        {
            let me = SiteId(i as u32);
            // Reader thread per peer: decode frames, forward to the loop.
            let mut readers = Vec::new();
            for (peer, stream) in writers.iter().enumerate() {
                let Some(stream) = stream else { continue };
                stream.set_nodelay(true).expect("set TCP_NODELAY");
                let reader = stream.try_clone().expect("clone stream");
                let tx = inputs[i].clone();
                let from = SiteId(peer as u32);
                readers.push(std::thread::spawn(move || {
                    read_frames(reader, |msg| tx.send(SiteEvent::Msg { from, msg }).is_ok())
                }));
            }

            let shared = Arc::clone(&shared);
            let rng = root.derive(0x7C90_0000 + i as u64);
            handles.push(std::thread::spawn(move || {
                let mut frame = BytesMut::new();
                // No stream (a self-send), an unencodable message or an
                // unwritable socket all count as a drop.
                let actor = run_site(me, actor, rng, rx, &shared, |to, msg| {
                    let Some(stream) = &mut writers[to.index()] else { return false };
                    frame.clear();
                    encode_frame(&msg, &mut frame).is_ok() && stream.write_all(&frame).is_ok()
                });
                // Closing the links ends the readers at both of their ends.
                for stream in writers.iter().flatten() {
                    let _ = stream.shutdown(Shutdown::Both);
                }
                for reader in readers {
                    reader.join().expect("mesh reader panicked");
                }
                actor
            }));
        }
        Live { mailboxes: inputs, handles, shared, http: Vec::new() }
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

/// Accept loop for one site's introspection listener, until
/// [`Live::shutdown`] has stopped the sites.
fn serve_http<A: Actor + Introspect>(
    listener: TcpListener,
    mailbox: Sender<SiteEvent<A>>,
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
    mailbox: &Sender<SiteEvent<A>>,
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
    use parking_lot::Mutex;
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

    /// Records `(site, Some(output))` per output taken and `(site, None)`
    /// per idle call.
    #[derive(Default)]
    struct Recorder(Mutex<Vec<(SiteId, Option<u64>)>>);
    impl crate::live::OutputSink<u64> for Recorder {
        fn take(&self, site: SiteId, outputs: crate::live::Outputs<u64>) {
            assert!(outputs.iter().all(|(_, s, _)| *s == site), "taken by the emitting site");
            self.0.lock().extend(outputs.into_iter().map(|(_, s, v)| (s, Some(v))));
        }
        fn idle(&self, site: SiteId) {
            self.0.lock().push((site, None));
        }
    }

    #[test]
    fn a_sink_takes_every_output_before_quiesce_returns() {
        let mesh = TcpMesh::spawn(EchoActor::mesh(2), 23);
        let sink = Arc::new(Recorder::default());
        let taken =
            || sink.0.lock().iter().filter_map(|(s, v)| Some((*s, (*v)?))).collect::<Vec<_>>();
        mesh.set_sink(Some(sink.clone()));
        mesh.inject(SiteId(0), 3);
        assert!(mesh.quiesce(Duration::from_secs(20)));
        assert_eq!(taken(), [(SiteId(0), 3)]);
        assert!(mesh.drain_outputs().is_empty(), "the queue is bypassed");
        // Removed, the sink sees nothing more and the queue is back.
        mesh.set_sink(None);
        mesh.inject(SiteId(1), 4);
        assert!(mesh.quiesce(Duration::from_secs(20)));
        assert_eq!((mesh.drain_outputs().len(), taken().len()), (1, 1));
        // A stopping site goes idle one last time.
        mesh.set_sink(Some(sink.clone()));
        sink.0.lock().clear();
        mesh.shutdown();
        let mut idle: Vec<SiteId> = sink.0.lock().iter().map(|(s, _)| *s).collect();
        idle.sort();
        idle.dedup();
        assert_eq!(idle.len(), 2, "{idle:?}");
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
