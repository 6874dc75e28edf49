//! Live threaded transport: the same [`Actor`] code, on OS threads.
//!
//! One thread per site running the shared site loop (`live.rs`: timers
//! off a deadline heap, wall-clock virtual time, outputs through a
//! blocking queue), connected by a full mesh of crossbeam channels.
//!
//! A length-prefixed wire codec ([`encode_frame`]/[`decode_frame`]) is
//! provided for serializing protocol messages across a real byte stream;
//! the in-process mesh passes typed values directly (no reason to pay the
//! serialization toll between threads), while the codec is exercised by
//! its own tests and available to embedders that bridge sites over sockets.

use crate::actor::Actor;
use crate::inspect::{answer, Introspect};
use crate::live::{run_site, InspectFn, Live, Mailboxes, Shared, SiteEvent};
use crate::rng::DetRng;
use avdb_types::{AvdbError, SiteId};
use bytes::{Buf, BufMut, BytesMut};
use crossbeam::channel::{unbounded, Receiver};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::marker::PhantomData;
use std::sync::Arc;

/// Transport marker: sites exchange typed messages over channels.
pub struct Threads;

/// Handle to a live system whose sites talk over in-process channels.
pub type LiveRunner<A> = Live<A, Threads>;

impl<A> Live<A, Threads>
where
    A: Actor + Send + 'static,
    A::Msg: Send + 'static,
    A::Input: Send + 'static,
    A::Output: Send + 'static,
{
    /// Spawns one thread per actor and starts them (each actor's
    /// `on_start` runs on its own thread before any delivery).
    pub fn spawn(actors: Vec<A>, seed: u64) -> Self {
        Self::spawn_inner(actors, seed, None)
    }

    /// As [`LiveRunner::spawn`], but sites also answer in-process
    /// introspection queries via [`Live::inspect`] — the threaded
    /// transport's equivalent of the TCP mesh's HTTP endpoints.
    pub fn spawn_with_inspect(actors: Vec<A>, seed: u64) -> Self
    where
        A: Introspect,
    {
        let handler: InspectFn<A> = Arc::new(|actor, path| answer(actor, path));
        Self::spawn_inner(actors, seed, Some(handler))
    }

    fn spawn_inner(actors: Vec<A>, seed: u64, inspect: Option<InspectFn<A>>) -> Self {
        let root = DetRng::new(seed);
        let shared = Shared::new();
        let (senders, receivers): (Mailboxes<A>, Vec<Receiver<_>>) =
            actors.iter().map(|_| unbounded()).unzip();

        let mut handles = Vec::with_capacity(actors.len());
        for (i, (actor, rx)) in actors.into_iter().zip(receivers).enumerate() {
            let me = SiteId(i as u32);
            let mesh = senders.clone();
            let shared = Arc::clone(&shared);
            let inspect = inspect.clone();
            let rng = root.derive(0x11FE_0000 + i as u64);
            handles.push(std::thread::spawn(move || {
                // A closed channel means that site already shut down.
                run_site(me, actor, rng, rx, &shared, inspect, |to, msg| {
                    mesh[to.index()].send(SiteEvent::Msg { from: me, msg }).is_ok()
                })
            }));
        }
        Live { mailboxes: senders, handles, shared, transport: PhantomData }
    }
}

/// Encodes one message as a length-prefixed JSON frame into `buf`.
///
/// Frame layout: `u32` big-endian payload length, then the payload. JSON
/// keeps frames human-inspectable in traces; the framing layer is format-
/// agnostic.
pub fn encode_frame<M: Serialize>(msg: &M, buf: &mut BytesMut) -> Result<(), AvdbError> {
    let payload = serde_json::to_vec(msg).map_err(|e| AvdbError::Codec(e.to_string()))?;
    buf.reserve(4 + payload.len());
    buf.put_u32(payload.len() as u32);
    buf.put_slice(&payload);
    Ok(())
}

/// Decodes one frame from `buf` if a complete one is available, consuming
/// its bytes. Returns `Ok(None)` when more bytes are needed.
pub fn decode_frame<M: DeserializeOwned>(buf: &mut BytesMut) -> Result<Option<M>, AvdbError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if buf.len() < 4 + len {
        return Ok(None);
    }
    buf.advance(4);
    let payload = buf.split_to(len);
    serde_json::from_slice(&payload)
        .map(Some)
        .map_err(|e| AvdbError::Codec(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Ctx, MsgInfo};
    use serde::Deserialize;
    use std::time::{Duration, Instant};

    #[derive(Clone, Debug, PartialEq)]
    enum Echo {
        Ping(u64),
        Pong(u64),
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
                Echo::Ping(v) => ctx.send(from, Echo::Pong(v)),
                Echo::Pong(v) => ctx.emit(v),
            }
        }
    }

    #[test]
    fn live_ping_pong_collects_outputs_and_counts() {
        let runner = LiveRunner::spawn(vec![EchoActor { n: 3 }, EchoActor { n: 3 }, EchoActor { n: 3 }], 7);
        runner.inject(SiteId(0), 42);
        // Wait for 2 pongs to come back.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut outs = Vec::new();
        while outs.len() < 2 && Instant::now() < deadline {
            outs.extend(runner.wait_outputs(deadline.saturating_duration_since(Instant::now())));
        }
        let (_, counters, _) = runner.shutdown();
        assert_eq!(outs.len(), 2);
        assert!(outs.iter().all(|(_, s, v)| *s == SiteId(0) && *v == 42));
        assert_eq!(counters.total_messages(), 4);
        assert_eq!(counters.total_correspondences(), 2);
    }

    impl Introspect for EchoActor {
        fn metrics_text(&self) -> String {
            format!("echo_sites_total {}\n", self.n)
        }
        fn status_json(&self) -> String {
            format!("{{\"sites\":{}}}", self.n)
        }
    }

    #[test]
    fn live_inspect_answers_between_events() {
        let runner = LiveRunner::spawn_with_inspect(
            vec![EchoActor { n: 2 }, EchoActor { n: 2 }],
            5,
        );
        assert_eq!(
            runner.inspect(SiteId(0), "/metrics").as_deref(),
            Some("echo_sites_total 2\n")
        );
        assert_eq!(
            runner.inspect(SiteId(1), "/status").as_deref(),
            Some("{\"sites\":2}")
        );
        assert_eq!(runner.inspect(SiteId(0), "/nope"), None);
        runner.shutdown();
    }

    #[test]
    fn live_inspect_without_handler_returns_none() {
        let runner = LiveRunner::spawn(vec![EchoActor { n: 1 }], 5);
        assert_eq!(runner.inspect(SiteId(0), "/metrics"), None);
        runner.shutdown();
    }

    #[test]
    fn live_timers_fire() {
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
        let runner = LiveRunner::spawn(vec![TimerActor], 0);
        runner.inject(SiteId(0), ());
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut outs = Vec::new();
        while outs.len() < 2 && Instant::now() < deadline {
            outs.extend(runner.wait_outputs(deadline.saturating_duration_since(Instant::now())));
        }
        let (_, _, _) = runner.shutdown();
        let tokens: Vec<u64> = outs.iter().map(|(_, _, t)| *t).collect();
        assert_eq!(tokens, vec![2, 1], "earlier deadline fires first");
    }

    #[test]
    fn wait_outputs_returns_on_emit_and_empty_at_timeout() {
        let runner = LiveRunner::spawn(vec![EchoActor { n: 2 }, EchoActor { n: 2 }], 3);
        let idle_from = Instant::now();
        assert!(runner.wait_outputs(Duration::from_millis(30)).is_empty());
        assert!(idle_from.elapsed() >= Duration::from_millis(30), "returned before its timeout");

        // Blocked long before the input exists: only the emit can end
        // the wait this early.
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let from = Instant::now();
                (runner.wait_outputs(Duration::from_secs(20)), from.elapsed())
            });
            runner.inject(SiteId(0), 9);
            let (outs, waited) = waiter.join().expect("waiter thread");
            assert_eq!(outs.len(), 1);
            assert_eq!(outs[0].2, 9);
            assert!(waited < Duration::from_secs(10), "woke on the timeout, not the emit");
        });
        assert!(runner.drain_outputs().is_empty(), "the waiter took the only output");
        runner.shutdown();
    }

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    struct Wire {
        seq: u64,
        body: String,
    }

    #[test]
    fn codec_round_trips_multiple_frames() {
        let mut buf = BytesMut::new();
        let a = Wire { seq: 1, body: "hello".into() };
        let b = Wire { seq: 2, body: "world".into() };
        encode_frame(&a, &mut buf).unwrap();
        encode_frame(&b, &mut buf).unwrap();
        let got_a: Wire = decode_frame(&mut buf).unwrap().unwrap();
        let got_b: Wire = decode_frame(&mut buf).unwrap().unwrap();
        assert_eq!(got_a, a);
        assert_eq!(got_b, b);
        assert!(decode_frame::<Wire>(&mut buf).unwrap().is_none());
        assert!(buf.is_empty());
    }

    #[test]
    fn codec_handles_partial_frames() {
        let mut full = BytesMut::new();
        encode_frame(&Wire { seq: 9, body: "partial".into() }, &mut full).unwrap();
        let mut buf = BytesMut::new();
        for chunk in full.chunks(3) {
            // Before the frame completes, decode returns None.
            let before: Option<Wire> = decode_frame(&mut buf).unwrap();
            if buf.len() + chunk.len() < full.len() {
                assert!(before.is_none());
            }
            buf.extend_from_slice(chunk);
        }
        let decoded: Wire = decode_frame(&mut buf).unwrap().unwrap();
        assert_eq!(decoded.seq, 9);
    }

    #[test]
    fn codec_rejects_garbage_payload() {
        let mut buf = BytesMut::new();
        buf.put_u32(3);
        buf.put_slice(b"{{{");
        let err = decode_frame::<Wire>(&mut buf).unwrap_err();
        assert!(matches!(err, AvdbError::Codec(_)));
    }
}
