//! Load drivers over `avdb_client::Connection`.
//!
//! **Open loop** ([`open_loop`]): request `i` is due at `t0 + offset +
//! i × interval` whatever the system does, and its latency runs from that
//! due time — so a stall is charged to every request that was due during
//! it, not only to the one that happened to be in flight. One dispatcher
//! per connection releases requests on schedule to a pool of waiter
//! threads; each waiter submits one request and blocks on *its own*
//! reply, so completion is stamped the moment that reply is available,
//! never behind a slower request ahead of it in the pipeline. The pool is
//! as large as the gateway's in-flight window: when every waiter is busy
//! the next request waits in the dispatcher's queue, still on the clock.
//! The waiters sleep; at most one thread per connection is ever runnable
//! on the driver's behalf.
//!
//! **Closed loop** ([`closed_loop`]): one thread per connection keeps
//! `window` requests in flight and sends the next only when the oldest
//! completes; used to find what the cluster resolves per second.

use crate::trace::Tracer;
use crate::workload::{lane_of, Lane};
use avdb_client::{ClientError, Connection};
use avdb_wire::{Request, Response};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a waiter waits for one reply before the request counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Committed,
    /// A protocol abort: an outcome, not a failure.
    Aborted,
    ReadOk,
    /// No usable reply: wire error, typed gateway error, timeout, or a
    /// reply of a kind no driven request asks for.
    Failed,
}

fn classify(result: Result<Response, ClientError>) -> Outcome {
    match result {
        Ok(Response::Committed { .. }) => Outcome::Committed,
        Ok(Response::Aborted { .. }) => Outcome::Aborted,
        Ok(Response::ReadOk { .. }) => Outcome::ReadOk,
        Ok(Response::Pong | Response::StatusOk { .. } | Response::Error { .. }) | Err(_) => {
            Outcome::Failed
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub lane: Lane,
    pub outcome: Outcome,
    /// Due time, nanoseconds after the phase's `t0`.
    pub due_ns: u64,
    /// Reply available − due time.
    pub latency_ns: u64,
    /// Dispatcher release − due time: how late the generator ran.
    pub late_ns: u64,
    /// Time inside `Connection::submit`.
    pub submit_ns: u64,
}

/// Sleeps most of the way to `due`, then yields the last stretch: a plain
/// sleep overshoots by the kernel's timer slack (~60 µs), which would be
/// charged to every request as latency.
fn sleep_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(80);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Drives `reqs` through `conn` on a fixed schedule; returns one sample
/// per request. `request_base + i` is the request id its spans carry.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    conn: &Connection,
    reqs: &[Request],
    t0: Instant,
    offset: Duration,
    interval: Duration,
    waiters: usize,
    tracer: Option<&Tracer>,
    request_base: u64,
) -> Vec<Sample> {
    let (tx, rx) = mpsc::channel::<(usize, Instant, u64)>();
    let rx = Arc::new(Mutex::new(rx));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..waiters)
            .map(|_| {
                let rx = Arc::clone(&rx);
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    loop {
                        // The lock is held while blocked in `recv`: the other
                        // idle waiters queue on the mutex, which is the same
                        // hand-off with one fewer wake-up.
                        let job = rx.lock().expect("a waiter never panics holding it").recv();
                        let Ok((i, due, late_ns)) = job else { break };
                        let picked = Instant::now();
                        let pending = conn.submit(&reqs[i]);
                        let sent = Instant::now();
                        let outcome = classify(pending.and_then(|p| p.wait(REPLY_TIMEOUT)));
                        let done = Instant::now();
                        samples.push(Sample {
                            lane: lane_of(&reqs[i]),
                            outcome,
                            due_ns: (due - t0).as_nanos() as u64,
                            latency_ns: done.saturating_duration_since(due).as_nanos() as u64,
                            late_ns,
                            submit_ns: (sent - picked).as_nanos() as u64,
                        });
                        if let Some(t) = tracer {
                            let id = request_base + i as u64;
                            let root = t.record("request", due, done, None, id);
                            t.record("driver.queue", due, picked.max(due), root, id);
                            t.record("client.submit", picked, sent, root, id);
                            t.record("reply.wait", sent, done, root, id);
                        }
                    }
                    samples
                })
            })
            .collect();
        for i in 0..reqs.len() {
            let due = t0 + offset + interval * i as u32;
            sleep_until(due);
            let late_ns = Instant::now().saturating_duration_since(due).as_nanos() as u64;
            if tx.send((i, due, late_ns)).is_err() {
                break;
            }
        }
        drop(tx);
        let mut all: Vec<Sample> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("open-loop waiter panicked"))
            .collect();
        all.sort_by_key(|s| s.due_ns);
        all
    })
}

/// One closed-loop completion: when (after `t0`) and how it ended.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    pub done_ns: u64,
    pub outcome: Outcome,
}

/// Keeps `window` requests in flight on `conn` until `reqs` runs out, then
/// drains. Replies are awaited oldest first, which for one site's covered
/// updates is also completion order.
pub fn closed_loop(
    conn: &Connection,
    reqs: &mut dyn Iterator<Item = Request>,
    window: usize,
    t0: Instant,
) -> Vec<Completion> {
    let mut done = Vec::new();
    let mut pending: VecDeque<avdb_client::PendingReply> = VecDeque::with_capacity(window);
    let mut settle = |reply: Result<Response, ClientError>| {
        done.push(Completion {
            done_ns: t0.elapsed().as_nanos() as u64,
            outcome: classify(reply),
        });
    };
    for req in reqs {
        match conn.submit(&req) {
            Ok(reply) => pending.push_back(reply),
            Err(e) => settle(Err(e)),
        }
        if pending.len() >= window {
            let head = pending.pop_front().expect("window is at least one");
            settle(head.wait(REPLY_TIMEOUT));
        }
    }
    for reply in pending {
        settle(reply.wait(REPLY_TIMEOUT));
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use avdb_wire::{encode_response, CommitKind, Decoder};
    use bytes::BytesMut;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A wire-protocol echo server that commits every update at once,
    /// except that it stops reading for `stall` when it meets request
    /// number `stall_at`. Returns its address and the instant the stall
    /// began (filled in when it happens).
    fn stub_server(
        stall_at: u64,
        stall: Duration,
    ) -> (
        std::net::SocketAddr,
        Arc<Mutex<Option<Instant>>>,
        std::thread::JoinHandle<()>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().expect("stub addr");
        let stalled_at = Arc::new(Mutex::new(None));
        let mark = Arc::clone(&stalled_at);
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            stream.set_nodelay(true).expect("nodelay");
            let mut dec = Decoder::new();
            let mut chunk = [0u8; 4096];
            let mut seen = 0u64;
            loop {
                let n = match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => n,
                };
                dec.extend(&chunk[..n]);
                let mut out = BytesMut::new();
                while let Ok(Some((req_id, _))) = dec.next_request() {
                    seen += 1;
                    if seen == stall_at {
                        *mark.lock().unwrap() = Some(Instant::now());
                        std::thread::sleep(stall);
                    }
                    let resp = Response::Committed {
                        txn: req_id,
                        kind: CommitKind::Delay,
                        completed_at: 0,
                        correspondences: 0,
                    };
                    encode_response(req_id, &resp, &mut out);
                }
                if stream.write_all(&out).is_err() {
                    return;
                }
            }
        });
        (addr, stalled_at, handle)
    }

    #[test]
    fn a_stall_is_charged_to_every_request_due_during_it() {
        let stall = Duration::from_millis(200);
        let (addr, stalled_at, server) = stub_server(200, stall);
        let conn = Connection::connect(addr).expect("connect stub");
        let reqs: Vec<Request> = crate::workload::Covered::new(1, 0).take(600).collect();
        let t0 = Instant::now();
        // 1000 requests/s for 0.6 s; only 4 waiters, so during the stall
        // most requests cannot even be sent — they wait in the
        // dispatcher's queue, and must still be timed from their due time.
        let samples = open_loop(
            &conn,
            &reqs,
            t0,
            Duration::ZERO,
            Duration::from_millis(1),
            4,
            None,
            0,
        );
        conn.close();
        server.join().expect("stub server");
        assert_eq!(samples.len(), 600);
        assert!(samples.iter().all(|s| s.outcome == Outcome::Committed));

        let began = stalled_at.lock().unwrap().expect("the stall happened");
        let began_ns = (began - t0).as_nanos() as u64;
        let ended_ns = began_ns + stall.as_nanos() as u64;
        let slack = 5_000_000; // 5 ms around the edges of the stall
        let during: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.due_ns > began_ns + slack && s.due_ns < ended_ns - slack)
            .collect();
        assert!(
            during.len() >= 150,
            "only {} requests were due during the stall",
            during.len()
        );
        for s in &during {
            let owed = ended_ns - s.due_ns;
            assert!(
                s.latency_ns + 2_000_000 >= owed,
                "request due {} ms into the run was charged {} ms, owed at least {} ms",
                s.due_ns / 1_000_000,
                s.latency_ns / 1_000_000,
                owed / 1_000_000
            );
        }
        // Before the stall the same driver sees an idle echo server.
        let mut before: Vec<u64> = samples
            .iter()
            .filter(|s| s.due_ns < began_ns - slack)
            .map(|s| s.latency_ns)
            .collect();
        before.sort_unstable();
        assert!(crate::metrics::percentile(&before, 0.5) < 5_000_000.0);
        // The generator itself ran on time, and says how late it was.
        let mut late: Vec<u64> = samples.iter().map(|s| s.late_ns).collect();
        late.sort_unstable();
        assert!(
            crate::metrics::percentile(&late, 0.5) < 1_000_000.0,
            "generator median lateness"
        );
    }

    #[test]
    fn closed_loop_resolves_every_request_it_sent() {
        let (addr, _, server) = stub_server(u64::MAX, Duration::ZERO);
        let conn = Connection::connect(addr).expect("connect stub");
        let t0 = Instant::now();
        let mut reqs = crate::workload::Covered::new(2, 0).take(5_000);
        let done = closed_loop(&conn, &mut reqs, 32, t0);
        conn.close();
        server.join().expect("stub server");
        assert_eq!(done.len(), 5_000);
        assert!(done.iter().all(|c| c.outcome == Outcome::Committed));
        assert!(done.windows(2).all(|w| w[0].done_ns <= w[1].done_ns));
    }
}
