//! The live runtime's core: the handle a harness holds, a site's event
//! loop, the two ways its outputs leave (a blocking queue, or an
//! [`OutputSink`] run on the emitting thread), and the in-flight counts
//! [`Live::quiesce`] waits on.
//!
//! One thread per site runs the loop: inputs, decoded messages and
//! queries ([`Live::query`]) arrive on a channel, timers come off a
//! deadline heap served with `recv_timeout`, virtual time is wall-clock
//! milliseconds since the mesh started. A query runs on the site's
//! thread between two handler invocations, so it reads the actor without
//! a lock and never mid-dispatch. How a message leaves a site (a framed
//! socket write, `tcp.rs`) is the `send` step `run_site` is
//! parameterised by.

use crate::actor::{Actor, Ctx, MsgInfo};
use crate::counters::Counters;
use crate::inspect::{answer, Introspect};
use crate::rng::DetRng;
use avdb_types::{SiteId, VirtualTime};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::{Mutex, RwLock};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub(crate) enum SiteEvent<A: Actor> {
    /// A message from a peer.
    Msg { from: SiteId, msg: A::Msg },
    /// An injected external input.
    Input(A::Input),
    /// A read of the actor ([`Live::query`]), run between handler
    /// invocations.
    Query(Box<dyn FnOnce(&A) + Send>),
    /// Stop the site.
    Shutdown,
}

/// How long a query waits for its site to answer.
const QUERY_TIMEOUT: Duration = Duration::from_secs(5);

/// Runs `f` on the actor behind `mailbox` between two of its handler
/// invocations and returns its result; `None` when the site is gone or
/// did not answer within [`QUERY_TIMEOUT`].
pub(crate) fn query<A: Actor, R: Send + 'static>(
    mailbox: &Sender<SiteEvent<A>>,
    f: impl FnOnce(&A) -> R + Send + 'static,
) -> Option<R> {
    let (reply, answer) = crossbeam::channel::bounded(1);
    let ask = Box::new(move |actor: &A| {
        let _ = reply.send(f(actor));
    });
    mailbox.send(SiteEvent::Query(ask)).ok()?;
    answer.recv_timeout(QUERY_TIMEOUT).ok()
}

/// Timestamped outputs collected from all sites.
pub type Outputs<O> = Vec<(VirtualTime, SiteId, O)>;

/// Consumes outputs on the site thread that emitted them, in place of
/// the queue ([`Live::set_sink`]).
pub trait OutputSink<O>: Send + Sync {
    /// Takes what one handler invocation at `site` emitted. Called before
    /// that invocation's input or message counts as done, so once
    /// [`Live::quiesce`] returns every output has been taken.
    fn take(&self, site: SiteId, outputs: Outputs<O>);
    /// Called when `site`'s mailbox is empty, just before its thread
    /// blocks, and once when the site stops.
    fn idle(&self, site: SiteId);
}

/// Every site's outputs, handed over without a timed wait: a site thread
/// pushes and signals, a consumer either takes what is there or blocks
/// until there is something. A waiter holds the lock only while it is
/// awake, so it never delays a push or a non-blocking take.
pub(crate) struct OutputQueue<O> {
    // A plain `std` mutex, because that is what a `Condvar` waits on.
    // Every update (extend, take) leaves the vector valid, so a lock
    // poisoned by a panicking holder is recovered, as the workspace's
    // `parking_lot` locks do.
    pending: std::sync::Mutex<Outputs<O>>,
    ready: Condvar,
}

impl<O> OutputQueue<O> {
    fn new() -> Self {
        OutputQueue { pending: std::sync::Mutex::new(Vec::new()), ready: Condvar::new() }
    }

    fn lock(&self) -> MutexGuard<'_, Outputs<O>> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, outs: Outputs<O>) {
        self.lock().extend(outs);
        self.ready.notify_one();
    }

    /// Takes everything emitted so far; never blocks.
    fn drain(&self) -> Outputs<O> {
        std::mem::take(&mut *self.lock())
    }

    /// Takes everything emitted so far, first blocking while there is
    /// nothing, for at most `timeout`.
    fn wait(&self, timeout: Duration) -> Outputs<O> {
        let (mut pending, _) = self
            .ready
            .wait_timeout_while(self.lock(), timeout, |p| p.is_empty())
            .unwrap_or_else(PoisonError::into_inner);
        std::mem::take(&mut *pending)
    }
}

/// State all site threads of one mesh write to.
pub(crate) struct Shared<O> {
    counters: Mutex<Counters>,
    outputs: OutputQueue<O>,
    /// Where outputs go instead of `outputs`, while one is installed. A
    /// running `take` or `idle` holds the read lock, so replacing the
    /// sink waits for it.
    sink: RwLock<Option<Arc<dyn OutputSink<O>>>>,
    /// Set by [`Live::shutdown`] once every site has stopped: the HTTP
    /// accept loops return at their next connection.
    pub(crate) stopped: AtomicBool,
    epoch: Instant,
    /// Per destination site: messages and inputs handed to it so far.
    sent: Vec<AtomicU64>,
    /// Per site: of those, the ones it has handled or that were dropped
    /// on the way. `sent - done` is what is in flight to the site. Two
    /// monotone counts rather than one gauge, so that a count that went
    /// up and back down between two reads cannot pass for a quiet one.
    done: Vec<AtomicU64>,
}

impl<O> Shared<O> {
    pub(crate) fn new(n_sites: usize) -> Arc<Self> {
        let zeros = || (0..n_sites).map(|_| AtomicU64::new(0)).collect();
        Arc::new(Shared {
            counters: Mutex::new(Counters::new()),
            outputs: OutputQueue::new(),
            sink: RwLock::new(None),
            stopped: AtomicBool::new(false),
            epoch: Instant::now(),
            sent: zeros(),
            done: zeros(),
        })
    }

    fn idle(&self, site: SiteId) {
        if let Some(sink) = &*self.sink.read() {
            sink.idle(site);
        }
    }

    fn now(&self) -> VirtualTime {
        VirtualTime(self.epoch.elapsed().as_millis() as u64)
    }

    /// Counts one message or input towards `site`; called before it is sent.
    fn send_begun(&self, site: SiteId) {
        self.sent[site.index()].fetch_add(1, SeqCst);
    }

    /// Counts one message or input towards `site` as finished with.
    fn send_done(&self, site: SiteId) {
        self.done[site.index()].fetch_add(1, SeqCst);
    }

    /// Whether nothing is in flight to any site `running` names. Reads
    /// every `done`, then every `sent`, then every `done` again: if no
    /// `done` moved in between and each equals its `sent`, there was an
    /// instant with nothing in flight, because a handler counts its
    /// sends before its own message counts as done.
    fn quiet(&self, running: impl Fn(usize) -> bool) -> bool {
        let done: Vec<u64> = self.done.iter().map(|d| d.load(SeqCst)).collect();
        let sent: Vec<u64> = self.sent.iter().map(|s| s.load(SeqCst)).collect();
        (0..done.len()).all(|i| {
            !running(i) || (sent[i] == done[i] && self.done[i].load(SeqCst) == done[i])
        })
    }
}

/// One site: its actor and what a handler invocation needs around it.
struct Site<'a, A: Actor, S> {
    me: SiteId,
    actor: A,
    rng: DetRng,
    /// Min-heap of (deadline, token).
    timers: BinaryHeap<Reverse<(Instant, u64)>>,
    shared: &'a Shared<A::Output>,
    send: S,
}

impl<A: Actor, S: FnMut(SiteId, A::Msg) -> bool> Site<'_, A, S> {
    /// Runs one handler and carries out the effects it asked for.
    fn dispatch(&mut self, handler: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg, A::Output>)) {
        let mut ctx = Ctx::new(self.me, self.shared.now(), &mut self.rng);
        handler(&mut self.actor, &mut ctx);
        let Ctx { sends, timers, outputs, .. } = ctx;
        {
            let mut c = self.shared.counters.lock();
            for (to, msg) in &sends {
                c.record_send(self.me, *to, msg.kind());
            }
        }
        for (to, msg) in sends {
            self.shared.send_begun(to);
            if !(self.send)(to, msg) {
                self.shared.counters.lock().record_drop();
                self.shared.send_done(to);
            }
        }
        for (delay, token) in timers {
            self.timers.push(Reverse((Instant::now() + Duration::from_millis(delay), token)));
        }
        if !outputs.is_empty() {
            let (t, me) = (self.shared.now(), self.me);
            let outputs = outputs.into_iter().map(|o| (t, me, o)).collect();
            match &*self.shared.sink.read() {
                Some(sink) => sink.take(me, outputs),
                None => self.shared.outputs.push(outputs),
            }
        }
    }
}

/// Runs `actor` as site `me` until its channel closes or says
/// [`SiteEvent::Shutdown`], and hands it back. `send` carries one message
/// towards a peer and returns `false` when it was dropped instead (a
/// closed channel, an unwritable socket — equivalent to a crashed peer).
pub(crate) fn run_site<A: Actor>(
    me: SiteId,
    actor: A,
    rng: DetRng,
    rx: Receiver<SiteEvent<A>>,
    shared: &Shared<A::Output>,
    send: impl FnMut(SiteId, A::Msg) -> bool,
) -> A {
    let mut site = Site { me, actor, rng, timers: BinaryHeap::new(), shared, send };
    site.dispatch(|actor, ctx| actor.on_start(ctx));
    loop {
        // Fire due timers first.
        while let Some(&Reverse((deadline, token))) = site.timers.peek() {
            if deadline > Instant::now() {
                break;
            }
            site.timers.pop();
            site.dispatch(|actor, ctx| actor.on_timer(ctx, token));
        }
        let received = match rx.try_recv() {
            Err(TryRecvError::Empty) => {
                shared.idle(me);
                match site.timers.peek() {
                    Some(&Reverse((deadline, _))) => {
                        rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
                    }
                    None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                }
            }
            other => other.map_err(|_| RecvTimeoutError::Disconnected),
        };
        let ev = match received {
            Ok(ev) => ev,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        match ev {
            SiteEvent::Shutdown => break,
            SiteEvent::Query(ask) => ask(&site.actor),
            SiteEvent::Input(input) => {
                site.dispatch(|actor, ctx| actor.on_input(ctx, input));
                shared.send_done(me);
            }
            SiteEvent::Msg { from, msg } => {
                shared.counters.lock().record_delivery(me);
                site.dispatch(|actor, ctx| actor.on_message(ctx, from, msg));
                shared.send_done(me);
            }
        }
    }
    shared.idle(me);
    site.actor
}

/// Senders into every site's event loop, indexed by site.
pub(crate) type Mailboxes<A> = Vec<Sender<SiteEvent<A>>>;

/// The first and the longest pause between two looks at the in-flight
/// counts ([`Live::quiesce`] doubles its pause each time) or at a killed
/// site's thread ([`Live::kill`]).
const POLL_PAUSE: (Duration, Duration) = (Duration::from_micros(50), Duration::from_millis(2));

/// Handle to a running live system: one thread per site, connected by
/// loopback sockets (see [`crate::TcpMesh`] for how it is spawned).
///
/// Dropping the handle without calling [`Live::shutdown`] detaches the
/// threads; always shut down to collect actors, counters and outputs.
pub struct Live<A: Actor> {
    pub(crate) mailboxes: Mailboxes<A>,
    pub(crate) handles: Vec<JoinHandle<A>>,
    pub(crate) shared: Arc<Shared<A::Output>>,
    /// Each HTTP listener's address and accept thread
    /// ([`crate::TcpMesh::spawn_with_http`]), stopped by [`Live::shutdown`].
    pub(crate) http: Vec<(SocketAddr, JoinHandle<()>)>,
}

impl<A: Actor> Live<A> {
    /// Injects an external input at `site`.
    pub fn inject(&self, site: SiteId, input: A::Input) {
        self.shared.send_begun(site);
        // A send to a shut-down site is silently dropped, mirroring the
        // simulator's lost-input behaviour.
        if self.mailboxes[site.index()].send(SiteEvent::Input(input)).is_err() {
            self.shared.send_done(site);
        }
    }

    /// Blocks until nothing is in flight: every input injected and every
    /// message sent has been handled by its site or dropped, and so has
    /// everything those handlers sent. Sites whose thread has exited
    /// ([`Live::kill`]) are skipped, and armed timers do not count. By
    /// then every output those handlers emitted is queued. `false` when
    /// `timeout` passed first.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut pause = POLL_PAUSE.0;
        loop {
            if self.shared.quiet(|i| !self.handles[i].is_finished()) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(pause);
            pause = (pause * 2).min(POLL_PAUSE.1);
        }
    }

    /// Runs `f` on `site`'s actor, on the site's own thread between two
    /// handler invocations, and returns its result: a consistent
    /// snapshot taken between protocol events. `None` when the site is
    /// gone or did not answer within five seconds.
    pub fn query<R: Send + 'static>(
        &self,
        site: SiteId,
        f: impl FnOnce(&A) -> R + Send + 'static,
    ) -> Option<R> {
        query(&self.mailboxes[site.index()], f)
    }

    /// Fail-stops one site and returns once its thread has exited. Later
    /// messages to it are lost: counted as drops once its sockets close,
    /// and never waited for by [`Live::quiesce`]. There is no live
    /// respawn (a restarted site would need its durable state handed
    /// back); use the simulator for crash-recovery experiments.
    pub fn kill(&self, site: SiteId) {
        let _ = self.mailboxes[site.index()].send(SiteEvent::Shutdown);
        while !self.handles[site.index()].is_finished() {
            std::thread::sleep(POLL_PAUSE.0);
        }
    }

    /// Snapshot of the traffic counters while running.
    pub fn counters_snapshot(&self) -> crate::counters::CountersSnapshot {
        self.shared.counters.lock().snapshot()
    }

    /// Takes all outputs emitted so far; never blocks, also not while
    /// another thread is blocked in [`Live::wait_outputs`].
    pub fn drain_outputs(&self) -> Outputs<A::Output> {
        self.shared.outputs.drain()
    }

    /// Takes all outputs emitted so far, blocking until a site emits one
    /// if there are none. Empty when nothing was emitted within `timeout`.
    pub fn wait_outputs(&self, timeout: Duration) -> Outputs<A::Output> {
        self.shared.outputs.wait(timeout)
    }

    /// Installs `sink` (or, with `None`, removes the one installed): from
    /// the next handler on, outputs go to it on the emitting site's thread
    /// instead of to the queue. Returns once no `take` or `idle` of the
    /// sink it replaced is running.
    pub fn set_sink(&self, sink: Option<Arc<dyn OutputSink<A::Output>>>) {
        *self.shared.sink.write() = sink;
    }

    /// Stops every site, then every HTTP listener, and returns (actors,
    /// counters, remaining outputs). Every thread the mesh started has
    /// been joined by then, unless a listener could not be reached.
    pub fn shutdown(self) -> (Vec<A>, Counters, Outputs<A::Output>) {
        for mailbox in &self.mailboxes {
            let _ = mailbox.send(SiteEvent::Shutdown);
        }
        let actors =
            self.handles.into_iter().map(|h| h.join().expect("site thread panicked")).collect();
        // An accept loop blocks in `accept`; a connection wakes it to see
        // the flag.
        self.shared.stopped.store(true, SeqCst);
        for (addr, h) in self.http {
            if TcpStream::connect(addr).is_ok() {
                h.join().expect("http thread panicked");
            }
        }
        (actors, self.shared.counters.lock().clone(), self.shared.outputs.drain())
    }
}

impl<A: Actor + Introspect> Live<A> {
    /// Answers an introspection path (`"/metrics"`, `"/status"`) against
    /// `site`'s actor through [`Live::query`]. `None` for an unknown
    /// path or a site that is gone or unresponsive.
    pub fn inspect(&self, site: SiteId, path: &str) -> Option<String> {
        let path = path.to_string();
        self.query(site, move |actor| answer(actor, &path)).flatten()
    }
}
