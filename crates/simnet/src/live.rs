//! The live runtime's core: the handle a harness holds ([`Live`]), one
//! site's loop, the client front a site may serve ([`Front`]), and the
//! in-flight counts [`Live::quiesce`] waits on.
//!
//! One thread per site does everything that site does, waiting in one
//! `poll(2)` ([`crate::poll`]) over its mesh links, its wake socket and
//! the sockets of an attached [`Front`]. A turn of the loop fires due
//! timers, handles what the mailbox holds (inputs, queries, a front to
//! attach or detach, the stop), writes what the turn queued, waits, and
//! serves what became ready: one bounded read per socket, so no peer or
//! client starves another. The wait's timeout is the next timer's
//! deadline. Virtual time is wall-clock milliseconds since the mesh
//! started.
//!
//! Other threads reach a site only through its mailbox. A sender rings
//! the site's bell only when the site has announced that it is about to
//! park, and the site announces that before its last look at the
//! mailbox, so no wake is lost and a busy site pays no system call for
//! an inject. A query runs on the site's thread between two handler
//! invocations, so it reads the actor without a lock and never
//! mid-dispatch. Outputs go to the attached front, on the emitting
//! thread, or else to a blocking queue ([`Live::wait_outputs`]).

use crate::actor::{Actor, Ctx, MsgInfo};
use crate::counters::{Counters, CountersSnapshot};
use crate::inspect::{answer, Introspect};
use crate::poll::{self, PollFd, POLLIN};
use crate::rng::DetRng;
use crate::tcp::Links;
use crate::transport::MeshCodec;
use avdb_types::{SiteId, VirtualTime};
use parking_lot::Mutex;
use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub(crate) enum SiteEvent<A: Actor> {
    /// An injected external input.
    Input(A::Input),
    /// A read of the actor ([`Live::query`]), run between handler
    /// invocations.
    Query(Box<dyn FnOnce(&A) + Send>),
    /// Serve this front from now on ([`Live::attach`]).
    Attach(Box<dyn Front<A>>),
    /// Hand the attached front back ([`Live::detach`]); one whose
    /// detach gave up waiting stays attached.
    Detach(Sender<Box<dyn Front<A>>>),
    /// Stop the site.
    Shutdown,
}

/// What other threads hand one site, and whether it has announced a
/// park. One lock orders a push against the site's last look before it
/// parks, so no wake is lost; a sender writes the wake byte only to a
/// parked site, so a busy one pays no system call.
struct Queue<T> {
    events: VecDeque<T>,
    parked: bool,
    closed: bool,
}

/// A way into one site's loop; every clone holds its own end of the
/// site's wake socket, which reads end of file once all are gone.
pub(crate) struct Mailbox<T> {
    queue: Arc<Mutex<Queue<T>>>,
    wake: UnixStream,
}

/// The site's end of its mailbox.
pub(crate) struct Inbox<T> {
    queue: Arc<Mutex<Queue<T>>>,
    wake: UnixStream,
}

/// A site's mailbox, both ends.
pub(crate) fn mailbox<T>() -> (Mailbox<T>, Inbox<T>) {
    let (ring, hear) = UnixStream::pair().expect("wake socket pair");
    for s in [&ring, &hear] {
        s.set_nonblocking(true).expect("non-blocking wake socket");
    }
    let queue = Arc::new(Mutex::new(Queue { events: VecDeque::new(), parked: false, closed: false }));
    (Mailbox { queue: Arc::clone(&queue), wake: ring }, Inbox { queue, wake: hear })
}

impl<T> Mailbox<T> {
    /// Queues `ev` and wakes the site if it parked; `false`, with `ev`
    /// dropped, once the site has stopped.
    pub(crate) fn send(&self, ev: T) -> bool {
        let mut queue = self.queue.lock();
        if queue.closed {
            return false;
        }
        queue.events.push_back(ev);
        let ring = std::mem::take(&mut queue.parked);
        drop(queue);
        if ring {
            let _ = (&self.wake).write(&[1]);
        }
        true
    }
}

impl<T> Clone for Mailbox<T> {
    fn clone(&self) -> Self {
        let wake = self.wake.try_clone().expect("clone wake socket");
        Mailbox { queue: Arc::clone(&self.queue), wake }
    }
}

impl<T> Inbox<T> {
    pub(crate) fn next(&self) -> Option<T> {
        self.queue.lock().events.pop_front()
    }

    /// Announces a park unless an event is waiting; `true` when parked.
    pub(crate) fn park(&self) -> bool {
        let mut queue = self.queue.lock();
        queue.parked = queue.events.is_empty();
        queue.parked
    }

    /// Ends a park, reading away the wake bytes once the wait reported
    /// them (`readable`). `false` when every mailbox is gone.
    pub(crate) fn unpark(&self, readable: bool) -> bool {
        self.queue.lock().parked = false;
        let mut sink = [0u8; 64];
        loop {
            match readable.then(|| (&self.wake).read(&mut sink)) {
                Some(Ok(0)) => return false,
                Some(Ok(_)) => {}
                _ => return true,
            }
        }
    }

    /// The wake socket, to wait on for reading.
    pub(crate) fn poll_fd(&self) -> PollFd {
        PollFd::new(&self.wake, POLLIN)
    }

    /// Refuses every later send and drops what is queued: the site stopped.
    fn close(&self) {
        let mut queue = self.queue.lock();
        queue.closed = true;
        let dropped = std::mem::take(&mut queue.events);
        drop(queue);
        drop(dropped);
    }
}

/// How long a query or a detach waits for its site to answer.
const QUERY_TIMEOUT: Duration = Duration::from_secs(5);

/// Events one turn takes from the mailbox before the sockets get theirs.
const MAILBOX_TURN: usize = 64;

/// Runs `f` on the actor behind `mailbox` between two of its handler
/// invocations and returns its result; `None` when the site is gone or
/// did not answer within [`QUERY_TIMEOUT`].
pub(crate) fn query<A: Actor, R: Send + 'static>(
    mailbox: &Mailbox<SiteEvent<A>>,
    f: impl FnOnce(&A) -> R + Send + 'static,
) -> Option<R> {
    let (reply, answer) = mpsc::sync_channel(1);
    let ask = Box::new(move |actor: &A| {
        let _ = reply.send(f(actor));
    });
    if !mailbox.send(SiteEvent::Query(ask)) {
        return None;
    }
    answer.recv_timeout(QUERY_TIMEOUT).ok()
}

/// Timestamped outputs collected from all sites.
pub type Outputs<O> = Vec<(VirtualTime, SiteId, O)>;

/// Where a stopping site leaves the front it still served, flushed, for
/// [`Live::detach`] to take back.
pub(crate) type Left<A> = Arc<Mutex<Option<Box<dyn Front<A>>>>>;

/// A client front door a site's own loop serves ([`Live::attach`]): its
/// sockets join the site's wait, its requests become handler invocations
/// on the site's thread, and the site's outputs go to it. Every method
/// runs on that thread, so a front needs no lock. A site that stops
/// flushes the front it serves and leaves it for [`Live::detach`].
pub trait Front<A: Actor>: Any + Send {
    /// Appends the sockets this turn's wait watches, with the events
    /// wanted.
    fn interest(&mut self, fds: &mut Vec<PollFd>);
    /// Serves the sockets the last [`Front::interest`] appended, in the
    /// same order, with what the wait found.
    fn serve(&mut self, ready: &[PollFd], site: &mut Site<A>);
    /// Takes what one handler emitted, before that handler's input or
    /// message counts as done: once [`Live::quiesce`] returns, every
    /// output has been taken.
    fn take(&mut self, outputs: Outputs<A::Output>);
    /// Writes what the turn encoded, once per turn before the wait.
    /// Returns the latest instant the loop must look again, if any.
    fn flush(&mut self) -> Option<Instant>;
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

/// State all site threads of one mesh share.
pub(crate) struct Shared<O> {
    counters: Mutex<Counters>,
    outputs: OutputQueue<O>,
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
            stopped: AtomicBool::new(false),
            epoch: Instant::now(),
            sent: zeros(),
            done: zeros(),
        })
    }

    fn now(&self) -> VirtualTime {
        VirtualTime(self.epoch.elapsed().as_millis() as u64)
    }

    /// Counts one message or input towards `site`; called before it is sent.
    fn send_begun(&self, site: SiteId) {
        self.sent[site.index()].fetch_add(1, SeqCst);
    }

    /// Counts `n` messages or inputs towards `site` as finished with.
    fn send_done(&self, site: SiteId, n: u64) {
        self.done[site.index()].fetch_add(n, SeqCst);
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

/// One site: its actor, its timers and its mesh links. A [`Front`] gets
/// it to run client inputs and read the actor.
pub struct Site<A: Actor> {
    me: SiteId,
    actor: A,
    rng: DetRng,
    /// Min-heap of (deadline, token).
    timers: BinaryHeap<Reverse<(Instant, u64)>>,
    shared: Arc<Shared<A::Output>>,
    links: Links,
    /// Effect buffers lent to every handler invocation.
    sends: Vec<(SiteId, A::Msg)>,
    armed: Vec<(u64, u64)>,
}

impl<A: Actor> Site<A> {
    /// The site this is.
    pub fn me(&self) -> SiteId {
        self.me
    }

    /// The site's actor, between handler invocations.
    pub fn actor(&self) -> &A {
        &self.actor
    }
}

impl<A: Actor + 'static> Site<A>
where
    A::Msg: MeshCodec,
{
    pub(crate) fn new(
        me: SiteId,
        actor: A,
        rng: DetRng,
        shared: Arc<Shared<A::Output>>,
        links: Links,
    ) -> Self {
        let (sends, armed) = (Vec::new(), Vec::new());
        Site { me, actor, rng, timers: BinaryHeap::new(), shared, links, sends, armed }
    }

    /// Runs the actor's input handler on `input` now and returns what it
    /// emitted; what it sends leaves at the end of the loop's turn.
    pub fn input(&mut self, input: A::Input) -> Outputs<A::Output> {
        self.dispatch(|actor, ctx| actor.on_input(ctx, input))
    }

    /// Runs one handler, queues its sends and arms its timers, and
    /// returns its outputs.
    fn dispatch(
        &mut self,
        handler: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg, A::Output>),
    ) -> Outputs<A::Output> {
        let (sends, armed) = (std::mem::take(&mut self.sends), std::mem::take(&mut self.armed));
        let mut ctx =
            Ctx::with_buffers(self.me, self.shared.now(), &mut self.rng, sends, armed, Vec::new());
        handler(&mut self.actor, &mut ctx);
        let Ctx { mut sends, mut timers, outputs, .. } = ctx;
        if !sends.is_empty() {
            let mut counters = self.shared.counters.lock();
            for (to, msg) in sends.drain(..) {
                counters.record_send(self.me, to, msg.kind());
                self.shared.send_begun(to);
                // No link (a self-send), a closed one or an unencodable
                // message all count as a drop.
                if !self.links.send(to, &msg) {
                    counters.record_drop();
                    self.shared.send_done(to, 1);
                }
            }
        }
        for (delay, token) in timers.drain(..) {
            self.timers.push(Reverse((Instant::now() + Duration::from_millis(delay), token)));
        }
        (self.sends, self.armed) = (sends, timers);
        if outputs.is_empty() {
            return Vec::new();
        }
        let (t, me) = (self.shared.now(), self.me);
        outputs.into_iter().map(|o| (t, me, o)).collect()
    }

    /// Hands outputs to the front, or to the queue when none is attached.
    fn route(&self, front: &mut Option<Box<dyn Front<A>>>, outputs: Outputs<A::Output>) {
        match front {
            _ if outputs.is_empty() => {}
            Some(front) => front.take(outputs),
            None => self.shared.outputs.push(outputs),
        }
    }

    /// Counts the frames closed links lost as drops.
    fn count_lost(&mut self) {
        for (peer, frames) in self.links.lost.drain(..) {
            let mut counters = self.shared.counters.lock();
            (0..frames).for_each(|_| counters.record_drop());
            self.shared.send_done(peer, frames);
        }
    }

    /// Handles one mailbox event; `false` to stop.
    fn handle(&mut self, ev: SiteEvent<A>, front: &mut Option<Box<dyn Front<A>>>) -> bool {
        match ev {
            SiteEvent::Shutdown => return false,
            SiteEvent::Query(ask) => ask(&self.actor),
            SiteEvent::Input(input) => {
                let outputs = self.input(input);
                self.route(front, outputs);
                self.shared.send_done(self.me, 1);
            }
            SiteEvent::Attach(attached) => *front = Some(attached),
            SiteEvent::Detach(reply) => {
                if let Some(mut detached) = front.take() {
                    detached.flush();
                    *front = reply.send(detached).err().map(|unsent| unsent.0);
                }
            }
        }
        true
    }
}

/// Runs `site` on `inbox` until it says [`SiteEvent::Shutdown`] or every
/// sender is gone, leaves the front it served in `left`, and hands the
/// actor back.
pub(crate) fn run_site<A: Actor + 'static>(
    mut site: Site<A>,
    inbox: Inbox<SiteEvent<A>>,
    left: Left<A>,
) -> A
where
    A::Msg: MeshCodec,
{
    let mut front: Option<Box<dyn Front<A>>> = None;
    let (mut fds, mut inbound) = (Vec::new(), Vec::new());
    let outputs = site.dispatch(|actor, ctx| actor.on_start(ctx));
    site.route(&mut front, outputs);
    'run: loop {
        while let Some(&Reverse((deadline, token))) = site.timers.peek() {
            if deadline > Instant::now() {
                break;
            }
            site.timers.pop();
            let outputs = site.dispatch(|actor, ctx| actor.on_timer(ctx, token));
            site.route(&mut front, outputs);
        }
        let mut backlog = true;
        for _ in 0..MAILBOX_TURN {
            let Some(ev) = inbox.next() else {
                backlog = false;
                break;
            };
            if !site.handle(ev, &mut front) {
                break 'run;
            }
        }
        site.links.flush();
        site.count_lost();
        let deadline = front.as_mut().and_then(|f| f.flush());

        fds.clear();
        fds.push(inbox.poll_fd());
        site.links.interest(&mut fds);
        let mesh_end = fds.len();
        if let Some(front) = &mut front {
            front.interest(&mut fds);
        }
        let next = site.timers.peek().map(|Reverse((t, _))| *t).into_iter().chain(deadline).min();
        let mut timeout = next.map(|t| t.saturating_duration_since(Instant::now()));
        let parked = !backlog && timeout != Some(Duration::ZERO) && inbox.park();
        if !parked {
            timeout = Some(Duration::ZERO);
        }
        poll::wait(&mut fds, timeout).expect("poll the site's sockets");
        let woken = fds[0].readable();
        if (parked || woken) && !inbox.unpark(woken) {
            break; // every handle is gone
        }

        site.links.read(&fds[1..mesh_end], &mut inbound);
        site.count_lost();
        for (from, msg) in inbound.drain(..) {
            site.shared.counters.lock().record_delivery(site.me);
            let outputs = site.dispatch(|actor, ctx| actor.on_message(ctx, from, msg));
            site.route(&mut front, outputs);
            site.shared.send_done(site.me, 1);
        }
        if let Some(front) = &mut front {
            front.serve(&fds[mesh_end..], &mut site);
        }
    }
    // The front is left before the mailbox closes, so a detach the close
    // turns away finds it there.
    if let Some(mut front) = front {
        front.flush();
        *left.lock() = Some(front);
    }
    inbox.close();
    site.links.flush();
    site.links.close_all();
    site.count_lost();
    site.actor
}

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
    pub(crate) mailboxes: Vec<Mailbox<SiteEvent<A>>>,
    pub(crate) handles: Vec<JoinHandle<A>>,
    /// Per site, the front it still served when it stopped.
    pub(crate) left: Vec<Left<A>>,
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
        if !self.mailboxes[site.index()].send(SiteEvent::Input(input)) {
            self.shared.send_done(site, 1);
        }
    }

    /// Blocks until nothing is in flight: every input injected and every
    /// message sent has been handled by its site or dropped, and so has
    /// everything those handlers sent. Sites whose thread has exited
    /// ([`Live::kill`]) are skipped, and armed timers do not count. By
    /// then every output those handlers emitted is queued or taken by a
    /// front. `false` when `timeout` passed first.
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

    /// Has `site` serve `front` from its next turn on, in place of the
    /// output queue. `false` when the site is gone.
    pub fn attach(&self, site: SiteId, front: Box<dyn Front<A>>) -> bool {
        self.mailboxes[site.index()].send(SiteEvent::Attach(front))
    }

    /// Takes `site`'s front back, once it has written what it encoded;
    /// from then on the site's outputs go to the queue again. A site that
    /// has stopped ([`Live::kill`]) hands back the front it served then.
    /// `None` when no front is attached, or the site did not answer
    /// within five seconds (the front then stays attached).
    pub fn detach(&self, site: SiteId) -> Option<Box<dyn Front<A>>> {
        let (reply, front) = mpsc::channel();
        if self.mailboxes[site.index()].send(SiteEvent::Detach(reply)) {
            if let Ok(front) = front.recv_timeout(QUERY_TIMEOUT) {
                return Some(front);
            }
        }
        self.left[site.index()].lock().take()
    }

    /// Fail-stops one site and returns once its thread has exited. Later
    /// messages to it are lost: counted as drops once its sockets close,
    /// and never waited for by [`Live::quiesce`]. There is no live
    /// respawn (a restarted site would need its durable state handed
    /// back); use the simulator for crash-recovery experiments.
    pub fn kill(&self, site: SiteId) {
        self.mailboxes[site.index()].send(SiteEvent::Shutdown);
        while !self.handles[site.index()].is_finished() {
            std::thread::sleep(POLL_PAUSE.0);
        }
    }

    /// Snapshot of the traffic counters while running.
    pub fn counters_snapshot(&self) -> CountersSnapshot {
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

    /// Stops every site, then every HTTP listener, and returns (actors,
    /// counters, remaining outputs). Every thread the mesh started has
    /// been joined by then, unless a listener could not be reached.
    pub fn shutdown(self) -> (Vec<A>, Counters, Outputs<A::Output>) {
        for mailbox in &self.mailboxes {
            mailbox.send(SiteEvent::Shutdown);
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
