//! The transport-generic actor abstraction.
//!
//! Protocol code in `avdb-core` / `avdb-baseline` is written once against
//! [`Actor`] + [`Ctx`] and can then run under the deterministic
//! [`crate::Simulator`] *or* the live [`crate::TcpMesh`] unchanged.

use crate::rng::DetRng;
use avdb_telemetry::TraceContext;
use avdb_types::{SiteId, VirtualTime};
use std::fmt;

/// Metadata every protocol message must expose so the substrate can
/// account for traffic by kind and stitch deliveries into causal traces.
pub trait MsgInfo {
    /// Short static label for metrics ("av-request", "propagate", …).
    fn kind(&self) -> &'static str;

    /// The causal context piggybacked on this message, if the protocol
    /// attached one. The substrate records it with each delivery so the
    /// message log stitches into the span trees; plain messages default
    /// to `None`.
    fn trace_context(&self) -> Option<TraceContext> {
        None
    }
}

impl MsgInfo for &'static str {
    fn kind(&self) -> &'static str {
        self
    }
}

/// Side effects an actor may request while handling an event.
///
/// The runtime (simulated or live) drains these after the handler returns;
/// the actor never talks to the transport directly, which is what makes
/// the protocol code deterministic under the simulator.
pub struct Ctx<'a, M, O> {
    me: SiteId,
    now: VirtualTime,
    rng: &'a mut DetRng,
    /// Messages to send: (destination, payload).
    pub(crate) sends: Vec<(SiteId, M)>,
    /// Timers to arm: (delay in ticks, opaque token).
    pub(crate) timers: Vec<(u64, u64)>,
    /// Outputs handed back to the driving harness.
    pub(crate) outputs: Vec<O>,
}

impl<'a, M, O> Ctx<'a, M, O> {
    /// Creates a context for one handler invocation. Used by runtimes; not
    /// by actor code.
    pub fn new(me: SiteId, now: VirtualTime, rng: &'a mut DetRng) -> Self {
        Self::with_buffers(me, now, rng, Vec::new(), Vec::new(), Vec::new())
    }

    /// Like [`Ctx::new`] but reusing caller-pooled effect buffers, so a
    /// runtime draining millions of events doesn't allocate three fresh
    /// vectors per handler call. The runtime takes the (cleared) buffers
    /// back by destructuring the context after the handler returns.
    pub fn with_buffers(
        me: SiteId,
        now: VirtualTime,
        rng: &'a mut DetRng,
        sends: Vec<(SiteId, M)>,
        timers: Vec<(u64, u64)>,
        outputs: Vec<O>,
    ) -> Self {
        debug_assert!(sends.is_empty() && timers.is_empty() && outputs.is_empty());
        Ctx { me, now, rng, sends, timers, outputs }
    }

    /// The site this actor runs at.
    #[inline]
    pub fn me(&self) -> SiteId {
        self.me
    }

    /// Current virtual time (wall-clock-derived ticks under the live
    /// runner).
    #[inline]
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Deterministic per-site RNG.
    #[inline]
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Queues a message to `to`. Self-sends are allowed and are delivered
    /// through the network like any other message (and counted — an actor
    /// wanting a free local continuation should use a 0-delay timer
    /// instead).
    pub fn send(&mut self, to: SiteId, msg: M) {
        self.sends.push((to, msg));
    }

    /// Arms a timer that will fire at `now + delay` with `token`.
    pub fn set_timer(&mut self, delay: u64, token: u64) {
        self.timers.push((delay, token));
    }

    /// Emits an output to the harness (e.g. a completed `UpdateOutcome`).
    pub fn emit(&mut self, output: O) {
        self.outputs.push(output);
    }

    /// Number of messages queued so far in this handler call (test hook).
    pub fn pending_sends(&self) -> usize {
        self.sends.len()
    }
}

/// A site-resident protocol state machine.
///
/// All handlers are infallible by design: protocol-level failures are
/// expressed as protocol messages or emitted outputs, and programming
/// errors panic. `on_crash`/`on_recover` model fail-stop faults — a
/// crashed site receives nothing until recovery, at which point it must
/// rebuild volatile state from its durable storage (that recovery logic
/// lives in the actor implementation, not here).
pub trait Actor {
    /// Protocol message type exchanged between sites.
    type Msg: Clone + fmt::Debug + MsgInfo;
    /// External input type (user requests injected by the harness).
    type Input;
    /// Output type handed back to the harness.
    type Output;

    /// Called once before any other event at simulation start.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>) {
        let _ = ctx;
    }

    /// Handles a message from a peer site.
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Output>,
        from: SiteId,
        msg: Self::Msg,
    );

    /// Handles an external input.
    fn on_input(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, input: Self::Input);

    /// Handles a timer armed via [`Ctx::set_timer`].
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, token: u64) {
        let _ = (ctx, token);
    }

    /// The site just failed (fail-stop). Volatile state should be
    /// considered lost; implementations typically clear in-flight
    /// transaction state here.
    fn on_crash(&mut self) {}

    /// The site restarted after a crash.
    fn on_recover(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>) {
        let _ = ctx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_queues_effects_in_order() {
        let mut rng = DetRng::new(0);
        let mut ctx: Ctx<'_, &'static str, u32> = Ctx::new(SiteId(1), VirtualTime(5), &mut rng);
        assert_eq!(ctx.me(), SiteId(1));
        assert_eq!(ctx.now(), VirtualTime(5));
        ctx.send(SiteId(0), "a");
        ctx.send(SiteId(2), "b");
        ctx.set_timer(3, 77);
        ctx.emit(9);
        assert_eq!(ctx.pending_sends(), 2);
        assert_eq!(ctx.sends, vec![(SiteId(0), "a"), (SiteId(2), "b")]);
        assert_eq!(ctx.timers, vec![(3, 77)]);
        assert_eq!(ctx.outputs, vec![9]);
    }

    #[test]
    fn ctx_rng_is_usable_and_deterministic() {
        let mut rng1 = DetRng::new(42);
        let mut rng2 = DetRng::new(42);
        let mut c1: Ctx<'_, &'static str, ()> = Ctx::new(SiteId(0), VirtualTime::ZERO, &mut rng1);
        let a = c1.rng().next_u64();
        let mut c2: Ctx<'_, &'static str, ()> = Ctx::new(SiteId(0), VirtualTime::ZERO, &mut rng2);
        let b = c2.rng().next_u64();
        assert_eq!(a, b);
    }

    #[test]
    fn str_msg_info() {
        let m: &'static str = "ping";
        assert_eq!(m.kind(), "ping");
    }
}
