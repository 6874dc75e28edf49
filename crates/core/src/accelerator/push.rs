//! A9's proactive AV circulation: after an increment, a site holding far
//! more AV than its peers pushes part of the surplus to the poorest one.
//! An extension the paper leaves open (§3.4); its Delay lane only pulls.

use super::{ACtx, Accelerator};
use crate::protocol::Msg;
use avdb_escrow::TransferRecord;
use avdb_telemetry::TraceContext;
use avdb_types::{ProductId, SiteId, Volume};

impl Accelerator {
    /// Circulation policy (A9): if this site's available AV for `product`
    /// exceeds twice the believed mean of its peers, push half the
    /// surplus to the believed-poorest peer.
    pub(super) fn maybe_push_av(&mut self, ctx: &mut ACtx<'_>, product: ProductId) {
        let n_peers = self.cfg.n_sites.saturating_sub(1);
        if n_peers == 0 {
            return;
        }
        let ranked = self.knowledge.table().ranked_peers(self.me, self.cfg.n_sites, product, &[]);
        let mean_peer: i64 = ranked
            .iter()
            .map(|p| self.knowledge.table().known(*p, product).get())
            .sum::<i64>()
            / n_peers as i64;
        let available = self.av.available(product);
        if available.get() <= 2 * mean_peer.max(1) {
            return;
        }
        let surplus = available - Volume(mean_peer.max(0));
        let push = surplus.half();
        if !push.is_positive() {
            return;
        }
        let poorest = *ranked.last().expect("n_peers > 0");
        let pushed = self.av.withdraw_up_to(product, push).expect("push ≤ available");
        if !pushed.is_positive() {
            return;
        }
        self.ledger.record(TransferRecord {
            from: self.me,
            to: poorest,
            product,
            amount: pushed,
            at: ctx.now(),
        });
        self.stats.av_pushes_sent += 1;
        self.stats.av_volume_pushed += pushed.get();
        let pusher_av = self.av.available(product);
        let believed = self.knowledge.table().known(poorest, product);
        self.knowledge.update(poorest, product, believed + pushed, ctx.now());
        let trace = self.fresh_aux_trace();
        let clock = self.tick();
        // Aux root — same retain-or-skip rule as replication frames.
        let root = if self.spans.trace_sampled(trace) {
            self.spans.instant_args(
                trace,
                0,
                "push",
                ctx.now(),
                clock,
                format_args!("{} of P{} to s{}", pushed.get(), product.0, poorest.0),
            )
        } else {
            0
        };
        let pusher_rate = self.local_rate(product);
        self.send_traced(
            ctx,
            poorest,
            trace,
            root,
            Msg::AvPush { product, amount: pushed, pusher_av, pusher_rate },
        );
    }

    #[allow(clippy::too_many_arguments)] // mirrors the AvPush wire fields
    pub(super) fn on_av_push(
        &mut self,
        ctx: &mut ACtx<'_>,
        from: SiteId,
        incoming: Option<TraceContext>,
        product: ProductId,
        amount: Volume,
        pusher_av: Volume,
        pusher_rate: i64,
    ) {
        self.knowledge.update(from, product, pusher_av, ctx.now());
        self.knowledge.update_rate(from, product, pusher_rate, ctx.now());
        if self.av.is_defined(product) {
            self.av.deposit(product, amount).expect("defined row");
        }
        // If the product was reclassified here meanwhile the
        // volume is returned on the ack path implicitly by the
        // receiver_av report (the pusher learns we hold nothing);
        // conservation-wise the deposit above only skips when the
        // row is undefined everywhere, i.e. the product left the
        // Delay regime entirely.
        let receiver_av = self.av.available(product);
        let receiver_rate = self.local_rate(product);
        let span = self
            .kept(incoming)
            .map(|c| {
                let clock = self.tick();
                self.spans.instant_args(
                    c.trace_id,
                    c.parent_span,
                    "push-recv",
                    ctx.now(),
                    clock,
                    format_args!("{} of P{}", amount.get(), product.0),
                )
            })
            .unwrap_or(0);
        self.reply_along(
            ctx,
            from,
            incoming,
            span,
            Msg::AvPushAck { product, receiver_av, receiver_rate },
        );
    }
}
