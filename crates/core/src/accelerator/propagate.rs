//! Lazy replication of committed Delay deltas: batched propagation
//! frames, their application at replicas, acknowledgements, and the
//! anti-entropy heartbeat that retransmits whatever a peer has not
//! acknowledged.

use super::{ACtx, Accelerator, TimerKind};
use crate::protocol::{Msg, PropagateDelta};
use crate::replication::Frame;
use avdb_escrow::KnowledgeRow;
use avdb_telemetry::{FlightFields, TraceContext};
use avdb_types::{ProductId, SiteId, TxnId, VirtualTime, Volume};

/// `repl.send` note fields of `frame` sent to `peer`:
/// `[first peer, peers, offset, deltas, covers]`.
fn repl_send_fields(peer: SiteId, frame: &Frame) -> FlightFields {
    [u64::from(peer.0), 1, frame.offset, frame.deltas.len() as u64, frame.covers]
}

/// Renders a `repl.send` note (see [`repl_send_fields`]).
fn render_repl_send(f: &FlightFields, out: &mut String) {
    use std::fmt::Write as _;
    let _ = write!(out, "to s{}", f[0]);
    if f[1] > 1 {
        let _ = write!(out, " +{} peers", f[1] - 1);
    }
    let _ = write!(out, " offset {} ({} deltas covering {})", f[2], f[3], f[4]);
}

/// Renders a `repl.apply` note: `[origin, fresh deltas, ack upto, _, _]`.
fn render_repl_apply(f: &FlightFields, out: &mut String) {
    use std::fmt::Write as _;
    let _ = write!(out, "from s{}: {} fresh, ack upto {}", f[0], f[1], f[2]);
}

impl Accelerator {
    pub(super) fn buffer_propagation(
        &mut self,
        ctx: &mut ACtx<'_>,
        txn: TxnId,
        product: ProductId,
        delta: Volume,
        commit_span: u64,
    ) {
        self.repl.record(PropagateDelta {
            txn,
            product,
            delta,
            commit_span,
            // The origin's retain decision rides the delta so replicas
            // keep their apply spans for sampled/promoted traces.
            retained: self.spans.trace_sampled(txn.0),
            committed_at: ctx.now(),
        });
        self.refresh_repl_gauges();
        self.arm_anti_entropy(ctx);
        let batch = self.cfg.propagation_batch;
        if !self.repl.batch_ready(batch) {
            return;
        }
        let coalesce = self.cfg.coalesce_propagation;
        let peers = self.take_peers();
        // Peers at one cursor share one frame, which the replication state
        // builds once per round, and one `repl.send` note naming how many
        // of them received it: a run of equal `(offset, covers)` is
        // exactly one built frame.
        let mut note: Option<FlightFields> = None;
        for &peer in &peers {
            if let Some(frame) = self.repl.take_batch_frame(peer, batch, coalesce) {
                match note.as_mut() {
                    Some(f) if f[2] == frame.offset && f[4] == frame.covers => f[1] += 1,
                    _ => {
                        if let Some(f) = note.replace(repl_send_fields(peer, &frame)) {
                            self.note_repl_send(ctx.now(), f);
                        }
                    }
                }
                self.send_propagate(ctx, peer, frame);
            }
        }
        if let Some(f) = note {
            self.note_repl_send(ctx.now(), f);
        }
        self.put_peers(peers);
    }

    /// Explicit flush: retransmit everything a peer has not acknowledged
    /// (end-of-run convergence, post-crash anti-entropy).
    pub(super) fn flush_propagation(&mut self, ctx: &mut ACtx<'_>) {
        let coalesce = self.cfg.coalesce_propagation;
        let peers = self.take_peers();
        for &peer in &peers {
            if let Some(frame) = self.repl.take_unacked_frame(peer, coalesce) {
                let fields = repl_send_fields(peer, &frame);
                self.send_propagate(ctx, peer, frame);
                self.note_repl_send(ctx.now(), fields);
            }
        }
        self.put_peers(peers);
    }

    /// Records one `repl.send` flight note per frame built; the detail is
    /// rendered only if the ring is ever read.
    fn note_repl_send(&mut self, at: VirtualTime, fields: FlightFields) {
        self.flight.record_lazy(at.0, self.clock, "repl.send", fields, render_repl_send);
    }

    /// Sends one propagation frame under a fresh auxiliary trace whose
    /// root records the frame shape. The caller records the `repl.send`
    /// flight note, once per frame built rather than once per peer.
    fn send_propagate(&mut self, ctx: &mut ACtx<'_>, peer: SiteId, frame: Frame) {
        let Frame { offset, covers, coalesced, deltas, checkpoint } = frame;
        let trace = self.fresh_aux_trace();
        let clock = self.tick();
        // Replication roots are auxiliary traces with no outcome hanging
        // off them — nothing downstream (stats, oracle) reads an unsampled
        // one, so at scale the per-frame span and its detail are skipped
        // outright instead of retained-because-root.
        let root = if self.spans.trace_sampled(trace) {
            self.spans.instant_args(
                trace,
                0,
                "replicate",
                ctx.now(),
                clock,
                format_args!(
                    "to s{} offset {} ({} deltas covering {})",
                    peer.0,
                    offset,
                    deltas.len(),
                    covers,
                ),
            )
        } else {
            0
        };
        self.stats.propagation_batches_sent += 1;
        if coalesced {
            self.registry.inc_id(self.ids.repl_coalesce_frames);
            self.registry.add_id(
                self.ids.repl_coalesce_folded,
                covers.saturating_sub(deltas.len() as u64),
            );
        }
        let knowledge = self.knowledge.encode_digest_for(self.me, peer);
        self.registry.add_id(self.ids.knowledge_rows_sent, knowledge.len() as u64);
        self.send_traced(
            ctx,
            peer,
            trace,
            root,
            Msg::Propagate { offset, covers, coalesced, deltas, checkpoint, knowledge },
        );
    }

    /// A replica receives one propagation frame: merges the piggybacked
    /// knowledge digest, applies the checkpoint prefix and the fresh
    /// deltas, and acknowledges its new cursor.
    pub(super) fn on_propagate(
        &mut self,
        ctx: &mut ACtx<'_>,
        from: SiteId,
        incoming: Option<TraceContext>,
        frame: Frame,
        knowledge: Vec<KnowledgeRow>,
    ) {
        let Frame { offset, covers, coalesced, deltas, checkpoint } = frame;
        self.registry.add_id(self.ids.knowledge_rows_merged, knowledge.len() as u64);
        self.knowledge.apply_digest(self.me, &knowledge);
        let mut ck_upto = 0;
        if let Some(ck) = &checkpoint {
            let (upto, synth) = self.repl.apply_checkpoint(from, ck);
            ck_upto = upto;
            if !synth.is_empty() {
                self.flight_args(
                    ctx.now(),
                    "repl.checkpoint",
                    format_args!(
                        "from s{}: folded prefix upto {upto}, {} products moved",
                        from.0,
                        synth.len()
                    ),
                );
            }
            for d in synth {
                self.db
                    .apply_committed(d.txn, d.product, d.delta)
                    .expect("catalog is identical at all sites");
                self.stats.propagation_deltas_applied += 1;
                self.registry
                    .observe_id(self.ids.repl_convergence, ctx.now().since(d.committed_at));
            }
        }
        let (upto, fresh) = self.repl.apply_frame(from, offset, covers, coalesced, deltas);
        let upto = upto.max(ck_upto);
        let batch_span = self
            .kept(incoming)
            .map(|c| {
                let clock = self.tick();
                self.spans.instant_args(
                    c.trace_id,
                    c.parent_span,
                    "apply-batch",
                    ctx.now(),
                    clock,
                    format_args!("from s{}: {} fresh", from.0, fresh.len()),
                )
            })
            .unwrap_or(0);
        self.flight.record_lazy(
            ctx.now().0,
            self.clock,
            "repl.apply",
            [u64::from(from.0), fresh.len() as u64, upto, 0, 0],
            render_repl_apply,
        );
        for d in &fresh {
            self.db
                .apply_committed(d.txn, d.product, d.delta)
                .expect("catalog is identical at all sites");
            self.stats.propagation_deltas_applied += 1;
            // Time-to-convergence: how long this lazily propagated
            // delta took from origin commit to landing here.
            self.registry
                .observe_id(self.ids.repl_convergence, ctx.now().since(d.committed_at));
            // The remote apply joins the *update's* tree, under the
            // origin's commit span carried by the delta. Honor the
            // origin's retain decision first so a promoted
            // (shortage/abort-adjacent) trace keeps this span.
            if d.retained {
                self.spans.promote(d.txn.0);
            }
            let clock = self.tick();
            if d.retained || self.spans.trace_sampled(d.txn.0) {
                self.spans.instant_args(
                    d.txn.0,
                    d.commit_span,
                    "apply",
                    ctx.now(),
                    clock,
                    format_args!("P{} {:+} at s{}", d.product.0, d.delta.get(), self.me.0),
                );
            } else {
                // A replica promotes a trace only as AV granter,
                // before the origin commits (so it would be sampled
                // here by now), or as a 2PC participant, whose path
                // propagates no deltas. This span could only be
                // dropped or parked until evicted: mint nothing, but
                // consume its id so every later span id is unchanged.
                self.spans.skip_id();
            }
        }
        self.reply_along(ctx, from, incoming, batch_span, Msg::PropagateAck { upto });
    }

    pub(super) fn on_propagate_ack(
        &mut self,
        ctx: &mut ACtx<'_>,
        from: SiteId,
        incoming: Option<TraceContext>,
        upto: u64,
    ) {
        self.repl.on_ack(from, upto);
        self.refresh_repl_gauges();
        if let Some(c) = self.kept(incoming) {
            let clock = self.tick();
            self.spans.instant_args(
                c.trace_id,
                c.parent_span,
                "replicate-ack",
                ctx.now(),
                clock,
                format_args!("s{} applied below {}", from.0, upto),
            );
        }
    }

    /// Republishes the replication gauges after the retained log changed:
    /// `repl.queue.depth` plus one `repl.divergence.p<N>` per product
    /// whose divergence moved (including moves back to zero). Reads the
    /// running per-product totals, so a stamp is O(products) no matter
    /// how long the retained log is.
    pub(super) fn refresh_repl_gauges(&mut self) {
        self.registry
            .set_gauge_id(self.ids.repl_queue_depth, self.repl.retained() as i64);
        let nets = self.repl.retained_nets();
        for (p, prev) in self.published_divergence.iter_mut().enumerate() {
            let value = nets.get(p).copied().unwrap_or(0);
            if value != *prev {
                self.registry
                    .set_gauge_id(self.ids.repl_divergence[p], value);
                *prev = value;
            }
        }
    }

    pub(super) fn arm_anti_entropy(&mut self, ctx: &mut ACtx<'_>) {
        let interval = self.cfg.anti_entropy_interval;
        if interval > 0 && !self.anti_entropy_armed {
            self.anti_entropy_armed = true;
            self.arm_timer(ctx, interval, TimerKind::AntiEntropy);
        }
    }

    /// One anti-entropy round: retransmit everything unacknowledged, and
    /// keep beating only while some peer is behind — the next local
    /// commit re-arms otherwise.
    pub(super) fn on_anti_entropy(&mut self, ctx: &mut ACtx<'_>) {
        self.anti_entropy_armed = false;
        self.flush_propagation(ctx);
        if !self.repl.fully_acked() {
            self.arm_anti_entropy(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::TracedMsg;
    use avdb_simnet::Actor;
    use avdb_telemetry::TraceSampler;
    use avdb_types::SystemConfig;

    #[test]
    fn gauges_publish_running_nets_and_return_to_zero() {
        let cfg = SystemConfig::builder()
            .sites(2)
            .regular_products(2, Volume(90))
            .build()
            .unwrap();
        let mut acc = Accelerator::new(SiteId(0), &cfg);
        let d = |seq: u64, product: u32, delta: i64| PropagateDelta {
            txn: TxnId::new(SiteId(0), seq),
            product: ProductId(product),
            delta: Volume(delta),
            commit_span: 0,
            retained: false,
            committed_at: VirtualTime(seq),
        };
        acc.repl.record(d(0, 0, -3));
        acc.repl.record(d(1, 1, 4));
        acc.refresh_repl_gauges();
        let snap = acc.registry().snapshot();
        assert_eq!(snap.gauges.get("repl.divergence.p0"), Some(&-3));
        assert_eq!(snap.gauges.get("repl.divergence.p1"), Some(&4));
        assert_eq!(snap.gauges.get("repl.queue.depth"), Some(&2));
        assert_eq!(acc.status().av[0].divergence, -3);
        acc.repl.on_ack(SiteId(1), 2);
        acc.refresh_repl_gauges();
        let snap = acc.registry().snapshot();
        assert_eq!(snap.gauges.get("repl.divergence.p0"), Some(&0), "drained back to zero");
        assert_eq!(snap.gauges.get("repl.queue.depth"), Some(&0));
    }

    /// Delivers a one-delta `Propagate` frame from site 1 at `offset` and
    /// returns how many retained records and parked ring entries it added.
    fn apply_one(acc: &mut Accelerator, offset: u64, txn: TxnId, retained: bool) -> (usize, usize) {
        let before = (acc.spans().len(), acc.spans().sampling_stats().1);
        let delta = PropagateDelta {
            txn,
            product: ProductId(0),
            delta: Volume(-1),
            commit_span: 7,
            retained,
            committed_at: VirtualTime(1),
        };
        let msg = Msg::Propagate {
            offset,
            covers: 1,
            coalesced: false,
            deltas: vec![delta],
            checkpoint: None,
            knowledge: vec![],
        };
        let mut rng = avdb_simnet::DetRng::new(1);
        let mut ctx = ACtx::new(SiteId(0), VirtualTime(5), &mut rng);
        acc.on_message(&mut ctx, SiteId(1), TracedMsg::plain(msg));
        (acc.spans().len() - before.0, acc.spans().sampling_stats().1 - before.1)
    }

    #[test]
    fn replica_mints_an_apply_span_only_for_a_kept_trace() {
        // Half the traces head-sampled; full rescue, so before replicas
        // skipped unkept traces every unsampled apply span parked.
        let cfg = SystemConfig::builder()
            .sites(3)
            .regular_products(2, Volume(90))
            .trace_sample_rate(0.5)
            .anomaly_keep_rate(1.0)
            .build()
            .unwrap();
        let sampler = TraceSampler::for_rate(cfg.seed, cfg.trace_sample_rate);
        let txns: Vec<TxnId> = (0..64).map(|seq| TxnId::new(SiteId(1), seq)).collect();
        let unsampled: Vec<TxnId> =
            txns.iter().copied().filter(|t| !sampler.sampled(t.0)).collect();
        let sampled = txns.iter().copied().find(|t| sampler.sampled(t.0)).unwrap();
        let mut acc = Accelerator::new(SiteId(0), &cfg);
        assert!(acc.spans().is_sampling());
        let notes_before = acc.flight().recorded();

        assert_eq!(apply_one(&mut acc, 0, unsampled[0], false), (0, 0), "unkept: nothing");
        assert_eq!(apply_one(&mut acc, 1, unsampled[1], true), (1, 0), "retain bit: one");
        assert_eq!(apply_one(&mut acc, 2, sampled, false), (1, 0), "head-sampled: one");
        let applies: Vec<u64> =
            acc.spans().records().iter().filter(|r| r.name == "apply").map(|r| r.trace).collect();
        assert_eq!(applies, vec![unsampled[1].0, sampled.0]);

        // The skipped span still consumed its id: the two minted spans
        // hold the collector's second and third ids.
        let ids: Vec<u64> = acc.spans().records().iter().map(|r| r.span & 0xFFFF).collect();
        assert_eq!(ids, vec![2, 3]);

        // One lazily formatted `repl.apply` note per frame, rendered on read.
        assert_eq!(acc.flight().recorded() - notes_before, 3);
        let last = acc.flight().snapshot().pop().unwrap();
        assert_eq!(last.kind, "repl.apply");
        assert_eq!(last.detail, "from s1: 1 fresh, ack upto 3");
    }
}
