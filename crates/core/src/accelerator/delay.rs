//! The checking function's rejects and the Delay Update (Figs. 3–4) with
//! its AV-shortage lane (select → request → grant, grant timeout).

use super::{ACtx, Accelerator, TimerKind};
use crate::protocol::Msg;
use avdb_escrow::{
    next_probe, none_left_to_ask, partition_shortage_expected, AvTable, Probe, ProbeQuery,
    TransferRecord,
};
use avdb_telemetry::{FlightFields, TraceContext, LANE_DELAY};
use avdb_types::{
    request::AbortReason, ProductId, SiteId, TxnId, UpdateKind, UpdateOutcome, VirtualTime,
    Volume,
};

/// Renders a `delay.begin` note: `[txn, items, _, _, _]`.
fn render_delay_begin(f: &FlightFields, out: &mut String) {
    use std::fmt::Write as _;
    let _ = write!(out, "txn {} ({} item(s))", f[0], f[1]);
}

/// Renders a `delay.select` note: `[txn, peer, staleness, _, _]`.
fn render_delay_select(f: &FlightFields, out: &mut String) {
    use std::fmt::Write as _;
    let _ = write!(out, "txn {} asks s{} (knowledge {} ticks old)", f[0], f[1], f[2]);
}

/// Renders a `delay.abort` note: `[txn, no_cover, shortage, _, _]`.
fn render_delay_abort(f: &FlightFields, out: &mut String) {
    use std::fmt::Write as _;
    let why = if f[1] == 1 { "no peer expected to cover" } else { "insufficient AV" };
    let _ = write!(out, "txn {} {why} (short {})", f[0], f[2] as i64);
}

/// Renders a `delay.commit` note: `[txn, items, correspondences, _, _]`.
fn render_delay_commit(f: &FlightFields, out: &mut String) {
    use std::fmt::Write as _;
    let _ = write!(out, "txn {} ({} item(s), {} correspondence(s))", f[0], f[1], f[2]);
}

/// Ticks a Delay Update waits for an AV grant before treating the asked
/// peer as dead (zero grant) and moving to the next one.
const AV_GRANT_TIMEOUT: u64 = 64;

/// One product's share of a (possibly multi-item) Delay transaction.
#[derive(Debug, Clone, Copy)]
struct DelayItem {
    product: ProductId,
    delta: Volume,
    /// AV that must be held before commit (|delta| for decrements, zero
    /// for increments, which mint AV instead of consuming it).
    need: Volume,
}

/// In-flight Delay Update waiting on AV transfers. Items are satisfied
/// sequentially; holds accumulate across items and all release together
/// on abort (the non-exclusive-hold semantics make partial holds safe to
/// keep while negotiating the next item).
#[derive(Debug)]
pub(super) struct PendingDelay {
    items: Vec<DelayItem>,
    /// Index of the item currently being negotiated.
    current: usize,
    /// Peers already asked for the *current* item.
    asked: Vec<SiteId>,
    /// Blind rounds (no unasked peer believed to hold AV) sent for the
    /// *current* item; see [`avdb_escrow::next_probe`].
    blind_probes: u32,
    /// AV requests currently in flight: `(peer, product)` per request.
    /// The serial path keeps at most one entry; the fan-out path keeps
    /// one per burst member, and stragglers for an already-satisfied
    /// product simply bank their grant at this site.
    outstanding: Vec<(SiteId, ProductId)>,
    /// Correspondences spent so far (1 per AV request).
    correspondences: u64,
    /// Telemetry: the update's root span.
    root_span: u64,
    /// Telemetry: open "transfer" spans keyed like [`Self::outstanding`],
    /// each with its open time.
    transfer_spans: Vec<(SiteId, ProductId, u64, VirtualTime)>,
    /// When the update was submitted (latency accounting).
    started_at: VirtualTime,
    /// Whether the update ever entered the shortage path (asked a peer
    /// for AV). Feeds the Delay lane's SLO shortage rate and retroactive
    /// trace promotion.
    had_shortage: bool,
}

impl PendingDelay {
    fn current_item(&self) -> DelayItem {
        self.items[self.current]
    }
}

impl Accelerator {
    /// The checking function rejected an update before any lane ran: a
    /// root span with its `checking` child and an aborted outcome,
    /// accounted to `lane`.
    pub(super) fn reject(
        &mut self,
        ctx: &mut ACtx<'_>,
        lane: &'static str,
        why: &str,
        reason: AbortReason,
    ) {
        let txn = self.fresh_txn();
        let clock = self.tick();
        let root = self.spans.start_with(
            txn.0,
            0,
            "update",
            ctx.now(),
            clock,
            format!("rejected at s{}", self.me.0),
        );
        self.spans.instant_with(txn.0, root, "checking", ctx.now(), self.clock, why.to_string());
        self.emit_outcome(
            ctx,
            root,
            ctx.now(),
            lane,
            false,
            UpdateOutcome::Aborted { txn, reason, correspondences: 0, client: None },
        );
    }

    /// Begins a Delay transaction over one or more `(product, delta)`
    /// items, all of which must be AV-managed (regular). Commit is
    /// all-or-nothing: every decrement's AV must be held before anything
    /// applies; on failure every hold releases (stays at this site) and
    /// the transaction rolls back by opposite deltas.
    pub(super) fn start_delay(&mut self, ctx: &mut ACtx<'_>, raw_items: Vec<(ProductId, Volume)>) {
        let txn = self.fresh_txn();
        let clock = self.tick();
        let root_span = self.spans.start_args(
            txn.0,
            0,
            "update",
            ctx.now(),
            clock,
            format_args!("delay at s{}", self.me.0),
        );
        self.spans.instant_args(
            txn.0,
            root_span,
            "checking",
            ctx.now(),
            self.clock,
            format_args!("{} item(s) → Delay", raw_items.len()),
        );
        self.flight.record_lazy(
            ctx.now().0,
            self.clock,
            "delay.begin",
            [txn.0, raw_items.len() as u64, 0, 0, 0],
            render_delay_begin,
        );
        self.db.begin(txn).expect("fresh txn id");
        // Merge repeated products to their net delta (first-appearance
        // order): the transaction applies atomically, so only the net
        // change matters, and AV holds pool per (txn, product) anyway.
        // Linear scan: an update names a handful of products at most.
        let mut items: Vec<DelayItem> = Vec::with_capacity(raw_items.len());
        for (product, delta) in raw_items {
            match items.iter_mut().find(|item| item.product == product) {
                Some(item) => item.delta += delta,
                None => items.push(DelayItem { product, delta, need: Volume::ZERO }),
            }
        }
        for item in &mut items {
            item.need = if item.delta.is_negative() { item.delta.abs() } else { Volume::ZERO };
        }
        // Hold phase: take whatever is locally available for every
        // decrement ("holds the necessary amount of AV in advance", and on
        // shortage "holds all the AV at the site").
        for item in items.iter().filter(|item| item.need.is_positive()) {
            self.av.hold_up_to(txn, item.product, item.need).expect("AV row defined");
        }
        let mut pending = PendingDelay {
            items,
            current: 0,
            asked: Vec::new(),
            blind_probes: 0,
            outstanding: Vec::new(),
            correspondences: 0,
            root_span,
            transfer_spans: Vec::new(),
            started_at: ctx.now(),
            had_shortage: false,
        };
        match Self::first_unsatisfied(&self.av, txn, &pending.items, 0) {
            None => self.commit_delay(ctx, txn, pending),
            Some(current) => {
                pending.current = current;
                self.pending_delay.insert(txn, pending);
                self.request_more_av(ctx, txn);
            }
        }
    }

    /// Index of the first item at or after `from` whose AV hold is still
    /// short of its need.
    fn first_unsatisfied(
        av: &AvTable,
        txn: TxnId,
        items: &[DelayItem],
        from: usize,
    ) -> Option<usize> {
        items
            .iter()
            .enumerate()
            .skip(from)
            .find(|(_, item)| item.need.is_positive() && av.held_by(txn, item.product) < item.need)
            .map(|(i, _)| i)
    }

    /// One iteration of the selecting/deciding loop: pick the next peer
    /// (or, with `shortage_fanout ≥ 2`, the next burst of peers, each
    /// asked for its share of the shortage concurrently) and send the AV
    /// request(s), or give up if the round budget is spent.
    fn request_more_av(&mut self, ctx: &mut ACtx<'_>, txn: TxnId) {
        let Some(pending) = self.pending_delay.get(&txn) else { return };
        let item = pending.current_item();
        let root_span = pending.root_span;
        let held = self.av.held_by(txn, item.product);
        let shortage = item.need - held;
        debug_assert!(shortage.is_positive());
        let product = item.product;
        self.registry.observe_id(self.ids.delay_shortage, shortage.get().max(0) as u64);
        let budget = self.cfg.max_av_rounds.saturating_sub(pending.asked.len());
        // Fan-out width: the configured k, capped by the remaining peer
        // budget and by the shortage itself (never ask a peer for zero).
        let k = self
            .cfg
            .shortage_fanout
            .max(1)
            .min(budget)
            .min(usize::try_from(shortage.get().max(1)).unwrap_or(usize::MAX));
        let mut asked = {
            let pending = self.pending_delay.get_mut(&txn).expect("checked above");
            pending.had_shortage = true;
            std::mem::take(&mut pending.asked)
        };
        let mut picks: Vec<SiteId> = Vec::new();
        if k <= 1 {
            if budget > 0 {
                if let Some(peer) = self.select.select(
                    self.me,
                    self.cfg.n_sites,
                    product,
                    self.knowledge.table(),
                    &asked,
                    ctx.now(),
                    ctx.rng(),
                ) {
                    asked.push(peer);
                    picks.push(peer);
                }
            }
        } else {
            self.select.select_many(
                self.me,
                self.cfg.n_sites,
                product,
                self.knowledge.table(),
                &mut asked,
                ctx.now(),
                ctx.rng(),
                k,
                &mut picks,
            );
            // Adaptive trim: keep the minimal prefix whose believed
            // half-holdings (the expected GrantHalf yield) cover the
            // shortage — a shortage one peer plausibly covers degrades to
            // the serial ask, so easy cells pay no amplification.
            let mut covered: i64 = 0;
            let mut keep = picks.len();
            for (i, p) in picks.iter().enumerate() {
                covered = covered
                    .saturating_add(self.knowledge.table().known(*p, product).get().max(0) / 2);
                if covered >= shortage.get() {
                    keep = i + 1;
                    break;
                }
            }
            // Knowledge-driven width: peers believed to hold nothing sort
            // to the back of the ranking, and asking several of them in
            // parallel just multiplies the blind shots the serial path
            // spreads across rounds. Burst only at believed holders; when
            // nobody is believed to hold AV, degrade to one serial-style
            // probe (whose grant reply refreshes knowledge either way).
            let positive = picks
                .iter()
                .take_while(|p| self.knowledge.table().known(**p, product).is_positive())
                .count();
            let keep = keep.min(positive.max(1));
            if keep < picks.len() {
                asked.truncate(asked.len() - (picks.len() - keep));
                picks.truncate(keep);
            }
        }
        // "Repeat until covered" becomes "repeat while some reply could
        // cover": a blind round (nobody not yet asked is believed to hold
        // AV) goes out only if the replica's stock says it still might.
        let dry = |s: SiteId| !self.knowledge.table().known(s, product).is_positive();
        let blind = picks.iter().all(|&p| dry(p))
            && none_left_to_ask(self.me, self.cfg.n_sites, &asked, dry);
        let pending = self.pending_delay.get_mut(&txn).expect("checked above");
        let query = ProbeQuery {
            shortage,
            replica_stock: self.db.stock(product).expect("valid product"),
            own_av: self.av.total(product),
            unasked_peers: self.cfg.n_sites - 1 - (asked.len() - picks.len()),
            picks_all_dry: blind,
            blind_probes_used: pending.blind_probes,
        };
        let no_cover = next_probe(&query, self.decide.as_ref()) == Probe::Abort;
        pending.blind_probes += u32::from(blind);
        pending.asked = asked;
        if picks.is_empty() || no_cover {
            // "Otherwise, all accumulated AV is stored in the local AV
            // table" — keep what we gathered (across every item), roll
            // back the txn.
            let mut pending = self.pending_delay.remove(&txn).expect("checked above");
            self.drain_transfer_spans(&mut pending, ctx.now(), "superseded");
            self.av.release_all(txn);
            self.db.rollback(txn).expect("txn active");
            self.stats.delay_aborts += 1;
            self.registry.inc_id(self.ids.delay_abort_insufficient);
            let why = if no_cover {
                self.registry.inc_id(self.ids.delay_abort_no_cover);
                "no peer expected to cover"
            } else {
                "insufficient AV"
            };
            self.spans.note_args(root_span, format_args!("aborted: {why}"));
            self.flight.record_lazy(
                ctx.now().0,
                self.clock,
                "delay.abort",
                [txn.0, u64::from(no_cover), shortage.get() as u64, 0, 0],
                render_delay_abort,
            );
            self.emit_outcome(
                ctx,
                root_span,
                pending.started_at,
                LANE_DELAY,
                pending.had_shortage,
                UpdateOutcome::Aborted {
                    txn,
                    reason: AbortReason::InsufficientAv { shortfall: shortage },
                    correspondences: pending.correspondences,
                    client: None,
                },
            );
            return;
        }
        if picks.len() >= 2 {
            self.registry.inc_id(self.ids.delay_fanout_bursts);
            self.registry.add_id(self.ids.delay_fanout_requests, picks.len() as u64);
        }
        // Shares follow the expected GrantHalf yield per pick: a peer
        // believed able to cover the whole shortage is asked for all of
        // it, not an even k-th (which would force a second round for the
        // remainder the mis-split left behind). Residue beliefs cannot
        // cover is spread evenly across the burst.
        let expected: Vec<Volume> = picks
            .iter()
            .map(|p| Volume(self.knowledge.table().known(*p, product).get().max(0) / 2))
            .collect();
        let mut shares: Vec<Volume> = Vec::with_capacity(picks.len());
        partition_shortage_expected(shortage, &expected, &mut shares);
        let requester_rate = self.local_rate(product);
        for (i, &peer) in picks.iter().enumerate() {
            let share = shares[i];
            // Selecting: how stale was the knowledge the candidate was
            // picked on?
            let staleness =
                self.knowledge.table().staleness(peer, product, ctx.now()).unwrap_or(0);
            self.registry.observe_id(self.ids.select_staleness, staleness);
            // Live gauge: how stale the knowledge *selecting* just
            // consumed for this peer was, in ticks.
            self.registry.set_gauge_id(self.ids.staleness[peer.index()], staleness as i64);
            self.flight.record_lazy(
                ctx.now().0,
                self.clock,
                "delay.select",
                [txn.0, u64::from(peer.0), staleness, 0, 0],
                render_delay_select,
            );
            let clock = self.tick();
            self.spans.instant_args(
                txn.0,
                root_span,
                "selecting",
                ctx.now(),
                clock,
                format_args!("s{} (knowledge {} ticks old)", peer.0, staleness),
            );
            let amount = self.decide.request_amount(share);
            self.spans.instant_args(
                txn.0,
                root_span,
                "deciding",
                ctx.now(),
                self.clock,
                format_args!("request {} for shortage {}", amount.get(), shortage.get()),
            );
            let transfer = self.spans.start_args(
                txn.0,
                root_span,
                "transfer",
                ctx.now(),
                self.clock,
                format_args!("ask s{} for {}", peer.0, amount.get()),
            );
            let requester_av = self.av.available(product);
            let pending = self.pending_delay.get_mut(&txn).expect("checked above");
            pending.outstanding.push((peer, product));
            pending.correspondences += 1;
            pending.transfer_spans.push((peer, product, transfer, ctx.now()));
            self.stats.av_requests_sent += 1;
            self.send_traced(
                ctx,
                peer,
                txn.0,
                transfer,
                Msg::AvRequest { txn, product, amount, requester_av, requester_rate },
            );
            self.arm_timer(ctx, AV_GRANT_TIMEOUT, TimerKind::AvGrant(txn, peer, product));
        }
    }

    /// Ends every still-open transfer span of a finished negotiation (the
    /// fan-out path can commit or abort with grants still in flight; their
    /// spans must close so the causal tree stays complete).
    fn drain_transfer_spans(
        &mut self,
        pending: &mut PendingDelay,
        now: VirtualTime,
        note: &'static str,
    ) {
        for (_, _, span, opened) in pending.transfer_spans.drain(..) {
            self.spans.note(span, note);
            self.spans.end(span, now);
            self.registry.observe_id(self.ids.phase_transfer, now.since(opened));
        }
        pending.outstanding.clear();
    }

    /// Resolves `txn`'s in-flight AV request to `peer` for `product`:
    /// drops it from the burst and closes its transfer span with `note`.
    /// `false` when no such request is outstanding (the negotiation is
    /// over, or already gave up on this peer).
    fn resolve_request(
        &mut self,
        txn: TxnId,
        peer: SiteId,
        product: ProductId,
        now: VirtualTime,
        note: std::fmt::Arguments<'_>,
    ) -> bool {
        let Some(pending) = self.pending_delay.get_mut(&txn) else { return false };
        let Some(pos) =
            pending.outstanding.iter().position(|&(p, pr)| p == peer && pr == product)
        else {
            return false;
        };
        pending.outstanding.swap_remove(pos);
        if let Some(sp) = pending
            .transfer_spans
            .iter()
            .position(|&(p, pr, _, _)| p == peer && pr == product)
        {
            let (_, _, span, opened) = pending.transfer_spans.swap_remove(sp);
            self.spans.note_args(span, note);
            self.spans.end(span, now);
            self.registry.observe_id(self.ids.phase_transfer, now.since(opened));
        }
        true
    }

    /// Applies and commits every item of a fully-held Delay transaction:
    /// decrements consume their held AV, increments mint AV, and each
    /// committed delta enters the replication log.
    fn commit_delay(&mut self, ctx: &mut ACtx<'_>, txn: TxnId, mut pending: PendingDelay) {
        // Fan-out can cover the shortage with grants still in flight;
        // close their spans (stragglers bank their volume on arrival).
        self.drain_transfer_spans(&mut pending, ctx.now(), "superseded: shortage covered");
        for item in &pending.items {
            if item.need.is_positive() {
                self.av.consume(txn, item.product, item.need).expect("hold covers need");
                self.note_consumption(item.product, item.need, ctx.now());
            }
            // Unchecked: AV bounds the *global* stock; this replica may lag
            // behind peers' increments whose minted AV already migrated
            // here.
            self.db
                .apply_unchecked(txn, item.product, item.delta)
                .expect("valid product");
            if item.delta.is_positive() {
                self.av.deposit(item.product, item.delta).expect("AV row defined");
            }
        }
        self.db.commit(txn).expect("txn active");
        if pending.correspondences == 0 {
            self.stats.delay_local_commits += 1;
            self.registry.inc_id(self.ids.delay_commit_local);
        } else {
            self.stats.delay_remote_commits += 1;
            self.registry.inc_id(self.ids.delay_commit_remote);
        }
        // Promote shortage-path traces *now*, before the commit span and
        // the propagation deltas are recorded: the sticky promotion keeps
        // both, and the retain bit on the deltas tells replicas to keep
        // their apply spans too. Budgeted — a cell where every update
        // shorts must not retain every trace.
        if pending.had_shortage {
            self.promote_anomaly(txn.0);
        }
        let clock = self.tick();
        let commit_span = self.spans.instant_args(
            txn.0,
            pending.root_span,
            "commit",
            ctx.now(),
            clock,
            format_args!("{} item(s)", pending.items.len()),
        );
        self.flight.record_lazy(
            ctx.now().0,
            self.clock,
            "delay.commit",
            [txn.0, pending.items.len() as u64, pending.correspondences, 0, 0],
            render_delay_commit,
        );
        for item in &pending.items {
            self.buffer_propagation(ctx, txn, item.product, item.delta, commit_span);
        }
        self.emit_outcome(
            ctx,
            pending.root_span,
            pending.started_at,
            LANE_DELAY,
            pending.had_shortage,
            UpdateOutcome::Committed {
                txn,
                kind: UpdateKind::Delay,
                completed_at: ctx.now(),
                correspondences: pending.correspondences,
                client: None,
            },
        );
        if self.cfg.proactive_push {
            for item in &pending.items {
                if item.delta.is_positive() {
                    self.maybe_push_av(ctx, item.product);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_av_request(
        &mut self,
        ctx: &mut ACtx<'_>,
        from: SiteId,
        incoming: Option<TraceContext>,
        txn: TxnId,
        product: ProductId,
        amount: Volume,
        requester_av: Volume,
        requester_rate: i64,
    ) {
        self.knowledge.update(from, product, requester_av, ctx.now());
        self.knowledge.update_rate(from, product, requester_rate, ctx.now());
        let grant = if self.av.is_defined(product) {
            let available = self.av.available(product);
            let g = self.decide.grant_amount(available, amount);
            self.av.withdraw_up_to(product, g).expect("grant ≤ available")
        } else {
            Volume::ZERO
        };
        if grant.is_positive() {
            self.ledger.record(TransferRecord {
                from: self.me,
                to: from,
                product,
                amount: grant,
                at: ctx.now(),
            });
            self.stats.av_volume_granted += grant.get();
        }
        self.stats.av_grants_answered += 1;
        // Being asked to grant marks the trace shortage-path; the
        // requester reaches the same anomaly-keep verdict at outcome
        // time, so promoting here keeps the grant chain
        // sampling-complete without coordination.
        self.promote_anomaly(incoming.map(|c| c.trace_id).unwrap_or(txn.0));
        // The grant decision attaches under the requester's transfer span
        // (piggybacked as the incoming parent), so the causal tree crosses
        // sites.
        let clock = self.tick();
        let grant_span = self.spans.instant_args(
            incoming.map(|c| c.trace_id).unwrap_or(txn.0),
            incoming.map(|c| c.parent_span).unwrap_or(0),
            "grant",
            ctx.now(),
            clock,
            format_args!("{} of {} asked", grant.get(), amount.get()),
        );
        let grantor_av = self.av.available(product);
        let grantor_rate = self.local_rate(product);
        self.reply_along(
            ctx,
            from,
            incoming,
            grant_span,
            Msg::AvGrant { txn, product, amount: grant, grantor_av, grantor_rate },
        );
    }

    #[allow(clippy::too_many_arguments)] // mirrors the AvGrant wire fields
    pub(super) fn on_av_grant(
        &mut self,
        ctx: &mut ACtx<'_>,
        from: SiteId,
        txn: TxnId,
        product: ProductId,
        amount: Volume,
        grantor_av: Volume,
        grantor_rate: i64,
    ) {
        self.knowledge.update(from, product, grantor_av, ctx.now());
        self.knowledge.update_rate(from, product, grantor_rate, ctx.now());
        self.stats.av_volume_received += amount.get();
        // Deposit first so the volume is never lost, even if the requesting
        // transaction is gone (aborted by recovery, or already committed
        // by a concurrent fan-out grant): the AV simply stays at this
        // site. This is what keeps over-grants conservation-safe.
        if amount.is_positive() && self.av.is_defined(product) {
            self.av.deposit(product, amount).expect("defined row");
        }
        // A grant we already gave up on (timeout fired first) leaves the
        // volume deposited here, but the negotiation has moved on — do
        // not double-drive it.
        let now = ctx.now();
        if !self.resolve_request(txn, from, product, now, format_args!("granted {}", amount.get())) {
            return;
        }
        let pending = self.pending_delay.get(&txn).expect("request was outstanding");
        let item = pending.current_item();
        if item.product != product {
            // Straggler for an item an earlier grant already satisfied:
            // the deposit above banked the volume (over-grant return);
            // the current item drives its own requests.
            return;
        }
        if amount.is_positive() {
            let held = self.av.held_by(txn, product);
            let want_more = item.need - held;
            let take = want_more.min(amount);
            if take.is_positive() {
                let got = self.av.hold_up_to(txn, product, take).expect("just deposited");
                debug_assert_eq!(got, take);
            }
            let over = amount - take.max(Volume::ZERO);
            if over.is_positive() {
                // Fan-out over-shoot: granted volume beyond the need stays
                // in this site's AV table.
                self.registry.add_id(self.ids.delay_overgrant_volume, over.get() as u64);
            }
        }
        let held = self.av.held_by(txn, product);
        if held >= item.need {
            // Current item satisfied; move to the next short item (its
            // own fresh round of peer selection) or commit everything —
            // without waiting for outstanding burst stragglers.
            let pending = self.pending_delay.get_mut(&txn).expect("present");
            match Self::first_unsatisfied(&self.av, txn, &pending.items, pending.current + 1) {
                Some(next) => {
                    pending.current = next;
                    pending.asked.clear();
                    pending.blind_probes = 0;
                    self.request_more_av(ctx, txn);
                }
                None => {
                    let pending = self.pending_delay.remove(&txn).expect("present");
                    self.commit_delay(ctx, txn, pending);
                }
            }
        } else {
            // Still short: re-ask only once the whole burst has resolved,
            // so one stingy early grant does not double-ask while better
            // grants are still in flight.
            let burst_open = self
                .pending_delay
                .get(&txn)
                .map(|p| p.outstanding.iter().any(|&(_, pr)| pr == product))
                .unwrap_or(false);
            if !burst_open {
                self.request_more_av(ctx, txn);
            }
        }
    }

    /// The asked peer never answered: presume it dead, remember it as
    /// holding nothing, and continue with the next candidate once the
    /// rest of its burst (if any) has also resolved.
    pub(super) fn on_av_grant_timeout(
        &mut self,
        ctx: &mut ACtx<'_>,
        txn: TxnId,
        peer: SiteId,
        product: ProductId,
    ) {
        let now = ctx.now();
        if !self.resolve_request(txn, peer, product, now, format_args!("timeout: s{} presumed dead", peer.0)) {
            return; // the grant arrived before the timeout
        }
        self.registry.inc_id(self.ids.delay_grant_timeouts);
        self.knowledge.update(peer, product, Volume::ZERO, ctx.now());
        let pending = self.pending_delay.get(&txn).expect("present");
        let item = pending.current_item();
        if item.product != product {
            return; // straggler timeout for an already-satisfied item
        }
        let burst_open = pending.outstanding.iter().any(|&(_, pr)| pr == product);
        if burst_open {
            return; // other burst members may still cover the shortage
        }
        if self.av.held_by(txn, product) >= item.need {
            return; // a concurrent grant already satisfied the item
        }
        self.request_more_av(ctx, txn);
    }

    // ---- consumption rate --------------------------------------------------

    /// Folds one local Delay decrement into the product's consumption-rate
    /// EWMA (volume per kilotick, α = 1/4 — integer math only so the
    /// figure is deterministic and cheap to piggyback).
    fn note_consumption(&mut self, product: ProductId, volume: Volume, now: VirtualTime) {
        let Some(slot) = self.consume_rate.get_mut(product.index()) else { return };
        let (rate, last) = *slot;
        let dt = now.since(last).max(1) as i64;
        let inst = volume.get().max(0).saturating_mul(1000) / dt;
        *slot = (rate + (inst - rate) / 4, now);
    }

    /// This site's consumption-rate EWMA for `product` (the figure
    /// piggybacked on outgoing AV traffic).
    pub(super) fn local_rate(&self, product: ProductId) -> i64 {
        self.consume_rate.get(product.index()).map(|&(r, _)| r).unwrap_or(0)
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::super::tests::config;
    use super::*;

    #[test]
    fn consumption_rate_ewma_rises_with_use_and_is_piggybacked() {
        let cfg = config();
        let mut acc = Accelerator::new(SiteId(0), &cfg);
        assert_eq!(acc.local_rate(ProductId(0)), 0);
        acc.note_consumption(ProductId(0), Volume(10), VirtualTime(5));
        let first = acc.local_rate(ProductId(0));
        assert!(first > 0, "one decrement moves the EWMA off zero");
        acc.note_consumption(ProductId(0), Volume(10), VirtualTime(10));
        assert!(acc.local_rate(ProductId(0)) > first, "sustained use keeps raising it");
        // Untouched products stay at zero.
        assert_eq!(acc.local_rate(ProductId(1)), 0);
    }

    #[test]
    fn covered_updates_merge_items_and_note_the_same_text() {
        use avdb_simnet::Actor as _;
        let cfg = config();
        let mut acc = Accelerator::new(SiteId(1), &cfg);
        let mut rng = avdb_simnet::DetRng::new(1);
        let mut ctx = ACtx::new(SiteId(1), VirtualTime(4), &mut rng);
        let req = avdb_types::UpdateRequest::new(SiteId(1), ProductId(0), Volume(-2));
        acc.on_input(&mut ctx, crate::Input::Update(req));
        let items = vec![
            (ProductId(1), Volume(-4)),
            (ProductId(0), Volume(3)),
            (ProductId(1), Volume(1)),
        ];
        acc.on_input(&mut ctx, crate::Input::MultiUpdate { items });
        // Repeated products merge to their net, first appearance first.
        assert_eq!(acc.db().stock(ProductId(0)).unwrap(), Volume(91));
        assert_eq!(acc.db().stock(ProductId(1)).unwrap(), Volume(87));
        assert_eq!(acc.av().available(ProductId(1)), Volume(27));
        let notes: Vec<(u64, u64, String, String)> = acc
            .flight()
            .snapshot()
            .into_iter()
            .filter(|e| e.kind.starts_with("delay."))
            .map(|e| (e.at, e.clock, e.kind, e.detail))
            .collect();
        let (t0, t1) = (TxnId::new(SiteId(1), 0).0, TxnId::new(SiteId(1), 1).0);
        // What the eagerly formatted notes read: time, Lamport clock, text.
        let want = [
            (1, "delay.begin", format!("txn {t0} (1 item(s))")),
            (2, "delay.commit", format!("txn {t0} (1 item(s), 0 correspondence(s))")),
            (7, "delay.begin", format!("txn {t1} (3 item(s))")),
            (8, "delay.commit", format!("txn {t1} (2 item(s), 0 correspondence(s))")),
        ];
        let want: Vec<(u64, u64, String, String)> =
            want.into_iter().map(|(c, k, d)| (4, c, k.to_string(), d)).collect();
        assert_eq!(notes, want);
    }

    /// The detail an eager note with `args` and a lazy one with `fields`
    /// and `render` read back as, through the ring.
    pub(in crate::accelerator) fn eager_and_lazy(
        args: std::fmt::Arguments<'_>,
        fields: FlightFields,
        render: avdb_telemetry::FlightRender,
    ) -> (String, String) {
        let mut ring = avdb_telemetry::FlightRecorder::new(4);
        ring.record_args(9, 3, "note", args);
        ring.record_lazy(9, 3, "note", fields, render);
        let notes = ring.snapshot();
        (notes[0].detail.clone(), notes[1].detail.clone())
    }

    #[test]
    fn lazy_select_notes_read_as_the_eager_ones_did() {
        for (txn, peer, staleness) in [(0, 0u32, 0), (TxnId::new(SiteId(7), 41).0, 31, 1_234_567)] {
            let (eager, lazy) = eager_and_lazy(
                format_args!("txn {} asks s{} (knowledge {staleness} ticks old)", txn, peer),
                [txn, u64::from(peer), staleness, 0, 0],
                render_delay_select,
            );
            assert_eq!(lazy, eager);
        }
    }

    #[test]
    fn lazy_abort_notes_read_as_the_eager_ones_did() {
        for (no_cover, shortage) in [(true, 1i64), (false, 9_000), (false, -2)] {
            let txn = TxnId::new(SiteId(2), 5).0;
            let why = if no_cover { "no peer expected to cover" } else { "insufficient AV" };
            let (eager, lazy) = eager_and_lazy(
                format_args!("txn {} {why} (short {})", txn, shortage),
                [txn, u64::from(no_cover), shortage as u64, 0, 0],
                render_delay_abort,
            );
            assert_eq!(lazy, eager);
        }
    }
}
