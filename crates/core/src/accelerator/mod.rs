//! The accelerator: one per site, owning the local DB and AV table and
//! implementing the checking / selecting / deciding functions plus the
//! Delay and Immediate Update protocols (paper §3.3–3.4).
//!
//! One struct, one file per protocol lane, each a plain `impl
//! Accelerator` block:
//!
//! * this file — the state, construction, accessors, the
//!   [`Actor`] dispatch and crash / recovery;
//! * `delay` — checking rejects, the Delay Update and its shortage lane
//!   (AV request / grant, grant timeout);
//! * `push` — A9's proactive AV push;
//! * `immediate` — the Immediate Update coordinator and participant;
//! * `propagate` — lazy replication of committed Delay deltas and
//!   anti-entropy;
//! * `observe` — `/status`, `/metrics`, SLO, profile, the flight
//!   recorder, the series window and outcome accounting.

mod delay;
mod immediate;
mod observe;
mod propagate;
mod push;

pub use observe::{StatusAvRow, StatusPeerRow, StatusSnapshot};

use crate::knowledge::KnowledgeExchange;
use crate::protocol::{Input, Msg, TracedMsg};
use crate::replication::{Frame, ReplicationState};
use avdb_escrow::{
    make_decide, make_select, AvTable, DecideStrategy, PeerKnowledge, SelectStrategy,
    TransferLedger,
};
use avdb_simnet::{Actor, Ctx};
use avdb_storage::LocalDb;
use avdb_telemetry::{
    aux_trace_id, FlightRecorder, Registry, SeriesRecorder, SpanCollector, TraceContext,
    TraceSampler, LANE_DELAY, LANE_IMM,
};
use avdb_types::{
    request::AbortReason, ProductId, SiteId, SystemConfig, TxnId, UpdateOutcome, VirtualTime,
};
use delay::PendingDelay;
use immediate::{ImmCoord, ImmPhase};
use observe::{MetricIds, ANOMALY_SEED_SALT};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::PathBuf;

/// WAL length at which a site checkpoints its local DB. The check runs
/// after every event the accelerator handles, so a WAL never holds more
/// than this plus one handler's records, however long the site runs.
/// The checkpoint is fuzzy (see [`LocalDb::checkpoint`]), so it is legal
/// with Delay shortages and 2PC participants in flight.
pub const WAL_CHECKPOINT_RECORDS: usize = 4096;

/// Handler context shorthand: the accelerator's wire type is the traced
/// envelope so causal context rides every protocol message.
type ACtx<'a> = Ctx<'a, TracedMsg, UpdateOutcome>;

/// Lifetime counters for one accelerator (inspection and reporting; the
/// authoritative experiment metrics come from emitted outcomes and the
/// network counters).
#[derive(Clone, Debug, Default, Serialize)]
pub struct AcceleratorStats {
    /// Delay Updates committed entirely locally (zero communication).
    pub delay_local_commits: u64,
    /// Delay Updates committed after AV transfers.
    pub delay_remote_commits: u64,
    /// Delay Updates aborted for insufficient AV.
    pub delay_aborts: u64,
    /// Immediate Updates committed (as coordinator).
    pub imm_commits: u64,
    /// Immediate Updates aborted (as coordinator).
    pub imm_aborts: u64,
    /// AV requests sent.
    pub av_requests_sent: u64,
    /// AV grants answered (including zero-volume denials).
    pub av_grants_answered: u64,
    /// Total AV volume received via transfers.
    pub av_volume_received: i64,
    /// Total AV volume granted away.
    pub av_volume_granted: i64,
    /// Propagation batches flushed to peers.
    pub propagation_batches_sent: u64,
    /// Remote committed deltas applied here.
    pub propagation_deltas_applied: u64,
    /// Proactive AV pushes sent.
    pub av_pushes_sent: u64,
    /// AV volume pushed away proactively.
    pub av_volume_pushed: i64,
    /// Crash recoveries performed.
    pub recoveries: u64,
    /// Updates that were in flight at this origin when it crashed: their
    /// volatile negotiation state died with the site, so they resolve to
    /// no outcome (the paper's fail-stop model; callers account for them
    /// alongside lost inputs).
    pub wiped_in_flight: u64,
}

/// Why a timer was armed.
#[derive(Debug, Clone, Copy)]
enum TimerKind {
    /// Coordinator: give up waiting for Immediate votes.
    ImmVotes(TxnId),
    /// Participant: give up waiting for the Immediate decision.
    ImmDecision(TxnId),
    /// Requester: give up waiting for an AV grant from a peer (the
    /// product pins the timer to one fan-out burst member — the same peer
    /// may be asked again for a later item of the same transaction).
    AvGrant(TxnId, SiteId, ProductId),
    /// Periodic anti-entropy retransmission round.
    AntiEntropy,
    /// Coordinator: give up waiting for the base site's completion ack
    /// (base crashed between vote and done; the commit already happened).
    ImmCompletion(TxnId),
    /// Coordinator: resend a commit decision to participants whose Done
    /// has not arrived yet.
    ImmRetransmit(TxnId),
    /// Window boundary of the time-series plane: roll the registry into
    /// the ring. Re-arms only when the window recorded something, mirroring
    /// the anti-entropy quiescence discipline.
    SeriesWindow,
}

/// One site's accelerator (see crate docs for the protocol overview).
pub struct Accelerator {
    me: SiteId,
    cfg: SystemConfig,
    db: LocalDb,
    av: AvTable,
    knowledge: KnowledgeExchange,
    select: Box<dyn SelectStrategy>,
    decide: Box<dyn DecideStrategy>,
    ledger: TransferLedger,
    stats: AcceleratorStats,

    /// Monotone local sequence for txn ids (durable — ids never reuse).
    next_seq: u64,
    /// Gateway correlation tag of the client update currently entering
    /// `on_input`, consumed by the next `fresh_txn`.
    pending_client_tag: Option<u64>,
    /// Gateway correlation tags by transaction, stamped into the outcome
    /// at emit time. Volatile: a crash drops the tags, and the re-reported
    /// outcomes surface untagged (the gateway treats that as a timeout).
    client_tags: HashMap<TxnId, u64>,
    pending_delay: HashMap<TxnId, PendingDelay>,
    /// Coordinator role: every Immediate Update this site coordinates,
    /// from prepare until the outcome is reported and every participant
    /// acknowledged a commit decision (see [`ImmPhase`]).
    coord: BTreeMap<TxnId, ImmCoord>,
    /// Remote Immediate txns this site has prepared (participant role).
    prepared_remote: BTreeSet<TxnId>,
    /// Participant role: Immediate txns whose decision this site already
    /// executed, so duplicate retransmissions are acknowledged without
    /// re-applying. Durable in this model: it survives crashes as the WAL
    /// does. The WAL checkpoints itself, so it cannot rebuild this set.
    imm_finished: BTreeSet<TxnId>,
    /// Armed timers by token.
    timers: HashMap<u64, TimerKind>,
    next_timer: u64,
    /// Replication log + per-peer cursors + checkpoint prefix. Durable in
    /// this model: it survives crashes as the WAL does, and the
    /// accelerator snapshot persists it.
    repl: ReplicationState,
    /// Last published `repl.divergence.p<N>` per product, so a gauge that
    /// returns to zero is re-published as zero rather than left stale —
    /// and an unchanged gauge is not re-published at all.
    published_divergence: Vec<i64>,
    /// Whether the anti-entropy heartbeat is currently armed. The timer
    /// stops re-arming once every peer has acknowledged the whole log and
    /// restarts on the next local commit — so a finished system still
    /// quiesces (the event queue drains) with anti-entropy enabled.
    anti_entropy_armed: bool,
    /// Per-product consumption-rate EWMA `(volume per kilotick, last
    /// sample tick)`, fed by local Delay decrements and piggybacked on AV
    /// traffic (the `*_rate` message fields) into the peers' rate
    /// columns. No protocol decision reads it yet: it is kept as the
    /// input a demand-sized grant would need, and the ledger's frame
    /// probe encodes those message fields.
    consume_rate: Vec<(i64, VirtualTime)>,

    /// Telemetry: per-site span sink. Deliberately survives crashes — the
    /// record of what happened before a fault is what post-mortems need.
    spans: SpanCollector,
    /// Telemetry: per-site counters / gauges / histograms.
    registry: Registry,
    /// Committed trace ids whose full span tree was retained (sampled or
    /// retroactively promoted) — the deterministic input set for this
    /// site's critical-path profile.
    committed_traces: Vec<u64>,
    /// Cluster-agreed keep/drop decision for anomalous traces while
    /// sampling is active (rate `SystemConfig::anomaly_keep_rate`);
    /// every site derives the same sampler from the shared seed.
    anomaly_sampler: TraceSampler,
    /// Lamport clock, merged from every incoming traced message.
    clock: u64,
    /// Sequence for auxiliary (non-update) trace ids: replication batches
    /// and proactive pushes root their own small trees.
    aux_seq: u64,
    /// Scratch buffer for peer fan-outs — reused so the per-update hot
    /// paths (propagation, Immediate prepare/decide) never allocate a
    /// fresh peer list.
    peer_scratch: Vec<SiteId>,

    /// Always-on flight recorder: a bounded ring of recent protocol
    /// events. Like spans, it deliberately survives crashes — it is the
    /// observer's black box, and the events leading *into* a fault are
    /// exactly what a post-mortem needs.
    flight: FlightRecorder,
    /// Where flight dumps are written when a trigger fires (WAL recovery,
    /// 2PC abort). `None` — the default — records in memory but never
    /// touches disk, keeping sim runs hermetic.
    flight_dir: Option<PathBuf>,
    /// Interned ids for every hot-path instrument, resolved once at
    /// construction so per-event updates index dense registry arrays and
    /// never hash or format a key.
    ids: MetricIds,
    /// Windowed time-series recorder (`None` when `series_window_ticks`
    /// is zero).
    series: Option<SeriesRecorder>,
    /// Whether the series window timer is armed. Mirrors the anti-entropy
    /// quiescence discipline: an idle window lets the timer lapse, the
    /// next activity re-arms it at the following boundary.
    series_armed: bool,
}

impl Accelerator {
    /// Builds the accelerator for `me` from the system config, defining
    /// AV rows for every regular product with this site's share of the
    /// configured split.
    pub fn new(me: SiteId, cfg: &SystemConfig) -> Self {
        let mut av = AvTable::new(cfg.n_products());
        for entry in cfg.catalog.iter().filter(|e| e.class.uses_av()) {
            let split = cfg.split_av(cfg.initial_av_of(entry.id));
            av.define(entry.id, split[me.index()]).expect("dense catalog");
        }
        let repl = ReplicationState::new(me, cfg.n_sites);
        Self::with_state(me, cfg, LocalDb::new(&cfg.catalog), av, 0, repl)
    }

    /// Rebuilds an accelerator from persisted parts: a recovered local DB
    /// plus the durable snapshot written by
    /// [`Accelerator::persist_to_dir`](crate::persist). Volatile protocol
    /// state starts empty; strategies and knowledge are rebuilt from the
    /// config (knowledge is a stale-cache anyway — it re-learns from
    /// traffic).
    pub fn from_parts(
        me: SiteId,
        cfg: &SystemConfig,
        db: LocalDb,
        snap: &crate::persist::AcceleratorSnapshot,
    ) -> Self {
        let av = AvTable::from_snapshot(&snap.av);
        let repl = ReplicationState::from_snapshot(&snap.replication);
        let mut acc = Self::with_state(me, cfg, db, av, snap.next_seq, repl);
        // The recovered replication snapshot may retain unacknowledged
        // deltas; publish their divergence right away.
        acc.refresh_repl_gauges();
        acc
    }

    /// The one constructor: durable state as given, knowledge seeded from
    /// the configured split, telemetry and volatile protocol state fresh.
    fn with_state(
        me: SiteId,
        cfg: &SystemConfig,
        db: LocalDb,
        av: AvTable,
        next_seq: u64,
        repl: ReplicationState,
    ) -> Self {
        let mut knowledge = KnowledgeExchange::new(cfg.n_sites);
        for entry in cfg.catalog.iter().filter(|e| e.class.uses_av()) {
            knowledge.seed(entry.id, &cfg.split_av(cfg.initial_av_of(entry.id)));
        }
        let mut registry = Registry::new();
        let ids = MetricIds::register(&mut registry, cfg.n_sites, cfg.n_products());
        let series =
            (cfg.series_window_ticks > 0).then(|| SeriesRecorder::new(cfg.series_window_ticks));
        let mut spans = SpanCollector::new(me);
        spans.set_sampler(TraceSampler::for_rate(cfg.seed, cfg.trace_sample_rate));
        // The collector drops unsampled spans that fail this same rescue
        // decision at mint, so the two samplers must stay in lockstep.
        spans.set_rescue(TraceSampler::new(cfg.seed ^ ANOMALY_SEED_SALT, cfg.anomaly_keep()));
        Accelerator {
            me,
            cfg: cfg.clone(),
            db,
            av,
            knowledge,
            select: make_select(cfg.select),
            decide: make_decide(cfg.decide),
            ledger: TransferLedger::new(),
            stats: AcceleratorStats::default(),
            next_seq,
            pending_client_tag: None,
            client_tags: HashMap::new(),
            pending_delay: HashMap::new(),
            coord: BTreeMap::new(),
            prepared_remote: BTreeSet::new(),
            imm_finished: BTreeSet::new(),
            timers: HashMap::new(),
            next_timer: 0,
            repl,
            published_divergence: vec![0; cfg.n_products()],
            anti_entropy_armed: false,
            consume_rate: vec![(0, VirtualTime::ZERO); cfg.n_products()],
            spans,
            registry,
            committed_traces: Vec::new(),
            anomaly_sampler: TraceSampler::new(cfg.seed ^ ANOMALY_SEED_SALT, cfg.anomaly_keep()),
            clock: 0,
            aux_seq: 0,
            peer_scratch: Vec::new(),
            flight: FlightRecorder::default(),
            flight_dir: None,
            ids,
            series,
            series_armed: false,
        }
    }

    // ---- accessors ---------------------------------------------------------

    /// This site's id.
    pub fn site(&self) -> SiteId {
        self.me
    }

    /// The local database.
    pub fn db(&self) -> &LocalDb {
        &self.db
    }

    /// The AV management table.
    pub fn av(&self) -> &AvTable {
        &self.av
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &AcceleratorStats {
        &self.stats
    }

    /// Peer-AV knowledge (tests).
    pub fn knowledge(&self) -> &PeerKnowledge {
        self.knowledge.table()
    }

    /// AV transfers this site granted.
    pub fn ledger(&self) -> &TransferLedger {
        &self.ledger
    }

    /// Telemetry: the spans this site recorded.
    pub fn spans(&self) -> &SpanCollector {
        &self.spans
    }

    /// Telemetry: this site's metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The always-on flight recorder (recent protocol events).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Enables flight-dump-to-disk: when a trigger fires (WAL recovery,
    /// 2PC abort) this site writes its ring to `dir` as pretty JSON.
    /// Without this call the ring still records, but never touches disk.
    pub fn enable_flight_dump(&mut self, dir: PathBuf) {
        self.flight_dir = Some(dir);
    }

    /// Current Lamport clock (merged from all traffic seen here).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// `true` when no protocol activity is in flight here. A decided
    /// commit parked by a crash waits on no peer, only on recovery.
    pub fn is_idle(&self) -> bool {
        self.pending_delay.is_empty()
            && self.prepared_remote.is_empty()
            && self.coord.values().all(|c| c.waiting.is_empty())
    }

    /// Immediate Updates this site coordinates whose outcome is not
    /// reported yet.
    fn imm_in_flight(&self) -> usize {
        self.coord.values().filter(|c| c.phase != ImmPhase::Reported).count()
    }

    /// Committed Delay deltas retained in the replication log (not yet
    /// acknowledged by every peer).
    pub fn unpropagated(&self) -> usize {
        self.repl.retained()
    }

    /// `true` when every peer acknowledged the whole replication log.
    pub fn fully_propagated(&self) -> bool {
        self.repl.fully_acked()
    }

    /// Snapshot of the replication state (persistence).
    pub fn replication_snapshot(&self) -> crate::replication::ReplicationSnapshot {
        self.repl.snapshot()
    }

    /// Overrides the replication log's retained-entry cap (tests, tuning).
    pub fn set_checkpoint_threshold(&mut self, n: usize) {
        self.repl.set_checkpoint_threshold(n);
    }

    /// Next transaction sequence number (persistence; monotone forever).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    // ---- helpers -----------------------------------------------------------

    fn fresh_txn(&mut self) -> TxnId {
        let txn = TxnId::new(self.me, self.next_seq);
        self.next_seq += 1;
        if let Some(tag) = self.pending_client_tag.take() {
            self.client_tags.insert(txn, tag);
        }
        txn
    }

    fn peers(&self) -> impl Iterator<Item = SiteId> + '_ {
        SiteId::all(self.cfg.n_sites).filter(move |s| *s != self.me)
    }

    /// Borrows the reusable peer list for a fan-out loop that needs
    /// `&mut self` in its body; hand it back with [`Self::put_peers`].
    fn take_peers(&mut self) -> Vec<SiteId> {
        let mut peers = std::mem::take(&mut self.peer_scratch);
        peers.clear();
        peers.extend(self.peers());
        peers
    }

    fn put_peers(&mut self, peers: Vec<SiteId>) {
        self.peer_scratch = peers;
    }

    fn arm_timer(&mut self, ctx: &mut ACtx<'_>, delay: u64, kind: TimerKind) {
        let token = self.next_timer;
        self.next_timer += 1;
        self.timers.insert(token, kind);
        ctx.set_timer(delay, token);
    }

    /// Advances the Lamport clock for a locally-originated event.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Sends `msg` stamped with causal context `(trace, parent)` and
    /// counts it in the registry. Registry send counts and the network
    /// substrate both count at send time, so their totals agree exactly
    /// even on lossy runs.
    fn send_traced(&mut self, ctx: &mut ACtx<'_>, to: SiteId, trace: u64, parent: u64, msg: Msg) {
        let clock = self.tick();
        self.registry.inc_id(self.ids.msg_sent[msg.kind_index()]);
        ctx.send(to, TracedMsg { ctx: Some(TraceContext::child(trace, parent, clock)), msg });
    }

    /// Sends `msg` without causal context (replies to untraced messages),
    /// still counting it in the registry.
    fn send_plain(&mut self, ctx: &mut ACtx<'_>, to: SiteId, msg: Msg) {
        self.tick();
        self.registry.inc_id(self.ids.msg_sent[msg.kind_index()]);
        ctx.send(to, TracedMsg::plain(msg));
    }

    /// Replies along an incoming context: stamps the reply into the same
    /// trace under `parent` when `incoming` carried one, plain otherwise.
    fn reply_along(
        &mut self,
        ctx: &mut ACtx<'_>,
        to: SiteId,
        incoming: Option<TraceContext>,
        parent: u64,
        msg: Msg,
    ) {
        match incoming {
            Some(c) => self.send_traced(ctx, to, c.trace_id, parent, msg),
            None => self.send_plain(ctx, to, msg),
        }
    }

    /// `incoming` when the cluster-agreed sampler keeps its trace. An
    /// origin skips the root of an unsampled auxiliary trace, so a
    /// receiver spanning under its context would mint a stray root.
    fn kept(&self, incoming: Option<TraceContext>) -> Option<TraceContext> {
        incoming.filter(|c| self.spans.trace_sampled(c.trace_id))
    }

    /// Checkpoints the local DB once its WAL reaches
    /// [`WAL_CHECKPOINT_RECORDS`]. Runs at the end of every handler.
    fn bound_wal(&mut self) {
        if self.db.wal().len() >= WAL_CHECKPOINT_RECORDS {
            self.db.checkpoint();
        }
    }

    /// Mints a fresh auxiliary trace id (replication batches, pushes).
    fn fresh_aux_trace(&mut self) -> u64 {
        let id = aux_trace_id(self.me.0, self.aux_seq);
        self.aux_seq += 1;
        id
    }
}

impl Actor for Accelerator {
    type Msg = TracedMsg;
    type Input = Input;
    type Output = UpdateOutcome;

    fn on_start(&mut self, ctx: &mut ACtx<'_>) {
        self.arm_anti_entropy(ctx);
        self.arm_series(ctx);
    }

    fn on_input(&mut self, ctx: &mut ACtx<'_>, input: Input) {
        self.arm_series(ctx);
        match input {
            Input::ClientUpdate { client, req } => {
                // Same path as a plain update; the pending tag is picked
                // up by `fresh_txn` and stamped into the outcome by
                // `emit_outcome`, whenever that happens.
                self.pending_client_tag = Some(client);
                self.on_input(ctx, Input::Update(req));
                self.pending_client_tag = None;
            }
            Input::Update(req) => {
                debug_assert_eq!(req.site, self.me, "update injected at wrong site");
                // The checking function: AV row defined → Delay, else
                // Immediate (paper §3.3).
                if self.db.class(req.product).is_err() {
                    // Rejected before a lane was assigned; account it to
                    // the strict lane.
                    self.reject(ctx, LANE_IMM, "unknown product", AbortReason::UnknownProduct);
                } else if self.av.is_defined(req.product) {
                    self.start_delay(ctx, vec![(req.product, req.delta)]);
                } else {
                    self.start_immediate(ctx, req);
                }
            }
            Input::MultiUpdate { items } => {
                // The checking function applied to every item: all must be
                // Delay-eligible.
                let all_delay = !items.is_empty()
                    && items.iter().all(|(product, _)| {
                        self.db.class(*product).is_ok() && self.av.is_defined(*product)
                    });
                if all_delay {
                    self.start_delay(ctx, items);
                } else {
                    // A multi-update is a Delay-lane request even when
                    // checking rejects it.
                    let why = "multi-update not Delay-eligible";
                    self.reject(ctx, LANE_DELAY, why, AbortReason::NotDelayEligible);
                }
            }
            Input::FlushPropagation => self.flush_propagation(ctx),
            Input::Reclassify { product, class, local_av } => {
                if class.uses_av() {
                    self.av.define(product, local_av).expect("valid product");
                } else if self.av.is_defined(product) {
                    self.av.undefine(product).expect("valid product");
                }
                self.db.reclassify(product, class).expect("valid product");
            }
            Input::Checkpoint => self.db.checkpoint(),
        }
        self.bound_wal();
    }

    fn on_message(&mut self, ctx: &mut ACtx<'_>, from: SiteId, msg: TracedMsg) {
        let TracedMsg { ctx: incoming, msg } = msg;
        // Lamport merge: every receipt advances past the sender's clock.
        if let Some(c) = incoming {
            self.clock = self.clock.max(c.clock);
        }
        self.clock += 1;
        self.registry.inc_id(self.ids.msg_recv[msg.kind_index()]);
        self.arm_series(ctx);
        match msg {
            Msg::AvRequest { txn, product, amount, requester_av, requester_rate } => self
                .on_av_request(
                    ctx,
                    from,
                    incoming,
                    txn,
                    product,
                    amount,
                    requester_av,
                    requester_rate,
                ),
            Msg::AvGrant { txn, product, amount, grantor_av, grantor_rate } => {
                self.on_av_grant(ctx, from, txn, product, amount, grantor_av, grantor_rate)
            }
            Msg::AvPush { product, amount, pusher_av, pusher_rate } => {
                self.on_av_push(ctx, from, incoming, product, amount, pusher_av, pusher_rate)
            }
            Msg::AvPushAck { product, receiver_av, receiver_rate } => {
                self.knowledge.update(from, product, receiver_av, ctx.now());
                self.knowledge.update_rate(from, product, receiver_rate, ctx.now());
            }
            Msg::Propagate { offset, covers, coalesced, deltas, checkpoint, knowledge } => {
                let frame = Frame { offset, covers, coalesced, deltas, checkpoint };
                self.on_propagate(ctx, from, incoming, frame, knowledge)
            }
            Msg::PropagateAck { upto } => self.on_propagate_ack(ctx, from, incoming, upto),
            Msg::ImmPrepare { txn, product, delta } => {
                self.on_imm_prepare(ctx, from, incoming, txn, product, delta)
            }
            Msg::ImmVote { txn, ready } => self.on_imm_vote(ctx, from, txn, ready),
            Msg::ImmDecision { txn, commit, product, delta } => {
                self.on_imm_decision(ctx, from, incoming, txn, commit, product, delta)
            }
            Msg::ImmDone { txn } => self.on_imm_done(ctx, from, txn),
        }
        self.bound_wal();
    }

    fn on_timer(&mut self, ctx: &mut ACtx<'_>, token: u64) {
        match self.timers.remove(&token) {
            Some(TimerKind::ImmVotes(txn)) => self.on_imm_votes_timeout(ctx, txn),
            Some(TimerKind::ImmDecision(txn)) => self.on_participant_timeout(txn),
            Some(TimerKind::AvGrant(txn, peer, product)) => {
                self.on_av_grant_timeout(ctx, txn, peer, product)
            }
            Some(TimerKind::AntiEntropy) => self.on_anti_entropy(ctx),
            Some(TimerKind::ImmRetransmit(txn)) => self.on_imm_retransmit(ctx, txn),
            Some(TimerKind::SeriesWindow) => self.on_series_window(ctx),
            Some(TimerKind::ImmCompletion(txn)) => self.on_imm_completion_timeout(ctx, txn),
            None => {}
        }
        self.bound_wal();
    }

    fn on_crash(&mut self) {
        // Fail-stop: volatile protocol state is gone. The WAL, AV ledger
        // and catalog are durable; the table is rebuilt on recover. The
        // span collector and registry survive deliberately: telemetry is
        // the observer's record, not the site's state, and spans of wiped
        // updates simply stay open (end = None marks the fault).
        self.registry.inc_id(self.ids.site_crashes);
        // No handler context here (the fault injector stops the site from
        // outside), so the crash event reuses the last recorded tick —
        // the crash happened at-or-after the last thing the ring saw.
        let last_at = self.flight.last_at().unwrap_or(0);
        let wiped = self.pending_delay.len() + self.imm_in_flight();
        self.flight
            .record(last_at, self.clock, "site.crash", format!("{wiped} in-flight wiped"));
        self.db.crash();
        self.stats.wiped_in_flight += wiped as u64;
        // A commit decision already taken is durable (decide_immediate
        // wrote the WAL commit record before this crash), so the update
        // committed cluster-wide no matter what this site does next —
        // only its outcome report is outstanding. Those entries stay in
        // `Decided` for re-report at recovery; everything else is
        // genuinely wiped. The wiped counter above still includes them so
        // a never-recovered site keeps the old accounting; re-reporting
        // decrements it. Undelivered decisions die with the coordinator
        // (2PC's inherent coordinator-crash window), so no entry waits on
        // a peer any more; `imm_finished` survives, durable like the WAL.
        self.coord.retain(|_, c| {
            c.waiting.clear();
            c.phase == ImmPhase::Decided
        });
        self.pending_delay.clear();
        self.prepared_remote.clear();
        self.timers.clear();
        self.anti_entropy_armed = false;
        self.series_armed = false;
        // Holds belonged to the in-flight transactions that just died.
        self.av.release_all_holds();
    }

    fn on_recover(&mut self, ctx: &mut ACtx<'_>) {
        self.db.recover().expect("WAL replay must succeed");
        self.stats.recoveries += 1;
        self.flight_note(
            ctx.now(),
            "wal.recover",
            format!("recovery #{}", self.stats.recoveries),
        );
        // A WAL recovery is a flight-recorder trigger.
        self.write_flight_dump(ctx.now(), "wal-recovery");
        // Timers are volatile; restart the anti-entropy heartbeat and the
        // series window timer.
        self.arm_anti_entropy(ctx);
        self.arm_series(ctx);
        // Commits decided before the crash are durable (in the WAL or its
        // checkpoint) and already executed across the cluster; the client
        // just never heard. Report them now, in txn order — late, but
        // truthful — and give back their wiped-in-flight slots. A live
        // decided commit always waits on the base's Done, so only parked
        // ones match.
        let parked: Vec<TxnId> = self
            .coord
            .iter()
            .filter(|(_, c)| c.phase == ImmPhase::Decided && c.waiting.is_empty())
            .map(|(txn, _)| *txn)
            .collect();
        for txn in parked {
            self.stats.wiped_in_flight = self.stats.wiped_in_flight.saturating_sub(1);
            self.registry.inc_id(self.ids.imm_rereported);
            self.flight_note(
                ctx.now(),
                "imm.rereport",
                format!("txn {} decided before crash", txn.0),
            );
            self.report_immediate(ctx, txn);
        }
        self.bound_wal();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avdb_types::Volume;

    pub(super) fn config() -> SystemConfig {
        SystemConfig::builder()
            .sites(3)
            .regular_products(2, Volume(90))
            .non_regular_products(1, Volume(30))
            .build()
            .unwrap()
    }

    #[test]
    fn constructor_defines_av_for_regular_products_only() {
        let cfg = config();
        let acc = Accelerator::new(SiteId(1), &cfg);
        assert!(acc.av().is_defined(ProductId(0)));
        assert!(acc.av().is_defined(ProductId(1)));
        assert!(!acc.av().is_defined(ProductId(2)));
        // Uniform split of 90 over 3 sites.
        assert_eq!(acc.av().available(ProductId(0)), Volume(30));
        assert!(acc.is_idle());
    }

    #[test]
    fn knowledge_seeded_from_initial_split() {
        let cfg = config();
        let acc = Accelerator::new(SiteId(2), &cfg);
        assert_eq!(acc.knowledge().known(SiteId(0), ProductId(0)), Volume(30));
        assert_eq!(acc.knowledge().known(SiteId(1), ProductId(0)), Volume(30));
    }
}
