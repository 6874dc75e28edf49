//! Lazy replication state: the "propagated to all the system at the
//! earliest" half of Delay Update, made crash-tolerant.
//!
//! Every committed Delay delta is appended to a per-site replication log
//! (durable in this model: it survives a crash, and the accelerator
//! snapshot persists it; the WAL checkpoints itself and cannot rebuild
//! it). Peers acknowledge a
//! cumulative *applied-up-to* offset, every [`ACK_EVERY`] entries of a
//! clean stream and at once whenever the origin must realign; the log
//! truncates below the minimum acknowledged offset. Retransmission after
//! a receiver crash is just "send everything above the peer's ack
//! again", and receivers deduplicate by per-origin applied offsets, so
//! delivery is idempotent.

use crate::protocol::{PropagateDelta, ReplCheckpoint};
use avdb_types::{ProductId, SiteId, TxnId, VirtualTime, Volume};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Default retained-entry cap: once the log holds more than this many
/// unacknowledged deltas, the oldest entries are folded into the
/// per-product checkpoint even though some peer has not acknowledged
/// them. A lagging (or crashed) peer no longer pins the log — it is
/// caught up later by a checkpoint frame on its next flush. The cap
/// bounds sender memory at `O(threshold + products)` per site
/// regardless of run length.
pub const DEFAULT_CHECKPOINT_THRESHOLD: usize = 256;

/// Most log entries one frame covers. A longer pending range (possible
/// only under a raised checkpoint threshold) goes out over several
/// rounds, so every frame stays well inside the mesh's 1 MiB frame cap.
pub const MAX_FRAME_COVERS: u64 = 16_384;

/// Entries a replica applies from one origin's clean in-order stream
/// between two acknowledgements to it. An ack only lets the origin
/// truncate its log, so confirming every 16 entries rather than every
/// frame costs retention alone: at the sim cells' batch of 4 it is one
/// ack per 4 frames, and a streaming origin retains at most
/// `ACK_EVERY + 2·batch − 1` entries per link. That stays below the
/// series watchdog's `queue_depth_floor` of 32, so streaming cannot fire
/// `queue-depth-growth`, and far below [`DEFAULT_CHECKPOINT_THRESHOLD`],
/// so ack lag never forces a fold. Raise it only with that floor
/// argument redone.
pub const ACK_EVERY: u64 = 16;

/// One outgoing replication frame: a contiguous log range
/// `offset..offset + covers`, carried either as the raw per-commit
/// deltas (`coalesced == false`, `covers == deltas.len()`) or folded
/// into one net delta per product (`coalesced == true`,
/// `deltas.len() <= covers`). Acked by the `offset + covers` watermark
/// either way. When the receiver's ack fell below the origin's
/// truncation base, the frame additionally leads with a [`ReplCheckpoint`]
/// summarizing the folded-away prefix `[0..offset)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Absolute log offset of the first covered entry.
    pub offset: u64,
    /// Number of log entries the frame covers.
    pub covers: u64,
    /// Whether `deltas` are net-per-product folds.
    pub coalesced: bool,
    /// Payload deltas, shared by every peer that receives the same
    /// range in one fan-out round.
    pub deltas: Arc<[PropagateDelta]>,
    /// Checkpoint prefix for receivers acked below the truncation base.
    pub checkpoint: Option<ReplCheckpoint>,
}

impl Frame {
    fn build(offset: u64, deltas: Vec<PropagateDelta>, coalesce: bool) -> Frame {
        let covers = deltas.len() as u64;
        if coalesce && deltas.len() >= 2 {
            let mut folded = Vec::with_capacity(deltas.len().min(8));
            coalesce_deltas(&deltas, &mut folded);
            Frame { offset, covers, coalesced: true, deltas: folded.into(), checkpoint: None }
        } else {
            Frame { offset, covers, coalesced: false, deltas: deltas.into(), checkpoint: None }
        }
    }
}

/// What a replica made of one [`Frame`] ([`ReplicationState::receive`]).
#[derive(Debug)]
pub struct Received {
    /// Deltas synthesized from the frame's checkpoint prefix, applied
    /// first.
    pub folded: Vec<PropagateDelta>,
    /// The frame's deltas not applied before, in commit order.
    pub fresh: Arc<[PropagateDelta]>,
    /// This replica's cursor on the origin's log after the frame.
    pub upto: u64,
    /// The cursor to acknowledge now, if an acknowledgement is due.
    pub ack: Option<u64>,
}

/// Adds `d` at `idx`, growing the vec with zeros as needed. Product
/// catalogs are dense and small, so a flat vec indexed by product id
/// beats a map on every path that touches it.
fn bump(v: &mut Vec<i64>, idx: usize, d: i64) {
    if v.len() <= idx {
        v.resize(idx + 1, 0);
    }
    v[idx] += d;
}

/// The per-origin row of `rows`, growing it with `None` as needed. Rows
/// are sized from the cluster up front, so only an origin outside it
/// grows them.
fn row<T: Clone>(rows: &mut Vec<Option<T>>, origin: SiteId) -> &mut Option<T> {
    let idx = origin.index();
    if rows.len() <= idx {
        rows.resize(idx + 1, None);
    }
    &mut rows[idx]
}

/// The origins `rows` has heard from, by raw site id, with their rows.
fn heard<T>(rows: &[Option<T>]) -> impl Iterator<Item = (u32, &T)> {
    rows.iter().enumerate().filter_map(|(i, r)| Some((i as u32, r.as_ref()?)))
}

/// Dense per-origin rows for at least `n_sites` origins from a
/// snapshot's map.
fn dense<T: Clone>(n_sites: usize, map: &BTreeMap<u32, T>) -> Vec<Option<T>> {
    let mut rows = vec![None; n_sites];
    for (&s, v) in map {
        *row(&mut rows, SiteId(s)) = Some(v.clone());
    }
    rows
}

/// Folds a run of committed deltas into one net delta per product,
/// first-commit order (deterministic), dropping products whose increments
/// and decrements cancel exactly. Each fold keeps the *first* covered
/// entry's transaction, commit span and commit time, so telemetry
/// attributes the net apply to the oldest covered commit (the honest
/// worst case for convergence-lag observation).
pub fn coalesce_deltas(deltas: &[PropagateDelta], out: &mut Vec<PropagateDelta>) {
    out.clear();
    for d in deltas {
        // Linear scan: a frame folds to at most one entry per product and
        // catalogs are small, so this beats hashing on the hot path.
        match out.iter_mut().find(|f| f.product == d.product) {
            Some(f) => f.delta = f.delta.saturating_add(d.delta),
            None => out.push(*d),
        }
    }
    out.retain(|f| !f.delta.is_zero());
}

/// Sender + receiver replication bookkeeping for one site.
#[derive(Debug)]
pub struct ReplicationState {
    /// Committed Delay deltas not yet acknowledged by every peer.
    log: VecDeque<PropagateDelta>,
    /// Absolute index of `log[0]`.
    base: u64,
    /// Per-peer highest acknowledged absolute offset (index = site id).
    acked: Vec<u64>,
    /// Per-peer highest offset already sent (normal batching resumes from
    /// here; explicit flushes retransmit from `acked`).
    sent: Vec<u64>,
    /// Receiver side: per-origin applied-up-to offset (dedup cursor),
    /// indexed by origin site id; `None` until the origin is first heard
    /// from.
    applied_from: Vec<Option<u64>>,
    /// Receiver side: per-origin cursor last acknowledged to that origin,
    /// indexed by origin site id (`None` reads as zero). Volatile: not in
    /// the snapshot, and a crash forgets it.
    confirmed: Vec<Option<u64>>,
    /// Per-product net volume of the retained log — a running total
    /// updated on append and truncation, so divergence gauges read it in
    /// O(products) instead of re-summing the log on every stamp.
    retained_nets: Vec<i64>,
    /// Cumulative per-product net volume of the truncated prefix
    /// `[0..base)`.
    ckpt_nets: Vec<i64>,
    /// Commit time of the newest truncated entry — rides checkpoint
    /// frames so receivers can still observe convergence lag for folded
    /// applies.
    ckpt_as_of: VirtualTime,
    /// Retained-entry cap (see [`DEFAULT_CHECKPOINT_THRESHOLD`]).
    ckpt_threshold: usize,
    /// Receiver side: per-origin cumulative applied net volume per
    /// product — what `[0..cursor)` of that origin's log summed to.
    /// Checkpoint frames apply as `origin_nets - applied_nets`, which is
    /// idempotent at any cursor position. Indexed by origin site id;
    /// `None` until something from the origin applied.
    applied_nets: Vec<Option<Vec<i64>>>,
    /// The last frame [`Self::take_batch_frame`] built, keyed on
    /// `(from, end, coalesce)`. Log entries never change once appended,
    /// so every peer at the same cursor in one fan-out round gets a clone
    /// of this frame, sharing its body, instead of a fresh slice and fold.
    last_frame: Option<(u64, u64, bool, Frame)>,
    me: SiteId,
}

impl ReplicationState {
    /// Fresh state for `me` in a system of `n_sites`.
    pub fn new(me: SiteId, n_sites: usize) -> Self {
        ReplicationState {
            log: VecDeque::new(),
            base: 0,
            acked: vec![0; n_sites],
            sent: vec![0; n_sites],
            applied_from: vec![None; n_sites],
            confirmed: vec![None; n_sites],
            retained_nets: Vec::new(),
            ckpt_nets: Vec::new(),
            ckpt_as_of: VirtualTime::ZERO,
            ckpt_threshold: DEFAULT_CHECKPOINT_THRESHOLD,
            applied_nets: vec![None; n_sites],
            last_frame: None,
            me,
        }
    }

    /// Overrides the retained-entry cap (tests and tuning).
    pub fn set_checkpoint_threshold(&mut self, n: usize) {
        self.ckpt_threshold = n.max(1);
    }

    /// Absolute end offset of the log.
    pub fn end(&self) -> u64 {
        self.base + self.log.len() as u64
    }

    /// Number of retained (unacknowledged-somewhere) deltas.
    pub fn retained(&self) -> usize {
        self.log.len()
    }

    /// The retained deltas themselves, oldest first. Divergence gauges sum
    /// these per product: the retained suffix is exactly how far this
    /// site's local state has run ahead of what every peer has confirmed.
    pub fn retained_deltas(&self) -> impl Iterator<Item = &PropagateDelta> {
        self.log.iter()
    }

    /// Per-product net volume of the retained log, indexed by product id
    /// (products beyond the slice are zero). A running total — reading it
    /// is O(products) regardless of log length.
    pub fn retained_nets(&self) -> &[i64] {
        &self.retained_nets
    }

    /// Appends a committed delta. If the log has outgrown the checkpoint
    /// threshold, the oldest entries fold into the checkpoint prefix so
    /// retained memory stays bounded even while a peer lags.
    pub fn record(&mut self, delta: PropagateDelta) {
        bump(&mut self.retained_nets, delta.product.index(), delta.delta.get());
        self.log.push_back(delta);
        while self.log.len() > self.ckpt_threshold {
            self.truncate_front();
        }
    }

    /// Pops the oldest retained entry into the checkpoint prefix.
    fn truncate_front(&mut self) {
        if let Some(d) = self.log.pop_front() {
            self.base += 1;
            bump(&mut self.retained_nets, d.product.index(), -d.delta.get());
            bump(&mut self.ckpt_nets, d.product.index(), d.delta.get());
            // Commit order is time order, so a plain store suffices.
            self.ckpt_as_of = d.committed_at;
        }
    }

    /// `true` when at least one peer's pending range has reached `batch`
    /// deltas — a cheap pre-check so the per-commit propagation path can
    /// skip the per-peer [`Self::take_batch_frame`] loop entirely while a
    /// batch is still filling.
    pub fn batch_ready(&self, batch: usize) -> bool {
        let end = self.end();
        self.sent
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != self.me.index())
            .any(|(_, s)| end.saturating_sub((*s).max(self.base)) >= batch as u64)
    }

    /// The log range a *normal batch flush* sends to `peer`: everything
    /// committed since the last send (at most [`MAX_FRAME_COVERS`]), if
    /// it reaches `batch` deltas. Advances the sent cursor.
    fn take_batch_range(&mut self, peer: SiteId, batch: usize) -> Option<(u64, u64)> {
        debug_assert_ne!(peer, self.me);
        let from = self.sent[peer.index()].max(self.base);
        let end = self.end();
        if end.saturating_sub(from) < batch as u64 {
            return None;
        }
        let end = end.min(from + MAX_FRAME_COVERS);
        self.sent[peer.index()] = end;
        Some((from, end))
    }

    /// The normal batch flush to `peer` as a wire-ready [`Frame`],
    /// optionally coalesced to net-per-product deltas. A peer whose range
    /// matches the previous call's gets a clone of that frame, sharing
    /// its body: one slice and one fold per fan-out round, however many
    /// peers share the cursor.
    pub fn take_batch_frame(&mut self, peer: SiteId, batch: usize, coalesce: bool) -> Option<Frame> {
        let (from, end) = self.take_batch_range(peer, batch)?;
        match &self.last_frame {
            Some((f, e, c, frame)) if (*f, *e, *c) == (from, end, coalesce) => Some(frame.clone()),
            _ => {
                let frame = Frame::build(from, self.slice(from, end), coalesce);
                self.last_frame = Some((from, end, coalesce, frame.clone()));
                Some(frame)
            }
        }
    }

    /// An *explicit flush / retransmission* to `peer` as a wire-ready
    /// [`Frame`]: everything above the peer's acknowledgement, at most
    /// [`MAX_FRAME_COVERS`] (duplicates possible; receivers dedup).
    /// Advances the sent cursor. When the peer's ack fell below the
    /// truncation base (its raw entries were folded away), the frame
    /// leads with the checkpoint prefix that replaces them.
    ///
    /// A range that starts below the sent cursor is built plain even when
    /// coalescing: the peer has most likely applied part of it already,
    /// and a fold it cannot split would be rejected whole, leaving the
    /// still-unsent tail for a second flush round.
    pub fn take_unacked_frame(&mut self, peer: SiteId, coalesce: bool) -> Option<Frame> {
        debug_assert_ne!(peer, self.me);
        let ack = self.acked[peer.index()];
        let needs_ckpt = ack < self.base;
        let from = ack.max(self.base);
        let end = self.end().min(from + MAX_FRAME_COVERS);
        if from >= end && !needs_ckpt {
            return None;
        }
        let coalesce = coalesce && from >= self.sent[peer.index()];
        self.sent[peer.index()] = end;
        let mut frame = Frame::build(from, self.slice(from, end), coalesce);
        if needs_ckpt {
            frame.checkpoint = Some(ReplCheckpoint {
                upto: self.base,
                nets: self.ckpt_nets.clone(),
                as_of: self.ckpt_as_of,
            });
        }
        Some(frame)
    }

    fn slice(&self, from: u64, to: u64) -> Vec<PropagateDelta> {
        let lo = (from - self.base) as usize;
        let hi = (to - self.base) as usize;
        self.log.iter().skip(lo).take(hi - lo).copied().collect()
    }

    /// Handles a cumulative acknowledgement from `peer`; truncates the log
    /// below the minimum ack.
    pub fn on_ack(&mut self, peer: SiteId, upto: u64) {
        let a = &mut self.acked[peer.index()];
        *a = (*a).max(upto);
        let s = &mut self.sent[peer.index()];
        *s = (*s).max(upto);
        let min_acked = self
            .acked
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != self.me.index())
            .map(|(_, a)| *a)
            .min()
            .unwrap_or(self.end());
        while self.base < min_acked && !self.log.is_empty() {
            self.truncate_front();
        }
    }

    /// Receiver side for one whole [`Frame`] from `origin` in a cluster
    /// replicating in batches of `batch`: applies its checkpoint prefix,
    /// then its deltas, and decides whether to acknowledge.
    ///
    /// A frame that continues the stream cleanly — no checkpoint, starting
    /// at this replica's cursor, covering at least a batch — is
    /// acknowledged only once the cursor has moved [`ACK_EVERY`] entries
    /// past the last acknowledgement. Any other frame is acknowledged at
    /// once: a duplicate, gapped or rejected one because the origin must
    /// realign, a checkpoint because it replaced a folded prefix, and a
    /// frame shorter than a batch because only a flush sends one, so the
    /// origin has nothing more queued for this replica and waits on the
    /// ack to truncate.
    pub fn receive(&mut self, origin: SiteId, frame: Frame, batch: usize) -> Received {
        let Frame { offset, covers, coalesced, deltas, checkpoint } = frame;
        let in_order = checkpoint.is_none()
            && offset == self.applied_from(origin)
            && covers >= batch as u64;
        let (ck_upto, folded) = match &checkpoint {
            Some(ck) => self.apply_checkpoint(origin, ck),
            None => (0, Vec::new()),
        };
        let (upto, fresh) = self.apply_frame(origin, offset, covers, coalesced, deltas);
        let upto = upto.max(ck_upto);
        let confirmed = row(&mut self.confirmed, origin).get_or_insert(0);
        let ack = if in_order && upto.saturating_sub(*confirmed) < ACK_EVERY {
            None
        } else {
            *confirmed = upto;
            Some(upto)
        };
        Received { folded, fresh, upto, ack }
    }

    /// Receiver side for a frame's deltas, coalesced or plain: returns
    /// the new applied-up-to cursor on `origin`'s log and the deltas not
    /// applied before, advancing the dedup cursor.
    ///
    /// A plain frame skips whatever prefix was already applied; when all
    /// of it is fresh, the returned deltas are the frame's own body.
    /// `covers` is recomputed from the payload for plain frames. A frame
    /// starting *above* the cursor has a gap below it — some earlier
    /// frame was lost to a crash or partition. Applying it would advance
    /// the cursor over deltas never seen, silently diverging the replica,
    /// so it is rejected wholesale: nothing applies, and the cursor
    /// returned is the current one. The origin's next explicit flush
    /// retransmits from the acknowledged offset and closes the gap.
    ///
    /// A coalesced frame is all-or-nothing: it applies only when it starts
    /// exactly at the dedup cursor — a fold cannot be split, so both
    /// gapped *and* partially-duplicate coalesced frames are rejected
    /// wholesale.
    pub fn apply_frame(
        &mut self,
        origin: SiteId,
        offset: u64,
        covers: u64,
        coalesced: bool,
        deltas: Arc<[PropagateDelta]>,
    ) -> (u64, Arc<[PropagateDelta]>) {
        let cursor = row(&mut self.applied_from, origin).get_or_insert(0);
        let before = *cursor;
        if offset > before || (coalesced && offset != before) {
            return (before, Arc::default());
        }
        let fresh = if coalesced {
            *cursor = offset + covers;
            deltas
        } else {
            *cursor = (offset + deltas.len() as u64).max(before);
            match (before - offset) as usize {
                0 => deltas,
                skip if skip >= deltas.len() => Arc::default(),
                skip => Arc::from(&deltas[skip..]),
            }
        };
        let upto = *cursor;
        self.track_applied(origin, &fresh);
        (upto, fresh)
    }

    /// Folds freshly-applied deltas into the per-origin applied-net
    /// totals (receiver side of the checkpoint bookkeeping).
    fn track_applied(&mut self, origin: SiteId, fresh: &[PropagateDelta]) {
        if fresh.is_empty() {
            return;
        }
        let nets = row(&mut self.applied_nets, origin).get_or_insert_with(Vec::new);
        for d in fresh {
            bump(nets, d.product.index(), d.delta.get());
        }
    }

    /// Receiver side of a checkpoint prefix: catches the cursor up to
    /// `ckpt.upto` by applying the *difference* between the origin's
    /// cumulative nets and what this receiver already applied from that
    /// origin. Returns `(ack_upto, synthesized_deltas)`.
    ///
    /// The subtraction makes application idempotent at any cursor
    /// position: a duplicate checkpoint (or one racing an in-flight plain
    /// frame whose ack the origin had not seen) diffs to zero for the
    /// already-covered products. A stale checkpoint (`upto <= cursor`) is
    /// skipped outright.
    fn apply_checkpoint(
        &mut self,
        origin: SiteId,
        ckpt: &ReplCheckpoint,
    ) -> (u64, Vec<PropagateDelta>) {
        let cursor = self.applied_from(origin);
        if ckpt.upto <= cursor {
            return (cursor, Vec::new());
        }
        let applied = row(&mut self.applied_nets, origin).get_or_insert_with(Vec::new);
        let mut fresh = Vec::new();
        for p in 0..ckpt.nets.len().max(applied.len()) {
            let want = ckpt.nets.get(p).copied().unwrap_or(0);
            let have = applied.get(p).copied().unwrap_or(0);
            if want != have {
                fresh.push(PropagateDelta {
                    txn: TxnId::new(origin, 0),
                    product: ProductId(p as u32),
                    delta: Volume(want - have),
                    commit_span: 0,
                    retained: false,
                    committed_at: ckpt.as_of,
                });
            }
        }
        // After the diff applies, this receiver's nets equal the origin's
        // cumulative prefix exactly.
        applied.clear();
        applied.extend_from_slice(&ckpt.nets);
        *row(&mut self.applied_from, origin) = Some(ckpt.upto);
        (ckpt.upto, fresh)
    }

    /// Highest applied offset from `origin`; 0 until first heard from.
    pub fn applied_from(&self, origin: SiteId) -> u64 {
        self.applied_from.get(origin.index()).copied().flatten().unwrap_or(0)
    }

    /// Fail-stop: forgets the volatile receiver state (what was last
    /// acknowledged to each origin).
    pub fn crash(&mut self) {
        self.confirmed.fill(None);
    }

    /// `true` when every peer has acknowledged the whole log.
    pub fn fully_acked(&self) -> bool {
        let end = self.end();
        self.acked
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != self.me.index())
            .all(|(_, a)| *a >= end)
    }

    /// Durable snapshot of the whole replication state. `sent` cursors
    /// are rewound to `acked` — in-flight batches at snapshot time may or
    /// may not have arrived, and resending from the acknowledgement is
    /// always safe (receivers dedup).
    pub fn snapshot(&self) -> ReplicationSnapshot {
        ReplicationSnapshot {
            log: self.log.iter().copied().collect(),
            base: self.base,
            acked: self.acked.clone(),
            applied_from: heard(&self.applied_from).map(|(s, v)| (s, *v)).collect(),
            me: self.me.0,
            ckpt_nets: self.ckpt_nets.clone(),
            ckpt_as_of: self.ckpt_as_of,
            applied_nets: heard(&self.applied_nets).map(|(s, n)| (s, n.clone())).collect(),
        }
    }

    /// Rebuilds from a snapshot. Running totals (`retained_nets`) are
    /// recomputed from the log; checkpoint prefixes restore as recorded.
    pub fn from_snapshot(snap: &ReplicationSnapshot) -> Self {
        let mut retained_nets = Vec::new();
        for d in &snap.log {
            bump(&mut retained_nets, d.product.index(), d.delta.get());
        }
        let n_sites = snap.acked.len();
        ReplicationState {
            log: snap.log.iter().copied().collect(),
            base: snap.base,
            acked: snap.acked.clone(),
            sent: snap.acked.clone(),
            applied_from: dense(n_sites, &snap.applied_from),
            confirmed: vec![None; n_sites],
            retained_nets,
            ckpt_nets: snap.ckpt_nets.clone(),
            ckpt_as_of: snap.ckpt_as_of,
            ckpt_threshold: DEFAULT_CHECKPOINT_THRESHOLD,
            applied_nets: dense(n_sites, &snap.applied_nets),
            last_frame: None,
            me: SiteId(snap.me),
        }
    }
}

/// Serializable replication state (see [`ReplicationState::snapshot`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplicationSnapshot {
    /// Retained deltas.
    pub log: Vec<PropagateDelta>,
    /// Absolute index of `log[0]`.
    pub base: u64,
    /// Per-peer cumulative acknowledgements.
    pub acked: Vec<u64>,
    /// Per-origin applied cursors (receiver side), keyed by raw site id.
    pub applied_from: BTreeMap<u32, u64>,
    /// This site's raw id.
    pub me: u32,
    /// Cumulative per-product nets of the truncated prefix `[0..base)`.
    pub ckpt_nets: Vec<i64>,
    /// Commit time of the newest truncated entry.
    pub ckpt_as_of: VirtualTime,
    /// Receiver-side per-origin cumulative applied nets, keyed by raw
    /// site id (an origin absent here has applied a zero net).
    pub applied_nets: BTreeMap<u32, Vec<i64>>,
}

#[cfg(test)]
mod proptests {
    use super::*;
    use avdb_types::{ProductId, TxnId, Volume};
    use proptest::prelude::*;

    fn d(seq: u64) -> PropagateDelta {
        PropagateDelta {
            txn: TxnId::new(SiteId(0), seq),
            product: ProductId(0),
            delta: Volume(1),
            commit_span: 0,
            retained: true,
            committed_at: avdb_types::VirtualTime::ZERO,
        }
    }

    /// Random interleavings of records, lossy sends, retransmissions and
    /// acks: the receiver must end up having applied exactly the prefix
    /// `0..cursor` with no delta applied twice or skipped.
    #[derive(Clone, Debug)]
    enum Step {
        Record,
        /// Normal batch send to peer 1 with the given threshold; the bool
        /// decides whether the network delivers it.
        Batch(usize, bool),
        /// Explicit flush to peer 1; the bool decides delivery.
        Flush(bool),
    }

    fn steps() -> impl Strategy<Value = Step> {
        prop_oneof![
            4 => Just(Step::Record),
            3 => (1usize..4, any::<bool>()).prop_map(|(b, ok)| Step::Batch(b, ok)),
            2 => any::<bool>().prop_map(Step::Flush),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn prop_receiver_applies_exact_prefix(seq in prop::collection::vec(steps(), 1..60)) {
            let mut sender = ReplicationState::new(SiteId(0), 2);
            let mut receiver = ReplicationState::new(SiteId(1), 2);
            let mut recorded = 0u64;
            let mut applied: Vec<u64> = Vec::new();
            let deliver = |sender: &mut ReplicationState,
                               receiver: &mut ReplicationState,
                               applied: &mut Vec<u64>,
                               frame: Option<Frame>,
                               ok: bool| {
                if let Some(f) = frame {
                    if ok {
                        let (upto, fresh) =
                            receiver.apply_frame(SiteId(0), f.offset, f.covers, f.coalesced, f.deltas);
                        applied.extend(fresh.iter().map(|f| f.txn.seq()));
                        sender.on_ack(SiteId(1), upto);
                    }
                }
            };
            for step in seq {
                match step {
                    Step::Record => {
                        sender.record(d(recorded));
                        recorded += 1;
                    }
                    Step::Batch(b, ok) => {
                        let frame = sender.take_batch_frame(SiteId(1), b, false);
                        deliver(&mut sender, &mut receiver, &mut applied, frame, ok);
                    }
                    Step::Flush(ok) => {
                        let frame = sender.take_unacked_frame(SiteId(1), false);
                        deliver(&mut sender, &mut receiver, &mut applied, frame, ok);
                    }
                }
                // Applied deltas are always the exact prefix, in order.
                let expect: Vec<u64> = (0..applied.len() as u64).collect();
                prop_assert_eq!(&applied, &expect, "gaps or duplicates crept in");
            }
            // A final reliable flush always converges the receiver.
            let frame = sender.take_unacked_frame(SiteId(1), false);
            deliver(&mut sender, &mut receiver, &mut applied, frame, true);
            prop_assert_eq!(applied.len() as u64, recorded);
            prop_assert!(sender.fully_acked());
        }
    }

    fn dnet(seq: u64, product: u32, delta: i64) -> PropagateDelta {
        PropagateDelta {
            txn: TxnId::new(SiteId(0), seq),
            product: ProductId(product),
            delta: Volume(delta),
            commit_span: 0,
            retained: true,
            committed_at: avdb_types::VirtualTime::ZERO,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// Same lossy send/flush interleavings, but the sender coalesces
        /// every frame. The receiver must never double-apply or skip
        /// volume: its applied net sum per product always equals the
        /// sender-side log prefix below its watermark, and a final
        /// reliable flush converges it to the full recorded net.
        #[test]
        fn prop_coalesced_frames_preserve_net_volume(
            seq in prop::collection::vec(steps(), 1..60),
            payload in prop::collection::vec((0u32..3, -9i64..10), 60),
        ) {
            let mut sender = ReplicationState::new(SiteId(0), 2);
            let mut receiver = ReplicationState::new(SiteId(1), 2);
            let mut recorded: Vec<(u32, i64)> = Vec::new();
            // applied net per product, receiver side
            let mut applied = [0i64; 3];
            let mut watermark = 0u64;
            let deliver = |sender: &mut ReplicationState,
                               receiver: &mut ReplicationState,
                               applied: &mut [i64; 3],
                               watermark: &mut u64,
                               frame: Option<Frame>,
                               ok: bool| {
                if let Some(f) = frame {
                    if ok {
                        let (upto, fresh) =
                            receiver.apply_frame(SiteId(0), f.offset, f.covers, f.coalesced, f.deltas);
                        for d in fresh.iter() {
                            applied[d.product.index()] += d.delta.get();
                        }
                        *watermark = upto;
                        sender.on_ack(SiteId(1), upto);
                    }
                }
            };
            for (i, step) in seq.into_iter().enumerate() {
                match step {
                    Step::Record => {
                        let (p, v) = payload[i % payload.len()];
                        sender.record(dnet(recorded.len() as u64, p, v));
                        recorded.push((p, v));
                    }
                    Step::Batch(b, ok) => {
                        let frame = sender.take_batch_frame(SiteId(1), b, true);
                        deliver(&mut sender, &mut receiver, &mut applied, &mut watermark, frame, ok);
                    }
                    Step::Flush(ok) => {
                        let frame = sender.take_unacked_frame(SiteId(1), true);
                        deliver(&mut sender, &mut receiver, &mut applied, &mut watermark, frame, ok);
                    }
                }
                // The applied net always equals the recorded prefix below
                // the watermark — coalescing moves volume in bigger
                // steps, never creates or destroys it.
                let mut expect = [0i64; 3];
                for (p, v) in recorded.iter().take(watermark as usize) {
                    expect[*p as usize] += v;
                }
                prop_assert_eq!(applied, expect, "coalesced apply diverged from log prefix");
            }
            // A final reliable flush converges to the full recorded net.
            let frame = sender.take_unacked_frame(SiteId(1), true);
            deliver(&mut sender, &mut receiver, &mut applied, &mut watermark, frame, true);
            prop_assert_eq!(watermark, recorded.len() as u64);
            prop_assert!(sender.fully_acked());
            let mut expect = [0i64; 3];
            for (p, v) in &recorded {
                expect[*p as usize] += v;
            }
            prop_assert_eq!(applied, expect);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// Lossy interleavings with an aggressively small checkpoint
        /// threshold: cap folds constantly replace raw entries with the
        /// checkpoint prefix, yet the receiver's applied net always
        /// equals the recorded prefix below its watermark, sender memory
        /// stays bounded by the threshold, and a final reliable flush
        /// (checkpoint + suffix) converges everything.
        #[test]
        fn prop_checkpoint_folds_preserve_net_volume(
            seq in prop::collection::vec(steps(), 1..60),
            payload in prop::collection::vec((0u32..3, -9i64..10), 60),
            threshold in 1usize..6,
        ) {
            let mut sender = ReplicationState::new(SiteId(0), 2);
            sender.set_checkpoint_threshold(threshold);
            let mut receiver = ReplicationState::new(SiteId(1), 2);
            let mut recorded: Vec<(u32, i64)> = Vec::new();
            let mut applied = [0i64; 3];
            let mut watermark = 0u64;
            let deliver = |sender: &mut ReplicationState,
                               receiver: &mut ReplicationState,
                               applied: &mut [i64; 3],
                               watermark: &mut u64,
                               frame: Option<Frame>,
                               ok: bool| {
                if let Some(f) = frame {
                    if ok {
                        let mut upto = 0u64;
                        if let Some(ck) = &f.checkpoint {
                            let (u, fresh) = receiver.apply_checkpoint(SiteId(0), ck);
                            upto = u;
                            for d in fresh {
                                applied[d.product.index()] += d.delta.get();
                            }
                        }
                        let (u, fresh) =
                            receiver.apply_frame(SiteId(0), f.offset, f.covers, f.coalesced, f.deltas);
                        upto = upto.max(u);
                        for d in fresh.iter() {
                            applied[d.product.index()] += d.delta.get();
                        }
                        *watermark = upto;
                        sender.on_ack(SiteId(1), upto);
                    }
                }
            };
            for (i, step) in seq.into_iter().enumerate() {
                match step {
                    Step::Record => {
                        let (p, v) = payload[i % payload.len()];
                        sender.record(dnet(recorded.len() as u64, p, v));
                        recorded.push((p, v));
                        prop_assert!(sender.retained() <= threshold, "cap violated");
                    }
                    Step::Batch(b, ok) => {
                        let frame = sender.take_batch_frame(SiteId(1), b, true);
                        deliver(&mut sender, &mut receiver, &mut applied, &mut watermark, frame, ok);
                    }
                    Step::Flush(ok) => {
                        let frame = sender.take_unacked_frame(SiteId(1), true);
                        deliver(&mut sender, &mut receiver, &mut applied, &mut watermark, frame, ok);
                    }
                }
                let mut expect = [0i64; 3];
                for (p, v) in recorded.iter().take(watermark as usize) {
                    expect[*p as usize] += v;
                }
                prop_assert_eq!(applied, expect, "fold apply diverged from log prefix");
            }
            let frame = sender.take_unacked_frame(SiteId(1), true);
            deliver(&mut sender, &mut receiver, &mut applied, &mut watermark, frame, true);
            prop_assert_eq!(watermark, recorded.len() as u64);
            prop_assert!(sender.fully_acked());
            let mut expect = [0i64; 3];
            for (p, v) in &recorded {
                expect[*p as usize] += v;
            }
            prop_assert_eq!(applied, expect);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// The acknowledgement rule under loss. The origin batches eagerly
        /// (a commit that fills a batch of 4 goes out at once), frames and
        /// acks may be lost, flushes come at random, and the replica acks
        /// only when [`ReplicationState::receive`] says so. The replica
        /// still applies exactly the log prefix below its cursor, the
        /// origin never truncates past that cursor, and two reliable
        /// flushes confirm everything.
        #[test]
        fn prop_sparse_acks_confirm_everything_after_two_flushes(
            seq in prop::collection::vec((0u8..5, any::<bool>(), any::<bool>()), 1..200),
            coalesce in any::<bool>(),
        ) {
            let (origin, peer) = (SiteId(0), SiteId(1));
            let mut sender = ReplicationState::new(origin, 2);
            let mut receiver = ReplicationState::new(peer, 2);
            let mut recorded = 0u64;
            // Every delta is +1, so the applied net counts applied entries.
            let mut applied = 0i64;
            let deliver = |sender: &mut ReplicationState,
                           receiver: &mut ReplicationState,
                           applied: &mut i64,
                           frame: Option<Frame>,
                           ack_ok: bool| {
                if let Some(f) = frame {
                    let got = receiver.receive(origin, f, 4);
                    *applied += got.fresh.iter().map(|d| d.delta.get()).sum::<i64>();
                    if let Some(upto) = got.ack.filter(|_| ack_ok) {
                        sender.on_ack(peer, upto);
                    }
                }
            };
            for (step, ok, ack_ok) in seq {
                let frame = if step == 0 {
                    sender.take_unacked_frame(peer, coalesce)
                } else {
                    sender.record(d(recorded));
                    recorded += 1;
                    sender.take_batch_frame(peer, 4, coalesce)
                };
                deliver(&mut sender, &mut receiver, &mut applied, frame.filter(|_| ok), ack_ok);
                let cursor = receiver.applied_from(origin);
                prop_assert_eq!(applied, cursor as i64, "applied is not the prefix below the cursor");
                prop_assert!(sender.base <= cursor, "origin truncated past the replica");
            }
            for _ in 0..2 {
                let frame = sender.take_unacked_frame(peer, coalesce);
                deliver(&mut sender, &mut receiver, &mut applied, frame, true);
            }
            prop_assert!(sender.fully_acked());
            prop_assert_eq!(receiver.applied_from(origin), recorded);
            prop_assert_eq!(applied, recorded as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avdb_types::{ProductId, TxnId, Volume};

    fn d(seq: u64) -> PropagateDelta {
        PropagateDelta {
            txn: TxnId::new(SiteId(0), seq),
            product: ProductId(0),
            delta: Volume(-1),
            commit_span: 0,
            retained: true,
            committed_at: avdb_types::VirtualTime::ZERO,
        }
    }

    fn state() -> ReplicationState {
        ReplicationState::new(SiteId(0), 3)
    }

    /// Delivers the plain frame `deltas` at `offset` from `origin`.
    fn plain(
        r: &mut ReplicationState,
        origin: SiteId,
        offset: u64,
        deltas: Vec<PropagateDelta>,
    ) -> (u64, Arc<[PropagateDelta]>) {
        r.apply_frame(origin, offset, deltas.len() as u64, false, deltas.into())
    }

    #[test]
    fn batch_waits_for_threshold() {
        let mut r = state();
        r.record(d(0));
        assert!(r.take_batch_frame(SiteId(1), 2, false).is_none());
        r.record(d(1));
        let f = r.take_batch_frame(SiteId(1), 2, false).unwrap();
        assert_eq!(f.offset, 0);
        assert_eq!(f.deltas.len(), 2);
        // Cursor advanced: nothing more for peer 1.
        assert!(r.take_batch_frame(SiteId(1), 1, false).is_none());
        // Peer 2 still gets its copy.
        assert_eq!(r.take_batch_frame(SiteId(2), 2, false).unwrap().deltas.len(), 2);
    }

    #[test]
    fn batch_ready_mirrors_take_batch() {
        let mut r = state();
        assert!(!r.batch_ready(1));
        r.record(d(0));
        assert!(r.batch_ready(1));
        assert!(!r.batch_ready(2));
        let _ = r.take_batch_frame(SiteId(1), 1, false).unwrap();
        assert!(r.batch_ready(1), "peer 2 still pending");
        let _ = r.take_batch_frame(SiteId(2), 1, false).unwrap();
        assert!(!r.batch_ready(1));
    }

    #[test]
    fn unacked_retransmits_from_ack_not_sent() {
        let mut r = state();
        r.record(d(0));
        r.record(d(1));
        let _ = r.take_batch_frame(SiteId(1), 1, false).unwrap(); // sent=2, acked=0
        // Explicit flush retransmits everything unacked.
        let f = r.take_unacked_frame(SiteId(1), false).unwrap();
        assert_eq!(f.offset, 0);
        assert_eq!(f.deltas.len(), 2);
        r.on_ack(SiteId(1), 2);
        assert!(r.take_unacked_frame(SiteId(1), false).is_none());
    }

    #[test]
    fn ack_truncates_at_min_peer() {
        let mut r = state();
        for i in 0..4 {
            r.record(d(i));
        }
        r.on_ack(SiteId(1), 4);
        assert_eq!(r.retained(), 4, "peer 2 has not acked");
        r.on_ack(SiteId(2), 3);
        assert_eq!(r.retained(), 1, "truncated to min ack");
        assert_eq!(r.end(), 4);
        r.on_ack(SiteId(2), 4);
        assert_eq!(r.retained(), 0);
        assert!(r.fully_acked());
    }

    #[test]
    fn stale_ack_does_not_regress() {
        let mut r = state();
        r.record(d(0));
        r.on_ack(SiteId(1), 1);
        r.on_ack(SiteId(1), 0);
        assert_eq!(r.acked[1], 1);
    }

    #[test]
    fn receiver_dedups_overlapping_batches() {
        let mut r = state();
        let batch: Vec<_> = (0..3).map(d).collect();
        let (upto, fresh) = plain(&mut r, SiteId(1), 0, batch.clone());
        assert_eq!(upto, 3);
        assert_eq!(fresh.len(), 3);
        // Retransmission of the same batch: nothing fresh.
        let (upto, fresh) = plain(&mut r, SiteId(1), 0, batch.clone());
        assert_eq!(upto, 3);
        assert!(fresh.is_empty());
        // Overlapping batch [1..5): only [3..5) is fresh.
        let overlap: Vec<_> = (1..5).map(d).collect();
        let (upto, fresh) = plain(&mut r, SiteId(1), 1, overlap);
        assert_eq!(upto, 5);
        assert_eq!(fresh.len(), 2);
        assert_eq!(r.applied_from(SiteId(1)), 5);
    }

    #[test]
    fn gapped_batch_is_rejected_not_skipped_over() {
        let mut r = state();
        // Receiver applied [0..2); batch [5..7) arrives after a crash ate
        // [2..5): must be rejected and the ack must restate the cursor.
        let (_, first) = plain(&mut r, SiteId(1), 0, vec![d(0), d(1)]);
        assert_eq!(first.len(), 2);
        let (upto, fresh) = plain(&mut r, SiteId(1), 5, vec![d(5), d(6)]);
        assert_eq!(upto, 2, "ack restates the cursor");
        assert!(fresh.is_empty(), "nothing from a gapped batch applies");
        assert_eq!(r.applied_from(SiteId(1)), 2, "cursor did not jump the gap");
        // The retransmission covering the gap then applies in full.
        let (upto, fresh) = plain(&mut r, SiteId(1), 2, (2..7).map(d).collect());
        assert_eq!(upto, 7);
        assert_eq!(fresh.len(), 5);
    }

    #[test]
    fn per_origin_cursors_are_independent() {
        let mut r = state();
        let (_, fresh1) = plain(&mut r, SiteId(1), 0, vec![d(0)]);
        assert_eq!(fresh1.len(), 1);
        let (_, fresh2) = plain(&mut r, SiteId(2), 0, vec![d(0)]);
        assert_eq!(fresh2.len(), 1, "other origin's offset space is separate");
    }

    #[test]
    fn single_site_system_is_always_fully_acked() {
        let mut r = ReplicationState::new(SiteId(0), 1);
        r.record(d(0));
        assert!(r.fully_acked());
    }

    fn dp(seq: u64, product: u32, delta: i64) -> PropagateDelta {
        PropagateDelta {
            txn: TxnId::new(SiteId(0), seq),
            product: ProductId(product),
            delta: Volume(delta),
            commit_span: seq,
            retained: true,
            committed_at: avdb_types::VirtualTime(seq),
        }
    }

    #[test]
    fn coalesce_folds_to_net_per_product_in_first_commit_order() {
        let mut out = Vec::new();
        coalesce_deltas(
            &[dp(0, 1, -3), dp(1, 0, 5), dp(2, 1, -2), dp(3, 0, -5), dp(4, 2, 4)],
            &mut out,
        );
        // Product 1 first (first appearance), folded to -5 keeping the
        // oldest entry's txn/span/time; product 0 nets to zero and drops.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].product, ProductId(1));
        assert_eq!(out[0].delta, Volume(-5));
        assert_eq!(out[0].txn.seq(), 0);
        assert_eq!(out[0].committed_at, avdb_types::VirtualTime(0));
        assert_eq!(out[1].product, ProductId(2));
        assert_eq!(out[1].delta, Volume(4));
    }

    #[test]
    fn coalesce_handles_i64_extremes_without_panicking() {
        let mut out = Vec::new();
        coalesce_deltas(&[dp(0, 0, i64::MAX), dp(1, 0, i64::MAX)], &mut out);
        assert_eq!(out[0].delta, Volume(i64::MAX), "saturates instead of wrapping");
        coalesce_deltas(&[dp(0, 0, i64::MAX), dp(1, 0, -i64::MAX)], &mut out);
        assert!(out.is_empty(), "exact cancellation drops the product");
    }

    #[test]
    fn coalesced_frame_covers_full_range_with_fewer_deltas() {
        let mut r = state();
        for (i, delta) in [-2, -3, 4, -1].iter().enumerate() {
            r.record(dp(i as u64, 0, *delta));
        }
        let f = r.take_batch_frame(SiteId(1), 2, true).unwrap();
        assert!(f.coalesced);
        assert_eq!((f.offset, f.covers), (0, 4));
        assert_eq!(f.deltas.len(), 1, "four same-product deltas fold to one net entry");
        assert_eq!(f.deltas[0].delta, Volume(-2 - 3 + 4 - 1));
        // Below-threshold batches still wait.
        assert!(r.take_batch_frame(SiteId(2), 5, true).is_none());
    }

    #[test]
    fn peers_at_one_cursor_share_one_built_frame() {
        let mut r = ReplicationState::new(SiteId(0), 32);
        for i in 0..5 {
            r.record(dp(i, (i % 2) as u32, -1));
        }
        let first = r.take_batch_frame(SiteId(1), 4, true).unwrap();
        let rest: Vec<Frame> =
            (2..32).map(|p| r.take_batch_frame(SiteId(p), 4, true).unwrap()).collect();
        assert_eq!((first.offset, first.covers), (0, 5));
        assert!(rest.iter().all(|f| (f.offset, f.covers, f.coalesced) == (0, 5, true)));
        assert!(
            rest.iter().all(|f| Arc::ptr_eq(&f.deltas, &first.deltas)),
            "one fold, one body, served to all 31 peers"
        );
        assert!(r.take_batch_frame(SiteId(1), 1, true).is_none(), "cursors advanced");
    }

    #[test]
    fn a_peer_whose_cursor_diverged_gets_its_own_range() {
        let mut r = ReplicationState::new(SiteId(0), 4);
        for i in 0..3 {
            r.record(dp(i, 0, -1));
        }
        // An ack past the sent cursor moves peer 1 ahead of peers 2 and 3.
        r.on_ack(SiteId(1), 2);
        let one = r.take_batch_frame(SiteId(1), 1, false).unwrap();
        let two = r.take_batch_frame(SiteId(2), 1, false).unwrap();
        assert_eq!((one.offset, one.covers), (2, 1));
        assert_eq!((two.offset, two.covers), (0, 3));
        assert_eq!(two.deltas.len(), 3, "not the cached one-delta frame");
        // A flush sets peer 3's cursor to the end; after two more commits
        // it shares nothing with peer 2's range.
        assert!(r.take_unacked_frame(SiteId(3), false).is_some());
        r.record(dp(3, 0, -1));
        r.record(dp(4, 0, -1));
        let two = r.take_batch_frame(SiteId(2), 1, false).unwrap();
        let three = r.take_batch_frame(SiteId(3), 1, false).unwrap();
        assert_eq!((two.offset, two.covers), (3, 2));
        assert_eq!((three.offset, three.covers), (3, 2));
        assert_eq!(two, three, "back at one cursor, one frame again");
        let one = r.take_batch_frame(SiteId(1), 1, false).unwrap();
        assert_eq!((one.offset, one.covers), (3, 2));
    }

    #[test]
    fn single_delta_frames_stay_plain_even_when_coalescing() {
        let mut r = state();
        r.record(dp(0, 0, -2));
        let f = r.take_batch_frame(SiteId(1), 1, true).unwrap();
        assert!(!f.coalesced, "nothing to fold");
        assert_eq!(f.covers, 1);
    }

    #[test]
    fn coalesced_apply_is_all_or_nothing() {
        let mut r = state();
        // Aligned frame applies and advances by `covers`, not payload len.
        let (upto, fresh) = r.apply_frame(SiteId(1), 0, 3, true, vec![dp(0, 0, -4)].into());
        assert_eq!(upto, 3);
        assert_eq!(fresh.len(), 1);
        assert_eq!(r.applied_from(SiteId(1)), 3);
        // Exact duplicate: rejected, ack restates the cursor.
        let (upto, fresh) = r.apply_frame(SiteId(1), 0, 3, true, vec![dp(0, 0, -4)].into());
        assert_eq!(upto, 3);
        assert!(fresh.is_empty());
        // Partial overlap ([2..6) against cursor 3): a fold cannot be
        // split, so nothing applies and the cursor holds.
        let (upto, fresh) = r.apply_frame(SiteId(1), 2, 4, true, vec![dp(2, 0, 9)].into());
        assert_eq!(upto, 3);
        assert!(fresh.is_empty());
        assert_eq!(r.applied_from(SiteId(1)), 3);
        // Gap ([5..7) against cursor 3): rejected like plain frames.
        let (upto, fresh) = r.apply_frame(SiteId(1), 5, 2, true, vec![dp(5, 0, 1)].into());
        assert_eq!(upto, 3);
        assert!(fresh.is_empty());
        // The realigned retransmission then lands.
        let (upto, fresh) = r.apply_frame(SiteId(1), 3, 4, true, vec![dp(3, 0, 2)].into());
        assert_eq!(upto, 7);
        assert_eq!(fresh.len(), 1);
    }

    #[test]
    fn empty_coalesced_frame_still_advances_watermark() {
        // Increments and decrements that cancel exactly fold to an empty
        // payload; the frame must still move the cursor or the range
        // would retransmit forever.
        let mut r = state();
        let (upto, fresh) = r.apply_frame(SiteId(1), 0, 2, true, Vec::new().into());
        assert_eq!(upto, 2);
        assert!(fresh.is_empty());
        assert_eq!(r.applied_from(SiteId(1)), 2);
    }

    #[test]
    fn plain_frame_with_defaulted_covers_applies_like_fresh_deltas() {
        // A plain frame's `covers` is not trusted: the receiver advances
        // by the payload length, so a frame that says 0 still applies.
        let mut r = state();
        let (upto, fresh) = r.apply_frame(SiteId(1), 0, 0, false, vec![d(0), d(1)].into());
        assert_eq!(upto, 2);
        assert_eq!(fresh.len(), 2);
    }

    #[test]
    fn retained_nets_track_append_and_truncate() {
        let mut r = state();
        r.record(dp(0, 0, -3));
        r.record(dp(1, 2, 5));
        r.record(dp(2, 0, -1));
        assert_eq!(r.retained_nets(), &[-4, 0, 5]);
        r.on_ack(SiteId(1), 2);
        r.on_ack(SiteId(2), 2);
        assert_eq!(r.retained(), 1, "prefix truncated at min ack");
        assert_eq!(r.retained_nets(), &[-1, 0, 0]);
    }

    #[test]
    fn cap_fold_bounds_log_and_checkpoint_frame_catches_peer_up() {
        let mut r = state();
        r.set_checkpoint_threshold(2);
        for i in 0..6 {
            r.record(dp(i, (i % 2) as u32, -1));
        }
        assert_eq!(r.retained(), 2, "cap folded the oldest entries");
        assert_eq!(r.end(), 6);
        assert_eq!(r.retained_nets(), &[-1, -1]);
        // No peer acked anything, yet memory stayed bounded; the flush to
        // peer 1 leads with the checkpoint covering the folded [0..4).
        let f = r.take_unacked_frame(SiteId(1), false).unwrap();
        let ck = f.checkpoint.clone().expect("peer acked below base");
        assert_eq!(ck.upto, 4);
        assert_eq!(ck.nets, vec![-2, -2]);
        assert_eq!(ck.as_of, avdb_types::VirtualTime(3), "newest folded commit time");
        assert_eq!(f.offset, 4);
        // A fresh receiver applies the fold then the raw suffix and lands
        // on the full recorded net.
        let mut rx = ReplicationState::new(SiteId(1), 3);
        let (upto, fresh) = rx.apply_checkpoint(SiteId(0), &ck);
        assert_eq!(upto, 4);
        let net: i64 = fresh.iter().map(|d| d.delta.get()).sum();
        assert_eq!(net, -4);
        let (upto, fresh) = rx.apply_frame(SiteId(0), f.offset, f.covers, f.coalesced, f.deltas);
        assert_eq!(upto, 6);
        assert_eq!(fresh.len(), 2);
        r.on_ack(SiteId(1), upto);
        assert_eq!(r.acked[1], 6);
    }

    #[test]
    fn checkpoint_apply_is_idempotent_at_any_cursor() {
        let mut rx = state();
        // Receiver already applied [0..3) as plain frames.
        let (_, fresh) = plain(&mut rx, SiteId(1), 0, vec![dp(0, 0, -2), dp(1, 1, 4), dp(2, 0, -1)]);
        assert_eq!(fresh.len(), 3);
        // A checkpoint covering [0..5) arrives (origin folded while this
        // receiver's ack was in flight): only the unseen tail applies.
        let ck = ReplCheckpoint { upto: 5, nets: vec![-3, 9], as_of: avdb_types::VirtualTime(40) };
        let (upto, fresh) = rx.apply_checkpoint(SiteId(1), &ck);
        assert_eq!(upto, 5);
        let mut nets = [0i64; 2];
        for d in &fresh {
            nets[d.product.index()] += d.delta.get();
        }
        assert_eq!(nets, [0, 5], "diff against already-applied nets");
        // Exact duplicate: stale upto, nothing applies.
        let (upto, fresh) = rx.apply_checkpoint(SiteId(1), &ck);
        assert_eq!(upto, 5);
        assert!(fresh.is_empty());
        // Re-delivered older checkpoint: also stale, also a no-op.
        let old = ReplCheckpoint { upto: 3, nets: vec![-3, 4], as_of: avdb_types::VirtualTime(2) };
        let (upto, fresh) = rx.apply_checkpoint(SiteId(1), &old);
        assert_eq!(upto, 5);
        assert!(fresh.is_empty());
    }

    #[test]
    fn snapshot_round_trips_checkpoint_state() {
        let mut r = state();
        r.set_checkpoint_threshold(1);
        for i in 0..4 {
            r.record(dp(i, 0, -2));
        }
        assert_eq!(r.retained(), 1);
        // Receiver side state too.
        let (_, _) = plain(&mut r, SiteId(2), 0, vec![dp(0, 1, 7)]);
        let snap = r.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: ReplicationSnapshot = serde_json::from_str(&json).unwrap();
        let restored = ReplicationState::from_snapshot(&back);
        assert_eq!(restored.retained_nets(), r.retained_nets());
        assert_eq!(restored.end(), r.end());
        // The restored sender can still emit a valid checkpoint frame.
        let f = restored.snapshot();
        assert_eq!(f.ckpt_nets, vec![-6]);
        assert_eq!(f.applied_nets.get(&2), Some(&vec![0, 7]));
    }

    #[test]
    fn cursors_exist_only_for_origins_heard_from() {
        let mut rx = ReplicationState::new(SiteId(0), 6);
        // s1: two plain deltas apply.
        plain(&mut rx, SiteId(1), 0, vec![dp(0, 0, -2), dp(1, 1, 4)]);
        // s2: a checkpoint prefix with an all-zero net moves the cursor.
        let ck = ReplCheckpoint { upto: 4, nets: vec![0, 0, 0], as_of: VirtualTime(9) };
        rx.apply_checkpoint(SiteId(2), &ck);
        // s3: a gapped frame is rejected but leaves a cursor at zero.
        let (upto, fresh) = plain(&mut rx, SiteId(3), 5, vec![dp(5, 0, -1)]);
        assert_eq!((upto, fresh.len()), (0, 0));
        // s4: a stale checkpoint (upto at the cursor) leaves nothing.
        let stale = ReplCheckpoint { upto: 0, nets: vec![1], as_of: VirtualTime(1) };
        rx.apply_checkpoint(SiteId(4), &stale);
        // s5: a coalesced frame past the cursor is rejected.
        rx.apply_frame(SiteId(5), 3, 2, true, vec![dp(3, 1, 1)].into());
        let snap = rx.snapshot();
        // What the map-backed state wrote for the same history.
        let applied_from: BTreeMap<u32, u64> = [(1, 2), (2, 4), (3, 0), (5, 0)].into();
        let applied_nets: BTreeMap<u32, Vec<i64>> = [(1, vec![-2, 4]), (2, vec![0, 0, 0])].into();
        assert_eq!(snap.applied_from, applied_from);
        assert_eq!(snap.applied_nets, applied_nets);
        assert_eq!(rx.applied_from(SiteId(4)), 0);
        let json = serde_json::to_string(&snap).unwrap();
        let back = ReplicationState::from_snapshot(&serde_json::from_str(&json).unwrap());
        assert_eq!(back.snapshot(), snap);
        assert_eq!(back.applied_from(SiteId(2)), 4);
    }

    /// Delivers `frame` from site 0 to `rx` in a cluster batching by 4;
    /// returns the ack `rx` owes, if any.
    fn ack_for(rx: &mut ReplicationState, frame: Frame) -> Option<u64> {
        rx.receive(SiteId(0), frame, 4).ack
    }

    /// A plain frame from site 0 covering `offset..offset + len`.
    fn frame(offset: u64, len: u64) -> Frame {
        let deltas = (offset..offset + len).map(|i| dp(i, 0, -1)).collect();
        Frame { offset, covers: len, coalesced: false, deltas, checkpoint: None }
    }

    #[test]
    fn a_clean_stream_is_acked_every_ack_every_entries() {
        let mut rx = ReplicationState::new(SiteId(1), 2);
        let acks: Vec<Option<u64>> = (0..10).map(|i| ack_for(&mut rx, frame(4 * i, 4))).collect();
        let mut want = vec![None; 10];
        want[3] = Some(16);
        want[7] = Some(32);
        assert_eq!(acks, want, "one ack per four 4-entry frames");
        assert_eq!(rx.applied_from(SiteId(0)), 40, "every frame applied on arrival");
    }

    #[test]
    fn a_duplicate_or_partial_duplicate_frame_is_acked_at_once() {
        let mut rx = ReplicationState::new(SiteId(1), 2);
        assert_eq!(ack_for(&mut rx, frame(0, 4)), None);
        assert_eq!(ack_for(&mut rx, frame(0, 4)), Some(4), "exact duplicate");
        assert_eq!(ack_for(&mut rx, frame(4, 4)), None, "clean again, 4 past the ack");
        let got = rx.receive(SiteId(0), frame(6, 6), 4);
        assert_eq!((got.fresh.len(), got.ack), (4, Some(12)), "partial duplicate");
    }

    #[test]
    fn a_gapped_frame_is_acked_at_once_with_the_cursor() {
        let mut rx = ReplicationState::new(SiteId(1), 2);
        assert_eq!(ack_for(&mut rx, frame(0, 4)), None);
        let got = rx.receive(SiteId(0), frame(8, 4), 4);
        assert!(got.fresh.is_empty(), "nothing past a gap applies");
        assert_eq!(got.ack, Some(4), "the origin hears where to resume");
    }

    #[test]
    fn a_rejected_coalesced_frame_is_acked_at_once() {
        let mut rx = ReplicationState::new(SiteId(1), 2);
        assert_eq!(ack_for(&mut rx, frame(0, 4)), None);
        let fold = Frame { offset: 2, covers: 4, coalesced: true, deltas: vec![dp(2, 0, -4)].into(), checkpoint: None };
        let got = rx.receive(SiteId(0), fold, 4);
        assert!(got.fresh.is_empty(), "a fold straddling the cursor cannot split");
        assert_eq!(got.ack, Some(4));
        let fold = Frame { offset: 4, covers: 4, coalesced: true, deltas: vec![dp(4, 0, -4)].into(), checkpoint: None };
        assert_eq!(ack_for(&mut rx, fold), None, "an aligned fold is a clean continuation");
    }

    #[test]
    fn a_checkpoint_frame_is_acked_at_once() {
        let mut rx = ReplicationState::new(SiteId(1), 2);
        let mut f = frame(8, 4);
        f.checkpoint = Some(ReplCheckpoint { upto: 8, nets: vec![-8], as_of: VirtualTime(7) });
        let got = rx.receive(SiteId(0), f, 4);
        assert_eq!(got.folded.len(), 1, "the folded prefix applies as one net delta");
        assert_eq!((got.fresh.len(), got.upto, got.ack), (4, 12, Some(12)));
    }

    #[test]
    fn a_frame_shorter_than_a_batch_is_a_flush_tail_and_acked_at_once() {
        let mut rx = ReplicationState::new(SiteId(1), 2);
        assert_eq!(ack_for(&mut rx, frame(0, 4)), None);
        assert_eq!(ack_for(&mut rx, frame(4, 3)), Some(7));
    }

    #[test]
    fn a_crash_forgets_what_was_confirmed() {
        let mut rx = ReplicationState::new(SiteId(1), 2);
        (0..4).for_each(|i| assert_eq!(ack_for(&mut rx, frame(4 * i, 4)), (i == 3).then_some(16)));
        assert_eq!(ack_for(&mut rx, frame(16, 4)), None, "4 past the ack at 16");
        rx.crash();
        assert_eq!(ack_for(&mut rx, frame(20, 4)), Some(24), "24 past a forgotten ack");
        assert_eq!(rx.applied_from(SiteId(0)), 24, "the durable cursor survives");
    }

    #[test]
    fn a_coalesced_flush_after_unconfirmed_frames_delivers_in_one_round() {
        let mut tx = ReplicationState::new(SiteId(0), 2);
        let mut rx = ReplicationState::new(SiteId(1), 2);
        // Two 4-entry frames arrive unconfirmed, then a 2-entry tail is
        // recorded but never batched.
        for i in 0..10 {
            tx.record(dp(i, (i % 3) as u32, -1));
            if let Some(f) = tx.take_batch_frame(SiteId(1), 4, true) {
                assert_eq!(ack_for(&mut rx, f), None);
            }
        }
        // The flush resends from the ack, below what was sent: plain, so
        // the replica keeps the fresh tail instead of rejecting a fold.
        let flush = tx.take_unacked_frame(SiteId(1), true).unwrap();
        assert_eq!((flush.offset, flush.covers, flush.coalesced), (0, 10, false));
        let got = rx.receive(SiteId(0), flush, 4);
        assert_eq!((got.fresh.len(), got.ack), (2, Some(10)));
        tx.on_ack(SiteId(1), 10);
        assert!(tx.fully_acked(), "one flush round confirmed everything");
        assert!(tx.take_unacked_frame(SiteId(1), true).is_none());
    }

    #[test]
    fn a_fully_fresh_plain_frame_is_applied_from_its_own_body() {
        let mut rx = ReplicationState::new(SiteId(1), 2);
        let f = frame(0, 4);
        let body = f.deltas.clone();
        let got = rx.receive(SiteId(0), f, 4);
        assert!(Arc::ptr_eq(&got.fresh, &body), "no copy when nothing was seen before");
    }
}
