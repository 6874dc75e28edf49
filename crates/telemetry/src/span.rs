//! Spans: named, timed operations forming per-trace causal trees.
//!
//! Each site owns a [`SpanCollector`] that mints deterministic span ids
//! (`site << 40 | seq`, the `TxnId` split) and accumulates records. The
//! collector survives simulated crashes on purpose: a crash wipes the
//! *protocol's* volatile state, but the telemetry of what happened before
//! the crash is exactly what a post-mortem needs, and remote children of
//! pre-crash spans must not become orphans.
//!
//! ## Sampling
//!
//! With a [`TraceSampler`] installed, only sampled traces retain their
//! full span trees. Unsampled traces keep their **root** span (so commit
//! latency and the oracle's root-per-committed-txn invariant survive at
//! any rate) while interior spans are parked in a bounded ring. The ring
//! is the retroactive-promotion buffer: when the protocol decides after
//! the fact that a trace is interesting (abort, shortage path, latency
//! outlier), [`SpanCollector::promote`] pulls its parked spans back into
//! the retained set — and is *sticky*: the trace's later spans are
//! retained eagerly too, so a handler may promote at entry and every
//! span it records afterwards survives. Evicted ring records recycle
//! their detail `String`s through a small pool, so steady-state tracing
//! at low rates allocates almost nothing per update.
//!
//! Because every site derives the same sampler from the shared config,
//! the keep/drop decision for a trace is cluster-wide. Promotion is
//! origin-local, so each site promotes when *it* can recognize the
//! interesting event: the update's home site at outcome time (abort,
//! shortage, outlier), an AV granter when asked to grant (shortage
//! path), a 2PC participant when an abort decision arrives. Every such
//! event implies the home site promotes as well, so a promoted span's
//! cross-site parent is retained too and sampling can never manufacture
//! orphan spans.
//!
//! ## What a discarded span costs
//!
//! A span's fate (retain, park or drop) is decided once, at mint, before
//! anything is built. A dropped span advances the id and the eviction
//! count and returns: no [`SpanRecord`], no detail formatting, no pooled
//! buffer. A caller that knows its span could never be kept on this site
//! skips even that with [`SpanCollector::skip_id`], which only consumes
//! the id so every later id is unchanged. Replicas do this for the
//! `apply` span of a trace neither the origin nor the replica keeps. The
//! id-keyed sets hash with a SplitMix64 finalizer instead of SipHash:
//! their keys are ids the sites mint themselves, never client input.

use crate::context::SEQ_BITS;
use crate::sampling::{IdHash, TraceSampler};
use avdb_types::{SiteId, VirtualTime};
use serde::Serialize;
use std::collections::{HashMap, HashSet, VecDeque};

/// Default capacity of the unsampled-span promotion ring.
pub const DEFAULT_SPAN_RING_CAPACITY: usize = 8192;

/// Upper bound on pooled detail buffers kept for reuse.
const DETAIL_POOL_CAP: usize = 256;

/// One operation in a causal tree.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct SpanRecord {
    /// The causal tree this span belongs to.
    pub trace: u64,
    /// This span's id (unique per run).
    pub span: u64,
    /// Parent span id (`0` = trace root). May live on another site.
    pub parent: u64,
    /// The site that recorded the span.
    pub site: SiteId,
    /// Phase name ("update", "checking", "selecting", "transfer", …).
    pub name: &'static str,
    /// Free-form detail (product, amounts, peer) for timeline rendering.
    pub detail: String,
    /// When the operation began.
    pub start: VirtualTime,
    /// When it finished (`None` = still open, or cut short by a fault).
    pub end: Option<VirtualTime>,
    /// Lamport clock when the span was opened.
    pub clock: u64,
}

impl SpanRecord {
    /// Duration in ticks, for closed spans.
    pub fn duration(&self) -> Option<u64> {
        self.end.map(|e| e.since(self.start))
    }
}

/// What a span becomes at mint (see [`SpanCollector::fate`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fate {
    /// Kept in the retained set.
    Retain,
    /// Parked in the promotion ring.
    Park,
    /// Discarded: only its id and the eviction count advance.
    Drop,
}

/// Per-site span sink with deterministic id allocation.
#[derive(Clone, Debug)]
pub struct SpanCollector {
    site: SiteId,
    next_seq: u64,
    spans: Vec<SpanRecord>,
    /// `None` = retain everything (a rate of 1.0).
    sampler: Option<TraceSampler>,
    /// Promotion-candidate filter: with a rescue sampler installed, only
    /// traces it samples park in the ring at all — every other unsampled
    /// interior span is dropped at mint, because nothing will ever
    /// promote it. `None` = every unsampled trace is a candidate.
    rescue: Option<TraceSampler>,
    /// Parked interior spans of unsampled traces, oldest first.
    ring: VecDeque<SpanRecord>,
    ring_cap: usize,
    /// Traces promoted on this site: retained eagerly from then on.
    /// Probed on every record of an unsampled trace (via
    /// [`SpanCollector::trace_sampled`]), so membership must be O(1).
    promoted: HashSet<u64, IdHash>,
    /// Recycled detail buffers from evicted ring records.
    pool: Vec<String>,
    /// Index of *open* retained spans (`span id → index in `spans``), so
    /// the per-event `end`/`note` calls on the hot path are O(1) instead
    /// of a reverse scan over every retained record. Entries are removed
    /// at close; records never move (the retained vec only grows).
    open_retained: HashMap<u64, usize, IdHash>,
    /// How many ring records each unsampled trace currently has parked,
    /// so [`SpanCollector::promote`] knows without scanning whether (and
    /// how far) to dig. Entries leave on eviction and on promotion.
    parked_per_trace: HashMap<u64, u32, IdHash>,
    /// Span ids currently in the ring, so `end`/`note` misses (spans
    /// dropped at mint) cost a hash probe instead of a ring scan.
    parked_ids: HashSet<u64, IdHash>,
    /// Reused scratch for promotion's ring surgery, so a shortage-heavy
    /// sampled run does not allocate a ring-sized buffer per promotion.
    promote_scratch: VecDeque<SpanRecord>,
    /// Interior spans discarded: dropped at mint, or evicted from the
    /// ring before any promotion.
    evicted: u64,
}

impl SpanCollector {
    /// An empty collector for one site. Sequence numbers start at 1 so a
    /// minted span id can never be `0`, the reserved "no parent" marker.
    pub fn new(site: SiteId) -> Self {
        SpanCollector {
            site,
            next_seq: 1,
            spans: Vec::new(),
            sampler: None,
            rescue: None,
            ring: VecDeque::new(),
            ring_cap: DEFAULT_SPAN_RING_CAPACITY,
            promoted: HashSet::default(),
            pool: Vec::new(),
            open_retained: HashMap::default(),
            parked_per_trace: HashMap::default(),
            parked_ids: HashSet::default(),
            promote_scratch: VecDeque::new(),
            evicted: 0,
        }
    }

    /// Installs a head-based sampler. A sampler at rate ≥ 1.0 is dropped
    /// so the fully-traced path stays byte-identical to a collector that
    /// never had one.
    pub fn set_sampler(&mut self, sampler: TraceSampler) {
        self.sampler = if sampler.is_always() { None } else { Some(sampler) };
    }

    /// Overrides the promotion-ring capacity (0 disables parking —
    /// unsampled interior spans are dropped immediately).
    pub fn set_ring_capacity(&mut self, cap: usize) {
        self.ring_cap = cap;
    }

    /// Installs the promotion-candidate (rescue) sampler. The caller must
    /// gate its `promote` calls on the *same* deterministic decision:
    /// spans of unsampled traces the rescue sampler rejects are dropped
    /// at mint and can never be promoted afterwards.
    pub fn set_rescue(&mut self, sampler: TraceSampler) {
        self.rescue = Some(sampler);
    }

    /// Whether an unsampled `trace` may later be promoted (and therefore
    /// must park its interior spans rather than drop them).
    fn rescued(&self, trace: u64) -> bool {
        match self.rescue {
            Some(r) => r.sampled(trace),
            None => true,
        }
    }

    /// Whether a (sub-unity) sampler is installed — i.e. unsampled traces
    /// exist and promotion decisions actually matter.
    pub fn is_sampling(&self) -> bool {
        self.sampler.is_some()
    }

    /// Whether `trace`'s interior spans are retained eagerly (head-sampled
    /// or already promoted on this site).
    pub fn trace_sampled(&self, trace: u64) -> bool {
        match self.sampler {
            Some(s) => s.sampled(trace) || self.promoted.contains(&trace),
            None => true,
        }
    }

    fn next_id(&mut self) -> u64 {
        let id = ((self.site.0 as u64) << SEQ_BITS) | self.next_seq;
        self.next_seq += 1;
        id
    }

    /// A cleared, capacity-retaining detail buffer from the pool.
    pub fn pooled_detail(&mut self) -> String {
        self.pool.pop().unwrap_or_default()
    }

    fn park(&mut self, rec: SpanRecord) {
        if self.ring_cap == 0 {
            self.recycle(rec.detail);
            self.evicted += 1;
            return;
        }
        if self.ring.len() >= self.ring_cap {
            if let Some(old) = self.ring.pop_front() {
                self.unpark_count(old.trace);
                self.parked_ids.remove(&old.span);
                self.recycle(old.detail);
                self.evicted += 1;
            }
        }
        *self.parked_per_trace.entry(rec.trace).or_insert(0) += 1;
        self.parked_ids.insert(rec.span);
        self.ring.push_back(rec);
    }

    /// One fewer record of `trace` parked; drops the entry at zero so the
    /// map stays bounded by the ring's distinct-trace count.
    fn unpark_count(&mut self, trace: u64) {
        if let Some(n) = self.parked_per_trace.get_mut(&trace) {
            *n -= 1;
            if *n == 0 {
                self.parked_per_trace.remove(&trace);
            }
        }
    }

    fn recycle(&mut self, mut detail: String) {
        if detail.capacity() > 0 && self.pool.len() < DETAIL_POOL_CAP {
            detail.clear();
            self.pool.push(detail);
        }
    }

    /// Opens a span (no end time yet) and returns its id.
    pub fn start(
        &mut self,
        trace: u64,
        parent: u64,
        name: &'static str,
        at: VirtualTime,
        clock: u64,
    ) -> u64 {
        self.start_with(trace, parent, name, at, clock, String::new())
    }

    /// [`SpanCollector::start`] with a detail string.
    pub fn start_with(
        &mut self,
        trace: u64,
        parent: u64,
        name: &'static str,
        at: VirtualTime,
        clock: u64,
        detail: String,
    ) -> u64 {
        self.push_record(trace, parent, name, at, None, clock, detail)
    }

    /// What a span of `trace` under `parent` becomes at mint. Roots are
    /// always retained: they carry commit latency and anchor the oracle's
    /// root-per-committed-txn invariant at any rate.
    fn fate(&self, trace: u64, parent: u64) -> Fate {
        if parent == 0 || self.trace_sampled(trace) {
            Fate::Retain
        } else if self.rescued(trace) {
            Fate::Park
        } else {
            // Not a promotion candidate: parking would only displace
            // spans that still have a chance of rescue.
            Fate::Drop
        }
    }

    /// The drop path: advances the id and the eviction count and builds
    /// nothing, so a discarded span costs its fate test and a counter.
    fn drop_at_mint(&mut self) -> u64 {
        self.evicted += 1;
        self.next_id()
    }

    /// Consumes one span id without recording or counting anything. For
    /// a caller that knows its span could never be kept or promoted on
    /// this site but must leave every later span id unchanged.
    pub fn skip_id(&mut self) -> u64 {
        self.next_id()
    }

    /// Records a span with its end already decided. Instant spans go
    /// through here so a parked (unsampled) instant never needs a
    /// retained-set lookup via [`SpanCollector::end`] — at scale that
    /// lookup is a per-event linear scan.
    #[allow(clippy::too_many_arguments)]
    fn push_record(
        &mut self,
        trace: u64,
        parent: u64,
        name: &'static str,
        at: VirtualTime,
        end: Option<VirtualTime>,
        clock: u64,
        detail: String,
    ) -> u64 {
        let fate = self.fate(trace, parent);
        if fate == Fate::Drop {
            self.recycle(detail);
            return self.drop_at_mint();
        }
        self.place(fate, trace, parent, name, at, end, clock, detail)
    }

    /// [`SpanCollector::push_record`] formatting `args` into a pooled
    /// buffer only when the span survives its mint.
    #[allow(clippy::too_many_arguments)]
    fn push_args(
        &mut self,
        trace: u64,
        parent: u64,
        name: &'static str,
        at: VirtualTime,
        end: Option<VirtualTime>,
        clock: u64,
        args: std::fmt::Arguments<'_>,
    ) -> u64 {
        use std::fmt::Write as _;
        let fate = self.fate(trace, parent);
        if fate == Fate::Drop {
            return self.drop_at_mint();
        }
        let mut detail = self.pooled_detail();
        let _ = detail.write_fmt(args);
        self.place(fate, trace, parent, name, at, end, clock, detail)
    }

    /// Builds the record of a span that survives its mint and retains or
    /// parks it.
    #[allow(clippy::too_many_arguments)]
    fn place(
        &mut self,
        fate: Fate,
        trace: u64,
        parent: u64,
        name: &'static str,
        at: VirtualTime,
        end: Option<VirtualTime>,
        clock: u64,
        detail: String,
    ) -> u64 {
        let span = self.next_id();
        let rec = SpanRecord {
            trace,
            span,
            parent,
            site: self.site,
            name,
            detail,
            start: at,
            end,
            clock,
        };
        if fate == Fate::Retain {
            if end.is_none() {
                self.open_retained.insert(span, self.spans.len());
            }
            self.spans.push(rec);
        } else {
            self.park(rec);
        }
        span
    }

    /// [`SpanCollector::start_with`] writing `args` into a pooled buffer,
    /// so hot paths can format details without a fresh allocation.
    pub fn start_args(
        &mut self,
        trace: u64,
        parent: u64,
        name: &'static str,
        at: VirtualTime,
        clock: u64,
        args: std::fmt::Arguments<'_>,
    ) -> u64 {
        self.push_args(trace, parent, name, at, None, clock, args)
    }

    /// Records an instantaneous span (start == end) and returns its id.
    pub fn instant(
        &mut self,
        trace: u64,
        parent: u64,
        name: &'static str,
        at: VirtualTime,
        clock: u64,
    ) -> u64 {
        self.instant_with(trace, parent, name, at, clock, String::new())
    }

    /// [`SpanCollector::instant`] with a detail string.
    pub fn instant_with(
        &mut self,
        trace: u64,
        parent: u64,
        name: &'static str,
        at: VirtualTime,
        clock: u64,
        detail: String,
    ) -> u64 {
        self.push_record(trace, parent, name, at, Some(at), clock, detail)
    }

    /// [`SpanCollector::instant_with`] writing `args` into a pooled buffer.
    pub fn instant_args(
        &mut self,
        trace: u64,
        parent: u64,
        name: &'static str,
        at: VirtualTime,
        clock: u64,
        args: std::fmt::Arguments<'_>,
    ) -> u64 {
        self.push_args(trace, parent, name, at, Some(at), clock, args)
    }

    /// Closes an open span. Closing an unknown or already-closed span is
    /// a no-op: fault paths may race a timeout against the reply it was
    /// guarding, and telemetry must never panic the protocol.
    pub fn end(&mut self, span: u64, at: VirtualTime) {
        if let Some(i) = self.open_retained.remove(&span) {
            self.spans[i].end = Some(at);
            return;
        }
        if !self.parked_ids.contains(&span) {
            return; // dropped at mint (or already evicted): O(1) miss.
        }
        if let Some(rec) =
            self.ring.iter_mut().rev().find(|r| r.span == span && r.end.is_none())
        {
            rec.end = Some(at);
        }
    }

    /// Appends to a span's detail string.
    pub fn note(&mut self, span: u64, detail: &str) {
        if let Some(rec) = self.find_for_note(span) {
            if !rec.detail.is_empty() {
                rec.detail.push_str("; ");
            }
            rec.detail.push_str(detail);
        }
    }

    /// Locates a span for annotation: open retained spans through the
    /// index, parked ones by reverse scan of the (bounded) ring guarded
    /// by an O(1) membership probe, closed retained ones by cold-path
    /// reverse scan. Under sampling the cold scan is skipped entirely —
    /// protocol code only annotates open spans, and letting every note
    /// to a mint-dropped span walk the whole retained vec would be
    /// quadratic in updates.
    fn find_for_note(&mut self, span: u64) -> Option<&mut SpanRecord> {
        if let Some(&i) = self.open_retained.get(&span) {
            return Some(&mut self.spans[i]);
        }
        if self.parked_ids.contains(&span) {
            return self.ring.iter_mut().rev().find(|r| r.span == span);
        }
        if self.sampler.is_none() {
            return self.spans.iter_mut().rev().find(|r| r.span == span);
        }
        None
    }

    /// [`SpanCollector::note`] writing `args` straight into the span's
    /// detail buffer, so hot paths annotate without a temporary `String`.
    pub fn note_args(&mut self, span: u64, args: std::fmt::Arguments<'_>) {
        use std::fmt::Write as _;
        if let Some(rec) = self.find_for_note(span) {
            if !rec.detail.is_empty() {
                rec.detail.push_str("; ");
            }
            let _ = rec.detail.write_fmt(args);
        }
    }

    /// Retroactively promotes a trace: every parked span of `trace` still
    /// in the ring moves (in recording order) into the retained set, and
    /// the trace's future spans are retained eagerly (sticky), so a
    /// handler can promote at entry and keep everything it records after.
    /// Returns how many parked spans were moved. Idempotent — a second
    /// call finds nothing left to move.
    pub fn promote(&mut self, trace: u64) -> usize {
        let Some(sampler) = self.sampler else {
            return 0;
        };
        if sampler.sampled(trace) {
            return 0; // head-sampled: nothing of this trace ever parks.
        }
        if !self.promoted.insert(trace) {
            // Sticky promotion retains the trace's later spans eagerly,
            // so nothing new can have parked since the first call — skip
            // the ring surgery that repeat promotions (one per replicated
            // delta) would otherwise pay.
            return 0;
        }
        let Some(want) = self.parked_per_trace.remove(&trace) else {
            return 0;
        };
        // Dig from the *back*: a trace promoted while its protocol round
        // is still in flight parked its spans recently, so the scan
        // usually touches a handful of records instead of the whole ring.
        // Popped bystanders go to the reused scratch and are restored
        // afterwards; relative order (and thus eviction order) is kept.
        let mut kept = std::mem::take(&mut self.promote_scratch);
        let mut matches: Vec<SpanRecord> = Vec::with_capacity(want as usize);
        while (matches.len() as u32) < want {
            let Some(rec) = self.ring.pop_back() else { break };
            if rec.trace == trace {
                self.parked_ids.remove(&rec.span);
                matches.push(rec);
            } else {
                kept.push_back(rec);
            }
        }
        while let Some(rec) = kept.pop_back() {
            self.ring.push_back(rec);
        }
        self.promote_scratch = kept;
        let promoted = matches.len();
        while let Some(rec) = matches.pop() {
            if rec.end.is_none() {
                self.open_retained.insert(rec.span, self.spans.len());
            }
            self.spans.push(rec);
        }
        promoted
    }

    /// All retained records so far, in open order (promoted spans append
    /// at promotion time, which is itself deterministic).
    pub fn records(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Interior spans discarded so far: dropped at mint, or evicted from
    /// the ring before any promotion reached them.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// `(retained, parked, evicted)` span counts for observability.
    pub fn sampling_stats(&self) -> (usize, usize, u64) {
        (self.spans.len(), self.ring.len(), self.evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_deterministic_and_site_scoped() {
        let mut a = SpanCollector::new(SiteId(2));
        let mut b = SpanCollector::new(SiteId(2));
        let s1 = a.start(1, 0, "update", VirtualTime(0), 1);
        let s2 = b.start(1, 0, "update", VirtualTime(0), 1);
        assert_eq!(s1, s2);
        assert_eq!(s1 >> SEQ_BITS, 2);
        assert_ne!(s1, 0);
    }

    #[test]
    fn end_closes_only_open_spans() {
        let mut c = SpanCollector::new(SiteId(0));
        let s = c.start(9, 0, "transfer", VirtualTime(3), 1);
        c.end(s, VirtualTime(8));
        c.end(s, VirtualTime(99)); // no-op
        assert_eq!(c.records()[0].end, Some(VirtualTime(8)));
        assert_eq!(c.records()[0].duration(), Some(5));
        c.end(12345, VirtualTime(1)); // unknown id: no-op, no panic
    }

    #[test]
    fn instant_spans_have_zero_duration() {
        let mut c = SpanCollector::new(SiteId(1));
        c.instant_with(9, 0, "checking", VirtualTime(4), 2, "P0".into());
        let r = &c.records()[0];
        assert_eq!(r.duration(), Some(0));
        assert_eq!(r.detail, "P0");
    }

    #[test]
    fn note_appends() {
        let mut c = SpanCollector::new(SiteId(1));
        let s = c.start(9, 0, "transfer", VirtualTime(4), 2);
        c.note(s, "asked site2");
        c.note(s, "granted 5");
        assert_eq!(c.records()[0].detail, "asked site2; granted 5");
    }

    fn never() -> TraceSampler {
        TraceSampler::new(0, 0.0)
    }

    #[test]
    fn unsampled_interior_spans_park_but_roots_stay() {
        let mut c = SpanCollector::new(SiteId(1));
        c.set_sampler(never());
        let root = c.start(9, 0, "update", VirtualTime(0), 1);
        let child = c.start(9, root, "transfer", VirtualTime(1), 2);
        c.end(child, VirtualTime(3));
        c.end(root, VirtualTime(4));
        assert_eq!(c.len(), 1);
        assert_eq!(c.records()[0].name, "update");
        assert_eq!(c.records()[0].end, Some(VirtualTime(4)));
        let (retained, parked, evicted) = c.sampling_stats();
        assert_eq!((retained, parked, evicted), (1, 1, 0));
    }

    #[test]
    fn promote_restores_parked_spans_in_order() {
        let mut c = SpanCollector::new(SiteId(1));
        c.set_sampler(never());
        let root = c.start(9, 0, "update", VirtualTime(0), 1);
        let t1 = c.start(9, root, "transfer", VirtualTime(1), 2);
        let other_root = c.start(8, 0, "update", VirtualTime(1), 3);
        let t2 = c.start(8, other_root, "transfer", VirtualTime(2), 4);
        let t3 = c.start(9, root, "commit", VirtualTime(3), 5);
        c.end(t1, VirtualTime(2));
        c.end(t3, VirtualTime(4));
        assert_eq!(c.promote(9), 2);
        assert_eq!(c.promote(9), 0); // idempotent
        let names: Vec<_> =
            c.records().iter().filter(|r| r.trace == 9).map(|r| r.name).collect();
        assert_eq!(names, vec!["update", "transfer", "commit"]);
        assert!(c.records().iter().any(|r| r.span == t1 && r.end == Some(VirtualTime(2))));
        // Trace 8's interior span is still parked, untouched.
        assert!(c.records().iter().all(|r| r.span != t2));
        assert_eq!(c.sampling_stats().1, 1);
    }

    #[test]
    fn promotion_is_sticky_for_later_spans() {
        let mut c = SpanCollector::new(SiteId(1));
        c.set_sampler(never());
        let root = c.start(9, 0, "update", VirtualTime(0), 1);
        c.promote(9);
        // Spans recorded after the promotion are retained eagerly, so a
        // handler can promote at entry before recording its work.
        let child = c.start(9, root, "grant", VirtualTime(1), 2);
        c.end(child, VirtualTime(2));
        assert_eq!(c.len(), 2);
        assert!(c.trace_sampled(9));
        assert!(!c.trace_sampled(8), "stickiness must be per-trace");
    }

    #[test]
    fn ring_evicts_oldest_and_recycles_details() {
        let mut c = SpanCollector::new(SiteId(0));
        c.set_sampler(never());
        c.set_ring_capacity(2);
        let root = c.start(5, 0, "update", VirtualTime(0), 1);
        for i in 0..4u64 {
            c.start_args(5, root, "transfer", VirtualTime(i), i, format_args!("hop {i}"));
        }
        let (_, parked, evicted) = c.sampling_stats();
        assert_eq!((parked, evicted), (2, 2));
        // Only the two newest interior spans survive for promotion.
        assert_eq!(c.promote(5), 2);
        let details: Vec<_> =
            c.records().iter().filter(|r| r.name == "transfer").map(|r| &r.detail).collect();
        assert_eq!(details, vec!["hop 2", "hop 3"]);
    }

    #[test]
    fn drop_path_builds_nothing_and_advances_ids_like_a_mint() {
        // Trace 5 is neither sampled nor a rescue candidate: its interior
        // spans are dropped at mint.
        let mut c = SpanCollector::new(SiteId(3));
        c.set_sampler(never());
        c.set_rescue(never());
        let root = c.start(5, 0, "update", VirtualTime(0), 1);
        c.recycle("warm".to_string());
        let pool = c.pool.len();
        let a = c.instant_args(5, root, "apply", VirtualTime(1), 2, format_args!("P{}", 1));
        let b = c.start_args(5, root, "transfer", VirtualTime(2), 3, format_args!("hop"));
        c.end(b, VirtualTime(3));
        c.note(b, "granted");
        assert_eq!(c.len(), 1, "records untouched");
        assert_eq!(c.sampling_stats(), (1, 0, 2), "ring untouched, two drops counted");
        assert_eq!(c.evicted(), 2);
        assert_eq!(c.pool.len(), pool, "pool untouched");
        // Ids advance exactly as a mint would: a collector retaining
        // everything hands out the same ids for the same calls.
        let mut all = SpanCollector::new(SiteId(3));
        let r2 = all.start(5, 0, "update", VirtualTime(0), 1);
        let a2 = all.instant_args(5, r2, "apply", VirtualTime(1), 2, format_args!("P{}", 1));
        let b2 = all.start_args(5, r2, "transfer", VirtualTime(2), 3, format_args!("hop"));
        assert_eq!((root, a, b), (r2, a2, b2));
        assert_eq!(c.skip_id(), all.skip_id());
        assert_eq!(c.evicted(), 2, "a skipped id is not a drop");
    }

    #[test]
    fn rate_one_sampler_is_a_noop() {
        let mut c = SpanCollector::new(SiteId(0));
        c.set_sampler(TraceSampler::new(3, 1.0));
        let root = c.start(5, 0, "update", VirtualTime(0), 1);
        c.start(5, root, "transfer", VirtualTime(1), 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.sampling_stats().1, 0);
    }
}
