//! Flight recorder: a fixed-size ring buffer of recent protocol events.
//!
//! Every site keeps one of these always on. It only becomes visible when
//! something goes wrong — an oracle invariant fires, a WAL recovery runs,
//! or a 2PC round aborts — at which point the last `capacity` events from
//! every site are assembled into a [`FlightDump`], written to disk as
//! JSON, and pretty-printed by `avdb-trace flight`.
//!
//! What is formatted when:
//!
//! * [`FlightRecorder::record`] stores a detail the caller already built.
//! * [`FlightRecorder::record_args`] formats its detail at record time,
//!   into a buffer recycled from an evicted slot, so a saturated ring
//!   allocates nothing but still pays the formatting.
//! * [`FlightRecorder::record_lazy`] stores five numbers and a renderer
//!   and formats nothing. The detail is written when the ring is read,
//!   by [`FlightRecorder::snapshot`] (and so [`FlightDump`]), which yields
//!   the same text an eager note would have held. Notes that fire per
//!   replication frame use this path.
//!
//! Events are stamped with the site's virtual time and Lamport clock, so a
//! dump from a deterministic sim run is itself deterministic and two dumps
//! from the same seed are byte-identical.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Default ring capacity per site: enough to cover several protocol rounds
/// without the dump becoming unreadable.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// One recorded protocol event.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Monotone per-site sequence number (never wraps; survives eviction,
    /// so gaps at the front of a dump reveal how much history was lost).
    pub seq: u64,
    /// Virtual-time ticks when the event was recorded.
    pub at: u64,
    /// The site's Lamport clock at recording time.
    pub clock: u64,
    /// Short event class, e.g. `"delay.commit"` or `"imm.abort"`.
    pub kind: String,
    /// Human-readable detail line (txn ids, products, volumes, peers).
    pub detail: String,
}

/// Numbers a lazily formatted note stores in place of its detail text.
pub type FlightFields = [u64; 5];

/// Writes a lazily recorded note's detail from its fields. Runs only when
/// the ring is read ([`FlightRecorder::snapshot`]), never on the hot path.
pub type FlightRender = fn(&FlightFields, &mut String);

/// A slot's detail: text formatted at record time, or the numbers and
/// the renderer that turn them into that text on read.
#[derive(Clone, Debug)]
enum Detail {
    Text(String),
    Lazy(FlightFields, FlightRender),
}

/// One ring slot: a [`FlightEvent`] whose detail may still be unformatted.
#[derive(Clone, Debug)]
struct Slot {
    seq: u64,
    at: u64,
    clock: u64,
    kind: &'static str,
    detail: Detail,
}

/// A bounded ring of [`FlightEvent`]s. Oldest events are evicted first.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    cap: usize,
    next_seq: u64,
    slots: VecDeque<Slot>,
    /// Detail buffers of evicted text slots, reused by the next
    /// [`FlightRecorder::record_args`] so lazy and formatted notes can
    /// interleave without allocator churn.
    spare: Vec<String>,
}

impl FlightRecorder {
    /// A recorder holding at most `cap` events (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        FlightRecorder { cap, next_seq: 0, slots: VecDeque::with_capacity(cap), spare: Vec::new() }
    }

    /// Evicts the oldest slot if the ring is full, keeping its buffer.
    fn make_room(&mut self) {
        if self.slots.len() == self.cap {
            if let Some(Slot { detail: Detail::Text(old), .. }) = self.slots.pop_front() {
                self.spare.push(old);
            }
        }
    }

    /// Appends a slot, evicting the oldest if the ring is full.
    fn push(&mut self, at: u64, clock: u64, kind: &'static str, detail: Detail) {
        self.make_room();
        self.slots.push_back(Slot { seq: self.next_seq, at, clock, kind, detail });
        self.next_seq += 1;
    }

    /// Appends an event, evicting the oldest if the ring is full.
    pub fn record(&mut self, at: u64, clock: u64, kind: &'static str, detail: String) {
        self.push(at, clock, kind, Detail::Text(detail));
    }

    /// [`FlightRecorder::record`] formatting `args` into a recycled
    /// buffer, so a saturated ring records with zero fresh allocations.
    pub fn record_args(
        &mut self,
        at: u64,
        clock: u64,
        kind: &'static str,
        args: std::fmt::Arguments<'_>,
    ) {
        use std::fmt::Write as _;
        self.make_room();
        let mut detail = self.spare.pop().unwrap_or_default();
        detail.clear();
        let _ = detail.write_fmt(args);
        self.push(at, clock, kind, Detail::Text(detail));
    }

    /// Records an event whose detail is `render(&fields)`, formatted only
    /// when the ring is read. For notes that fire per frame or per delta:
    /// recording stores five numbers and a function pointer.
    pub fn record_lazy(
        &mut self,
        at: u64,
        clock: u64,
        kind: &'static str,
        fields: FlightFields,
        render: FlightRender,
    ) {
        self.push(at, clock, kind, Detail::Lazy(fields, render));
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total events ever recorded (retained + evicted).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Virtual time of the newest retained event.
    pub fn last_at(&self) -> Option<u64> {
        self.slots.back().map(|s| s.at)
    }

    /// The retained events, oldest first, with every lazy detail rendered.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        self.slots
            .iter()
            .map(|s| FlightEvent {
                seq: s.seq,
                at: s.at,
                clock: s.clock,
                kind: s.kind.to_string(),
                detail: match &s.detail {
                    Detail::Text(t) => t.clone(),
                    Detail::Lazy(fields, render) => {
                        let mut t = String::new();
                        render(fields, &mut t);
                        t
                    }
                },
            })
            .collect()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

/// One site's slice of a [`FlightDump`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteFlight {
    /// Site id.
    pub site: u32,
    /// Retained events, oldest first.
    pub events: Vec<FlightEvent>,
}

/// A cluster-wide flight-recorder dump: why it was taken plus every site's
/// recent events. Serialized as pretty JSON so a dump is diffable and
/// greppable without tooling; `avdb-trace flight` renders it as a merged
/// timeline.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightDump {
    /// What triggered the dump (oracle violation, WAL recovery, 2PC abort).
    pub reason: String,
    /// Virtual-time ticks when the dump was taken (0 if unknown).
    pub at: u64,
    /// Per-site event rings.
    pub sites: Vec<SiteFlight>,
}

impl FlightDump {
    /// An empty dump with the given reason and timestamp.
    pub fn new(reason: impl Into<String>, at: u64) -> Self {
        FlightDump { reason: reason.into(), at, sites: Vec::new() }
    }

    /// Appends one site's recorder contents.
    pub fn push_site(&mut self, site: u32, recorder: &FlightRecorder) {
        self.sites.push(SiteFlight { site, events: recorder.snapshot() });
    }

    /// Serializes the dump as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("flight dump serializes")
    }

    /// Parses a dump previously written by [`FlightDump::to_json`].
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("invalid flight dump: {e}"))
    }

    /// Total events across all sites.
    pub fn total_events(&self) -> usize {
        self.sites.iter().map(|s| s.events.len()).sum()
    }

    /// Renders a human-readable report: header, then one merged timeline
    /// of every site's events ordered by (virtual time, site, seq).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "flight recorder dump — {}", self.reason);
        let _ = writeln!(out, "taken at t={} · {} site(s) · {} event(s)", self.at, self.sites.len(), self.total_events());
        for sf in &self.sites {
            let evicted = sf.events.first().map(|e| e.seq).unwrap_or(0);
            let _ = writeln!(
                out,
                "  site {}: {} event(s) retained, {} evicted",
                sf.site,
                sf.events.len(),
                evicted
            );
        }
        let mut merged: Vec<(&SiteFlight, &FlightEvent)> = self
            .sites
            .iter()
            .flat_map(|sf| sf.events.iter().map(move |e| (sf, e)))
            .collect();
        merged.sort_by_key(|(sf, e)| (e.at, sf.site, e.seq));
        let _ = writeln!(out);
        let _ = writeln!(out, "{:>8}  {:>6}  {:>6}  {:<24} detail", "t", "site", "clock", "kind");
        for (sf, e) in merged {
            let _ = writeln!(out, "{:>8}  {:>6}  {:>6}  {:<24} {}", e.at, sf.site, e.clock, e.kind, e.detail);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_keeps_seq() {
        let mut r = FlightRecorder::new(3);
        for i in 0..5u64 {
            r.record(i, i, "tick", format!("event {i}"));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.recorded(), 5);
        let seqs: Vec<u64> = r.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn multiple_wraps_retain_only_the_newest_window() {
        let mut r = FlightRecorder::new(3);
        for i in 0..10u64 {
            r.record(i, i, "tick", format!("event {i}"));
        }
        // Three full wraps: only the newest `cap` events survive, oldest
        // first, with their original (never-renumbered) sequence numbers.
        assert_eq!(r.len(), 3);
        assert_eq!(r.recorded(), 10);
        let events = r.snapshot();
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        let details: Vec<&str> = events.iter().map(|e| e.detail.as_str()).collect();
        assert_eq!(details, vec!["event 7", "event 8", "event 9"]);
    }

    #[test]
    fn mid_wrap_dump_is_byte_identical_across_identical_runs() {
        let run = || {
            let mut r = FlightRecorder::new(4);
            // 7 records into a 4-slot ring: the ring is mid-wrap (3 events
            // evicted, eviction pointer not at slot 0).
            for i in 0..7u64 {
                r.record(i * 3, i, "proto.step", format!("n{i}"));
            }
            let mut dump = FlightDump::new("mid-wrap", 21);
            dump.push_site(0, &r);
            dump
        };
        let a = run();
        let b = run();
        assert_eq!(a.to_json(), b.to_json(), "mid-wrap dumps diverge between identical runs");
        // The dump sees through the wrap: events come out oldest-first
        // with contiguous seqs, and the first seq tells how many were lost.
        let seqs: Vec<u64> = a.sites[0].events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5, 6]);
        assert!(a.render().contains("3 evicted"));
    }

    #[test]
    fn dump_ordering_is_stable_under_wrap() {
        // Two sites wrap different amounts; the merged timeline must stay
        // sorted by (time, site, seq) regardless of ring state.
        let mut a = FlightRecorder::new(2);
        for i in 0..5u64 {
            a.record(10 + i, i, "a.step", format!("a{i}"));
        }
        let mut b = FlightRecorder::new(8);
        b.record(11, 0, "b.step", "b0".into());
        let mut dump = FlightDump::new("wrap order", 99);
        dump.push_site(0, &a);
        dump.push_site(1, &b);
        let text = dump.render();
        let pos = |needle: &str| text.find(needle).unwrap_or_else(|| panic!("{needle} missing"));
        assert!(pos("b0") < pos("a3"), "t=11 event must precede t=13:\n{text}");
        assert!(pos("a3") < pos("a4"), "same-site events must stay seq-ordered:\n{text}");
    }

    #[test]
    fn dump_round_trips_and_renders() {
        let mut r = FlightRecorder::new(8);
        r.record(10, 1, "delay.commit", "txn 3 product 0 delta -2".into());
        r.record(12, 2, "imm.abort", "txn 4".into());
        let mut dump = FlightDump::new("test trigger", 20);
        dump.push_site(0, &r);
        dump.push_site(1, &FlightRecorder::new(4));
        let json = dump.to_json();
        let parsed = FlightDump::from_json(&json).unwrap();
        assert_eq!(parsed, dump);
        let text = parsed.render();
        assert!(text.contains("test trigger"));
        assert!(text.contains("imm.abort"));
        assert!(text.contains("txn 3 product 0 delta -2"));
    }

    #[test]
    fn render_merges_sites_by_time() {
        let mut a = FlightRecorder::new(4);
        a.record(5, 1, "a.late", "late".into());
        let mut b = FlightRecorder::new(4);
        b.record(2, 1, "b.early", "early".into());
        let mut dump = FlightDump::new("merge", 6);
        dump.push_site(0, &a);
        dump.push_site(1, &b);
        let text = dump.render();
        let early = text.find("b.early").unwrap();
        let late = text.find("a.late").unwrap();
        assert!(early < late, "events are merged in time order:\n{text}");
    }

    fn render_apply(f: &FlightFields, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "from s{}: {} fresh, ack upto {}", f[0], f[1], f[2]);
    }

    #[test]
    fn lazy_note_renders_the_eager_detail_on_read() {
        let mut eager = FlightRecorder::new(2);
        let mut lazy = FlightRecorder::new(2);
        // Four notes into two slots, text, lazy, lazy, text: the third
        // evicts a text slot for a lazy one, and the fourth a lazy slot
        // for a text one formatted into the first one's recycled buffer.
        let notes = [(1u64, 3u64, 40u64), (7, 0, 12), (2, 5, 9), (4, 1, 17)];
        for (i, (from, fresh, upto)) in notes.into_iter().enumerate() {
            let at = i as u64;
            let text = format_args!("from s{from}: {fresh} fresh, ack upto {upto}");
            eager.record_args(at, at, "repl.apply", text);
            if i == 0 || i == 3 {
                lazy.record_args(at, at, "repl.apply", text);
            } else {
                lazy.record_lazy(at, at, "repl.apply", [from, fresh, upto, 0, 0], render_apply);
            }
        }
        assert_eq!(lazy.snapshot(), eager.snapshot());
        assert_eq!(lazy.snapshot()[0].detail, "from s2: 5 fresh, ack upto 9");
        assert_eq!(lazy.last_at(), Some(3));
        let mut a = FlightDump::new("lazy", 3);
        a.push_site(0, &lazy);
        let mut b = FlightDump::new("lazy", 3);
        b.push_site(0, &eager);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn rejects_garbage_json() {
        assert!(FlightDump::from_json("{nope").is_err());
    }
}
