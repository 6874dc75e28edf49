//! The simulator's event queue.
//!
//! A tick-bucketed **calendar queue** ordered by `(time, sequence)` — the
//! sequence number makes ordering total and therefore the whole
//! simulation deterministic even when many events share a virtual
//! timestamp.
//!
//! Simulation traffic is overwhelmingly near-future (link latencies of a
//! few ticks), so the queue keeps a ring of one-tick FIFO buckets
//! covering the window `[floor, floor + SPAN)`. A push into the window
//! is an O(1) `push_back`; a pop is an O(1) `pop_front` once the floor
//! has settled on the next non-empty bucket (the floor only ever moves
//! forward, so the total scan cost over a whole run is bounded by the
//! virtual timespan, not events × window). Each bucket holds one tick,
//! so its events carry no timestamp: a pop reads it off the floor.
//!
//! Far-future events — long timers, anti-entropy ticks, a whole workload
//! submitted up front — wait in a slab, and an overflow heap orders
//! their 24-byte `(at, seq, slot)` keys, so a floor advance sifts keys,
//! never events. An event moves exactly once, from its slot into its
//! bucket, when the floor advance makes its tick ring-eligible; freed
//! slots are reused, so a warm queue allocates nothing on push. The
//! invariant is that the overflow only ever holds events at or beyond
//! `floor + SPAN`, so every ring event sorts before every overflow
//! event. The rare push *below* the floor parks in the same slab under a
//! small `past` heap that drains first.
//!
//! FIFO among same-tick events is preserved because a bucket only ever
//! receives entries in ascending sequence order: overflow migration for
//! a tick happens (on the floor advance that makes the tick
//! ring-eligible) before any later direct push to that tick, and the
//! overflow heap itself yields same-tick keys in sequence order.

use avdb_types::{SiteId, VirtualTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One scheduled occurrence inside the simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event<M, I> {
    /// Deliver a network message to `to`.
    Deliver {
        /// Sending site.
        from: SiteId,
        /// Receiving site.
        to: SiteId,
        /// Payload.
        msg: M,
    },
    /// Fire a timer the site set for itself.
    Timer {
        /// Site whose timer fires.
        site: SiteId,
        /// Opaque token the site chose when arming the timer.
        token: u64,
    },
    /// Deliver an external input (e.g. a user update request) to a site.
    Input {
        /// Receiving site.
        site: SiteId,
        /// The input.
        input: I,
    },
    /// Crash a site (it stops receiving messages/timers until recovery).
    Crash {
        /// Site to crash.
        site: SiteId,
    },
    /// Recover a crashed site.
    Recover {
        /// Site to recover.
        site: SiteId,
    },
}

/// Heap key of an event waiting in the slab. Field order is the sort
/// order: `(at, seq)` is total, so `slot` never breaks a tie.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: u64,
    seq: u64,
    slot: usize,
}

/// Width of the calendar ring in ticks. Latencies in every latency model
/// used by the experiments are far below this, so steady-state traffic
/// never touches the overflow heap.
const SPAN: u64 = 1024;

/// Deterministic earliest-first event queue.
#[derive(Debug)]
pub struct EventQueue<M, I> {
    /// One-tick FIFO buckets covering `[floor, floor + SPAN)`;
    /// bucket index = tick % SPAN.
    ring: Vec<VecDeque<Event<M, I>>>,
    /// Earliest tick that may still hold events (monotone).
    floor: u64,
    /// Events currently in the ring.
    ring_len: usize,
    /// Keys of events at or beyond `floor + SPAN`, earliest first.
    overflow: BinaryHeap<Reverse<Key>>,
    /// Keys of events pushed below the floor (possible only via explicit
    /// schedule-in-the-past calls); they sort before everything else.
    past: BinaryHeap<Reverse<Key>>,
    /// Events of `overflow` and `past`, by slot; `None` is a free slot.
    slab: Vec<Option<Event<M, I>>>,
    /// Free slots of `slab`.
    free: Vec<usize>,
    len: usize,
    next_seq: u64,
}

impl<M, I> Default for EventQueue<M, I> {
    fn default() -> Self {
        EventQueue {
            ring: (0..SPAN).map(|_| VecDeque::new()).collect(),
            floor: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            past: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            len: 0,
            next_seq: 0,
        }
    }
}

impl<M, I> EventQueue<M, I> {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute virtual time `at`.
    pub fn push(&mut self, at: VirtualTime, event: Event<M, I>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let t = at.ticks();
        if t >= self.floor && t < self.floor + SPAN {
            self.ring[(t % SPAN) as usize].push_back(event);
            self.ring_len += 1;
            return;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                self.slab.len() - 1
            }
        };
        let key = Reverse(Key { at: t, seq, slot });
        if t < self.floor {
            self.past.push(key);
        } else {
            self.overflow.push(key);
        }
    }

    /// Takes the event out of `slot` and frees the slot.
    fn unpark(&mut self, slot: usize) -> Event<M, I> {
        self.free.push(slot);
        self.slab[slot].take().expect("a heap key names an occupied slot")
    }

    /// Moves every overflow event that became ring-eligible from its
    /// slot into its bucket. Called on every floor advance, which is what
    /// keeps bucket FIFO order consistent with global sequence order.
    fn migrate(&mut self) {
        while let Some(&Reverse(key)) = self.overflow.peek() {
            if key.at >= self.floor + SPAN {
                break;
            }
            self.overflow.pop();
            let event = self.unpark(key.slot);
            self.ring[(key.at % SPAN) as usize].push_back(event);
            self.ring_len += 1;
        }
    }

    /// Advances the floor to the next non-empty bucket. When the ring is
    /// empty, jumps straight to the earliest overflow tick instead of
    /// crawling tick by tick across a quiet stretch.
    fn settle(&mut self) {
        if self.ring_len == 0 {
            if let Some(&Reverse(key)) = self.overflow.peek() {
                if key.at > self.floor {
                    self.floor = key.at;
                }
                self.migrate();
            }
            return;
        }
        while self.ring[(self.floor % SPAN) as usize].is_empty() {
            self.floor += 1;
            self.migrate();
        }
    }

    /// Removes and returns the earliest event with its timestamp.
    pub fn pop(&mut self) -> Option<(VirtualTime, Event<M, I>)> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        if let Some(Reverse(key)) = self.past.pop() {
            return Some((VirtualTime(key.at), self.unpark(key.slot)));
        }
        self.settle();
        let event = self.ring[(self.floor % SPAN) as usize]
            .pop_front()
            .expect("settle positioned the floor on a non-empty bucket");
        self.ring_len -= 1;
        Some((VirtualTime(self.floor), event))
    }

    /// Timestamp of the next event without removing it. Takes `&mut`
    /// because it settles the floor onto the next non-empty bucket (an
    /// observationally pure operation).
    pub fn peek_time(&mut self) -> Option<VirtualTime> {
        if self.len == 0 {
            return None;
        }
        if let Some(Reverse(key)) = self.past.peek() {
            return Some(VirtualTime(key.at));
        }
        self.settle();
        Some(VirtualTime(self.floor))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetRng;
    use std::collections::BTreeSet;

    type Q = EventQueue<&'static str, ()>;

    fn timer(site: u32, token: u64) -> Event<&'static str, ()> {
        Event::Timer { site: SiteId(site), token }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q: Q = EventQueue::new();
        q.push(VirtualTime(5), timer(0, 5));
        q.push(VirtualTime(1), timer(0, 1));
        q.push(VirtualTime(3), timer(0, 3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t.ticks()).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q: Q = EventQueue::new();
        q.push(VirtualTime(2), timer(0, 10));
        q.push(VirtualTime(2), timer(0, 11));
        q.push(VirtualTime(2), timer(0, 12));
        let tokens: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tokens, vec![10, 11, 12], "FIFO among simultaneous events");
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q: Q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(VirtualTime(7), timer(1, 0));
        assert_eq!(q.peek_time(), Some(VirtualTime(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop().unwrap();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q: Q = EventQueue::new();
        q.push(VirtualTime(10), timer(0, 10));
        q.push(VirtualTime(4), timer(0, 4));
        assert_eq!(q.pop().unwrap().0, VirtualTime(4));
        q.push(VirtualTime(2), timer(0, 2));
        assert_eq!(q.pop().unwrap().0, VirtualTime(2));
        assert_eq!(q.pop().unwrap().0, VirtualTime(10));
    }

    #[test]
    fn far_future_events_overflow_and_migrate_in_order() {
        let mut q: Q = EventQueue::new();
        // Far beyond the ring window: lands in overflow.
        q.push(VirtualTime(SPAN * 3 + 7), timer(0, 2));
        q.push(VirtualTime(SPAN * 3 + 7), timer(0, 3));
        q.push(VirtualTime(1), timer(0, 1));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().0, VirtualTime(1));
        // The floor jumps across the quiet stretch; same-tick overflow
        // events keep insertion order.
        let (t2, e2) = q.pop().unwrap();
        assert_eq!(t2, VirtualTime(SPAN * 3 + 7));
        assert!(matches!(e2, Event::Timer { token: 2, .. }));
        let (_, e3) = q.pop().unwrap();
        assert!(matches!(e3, Event::Timer { token: 3, .. }));
        assert!(q.is_empty());
    }

    #[test]
    fn migrated_and_direct_pushes_share_a_tick_in_seq_order() {
        let mut q: Q = EventQueue::new();
        let target = VirtualTime(SPAN + 5);
        q.push(target, timer(0, 1)); // overflow at push time
        q.push(VirtualTime(6), timer(0, 0));
        assert_eq!(q.pop().unwrap().0, VirtualTime(6));
        // Floor is now at 6, so `target` is ring-eligible; a direct push
        // to the same tick must pop after the earlier overflow push.
        q.push(target, timer(0, 2));
        let tokens: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tokens, vec![1, 2]);
    }

    #[test]
    fn push_below_floor_still_pops_first() {
        let mut q: Q = EventQueue::new();
        q.push(VirtualTime(100), timer(0, 100));
        assert_eq!(q.pop().unwrap().0, VirtualTime(100));
        // The floor sits at 100 now; an explicit past schedule must still
        // come out before anything later.
        q.push(VirtualTime(3), timer(0, 3));
        q.push(VirtualTime(101), timer(0, 101));
        assert_eq!(q.peek_time(), Some(VirtualTime(3)));
        assert_eq!(q.pop().unwrap().0, VirtualTime(3));
        assert_eq!(q.pop().unwrap().0, VirtualTime(101));
    }

    #[test]
    fn matches_reference_heap_on_mixed_workload() {
        // Cross-check against a plain (at, seq) sort over a deterministic
        // pseudo-random workload that exercises ring, overflow, and
        // interleaved pops.
        let mut q: Q = EventQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new(); // (at, token)
        let mut popped: Vec<(u64, u64)> = Vec::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut token = 0;
        let mut base = 0u64;
        for round in 0..200 {
            for _ in 0..7 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                // Mostly near-future, occasionally far beyond the window.
                let at = base + if x.is_multiple_of(13) { SPAN + (x >> 32) % 5000 } else { x % 40 };
                q.push(VirtualTime(at), timer(0, token));
                reference.push((at, token));
                token += 1;
            }
            if round % 3 != 2 {
                if let Some((t, Event::Timer { token, .. })) = q.pop() {
                    popped.push((t.ticks(), token));
                    base = t.ticks();
                }
            }
        }
        while let Some((t, Event::Timer { token, .. })) = q.pop() {
            popped.push((t.ticks(), token));
        }
        // Stable sort by time reproduces (at, seq) order because tokens
        // were assigned in push order.
        reference.sort_by_key(|&(at, _)| at);
        assert_eq!(popped, reference);
    }

    #[test]
    fn seeded_property_matches_a_reference_at_seq_order() {
        // A reference priority queue of `(at, seq)` against heavy
        // far-future pressure, pushes below the floor, and interleaved
        // peeks and pops; tokens are the sequence numbers.
        for seed in 0..48 {
            let mut rng = DetRng::new(seed);
            let mut q: Q = EventQueue::new();
            let mut reference: BTreeSet<(u64, u64)> = BTreeSet::new();
            let (mut seq, mut now) = (0u64, 0u64);
            let (mut parked_pushes, mut most_parked) = (0usize, 0usize);
            let pop_and_check = |q: &mut Q, reference: &mut BTreeSet<(u64, u64)>| {
                let got = q.pop().map(|(t, e)| match e {
                    Event::Timer { token, .. } => (t.ticks(), token),
                    _ => unreachable!(),
                });
                assert_eq!(got, reference.pop_first(), "seed {seed}");
                got
            };
            for _ in 0..800 {
                match rng.gen_range(10) {
                    0..=5 => {
                        let at = match rng.gen_range(8) {
                            0 => now.saturating_sub(1 + rng.gen_range(50)),
                            1..=3 => now + SPAN + rng.gen_range(6 * SPAN),
                            _ => now + rng.gen_range(40),
                        };
                        let parked = q.overflow.len() + q.past.len();
                        q.push(VirtualTime(at), timer(0, seq));
                        parked_pushes += q.overflow.len() + q.past.len() - parked;
                        reference.insert((at, seq));
                        seq += 1;
                    }
                    6 => {
                        let want = reference.first().map(|&(at, _)| VirtualTime(at));
                        assert_eq!(q.peek_time(), want, "seed {seed}");
                    }
                    _ => {
                        if let Some((at, _)) = pop_and_check(&mut q, &mut reference) {
                            now = at;
                        }
                    }
                }
                assert_eq!(q.len(), reference.len());
                let parked = q.overflow.len() + q.past.len();
                assert_eq!(q.slab.len() - q.free.len(), parked);
                most_parked = most_parked.max(parked);
            }
            while pop_and_check(&mut q, &mut reference).is_some() {}
            assert!(q.is_empty() && q.overflow.is_empty() && q.past.is_empty());
            assert_eq!(q.free.len(), q.slab.len(), "every slot is free again");
            // Migration frees slots and later far-future pushes reuse them:
            // the slab never grows past the most events parked at once.
            assert_eq!(q.slab.len(), most_parked, "seed {seed}");
            assert!(parked_pushes > q.slab.len(), "seed {seed}: no slot was reused");
        }
    }
}
