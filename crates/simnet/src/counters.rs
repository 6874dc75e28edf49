//! Message accounting.
//!
//! The paper's single evaluation metric is the *number of correspondences*
//! — "2 messages are counted as 1 correspondence". The substrate counts
//! every message at the moment it is handed to the network (whether or not
//! a fault later drops it — the sender did spend the communication), per
//! sender, per receiver, per kind, and per (sender, receiver) pair.
//!
//! Since the telemetry refactor the storage behind [`Counters`] is a
//! telemetry [`Registry`] under dotted keys (`msg.total`,
//! `msg.sent.<site>`, `msg.recv.<site>`, `msg.kind.<kind>`,
//! `msg.link.<from>><to>`). Every key is interned to a dense [`MetricId`]
//! on its first appearance — one registration (and one `format!`) per
//! site / kind / link for the life of the counters — so the per-message
//! hot path only indexes arrays. The public API and [`CountersSnapshot`]
//! shape are unchanged.

use avdb_telemetry::{MetricId, Registry};
use avdb_types::SiteId;
use serde::Serialize;
use std::collections::BTreeMap;

/// Running totals of network traffic. Owned by the runtime; protocol code
/// never touches it.
#[derive(Clone, Debug)]
pub struct Counters {
    registry: Registry,
    total_id: MetricId,
    dropped_id: MetricId,
    parked_id: MetricId,
    /// Lazily-grown interned ids, dense by site id: the per-message path
    /// formats each `msg.sent.<site>` / `msg.recv.<site>` key exactly
    /// once, at the site's first appearance.
    sent_ids: Vec<MetricId>,
    recv_ids: Vec<MetricId>,
    /// Kind ids in first-appearance order. The per-message lookup is a
    /// linear probe comparing the `&'static str` *pointer* first: kinds
    /// are a handful of literals, so the probe is a few word compares —
    /// cheaper than hashing the string bytes every send. Content equality
    /// backs the pointer check up, so two identical literals from
    /// different crates still intern to one id.
    kind_ids: Vec<(&'static str, MetricId)>,
    /// Link ids as a dense `from * stride + to` table (lazily regrown
    /// when a larger site id appears), replacing a per-send tuple hash.
    link_ids: Vec<Option<MetricId>>,
    link_stride: usize,
}

impl Default for Counters {
    fn default() -> Self {
        Self::new()
    }
}

/// Returns the interned id for `"{prefix}{site}"` from `cache`,
/// registering it only on the first use of that site id.
fn site_id(cache: &mut Vec<MetricId>, reg: &mut Registry, prefix: &str, site: u32) -> MetricId {
    let i = site as usize;
    for n in cache.len()..=i {
        cache.push(reg.counter_id(&format!("{prefix}{n}")));
    }
    cache[i]
}

impl Counters {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        let mut registry = Registry::new();
        let total_id = registry.counter_id("msg.total");
        let dropped_id = registry.counter_id("msg.dropped");
        let parked_id = registry.counter_id("msg.parked");
        Counters {
            registry,
            total_id,
            dropped_id,
            parked_id,
            sent_ids: Vec::new(),
            recv_ids: Vec::new(),
            kind_ids: Vec::new(),
            link_ids: Vec::new(),
            link_stride: 0,
        }
    }

    /// Records one message handed to the network.
    pub fn record_send(&mut self, from: SiteId, to: SiteId, kind: &'static str) {
        self.registry.inc_id(self.total_id);
        let sent = site_id(&mut self.sent_ids, &mut self.registry, "msg.sent.", from.0);
        self.registry.inc_id(sent);
        let kind_id = match self
            .kind_ids
            .iter()
            .find(|(k, _)| std::ptr::eq(*k, kind) || *k == kind)
        {
            Some(&(_, id)) => id,
            None => {
                let id = self.registry.counter_id(&format!("msg.kind.{kind}"));
                self.kind_ids.push((kind, id));
                id
            }
        };
        self.registry.inc_id(kind_id);
        let hi = from.0.max(to.0) as usize;
        if hi >= self.link_stride {
            self.regrow_links(hi + 1);
        }
        let slot = from.0 as usize * self.link_stride + to.0 as usize;
        let link_id = match self.link_ids[slot] {
            Some(id) => id,
            None => {
                let id = self.registry.counter_id(&format!("msg.link.{}>{}", from.0, to.0));
                self.link_ids[slot] = Some(id);
                id
            }
        };
        self.registry.inc_id(link_id);
    }

    /// Regrows the dense link table to `stride × stride`, re-homing the
    /// already-interned ids under the new stride.
    fn regrow_links(&mut self, stride: usize) {
        let stride = stride.max(self.link_stride * 2).max(8);
        let mut next = vec![None; stride * stride];
        for f in 0..self.link_stride {
            for t in 0..self.link_stride {
                next[f * stride + t] = self.link_ids[f * self.link_stride + t];
            }
        }
        self.link_ids = next;
        self.link_stride = stride;
    }

    /// Records a successful delivery.
    pub fn record_delivery(&mut self, to: SiteId) {
        let recv = site_id(&mut self.recv_ids, &mut self.registry, "msg.recv.", to.0);
        self.registry.inc_id(recv);
    }

    /// Records a message lost to a fault (partition, probabilistic drop).
    pub fn record_drop(&mut self) {
        self.registry.inc_id(self.dropped_id);
    }

    /// Records a message parked for a crashed site (store-and-forward:
    /// the transport holds it and delivers after recovery).
    pub fn record_parked(&mut self) {
        self.registry.inc_id(self.parked_id);
    }

    /// Total messages sent so far.
    pub fn total_messages(&self) -> u64 {
        self.registry.counter_value(self.total_id)
    }

    /// Total messages lost to faults.
    pub fn dropped_messages(&self) -> u64 {
        self.registry.counter_value(self.dropped_id)
    }

    /// Total messages parked for crashed sites (cumulative; parking is
    /// not loss — parked messages deliver at recovery).
    pub fn parked_messages(&self) -> u64 {
        self.registry.counter_value(self.parked_id)
    }

    /// Paper accounting: total correspondences = messages / 2. Exact on
    /// fault-free runs whose every exchange is request/reply-paired; a
    /// protocol that acknowledges some requests sparsely (avdb's lazy
    /// replication) must count those apart.
    pub fn total_correspondences(&self) -> u64 {
        self.total_messages() / 2
    }

    /// Messages sent by one site.
    pub fn sent_by(&self, site: SiteId) -> u64 {
        self.sent_ids
            .get(site.index())
            .map(|&id| self.registry.counter_value(id))
            .unwrap_or(0)
    }

    /// Messages received by one site.
    pub fn received_by(&self, site: SiteId) -> u64 {
        self.recv_ids
            .get(site.index())
            .map(|&id| self.registry.counter_value(id))
            .unwrap_or(0)
    }

    /// Messages of one kind.
    pub fn by_kind(&self, kind: &str) -> u64 {
        self.kind_ids
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|&(_, id)| self.registry.counter_value(id))
            .unwrap_or(0)
    }

    /// Messages on one directed link.
    pub fn on_link(&self, from: SiteId, to: SiteId) -> u64 {
        let (f, t) = (from.0 as usize, to.0 as usize);
        if f >= self.link_stride || t >= self.link_stride {
            return 0;
        }
        self.link_ids[f * self.link_stride + t]
            .map(|id| self.registry.counter_value(id))
            .unwrap_or(0)
    }

    /// The registry backing these counters (read-only).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Immutable snapshot for reporting/serialization.
    pub fn snapshot(&self) -> CountersSnapshot {
        let keyed = |prefix: &str| -> BTreeMap<u32, u64> {
            self.registry
                .counters_with_prefix(prefix)
                .filter_map(|(k, n)| Some((k.strip_prefix(prefix)?.parse().ok()?, n)))
                .collect()
        };
        CountersSnapshot {
            total_messages: self.total_messages(),
            total_correspondences: self.total_correspondences(),
            dropped_messages: self.dropped_messages(),
            parked_messages: self.parked_messages(),
            sent_by_site: keyed("msg.sent."),
            received_by_site: keyed("msg.recv."),
            by_kind: self
                .registry
                .counters_with_prefix("msg.kind.")
                .filter_map(|(k, n)| Some((k.strip_prefix("msg.kind.")?.to_string(), n)))
                .collect(),
        }
    }
}

/// Serializable view of [`Counters`] at one instant.
#[derive(Clone, Debug, Serialize, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// Total messages sent.
    pub total_messages: u64,
    /// `total_messages / 2` (paper accounting).
    pub total_correspondences: u64,
    /// Messages lost to faults.
    pub dropped_messages: u64,
    /// Messages parked for crashed sites.
    pub parked_messages: u64,
    /// Per-site send counts, keyed by raw site id.
    pub sent_by_site: BTreeMap<u32, u64>,
    /// Per-site receive counts.
    pub received_by_site: BTreeMap<u32, u64>,
    /// Per-kind counts.
    pub by_kind: BTreeMap<String, u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut c = Counters::new();
        c.record_send(SiteId(1), SiteId(0), "av-request");
        c.record_delivery(SiteId(0));
        c.record_send(SiteId(0), SiteId(1), "av-grant");
        c.record_delivery(SiteId(1));
        assert_eq!(c.total_messages(), 2);
        assert_eq!(c.total_correspondences(), 1);
        assert_eq!(c.sent_by(SiteId(1)), 1);
        assert_eq!(c.sent_by(SiteId(0)), 1);
        assert_eq!(c.received_by(SiteId(0)), 1);
        assert_eq!(c.by_kind("av-request"), 1);
        assert_eq!(c.by_kind("av-grant"), 1);
        assert_eq!(c.by_kind("nope"), 0);
        assert_eq!(c.on_link(SiteId(1), SiteId(0)), 1);
        assert_eq!(c.on_link(SiteId(0), SiteId(2)), 0);
    }

    #[test]
    fn drops_counted_but_still_sent() {
        let mut c = Counters::new();
        c.record_send(SiteId(1), SiteId(2), "x");
        c.record_drop();
        assert_eq!(c.total_messages(), 1);
        assert_eq!(c.dropped_messages(), 1);
        assert_eq!(c.received_by(SiteId(2)), 0);
    }

    #[test]
    fn odd_message_count_rounds_down() {
        let mut c = Counters::new();
        c.record_send(SiteId(0), SiteId(1), "x");
        c.record_send(SiteId(0), SiteId(1), "x");
        c.record_send(SiteId(0), SiteId(1), "x");
        assert_eq!(c.total_correspondences(), 1);
    }

    #[test]
    fn snapshot_is_serializable_and_consistent() {
        let mut c = Counters::new();
        c.record_send(SiteId(0), SiteId(1), "a");
        c.record_send(SiteId(1), SiteId(0), "b");
        c.record_delivery(SiteId(1));
        let snap = c.snapshot();
        assert_eq!(snap.total_messages, 2);
        assert_eq!(snap.total_correspondences, 1);
        assert_eq!(snap.sent_by_site.get(&0), Some(&1));
        assert_eq!(snap.by_kind.get("a"), Some(&1));
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("total_correspondences"));
    }

    #[test]
    fn registry_cells_match_the_accessor_view() {
        let mut c = Counters::new();
        c.record_send(SiteId(2), SiteId(0), "propagate");
        c.record_send(SiteId(2), SiteId(1), "propagate");
        let reg = c.registry();
        assert_eq!(reg.counter("msg.total"), c.total_messages());
        assert_eq!(reg.counter("msg.sent.2"), 2);
        assert_eq!(reg.counter("msg.kind.propagate"), 2);
        assert_eq!(reg.counter("msg.link.2>1"), 1);
        assert_eq!(reg.counter_sum("msg.sent."), c.total_messages());
    }

    #[test]
    fn fresh_counters_export_no_phantom_zero_cells() {
        let c = Counters::new();
        let snap = c.registry().snapshot();
        assert!(
            snap.counters.is_empty(),
            "pre-registered but never-bumped keys must stay invisible: {:?}",
            snap.counters.keys().collect::<Vec<_>>()
        );
    }
}
