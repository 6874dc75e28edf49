//! Counts taken at the layer boundaries of a finished run — from the
//! accelerators' own statistics and the transport's message counters —
//! and the paper's ratios derived from them. In simulation every one of
//! these is exact and repeats for a given seed.

use crate::metrics::{Values, STEP_KINDS};
use avdb_core::Accelerator;
use avdb_simnet::CountersSnapshot;
use std::collections::BTreeMap;

/// Message counts of one or more finished runs.
#[derive(Default)]
pub struct Net {
    pub messages: u64,
    pub correspondences: u64,
    pub by_kind: BTreeMap<String, u64>,
}

impl Net {
    pub fn absorb(&mut self, snap: &CountersSnapshot) {
        self.messages += snap.total_messages;
        self.correspondences += snap.total_correspondences;
        for (kind, n) in &snap.by_kind {
            *self.by_kind.entry(kind.clone()).or_default() += n;
        }
    }

    pub fn of_kinds(&self, kinds: &[&str]) -> u64 {
        kinds
            .iter()
            .map(|k| self.by_kind.get(*k).copied().unwrap_or(0))
            .sum()
    }
}

#[derive(Default)]
pub struct Tally {
    pub updates: u64,
    pub delay_local: u64,
    pub delay_remote: u64,
    pub delay_aborts: u64,
    pub imm_commits: u64,
    pub imm_aborts: u64,
    pub av_requests: u64,
    pub frames_sent: u64,
    pub deltas_applied: u64,
    pub spans: u64,
    pub retained_at_end: u64,
}

impl Tally {
    pub fn of<'a>(updates: u64, actors: impl Iterator<Item = &'a Accelerator>) -> Tally {
        let mut t = Tally {
            updates,
            ..Tally::default()
        };
        for acc in actors {
            let s = acc.stats();
            t.delay_local += s.delay_local_commits;
            t.delay_remote += s.delay_remote_commits;
            t.delay_aborts += s.delay_aborts;
            t.imm_commits += s.imm_commits;
            t.imm_aborts += s.imm_aborts;
            t.av_requests += s.av_requests_sent;
            t.frames_sent += s.propagation_batches_sent;
            t.deltas_applied += s.propagation_deltas_applied;
            t.spans += acc.spans().records().len() as u64;
            t.retained_at_end = t.retained_at_end.max(acc.unpropagated() as u64);
        }
        t
    }

    /// Adds another run's counts (several clusters make one live run).
    pub fn absorb(&mut self, o: &Tally) {
        self.updates += o.updates;
        self.delay_local += o.delay_local;
        self.delay_remote += o.delay_remote;
        self.delay_aborts += o.delay_aborts;
        self.imm_commits += o.imm_commits;
        self.imm_aborts += o.imm_aborts;
        self.av_requests += o.av_requests;
        self.frames_sent += o.frames_sent;
        self.deltas_applied += o.deltas_applied;
        self.spans += o.spans;
        self.retained_at_end = self.retained_at_end.max(o.retained_at_end);
    }

    pub fn commits(&self) -> u64 {
        self.delay_local + self.delay_remote + self.imm_commits
    }

    pub fn aborts(&self) -> u64 {
        self.delay_aborts + self.imm_aborts
    }

    /// Delay updates that could not be covered locally.
    pub fn shortages(&self) -> u64 {
        self.delay_remote + self.delay_aborts
    }
}

fn ratio(num: u64, den: u64, scale: u64) -> f64 {
    (num * scale).checked_div(den).unwrap_or(0) as f64
}

/// The paper's counts and the per-kind message counts, by metric name.
pub fn publish(t: &Tally, net: &Net, out: &mut Values) {
    let delays = t.delay_local + t.shortages();
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };
    put(
        "core.corr_per_update_milli",
        ratio(net.correspondences, t.updates, 1000),
    );
    put(
        "core.msgs_per_commit_milli",
        ratio(net.messages, t.commits(), 1000),
    );
    put(
        "core.local_commit_permille",
        ratio(t.delay_local, t.updates, 1000),
    );
    put("core.abort_permille", ratio(t.aborts(), t.updates, 1000));
    put("core.shortage_permille", ratio(t.shortages(), delays, 1000));
    put(
        "core.av_requests_per_shortage_milli",
        ratio(t.av_requests, t.shortages(), 1000),
    );
    put(
        "core.repl.deltas_per_frame_milli",
        ratio(t.deltas_applied, t.frames_sent, 1000),
    );
    put("core.repl.retained_max", t.retained_at_end as f64);
    put(
        "telemetry.spans_per_update_milli",
        ratio(t.spans, t.updates, 1000),
    );
    // Messages of each kind the run sent: one delivery step apiece.
    for kind in STEP_KINDS
        .iter()
        .filter(|k| !matches!(**k, "input" | "timer"))
    {
        let n = net.of_kinds(&[kind]);
        put(&format!("core.step.{kind}_count"), n as f64);
    }
    put("core.step.input_count", t.updates as f64);
}
