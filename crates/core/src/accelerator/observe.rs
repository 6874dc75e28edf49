//! What a site shows about itself: the `/status` and `/metrics` payloads,
//! per-lane SLO and critical-path profile, the flight recorder, the
//! windowed series plane, and the accounting every outcome goes through.

use super::{ACtx, Accelerator, TimerKind};
use crate::protocol::{MSG_KIND_COUNT, RECV_COUNTER_KEYS, SENT_COUNTER_KEYS};
use avdb_telemetry::{
    build_profile, evaluate_slo, FlightDump, MetricId, PhaseProfile, Registry, SeriesSnapshot,
    SloReport, SloSpec, SpanView, LANE_IMM,
};
use avdb_types::{ProductId, SiteId, UpdateOutcome, VirtualTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Outcomes the latency histogram must hold before an unsampled update
/// can be promoted as a p99 outlier (a cold histogram makes everything
/// look like an outlier).
const LATENCY_OUTLIER_MIN_COUNT: u64 = 100;

/// Salt xor'd into the seed of the anomaly-rescue sampler (rate
/// [`avdb_types::SystemConfig::anomaly_keep_rate`]) so its keep/drop
/// stream is independent of the head sampler's. The rescue decision is
/// a pure function of the trace id shared by every site: the 2PC
/// coordinator, its participants, and AV granters all keep or all drop
/// the same anomalous tree, so promotion can never manufacture a
/// retained child whose cross-site parent was dropped. (A per-site
/// promotion *budget* cannot give that guarantee — budget exhaustion
/// depends on local arrival order, and sites disagree.)
pub(super) const ANOMALY_SEED_SALT: u64 = 0xA40_3A11E5;

/// One product row of a [`StatusSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatusAvRow {
    /// Product id.
    pub product: u32,
    /// Local committed stock.
    pub stock: i64,
    /// Whether an AV row is defined here (regular product).
    pub av_defined: bool,
    /// Total AV held at this site (available + in-flight holds).
    pub av_total: i64,
    /// Unheld AV immediately available to new transactions.
    pub av_available: i64,
    /// Replica divergence: sum of committed deltas not yet acknowledged
    /// by every peer (local value minus the last fully-replicated value).
    pub divergence: i64,
}

/// One peer row of a [`StatusSnapshot`]: knowledge freshness.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatusPeerRow {
    /// Peer site id.
    pub peer: u32,
    /// Freshest tick at which any of the peer's AV figures was observed
    /// (`None` — never).
    pub refreshed_at: Option<u64>,
}

/// Point-in-time introspection snapshot served as JSON by the `/status`
/// endpoint and rendered by `avdb top`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatusSnapshot {
    /// Site id.
    pub site: u32,
    /// `"base"` (site 0, owns non-regular products) or `"retailer"`.
    pub role: String,
    /// Lamport clock.
    pub clock: u64,
    /// Updates committed at this site.
    pub committed: u64,
    /// Updates aborted at this site.
    pub aborted: u64,
    /// In-flight Delay negotiations (waiting on AV transfers).
    pub in_flight_delay: usize,
    /// In-flight Immediate rounds this site coordinates.
    pub in_flight_imm: usize,
    /// Remote Immediate transactions prepared here (participant role).
    pub prepared_remote: usize,
    /// Replication queue depth: retained unacknowledged deltas.
    pub repl_queue_depth: usize,
    /// Events the flight recorder has seen so far.
    pub flight_recorded: u64,
    /// Per-product stock / AV / divergence rows.
    pub av: Vec<StatusAvRow>,
    /// Per-peer AV-knowledge freshness.
    pub knowledge: Vec<StatusPeerRow>,
    /// Per-lane SLO evaluation of this site's registry.
    pub slo: SloReport,
    /// Critical-path phase profile over this site's retained committed
    /// traces (sampled plus promoted).
    pub profile: PhaseProfile,
    /// Windowed time-series ring (`None` when the series plane is off).
    pub series: Option<SeriesSnapshot>,
}

/// Interned [`MetricId`]s for every instrument the protocol hot paths
/// touch. Registered once per accelerator; registration alone is
/// invisible in snapshots (touched flags), so pre-registering the full
/// set changes no exported bytes.
pub(super) struct MetricIds {
    /// Send counters by [`crate::Msg::kind_index`].
    pub(super) msg_sent: [MetricId; MSG_KIND_COUNT],
    /// Receive counters by [`crate::Msg::kind_index`].
    pub(super) msg_recv: [MetricId; MSG_KIND_COUNT],
    /// `knowledge.staleness.s<N>` gauges, densely per site.
    pub(super) staleness: Vec<MetricId>,
    pub(super) update_committed: MetricId,
    pub(super) update_aborted: MetricId,
    pub(super) update_latency: MetricId,
    pub(super) update_correspondences: MetricId,
    pub(super) slo_imm_total: MetricId,
    pub(super) slo_imm_latency: MetricId,
    pub(super) slo_imm_breach: MetricId,
    pub(super) slo_delay_total: MetricId,
    pub(super) slo_delay_latency: MetricId,
    pub(super) slo_delay_breach: MetricId,
    pub(super) slo_delay_shortage: MetricId,
    pub(super) delay_shortage: MetricId,
    pub(super) delay_commit_local: MetricId,
    pub(super) delay_commit_remote: MetricId,
    pub(super) delay_abort_insufficient: MetricId,
    pub(super) delay_abort_no_cover: MetricId,
    pub(super) delay_grant_timeouts: MetricId,
    pub(super) delay_fanout_bursts: MetricId,
    pub(super) delay_fanout_requests: MetricId,
    pub(super) delay_overgrant_volume: MetricId,
    pub(super) select_staleness: MetricId,
    pub(super) phase_transfer: MetricId,
    pub(super) imm_commit: MetricId,
    pub(super) imm_abort: MetricId,
    pub(super) imm_abort_local: MetricId,
    pub(super) imm_reapplied: MetricId,
    pub(super) imm_rereported: MetricId,
    pub(super) imm_decision_retransmits: MetricId,
    pub(super) repl_convergence: MetricId,
    pub(super) repl_coalesce_frames: MetricId,
    pub(super) repl_coalesce_folded: MetricId,
    pub(super) knowledge_rows_sent: MetricId,
    pub(super) knowledge_rows_merged: MetricId,
    /// `repl.queue.depth` gauge.
    pub(super) repl_queue_depth: MetricId,
    /// `repl.divergence.p<N>` gauges, densely per product.
    pub(super) repl_divergence: Vec<MetricId>,
    pub(super) flight_dumps: MetricId,
    pub(super) flight_dump_errors: MetricId,
    pub(super) site_crashes: MetricId,
    pub(super) watchdog_fired: MetricId,
}

impl MetricIds {
    pub(super) fn register(reg: &mut Registry, n_sites: usize, n_products: usize) -> Self {
        MetricIds {
            msg_sent: std::array::from_fn(|i| reg.counter_id(SENT_COUNTER_KEYS[i])),
            msg_recv: std::array::from_fn(|i| reg.counter_id(RECV_COUNTER_KEYS[i])),
            staleness: (0..n_sites)
                .map(|s| reg.gauge_id(&format!("knowledge.staleness.s{s}")))
                .collect(),
            update_committed: reg.counter_id("update.committed"),
            update_aborted: reg.counter_id("update.aborted"),
            update_latency: reg.histogram_id("update.latency.ticks"),
            update_correspondences: reg.histogram_id("update.correspondences"),
            slo_imm_total: reg.counter_id("slo.imm.total"),
            slo_imm_latency: reg.histogram_id("slo.imm.latency.ticks"),
            slo_imm_breach: reg.counter_id("slo.imm.breach.latency"),
            slo_delay_total: reg.counter_id("slo.delay.total"),
            slo_delay_latency: reg.histogram_id("slo.delay.latency.ticks"),
            slo_delay_breach: reg.counter_id("slo.delay.breach.latency"),
            slo_delay_shortage: reg.counter_id("slo.delay.shortage"),
            delay_shortage: reg.histogram_id("delay.shortage"),
            delay_commit_local: reg.counter_id("delay.commit.local"),
            delay_commit_remote: reg.counter_id("delay.commit.remote"),
            delay_abort_insufficient: reg.counter_id("delay.abort.insufficient-av"),
            delay_abort_no_cover: reg.counter_id("delay.abort.no-cover"),
            delay_grant_timeouts: reg.counter_id("delay.grant-timeouts"),
            delay_fanout_bursts: reg.counter_id("delay.fanout.bursts"),
            delay_fanout_requests: reg.counter_id("delay.fanout.requests"),
            delay_overgrant_volume: reg.counter_id("delay.overgrant.volume"),
            select_staleness: reg.histogram_id("select.staleness.ticks"),
            phase_transfer: reg.histogram_id("phase.transfer.ticks"),
            imm_commit: reg.counter_id("imm.commit"),
            imm_abort: reg.counter_id("imm.abort"),
            imm_abort_local: reg.counter_id("imm.abort.local"),
            imm_reapplied: reg.counter_id("imm.reapplied"),
            imm_rereported: reg.counter_id("imm.rereported"),
            imm_decision_retransmits: reg.counter_id("imm.decision-retransmits"),
            repl_convergence: reg.histogram_id("repl.convergence.ticks"),
            repl_coalesce_frames: reg.counter_id("repl.coalesce.frames"),
            repl_coalesce_folded: reg.counter_id("repl.coalesce.folded"),
            knowledge_rows_sent: reg.counter_id("knowledge.digest.rows_sent"),
            knowledge_rows_merged: reg.counter_id("knowledge.digest.rows_merged"),
            repl_queue_depth: reg.gauge_id("repl.queue.depth"),
            repl_divergence: (0..n_products)
                .map(|p| reg.gauge_id(&format!("repl.divergence.p{p}")))
                .collect(),
            flight_dumps: reg.counter_id("flight.dumps"),
            flight_dump_errors: reg.counter_id("flight.dump.errors"),
            site_crashes: reg.counter_id("site.crashes"),
            watchdog_fired: reg.counter_id("series.watchdog.fired"),
        }
    }
}

impl Accelerator {
    /// This site's `/metrics` payload: the registry rendered in the
    /// Prometheus text exposition format, labelled with the site id, with
    /// the latest series window appended as `avdb_series_*` families when
    /// the time-series plane is on.
    pub fn metrics_text(&self) -> String {
        let labels = [("site", self.me.0.to_string())];
        let mut out = avdb_telemetry::render_prometheus(&self.registry.snapshot(), &labels);
        if let Some(rec) = &self.series {
            out.push_str(&avdb_telemetry::render_series_prometheus(
                &rec.snapshot(&self.registry),
                &labels,
            ));
        }
        out
    }

    /// The windowed time-series ring resolved to metric names, or `None`
    /// when the series plane is off.
    pub fn series_snapshot(&self) -> Option<SeriesSnapshot> {
        self.series.as_ref().map(|rec| rec.snapshot(&self.registry))
    }

    /// This site's `/status` payload: a point-in-time JSON snapshot of
    /// role, AV table, in-flight escrow negotiations and replication
    /// queue depth.
    pub fn status(&self) -> StatusSnapshot {
        let av = ProductId::all(self.published_divergence.len())
            .map(|p| StatusAvRow {
                product: p.0,
                stock: self.db.stock(p).map(|v| v.get()).unwrap_or(0),
                av_defined: self.av.is_defined(p),
                av_total: self.av.total(p).get(),
                av_available: self.av.available(p).get(),
                divergence: self.published_divergence[p.index()],
            })
            .collect();
        let knowledge = self
            .peers()
            .map(|peer| StatusPeerRow {
                peer: peer.0,
                refreshed_at: self.knowledge.table().freshest(peer).map(|t| t.0),
            })
            .collect();
        StatusSnapshot {
            site: self.me.0,
            role: if self.me == SiteId::BASE { "base".into() } else { "retailer".into() },
            clock: self.clock,
            committed: self.registry.counter_value(self.ids.update_committed),
            aborted: self.registry.counter_value(self.ids.update_aborted),
            in_flight_delay: self.pending_delay.len(),
            in_flight_imm: self.imm_in_flight(),
            prepared_remote: self.prepared_remote.len(),
            repl_queue_depth: self.repl.retained(),
            flight_recorded: self.flight.recorded(),
            av,
            knowledge,
            slo: self.slo_report(),
            profile: self.local_profile(),
            series: self.series_snapshot(),
        }
    }

    /// Evaluates the default per-lane SLO targets against this site's
    /// registry.
    pub fn slo_report(&self) -> SloReport {
        evaluate_slo(&SloSpec::default(), &self.registry.snapshot())
    }

    /// Critical-path phase profile over the committed traces whose full
    /// span tree this site retained (head-sampled plus promoted).
    pub fn local_profile(&self) -> PhaseProfile {
        let committed: BTreeSet<u64> = self.committed_traces.iter().copied().collect();
        build_profile(self.spans.records().iter().map(SpanView::from), &committed)
    }

    /// Records one protocol event in the always-on flight ring.
    pub(super) fn flight_note(&mut self, at: VirtualTime, kind: &'static str, detail: String) {
        self.flight.record(at.0, self.clock, kind, detail);
    }

    /// [`Accelerator::flight_note`] formatting into the ring's recycled
    /// buffers — for per-frame / per-delta call sites where a fresh
    /// `String` per event would dominate the allocator at scale.
    pub(super) fn flight_args(
        &mut self,
        at: VirtualTime,
        kind: &'static str,
        args: std::fmt::Arguments<'_>,
    ) {
        self.flight.record_args(at.0, self.clock, kind, args);
    }

    /// Promotes an anomalous trace (abort, shortage, latency outlier) out
    /// of the sampler's discard set, subject to the cluster-agreed
    /// anomaly-keep decision. Returns whether the trace is
    /// retained after the call. Without a sampler every trace is already
    /// retained. The keep/drop answer is a pure function of the trace id,
    /// so every site that observes the anomaly (coordinator, participant,
    /// granter) reaches the same verdict independently.
    pub(super) fn promote_anomaly(&mut self, trace: u64) -> bool {
        if !self.spans.is_sampling() {
            return true;
        }
        if self.spans.trace_sampled(trace) {
            return true;
        }
        if !self.anomaly_sampler.sampled(trace) {
            return false;
        }
        self.spans.promote(trace);
        true
    }

    /// Writes this site's flight ring to the configured dump directory
    /// (no-op when none is configured). Returns the path written.
    pub(super) fn write_flight_dump(&mut self, at: VirtualTime, reason: &str) -> Option<PathBuf> {
        let dir = self.flight_dir.clone()?;
        self.registry.inc_id(self.ids.flight_dumps);
        let n = self.registry.counter_value(self.ids.flight_dumps);
        let mut dump = FlightDump::new(reason, at.0);
        dump.push_site(self.me.0, &self.flight);
        let path = dir.join(format!("flight-s{}-{n}.json", self.me.0));
        if std::fs::create_dir_all(&dir).is_err()
            || std::fs::write(&path, dump.to_json()).is_err()
        {
            self.registry.inc_id(self.ids.flight_dump_errors);
            return None;
        }
        Some(path)
    }

    /// Finishes an update: closes the root span, records outcome and
    /// per-lane SLO metrics, retroactively promotes interesting traces
    /// out of the sampling ring, and emits to the harness.
    pub(super) fn emit_outcome(
        &mut self,
        ctx: &mut ACtx<'_>,
        root_span: u64,
        started_at: VirtualTime,
        lane: &'static str,
        had_shortage: bool,
        outcome: UpdateOutcome,
    ) {
        let (txn, committed, correspondences) = match &outcome {
            UpdateOutcome::Committed { txn, correspondences, .. } => {
                (*txn, true, *correspondences)
            }
            UpdateOutcome::Aborted { txn, correspondences, .. } => {
                (*txn, false, *correspondences)
            }
        };
        let latency = ctx.now().since(started_at);

        // Retroactive promotion: even when head-based sampling dropped
        // this trace, an aborted, shortage-path or p99-outlier update is
        // exactly the one a post-mortem wants — pull its parked spans
        // back before the ring evicts them. The outlier test reads the
        // latency histogram *before* this update is folded in.
        let mut retained = self.spans.trace_sampled(txn.0);
        if !retained {
            // Short-circuit: the percentile walk only runs for clean
            // commits, so a saturated cell (every update shorting) never
            // pays it per outcome.
            let anomalous = !committed || had_shortage || {
                let h = self.registry.histogram_value(self.ids.update_latency);
                h.count() >= LATENCY_OUTLIER_MIN_COUNT && latency > h.percentile(0.99)
            };
            if anomalous {
                retained = self.promote_anomaly(txn.0);
            }
        }

        self.registry.inc_id(if committed {
            self.ids.update_committed
        } else {
            self.ids.update_aborted
        });
        self.registry.observe_id(self.ids.update_latency, latency);
        self.registry.observe_id(self.ids.update_correspondences, correspondences);

        // Per-lane SLO accounting (interned ids — this is the hot path).
        let (total_id, lat_id, breach_id) = if lane == LANE_IMM {
            (self.ids.slo_imm_total, self.ids.slo_imm_latency, self.ids.slo_imm_breach)
        } else {
            (self.ids.slo_delay_total, self.ids.slo_delay_latency, self.ids.slo_delay_breach)
        };
        let target = SloSpec::default().lane(lane).commit_p99_ticks;
        self.registry.inc_id(total_id);
        self.registry.observe_id(lat_id, latency);
        if target > 0 && latency > target {
            self.registry.inc_id(breach_id);
        }
        if had_shortage {
            self.registry.inc_id(self.ids.slo_delay_shortage);
        }

        self.spans.end(root_span, ctx.now());
        if committed && retained {
            self.committed_traces.push(txn.0);
        }
        // Stamp the gateway correlation tag (if any) so the outcome can
        // be routed back to the submitting connection.
        let client = self.client_tags.remove(&txn);
        ctx.emit(outcome.with_client(client));
    }

    /// Arms the series window timer at the next absolute boundary. Called
    /// on every input and message, so the first activity after an idle
    /// (disarmed) stretch re-arms the very next boundary — which is what
    /// guarantees every recorded window's deltas occurred inside it.
    pub(super) fn arm_series(&mut self, ctx: &mut ACtx<'_>) {
        if self.series_armed {
            return;
        }
        let Some(rec) = &self.series else { return };
        self.series_armed = true;
        let delay = rec.next_boundary(ctx.now().0) - ctx.now().0;
        self.arm_timer(ctx, delay, TimerKind::SeriesWindow);
    }

    /// One window boundary: roll the registry into the ring, dump the
    /// flight recorder for every watchdog rule that transitioned to
    /// firing, and re-arm only if the window recorded anything (an idle
    /// system lets the timer lapse, so quiescent runs still drain).
    pub(super) fn on_series_window(&mut self, ctx: &mut ACtx<'_>) {
        self.series_armed = false;
        let now = ctx.now();
        let outcome = match self.series.as_mut() {
            Some(rec) => rec.roll(now.0, &mut self.registry),
            None => return,
        };
        for firing in &outcome.firings {
            self.registry.inc_id(self.ids.watchdog_fired);
            self.flight.record(
                now.0,
                self.clock,
                "series.watchdog",
                format!("{} at window {}: {}", firing.rule, firing.window, firing.detail),
            );
        }
        for firing in &outcome.firings {
            self.write_flight_dump(now, &format!("watchdog-{}", firing.rule));
        }
        if outcome.recorded {
            self.arm_series(ctx);
        }
    }
}

impl avdb_simnet::Introspect for Accelerator {
    fn metrics_text(&self) -> String {
        Accelerator::metrics_text(self)
    }
    fn status_json(&self) -> String {
        serde_json::to_string_pretty(&self.status()).expect("status serializes")
    }
}
