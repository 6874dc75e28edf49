//! The Immediate Update (Fig. 5): primary-copy commit, coordinated by the
//! requesting site over lock/ready/decision/done rounds, plus the
//! participant side every other site runs.

use super::{ACtx, Accelerator, TimerKind};
use crate::protocol::Msg;
use avdb_storage::LockMode;
use avdb_telemetry::{FlightFields, TraceContext, LANE_IMM};
use avdb_types::{
    request::AbortReason, AvdbError, ProductId, SiteId, TxnId, UpdateKind, UpdateOutcome,
    UpdateRequest, VirtualTime, Volume,
};
use std::collections::BTreeSet;

/// Renders an `imm.prepare` note: `[txn, from, ready, _, _]`.
fn render_imm_prepare(f: &FlightFields, out: &mut String) {
    use std::fmt::Write as _;
    let _ = write!(out, "txn {} from s{} ready={}", f[0], f[1], f[2] == 1);
}

/// Renders an `imm.decide` note: `[txn, commit, _, _, _]`.
fn render_imm_decide(f: &FlightFields, out: &mut String) {
    use std::fmt::Write as _;
    let _ = write!(out, "txn {} commit={}", f[0], f[1] == 1);
}

/// Ticks a coordinator waits for votes before presuming a participant
/// dead and aborting; also its wait for the base's Done and the interval
/// between decision resends.
const IMM_VOTE_TIMEOUT: u64 = 256;

/// Ticks a prepared participant waits for the decision before
/// unilaterally aborting (presumed abort — the paper does not specify
/// blocking behaviour; see DESIGN.md).
const PARTICIPANT_TIMEOUT: u64 = 1024;

// A lost decision is resent before its prepared participant gives up.
const _: () = assert!(PARTICIPANT_TIMEOUT > IMM_VOTE_TIMEOUT);

/// Retransmission rounds a coordinator attempts before presuming the
/// silent participant permanently dead.
const IMM_RETRANSMIT_ATTEMPTS: u32 = 8;

/// Where a coordinated Immediate Update stands. An abort decision ends
/// the entry at once: a participant that never hears one aborts
/// unilaterally, which is the same outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ImmPhase {
    /// Prepares sent; collecting votes.
    Voting,
    /// Commit decided and durable in the WAL; the outcome waits for the
    /// base's Done (or the completion timeout). The only phase a crash
    /// keeps: with nothing awaited any more, recovery reports it.
    Decided,
    /// Outcome reported; the entry lives on only to resend the decision
    /// to the participants whose Done has not arrived.
    Reported,
}

/// An Immediate Update this site coordinates. A commit decision is kept
/// and resent until every participant acknowledges it: without this, one
/// lost decision strands a presumed-abort participant on a divergent
/// replica — the classic 2PC hole — and the replication layer cannot
/// repair it because Immediate deltas never enter the propagation log.
#[derive(Debug)]
pub(super) struct ImmCoord {
    pub(super) phase: ImmPhase,
    /// Peers whose ready vote (while voting) or whose Done (once commit
    /// is decided) has not arrived.
    pub(super) waiting: BTreeSet<SiteId>,
    /// Resend rounds left before giving up, so a peer that is gone for
    /// good cannot keep the run from quiescing.
    attempts_left: u32,
    correspondences: u64,
    /// Product / delta of the update, repeated in every decision so a
    /// resent one is self-contained.
    product: ProductId,
    delta: Volume,
    /// Telemetry: the update's root span.
    root_span: u64,
    /// Telemetry: the open phase span — "prepare" while voting, "decide"
    /// once decided.
    span: u64,
    /// When the update was submitted (latency accounting).
    started_at: VirtualTime,
}

impl Accelerator {
    pub(super) fn start_immediate(&mut self, ctx: &mut ACtx<'_>, req: UpdateRequest) {
        let txn = self.fresh_txn();
        let clock = self.tick();
        let root_span = self.spans.start_args(
            txn.0,
            0,
            "update",
            ctx.now(),
            clock,
            format_args!("immediate at s{}", self.me.0),
        );
        self.spans.instant_args(
            txn.0,
            root_span,
            "checking",
            ctx.now(),
            self.clock,
            format_args!("P{} non-regular → Immediate", req.product.0),
        );
        self.db.begin(txn).expect("fresh txn id");
        // Local lock + apply first (the coordinator is also a participant).
        let local_ok = self
            .db
            .lock(txn, req.product, LockMode::Exclusive)
            .and_then(|()| self.db.apply(txn, req.product, req.delta).map(|_| ()));
        if let Err(e) = local_ok {
            self.db.rollback(txn).expect("txn active");
            self.stats.imm_aborts += 1;
            self.registry.inc_id(self.ids.imm_abort_local);
            let reason = match e {
                AvdbError::NegativeStock { .. } => AbortReason::NegativeStock,
                _ => AbortReason::PrepareFailed { site: self.me },
            };
            self.spans.note(root_span, "aborted locally");
            self.emit_outcome(
                ctx,
                root_span,
                ctx.now(),
                LANE_IMM,
                false,
                UpdateOutcome::Aborted { txn, reason, correspondences: 0, client: None },
            );
            return;
        }
        if self.cfg.n_sites == 1 {
            self.db.commit(txn).expect("txn active");
            self.stats.imm_commits += 1;
            self.registry.inc_id(self.ids.imm_commit);
            let clock = self.tick();
            self.spans.instant(txn.0, root_span, "commit", ctx.now(), clock);
            self.emit_outcome(
                ctx,
                root_span,
                ctx.now(),
                LANE_IMM,
                false,
                UpdateOutcome::Committed {
                    txn,
                    kind: UpdateKind::Immediate,
                    completed_at: ctx.now(),
                    correspondences: 0,
                    client: None,
                },
            );
            return;
        }
        let clock = self.tick();
        let prepare_span =
            self.spans.start(txn.0, root_span, "prepare", ctx.now(), clock);
        let peers = self.take_peers();
        for &peer in &peers {
            self.send_traced(
                ctx,
                peer,
                txn.0,
                prepare_span,
                Msg::ImmPrepare { txn, product: req.product, delta: req.delta },
            );
        }
        self.coord.insert(
            txn,
            ImmCoord {
                phase: ImmPhase::Voting,
                waiting: peers.iter().copied().collect(),
                attempts_left: IMM_RETRANSMIT_ATTEMPTS,
                correspondences: peers.len() as u64,
                product: req.product,
                delta: req.delta,
                root_span,
                span: prepare_span,
                started_at: ctx.now(),
            },
        );
        self.put_peers(peers);
        self.arm_timer(ctx, IMM_VOTE_TIMEOUT, TimerKind::ImmVotes(txn));
    }

    pub(super) fn on_imm_prepare(
        &mut self,
        ctx: &mut ACtx<'_>,
        from: SiteId,
        incoming: Option<TraceContext>,
        txn: TxnId,
        product: ProductId,
        delta: Volume,
    ) {
        let ready = self
            .db
            .begin(txn)
            .and_then(|()| self.db.lock(txn, product, LockMode::Exclusive))
            .and_then(|()| self.db.apply(txn, product, delta).map(|_| ()))
            .and_then(|()| self.db.prepare(txn))
            .is_ok();
        if ready {
            self.prepared_remote.insert(txn);
            self.arm_timer(ctx, PARTICIPANT_TIMEOUT, TimerKind::ImmDecision(txn));
        } else if self.db.txn_state(txn).is_some() {
            // Partial failure (e.g. lock acquired, apply rejected): undo.
            self.db.rollback(txn).expect("txn active");
        }
        let clock = self.tick();
        let span = self.spans.instant_args(
            incoming.map(|c| c.trace_id).unwrap_or(txn.0),
            incoming.map(|c| c.parent_span).unwrap_or(0),
            "imm-prepare",
            ctx.now(),
            clock,
            format_args!("ready={ready}"),
        );
        self.flight.record_lazy(
            ctx.now().0,
            self.clock,
            "imm.prepare",
            [txn.0, u64::from(from.0), u64::from(ready), 0, 0],
            render_imm_prepare,
        );
        self.reply_along(ctx, from, incoming, span, Msg::ImmVote { txn, ready });
    }

    pub(super) fn on_imm_vote(
        &mut self,
        ctx: &mut ACtx<'_>,
        from: SiteId,
        txn: TxnId,
        ready: bool,
    ) {
        let Some(c) = self.coord.get_mut(&txn) else { return };
        if c.phase != ImmPhase::Voting {
            return; // late vote after a timeout decision
        }
        if !ready {
            self.decide_immediate(ctx, txn, false, AbortReason::PrepareFailed { site: from });
            return;
        }
        c.waiting.remove(&from);
        if c.waiting.is_empty() {
            self.decide_immediate(ctx, txn, true, AbortReason::RolledBack);
        }
    }

    /// Sends the decision to all participants and settles local state.
    fn decide_immediate(
        &mut self,
        ctx: &mut ACtx<'_>,
        txn: TxnId,
        commit: bool,
        abort_reason: AbortReason,
    ) {
        let peers = self.take_peers();
        let Some(c) = self.coord.get_mut(&txn) else {
            self.put_peers(peers);
            return;
        };
        c.correspondences += peers.len() as u64;
        let (root_span, prepare_span) = (c.root_span, c.span);
        let (product, delta) = (c.product, c.delta);
        self.spans.end(prepare_span, ctx.now());
        let clock = self.tick();
        let decide_span = self.spans.start_args(
            txn.0,
            root_span,
            "decide",
            ctx.now(),
            clock,
            format_args!("commit={commit}"),
        );
        for &peer in &peers {
            self.send_traced(
                ctx,
                peer,
                txn.0,
                decide_span,
                Msg::ImmDecision { txn, commit, product, delta },
            );
        }
        if commit {
            // Abort decisions need no resend: a participant that never
            // hears one aborts unilaterally, which is the same outcome.
            let c = self.coord.get_mut(&txn).expect("fetched above");
            c.phase = ImmPhase::Decided;
            c.waiting = peers.iter().copied().collect();
            c.span = decide_span;
            self.arm_timer(ctx, IMM_VOTE_TIMEOUT, TimerKind::ImmRetransmit(txn));
        }
        self.put_peers(peers);
        let fields = [txn.0, u64::from(commit), 0, 0, 0];
        self.flight.record_lazy(ctx.now().0, self.clock, "imm.decide", fields, render_imm_decide);
        if commit {
            self.db.commit(txn).expect("txn active");
            self.stats.imm_commits += 1;
            self.registry.inc_id(self.ids.imm_commit);
            // Completion is judged by the base site's Done message; when
            // the coordinator *is* the base, completion is immediate.
            if self.me == SiteId::BASE {
                self.report_immediate(ctx, txn);
            } else {
                // If the base dies between its vote and its Done, fall back
                // to local completion after a timeout — the commit itself
                // is already decided and distributed.
                self.arm_timer(ctx, IMM_VOTE_TIMEOUT, TimerKind::ImmCompletion(txn));
            }
        } else {
            self.db.rollback(txn).expect("txn active");
            self.stats.imm_aborts += 1;
            self.registry.inc_id(self.ids.imm_abort);
            self.flight_args(
                ctx.now(),
                "imm.abort",
                format_args!("txn {} reason {abort_reason:?}", txn.0),
            );
            // A 2PC round aborting is a flight-recorder trigger.
            self.write_flight_dump(ctx.now(), "2pc-abort");
            let c = self.coord.remove(&txn).expect("fetched above");
            self.spans.end(decide_span, ctx.now());
            self.spans.note(root_span, "aborted");
            self.emit_outcome(
                ctx,
                root_span,
                c.started_at,
                LANE_IMM,
                false,
                UpdateOutcome::Aborted {
                    txn,
                    reason: abort_reason,
                    correspondences: c.correspondences,
                    client: None,
                },
            );
        }
    }

    /// Reports a decided Immediate commit: closes the decide span, stamps
    /// the commit instant and emits the outcome. The entry stays while
    /// some participant's Done is still missing.
    pub(super) fn report_immediate(&mut self, ctx: &mut ACtx<'_>, txn: TxnId) {
        let c = self.coord.get_mut(&txn).expect("decided commit");
        c.phase = ImmPhase::Reported;
        let (root_span, decide_span) = (c.root_span, c.span);
        let (started_at, correspondences) = (c.started_at, c.correspondences);
        if c.waiting.is_empty() {
            self.coord.remove(&txn);
        }
        self.spans.end(decide_span, ctx.now());
        let clock = self.tick();
        self.spans.instant(txn.0, root_span, "commit", ctx.now(), clock);
        self.emit_outcome(
            ctx,
            root_span,
            started_at,
            LANE_IMM,
            false,
            UpdateOutcome::Committed {
                txn,
                kind: UpdateKind::Immediate,
                completed_at: ctx.now(),
                correspondences,
                client: None,
            },
        );
    }

    #[allow(clippy::too_many_arguments)] // mirrors the ImmDecision wire fields
    pub(super) fn on_imm_decision(
        &mut self,
        ctx: &mut ACtx<'_>,
        from: SiteId,
        incoming: Option<TraceContext>,
        txn: TxnId,
        commit: bool,
        product: ProductId,
        delta: Volume,
    ) {
        if !commit {
            // Aborts are promotion-worthy; the coordinator promotes at
            // outcome time, so resurrecting this site's parked spans
            // (prepare, imm-apply) keeps the aborted tree whole. Budgeted
            // like every anomaly promotion.
            self.promote_anomaly(incoming.map(|c| c.trace_id).unwrap_or(txn.0));
        }
        let known = self.prepared_remote.remove(&txn);
        let mut detail = if known {
            if commit {
                "commit=true"
            } else {
                "commit=false"
            }
        } else {
            "unknown txn"
        };
        if known {
            if commit {
                self.db.commit(txn).expect("prepared txn");
            } else {
                self.db.rollback(txn).expect("prepared txn");
            }
            self.imm_finished.insert(txn);
        } else if self.imm_finished.contains(&txn) {
            // Duplicate retransmission of a decision this site already
            // executed: just re-acknowledge.
            detail = "duplicate decision";
        } else if commit {
            // A commit decision for a txn this site no longer holds
            // prepared: the participant timed out and unilaterally
            // aborted (or crashed and lost the prepared state). The
            // decision carries the write, so execute it now — this is
            // what makes the decision round loss-tolerant.
            let applied = self
                .db
                .begin(txn)
                .and_then(|()| self.db.lock(txn, product, LockMode::Exclusive))
                .and_then(|()| self.db.apply(txn, product, delta).map(|_| ()))
                .and_then(|()| self.db.commit(txn).map(|_| ()));
            match applied {
                Ok(()) => {
                    self.imm_finished.insert(txn);
                    self.registry.inc_id(self.ids.imm_reapplied);
                    detail = "re-applied after unilateral abort";
                }
                Err(_) => {
                    // Likely a lock conflict with another prepared txn.
                    // Do not acknowledge: the coordinator will retransmit
                    // and a later attempt will find the lock free.
                    if self.db.txn_state(txn).is_some() {
                        let _ = self.db.rollback(txn);
                    }
                    let clock = self.tick();
                    self.spans.instant_args(
                        incoming.map(|c| c.trace_id).unwrap_or(txn.0),
                        incoming.map(|c| c.parent_span).unwrap_or(0),
                        "imm-apply",
                        ctx.now(),
                        clock,
                        format_args!("re-apply deferred"),
                    );
                    return;
                }
            }
        }
        let clock = self.tick();
        let span = self.spans.instant_args(
            incoming.map(|c| c.trace_id).unwrap_or(txn.0),
            incoming.map(|c| c.parent_span).unwrap_or(0),
            "imm-apply",
            ctx.now(),
            clock,
            format_args!("{detail}"),
        );
        // Even an unknown abort decision is acknowledged so the
        // coordinator can finish.
        self.reply_along(ctx, from, incoming, span, Msg::ImmDone { txn });
    }

    pub(super) fn on_imm_done(&mut self, ctx: &mut ACtx<'_>, from: SiteId, txn: TxnId) {
        // A Done answers a decision, so a voting entry cannot see one.
        let Some(c) = self.coord.get_mut(&txn).filter(|c| c.phase != ImmPhase::Voting) else {
            return;
        };
        c.waiting.remove(&from);
        // "The requesting accelerator judges the completion of the update
        // with the message from the accelerator at the base DB." A Done
        // after the report only ends the resends.
        if c.phase == ImmPhase::Decided && from == SiteId::BASE {
            self.report_immediate(ctx, txn);
        } else if c.phase == ImmPhase::Reported && c.waiting.is_empty() {
            self.coord.remove(&txn);
        }
    }

    pub(super) fn on_imm_votes_timeout(&mut self, ctx: &mut ACtx<'_>, txn: TxnId) {
        let Some(c) = self.coord.get(&txn).filter(|c| c.phase == ImmPhase::Voting) else {
            return;
        };
        let missing = c.waiting.first().copied().unwrap_or(SiteId::BASE);
        self.decide_immediate(ctx, txn, false, AbortReason::SiteUnavailable { site: missing });
    }

    /// The base's Done never came (it crashed between vote and Done):
    /// the commit is already decided and distributed, so report it.
    pub(super) fn on_imm_completion_timeout(&mut self, ctx: &mut ACtx<'_>, txn: TxnId) {
        let Some(c) = self.coord.get(&txn).filter(|c| c.phase == ImmPhase::Decided) else {
            return;
        };
        self.spans.note(c.root_span, "base Done timed out");
        self.report_immediate(ctx, txn);
    }

    pub(super) fn on_participant_timeout(&mut self, txn: TxnId) {
        // Presumed abort: the decision never arrived (coordinator crashed
        // or unreachable); release the lock and undo. If the decision was
        // a commit and merely lost, its retransmission re-applies the
        // write (see `on_imm_decision`), so this stays safe under loss.
        if self.prepared_remote.remove(&txn) {
            let _ = self.db.rollback(txn);
        }
    }

    /// Resends a commit decision to every participant that has not
    /// acknowledged it yet, then re-arms the timer. Attempts are bounded
    /// so a permanently dead peer cannot hold the run open forever.
    pub(super) fn on_imm_retransmit(&mut self, ctx: &mut ACtx<'_>, txn: TxnId) {
        let Some(c) = self.coord.get_mut(&txn).filter(|c| !c.waiting.is_empty()) else {
            return;
        };
        if c.attempts_left == 0 {
            c.waiting.clear();
            let root_span = c.root_span;
            if c.phase == ImmPhase::Reported {
                self.coord.remove(&txn);
            }
            self.spans.note(root_span, "gave up retransmitting decision");
            return;
        }
        c.attempts_left -= 1;
        let (product, delta, decide_span) = (c.product, c.delta, c.span);
        let missing: Vec<SiteId> = c.waiting.iter().copied().collect();
        self.registry.add_id(self.ids.imm_decision_retransmits, missing.len() as u64);
        for peer in missing {
            self.send_traced(
                ctx,
                peer,
                txn.0,
                decide_span,
                Msg::ImmDecision { txn, commit: true, product, delta },
            );
        }
        self.arm_timer(ctx, IMM_VOTE_TIMEOUT, TimerKind::ImmRetransmit(txn));
    }
}

#[cfg(test)]
mod tests {
    use super::super::delay::tests::eager_and_lazy;
    use super::*;

    #[test]
    fn lazy_prepare_notes_read_as_the_eager_ones_did() {
        for (from, ready) in [(0u32, true), (31, false)] {
            let txn = TxnId::new(SiteId(from), 77).0;
            let (eager, lazy) = eager_and_lazy(
                format_args!("txn {} from s{} ready={ready}", txn, from),
                [txn, u64::from(from), u64::from(ready), 0, 0],
                render_imm_prepare,
            );
            assert_eq!(lazy, eager);
        }
    }

    #[test]
    fn lazy_decide_notes_read_as_the_eager_ones_did() {
        for commit in [true, false] {
            let txn = TxnId::new(SiteId(3), 12).0;
            let (eager, lazy) = eager_and_lazy(
                format_args!("txn {} commit={commit}", txn),
                [txn, u64::from(commit), 0, 0, 0],
                render_imm_decide,
            );
            assert_eq!(lazy, eager);
        }
    }
}
