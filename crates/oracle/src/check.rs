//! The invariant checker.

use crate::model::SequentialModel;
use crate::observe::{Observation, SubmittedRequest};
use avdb_types::{ProductId, SiteId, TxnId, VirtualTime, Volume};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One invariant breach found in an [`Observation`].
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// Two outcomes carried the same transaction id.
    DuplicateTxn {
        /// The reused id.
        txn: TxnId,
    },
    /// An outcome's transaction id maps to no injected request.
    UnknownTxn {
        /// The unmappable id.
        txn: TxnId,
    },
    /// `outcomes + lost inputs + wiped in-flight ≠ injected requests`.
    Accounting {
        /// Outcomes drained.
        outcomes: usize,
        /// Inputs lost to crashed sites.
        lost: u64,
        /// In-flight updates wiped by crashes.
        wiped: u64,
        /// Requests injected.
        injected: usize,
    },
    /// A replica disagrees with the base site after settling.
    Divergence {
        /// The divergent product.
        product: ProductId,
        /// The disagreeing site.
        site: SiteId,
        /// Its value.
        value: Volume,
        /// The base site's value.
        base: Volume,
    },
    /// Converged stock differs from initial stock plus all committed
    /// deltas (a lost or phantom write).
    StockMismatch {
        /// The product.
        product: ProductId,
        /// The converged replica value.
        converged: Volume,
        /// What the committed outcomes say it should be.
        expected: Volume,
    },
    /// Replaying committed updates in completion order drove a regular
    /// product's global stock negative — the escrow bound was violated.
    Oversell {
        /// The oversold product.
        product: ProductId,
        /// The committing transaction.
        txn: TxnId,
        /// The (negative) running stock it produced.
        running: Volume,
    },
    /// System-wide AV diverged from the conservation identity.
    AvConservation {
        /// The product.
        product: ProductId,
        /// `initial AV + (converged stock − initial stock)`.
        expected: Volume,
        /// Σ per-site AV totals.
        actual: Volume,
        /// Whether equality was required (reliable links) or only
        /// `actual ≤ expected` (drops destroy in-flight grants).
        strict: bool,
    },
    /// A site's AV table held a negative or inconsistent row.
    AvNegative {
        /// The site.
        site: SiteId,
        /// The product.
        product: ProductId,
        /// The row's total (`None` = undefined).
        total: Option<Volume>,
        /// The row's unheld volume.
        available: Volume,
    },
    /// A site's final AV total disagrees with its reconstructed
    /// transfer/mint/consume history (fault-free runs only).
    AvAccounting {
        /// The site.
        site: SiteId,
        /// The product.
        product: ProductId,
        /// Reconstructed total.
        expected: Volume,
        /// Observed total.
        actual: Volume,
    },
    /// Reconstructing a site's AV history dipped below zero.
    AvTimelineNegative {
        /// The site.
        site: SiteId,
        /// The product.
        product: ProductId,
        /// When the dip happened.
        at: VirtualTime,
        /// The (negative) running total.
        running: Volume,
    },
    /// A malformed transfer-ledger record.
    LedgerRecord {
        /// The recording site.
        site: SiteId,
        /// What is wrong with the record.
        detail: String,
    },
    /// A site finished with in-flight protocol state.
    NotIdle {
        /// The stuck site.
        site: SiteId,
    },
    /// A telemetry span references a parent span that exists nowhere in
    /// its trace — the causal tree is broken (a context was dropped or
    /// forged somewhere between send and receive).
    OrphanSpan {
        /// The trace the span belongs to.
        trace: u64,
        /// The orphaned span id.
        span: u64,
    },
    /// A committed update's trace has no root span (`parent == 0`) — the
    /// origin site never opened an "update" span for it.
    MissingRootSpan {
        /// The committed transaction.
        txn: TxnId,
    },
    /// An auxiliary trace's root span (`parent == 0`) was recorded away
    /// from the site that minted the trace — a receiver opened a span
    /// under a context whose origin had skipped the root.
    StrayAuxRoot {
        /// The auxiliary trace.
        trace: u64,
        /// The stray root span id.
        span: u64,
        /// The site that recorded it.
        site: SiteId,
    },
    /// Σ per-site registry `msg.sent.*` counters disagrees with the
    /// network substrate's own send count (lossless runs only).
    MessageAccounting {
        /// What the site registries counted at send time.
        registry: u64,
        /// What the network substrate counted at routing time.
        network: u64,
    },
    /// The message trace shows a response delivered without a matching
    /// request — the Figs. 3–5 causal order was broken.
    Causality {
        /// Responder site.
        from: SiteId,
        /// Requester site.
        to: SiteId,
        /// Response message kind.
        response: &'static str,
        /// Request message kind it must trail.
        request: &'static str,
        /// Responses delivered on the link so far.
        responses: u64,
        /// Requests delivered on the reverse link so far.
        requests: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DuplicateTxn { txn } => write!(f, "duplicate outcome for {txn}"),
            Violation::UnknownTxn { txn } => {
                write!(f, "outcome for {txn} maps to no injected request")
            }
            Violation::Accounting { outcomes, lost, wiped, injected } => write!(
                f,
                "accounting: {outcomes} outcomes + {lost} lost + {wiped} wiped ≠ {injected} injected"
            ),
            Violation::Divergence { product, site, value, base } => {
                write!(f, "{product} diverged: {site} has {value}, base has {base}")
            }
            Violation::StockMismatch { product, converged, expected } => write!(
                f,
                "{product} converged to {converged} but committed deltas say {expected}"
            ),
            Violation::Oversell { product, txn, running } => {
                write!(f, "{product} oversold: {txn} drove global stock to {running}")
            }
            Violation::AvConservation { product, expected, actual, strict } => write!(
                f,
                "{product} AV conservation broken: expected {}{expected}, system holds {actual}",
                if *strict { "" } else { "≤ " }
            ),
            Violation::AvNegative { site, product, total, available } => write!(
                f,
                "{site} {product} AV row inconsistent: total {total:?}, available {available}"
            ),
            Violation::AvAccounting { site, product, expected, actual } => write!(
                f,
                "{site} {product} AV accounting: history says {expected}, table holds {actual}"
            ),
            Violation::AvTimelineNegative { site, product, at, running } => write!(
                f,
                "{site} {product} AV history dips to {running} at {at:?}"
            ),
            Violation::LedgerRecord { site, detail } => {
                write!(f, "{site} ledger: {detail}")
            }
            Violation::NotIdle { site } => write!(f, "{site} still has in-flight state"),
            Violation::OrphanSpan { trace, span } => {
                write!(f, "span {span:#x} in trace {trace:#x} references a missing parent")
            }
            Violation::MissingRootSpan { txn } => {
                write!(f, "committed {txn} has no root span in its trace")
            }
            Violation::StrayAuxRoot { trace, span, site } => write!(
                f,
                "aux trace {trace:#x} minted at s{} has root span {span:#x} at {site}",
                avdb_telemetry::aux_trace_site(*trace)
            ),
            Violation::MessageAccounting { registry, network } => write!(
                f,
                "site registries counted {registry} sends but the network carried {network}"
            ),
            Violation::Causality { from, to, response, request, responses, requests } => write!(
                f,
                "{from}→{to}: {responses} `{response}` deliveries but only {requests} \
                 `{request}` the other way"
            ),
        }
    }
}

/// The checker's verdict: every violation found, in check order.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All violations (empty = conforming run).
    pub violations: Vec<Violation>,
}

impl Report {
    /// `true` when no invariant was violated.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with the full violation list if any invariant failed.
    /// `context` names the run for the panic message.
    pub fn assert_ok(&self, context: &str) {
        assert!(self.is_ok(), "oracle violations in {context}:\n{self}");
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.violations.is_empty() {
            return write!(f, "  (no violations)");
        }
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// Response message kinds and the request kind each may only trail.
const RESPONSE_PAIRS: [(&str, &str); 5] = [
    ("av-grant", "av-request"),
    ("av-push-ack", "av-push"),
    ("propagate-ack", "propagate"),
    ("imm-vote", "imm-prepare"),
    ("imm-done", "imm-decision"),
];

/// Runs every invariant over one observation.
pub fn check(obs: &Observation) -> Report {
    let mut report = Report::default();
    let map = TxnMap::build(obs);

    check_outcome_accounting(obs, &map, &mut report);
    let converged = check_convergence(obs, &mut report);
    check_stock_against_commits(obs, &map, converged, &mut report);
    check_oversell(obs, &map, &mut report);
    check_av_rows(obs, &mut report);
    check_av_conservation(obs, converged, &mut report);
    check_ledgers(obs, &mut report);
    check_av_history(obs, &map, &mut report);
    check_idle(obs, &mut report);
    check_causality(obs, &mut report);
    check_span_trees(obs, &mut report);
    check_message_accounting(obs, &mut report);
    report
}

/// Maps transaction ids back to the requests that created them.
///
/// Transaction ids encode `(origin site, per-site sequence)` and each
/// injected update consumes exactly one sequence number at its origin, in
/// injection order — except inputs lost to a crashed site, which never
/// reach the actor. Removing the lost injections (the simulator logs
/// them) leaves an exact `seq → request` correspondence per site.
struct TxnMap<'a> {
    per_site: Vec<Vec<&'a SubmittedRequest>>,
}

impl<'a> TxnMap<'a> {
    fn build(obs: &'a Observation) -> Self {
        let mut per_site: Vec<Vec<Option<&'a SubmittedRequest>>> =
            vec![Vec::new(); obs.cfg.n_sites];
        for req in &obs.submitted {
            if let Some(list) = per_site.get_mut(req.site.index()) {
                list.push(Some(req));
            }
        }
        for list in &mut per_site {
            list.sort_by_key(|r| r.expect("still present").at);
        }
        if let Some(lost) = &obs.lost_inputs {
            for (at, site) in lost {
                if let Some(list) = per_site.get_mut(site.index()) {
                    if let Some(slot) =
                        list.iter_mut().find(|s| s.is_some_and(|r| r.at == *at))
                    {
                        *slot = None;
                    }
                }
            }
        }
        TxnMap {
            per_site: per_site
                .into_iter()
                .map(|list| list.into_iter().flatten().collect())
                .collect(),
        }
    }

    fn request(&self, txn: TxnId) -> Option<&'a SubmittedRequest> {
        self.per_site.get(txn.origin().index())?.get(txn.seq() as usize).copied()
    }
}

fn check_outcome_accounting(obs: &Observation, map: &TxnMap<'_>, report: &mut Report) {
    let mut seen = BTreeSet::new();
    for (_, _, outcome) in &obs.outcomes {
        let txn = outcome.txn();
        if !seen.insert(txn) {
            report.violations.push(Violation::DuplicateTxn { txn });
        }
        if map.request(txn).is_none() {
            report.violations.push(Violation::UnknownTxn { txn });
        }
    }
    if let Some(lost) = &obs.lost_inputs {
        let wiped: u64 = obs.sites.iter().map(|s| s.wiped_in_flight).sum();
        let lost = lost.len() as u64;
        if obs.outcomes.len() as u64 + lost + wiped != obs.submitted.len() as u64 {
            report.violations.push(Violation::Accounting {
                outcomes: obs.outcomes.len(),
                lost,
                wiped,
                injected: obs.submitted.len(),
            });
        }
    }
}

/// Returns `true` when every replica agrees (later checks that read "the
/// converged value" are skipped otherwise, so one root cause is reported
/// once rather than cascading).
fn check_convergence(obs: &Observation, report: &mut Report) -> bool {
    let Some(base) = obs.sites.first() else { return false };
    let mut converged = true;
    for site in &obs.sites[1..] {
        for (idx, (value, base_value)) in site.stocks.iter().zip(&base.stocks).enumerate() {
            if value != base_value {
                converged = false;
                report.violations.push(Violation::Divergence {
                    product: ProductId(idx as u32),
                    site: site.site,
                    value: *value,
                    base: *base_value,
                });
            }
        }
    }
    converged
}

/// One committed transaction: completion time, id, and its item deltas.
type Commit = (VirtualTime, TxnId, Vec<(ProductId, Volume)>);

/// Sums each committed transaction's deltas per product.
fn committed_deltas(obs: &Observation, map: &TxnMap<'_>) -> Option<Vec<Commit>> {
    let mut commits = Vec::new();
    for (at, _, outcome) in &obs.outcomes {
        if !outcome.is_committed() {
            continue;
        }
        let req = map.request(outcome.txn())?;
        commits.push((*at, outcome.txn(), req.items.clone()));
    }
    Some(commits)
}

fn check_stock_against_commits(
    obs: &Observation,
    map: &TxnMap<'_>,
    converged: bool,
    report: &mut Report,
) {
    // An unmapped committed txn was already reported as UnknownTxn; a
    // divergent run has no "the converged value" to compare against.
    let (true, Some(commits)) = (converged, committed_deltas(obs, map)) else { return };
    let mut model = SequentialModel::new(&obs.cfg);
    for (_, _, items) in &commits {
        model.apply_unchecked(items);
    }
    let Some(base) = obs.sites.first() else { return };
    for (idx, (converged, expected)) in base.stocks.iter().zip(model.stocks()).enumerate() {
        if converged != expected {
            report.violations.push(Violation::StockMismatch {
                product: ProductId(idx as u32),
                converged: *converged,
                expected: *expected,
            });
        }
    }
}

/// Replays committed updates in completion order and checks that no
/// regular product's *global* stock ever went negative — the central
/// escrow guarantee: local commits against held AV can never oversell.
///
/// Commits at the same instant apply increments first: a minted volume is
/// only consumable from the same tick onward, never earlier.
fn check_oversell(obs: &Observation, map: &TxnMap<'_>, report: &mut Report) {
    let Some(mut commits) = committed_deltas(obs, map) else { return };
    if obs.reclassified {
        return; // AV pools were redefined mid-run; the bound has no anchor.
    }
    commits.sort_by_key(|(at, txn, items)| {
        let decrement = items.iter().any(|(_, d)| d.is_negative());
        (*at, decrement, *txn)
    });
    let mut model = SequentialModel::new(&obs.cfg);
    for (_, txn, items) in &commits {
        model.apply_unchecked(items);
        for (product, _) in items {
            let entry = obs.cfg.entry(*product);
            let regular = entry.map(|e| e.class.uses_av()).unwrap_or(false);
            let running = model.stock(*product).unwrap_or(Volume::ZERO);
            if regular && running.is_negative() {
                report.violations.push(Violation::Oversell {
                    product: *product,
                    txn: *txn,
                    running,
                });
            }
        }
    }
}

fn check_av_rows(obs: &Observation, report: &mut Report) {
    for site in &obs.sites {
        for (idx, (total, available)) in
            site.av_total.iter().zip(&site.av_available).enumerate()
        {
            let bad = match total {
                Some(total) => {
                    total.is_negative() || available.is_negative() || available > total
                }
                None => available.is_positive(),
            };
            if bad {
                report.violations.push(Violation::AvNegative {
                    site: site.site,
                    product: ProductId(idx as u32),
                    total: *total,
                    available: *available,
                });
            }
        }
    }
}

fn check_av_conservation(obs: &Observation, converged: bool, report: &mut Report) {
    if obs.reclassified || !converged {
        return;
    }
    let Some(base) = obs.sites.first() else { return };
    let strict = obs.network.dropped_messages == 0;
    for entry in &obs.cfg.catalog {
        if !entry.class.uses_av() {
            continue;
        }
        let product = entry.id;
        let expected = obs.cfg.initial_av_of(product)
            + (base.stocks[product.index()] - entry.initial_stock);
        let actual: Volume = obs
            .sites
            .iter()
            .map(|s| s.av_total[product.index()].unwrap_or(Volume::ZERO))
            .sum();
        // A dropped message can only *destroy* in-flight AV (a grant or
        // push withdrawn at the sender that never arrives); nothing can
        // create it. Reliable links therefore demand equality.
        let ok = if strict { actual == expected } else { actual <= expected };
        if !ok {
            report.violations.push(Violation::AvConservation {
                product,
                expected,
                actual,
                strict,
            });
        }
    }
}

fn check_ledgers(obs: &Observation, report: &mut Report) {
    for site in &obs.sites {
        let mut last = VirtualTime(0);
        for rec in &site.ledger {
            let mut problems = Vec::new();
            if !rec.amount.is_positive() {
                problems.push(format!("non-positive transfer {}", rec.amount));
            }
            if rec.from != site.site {
                problems.push(format!("outbound record claims sender {}", rec.from));
            }
            if rec.to == rec.from {
                problems.push("self-transfer".to_string());
            }
            if rec.to.index() >= obs.cfg.n_sites {
                problems.push(format!("unknown receiver {}", rec.to));
            }
            if rec.at < last {
                problems.push("records out of time order".to_string());
            }
            last = rec.at;
            for detail in problems {
                report.violations.push(Violation::LedgerRecord {
                    site: site.site,
                    detail: format!("{detail} ({} → {} {} at {:?})", rec.from, rec.to, rec.amount, rec.at),
                });
            }
        }
    }
}

/// Fault-free runs only: rebuilds every site's AV total from its initial
/// share plus all ledgered transfers, minted increments, and consumed
/// decrements, checking the final value exactly and the running value for
/// negative dips. (Crashes reset the in-memory ledger and drops lose
/// transfers in flight, so the reconstruction only closes on clean runs.)
fn check_av_history(obs: &Observation, map: &TxnMap<'_>, report: &mut Report) {
    let faulty = obs.reclassified
        || obs.network.dropped_messages > 0
        || obs.lost_inputs.as_ref().is_none_or(|l| !l.is_empty())
        || obs.sites.iter().any(|s| s.recoveries > 0);
    if faulty {
        return;
    }
    let Some(commits) = committed_deltas(obs, map) else { return };

    // (site, product) → [(time, credit?, amount)]
    type AvEvent = (VirtualTime, bool, Volume);
    let mut events: BTreeMap<(SiteId, ProductId), Vec<AvEvent>> = BTreeMap::new();
    for site in &obs.sites {
        for rec in &site.ledger {
            events.entry((rec.from, rec.product)).or_default().push((rec.at, false, rec.amount));
            events.entry((rec.to, rec.product)).or_default().push((rec.at, true, rec.amount));
        }
    }
    for (at, txn, items) in &commits {
        for (product, delta) in items {
            if delta.is_positive() {
                events.entry((txn.origin(), *product)).or_default().push((*at, true, *delta));
            } else if delta.is_negative() {
                events
                    .entry((txn.origin(), *product))
                    .or_default()
                    .push((*at, false, Volume::ZERO - *delta));
            }
        }
    }

    for entry in &obs.cfg.catalog {
        if !entry.class.uses_av() {
            continue;
        }
        let product = entry.id;
        let split = obs.cfg.split_av(obs.cfg.initial_av_of(product));
        for site in &obs.sites {
            let mut running = split[site.site.index()];
            let mut timeline =
                events.remove(&(site.site, product)).unwrap_or_default();
            // Credits first within a tick: an arriving grant (or a mint)
            // is spendable in the same instant, never owed retroactively.
            timeline.sort_by_key(|(at, credit, _)| (*at, !credit));
            for (at, credit, amount) in timeline {
                running = if credit { running + amount } else { running - amount };
                if running.is_negative() {
                    report.violations.push(Violation::AvTimelineNegative {
                        site: site.site,
                        product,
                        at,
                        running,
                    });
                }
            }
            let actual = site.av_total[product.index()].unwrap_or(Volume::ZERO);
            if running != actual {
                report.violations.push(Violation::AvAccounting {
                    site: site.site,
                    product,
                    expected: running,
                    actual,
                });
            }
        }
    }
}

fn check_idle(obs: &Observation, report: &mut Report) {
    for site in &obs.sites {
        if !site.idle {
            report.violations.push(Violation::NotIdle { site: site.site });
        }
    }
}

/// Causal-tree completeness over the merged telemetry spans: every span's
/// parent must exist somewhere in its trace (parents routinely live on
/// *another* site — the context piggybacked on the message carries the
/// id across), every committed update's trace must have a root span, and
/// an auxiliary trace's root may only live at the site that minted it.
/// Holds under loss and crashes: a dropped message means the receiver
/// records no child, and collectors deliberately survive crashes.
fn check_span_trees(obs: &Observation, report: &mut Report) {
    if obs.sites.len() != obs.cfg.n_sites {
        return; // partial capture: the merged view would lie.
    }
    let spans: Vec<(u64, u64, u64)> = obs
        .sites
        .iter()
        .flat_map(|s| s.spans.iter().map(|r| (r.trace, r.span, r.parent)))
        .collect();
    if spans.is_empty() {
        return; // telemetry not captured on this path.
    }
    for (trace, span) in avdb_telemetry::analyze::find_orphans(spans.clone()) {
        report.violations.push(Violation::OrphanSpan { trace, span });
    }
    let roots: BTreeSet<u64> =
        spans.iter().filter(|(_, _, parent)| *parent == 0).map(|(trace, _, _)| *trace).collect();
    for (_, _, outcome) in &obs.outcomes {
        if outcome.is_committed() && !roots.contains(&outcome.txn().0) {
            report.violations.push(Violation::MissingRootSpan { txn: outcome.txn() });
        }
    }
    for r in obs.sites.iter().flat_map(|s| &s.spans) {
        if r.parent == 0
            && avdb_telemetry::is_aux_trace(r.trace)
            && avdb_telemetry::aux_trace_site(r.trace) != r.site.0
        {
            report.violations.push(Violation::StrayAuxRoot {
                trace: r.trace,
                span: r.span,
                site: r.site,
            });
        }
    }
}

/// On lossless runs the accelerators' own send counters (`msg.sent.*`,
/// bumped when a message is handed to `ctx.send`) must total exactly the
/// network substrate's count (bumped when the message is routed). Lossy
/// runs are skipped per the acceptance criteria, though both sides count
/// at send time so drops alone should not separate them.
fn check_message_accounting(obs: &Observation, report: &mut Report) {
    if obs.sites.len() != obs.cfg.n_sites || obs.network.dropped_messages > 0 {
        return;
    }
    let registry: u64 = obs.sites.iter().map(|s| s.registry.counter_sum("msg.sent.")).sum();
    // Sites that never sent anything have no cells; a run with zero
    // telemetry (all-empty registries) cannot be distinguished from a
    // silent run, which is fine — zero sends match zero messages.
    if registry != obs.network.total_messages {
        report.violations.push(Violation::MessageAccounting {
            registry,
            network: obs.network.total_messages,
        });
    }
}

/// Prefix-count causality over the delivery trace: at every point of the
/// run, each response kind delivered `a → b` must be covered by at least
/// as many deliveries of its request kind `b → a`. This holds under
/// arbitrary loss, crash parking, and concurrency — a correct actor only
/// ever responds to a message it received — and is exactly the
/// request/response pairing of the paper's Figs. 3–5 charts.
fn check_causality(obs: &Observation, report: &mut Report) {
    if obs.trace.is_empty() {
        return;
    }
    let mut delivered: BTreeMap<(SiteId, SiteId, &str), u64> = BTreeMap::new();
    for event in &obs.trace {
        *delivered.entry((event.from, event.to, event.kind)).or_default() += 1;
        if let Some((response, request)) =
            RESPONSE_PAIRS.iter().find(|(resp, _)| *resp == event.kind)
        {
            let responses = delivered[&(event.from, event.to, event.kind)];
            let requests = delivered
                .get(&(event.to, event.from, *request))
                .copied()
                .unwrap_or(0);
            if responses > requests {
                report.violations.push(Violation::Causality {
                    from: event.from,
                    to: event.to,
                    response,
                    request,
                    responses,
                    requests,
                });
            }
        }
    }
}
