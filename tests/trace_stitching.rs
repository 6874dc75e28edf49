//! Cross-transport causal-tracing acceptance: the same protocol code runs
//! under the deterministic simulator and the TCP mesh, and on both of
//! them each committed update must leave a complete
//! span tree (rooted, no orphans) whose *shape* — the phases recorded
//! across all sites — is transport-independent.

mod common;

use avdb::bench::LiveDriver;
use avdb::prelude::*;
use avdb::simnet::DetRng;
use avdb::telemetry::analyze::verify;
use avdb::telemetry::RunExport;
use std::collections::BTreeSet;

const SITES: usize = 4;
const REQUESTS: usize = 24;

fn config(seed: u64) -> SystemConfig {
    SystemConfig::builder()
        .sites(SITES)
        // Ample AV: Delay traffic commits locally, so both paths appear
        // without AV-negotiation rounds (whose count is timing-sensitive
        // on the live transports).
        .regular_products(2, Volume(400))
        .non_regular_products(1, Volume(60))
        .seed(seed)
        .build()
        .unwrap()
}

fn requests(cfg: &SystemConfig) -> Vec<UpdateRequest> {
    let mut rng = DetRng::new(cfg.seed).derive(0x517C);
    (0..REQUESTS)
        .map(|_| {
            let site = SiteId(rng.gen_range(SITES as u64) as u32);
            let product = ProductId(rng.gen_range(3) as u32);
            UpdateRequest::new(site, product, Volume(-rng.gen_i64_inclusive(1, 6)))
        })
        .collect()
}

/// Runs `reqs` through the live TCP mesh and exports the settled run.
fn export_live(cfg: &SystemConfig, reqs: &[UpdateRequest]) -> RunExport {
    let mut live = LiveDriver::spawn(cfg, std::time::Duration::from_secs(30));
    for req in reqs {
        live.inject(*req);
    }
    live.finish().expect("the live run settles").export()
}

fn committed_txns(export: &RunExport) -> BTreeSet<u64> {
    export.outcomes.iter().filter(|o| o.committed).map(|o| o.txn).collect()
}

/// Asserts the acceptance criteria on one export: every committed update
/// has a rooted, orphan-free span tree, and the sites' own send counters
/// total exactly what the network substrate carried.
fn assert_complete(export: &RunExport, context: &str) {
    let report = verify(export);
    assert!(report.is_ok(), "{context}: {report}");
    assert!(report.committed > 0, "{context}: no committed updates to verify");
    let registry_sends: u64 = export
        .registries
        .iter()
        .filter(|r| r.scope.starts_with("site"))
        .map(|r| r.snapshot.counter_sum("msg.sent."))
        .sum();
    let network = export.registry("network").expect("network registry present");
    assert_eq!(
        registry_sends,
        network.counter("msg.total"),
        "{context}: registry and network message totals disagree"
    );
}

#[test]
fn every_transport_produces_complete_span_trees() {
    let cfg = config(41);
    let reqs = requests(&cfg);
    let timed: Vec<_> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| (VirtualTime(i as u64 * 4), *r))
        .collect();

    assert_complete(&common::export_sim(&cfg, &timed), "sim");
    assert_complete(&export_live(&cfg, &reqs), "tcp");
}

#[test]
fn tcp_spans_stitch_into_the_same_trees_as_sim_spans() {
    let cfg = config(42);
    let reqs = requests(&cfg);
    let timed: Vec<_> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| (VirtualTime(i as u64 * 4), *r))
        .collect();

    let sim = common::export_sim(&cfg, &timed);
    let tcp = export_live(&cfg, &reqs);
    assert!(verify(&sim).is_ok());
    assert!(verify(&tcp).is_ok());

    // Same seed → same transaction (= trace) ids. Span ids and timestamps
    // are scheduling artifacts, but for every update committed on both
    // transports the causal tree must contain the same phases.
    let both: Vec<u64> =
        committed_txns(&sim).intersection(&committed_txns(&tcp)).copied().collect();
    assert!(
        both.len() >= REQUESTS / 2,
        "expected most updates to commit on both transports, got {}",
        both.len()
    );
    let sim_shapes = common::trace_shapes(&sim);
    let tcp_shapes = common::trace_shapes(&tcp);
    for txn in both {
        assert_eq!(
            sim_shapes.get(&txn),
            tcp_shapes.get(&txn),
            "trace {txn:#x} has different causal shapes on sim vs tcp"
        );
    }
}
