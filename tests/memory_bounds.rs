//! A long-running cluster holds memory proportional to its state, not to
//! its history: every site's WAL checkpoints itself, and with no sample
//! rate configured each origin keeps full span trees only for its first
//! `FULL_TRACES_PER_ORIGIN` traces, then head-samples the rest.

mod common;

use avdb::core::WAL_CHECKPOINT_RECORDS;
use avdb::prelude::*;
use avdb::storage::LogRecord;
use avdb::telemetry::{is_aux_trace, TraceSampler, FULL_TRACES_PER_ORIGIN, SEQ_MASK};
use common::{assert_oracle_sim, settle_sim, Submissions};
use std::collections::{BTreeMap, BTreeSet};

const SITES: usize = 3;
/// Updates per origin site: comfortably past the span budget.
const PER_SITE: u64 = FULL_TRACES_PER_ORIGIN + 3_000;
const TICKS_PER_UPDATE: u64 = 3;

/// Mostly covered Delay updates (each site takes from and restocks its
/// own AV), plus a periodic Immediate on the non-regular product and a
/// periodic oversized Delay decrement that only AV transfers can cover.
fn schedule() -> Vec<(VirtualTime, UpdateRequest)> {
    let n = PER_SITE * SITES as u64;
    (0..n)
        .map(|i| {
            let site = SiteId((i % SITES as u64) as u32);
            let round = i / SITES as u64;
            let sign = |k: u64| if k.is_multiple_of(2) { -1 } else { 1 };
            let (product, delta) = if i % 53 == 7 {
                (ProductId(2), sign(round))
            } else if i % 1_499 == 11 {
                (ProductId(0), -1_500)
            } else if i % 1_499 == 11 + SITES as u64 {
                (ProductId(0), 1_500)
            } else {
                // Each product alternates a take and an equal restock.
                let d = 1 + (round / 2 * 7 % 11) as i64;
                (ProductId((round % 2) as u32), sign(round / 2) * d)
            };
            (
                VirtualTime(i * TICKS_PER_UPDATE),
                UpdateRequest::new(site, product, Volume(delta)),
            )
        })
        .collect()
}

#[test]
fn long_run_bounds_the_wal_and_samples_spans_past_the_budget() {
    let cfg = SystemConfig::builder()
        .sites(SITES)
        .regular_products(2, Volume(3_000))
        .non_regular_products(1, Volume(1_000))
        .seed(17)
        .build()
        .unwrap();
    assert_eq!(
        cfg.trace_sample_rate, None,
        "the default rate is under test"
    );
    let mut sys = DistributedSystem::new(cfg.clone());
    let mut subs = Submissions::new();
    let timed = schedule();
    let end = timed.last().unwrap().0;
    for (at, req) in &timed {
        subs.submit_at(&mut sys, *at, *req);
    }
    // One fail-stop mid-run, well past the budget switch.
    let crash = VirtualTime(end.0 * 9 / 10);
    sys.crash_at(crash, SiteId(1));
    sys.recover_at(VirtualTime(crash.0 + 900), SiteId(1));

    // The WAL check runs after every handler, so between events no WAL
    // ever reaches the threshold.
    let mut fuzzy = BTreeSet::new();
    while sys.step() {
        for site in SiteId::all(SITES) {
            let wal = sys.accelerator(site).db().wal();
            assert!(
                wal.len() < WAL_CHECKPOINT_RECORDS,
                "{site} WAL at {}",
                wal.len()
            );
            if let Some(LogRecord::Checkpoint { in_flight, .. }) = wal.records().first() {
                if !in_flight.is_empty() {
                    fuzzy.insert((site, in_flight.clone()));
                }
            }
        }
    }
    settle_sim(&mut sys);
    sys.check_convergence().expect("replicas converge");
    for site in SiteId::all(SITES) {
        let wal = sys.accelerator(site).db().wal();
        assert!(
            matches!(wal.records().first(), Some(LogRecord::Checkpoint { .. })),
            "{site} never checkpointed"
        );
    }
    // A 2PC participant's apply was in flight at some checkpoint.
    assert!(
        !fuzzy.is_empty(),
        "no checkpoint landed with a transaction in flight"
    );
    assert_eq!(sys.accelerator(SiteId(1)).stats().recoveries, 1);

    // Span trees complete across the full → sampled switch: the oracle
    // fails any orphan, missing root or stray auxiliary root.
    let outcomes = sys.drain_outcomes();
    let reg = sys.merged_registry();
    assert!(
        reg.counter("slo.delay.shortage") >= 30,
        "Delay shortages ran"
    );
    assert!(reg.counter("slo.imm.total") >= 1_000, "Immediates ran");
    assert_oracle_sim(&sys, subs, outcomes, "long run past the span budget");

    // Below the budget every update trace keeps its whole tree; past it,
    // about 1 % do (head-sampled, plus rescued anomalies).
    let mut interior: BTreeMap<u64, usize> = BTreeMap::new();
    for site in SiteId::all(SITES) {
        for r in sys.accelerator(site).spans().records() {
            if !is_aux_trace(r.trace) {
                *interior.entry(r.trace).or_default() += usize::from(r.parent != 0);
            }
        }
    }
    let (mut below, mut past, mut past_kept) = (0, 0, 0);
    for (&trace, &n) in &interior {
        if trace & SEQ_MASK < FULL_TRACES_PER_ORIGIN {
            below += 1;
            assert!(
                n > 0,
                "trace {trace:#x} below the budget lost its interior spans"
            );
        } else {
            past += 1;
            past_kept += usize::from(n > 0);
        }
    }
    assert!(below as u64 >= FULL_TRACES_PER_ORIGIN * SITES as u64 - 64);
    assert!(past > 6_000, "{past} traces past the budget");
    let head = TraceSampler::for_rate(cfg.seed, None);
    let head_kept = interior
        .keys()
        .filter(|t| **t & SEQ_MASK >= FULL_TRACES_PER_ORIGIN && head.sampled(**t))
        .count();
    assert!(
        (past / 200..=past * 3 / 100).contains(&head_kept),
        "{head_kept} of {past} traces past the budget head-sampled"
    );
    assert!(
        (head_kept..=head_kept + past / 100).contains(&past_kept),
        "{past_kept} of {past} traces past the budget kept their trees ({head_kept} head-sampled)"
    );
}
