//! Scale-up hot-path coverage: checkpointed replication survives a
//! fail-stop mid-truncation, the incremental knowledge digest is
//! observably identical to shipping every first-hand belief on every
//! frame and carries first-hand news only, and the calendar-queue event
//! loop stays deterministic at 32 sites.

use avdb::bench::{run_scenario, BenchReport, ScenarioSpec};
use avdb::core::{KnowledgeExchange, KnowledgeRow};
use avdb::oracle::{Observation, SubmittedRequest};
use avdb::prelude::*;
use avdb::telemetry::{Registry, TraceSampler};

#[test]
fn crash_mid_truncation_recovers_from_checkpoint_with_av_conservation() {
    // Site 1 commits Delay updates while its outbound links are severed:
    // nothing propagates, no acks arrive, and an aggressively small
    // checkpoint threshold folds the oldest log entries into the
    // checkpoint prefix long before any peer has seen them. A fail-stop
    // in that state is the worst case for truncation — the folded
    // volume exists only as the checkpoint. Recovery plus one explicit
    // flush must still conserve AV and converge every replica.
    let cfg = SystemConfig::builder()
        .sites(3)
        .regular_products(3, Volume(600))
        .seed(23)
        .build()
        .unwrap();
    let mut actors: Vec<Accelerator> =
        SiteId::all(3).map(|s| Accelerator::new(s, &cfg)).collect();
    actors[1].set_checkpoint_threshold(4);
    let mut sys = DistributedSystem::from_actors(cfg, actors);
    sys.sever_link(SiteId(1), SiteId(0));
    sys.sever_link(SiteId(1), SiteId(2));
    for i in 0..40u64 {
        let product = ProductId((i % 3) as u32);
        sys.submit_at(VirtualTime(5 + i * 3), UpdateRequest::new(SiteId(1), product, Volume(-2)));
    }
    sys.run_until(VirtualTime(200));

    let snap = sys.accelerator(SiteId(1)).replication_snapshot();
    assert!(snap.base > 0, "cap folds should have truncated the log (base={})", snap.base);
    assert!(snap.log.len() <= 4, "retained log bounded by the threshold");
    assert!(
        snap.ckpt_nets.iter().any(|v| *v != 0),
        "checkpoint prefix carries the folded net volume"
    );

    sys.crash_at(VirtualTime(210), SiteId(1));
    sys.recover_at(VirtualTime(260), SiteId(1));
    sys.heal_link(SiteId(1), SiteId(0));
    sys.heal_link(SiteId(1), SiteId(2));
    sys.run_until_quiescent();
    sys.flush_all();
    sys.run_until_quiescent();

    assert!(sys.accelerator(SiteId(1)).stats().recoveries > 0, "the crash actually happened");
    for p in 0..3u32 {
        sys.check_av_conservation(ProductId(p))
            .unwrap_or_else(|(want, got)| panic!("p{p}: AV {got:?} != configured {want:?}"));
    }
    sys.check_convergence().unwrap();
    for site in SiteId::all(3) {
        assert!(
            sys.accelerator(site).fully_propagated(),
            "{site}: retained deltas drain to zero post-run"
        );
    }
}

#[test]
fn delta_digest_exchange_matches_dense_exchange_byte_for_byte() {
    // A seeded matrix of observations and piggyback frames, driven twice:
    // once through the incremental digest (watermarked deltas) and once
    // through a dense reference that ships every cell whose current value
    // is first-hand on every frame (`changed_since(0)`, same
    // receiver/sender row filter). The staleness gauges each site would
    // export — and the belief tables underneath them — must be
    // byte-identical.
    const SITES: usize = 6;
    const PRODUCTS: u32 = 4;

    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 11
    };

    let mut delta: Vec<KnowledgeExchange> =
        (0..SITES).map(|_| KnowledgeExchange::new(SITES)).collect();
    let mut dense: Vec<KnowledgeExchange> =
        (0..SITES).map(|_| KnowledgeExchange::new(SITES)).collect();

    let mut scratch: Vec<KnowledgeRow> = Vec::new();
    let (mut delta_rows, mut dense_rows) = (0usize, 0usize);
    let mut now = VirtualTime::ZERO;
    for _ in 0..400 {
        now = VirtualTime(now.0 + 1 + next() % 5);
        let obs = (next() as usize) % SITES;
        let peer = SiteId((next() % SITES as u64) as u32);
        let product = ProductId((next() % PRODUCTS as u64) as u32);
        let av = Volume((next() % 500) as i64);
        delta[obs].update(peer, product, av, now);
        dense[obs].update(peer, product, av, now);
        if next() % 4 == 0 {
            let rate = (next() % 20) as i64;
            delta[obs].update_rate(peer, product, rate, now);
            dense[obs].update_rate(peer, product, rate, now);
        }

        let from = (next() as usize) % SITES;
        let to = (next() as usize) % SITES;
        if from == to {
            continue;
        }
        let (me, rx) = (SiteId(from as u32), SiteId(to as u32));
        let rows = delta[from].encode_digest_for(me, rx);
        delta_rows += rows.len();
        delta[to].apply_digest(rx, &rows);

        scratch.clear();
        dense[from].table().changed_since(0, &mut scratch);
        let all: Vec<KnowledgeRow> = scratch
            .iter()
            .filter(|d| d.site != rx && d.site != me)
            .copied()
            .collect();
        dense_rows += all.len();
        dense[to].apply_digest(rx, &all);
    }
    assert!(
        delta_rows > 0 && delta_rows < dense_rows,
        "the delta digest ships news, not the table ({delta_rows} vs {dense_rows} rows)"
    );

    // Render the per-site staleness gauges exactly as an export would.
    let render = |sites: &[KnowledgeExchange]| -> String {
        let mut out = String::new();
        for (i, x) in sites.iter().enumerate() {
            let mut reg = Registry::new();
            for p in 0..SITES {
                let id = reg.gauge_id(&format!("knowledge.staleness.s{p}"));
                let stale = x.table().freshest(SiteId(p as u32)).map_or(-1, |t| (now.0 - t.0) as i64);
                reg.set_gauge_id(id, stale);
            }
            out.push_str(&format!("site{i} {}\n", serde_json::to_string(&reg.snapshot()).unwrap()));
        }
        out
    };
    assert_eq!(render(&delta), render(&dense), "digest exchange diverged from dense");

    // Stronger than the gauges: every belief cell agrees.
    for s in 0..SITES {
        let (a, b) = (delta[s].table(), dense[s].table());
        for q in 0..SITES {
            for p in 0..PRODUCTS {
                let (peer, product) = (SiteId(q as u32), ProductId(p));
                assert_eq!(a.known(peer, product), b.known(peer, product));
                assert_eq!(a.known_rate(peer, product), b.known_rate(peer, product));
                assert_eq!(a.staleness(peer, product, now), b.staleness(peer, product, now));
            }
        }
    }
}

/// Runs a bench cell's schedule through the simulator to convergence.
fn settled(cfg: SystemConfig, schedule: &[(VirtualTime, UpdateRequest)]) -> DistributedSystem {
    let mut sys = DistributedSystem::new(cfg);
    for (at, req) in schedule {
        sys.submit_at(*at, *req);
    }
    sys.run_until_quiescent();
    sys.flush_all();
    sys.run_until_quiescent();
    sys.check_convergence().expect("replicas converge");
    sys
}

fn spans_named<'a>(sys: &'a DistributedSystem, name: &'a str) -> impl Iterator<Item = u64> + 'a {
    SiteId::all(sys.config().n_sites).flat_map(move |s| {
        sys.accelerator(s).spans().records().iter().filter(move |r| r.name == name).map(|r| r.trace)
    })
}

/// The ledger's steady 32-site cell at 2 000 updates: the paper's regime
/// (one maker restocking +31 %, 31 retailers taking 1 %), batch 4,
/// coalesced frames.
fn steady_s32_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::base();
    spec.sites = 32;
    spec.updates = 2_000;
    spec.regular_products = 8;
    spec.non_regular_products = 0;
    spec.maker_pct = 31;
    spec.retailer_pct = 1;
    spec.propagation_batch = 4;
    spec.shortage_fanout = 2;
    spec.coalesce_propagation = true;
    spec
}

/// `spec`'s schedule with stock held stationary instead of random-walking:
/// as on the ledger, every maker update restocks the most-depleted product
/// with exactly what retailers took from it since its last restock.
fn steady_schedule(spec: &ScenarioSpec) -> Vec<(VirtualTime, UpdateRequest)> {
    let mut schedule = spec.schedule();
    let mut taken = vec![0i64; spec.regular_products];
    for (_, req) in &mut schedule {
        if req.site == SiteId::BASE {
            let (product, amount) = taken
                .iter()
                .copied()
                .enumerate()
                .max_by_key(|&(i, t)| (t, std::cmp::Reverse(i)))
                .unwrap();
            req.product = ProductId(product as u32);
            req.delta = Volume(amount.max(1));
            taken[product] = 0;
        } else {
            taken[req.product.index()] -= req.delta.get();
        }
    }
    schedule
}

#[test]
fn s32_steady_digests_carry_first_hand_news_only() {
    // Relaying merged rows would cost ≈ 31 belief rows per frame on this
    // cell; first-hand news alone is ≈ 2.
    let spec = steady_s32_spec();
    let schedule = steady_schedule(&spec);
    let mut sys = settled(spec.config().unwrap(), &schedule);
    let outcomes = sys.drain_outcomes();
    let submitted = schedule
        .iter()
        .map(|(at, req)| SubmittedRequest::single(*at, req))
        .collect();
    avdb::oracle::check(&Observation::from_system(&sys, submitted, outcomes))
        .assert_ok("steady s32 cell");

    let reg = sys.merged_registry();
    let frames = reg.counter("msg.sent.propagate");
    let rows = reg.counter("knowledge.digest.rows_sent");
    assert!(frames > 0 && rows > 0, "{frames} frames carried {rows} rows");
    assert_eq!(
        reg.counter("knowledge.digest.rows_merged"),
        rows,
        "lossless: every row lands"
    );
    assert!(rows <= 3 * frames, "{rows} digest rows over {frames} frames");
}

#[test]
fn sampled_s32_steady_cell_retains_at_most_two_spans_per_update() {
    // The paper's regime at 32 sites under auto-scale sampling: every
    // update keeps its root, ~1 % keep their trees, and replication adds
    // spans only for the aux traces the sampler keeps — a receiver never
    // mints a root of its own for a frame whose origin skipped one.
    let spec = steady_s32_spec();
    let mut cfg = spec.config().unwrap();
    cfg.trace_sample_rate = Some(avdb::telemetry::AUTO_SCALE_SAMPLE_RATE);
    cfg.anomaly_keep_rate = Some(avdb::bench::matrix::AUTO_SCALE_ANOMALY_KEEP);
    let sys = settled(cfg, &spec.schedule());

    let spans: usize =
        SiteId::all(32).map(|s| sys.accelerator(s).spans().records().len()).sum();
    assert!(
        spans <= 2 * spec.updates,
        "{spans} spans retained for {} updates",
        spec.updates
    );
    let sampler = TraceSampler::for_rate(sys.config().seed, sys.config().trace_sample_rate);
    for name in ["apply-batch", "replicate-ack"] {
        let stray: Vec<u64> = spans_named(&sys, name).filter(|t| !sampler.sampled(*t)).collect();
        assert!(stray.is_empty(), "{name} spans of unsampled traces: {stray:x?}");
    }
}

#[test]
fn sampled_s32_steady_cell_drops_or_parks_at_most_four_spans_per_update() {
    // A replica mints an `apply` span only for a kept trace: head-sampled,
    // or promoted at the origin before it recorded the delta (the retain
    // bit). Minting one per replicated delta only to drop or park it cost
    // ≈ 28 spans per update on this cell.
    let spec = steady_s32_spec();
    let mut cfg = spec.config().unwrap();
    cfg.trace_sample_rate = Some(avdb::telemetry::AUTO_SCALE_SAMPLE_RATE);
    cfg.anomaly_keep_rate = Some(avdb::bench::matrix::AUTO_SCALE_ANOMALY_KEEP);
    let schedule = steady_schedule(&spec);
    let mut sys = settled(cfg, &schedule);
    let outcomes = sys.drain_outcomes();
    let submitted = schedule
        .iter()
        .map(|(at, req)| SubmittedRequest::single(*at, req))
        .collect();
    avdb::oracle::check(&Observation::from_system(&sys, submitted, outcomes))
        .assert_ok("sampled steady s32 cell");

    let discarded: u64 = SiteId::all(32)
        .map(|s| {
            let spans = sys.accelerator(s).spans();
            spans.evicted() + spans.sampling_stats().1 as u64
        })
        .sum();
    assert!(
        discarded <= 4 * spec.updates as u64,
        "{discarded} spans dropped or parked for {} updates",
        spec.updates
    );

    // The retain bit is the origin's keep decision at the moment it minted
    // the commit span every apply hangs under, so an unsampled trace's
    // retained apply must find that commit span retained at its origin.
    let sampler = TraceSampler::for_rate(sys.config().seed, sys.config().trace_sample_rate);
    let retained: std::collections::HashSet<u64> = SiteId::all(32)
        .flat_map(|s| sys.accelerator(s).spans().records().iter().map(|r| r.span))
        .collect();
    let mut applies = 0;
    for s in SiteId::all(32) {
        for r in sys.accelerator(s).spans().records().iter().filter(|r| r.name == "apply") {
            applies += 1;
            assert!(
                sampler.sampled(r.trace) || retained.contains(&r.parent),
                "apply span {:x} of unkept trace {:x} at {s:?}",
                r.span,
                r.trace
            );
        }
    }
    assert!(applies > 0, "sampled traces still replicate with their apply spans");
}

#[test]
fn full_telemetry_records_one_apply_batch_per_frame_and_one_ack_span_per_ack() {
    let spec = ScenarioSpec::base();
    let sys = settled(spec.config().unwrap(), &spec.schedule());
    let frames: u64 =
        SiteId::all(3).map(|s| sys.accelerator(s).stats().propagation_batches_sent).sum();
    let acks = sys.merged_registry().counter("msg.sent.propagate-ack");
    assert!(frames > 0);
    assert_eq!(acks, frames, "lossless: every frame is acked");
    assert_eq!(spans_named(&sys, "apply-batch").count() as u64, frames);
    assert_eq!(spans_named(&sys, "replicate-ack").count() as u64, acks);
}

#[test]
fn calendar_queue_is_deterministic_at_s32() {
    // 32 sites puts thousands of timers and ready-list entries through
    // the tick-bucketed calendar queue every virtual tick; the report
    // must still come out byte-identical on a rerun of the same seed.
    let mut spec = ScenarioSpec::base();
    spec.sites = 32;
    spec.updates = 800;
    spec.zipf_milli = 900;
    spec.seed = 29;
    let det = |spec: &ScenarioSpec| {
        let art = run_scenario(spec).unwrap_or_else(|e| panic!("{}: {e}", spec.label()));
        BenchReport { label: "determinism-s32".to_string(), scenarios: vec![art.result] }
            .to_json()
    };
    let first = det(&spec);
    assert!(first.contains("commits_per_mtick"), "sim stats present");
    assert_eq!(first, det(&spec), "same seed, same spec, same bytes at 32 sites");
}
