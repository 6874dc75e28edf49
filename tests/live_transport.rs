//! The identical accelerator code on the live TCP mesh, one OS thread
//! per site: protocol correctness must not depend on the deterministic
//! scheduler. Final states are verified by the shared conformance oracle.

mod common;

use avdb::bench::{run_checked, LiveDriver};
use avdb::core::{Accelerator, Input};
use avdb::prelude::*;
use avdb::simnet::DetRng;
use common::assert_oracle_live;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

fn spawn(n_sites: usize, n_products: usize, stock: i64, seed: u64) -> LiveDriver {
    let cfg = SystemConfig::builder()
        .sites(n_sites)
        .regular_products(n_products, Volume(stock))
        .propagation_batch(4)
        .seed(seed)
        .build()
        .unwrap();
    LiveDriver::spawn(&cfg, TIMEOUT)
}

#[test]
fn live_concurrent_delay_updates_converge() {
    let mut live = spawn(3, 4, 10_000, 77);
    let per_site = 150usize;
    for i in 0..per_site as u64 {
        for s in 0..3u32 {
            let site = SiteId(s);
            let delta = if site == SiteId::BASE { Volume(12) } else { Volume(-9) };
            live.inject(UpdateRequest::new(site, ProductId((i % 4) as u32), delta));
        }
    }
    let run = live.finish().expect("the live run settles");

    let committed = run.outcomes.iter().filter(|(_, _, o)| o.is_committed()).count();
    assert_eq!(committed, per_site * 3, "ample AV: everything commits");
    // Message pairing still holds on the live transport.
    assert_eq!(run.counters.total_messages() % 2, 0);
    // Replica convergence and global AV conservation under true
    // concurrency — the oracle replays the run against its model.
    assert_oracle_live(&run, &run.actors, "live-converge");
}

#[test]
fn live_immediate_updates_serialize_on_locks() {
    let cfg = SystemConfig::builder()
        .sites(3)
        .non_regular_products(1, Volume(1_000))
        .seed(5)
        .build()
        .unwrap();
    let mut live = LiveDriver::spawn(&cfg, TIMEOUT);
    let per_site = 40usize;
    for _ in 0..per_site {
        for s in 0..3u32 {
            live.inject(UpdateRequest::new(SiteId(s), ProductId(0), Volume(-2)));
            // Slight pacing: with fully saturated injection every
            // coordinator holds its own local lock and the no-wait scheme
            // aborts everyone — a real (and documented) property of the
            // protocol, but not what this test is about.
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    // Decided coordinators report before their participants let go;
    // finishing waits for both.
    let run = live.finish().expect("2PC settles");
    let committed = run.outcomes.iter().filter(|(_, _, o)| o.is_committed()).count();
    assert!(committed >= 1, "at least some Immediate updates get through");
    // Whatever the interleaving, every replica shows exactly the
    // committed total.
    let expected = Volume(1_000 - 2 * committed as i64);
    for a in &run.actors {
        assert_eq!(a.db().stock(ProductId(0)).unwrap(), expected);
    }
    assert_oracle_live(&run, &run.actors, "live-immediate");
}

/// One seed's serial schedule: covered Delay updates (decrements at the
/// retailers, restocks at the base), shortages that need AV transfers,
/// over-asks that abort, and Immediate (2PC) updates from every site.
fn serial_schedule(seed: u64) -> Vec<UpdateRequest> {
    let mut rng = DetRng::new(seed);
    (0..30)
        .map(|_| {
            let (kind, regular) = (rng.gen_range(10), ProductId(rng.gen_range(2) as u32));
            // A shortage is a retailer's: the base holds the most AV.
            let site = SiteId(rng.gen_range(3) as u32).max(SiteId(u32::from(matches!(kind, 5 | 6))));
            let (product, delta) = match kind {
                0..=4 if site == SiteId::BASE => (regular, 5),
                0..=4 => (regular, -rng.gen_i64_inclusive(1, 8)),
                5 | 6 => (regular, -rng.gen_i64_inclusive(110, 170)),
                7 => (regular, -5_000),
                _ => (ProductId(2), -rng.gen_i64_inclusive(1, 3)),
            };
            UpdateRequest::new(site, product, Volume(delta))
        })
        .collect()
}

/// What an outcome decided, without the wall-derived completion time.
fn decided(site: SiteId, outcome: &UpdateOutcome) -> String {
    match outcome {
        UpdateOutcome::Committed { txn, kind, correspondences, .. } => {
            format!("s{} {txn:?} committed {kind:?} corr={correspondences}", site.0)
        }
        UpdateOutcome::Aborted { txn, reason, correspondences, .. } => {
            format!("s{} {txn:?} aborted {reason} corr={correspondences}", site.0)
        }
    }
}

/// Every site's (stock, AV defined, AV available) row per product.
fn rows(actors: &[&Accelerator]) -> Vec<(Volume, bool, Volume)> {
    actors
        .iter()
        .flat_map(|a| {
            ProductId::all(3).map(move |p| {
                (a.db().stock(p).expect("product"), a.av().is_defined(p), a.av().available(p))
            })
        })
        .collect()
}

/// Sim ≡ live on a serial schedule, over seeds: each update is injected,
/// its outcome awaited, propagation flushed at every site and the cluster
/// quiesced before the next, in both runtimes. Outcome by outcome (commit
/// or abort, kind or reason, correspondences, transaction id) and in the
/// final stock and AV rows of every site, the runs must agree, so every
/// live replica ends at the simulator's stock.
///
/// Timers cannot fire differently: no periodic timer is configured
/// (anti-entropy and series windows are off), and every other timer
/// guards a round (an AV grant, a 2PC vote, decision or completion) the
/// serial schedule finishes long before its deadline, so it is a no-op
/// whenever it fires: at once in the simulator, which runs its clock to
/// quiescence between updates, or tens of milliseconds later on the live
/// mesh.
#[test]
fn live_matches_simulated_final_state_on_sequential_load() {
    for seed in 0..5 {
        let cfg = SystemConfig::builder()
            .sites(3)
            .regular_products(2, Volume(300))
            .non_regular_products(1, Volume(1_000))
            .seed(seed)
            .build()
            .unwrap();
        let updates = serial_schedule(seed);

        // Simulator: one update per 100 000 ticks, far past every
        // timeout; propagation flushed halfway to the next.
        const GAP: u64 = 100_000;
        let mut sim = DistributedSystem::new(cfg.clone());
        let timed: Vec<_> =
            updates.iter().enumerate().map(|(i, u)| (VirtualTime(i as u64 * GAP), *u)).collect();
        let sim_outcomes = run_checked(&mut sim, &timed, |sys| {
            for (at, _) in &timed {
                sys.run_until(VirtualTime(at.0 + GAP / 2));
                sys.flush_all();
            }
            sys.run_until_quiescent();
        })
        .outcomes()
        .unwrap_or_else(|(_, e)| panic!("seed {seed}: serial sim: {e}"));

        // Live mesh, the same steps.
        let mut live = LiveDriver::spawn(&cfg, TIMEOUT);
        for (i, u) in updates.iter().enumerate() {
            live.inject(*u);
            live.wait(i + 1).unwrap_or_else(|e| panic!("seed {seed}: update {i}: {e}"));
            for site in SiteId::all(3) {
                live.mesh().inject(site, Input::FlushPropagation);
            }
            assert!(live.mesh().quiesce(TIMEOUT), "seed {seed}: update {i}: no quiet after flush");
        }
        let run = live.finish().expect("the live run settles");

        let (sim_lines, live_lines): (Vec<String>, Vec<String>) = (
            sim_outcomes.iter().map(|(_, site, o)| decided(*site, o)).collect(),
            run.outcomes.iter().map(|(_, site, o)| decided(*site, o)).collect(),
        );
        for (i, (s, l)) in sim_lines.iter().zip(&live_lines).enumerate() {
            assert_eq!(l, s, "seed {seed}: update {i} ({:?}) decided differently", updates[i]);
        }
        assert_eq!(live_lines.len(), updates.len());
        let sim_actors: Vec<&Accelerator> = SiteId::all(3).map(|s| sim.accelerator(s)).collect();
        assert_eq!(
            rows(&run.actors.iter().collect::<Vec<_>>()),
            rows(&sim_actors),
            "seed {seed}: final stock and AV rows differ"
        );
        // The shapes the sweep exists for all ran.
        let has = |what: &str| sim_lines.iter().any(|l| l.contains(what));
        if seed == 0 {
            for what in ["Delay corr=0", "Delay corr=1", "Immediate", "aborted insufficient"] {
                assert!(has(what), "seed 0 never ran {what}: {sim_lines:#?}");
            }
        }
        assert_oracle_live(&run, &run.actors, "sequential-live");
    }
}

#[test]
fn live_system_survives_a_peer_kill() {
    let mut live = spawn(3, 2, 9_000, 21);
    // Fail-stop the maker; the retailers keep selling from their AV.
    live.mesh().kill(SiteId(0));
    let per_site = 50usize;
    for i in 0..per_site as u64 {
        for s in 1..3u32 {
            live.inject(UpdateRequest::new(SiteId(s), ProductId((i % 2) as u32), Volume(-4)));
        }
    }
    let run = live.finish().expect("the survivors settle");
    assert_eq!(
        run.outcomes.iter().filter(|(_, _, o)| o.is_committed()).count(),
        per_site * 2,
        "retailer autonomy survives the maker's death"
    );
    // Propagation to the dead site was dropped, not delivered.
    assert!(run.counters.dropped_messages() > 0);
    // The dead maker is frozen at its last state by design; the oracle
    // checks the two live replicas (convergence between them, escrow
    // safety, and AV conservation weakened to ≤ under message loss).
    assert_oracle_live(&run, &run.actors[1..], "live-peer-kill");
}
