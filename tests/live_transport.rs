//! The identical accelerator code on the live TCP mesh, one OS thread
//! per site: protocol correctness must not depend on the deterministic
//! scheduler. Final states are verified by the shared conformance oracle.

mod common;

use avdb::bench::{run_checked, LiveDriver};
use avdb::prelude::*;
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

#[test]
fn live_matches_simulated_final_state_on_sequential_load() {
    // With one update at a time (waiting for each outcome), the live run
    // is fully sequential, so its final state must equal the simulator's
    // for the same inputs.
    let updates: Vec<UpdateRequest> = (0..30)
        .map(|i| {
            let site = SiteId((i % 3) as u32);
            let delta = if site == SiteId::BASE { Volume(10) } else { Volume(-6) };
            UpdateRequest::new(site, ProductId((i % 2) as u32), delta)
        })
        .collect();

    // Simulator run.
    let cfg = SystemConfig::builder()
        .sites(3)
        .regular_products(2, Volume(500))
        .seed(3)
        .build()
        .unwrap();
    let mut sim = DistributedSystem::new(cfg.clone());
    let timed: Vec<_> =
        updates.iter().enumerate().map(|(i, u)| (VirtualTime(i as u64 * 50), *u)).collect();
    run_checked(&mut sim, &timed, DistributedSystem::run_until_quiescent)
        .outcomes()
        .unwrap_or_else(|(_, e)| panic!("sequential-sim: {e}"));
    let sim_stocks: Vec<Volume> =
        (0..2).map(|p| sim.stock(SiteId(0), ProductId(p))).collect();

    // Live run, strictly sequential.
    let mut live = LiveDriver::spawn(&cfg, TIMEOUT);
    for (i, u) in updates.iter().enumerate() {
        live.inject(*u);
        live.wait(i + 1).expect("update settles");
    }
    let run = live.finish().expect("the live run settles");
    for p in 0..2u32 {
        for a in &run.actors {
            assert_eq!(
                a.db().stock(ProductId(p)).unwrap(),
                sim_stocks[p as usize],
                "live and simulated runs disagree on product{p}"
            );
        }
    }
    assert_oracle_live(&run, &run.actors, "sequential-live");
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
