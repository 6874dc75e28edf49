//! The paper's system over real TCP sockets: one listener per site on
//! loopback, every protocol message one binary `avdb-wire` frame — the
//! deployment shape the integrated SCM database would actually run in.
//! Final states are verified by the shared conformance oracle.

mod common;

use avdb::bench::LiveDriver;
use avdb::prelude::*;
use common::assert_oracle_live;
use std::time::Duration;

#[test]
fn accelerators_over_tcp_converge_and_conserve() {
    let cfg = SystemConfig::builder()
        .sites(3)
        .regular_products(3, Volume(6_000))
        .propagation_batch(5)
        .seed(13)
        .build()
        .unwrap();
    let mut live = LiveDriver::spawn(&cfg, Duration::from_secs(30));
    let per_site = 100usize;
    for i in 0..per_site as u64 {
        for s in 0..3u32 {
            let site = SiteId(s);
            let delta = if site == SiteId::BASE { Volume(10) } else { Volume(-7) };
            live.inject(UpdateRequest::new(site, ProductId((i % 3) as u32), delta));
        }
    }
    // Anti-entropy rounds over the sockets, then stop and inspect.
    let run = live.finish().expect("the mesh settles");
    assert_eq!(
        run.outcomes.iter().filter(|(_, _, o)| o.is_committed()).count(),
        per_site * 3,
        "ample AV: every update commits over TCP"
    );

    // Frames stayed request/reply-paired on the wire.
    assert_eq!(run.counters.total_messages() % 2, 0);
    assert_eq!(run.counters.dropped_messages(), 0);
    // Convergence, AV conservation, stock-vs-commits, escrow safety.
    assert_oracle_live(&run, &run.actors, "tcp-converge");
}

#[test]
fn immediate_updates_commit_over_tcp() {
    let cfg = SystemConfig::builder()
        .sites(3)
        .non_regular_products(1, Volume(500))
        .seed(7)
        .build()
        .unwrap();
    let mut live = LiveDriver::spawn(&cfg, Duration::from_secs(30));
    // Sequential Immediate updates (each waits for its outcome) — the
    // full prepare/vote/decision/done exchange runs over the sockets.
    for i in 0..20u64 {
        let site = SiteId((i % 3) as u32);
        live.inject(UpdateRequest::new(site, ProductId(0), Volume(-3)));
        // The coordinator reports once the commit is decided (and, off
        // the base site, acknowledged by the base); a participant keeps
        // the item locked until the decision reaches it. "Sequential"
        // means the next coordinator starts after every site has let
        // go, which is once the last `imm-done` has been handled: the
        // wait covers both.
        live.wait(i as usize + 1)
            .unwrap_or_else(|e| panic!("update {i}: participants never finished: {e}"));
    }
    let run = live.finish().expect("the mesh settles");
    let committed = run.outcomes.iter().filter(|(_, _, o)| o.is_committed()).count();
    assert_eq!(committed, 20, "sequential immediate updates never conflict");
    for a in &run.actors {
        assert_eq!(a.db().stock(ProductId(0)).unwrap(), Volume(500 - 60));
    }
    assert_oracle_live(&run, &run.actors, "tcp-immediate");
}
