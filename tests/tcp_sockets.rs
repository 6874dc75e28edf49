//! The paper's system over real TCP sockets: one listener per site on
//! loopback, every protocol message a length-prefixed JSON frame — the
//! deployment shape the integrated SCM database would actually run in.
//! Final states are verified by the shared conformance oracle.

mod common;

use avdb::core::Accelerator;
use avdb::prelude::*;
use avdb::simnet::TcpMesh;
use common::{assert_oracle_live, settle_live, wait_for_outcomes, Submissions};
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
    let actors = SiteId::all(3).map(|s| Accelerator::new(s, &cfg)).collect();
    let mesh: TcpMesh<Accelerator> = TcpMesh::spawn(actors, 13);

    let mut subs = Submissions::new();
    let per_site = 100usize;
    for i in 0..per_site as u64 {
        for s in 0..3u32 {
            let site = SiteId(s);
            let delta = if site == SiteId::BASE { Volume(10) } else { Volume(-7) };
            subs.inject(&mesh, UpdateRequest::new(site, ProductId((i % 3) as u32), delta));
        }
    }
    let outcomes = wait_for_outcomes(&mesh, per_site * 3);
    assert_eq!(
        outcomes.iter().filter(|(_, _, o)| o.is_committed()).count(),
        per_site * 3,
        "ample AV: every update commits over TCP"
    );

    // Anti-entropy rounds over the sockets, then stop and inspect.
    settle_live(&mesh, 3);
    let (actors, counters, _) = mesh.shutdown();

    // Frames stayed request/reply-paired on the wire.
    assert_eq!(counters.total_messages() % 2, 0);
    assert_eq!(counters.dropped_messages(), 0);
    // Convergence, AV conservation, stock-vs-commits, escrow safety.
    assert_oracle_live(&cfg, &actors, subs, outcomes, counters.snapshot(), "tcp-converge");
}

#[test]
fn immediate_updates_commit_over_tcp() {
    let cfg = SystemConfig::builder()
        .sites(3)
        .non_regular_products(1, Volume(500))
        .seed(7)
        .build()
        .unwrap();
    let actors = SiteId::all(3).map(|s| Accelerator::new(s, &cfg)).collect();
    let mesh: TcpMesh<Accelerator> = TcpMesh::spawn(actors, 7);

    // Sequential Immediate updates (each waits for its outcome) — the
    // full prepare/vote/decision/done exchange runs over the sockets.
    let mut subs = Submissions::new();
    let mut outcomes = Vec::new();
    for i in 0..20u64 {
        let site = SiteId((i % 3) as u32);
        subs.inject(&mesh, UpdateRequest::new(site, ProductId(0), Volume(-3)));
        outcomes.extend(wait_for_outcomes(&mesh, 1));
        // The coordinator reports once the commit is decided (and, off
        // the base site, acknowledged by the base); a participant keeps
        // the item locked until the decision reaches it. "Sequential"
        // means the next coordinator starts after every site has let
        // go, which is once the last `imm-done` has been handled.
        assert!(mesh.quiesce(Duration::from_secs(30)), "update {i}: participants never finished");
    }
    let (actors, counters, _) = mesh.shutdown();
    let committed = outcomes.iter().filter(|(_, _, o)| o.is_committed()).count();
    assert_eq!(committed, 20, "sequential immediate updates never conflict");
    for a in &actors {
        assert_eq!(a.db().stock(ProductId(0)).unwrap(), Volume(500 - 60));
    }
    assert_oracle_live(&cfg, &actors, subs, outcomes, counters.snapshot(), "tcp-immediate");
}
