//! The paper's system over real TCP sockets: one listener per site on
//! loopback, every protocol message one binary `avdb-wire` frame — the
//! deployment shape the integrated SCM database would actually run in.
//! Final states are verified by the shared conformance oracle, and a
//! site's mesh port shrugs off strangers writing garbage to it.

mod common;

use avdb::bench::LiveDriver;
use avdb::core::{Accelerator, Msg, TracedMsg};
use avdb::prelude::*;
use avdb::simnet::transport::encode_frame;
use avdb::simnet::TcpMesh;
use bytes::BytesMut;
use common::assert_oracle_live;
use std::io::{Read, Write};
use std::net::TcpStream;
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

/// Writes `bytes` to `site`'s mesh port and returns whether the site
/// closed the connection (rather than leaving it open).
fn closed_after(mesh: &TcpMesh<Accelerator>, site: SiteId, bytes: &[u8]) -> bool {
    let mut stranger = TcpStream::connect(mesh.mesh_addr(site)).expect("connect to mesh port");
    stranger.write_all(bytes).expect("write");
    stranger.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut buf = [0u8; 64];
    match stranger.read(&mut buf) {
        Ok(0) => true,
        Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
        Ok(_) => false,
    }
}

#[test]
fn garbage_on_a_mesh_port_drops_only_that_link() {
    let cfg = SystemConfig::builder()
        .sites(3)
        .non_regular_products(1, Volume(500))
        .seed(21)
        .build()
        .unwrap();
    let mut live = LiveDriver::spawn(&cfg, Duration::from_secs(30));

    let mut valid = BytesMut::new();
    encode_frame(&TracedMsg::plain(Msg::PropagateAck { upto: 0 }), &mut valid).unwrap();
    let as_peer = |tail: &[u8]| [&2u32.to_be_bytes()[..], tail].concat();
    let mut oversized = valid.to_vec();
    oversized[12..16].copy_from_slice(&u32::MAX.to_be_bytes());
    for (what, bytes) in [
        ("no handshake", b"GET /metrics HTTP/1.1\r\n\r\n".to_vec()),
        ("the site itself", 0u32.to_be_bytes().to_vec()),
        ("bad magic", as_peer(&[0xFF; 32])),
        ("a valid frame, then a bad version", as_peer(&[&valid[..], &[0xAD, 0xB1, 9], &[0; 13]].concat())),
        ("an oversized length", as_peer(&oversized[..16])),
        ("a client-protocol frame", as_peer(&{
            let mut req = BytesMut::new();
            avdb::wire::encode_request(1, &avdb::wire::Request::Ping, &mut req);
            req.to_vec()
        })),
    ] {
        assert!(closed_after(live.mesh(), SiteId(0), &bytes), "{what}: link left open");
    }

    // Every Immediate update coordinated by site 0 needs both peers'
    // votes over the setup links, which the garbage never touched.
    for i in 0..10 {
        live.inject(UpdateRequest::new(SiteId(0), ProductId(0), Volume(-3)));
        live.wait(i + 1).expect("the mesh settles");
    }
    let run = live.finish().expect("the mesh settles");
    let outcomes = &run.outcomes;
    assert!(outcomes.iter().all(|(_, _, o)| o.is_committed()), "{outcomes:?}");
    assert_eq!(run.counters.dropped_messages(), 0);
    for a in &run.actors {
        assert_eq!(a.db().stock(ProductId(0)).unwrap(), Volume(500 - 30));
    }
}
