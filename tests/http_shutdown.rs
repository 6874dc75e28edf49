//! A mesh runs one thread per site and leaves none behind: its sites
//! serve their links, the gateway's listeners and every client on those
//! threads, and `Live::shutdown` stops and joins every site and every
//! HTTP listener it started. This file is a test binary of its own, with
//! one test, so that no other test's threads are in the count.

#![cfg(target_os = "linux")]

use avdb::core::Accelerator;
use avdb::gateway::{Gateway, GatewayConfig};
use avdb::prelude::*;
use avdb::simnet::TcpMesh;
use avdb::wire::{encode_request, Decoder, Request, Response};
use bytes::BytesMut;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Threads in this process right now.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("read /proc/self/task").count()
}

/// Waits for the thread count to reach `want`: a joined thread's entry
/// can outlast its join by a moment. Returns the count it settled at.
fn settle_at(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    threads()
}

fn config() -> SystemConfig {
    SystemConfig::builder()
        .sites(3)
        .regular_products(2, Volume(100))
        .seed(5)
        .build()
        .expect("config")
}

fn actors(cfg: &SystemConfig) -> Vec<Accelerator> {
    SiteId::all(3).map(|s| Accelerator::new(s, cfg)).collect()
}

/// A raw wire client that has had one ping answered, so its site has
/// admitted it.
fn admitted_client(addr: std::net::SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect gateway");
    let mut ping = BytesMut::new();
    encode_request(1, &Request::Ping, &mut ping);
    stream.write_all(&ping).expect("send ping");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let (mut dec, mut chunk) = (Decoder::new(), [0u8; 256]);
    loop {
        let n = stream.read(&mut chunk).expect("read pong");
        assert!(n > 0, "the gateway closed the connection");
        dec.extend(&chunk[..n]);
        if let Some((1, Response::Pong)) = dec.next_response().expect("well-formed reply") {
            return stream;
        }
    }
}

#[test]
fn shutdown_joins_every_thread_a_mesh_started() {
    let cfg = config();
    let before = threads();
    for seed in 0..20 {
        let (mesh, http) = TcpMesh::<Accelerator>::spawn_with_http(actors(&cfg), seed);
        assert_eq!(settle_at(before + 6), before + 6, "a site and an HTTP listener per site");
        // One request served, so a listener has done more than accept.
        let mut stream = TcpStream::connect(http[1]).expect("connect http");
        stream.write_all(b"GET /status HTTP/1.1\r\n\r\n").expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        mesh.shutdown();
    }
    assert_eq!(settle_at(before), before, "threads left behind by 20 shut-down meshes");

    // Three sites, a gateway in front of them and two admitted clients
    // run on exactly three server threads.
    let mesh = Arc::new(TcpMesh::<Accelerator>::spawn(actors(&cfg), 7));
    let gateway = Gateway::spawn(Arc::clone(&mesh), 3, GatewayConfig::default());
    assert_eq!(settle_at(before + 3), before + 3, "one thread per site, none for the gateway");
    let clients = [admitted_client(gateway.addrs()[0]), admitted_client(gateway.addrs()[2])];
    assert_eq!(gateway.stats().accepted, 2);
    assert_eq!(threads(), before + 3, "admitting a client started a thread");
    let _ = gateway.finish();
    let mesh = Arc::try_unwrap(mesh).ok().expect("the gateway released the mesh");
    mesh.shutdown();
    drop(clients);
    assert_eq!(settle_at(before), before, "threads left behind by a gateway and its mesh");
}
