//! A mesh leaves no thread behind: `Live::shutdown` stops and joins every
//! site, every mesh reader and every HTTP listener it started. This file
//! is a test binary of its own so that no other test's threads are in
//! the count.

#![cfg(target_os = "linux")]

use avdb::core::Accelerator;
use avdb::prelude::*;
use avdb::simnet::TcpMesh;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Threads in this process right now.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("read /proc/self/task").count()
}

#[test]
fn shutdown_joins_every_thread_a_mesh_started() {
    let cfg = SystemConfig::builder()
        .sites(3)
        .regular_products(2, Volume(100))
        .seed(5)
        .build()
        .expect("config");
    let before = threads();
    for seed in 0..20 {
        let actors = SiteId::all(3).map(|s| Accelerator::new(s, &cfg)).collect();
        let (mesh, http) = TcpMesh::<Accelerator>::spawn_with_http(actors, seed);
        assert!(threads() > before, "the mesh runs threads of its own");
        // One request served, so a listener has done more than accept.
        let mut stream = TcpStream::connect(http[1]).expect("connect http");
        stream.write_all(b"GET /status HTTP/1.1\r\n\r\n").expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        mesh.shutdown();
    }
    // A joined thread's entry can outlast its join by a moment.
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() > before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads(), before, "threads left behind by 20 shut-down meshes");
}
