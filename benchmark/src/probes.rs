//! The probe suite every traced run appends: each layer timed alone,
//! from outside, by calling its public functions — isolated replays of
//! the codecs, the storage engine, escrow, replication, knowledge, the
//! event queue and the registry; an idle three-site cluster for the
//! round-trip floors; a short rate ladder for the knee; and a small
//! simulated cell for the per-step costs. The suite is the same whatever
//! workload asked for it, so its numbers compare across workloads.

use crate::driver::{Outcome, Sample};
use crate::live::{cluster_config, open_pair, Cluster, KeepAwake, DEEP_STOCK};
use crate::metrics::{percentile, Values, LIVE_COVERED, SIM_STOCKOUT, STEP_KINDS};
use crate::trace::Tracer;
use crate::workload::{Covered, REGULAR};
use crate::Pass;
use avdb_core::{
    Accelerator, Input, KnowledgeExchange, Msg, PropagateDelta, ReplicationState, TracedMsg,
};
use avdb_escrow::{make_decide, AvTable, DecideStrategy, PeerKnowledge};
use avdb_simnet::transport::{decode_frame, encode_frame};
use avdb_simnet::{Actor, Ctx, DetRng, Event, EventQueue, TcpMesh};
use avdb_storage::{LocalDb, LockManager, LockMode};
use avdb_telemetry::Registry;
use avdb_types::{
    CatalogEntry, DecideStrategyKind, ProductClass, ProductId, SiteId, SystemConfig, TxnId,
    UpdateRequest, VirtualTime, Volume,
};
use avdb_wire::{encode_request, encode_response, CommitKind, Decoder, Request, Response};
use bytes::BytesMut;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Mean nanoseconds per call of `f` over `iters` calls, after a tenth as
/// many warm-up calls.
fn per_call_ns(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    for i in 0..iters / 10 {
        f(i);
    }
    let from = Instant::now();
    for i in 0..iters {
        f(i);
    }
    from.elapsed().as_nanos() as f64 / iters as f64
}

fn put(out: &mut Values, name: &str, v: f64) {
    out.insert(name.to_string(), v);
}

fn wire(out: &mut Values) {
    // Frames reach a decoder a socket read at a time; eight per read is a
    // pipelined connection's usual catch.
    const PER_READ: u64 = 8;
    const N: u64 = 4096;
    let reqs: Vec<Request> = Covered::new(1, 0).take(N as usize).collect();
    let resp = |i: u64| Response::Committed {
        txn: i,
        kind: CommitKind::Delay,
        completed_at: i,
        correspondences: 0,
    };
    let mut buf = BytesMut::new();
    put(
        out,
        "wire.encode_req_ns",
        per_call_ns(N * 16, |i| {
            if i % PER_READ == 0 {
                buf.clear();
            }
            encode_request(i, &reqs[(i % N) as usize], &mut buf);
        }),
    );
    let req_bytes = buf.len() as f64 / PER_READ as f64;
    let mut dec = Decoder::new();
    put(
        out,
        "wire.decode_req_ns",
        per_call_ns(N * 16, |i| {
            if i % PER_READ == 0 {
                dec.extend(&buf);
            }
            black_box(dec.next_request().expect("own frames decode"));
        }),
    );
    let mut rbuf = BytesMut::new();
    put(
        out,
        "wire.encode_resp_ns",
        per_call_ns(N * 16, |i| {
            if i % PER_READ == 0 {
                rbuf.clear();
            }
            encode_response(i, &resp(i), &mut rbuf);
        }),
    );
    let resp_bytes = rbuf.len() as f64 / PER_READ as f64;
    let mut dec = Decoder::new();
    put(
        out,
        "wire.decode_resp_ns",
        per_call_ns(N * 16, |i| {
            if i % PER_READ == 0 {
                dec.extend(&rbuf);
            }
            black_box(dec.next_response().expect("own frames decode"));
        }),
    );
    put(out, "wire.bytes_per_update", req_bytes + resp_bytes);
}

fn delta(i: u64) -> PropagateDelta {
    PropagateDelta {
        txn: TxnId::new(SiteId(0), i),
        product: ProductId((i % 8) as u32),
        delta: Volume(if i.is_multiple_of(3) { -4 } else { 3 }),
        commit_span: i,
        retained: false,
        committed_at: VirtualTime(i * 5),
    }
}

/// One of each message the shortage and Immediate paths put on an
/// inter-site socket, plus a four-delta propagation frame.
fn frame_samples() -> Vec<TracedMsg> {
    let txn = TxnId::new(SiteId(1), 77);
    let p = ProductId(3);
    [
        Msg::AvRequest {
            txn,
            product: p,
            amount: Volume(6_000),
            requester_av: Volume(0),
            requester_rate: 12,
        },
        Msg::AvGrant {
            txn,
            product: p,
            amount: Volume(3_000),
            grantor_av: Volume(9_000),
            grantor_rate: 3,
        },
        Msg::ImmPrepare {
            txn,
            product: p,
            delta: Volume(-5),
        },
        Msg::ImmVote { txn, ready: true },
        Msg::ImmDecision {
            txn,
            commit: true,
            product: p,
            delta: Volume(-5),
        },
        Msg::ImmDone { txn },
        Msg::Propagate {
            offset: 128,
            covers: 4,
            coalesced: false,
            deltas: (0..4).map(delta).collect(),
            checkpoint: None,
            knowledge: Vec::new(),
        },
    ]
    .into_iter()
    .map(TracedMsg::plain)
    .collect()
}

fn frames(out: &mut Values) {
    let samples = frame_samples();
    let n = samples.len() as u64;
    let mut buf = BytesMut::new();
    put(
        out,
        "simnet.frame.encode_ns",
        per_call_ns(n * 2_000, |i| {
            if i % n == 0 {
                buf.clear();
            }
            encode_frame(&samples[(i % n) as usize], &mut buf).expect("protocol messages encode");
        }),
    );
    put(
        out,
        "simnet.frame.bytes_per_msg",
        buf.len() as f64 / n as f64,
    );
    let encoded = buf.clone();
    put(
        out,
        "simnet.frame.decode_ns",
        per_call_ns(n * 2_000, |i| {
            if i % n == 0 {
                buf = encoded.clone();
            }
            black_box(decode_frame::<TracedMsg>(&mut buf).expect("own frames decode"));
        }),
    );
}

fn event_queue(out: &mut Values) {
    const SITES: u32 = 32;
    let mut q: EventQueue<u64, u64> = EventQueue::new();
    let mut tick = 0u64;
    // One all-to-all wave per call: every site sends to every other with
    // small staggered latencies, then the wave drains in time order.
    let per_wave = per_call_ns(200, |_| {
        for from in 0..SITES {
            for to in (0..SITES).filter(|to| *to != from) {
                let at = VirtualTime(tick + 1 + u64::from(from + to) % 7);
                q.push(
                    at,
                    Event::Deliver {
                        from: SiteId(from),
                        to: SiteId(to),
                        msg: tick,
                    },
                );
            }
        }
        while let Some((at, ev)) = q.pop() {
            tick = tick.max(at.ticks());
            black_box(ev);
        }
    });
    put(
        out,
        "simnet.event.push_pop_ns",
        per_wave / f64::from(SITES * (SITES - 1)),
    );
}

/// The single-node baseline: one accelerator, no network, one covered
/// Delay update per call.
fn accelerator(out: &mut Values, seed: u64) {
    let cfg = cluster_config(seed, DEEP_STOCK);
    let me = SiteId(1);
    let mut acc = Accelerator::new(me, &cfg);
    let mut rng = DetRng::new(seed);
    let mut reqs = Covered::new(seed, 0);
    put(
        out,
        "core.accel.covered_update_ns",
        per_call_ns(20_000, |i| {
            let Some(Request::Update { product, delta }) = reqs.next() else {
                unreachable!()
            };
            let mut ctx = Ctx::new(me, VirtualTime(i), &mut rng);
            acc.on_input(
                &mut ctx,
                Input::Update(UpdateRequest::new(me, ProductId(product), Volume(delta))),
            );
            black_box(ctx.pending_sends());
        }),
    );
}

fn replication(out: &mut Values) {
    const SITES: usize = 32;
    const BATCH: u64 = 4;
    const PEERS: u32 = 8;
    let me = SiteId(0);
    let mut origin = ReplicationState::new(me, SITES);
    let mut i = 0u64;
    put(
        out,
        "core.repl.record_ns",
        per_call_ns(100_000, |_| {
            origin.record(delta(i));
            i += 1;
        }),
    );
    // Steady state: four commits, one coalesced frame to each of eight
    // peers, each applies and acknowledges; the rest acknowledge at once.
    let mut origin = ReplicationState::new(me, SITES);
    let mut receivers: Vec<ReplicationState> = (1..=PEERS)
        .map(|p| ReplicationState::new(SiteId(p), SITES))
        .collect();
    let (mut take_ns, mut apply_ns, mut n) = (0u128, 0u128, 0u64);
    let mut frames = Vec::with_capacity(PEERS as usize);
    for round in 0..5_000u64 {
        for k in 0..BATCH {
            origin.record(delta(round * BATCH + k));
        }
        let t0 = Instant::now();
        for p in 1..=PEERS {
            frames.push(
                origin
                    .take_batch_frame(SiteId(p), BATCH as usize, true)
                    .expect("a batch is ready"),
            );
        }
        let t1 = Instant::now();
        for (rx, f) in receivers.iter_mut().zip(frames.drain(..)) {
            black_box(rx.apply_frame(me, f.offset, f.covers, f.coalesced, f.deltas));
        }
        let t2 = Instant::now();
        for p in 1..SITES as u32 {
            origin.on_ack(SiteId(p), origin.end());
        }
        if round >= 500 {
            take_ns += (t1 - t0).as_nanos();
            apply_ns += (t2 - t1).as_nanos();
            n += u64::from(PEERS);
        }
    }
    put(out, "core.repl.take_frame_ns", take_ns as f64 / n as f64);
    put(out, "core.repl.apply_frame_ns", apply_ns as f64 / n as f64);
}

fn knowledge(out: &mut Values) {
    const SITES: usize = 32;
    const PRODUCTS: u32 = 8;
    let mut tx = KnowledgeExchange::new(SITES);
    let mut rx = KnowledgeExchange::new(SITES);
    for s in 0..SITES as u32 {
        for p in 0..PRODUCTS {
            tx.update(
                SiteId(s),
                ProductId(p),
                Volume(i64::from((s * 31 + p * 7) % 97) * 10),
                VirtualTime(1),
            );
        }
    }
    let _ = tx.encode_digest_for(SiteId(0), SiteId(1));
    let mut rows = 0u64;
    let mut digests = 0u64;
    // Three observations land, one digest rides the next frame, the
    // receiver merges it.
    let per_digest = per_call_ns(20_000, |i| {
        let now = 1_000 + i;
        for k in 0..3u64 {
            let cell = now * 3 + k;
            tx.update(
                SiteId(2 + (cell % 30) as u32),
                ProductId((cell % u64::from(PRODUCTS)) as u32),
                Volume((cell % 97) as i64),
                VirtualTime(now),
            );
        }
        let digest = tx.encode_digest_for(SiteId(0), SiteId(1));
        rows += digest.len() as u64;
        digests += 1;
        rx.apply_digest(SiteId(1), &digest);
    });
    put(out, "core.knowledge.digest_ns", per_digest);
    put(
        out,
        "core.knowledge.rows_per_digest_milli",
        (rows * 1000 / digests) as f64,
    );
}

fn escrow(out: &mut Values) {
    let mut av = AvTable::new(4);
    av.define(ProductId(0), Volume(i64::MAX / 2))
        .expect("fresh row");
    put(
        out,
        "escrow.hold_consume_ns",
        per_call_ns(200_000, |i| {
            let txn = TxnId::new(SiteId(0), i);
            av.hold_up_to(txn, ProductId(0), Volume(10))
                .expect("row is defined");
            av.consume(txn, ProductId(0), Volume(10))
                .expect("just held");
        }),
    );
    let mut k = PeerKnowledge::new();
    for s in 0..32u32 {
        for p in 0..4u32 {
            k.update(
                SiteId(s),
                ProductId(p),
                Volume(i64::from((s * 31 + p * 7) % 97) * 10),
                VirtualTime(u64::from(s + p)),
            );
        }
    }
    let mut ranked = Vec::with_capacity(32);
    put(
        out,
        "escrow.rank_peers_ns",
        per_call_ns(50_000, |i| {
            k.ranked_peers_into(
                SiteId(0),
                32,
                ProductId((i % 4) as u32),
                &[SiteId(1)],
                &mut ranked,
            );
            black_box(&ranked);
        }),
    );
    let decide: Box<dyn DecideStrategy> = make_decide(DecideStrategyKind::default());
    put(
        out,
        "escrow.decide_ns",
        per_call_ns(1_000_000, |i| {
            let shortage = Volume(1 + (i % 9_000) as i64);
            let ask = decide.request_amount(black_box(shortage));
            black_box(decide.grant_amount(black_box(Volume(20_000)), ask));
        }),
    );
}

fn storage(out: &mut Values) {
    const COMMITS: u64 = 100_000;
    let catalog: Vec<CatalogEntry> = (0..16)
        .map(|i| CatalogEntry::new(ProductId(i), ProductClass::Regular, Volume(1_000_000_000)))
        .collect();
    let mut db = LocalDb::new(&catalog);
    let commit = |db: &mut LocalDb, i: u64| {
        let txn = TxnId::new(SiteId(0), i);
        db.begin(txn).expect("fresh txn id");
        db.apply(txn, ProductId((i % 16) as u32), Volume(1))
            .expect("stock is deep");
        black_box(db.commit(txn).expect("txn is active"));
    };
    let from = Instant::now();
    for i in 0..COMMITS {
        commit(&mut db, i);
    }
    put(
        out,
        "storage.txn_ns",
        from.elapsed().as_nanos() as f64 / COMMITS as f64,
    );
    put(
        out,
        "storage.wal_records_per_commit_milli",
        (db.wal().len() as u64 * 1000 / COMMITS) as f64,
    );
    let bytes = db.wal().to_json_lines().expect("the WAL serializes").len() as u64;
    put(
        out,
        "storage.wal_bytes_per_commit",
        (bytes / COMMITS) as f64,
    );
    // Restart time on that 100k-commit log: replay it all, then fold it.
    let from = Instant::now();
    db.crash();
    black_box(db.recover().expect("the WAL replays"));
    put(
        out,
        "storage.recover_ms",
        from.elapsed().as_secs_f64() * 1e3,
    );
    let from = Instant::now();
    db.checkpoint();
    put(
        out,
        "storage.checkpoint_ms",
        from.elapsed().as_secs_f64() * 1e3,
    );

    let mut locks = LockManager::new();
    put(
        out,
        "storage.lock_ns",
        per_call_ns(500_000, |i| {
            let txn = TxnId::new(SiteId(0), i);
            locks
                .acquire(txn, ProductId((i % 16) as u32), LockMode::Exclusive)
                .expect("no holder");
            locks.release_all(txn);
        }),
    );
}

fn registry(out: &mut Values) {
    let mut reg = Registry::new();
    let counter = reg.counter_id("probe.counter");
    let histogram = reg.histogram_id("probe.histogram");
    put(
        out,
        "telemetry.registry_inc_ns",
        per_call_ns(2_000_000, |_| reg.inc_id(black_box(counter))),
    );
    put(
        out,
        "telemetry.observe_ns",
        per_call_ns(2_000_000, |i| {
            reg.observe_id(histogram, black_box(i % 4_096))
        }),
    );
}

/// Round trips of `n` sequential calls of `req` (after a tenth as many
/// warm-up calls), ascending, in nanoseconds.
fn sequential_ns(conn: &avdb_client::Connection, n: usize, req: &Request) -> Vec<u64> {
    let mut ns = Vec::with_capacity(n);
    for i in 0..n + n / 10 {
        let from = Instant::now();
        let reply = conn.call(req, Duration::from_secs(10));
        if i >= n / 10 {
            ns.push(from.elapsed().as_nanos() as u64);
        }
        assert!(
            matches!(
                reply,
                Ok(Response::Pong | Response::ReadOk { .. } | Response::Committed { .. })
            ),
            "idle-cluster probe failed: {reply:?}"
        );
    }
    ns.sort_unstable();
    ns
}

/// Sequential calls on an otherwise idle cluster: the round-trip floors.
fn idle_cluster(out: &mut Values, seed: u64) {
    let _awake = KeepAwake::start();
    let cluster = Cluster::spawn(seed, DEEP_STOCK);
    let conn = cluster.connect(1);
    let ping = percentile(&sequential_ns(&conn, 2_000, &Request::Ping), 0.5) / 1e3;
    let read = percentile(
        &sequential_ns(&conn, 1_000, &Request::Read { product: 2 }),
        0.5,
    ) / 1e3;
    let imm = sequential_ns(
        &conn,
        300,
        &Request::Update {
            product: REGULAR,
            delta: 1,
        },
    );
    put(out, "client.ping_rtt_p50_us", ping);
    put(out, "client.read_p50_us", read);
    put(out, "client.imm_p99_us", percentile(&imm, 0.99) / 1e3);
    put(out, "gateway.read_minus_ping_p50_us", read - ping);
    conn.close();
    let settled = cluster.settle();
    assert!(settled.correct, "idle-cluster probe failed the oracle");

    // The same Delay inputs straight into the mesh: no client, no wire
    // codec, no gateway — inject, then poll for the outcome.
    let cfg = cluster_config(seed, DEEP_STOCK);
    let actors = SiteId::all(3).map(|s| Accelerator::new(s, &cfg)).collect();
    let mesh: TcpMesh<Accelerator> = TcpMesh::spawn(actors, seed);
    let inject = |n: usize, product_of: &dyn Fn(u32) -> u32| {
        let mut reqs = Covered::new(seed, 8);
        let mut ns = Vec::with_capacity(n);
        for i in 0..n + n / 10 {
            let Some(Request::Update { product, delta }) = reqs.next() else {
                unreachable!()
            };
            let req = UpdateRequest::new(SiteId(1), ProductId(product_of(product)), Volume(delta));
            let from = Instant::now();
            mesh.inject(SiteId(1), Input::Update(req));
            while mesh.drain_outputs().is_empty() {
                std::thread::yield_now();
            }
            if i >= n / 10 {
                ns.push(from.elapsed().as_nanos() as u64);
            }
        }
        ns.sort_unstable();
        ns
    };
    let delay = inject(2_000, &|p| p);
    put(
        out,
        "simnet.tcp.inject_to_outcome_p50_us",
        percentile(&delay, 0.5) / 1e3,
    );
    put(
        out,
        "simnet.tcp.inject_to_outcome_p99_us",
        percentile(&delay, 0.99) / 1e3,
    );
    let imm = inject(300, &|_| REGULAR);
    put(
        out,
        "simnet.tcp.imm_inject_to_outcome_p50_us",
        percentile(&imm, 0.5) / 1e3,
    );
    let _ = mesh.shutdown();
}

/// Latency limit a ladder rate must meet to count as below the knee.
const KNEE_P99_US: f64 = 5_000.0;
const LADDER: [u32; 3] = [4_000, 16_000, 32_000];

/// Covered traffic at three fixed rates on a fresh cluster: half a second
/// of warm-up and 1.5 s measured at each. The knee is the highest rate
/// whose p99 meets the limit without the backlog growing.
fn ladder(out: &mut Values, seed: u64) {
    let cluster = Cluster::spawn(seed, DEEP_STOCK);
    let conns = [cluster.connect(1), cluster.connect(2)];
    let warm = Duration::from_millis(500);
    let measured = Duration::from_millis(1_500);
    let mut streams = [Covered::new(seed, 20), Covered::new(seed, 21)];
    let mut knee = 0u32;
    for rate in LADDER {
        let n = ((warm + measured).as_secs_f64() * f64::from(rate) / 2.0) as usize;
        let lists = [
            streams[0].by_ref().take(n).collect::<Vec<_>>(),
            streams[1].by_ref().take(n).collect::<Vec<_>>(),
        ];
        let samples = open_pair(&conns, &lists, rate, 0, None);
        assert!(
            samples.iter().all(|s| s.outcome == Outcome::Committed),
            "ladder probe lost a request"
        );
        let from = warm.as_nanos() as u64;
        let mid = from + measured.as_nanos() as u64 / 2;
        let sorted = |keep: &dyn Fn(&Sample) -> bool, of: &dyn Fn(&Sample) -> u64| {
            let mut v: Vec<u64> = samples.iter().filter(|s| keep(s)).map(of).collect();
            v.sort_unstable();
            v
        };
        let all = sorted(&|s| s.due_ns >= from, &|s| s.latency_ns);
        let first_half = sorted(&|s| s.due_ns >= from && s.due_ns < mid, &|s| s.latency_ns);
        let second_half = sorted(&|s| s.due_ns >= mid, &|s| s.latency_ns);
        let p99 = percentile(&all, 0.99) / 1e3;
        let growing = percentile(&second_half, 0.5) > 2.0 * percentile(&first_half, 0.5)
            && percentile(&second_half, 0.5) / 1e3 > KNEE_P99_US;
        if p99 <= KNEE_P99_US && !growing {
            knee = rate;
        }
        match rate {
            4_000 => {
                // What an update pays beyond the reader/writer turn, under
                // the rate `live-covered` measures its latency at.
                let ping = out["client.ping_rtt_p50_us"];
                put(
                    out,
                    "gateway.update_minus_ping_p50_us",
                    percentile(&all, 0.5) / 1e3 - ping,
                );
                put(
                    out,
                    "client.submit_ns",
                    percentile(&sorted(&|s| s.due_ns >= from, &|s| s.submit_ns), 0.5),
                );
                put(
                    out,
                    "client.gen_late_p99_us",
                    percentile(&sorted(&|s| s.due_ns >= from, &|s| s.late_ns), 0.99) / 1e3,
                );
            }
            _ => put(out, &format!("client.ladder.r{rate}.p99_us"), p99),
        }
        if rate == 4_000 {
            put(out, "client.delay_p99_us", p99);
        }
        eprintln!(
            "ladder {rate:>6}/s: p50 {:.0} us, p99 {p99:.0} us over {} samples{}",
            percentile(&all, 0.5) / 1e3,
            all.len(),
            if growing { ", backlog growing" } else { "" }
        );
    }
    put(out, "client.knee_ups", f64::from(knee));
    for c in &conns {
        c.close();
    }
    let settled = cluster.settle();
    assert!(settled.correct, "ladder probe failed the oracle");
    put(
        out,
        "gateway.outcome_lag_ms",
        settled.outcome_lag.as_secs_f64() * 1e3,
    );
}

/// A small stock-out cell stepped with attribution: what one simulator
/// step of each kind costs. Simulated workloads overwrite these with
/// their own run's numbers.
fn step_costs(out: &mut Values, seed: u64) {
    let spec = crate::sim::spec_for(SIM_STOCKOUT, seed, 4_000);
    let (pass, _) = crate::sim::run(
        SIM_STOCKOUT,
        crate::sim::setup(SIM_STOCKOUT, &spec),
        Some(&Tracer::new()),
    );
    assert!(pass.correct, "step-cost probe failed the oracle");
    for kind in STEP_KINDS {
        let name = format!("core.step.{kind}_ns");
        put(out, &name, pass.layer.get(&name).copied().unwrap_or(0.0));
    }
}

/// Share of a steady cell's wall time that sampled tracing costs: the
/// cell at the rate the harness uses against the same cell with sampling
/// and anomaly rescue off, through the public config builder only. The
/// registry and root spans stay on either way, so this is a floor on
/// telemetry's share and a ceiling on what a sampling change can move.
fn telemetry_share(out: &mut Values, seed: u64) {
    let spec = crate::sim::spec_for(crate::metrics::SIM_STEADY, seed, 10_000);
    let schedule = crate::sim::schedule(crate::metrics::SIM_STEADY, &spec);
    let base = spec.config().expect("the cell's configuration is valid");
    let mut minimal = base.clone();
    minimal.trace_sample_rate = Some(0.0);
    minimal.anomaly_keep_rate = Some(0.0);
    let wall = |cfg: &SystemConfig| {
        (0..2)
            .map(|_| {
                let mut sys = avdb_core::DistributedSystem::new(cfg.clone());
                for (at, req) in &schedule {
                    sys.submit_at(*at, *req);
                }
                let from = Instant::now();
                sys.run_until_quiescent();
                from.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let (with, without) = (wall(&base), wall(&minimal));
    put(out, "telemetry.share_pct", (with - without) / with * 100.0);
}

pub fn run_all(seed: u64) -> Values {
    let mut out = Values::new();
    wire(&mut out);
    frames(&mut out);
    event_queue(&mut out);
    accelerator(&mut out, seed);
    replication(&mut out);
    knowledge(&mut out);
    escrow(&mut out);
    storage(&mut out);
    registry(&mut out);
    idle_cluster(&mut out, seed);
    ladder(&mut out, seed);
    step_costs(&mut out, seed);
    telemetry_share(&mut out, seed);
    out
}

/// What the span recorder cost: the traced pass against the untraced one
/// run just before it, on the number each workload is about.
pub fn overhead_pct(workload: &str, plain: &Pass, traced: &Pass) -> f64 {
    let (metric, higher_is_better) = match workload {
        LIVE_COVERED => ("sat_ups", true),
        w if w.starts_with("live-") => ("delay_p50_us", false),
        _ => ("wall_s", false),
    };
    let (a, b) = (plain.end_to_end[metric], traced.end_to_end[metric]);
    if higher_is_better {
        (a - b) / a * 100.0
    } else {
        (b - a) / a * 100.0
    }
}
