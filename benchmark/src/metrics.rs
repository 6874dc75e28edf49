//! The ledger's vocabulary: the four workloads, the end-to-end metrics
//! with their regression bounds, the per-layer metrics with the
//! end-to-end metric each is predicted to move, and the order statistics
//! every number is reduced with. `BENCHMARK.json` is printed from these
//! tables (`avdb-benchmark manifest`), so the file and the program cannot
//! drift apart.

use std::collections::BTreeMap;

/// One named workload and the reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const LIVE_COVERED: &str = "live-covered";
pub const LIVE_MIXED: &str = "live-mixed";
pub const SIM_STEADY: &str = "sim-steady-s32";
pub const SIM_STOCKOUT: &str = "sim-stockout-s32";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: LIVE_COVERED,
        why: "Delay-only decrements every site covers from its own AV: client, wire, gateway, mailbox, accelerator checking, WAL and lazy replication work; escrow transfers and 2PC never run",
    },
    Workload {
        name: LIVE_MIXED,
        why: "70% paper-size Delay, 20% Immediate, 10% Read on a live cluster: AV shortage transfers and 2PC over JSON inter-site sockets dominate; the gateway and client are a small share",
    },
    Workload {
        name: SIM_STEADY,
        why: "32 simulated sites, inflow equals outflow, Delay only: core, escrow, storage, replication and the event queue own the wall clock; client, wire, gateway and sockets are bypassed",
    },
    Workload {
        name: SIM_STOCKOUT,
        why: "the committed BENCH_pr10 cell: stock drains, so shortage fan-out and 32-way 2PC dominate and the covered fast path does little; a fast-path win that taxes shortage handling shows here",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system sees; `bound` is the share of the
/// parent's median by which it may worsen before a change is a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload reports every one of these (the driver's contract). A
/// workload that does not drive a lane fills that lane's rows from its
/// Delay lane at the same percentile; README.md lists which rows those are.
///
/// Every bound is the widest the contract allows: the reference box is a
/// shared VM whose speed moves by tens of percent for minutes at a time
/// (README.md), and a bound has to hold between two sets of runs taken
/// minutes apart. Tightening them, on a quieter machine, is a change of
/// its own.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "delay_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "delay_p90_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "imm_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sat_ups",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A single layer's metric. `moves` names the end-to-end metric (and
/// workload) a change to this number is predicted to move; "=" marks a
/// count that is exact in simulation and must repeat for a given seed.
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

/// Message and event kinds a simulator step is attributed to.
pub const STEP_KINDS: [&str; 10] = [
    "input",
    "timer",
    "propagate",
    "propagate-ack",
    "av-request",
    "av-grant",
    "imm-prepare",
    "imm-vote",
    "imm-decision",
    "imm-done",
];

pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut v: Vec<PerLayer> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better, moves: &'static str| {
        v.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
            moves,
        });
    };
    // client
    add("client.submit_ns", "ns", Lower, "sat_ups@live-covered");
    add(
        "client.ping_rtt_p50_us",
        "us",
        Lower,
        "floor of delay_p50_us @live-*",
    );
    let demoted = "reported, not gated (demoted: too unsteady on the reference box)";
    add("client.delay_p99_us", "us", Lower, demoted);
    add("client.imm_p99_us", "us", Lower, demoted);
    add("client.read_p50_us", "us", Lower, demoted);
    add(
        "client.gen_late_p99_us",
        "us",
        Lower,
        "validity of the open-loop latencies; moves nothing",
    );
    add(
        "client.ladder.r16000.p99_us",
        "us",
        Lower,
        "reported, not gated",
    );
    add(
        "client.ladder.r32000.p99_us",
        "us",
        Lower,
        "reported, not gated",
    );
    add("client.knee_ups", "1/s", Higher, "reported, not gated");
    // wire
    add(
        "wire.encode_req_ns",
        "ns",
        Lower,
        "sat_ups@live-covered; flat elsewhere",
    );
    add(
        "wire.decode_req_ns",
        "ns",
        Lower,
        "sat_ups@live-covered; flat elsewhere",
    );
    add(
        "wire.encode_resp_ns",
        "ns",
        Lower,
        "sat_ups@live-covered; flat elsewhere",
    );
    add(
        "wire.decode_resp_ns",
        "ns",
        Lower,
        "sat_ups@live-covered; flat elsewhere",
    );
    add(
        "wire.bytes_per_update",
        "bytes",
        Lower,
        "sat_ups@live-covered",
    );
    // gateway
    add(
        "gateway.update_minus_ping_p50_us",
        "us",
        Lower,
        "delay_p50_us@live-covered",
    );
    add(
        "gateway.read_minus_ping_p50_us",
        "us",
        Lower,
        "client.read_p50_us@live-mixed",
    );
    add("gateway.over_window", "count", Lower, "failed");
    add("gateway.shed", "count", Lower, "failed");
    add("gateway.responses", "count", Higher, "attempted");
    add("gateway.outcome_lag_ms", "ms", Lower, "wall_s@live-*");
    // simnet
    add(
        "simnet.tcp.inject_to_outcome_p50_us",
        "us",
        Lower,
        "delay_p50_us, sat_ups @live-covered",
    );
    add(
        "simnet.tcp.inject_to_outcome_p99_us",
        "us",
        Lower,
        "client.delay_p99_us@live-covered",
    );
    add(
        "simnet.tcp.imm_inject_to_outcome_p50_us",
        "us",
        Lower,
        "imm_p50_us, client.imm_p99_us @live-mixed",
    );
    add(
        "simnet.tcp.msgs_per_update_milli",
        "milli",
        Lower,
        "sat_ups@live-covered; imm_*@live-mixed",
    );
    add(
        "simnet.frame.encode_ns",
        "ns",
        Lower,
        "imm_*, delay_p90_us @live-mixed",
    );
    add(
        "simnet.frame.decode_ns",
        "ns",
        Lower,
        "imm_*, delay_p90_us @live-mixed",
    );
    add(
        "simnet.frame.bytes_per_msg",
        "bytes",
        Lower,
        "imm_*, delay_p90_us @live-mixed",
    );
    add("simnet.event.push_pop_ns", "ns", Lower, "wall_s@sim-*");
    add("simnet.events_processed", "count", Lower, "= wall_s@sim-*");
    // core
    for kind in STEP_KINDS {
        let moves = match kind {
            "input" | "propagate" | "propagate-ack" => "wall_s@sim-steady-s32",
            "timer" => "wall_s@sim-*",
            _ => "wall_s@sim-stockout-s32",
        };
        add(&format!("core.step.{kind}_ns"), "ns", Lower, moves);
        add(
            &format!("core.step.{kind}_count"),
            "count",
            Lower,
            "= wall_s (with its _ns)",
        );
    }
    add(
        "core.accel.covered_update_ns",
        "ns",
        Lower,
        "wall_s@sim-steady-s32; sat_ups@live-covered",
    );
    add("core.repl.record_ns", "ns", Lower, "wall_s@sim-*");
    add("core.repl.take_frame_ns", "ns", Lower, "wall_s@sim-*");
    add("core.repl.apply_frame_ns", "ns", Lower, "wall_s@sim-*");
    add(
        "core.repl.deltas_per_frame_milli",
        "milli",
        Higher,
        "= wall_s, peak_rss_mb @sim-*",
    );
    add(
        "core.repl.retained_max",
        "count",
        Lower,
        "= peak_rss_mb@sim-*",
    );
    add("core.knowledge.digest_ns", "ns", Lower, "wall_s@sim-*");
    add(
        "core.knowledge.rows_per_digest_milli",
        "milli",
        Lower,
        "= wall_s@sim-*",
    );
    add(
        "core.corr_per_update_milli",
        "milli",
        Lower,
        "= the paper's count; wall_s@sim-*",
    );
    add(
        "core.msgs_per_commit_milli",
        "milli",
        Lower,
        "= wall_s@sim-*",
    );
    add(
        "core.local_commit_permille",
        "permille",
        Higher,
        "= delay_p50_us everywhere",
    );
    add(
        "core.abort_permille",
        "permille",
        Lower,
        "= pins the share of protocol aborts",
    );
    add(
        "core.shortage_permille",
        "permille",
        Lower,
        "= delay_p90_us@live-mixed; wall_s@sim-stockout-s32",
    );
    add(
        "core.av_requests_per_shortage_milli",
        "milli",
        Lower,
        "= delay_p90_us@live-mixed",
    );
    // escrow
    add(
        "escrow.hold_consume_ns",
        "ns",
        Lower,
        "wall_s@sim-steady-s32",
    );
    add(
        "escrow.rank_peers_ns",
        "ns",
        Lower,
        "wall_s@sim-stockout-s32; delay_p90_us@live-mixed",
    );
    add(
        "escrow.decide_ns",
        "ns",
        Lower,
        "wall_s@sim-stockout-s32; delay_p90_us@live-mixed",
    );
    // storage
    add(
        "storage.txn_ns",
        "ns",
        Lower,
        "wall_s@sim-*; sat_ups@live-covered",
    );
    add("storage.lock_ns", "ns", Lower, "imm_*@sim-stockout-s32");
    add(
        "storage.wal_records_per_commit_milli",
        "milli",
        Lower,
        "= peak_rss_mb@sim-*",
    );
    add(
        "storage.wal_bytes_per_commit",
        "bytes",
        Lower,
        "= peak_rss_mb@sim-*",
    );
    add(
        "storage.checkpoint_ms",
        "ms",
        Lower,
        "restart time; moves no gated metric",
    );
    add(
        "storage.recover_ms",
        "ms",
        Lower,
        "restart time; moves no gated metric",
    );
    // telemetry
    add("telemetry.registry_inc_ns", "ns", Lower, "wall_s@sim-*");
    add("telemetry.observe_ns", "ns", Lower, "wall_s@sim-*");
    add(
        "telemetry.spans_per_update_milli",
        "milli",
        Lower,
        "= peak_rss_mb everywhere",
    );
    add(
        "telemetry.share_pct",
        "%",
        Lower,
        "ceiling on what telemetry can move in wall_s@sim-*",
    );
    // harness
    add("workload.generate_s", "s", Lower, "inside setup_s");
    add("oracle.check_s", "s", Lower, "harness verify; not gated");
    add(
        "trace.overhead_pct",
        "%",
        Lower,
        "validity of the traced numbers",
    );
    v
}

/// Metric values keyed by name; `BTreeMap` so printing is ordered.
pub type Values = BTreeMap<String, f64>;

/// `BENCHMARK.json`, exactly the keys of the driver's contract.
pub fn manifest(run_seconds: u64) -> String {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name,
            esc(w.why)
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The layer → metric → end-to-end map, as the markdown table README.md
/// carries.
pub fn layer_map() -> String {
    let mut out =
        String::from("| layer | metric | unit | predicted to move |\n|---|---|---|---|\n");
    for m in per_layer() {
        let layer = m.name.split('.').next().unwrap_or("");
        out.push_str(&format!(
            "| {layer} | `{}` | {} | {} |\n",
            m.name, m.unit, m.moves
        ));
    }
    out
}

/// Nearest-rank percentile of an ascending slice; `p` in (0, 1].
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of unordered values (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Cuts `(position, value)` samples whose position lies in `[from, to)`
/// into `n` equal position ranges and returns each slice's values,
/// ascending. Samples outside the range (the warm-up) are discarded.
///
/// A live metric is the best of its per-slice values: on a shared machine
/// interference only ever adds time, in bursts of seconds, so the quietest
/// slice is the closest look at the program itself (the same reasoning as
/// the repository's own best-of-N wall clocks).
pub fn slices(
    samples: impl Iterator<Item = (u64, u64)>,
    from: u64,
    to: u64,
    n: usize,
) -> Vec<Vec<u64>> {
    let mut out = vec![Vec::new(); n];
    let width = ((to - from) / n as u64).max(1);
    for (pos, value) in samples {
        if pos >= from && pos < to {
            let i = (((pos - from) / width) as usize).min(n - 1);
            out[i].push(value);
        }
    }
    for s in &mut out {
        s.sort_unstable();
    }
    out
}

/// The lowest, over the slices, of each slice's `p`-th percentile.
pub fn best_slice_percentile(slices: &[Vec<u64>], p: f64) -> f64 {
    slices
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| percentile(s, p))
        .min_by(f64::total_cmp)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        names.extend(per_layer().into_iter().map(|m| m.name));
        let total = names.len();
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(per_layer().len() <= 128);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn manifest_is_json_with_exactly_the_contract_keys() {
        let v = serde_json::parse_value(&manifest(10)).expect("valid json");
        let serde::Value::Object(map) = v else {
            panic!("not an object")
        };
        let mut keys: Vec<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7], 0.5), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn warm_up_samples_are_discarded_and_slices_are_equal() {
        // Positions 0..100 are warm-up; 100..600 is measured.
        let samples = (0..1_100u64).map(|pos| (pos, pos));
        let s = slices(samples, 100, 1_100, 10);
        assert_eq!(s.len(), 10);
        assert!(s.iter().all(|slice| slice.len() == 100));
        assert_eq!(s[0][0], 100, "nothing before the warm-up boundary survives");
        // Slice medians are 149, 249, …, 1049; the best of those ten.
        assert_eq!(best_slice_percentile(&s, 0.5), 149.0);
    }
}
