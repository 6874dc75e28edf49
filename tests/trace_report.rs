//! `avdb-trace report` counts every message of an export, including a
//! tcp export, whose mesh keeps no per-message log.

use avdb::telemetry::RunExport;
use std::process::Command;

const TRACE: &str = env!("CARGO_BIN_EXE_avdb-trace");

#[test]
fn report_counts_a_tcp_exports_messages_from_its_network_registry() {
    let path = std::env::temp_dir().join(format!("avdb-trace-report-{}.jsonl", std::process::id()));
    let record = Command::new(TRACE)
        .args(["record", "--transport", "tcp", "--sites", "4", "--seed", "7", "--requests", "40"])
        .arg("--out")
        .arg(&path)
        .output()
        .expect("avdb-trace runs");
    assert!(record.status.success(), "{}", String::from_utf8_lossy(&record.stderr));
    let report = Command::new(TRACE).arg("report").arg(&path).output().expect("avdb-trace runs");
    assert!(report.status.success(), "{}", String::from_utf8_lossy(&report.stderr));
    let export = RunExport::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).unwrap();

    let total = export.registry("network").expect("a network registry").counter("msg.total");
    assert!(total > 0 && export.messages.is_empty(), "{total} sent, no message log");
    let stdout = String::from_utf8(report.stdout).unwrap();
    let summary = stdout.lines().find(|l| l.contains(" messages, ")).expect("a summary line");
    let messages: u64 = summary
        .split(", ")
        .find_map(|part| part.strip_suffix(" messages"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no message count in {summary:?}"));
    assert_eq!(messages, total, "{summary}");
}
