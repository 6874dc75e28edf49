//! Tier-1 golden for the paper's artifacts: E1 (Fig. 6) and E2 (Table 1)
//! at `avdb report`'s default scale (10 000 updates, seed 1) serialize
//! byte-for-byte to the committed `results/json` files. A change that
//! moves either artifact must regenerate them on purpose:
//!
//! ```sh
//! cargo run --release --bin avdb -- report --dir results/json
//! ```

use avdb::bench::paper::{run_fig6, run_table1};

fn committed(name: &str) -> String {
    let path = format!("{}/results/json/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn fig6_matches_the_committed_artifact() {
    let json = serde_json::to_string_pretty(&run_fig6(10_000, 1)).unwrap();
    assert!(json == committed("e1_fig6.json"), "E1 drifted from results/json/e1_fig6.json");
}

#[test]
fn table1_matches_the_committed_artifact() {
    let json =
        serde_json::to_string_pretty(&run_table1(&[2000, 4000, 6000, 8000, 10000], 1)).unwrap();
    assert!(json == committed("e2_table1.json"), "E2 drifted from results/json/e2_table1.json");
}
