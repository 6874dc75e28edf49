//! The same accelerator code on real OS threads: each site runs on its
//! own thread, connected by channels, with the identical protocol logic
//! the deterministic simulator executes (the actor layer is
//! transport-generic).
//!
//! ```sh
//! cargo run --release --example live_threads
//! ```

use avdb::core::{Accelerator, Input};
use avdb::prelude::*;
use avdb::simnet::LiveRunner;
use std::time::{Duration, Instant};

fn main() -> Result<()> {
    let config = SystemConfig::builder()
        .sites(3)
        .regular_products(4, Volume(1_000))
        .propagation_batch(5)
        .seed(9)
        .build()?;
    let actors: Vec<Accelerator> =
        SiteId::all(3).map(|s| Accelerator::new(s, &config)).collect();
    let runner = LiveRunner::spawn(actors, config.seed);

    // Fire a burst of concurrent sales from both retailers plus maker
    // replenishment —actually parallel this time, not simulated.
    let n_per_site = 200;
    for i in 0..n_per_site {
        let product = ProductId(i % 4);
        runner.inject(
            SiteId(0),
            Input::Update(UpdateRequest::new(SiteId(0), product, Volume(8))),
        );
        runner.inject(
            SiteId(1),
            Input::Update(UpdateRequest::new(SiteId(1), product, Volume(-5))),
        );
        runner.inject(
            SiteId(2),
            Input::Update(UpdateRequest::new(SiteId(2), product, Volume(-5))),
        );
    }

    // Wait until all outcomes are in (or time out loudly).
    let expected = 3 * n_per_site as usize;
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut outcomes = Vec::new();
    while outcomes.len() < expected {
        assert!(Instant::now() < deadline, "live run did not finish in time");
        outcomes.extend(runner.wait_outputs(deadline.saturating_duration_since(Instant::now())));
    }

    // Converge replicas, then stop the threads and inspect final state.
    for site in SiteId::all(3) {
        runner.inject(site, Input::FlushPropagation);
    }
    std::thread::sleep(Duration::from_millis(200));
    for site in SiteId::all(3) {
        runner.inject(site, Input::FlushPropagation);
    }
    std::thread::sleep(Duration::from_millis(200));
    let (actors, counters, _) = runner.shutdown();

    let committed = outcomes.iter().filter(|(_, _, o)| o.is_committed()).count();
    let local = outcomes
        .iter()
        .filter(|(_, _, o)| matches!(o, UpdateOutcome::Committed { correspondences: 0, .. }))
        .count();
    println!("outcomes: {committed}/{expected} committed, {local} with zero communication");
    println!(
        "network: {} messages = {} correspondences",
        counters.total_messages(),
        counters.total_correspondences()
    );
    for product in ProductId::all(4) {
        let stocks: Vec<String> = actors
            .iter()
            .map(|a| a.db().stock(product).unwrap().to_string())
            .collect();
        println!("{product}: per-site stock [{}]", stocks.join(", "));
    }
    Ok(())
}
