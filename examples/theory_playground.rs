//! The paper's §3 theory, checked live: S_N vs simulation, the O(√N)
//! envelope, and Theorems 1/2/5 machine-verified on an actual
//! re-optimization run.
//!
//! ```sh
//! cargo run --release --example theory_playground
//! ```

use std::sync::Arc;

use reopt::analysis::{s_n, simulate_mean};
use reopt::core::ReoptEngine;
use reopt::sampling::SampleConfig;
use reopt::stats::AnalyzeOpts;
use reopt::workloads::ott::{build_ott_database, ott_query, recommended_sample_ratio, OttConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Lemma 1 / Theorem 3: closed form vs simulation vs envelope.
    println!("N      S_N      simulated   sqrt(N)   2*sqrt(N)");
    for n in [10u64, 100, 500, 1000] {
        let sim = simulate_mean(n as usize, 5_000, 1);
        println!(
            "{:<6} {:<8.2} {:<11.2} {:<9.2} {:<9.2}",
            n,
            s_n(n),
            sim,
            (n as f64).sqrt(),
            2.0 * (n as f64).sqrt()
        );
    }

    // --- A real run: Theorems 1, 2, 5 on an OTT query.
    let config = OttConfig::default();
    let engine = ReoptEngine::from_database(
        Arc::new(build_ott_database(&config)?),
        &AnalyzeOpts::default(),
        SampleConfig {
            ratio: recommended_sample_ratio(&config),
            ..Default::default()
        },
    )?;
    let query = ott_query(engine.db(), &[0, 0, 1, 0, 0, 1])?;
    let report = engine.reoptimize(&query)?;

    println!("\nOTT query, 6 relations:");
    println!(
        "  rounds: {} (Corollary 1 guarantees termination)",
        report.num_rounds()
    );
    println!(
        "  transformation chain: {:?}",
        report
            .rounds
            .iter()
            .filter_map(|r| r.transform)
            .collect::<Vec<_>>()
    );
    match report.verify_theorem2() {
        Ok(()) => println!("  Theorem 2 holds: globals first, ≤1 trailing local"),
        Err(e) => println!("  Theorem 2 VIOLATED: {e}"),
    }
    let (final_cost, per_round) = report.verify_final_optimality(&engine.optimizer(), &query)?;
    println!("  Theorem 5: cost_s(final) = {final_cost:.1} vs per-round {per_round:?}");
    assert!(per_round.iter().all(|c| final_cost <= c * (1.0 + 1e-9)));
    println!("  Theorem 5 holds: final plan is cheapest under the final Γ");
    Ok(())
}
