//! The Optimizer Torture Test (§4 of the paper), end to end.
//!
//! Generates the correlated OTT database, runs one empty five-table query,
//! and shows (a) the optimizer's cardinality blindness, (b) the original
//! plan's execution cost, (c) the re-optimization trace discovering the
//! empty join, and (d) the repaired plan's execution cost.
//!
//! ```sh
//! cargo run --release --example ott_torture
//! ```

use reopt::core::ReoptEngine;
use reopt::executor::execute_plan;
use reopt::sampling::SampleConfig;
use reopt::stats::AnalyzeOpts;
use reopt::workloads::ott::{
    build_ott_database, estimated_query_size, ott_query, recommended_sample_ratio, true_query_size,
    OttConfig,
};
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = OttConfig::default();
    let db = Arc::new(build_ott_database(&config)?);
    println!(
        "OTT database: {} tables, {} total rows",
        db.len(),
        db.total_rows()
    );

    let engine = ReoptEngine::from_database(
        Arc::clone(&db),
        &AnalyzeOpts::default(),
        SampleConfig {
            ratio: recommended_sample_ratio(&config),
            ..Default::default()
        },
    )?;

    // Four selections A=0 and one A=1: the query is EMPTY, but Lemma 4
    // says the optimizer cannot tell.
    let constants = [0i64, 0, 0, 0, 1];
    let query = ott_query(&db, &constants)?;
    println!(
        "\nquery constants {constants:?}: true size = {}, optimizer-style estimate ≈ {:.0} (blind to emptiness)",
        true_query_size(&config, &constants),
        estimated_query_size(&config, constants.len()),
    );

    let original = engine.optimizer().optimize(&query)?;
    println!("\noriginal plan:\n{}", original.plan.explain());
    let t = Instant::now();
    let out = execute_plan(&db, &query, &original.plan)?;
    let original_time = t.elapsed();
    println!(
        "original execution: {:?}, {} rows produced across operators",
        original_time, out.metrics.rows_produced
    );

    let report = engine.reoptimize(&query)?;
    println!("\nre-optimization trace:");
    for r in &report.rounds {
        println!(
            "  round {}: transform = {:?}, Γ gained {} entries, optimize {:?} + validate {:?}",
            r.round, r.transform, r.gamma_new_entries, r.optimize_time, r.validation_time
        );
    }
    println!("\nvalidated Γ entries:");
    let mut entries: Vec<_> = report.gamma.iter().collect();
    entries.sort_by_key(|(s, _)| (s.len(), s.mask()));
    for (set, rows) in entries {
        println!("  {set} -> {rows:.1} rows");
    }

    println!("\nfinal plan:\n{}", report.final_plan.explain());
    let t = Instant::now();
    let out = execute_plan(&db, &query, &report.final_plan)?;
    let final_time = t.elapsed();
    println!(
        "re-optimized execution: {:?}, {} rows produced across operators",
        final_time, out.metrics.rows_produced
    );
    println!(
        "\nspeedup: {:.1}x (re-optimization loop itself took {:?})",
        original_time.as_secs_f64() / final_time.as_secs_f64().max(1e-9),
        report.reopt_time
    );
    Ok(())
}
