//! Re-optimizing a "difficult" TPC-H-like query (the paper's Q9 analogue).
//!
//! The part table's `p_brand` and `p_type` are correlated; Q9's conjunction
//! across them makes the native estimate of σ(part) ~25× too small, which
//! cascades into the six-way join order. Sampling catches the error at the
//! first validated join and the loop repairs the plan.
//!
//! ```sh
//! cargo run --release --example tpch_reopt
//! ```

use reopt::common::rng::derive_rng_indexed;
use reopt::core::ReoptEngine;
use reopt::executor::execute_plan;
use reopt::sampling::SampleConfig;
use reopt::stats::AnalyzeOpts;
use reopt::workloads::tpch::{build_tpch_database, instantiate, TpchConfig};
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Arc::new(build_tpch_database(&TpchConfig::default())?);
    println!(
        "TPC-H-like database at scale {:.3}: lineitem = {} rows",
        TpchConfig::default().scale,
        db.table_by_name("lineitem")?.row_count()
    );
    let engine = ReoptEngine::from_database(
        Arc::clone(&db),
        &AnalyzeOpts::default(),
        SampleConfig::default(),
    )?;

    for name in ["q9", "q21", "q3"] {
        let mut rng = derive_rng_indexed(0xbeef, name, 0);
        let query = instantiate(&db, name, &mut rng)?;
        println!("\n--- {name} ---\n{}", reopt::plan::to_sql(&query, &db));
        let report = engine.reoptimize(&query)?;

        let t = Instant::now();
        execute_plan(&db, &query, &report.rounds[0].plan)?;
        let orig = t.elapsed();
        let t = Instant::now();
        execute_plan(&db, &query, &report.final_plan)?;
        let fin = t.elapsed();

        println!(
            "{name}: {} relations, {} round(s), plan changed = {}",
            query.num_relations(),
            report.num_rounds(),
            report.plan_changed()
        );
        println!("  original plan time:      {orig:?}");
        println!("  re-optimized plan time:  {fin:?}");
        println!("  re-optimization loop:    {:?}", report.reopt_time);
        if report.plan_changed() {
            println!("  final plan:\n{}", indent(&report.final_plan.explain(), 4));
        }
    }
    Ok(())
}

fn indent(s: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    s.lines()
        .map(|l| format!("{pad}{l}"))
        .collect::<Vec<_>>()
        .join("\n")
}
