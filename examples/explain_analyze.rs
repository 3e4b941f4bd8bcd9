//! EXPLAIN ANALYZE — estimated vs actual rows per plan node, the view that
//! makes the optimizer's estimation errors visible in the first place.
//!
//! ```sh
//! cargo run --release --example explain_analyze
//! ```

use reopt::executor::explain_analyze;
use reopt::optimizer::Optimizer;
use reopt::stats::{analyze_database, AnalyzeOpts};
use reopt::workloads::ott::{build_ott_database, ott_query, OttConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = build_ott_database(&OttConfig::default())?;
    let stats = analyze_database(&db, &AnalyzeOpts::default())?;
    let query = ott_query(&db, &[1, 0, 0, 0, 0])?;

    let original = Optimizer::new(&db, &stats).optimize(&query)?;
    println!("one-shot plan, estimated vs actual:\n");
    println!("{}", explain_analyze(&db, &query, &original.plan)?);
    Ok(())
}
