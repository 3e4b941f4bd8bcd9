//! The correctness gate: every result the service returns is compared with
//! a reference computed on a path that shares neither the re-optimization
//! loop, nor the plan cache, nor the parallel executor with it.

use reopt_executor::{AggOutput, ExecOpts, Executor, QueryOutput};
use reopt_optimizer::Optimizer;
use reopt_stats::DatabaseStats;
use reopt_storage::{Database, Value};
use reopt_workloads::ott;

use crate::inputs::{Inputs, QueryInstance};

/// What a correct execution of one query instance returns.
#[derive(Debug, Clone)]
pub struct Reference {
    pub join_rows: u64,
    /// `None` when the reference path yields no aggregate to compare (OTT's
    /// closed form gives the cardinality only).
    pub agg: Option<AggOutput>,
}

/// TPC-H: the native optimizer's plan (empty Γ) on the serial executor.
/// OTT: Appendix D's closed form — the native plan is the pathological one
/// the test exists to provoke, so it is not run.
pub fn reference_for(
    db: &Database,
    stats: &DatabaseStats,
    ott_config: Option<&ott::OttConfig>,
    q: &QueryInstance,
) -> Reference {
    if let (Some(config), Some(constants)) = (ott_config, &q.ott_constants) {
        return Reference {
            join_rows: ott::true_query_size(config, constants) as u64,
            agg: None,
        };
    }
    let planned = Optimizer::new(db, stats)
        .optimize(&q.query)
        .expect("reference optimization");
    let out = Executor::with_opts(db, ExecOpts::serial())
        .run(&q.query, &planned.plan)
        .expect("reference execution");
    Reference {
        join_rows: out.join_rows,
        agg: out.agg,
    }
}

pub fn references(inputs: &Inputs, stats: &DatabaseStats) -> Vec<Reference> {
    inputs
        .queries
        .iter()
        .map(|q| reference_for(&inputs.db, stats, inputs.ott.as_ref(), q))
        .collect()
}

/// Float aggregates are sums whose addition order follows the join order,
/// so two correct plans may differ in the last bits.
fn values_agree(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
        _ => a == b,
    }
}

impl Reference {
    pub fn matches(&self, out: &QueryOutput) -> bool {
        if out.join_rows != self.join_rows {
            return false;
        }
        match (&self.agg, &out.agg) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(want), Some(got)) => {
                want.rows.len() == got.rows.len()
                    && want.rows.iter().zip(&got.rows).all(|(w, g)| {
                        w.keys == g.keys
                            && w.aggs.len() == g.aggs.len()
                            && w.aggs.iter().zip(&g.aggs).all(|(a, b)| values_agree(a, b))
                    })
            }
        }
    }
}
