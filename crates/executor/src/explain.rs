//! `EXPLAIN ANALYZE`: render a plan with estimated *and* observed
//! cardinalities side by side.
//!
//! This is the debugging view the paper's whole argument lives in — the
//! gap between `rows=` (what the optimizer believed) and `actual=` (what
//! execution produced) is precisely what sampling-based validation feeds
//! back into Γ.

use std::fmt::Write as _;

use crate::exec::{ExecOpts, Executor};
use reopt_common::{FxHashMap, RelSet, Result, TableId};
use reopt_plan::{AccessPath, JoinAlgo, PhysicalPlan, Query};
use reopt_storage::Database;
use reopt_telemetry::{names, Tracer};

/// Execute `plan` and render it with per-node estimated vs actual rows.
///
/// Node identity is the covered relation set, which is unique within one
/// plan, so the trace can be joined back onto the tree.
pub fn explain_analyze(db: &Database, query: &Query, plan: &PhysicalPlan) -> Result<String> {
    let traced = Executor::new(db).run_pipeline(query, plan, None)?;
    let mut actual: FxHashMap<RelSet, u64> = FxHashMap::default();
    for (set, rows) in &traced.node_cards {
        actual.insert(*set, *rows);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ExplainAnalyze: {} output rows in {:?}",
        traced.rows.len(),
        traced.metrics.elapsed
    );
    if traced.metrics.batches_processed > 0 {
        let _ = writeln!(
            out,
            "Columnar: {} batches, {:.1} rows/batch avg, {} dict hits",
            traced.metrics.batches_processed,
            traced.metrics.avg_rows_per_batch(),
            traced.metrics.dict_hits
        );
    }
    render(db, plan, &actual, None, &mut out, 0);
    Ok(out)
}

/// Per-node observations joined back from `exec.operator` spans.
#[derive(Debug, Clone, Copy, Default)]
struct NodeObs {
    dur_us: u64,
    batches: u64,
}

/// [`explain_analyze`] enriched with span-level observations: the plan is
/// executed under an enabled [`Tracer`], and each node line additionally
/// reports the wall time and column-batch count of its `exec.operator`
/// span (joined on the `node` attribute, the covered relation-set mask).
pub fn explain_analyze_traced(db: &Database, query: &Query, plan: &PhysicalPlan) -> Result<String> {
    let tracer = Tracer::enabled();
    let exec = Executor::with_opts(
        db,
        ExecOpts {
            tracer: tracer.clone(),
            ..ExecOpts::default()
        },
    );
    let traced = exec.run_pipeline(query, plan, None)?;
    let trace = tracer.finish();
    let mut actual: FxHashMap<RelSet, u64> = FxHashMap::default();
    for (set, rows) in &traced.node_cards {
        actual.insert(*set, *rows);
    }
    let mut obs: FxHashMap<RelSet, NodeObs> = FxHashMap::default();
    for s in trace.spans() {
        if s.name != names::EXEC_OPERATOR {
            continue;
        }
        let Some(mask) = s.attr_u64("node") else {
            continue;
        };
        let e = obs.entry(RelSet::from_mask(mask)).or_default();
        e.dur_us += s.dur_us;
        e.batches += s.attr_u64("batches").unwrap_or(0);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ExplainAnalyze (traced): {} output rows in {:?}, {} spans",
        traced.rows.len(),
        traced.metrics.elapsed,
        trace.len()
    );
    if traced.metrics.batches_processed > 0 {
        let _ = writeln!(
            out,
            "Columnar: {} batches, {:.1} rows/batch avg, {} dict hits",
            traced.metrics.batches_processed,
            traced.metrics.avg_rows_per_batch(),
            traced.metrics.dict_hits
        );
    }
    render(db, plan, &actual, Some(&obs), &mut out, 0);
    Ok(out)
}

fn render(
    db: &Database,
    plan: &PhysicalPlan,
    actual: &FxHashMap<RelSet, u64>,
    obs: Option<&FxHashMap<RelSet, NodeObs>>,
    out: &mut String,
    depth: usize,
) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    let observed = actual
        .get(&plan.relset())
        .map(|r| r.to_string())
        .unwrap_or_else(|| "?".to_string());
    let timing = obs
        .and_then(|m| m.get(&plan.relset()))
        .map(|o| {
            if o.batches > 0 {
                format!("  time={}us batches={}", o.dur_us, o.batches)
            } else {
                format!("  time={}us", o.dur_us)
            }
        })
        .unwrap_or_default();
    match plan {
        PhysicalPlan::Scan {
            rel,
            table,
            access,
            info,
        } => {
            let path = match access {
                AccessPath::SeqScan => "SeqScan".to_string(),
                AccessPath::IndexScan { col } => format!("IndexScan[{col}]"),
            };
            let _ = writeln!(
                out,
                "{path} {rel} ({})  est={:.1} actual={observed}{timing}",
                table_name(db, *table),
                info.est_rows
            );
        }
        PhysicalPlan::Join {
            algo,
            left,
            right,
            keys,
            info,
        } => {
            let keys_s = keys
                .iter()
                .map(|(a, b)| format!("{a}={b}"))
                .collect::<Vec<_>>()
                .join(" AND ");
            let est = info.est_rows;
            let marker = match actual.get(&plan.relset()) {
                Some(&a) => {
                    let a = a as f64;
                    let ratio = (a.max(1.0) / est.max(1.0)).max(est.max(1.0) / a.max(1.0));
                    if ratio >= 10.0 {
                        "  <-- misestimated"
                    } else {
                        ""
                    }
                }
                None => "",
            };
            let _ = writeln!(
                out,
                "{algo:?}Join on [{keys_s}]  est={est:.1} actual={observed}{timing}{marker}",
            );
            render(db, left, actual, obs, out, depth + 1);
            match (algo, right.as_ref()) {
                // The index-nested inner is probed per outer row, never
                // run (or estimated) as a node of its own.
                (JoinAlgo::IndexNested, PhysicalPlan::Scan { rel, table, .. }) => {
                    for _ in 0..=depth {
                        out.push_str("  ");
                    }
                    let probe = keys
                        .first()
                        .map(|(a, b)| if a.rel == *rel { a.col } else { b.col });
                    let col = probe.map_or_else(|| "?".to_string(), |c| c.to_string());
                    let _ = writeln!(out, "IndexProbe[{col}] {rel} ({})", table_name(db, *table));
                }
                _ => render(db, right, actual, obs, out, depth + 1),
            }
        }
    }
}

/// `table`'s name. Execution already resolved every table; the raw-id
/// fallback only keeps rendering total.
fn table_name(db: &Database, table: TableId) -> String {
    db.table(table)
        .map_or_else(|_| format!("table {table}"), |t| t.name().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_common::{ColId, RelId, TableId};
    use reopt_plan::physical::PlanNodeInfo;
    use reopt_plan::query::ColRef;
    use reopt_plan::{Predicate, QueryBuilder};
    use reopt_storage::{Column, ColumnDef, LogicalType, Table, TableSchema};

    fn db() -> Database {
        let mut db = Database::new();
        for name in ["x", "y"] {
            db.add_table_with(|id| {
                let schema = TableSchema::new(vec![ColumnDef::new("k", LogicalType::Int)])?;
                Table::new(
                    id,
                    name,
                    schema,
                    vec![Column::from_i64(
                        LogicalType::Int,
                        (0..50).map(|i| i % 10).collect(),
                    )],
                )
            })
            .unwrap();
        }
        db
    }

    fn plan(est_rows: f64) -> PhysicalPlan {
        PhysicalPlan::Join {
            algo: JoinAlgo::Hash,
            left: Box::new(PhysicalPlan::Scan {
                rel: RelId::new(0),
                table: TableId::new(0),
                access: AccessPath::SeqScan,
                info: PlanNodeInfo {
                    est_rows: 50.0,
                    est_cost: 1.0,
                },
            }),
            right: Box::new(PhysicalPlan::Scan {
                rel: RelId::new(1),
                table: TableId::new(1),
                access: AccessPath::SeqScan,
                info: PlanNodeInfo {
                    est_rows: 50.0,
                    est_cost: 1.0,
                },
            }),
            keys: vec![(
                ColRef::new(RelId::new(0), ColId::new(0)),
                ColRef::new(RelId::new(1), ColId::new(0)),
            )],
            info: PlanNodeInfo {
                est_rows,
                est_cost: 2.0,
            },
        }
    }

    fn query() -> reopt_plan::Query {
        let mut qb = QueryBuilder::new();
        let a = qb.add_relation(TableId::new(0));
        let b = qb.add_relation(TableId::new(1));
        qb.add_join(ColRef::new(a, ColId::new(0)), ColRef::new(b, ColId::new(0)));
        qb.build()
    }

    #[test]
    fn shows_actual_rows_per_node() {
        let db = db();
        // True join size: 10 keys × 5 × 5 = 250.
        let s = explain_analyze(&db, &query(), &plan(250.0)).unwrap();
        assert!(s.contains("actual=250"), "{s}");
        assert!(s.contains("est=250.0"), "{s}");
        assert!(s.contains("actual=50")); // both scans
                                          // Scans are labelled with their table's name, not its id.
        assert!(s.contains("SeqScan r0 (x)  est=50.0"), "{s}");
        assert!(s.contains("SeqScan r1 (y)  est=50.0"), "{s}");
        assert!(!s.contains("misestimated"));
    }

    #[test]
    fn flags_large_misestimates() {
        let db = db();
        let s = explain_analyze(&db, &query(), &plan(3.0)).unwrap();
        assert!(s.contains("est=3.0 actual=250  <-- misestimated"), "{s}");
    }

    #[test]
    fn batch_counters_follow_engine() {
        let db = db();
        let s = explain_analyze(&db, &query(), &plan(250.0)).unwrap();
        assert!(s.contains("Columnar:"), "{s}");
        assert!(s.contains("rows/batch avg"), "{s}");
    }

    #[test]
    fn traced_explain_reports_per_node_time() {
        let db = db();
        let s = explain_analyze_traced(&db, &query(), &plan(250.0)).unwrap();
        assert!(s.contains("ExplainAnalyze (traced):"), "{s}");
        assert!(s.contains("actual=250"), "{s}");
        // Every node line carries its exec.operator span's wall time.
        assert_eq!(s.matches("time=").count(), 3, "{s}");
    }

    #[test]
    fn index_nested_inner_renders_as_a_probe() {
        let mut db = db();
        db.table_mut(TableId::new(1))
            .unwrap()
            .create_index(ColId::new(0))
            .unwrap();
        let PhysicalPlan::Join { left, keys, .. } = plan(250.0) else {
            unreachable!()
        };
        let inl = PhysicalPlan::Join {
            algo: JoinAlgo::IndexNested,
            left,
            // The DP's inner placeholder: a zero-estimate sequential scan.
            right: Box::new(PhysicalPlan::Scan {
                rel: RelId::new(1),
                table: TableId::new(1),
                access: AccessPath::SeqScan,
                info: PlanNodeInfo::default(),
            }),
            keys,
            info: PlanNodeInfo {
                est_rows: 250.0,
                est_cost: 2.0,
            },
        };
        let s = explain_analyze(&db, &query(), &inl).unwrap();
        assert!(
            s.contains("IndexNestedJoin on [r0.c0=r1.c0]  est=250.0 actual=250"),
            "{s}"
        );
        assert!(s.contains("SeqScan r0 (x)  est=50.0 actual=50"), "{s}");
        assert!(s.contains("\n  IndexProbe[c0] r1 (y)\n"), "{s}");
        assert!(!s.contains("SeqScan r1"), "{s}");
    }

    #[test]
    fn respects_filters() {
        let db = db();
        let mut qb = QueryBuilder::new();
        let a = qb.add_relation(TableId::new(0));
        let b = qb.add_relation(TableId::new(1));
        qb.add_predicate(Predicate::eq(a, ColId::new(0), 3i64));
        qb.add_join(ColRef::new(a, ColId::new(0)), ColRef::new(b, ColId::new(0)));
        let q = qb.build();
        let s = explain_analyze(&db, &q, &plan(25.0)).unwrap();
        // 5 left rows × 5 matches = 25.
        assert!(s.contains("actual=25"), "{s}");
        assert!(s.contains("actual=5"), "{s}");
    }
}
