//! Hash aggregation over the final join result.
//!
//! SQL semantics at the granularity the workloads need: NULL inputs are
//! skipped by `SUM`/`MIN`/`MAX`/`AVG`; `COUNT(*)` counts tuples; grouping
//! treats NULL as a regular group key.
//!
//! Every input row gets a dense group id through a chained hash over the
//! gathered key columns (one key vector per *group*, not per row), then
//! each aggregate's accumulators update column-at-a-time. Rows are visited
//! in ascending order within every group, so even float `SUM`/`AVG`
//! accumulation is bit-identical to the row-at-a-time oracle
//! ([`crate::reference::aggregate`]); both render through the same
//! sort-by-raw-key materialization.

use crate::metrics::ExecMetrics;
use crate::rowset::RowSet;
use reopt_common::hash::FxHasher;
use reopt_common::Result;
use reopt_plan::query::{AggFunc, AggSpec, ColRef};
use reopt_plan::Query;
use reopt_storage::batch::{take_i64_buffer, take_u32_buffer, BATCH_SIZE};
use reopt_storage::value::NULL_SENTINEL;
use reopt_storage::{Database, Value};

/// One output row of an aggregate: group key values then aggregate values.
#[derive(Debug, Clone, PartialEq)]
pub struct AggRow {
    /// Group-by column values (empty for a global aggregate).
    pub keys: Vec<Value>,
    /// Aggregate results, aligned with [`AggSpec::aggs`].
    pub aggs: Vec<Value>,
}

/// Aggregate output: one row per group, sorted by group key for
/// deterministic comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct AggOutput {
    /// Result rows.
    pub rows: Vec<AggRow>,
}

impl AggOutput {
    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.rows.len()
    }
}

/// One aggregate expression's accumulator for one group.
#[derive(Debug, Clone)]
pub(crate) enum AggState {
    Count(u64),
    Sum { sum: f64, seen: bool },
    Min(Option<i64>),
    Max(Option<i64>),
    Avg { sum: f64, n: u64 },
}

impl AggState {
    pub(crate) fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                sum: 0.0,
                seen: false,
            },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
        }
    }

    pub(crate) fn update(&mut self, raw: Option<i64>) {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum { sum, seen } => {
                if let Some(v) = raw {
                    *sum += v as f64;
                    *seen = true;
                }
            }
            AggState::Min(m) => {
                if let Some(v) = raw {
                    *m = Some(m.map_or(v, |cur| cur.min(v)));
                }
            }
            AggState::Max(m) => {
                if let Some(v) = raw {
                    *m = Some(m.map_or(v, |cur| cur.max(v)));
                }
            }
            AggState::Avg { sum, n } => {
                if let Some(v) = raw {
                    *sum += v as f64;
                    *n += 1;
                }
            }
        }
    }

    fn finish(&self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(*n as i64),
            AggState::Sum { sum, seen } => {
                if *seen {
                    Value::Float(*sum)
                } else {
                    Value::Null
                }
            }
            AggState::Min(m) => m.map_or(Value::Null, Value::Int),
            AggState::Max(m) => m.map_or(Value::Null, Value::Int),
            AggState::Avg { sum, n } => {
                if *n > 0 {
                    Value::Float(*sum / *n as f64)
                } else {
                    Value::Null
                }
            }
        }
    }
}

/// Resolve a column reference to `(column data, rowids)` over `rows`.
pub(crate) fn resolve<'a>(
    db: &'a Database,
    query: &Query,
    rows: &'a RowSet,
    c: &ColRef,
) -> Result<(&'a [i64], &'a [u32])> {
    let table = db.table(query.table_of(c.rel)?)?;
    let data = table.column(c.col)?.data();
    let ids = rows.rowids(c.rel)?;
    Ok((data, ids))
}

/// Evaluate `spec` over the join result `rows`, folding batch counters
/// into `metrics`: one pass assigns every input row a dense group
/// id via a chained hash over the gathered key columns (group keys are
/// stored once per group), then each aggregate expression updates its
/// per-group accumulators in a tight column-at-a-time loop. Rows are
/// visited in ascending order throughout, so per-group accumulation order
/// — and with it float `SUM`/`AVG` bits — matches the reference.
pub fn aggregate(
    db: &Database,
    query: &Query,
    rows: &RowSet,
    spec: &AggSpec,
    metrics: &mut ExecMetrics,
) -> Result<AggOutput> {
    let n = rows.len();
    metrics.batches_processed += (n as u64).div_ceil(BATCH_SIZE as u64);
    metrics.batch_rows += n as u64;

    // Gather the group-key columns once into pooled contiguous buffers,
    // then work on raw slices: the pooled wrappers' `Deref` is a branch
    // we must not pay once per row.
    let mut keybufs = Vec::with_capacity(spec.group_by.len());
    for c in &spec.group_by {
        let (data, ids) = resolve(db, query, rows, c)?;
        let mut buf = take_i64_buffer();
        buf.extend(ids.iter().map(|&r| data[r as usize]));
        keybufs.push(buf);
    }
    let keycols: Vec<&[i64]> = keybufs.iter().map(|b| &b[..]).collect();

    // Assign group ids: chained hash keyed on each group's first row.
    // NULL is a regular group key here, so the sentinel hashes like any
    // other value — no skipping.
    let buckets = (n.max(1) * 2).next_power_of_two();
    let mask = buckets as u64 - 1;
    const CHAIN_END: u32 = u32::MAX;
    let mut heads = vec![CHAIN_END; buckets];
    let mut first_row: Vec<u32> = Vec::new(); // group id -> first input row
    let mut group_next: Vec<u32> = Vec::new(); // group id -> next in bucket
    let mut gid_buf = take_u32_buffer();
    gid_buf.reserve(n);
    let group_ids: &mut Vec<u32> = &mut gid_buf;
    for i in 0..n {
        let mut h = FxHasher::default();
        for col in &keycols {
            std::hash::Hasher::write_i64(&mut h, col[i]);
        }
        let b = (std::hash::Hasher::finish(&h) & mask) as usize;
        let mut g = heads[b];
        while g != CHAIN_END {
            let rep = first_row[g as usize] as usize;
            if keycols.iter().all(|col| col[rep] == col[i]) {
                break;
            }
            g = group_next[g as usize];
        }
        if g == CHAIN_END {
            g = first_row.len() as u32;
            first_row.push(i as u32);
            group_next.push(heads[b]);
            heads[b] = g;
        }
        group_ids.push(g);
    }
    let group_ids: &[u32] = group_ids;
    let num_groups = first_row.len();

    // Flat per-group accumulator arrays, one aggregate expression at a
    // time: the function dispatch of `AggState::update` is hoisted out of
    // the per-row loop, each pass touching one input column and one
    // accumulator array. The arithmetic — `v as f64` then `+=` in
    // ascending row order within every group — is exactly the
    // reference's, so float bits match.
    enum Acc {
        Count(Vec<u64>),
        Sum { sum: Vec<f64>, seen: Vec<bool> },
        Min { m: Vec<i64>, seen: Vec<bool> },
        Max { m: Vec<i64>, seen: Vec<bool> },
        Avg { sum: Vec<f64>, n: Vec<u64> },
    }
    let mut accs: Vec<Acc> = Vec::with_capacity(spec.aggs.len());
    for a in &spec.aggs {
        let input = a
            .input
            .as_ref()
            .map(|c| resolve(db, query, rows, c))
            .transpose()?;
        let acc = match a.func {
            AggFunc::Count => {
                // COUNT counts tuples, NULL input or not.
                let mut count = vec![0u64; num_groups];
                for &g in group_ids.iter() {
                    count[g as usize] += 1;
                }
                Acc::Count(count)
            }
            AggFunc::Sum => {
                let mut sum = vec![0.0f64; num_groups];
                let mut seen = vec![false; num_groups];
                if let Some((data, ids)) = input {
                    for (i, &g) in group_ids.iter().enumerate() {
                        let v = data[ids[i] as usize];
                        if v != NULL_SENTINEL {
                            sum[g as usize] += v as f64;
                            seen[g as usize] = true;
                        }
                    }
                }
                Acc::Sum { sum, seen }
            }
            AggFunc::Min => {
                let mut m = vec![0i64; num_groups];
                let mut seen = vec![false; num_groups];
                if let Some((data, ids)) = input {
                    for (i, &g) in group_ids.iter().enumerate() {
                        let v = data[ids[i] as usize];
                        let g = g as usize;
                        if v != NULL_SENTINEL && (!seen[g] || v < m[g]) {
                            m[g] = v;
                            seen[g] = true;
                        }
                    }
                }
                Acc::Min { m, seen }
            }
            AggFunc::Max => {
                let mut m = vec![0i64; num_groups];
                let mut seen = vec![false; num_groups];
                if let Some((data, ids)) = input {
                    for (i, &g) in group_ids.iter().enumerate() {
                        let v = data[ids[i] as usize];
                        let g = g as usize;
                        if v != NULL_SENTINEL && (!seen[g] || v > m[g]) {
                            m[g] = v;
                            seen[g] = true;
                        }
                    }
                }
                Acc::Max { m, seen }
            }
            AggFunc::Avg => {
                let mut sum = vec![0.0f64; num_groups];
                let mut n = vec![0u64; num_groups];
                if let Some((data, ids)) = input {
                    for (i, &g) in group_ids.iter().enumerate() {
                        let v = data[ids[i] as usize];
                        if v != NULL_SENTINEL {
                            sum[g as usize] += v as f64;
                            n[g as usize] += 1;
                        }
                    }
                }
                Acc::Avg { sum, n }
            }
        };
        accs.push(acc);
    }

    let keyed: Vec<(Vec<i64>, Vec<AggState>)> = (0..num_groups)
        .map(|g| {
            let rep = first_row[g] as usize;
            let raw_key: Vec<i64> = keycols.iter().map(|col| col[rep]).collect();
            let group_states: Vec<AggState> = accs
                .iter()
                .map(|acc| match acc {
                    Acc::Count(count) => AggState::Count(count[g]),
                    Acc::Sum { sum, seen } => AggState::Sum {
                        sum: sum[g],
                        seen: seen[g],
                    },
                    Acc::Min { m, seen } => AggState::Min(seen[g].then_some(m[g])),
                    Acc::Max { m, seen } => AggState::Max(seen[g].then_some(m[g])),
                    Acc::Avg { sum, n } => AggState::Avg {
                        sum: sum[g],
                        n: n[g],
                    },
                })
                .collect();
            (raw_key, group_states)
        })
        .collect();
    materialize(db, query, spec, keyed, &mut metrics.dict_hits)
}

/// Shared rendering: sort groups by raw key, decode typed key values
/// (dictionary lookups counted in `dict_hits`), finish the accumulators.
pub(crate) fn materialize(
    db: &Database,
    query: &Query,
    spec: &AggSpec,
    mut keyed: Vec<(Vec<i64>, Vec<AggState>)>,
    dict_hits: &mut u64,
) -> Result<AggOutput> {
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = Vec::with_capacity(keyed.len());
    for (raw_key, states) in keyed {
        let mut keys = Vec::with_capacity(raw_key.len());
        for (k, c) in raw_key.iter().zip(&spec.group_by) {
            let table = db.table(query.table_of(c.rel)?)?;
            let column = table.column(c.col)?;
            if *k == NULL_SENTINEL {
                keys.push(Value::Null);
            } else {
                // Reuse the column's typed rendering via its dictionary.
                match column.dict() {
                    Some(d) => match d.lookup(*k) {
                        Some(s) => {
                            *dict_hits += 1;
                            keys.push(Value::Str(s.clone()));
                        }
                        None => keys.push(Value::Int(*k)),
                    },
                    None => keys.push(Value::Int(*k)),
                }
            }
        }
        out.push(AggRow {
            keys,
            aggs: states.iter().map(AggState::finish).collect(),
        });
    }
    Ok(AggOutput { rows: out })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_common::{ColId, RelId};
    use reopt_plan::query::AggExpr;
    use reopt_plan::QueryBuilder;
    use reopt_storage::{Column, ColumnDef, LogicalType, Table, TableSchema};

    fn db_with_groups() -> Database {
        let mut db = Database::new();
        db.add_table_with(|id| {
            let schema = TableSchema::new(vec![
                ColumnDef::new("g", LogicalType::Dict),
                ColumnDef::new("x", LogicalType::Int),
            ])?;
            Table::new(
                id,
                "t",
                schema,
                vec![
                    Column::from_strings(&["a", "b", "a", "b", "a"]),
                    Column::from_i64(LogicalType::Int, vec![1, 2, 3, NULL_SENTINEL, 5]),
                ],
            )
        })
        .unwrap();
        db
    }

    fn base_rowset() -> RowSet {
        RowSet::single(RelId::new(0), vec![0, 1, 2, 3, 4])
    }

    fn query(db: &Database, spec: AggSpec) -> Query {
        let mut qb = QueryBuilder::new();
        let _ = qb.add_relation(db.table_id("t").unwrap());
        qb.aggregate(spec);
        qb.build()
    }

    #[test]
    fn grouped_sum_count_min_max_avg() {
        let db = db_with_groups();
        let g = ColRef::new(RelId::new(0), ColId::new(0));
        let x = ColRef::new(RelId::new(0), ColId::new(1));
        let spec = AggSpec {
            group_by: vec![g],
            aggs: vec![
                AggExpr::count_star(),
                AggExpr::sum(x),
                AggExpr::min(x),
                AggExpr::max(x),
                AggExpr::avg(x),
            ],
        };
        let q = query(&db, spec.clone());
        let out = aggregate(&db, &q, &base_rowset(), &spec, &mut ExecMetrics::default()).unwrap();
        assert_eq!(out.num_groups(), 2);
        // Groups sorted by dictionary code: "a" (code 0) then "b" (code 1).
        let a = &out.rows[0];
        assert_eq!(a.keys, vec![Value::from("a")]);
        assert_eq!(a.aggs[0], Value::Int(3)); // count
        assert_eq!(a.aggs[1], Value::Float(9.0)); // sum 1+3+5
        assert_eq!(a.aggs[2], Value::Int(1)); // min
        assert_eq!(a.aggs[3], Value::Int(5)); // max
        assert_eq!(a.aggs[4], Value::Float(3.0)); // avg
        let b = &out.rows[1];
        assert_eq!(b.keys, vec![Value::from("b")]);
        assert_eq!(b.aggs[0], Value::Int(2)); // count counts NULL rows too
        assert_eq!(b.aggs[1], Value::Float(2.0)); // sum skips NULL
        assert_eq!(b.aggs[4], Value::Float(2.0)); // avg over non-NULL only
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let db = db_with_groups();
        let x = ColRef::new(RelId::new(0), ColId::new(1));
        let spec = AggSpec {
            group_by: vec![],
            aggs: vec![AggExpr::count_star(), AggExpr::sum(x)],
        };
        let q = query(&db, spec.clone());
        let empty = RowSet::single(RelId::new(0), vec![]);
        let out = aggregate(&db, &q, &empty, &spec, &mut ExecMetrics::default()).unwrap();
        // SQL: global aggregate over empty input produces zero groups here
        // (we model the ungrouped case as "no group seen" — callers read
        // COUNT=0 from the absence of rows).
        assert_eq!(out.num_groups(), 0);
    }

    #[test]
    fn global_aggregate_single_group() {
        let db = db_with_groups();
        let x = ColRef::new(RelId::new(0), ColId::new(1));
        let spec = AggSpec {
            group_by: vec![],
            aggs: vec![AggExpr::count_star(), AggExpr::avg(x)],
        };
        let q = query(&db, spec.clone());
        let out = aggregate(&db, &q, &base_rowset(), &spec, &mut ExecMetrics::default()).unwrap();
        assert_eq!(out.num_groups(), 1);
        assert_eq!(out.rows[0].aggs[0], Value::Int(5));
        assert_eq!(out.rows[0].aggs[1], Value::Float(11.0 / 4.0));
    }

    #[test]
    fn all_null_inputs_produce_null_aggregates() {
        let mut db = Database::new();
        db.add_table_with(|id| {
            let schema = TableSchema::new(vec![ColumnDef::new("x", LogicalType::Int)])?;
            Table::new(
                id,
                "n",
                schema,
                vec![Column::from_i64(LogicalType::Int, vec![NULL_SENTINEL; 3])],
            )
        })
        .unwrap();
        let x = ColRef::new(RelId::new(0), ColId::new(0));
        let spec = AggSpec {
            group_by: vec![],
            aggs: vec![
                AggExpr::sum(x),
                AggExpr::min(x),
                AggExpr::max(x),
                AggExpr::avg(x),
                AggExpr::count_star(),
            ],
        };
        let mut qb = QueryBuilder::new();
        let _ = qb.add_relation(db.table_id("n").unwrap());
        qb.aggregate(spec.clone());
        let q = qb.build();
        let rows = RowSet::single(RelId::new(0), vec![0, 1, 2]);
        let out = aggregate(&db, &q, &rows, &spec, &mut ExecMetrics::default()).unwrap();
        let r = &out.rows[0];
        assert_eq!(r.aggs[0], Value::Null);
        assert_eq!(r.aggs[1], Value::Null);
        assert_eq!(r.aggs[2], Value::Null);
        assert_eq!(r.aggs[3], Value::Null);
        assert_eq!(r.aggs[4], Value::Int(3));
    }

    /// The engine must agree with the reference bit for bit — including
    /// `AVG`/`SUM` float bits (accumulation order) and typed key rendering
    /// — on a fixture with dictionary keys, NULL group keys, NULL agg
    /// inputs, multi-column grouping, and values whose float sums are
    /// order-sensitive.
    #[test]
    fn engine_is_bit_identical_to_reference() {
        let mut db = Database::new();
        let n = 5000usize;
        db.add_table_with(|id| {
            let schema = TableSchema::new(vec![
                ColumnDef::new("g", LogicalType::Dict),
                ColumnDef::new("h", LogicalType::Int),
                ColumnDef::new("x", LogicalType::Int),
            ])?;
            let names = ["red", "green", "blue", "cyan"];
            let g: Vec<&str> = (0..n).map(|i| names[i % names.len()]).collect();
            let h: Vec<i64> = (0..n as i64)
                .map(|i| if i % 13 == 0 { NULL_SENTINEL } else { i % 7 })
                .collect();
            // Mix magnitudes so float accumulation order is observable.
            let x: Vec<i64> = (0..n as i64)
                .map(|i| {
                    if i % 11 == 0 {
                        NULL_SENTINEL
                    } else {
                        (i * 982_451_653) % 1_000_003 - 500_000
                    }
                })
                .collect();
            Table::new(
                id,
                "big",
                schema,
                vec![
                    Column::from_strings(&g),
                    Column::from_i64(LogicalType::Int, h),
                    Column::from_i64(LogicalType::Int, x),
                ],
            )
        })
        .unwrap();
        let g = ColRef::new(RelId::new(0), ColId::new(0));
        let h = ColRef::new(RelId::new(0), ColId::new(1));
        let x = ColRef::new(RelId::new(0), ColId::new(2));
        let spec = AggSpec {
            group_by: vec![g, h],
            aggs: vec![
                AggExpr::count_star(),
                AggExpr::sum(x),
                AggExpr::min(x),
                AggExpr::max(x),
                AggExpr::avg(x),
            ],
        };
        let mut qb = QueryBuilder::new();
        let _ = qb.add_relation(db.table_id("big").unwrap());
        qb.aggregate(spec.clone());
        let q = qb.build();
        let rows = RowSet::single(RelId::new(0), (0..n as u32).collect());

        let mut col_m = ExecMetrics::default();
        let by_rows = crate::reference::aggregate(&db, &q, &rows, &spec).unwrap();
        let by_cols = aggregate(&db, &q, &rows, &spec, &mut col_m).unwrap();
        assert_eq!(by_rows.num_groups(), by_cols.num_groups());
        assert!(by_rows.num_groups() > 4, "fixture must produce many groups");
        for (a, b) in by_rows.rows.iter().zip(&by_cols.rows) {
            assert_eq!(a.keys, b.keys);
            // Compare floats by bits, not approximately.
            for (va, vb) in a.aggs.iter().zip(&b.aggs) {
                match (va, vb) {
                    (Value::Float(fa), Value::Float(fb)) => {
                        assert_eq!(fa.to_bits(), fb.to_bits(), "key {:?}", a.keys)
                    }
                    _ => assert_eq!(va, vb, "key {:?}", a.keys),
                }
            }
        }
        assert_eq!(
            col_m.batches_processed,
            (n as u64).div_ceil(BATCH_SIZE as u64)
        );
        assert_eq!(col_m.batch_rows, n as u64);
        assert!(col_m.dict_hits > 0);
    }
}
