//! Row-at-a-time reference semantics: the oracle the differential suites
//! compare the engine against.
//!
//! Serial, map-based and deliberately naive — one predicate check per row,
//! one `Vec<i64>` key per row — and reachable from no [`crate::ExecOpts`]
//! field: tests call it, the engine never does. It defines the exact
//! output the engine must reproduce bit for bit: scans emit ascending row
//! ids; hash, nested-loop and index-nested joins emit `(left, right)`
//! pairs in ascending lexicographic order; merge joins emit equal-key runs
//! in ascending key order; aggregates accumulate each group's rows in
//! ascending input order (so float `SUM`/`AVG` bits are fixed).

use std::collections::BTreeMap;

use crate::agg::{materialize, resolve, AggOutput, AggState};
use crate::exec::{compile_predicates, Executor};
use crate::rowset::RowSet;
use reopt_common::{FxHashMap, Result};
use reopt_plan::query::{AggSpec, ColRef};
use reopt_plan::{JoinAlgo, PhysicalPlan, Query};
use reopt_storage::value::NULL_SENTINEL;
use reopt_storage::Database;

/// The join pipeline's result for `plan`, row at a time.
pub fn join_rows(db: &Database, query: &Query, plan: &PhysicalPlan) -> Result<RowSet> {
    match plan {
        // An index scan selects the same rows in the same ascending order.
        PhysicalPlan::Scan { rel, table, .. } => {
            let table = db.table(*table)?;
            let preds = compile_predicates(table, query.local_predicates(*rel))?;
            let rows = (0..table.row_count() as u32)
                .filter(|&row| preds.iter().all(|p| p.matches(row)))
                .collect();
            Ok(RowSet::single(*rel, rows))
        }
        PhysicalPlan::Join {
            algo,
            left,
            right,
            keys,
            ..
        } => {
            let l = join_rows(db, query, left)?;
            let r = join_rows(db, query, right)?;
            let (lcols, rcols) = Executor::split_keys(keys, &l);
            let lkeys = row_keys(db, query, &l, &lcols)?;
            let rkeys = row_keys(db, query, &r, &rcols)?;
            let mut pairs: Vec<(u32, u32)> = Vec::new();
            if *algo == JoinAlgo::Merge && !keys.is_empty() {
                let mut runs: BTreeMap<&[i64], (Vec<u32>, Vec<u32>)> = BTreeMap::new();
                for (i, k) in lkeys.iter().enumerate() {
                    if let Some(k) = k {
                        runs.entry(k.as_slice()).or_default().0.push(i as u32);
                    }
                }
                for (j, k) in rkeys.iter().enumerate() {
                    if let Some(k) = k {
                        runs.entry(k.as_slice()).or_default().1.push(j as u32);
                    }
                }
                for (ls, rs) in runs.values() {
                    pairs.extend(ls.iter().flat_map(|&i| rs.iter().map(move |&j| (i, j))));
                }
            } else {
                let mut table: FxHashMap<&[i64], Vec<u32>> = FxHashMap::default();
                for (j, k) in rkeys.iter().enumerate() {
                    if let Some(k) = k {
                        table.entry(k.as_slice()).or_default().push(j as u32);
                    }
                }
                for (i, k) in lkeys.iter().enumerate() {
                    if let Some(matches) = k.as_ref().and_then(|k| table.get(k.as_slice())) {
                        pairs.extend(matches.iter().map(|&j| (i as u32, j)));
                    }
                }
            }
            RowSet::combine(&l, &r, &pairs)
        }
    }
}

/// One key vector per row of `rows`; `None` when any column is NULL (NULL
/// never joins).
fn row_keys(
    db: &Database,
    query: &Query,
    rows: &RowSet,
    cols: &[ColRef],
) -> Result<Vec<Option<Vec<i64>>>> {
    let resolved: Vec<(&[i64], &[u32])> = cols
        .iter()
        .map(|c| resolve(db, query, rows, c))
        .collect::<Result<_>>()?;
    Ok((0..rows.len())
        .map(|i| {
            resolved
                .iter()
                .map(|(data, ids)| Some(data[ids[i] as usize]).filter(|&v| v != NULL_SENTINEL))
                .collect()
        })
        .collect())
}

/// `spec` evaluated over `rows`, one key-addressed map update per row.
pub fn aggregate(db: &Database, query: &Query, rows: &RowSet, spec: &AggSpec) -> Result<AggOutput> {
    let key_cols: Vec<(&[i64], &[u32])> = spec
        .group_by
        .iter()
        .map(|c| resolve(db, query, rows, c))
        .collect::<Result<_>>()?;
    let agg_inputs: Vec<Option<(&[i64], &[u32])>> = spec
        .aggs
        .iter()
        .map(|a| {
            a.input
                .as_ref()
                .map(|c| resolve(db, query, rows, c))
                .transpose()
        })
        .collect::<Result<_>>()?;
    let mut groups: FxHashMap<Vec<i64>, Vec<AggState>> = FxHashMap::default();
    for i in 0..rows.len() {
        let key: Vec<i64> = key_cols
            .iter()
            .map(|(data, ids)| data[ids[i] as usize])
            .collect();
        let states = groups
            .entry(key)
            .or_insert_with(|| spec.aggs.iter().map(|a| AggState::new(a.func)).collect());
        for (state, input) in states.iter_mut().zip(&agg_inputs) {
            // COUNT(*) has no input; NULL inputs are skipped by the rest.
            let raw = input.map(|(data, ids)| data[ids[i] as usize]);
            state.update(raw.filter(|&v| v != NULL_SENTINEL));
        }
    }
    // lint: ordered-ok(materialize sorts `keyed` by group key before emitting, and AggState accumulation is per-group, so hash-order drain cannot reach the output)
    let keyed: Vec<(Vec<i64>, Vec<AggState>)> = groups.into_iter().collect();
    materialize(db, query, spec, keyed, &mut 0)
}
