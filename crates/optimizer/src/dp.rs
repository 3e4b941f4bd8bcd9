//! Bottom-up dynamic-programming join enumeration (System R / PostgreSQL
//! style), over connected subgraphs only (no cross products), with
//! per-subset physical operator and access-path choice.
//!
//! The paper's host optimizer is PostgreSQL's bottom-up DP (footnote 2);
//! this module reproduces that search. Bushy trees are considered by
//! default; a left-deep-only mode supports the Appendix B analyses and the
//! "commercial system A" profile.

use crate::cardinality::CardinalityEstimator;
use crate::cost::CostModel;
use crate::memo::{MemoEntry, PlanMemo};
use reopt_common::{Error, RelId, RelSet, Result};
use reopt_plan::physical::PlanNodeInfo;
use reopt_plan::query::ColRef;
use reopt_plan::{AccessPath, CmpOp, JoinAlgo, PhysicalPlan, Query};
use reopt_storage::Database;

/// Which physical operators the planner may use.
#[derive(Debug, Clone)]
pub struct OperatorSet {
    /// Allow hash joins.
    pub hash: bool,
    /// Allow sort-merge joins.
    pub merge: bool,
    /// Allow naive nested loops.
    pub nested_loop: bool,
    /// Allow index nested loops.
    pub index_nested: bool,
    /// Allow index scans on base relations.
    pub index_scan: bool,
}

impl Default for OperatorSet {
    fn default() -> Self {
        OperatorSet {
            hash: true,
            merge: true,
            nested_loop: true,
            index_nested: true,
            index_scan: true,
        }
    }
}

/// Search-effort accounting, reported alongside the chosen plan.
///
/// `join_orders_considered` approximates the paper's `N` — the number of
/// distinct join trees the optimizer evaluates.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    /// Connected subsets covered (re-planned + reused).
    pub subsets: usize,
    /// (subset split, orientation, operator) combinations costed.
    pub join_orders_considered: usize,
    /// Subsets taken unchanged from a cross-round [`PlanMemo`].
    pub subsets_reused: usize,
    /// Subsets actually (re-)planned by this invocation.
    pub subsets_replanned: usize,
}

/// A completed subtree pinned into a mid-query re-plan: its result is
/// already materialized (checkpointed), so the planner treats it as an
/// atomic, **zero-cost leaf** — never decomposed, never re-executed, with
/// its exact observed cardinality as the row count.
#[derive(Debug, Clone)]
pub struct PinnedLeaf {
    /// Relations the completed subtree covers.
    pub set: RelSet,
    /// The plan that computed it — spliced verbatim into the re-planned
    /// tree so the executor's checkpoint splice finds the identical
    /// subtree shape.
    pub plan: PhysicalPlan,
    /// Exact observed output cardinality.
    pub rows: f64,
}

impl PinnedLeaf {
    /// True when `set` can appear in a plan alongside these pins: it must
    /// contain each pin entirely or avoid it entirely. A set that
    /// straddles a pin boundary would force re-executing part of a
    /// checkpointed result.
    fn respects(pinned: &[PinnedLeaf], set: RelSet) -> bool {
        pinned
            .iter()
            .all(|p| p.set.is_subset_of(set) || p.set.is_disjoint(set))
    }

    fn is_pin(pinned: &[PinnedLeaf], set: RelSet) -> bool {
        pinned.iter().any(|p| p.set == set)
    }

    fn covers_rel(pinned: &[PinnedLeaf], rel: RelId) -> bool {
        pinned.iter().any(|p| p.set.contains(rel))
    }
}

/// Plan `query` by dynamic programming over a persistent DP table, with
/// completed subtrees pinned as zero-cost leaves.
///
/// `est` supplies (Γ-overridden) cardinalities; `model` the cost formulas.
/// Entries already present in `memo` are reused verbatim; only missing
/// subsets are (re-)planned. The caller is responsible for evicting stale
/// entries (via [`PlanMemo::invalidate_supersets`]) whenever Γ changes and
/// for never sharing one memo across different queries or optimizer
/// configurations. With an empty memo and no pins this is exactly the
/// from-scratch search.
///
/// `pinned` is empty except in the mid-query re-plan of a suspended
/// execution. Each [`PinnedLeaf`] is atomic: the search never decomposes it, never
/// costs any set that straddles its boundary (partially overlaps it), and
/// splices its already-executed plan in verbatim at cost 0 with its exact
/// observed row count. Consequently the returned plan can never re-execute
/// any part of a checkpointed relation set. Pins must be disjoint (they
/// are maximal completed breakers) and the caller must invalidate memo
/// supersets of every pin before calling — entries planned under smaller
/// pins may decompose across the new boundary.
#[allow(clippy::too_many_arguments)]
pub fn plan_dp(
    db: &Database,
    query: &Query,
    est: &mut CardinalityEstimator<'_>,
    model: &CostModel,
    ops: &OperatorSet,
    left_deep_only: bool,
    memo: &mut PlanMemo,
    pinned: &[PinnedLeaf],
) -> Result<(PhysicalPlan, SearchStats)> {
    let n = query.num_relations();
    if n == 0 {
        return Err(Error::invalid("cannot plan an empty query"));
    }
    let full = RelSet::first_n(n);
    let mut stats = SearchStats::default();

    // Seed the pins: atomic leaves, already paid for. Unconditional
    // overwrite — an entry left over from before this subtree completed
    // carries a nonzero cost (and possibly a different shape).
    for p in pinned {
        if !p.set.is_subset_of(full) || p.set.is_empty() {
            return Err(Error::invalid(format!(
                "pinned leaf {} is not part of the query",
                p.set
            )));
        }
        memo.insert(
            p.set,
            MemoEntry {
                plan: p.plan.clone(),
                rows: p.rows,
                cost: 0.0,
            },
        );
        // No stats bump here: the enumeration below finds the entry via
        // `memo.contains` and counts it reused exactly once.
    }

    // Base relations: pick the best access path. Relations inside a
    // (multi-relation) pin are already materialized as part of it and must
    // not be planned as standalone leaves.
    for i in 0..n {
        let rel = RelId::from(i);
        let set = RelSet::single(rel);
        if PinnedLeaf::covers_rel(pinned, rel) && !PinnedLeaf::is_pin(pinned, set) {
            continue;
        }
        stats.subsets += 1;
        if memo.contains(set) {
            stats.subsets_reused += 1;
            continue;
        }
        let entry = best_access_path(db, query, est, model, ops, rel)?;
        memo.insert(set, entry);
        stats.subsets_replanned += 1;
    }
    if n == 1 {
        let e = memo
            .get(RelSet::single(RelId::new(0)))
            .ok_or_else(|| Error::internal("single-relation memo entry missing after seeding"))?;
        return Ok((e.plan.clone(), stats));
    }

    // Increasing mask order: every proper submask precedes its superset,
    // so by the time a set is processed all of its connected subsets are
    // in the memo (reused or freshly planned).
    for mask in 1..=full.mask() {
        let set = RelSet::from_mask(mask);
        if set.len() < 2 || !set.is_subset_of(full) {
            continue;
        }
        // Pin discipline: skip any set that straddles a pin boundary
        // (this also skips every proper subset of a pin — the pin is
        // atomic, its interior is not re-planned).
        if !PinnedLeaf::respects(pinned, set) {
            continue;
        }
        if !est.graph().is_set_connected(set) {
            continue;
        }
        if memo.contains(set) {
            stats.subsets += 1;
            stats.subsets_reused += 1;
            continue;
        }
        let lowest = RelSet::single(
            set.min_rel()
                .ok_or_else(|| Error::internal("non-empty set has no minimum relation"))?,
        );
        let mut best: Option<MemoEntry> = None;
        for s1 in set.proper_subsets() {
            // Canonical halving: s1 keeps the lowest relation.
            if !lowest.is_subset_of(s1) {
                continue;
            }
            let s2 = set.difference(s1);
            // Neither half may straddle a pin — the memo can still hold a
            // straddling entry planned before the pin existed, so the
            // boundary check must gate the lookup, not trust it.
            if !PinnedLeaf::respects(pinned, s1) || !PinnedLeaf::respects(pinned, s2) {
                continue;
            }
            let (Some(e1), Some(e2)) = (memo.get(s1), memo.get(s2)) else {
                continue; // a side is disconnected
            };
            if !est.graph().connects(s1, s2) {
                continue; // would be a cross product
            }
            let out_rows = est.rows(set);
            for (ls, rs, le, re) in [(s1, s2, e1, e2), (s2, s1, e2, e1)] {
                // A pinned leaf *is* a leaf for the left-deep discipline:
                // it enters the pipeline as one materialized input.
                if left_deep_only && rs.len() != 1 && !PinnedLeaf::is_pin(pinned, rs) {
                    continue;
                }
                let keys = join_keys(query, ls, rs);
                let candidates =
                    join_candidates(db, query, model, ops, ls, le, rs, re, &keys, out_rows)?;
                stats.join_orders_considered += candidates.len();
                for cand in candidates {
                    if best.as_ref().is_none_or(|b| cand.cost < b.cost) {
                        best = Some(cand);
                    }
                }
            }
        }
        if let Some(b) = best {
            memo.insert(set, b);
            stats.subsets += 1;
            stats.subsets_replanned += 1;
        }
    }

    let final_entry = memo
        .get(full)
        .ok_or_else(|| Error::internal("DP failed to cover the full relation set"))?;
    Ok((final_entry.plan.clone(), stats))
}

/// The equi-join keys between two disjoint relation sets, oriented
/// (left-side column, right-side column), in query join order.
fn join_keys(query: &Query, left: RelSet, right: RelSet) -> Vec<(ColRef, ColRef)> {
    let mut keys = Vec::new();
    for j in &query.joins {
        if left.contains(j.left_rel) && right.contains(j.right_rel) {
            keys.push((
                ColRef::new(j.left_rel, j.left_col),
                ColRef::new(j.right_rel, j.right_col),
            ));
        } else if right.contains(j.left_rel) && left.contains(j.right_rel) {
            keys.push((
                ColRef::new(j.right_rel, j.right_col),
                ColRef::new(j.left_rel, j.left_col),
            ));
        }
    }
    keys
}

#[allow(clippy::too_many_arguments)]
fn join_candidates(
    db: &Database,
    query: &Query,
    model: &CostModel,
    ops: &OperatorSet,
    _ls: RelSet,
    le: &MemoEntry,
    rs: RelSet,
    re: &MemoEntry,
    keys: &[(ColRef, ColRef)],
    out_rows: f64,
) -> Result<Vec<MemoEntry>> {
    let mut out = Vec::with_capacity(4);
    let input_cost = le.cost + re.cost;
    let (lrows, rrows) = (le.rows, re.rows);

    let mk = |algo: JoinAlgo, cost: f64, left: &MemoEntry, right: &MemoEntry| MemoEntry {
        plan: PhysicalPlan::Join {
            algo,
            left: Box::new(left.plan.clone()),
            right: Box::new(right.plan.clone()),
            keys: keys.to_vec(),
            info: PlanNodeInfo {
                est_rows: out_rows,
                est_cost: cost,
            },
        },
        rows: out_rows,
        cost,
    };

    if ops.hash && !keys.is_empty() {
        let c = input_cost + model.hash_join(lrows, rrows, out_rows);
        out.push(mk(JoinAlgo::Hash, c, le, re));
    }
    if ops.merge && !keys.is_empty() {
        let c = input_cost + model.merge_join(lrows, rrows, out_rows);
        out.push(mk(JoinAlgo::Merge, c, le, re));
    }
    if ops.nested_loop {
        let c = input_cost + model.nested_loop(lrows, rrows, out_rows);
        out.push(mk(JoinAlgo::NestedLoop, c, le, re));
    }
    if ops.index_nested && rs.len() == 1 && !keys.is_empty() {
        // Inner must be a base scan whose first-key column is indexed.
        let inner_rel = rs
            .min_rel()
            .ok_or_else(|| Error::internal("singleton inner set has no relation"))?;
        let inner_table = db.table(query.table_of(inner_rel)?)?;
        let first_inner_col = keys[0].1.col;
        if inner_table.has_index(first_inner_col) {
            // The inner's own scan cost is replaced by per-probe work.
            let residuals = query.local_predicates(inner_rel).len() + keys.len() - 1;
            let c = le.cost
                + model.index_nested_loop(
                    lrows,
                    inner_table.heap_pages() as f64,
                    inner_table.row_count() as f64,
                    out_rows,
                    residuals,
                );
            // Inner node: a plain scan marker (executor probes the index).
            let inner = MemoEntry {
                plan: PhysicalPlan::Scan {
                    rel: inner_rel,
                    table: inner_table.id(),
                    access: AccessPath::SeqScan,
                    info: PlanNodeInfo {
                        est_rows: 0.0,
                        est_cost: 0.0,
                    },
                },
                rows: 0.0,
                cost: 0.0,
            };
            out.push(mk(JoinAlgo::IndexNested, c, le, &inner));
        }
    }
    Ok(out)
}

/// Best access path for one base relation.
fn best_access_path(
    db: &Database,
    query: &Query,
    est: &mut CardinalityEstimator<'_>,
    model: &CostModel,
    ops: &OperatorSet,
    rel: RelId,
) -> Result<MemoEntry> {
    let table_id = query.table_of(rel)?;
    let table = db.table(table_id)?;
    let preds = query.local_predicates(rel);
    let pages = table.heap_pages() as f64;
    let trows = est.table_rows(rel);
    let out_rows = est.rows(RelSet::single(rel));

    let seq_cost = model.seq_scan(pages, trows, preds.len());
    let mut best = MemoEntry {
        plan: PhysicalPlan::Scan {
            rel,
            table: table_id,
            access: AccessPath::SeqScan,
            info: PlanNodeInfo {
                est_rows: out_rows,
                est_cost: seq_cost,
            },
        },
        rows: out_rows,
        cost: seq_cost,
    };

    if ops.index_scan {
        for p in preds {
            if p.op != CmpOp::Eq || !table.has_index(p.col) {
                continue;
            }
            // Rows matched by the probe itself (native estimate for this
            // single predicate).
            let sel = crate::cardinality::local_selectivity(db, est.stats(), query, p)?;
            let matched = (trows * sel).max(0.0);
            let cost = model.index_scan(pages, trows, matched, preds.len() - 1);
            if cost < best.cost {
                best = MemoEntry {
                    plan: PhysicalPlan::Scan {
                        rel,
                        table: table_id,
                        access: AccessPath::IndexScan { col: p.col },
                        info: PlanNodeInfo {
                            est_rows: out_rows,
                            est_cost: cost,
                        },
                    },
                    rows: out_rows,
                    cost,
                };
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::CardEstConfig;
    use crate::overrides::CardOverrides;
    use reopt_common::ColId;
    use reopt_plan::{Predicate, QueryBuilder};
    use reopt_stats::{analyze_database, AnalyzeOpts, DatabaseStats};
    use reopt_storage::{Column, ColumnDef, LogicalType, Table, TableSchema};

    /// A small star: fact(fk1, fk2, v) 10k rows; dim1(k) 100 rows;
    /// dim2(k) 10 rows. Indexes on all keys.
    fn star_db() -> Database {
        let mut db = Database::new();
        db.add_table_with(|id| {
            let schema = TableSchema::new(vec![
                ColumnDef::new("fk1", LogicalType::Int),
                ColumnDef::new("fk2", LogicalType::Int),
                ColumnDef::new("v", LogicalType::Int),
            ])?;
            let n = 10_000i64;
            let mut t = Table::new(
                id,
                "fact",
                schema,
                vec![
                    Column::from_i64(LogicalType::Int, (0..n).map(|i| i % 100).collect()),
                    Column::from_i64(LogicalType::Int, (0..n).map(|i| i % 10).collect()),
                    Column::from_i64(LogicalType::Int, (0..n).collect()),
                ],
            )?;
            t.create_index(ColId::new(0))?;
            t.create_index(ColId::new(1))?;
            Ok(t)
        })
        .unwrap();
        db.add_table_with(|id| {
            let schema = TableSchema::new(vec![ColumnDef::new("k", LogicalType::Int)])?;
            let mut t = Table::new(
                id,
                "dim1",
                schema,
                vec![Column::from_i64(LogicalType::Int, (0..100).collect())],
            )?;
            t.create_index(ColId::new(0))?;
            Ok(t)
        })
        .unwrap();
        db.add_table_with(|id| {
            let schema = TableSchema::new(vec![ColumnDef::new("k", LogicalType::Int)])?;
            let mut t = Table::new(
                id,
                "dim2",
                schema,
                vec![Column::from_i64(LogicalType::Int, (0..10).collect())],
            )?;
            t.create_index(ColId::new(0))?;
            Ok(t)
        })
        .unwrap();
        db
    }

    fn star_query(db: &Database, dim1_filter: Option<i64>) -> Query {
        let mut qb = QueryBuilder::new();
        let f = qb.add_relation(db.table_id("fact").unwrap());
        let d1 = qb.add_relation(db.table_id("dim1").unwrap());
        let d2 = qb.add_relation(db.table_id("dim2").unwrap());
        qb.add_join(
            ColRef::new(f, ColId::new(0)),
            ColRef::new(d1, ColId::new(0)),
        );
        qb.add_join(
            ColRef::new(f, ColId::new(1)),
            ColRef::new(d2, ColId::new(0)),
        );
        if let Some(v) = dim1_filter {
            qb.add_predicate(Predicate::eq(d1, ColId::new(0), v));
        }
        qb.build()
    }

    fn setup(db: &Database) -> DatabaseStats {
        analyze_database(db, &AnalyzeOpts::default()).unwrap()
    }

    fn run_dp(
        db: &Database,
        stats: &DatabaseStats,
        q: &Query,
        g: &CardOverrides,
        left_deep: bool,
    ) -> (PhysicalPlan, SearchStats) {
        let mut est =
            CardinalityEstimator::new(db, stats, q, g, &CardEstConfig::default()).unwrap();
        plan_dp(
            db,
            q,
            &mut est,
            &CostModel::default(),
            &OperatorSet::default(),
            left_deep,
            &mut PlanMemo::new(),
            &[],
        )
        .unwrap()
    }

    #[test]
    fn plans_cover_all_relations() {
        let db = star_db();
        let stats = setup(&db);
        let q = star_query(&db, None);
        let g = CardOverrides::new();
        let (plan, st) = run_dp(&db, &stats, &q, &g, false);
        assert_eq!(plan.relset(), RelSet::first_n(3));
        assert_eq!(plan.num_joins(), 2);
        assert!(st.subsets >= 5); // 3 singletons + ≥2 join sets
        assert!(st.join_orders_considered > 0);
    }

    #[test]
    fn left_deep_mode_produces_left_deep_trees() {
        let db = star_db();
        let stats = setup(&db);
        let q = star_query(&db, None);
        let g = CardOverrides::new();
        let (plan, _) = run_dp(&db, &stats, &q, &g, true);
        assert!(plan.logical_tree().is_left_deep());
    }

    #[test]
    fn selective_filter_prefers_index_scan() {
        // A selective equality filter on the *large* fact table should use
        // its index; tiny dimension tables (1 page) stay on seq scans, as
        // in PostgreSQL.
        let db = star_db();
        let stats = setup(&db);
        let mut qb = QueryBuilder::new();
        let f = qb.add_relation(db.table_id("fact").unwrap());
        let d1 = qb.add_relation(db.table_id("dim1").unwrap());
        qb.add_join(
            ColRef::new(f, ColId::new(0)),
            ColRef::new(d1, ColId::new(0)),
        );
        qb.add_predicate(Predicate::eq(f, ColId::new(0), 5i64));
        let q = qb.build();
        let g = CardOverrides::new();
        let (plan, _) = run_dp(&db, &stats, &q, &g, false);
        let mut fact_access = None;
        plan.visit(&mut |n| {
            if let PhysicalPlan::Scan { rel, access, .. } = n {
                if *rel == RelId::new(0) {
                    fact_access = Some(*access);
                }
            }
        });
        // The fact side is either an index scan leaf or the inner of an
        // index-nested-loop join; both exploit the index. Accept an explicit
        // IndexScan or verify the plan contains an IndexNested join probing
        // the fact table.
        let mut uses_index = matches!(fact_access, Some(AccessPath::IndexScan { .. }));
        plan.visit(&mut |n| {
            if let PhysicalPlan::Join {
                algo: JoinAlgo::IndexNested,
                right,
                ..
            } = n
            {
                if right.relset().contains(RelId::new(0)) {
                    uses_index = true;
                }
            }
        });
        assert!(
            uses_index,
            "expected index use on fact:\n{}",
            plan.explain()
        );
    }

    #[test]
    fn single_relation_query_plans_as_scan() {
        let db = star_db();
        let stats = setup(&db);
        let mut qb = QueryBuilder::new();
        let f = qb.add_relation(db.table_id("fact").unwrap());
        qb.add_predicate(Predicate::gt(f, ColId::new(2), 9000i64));
        let q = qb.build();
        let g = CardOverrides::new();
        let (plan, st) = run_dp(&db, &stats, &q, &g, false);
        assert_eq!(plan.num_joins(), 0);
        assert_eq!(st.subsets, 1);
    }

    #[test]
    fn overrides_redirect_join_order() {
        // Tell the optimizer (via Γ) that fact ⋈ dim1 is enormous; it
        // should then join fact with dim2 first.
        let db = star_db();
        let stats = setup(&db);
        let q = star_query(&db, None);

        let g = CardOverrides::new();
        let (p_before, _) = run_dp(&db, &stats, &q, &g, false);

        let mut g2 = CardOverrides::new();
        let fact_dim1 = RelSet::single(RelId::new(0)).with(RelId::new(1));
        g2.insert(fact_dim1, 1.0e9);
        let (p_after, _) = run_dp(&db, &stats, &q, &g2, false);

        // The first join of the new plan must avoid {fact, dim1}.
        let first_join_sets = |p: &PhysicalPlan| -> Vec<RelSet> { p.logical_tree().join_sets() };
        assert!(first_join_sets(&p_after).iter().all(|s| *s != fact_dim1));
        // And the plans must differ structurally.
        assert!(!p_before.same_structure(&p_after));
    }

    #[test]
    fn deterministic_planning() {
        let db = star_db();
        let stats = setup(&db);
        let q = star_query(&db, Some(3));
        let g = CardOverrides::new();
        let (p1, _) = run_dp(&db, &stats, &q, &g, false);
        let (p2, _) = run_dp(&db, &stats, &q, &g, false);
        assert!(p1.same_structure(&p2));
        assert_eq!(p1.fingerprint(), p2.fingerprint());
    }

    /// Plan the pin's subtree with the stock DP, then lift it into a
    /// [`PinnedLeaf`] with an arbitrary exact count.
    fn make_pin(
        db: &Database,
        stats: &DatabaseStats,
        q: &Query,
        set: RelSet,
        rows: f64,
    ) -> PinnedLeaf {
        // Simplest faithful construction: plan the whole query, then carve
        // out the subtree covering `set` if present; otherwise hand-build a
        // left-deep hash join over the members.
        let g = CardOverrides::new();
        let (plan, _) = run_dp(db, stats, q, &g, false);
        let mut found: Option<PhysicalPlan> = None;
        plan.visit(&mut |n| {
            if n.relset() == set && found.is_none() {
                found = Some(n.clone());
            }
        });
        let plan = found.unwrap_or_else(|| {
            let mut rels = set.iter();
            let first = rels.next().unwrap();
            let mut acc = PhysicalPlan::Scan {
                rel: first,
                table: reopt_common::TableId::new(first.0),
                access: AccessPath::SeqScan,
                info: PlanNodeInfo::default(),
            };
            for rel in rels {
                let right = PhysicalPlan::Scan {
                    rel,
                    table: reopt_common::TableId::new(rel.0),
                    access: AccessPath::SeqScan,
                    info: PlanNodeInfo::default(),
                };
                let keys = join_keys(q, acc.relset(), RelSet::single(rel));
                acc = PhysicalPlan::Join {
                    algo: JoinAlgo::Hash,
                    left: Box::new(acc),
                    right: Box::new(right),
                    keys,
                    info: PlanNodeInfo::default(),
                };
            }
            acc
        });
        PinnedLeaf { set, plan, rows }
    }

    fn chain_db(k: usize, vals: i64, per: usize) -> Database {
        let mut db = Database::new();
        for t in 0..k {
            db.add_table_with(|id| {
                let schema = TableSchema::new(vec![
                    ColumnDef::new("a", LogicalType::Int),
                    ColumnDef::new("b", LogicalType::Int),
                ])?;
                let mut data = Vec::new();
                for v in 0..vals {
                    data.extend(std::iter::repeat_n(v, per));
                }
                let mut tbl = Table::new(
                    id,
                    format!("c{t}"),
                    schema,
                    vec![
                        Column::from_i64(LogicalType::Int, data.clone()),
                        Column::from_i64(LogicalType::Int, data),
                    ],
                )?;
                tbl.create_index(ColId::new(0))?;
                tbl.create_index(ColId::new(1))?;
                Ok(tbl)
            })
            .unwrap();
        }
        db
    }

    fn chain_query(db: &Database, k: usize) -> Query {
        let mut qb = QueryBuilder::new();
        let rels: Vec<_> = (0..k)
            .map(|i| qb.add_relation(db.table_id(&format!("c{i}")).unwrap()))
            .collect();
        for w in rels.windows(2) {
            qb.add_join(
                ColRef::new(w[0], ColId::new(1)),
                ColRef::new(w[1], ColId::new(1)),
            );
        }
        qb.build()
    }

    fn run_pinned(
        db: &Database,
        stats: &DatabaseStats,
        q: &Query,
        g: &CardOverrides,
        pins: &[PinnedLeaf],
        left_deep: bool,
    ) -> (PhysicalPlan, SearchStats) {
        let mut est =
            CardinalityEstimator::new(db, stats, q, g, &CardEstConfig::default()).unwrap();
        let mut memo = PlanMemo::new();
        plan_dp(
            db,
            q,
            &mut est,
            &CostModel::default(),
            &OperatorSet::default(),
            left_deep,
            &mut memo,
            pins,
        )
        .unwrap()
    }

    /// Every node of `plan` must contain each pin entirely or avoid it
    /// entirely, and the pin itself must appear verbatim.
    fn assert_pins_atomic(plan: &PhysicalPlan, pins: &[PinnedLeaf]) {
        for p in pins {
            let mut found = false;
            plan.visit(&mut |n| {
                let set = n.relset();
                // A node may contain the pin (ancestor), avoid it
                // (disjoint remainder), or live inside it (the pinned
                // subtree's own nodes); it must never straddle it.
                assert!(
                    p.set.is_subset_of(set) || p.set.is_disjoint(set) || set.is_subset_of(p.set),
                    "node {set} straddles pin {}:\n{}",
                    p.set,
                    plan.explain()
                );
                if set == p.set {
                    assert!(
                        n.same_structure(&p.plan),
                        "pin {} was re-planned:\n{}",
                        p.set,
                        plan.explain()
                    );
                    found = true;
                }
            });
            assert!(
                found,
                "pin {} missing from plan:\n{}",
                p.set,
                plan.explain()
            );
        }
    }

    #[test]
    fn pinned_leaves_are_atomic_and_verbatim() {
        let db = chain_db(4, 50, 10);
        let stats = setup(&db);
        let q = chain_query(&db, 4);
        let pin = make_pin(&db, &stats, &q, rs_of(&[0, 1]), 123.0);
        let mut g = CardOverrides::new();
        g.insert_exact(rs_of(&[0, 1]), 123.0);
        for left_deep in [false, true] {
            let (plan, _) = run_pinned(&db, &stats, &q, &g, std::slice::from_ref(&pin), left_deep);
            assert_eq!(plan.relset(), RelSet::first_n(4));
            assert_pins_atomic(&plan, std::slice::from_ref(&pin));
        }
    }

    #[test]
    fn pinned_plan_avoids_poisoned_alternatives() {
        // Pin {0,1} with a tiny exact count while claiming {1,2} (the
        // plan that would split the pin) is enormous: the chosen plan
        // builds on the pin regardless.
        let db = chain_db(4, 50, 10);
        let stats = setup(&db);
        let q = chain_query(&db, 4);
        let pin = make_pin(&db, &stats, &q, rs_of(&[0, 1]), 1.0);
        let mut g = CardOverrides::new();
        g.insert_exact(rs_of(&[0, 1]), 1.0);
        g.insert(rs_of(&[1, 2]), 1e9);
        let (plan, _) = run_pinned(&db, &stats, &q, &g, std::slice::from_ref(&pin), false);
        assert_pins_atomic(&plan, &[pin]);
        // {1,2} straddles the pin, so it cannot appear even though Γ
        // mentions it.
        plan.visit(&mut |n| assert_ne!(n.relset(), rs_of(&[1, 2])));
    }

    #[test]
    fn multiple_disjoint_pins_all_survive() {
        let db = chain_db(5, 50, 10);
        let stats = setup(&db);
        let q = chain_query(&db, 5);
        let pins = vec![
            make_pin(&db, &stats, &q, rs_of(&[0, 1]), 40.0),
            make_pin(&db, &stats, &q, rs_of(&[3, 4]), 7.0),
        ];
        let mut g = CardOverrides::new();
        g.insert_exact(rs_of(&[0, 1]), 40.0);
        g.insert_exact(rs_of(&[3, 4]), 7.0);
        let (plan, _) = run_pinned(&db, &stats, &q, &g, &pins, false);
        assert_pins_atomic(&plan, &pins);
    }

    #[test]
    fn stale_straddling_memo_entries_are_ignored() {
        // First plan without pins (fills the memo with entries that split
        // {1,2} freely), then invalidate supersets of the new pin and
        // re-plan pinned — the stale straddlers must not leak back in.
        let db = chain_db(4, 50, 10);
        let stats = setup(&db);
        let q = chain_query(&db, 4);
        let g0 = CardOverrides::new();
        let mut est =
            CardinalityEstimator::new(&db, &stats, &q, &g0, &CardEstConfig::default()).unwrap();
        let mut memo = PlanMemo::new();
        let _ = plan_dp(
            &db,
            &q,
            &mut est,
            &CostModel::default(),
            &OperatorSet::default(),
            false,
            &mut memo,
            &[],
        )
        .unwrap();

        let pin = make_pin(&db, &stats, &q, rs_of(&[1, 2]), 9.0);
        memo.invalidate_supersets(&[pin.set]);
        let mut g = CardOverrides::new();
        g.insert_exact(pin.set, 9.0);
        let mut est =
            CardinalityEstimator::new(&db, &stats, &q, &g, &CardEstConfig::default()).unwrap();
        let (plan, stats_out) = plan_dp(
            &db,
            &q,
            &mut est,
            &CostModel::default(),
            &OperatorSet::default(),
            false,
            &mut memo,
            std::slice::from_ref(&pin),
        )
        .unwrap();
        assert_pins_atomic(&plan, &[pin]);
        // Untouched disjoint entries were reused, not re-planned.
        assert!(stats_out.subsets_reused > 0);
    }

    fn rs_of(ids: &[u32]) -> RelSet {
        ids.iter().map(|&i| RelId::new(i)).collect()
    }

    #[test]
    fn no_cross_products_in_plans() {
        let db = star_db();
        let stats = setup(&db);
        let q = star_query(&db, None);
        let g = CardOverrides::new();
        let (plan, _) = run_dp(&db, &stats, &q, &g, false);
        // Every join node must have at least one key.
        plan.visit(&mut |n| {
            if let PhysicalPlan::Join { keys, .. } = n {
                assert!(!keys.is_empty());
            }
        });
    }
}
