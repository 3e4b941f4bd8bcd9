//! Property tests of the mid-query re-optimization contracts:
//!
//! 1. **Exactness** — an observed cardinality injected into Γ is exact:
//!    the stored estimate equals the observation with no sampling scale,
//!    and no amount of sampled inserting/merging can displace it.
//! 2. **Pin atomicity** — re-planning with completed subtrees pinned
//!    never produces a plan that re-executes (decomposes or straddles) a
//!    checkpointed `RelSet`, under random chain queries, random pin
//!    windows, random poisoned Γ entries, and both tree disciplines.
//! 3. **End to end** — the full suspend → refine → replan → resume loop
//!    on randomized databases returns the same canonical tuple set as
//!    straight-through execution, and every exact Γ entry matches a
//!    straight re-execution's observation bit-for-bit.

use proptest::prelude::*;

use reopt::common::{ColId, RelId, RelSet, TableId};
use reopt::core::execute_mid_query;
use reopt::executor::{ExecOpts, Executor, RowSet};
use reopt::optimizer::{
    CardEstConfig, CardOverrides, CardinalityEstimator, CostModel, Optimizer, PinnedLeaf, PlanMemo,
};
use reopt::plan::physical::PlanNodeInfo;
use reopt::plan::query::ColRef;
use reopt::plan::{AccessPath, JoinAlgo, PhysicalPlan, Predicate, Query, QueryBuilder};
use reopt::stats::{analyze_database, AnalyzeOpts};
use reopt::storage::{Column, ColumnDef, Database, LogicalType, Table, TableSchema};

/// OTT-style chain database: k tables, `vals` distinct values, `per` rows
/// per value, b = a.
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
                format!("p{t}"),
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

fn chain_query(k: usize, consts: &[Option<i64>]) -> Query {
    let mut qb = QueryBuilder::new();
    let rels: Vec<_> = (0..k).map(|i| qb.add_relation(TableId::from(i))).collect();
    for (i, &r) in rels.iter().enumerate() {
        if let Some(c) = consts.get(i).copied().flatten() {
            qb.add_predicate(Predicate::eq(r, ColId::new(0), c));
        }
    }
    for w in rels.windows(2) {
        qb.add_join(
            ColRef::new(w[0], ColId::new(1)),
            ColRef::new(w[1], ColId::new(1)),
        );
    }
    qb.build()
}

/// Hand-built left-deep hash-join plan over a contiguous relation window —
/// the shape of a checkpointed breaker subtree.
fn window_plan(q: &Query, lo: u32, hi: u32) -> PhysicalPlan {
    let scan = |rel: u32| PhysicalPlan::Scan {
        rel: RelId::new(rel),
        table: TableId::new(rel),
        access: AccessPath::SeqScan,
        info: PlanNodeInfo::default(),
    };
    let mut acc = scan(lo);
    for rel in lo + 1..=hi {
        let keys: Vec<(ColRef, ColRef)> = q
            .joins
            .iter()
            .filter(|j| {
                (acc.relset().contains(j.left_rel) && j.right_rel == RelId::new(rel))
                    || (acc.relset().contains(j.right_rel) && j.left_rel == RelId::new(rel))
            })
            .map(|j| {
                (
                    ColRef::new(j.left_rel, j.left_col),
                    ColRef::new(j.right_rel, j.right_col),
                )
            })
            .collect();
        acc = PhysicalPlan::Join {
            algo: JoinAlgo::Hash,
            left: Box::new(acc),
            right: Box::new(scan(rel)),
            keys,
            info: PlanNodeInfo::default(),
        };
    }
    acc
}

fn rel_window(lo: u32, hi: u32) -> RelSet {
    (lo..=hi).map(RelId::new).collect()
}

fn canonical(rows: &RowSet) -> (Vec<RelId>, Vec<Vec<u32>>) {
    let mut rels: Vec<RelId> = rows.rels().to_vec();
    rels.sort();
    let mut tuples: Vec<Vec<u32>> = (0..rows.len())
        .map(|i| rels.iter().map(|&r| rows.rowids(r).unwrap()[i]).collect())
        .collect();
    tuples.sort_unstable();
    (rels, tuples)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Injected observations are exact: Γ returns the observed value
    /// bit-for-bit (no sampling scale applied), and sampled writes —
    /// direct or merged, before or after — never displace it.
    #[test]
    fn observed_cardinalities_are_exact_and_immovable(
        observed in proptest::collection::vec((1u64..1u64 << 40, 0u64..1_000_000_000), 1..8),
        sampled in proptest::collection::vec((1u64..1u64 << 40, 0u64..1_000_000_000u64), 0..8),
    ) {
        let mut gamma = CardOverrides::new();
        // Sampled noise first...
        for &(mask, rows) in &sampled {
            gamma.insert(RelSet::from_mask(mask), rows as f64);
        }
        // ...then the observations...
        for &(mask, rows) in &observed {
            gamma.insert_exact(RelSet::from_mask(mask), rows as f64);
        }
        // ...then more sampled noise, direct and merged.
        let mut delta = CardOverrides::new();
        for &(mask, rows) in &sampled {
            gamma.insert(RelSet::from_mask(mask), (rows / 2) as f64);
            delta.insert(RelSet::from_mask(mask), (rows / 3) as f64);
        }
        gamma.merge(&delta);

        // Last observation of each set wins; all are exact and intact.
        let mut last: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for &(mask, rows) in &observed {
            last.insert(mask, rows);
        }
        for (&mask, &rows) in &last {
            let set = RelSet::from_mask(mask);
            prop_assert!(gamma.is_exact(set));
            // Bit-exact: estimate == observed, no scale factor.
            prop_assert_eq!(gamma.get(set), Some(rows as f64));
        }
        prop_assert_eq!(gamma.exact_len(), last.len());
    }

    /// Pinned re-planning never re-executes a checkpointed `RelSet`: the
    /// pin appears verbatim as one atomic subtree and no node straddles
    /// it — whatever the chain length, pin window, poisoned Γ entries, or
    /// tree discipline.
    #[test]
    fn pinned_replanning_never_splits_checkpointed_sets(
        k in 3usize..=6,
        window in (0u32..5, 1u32..4),
        pin_rows in 1.0f64..1e6,
        poison in proptest::option::of((0u64..64, 1.0f64..1e12)),
        left_deep in any::<bool>(),
    ) {
        let (lo_raw, len) = window;
        // A pin is a completed join, so it spans ≥ 2 relations: lo ≤ k-2
        // and len ≥ 1 guarantee lo < hi ≤ k-1.
        let lo = lo_raw.min(k as u32 - 2);
        let hi = (lo + len).min(k as u32 - 1);

        let db = chain_db(k, 10, 3);
        let stats = analyze_database(&db, &AnalyzeOpts::default()).unwrap();
        let q = chain_query(k, &vec![None; k]);
        let pin = PinnedLeaf {
            set: rel_window(lo, hi),
            plan: window_plan(&q, lo, hi),
            rows: pin_rows,
        };

        let mut gamma = CardOverrides::new();
        gamma.insert_exact(pin.set, pin_rows);
        if let Some((mask_bits, rows)) = poison {
            // A random (possibly pin-straddling) sampled claim must not be
            // able to bait the planner across the boundary.
            let mask = (mask_bits % (1 << k)).max(1);
            gamma.insert(RelSet::from_mask(mask), rows);
        }

        let mut est =
            CardinalityEstimator::new(&db, &stats, &q, &gamma, &CardEstConfig::default()).unwrap();
        let mut memo = PlanMemo::new();
        let (plan, _) = reopt::optimizer::dp::plan_dp(
            &db,
            &q,
            &mut est,
            &CostModel::default(),
            &reopt::optimizer::OperatorSet::default(),
            left_deep,
            &mut memo,
            std::slice::from_ref(&pin),
        )
        .unwrap();

        prop_assert_eq!(plan.relset(), RelSet::first_n(k));
        let mut pin_found = false;
        let mut violation: Option<String> = None;
        plan.visit(&mut |n| {
            let set = n.relset();
            let inside = set.is_subset_of(pin.set);
            let contains = pin.set.is_subset_of(set);
            let disjoint = pin.set.is_disjoint(set);
            if !(inside || contains || disjoint) {
                violation = Some(format!("node {set} straddles pin {}", pin.set));
            }
            if set == pin.set {
                if n.same_structure(&pin.plan) {
                    pin_found = true;
                } else {
                    violation = Some(format!("pin {} re-planned", pin.set));
                }
            }
        });
        prop_assert!(violation.is_none(), "{}: {:?}", plan.explain(), violation);
        prop_assert!(pin_found, "pin missing:\n{}", plan.explain());
    }

    /// End to end on randomized data: the mid-query loop's result equals
    /// straight-through execution (canonical tuple set), and each exact Γ
    /// entry matches the straight trace's observation for that set.
    #[test]
    fn mid_query_loop_is_result_equivalent(
        k in 3usize..=5,
        vals in 5i64..20,
        per in 2usize..5,
        consts in proptest::collection::vec(proptest::option::of(0i64..6), 5),
    ) {
        let db = chain_db(k, vals, per);
        let stats = analyze_database(&db, &AnalyzeOpts::default()).unwrap();
        let q = chain_query(k, &consts[..k]);
        let opt = Optimizer::new(&db, &stats);
        let exec = Executor::with_opts(&db, ExecOpts::serial());

        let plan = opt.optimize(&q).unwrap().plan;
        let straight = exec.run_pipeline(&q, &plan, None).unwrap();
        let mid = execute_mid_query(
            &db,
            &opt,
            &q,
            &plan,
            reopt::core::MidQueryOpts {
                exec: ExecOpts::serial(),
                replan_discrepancy: None,
                ..reopt::core::MidQueryOpts::new()
            },
        )
        .unwrap();

        prop_assert_eq!(canonical(&straight.rows), canonical(&mid.rows));
        prop_assert!(mid.report.stats.suspensions >= 1);
        // No cap: each suspension merges two components, and the root
        // join never suspends.
        prop_assert!(mid.report.stats.suspensions + 2 <= q.num_relations());
        prop_assert!(mid.report.stats.replans <= mid.report.stats.suspensions);

        // Exactness against an independent straight re-execution of the
        // finishing plan.
        let final_trace = exec
            .run_pipeline(&q, mid.report.final_plan(), None)
            .unwrap()
            .node_cards;
        for (set, rows) in final_trace {
            if mid.report.gamma.is_exact(set) {
                prop_assert_eq!(mid.report.gamma.get(set), Some(rows as f64));
            }
        }
    }
}
