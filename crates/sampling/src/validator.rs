//! Plan validation: `GetCardinalityEstimatesBySampling(P)` of Algorithm 1.
//!
//! The plan is executed once over the sample database (a "dry run"); every
//! join subtree's observed cardinality is scaled back to the full database
//! by the product of the participating tables' sampling scale factors —
//! the Haas et al. estimator of §2.1 generalized to selection–join
//! subtrees. The result Δ maps each validated relation set to its
//! estimated full-size cardinality.

use std::time::Duration;

use crate::cache::SharedSampleRunCache;
use crate::estimator::scale_up;
use crate::sampler::SampleStore;
use reopt_common::Result;
use reopt_executor::{ExecOpts, Executor, SubtreeCache};
use reopt_optimizer::CardOverrides;
use reopt_plan::{PhysicalPlan, Query};
use reopt_telemetry::{names, Tracer};

/// Validation options.
#[derive(Debug, Clone)]
pub struct ValidationOpts {
    /// Also validate single-relation (selection) cardinalities. The paper
    /// focuses sampling on join predicates (§2: "the major source of
    /// errors"), so this defaults to off; turning it on additionally
    /// repairs correlated *local* conjunctions.
    pub validate_leaves: bool,
    /// Minimum rows recorded for a validated set. PostgreSQL clamps all
    /// cardinalities to ≥ 1; keeping the clamp makes empty joins "almost
    /// free" rather than degenerate-zero in downstream cost arithmetic.
    pub min_rows: f64,
    /// Row cap for the dry run (samples are small; a blow-up here signals
    /// a catastrophic plan over the samples too).
    pub max_intermediate_rows: u64,
    /// Executor worker threads for the dry run (`0` = the machine's
    /// available parallelism, `1` = serial; see
    /// [`reopt_executor::ExecOpts::threads`]). Parallel dry runs are
    /// bit-identical to serial ones, so Δ is invariant under this knob —
    /// it only buys wall-clock, i.e. more re-optimization rounds per
    /// second.
    pub threads: usize,
}

impl Default for ValidationOpts {
    fn default() -> Self {
        ValidationOpts {
            validate_leaves: false,
            min_rows: 1.0,
            max_intermediate_rows: 50_000_000,
            threads: 0,
        }
    }
}

/// The outcome of validating one plan.
#[derive(Debug, Clone)]
pub struct Validation {
    /// Δ — validated cardinalities keyed by relation set.
    pub delta: CardOverrides,
    /// Wall time of the dry run.
    pub elapsed: Duration,
    /// Rows produced while running over the samples (overhead metric; a
    /// cached run only counts rows of the subtrees it actually executed).
    pub sample_rows_produced: u64,
    /// Subtrees answered from the dry-run cache ([`validate_plan_cached`]
    /// only; always 0 on the from-scratch path). Counted by the executor
    /// for this run alone, so exact however many sessions share the cache.
    pub cache_hits: usize,
    /// Subtrees executed fresh by this validation: every plan node the
    /// cache did not answer (from-scratch runs count every plan node
    /// here).
    pub subtrees_executed: usize,
}

/// Run `plan` over the samples and return Δ.
pub fn validate_plan(
    query: &Query,
    plan: &PhysicalPlan,
    samples: &SampleStore,
    opts: &ValidationOpts,
) -> Result<Validation> {
    dry_run(query, plan, samples, opts, None, &Tracer::disabled())
}

/// Like [`validate_plan`], but consulting (and refilling) a cross-round
/// [`SharedSampleRunCache`]: subtrees whose canonical fingerprint was
/// executed before are replayed from the cache, and every estimate is
/// re-derived from the replayed sample row count — the same bits, since
/// the fingerprint pins the samples it counts over. The cache holds row
/// sets only, so any `opts` may share it (the executor re-checks the
/// intermediate-row cap on every replay). Sharing one cache across
/// *queries* and *sample stores* of the same database is sound: entries
/// are keyed by the table-aware canonical fingerprint and the sample
/// version of every covered table.
///
/// The dry run records a `sampling.dry_run` span, with nested
/// `exec.operator` spans, under `tracer`. Recording never feeds back into
/// Δ.
pub fn validate_plan_cached(
    query: &Query,
    plan: &PhysicalPlan,
    samples: &SampleStore,
    opts: &ValidationOpts,
    cache: &mut SharedSampleRunCache,
    tracer: &Tracer,
) -> Result<Validation> {
    dry_run(query, plan, samples, opts, Some(cache), tracer)
}

fn dry_run(
    query: &Query,
    plan: &PhysicalPlan,
    samples: &SampleStore,
    opts: &ValidationOpts,
    mut cache: Option<&mut SharedSampleRunCache>,
    tracer: &Tracer,
) -> Result<Validation> {
    let mut span = tracer.span(names::SAMPLING_DRY_RUN);
    let exec = Executor::with_opts(
        samples.database(),
        ExecOpts {
            max_intermediate_rows: opts.max_intermediate_rows,
            threads: opts.threads,
            tracer: tracer.under(&span),
        },
    );
    if let Some(c) = cache.as_mut() {
        // Key every cache operation by these samples' table versions: rows
        // dry-run over another sample of any covered table are
        // unreachable, so a stale replay is structurally impossible.
        c.bind(samples);
    }
    let traced = exec.run_pipeline(query, plan, cache.map(|c| c as &mut dyn SubtreeCache))?;
    // Every traced node was either answered by the cache or executed.
    let cache_hits = traced.metrics.cache_hits as usize;
    let subtrees_executed = traced.node_cards.len() - cache_hits;

    let mut delta = CardOverrides::new();
    for (set, sample_rows) in &traced.node_cards {
        if set.len() < 2 && !opts.validate_leaves {
            continue;
        }
        let mut scale = 1.0;
        for rel in set.iter() {
            scale *= samples.scale_factor(query.table_of(rel)?)?;
        }
        delta.insert(*set, scale_up(*sample_rows, scale, opts.min_rows));
    }
    if span.is_recording() {
        span.attr_u64("cache_hits", cache_hits as u64);
        span.attr_u64("subtrees_executed", subtrees_executed as u64);
        span.attr_u64("sample_rows", traced.metrics.rows_produced);
        span.attr_u64("delta_len", delta.len() as u64);
    }
    Ok(Validation {
        delta,
        elapsed: traced.metrics.elapsed,
        sample_rows_produced: traced.metrics.rows_produced,
        cache_hits,
        subtrees_executed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::SampleConfig;
    use reopt_common::{ColId, RelId, RelSet, TableId};
    use reopt_plan::physical::PlanNodeInfo;
    use reopt_plan::query::ColRef;
    use reopt_plan::{AccessPath, JoinAlgo, Predicate, QueryBuilder};
    use reopt_storage::{Column, ColumnDef, Database, LogicalType, Table, TableSchema};

    /// Two OTT-style tables: a(A, B) and b(A, B), with B = A, `vals`
    /// distinct values and `per` rows per value.
    fn ott_pair(vals: i64, per: usize) -> Database {
        let mut db = Database::new();
        for name in ["a", "b"] {
            db.add_table_with(|id| {
                let schema = TableSchema::new(vec![
                    ColumnDef::new("a", LogicalType::Int),
                    ColumnDef::new("b", LogicalType::Int),
                ])?;
                let mut data = Vec::new();
                for v in 0..vals {
                    data.extend(std::iter::repeat_n(v, per));
                }
                let mut t = Table::new(
                    id,
                    name,
                    schema,
                    vec![
                        Column::from_i64(LogicalType::Int, data.clone()),
                        Column::from_i64(LogicalType::Int, data),
                    ],
                )?;
                t.create_index(ColId::new(0))?;
                t.create_index(ColId::new(1))?;
                Ok(t)
            })
            .unwrap();
        }
        db
    }

    fn pair_query(c1: i64, c2: i64) -> (reopt_plan::Query, PhysicalPlan) {
        let mut qb = QueryBuilder::new();
        let a = qb.add_relation(TableId::new(0));
        let b = qb.add_relation(TableId::new(1));
        qb.add_predicate(Predicate::eq(a, ColId::new(0), c1));
        qb.add_predicate(Predicate::eq(b, ColId::new(0), c2));
        qb.add_join(ColRef::new(a, ColId::new(1)), ColRef::new(b, ColId::new(1)));
        let q = qb.build();
        let plan = PhysicalPlan::Join {
            algo: JoinAlgo::Hash,
            left: Box::new(PhysicalPlan::Scan {
                rel: RelId::new(0),
                table: TableId::new(0),
                access: AccessPath::SeqScan,
                info: PlanNodeInfo::default(),
            }),
            right: Box::new(PhysicalPlan::Scan {
                rel: RelId::new(1),
                table: TableId::new(1),
                access: AccessPath::SeqScan,
                info: PlanNodeInfo::default(),
            }),
            keys: vec![(
                ColRef::new(RelId::new(0), ColId::new(1)),
                ColRef::new(RelId::new(1), ColId::new(1)),
            )],
            info: PlanNodeInfo::default(),
        };
        (q, plan)
    }

    #[test]
    fn validates_join_sets_only_by_default() {
        let db = ott_pair(100, 40); // 4000 rows each
        let samples = SampleStore::build(&db, SampleConfig::default()).unwrap();
        let (q, plan) = pair_query(0, 0);
        let v = validate_plan(&q, &plan, &samples, &ValidationOpts::default()).unwrap();
        assert_eq!(v.delta.len(), 1);
        assert!(v.delta.contains(RelSet::first_n(2)));
    }

    #[test]
    fn leaf_validation_optional() {
        let db = ott_pair(100, 40);
        let samples = SampleStore::build(&db, SampleConfig::default()).unwrap();
        let (q, plan) = pair_query(0, 0);
        let opts = ValidationOpts {
            validate_leaves: true,
            ..Default::default()
        };
        let v = validate_plan(&q, &plan, &samples, &opts).unwrap();
        assert_eq!(v.delta.len(), 3); // 2 leaves + 1 join
        assert!(v.delta.contains(RelSet::single(RelId::new(0))));
    }

    #[test]
    fn nonempty_join_estimate_is_in_the_right_ballpark() {
        // True size: per² = 25600 (both filters keep value 0, all pairs
        // match). With 5%+5% samples the estimate is noisy but must be
        // within a factor of a few — far from the native estimate's ~160.
        // 160 rows per value keeps the Bernoulli sample of the filtered
        // cell comfortably nonempty (≈8 expected rows per side; an empty
        // sample would have probability ≈3e-4 per side).
        let db = ott_pair(100, 160);
        let samples = SampleStore::build(&db, SampleConfig::default()).unwrap();
        let (q, plan) = pair_query(0, 0);
        let v = validate_plan(&q, &plan, &samples, &ValidationOpts::default()).unwrap();
        let est = v.delta.get(RelSet::first_n(2)).unwrap();
        assert!(
            est > 25600.0 / 5.0 && est < 25600.0 * 5.0,
            "estimate {est} too far from truth 25600"
        );
    }

    #[test]
    fn empty_join_detected_and_clamped() {
        let db = ott_pair(100, 40);
        let samples = SampleStore::build(&db, SampleConfig::default()).unwrap();
        let (q, plan) = pair_query(0, 1); // disjoint constants: empty join
        let v = validate_plan(&q, &plan, &samples, &ValidationOpts::default()).unwrap();
        let est = v.delta.get(RelSet::first_n(2)).unwrap();
        assert_eq!(est, 1.0, "empty join must clamp to min_rows");
    }

    #[test]
    fn cached_validation_cannot_replay_pre_ingest_dry_runs() {
        use reopt_storage::Value;

        // Regression: before cache keys carried a DataVersion, appending
        // rows and rebuilding samples left the old dry-run row sets
        // reachable under the same fingerprint — the "same query after
        // ingest" returned the pre-ingest estimate. Tables are small
        // enough to be copied whole (scale 1.0), so estimates are exact
        // and the staleness would be bit-visible.
        let mut db = ott_pair(10, 4); // 40 rows/table: sampled as full copies
        let samples = SampleStore::build(&db, SampleConfig::default()).unwrap();
        let (q, plan) = pair_query(0, 0);
        let opts = ValidationOpts::default();
        let mut cache = SharedSampleRunCache::new();

        let before =
            validate_plan_cached(&q, &plan, &samples, &opts, &mut cache, &Tracer::disabled())
                .unwrap();
        let est_before = before.delta.get(RelSet::first_n(2)).unwrap();
        assert_eq!(est_before, 16.0); // 4 × 4 matching pairs at value 0

        // Same (query, samples, cache): a pure replay.
        let replay =
            validate_plan_cached(&q, &plan, &samples, &opts, &mut cache, &Tracer::disabled())
                .unwrap();
        assert!(replay.cache_hits > 0);
        assert_eq!(replay.delta.get(RelSet::first_n(2)).unwrap(), est_before);

        // Ingest doubles value 0 on one side, samples are rebuilt.
        let rows: Vec<Vec<Value>> = (0..4).map(|_| vec![Value::Int(0), Value::Int(0)]).collect();
        db.append_rows(TableId::new(0), &rows).unwrap();
        let samples2 = SampleStore::build(&db, SampleConfig::default()).unwrap();
        assert_ne!(samples2.data_version(), samples.data_version());

        // The SAME cache must not answer from the pre-ingest entries.
        let after =
            validate_plan_cached(&q, &plan, &samples2, &opts, &mut cache, &Tracer::disabled())
                .unwrap();
        assert_eq!(after.cache_hits, 0, "stale pre-ingest dry-run replayed");
        assert!(after.subtrees_executed > 0);
        let est_after = after.delta.get(RelSet::first_n(2)).unwrap();
        assert_eq!(est_after, 32.0); // 8 × 4 matching pairs now
        assert_ne!(est_after, est_before);

        // And matches a from-scratch validation exactly.
        let fresh = validate_plan(&q, &plan, &samples2, &opts).unwrap();
        assert_eq!(fresh.delta.get(RelSet::first_n(2)).unwrap(), est_after);
    }

    #[test]
    fn cached_validation_keys_by_per_table_sample_versions() {
        use reopt_storage::Value;

        // Two stores at one data version with different samples of table
        // 0: one surgically refreshed only table 1 after the append, the
        // other was drawn whole. A cache keyed by the store-level version
        // alone replayed the first store's rows for the second.
        let mut db = ott_pair(10, 4); // 40 rows/table: sampled as full copies
        let drawn = SampleStore::build(&db, SampleConfig::default()).unwrap();
        let rows: Vec<Vec<Value>> = (0..4).map(|_| vec![Value::Int(0), Value::Int(0)]).collect();
        db.append_rows(TableId::new(0), &rows).unwrap();
        let a = drawn.refresh_tables(&db, &[TableId::new(1)]).unwrap();
        let b = SampleStore::build(&db, SampleConfig::default()).unwrap();
        assert_eq!(a.data_version(), b.data_version());

        let (q, plan) = pair_query(0, 0);
        let opts = ValidationOpts::default();
        let mut cache = SharedSampleRunCache::new();
        let via_a =
            validate_plan_cached(&q, &plan, &a, &opts, &mut cache, &Tracer::disabled()).unwrap();
        assert_eq!(via_a.delta.get(RelSet::first_n(2)), Some(16.0));
        let via_b =
            validate_plan_cached(&q, &plan, &b, &opts, &mut cache, &Tracer::disabled()).unwrap();
        let uncached = validate_plan(&q, &plan, &b, &opts).unwrap();
        assert_eq!(uncached.delta.get(RelSet::first_n(2)), Some(32.0));
        assert_eq!(
            via_b.delta.get(RelSet::first_n(2)),
            uncached.delta.get(RelSet::first_n(2)),
            "a dry run over table 0's old sample was replayed"
        );
        // Table 1's sample is the same in both stores: its scan is shared.
        assert!(via_b.cache_hits > 0);
    }

    #[test]
    fn per_run_counts_stay_exact_under_a_shared_cache() {
        // Four sessions validate overlapping plans through one cache at
        // once. Each hit is counted by the run that made it, so every run
        // accounts for each of its plan's nodes exactly once, whatever
        // its neighbours replay or store meanwhile.
        let mut db = ott_pair(20, 10);
        db.add_table_with(|id| {
            let schema = TableSchema::new(vec![
                ColumnDef::new("a", LogicalType::Int),
                ColumnDef::new("b", LogicalType::Int),
            ])?;
            let data: Vec<i64> = (0..200).map(|i| i % 20).collect();
            Table::new(
                id,
                "c",
                schema,
                vec![
                    Column::from_i64(LogicalType::Int, data.clone()),
                    Column::from_i64(LogicalType::Int, data),
                ],
            )
        })
        .unwrap();
        let samples = SampleStore::build(&db, SampleConfig::default()).unwrap();
        let chain = |c: i64| {
            let mut qb = QueryBuilder::new();
            let rels: Vec<RelId> = (0..3u32)
                .map(|t| qb.add_relation(TableId::new(t)))
                .collect();
            qb.add_predicate(Predicate::eq(rels[0], ColId::new(0), c));
            for w in rels.windows(2) {
                qb.add_join(
                    ColRef::new(w[0], ColId::new(1)),
                    ColRef::new(w[1], ColId::new(1)),
                );
            }
            qb.build()
        };
        let scan = |r: u32| PhysicalPlan::Scan {
            rel: RelId::new(r),
            table: TableId::new(r),
            access: AccessPath::SeqScan,
            info: PlanNodeInfo::default(),
        };
        let join = |algo, l, r, a: u32, b: u32| PhysicalPlan::Join {
            algo,
            left: Box::new(l),
            right: Box::new(r),
            keys: vec![(
                ColRef::new(RelId::new(a), ColId::new(1)),
                ColRef::new(RelId::new(b), ColId::new(1)),
            )],
            info: PlanNodeInfo::default(),
        };
        // Four shapes sharing scans and two-way subtrees.
        let plans = [
            join(
                JoinAlgo::Hash,
                join(JoinAlgo::Hash, scan(0), scan(1), 0, 1),
                scan(2),
                1,
                2,
            ),
            join(
                JoinAlgo::Merge,
                scan(2),
                join(JoinAlgo::Merge, scan(1), scan(0), 1, 0),
                2,
                1,
            ),
            join(
                JoinAlgo::Hash,
                scan(0),
                join(JoinAlgo::Hash, scan(1), scan(2), 1, 2),
                0,
                1,
            ),
            join(
                JoinAlgo::NestedLoop,
                join(JoinAlgo::Hash, scan(2), scan(1), 2, 1),
                scan(0),
                1,
                0,
            ),
        ];
        let shared = SharedSampleRunCache::new();
        let opts = ValidationOpts {
            threads: 1,
            ..Default::default()
        };
        std::thread::scope(|s| {
            for t in 0..4usize {
                let (mut cache, plans, samples, opts) = (shared.clone(), &plans, &samples, &opts);
                s.spawn(move || {
                    for i in 0..60usize {
                        let q = chain((i % 15) as i64);
                        let plan = &plans[(t + i) % plans.len()];
                        let v = validate_plan_cached(
                            &q,
                            plan,
                            samples,
                            opts,
                            &mut cache,
                            &Tracer::disabled(),
                        )
                        .unwrap();
                        let mut nodes = 0;
                        plan.visit(&mut |_| nodes += 1);
                        assert_eq!(
                            v.cache_hits + v.subtrees_executed,
                            nodes,
                            "thread {t} run {i}"
                        );
                    }
                });
            }
        });
        assert!(shared.entries() > 0);
    }

    #[test]
    fn validation_reports_timing_and_volume() {
        let db = ott_pair(100, 40);
        let samples = SampleStore::build(&db, SampleConfig::default()).unwrap();
        let (q, plan) = pair_query(0, 0);
        let v = validate_plan(&q, &plan, &samples, &ValidationOpts::default()).unwrap();
        assert!(v.sample_rows_produced > 0);
        // elapsed is a Duration; just ensure it is recorded.
        assert!(v.elapsed.as_nanos() > 0);
    }
}
