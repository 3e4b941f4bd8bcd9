//! Streaming ingest with drift-triggered re-optimization.
//!
//! The paper's setting is a static database: ANALYZE once, sample once,
//! then serve. This module is what changes when the data refuses to hold
//! still.
//!
//! **Snapshots, one writer, one publish.** The service's state is an
//! immutable, versioned snapshot — engine (database + statistics +
//! samples) and drift baseline behind one `Arc` — so all derived state a
//! reader sees is a function of *one* input version. Readers load it with
//! a lock held only for the `Arc` clone and never wait for a derivation.
//! Writers ([`QueryService::append_rows`],
//! [`QueryService::expire_older_than`], [`QueryService::refresh_full`])
//! serialize on a writer-only mutex, so no two of them derive
//! `DataVersion` N+1 from the same N; each loads the published snapshot,
//! derives its successor entirely off to the side, and makes it visible
//! in a single pointer swap. A writer that fails — or panics — before
//! that swap has changed nothing a reader can observe. Every ingest runs
//! the same loop:
//!
//! 1. **Mutate a copy.** The snapshot's [`reopt_storage::Database`] is
//!    cloned (table `Arc` pointers — copy-on-write), the mutation lands on
//!    the copy, and the copy's [`DataVersion`] advances. Sessions admitted
//!    earlier keep their snapshot untouched.
//! 2. **Re-ANALYZE incrementally.** [`reopt_stats::analyze_incremental`]
//!    touches only the rows appended since the last pass (bit-identical to
//!    a full re-scan; quiescent tables are reused outright).
//! 3. **Measure drift** against the *baseline* — the statistics the cached
//!    plans were last validated under, not the previous ingest's — so
//!    small ingests accumulate instead of each hiding below the threshold.
//! 4. **Refresh surgically if over threshold.** Only the *drifted*
//!    tables' samples are redrawn ([`SampleStore::refresh_tables`] — the
//!    rest keep their `Arc`s) and the drifted tables' baseline entries
//!    re-anchored; shared dry-run entries over a redrawn table are dropped
//!    ([`reopt_sampling::SharedSampleRunCache::retain_current`]), the rest
//!    stay exactly where they are. Under the threshold the samples and
//!    baseline carry over unchanged (cached validations still describe
//!    the distribution to within the threshold).
//! 5. **Publish.** The new snapshot replaces the old one. There is no
//!    second step: cached plans and dry-run entries are keyed by the
//!    sample version of each base table they read, and admission compares
//!    a plan's versions against the admitting snapshot (see
//!    [`crate::cache`]) — so from the first reader that loads the
//!    post-refresh snapshot on, plans touching a redrawn table
//!    re-validate and plans over untouched tables keep serving warm.
//!    [`QueryService::refresh_full`] is the same refresh over every table.
//!
//! Every step records spans (`service.ingest`, `ingest.analyze`,
//! `ingest.drift`, `ingest.refresh`) and `ingest.*` counters, so an
//! operator can see *why* plans were or weren't evicted.

use std::sync::Arc;

use crate::service::{QueryService, Snapshot};
use reopt_common::{Error, Result, TableId};
use reopt_sampling::SampleStore;
use reopt_stats::{analyze_incremental, database_drift, DatabaseStats};
use reopt_storage::{DataVersion, Database, Value};
use reopt_telemetry::{names, QueryTrace, Tracer};

/// Drift-monitor knobs (part of [`crate::ServiceConfig`]).
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// Refresh when any table's drift score reaches this value. The score
    /// is the max of relative row-count / n-distinct deviation, absolute
    /// null-fraction change, and MCV total-variation distance (see
    /// [`reopt_stats::drift`]); 0.25 means "a quarter of the distribution
    /// moved".
    pub threshold: f64,
    /// Automatically refresh drifted tables' samples — which sends the
    /// plans touching them to re-validation — when the threshold is
    /// crossed (on by default). Off means ingests only report drift;
    /// re-validation waits for a manual [`QueryService::refresh_full`].
    pub auto_refresh: bool,
    /// Acceptance band for cached-plan re-validation: a surgically-evicted
    /// plan is re-admitted without re-optimization when its re-validated
    /// cost is within this factor of the cached cost *in both directions*
    /// (`new ≤ old·r` and `old ≤ new·r`). `None` disables the tier —
    /// every surgically-evicted plan re-optimizes in full. Must be ≥ 1.0;
    /// 1.0 accepts only an (essentially) unchanged cost.
    pub revalidate_ratio: Option<f64>,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            threshold: 0.25,
            auto_refresh: true,
            revalidate_ratio: Some(2.0),
        }
    }
}

impl DriftConfig {
    /// Reject configurations that would silently misbehave: a NaN
    /// threshold makes `drift >= threshold` always false (auto-refresh
    /// off with no diagnostic), a negative threshold pretends to be
    /// stricter than "refresh on every ingest" but isn't, and a
    /// re-validation ratio below 1.0 (or NaN) can never accept.
    pub fn validate(&self) -> Result<()> {
        if self.threshold.is_nan() {
            return Err(Error::invalid(
                "drift threshold is NaN: `drift >= NaN` is always false, which would \
                 silently disable auto-refresh",
            ));
        }
        if self.threshold < 0.0 {
            return Err(Error::invalid(format!(
                "drift threshold {} is negative; use 0.0 to refresh on every ingest",
                self.threshold
            )));
        }
        if let Some(r) = self.revalidate_ratio {
            if r.is_nan() || r < 1.0 {
                return Err(Error::invalid(format!(
                    "revalidate_ratio {r} must be ≥ 1.0 (1.0 accepts only an unchanged \
                     cost; use None to disable re-validation)"
                )));
            }
        }
        Ok(())
    }
}

/// What one ingest operation did — data, statistics, and cache effects.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// The mutated table.
    pub table: TableId,
    /// Rows appended by this operation.
    pub rows_appended: usize,
    /// Rows deleted/expired by this operation.
    pub rows_deleted: usize,
    /// The database version this ingest landed at.
    pub data_version: DataVersion,
    /// Incremental-ANALYZE work: tables reused verbatim.
    pub tables_reused: usize,
    /// Tables whose appended tail was scanned and merged.
    pub tables_merged: usize,
    /// Tables fully re-scanned.
    pub tables_rescanned: usize,
    /// Worst per-table drift versus the validation baseline, after this
    /// ingest.
    pub drift: f64,
    /// Tables whose drift score reached the threshold (in `TableId`
    /// order), whether or not auto-refresh acted on them.
    pub drifted_tables: Vec<TableId>,
    /// Whether this ingest crossed the threshold and refreshed
    /// surgically: drifted tables' samples redrawn, so plans touching them
    /// re-validate on their next admission.
    pub refreshed: bool,
    /// Span trace of this ingest, present iff tracing is on (see
    /// [`crate::ServiceConfig::trace`]).
    pub trace: Option<Arc<QueryTrace>>,
}

/// The post-refresh validation baseline: refreshed tables restart from
/// the fresh statistics, everything else keeps its old baseline entry so
/// drift on untouched tables continues to accumulate. Tables new since
/// the old baseline start fresh.
fn reanchor_baseline(
    old: &DatabaseStats,
    fresh: &DatabaseStats,
    refreshed: &[TableId],
) -> Result<DatabaseStats> {
    let tables = fresh
        .tables()
        .iter()
        .map(|t| {
            if refreshed.contains(&t.table) {
                t.clone()
            } else {
                old.table(t.table).cloned().unwrap_or_else(|_| t.clone())
            }
        })
        .collect();
    DatabaseStats::new(tables)
}

impl QueryService {
    /// Refresh every table's sample from the live data and re-anchor the
    /// whole baseline — the drift reaction applied to all tables. A table
    /// already drawn at the live [`DataVersion`] redraws bit-identically
    /// and keeps its version, so its plans and dry runs stay current;
    /// plans over any other table re-validate on their next admission.
    pub fn refresh_full(&self) -> Result<()> {
        let (writer, base) = self.begin_write();
        let engine = &base.engine;
        let all: Vec<TableId> = engine.db().tables().iter().map(|t| t.id()).collect();
        let (samples, baseline) = self.refresh(
            &base,
            engine.db(),
            engine.stats(),
            &all,
            &Tracer::disabled(),
        )?;
        let (db, stats) = (Arc::clone(engine.db()), Arc::clone(engine.stats()));
        self.publish(
            &writer,
            Snapshot {
                engine: engine.with_data(db, stats, samples),
                baseline,
            },
        );
        Ok(())
    }

    /// Redraw `tables`' samples over `db` and re-anchor their baseline
    /// entries to `stats`, deriving from `base`. Drops the shared dry-run
    /// entries the redraw made unreachable before the caller publishes, so
    /// the first reader of the new snapshot already finds only current
    /// ones (entries a session still on an older snapshot stores later go
    /// at the next refresh).
    fn refresh(
        &self,
        base: &Snapshot,
        db: &Database,
        stats: &DatabaseStats,
        tables: &[TableId],
        tracer: &Tracer,
    ) -> Result<(Arc<SampleStore>, Arc<DatabaseStats>)> {
        let mut span = tracer.span(names::INGEST_REFRESH);
        // The rest keep their `Arc`s, so their dry-run results stay
        // bit-identical.
        let samples = Arc::new(base.engine.samples().refresh_tables(db, tables)?);
        // Refreshed tables restart their drift accumulation from the fresh
        // statistics; the others' plans were *not* refreshed, so their
        // drift keeps accumulating against the original baseline.
        let baseline = Arc::new(reanchor_baseline(&base.baseline, stats, tables)?);
        let (kept, dropped) = self.sample_cache().retain_current(&samples);
        self.registry.add("ingest.refreshes", 1);
        self.registry
            .add("ingest.tables_refreshed", tables.len() as u64);
        if span.is_recording() {
            span.attr_u64("tables_refreshed", tables.len() as u64);
            span.attr_u64("sample_entries_kept", kept as u64);
            span.attr_u64("sample_entries_dropped", dropped as u64);
        }
        Ok((samples, baseline))
    }

    /// Append typed rows to `table`, then run the drift loop (see the
    /// module docs). The batch is validated before anything mutates; an
    /// invalid row leaves the service entirely untouched.
    pub fn append_rows(&self, table: &str, rows: &[Vec<Value>]) -> Result<IngestReport> {
        self.apply_ingest(table, |db, id| {
            let stamp = db.append_rows(id, rows)?;
            Ok((stamp, rows.len(), 0))
        })
    }

    /// TTL expiry: delete every row of `table` whose value in the ordered
    /// column `col` is non-NULL and strictly below `cutoff`, then run the
    /// drift loop.
    pub fn expire_older_than(&self, table: &str, col: &str, cutoff: i64) -> Result<IngestReport> {
        self.apply_ingest(table, |db, id| {
            let col = db.table(id)?.schema().col_by_name(col)?;
            let (stamp, deleted) = db.expire_older_than(id, col, cutoff)?;
            Ok((stamp, 0, deleted))
        })
    }

    /// The shared ingest loop: inside the writer section, derive the next
    /// snapshot from the published one — mutate a copy-on-write clone,
    /// incremental ANALYZE, measure drift against the baseline, refresh
    /// when over threshold — then publish it. `mutate` returns `(stamp,
    /// rows_appended, rows_deleted)`. Nothing is visible to any reader
    /// until the publish, so an `Err` (or a panic) anywhere before it
    /// leaves the service exactly as it was.
    fn apply_ingest<F>(&self, table: &str, mutate: F) -> Result<IngestReport>
    where
        F: FnOnce(&mut Database, TableId) -> Result<(DataVersion, usize, usize)>,
    {
        let tracer = self.new_tracer();
        let mut root = tracer.span(names::SERVICE_INGEST);
        let sub = tracer.under(&root);

        let (writer, base) = self.begin_write();
        let engine = &base.engine;
        let id = engine.db().table_id(table)?;
        let mut db = Database::clone(engine.db());
        let (stamp, appended, deleted) = mutate(&mut db, id)?;

        let mut an_span = sub.span(names::INGEST_ANALYZE);
        let inc = analyze_incremental(&db, engine.stats(), engine.analyze_opts())?;
        if an_span.is_recording() {
            an_span.attr_u64("reused", inc.tables_reused as u64);
            an_span.attr_u64("merged", inc.tables_merged as u64);
            an_span.attr_u64("rescanned", inc.tables_rescanned as u64);
        }
        drop(an_span);

        let mut drift_span = sub.span(names::INGEST_DRIFT);
        let report = database_drift(&base.baseline, &inc.stats);
        let drift = report.max();
        let drifted = report.over(self.drift.threshold);
        // Baseline-only tables (dropped from the database) score 1.0 but
        // have no samples to redraw; react to tables that still exist.
        let refreshable: Vec<TableId> = drifted
            .iter()
            .copied()
            .filter(|&t| db.table(t).is_ok())
            .collect();
        let refresh = self.drift.auto_refresh && !refreshable.is_empty();
        if drift_span.is_recording() {
            drift_span.attr_f64("max", drift);
            drift_span.attr_f64("threshold", self.drift.threshold);
            drift_span.attr_u64("tables_over", drifted.len() as u64);
        }
        drop(drift_span);

        let db = Arc::new(db);
        let stats = Arc::new(inc.stats);
        let (samples, baseline) = if refresh {
            self.refresh(&base, &db, &stats, &refreshable, &sub)?
        } else {
            // Under threshold: fresh data + statistics go live, samples
            // and cached plans keep serving. The samples keep their older
            // table versions, so every sample-cache entry stays keyed to
            // the samples the dry runs actually ran over.
            (Arc::clone(engine.samples()), Arc::clone(&base.baseline))
        };
        // The one step that makes this ingest visible. Plans over
        // untouched tables stay warm; plans touching a redrawn table read
        // as stale from the new snapshot's sample versions alone.
        self.publish(
            &writer,
            Snapshot {
                engine: engine.with_data(db, stats, samples),
                baseline,
            },
        );
        drop(writer);

        self.registry.add("ingest.ops", 1);
        self.registry.add("ingest.rows_appended", appended as u64);
        self.registry.add("ingest.rows_deleted", deleted as u64);
        self.registry
            .add("ingest.tables_reused", inc.tables_reused as u64);
        self.registry
            .add("ingest.tables_merged", inc.tables_merged as u64);
        self.registry
            .add("ingest.tables_rescanned", inc.tables_rescanned as u64);
        self.registry.set_gauge("ingest.drift", drift);

        if root.is_recording() {
            root.attr_str("table", table);
            root.attr_u64("rows_appended", appended as u64);
            root.attr_u64("rows_deleted", deleted as u64);
            root.attr_u64("data_version", stamp.get());
            root.attr_f64("drift", drift);
            root.attr_bool("refreshed", refresh);
        }
        drop(root);

        Ok(IngestReport {
            table: id,
            rows_appended: appended,
            rows_deleted: deleted,
            data_version: stamp,
            tables_reused: inc.tables_reused,
            tables_merged: inc.tables_merged,
            tables_rescanned: inc.tables_rescanned,
            drift,
            drifted_tables: drifted,
            refreshed: refresh,
            trace: if tracer.is_enabled() {
                Some(Arc::new(tracer.finish()))
            } else {
                None
            },
        })
    }
}

#[cfg(test)]
mod tests {
    //! Writer-section tests that need the private [`QueryService::apply_ingest`]
    //! hook: parking a writer mid-derivation and making `mutate` panic are
    //! not reachable through the public ingest calls.

    use super::*;
    use crate::{PlanSource, ServiceConfig};
    use reopt_plan::Query;
    use reopt_sampling::SampleConfig;
    use reopt_stats::AnalyzeOpts;
    use reopt_workloads::ott::{
        build_ott_database, ott_query, recommended_sample_ratio, OttConfig,
    };
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::Duration;

    fn service() -> (QueryService, Query) {
        let config = OttConfig {
            rows_per_value: 12,
            distinct_values: [60, 50, 40, 30, 20, 10],
            ..Default::default()
        };
        let service = QueryService::from_database(
            Arc::new(build_ott_database(&config).unwrap()),
            &AnalyzeOpts::default(),
            SampleConfig {
                ratio: recommended_sample_ratio(&config),
                ..Default::default()
            },
            ServiceConfig::default(),
        )
        .unwrap();
        let q = ott_query(service.snapshot().engine.db(), &[0, 0, 0, 1]).unwrap();
        (service, q)
    }

    fn batch(n: i64) -> Vec<Vec<Value>> {
        (0..n).map(|v| vec![Value::Int(v), Value::Int(v)]).collect()
    }

    /// Everything a failed writer must leave exactly as it found it.
    fn assert_untouched(service: &QueryService, before: &Arc<Snapshot>, q: &Query) {
        let now = service.snapshot();
        assert!(Arc::ptr_eq(&now, before), "the published snapshot moved");
        assert!(Arc::ptr_eq(&now.baseline, &before.baseline));
        let stats = service.stats();
        assert_eq!(stats.cached_templates, 1);
        assert_eq!(stats.table_evictions, 0);
        assert_eq!(service.telemetry_snapshot().counter("ingest.ops"), 0);
        let warm = service.submit(q).unwrap();
        assert_eq!(warm.source, PlanSource::WarmHit, "the plan cache moved");
        assert_eq!(warm.data_version, before.data_version());
    }

    #[test]
    fn readers_are_served_while_an_ingest_is_parked_mid_derivation() {
        let (service, q) = service();
        assert_eq!(service.submit(&q).unwrap().source, PlanSource::ColdMiss);
        let before = service.snapshot();

        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let (served_tx, served) = mpsc::channel();
        let (service, q, before) = (&service, &q, &before);
        std::thread::scope(|s| {
            let writer = s.spawn(move || {
                service.apply_ingest("ott_lineitem", |db, id| {
                    // Parked inside the writer section: the snapshot is
                    // loaded, the copy is being mutated, nothing is
                    // published.
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    let rows = batch(60);
                    Ok((db.append_rows(id, &rows)?, rows.len(), 0))
                })
            });
            entered.recv().unwrap();

            // Every read-side entry point completes while the writer is
            // parked, each against the pre-ingest snapshot. A reader that
            // shared any lock with the derivation would block here forever,
            // so the reads run on their own thread and the wait is bounded.
            let reader = s.spawn(move || {
                let mut slowest = Duration::ZERO;
                for _ in 0..200 {
                    let t = reopt_common::Stopwatch::start();
                    let r = service.submit(q).unwrap();
                    slowest = slowest.max(t.elapsed());
                    assert_eq!(r.source, PlanSource::WarmHit);
                    assert_eq!(r.data_version, before.data_version());
                }
                assert_eq!(service.engine().data_version(), before.data_version());
                assert!(Arc::ptr_eq(&service.database(), before.engine.db()));
                assert!(Arc::ptr_eq(
                    &service.database_stats(),
                    before.engine.stats()
                ));
                let snap = service.telemetry_snapshot();
                assert_eq!(
                    snap.gauge("service.data_version"),
                    Some(before.data_version().get() as f64)
                );
                let executed = service.execute(q).unwrap();
                assert_eq!(executed.response.data_version, before.data_version());
                served_tx.send(slowest).unwrap();
            });
            let slowest = served
                .recv_timeout(Duration::from_secs(60))
                .expect("a reader queued behind the parked ingest");
            reader.join().unwrap();
            assert!(!writer.is_finished(), "the ingest was not parked");
            assert!(
                Arc::ptr_eq(&service.snapshot(), before),
                "a parked ingest published"
            );
            println!("slowest warm submit beside a parked ingest: {slowest:?}");

            release.send(()).unwrap();
            let report = writer.join().unwrap().unwrap();
            assert_eq!(report.data_version, before.data_version().next());
        });
        let after = service.submit(q).unwrap();
        assert_eq!(after.data_version, before.data_version().next());
        assert_eq!(
            after.source,
            PlanSource::WarmHit,
            "benign ingest keeps plans"
        );
    }

    #[test]
    fn a_failing_mutate_leaves_the_service_untouched() {
        let (service, q) = service();
        service.submit(&q).unwrap();
        let before = service.snapshot();

        // A row of the wrong arity, an unknown table, an unknown column:
        // each fails inside the writer section, before the publish.
        let bad_row = vec![vec![Value::Int(1)]];
        assert!(service.append_rows("ott_lineitem", &bad_row).is_err());
        assert!(service.append_rows("no_such_table", &batch(1)).is_err());
        assert!(service
            .expire_older_than("ott_lineitem", "no_such_column", 5)
            .is_err());
        // …as does a mutation that already changed its private copy.
        let late = service.apply_ingest("ott_lineitem", |db, id| {
            db.append_rows(id, &batch(60))?;
            Err(Error::invalid("mutate failed after mutating its copy"))
        });
        assert!(late.is_err());
        assert_untouched(&service, &before, &q);

        let report = service.append_rows("ott_lineitem", &batch(60)).unwrap();
        assert_eq!(report.data_version, before.data_version().next());
    }

    #[test]
    fn a_panicking_mutate_leaves_the_service_untouched() {
        let (service, q) = service();
        service.submit(&q).unwrap();
        let before = service.snapshot();

        let panicked = catch_unwind(AssertUnwindSafe(|| {
            service.apply_ingest("ott_lineitem", |db, id| {
                db.append_rows(id, &batch(60))?;
                panic!("mutate panicked inside the writer section");
            })
        }));
        assert!(panicked.is_err());
        assert_untouched(&service, &before, &q);

        // The writer mutex was poisoned by the unwind and is recovered:
        // the next ingest derives version N+1 from the untouched N.
        let report = service.append_rows("ott_lineitem", &batch(60)).unwrap();
        assert_eq!(report.data_version, before.data_version().next());
        assert_eq!(report.rows_appended, 60);
        let table = service.database();
        let rows = table.table_by_name("ott_lineitem").unwrap().row_count();
        assert_eq!(
            rows,
            60 * 12 + 60,
            "the panicked batch must not have landed"
        );
    }
}
