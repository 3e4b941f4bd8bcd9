//! Sample-table construction.
//!
//! The paper keeps one offline sample per base table (5% in all
//! experiments, following Wu et al. 2013) and runs tentative plans over
//! them. [`SampleStore`] materializes Bernoulli row samples as a *parallel
//! database*: sample tables carry the same [`TableId`]s as their parents,
//! so any physical plan valid on the base database executes unchanged on
//! the sample database — including index scans, because indexes are
//! rebuilt on the sampled rows.

use rand::RngExt;
use reopt_common::rng::derive_rng;
use reopt_common::{Error, FxHashMap, Result, TableId};
use reopt_storage::{DataVersion, Database, Table};

/// Sampling configuration.
#[derive(Debug, Clone)]
pub struct SampleConfig {
    /// Sampling ratio in (0, 1]; the paper uses 0.05.
    pub ratio: f64,
    /// Tables with at most this many rows are copied whole (sampling a
    /// 25-row dimension table would only add noise).
    pub small_table_rows: usize,
    /// Seed for the Bernoulli draws.
    pub seed: u64,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            ratio: 0.05,
            small_table_rows: 200,
            seed: 0x5a3b1e,
        }
    }
}

/// Per-table samples materialized as a parallel [`Database`].
#[derive(Debug, Clone)]
pub struct SampleStore {
    sample_db: Database,
    /// `full_rows / sample_rows` keyed by the *base* table's id (1.0 for
    /// full copies and empty tables).
    scale: FxHashMap<TableId, f64>,
    config: SampleConfig,
    /// The base database's [`DataVersion`] at draw time — samples describe
    /// exactly that data state, and every cache keyed off this store
    /// qualifies its entries with it.
    data_version: DataVersion,
    /// Per table: the base database's [`DataVersion`] its sample was last
    /// drawn at. A [`SampleStore::refresh_tables`] advances only the
    /// redrawn tables, so a result validated on table `t`'s sample is
    /// current exactly while `table_version(t)` has not moved.
    drawn_at: FxHashMap<TableId, DataVersion>,
}

impl SampleStore {
    /// Draw Bernoulli samples of every table in `db`.
    ///
    /// Invariant: for every sampled table,
    /// `scale_factor(t) × sample_rows(t) == row_count(t)` exactly — the
    /// scale is recomputed from the *materialized* sample, and a Bernoulli
    /// draw that would come back empty retains one uniformly chosen row
    /// instead (a 0-row sample with a finite scale would silently disagree
    /// with the stored table).
    pub fn build(db: &Database, config: SampleConfig) -> Result<SampleStore> {
        assert!(
            config.ratio > 0.0 && config.ratio <= 1.0,
            "sampling ratio must be in (0, 1]"
        );
        let mut sample_db = Database::new();
        let mut scale: FxHashMap<TableId, f64> = FxHashMap::default();
        let mut drawn_at: FxHashMap<TableId, DataVersion> = FxHashMap::default();
        for table in db.tables() {
            let (rows, factor) = draw_rows(table, &config);
            scale.insert(table.id(), factor);
            drawn_at.insert(table.id(), db.data_version());
            let name = format!("{}__sample", table.name());
            sample_db.add_table_with(|id| table.subset(id, name, &rows))?;
        }
        Ok(SampleStore {
            sample_db,
            scale,
            config,
            data_version: db.data_version(),
            drawn_at,
        })
    }

    /// Redraw samples for `tables` only, reusing every other table's
    /// sample `Arc` verbatim — the serving layer's surgical reaction to
    /// per-table drift. The draw is the same seed-derived Bernoulli as
    /// [`SampleStore::build`], so a refreshed table's sample is
    /// bit-identical to what a full rebuild over `db` would produce.
    ///
    /// The returned store is stamped with `db`'s current [`DataVersion`];
    /// untouched tables keep describing the data state they were drawn at,
    /// which is exactly the under-threshold staleness the drift monitor
    /// already tolerates for them.
    pub fn refresh_tables(&self, db: &Database, tables: &[TableId]) -> Result<SampleStore> {
        let mut sample_db = self.sample_db.clone();
        let mut scale = self.scale.clone();
        let mut drawn_at = self.drawn_at.clone();
        let mut todo: Vec<TableId> = tables.to_vec();
        todo.sort_unstable();
        todo.dedup();
        for &tid in &todo {
            let table = db.table(tid)?;
            let (rows, factor) = draw_rows(table, &self.config);
            // Sample tables carry their base table's id and a derived
            // name; both must already exist — refreshing a table the
            // store never sampled is a caller bug, not a growth path.
            let name = sample_db.table(tid)?.name().to_owned();
            sample_db.replace_table(table.subset(tid, name, &rows)?)?;
            scale.insert(tid, factor);
            drawn_at.insert(tid, db.data_version());
        }
        Ok(SampleStore {
            sample_db,
            scale,
            config: self.config.clone(),
            data_version: db.data_version(),
            drawn_at,
        })
    }

    /// The sample database (table ids parallel the base database).
    pub fn database(&self) -> &Database {
        &self.sample_db
    }

    /// Scale factor `|R| / |R^s|` for `table`. Errors on a table the store
    /// never sampled — silently returning 1.0 would quietly skip scaling.
    pub fn scale_factor(&self, table: TableId) -> Result<f64> {
        self.scale
            .get(&table)
            .copied()
            .ok_or_else(|| Error::invalid(format!("no sample scale recorded for table {table}")))
    }

    /// Number of sampled rows of `table`.
    pub fn sample_rows(&self, table: TableId) -> Result<usize> {
        Ok(self.sample_db.table(table)?.row_count())
    }

    /// The configuration used to build this store.
    pub fn config(&self) -> &SampleConfig {
        &self.config
    }

    /// The base database's [`DataVersion`] these samples were drawn at.
    pub fn data_version(&self) -> DataVersion {
        self.data_version
    }

    /// The base database's [`DataVersion`] `table`'s sample was last drawn
    /// at (see [`SampleStore::refresh_tables`]). Errors on a table the
    /// store never sampled.
    pub fn table_version(&self, table: TableId) -> Result<DataVersion> {
        self.drawn_at
            .get(&table)
            .copied()
            .ok_or_else(|| Error::invalid(format!("no sample recorded for table {table}")))
    }
}

/// One table's Bernoulli draw: the retained row indices plus the exact
/// scale factor `full_rows / sample_rows` (1.0 for full copies and empty
/// tables). Deterministic per `(seed, table name)`, so redrawing a single
/// table reproduces exactly what a whole-database build would draw for it.
fn draw_rows(table: &Table, config: &SampleConfig) -> (Vec<u32>, f64) {
    let full_rows = table.row_count();
    let rows: Vec<u32> = if full_rows <= config.small_table_rows || config.ratio >= 1.0 {
        (0..full_rows as u32).collect()
    } else {
        let mut rng = derive_rng(config.seed, &format!("sample:{}", table.name()));
        let mut drawn: Vec<u32> = (0..full_rows as u32)
            .filter(|_| rng.random_bool(config.ratio))
            .collect();
        if drawn.is_empty() {
            // Tiny ratios can draw nothing; keep one row so the
            // scale invariant holds against the materialized table.
            drawn.push(rng.random_range(0..full_rows as u32));
        }
        drawn
    };
    let factor = if rows.is_empty() {
        1.0 // empty base table: empty sample, nothing to scale
    } else {
        full_rows as f64 / rows.len() as f64
    };
    (rows, factor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_common::ColId;
    use reopt_storage::{Column, ColumnDef, LogicalType, Table, TableSchema};

    fn db_with_rows(n: i64) -> Database {
        let mut db = Database::new();
        db.add_table_with(|id| {
            let schema = TableSchema::new(vec![ColumnDef::new("k", LogicalType::Int)])?;
            let mut t = Table::new(
                id,
                "t",
                schema,
                vec![Column::from_i64(LogicalType::Int, (0..n).collect())],
            )?;
            t.create_index(ColId::new(0))?;
            Ok(t)
        })
        .unwrap();
        db
    }

    #[test]
    fn sample_size_tracks_ratio() {
        let db = db_with_rows(100_000);
        let store = SampleStore::build(&db, SampleConfig::default()).unwrap();
        let n = store.sample_rows(TableId::new(0)).unwrap();
        // 5% of 100k = 5000 ± noise.
        assert!((4000..6000).contains(&n), "sample of {n} rows");
        let s = store.scale_factor(TableId::new(0)).unwrap();
        assert!((s - 100_000.0 / n as f64).abs() < 1e-9);
    }

    #[test]
    fn small_tables_are_copied_whole() {
        let db = db_with_rows(150);
        let store = SampleStore::build(&db, SampleConfig::default()).unwrap();
        assert_eq!(store.sample_rows(TableId::new(0)).unwrap(), 150);
        assert_eq!(store.scale_factor(TableId::new(0)).unwrap(), 1.0);
    }

    #[test]
    fn empty_draw_forces_one_retained_row() {
        // 1000 rows at ratio 1e-12: the Bernoulli draw is (essentially
        // always) empty, but the store must still keep ≥ 1 row and record
        // a scale that matches the materialized table exactly.
        let db = db_with_rows(1000);
        let store = SampleStore::build(
            &db,
            SampleConfig {
                ratio: 1e-12,
                ..SampleConfig::default()
            },
        )
        .unwrap();
        let n = store.sample_rows(TableId::new(0)).unwrap();
        assert!(n >= 1, "materialized sample is empty");
        let s = store.scale_factor(TableId::new(0)).unwrap();
        assert!(
            (s * n as f64 - 1000.0).abs() < 1e-9,
            "scale × sample_rows = {} ≠ full_rows 1000",
            s * n as f64
        );
    }

    #[test]
    fn scale_invariant_holds_for_every_table() {
        // scale × sample_rows == full_rows exactly, across table sizes.
        let mut db = Database::new();
        for (i, n) in [150i64, 1000, 50_000].iter().enumerate() {
            db.add_table_with(|id| {
                let schema = TableSchema::new(vec![ColumnDef::new("k", LogicalType::Int)])?;
                Table::new(
                    id,
                    format!("t{i}"),
                    schema,
                    vec![Column::from_i64(LogicalType::Int, (0..*n).collect())],
                )
            })
            .unwrap();
        }
        let store = SampleStore::build(&db, SampleConfig::default()).unwrap();
        for (i, n) in [150usize, 1000, 50_000].iter().enumerate() {
            let id = TableId::from(i);
            let s = store.scale_factor(id).unwrap();
            let rows = store.sample_rows(id).unwrap();
            assert!(
                (s * rows as f64 - *n as f64).abs() < 1e-9,
                "table {i}: {s} × {rows} ≠ {n}"
            );
        }
    }

    #[test]
    fn unknown_table_id_is_an_error_not_a_silent_one() {
        let db = db_with_rows(1000);
        let store = SampleStore::build(&db, SampleConfig::default()).unwrap();
        // Table 0 exists; table 7 was never sampled.
        assert!(store.scale_factor(TableId::new(0)).is_ok());
        assert!(store.scale_factor(TableId::new(7)).is_err());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let db = db_with_rows(10_000);
        let a = SampleStore::build(&db, SampleConfig::default()).unwrap();
        let b = SampleStore::build(&db, SampleConfig::default()).unwrap();
        assert_eq!(
            a.database()
                .table(TableId::new(0))
                .unwrap()
                .column(ColId::new(0))
                .unwrap()
                .data(),
            b.database()
                .table(TableId::new(0))
                .unwrap()
                .column(ColId::new(0))
                .unwrap()
                .data()
        );
        let c = SampleStore::build(
            &db,
            SampleConfig {
                seed: 99,
                ..SampleConfig::default()
            },
        )
        .unwrap();
        assert_ne!(a.database().table(TableId::new(0)).unwrap().row_count(), 0);
        // Different seed almost surely draws a different sample.
        assert_ne!(
            a.database()
                .table(TableId::new(0))
                .unwrap()
                .column(ColId::new(0))
                .unwrap()
                .data(),
            c.database()
                .table(TableId::new(0))
                .unwrap()
                .column(ColId::new(0))
                .unwrap()
                .data()
        );
    }

    fn multi_table_db(sizes: &[i64]) -> Database {
        let mut db = Database::new();
        for (i, n) in sizes.iter().enumerate() {
            db.add_table_with(|id| {
                let schema = TableSchema::new(vec![ColumnDef::new("k", LogicalType::Int)])?;
                let mut t = Table::new(
                    id,
                    format!("t{i}"),
                    schema,
                    vec![Column::from_i64(LogicalType::Int, (0..*n).collect())],
                )?;
                t.create_index(ColId::new(0))?;
                Ok(t)
            })
            .unwrap();
        }
        db
    }

    #[test]
    fn refresh_tables_matches_full_rebuild_bit_for_bit() {
        let mut db = multi_table_db(&[20_000, 20_000, 20_000]);
        let store = SampleStore::build(&db, SampleConfig::default()).unwrap();
        // Mutate table 1 only, then refresh just that table.
        let rows: Vec<Vec<reopt_storage::Value>> = (0..5000)
            .map(|_| vec![reopt_storage::Value::Int(7)])
            .collect();
        db.append_rows(TableId::new(1), &rows).unwrap();
        let surgical = store.refresh_tables(&db, &[TableId::new(1)]).unwrap();
        let full = SampleStore::build(&db, SampleConfig::default()).unwrap();
        for t in 0..3 {
            let id = TableId::new(t);
            assert_eq!(
                surgical
                    .database()
                    .table(id)
                    .unwrap()
                    .column(ColId::new(0))
                    .unwrap()
                    .data(),
                full.database()
                    .table(id)
                    .unwrap()
                    .column(ColId::new(0))
                    .unwrap()
                    .data(),
                "table {t} sample diverged from full rebuild"
            );
            assert_eq!(
                surgical.scale_factor(id).unwrap(),
                full.scale_factor(id).unwrap()
            );
        }
        assert_eq!(surgical.data_version(), db.data_version());
        // Only the redrawn table's sample version moved.
        for t in 0..3 {
            let id = TableId::new(t);
            let expect = if t == 1 {
                db.data_version()
            } else {
                store.data_version()
            };
            assert_eq!(surgical.table_version(id).unwrap(), expect, "table {t}");
        }
        assert!(surgical.table_version(TableId::new(9)).is_err());
    }

    #[test]
    fn refresh_tables_reuses_untouched_arcs() {
        let db = multi_table_db(&[20_000, 20_000]);
        let store = SampleStore::build(&db, SampleConfig::default()).unwrap();
        let refreshed = store.refresh_tables(&db, &[TableId::new(0)]).unwrap();
        let old_t1 = store.database().table_arc(TableId::new(1)).unwrap();
        let new_t1 = refreshed.database().table_arc(TableId::new(1)).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&old_t1, &new_t1),
            "untouched table's sample Arc was rebuilt"
        );
        let old_t0 = store.database().table_arc(TableId::new(0)).unwrap();
        let new_t0 = refreshed.database().table_arc(TableId::new(0)).unwrap();
        assert!(
            !std::sync::Arc::ptr_eq(&old_t0, &new_t0),
            "refreshed table still shares its old sample Arc"
        );
        // Same data, same seed → same draw, even through the new Arc.
        assert_eq!(
            old_t0.column(ColId::new(0)).unwrap().data(),
            new_t0.column(ColId::new(0)).unwrap().data()
        );
    }

    #[test]
    fn refresh_of_unknown_table_errors() {
        let db = multi_table_db(&[1000]);
        let store = SampleStore::build(&db, SampleConfig::default()).unwrap();
        assert!(store.refresh_tables(&db, &[TableId::new(9)]).is_err());
    }

    #[test]
    fn indexes_survive_sampling() {
        let db = db_with_rows(100_000);
        let store = SampleStore::build(&db, SampleConfig::default()).unwrap();
        let t = store.database().table(TableId::new(0)).unwrap();
        assert!(t.has_index(ColId::new(0)));
    }

    #[test]
    fn full_ratio_copies_everything() {
        let db = db_with_rows(5000);
        let store = SampleStore::build(
            &db,
            SampleConfig {
                ratio: 1.0,
                ..SampleConfig::default()
            },
        )
        .unwrap();
        assert_eq!(store.sample_rows(TableId::new(0)).unwrap(), 5000);
    }
}
