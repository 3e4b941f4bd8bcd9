//! Cross-round caching of sample dry-run results.
//!
//! Round i+1 of the re-optimization loop validates a plan that typically
//! shares most of its subtrees with the plans of rounds 1..i — the loop's
//! transformations are local or reuse whole join groups.
//! [`SharedSampleRunCache`] remembers every executed subtree's sample row
//! set, keyed by a *canonical* fingerprint ([`subtree_fingerprint`]): the
//! covered relation set, the local predicates applied to those relations,
//! and the set of equi-join keys applied anywhere inside the subtree. The
//! fingerprint is deliberately independent of join order and physical
//! operators — a hash join (A ⋈ B) ⋈ C and a merge join A ⋈ (B ⋈ C)
//! produce the same logical rows over the samples, so either one can stand
//! in for the other. (The executor still walks a hit node's children so
//! the validation trace follows the round's own plan shape; only the
//! per-node scan/join work is skipped.)
//!
//! The fingerprint also folds in the *base table* of every covered
//! relation occurrence, which makes it safe to share one cache across
//! *different queries* of one database: two subtrees hash alike only when
//! they cover the same tables with the same predicates and join keys, in
//! which case their sample row sets are identical. The cache is a
//! clonable, thread-safe handle: a single re-optimization run uses a fresh
//! one (an uncontended lock per map operation), while the serving layer
//! hands every session a clone of one cache — a 2-way join validated for
//! one query template never re-runs for another template that embeds the
//! same subtree.
//!
//! **Freshness.** A row set is current exactly while the samples of the
//! tables it read are unchanged, so every entry is keyed by the
//! `(TableId, SampleStore::table_version)` pairs of its base tables: a
//! handle is bound to one [`SampleStore`] per dry run
//! ([`SharedSampleRunCache::bind`]) and folds those versions into each
//! subtree fingerprint. A lookup issued against one sample generation can
//! never replay rows drawn from another — whatever snapshot the session
//! holds, and however the store was produced — while subtrees over tables
//! a refresh left alone keep hitting. [`SharedSampleRunCache::retain_current`]
//! then frees what a refresh made unreachable.
//!
//! The cache holds sample row sets only — never estimates derived from
//! them — so it serves any [`crate::ValidationOpts`] (the executor
//! re-applies the row cap on every replay). Row sets are stored and
//! replayed by value: dry-run intermediates are
//! bounded by the deliberately small sample tables, so plain clones beat
//! the API complexity of sharing them.

use crate::SampleStore;
use reopt_common::hash::FxHasher;
use reopt_common::{FxHashMap, RelSet, TableId};
use reopt_executor::{RowSet, SubtreeCache};
use reopt_plan::{PhysicalPlan, Predicate, Query};
use reopt_storage::{DataVersion, Value};
use std::hash::Hasher;
use std::sync::{Arc, Mutex, MutexGuard};

/// `(relation set, fingerprint)`: within one (query, samples, opts)
/// contract the fingerprint is itself a function of the relation set, so
/// the composite key makes a cross-set hash collision — which would
/// silently replay the wrong rows — structurally impossible. The
/// fingerprint folds in the sample version of every covered table.
type Key = (RelSet, u64);

/// What every handle of one [`SharedSampleRunCache`] shares.
#[derive(Debug, Default)]
struct CacheState {
    /// Subtree output rows over the sample database.
    results: FxHashMap<Key, RowSet>,
    /// Base tables covered by each fingerprint with the sample version it
    /// was computed at, recorded when the fingerprint is computed — what
    /// [`SharedSampleRunCache::retain_current`] checks.
    tables_of: FxHashMap<u64, Vec<(TableId, DataVersion)>>,
}

/// Lifetime counters of the dry runs served through one
/// [`SharedSampleRunCache`]. The cache keeps no tallies of its own: each
/// dry run counts its hits exactly in
/// [`ExecMetrics::cache_hits`](reopt_executor::ExecMetrics::cache_hits)
/// and reports them on its [`crate::Validation`], and whoever owns the
/// cache sums those (the serving layer does so in its metrics registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SampleCacheStats {
    /// Subtrees answered from the cache, across all sharers.
    pub hits: usize,
    /// Subtrees executed fresh, across all sharers.
    pub executed: usize,
    /// Distinct subtree row sets held ([`SharedSampleRunCache::entries`]).
    pub entries: usize,
}

/// The sample dry-run cache (see the module docs): a clonable, thread-safe
/// handle. Clones share one store, so concurrent validations of
/// *different* queries pool their dry-run work — a subtree validated under
/// one template is replayed, not re-executed, when another template embeds
/// it (the fingerprint includes base tables, their sample versions,
/// predicates and join keys, so a hit is exact).
///
/// Locking is per cache operation, not per validation: two sessions
/// validating disjoint plans proceed mostly in parallel, serializing only
/// on the map accesses. The executor counts each hit on the run that made
/// it, so the per-validation counts stay exact under any sharing.
///
/// Each *handle* carries the table versions of the store it was last bound
/// to (copied by `clone`): a session admitted under an older snapshot keeps
/// reading and writing entries of *its* samples while newer sessions read
/// theirs from the same map.
#[derive(Debug, Clone, Default)]
pub struct SharedSampleRunCache {
    inner: Arc<Mutex<CacheState>>,
    /// Handle-local: deliberately outside the mutex (see above). Tables
    /// absent from it (an unbound handle) read as [`DataVersion::ZERO`].
    versions: Arc<FxHashMap<TableId, DataVersion>>,
}

impl SharedSampleRunCache {
    /// Fresh, empty cache, unbound.
    pub fn new() -> Self {
        Self::default()
    }

    /// All map operations are single map inserts/lookups, so a sharer
    /// that panicked mid-operation cannot leave the cache torn: recover
    /// the guard instead of propagating the poison.
    fn lock(&self) -> MutexGuard<'_, CacheState> {
        reopt_common::lock_unpoisoned(&self.inner)
    }

    /// Distinct subtree row sets held, across all sharers.
    pub fn entries(&self) -> usize {
        self.lock().results.len()
    }

    /// Qualify this handle's subsequent fingerprints with `samples`' table
    /// versions: it then reads and writes exactly the entries dry-run over
    /// those samples.
    pub fn bind(&mut self, samples: &SampleStore) {
        self.versions = Arc::clone(samples.table_versions());
    }

    fn version_of(&self, table: TableId) -> DataVersion {
        self.versions
            .get(&table)
            .copied()
            .unwrap_or(DataVersion::ZERO)
    }

    /// Across all sharers, keep only entries every covered table of which
    /// still has the sample version `samples` holds, and drop the rest —
    /// including entries stored by sessions on an older snapshot, which no
    /// session on `samples` could ever read. Entries whose fingerprint was
    /// never sighted via [`SubtreeCache::fingerprint`] are dropped
    /// conservatively. Returns `(kept, dropped)` row sets.
    pub fn retain_current(&self, samples: &SampleStore) -> (usize, usize) {
        let mut g = self.lock();
        let CacheState { results, tables_of } = &mut *g;
        // lint: ordered-ok(a per-entry predicate; visit order is irrelevant)
        tables_of.retain(|_, tables| {
            tables
                .iter()
                .all(|&(t, v)| samples.table_version(t).ok() == Some(v))
        });
        let before = results.len();
        // lint: ordered-ok(a per-entry predicate; visit order is irrelevant)
        results.retain(|k, _| tables_of.contains_key(&k.1));
        let kept = results.len();
        (kept, before - kept)
    }
}

impl SubtreeCache for SharedSampleRunCache {
    fn fingerprint(&mut self, query: &Query, plan: &PhysicalPlan) -> Option<u64> {
        // The logical subtree, then the sample version of each covered
        // relation's table in RelId order.
        let mut h = FxHasher::default();
        h.write_u64(subtree_fingerprint(query, plan));
        for rel in plan.relset().iter() {
            let version = query.table_of(rel).map(|t| self.version_of(t));
            h.write_u64(version.map_or(u64::MAX, |v| v.get()));
        }
        let fp = h.finish();
        // Record the covered tables and versions for `retain_current`.
        // First sighting wins — the fingerprint already folds both in, so
        // later sightings agree.
        self.lock().tables_of.entry(fp).or_insert_with(|| {
            let mut tables: Vec<(TableId, DataVersion)> = plan
                .relset()
                .iter()
                .filter_map(|rel| query.table_of(rel).ok())
                .map(|t| (t, self.version_of(t)))
                .collect();
            tables.sort_unstable();
            tables.dedup();
            tables
        });
        Some(fp)
    }

    fn lookup(&mut self, set: RelSet, fp: u64) -> Option<RowSet> {
        self.lock().results.get(&(set, fp)).cloned()
    }

    fn peek_rows(&mut self, set: RelSet, fp: u64) -> Option<u64> {
        Some(self.lock().results.get(&(set, fp))?.len() as u64)
    }

    fn store(&mut self, set: RelSet, fp: u64, rows: &RowSet) {
        self.lock().results.insert((set, fp), rows.clone());
    }
}

/// Canonical fingerprint of a plan subtree: relation set (with each
/// occurrence's *base table*) + applied local predicates + applied join
/// keys, insensitive to join order, operand orientation and physical
/// operator choice. Including the tables makes the fingerprint meaningful
/// across different queries over one database (see the module docs):
/// relation occurrence `r0` of two unrelated
/// queries may scan different tables, and must then hash differently.
pub fn subtree_fingerprint(query: &Query, plan: &PhysicalPlan) -> u64 {
    let mut h = FxHasher::default();
    let set = plan.relset();
    h.write_u64(set.mask());
    // Per covered relation: its base table, then its local predicates in
    // RelId order (the executor applies every local predicate of a covered
    // relation at its scan).
    for rel in set.iter() {
        h.write_u64(match query.table_of(rel) {
            Ok(t) => t.0 as u64,
            // Unresolvable occurrence: poison the slot so the subtree can
            // never alias one with a known table.
            Err(_) => u64::MAX,
        });
        for p in query.local_predicates(rel) {
            hash_predicate(&mut h, p);
        }
    }
    // Equi-join keys applied anywhere in the subtree, canonically oriented
    // and sorted so the same logical edge set hashes identically whatever
    // tree shape applied it.
    let mut edges: Vec<(u32, u32, u32, u32)> = Vec::new();
    plan.visit(&mut |n| {
        if let PhysicalPlan::Join { keys, .. } = n {
            for (a, b) in keys {
                let ka = (a.rel.0, a.col.0);
                let kb = (b.rel.0, b.col.0);
                let ((r1, c1), (r2, c2)) = if ka <= kb { (ka, kb) } else { (kb, ka) };
                edges.push((r1, c1, r2, c2));
            }
        }
    });
    edges.sort_unstable();
    edges.dedup();
    for (r1, c1, r2, c2) in edges {
        h.write_u32(r1);
        h.write_u32(c1);
        h.write_u32(r2);
        h.write_u32(c2);
    }
    h.finish()
}

fn hash_predicate(h: &mut FxHasher, p: &Predicate) {
    h.write_u32(p.rel.0);
    h.write_u32(p.col.0);
    h.write_u8(match p.op {
        reopt_plan::CmpOp::Eq => 0,
        reopt_plan::CmpOp::Ne => 1,
        reopt_plan::CmpOp::Lt => 2,
        reopt_plan::CmpOp::Le => 3,
        reopt_plan::CmpOp::Gt => 4,
        reopt_plan::CmpOp::Ge => 5,
        reopt_plan::CmpOp::Between => 6,
    });
    hash_value(h, &p.value);
    match &p.value2 {
        Some(v) => hash_value(h, v),
        None => h.write_u8(0xff),
    }
}

fn hash_value(h: &mut FxHasher, v: &Value) {
    match v {
        Value::Int(i) => {
            h.write_u8(0);
            h.write_i64(*i);
        }
        Value::Float(f) => {
            h.write_u8(1);
            h.write_u64(f.to_bits());
        }
        Value::Str(s) => {
            h.write_u8(2);
            h.write(s.as_bytes());
        }
        Value::Null => h.write_u8(3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_common::{ColId, RelId, TableId};
    use reopt_plan::physical::PlanNodeInfo;
    use reopt_plan::query::ColRef;
    use reopt_plan::{AccessPath, JoinAlgo, Predicate, QueryBuilder};

    fn scan(rel: u32) -> PhysicalPlan {
        PhysicalPlan::Scan {
            rel: RelId::new(rel),
            table: TableId::new(rel),
            access: AccessPath::SeqScan,
            info: PlanNodeInfo::default(),
        }
    }

    fn join(algo: JoinAlgo, l: PhysicalPlan, r: PhysicalPlan, a: u32, b: u32) -> PhysicalPlan {
        PhysicalPlan::Join {
            algo,
            left: Box::new(l),
            right: Box::new(r),
            keys: vec![(
                ColRef::new(RelId::new(a), ColId::new(1)),
                ColRef::new(RelId::new(b), ColId::new(1)),
            )],
            info: PlanNodeInfo::default(),
        }
    }

    fn chain_query(k: usize) -> Query {
        let mut qb = QueryBuilder::new();
        let rels: Vec<_> = (0..k).map(|i| qb.add_relation(TableId::from(i))).collect();
        qb.add_predicate(Predicate::eq(rels[0], ColId::new(0), 0i64));
        for w in rels.windows(2) {
            qb.add_join(
                ColRef::new(w[0], ColId::new(1)),
                ColRef::new(w[1], ColId::new(1)),
            );
        }
        qb.build()
    }

    #[test]
    fn fingerprint_ignores_operator_and_orientation() {
        let q = chain_query(2);
        let p1 = join(JoinAlgo::Hash, scan(0), scan(1), 0, 1);
        let p2 = join(JoinAlgo::Merge, scan(1), scan(0), 1, 0);
        assert_eq!(subtree_fingerprint(&q, &p1), subtree_fingerprint(&q, &p2));
    }

    #[test]
    fn fingerprint_ignores_association_order() {
        let q = chain_query(3);
        // ((0 ⋈ 1) ⋈ 2) vs (0 ⋈ (1 ⋈ 2)): same relations, same edges.
        let left_deep = join(
            JoinAlgo::Hash,
            join(JoinAlgo::Hash, scan(0), scan(1), 0, 1),
            scan(2),
            1,
            2,
        );
        let right_deep = join(
            JoinAlgo::Hash,
            scan(0),
            join(JoinAlgo::Hash, scan(1), scan(2), 1, 2),
            0,
            1,
        );
        assert_eq!(
            subtree_fingerprint(&q, &left_deep),
            subtree_fingerprint(&q, &right_deep)
        );
    }

    #[test]
    fn fingerprint_distinguishes_relation_sets_and_edges() {
        let q = chain_query(3);
        let p01 = join(JoinAlgo::Hash, scan(0), scan(1), 0, 1);
        let p12 = join(JoinAlgo::Hash, scan(1), scan(2), 1, 2);
        assert_ne!(subtree_fingerprint(&q, &p01), subtree_fingerprint(&q, &p12));
        assert_ne!(
            subtree_fingerprint(&q, &scan(0)),
            subtree_fingerprint(&q, &scan(1))
        );
    }

    #[test]
    fn fingerprint_sees_base_tables() {
        // Same relation ids and shape, different base tables ⇒ different
        // fingerprint — required for cross-query cache sharing.
        let mk = |t0: u32, t1: u32| {
            let mut qb = QueryBuilder::new();
            let a = qb.add_relation(TableId::new(t0));
            let b = qb.add_relation(TableId::new(t1));
            qb.add_join(ColRef::new(a, ColId::new(1)), ColRef::new(b, ColId::new(1)));
            qb.build()
        };
        let p = join(JoinAlgo::Hash, scan(0), scan(1), 0, 1);
        assert_ne!(
            subtree_fingerprint(&mk(0, 1), &p),
            subtree_fingerprint(&mk(0, 2), &p)
        );
        // Same tables in two distinct Query values ⇒ same fingerprint:
        // the cross-query sharing contract.
        assert_eq!(
            subtree_fingerprint(&mk(0, 1), &p),
            subtree_fingerprint(&mk(0, 1), &p)
        );
    }

    #[test]
    fn shared_cache_pools_results_across_clones() {
        use reopt_executor::SubtreeCache as _;
        let q = chain_query(2);
        let p = join(JoinAlgo::Hash, scan(0), scan(1), 0, 1);
        let shared = SharedSampleRunCache::new();
        let mut a = shared.clone();
        let mut b = shared.clone();
        let fp = a.fingerprint(&q, &p).unwrap();
        let set = p.relset();
        assert!(a.lookup(set, fp).is_none());
        a.store(set, fp, &RowSet::single(RelId::new(0), vec![0, 1]));
        // The clone sees the store immediately.
        assert!(b.lookup(set, fp).is_some());
        assert_eq!(shared.entries(), 1);
    }

    /// `k` one-column tables of 1000 rows, ids `0..k`.
    fn tables(k: usize) -> reopt_storage::Database {
        use reopt_storage::{Column, ColumnDef, Database, LogicalType, Table, TableSchema};
        let mut db = Database::new();
        for i in 0..k {
            db.add_table_with(|id| {
                let schema = TableSchema::new(vec![ColumnDef::new("k", LogicalType::Int)])?;
                let data = Column::from_i64(LogicalType::Int, (0..1000).collect());
                Table::new(id, format!("t{i}"), schema, vec![data])
            })
            .unwrap();
        }
        db
    }

    /// A store drawn over `k` tables, and one in which table `redrawn`
    /// was refreshed after an append to it.
    fn two_generations(k: usize, redrawn: u32) -> (SampleStore, SampleStore) {
        let mut db = tables(k);
        let old = SampleStore::build(&db, crate::SampleConfig::default()).unwrap();
        let t = TableId::new(redrawn);
        db.append_rows(t, &[vec![Value::Int(7)]]).unwrap();
        let new = old.refresh_tables(&db, &[t]).unwrap();
        (old, new)
    }

    #[test]
    fn shared_cache_handles_isolate_data_versions() {
        use reopt_executor::SubtreeCache as _;
        let q = chain_query(2);
        let p = join(JoinAlgo::Hash, scan(0), scan(1), 0, 1);
        let (old, new) = two_generations(2, 1);
        let shared = SharedSampleRunCache::new();
        let mut old_session = shared.clone();
        let mut new_session = shared.clone();
        old_session.bind(&old);
        new_session.bind(&new);
        let old_fp = old_session.fingerprint(&q, &p).unwrap();
        let new_fp = new_session.fingerprint(&q, &p).unwrap();
        assert_ne!(old_fp, new_fp, "table 1's sample was redrawn");
        let set = p.relset();
        old_session.store(set, old_fp, &RowSet::single(RelId::new(0), vec![0, 1]));
        // A session on the redrawn samples sees nothing from before…
        assert!(new_session.lookup(set, new_fp).is_none());
        // …while the old-snapshot session keeps replaying its own entries,
        // even though both share one underlying cache.
        assert!(old_session.lookup(set, old_fp).is_some());
        assert_eq!(shared.entries(), 1);
        // A subtree over the untouched table alone is the same entry in
        // both generations.
        assert_eq!(
            old_session.fingerprint(&q, &scan(0)),
            new_session.fingerprint(&q, &scan(0))
        );
    }

    #[test]
    fn retain_current_keeps_disjoint_entries_and_drops_touched_ones() {
        use reopt_executor::SubtreeCache as _;
        let q = chain_query(3);
        let p01 = join(JoinAlgo::Hash, scan(0), scan(1), 0, 1);
        let p12 = join(JoinAlgo::Hash, scan(1), scan(2), 1, 2);
        let (old, new) = two_generations(3, 2);
        let shared = SharedSampleRunCache::new();
        let mut h = shared.clone();
        h.bind(&old);
        let fp01 = h.fingerprint(&q, &p01).unwrap();
        let fp12 = h.fingerprint(&q, &p12).unwrap();
        h.store(p01.relset(), fp01, &RowSet::single(RelId::new(0), vec![0]));
        h.store(p12.relset(), fp12, &RowSet::single(RelId::new(1), vec![1]));
        // Table 2 was refreshed: the {1,2} entry dies, the {0,1} stays.
        assert_eq!(shared.retain_current(&new), (1, 1));
        let mut current = shared.clone();
        current.bind(&new);
        assert_eq!(current.fingerprint(&q, &p01), Some(fp01));
        assert!(current.lookup(p01.relset(), fp01).is_some());
        let fresh12 = current.fingerprint(&q, &p12).unwrap();
        assert_ne!(fresh12, fp12);
        assert!(current.lookup(p12.relset(), fresh12).is_none());
        // A session still bound to the old samples no longer finds the
        // dropped entry; what it stores again is unreachable from the new
        // samples and goes at the next retain.
        assert!(h.lookup(p12.relset(), fp12).is_none());
        h.store(p12.relset(), fp12, &RowSet::single(RelId::new(1), vec![1]));
        assert_eq!(shared.entries(), 2);
        assert_eq!(shared.retain_current(&new), (1, 1));
        assert_eq!(shared.entries(), 1);
        // With nothing redrawn, a retain keeps everything.
        assert_eq!(shared.retain_current(&new), (1, 0));
    }

    #[test]
    fn retain_current_drops_unsighted_fingerprints() {
        // An entry stored without ever passing through `fingerprint` has
        // no recorded table set and must be dropped conservatively.
        use reopt_executor::SubtreeCache as _;
        let (_, new) = two_generations(1, 0);
        let mut cache = SharedSampleRunCache::new();
        let set = RelSet::single(RelId::new(0));
        cache.store(set, 0xdead, &RowSet::single(RelId::new(0), vec![0]));
        assert_eq!(cache.retain_current(&new), (0, 1));
    }

    #[test]
    fn fingerprint_sees_local_predicates() {
        // Same shape, different constant ⇒ different fingerprint.
        let mk = |c: i64| {
            let mut qb = QueryBuilder::new();
            let a = qb.add_relation(TableId::new(0));
            let b = qb.add_relation(TableId::new(1));
            qb.add_predicate(Predicate::eq(a, ColId::new(0), c));
            qb.add_join(ColRef::new(a, ColId::new(1)), ColRef::new(b, ColId::new(1)));
            qb.build()
        };
        let (qa, qb) = (mk(0), mk(1));
        let p = join(JoinAlgo::Hash, scan(0), scan(1), 0, 1);
        assert_ne!(subtree_fingerprint(&qa, &p), subtree_fingerprint(&qb, &p));
    }
}
