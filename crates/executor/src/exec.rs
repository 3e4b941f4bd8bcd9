//! Plan execution.
//!
//! # One engine: columnar (batch-at-a-time) operators
//!
//! The hot operators evaluate over [`reopt_storage::batch::ColumnBatch`]
//! windows: scan filters run monomorphized comparison kernels over a
//! selection vector ([`BATCH_SIZE`] rows at a time, scratch buffers
//! recycled through the thread-local pool), hash joins counting-sort build
//! rows into a bucket-packed table (contiguous runs per bucket, zero
//! per-key allocation), and aggregation assigns group ids in one pass then
//! updates accumulators column-at-a-time. Selection vectors keep ascending
//! row order, the counting sort is stable so each bucket run iterates in
//! ascending build-row order, and per-group accumulator updates happen in
//! ascending row order — so `RowSet`s, `node_cards`, Δ, trajectories and
//! float aggregates are **bit-identical to the row-at-a-time oracle** in
//! [`crate::reference`], which the differential suites compare against
//! and no option can select. Materialization back to [`RowSet`] happens
//! only at operator boundaries (the pipeline breakers), which is exactly
//! where `CheckpointStore`, `SubtreeCache` and the observed-cardinality
//! trace live.
//!
//! The index-nested-loop join is a batch operator too. It takes its outer
//! input in windows of [`BATCH_SIZE`] rows, and each window runs in two
//! phases. First every non-NULL outer key of the window is looked up in
//! the inner table's index, before any candidate is touched, so the
//! independent lookups overlap their cache misses. Then the posting lists
//! expand, in outer-row then posting order, into candidate windows of at
//! most `BATCH_SIZE` paired (outer position, inner row) selection vectors
//! — a list that overflows one continues in the next — and each candidate
//! window is compacted in place, column at a time, by every residual key
//! equality and then every inner local predicate. The intermediate-row cap
//! is checked once per candidate window, so a join overshoots it by at
//! most one window before it aborts.
//!
//! # Intra-query parallelism
//!
//! [`ExecOpts::threads`] turns on partition-parallel execution of the two
//! hot operators: sequential scans split the row space into contiguous
//! chunks (one `std::thread::scope` worker per chunk, outputs concatenated
//! in chunk order), and hash joins hash-partition both inputs on the join
//! key — per-partition build tables constructed in parallel, then the
//! probe side swept in contiguous chunk-parallel left-row order. Both
//! strategies are **bit-identical to serial execution**: every right row
//! with a given key lands in one partition, so each partition bucket
//! equals the serial bucket for that key, and concatenating probe-chunk
//! outputs in chunk order reproduces the serial `(left, right)` emission
//! sequence exactly — and with it the `RowSet` contents, `node_cards`
//! traces, and every downstream validated cardinality.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::agg::{aggregate, AggOutput};
use crate::metrics::ExecMetrics;
use crate::rowset::RowSet;
use reopt_common::hash::FxHasher;
use reopt_common::{ColId, Error, RelId, RelSet, Result};
use reopt_plan::query::ColRef;
use reopt_plan::{AccessPath, CmpOp, JoinAlgo, PhysicalPlan, Predicate, Query};
use reopt_storage::batch::{take_u32_buffer, ColumnBatch, BATCH_SIZE};
use reopt_storage::value::NULL_SENTINEL;
use reopt_storage::{Database, Table};
use reopt_telemetry::{names, Tracer};

/// Below this many input rows a scan or join runs serially even when
/// `threads > 1`: spawning workers costs more than the operator itself,
/// and since the parallel paths are bit-identical to serial, thresholding
/// cannot change any result.
const PARALLEL_MIN_ROWS: usize = 4096;

/// Executor limits and parallelism.
#[derive(Debug, Clone)]
pub struct ExecOpts {
    /// Abort when any single operator output exceeds this many rows —
    /// a safety valve against truly pathological plans (the OTT's bad plans
    /// are *meant* to be painful, but not to OOM the process). Enforced
    /// incrementally inside the join probe loops, not just on the
    /// materialized output, so a cross-product-ish join aborts before it
    /// allocates the result it is being capped against.
    pub max_intermediate_rows: u64,
    /// Worker threads for partition-parallel scans and hash joins.
    /// `0` (the default) resolves to the machine's available parallelism
    /// (overridable via the `REOPT_THREADS` environment variable); `1` is
    /// the fully serial executor. Results are bit-identical at every
    /// setting (see the module docs).
    pub threads: usize,
    /// Span recorder threaded through the operator recursion. The default
    /// (disabled) tracer is a true no-op — no clock reads, no allocation —
    /// and recording can never influence plan choice or row output, so the
    /// executor stays bit-identical with tracing on or off.
    pub tracer: Tracer,
}

impl Default for ExecOpts {
    fn default() -> Self {
        ExecOpts {
            max_intermediate_rows: 100_000_000,
            threads: 0,
            tracer: Tracer::disabled(),
        }
    }
}

impl ExecOpts {
    /// Default options pinned to one thread: no worker is ever spawned.
    pub fn serial() -> Self {
        ExecOpts {
            threads: 1,
            ..Default::default()
        }
    }

    /// Default options with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        ExecOpts {
            threads,
            ..Default::default()
        }
    }

    /// The worker count this executor will actually use: `threads` if set,
    /// else `REOPT_THREADS`, else `std::thread::available_parallelism()`.
    pub fn effective_threads(&self) -> usize {
        if self.threads != 0 {
            return self.threads;
        }
        default_threads()
    }
}

/// The auto-resolved thread count used when [`ExecOpts::threads`] is 0:
/// the `REOPT_THREADS` environment variable if set and ≥ 1, otherwise the
/// machine's available parallelism (1 if that cannot be determined).
/// Resolved once per process — an executor is built per sample dry run,
/// and the probe costs microseconds.
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("REOPT_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Result of [`Executor::run_pipeline`]: the join result plus the observed
/// cardinality of every plan node — what the sampling validator reads off
/// a "dry run" over the sample tables.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Final join result.
    pub rows: RowSet,
    /// (relation set, output rows) for every node, post-order. For cached
    /// subtrees the recorded (not re-executed) cardinalities are spliced
    /// in, so the trace is identical to an uncached run's.
    pub node_cards: Vec<(RelSet, u64)>,
    /// Execution counters. Cache hits produce no scan/probe/output work;
    /// each one counts in [`ExecMetrics::cache_hits`], so
    /// `node_cards.len() - cache_hits` nodes executed fresh.
    pub metrics: ExecMetrics,
}

/// A cross-run store of executed subtree results, consulted by
/// [`Executor::run_pipeline`].
///
/// The executor asks the cache for a *canonical fingerprint* of each plan
/// node (the implementor decides what "same subtree" means — e.g. relation
/// set + applied predicates + join keys, independent of join order and
/// physical operators). On a `lookup` hit the node's own work (scan or
/// join matching) is skipped and the stored row set stands in; the node's
/// children are still traversed so the run's cardinality trace follows the
/// *current* plan's structure — a canonical hit may come from a
/// differently shaped subtree of an earlier run, whose internal
/// decomposition must not leak into this run's trace.
pub trait SubtreeCache {
    /// Canonical fingerprint for `plan`; `None` exempts the node (and only
    /// the node — its children are still offered) from caching. The
    /// covered relation set is passed alongside the fingerprint on every
    /// lookup/store, so implementations can key on `(set, fingerprint)`
    /// and rule out cross-set hash collisions structurally.
    fn fingerprint(&mut self, query: &Query, plan: &PhysicalPlan) -> Option<u64>;

    /// The cached output rows for `(set, fp)`, if any.
    fn lookup(&mut self, set: RelSet, fp: u64) -> Option<RowSet>;

    /// Cardinality-only lookup: the cached row *count* for `(set, fp)`,
    /// without materializing the rows. Used for trace entries under an
    /// ancestor that already hit, where the rows are never consumed.
    fn peek_rows(&mut self, set: RelSet, fp: u64) -> Option<u64> {
        self.lookup(set, fp).map(|r| r.len() as u64)
    }

    /// Record a freshly executed node's output rows.
    fn store(&mut self, set: RelSet, fp: u64, rows: &RowSet);
}

/// Result of running a full query.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Cardinality of the join result (before aggregation).
    pub join_rows: u64,
    /// Aggregate output, when the query has an aggregate stage.
    pub agg: Option<AggOutput>,
    /// Execution counters.
    pub metrics: ExecMetrics,
}

/// A plan executor bound to a database.
#[derive(Debug)]
pub struct Executor<'a> {
    db: &'a Database,
    opts: ExecOpts,
    /// [`ExecOpts::effective_threads`] resolved at construction.
    threads: usize,
}

/// Convenience: execute `plan` for `query` against `db` with default options.
pub fn execute_plan(db: &Database, query: &Query, plan: &PhysicalPlan) -> Result<QueryOutput> {
    Executor::new(db).run(query, plan)
}

/// Convenience: execute and return only the join cardinality.
pub fn execute_query(db: &Database, query: &Query, plan: &PhysicalPlan) -> Result<u64> {
    Ok(execute_plan(db, query, plan)?.join_rows)
}

impl<'a> Executor<'a> {
    /// Executor with default options.
    pub fn new(db: &'a Database) -> Self {
        Self::with_opts(db, ExecOpts::default())
    }

    /// Executor with explicit options.
    pub fn with_opts(db: &'a Database, opts: ExecOpts) -> Self {
        let threads = opts.effective_threads();
        Executor { db, opts, threads }
    }

    /// Execute the full query: join pipeline plus optional aggregation.
    pub fn run(&self, query: &Query, plan: &PhysicalPlan) -> Result<QueryOutput> {
        let start = reopt_common::Stopwatch::start();
        let TracedRun {
            rows, mut metrics, ..
        } = self.run_pipeline(query, plan, None)?;
        let agg = self.aggregate(query, &rows, &mut metrics)?;
        metrics.elapsed = start.elapsed();
        Ok(QueryOutput {
            join_rows: rows.len() as u64,
            agg,
            metrics,
        })
    }

    /// The query's aggregate stage over its join output `rows` (`None`
    /// when the query has none), recorded as an `exec.aggregate` span.
    pub fn aggregate(
        &self,
        query: &Query,
        rows: &RowSet,
        metrics: &mut ExecMetrics,
    ) -> Result<Option<AggOutput>> {
        let Some(spec) = &query.aggregate else {
            return Ok(None);
        };
        let mut span = self.opts.tracer.span(names::EXEC_AGGREGATE);
        let agg = aggregate(self.db, query, rows, spec, metrics)?;
        span.attr_u64("groups", agg.num_groups() as u64);
        Ok(Some(agg))
    }

    /// Execute the join pipeline, recording every node's output
    /// cardinality. With a `cache`, every subtree it already holds is
    /// skipped and freshly executed subtrees are stored back — the
    /// incremental dry run of cross-round re-optimization and the splice
    /// of mid-query resumption — so successive runs over structurally
    /// overlapping plans only pay for what changed.
    pub fn run_pipeline(
        &self,
        query: &Query,
        plan: &PhysicalPlan,
        cache: Option<&mut dyn SubtreeCache>,
    ) -> Result<TracedRun> {
        let start = reopt_common::Stopwatch::start();
        let mut state = ExecState {
            metrics: ExecMetrics::default(),
            trace: Vec::new(),
            cache,
            tracer: self.opts.tracer.clone(),
        };
        let rows = self.exec_node(query, plan, &mut state)?;
        state.metrics.elapsed = start.elapsed();
        Ok(TracedRun {
            rows,
            node_cards: state.trace,
            metrics: state.metrics,
        })
    }

    fn check_cap(&self, rows: u64) -> Result<()> {
        if rows > self.opts.max_intermediate_rows {
            return Err(Error::invalid(format!(
                "intermediate result of {rows} rows exceeds cap {}",
                self.opts.max_intermediate_rows
            )));
        }
        Ok(())
    }

    fn exec_node(
        &self,
        query: &Query,
        plan: &PhysicalPlan,
        state: &mut ExecState<'_>,
    ) -> Result<RowSet> {
        self.exec_node_inner(query, plan, state, true)?
            .ok_or_else(|| Error::internal("executor produced no rows for a rows-requested node"))
    }

    /// Operator recursion. `need_rows: false` means the caller only wants
    /// this subtree's trace entries (its own result sits in an ancestor's
    /// cache hit) — a cached node can then answer with a row *count* and
    /// skip materializing anything.
    fn exec_node_inner(
        &self,
        query: &Query,
        plan: &PhysicalPlan,
        state: &mut ExecState<'_>,
        need_rows: bool,
    ) -> Result<Option<RowSet>> {
        // One span per operator. With a disabled tracer all of this is
        // branch-on-None and costs nothing; recording re-parents
        // `state.tracer` so child operators nest under this span (restored
        // at both successful exits; error paths abort the whole run).
        let mut span = state.tracer.span(names::EXEC_OPERATOR);
        if span.is_recording() {
            span.attr_str("op", op_label(plan));
            span.attr_u64("node", plan.relset().mask());
            span.attr_display("rels", &plan.relset());
        }
        let child = state.tracer.under(&span);
        let saved = std::mem::replace(&mut state.tracer, child);
        // Cached run: a canonical-fingerprint hit replaces this node's own
        // scan/join work with the stored rows. Children are *still*
        // traversed — their (possibly cached) results feed the trace in
        // current-plan order, which a hit from a differently shaped
        // earlier subtree cannot provide.
        let fp = match state.cache.as_mut() {
            Some(c) => c.fingerprint(query, plan),
            None => None,
        };
        if let Some(fp) = fp {
            let set = plan.relset();
            // `fp` can only be Some when a cache is bound; losing it here
            // would be an executor bug, which must surface as a structured
            // error rather than a hot-path panic.
            let cache = state.cache.as_mut().ok_or_else(cache_vanished)?;
            let hit = if need_rows {
                cache.lookup(set, fp).map(|r| (r.len() as u64, Some(r)))
            } else {
                cache.peek_rows(set, fp).map(|n| (n, None))
            };
            if let Some((count, rows)) = hit {
                state.metrics.cache_hits += 1;
                if let PhysicalPlan::Join {
                    algo, left, right, ..
                } = plan
                {
                    self.exec_node_inner(query, left, state, false)?;
                    // The index-nested inner is probed, never planned as a
                    // standalone node; it has no trace entry to produce.
                    if *algo != JoinAlgo::IndexNested {
                        self.exec_node_inner(query, right, state, false)?;
                    }
                }
                state.trace.push((plan.relset(), count));
                // A replayed result must respect *this* run's cap, which
                // may be tighter than the one in force when it was stored.
                self.check_cap(count)?;
                if span.is_recording() {
                    span.attr_bool("cache_hit", true);
                    span.attr_u64("rows", count);
                }
                state.tracer = saved;
                return Ok(rows);
            }
        }
        let out = match plan {
            PhysicalPlan::Scan {
                rel, table, access, ..
            } => self.exec_scan(query, *rel, *table, *access, &mut state.metrics)?,
            PhysicalPlan::Join {
                algo,
                left,
                right,
                keys,
                ..
            } => match algo {
                JoinAlgo::IndexNested => {
                    let outer = self.exec_node(query, left, state)?;
                    self.exec_index_nested(query, &outer, right, keys, &mut state.metrics)?
                }
                _ => {
                    let l = self.exec_node(query, left, state)?;
                    let r = self.exec_node(query, right, state)?;
                    match algo {
                        JoinAlgo::Hash => {
                            self.exec_hash_join(query, &l, &r, keys, &mut state.metrics)?
                        }
                        JoinAlgo::Merge => self.exec_merge_join(query, &l, &r, keys)?,
                        JoinAlgo::NestedLoop => self.exec_nested_loop(query, &l, &r, keys)?,
                        JoinAlgo::IndexNested => {
                            // Handled by the arm above when well-formed; a
                            // plan that lands here is malformed (e.g. a
                            // future transformation emitted an index-nested
                            // join in a generic position) and must fail the
                            // query, not panic the process — in a serving
                            // context a panicked leader burns every
                            // coalesced session on its flight.
                            return Err(Error::internal(
                                "index-nested-loop join reached the generic join path; \
                                 the physical plan is malformed",
                            ));
                        }
                    }
                }
            },
        };
        state.metrics.record_output(out.len() as u64);
        state.trace.push((plan.relset(), out.len() as u64));
        self.check_cap(out.len() as u64)?;
        if let Some(fp) = fp {
            let cache = state.cache.as_mut().ok_or_else(cache_vanished)?;
            cache.store(plan.relset(), fp, &out);
        }
        if span.is_recording() {
            span.attr_u64("rows", out.len() as u64);
            span.attr_u64("batches", state.metrics.batches_processed);
        }
        state.tracer = saved;
        Ok(Some(out))
    }

    fn exec_scan(
        &self,
        query: &Query,
        rel: RelId,
        table_id: reopt_common::TableId,
        access: AccessPath,
        metrics: &mut ExecMetrics,
    ) -> Result<RowSet> {
        let table = self.db.table(table_id)?;
        let preds = query.local_predicates(rel);
        let compiled = compile_predicates(table, preds)?;

        let rows: Vec<u32> = match access {
            AccessPath::SeqScan => {
                let n = table.row_count();
                let threads = self.threads;
                if threads > 1 && n >= PARALLEL_MIN_ROWS {
                    self.parallel_seq_scan(n as u32, &compiled, threads, metrics)?
                } else {
                    metrics.rows_scanned += n as u64;
                    let mut out = Vec::new();
                    filter_range(&compiled, 0, n as u32, &mut out, metrics);
                    out
                }
            }
            AccessPath::IndexScan { col } => {
                // Find the driving equality predicate on `col`.
                let driver = compiled
                    .iter()
                    .position(|p| p.col == col && p.op == CmpOp::Eq)
                    .ok_or_else(|| {
                        Error::internal(format!(
                            "index scan on {rel}.{col} without an equality predicate"
                        ))
                    })?;
                let index = table.index(col).ok_or_else(|| {
                    Error::internal(format!("index scan on unindexed column {col}"))
                })?;
                metrics.index_probes += 1;
                let candidates: &[u32] = match compiled[driver].c1 {
                    Some(v) => index.probe(v),
                    None => &[], // constant absent from dictionary
                };
                let mut out = Vec::with_capacity(candidates.len());
                'cand: for &row in candidates {
                    for (i, p) in compiled.iter().enumerate() {
                        if i != driver && !p.matches(row) {
                            continue 'cand;
                        }
                    }
                    out.push(row);
                }
                out
            }
        };
        Ok(RowSet::single(rel, rows))
    }

    /// Gather the raw key values for `key` columns over a row set.
    fn gather_keys(&self, query: &Query, rows: &RowSet, cols: &[ColRef]) -> Result<Vec<Vec<i64>>> {
        let mut out = Vec::with_capacity(cols.len());
        for c in cols {
            let table = self.db.table(query.table_of(c.rel)?)?;
            let data = table.column(c.col)?.data();
            let ids = rows.rowids(c.rel)?;
            out.push(ids.iter().map(|&r| data[r as usize]).collect());
        }
        Ok(out)
    }

    pub(crate) fn split_keys(
        keys: &[(ColRef, ColRef)],
        left: &RowSet,
    ) -> (Vec<ColRef>, Vec<ColRef>) {
        // Plan keys are (left-input column, right-input column) by
        // construction, but be robust to orientation.
        let lset = left.relset();
        let mut lcols = Vec::with_capacity(keys.len());
        let mut rcols = Vec::with_capacity(keys.len());
        for (a, b) in keys {
            if lset.contains(a.rel) {
                lcols.push(*a);
                rcols.push(*b);
            } else {
                lcols.push(*b);
                rcols.push(*a);
            }
        }
        (lcols, rcols)
    }

    fn exec_hash_join(
        &self,
        query: &Query,
        left: &RowSet,
        right: &RowSet,
        keys: &[(ColRef, ColRef)],
        metrics: &mut ExecMetrics,
    ) -> Result<RowSet> {
        if keys.is_empty() {
            return self.exec_nested_loop(query, left, right, keys);
        }
        let (lcols, rcols) = Self::split_keys(keys, left);
        let lkeys = self.gather_keys(query, left, &lcols)?;
        let rkeys = self.gather_keys(query, right, &rcols)?;

        let threads = self.threads;
        let pairs = if threads > 1 && left.len() + right.len() >= PARALLEL_MIN_ROWS {
            self.hash_join_partitioned(&lkeys, &rkeys, threads, metrics)?
        } else {
            self.hash_join_packed(&lkeys, &rkeys, metrics)?
        };
        RowSet::combine(left, right, &pairs)
    }

    /// Serial hash join: one [`PackedTable`] over the build side, probed
    /// in ascending left-row order, so pairs come out in ascending
    /// `(left, right)` lexicographic order. The intermediate-row cap is
    /// checked after each probe row's emissions — overshoot is bounded by
    /// one bucket, which is at most `right.len()` and therefore itself
    /// already under the cap.
    fn hash_join_packed(
        &self,
        lkeys: &[Vec<i64>],
        rkeys: &[Vec<i64>],
        metrics: &mut ExecMetrics,
    ) -> Result<Vec<(u32, u32)>> {
        let cap = self.opts.max_intermediate_rows;
        let table = PackedTable::build(rkeys, None);
        let n = lkeys.first().map_or(0, Vec::len);
        metrics.batches_processed += (n as u64).div_ceil(BATCH_SIZE as u64);
        metrics.batch_rows += n as u64;
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for i in 0..n {
            if table.probe_into(lkeys, i, &mut pairs) > 0 {
                check_probe_cap(pairs.len() as u64, cap)?;
            }
        }
        Ok(pairs)
    }

    /// Partitioned parallel hash join, two phases:
    ///
    /// 1. **Build** — the right input is hash-partitioned on the join key;
    ///    worker `p` builds the hash table of the rows that hash to `p`,
    ///    scanning them in ascending row order. Every right row with a
    ///    given key lands in the same partition, so each bucket is
    ///    *identical* to the serial build's bucket for that key.
    /// 2. **Probe** — the left input is split into contiguous chunks, one
    ///    worker each; every row routes to its key's partition table (the
    ///    same hash) and emits matches in bucket order.
    ///
    /// Concatenating the chunk outputs in chunk order therefore reproduces
    /// the serial probe's `(left, right)` emission sequence exactly — no
    /// sort, no tie-breaking, bit-identical results.
    ///
    /// The intermediate-row cap is enforced *while probing* through a
    /// shared atomic emission counter, so a cross-product-ish join aborts
    /// long before its output materializes.
    fn hash_join_partitioned(
        &self,
        lkeys: &[Vec<i64>],
        rkeys: &[Vec<i64>],
        threads: usize,
        metrics: &mut ExecMetrics,
    ) -> Result<Vec<(u32, u32)>> {
        let cap = self.opts.max_intermediate_rows;
        let parts = threads as u64;
        let lpart = partition_assignment(lkeys, parts);
        let rpart = partition_assignment(rkeys, parts);

        // Bucket the build side once — O(|R|) total, ascending row order
        // within each bucket — so each build worker touches only its own
        // partition's rows instead of filtering the whole input.
        let mut rbuckets: Vec<Vec<u32>> = vec![Vec::new(); threads];
        for (j, &part) in rpart.iter().enumerate() {
            if part != NO_PARTITION {
                rbuckets[part as usize].push(j as u32);
            }
        }

        // Phase 1: per-partition build, one worker per partition. Each
        // bucket lists ascending right rows, so a table over it probes in
        // the serial table's order.
        let tables: Vec<PackedTable<'_>> = std::thread::scope(|s| {
            let handles: Vec<_> = rbuckets
                .iter()
                .map(|bucket| s.spawn(move || Ok(PackedTable::build(rkeys, Some(bucket)))))
                .collect();
            handles
                .into_iter()
                .map(join_worker)
                .collect::<Result<Vec<_>>>()
        })?;

        // Phase 2: chunk-parallel probe in left-row order.
        let emitted = AtomicU64::new(0);
        let n = lpart.len();
        let chunk = n.div_ceil(threads).max(1);
        let chunks: Vec<(Vec<(u32, u32)>, ExecMetrics)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .step_by(chunk)
                .map(|start| {
                    let end = (start + chunk).min(n);
                    let (tables, lpart, emitted) = (&tables, &lpart, &emitted);
                    s.spawn(move || -> Result<(Vec<(u32, u32)>, ExecMetrics)> {
                        let local = ExecMetrics {
                            parallel_workers: 1,
                            batches_processed: ((end - start) as u64).div_ceil(BATCH_SIZE as u64),
                            batch_rows: (end - start) as u64,
                            ..Default::default()
                        };
                        let mut pairs: Vec<(u32, u32)> = Vec::new();
                        for (i, &p) in (start..end).zip(&lpart[start..end]) {
                            if p == NO_PARTITION {
                                continue;
                            }
                            let emitted_here = tables[p as usize].probe_into(lkeys, i, &mut pairs);
                            if emitted_here > 0 {
                                // lint: relaxed-ok(fetch_add RMWs on one atomic are totally ordered, so the running total is exact regardless of interleaving; the cap check needs only the count, no other memory)
                                let total = emitted.fetch_add(emitted_here, Ordering::Relaxed)
                                    + emitted_here;
                                check_probe_cap(total, cap)?;
                            }
                        }
                        Ok((pairs, local))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(join_worker)
                .collect::<Result<Vec<_>>>()
        })?;

        metrics.parallel_ops += 1;
        metrics.parallel_workers += threads as u64; // build workers
        let mut pairs: Vec<(u32, u32)> =
            Vec::with_capacity(chunks.iter().map(|(c, _)| c.len()).sum());
        for (part, local) in &chunks {
            // Chunk order = ascending left row = serial emission order.
            // The worker counters are all sums, so this fold is
            // associative and order-blind.
            metrics.merge_worker(local);
            pairs.extend_from_slice(part);
        }
        Ok(pairs)
    }

    /// Partition-parallel sequential scan: contiguous row chunks, one
    /// worker each, outputs concatenated in chunk order — identical to the
    /// serial scan's ascending row order.
    fn parallel_seq_scan(
        &self,
        n: u32,
        compiled: &[CompiledPred<'_>],
        threads: usize,
        metrics: &mut ExecMetrics,
    ) -> Result<Vec<u32>> {
        let chunk = (n as usize).div_ceil(threads).max(1);
        let results: Vec<(Vec<u32>, ExecMetrics)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n as usize)
                .step_by(chunk)
                .map(|start| {
                    let end = (start + chunk).min(n as usize);
                    s.spawn(move || {
                        let mut local = ExecMetrics {
                            rows_scanned: (end - start) as u64,
                            parallel_workers: 1,
                            ..Default::default()
                        };
                        let mut out = Vec::new();
                        filter_range(compiled, start as u32, end as u32, &mut out, &mut local);
                        Ok((out, local))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(join_worker)
                .collect::<Result<Vec<_>>>()
        })?;
        metrics.parallel_ops += 1;
        let mut rows = Vec::new();
        for (part, local) in &results {
            metrics.merge_worker(local);
            rows.extend_from_slice(part);
        }
        Ok(rows)
    }

    fn exec_merge_join(
        &self,
        query: &Query,
        left: &RowSet,
        right: &RowSet,
        keys: &[(ColRef, ColRef)],
    ) -> Result<RowSet> {
        if keys.is_empty() {
            return self.exec_nested_loop(query, left, right, keys);
        }
        let cap = self.opts.max_intermediate_rows;
        let (lcols, rcols) = Self::split_keys(keys, left);
        let lkeys = self.gather_keys(query, left, &lcols)?;
        let rkeys = self.gather_keys(query, right, &rcols)?;

        let non_null = |cols: &[Vec<i64>], i: usize| cols.iter().all(|c| c[i] != NULL_SENTINEL);
        // Lexicographic order of row `i`'s key in `a` against row `j`'s in
        // `b`, compared column by column in place.
        let key_cmp = |a: &[Vec<i64>], i: u32, b: &[Vec<i64>], j: u32| {
            a.iter()
                .zip(b)
                .map(|(ca, cb)| ca[i as usize].cmp(&cb[j as usize]))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        };

        let mut lidx: Vec<u32> = (0..left.len() as u32)
            .filter(|&i| non_null(&lkeys, i as usize))
            .collect();
        let mut ridx: Vec<u32> = (0..right.len() as u32)
            .filter(|&j| non_null(&rkeys, j as usize))
            .collect();
        // Stable sorts: equal keys keep input order.
        lidx.sort_by(|&x, &y| key_cmp(&lkeys, x, &lkeys, y));
        ridx.sort_by(|&x, &y| key_cmp(&rkeys, x, &rkeys, y));

        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < lidx.len() && j < ridx.len() {
            match key_cmp(&lkeys, lidx[i], &rkeys, ridx[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    // Extent of the equal runs on both sides. Plain
                    // bounded walks: no iterator-`last()` to unwrap, and
                    // correct when a run touches the end of its input.
                    let mut i_end = i + 1;
                    while i_end < lidx.len()
                        && key_cmp(&lkeys, lidx[i_end], &lkeys, lidx[i]).is_eq()
                    {
                        i_end += 1;
                    }
                    let mut j_end = j + 1;
                    while j_end < ridx.len()
                        && key_cmp(&rkeys, ridx[j_end], &rkeys, ridx[j]).is_eq()
                    {
                        j_end += 1;
                    }
                    // An equal-run cross product can blow up on its own
                    // (every key identical ⇒ |L|×|R| pairs): enforce the
                    // cap per emission, not after the run completes.
                    for &li in &lidx[i..i_end] {
                        for &rj in &ridx[j..j_end] {
                            pairs.push((li, rj));
                            check_probe_cap(pairs.len() as u64, cap)?;
                        }
                    }
                    i = i_end;
                    j = j_end;
                }
            }
        }
        RowSet::combine(left, right, &pairs)
    }

    fn exec_nested_loop(
        &self,
        query: &Query,
        left: &RowSet,
        right: &RowSet,
        keys: &[(ColRef, ColRef)],
    ) -> Result<RowSet> {
        let cap = self.opts.max_intermediate_rows;
        let (lcols, rcols) = Self::split_keys(keys, left);
        let lkeys = self.gather_keys(query, left, &lcols)?;
        let rkeys = self.gather_keys(query, right, &rcols)?;
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for i in 0..left.len() {
            'inner: for j in 0..right.len() {
                for (lc, rc) in lkeys.iter().zip(&rkeys) {
                    let (a, b) = (lc[i], rc[j]);
                    if a == NULL_SENTINEL || b == NULL_SENTINEL || a != b {
                        continue 'inner;
                    }
                }
                // A keyless (or all-equal) nested loop is the textbook
                // cross product: cap every emission, or the cap arrives
                // only after the blow-up it exists to prevent.
                pairs.push((i as u32, j as u32));
                check_probe_cap(pairs.len() as u64, cap)?;
            }
        }
        RowSet::combine(left, right, &pairs)
    }

    /// Batch-at-a-time index-nested-loop join over windows of
    /// [`BATCH_SIZE`] outer rows (see the module docs). Candidate windows
    /// are the tails of the output vectors themselves, so no pair vector
    /// and no [`RowSet::combine`] copy is built.
    fn exec_index_nested(
        &self,
        query: &Query,
        outer: &RowSet,
        inner_plan: &PhysicalPlan,
        keys: &[(ColRef, ColRef)],
        metrics: &mut ExecMetrics,
    ) -> Result<RowSet> {
        let PhysicalPlan::Scan {
            rel: inner_rel,
            table: inner_table,
            ..
        } = inner_plan
        else {
            return Err(Error::internal(
                "index nested loop join requires a base-table scan inner",
            ));
        };
        let table = self.db.table(*inner_table)?;
        let compiled = compile_predicates(table, query.local_predicates(*inner_rel))?;

        // Orient keys: outer side vs inner side.
        let mut outer_cols = Vec::new();
        let mut inner_cols = Vec::new();
        for (a, b) in keys {
            if a.rel == *inner_rel {
                inner_cols.push(*a);
                outer_cols.push(*b);
            } else {
                inner_cols.push(*b);
                outer_cols.push(*a);
            }
        }
        // The first key drives the index probe; the rest are residuals.
        let outer_keys = self.gather_keys(query, outer, &outer_cols)?;
        let (Some((probe_keys, outer_residuals)), Some((probe_col, inner_residuals))) =
            (outer_keys.split_first(), inner_cols.split_first())
        else {
            return Err(Error::internal("index nested loop join without keys"));
        };
        let index = table.index(probe_col.col).ok_or_else(|| {
            Error::internal(format!(
                "index nested loop join: column {} of table `{}` is not indexed",
                probe_col.col,
                table.name()
            ))
        })?;
        let residuals: Vec<(&[i64], &[i64])> = outer_residuals
            .iter()
            .zip(inner_residuals)
            .map(|(o, c)| Ok((o.as_slice(), table.column(c.col)?.data())))
            .collect::<Result<_>>()?;

        let cap = self.opts.max_intermediate_rows;
        // The paired output columns: outer positions (freed once the
        // outer side is selected) and inner rows (moved into the result).
        let mut positions: Vec<u32> = Vec::new();
        let mut inner_rows: Vec<u32> = Vec::new();
        let mut lists: Vec<(u32, &[u32])> = Vec::with_capacity(outer.len().min(BATCH_SIZE));
        for (w, window) in probe_keys.chunks(BATCH_SIZE).enumerate() {
            // 1. Every posting list of the window before any candidate.
            let base = (w * BATCH_SIZE) as u32;
            lists.clear();
            for (k, &key) in window.iter().enumerate() {
                if key != NULL_SENTINEL {
                    metrics.index_probes += 1;
                    let list = index.probe(key);
                    if !list.is_empty() {
                        lists.push((base + k as u32, list));
                    }
                }
            }
            let (mut li, mut off) = (0, 0);
            while li < lists.len() {
                // 2. Expand into a candidate window in outer-row, then
                // posting order; a list that overflows it continues in the
                // next one.
                let start = inner_rows.len();
                while li < lists.len() && inner_rows.len() - start < BATCH_SIZE {
                    let (pos, list) = lists[li];
                    let take = (BATCH_SIZE - (inner_rows.len() - start)).min(list.len() - off);
                    inner_rows.extend_from_slice(&list[off..off + take]);
                    positions.resize(positions.len() + take, pos);
                    off += take;
                    if off == list.len() {
                        (li, off) = (li + 1, 0);
                    }
                }
                // 3. Column-at-a-time: residual key equalities, then the
                // inner local predicates.
                for &(outer_col, inner_col) in &residuals {
                    retain_pairs(&mut positions, &mut inner_rows, start, |p, r| {
                        let v = outer_col[p as usize];
                        v != NULL_SENTINEL && v == inner_col[r as usize]
                    });
                }
                for p in &compiled {
                    p.refine_pairs(&mut positions, &mut inner_rows, start);
                }
                // 4. One cap check per window: the overshoot is at most one
                // window, and the inner side here is a raw base table whose
                // posting lists no earlier cap check has bounded.
                check_probe_cap(inner_rows.len() as u64, cap)?;
            }
        }
        inner_rows.shrink_to_fit();
        outer
            .select(&positions)
            .with_relation(*inner_rel, inner_rows)
    }
}

/// Compact the paired candidate vectors' tail `start..` in place, keeping
/// the `(outer position, inner row)` pairs `keep` accepts, in order.
#[inline]
fn retain_pairs(
    positions: &mut Vec<u32>,
    rows: &mut Vec<u32>,
    start: usize,
    mut keep: impl FnMut(u32, u32) -> bool,
) {
    let n = rows.len();
    let pos = &mut positions[..n];
    let mut w = start;
    for r in start..n {
        let (p, row) = (pos[r], rows[r]);
        pos[w] = p;
        rows[w] = row;
        w += usize::from(keep(p, row));
    }
    positions.truncate(w);
    rows.truncate(w);
}

/// Incremental intermediate-row cap check, shared by every join's probe
/// loop (serial and parallel). The message deliberately carries no running
/// count: the exact abort point depends on worker interleaving, and the
/// error must be identical at every thread count.
#[inline]
fn check_probe_cap(emitted: u64, cap: u64) -> Result<()> {
    if emitted > cap {
        return Err(Error::invalid(format!(
            "join output exceeds intermediate row cap {cap}; aborted during probe"
        )));
    }
    Ok(())
}

/// The build-side hash table: build rows counting-sorted by key bucket
/// into one contiguous `order` array (`starts[b]..starts[b+1]` is bucket
/// `b`'s run). No per-key `Vec`, no allocation past four flat arrays, and
/// a probe walks a contiguous run instead of chasing chain links.
///
/// The counting sort is stable over ascending rows, so every run iterates
/// in ascending build-row order — the emission order of a map that pushes
/// rows into per-key vectors in scan order ([`crate::reference`]). That
/// makes packed probes bit-identical to map probes, serial and
/// partitioned alike.
struct PackedTable<'a> {
    /// Gathered build-side key columns (all rows, not just this table's).
    keys: &'a [Vec<i64>],
    /// Bucket run boundaries: bucket `b` owns `order[starts[b]..starts[b+1]]`.
    starts: Vec<u32>,
    /// Build rows grouped by bucket, ascending within each run.
    order: Vec<u32>,
    /// Per bucket: whether its run holds more than one distinct key. A
    /// run with one key (the common case at load factor <= 1/2, and the
    /// whole table in the all-equal M^k blow-ups) is matched with one key
    /// compare and emitted with one bulk extend.
    mixed: Vec<bool>,
    mask: u64,
}

/// Bucket marker for NULL keys, which never join.
const NO_BUCKET: u32 = u32::MAX;

impl<'a> PackedTable<'a> {
    /// Table over `rows` of the build side (ascending), or over all rows
    /// `0..n` when `None` (the serial, unpartitioned case).
    fn build(keys: &'a [Vec<i64>], rows: Option<&[u32]>) -> Self {
        let n = rows.map_or_else(|| keys.first().map_or(0, Vec::len), <[u32]>::len);
        let row_at = |pos: usize| rows.map_or(pos as u32, |r| r[pos]);
        let buckets = (n.max(1) * 2).next_power_of_two();
        let mask = buckets as u64 - 1;
        let mut bucket_of = vec![NO_BUCKET; n];
        let mut starts = vec![0u32; buckets + 1];
        // First row seen per bucket, to detect runs holding several keys.
        let mut first = vec![0u32; buckets];
        let mut mixed = vec![false; buckets];
        for (pos, slot) in bucket_of.iter_mut().enumerate() {
            let row = row_at(pos);
            if let Some(b) = key_bucket(keys, row as usize, mask) {
                *slot = b as u32;
                if starts[b + 1] == 0 {
                    first[b] = row;
                } else if !mixed[b] {
                    let rep = first[b] as usize;
                    mixed[b] = keys.iter().any(|col| col[rep] != col[row as usize]);
                }
                starts[b + 1] += 1;
            }
        }
        for b in 0..buckets {
            starts[b + 1] += starts[b];
        }
        let mut cursor = starts.clone();
        let mut order = vec![0u32; starts[buckets] as usize];
        for (pos, &b) in bucket_of.iter().enumerate() {
            if b != NO_BUCKET {
                let c = &mut cursor[b as usize];
                order[*c as usize] = row_at(pos);
                *c += 1;
            }
        }
        PackedTable {
            keys,
            starts,
            order,
            mixed,
            mask,
        }
    }

    /// Emit `(i, j)` for every build row `j` whose key equals probe row
    /// `i`'s, in ascending `j` order; returns the number of pairs emitted.
    #[inline]
    fn probe_into(&self, lkeys: &[Vec<i64>], i: usize, pairs: &mut Vec<(u32, u32)>) -> u64 {
        // Single-key equi-joins dominate: one column to hash and compare,
        // without the per-column loops.
        if let ([bkey], [lcol]) = (self.keys, lkeys) {
            let lk = lcol[i];
            return match key_bucket(std::slice::from_ref(lcol), i, self.mask) {
                Some(b) => self.emit(b, i, pairs, |j| bkey[j as usize] == lk),
                None => 0,
            };
        }
        match key_bucket(lkeys, i, self.mask) {
            Some(b) => self.emit(b, i, pairs, |j| {
                let mut cols = self.keys.iter().zip(lkeys);
                cols.all(|(rc, lc)| rc[j as usize] == lc[i])
            }),
            None => 0, // NULL probe key
        }
    }

    /// Emit bucket `b`'s rows that satisfy `matches` as partners of probe
    /// row `i`. A single-key run is decided by its first row alone.
    #[inline]
    fn emit(
        &self,
        b: usize,
        i: usize,
        pairs: &mut Vec<(u32, u32)>,
        matches: impl Fn(u32) -> bool,
    ) -> u64 {
        let run = &self.order[self.starts[b] as usize..self.starts[b + 1] as usize];
        let before = pairs.len();
        if self.mixed[b] {
            pairs.extend(run.iter().filter(|&&j| matches(j)).map(|&j| (i as u32, j)));
        } else if run.first().is_some_and(|&j| matches(j)) {
            pairs.extend(run.iter().map(|&j| (i as u32, j)));
        }
        (pairs.len() - before) as u64
    }
}

/// FxHash bucket of row `row`'s key under `mask`; `None` when any key
/// column is NULL (NULL never joins). The same per-column `write_i64`
/// fold as [`partition_assignment`], so probe and build always agree.
#[inline]
fn key_bucket(keys: &[Vec<i64>], row: usize, mask: u64) -> Option<usize> {
    let mut h = FxHasher::default();
    for col in keys {
        let v = col[row];
        if v == NULL_SENTINEL {
            return None;
        }
        std::hash::Hasher::write_i64(&mut h, v);
    }
    Some((std::hash::Hasher::finish(&h) & mask) as usize)
}

/// Vectorized scan filter over rows `start..end`: batch windows of
/// [`BATCH_SIZE`], the first predicate seeding a pooled selection vector
/// and the rest refining it in place, appended to `out` in ascending row
/// order.
fn filter_range(
    compiled: &[CompiledPred<'_>],
    start: u32,
    end: u32,
    out: &mut Vec<u32>,
    metrics: &mut ExecMetrics,
) {
    let mut sel = take_u32_buffer();
    let mut base = start;
    while base < end {
        let hi = base.saturating_add(BATCH_SIZE as u32).min(end);
        metrics.batches_processed += 1;
        metrics.batch_rows += (hi - base) as u64;
        match compiled.split_first() {
            None => out.extend(base..hi),
            Some((first, rest)) => {
                sel.clear();
                first.filter_batch(base, hi, &mut sel);
                if first.dict {
                    metrics.dict_hits += sel.len() as u64;
                }
                for p in rest {
                    if sel.is_empty() {
                        break;
                    }
                    p.refine_batch(base, hi, &mut sel);
                    if p.dict {
                        metrics.dict_hits += sel.len() as u64;
                    }
                }
                out.extend_from_slice(&sel);
            }
        }
        base = hi;
    }
}

/// Row sentinel for "this row has a NULL key and joins nothing": outside
/// the valid partition range, so no worker ever visits it.
const NO_PARTITION: u32 = u32::MAX;

/// Deterministic partition id per row: FxHash of the full key vector,
/// reduced mod `parts`. NULL-keyed rows get [`NO_PARTITION`].
fn partition_assignment(keys: &[Vec<i64>], parts: u64) -> Vec<u32> {
    let n = keys.first().map_or(0, Vec::len);
    let mut out = Vec::with_capacity(n);
    'rows: for row in 0..n {
        let mut h = FxHasher::default();
        for col in keys {
            let v = col[row];
            if v == NULL_SENTINEL {
                out.push(NO_PARTITION);
                continue 'rows;
            }
            std::hash::Hasher::write_i64(&mut h, v);
        }
        out.push((std::hash::Hasher::finish(&h) % parts) as u32);
    }
    out
}

/// Join a scoped worker, converting a worker panic into a structured
/// error: in a serving context a panicked executor thread must fail the
/// query, not take down the process (or burn a single-flight's followers).
fn join_worker<T>(h: std::thread::ScopedJoinHandle<'_, Result<T>>) -> Result<T> {
    h.join()
        .map_err(|_| Error::internal("parallel executor worker panicked"))?
}

/// Physical operator label for span attributes and `EXPLAIN ANALYZE`.
pub fn op_label(plan: &PhysicalPlan) -> &'static str {
    match plan {
        PhysicalPlan::Scan { access, .. } => match access {
            AccessPath::SeqScan => "SeqScan",
            AccessPath::IndexScan { .. } => "IndexScan",
        },
        PhysicalPlan::Join { algo, .. } => match algo {
            JoinAlgo::Hash => "HashJoin",
            JoinAlgo::Merge => "MergeJoin",
            JoinAlgo::NestedLoop => "NestedLoopJoin",
            JoinAlgo::IndexNested => "IndexNestedLoopJoin",
        },
    }
}

/// Mutable per-execution state threaded through the operator recursion.
struct ExecState<'c> {
    metrics: ExecMetrics,
    trace: Vec<(RelSet, u64)>,
    cache: Option<&'c mut dyn SubtreeCache>,
    /// Current span-emission handle; `exec_node_inner` re-parents it around
    /// each operator so child operators nest under their parent's span.
    tracer: Tracer,
}

/// Evaluate `$body` with `$pred` bound to the comparison `op` against the
/// constants `c1`/`c2` as a monomorphized `Fn(i64) -> bool`: the operator
/// is matched once per call, so a kernel's inner loop is a branch-free
/// compare instead of per-row dispatch.
macro_rules! with_cmp {
    ($op:expr, $c1:expr, $c2:expr, |$pred:ident| $body:expr) => {{
        let (c1, c2): (i64, i64) = ($c1, $c2);
        match $op {
            CmpOp::Eq => {
                let $pred = |v: i64| v == c1;
                $body
            }
            CmpOp::Ne => {
                let $pred = |v: i64| v != c1;
                $body
            }
            CmpOp::Lt => {
                let $pred = |v: i64| v < c1;
                $body
            }
            CmpOp::Le => {
                let $pred = |v: i64| v <= c1;
                $body
            }
            CmpOp::Gt => {
                let $pred = |v: i64| v > c1;
                $body
            }
            CmpOp::Ge => {
                let $pred = |v: i64| v >= c1;
                $body
            }
            CmpOp::Between => {
                let $pred = |v: i64| v >= c1 && v <= c2;
                $body
            }
        }
    }};
}

/// A predicate with its constants encoded against the target table.
pub(crate) struct CompiledPred<'a> {
    col: ColId,
    op: CmpOp,
    /// Encoded first constant; `None` means "matches nothing" (dictionary
    /// miss).
    c1: Option<i64>,
    c2: i64,
    /// Whether the column is dictionary-encoded — the constant above was
    /// resolved through the dictionary, so rows this predicate selects
    /// count as [`ExecMetrics::dict_hits`].
    dict: bool,
    data: &'a [i64],
}

impl CompiledPred<'_> {
    #[inline]
    pub(crate) fn matches(&self, row: u32) -> bool {
        let v = self.data[row as usize];
        if v == NULL_SENTINEL {
            return false; // SQL: comparisons with NULL are not true
        }
        match self.c1 {
            Some(c1) => self.op.eval(v, c1, self.c2),
            None => false,
        }
    }

    /// Seed `sel` with the rows of `start..end` this predicate selects.
    #[inline]
    fn filter_batch(&self, start: u32, end: u32, sel: &mut Vec<u32>) {
        let Some(c1) = self.c1 else {
            return; // dictionary miss: matches nothing
        };
        let batch = ColumnBatch::new(&self.data[start as usize..end as usize], start);
        with_cmp!(self.op, c1, self.c2, |pred| batch.filter_into(sel, pred))
    }

    /// Narrow an existing selection (ids within `start..end`) in place.
    #[inline]
    fn refine_batch(&self, start: u32, end: u32, sel: &mut Vec<u32>) {
        let Some(c1) = self.c1 else {
            sel.clear();
            return;
        };
        let batch = ColumnBatch::new(&self.data[start as usize..end as usize], start);
        with_cmp!(self.op, c1, self.c2, |pred| batch.refine(sel, pred))
    }

    /// Narrow the paired candidate tail `start..` of an index-nested join
    /// to the pairs whose inner row this predicate selects.
    #[inline]
    fn refine_pairs(&self, positions: &mut Vec<u32>, rows: &mut Vec<u32>, start: usize) {
        let Some(c1) = self.c1 else {
            positions.truncate(start);
            rows.truncate(start);
            return;
        };
        let data = self.data;
        with_cmp!(self.op, c1, self.c2, |pred| retain_pairs(
            positions,
            rows,
            start,
            |_, r| {
                let v = data[r as usize];
                v != NULL_SENTINEL && pred(v)
            }
        ))
    }
}

pub(crate) fn compile_predicates<'a>(
    table: &'a Table,
    preds: &[Predicate],
) -> Result<Vec<CompiledPred<'a>>> {
    preds
        .iter()
        .map(|p| {
            let column = table.column(p.col)?;
            let c1 = column.encode_constant(&p.value)?;
            let c2 = match &p.value2 {
                Some(v) => column.encode_constant(v)?.unwrap_or(i64::MAX),
                None => 0,
            };
            Ok(CompiledPred {
                col: p.col,
                op: p.op,
                c1,
                c2,
                dict: column.dict().is_some(),
                data: column.data(),
            })
        })
        .collect()
}

/// Error for the impossible loss of a bound subtree cache.
fn cache_vanished() -> Error {
    Error::internal("subtree cache vanished between fingerprint and lookup")
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_common::TableId;
    use reopt_plan::physical::PlanNodeInfo;
    use reopt_plan::QueryBuilder;
    use reopt_storage::{Column, ColumnDef, LogicalType, TableSchema};

    /// Two tables: t0(k, v) with k=0,1,2,3,4 ×2; t1(k, w) with k=0..9.
    fn test_db() -> Database {
        let mut db = Database::new();
        db.add_table_with(|id| {
            let schema = TableSchema::new(vec![
                ColumnDef::new("k", LogicalType::Int),
                ColumnDef::new("v", LogicalType::Int),
            ])?;
            let mut t = Table::new(
                id,
                "t0",
                schema,
                vec![
                    Column::from_i64(LogicalType::Int, vec![0, 1, 2, 3, 4, 0, 1, 2, 3, 4]),
                    Column::from_i64(LogicalType::Int, (0..10).collect()),
                ],
            )?;
            t.create_index(ColId::new(0))?;
            Ok(t)
        })
        .unwrap();
        db.add_table_with(|id| {
            let schema = TableSchema::new(vec![
                ColumnDef::new("k", LogicalType::Int),
                ColumnDef::new("w", LogicalType::Int),
            ])?;
            let mut t = Table::new(
                id,
                "t1",
                schema,
                vec![
                    Column::from_i64(LogicalType::Int, (0..10).collect()),
                    Column::from_i64(LogicalType::Int, (100..110).collect()),
                ],
            )?;
            t.create_index(ColId::new(0))?;
            Ok(t)
        })
        .unwrap();
        db
    }

    fn scan(rel: u32, table: u32, access: AccessPath) -> PhysicalPlan {
        PhysicalPlan::Scan {
            rel: RelId::new(rel),
            table: TableId::new(table),
            access,
            info: PlanNodeInfo::default(),
        }
    }

    fn join(
        algo: JoinAlgo,
        l: PhysicalPlan,
        r: PhysicalPlan,
        keys: Vec<(ColRef, ColRef)>,
    ) -> PhysicalPlan {
        PhysicalPlan::Join {
            algo,
            left: Box::new(l),
            right: Box::new(r),
            keys,
            info: PlanNodeInfo::default(),
        }
    }

    fn two_table_query(db: &Database) -> Query {
        let mut qb = QueryBuilder::new();
        let a = qb.add_relation(db.table_id("t0").unwrap());
        let b = qb.add_relation(db.table_id("t1").unwrap());
        qb.add_join(ColRef::new(a, ColId::new(0)), ColRef::new(b, ColId::new(0)));
        qb.build()
    }

    fn keyrefs() -> Vec<(ColRef, ColRef)> {
        vec![(
            ColRef::new(RelId::new(0), ColId::new(0)),
            ColRef::new(RelId::new(1), ColId::new(0)),
        )]
    }

    #[test]
    fn seq_scan_filters_predicates() {
        let db = test_db();
        let mut qb = QueryBuilder::new();
        let a = qb.add_relation(db.table_id("t0").unwrap());
        qb.add_predicate(Predicate::eq(a, ColId::new(0), 2i64));
        let q = qb.build();
        let out = execute_plan(&db, &q, &scan(0, 0, AccessPath::SeqScan)).unwrap();
        assert_eq!(out.join_rows, 2);
        assert_eq!(out.metrics.rows_scanned, 10);
    }

    #[test]
    fn index_scan_equivalent_to_seq_scan() {
        let db = test_db();
        let mut qb = QueryBuilder::new();
        let a = qb.add_relation(db.table_id("t0").unwrap());
        qb.add_predicate(Predicate::eq(a, ColId::new(0), 3i64));
        qb.add_predicate(Predicate::gt(a, ColId::new(1), 5i64));
        let q = qb.build();
        let seq = execute_plan(&db, &q, &scan(0, 0, AccessPath::SeqScan)).unwrap();
        let idx = execute_plan(
            &db,
            &q,
            &scan(0, 0, AccessPath::IndexScan { col: ColId::new(0) }),
        )
        .unwrap();
        assert_eq!(seq.join_rows, idx.join_rows);
        assert_eq!(idx.join_rows, 1); // k=3 rows are rowids 3 (v=3) and 8 (v=8); only v=8 > 5
        assert!(idx.metrics.index_probes >= 1);
        assert_eq!(idx.metrics.rows_scanned, 0);
    }

    #[test]
    fn all_join_algorithms_agree() {
        let db = test_db();
        let q = two_table_query(&db);
        // Every t0 row matches exactly one t1 row: expect 10.
        for algo in [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::NestedLoop] {
            let p = join(
                algo,
                scan(0, 0, AccessPath::SeqScan),
                scan(1, 1, AccessPath::SeqScan),
                keyrefs(),
            );
            let out = execute_plan(&db, &q, &p).unwrap();
            assert_eq!(out.join_rows, 10, "{algo:?}");
        }
        // Index nested loops (inner = t1 scan, index on k).
        let p = join(
            JoinAlgo::IndexNested,
            scan(0, 0, AccessPath::SeqScan),
            scan(1, 1, AccessPath::SeqScan),
            keyrefs(),
        );
        let out = execute_plan(&db, &q, &p).unwrap();
        assert_eq!(out.join_rows, 10);
        assert!(out.metrics.index_probes >= 10);
    }

    #[test]
    fn join_respects_local_predicates() {
        let db = test_db();
        let mut qb = QueryBuilder::new();
        let a = qb.add_relation(db.table_id("t0").unwrap());
        let b = qb.add_relation(db.table_id("t1").unwrap());
        qb.add_predicate(Predicate::le(b, ColId::new(0), 1i64));
        qb.add_join(ColRef::new(a, ColId::new(0)), ColRef::new(b, ColId::new(0)));
        let q = qb.build();
        for algo in [
            JoinAlgo::Hash,
            JoinAlgo::Merge,
            JoinAlgo::NestedLoop,
            JoinAlgo::IndexNested,
        ] {
            let p = join(
                algo,
                scan(0, 0, AccessPath::SeqScan),
                scan(1, 1, AccessPath::SeqScan),
                keyrefs(),
            );
            let out = execute_plan(&db, &q, &p).unwrap();
            // t1 keeps k ∈ {0,1}; each matches 2 rows of t0.
            assert_eq!(out.join_rows, 4, "{algo:?}");
        }
    }

    #[test]
    fn reversed_operands_still_match() {
        let db = test_db();
        let q = two_table_query(&db);
        // Join with t1 as the outer side.
        let p = join(
            JoinAlgo::Hash,
            scan(1, 1, AccessPath::SeqScan),
            scan(0, 0, AccessPath::SeqScan),
            keyrefs(),
        );
        let out = execute_plan(&db, &q, &p).unwrap();
        assert_eq!(out.join_rows, 10);
    }

    #[test]
    fn nulls_never_join() {
        let mut db = Database::new();
        db.add_table_with(|id| {
            let schema = TableSchema::new(vec![ColumnDef::new("k", LogicalType::Int)])?;
            Table::new(
                id,
                "l",
                schema,
                vec![Column::from_i64(
                    LogicalType::Int,
                    vec![1, NULL_SENTINEL, 2],
                )],
            )
        })
        .unwrap();
        db.add_table_with(|id| {
            let schema = TableSchema::new(vec![ColumnDef::new("k", LogicalType::Int)])?;
            let mut t = Table::new(
                id,
                "r",
                schema,
                vec![Column::from_i64(
                    LogicalType::Int,
                    vec![NULL_SENTINEL, 1, 1],
                )],
            )?;
            t.create_index(ColId::new(0))?;
            Ok(t)
        })
        .unwrap();
        let mut qb = QueryBuilder::new();
        let a = qb.add_relation(db.table_id("l").unwrap());
        let b = qb.add_relation(db.table_id("r").unwrap());
        qb.add_join(ColRef::new(a, ColId::new(0)), ColRef::new(b, ColId::new(0)));
        let q = qb.build();
        for algo in [
            JoinAlgo::Hash,
            JoinAlgo::Merge,
            JoinAlgo::NestedLoop,
            JoinAlgo::IndexNested,
        ] {
            let p = join(
                algo,
                scan(0, 0, AccessPath::SeqScan),
                scan(1, 1, AccessPath::SeqScan),
                keyrefs(),
            );
            let out = execute_plan(&db, &q, &p).unwrap();
            // Only l.k=1 matches r's two k=1 rows.
            assert_eq!(out.join_rows, 2, "{algo:?}");
        }
    }

    #[test]
    fn intermediate_cap_aborts_execution() {
        let db = test_db();
        let q = two_table_query(&db);
        let p = join(
            JoinAlgo::Hash,
            scan(0, 0, AccessPath::SeqScan),
            scan(1, 1, AccessPath::SeqScan),
            keyrefs(),
        );
        let exec = Executor::with_opts(
            &db,
            ExecOpts {
                max_intermediate_rows: 5,
                ..Default::default()
            },
        );
        assert!(exec.run(&q, &p).is_err());
    }

    #[test]
    fn metrics_track_rows() {
        let db = test_db();
        let q = two_table_query(&db);
        let p = join(
            JoinAlgo::Hash,
            scan(0, 0, AccessPath::SeqScan),
            scan(1, 1, AccessPath::SeqScan),
            keyrefs(),
        );
        let out = execute_plan(&db, &q, &p).unwrap();
        assert_eq!(out.metrics.rows_scanned, 20);
        // 10 (scan) + 10 (scan) + 10 (join) outputs.
        assert_eq!(out.metrics.rows_produced, 30);
        assert_eq!(out.metrics.peak_intermediate_rows, 10);
    }

    #[test]
    fn multi_key_joins_agree_across_algorithms() {
        // Two tables joined on BOTH columns: (k, v) pairs must match.
        let mut db = Database::new();
        for name in ["m0", "m1"] {
            db.add_table_with(|id| {
                let schema = TableSchema::new(vec![
                    ColumnDef::new("k", LogicalType::Int),
                    ColumnDef::new("v", LogicalType::Int),
                ])?;
                let mut t = Table::new(
                    id,
                    name,
                    schema,
                    vec![
                        Column::from_i64(LogicalType::Int, vec![1, 1, 2, 2, 3, NULL_SENTINEL]),
                        Column::from_i64(LogicalType::Int, vec![10, 20, 10, 20, 30, 30]),
                    ],
                )?;
                t.create_index(ColId::new(0))?;
                Ok(t)
            })
            .unwrap();
        }
        let mut qb = QueryBuilder::new();
        let a = qb.add_relation(db.table_id("m0").unwrap());
        let b = qb.add_relation(db.table_id("m1").unwrap());
        qb.add_join(ColRef::new(a, ColId::new(0)), ColRef::new(b, ColId::new(0)));
        qb.add_join(ColRef::new(a, ColId::new(1)), ColRef::new(b, ColId::new(1)));
        let q = qb.build();
        let keys = vec![
            (
                ColRef::new(RelId::new(0), ColId::new(0)),
                ColRef::new(RelId::new(1), ColId::new(0)),
            ),
            (
                ColRef::new(RelId::new(0), ColId::new(1)),
                ColRef::new(RelId::new(1), ColId::new(1)),
            ),
        ];
        // Expected: each of the five non-NULL rows matches exactly itself.
        let mut results = Vec::new();
        for algo in [
            JoinAlgo::Hash,
            JoinAlgo::Merge,
            JoinAlgo::NestedLoop,
            JoinAlgo::IndexNested,
        ] {
            let p = join(
                algo,
                scan(0, 0, AccessPath::SeqScan),
                scan(1, 1, AccessPath::SeqScan),
                keys.clone(),
            );
            let out = execute_plan(&db, &q, &p).unwrap();
            results.push((algo, out.join_rows));
        }
        for (algo, rows) in &results {
            assert_eq!(*rows, 5, "{algo:?}");
        }
    }

    #[test]
    fn multi_key_join_rejects_partial_matches() {
        // Keys match on k but not on v: zero output.
        let mut db = Database::new();
        for (name, v) in [("p0", 1i64), ("p1", 2i64)] {
            db.add_table_with(|id| {
                let schema = TableSchema::new(vec![
                    ColumnDef::new("k", LogicalType::Int),
                    ColumnDef::new("v", LogicalType::Int),
                ])?;
                let mut t = Table::new(
                    id,
                    name,
                    schema,
                    vec![
                        Column::from_i64(LogicalType::Int, vec![7, 8]),
                        Column::from_i64(LogicalType::Int, vec![v, v]),
                    ],
                )?;
                t.create_index(ColId::new(0))?;
                Ok(t)
            })
            .unwrap();
        }
        let mut qb = QueryBuilder::new();
        let a = qb.add_relation(db.table_id("p0").unwrap());
        let b = qb.add_relation(db.table_id("p1").unwrap());
        qb.add_join(ColRef::new(a, ColId::new(0)), ColRef::new(b, ColId::new(0)));
        qb.add_join(ColRef::new(a, ColId::new(1)), ColRef::new(b, ColId::new(1)));
        let q = qb.build();
        let keys = vec![
            (
                ColRef::new(RelId::new(0), ColId::new(0)),
                ColRef::new(RelId::new(1), ColId::new(0)),
            ),
            (
                ColRef::new(RelId::new(0), ColId::new(1)),
                ColRef::new(RelId::new(1), ColId::new(1)),
            ),
        ];
        for algo in [
            JoinAlgo::Hash,
            JoinAlgo::Merge,
            JoinAlgo::NestedLoop,
            JoinAlgo::IndexNested,
        ] {
            let p = join(
                algo,
                scan(0, 0, AccessPath::SeqScan),
                scan(1, 1, AccessPath::SeqScan),
                keys.clone(),
            );
            assert_eq!(execute_plan(&db, &q, &p).unwrap().join_rows, 0, "{algo:?}");
        }
    }

    /// Two tables large enough to cross `PARALLEL_MIN_ROWS`, with keys
    /// arranged so the join has skewed match counts (value v appears v%7+1
    /// times on the right).
    fn big_pair_db(n: i64) -> Database {
        let mut db = Database::new();
        db.add_table_with(|id| {
            let schema = TableSchema::new(vec![
                ColumnDef::new("k", LogicalType::Int),
                ColumnDef::new("v", LogicalType::Int),
            ])?;
            let keys: Vec<i64> = (0..n)
                .map(|i| if i % 97 == 0 { NULL_SENTINEL } else { i % 512 })
                .collect();
            Table::new(
                id,
                "bl",
                schema,
                vec![
                    Column::from_i64(LogicalType::Int, keys),
                    Column::from_i64(LogicalType::Int, (0..n).collect()),
                ],
            )
        })
        .unwrap();
        db.add_table_with(|id| {
            let schema = TableSchema::new(vec![
                ColumnDef::new("k", LogicalType::Int),
                ColumnDef::new("w", LogicalType::Int),
            ])?;
            let mut keys = Vec::new();
            for v in 0..512i64 {
                for _ in 0..(v % 7 + 1) {
                    keys.push(v);
                }
            }
            while (keys.len() as i64) < n {
                keys.push(NULL_SENTINEL);
            }
            let len = keys.len() as i64;
            Table::new(
                id,
                "br",
                schema,
                vec![
                    Column::from_i64(LogicalType::Int, keys),
                    Column::from_i64(LogicalType::Int, (0..len).collect()),
                ],
            )
        })
        .unwrap();
        db
    }

    fn big_pair_query(db: &Database) -> Query {
        let mut qb = QueryBuilder::new();
        let a = qb.add_relation(db.table_id("bl").unwrap());
        let b = qb.add_relation(db.table_id("br").unwrap());
        qb.add_predicate(Predicate::gt(a, ColId::new(1), 5i64));
        qb.add_join(ColRef::new(a, ColId::new(0)), ColRef::new(b, ColId::new(0)));
        qb.build()
    }

    fn assert_rowsets_identical(a: &RowSet, b: &RowSet) {
        assert_eq!(a.rels(), b.rels());
        assert_eq!(a.len(), b.len());
        for &rel in a.rels() {
            assert_eq!(a.rowids(rel).unwrap(), b.rowids(rel).unwrap(), "{rel}");
        }
    }

    #[test]
    fn parallel_execution_is_bit_identical_to_serial() {
        let db = big_pair_db(6000);
        let q = big_pair_query(&db);
        let p = join(
            JoinAlgo::Hash,
            scan(0, 0, AccessPath::SeqScan),
            scan(1, 1, AccessPath::SeqScan),
            keyrefs(),
        );
        let serial = Executor::with_opts(&db, ExecOpts::serial());
        let base = serial.run_pipeline(&q, &p, None).unwrap();
        let (base_rows, base_metrics) = (&base.rows, &base.metrics);
        assert!(!base_rows.is_empty(), "fixture join must be non-empty");
        for threads in [2, 4, 8] {
            let par = Executor::with_opts(&db, ExecOpts::with_threads(threads));
            let traced = par.run_pipeline(&q, &p, None).unwrap();
            let metrics = &traced.metrics;
            assert_rowsets_identical(base_rows, &traced.rows);
            assert_eq!(base.node_cards, traced.node_cards, "threads={threads}");
            // The comparable counters match serial exactly; only the
            // parallel bookkeeping differs.
            assert_eq!(metrics.rows_scanned, base_metrics.rows_scanned);
            assert_eq!(metrics.rows_produced, base_metrics.rows_produced);
            assert_eq!(
                metrics.peak_intermediate_rows,
                base_metrics.peak_intermediate_rows
            );
            assert!(metrics.parallel_ops > 0, "parallel path not taken");
            assert!(metrics.parallel_workers > 0);
        }
        assert_eq!(base_metrics.parallel_ops, 0, "threads=1 must stay serial");
    }

    #[test]
    fn incremental_cap_aborts_cross_product_joins_early() {
        // Every key identical on both sides: a 3000×3000 cross product
        // (9M pairs). With a 10k cap the probe loop must abort without
        // materializing the output — at no point may the output grow past
        // cap + one bucket (hash, serial) / cap + threads·bucket (hash,
        // parallel) / cap + one window (index-nested).
        // 3000 + 3000 input rows crosses PARALLEL_MIN_ROWS, so the
        // threads=4 leg exercises the partitioned join's shared atomic
        // emission counter, not the serial per-push check.
        let n = 3000usize;
        let mut db = Database::new();
        for name in ["xl", "xr"] {
            db.add_table_with(|id| {
                let schema = TableSchema::new(vec![ColumnDef::new("k", LogicalType::Int)])?;
                let mut t = Table::new(
                    id,
                    name,
                    schema,
                    vec![Column::from_i64(LogicalType::Int, vec![7i64; n])],
                )?;
                t.create_index(ColId::new(0))?;
                Ok(t)
            })
            .unwrap();
        }
        let mut qb = QueryBuilder::new();
        let a = qb.add_relation(db.table_id("xl").unwrap());
        let b = qb.add_relation(db.table_id("xr").unwrap());
        qb.add_join(ColRef::new(a, ColId::new(0)), ColRef::new(b, ColId::new(0)));
        let q = qb.build();
        // IndexNested included: its inner is a raw indexed base table, so
        // the key-7 posting list alone (3000 rows per outer row) must trip
        // the per-window check, not a post-materialization one.
        for algo in [
            JoinAlgo::Hash,
            JoinAlgo::Merge,
            JoinAlgo::NestedLoop,
            JoinAlgo::IndexNested,
        ] {
            let p = join(
                algo,
                scan(0, 0, AccessPath::SeqScan),
                scan(1, 1, AccessPath::SeqScan),
                keyrefs(),
            );
            for threads in [1, 4] {
                let exec = Executor::with_opts(
                    &db,
                    ExecOpts {
                        max_intermediate_rows: 10_000,
                        threads,
                        ..Default::default()
                    },
                );
                let err = exec.run(&q, &p).unwrap_err();
                assert!(
                    err.to_string().contains("cap"),
                    "{algo:?}/threads={threads}: {err}"
                );
            }
        }
    }

    #[test]
    fn probe_cap_error_is_identical_at_every_thread_count() {
        // Determinism extends to the failure path: the cap error carries
        // no interleaving-dependent counters.
        let a = check_probe_cap(11, 10).unwrap_err();
        let b = check_probe_cap(4_000_000, 10).unwrap_err();
        assert_eq!(a, b);
    }

    #[test]
    fn dictionary_miss_matches_nothing() {
        let mut db = Database::new();
        db.add_table_with(|id| {
            let schema = TableSchema::new(vec![ColumnDef::new("tag", LogicalType::Dict)])?;
            Table::new(id, "d", schema, vec![Column::from_strings(&["a", "b"])])
        })
        .unwrap();
        let mut qb = QueryBuilder::new();
        let r = qb.add_relation(db.table_id("d").unwrap());
        qb.add_predicate(Predicate::eq(r, ColId::new(0), "zzz"));
        let q = qb.build();
        let out = execute_plan(&db, &q, &scan(0, 0, AccessPath::SeqScan)).unwrap();
        assert_eq!(out.join_rows, 0);
    }

    /// Regression for the structured worker-join path every parallel phase
    /// (scan chunks, join build, join probe) goes through: a panicking
    /// worker thread must surface as [`Error::Internal`], never unwind
    /// through the scope (which would abort a serving process).
    #[test]
    fn worker_panic_becomes_internal_error() {
        let res: Result<()> = std::thread::scope(|scope| {
            let h = scope.spawn(|| -> Result<()> { panic!("injected worker failure") });
            join_worker(h)
        });
        match res {
            Err(Error::Internal(msg)) => assert!(msg.contains("worker panicked"), "{msg}"),
            other => panic!("expected Internal error, got {other:?}"),
        }
    }

    /// The engine must be bit-identical to the row-at-a-time reference on
    /// rowsets, and to itself on traces and the shared counters — across
    /// serial and partition-parallel execution, for the operators the
    /// batch paths touch (vectorized scans feed both join algorithms here).
    #[test]
    fn engine_is_bit_identical_to_reference() {
        let db = big_pair_db(6000);
        let q = big_pair_query(&db);
        for algo in [JoinAlgo::Hash, JoinAlgo::Merge] {
            let p = join(
                algo,
                scan(0, 0, AccessPath::SeqScan),
                scan(1, 1, AccessPath::SeqScan),
                keyrefs(),
            );
            let oracle = crate::reference::join_rows(&db, &q, &p).unwrap();
            assert!(!oracle.is_empty(), "fixture join must be non-empty");
            let serial = Executor::with_opts(&db, ExecOpts::serial())
                .run_pipeline(&q, &p, None)
                .unwrap();
            for threads in [1usize, 4] {
                let run = Executor::with_opts(&db, ExecOpts::with_threads(threads))
                    .run_pipeline(&q, &p, None)
                    .unwrap();
                assert_rowsets_identical(&oracle, &run.rows);
                assert_eq!(
                    serial.node_cards, run.node_cards,
                    "{algo:?}/threads={threads}"
                );
                assert_eq!(serial.metrics.rows_scanned, run.metrics.rows_scanned);
                assert_eq!(serial.metrics.rows_produced, run.metrics.rows_produced);
                assert!(run.metrics.batches_processed > 0);
            }
        }
    }

    /// The packed probe's two paths, directly: a run holding one key is
    /// decided by its first row (match → whole run, mismatch → nothing); a
    /// run holding several keys is filtered row by row — single- and
    /// multi-column keys alike.
    #[test]
    fn packed_probe_handles_shared_buckets_and_partial_matches() {
        // One Fx round is a multiply by an odd constant, so single keys
        // congruent mod 2^20 agree on every bucket bit a small table uses.
        const STRIDE: i64 = 1 << 20;
        let probe = |table: &PackedTable<'_>, lkeys: &[Vec<i64>]| {
            let mut pairs = Vec::new();
            let mut emitted = 0;
            for i in 0..lkeys[0].len() {
                emitted += table.probe_into(lkeys, i, &mut pairs);
            }
            assert_eq!(emitted, pairs.len() as u64);
            pairs
        };

        let rkeys = vec![vec![5, 5 + STRIDE, 5, NULL_SENTINEL, 5 + STRIDE, 9]];
        let table = PackedTable::build(&rkeys, None);
        let shared = key_bucket(&rkeys, 0, table.mask).unwrap();
        assert_eq!(key_bucket(&rkeys, 1, table.mask), Some(shared));
        assert!(table.mixed[shared], "two keys in one run");
        let lone = key_bucket(&rkeys, 5, table.mask).unwrap();
        assert!(!table.mixed[lone]);
        // Probe rows: both residents of the shared run, a third key that
        // lands in it and matches nothing, a NULL, a key whose single-key
        // run mismatches at the head, and one that matches it.
        let lkeys = vec![vec![
            5,
            5 + STRIDE,
            5 + 2 * STRIDE,
            NULL_SENTINEL,
            9 + STRIDE,
            9,
        ]];
        assert_eq!(
            probe(&table, &lkeys),
            vec![(0, 0), (0, 2), (1, 1), (1, 4), (5, 5)]
        );
        // The same table over a partition's row subset emits row ids, not
        // positions.
        let part = PackedTable::build(&rkeys, Some(&[1, 2, 4]));
        assert_eq!(probe(&part, &lkeys), vec![(0, 2), (1, 1), (1, 4)]);

        // Two-column keys: find a second value colliding with (1, 0).
        let mask = PackedTable::build(&[vec![0; 4], vec![0; 4]], None).mask;
        let target = key_bucket(&[vec![1], vec![0]], 0, mask).unwrap();
        let twin = (1..)
            .find(|&v| key_bucket(&[vec![1], vec![v]], 0, mask) == Some(target))
            .unwrap();
        let rkeys = vec![vec![1, 1, 1, NULL_SENTINEL], vec![0, twin, 0, 0]];
        let table = PackedTable::build(&rkeys, None);
        assert!(table.mixed[target]);
        // (1, 0) matches rows 0 and 2; (1, twin) only row 1 — a partial
        // match on the first column must not leak; NULL in either column
        // joins nothing.
        let lkeys = vec![
            vec![1, 1, 1, NULL_SENTINEL],
            vec![0, twin, NULL_SENTINEL, 0],
        ];
        assert_eq!(probe(&table, &lkeys), vec![(0, 0), (0, 2), (1, 1)]);
    }

    /// Two tables whose key columns are given verbatim; column `v` of each
    /// is a second join key.
    fn keyed_pair_db(left: [Vec<i64>; 2], right: [Vec<i64>; 2]) -> Database {
        let mut db = Database::new();
        for (name, [k, v]) in [("kl", left), ("kr", right)] {
            db.add_table_with(|id| {
                let schema = TableSchema::new(vec![
                    ColumnDef::new("k", LogicalType::Int),
                    ColumnDef::new("v", LogicalType::Int),
                ])?;
                let mut t = Table::new(
                    id,
                    name,
                    schema,
                    vec![
                        Column::from_i64(LogicalType::Int, k),
                        Column::from_i64(LogicalType::Int, v),
                    ],
                )?;
                t.create_index(ColId::new(0))?;
                Ok(t)
            })
            .unwrap();
        }
        db
    }

    /// The join shapes the probe fast path must get right end to end —
    /// distinct keys sharing a bucket, multi-key joins with partial
    /// matches, NULL keys on both sides — serial and partitioned, for
    /// every join algorithm, against the reference.
    #[test]
    fn shared_bucket_partial_match_and_null_joins_match_reference() {
        let n = 3000i64;
        let key = |i: i64, nulls: i64, keys: i64| {
            if i % nulls == 0 {
                NULL_SENTINEL
            } else {
                // Odd rows take the bucket-sharing twin of an even row's key.
                i % keys + (i % 2) * (1 << 20)
            }
        };
        let db = keyed_pair_db(
            [
                (0..n).map(|i| key(i, 97, 50)).collect(),
                (0..n)
                    .map(|i| if i % 89 == 0 { NULL_SENTINEL } else { i % 3 })
                    .collect(),
            ],
            [
                (0..n).map(|j| key(j, 83, 64)).collect(),
                (0..n)
                    .map(|j| if j % 71 == 0 { NULL_SENTINEL } else { j % 2 })
                    .collect(),
            ],
        );
        let col = |rel: u32, col: u32| ColRef::new(RelId::new(rel), ColId::new(col));
        for keys in [
            vec![(col(0, 0), col(1, 0))],
            vec![(col(0, 0), col(1, 0)), (col(0, 1), col(1, 1))],
        ] {
            let mut qb = QueryBuilder::new();
            let a = qb.add_relation(db.table_id("kl").unwrap());
            let b = qb.add_relation(db.table_id("kr").unwrap());
            for (l, r) in &keys {
                qb.add_join(ColRef::new(a, l.col), ColRef::new(b, r.col));
            }
            let q = qb.build();
            for algo in [
                JoinAlgo::Hash,
                JoinAlgo::Merge,
                JoinAlgo::NestedLoop,
                JoinAlgo::IndexNested,
            ] {
                let p = join(
                    algo,
                    scan(0, 0, AccessPath::SeqScan),
                    scan(1, 1, AccessPath::SeqScan),
                    keys.clone(),
                );
                let oracle = crate::reference::join_rows(&db, &q, &p).unwrap();
                assert!(!oracle.is_empty() && oracle.len() < (n * n) as usize / 50);
                for threads in [1usize, 4] {
                    let run = Executor::with_opts(&db, ExecOpts::with_threads(threads))
                        .run_pipeline(&q, &p, None)
                        .unwrap();
                    assert_rowsets_identical(&oracle, &run.rows);
                    if algo == JoinAlgo::Hash {
                        // 3000 + 3000 inputs cross PARALLEL_MIN_ROWS.
                        assert_eq!(run.metrics.parallel_ops > 0, threads > 1);
                    }
                }
            }
        }
    }

    /// The index-nested join's window edges against the reference: a
    /// posting list longer than a window (split across candidate windows)
    /// under outer windows that straddle it, every comparison operator and
    /// a dictionary miss as inner predicates, NULLs in an inner predicate
    /// column, a residual key and the outer keys, and an empty outer input.
    #[test]
    fn index_nested_window_edges_match_reference() {
        let (n_outer, n_inner) = (2500i64, 3000i64);
        let mut db = Database::new();
        db.add_table_with(|id| {
            let schema = TableSchema::new(vec![
                ColumnDef::new("k", LogicalType::Int),
                ColumnDef::new("r", LogicalType::Int),
            ])?;
            let k = (0..n_outer)
                .map(|i| if i % 13 == 0 { NULL_SENTINEL } else { i % 60 })
                .collect();
            let r = (0..n_outer)
                .map(|i| if i % 17 == 0 { NULL_SENTINEL } else { i % 3 })
                .collect();
            Table::new(
                id,
                "wo",
                schema,
                vec![
                    Column::from_i64(LogicalType::Int, k),
                    Column::from_i64(LogicalType::Int, r),
                ],
            )
        })
        .unwrap();
        db.add_table_with(|id| {
            let schema = TableSchema::new(vec![
                ColumnDef::new("k", LogicalType::Int),
                ColumnDef::new("r", LogicalType::Int),
                ColumnDef::new("x", LogicalType::Int),
                ColumnDef::new("tag", LogicalType::Dict),
            ])?;
            // Key 0 owns the first 1500 rows: one posting list longer than
            // a window. Keys 51..59 of the outer side find no list at all.
            let k = (0..n_inner)
                .map(|j| if j < 1500 { 0 } else { j % 50 + 1 })
                .collect();
            let r = (0..n_inner)
                .map(|j| if j % 11 == 0 { NULL_SENTINEL } else { j % 3 })
                .collect();
            let x = (0..n_inner)
                .map(|j| if j % 7 == 0 { NULL_SENTINEL } else { j % 100 })
                .collect();
            let tags: Vec<&str> = (0..n_inner as usize)
                .map(|j| ["a", "b", "c"][j % 3])
                .collect();
            let mut t = Table::new(
                id,
                "wi",
                schema,
                vec![
                    Column::from_i64(LogicalType::Int, k),
                    Column::from_i64(LogicalType::Int, r),
                    Column::from_i64(LogicalType::Int, x),
                    Column::from_strings(&tags),
                ],
            )?;
            t.create_index(ColId::new(0))?;
            Ok(t)
        })
        .unwrap();
        let (o, i) = (RelId::new(0), RelId::new(1));
        let x = ColId::new(2);
        let tag = ColId::new(3);
        let preds: Vec<Vec<Predicate>> = vec![
            vec![],
            vec![Predicate::eq(i, x, 42i64)],
            vec![Predicate::ne(i, x, 42i64)],
            vec![Predicate::lt(i, x, 30i64)],
            vec![Predicate::le(i, x, 30i64)],
            vec![Predicate::gt(i, x, 70i64)],
            vec![Predicate::ge(i, x, 70i64)],
            vec![Predicate::between(i, x, 20i64, 60i64)],
            vec![Predicate::eq(i, tag, "b"), Predicate::ge(i, x, 10i64)],
            vec![Predicate::eq(i, tag, "zzz")],
        ];
        let col = |rel: RelId, c: u32| ColRef::new(rel, ColId::new(c));
        let single = vec![(col(o, 0), col(i, 0))];
        let residual = vec![(col(o, 0), col(i, 0)), (col(o, 1), col(i, 1))];
        for keys in [single, residual] {
            for (case, inner_preds) in preds.iter().enumerate() {
                // The last outer variant selects nothing: an empty input.
                for empty_outer in [false, true] {
                    let mut qb = QueryBuilder::new();
                    let a = qb.add_relation(TableId::new(0));
                    let b = qb.add_relation(TableId::new(1));
                    for (l, r) in &keys {
                        qb.add_join(ColRef::new(a, l.col), ColRef::new(b, r.col));
                    }
                    for p in inner_preds {
                        qb.add_predicate(p.clone());
                    }
                    if empty_outer {
                        qb.add_predicate(Predicate::eq(a, ColId::new(0), 999i64));
                    }
                    let q = qb.build();
                    let p = join(
                        JoinAlgo::IndexNested,
                        scan(0, 0, AccessPath::SeqScan),
                        scan(1, 1, AccessPath::SeqScan),
                        keys.clone(),
                    );
                    let oracle = crate::reference::join_rows(&db, &q, &p).unwrap();
                    let outer =
                        crate::reference::join_rows(&db, &q, &scan(0, 0, AccessPath::SeqScan))
                            .unwrap();
                    let outer_keys: Vec<i64> = {
                        let data = db
                            .table(TableId::new(0))
                            .unwrap()
                            .column(ColId::new(0))
                            .unwrap()
                            .data();
                        outer
                            .rowids(o)
                            .unwrap()
                            .iter()
                            .map(|&r| data[r as usize])
                            .filter(|&v| v != NULL_SENTINEL)
                            .collect()
                    };
                    assert_eq!(outer.is_empty(), empty_outer);
                    let dict_miss = case == preds.len() - 1;
                    assert_eq!(oracle.is_empty(), empty_outer || dict_miss, "case={case}");
                    for threads in [1usize, 4] {
                        let run = Executor::with_opts(&db, ExecOpts::with_threads(threads))
                            .run_pipeline(&q, &p, None)
                            .unwrap();
                        let ctx = format!(
                            "keys={} case={case} empty={empty_outer} threads={threads}",
                            keys.len()
                        );
                        assert_eq!(oracle.len(), run.rows.len(), "{ctx}");
                        assert_rowsets_identical(&oracle, &run.rows);
                        assert_eq!(run.metrics.index_probes, outer_keys.len() as u64, "{ctx}");
                    }
                }
            }
        }
    }

    /// The 24⁴ all-equal chain (the OTT's M^k blow-up): every bucket run is
    /// one key wide and as long as the build side — the bulk-extend path —
    /// and the last join (13 824 + 24 input rows) runs partitioned.
    #[test]
    fn all_equal_chain_matches_reference() {
        let mut db = Database::new();
        for t in 0..4 {
            db.add_table_with(|id| {
                let schema = TableSchema::new(vec![ColumnDef::new("k", LogicalType::Int)])?;
                Table::new(
                    id,
                    format!("c{t}"),
                    schema,
                    vec![Column::from_i64(LogicalType::Int, vec![7; 24])],
                )
            })
            .unwrap();
        }
        let mut qb = QueryBuilder::new();
        let rels: Vec<RelId> = (0..4).map(|t| qb.add_relation(TableId::new(t))).collect();
        for w in rels.windows(2) {
            qb.add_join(
                ColRef::new(w[0], ColId::new(0)),
                ColRef::new(w[1], ColId::new(0)),
            );
        }
        let q = qb.build();
        let mut p = scan(0, 0, AccessPath::SeqScan);
        for t in 1..4 {
            p = join(
                JoinAlgo::Hash,
                p,
                scan(t, t, AccessPath::SeqScan),
                vec![(
                    ColRef::new(RelId::new(t - 1), ColId::new(0)),
                    ColRef::new(RelId::new(t), ColId::new(0)),
                )],
            );
        }
        let oracle = crate::reference::join_rows(&db, &q, &p).unwrap();
        assert_eq!(oracle.len(), 24usize.pow(4));
        for threads in [1usize, 4] {
            let run = Executor::with_opts(&db, ExecOpts::with_threads(threads))
                .run_pipeline(&q, &p, None)
                .unwrap();
            assert_rowsets_identical(&oracle, &run.rows);
            assert_eq!(run.metrics.parallel_ops > 0, threads > 1);
        }
    }
}
