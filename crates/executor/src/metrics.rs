//! Execution metrics: what "actual cost" means in the experiments.

use std::time::Duration;

/// Counters collected while executing one plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecMetrics {
    /// Rows read from base tables by scans (before filtering).
    pub rows_scanned: u64,
    /// Rows produced across all operators (sum of every operator's output;
    /// the dominant term for bad join orders).
    pub rows_produced: u64,
    /// Largest single intermediate result.
    pub peak_intermediate_rows: u64,
    /// Index probes performed.
    pub index_probes: u64,
    /// Operators executed partition-parallel (0 on a serial run).
    pub parallel_ops: u64,
    /// Worker tasks spawned by partition-parallel operators.
    pub parallel_workers: u64,
    /// Column batches evaluated by the vectorized operators (0 when a
    /// plan runs index scans and index-nested joins only).
    pub batches_processed: u64,
    /// Input rows covered by those batches; `batch_rows /
    /// batches_processed` is the average batch fill.
    pub batch_rows: u64,
    /// Dictionary-encoded values touched by the columnar engine: rows
    /// selected by dictionary-column predicates plus group keys rendered
    /// through a dictionary.
    pub dict_hits: u64,
    /// Plan nodes answered by a [`SubtreeCache`](crate::SubtreeCache)
    /// hit instead of executing: replayed dry-run subtrees, or spliced
    /// mid-query checkpoints. Counted once per node, by the run that
    /// consulted the cache.
    pub cache_hits: u64,
    /// Wall-clock execution time.
    pub elapsed: Duration,
}

impl ExecMetrics {
    /// Fold an operator output size into the counters.
    pub fn record_output(&mut self, rows: u64) {
        self.rows_produced += rows;
        self.peak_intermediate_rows = self.peak_intermediate_rows.max(rows);
    }

    /// Average rows per column batch (0.0 when no batches ran).
    pub fn avg_rows_per_batch(&self) -> f64 {
        if self.batches_processed == 0 {
            0.0
        } else {
            self.batch_rows as f64 / self.batches_processed as f64
        }
    }

    /// Merge another metrics object (e.g. from a sub-execution).
    pub fn merge(&mut self, other: &ExecMetrics) {
        self.rows_scanned += other.rows_scanned;
        self.rows_produced += other.rows_produced;
        self.peak_intermediate_rows = self
            .peak_intermediate_rows
            .max(other.peak_intermediate_rows);
        self.index_probes += other.index_probes;
        self.parallel_ops += other.parallel_ops;
        self.parallel_workers += other.parallel_workers;
        self.batches_processed += other.batches_processed;
        self.batch_rows += other.batch_rows;
        self.dict_hits += other.dict_hits;
        self.cache_hits += other.cache_hits;
        self.elapsed += other.elapsed;
    }

    /// Fold one parallel worker's counters into an operator's metrics.
    /// Every merged field is a sum, so the fold is associative and
    /// commutative — worker completion order cannot change the totals
    /// (output rows are counted once at the operator via
    /// [`ExecMetrics::record_output`] and cache hits once per node, never
    /// by workers, and worker wall clocks overlap, so none is merged
    /// here).
    pub fn merge_worker(&mut self, worker: &ExecMetrics) {
        self.rows_scanned += worker.rows_scanned;
        self.index_probes += worker.index_probes;
        self.parallel_workers += worker.parallel_workers;
        self.batches_processed += worker.batches_processed;
        self.batch_rows += worker.batch_rows;
        self.dict_hits += worker.dict_hits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge() {
        let mut m = ExecMetrics::default();
        m.record_output(10);
        m.record_output(3);
        assert_eq!(m.rows_produced, 13);
        assert_eq!(m.peak_intermediate_rows, 10);

        let mut other = ExecMetrics {
            rows_scanned: 5,
            elapsed: Duration::from_millis(2),
            ..Default::default()
        };
        other.record_output(100);
        m.merge(&other);
        assert_eq!(m.rows_scanned, 5);
        assert_eq!(m.rows_produced, 113);
        assert_eq!(m.peak_intermediate_rows, 100);
        assert_eq!(m.elapsed, Duration::from_millis(2));
    }

    #[test]
    fn batch_counters_sum_through_both_merges() {
        let worker = ExecMetrics {
            batches_processed: 3,
            batch_rows: 2600,
            dict_hits: 40,
            ..Default::default()
        };
        let mut op = ExecMetrics::default();
        op.merge_worker(&worker);
        op.merge_worker(&worker);
        assert_eq!(op.batches_processed, 6);
        assert_eq!(op.batch_rows, 5200);
        assert_eq!(op.dict_hits, 80);

        let mut total = ExecMetrics::default();
        total.merge(&op);
        assert_eq!(total.batches_processed, 6);
        assert!((total.avg_rows_per_batch() - 5200.0 / 6.0).abs() < 1e-9);
        assert_eq!(ExecMetrics::default().avg_rows_per_batch(), 0.0);
    }

    /// Three structurally distinct metrics with every field populated and
    /// deliberately *asymmetric* peaks, so max-semantics bugs in
    /// `peak_intermediate_rows` can't hide behind equal values.
    fn samples() -> [ExecMetrics; 3] {
        let mk = |k: u64| ExecMetrics {
            rows_scanned: 10 * k + 1,
            rows_produced: 20 * k + 3,
            peak_intermediate_rows: [7, 500, 31][k as usize],
            index_probes: 3 * k,
            parallel_ops: k,
            parallel_workers: 2 * k,
            batches_processed: 5 * k + 1,
            batch_rows: 100 * k + 17,
            dict_hits: 8 * k,
            cache_hits: 2 * k + 1,
            elapsed: Duration::from_micros(1000 * k + 5),
        };
        [mk(0), mk(1), mk(2)]
    }

    fn merged(a: &ExecMetrics, b: &ExecMetrics) -> ExecMetrics {
        let mut m = a.clone();
        m.merge(b);
        m
    }

    #[test]
    fn merge_is_commutative_over_all_fields() {
        let [a, b, c] = samples();
        assert_eq!(merged(&a, &b), merged(&b, &a));
        assert_eq!(merged(&a, &c), merged(&c, &a));
        assert_eq!(merged(&b, &c), merged(&c, &b));
    }

    #[test]
    fn merge_is_associative_over_all_fields() {
        let [a, b, c] = samples();
        assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
        // ...and against the max-carrier in every position, since
        // `peak_intermediate_rows` folds by max, not sum.
        assert_eq!(merged(&merged(&b, &a), &c), merged(&b, &merged(&a, &c)));
        assert_eq!(merged(&merged(&c, &b), &a), merged(&c, &merged(&b, &a)));
    }

    #[test]
    fn merge_identity_is_default() {
        let [a, _, _] = samples();
        assert_eq!(merged(&a, &ExecMetrics::default()), a);
        assert_eq!(merged(&ExecMetrics::default(), &a), a);
    }

    #[test]
    fn merge_worker_is_commutative_and_associative() {
        let [a, b, c] = samples();
        let fold = |x: &ExecMetrics, y: &ExecMetrics| {
            let mut m = x.clone();
            m.merge_worker(y);
            m
        };
        // merge_worker only sums worker-side counters; operator-side
        // fields of the receiver pass through untouched, so commutativity
        // is asserted on the summed fields.
        let ab = fold(&fold(&ExecMetrics::default(), &a), &b);
        let ba = fold(&fold(&ExecMetrics::default(), &b), &a);
        assert_eq!(ab, ba);
        let abc = fold(&fold(&fold(&ExecMetrics::default(), &a), &b), &c);
        let cba = fold(&fold(&fold(&ExecMetrics::default(), &c), &b), &a);
        assert_eq!(abc, cba);
    }
}
