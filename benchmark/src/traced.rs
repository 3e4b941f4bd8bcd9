//! The traced run: the per-layer table. Same seed and inputs as the timed
//! run, fewer passes, four views of every op, each view a pass of its own so
//! that none finds its query's data still cached by another:
//!
//! * **plain** — the op through the real service, no spans: the base of
//!   both overhead ratios;
//! * **layer pass, direct calls** — the op decomposed into direct calls on
//!   the engine snapshot, each under one of the benchmark's own spans;
//! * **layer pass, the service** — the same op through the real service
//!   under a span, so what the service adds to its layers is a reported row;
//! * **span fold** — the op through `execute_traced` (a tracing service for
//!   ingest), the program's own span tree folded into self time per name.
//!
//! Counts come from the first round only, so they repeat exactly for a
//! fixed seed however many rounds `--seconds` allows; times are summed over
//! every round.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use reopt_common::Stopwatch;
use reopt_executor::{ExecMetrics, ExecOpts, Executor};
use reopt_optimizer::Optimizer;
use reopt_plan::template_fingerprint;
use reopt_sampling::{validate_plan, SampleStore};
use reopt_service::{DriftConfig, PlanSource, QueryService, ServiceStats};
use reopt_stats::{
    analyze_database, analyze_incremental, database_drift, AnalyzeOpts, DatabaseStats,
};
use reopt_storage::Database;
use reopt_telemetry::QueryTrace;

use crate::inputs::{Batch, Inputs, Regime, Workload};
use crate::metrics::{median, quantile, ratio, sorted, Metrics, RunResult, FOLDED_SPANS};
use crate::reference::{reference_for, references, Reference};
use crate::spans::{fold_self_time, SpanLog};
use crate::timed::{ms, pass_ops, rows_mismatches, run_churn, set_up, Served, Services};

/// The native plan of a hard template is run for `core.plan_gain`; this row
/// guard stops one that explodes.
const ORIGINAL_PLAN_ROW_GUARD: u64 = 20_000_000;
/// Batches of the write schedule the serial replay of `ingest_churn` covers
/// (four storms and the first growth-driven refresh of `orders`).
const REPLAY_BATCHES: usize = 40;

/// Durations (ms) by name.
#[derive(Debug, Default)]
struct Sums(BTreeMap<&'static str, Vec<f64>>);

impl Sums {
    fn add(&mut self, name: &'static str, d: Duration) {
        self.0.entry(name).or_default().push(ms(d));
    }

    fn samples(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    fn total(&self, name: &str) -> f64 {
        // An empty f64 sum is -0.0; no metric should read "-0".
        self.samples(name).iter().sum::<f64>() + 0.0
    }

    fn count(&self, name: &str) -> u64 {
        self.samples(name).len() as u64
    }

    fn mean(&self, name: &str) -> f64 {
        ratio(self.total(name), self.count(name) as f64)
    }

    /// Median times count: a total that one page-faulting outlier (an
    /// ingest clones a table) does not move.
    fn robust_total(&self, name: &str) -> f64 {
        match self.samples(name) {
            [] => 0.0,
            v => median(v) * v.len() as f64,
        }
    }
}

/// First-round counts: exact for a fixed seed.
#[derive(Debug, Default)]
struct Counts {
    ops: u64,
    dp_reused: u64,
    dp_replanned: u64,
    sample_hits: u64,
    sample_executed: u64,
    /// Rounds of Algorithm 1 = optimizer invocations.
    rounds: u64,
    plan_changed: u64,
    converged: u64,
    reopts: u64,
    exec: ExecMetrics,
    suspensions: u64,
    replans: u64,
    plan_switches: u64,
    splices: u64,
    program_spans: u64,
    tables_merged: u64,
    tables_rescanned: u64,
    table_rows: u64,
}

/// Everything a traced run accumulates before it is turned into metrics.
#[derive(Debug, Default)]
struct Tally {
    sums: Sums,
    counts: Counts,
    /// Rows scanned by the direct `executor.run` calls of every round.
    rows_scanned: u64,
    /// Self time (µs) per program span name, all rounds.
    folded: BTreeMap<&'static str, u64>,
    service: Vec<ServiceStats>,
    attempted: u64,
    failed: u64,
}

/// Take out of `after` what the warm service had already served at `before`
/// (the warm-up and earlier passes).
fn since(after: &mut ServiceStats, before: &ServiceStats) {
    after.submitted -= before.submitted;
    after.warm_hits -= before.warm_hits;
    after.reopts_run -= before.reopts_run;
}

fn sum_stats(all: &[ServiceStats], f: impl Fn(&ServiceStats) -> u64) -> f64 {
    all.iter().map(f).sum::<u64>() as f64
}

/// Direct ANALYZE and sample build, three times each, under spans.
fn layer_set_up(inputs: &Inputs, log: &mut SpanLog, m: &mut Metrics) {
    let (mut analyze, mut build) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let mut op = log.op("setup");
        let (_, d) = op.child("stats.analyze_full", || {
            analyze_database(&inputs.db, &AnalyzeOpts::default()).expect("ANALYZE")
        });
        analyze.push(ms(d));
        let (_, d) = op.child("sampling.build", || {
            SampleStore::build(&inputs.db, inputs.sample.clone()).expect("sample build")
        });
        build.push(ms(d));
        op.finish();
    }
    m.set("stats.analyze_full_ms", median(&analyze));
    m.set("sampling.build_ms", median(&build));
}

/// A query op through the real service, checked against its reference.
fn checked(
    t: &mut Tally,
    reference: &Reference,
    out: reopt_common::Result<reopt_service::ExecutedQuery>,
) -> Option<reopt_service::ExecutedQuery> {
    t.attempted += 1;
    match out {
        Ok(eq) if reference.matches(&eq.output) => Some(eq),
        _ => {
            t.failed += 1;
            None
        }
    }
}

fn fold(t: &mut Tally, trace: Option<&Arc<QueryTrace>>, first_round: bool) {
    if let Some(trace) = trace {
        fold_self_time(trace, &mut t.folded);
        if first_round {
            t.counts.program_spans += trace.len() as u64;
        }
    }
}

/// The direct calls of one query op, each under a span of the op's root.
fn direct_calls(
    inputs: &Inputs,
    served: &Served,
    cold_submit: Option<&QueryService>,
    i: usize,
    first: bool,
    log: &mut SpanLog,
    t: &mut Tally,
) {
    let q = &inputs.queries[i];
    let query = &q.query;
    let engine = served.service.engine();
    let db: &Database = engine.db();
    let mut op = log.op("op");
    let (_, d) = op.child("plan.fingerprint", || template_fingerprint(query));
    t.sums.add("plan.fingerprint", d);

    let Some(cold_submit) = cold_submit else {
        // Warm: admission is a cache hit; the layers are that and the run.
        let (resp, d) = op.child("service.submit", || served.service.submit(query));
        t.sums.add("service.submit_warm", d);
        let plan = resp.expect("warm submit").plan;
        let (out, d) = op.child("executor.run", || Executor::new(db).run(query, &plan));
        op.finish();
        t.sums.add("executor.run", d);
        t.sums.add("layers", d);
        let out = out.expect("direct execution");
        t.rows_scanned += out.metrics.rows_scanned;
        if first {
            t.counts.exec.merge(&out.metrics);
        }
        return;
    };

    let optimizer = Optimizer::with_config(db, engine.stats(), engine.optimizer_config().clone());
    let (planned, d) = op.child("optimizer.optimize", || optimizer.optimize(query));
    t.sums.add("optimizer.optimize", d);
    let original = planned.expect("direct optimization").plan;
    let (_, d) = op.child("sampling.validate", || {
        validate_plan(
            query,
            &original,
            engine.samples(),
            &engine.reopt_config().validation,
        )
    });
    t.sums.add("sampling.validate", d);
    let (report, d) = op.child("core.reoptimize", || engine.reoptimize(query));
    t.sums.add("core.reoptimize", d);
    t.sums.add(
        if q.hard {
            "reoptimize.hard"
        } else {
            "reoptimize.easy"
        },
        d,
    );
    t.sums.add("layers", d);
    let report = report.expect("direct re-optimization");
    t.sums.add("loop.optimize", report.total_optimize_time());
    t.sums.add("loop.validate", report.total_validation_time());

    // Whichever of two runs over the same tables comes second finds them
    // cached, so the native plan of a hard template goes first on odd ops.
    let run_original = |op: &mut crate::spans::OpSpan<'_>, t: &mut Tally| {
        let guarded = ExecOpts {
            max_intermediate_rows: ORIGINAL_PLAN_ROW_GUARD,
            ..ExecOpts::default()
        };
        let (_, d) = op.child("executor.run_original", || {
            Executor::with_opts(db, guarded).run(query, &original)
        });
        t.sums.add("executor.run_original", d);
    };
    if q.hard && !i.is_multiple_of(2) {
        run_original(&mut op, t);
    }
    let (out, run) = op.child("executor.run", || {
        Executor::new(db).run(query, &report.final_plan)
    });
    t.sums.add("executor.run", run);
    t.sums
        .add(if q.hard { "run.hard" } else { "run.easy" }, run);
    let out = out.expect("direct execution");
    t.rows_scanned += out.metrics.rows_scanned;
    if q.hard && i.is_multiple_of(2) {
        run_original(&mut op, t);
    }
    if inputs.mid_query {
        let (mq, d) = op.child("core.midquery.run", || {
            engine.execute_plan_mid_query(query, &report.final_plan, ExecOpts::default())
        });
        t.sums.add("core.midquery.run", d);
        t.sums.add("layers", d);
        if first {
            let s = mq.expect("direct mid-query execution").report.stats;
            t.counts.suspensions += s.suspensions as u64;
            t.counts.replans += s.replans as u64;
            t.counts.plan_switches += s.plan_switches as u64;
            t.counts.splices += s.splices as u64;
        }
    } else {
        t.sums.add("layers", run);
    }
    let (resp, d) = op.child("service.submit", || cold_submit.submit(query));
    op.finish();
    t.sums.add("service.submit_cold", d);
    resp.expect("cold submit");
    if first {
        let c = &mut t.counts;
        c.reopts += 1;
        c.rounds += report.num_rounds() as u64;
        c.dp_reused += report.total_dp_subsets_reused() as u64;
        c.dp_replanned += report.total_dp_subsets_replanned() as u64;
        c.sample_hits += report.total_sample_cache_hits() as u64;
        c.sample_executed += report.total_sample_subtrees_executed() as u64;
        c.plan_changed += u64::from(report.plan_changed());
        c.converged += u64::from(report.converged);
        c.exec.merge(&out.metrics);
    }
}

/// One round: the pass's ops in each view, one view after the other, so
/// that no view finds its query's data still cached by another.
fn query_round(
    inputs: &Inputs,
    served: &Served,
    refs: &[Reference],
    round: usize,
    log: &mut SpanLog,
    t: &mut Tally,
) {
    let regime = inputs.workload.regime();
    let first = round == 0;
    let ops = pass_ops(inputs, round);

    // Plain.
    let mut services = Services::new(served, regime, false);
    services.begin_pass();
    for &i in &ops {
        let service = services.for_op();
        let sw = Stopwatch::start();
        let out = service.execute(&inputs.queries[i].query);
        t.sums.add("read.plain", sw.elapsed());
        checked(t, &refs[i], out);
    }

    // Layer pass, direct calls. A cold submit gets a service of its own.
    let mut services = Services::new(served, regime, false);
    services.begin_pass();
    for &i in &ops {
        let cold_submit = (regime != Regime::Warm).then(|| services.for_op());
        direct_calls(inputs, served, cold_submit, i, first, log, t);
    }

    // Layer pass, the same ops through the real service.
    let warm_before = (regime == Regime::Warm && first).then(|| served.service.stats());
    let mut services = Services::new(served, regime, first);
    services.begin_pass();
    for &i in &ops {
        let service = services.for_op();
        let mut op = log.op("op");
        let (out, d) = op.child("service.execute", || {
            service.execute(&inputs.queries[i].query)
        });
        op.finish();
        t.sums.add("read", d);
        checked(t, &refs[i], out);
        if first {
            t.counts.ops += 1;
        }
    }
    if first {
        t.service = services.stats();
        if let (Some(before), Some(after)) = (warm_before, t.service.first_mut()) {
            since(after, &before);
        }
    }

    // Span fold.
    let mut services = Services::new(served, regime, false);
    services.begin_pass();
    for &i in &ops {
        let service = services.for_op();
        let sw = Stopwatch::start();
        let out = service.execute_traced(&inputs.queries[i].query);
        t.sums.add("read.traced", sw.elapsed());
        if let Some(eq) = checked(t, &refs[i], out) {
            fold(t, eq.trace.as_ref(), first);
        }
    }
}

fn traced_queries(inputs: &Inputs, seconds: f64, log: &mut SpanLog, t: &mut Tally) {
    let served = set_up(inputs, false);
    let refs = references(inputs, served.engine.stats());
    let budget = Stopwatch::start();
    for round in 0.. {
        let sw = Stopwatch::start();
        query_round(inputs, &served, &refs, round, log, t);
        // Start another round only if it should still fit.
        if (budget.elapsed() + sw.elapsed()).as_secs_f64() > seconds {
            break;
        }
    }
}

/// The drift monitor's baseline after a refresh, as the service keeps it:
/// refreshed tables restart from the fresh statistics.
fn reanchor(
    old: &DatabaseStats,
    fresh: &DatabaseStats,
    refreshed: &[reopt_common::TableId],
) -> DatabaseStats {
    let tables = fresh
        .tables()
        .iter()
        .map(|f| match old.table(f.table) {
            Ok(o) if !refreshed.contains(&f.table) => o.clone(),
            _ => f.clone(),
        })
        .collect();
    DatabaseStats::new(tables).expect("tables stay in id order")
}

/// One reader cycle of the serial replay — every template once — through
/// `submit` alone; sums go under `read.<view>`.
fn reader_cycle(
    inputs: &Inputs,
    service: &QueryService,
    cycle: usize,
    view: &'static str,
    t: &mut Tally,
) {
    for q in inputs
        .queries
        .iter()
        .skip(cycle % inputs.instances)
        .step_by(inputs.instances)
    {
        let sw = Stopwatch::start();
        let resp = service.submit(&q.query);
        t.sums.add(view, sw.elapsed());
        t.attempted += 1;
        match resp {
            Ok(resp) => fold(t, resp.trace.as_ref(), true),
            Err(_) => t.failed += 1,
        }
    }
}

/// The write schedule through the service alone, each batch followed by one
/// reader cycle: the plain view, or (from a service that traces) the fold.
fn service_replay(inputs: &Inputs, batches: &[Batch], trace: bool, t: &mut Tally) {
    let served = set_up(inputs, trace);
    let (ingest, read) = if trace {
        ("ingest.traced", "read.traced")
    } else {
        ("ingest.plain", "read.plain")
    };
    for (b, batch) in batches.iter().enumerate() {
        let sw = Stopwatch::start();
        let report = served.service.append_rows(batch.table, &batch.rows);
        t.sums.add(ingest, sw.elapsed());
        t.attempted += 1;
        match report {
            Ok(r) => fold(t, r.trace.as_ref(), true),
            Err(_) => t.failed += 1,
        }
        reader_cycle(inputs, &served.service, b, read, t);
    }
}

/// The layers of the ingest path called directly, batch after batch, on a
/// state chain of the benchmark's own (database, statistics, samples, drift
/// baseline). Returns, per batch, whether drift crossed the threshold.
fn direct_replay(
    inputs: &Inputs,
    batches: &[Batch],
    served: &Served,
    log: &mut SpanLog,
    t: &mut Tally,
) -> Vec<bool> {
    let engine = &served.engine;
    let threshold = DriftConfig::default().threshold;
    let mut db = Arc::clone(engine.db());
    let mut stats = Arc::clone(engine.stats());
    let mut samples = Arc::clone(engine.samples());
    let mut baseline = Arc::clone(engine.stats());
    let mut verdicts = Vec::new();
    for batch in batches {
        let table = inputs.db.table_id(batch.table).expect("scheduled table");
        let mut op = log.op("op");
        let (next, d) = op.child("storage.append", || {
            let mut next = Database::clone(&db);
            next.append_rows(table, &batch.rows).map(|_| next)
        });
        t.sums.add("storage.append", d);
        t.sums.add("ingest.layers", d);
        let next = next.expect("direct append");
        let (inc, d) = op.child("stats.analyze_incremental", || {
            analyze_incremental(&next, &stats, engine.analyze_opts())
        });
        t.sums.add("stats.analyze_incremental", d);
        t.sums.add("ingest.layers", d);
        let inc = inc.expect("direct incremental ANALYZE");
        let (drifted, d) = op.child("stats.drift", || {
            database_drift(&baseline, &inc.stats).over(threshold)
        });
        t.sums.add("stats.drift", d);
        t.sums.add("ingest.layers", d);
        if !drifted.is_empty() {
            let (fresh, d) = op.child("sampling.refresh", || {
                samples.refresh_tables(&next, &drifted)
            });
            t.sums.add("sampling.refresh", d);
            t.sums.add("ingest.layers", d);
            samples = Arc::new(fresh.expect("direct sample refresh"));
            baseline = Arc::new(reanchor(&baseline, &inc.stats, &drifted));
        }
        op.finish();
        verdicts.push(!drifted.is_empty());
        db = Arc::new(next);
        stats = Arc::new(inc.stats);
    }
    verdicts
}

/// Serial replay of the write schedule, each batch followed by one reader
/// cycle: the layers directly, then the service under the benchmark's
/// spans, then plain, then traced.
fn replay(inputs: &Inputs, log: &mut SpanLog, t: &mut Tally) {
    let batches = &inputs.batches[..REPLAY_BATCHES.min(inputs.batches.len())];
    let served = set_up(inputs, false);
    let verdicts = direct_replay(inputs, batches, &served, log, t);

    let service = &served.service;
    let before = service.stats();
    for (b, batch) in batches.iter().enumerate() {
        let mut op = log.op("op");
        let (report, d) = op.child("service.append_rows", || {
            service.append_rows(batch.table, &batch.rows)
        });
        op.finish();
        t.sums.add("ingest", d);
        t.attempted += 1;
        match report {
            // The benchmark's own drift verdict must be the service's.
            Ok(r) if r.rows_appended == batch.rows.len() && r.refreshed == verdicts[b] => {
                t.counts.tables_merged += r.tables_merged as u64;
                t.counts.tables_rescanned += r.tables_rescanned as u64;
            }
            _ => t.failed += 1,
        }
        for q in inputs
            .queries
            .iter()
            .skip(b % inputs.instances)
            .step_by(inputs.instances)
        {
            let mut op = log.op("op");
            let (_, d) = op.child("plan.fingerprint", || template_fingerprint(&q.query));
            t.sums.add("plan.fingerprint", d);
            let (resp, d) = op.child("service.submit", || service.submit(&q.query));
            op.finish();
            t.sums.add("read", d);
            t.attempted += 1;
            match resp {
                Ok(r) if r.source == PlanSource::WarmHit => t.sums.add("service.submit_warm", d),
                Ok(_) => t.sums.add("service.submit_cold", d),
                Err(_) => t.failed += 1,
            }
        }
    }
    // Every plan the service now hands out must execute, on the final
    // snapshot, to that snapshot's reference.
    let last = service.engine();
    t.failed += rows_mismatches(inputs, batches, &last);
    for q in inputs.queries.iter().step_by(inputs.instances) {
        t.attempted += 1;
        let want = reference_for(last.db(), last.stats(), None, q);
        let got = service
            .submit(&q.query)
            .and_then(|resp| Executor::new(last.db()).run(&q.query, &resp.plan));
        if !got.is_ok_and(|out| want.matches(&out)) {
            t.failed += 1;
        }
    }
    let mut after = service.stats();
    since(&mut after, &before);
    t.service = vec![after];
    t.counts.ops = t.sums.count("read") + t.sums.count("ingest");
    t.counts.table_rows = last
        .db()
        .table_by_name("orders")
        .map_or(0, |o| o.row_count() as u64);

    service_replay(inputs, batches, false, t);
    service_replay(inputs, batches, true, t);
}

fn traced_churn(inputs: &Inputs, seconds: f64, log: &mut SpanLog, t: &mut Tally, m: &mut Metrics) {
    // The concurrent phase, untraced: the only per-layer numbers that need
    // two threads.
    let served = set_up(inputs, false);
    let mut churn = run_churn(inputs, &served, seconds / 2.0);
    churn.verify(inputs, &served);
    drop(served);
    t.attempted += churn.attempted;
    t.failed += churn.failed;
    let admit = sorted(churn.read_latency_ms.clone());
    let ingest = sorted(churn.ingest_ms.clone());
    m.set("service.ingest_stall_share", churn.stall_share());
    m.set("query_ms_p50", quantile(&admit, 0.50));
    m.set("admit_ms_p95", quantile(&admit, 0.95));
    m.set("admit_ms_p99", quantile(&admit, 0.99));
    m.set("ingest_ms_p50", quantile(&ingest, 0.50));
    m.set("ingest_ms_p95", quantile(&ingest, 0.95));
    m.set(
        "ingest_rows_per_s",
        ratio(churn.ingest_rows as f64, ingest.iter().sum::<f64>() / 1e3),
    );
    let late = |v: Vec<f64>| {
        if v.is_empty() {
            0.0
        } else {
            quantile(&sorted(v), 0.99)
        }
    };
    m.set(
        "bench.generator_late_ms_p99",
        late(churn.reader_late_ms).max(late(churn.writer_late_ms)),
    );
    println!(
        "# ingest_churn concurrent phase: reads={} ingests={} refreshes={}",
        admit.len(),
        ingest.len(),
        churn.refreshes
    );
    replay(inputs, log, t);
}

/// Turn the tally into the per-layer table.
fn layer_metrics(inputs: &Inputs, t: &Tally, m: &mut Metrics) {
    let (s, c) = (&t.sums, &t.counts);
    let churn = inputs.workload == Workload::IngestChurn;
    // Wall time of the ops the shares are taken over.
    let op_ms = s.total("read");
    m.set("plan.fingerprint_us", s.mean("plan.fingerprint") * 1e3);
    m.set("optimizer.optimize_ms", s.mean("optimizer.optimize"));
    m.set(
        "optimizer.time_share",
        ratio(s.total("loop.optimize"), op_ms),
    );
    m.set("optimizer.calls", c.rounds as f64);
    m.set(
        "optimizer.memo_reuse_ratio",
        ratio(c.dp_reused as f64, (c.dp_reused + c.dp_replanned) as f64),
    );
    m.set("sampling.validate_ms", s.mean("sampling.validate"));
    m.set(
        "sampling.time_share",
        ratio(s.total("loop.validate"), op_ms),
    );
    m.set("sampling.subtrees_executed", c.sample_executed as f64);
    m.set(
        "sampling.cache_hit_ratio",
        ratio(
            c.sample_hits as f64,
            (c.sample_hits + c.sample_executed) as f64,
        ),
    );
    m.set("sampling.refresh_ms", s.mean("sampling.refresh"));
    m.set(
        "stats.analyze_incremental_ms",
        s.mean("stats.analyze_incremental"),
    );
    m.set("stats.drift_ms", s.mean("stats.drift"));
    m.set("stats.tables_merged", c.tables_merged as f64);
    m.set("stats.tables_rescanned", c.tables_rescanned as f64);
    m.set("storage.append_ms", s.mean("storage.append"));
    m.set("storage.table_rows", c.table_rows as f64);

    m.set("executor.run_ms", s.mean("executor.run"));
    m.set("executor.time_share", ratio(s.total("executor.run"), op_ms));
    m.set(
        "executor.scan_mrows_per_s",
        ratio(t.rows_scanned as f64 / 1e6, s.total("executor.run") / 1e3),
    );
    m.set("executor.rows_scanned", c.exec.rows_scanned as f64);
    m.set("executor.rows_produced", c.exec.rows_produced as f64);
    m.set(
        "executor.peak_intermediate_rows",
        c.exec.peak_intermediate_rows as f64,
    );
    m.set("executor.parallel_workers", c.exec.parallel_workers as f64);

    m.set("core.reoptimize_ms", s.mean("core.reoptimize"));
    m.set("core.rounds_mean", ratio(c.rounds as f64, c.reopts as f64));
    m.set(
        "core.plan_changed_share",
        ratio(c.plan_changed as f64, c.reopts as f64),
    );
    m.set(
        "core.converged_share",
        ratio(c.converged as f64, c.reopts as f64),
    );
    m.set(
        "core.overhead_ratio.easy",
        ratio(s.total("reoptimize.easy"), s.total("run.easy")),
    );
    m.set(
        "core.overhead_ratio.hard",
        ratio(s.total("reoptimize.hard"), s.total("run.hard")),
    );
    m.set(
        "core.plan_gain",
        ratio(s.total("executor.run_original"), s.total("run.hard")),
    );
    m.set(
        "core.midquery.overhead_ratio",
        ratio(s.total("core.midquery.run"), s.total("executor.run")),
    );
    m.set("core.midquery.suspensions", c.suspensions as f64);
    m.set("core.midquery.replans", c.replans as f64);
    m.set("core.midquery.plan_switches", c.plan_switches as f64);
    m.set("core.midquery.splices", c.splices as f64);
    m.set(
        "core.midquery.useful_replan_ratio",
        ratio(c.plan_switches as f64, c.replans as f64),
    );

    m.set("service.submit_cold_ms", s.mean("service.submit_cold"));
    m.set(
        "service.submit_warm_us",
        s.mean("service.submit_warm") * 1e3,
    );
    // Signed: the service pools dry runs across a pass's templates, which
    // its layers called one by one cannot.
    m.set(
        "service.overhead_ms",
        ratio(
            if churn {
                0.0
            } else {
                op_ms - s.total("layers")
            },
            s.count("read") as f64,
        ),
    );
    let submitted = sum_stats(&t.service, |x| x.submitted);
    m.set(
        "service.warm_hit_ratio",
        ratio(sum_stats(&t.service, |x| x.warm_hits), submitted),
    );
    m.set(
        "service.reopts_run",
        sum_stats(&t.service, |x| x.reopts_run),
    );
    let revalidations = sum_stats(&t.service, |x| x.revalidations);
    m.set("service.revalidations", revalidations);
    m.set(
        "service.revalidations_saved_ratio",
        ratio(
            sum_stats(&t.service, |x| x.revalidations_saved),
            revalidations,
        ),
    );
    m.set(
        "service.table_evictions",
        sum_stats(&t.service, |x| x.table_evictions),
    );
    m.set(
        "service.stale_evictions",
        sum_stats(&t.service, |x| x.stale_evictions),
    );
    m.set(
        "service.ingest_overhead_ms",
        ratio(
            s.total("ingest") - s.total("ingest.layers"),
            s.count("ingest") as f64,
        ),
    );

    // Plain, layer-pass and traced views of the same ops ("read" is the op
    // through the service under the benchmark's spans).
    let view = |read: &str, ingest: &str| s.total(read) + s.robust_total(ingest);
    let plain = view("read.plain", "ingest.plain");
    m.set(
        "telemetry.overhead_ratio",
        ratio(view("read.traced", "ingest.traced"), plain),
    );
    m.set(
        "bench.trace_overhead_ratio",
        ratio(view("read", "ingest"), plain),
    );
    m.set(
        "telemetry.spans_per_op",
        ratio(c.program_spans as f64, c.ops as f64),
    );

    // The fold. Ingest spans are averaged over ingests, the rest over reads.
    let (reads, ingests) = (s.count("read.traced"), s.count("ingest.traced"));
    let traced = s.total("read.traced") + s.total("ingest.traced");
    let mut listed_us = 0u64;
    for (span, metric) in FOLDED_SPANS {
        let us = t.folded.get(span).copied().unwrap_or(0);
        listed_us += us;
        let per = if span.starts_with("ingest.") {
            ingests
        } else {
            reads
        };
        m.set(metric, ratio(us as f64 / 1e3, per as f64));
    }
    let all_us: u64 = t.folded.values().sum();
    m.set(
        "trace.unattributed_ms",
        ratio(traced - listed_us as f64 / 1e3, (reads + ingests) as f64),
    );
    m.set(
        "trace.fold_coverage_ratio",
        ratio(all_us as f64 / 1e3, traced),
    );
    if !churn {
        m.set("query_ms_p50", median(s.samples("read.plain")));
    }
    m.set("failed_share", ratio(t.failed as f64, t.attempted as f64));
}

/// The traced run of one workload: per-layer metrics, and the span file.
pub fn run(inputs: &Inputs, seconds: f64) -> RunResult {
    let mut log = SpanLog::new();
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    layer_set_up(inputs, &mut log, &mut metrics);
    if inputs.workload == Workload::IngestChurn {
        traced_churn(inputs, seconds, &mut log, &mut tally, &mut metrics);
    } else {
        traced_queries(inputs, seconds, &mut log, &mut tally);
    }
    layer_metrics(inputs, &tally, &mut metrics);
    let path = format!("{}/trace-{}.jsonl", crate::OUT_DIR, inputs.workload.name());
    std::fs::create_dir_all(crate::OUT_DIR)
        .and_then(|()| std::fs::write(&path, log.to_json_lines()))
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!(
        "# {} spans={} -> {path}",
        inputs.workload.name(),
        log.spans().len()
    );
    RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{generate, Sizing};

    /// The `=` metrics of the README: counts and ratios of counts.
    const EXACT: &[&str] = &[
        "optimizer.calls",
        "optimizer.memo_reuse_ratio",
        "sampling.subtrees_executed",
        "sampling.cache_hit_ratio",
        "executor.rows_scanned",
        "executor.rows_produced",
        "executor.peak_intermediate_rows",
        "executor.parallel_workers",
        "core.rounds_mean",
        "core.plan_changed_share",
        "core.converged_share",
        "core.midquery.suspensions",
        "core.midquery.replans",
        "core.midquery.plan_switches",
        "core.midquery.splices",
        "core.midquery.useful_replan_ratio",
        "service.warm_hit_ratio",
        "service.reopts_run",
        "service.revalidations",
        "service.revalidations_saved_ratio",
        "service.table_evictions",
        "service.stale_evictions",
        "stats.tables_merged",
        "stats.tables_rescanned",
        "storage.table_rows",
        "telemetry.spans_per_op",
        "failed_share",
    ];

    /// One traced pass over `inputs` (no concurrent phase: its numbers are
    /// timings), reduced to the exact metrics.
    fn exact_counts(inputs: &Inputs) -> Vec<(&'static str, f64)> {
        let mut log = SpanLog::new();
        let mut metrics = Metrics::default();
        let mut tally = Tally::default();
        if inputs.workload == Workload::IngestChurn {
            replay(inputs, &mut log, &mut tally);
        } else {
            traced_queries(inputs, 0.0, &mut log, &mut tally);
        }
        layer_metrics(inputs, &tally, &mut metrics);
        assert!(tally.attempted > 0 && !log.spans().is_empty());
        EXACT
            .iter()
            .map(|name| (*name, metrics.get(name).expect("metric is set")))
            .collect()
    }

    #[test]
    fn exact_metrics_repeat_for_a_fixed_seed() {
        for workload in Workload::ALL {
            let inputs = generate(workload, 3, &Sizing::tiny());
            let first = exact_counts(&inputs);
            assert_eq!(first, exact_counts(&inputs), "{}", workload.name());
            let failed = first.iter().find(|(name, _)| *name == "failed_share");
            assert_eq!(failed, Some(&("failed_share", 0.0)), "{}", workload.name());
        }
    }
}
