//! Set-up and the timed runs (tracing off): the closed loop of the four
//! query workloads and the two-thread open loop of `ingest_churn`.

use std::sync::Arc;
use std::time::Duration;

use reopt_common::Stopwatch;
use reopt_core::ReoptEngine;
use reopt_executor::Executor;
use reopt_plan::{template_fingerprint, PhysicalPlan};
use reopt_service::{QueryService, ServiceConfig, ServiceStats};
use reopt_stats::AnalyzeOpts;

use crate::inputs::{Batch, Inputs, Regime};
use crate::metrics::{median, quantile, sorted};
use crate::reference::{reference_for, Reference};

/// One `append_rows` every 100 ms, one `submit` every millisecond.
pub const WRITE_PERIOD: Duration = Duration::from_millis(100);
pub const READ_PERIOD: Duration = Duration::from_millis(1);
/// A reader request answered later than this after its due time was stalled.
pub const STALL_MS: f64 = 1.0;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What set-up produces: the engine and (for the warm regime) the service.
#[derive(Debug)]
pub struct Served {
    pub engine: ReoptEngine,
    pub service: QueryService,
}

/// A service over `engine` with `ServiceConfig::default()`, except that
/// `trace` makes it record its own spans for every call (the span fold of
/// ingest ops needs that).
fn fresh_service(engine: &ReoptEngine, trace: bool) -> QueryService {
    // `QueryService::new` ignores `cfg.reopt` and `cfg.optimizer`: what the
    // service plans with is whatever the engine carries.
    let config = ServiceConfig {
        trace: trace.then_some(true),
        ..ServiceConfig::default()
    };
    QueryService::new(engine.clone(), config).expect("default config is valid")
}

/// ANALYZE, sample build, service construction, and the cache warm-up of
/// the warm regime.
pub fn set_up(inputs: &Inputs, trace: bool) -> Served {
    let engine = ReoptEngine::from_database(
        Arc::clone(&inputs.db),
        &AnalyzeOpts::default(),
        inputs.sample.clone(),
    )
    .expect("engine bootstrap")
    .with_mid_query(inputs.mid_query);
    let service = fresh_service(&engine, trace);
    if inputs.workload.regime() == Regime::Warm {
        for q in inputs.queries.iter().step_by(inputs.instances) {
            service.submit(&q.query).expect("cache warm-up");
        }
    }
    Served { engine, service }
}

/// Set up repeatedly (at least five times, for about a second) and return
/// the last instance with the median set-up time in seconds.
pub fn timed_set_up(inputs: &Inputs) -> (Served, f64) {
    let budget = Stopwatch::start();
    let mut times = Vec::new();
    loop {
        let t = Stopwatch::start();
        let served = set_up(inputs, false);
        times.push(t.elapsed().as_secs_f64());
        let enough = times.len() >= 5 && budget.elapsed() >= Duration::from_secs(1);
        if enough || times.len() >= 101 {
            return (served, median(&times));
        }
    }
}

/// The ops of pass `pass`, as indexes into `inputs.queries`, in arrival
/// order: every instance, except that a cold pass takes one instance per
/// template (a second instance of a template would warm-hit).
pub fn pass_ops(inputs: &Inputs, pass: usize) -> Vec<usize> {
    let mut ops = inputs.arrival.clone();
    if inputs.workload.regime() == Regime::ColdPerPass {
        ops.retain(|i| i % inputs.instances == pass % inputs.instances);
    }
    ops
}

/// Hands each op the service its regime calls for.
#[derive(Debug)]
pub struct Services<'a> {
    served: &'a Served,
    regime: Regime,
    fresh: Option<QueryService>,
    /// Counters of the fresh services retired so far (collected on demand:
    /// the timed runs do not pay for it).
    retired: Option<Vec<ServiceStats>>,
}

impl<'a> Services<'a> {
    pub fn new(served: &'a Served, regime: Regime, collect_stats: bool) -> Self {
        Services {
            served,
            regime,
            fresh: None,
            retired: collect_stats.then(Vec::new),
        }
    }

    fn renew(&mut self) {
        let old = self
            .fresh
            .replace(fresh_service(&self.served.engine, false));
        if let (Some(old), Some(retired)) = (old, &mut self.retired) {
            retired.push(old.stats());
        }
    }

    pub fn begin_pass(&mut self) {
        if self.regime == Regime::ColdPerPass {
            self.renew();
        }
    }

    pub fn for_op(&mut self) -> &QueryService {
        if self.regime == Regime::ColdPerQuery {
            self.renew();
        }
        match self.regime {
            Regime::Warm => &self.served.service,
            _ => self.fresh.as_ref().expect("begin_pass before for_op"),
        }
    }

    /// Counters of every service used: the retired fresh ones plus the live
    /// one (the warm service in the warm regime).
    pub fn stats(mut self) -> Vec<ServiceStats> {
        let mut all = self.retired.take().unwrap_or_default();
        match (self.regime, &self.fresh) {
            (Regime::Warm, _) => all.push(self.served.service.stats()),
            (_, Some(live)) => all.push(live.stats()),
            _ => {}
        }
        all
    }
}

/// Outcome of a timed closed-loop run.
#[derive(Debug, Default)]
pub struct ClosedRun {
    /// `execute` latency (admission to rows) of each distinct op — a query
    /// instance — once per pass that ran it.
    pub latency_ms: Vec<Vec<f64>>,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
}

impl ClosedRun {
    /// One latency per distinct op, ascending: the lower quartile of the
    /// op's times over the passes. The host is shared, and what its other
    /// tenants do only ever adds time, in bursts that last longer than a
    /// pass; the lower quartile stays put while up to three quarters of the
    /// passes are disturbed, where a statistic pooled over all passes moves
    /// with every burst.
    pub fn undisturbed_ms(&self) -> Vec<f64> {
        let per_op = self.latency_ms.iter().filter(|times| !times.is_empty());
        sorted(
            per_op
                .map(|times| quantile(&sorted(times.clone()), 0.25))
                .collect(),
        )
    }
}

/// One client thread; whole passes until `seconds` have elapsed.
pub fn run_closed(inputs: &Inputs, served: &Served, refs: &[Reference], seconds: f64) -> ClosedRun {
    let mut run = ClosedRun {
        latency_ms: vec![Vec::new(); inputs.queries.len()],
        ..ClosedRun::default()
    };
    let mut services = Services::new(served, inputs.workload.regime(), false);
    let wall = Stopwatch::start();
    while wall.elapsed().as_secs_f64() < seconds {
        services.begin_pass();
        for i in pass_ops(inputs, run.passes) {
            let service = services.for_op();
            let t = Stopwatch::start();
            let out = service.execute(&inputs.queries[i].query);
            run.latency_ms[i].push(ms(t.elapsed()));
            run.attempted += 1;
            if !out.is_ok_and(|eq| refs[i].matches(&eq.output)) {
                run.failed += 1;
                eprintln!(
                    "{}: query {i} failed or missed its reference",
                    inputs.queries[i].template
                );
            }
        }
        run.passes += 1;
    }
    run
}

/// A plan the reader was handed, the query that first received it, and how
/// many responses carried it.
#[derive(Debug)]
struct SeenPlan {
    plan: Arc<PhysicalPlan>,
    query: usize,
    uses: u64,
}

/// Outcome of the concurrent phase of `ingest_churn`.
#[derive(Debug, Default)]
pub struct ChurnRun {
    /// Reader: completion minus due time.
    pub read_latency_ms: Vec<f64>,
    /// Reader: send minus due time, over requests that were not queued
    /// behind their predecessor (the generator's own lateness).
    pub reader_late_ms: Vec<f64>,
    /// Writer: call start minus due time.
    pub writer_late_ms: Vec<f64>,
    /// `append_rows` call time.
    pub ingest_ms: Vec<f64>,
    pub ingest_rows: u64,
    pub refreshes: u64,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    seen: Vec<Vec<SeenPlan>>,
    batches_applied: usize,
}

fn spin_until(clock: &Stopwatch, due: Duration) -> Duration {
    loop {
        let now = clock.elapsed();
        if now >= due {
            return now;
        }
        std::hint::spin_loop();
    }
}

/// Writes beside reads on the warm service, one thread each, both open
/// loop, for `seconds` or until the write schedule ends.
pub fn run_churn(inputs: &Inputs, served: &Served, seconds: f64) -> ChurnRun {
    let service = &served.service;
    let window = Duration::from_secs_f64(seconds).min(WRITE_PERIOD * inputs.batches.len() as u32);
    let fingerprints: Vec<u64> = inputs
        .queries
        .iter()
        .map(|q| template_fingerprint(&q.query))
        .collect();
    let templates = inputs.queries.len() / inputs.instances;
    let clock = Stopwatch::start();

    let (reader, writer) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut r = ChurnRun {
                seen: (0..templates).map(|_| Vec::new()).collect(),
                ..ChurnRun::default()
            };
            let mut prev_done = Duration::ZERO;
            for i in 0u32.. {
                let due = READ_PERIOD * i;
                if due >= window {
                    break;
                }
                let (t, round) = (i as usize % templates, i as usize / templates);
                let q = t * inputs.instances + round % inputs.instances;
                let sent = spin_until(&clock, due);
                let response = service.submit(&inputs.queries[q].query);
                let done = clock.elapsed();
                r.read_latency_ms.push(ms(done - due));
                if prev_done <= due {
                    r.reader_late_ms.push(ms(sent - due));
                }
                prev_done = done;
                r.attempted += 1;
                match response {
                    Ok(resp) if resp.template == fingerprints[q] => {
                        let seen = &mut r.seen[t];
                        match seen
                            .iter_mut()
                            .rev()
                            .find(|p| Arc::ptr_eq(&p.plan, &resp.plan))
                        {
                            Some(p) => p.uses += 1,
                            None => seen.push(SeenPlan {
                                plan: resp.plan,
                                query: q,
                                uses: 1,
                            }),
                        }
                    }
                    _ => r.failed += 1,
                }
            }
            r
        });
        let writer = s.spawn(|| {
            let mut w = ChurnRun::default();
            for (i, batch) in inputs.batches.iter().enumerate() {
                let due = WRITE_PERIOD * i as u32;
                if due >= window {
                    break;
                }
                let now = clock.elapsed();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let start = clock.elapsed();
                w.writer_late_ms.push(ms(start.saturating_sub(due)));
                let report = service.append_rows(batch.table, &batch.rows);
                w.ingest_ms.push(ms(clock.elapsed() - start));
                w.attempted += 1;
                w.batches_applied += 1;
                match report {
                    Ok(rep) if rep.rows_appended == batch.rows.len() => {
                        w.ingest_rows += batch.rows.len() as u64;
                        w.refreshes += u64::from(rep.refreshed);
                    }
                    _ => w.failed += 1,
                }
            }
            w
        });
        (
            reader.join().expect("reader thread"),
            writer.join().expect("writer thread"),
        )
    });
    ChurnRun {
        wall_s: clock.elapsed().as_secs_f64(),
        attempted: reader.attempted + writer.attempted,
        failed: reader.failed + writer.failed,
        writer_late_ms: writer.writer_late_ms,
        ingest_ms: writer.ingest_ms,
        ingest_rows: writer.ingest_rows,
        refreshes: writer.refreshes,
        batches_applied: writer.batches_applied,
        ..reader
    }
}

impl ChurnRun {
    /// Share of reader requests answered more than `STALL_MS` after they
    /// were due.
    pub fn stall_share(&self) -> f64 {
        let stalled = self
            .read_latency_ms
            .iter()
            .filter(|&&l| l > STALL_MS)
            .count();
        stalled as f64 / self.read_latency_ms.len().max(1) as f64
    }

    /// The correctness gate of the concurrent phase, run after timing: the
    /// final snapshot holds exactly the appended rows, and every distinct
    /// plan a reader was handed executes, on that committed snapshot, to
    /// the snapshot's reference result. Failures are added to `failed`.
    pub fn verify(&mut self, inputs: &Inputs, served: &Served) {
        let last = served.service.engine();
        self.failed += rows_mismatches(inputs, &inputs.batches[..self.batches_applied], &last);
        let executor = Executor::new(last.db());
        for p in self.seen.iter().flatten() {
            let q = &inputs.queries[p.query];
            let want = reference_for(last.db(), last.stats(), None, q);
            if !executor
                .run(&q.query, &p.plan)
                .is_ok_and(|out| want.matches(&out))
            {
                self.failed += p.uses;
            }
        }
    }
}

/// Tables of `engine`'s snapshot whose row count is not the initial count
/// plus the rows of `applied`.
pub fn rows_mismatches(inputs: &Inputs, applied: &[Batch], engine: &ReoptEngine) -> u64 {
    let mut mismatches = 0;
    for table in inputs.db.tables() {
        let appended: usize = applied
            .iter()
            .filter(|b| b.table == table.name())
            .map(|b| b.rows.len())
            .sum();
        let now = engine.db().table(table.id()).map(|t| t.row_count());
        if now.ok() != Some(table.row_count() + appended) {
            mismatches += 1;
        }
    }
    mismatches
}
