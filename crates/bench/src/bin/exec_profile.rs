//! Per-operator executor profile over warm-cached TPC-H plans.
//!
//! Builds TPC-H with Zipf z = 1 (the benchmark's data seed), warms a
//! `QueryService` with one instance per template — the `tpch_warm` regime —
//! and then runs every instance's cached plan for a number of passes with a
//! recording tracer. Each operator's *self* time (its `exec.operator` span
//! minus the interval union of its child operators' spans) is summed per
//! template under the span's `op` attribute; the aggregate epilogue's
//! `exec.aggregate` span counts as `Aggregate`. Spans have microsecond
//! resolution, so operators far below a microsecond read low. The
//! executor runs at its default thread count (`REOPT_THREADS`, else the
//! available parallelism).
//!
//! ```text
//! cargo run --release -p reopt-bench --bin exec_profile -- [--scale 0.1] [--passes 5]
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use reopt_bench::TextTable;
use reopt_common::Stopwatch;
use reopt_core::ReoptEngine;
use reopt_executor::{ExecOpts, Executor};
use reopt_sampling::SampleConfig;
use reopt_service::{QueryService, ServiceConfig};
use reopt_stats::AnalyzeOpts;
use reopt_telemetry::{names, AttrValue, SpanRecord, Tracer};
use reopt_workloads::tpch::{self, TpchConfig};

/// The data and literal seed of the repository benchmark's TPC-H
/// workloads, so the profiled plans are the ones it measures.
const DATA_SEED: u64 = 0x5167_d0d0;

/// Instances per template, as in `tpch_warm`'s set-up.
const INSTANCES: usize = 10;

/// Operator labels in column order (`reopt_executor::exec::op_label`).
const OPS: [&str; 7] = [
    "SeqScan",
    "IndexScan",
    "HashJoin",
    "MergeJoin",
    "NestedLoopJoin",
    "IndexNestedLoopJoin",
    "Aggregate",
];

struct Args {
    scale: f64,
    passes: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: 0.1,
        passes: 5,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--scale" => args.scale = value.parse().map_err(|_| bad())?,
            "--passes" => args.passes = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.scale.is_nan() || args.scale <= 0.0 || args.passes == 0 {
        return Err("--scale and --passes must be positive".to_string());
    }
    Ok(args)
}

/// The operator label an executor span's self time is summed under;
/// `None` for spans that are not operators.
fn operator_label(span: &SpanRecord) -> Option<&'static str> {
    match (span.name, span.attr("op")) {
        (names::EXEC_OPERATOR, Some(AttrValue::Str(op))) => {
            Some(OPS.iter().find(|&&l| l == op).copied().unwrap_or("other"))
        }
        (names::EXEC_AGGREGATE, _) => Some("Aggregate"),
        _ => None,
    }
}

/// Per-template totals over every profiled run.
#[derive(Default)]
struct Profile {
    runs: u64,
    self_us: BTreeMap<&'static str, u64>,
    index_probes: u64,
    rows_produced: u64,
}

fn main() -> reopt_common::Result<()> {
    let args = parse_args().map_err(reopt_common::Error::invalid)?;
    let db = Arc::new(tpch::build_tpch_database(&TpchConfig {
        scale: args.scale,
        zipf_z: 1.0,
        seed: DATA_SEED,
        ..TpchConfig::default()
    })?);
    let engine = ReoptEngine::from_database(
        Arc::clone(&db),
        &AnalyzeOpts::default(),
        SampleConfig::default(),
    )?;
    let service = QueryService::new(engine, ServiceConfig::default())?;

    // A template's first instance re-optimizes and caches its plan, and
    // every later instance warm-hits it: the plans `tpch_warm` executes.
    let templates = tpch::all_template_names();
    let mut work = Vec::new();
    for (t, name) in templates.iter().enumerate() {
        for i in 0..INSTANCES {
            let mut rng = tpch::gen::instance_rng(DATA_SEED, name, i as u64);
            let query = tpch::instantiate(&db, name, &mut rng)?;
            let plan = service.submit(&query)?.plan;
            work.push((t, query, plan));
        }
    }

    let mut profiles: Vec<Profile> = templates.iter().map(|_| Profile::default()).collect();
    let wall = Stopwatch::start();
    for _ in 0..args.passes {
        for (t, query, plan) in &work {
            let tracer = Tracer::enabled();
            let opts = ExecOpts {
                tracer: tracer.clone(),
                ..ExecOpts::default()
            };
            let out = Executor::with_opts(&db, opts).run(query, plan)?;
            let profile = &mut profiles[*t];
            profile.runs += 1;
            profile.index_probes += out.metrics.index_probes;
            profile.rows_produced += out.metrics.rows_produced;
            tracer
                .finish()
                .fold_self_time(&mut profile.self_us, operator_label);
        }
    }
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    let mut header = vec!["template", "exec_ms/q"];
    header.extend(OPS);
    header.extend(["probes/q", "rows/q"]);
    let threads = ExecOpts::default().effective_threads();
    let mut table = TextTable::new(
        format!(
            "executor self time per query (ms) by operator — TPC-H scale {}, z = 1, \
             {INSTANCES} instances/template, {} passes, threads {threads}",
            args.scale, args.passes
        ),
        &header,
    );
    let mut total = Profile::default();
    let row = |label: &str, p: &Profile| {
        let per_q = |v: u64| v as f64 / p.runs.max(1) as f64;
        let all: u64 = p.self_us.values().sum();
        let mut cells = vec![label.to_string(), format!("{:.3}", per_q(all) / 1e3)];
        for op in OPS {
            let us = p.self_us.get(op).copied().unwrap_or(0);
            cells.push(format!("{:.3}", per_q(us) / 1e3));
        }
        cells.push(format!("{:.0}", per_q(p.index_probes)));
        cells.push(format!("{:.0}", per_q(p.rows_produced)));
        cells
    };
    for (name, p) in templates.iter().zip(&profiles) {
        table.push(row(name, p));
        total.runs += p.runs;
        total.index_probes += p.index_probes;
        total.rows_produced += p.rows_produced;
        for (op, us) in &p.self_us {
            *total.self_us.entry(op).or_default() += us;
        }
    }
    table.push(row("all", &total));
    let all_us: u64 = total.self_us.values().sum::<u64>().max(1);
    let mut share = vec!["share %".to_string(), "100".to_string()];
    for op in OPS {
        let us = total.self_us.get(op).copied().unwrap_or(0);
        share.push(format!("{:.1}", 100.0 * us as f64 / all_us as f64));
    }
    share.extend(["".to_string(), "".to_string()]);
    table.push(share);
    println!("{table}");
    println!(
        "# {} runs, {:.1} ms wall ({:.3} ms/run incl. tracing)",
        total.runs,
        wall_ms,
        wall_ms / total.runs.max(1) as f64
    );
    Ok(())
}
