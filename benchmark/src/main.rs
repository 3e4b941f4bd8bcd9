//! The repository's one benchmark: five workloads against the shipped
//! defaults, end-to-end metrics from a timed run, per-layer metrics from a
//! separate traced run of the same inputs. See `README.md` beside
//! `Cargo.toml` and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! reopt-benchmark --workload W --seed S --seconds N --trace 0|1   one run
//! reopt-benchmark [--seed S] [--seconds N]                        every workload, both modes
//! reopt-benchmark --repeat N [--seed S] [--seconds N]             N timed sets, spread vs bound
//! ```

mod host;
mod inputs;
mod metrics;
mod reference;
mod repeat;
mod spans;
mod timed;
mod traced;

use std::process::ExitCode;

use serde_json::Value;

use inputs::{Sizing, Workload};
use metrics::{json_string, quantile, sorted, Metrics, RunResult, END_TO_END, PER_LAYER};

/// Where span files and result records go, relative to the directory the
/// command is run from (the repository root).
pub const OUT_DIR: &str = "benchmark/out";

#[derive(Debug, Clone)]
pub struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--repeat" => args.repeat = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(args)
}

/// End-to-end metrics of one timed run.
fn timed_run(workload: Workload, inputs: &inputs::Inputs, seconds: f64) -> RunResult {
    let (served, setup_s) = timed::timed_set_up(inputs);
    let refs = reference::references(inputs, served.engine.stats());
    let mut metrics = Metrics::default();
    let (latency, attempted, failed);
    if workload == Workload::IngestChurn {
        let mut run = timed::run_churn(inputs, &served, seconds);
        metrics.set("peak_rss_mb", host::peak_rss_mb());
        run.verify(inputs, &served);
        println!(
            "# {} reads={} ingests={} refreshes={} stall_share={:.4} wall_s={:.3}",
            workload.name(),
            run.read_latency_ms.len(),
            run.ingest_ms.len(),
            run.refreshes,
            run.stall_share(),
            run.wall_s
        );
        // Open loop: a read is timed from when it was due, and the rate is
        // what the reader got through, not what it would like to.
        metrics.set(
            "queries_per_s",
            run.read_latency_ms.len() as f64 / run.wall_s,
        );
        (attempted, failed) = (run.attempted, run.failed);
        latency = sorted(run.read_latency_ms);
    } else {
        let run = timed::run_closed(inputs, &served, &refs, seconds);
        metrics.set("peak_rss_mb", host::peak_rss_mb());
        latency = run.undisturbed_ms();
        println!(
            "# {} distinct_ops={} passes={} ops={}",
            workload.name(),
            latency.len(),
            run.passes,
            run.attempted
        );
        metrics.set(
            "queries_per_s",
            latency.len() as f64 / (latency.iter().sum::<f64>() / 1e3),
        );
        (attempted, failed) = (run.attempted, run.failed);
    }
    println!(
        "# {} latency samples={} beyond_p95={} p50_ms={}",
        workload.name(),
        latency.len(),
        latency.len() - (0.95 * latency.len() as f64).ceil() as usize,
        quantile(&latency, 0.50)
    );
    metrics.set("query_ms_p95", quantile(&latency, 0.95));
    metrics.set("setup_s", setup_s);
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// One run of one workload in this process. Prints every metric as
/// `workload metric value unit`, then the result object as the last line.
fn run_one(args: &Args, workload: Workload) -> ExitCode {
    // The benchmark measures the shipped defaults, not the caller's shell.
    for knob in ["REOPT_THREADS", "REOPT_COLUMNAR", "REOPT_TRACE"] {
        std::env::remove_var(knob);
    }
    let steal_before = host::steal_ticks();
    let inputs = inputs::generate(workload, args.seed, &Sizing::full());
    println!(
        "# {} seed={} datagen_s={:.3} rows={} queries={}",
        workload.name(),
        args.seed,
        inputs.datagen_s,
        inputs.db.total_rows(),
        inputs.queries.len()
    );
    let (result, catalogue) = if args.trace {
        (traced::run(&inputs, args.seconds), PER_LAYER)
    } else {
        (timed_run(workload, &inputs, args.seconds), END_TO_END)
    };
    for spec in catalogue {
        let value = result.metrics.get(spec.name).unwrap_or(0.0);
        println!("{} {} {value} {}", workload.name(), spec.name, spec.unit);
    }
    // Time the hypervisor gave to other tenants while this run wanted the
    // CPU: a run with much of it measured the host, not the program.
    let stolen = host::steal_ticks().saturating_sub(steal_before);
    println!("# {} host_steal_ticks={stolen}", workload.name());
    let json = result.to_json(catalogue);
    let record = Value::Object(vec![
        ("workload".to_string(), Value::Str(workload.name().into())),
        ("seed".to_string(), Value::UInt(args.seed)),
        ("seconds".to_string(), Value::Float(args.seconds)),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("host".to_string(), host::fingerprint()),
        ("host_steal_ticks".to_string(), Value::UInt(stolen)),
        ("result".to_string(), json.clone()),
    ]);
    let path = format!(
        "{OUT_DIR}/run-{}-trace{}.json",
        workload.name(),
        u8::from(args.trace)
    );
    if let Err(e) =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, json_string(&record)))
    {
        eprintln!("cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", json_string(&json));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{}: {} of {} ops failed or missed their reference",
            workload.name(),
            result.failed,
            result.attempted
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build: run with --release");
        return ExitCode::FAILURE;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match (args.workload, args.repeat) {
        (Some(workload), _) => run_one(&args, workload),
        (None, Some(sets)) => repeat::exit(repeat::repeat(&args, sets)),
        (None, None) => repeat::exit(repeat::all_workloads(&args)),
    }
}
