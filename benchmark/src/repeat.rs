//! The modes that cover every workload: each run is a child process of this
//! same executable (so peak memory is per workload), its last output line
//! parsed back.
//!
//! * no `--workload`: every workload timed and traced, the whole table
//!   printed and stored in `benchmark/out/result.json`;
//! * `--repeat N`: N timed sets on seeds `seed .. seed+N`, per metric the
//!   median, quartiles and the spread relative to its bound, stored in
//!   `benchmark/out/repeat.json` (the first one committed as
//!   `BASELINE.json`). Fails if a spread exceeds its bound.

use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use crate::inputs::Workload;
use crate::metrics::{json_string, median, sorted, MetricSpec, END_TO_END, PER_LAYER};
use crate::{host, Args, OUT_DIR};

/// One child run: its result object and the steal time it reported.
struct ChildRun {
    result: Value,
    host_steal_ticks: u64,
}

/// Run one workload in a child process; its result, or why there is none.
fn child(args: &Args, workload: Workload, seed: u64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = serde_json::value_from_str(last)
        .map_err(|e| format!("{} printed no result: {e}", workload.name()))?;
    if !out.status.success() || result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!(
            "{} failed its correctness gate: {last}",
            workload.name()
        ));
    }
    let host_steal_ticks = stdout
        .lines()
        .find_map(|l| l.split_once("host_steal_ticks=")?.1.trim().parse().ok())
        .unwrap_or(0);
    Ok(ChildRun {
        result,
        host_steal_ticks,
    })
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    match result.get("metrics")?.get(name)?.get("value")? {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

fn write_record(name: &str, record: &Value) -> Result<(), String> {
    let path = format!("{OUT_DIR}/{name}");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, json_string(record) + "\n"))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("# wrote {path}");
    Ok(())
}

fn header(args: &Args) -> Vec<(String, Value)> {
    vec![
        ("host".to_string(), host::fingerprint()),
        ("seed".to_string(), Value::UInt(args.seed)),
        ("seconds".to_string(), Value::Float(args.seconds)),
    ]
}

/// Exit code of a mode's outcome: `Ok(false)` is a result out of bounds.
pub fn exit(outcome: Result<bool, String>) -> ExitCode {
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Every workload, timed then traced; every metric as
/// `workload metric value unit`.
pub fn all_workloads(args: &Args) -> Result<bool, String> {
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let mut modes = Vec::new();
        for (key, trace, catalogue) in [
            ("end_to_end", false, END_TO_END),
            ("per_layer", true, PER_LAYER),
        ] {
            let result = child(args, workload, args.seed, trace)?.result;
            for spec in catalogue {
                let value = metric_value(&result, spec.name).unwrap_or(0.0);
                println!("{} {} {value} {}", workload.name(), spec.name, spec.unit);
            }
            modes.push((key.to_string(), result));
        }
        workloads.push((workload.name().to_string(), Value::Object(modes)));
    }
    let mut record = header(args);
    record.push(("workloads".to_string(), Value::Object(workloads)));
    write_record("result.json", &Value::Object(record))?;
    Ok(true)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method) — the rule the acceptance driver applies.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values.to_vec());
    let n = data.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median, quartiles and relative spread of one metric over the sets.
struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
    spread: f64,
    bound: f64,
    ok: bool,
}

fn summarize(spec: &MetricSpec, values: &[f64]) -> Summary {
    let (q1, q3) = quartiles(values);
    let median = median(values);
    let spread = (q3 - q1) / median;
    let bound = spec.bound.expect("end-to-end metrics carry a bound");
    Summary {
        median,
        q1,
        q3,
        spread,
        bound,
        // The set-up time's spread is reported, not judged: the driver
        // compares its medians only.
        ok: spread <= bound || spec.name == "setup_s",
    }
}

impl Summary {
    fn to_json(&self, spec: &MetricSpec, values: &[f64]) -> Value {
        Value::Object(vec![
            ("unit".to_string(), Value::Str(spec.unit.to_string())),
            ("median".to_string(), Value::Float(self.median)),
            ("q1".to_string(), Value::Float(self.q1)),
            ("q3".to_string(), Value::Float(self.q3)),
            ("spread".to_string(), Value::Float(self.spread)),
            ("bound".to_string(), Value::Float(self.bound)),
            (
                "values".to_string(),
                Value::Array(values.iter().map(|v| Value::Float(*v)).collect()),
            ),
        ])
    }
}

/// `sets` timed sets of every workload, one seed per set.
pub fn repeat(args: &Args, sets: usize) -> Result<bool, String> {
    if sets < 2 {
        return Err("--repeat needs at least 2 sets to have quartiles".to_string());
    }
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let mut results = Vec::new();
        for set in 0..sets {
            results.push(child(args, workload, args.seed + set as u64, false)?);
        }
        let mut summaries = Vec::new();
        for spec in END_TO_END {
            let values: Vec<f64> = results
                .iter()
                .map(|r| metric_value(&r.result, spec.name).ok_or(format!("{} missing", spec.name)))
                .collect::<Result<_, _>>()?;
            let sum = summarize(spec, &values);
            println!(
                "{} {} median {} {} q1 {} q3 {} spread {:.4} bound {} {}",
                workload.name(),
                spec.name,
                sum.median,
                spec.unit,
                sum.q1,
                sum.q3,
                sum.spread,
                sum.bound,
                if sum.ok { "ok" } else { "EXCEEDED" }
            );
            all_ok &= sum.ok;
            summaries.push((spec.name.to_string(), sum.to_json(spec, &values)));
        }
        // A set with much steal time measured the host, not the program.
        let stolen: Vec<Value> = results
            .iter()
            .map(|r| Value::UInt(r.host_steal_ticks))
            .collect();
        println!(
            "# {} host_steal_ticks per set: {}",
            workload.name(),
            json_string(&Value::Array(stolen.clone()))
        );
        summaries.push(("host_steal_ticks".to_string(), Value::Array(stolen)));
        workloads.push((workload.name().to_string(), Value::Object(summaries)));
    }
    let mut record = header(args);
    record.push(("sets".to_string(), Value::UInt(sets as u64)));
    record.push(("workloads".to_string(), Value::Object(workloads)));
    write_record("repeat.json", &Value::Object(record))?;
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
