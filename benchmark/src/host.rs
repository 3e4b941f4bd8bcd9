//! Where and on what a run happened: the host fingerprint stored beside
//! every result, and the process's peak resident set.

use std::process::Command;

use serde_json::Value;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `VmHWM` of this process in MB (0 where `/proc` does not provide it).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Clock ticks (1/100 s) of steal time since boot, all CPUs: time a virtual
/// CPU was ready to run and the hypervisor ran something else. 0 where
/// `/proc/stat` does not report it.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Host fingerprint: a result is comparable only with results that carry
/// the same one.
pub fn fingerprint() -> Value {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Object(vec![
        ("nproc".to_string(), Value::Str(command_line("nproc", &[]))),
        (
            "available_parallelism".to_string(),
            Value::UInt(parallelism as u64),
        ),
        (
            "rustc".to_string(),
            Value::Str(command_line("rustc", &["-V"])),
        ),
        (
            "git_commit".to_string(),
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}
