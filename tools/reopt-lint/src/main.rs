//! CLI for the workspace lint. See `--help`.

use reopt_lint::{baseline::Baseline, check, rules::Rule};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
reopt-lint — determinism & robustness static analysis for the reopt workspace

USAGE:
    cargo run -p reopt-lint -- [OPTIONS]

OPTIONS:
    --check              Fail (exit 1) on any violation not covered by
                         lint-baseline.toml, and on baseline entries inside
                         burned-down (deny-listed) crates. Default mode.
    --write-baseline     Regenerate lint-baseline.toml from the current tree,
                         preserving reasons of surviving entries.
    --report <PATH>      Also write the residual report to PATH.
    --root <PATH>        Workspace root (default: nearest ancestor of the
                         current directory containing lint-baseline.toml,
                         else the current directory).
    --list               Print every raw finding (including baselined ones).
    -h, --help           This text.
";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut write_baseline = false;
    let mut list = false;
    let mut report_path: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => {}
            "--write-baseline" => write_baseline = true,
            "--list" => list = true,
            "--report" => match args.next() {
                Some(p) => report_path = Some(PathBuf::from(p)),
                None => return usage_error("--report needs a path"),
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage_error("--root needs a path"),
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown option `{other}`")),
        }
    }

    let root = root.unwrap_or_else(find_root);
    let baseline_path = root.join("lint-baseline.toml");
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("reopt-lint: {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
        },
        Err(_) => Baseline::default(),
    };

    let violations = match check::scan_workspace(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("reopt-lint: scanning {} failed: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if list {
        for v in &violations {
            println!("{v}");
        }
    }

    if write_baseline {
        let fresh = check::regenerate_baseline(&violations, &baseline);
        if let Some(e) = fresh.entries.iter().find(|e| fresh.denied(&e.file)) {
            eprintln!(
                "reopt-lint: refusing to write a baseline entry for burned-down path {} \
                 ({} × {}) — fix or waive the sites instead",
                e.file,
                e.allowed,
                e.rule.id()
            );
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(&baseline_path, fresh.render()) {
            eprintln!(
                "reopt-lint: writing {} failed: {e}",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
        println!(
            "wrote {} ({} entries)",
            baseline_path.display(),
            fresh.entries.len()
        );
        return ExitCode::SUCCESS;
    }

    let outcome = check::check(&violations, &baseline);
    let report = check::render_report(&outcome, &baseline);
    if let Some(path) = &report_path {
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("reopt-lint: writing {} failed: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    print!("{report}");

    // Waiver-syntax findings can hide inside otherwise-baselined groups;
    // surface them loudly.
    let broken_waivers = violations
        .iter()
        .filter(|v| v.rule == Rule::WaiverSyntax)
        .count();
    if broken_waivers > 0 {
        eprintln!("reopt-lint: {broken_waivers} malformed or orphan waiver(s) — see report");
    }

    if outcome.passed() {
        println!("reopt-lint: OK");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "reopt-lint: FAILED — {} new violation(s), {} forbidden baseline entr(ies)",
            outcome.new_violations.len(),
            outcome.denied_entries.len()
        );
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("reopt-lint: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

/// Nearest ancestor holding `lint-baseline.toml` (so the tool runs from any
/// workspace subdirectory), else the current directory.
fn find_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = cwd.clone();
    loop {
        if dir.join("lint-baseline.toml").is_file() {
            return dir;
        }
        if !dir.pop() {
            return cwd;
        }
    }
}
