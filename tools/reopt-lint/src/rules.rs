//! The rule catalog (R1–R5) and waiver grammar.
//!
//! A waiver is a comment of the form `lint: <kind>-ok(<reason>)` placed on
//! the offending line or on the line directly above it. The reason is
//! mandatory and must be non-empty — an empty or malformed waiver is itself
//! a (non-baselineable) violation, so every suppression in the tree carries
//! a written justification. So is an *orphan* waiver, one that suppresses
//! no finding of its kind: deleted code must not leave its justification
//! behind.

use crate::lexer::{lex, LexedFile};
use std::fmt;

/// The rule catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// R1: iterating a `HashMap`/`HashSet` in a result-producing crate.
    /// Iteration order is unspecified and differs across processes, so any
    /// value that escapes such a loop can break bit-identical replay.
    UnorderedIter,
    /// R2: `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!` in library
    /// code. Library failures must be `Error::internal` values, not aborts
    /// of a worker thread that poison shared state.
    Panic,
    /// R3: wall-clock or OS entropy (`Instant::now`, `SystemTime`,
    /// `thread_rng`, ...) outside `crates/bench`. All timing flows through
    /// `reopt_common::timing::Stopwatch`; everything else replays.
    WallClock,
    /// R4: `Ordering::Relaxed` without a written justification that the
    /// ordering cannot affect query results.
    RelaxedOrdering,
    /// R5: `.lock().unwrap()` — a panicked lock holder cascades into every
    /// later locker. Use `reopt_common::sync::lock_unpoisoned`.
    LockUnwrap,
    /// Malformed waiver (unknown kind or empty reason) or orphan waiver
    /// (suppresses no finding). Never baselineable.
    WaiverSyntax,
}

impl Rule {
    /// Stable identifier used in baseline files and reports.
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnorderedIter => "unordered-iter",
            Rule::Panic => "panic",
            Rule::WallClock => "wall-clock",
            Rule::RelaxedOrdering => "relaxed",
            Rule::LockUnwrap => "lock-unwrap",
            Rule::WaiverSyntax => "waiver",
        }
    }

    /// The waiver kind that suppresses this rule (`// lint: <kind>(...)`).
    pub fn waiver_kind(self) -> Option<&'static str> {
        match self {
            Rule::UnorderedIter => Some("ordered-ok"),
            Rule::Panic => Some("panic-ok"),
            Rule::WallClock => Some("clock-ok"),
            Rule::RelaxedOrdering => Some("relaxed-ok"),
            Rule::LockUnwrap => Some("lock-ok"),
            Rule::WaiverSyntax => None,
        }
    }

    pub fn from_id(id: &str) -> Option<Rule> {
        match id {
            "unordered-iter" => Some(Rule::UnorderedIter),
            "panic" => Some(Rule::Panic),
            "wall-clock" => Some(Rule::WallClock),
            "relaxed" => Some(Rule::RelaxedOrdering),
            "lock-unwrap" => Some(Rule::LockUnwrap),
            "waiver" => Some(Rule::WaiverSyntax),
            _ => None,
        }
    }

    /// Whether the rule applies to `crate_name` (the `crates/<name>` stem).
    pub fn applies_to(self, crate_name: &str) -> bool {
        match self {
            // Every crate whose output feeds query results — including,
            // since the ingest refactor, the data-bearing crates: storage
            // mutates tables, stats derives the published statistics and
            // drift scores, sampling replays dry-run row sets. Unordered
            // iteration in any of them can leak into plan choice.
            Rule::UnorderedIter => {
                matches!(
                    crate_name,
                    "executor"
                        | "optimizer"
                        | "plan"
                        | "core"
                        | "service"
                        | "telemetry"
                        | "storage"
                        | "stats"
                        | "sampling"
                )
            }
            // Bench binaries are experiment drivers; panicking on a broken
            // setup is the right behavior there.
            Rule::Panic | Rule::WallClock => crate_name != "bench",
            Rule::RelaxedOrdering | Rule::LockUnwrap | Rule::WaiverSyntax => true,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: Rule,
    /// The offending code line, trimmed.
    pub excerpt: String,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.file, self.line, self.rule, self.message, self.excerpt
        )
    }
}

/// A parsed waiver comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// 1-based line the waiver comment sits on.
    pub line: usize,
    /// e.g. `ordered-ok`.
    pub kind: String,
    pub reason: String,
}

/// Parse every `lint: <kind>(<reason>)` waiver out of a comment string.
pub fn parse_waivers(comment: &str, line: usize) -> Vec<Waiver> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("lint:") {
        rest = &rest[pos + "lint:".len()..];
        let body = rest.trim_start();
        let kind_len = body
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-' || c == '_'))
            .unwrap_or(body.len());
        let kind = &body[..kind_len];
        let after_kind = &body[kind_len..];
        let reason = after_kind
            .strip_prefix('(')
            .and_then(|r| r.find(')').map(|end| r[..end].trim().to_string()));
        out.push(Waiver {
            line,
            kind: kind.to_string(),
            reason: reason.unwrap_or_default(),
        });
    }
    out
}

const KNOWN_KINDS: &[&str] = &[
    "ordered-ok",
    "panic-ok",
    "clock-ok",
    "relaxed-ok",
    "lock-ok",
];

/// Iteration methods whose visit order on a hash container is unspecified.
const UNORDERED_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
    ".retain(",
];

/// R2 patterns. `.unwrap()` keeps its parens so `unwrap_or*` never fires.
const PANIC_PATTERNS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    ".expect_err(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// R3 patterns: wall-clock reads and OS entropy sources.
const CLOCK_PATTERNS: &[&str] = &[
    "Instant::now",
    "SystemTime",
    "thread_rng",
    "OsRng",
    "from_entropy",
    "getrandom",
];

/// Lint one file. `rel_path` is the repo-relative path used in diagnostics;
/// `crate_name` scopes rule applicability (`"executor"`, `"core"`, ...).
pub fn lint_source(rel_path: &str, crate_name: &str, source: &str) -> Vec<Violation> {
    let lexed = lex(source);
    let hash_idents = harvest_hash_idents(&lexed);
    let mut out = Vec::new();

    // Waiver syntax is checked everywhere, including test code: a broken
    // waiver anywhere is a lie waiting to migrate. Well-formed waivers are
    // kept, with their comment, to be matched against the findings.
    let mut waivers: Vec<(Waiver, String)> = Vec::new();
    for (idx, l) in lexed.lines.iter().enumerate() {
        for w in parse_waivers(&l.comment, idx + 1) {
            if !KNOWN_KINDS.contains(&w.kind.as_str()) {
                out.push(Violation {
                    file: rel_path.to_string(),
                    line: w.line,
                    rule: Rule::WaiverSyntax,
                    excerpt: l.comment.trim().to_string(),
                    message: format!(
                        "unknown waiver kind `{}` (known: {})",
                        w.kind,
                        KNOWN_KINDS.join(", ")
                    ),
                });
            } else if w.reason.is_empty() {
                out.push(Violation {
                    file: rel_path.to_string(),
                    line: w.line,
                    rule: Rule::WaiverSyntax,
                    excerpt: l.comment.trim().to_string(),
                    message: format!(
                        "waiver `{}` has an empty reason — every suppression must say why",
                        w.kind
                    ),
                });
            } else {
                waivers.push((w, l.comment.trim().to_string()));
            }
        }
    }

    // Findings of every rule that applies here, before waivers:
    // (rule, 0-based line, excerpt, message).
    let mut findings: Vec<(Rule, usize, String, String)> = Vec::new();
    let mut push = |rule: Rule, line_idx: usize, excerpt: &str, message: String| {
        if rule.applies_to(crate_name) {
            findings.push((rule, line_idx, excerpt.trim().to_string(), message));
        }
    };

    for (idx, l) in lexed.lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        let code = l.code.as_str();

        // R5 before R2 so a `.lock().unwrap()` reports once, as R5.
        let mut lock_unwrap_here = false;
        if let Some(pos) = find_lock_panic(code) {
            lock_unwrap_here = true;
            push(
                Rule::LockUnwrap,
                idx,
                code,
                format!(
                    "`{}` panics every later locker once one holder dies; use \
                     reopt_common::sync::lock_unpoisoned",
                    &code[pos..code.len().min(pos + 16)].trim_end()
                ),
            );
        }

        // R2: no-panic library code.
        for pat in PANIC_PATTERNS {
            let mut search = 0usize;
            while let Some(rel) = code[search..].find(pat) {
                let pos = search + rel;
                search = pos + pat.len();
                if lock_unwrap_here && preceded_by_lock(code, pos) {
                    continue; // already reported as R5
                }
                push(
                    Rule::Panic,
                    idx,
                    code,
                    format!(
                        "`{}` in library code — return Error::internal instead",
                        pat.trim_end_matches('(')
                    ),
                );
            }
        }

        // R3: wall-clock / entropy.
        for pat in CLOCK_PATTERNS {
            if code.contains(pat) {
                push(
                    Rule::WallClock,
                    idx,
                    code,
                    format!(
                        "`{pat}` breaks replay determinism — route timing through \
                         reopt_common::timing::Stopwatch"
                    ),
                );
            }
        }

        // R4: Relaxed atomics need a written justification.
        if code.contains("Ordering::Relaxed") {
            push(
                Rule::RelaxedOrdering,
                idx,
                code,
                "`Ordering::Relaxed` must carry a `lint: relaxed-ok(<why results cannot \
                 depend on this ordering>)` waiver"
                    .to_string(),
            );
        }

        // R1: unordered iteration over a known hash container.
        for m in UNORDERED_METHODS {
            let mut search = 0usize;
            while let Some(rel) = code[search..].find(m) {
                let pos = search + rel;
                search = pos + m.len();
                // rustfmt splits long chains, so a method at the start of a
                // line gets its receiver from the previous code line.
                let recv = receiver_ident(code, pos).or_else(|| {
                    if code[..pos].trim().is_empty() {
                        prev_code_line(&lexed, idx)
                            .and_then(|prev| receiver_ident(prev, prev.trim_end().len()))
                    } else {
                        None
                    }
                });
                if let Some(recv) = recv {
                    if hash_idents.contains(&recv) {
                        push(
                            Rule::UnorderedIter,
                            idx,
                            code,
                            format!(
                                "`{recv}{}` iterates a hash container in unspecified order — \
                                 use a BTreeMap/BTreeSet, sort the results, or waive with \
                                 ordered-ok",
                                m.trim_end_matches('(')
                            ),
                        );
                    }
                }
            }
        }
        if let Some(expr) = for_loop_iterated_expr(code) {
            if let Some(recv) = trailing_ident(&expr) {
                if hash_idents.contains(&recv) {
                    push(
                        Rule::UnorderedIter,
                        idx,
                        code,
                        format!("`for … in {expr}` iterates a hash container in unspecified order"),
                    );
                }
            }
        }
    }

    // A waiver suppresses findings of its kind on its own line and the
    // next; one that suppresses none is an orphan.
    let mut used = vec![false; waivers.len()];
    for (rule, line_idx, excerpt, message) in findings {
        let line = line_idx + 1;
        let mut waived = false;
        for ((w, _), used) in waivers.iter().zip(used.iter_mut()) {
            if Some(w.kind.as_str()) == rule.waiver_kind() && (w.line == line || w.line + 1 == line)
            {
                *used = true;
                waived = true;
            }
        }
        if !waived {
            out.push(Violation {
                file: rel_path.to_string(),
                line,
                rule,
                excerpt,
                message,
            });
        }
    }
    for ((w, comment), used) in waivers.into_iter().zip(used) {
        if !used {
            out.push(Violation {
                file: rel_path.to_string(),
                line: w.line,
                rule: Rule::WaiverSyntax,
                excerpt: comment,
                message: format!(
                    "orphan waiver: `{}` suppresses no finding on this line or the next — \
                     delete it along with the code it justified",
                    w.kind
                ),
            });
        }
    }
    out
}

/// The nearest non-blank code line strictly above `idx`, if any.
fn prev_code_line(lexed: &LexedFile, idx: usize) -> Option<&str> {
    lexed.lines[..idx]
        .iter()
        .rev()
        .map(|l| l.code.as_str())
        .find(|c| !c.trim().is_empty())
}

/// Find `.lock()` immediately followed by `.unwrap()` / `.expect(`.
fn find_lock_panic(code: &str) -> Option<usize> {
    let mut search = 0usize;
    while let Some(rel) = code[search..].find(".lock()") {
        let pos = search + rel;
        let after = code[pos + ".lock()".len()..].trim_start();
        if after.starts_with(".unwrap()") || after.starts_with(".expect(") {
            return Some(pos);
        }
        search = pos + ".lock()".len();
    }
    None
}

/// Whether the panic pattern at `pos` directly follows `.lock()`.
fn preceded_by_lock(code: &str, pos: usize) -> bool {
    code[..pos].trim_end().ends_with(".lock()")
}

/// Identifiers (variables, fields, map-returning methods) declared with a
/// `HashMap`/`HashSet` type somewhere in this file. Single-file and
/// line-local by design: a cross-file map type will not be caught here —
/// that is what the manual audit + the equivalence suites are for.
fn harvest_hash_idents(lexed: &LexedFile) -> Vec<String> {
    let mut idents = Vec::new();
    for l in &lexed.lines {
        let code = l.code.as_str();
        for marker in ["HashMap<", "HashSet<", "HashMap::", "HashSet::"] {
            let mut search = 0usize;
            while let Some(rel) = code[search..].find(marker) {
                let pos = search + rel;
                search = pos + marker.len();
                // `name: …Hash{Map,Set}<…>` — field, param, or let binding.
                if let Some(name) = decl_name_before(code, pos) {
                    if !idents.contains(&name) {
                        idents.push(name);
                    }
                }
            }
        }
        // `fn name(…) -> …Hash{Map,Set}…` — a map-returning accessor: the
        // call `self.name().iter()` is just as unordered as the field.
        if let (Some(fn_pos), Some(arrow)) = (find_fn_decl(code), code.find("->")) {
            let ret = &code[arrow..];
            if ret.contains("HashMap") || ret.contains("HashSet") {
                if let Some(name) = ident_at(code, fn_pos) {
                    if !idents.contains(&name) {
                        idents.push(name);
                    }
                }
            }
        }
    }
    idents
}

/// Position right after `fn ` in a function declaration, if any.
fn find_fn_decl(code: &str) -> Option<usize> {
    let pos = code.find("fn ")?;
    // Reject `fn` as a suffix of an identifier (e.g. `botfn `).
    if pos > 0 {
        let prev = code[..pos].chars().next_back()?;
        if prev.is_alphanumeric() || prev == '_' {
            return None;
        }
    }
    Some(pos + 3)
}

/// Read the identifier starting at byte `pos`.
fn ident_at(code: &str, pos: usize) -> Option<String> {
    let rest = &code[pos..];
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    if end == 0 {
        None
    } else {
        Some(rest[..end].to_string())
    }
}

/// Given the byte position of a `Hash{Map,Set}` type use, walk left over
/// type syntax to the `name:` / `name = ` that binds it.
fn decl_name_before(code: &str, type_pos: usize) -> Option<String> {
    // Drop the rest of the type path the marker sits in: the `Fx` of
    // `FxHashMap`, or a `std::collections::` qualifier.
    let mut left = code[..type_pos]
        .trim_end_matches(|c: char| c.is_alphanumeric() || c == '_' || c == ':')
        .trim_end();
    // Skip type-position tokens between the name and the hash type:
    // `&`, `&mut`, `Mutex<`, `Arc<`, lifetimes, `=` for let-inits.
    loop {
        let trimmed = left.trim_end();
        if let Some(stripped) = trimmed
            .strip_suffix('&')
            .or_else(|| trimmed.strip_suffix("&mut"))
            .or_else(|| trimmed.strip_suffix("mut"))
            .or_else(|| trimmed.strip_suffix('<'))
            .or_else(|| trimmed.strip_suffix('='))
            .or_else(|| trimmed.strip_suffix(','))
        {
            // `Wrapper<` — drop the wrapper type name too.
            let stripped = if trimmed.ends_with('<') {
                let s = stripped.trim_end();
                let cut = s
                    .rfind(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
                    .map(|i| i + 1)
                    .unwrap_or(0);
                &s[..cut]
            } else {
                stripped
            };
            left = stripped;
            continue;
        }
        break;
    }
    let left = left.trim_end();
    let left = left.strip_suffix(':').unwrap_or(left).trim_end();
    let cut = left
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
        .map(|i| i + 1)
        .unwrap_or(0);
    let name = &left[cut..];
    // A turbofish / path segment (`FxHashMap::default`) has no binder here.
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    // Reserved words that can sit before `:`/`=` in non-binding positions.
    if matches!(name, "in" | "return" | "else" | "if" | "match" | "where") {
        return None;
    }
    Some(name.to_string())
}

/// The identifier a method call at `dot_pos` (byte index of the `.`) is
/// invoked on: `map.iter()` → `map`; `self.lock().values()` → `lock`;
/// `delta.map.iter()` → `map`. Returns `None` for non-ident receivers.
fn receiver_ident(code: &str, dot_pos: usize) -> Option<String> {
    let mut left = &code[..dot_pos];
    // Skip a trailing call: `lock()` → position before `(`.
    if left.ends_with(')') {
        let mut depth = 0i32;
        let mut cut = None;
        for (i, c) in left.char_indices().rev() {
            match c {
                ')' => depth += 1,
                '(' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = Some(i);
                        break;
                    }
                }
                _ => {}
            }
        }
        left = &left[..cut?];
    }
    let cut = left
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
        .map(|i| i + 1)
        .unwrap_or(0);
    let name = &left[cut..];
    if name.is_empty() {
        None
    } else {
        Some(name.to_string())
    }
}

/// For `for x in <expr> {`, the iterated expression (braces stripped).
fn for_loop_iterated_expr(code: &str) -> Option<String> {
    let for_pos = code.find("for ")?;
    if for_pos > 0 {
        let prev = code[..for_pos].chars().next_back()?;
        if prev.is_alphanumeric() || prev == '_' {
            return None;
        }
    }
    let rest = &code[for_pos..];
    let in_pos = rest.find(" in ")?;
    let expr = &rest[in_pos + 4..];
    let expr = expr.split('{').next()?.trim();
    if expr.is_empty() {
        None
    } else {
        Some(expr.to_string())
    }
}

/// Trailing identifier of an expression: `&self.results` → `results`.
fn trailing_ident(expr: &str) -> Option<String> {
    let expr = expr.trim_end_matches(')');
    let cut = expr
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
        .map(|i| i + 1)
        .unwrap_or(0);
    let name = &expr[cut..];
    if name.is_empty() {
        None
    } else {
        Some(name.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(crate_name: &str, src: &str) -> Vec<(Rule, usize)> {
        lint_source("x.rs", crate_name, src)
            .iter()
            .map(|v| (v.rule, v.line))
            .collect()
    }

    #[test]
    fn a_waiver_that_suppresses_nothing_is_an_orphan() {
        // Its code was deleted: the justification must go with it.
        let src = "fn f() {\n    // lint: relaxed-ok(telemetry counter)\n    let x = 1;\n}\n";
        assert_eq!(rules_of("service", src), vec![(Rule::WaiverSyntax, 2)]);
        // Same line or the one below: both consume the waiver.
        let above = "fn f(c: &AtomicU64) -> u64 {\n    // lint: relaxed-ok(telemetry)\n    c.load(Ordering::Relaxed)\n}\n";
        let inline = "fn f(c: &AtomicU64) -> u64 {\n    c.load(Ordering::Relaxed) // lint: relaxed-ok(telemetry)\n}\n";
        assert!(rules_of("service", above).is_empty());
        assert!(rules_of("service", inline).is_empty());
        // Two lines above is out of reach: an orphan and an unwaived
        // finding.
        let far = "fn f(c: &AtomicU64) -> u64 {\n    // lint: relaxed-ok(telemetry)\n\n    c.load(Ordering::Relaxed)\n}\n";
        let mut found = rules_of("service", far);
        found.sort();
        assert_eq!(
            found,
            vec![(Rule::RelaxedOrdering, 4), (Rule::WaiverSyntax, 2)]
        );
    }

    #[test]
    fn a_waiver_of_another_kind_or_an_exempt_site_is_an_orphan() {
        // Wrong kind for the finding beside it.
        let src =
            "fn f(x: Option<u64>) -> u64 {\n    x.unwrap() // lint: clock-ok(not a clock)\n}\n";
        let mut found = rules_of("plan", src);
        found.sort();
        assert_eq!(found, vec![(Rule::Panic, 2), (Rule::WaiverSyntax, 2)]);
        // A rule the crate is exempt from, or test code, has nothing to
        // suppress.
        let bench = "fn f(x: Option<u64>) -> u64 {\n    x.unwrap() // lint: panic-ok(setup)\n}\n";
        assert_eq!(rules_of("bench", bench), vec![(Rule::WaiverSyntax, 2)]);
        let test = "#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); } // lint: panic-ok(test)\n}\n";
        assert_eq!(rules_of("plan", test), vec![(Rule::WaiverSyntax, 3)]);
    }
}
