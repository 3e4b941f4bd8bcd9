//! Structured spans: a cheap, clone-able [`Tracer`] handle that records
//! nested, duration-measured spans into a shared buffer.
//!
//! Design constraints (see lint rules R1–R5):
//!
//! * **Deterministic-safe.** A disabled tracer reads no clock, takes no
//!   lock, and allocates nothing — threading it through the engine cannot
//!   perturb plan choice or row output. All durations come from
//!   [`reopt_common::Stopwatch`], the sole sanctioned clock (R3).
//! * **Explicit parentage.** There is no thread-local "current span";
//!   callers derive a child handle with [`Tracer::under`] and pass it down.
//!   This keeps parent links correct under the executor's worker pools
//!   without any ambient state.
//! * **Drop-recorded.** A [`Span`] records itself when dropped, so early
//!   returns and `?` propagation still produce closed spans.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use reopt_common::{lock_unpoisoned, Stopwatch};

/// A typed attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::I64(v) => write!(f, "{v}"),
            AttrValue::F64(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
            AttrValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// One finished span, as stored in a [`QueryTrace`].
///
/// `parent == 0` marks a root span; ids start at 1.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// Microseconds since the trace epoch.
    pub start_us: u64,
    /// Span duration in microseconds (saturating).
    pub dur_us: u64,
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// Look up an attribute by key (first match wins).
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Convenience: the attribute as a `u64`, if present and numeric.
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        match self.attr(key) {
            Some(AttrValue::U64(v)) => Some(*v),
            Some(AttrValue::I64(v)) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct TracerCore {
    /// Single epoch for the whole trace: every span start/end is an offset
    /// from this Stopwatch, so spans nest consistently on one timeline.
    epoch: Stopwatch,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Handle for emitting spans. Cloning is cheap (an `Option<Arc>` + a `u64`).
///
/// A disabled tracer (the [`Default`]) is a true no-op: every method is a
/// branch on `None` and returns immediately.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    core: Option<Arc<TracerCore>>,
    parent: u64,
}

impl Tracer {
    /// A tracer that records nothing. Identical to `Tracer::default()`.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A fresh recording tracer with its own epoch and span buffer.
    pub fn enabled() -> Self {
        Tracer {
            core: Some(Arc::new(TracerCore {
                epoch: Stopwatch::start(),
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
            })),
            parent: 0,
        }
    }

    /// Enabled iff the `REOPT_TRACE` environment variable is truthy.
    pub fn from_env() -> Self {
        if env_trace_default() {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// A handle whose spans become children of `span`.
    ///
    /// If `span` is itself non-recording (e.g. it came from a disabled
    /// tracer) the parent link is left unchanged.
    pub fn under(&self, span: &Span) -> Tracer {
        Tracer {
            core: self.core.clone(),
            parent: if span.is_recording() {
                span.id
            } else {
                self.parent
            },
        }
    }

    /// Open a span. On a disabled tracer this is free: no clock read, no
    /// id allocation, no buffer touch.
    pub fn span(&self, name: &'static str) -> Span {
        match &self.core {
            None => Span {
                core: None,
                id: 0,
                parent: 0,
                name,
                start_us: 0,
                attrs: Vec::new(),
            },
            Some(core) => {
                // lint: relaxed-ok(span ids only need uniqueness from a single atomic RMW; no other memory is published through them)
                let id = core.next_id.fetch_add(1, Ordering::Relaxed);
                Span {
                    start_us: micros(core.epoch.elapsed()),
                    core: Some(Arc::clone(core)),
                    id,
                    parent: self.parent,
                    name,
                    attrs: Vec::new(),
                }
            }
        }
    }

    /// Drain the recorded spans into an immutable [`QueryTrace`].
    ///
    /// Spans still open in other clones of this tracer will be lost; finish
    /// only after the traced work completed. Records are sorted by
    /// `(start_us, id)` so the result is stable for a given execution.
    pub fn finish(self) -> QueryTrace {
        match self.core {
            None => QueryTrace::default(),
            Some(core) => {
                let mut spans = std::mem::take(&mut *lock_unpoisoned(&core.spans));
                spans.sort_by_key(|s| (s.start_us, s.id));
                QueryTrace { spans }
            }
        }
    }
}

/// An open span. Records itself into the trace buffer on drop.
#[derive(Debug)]
pub struct Span {
    core: Option<Arc<TracerCore>>,
    id: u64,
    parent: u64,
    name: &'static str,
    start_us: u64,
    attrs: Vec<(&'static str, AttrValue)>,
}

impl Span {
    /// Whether this span will be recorded (false for disabled tracers).
    pub fn is_recording(&self) -> bool {
        self.core.is_some()
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    /// Rename the span (e.g. once the operator kind is known).
    pub fn set_name(&mut self, name: &'static str) {
        self.name = name;
    }

    pub fn attr_u64(&mut self, key: &'static str, v: u64) {
        if self.core.is_some() {
            self.attrs.push((key, AttrValue::U64(v)));
        }
    }

    pub fn attr_i64(&mut self, key: &'static str, v: i64) {
        if self.core.is_some() {
            self.attrs.push((key, AttrValue::I64(v)));
        }
    }

    pub fn attr_f64(&mut self, key: &'static str, v: f64) {
        if self.core.is_some() {
            self.attrs.push((key, AttrValue::F64(v)));
        }
    }

    pub fn attr_bool(&mut self, key: &'static str, v: bool) {
        if self.core.is_some() {
            self.attrs.push((key, AttrValue::Bool(v)));
        }
    }

    pub fn attr_str(&mut self, key: &'static str, v: impl Into<String>) {
        if self.core.is_some() {
            self.attrs.push((key, AttrValue::Str(v.into())));
        }
    }

    /// Format `v` only when recording — keeps the disabled path free of
    /// `format!` allocations.
    pub fn attr_display(&mut self, key: &'static str, v: &dyn std::fmt::Display) {
        if self.core.is_some() {
            self.attrs.push((key, AttrValue::Str(v.to_string())));
        }
    }

    /// Close the span explicitly (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(core) = self.core.take() {
            let end_us = micros(core.epoch.elapsed());
            lock_unpoisoned(&core.spans).push(SpanRecord {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_us: self.start_us,
                dur_us: end_us.saturating_sub(self.start_us),
                attrs: std::mem::take(&mut self.attrs),
            });
        }
    }
}

/// An immutable, finished span tree.
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    spans: Vec<SpanRecord>,
}

impl QueryTrace {
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// First span with this name, in `(start_us, id)` order.
    pub fn find(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Number of spans with this name.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Direct children of the span with id `id`, in start order.
    pub fn children_of(&self, id: u64) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |s| s.parent == id)
    }

    /// Root spans (parent == 0), in start order.
    pub fn roots(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(|s| s.parent == 0)
    }

    /// Indented text rendering of the span tree, one span per line:
    /// `name  dur_us=N  key=value ...`
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        for root in self.roots() {
            self.render_into(root, 0, &mut out);
        }
        out
    }

    fn render_into(&self, span: &SpanRecord, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(span.name);
        out.push_str(&format!("  dur_us={}", span.dur_us));
        for (k, v) in &span.attrs {
            out.push_str(&format!("  {k}={v}"));
        }
        out.push('\n');
        for child in self.children_of(span.id) {
            self.render_into(child, depth + 1, out);
        }
    }
}

/// Whether `REOPT_TRACE` asks for ambient tracing ("1" / "true" / "on",
/// case-insensitive). Resolve this once at construction time, like the
/// executor's `REOPT_THREADS` knob — never per query.
pub fn env_trace_default() -> bool {
    match std::env::var("REOPT_TRACE") {
        Ok(v) => matches!(v.trim().to_ascii_lowercase().as_str(), "1" | "true" | "on"),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let mut s = t.span("x");
        assert!(!s.is_recording());
        s.attr_u64("rows", 7);
        s.attr_str("label", "y");
        drop(s);
        let trace = t.finish();
        assert!(trace.is_empty());
    }

    #[test]
    fn spans_nest_via_under() {
        let t = Tracer::enabled();
        let mut root = t.span("root");
        root.attr_u64("n", 1);
        let child_tracer = t.under(&root);
        let inner = child_tracer.span("inner");
        let grand = child_tracer.under(&inner).span("grand");
        drop(grand);
        drop(inner);
        let root_id = root.id();
        drop(root);

        let trace = t.finish();
        assert_eq!(trace.len(), 3);
        let root = trace.find("root").unwrap();
        assert_eq!(root.id, root_id);
        assert_eq!(root.parent, 0);
        assert_eq!(root.attr_u64("n"), Some(1));
        let inner = trace.find("inner").unwrap();
        assert_eq!(inner.parent, root.id);
        let grand = trace.find("grand").unwrap();
        assert_eq!(grand.parent, inner.id);
        assert!(trace.children_of(root.id).any(|s| s.name == "inner"));
        assert_eq!(trace.roots().count(), 1);
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let t = Tracer::enabled();
        let ids: Vec<u64> = (0..100).map(|_| t.span("s").id()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn early_drop_records_closed_span() {
        let t = Tracer::enabled();
        fn inner(t: &Tracer) -> Option<()> {
            let _s = t.span("early");
            None?;
            Some(())
        }
        assert!(inner(&t).is_none());
        let trace = t.finish();
        assert_eq!(trace.count("early"), 1);
    }

    #[test]
    fn render_tree_indents_children() {
        let t = Tracer::enabled();
        let root = t.span("a");
        let child = t.under(&root).span("b");
        drop(child);
        drop(root);
        let tree = t.finish().render_tree();
        assert!(tree.contains("a  dur_us="));
        assert!(tree.contains("\n  b  dur_us="));
    }

    #[test]
    fn env_parsing_is_strict() {
        // We can't set env vars safely in parallel tests; just check the
        // default (unset in the test environment unless CI exported it).
        let _ = env_trace_default();
    }
}
