//! The benchmark's own spans — recorded around the calls into each layer,
//! kept in memory, written out at exit — and the self-time fold applied to
//! the program's `QueryTrace`s.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use reopt_common::Stopwatch;
use reopt_telemetry::QueryTrace;

/// One finished span. `parent == 0` marks an op's root; ids start at 1.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    /// The request this span belongs to.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log on one clock.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Stopwatch,
    spans: Vec<SpanRec>,
    next_op: u64,
}

/// An open root span: children are timed through it, `finish` closes it.
#[derive(Debug)]
pub struct OpSpan<'a> {
    log: &'a mut SpanLog,
    op: u64,
    root: usize,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Stopwatch::start(),
            spans: Vec::new(),
            next_op: 0,
        }
    }

    fn now(&self) -> u64 {
        nanos(self.epoch.elapsed())
    }

    fn open(&mut self, parent: u64, op: u64, name: &'static str) -> usize {
        let start_ns = self.now();
        self.spans.push(SpanRec {
            id: self.spans.len() as u64 + 1,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Open the root span of a new op.
    pub fn op(&mut self, name: &'static str) -> OpSpan<'_> {
        self.next_op += 1;
        let op = self.next_op;
        let root = self.open(0, op, name);
        OpSpan {
            log: self,
            op,
            root,
        }
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// JSON-lines rendering, one span per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

impl OpSpan<'_> {
    /// Time `f` as a child span of this op; returns its result and duration.
    pub fn child<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let parent = self.log.spans[self.root].id;
        let i = self.log.open(parent, self.op, name);
        let out = f();
        let end = self.log.now();
        let span = &mut self.log.spans[i];
        span.end_ns = end;
        (out, Duration::from_nanos(end - span.start_ns))
    }

    /// Close the root span; returns the op's wall time.
    pub fn finish(self) -> Duration {
        let end = self.log.now();
        let span = &mut self.log.spans[self.root];
        span.end_ns = end;
        Duration::from_nanos(end - span.start_ns)
    }
}

/// Self time per span name of one program trace, in microseconds: a span's
/// duration minus the part of that interval its children cover (children of
/// a parallel operator overlap, hence the interval union).
pub fn fold_self_time(trace: &QueryTrace, into: &mut BTreeMap<&'static str, u64>) {
    let spans = trace.spans();
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_us, s.start_us + s.dur_us));
        }
    }
    for s in spans {
        let (lo, hi) = (s.start_us, s.start_us + s.dur_us);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = lo;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(hi));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        *into.entry(s.name).or_default() += s.dur_us - covered;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_telemetry::Tracer;

    #[test]
    fn children_nest_under_their_op() {
        let mut log = SpanLog::new();
        let mut op = log.op("op");
        let (v, _) = op.child("plan.fingerprint", || 7);
        assert_eq!(v, 7);
        op.finish();
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (0, spans[0].id));
        assert_eq!(spans[0].op, spans[1].op);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(log.to_json_lines().lines().count(), 2);
    }

    #[test]
    fn self_times_sum_to_the_root_span() {
        let tracer = Tracer::enabled();
        {
            let root = tracer.span("root");
            let sub = tracer.under(&root);
            let _a = sub.span("a");
            let _b = sub.span("b");
        }
        let trace = tracer.finish();
        let mut folded = BTreeMap::new();
        fold_self_time(&trace, &mut folded);
        let root = trace.find("root").map(|s| s.dur_us).unwrap_or(0);
        // Overlapping children are counted once in the parent's covered
        // interval, so the fold can only exceed the root, never fall short.
        assert!(folded.values().sum::<u64>() >= root);
        assert_eq!(folded.len(), 3);
    }
}
