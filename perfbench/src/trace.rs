//! In-memory spans for the traced run.
//!
//! A span records a name, its start and end, the span that caused it, the
//! request it belongs to, and the delta of the library's work counters
//! (`approxql_metrics::snapshot()`) over its interval. Spans are kept in
//! memory and written out once the run ends. With tracing off, `span`
//! only runs its closure.

use approxql_metrics::{MetricsSnapshot, TimerMetric};
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    /// Counter and timer deltas over the span.
    pub delta: MetricsSnapshot,
    /// Wall time of the same request measured outside this process (the
    /// CLI child's start to exit), when there is one.
    pub external_ns: Option<u64>,
    /// Time inside the span that belongs to another layer measured
    /// elsewhere (a `DbFile` call's in-memory apply, timed on a mirror).
    pub minus_ns: u64,
    /// Results returned by an evaluator span.
    pub hits: u64,
    /// Store-file growth over the span, in bytes.
    pub growth_bytes: i64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of a recorded span (`None` with tracing off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The span recorder of one run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts a new request: later spans carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.span_id(name, f).0
    }

    /// Like [`Tracer::span`], also returning the span's handle for
    /// [`Tracer::annotate`].
    pub fn span_id<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, SpanId) {
        if !self.on {
            return (f(self), SpanId(None));
        }
        let idx = self.spans.len();
        let before = approxql_metrics::snapshot();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
            delta: MetricsSnapshot::default(),
            external_ns: None,
            minus_ns: 0,
            hits: 0,
            growth_bytes: 0,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        let delta = approxql_metrics::snapshot().diff(&before);
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.delta = delta;
        (r, SpanId(Some(idx)))
    }

    /// Sets attributes of a recorded span.
    pub fn annotate(&mut self, id: SpanId, f: impl FnOnce(&mut Span)) {
        if let Some(i) = id.0 {
            f(&mut self.spans[i]);
        }
    }

    /// Duration of a recorded span in nanoseconds (0 with tracing off).
    pub fn duration_ns(&self, id: SpanId) -> u64 {
        id.0.map_or(0, |i| self.spans[i].duration_ns())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines: one object per span, with its non-zero
    /// counter deltas and the commit timer's total.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{},\"start_us\":{:.3},\"end_us\":{:.3}",
                s.name,
                s.request,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
            );
            if let Some(e) = s.external_ns {
                let _ = write!(out, ",\"external_us\":{:.3}", e as f64 / 1e3);
            }
            if s.minus_ns > 0 {
                let _ = write!(out, ",\"minus_us\":{:.3}", s.minus_ns as f64 / 1e3);
            }
            if s.hits > 0 {
                let _ = write!(out, ",\"hits\":{}", s.hits);
            }
            if s.growth_bytes != 0 {
                let _ = write!(out, ",\"growth_bytes\":{}", s.growth_bytes);
            }
            out.push_str(",\"counters\":{");
            let mut first = true;
            for (m, v) in s.delta.counters().filter(|&(_, v)| v > 0) {
                let _ = write!(out, "{}\"{}\":{v}", if first { "" } else { "," }, m.name());
                first = false;
            }
            let commit = s.delta.timer(TimerMetric::StoreCommit);
            if commit.count > 0 {
                let _ = write!(
                    out,
                    "{}\"storage.commit_ns\":{}",
                    if first { "" } else { "," },
                    commit.total_ns
                );
            }
            out.push_str("}}\n");
        }
        out
    }
}
