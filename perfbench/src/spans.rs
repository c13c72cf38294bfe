//! In-memory spans for the traced run, written out when the run ends.
//!
//! Spans are recorded only from the benchmark's own files, around calls
//! into each layer's public functions; nothing inside the program is
//! instrumented.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed interval: a name, start, end and the span that caused it.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// Spans of one traced run, in opening order.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration.
    pub fn exit(&mut self) -> Duration {
        let id = self.open.pop().expect("exit without a matching enter");
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed();
        span.end - span.start
    }

    /// Runs `f` inside a span named `name`; returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> (T, Duration) {
        self.enter(name);
        let out = f(self);
        (out, self.exit())
    }

    /// Total time covered by spans named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Durations of every span named `name`, in opening order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// The spans as a Chrome trace-event document (opens in Perfetto or
    /// `chrome://tracing`); `meta` is a JSON object stored beside them.
    pub fn to_trace_json(&self, meta: &str) -> String {
        assert!(self.open.is_empty(), "spans still open at write-out");
        let mut out = String::from("{\"metadata\": ");
        out.push_str(meta);
        out.push_str(", \"traceEvents\": [");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {id}, \"parent\": {parent}}}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
