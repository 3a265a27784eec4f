//! In-memory span recorder for the traced run.
//!
//! A span is a named interval of host time around one call into a
//! layer's public function, with the span that was open when it began
//! as its parent. Spans stay in memory and are written out once, as
//! JSON Lines, when the benchmark ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sweep.run` or `driver.cell`.
    pub name: String,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Host time the span covers.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }
}

/// The recorder: a flat span list plus the stack of open spans.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::with_capacity(4096),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
    }

    /// Closes the innermost open span and returns its duration.
    pub fn exit(&mut self) -> Duration {
        // lint: allow(unchecked-unwrap) — every exit in this package pairs
        // with an earlier enter; an unpaired one is a bug here
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].duration()
    }

    /// All recorded spans, in the order they were opened.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span with this exact name, in seconds.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64())
            .collect()
    }

    /// The spans as JSON Lines: `{"name", "start_ns", "end_ns", "parent"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Runs `f`, returning its result and host time. With a recorder, the
/// call is also recorded as a span named `name`.
pub fn timed<T>(spans: Option<&mut Spans>, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
    match spans {
        Some(spans) => {
            spans.enter(name);
            let out = f();
            (out, spans.exit())
        }
        None => {
            let started = Instant::now();
            let out = f();
            (out, started.elapsed())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut spans = Spans::new();
        spans.enter("outer");
        let ((), _) = timed(Some(&mut spans), "inner", || ());
        spans.exit();
        let all = spans.all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        assert!(all[1].start_ns >= all[0].start_ns && all[1].end_ns <= all[0].end_ns);
        assert_eq!(spans.seconds("inner").len(), 1);
        assert_eq!(spans.to_jsonl().lines().count(), 2);
    }
}
