//! Wall-clock spans recorded from outside the system under test.
//!
//! A [`Recorder`] keeps `{name, start, end, parent, run}` spans in memory
//! and writes them at exit as JSON Lines and as Chrome `trace_event` JSON
//! (load the latter in `chrome://tracing` or Perfetto). A disabled
//! recorder records nothing: untimed runs pay one branch per phase.

use std::fmt::Write as _;
use std::time::Instant;

/// Reads the host clock. Every wall time the benchmark reports starts
/// here: host wall time is what it measures, and the one clock the
/// simulation itself must never read.
pub fn now() -> Instant {
    Instant::now() // cruz-lint: allow(wall-clock)
}

/// One closed span. Times are nanoseconds since the recorder was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Phase or layer name (`setup`, `checkpoint`, `zap.encode`, ...).
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start: u64,
    /// End, ns since the recorder's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Repetition the span belongs to.
    pub run: u32,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Recorder {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Sets the repetition index stamped on later spans.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        if let Some(i) = self.open.pop() {
            self.spans[i].end = now;
        }
    }

    /// Measured cost of recording one span (an open and a close), ns.
    pub fn span_cost_ns() -> f64 {
        const N: usize = 20_000;
        let mut r = Recorder::new(true);
        let t = now();
        for _ in 0..N {
            r.open("cost");
            r.close();
        }
        t.elapsed().as_nanos() as f64 / N as f64
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON Lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"run\":{}}}",
                s.name, s.start, s.end, parent, s.run
            );
        }
        out
    }

    /// The spans as Chrome `trace_event` JSON (complete events, µs).
    pub fn to_chrome(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"run\":{}}}}}{}",
                s.name,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                1,
                s.run,
                sep
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut r = Recorder::new(true);
        r.set_run(3);
        r.open("rep");
        r.open("checkpoint");
        r.close();
        r.close();
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].run, 3);
        assert!(s[0].end >= s[1].end);
        assert_eq!(r.to_jsonl().lines().count(), 2);
        assert!(r.to_chrome().contains("\"ph\":\"X\""));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        r.open("rep");
        r.close();
        assert!(r.spans().is_empty());
    }
}
