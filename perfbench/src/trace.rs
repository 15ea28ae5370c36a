//! The benchmark's own spans and per-layer accumulators.
//!
//! Every timed call goes through [`Tracer::time`], which always returns the
//! call's wall time (the end-to-end metrics need it) and, in a traced run,
//! also keeps a span — name, start, duration and enclosing span — in memory
//! for the Chrome trace written when the run ends. Spans are recorded only
//! around calls the benchmark makes into the library; the library itself is
//! not instrumented further.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_us: f64,
    dur_us: f64,
    parent: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Per-layer sums of the current layer pass.
    pass: BTreeMap<&'static str, f64>,
    /// One entry per finished layer pass.
    passes: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: BTreeMap::new(),
            passes: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span (a no-op when tracing is off).
    pub fn enter(&mut self, name: &'static str) {
        if self.enabled {
            let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
            let parent = self.open.last().copied();
            self.spans.push(Span {
                name,
                start_us,
                dur_us: 0.0,
                parent,
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if self.enabled {
            let i = self.open.pop().expect("exit without enter");
            self.spans[i].dur_us =
                self.origin.elapsed().as_secs_f64() * 1e6 - self.spans[i].start_us;
        }
    }

    /// Run `f` inside a span named `name`; returns its result and wall
    /// seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(name);
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.exit();
        (out, secs)
    }

    /// Add `value` to layer metric `name` for the current pass.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.pass.entry(name).or_insert(0.0) += value;
    }

    /// [`Tracer::time`] whose wall time also counts, in ms, towards layer
    /// metric `name`.
    pub fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, secs) = self.time(name, f);
        self.add(name, secs * 1e3);
        out
    }

    /// Close the current layer pass.
    pub fn finish_pass(&mut self) {
        for (name, v) in std::mem::take(&mut self.pass) {
            self.passes.entry(name).or_default().push(v);
        }
    }

    /// Values of layer metric `name`, one per finished pass.
    pub fn passes(&self, name: &str) -> Option<&[f64]> {
        self.passes.get(name).map(Vec::as_slice)
    }

    /// Chrome trace-event JSON (`ph: "X"` complete events, one process,
    /// one thread); loads in Perfetto or chrome://tracing.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| {
                format!("\"{}\"", self.spans[p].name)
            });
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name, s.start_us, s.dur_us
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_passes_and_nested_spans() {
        let mut t = Tracer::new(true);
        t.enter("outer");
        t.layer("inner.ms", || ());
        t.add("inner.count", 2.0);
        t.exit();
        t.finish_pass();
        t.add("inner.count", 3.0);
        t.finish_pass();
        assert_eq!(t.passes("inner.count"), Some(&[2.0, 3.0][..]));
        assert_eq!(t.passes("inner.ms").map(<[f64]>::len), Some(1));
        let trace = t.chrome_trace();
        assert!(trace.contains("\"name\":\"inner.ms\""));
        assert!(trace.contains("\"parent\":\"outer\""));
    }

    #[test]
    fn untraced_runs_keep_no_spans() {
        let mut t = Tracer::new(false);
        let ((), secs) = t.time("x", || ());
        assert!(secs >= 0.0);
        assert_eq!(
            t.chrome_trace(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n"
        );
    }
}
