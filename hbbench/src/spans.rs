//! The benchmark's own span recorder.
//!
//! Spans are stamped from the benchmark's code around each call into a
//! layer, in the `hardbound_telemetry::trace` JSONL schema. They are kept
//! in memory while the run measures and written out once at the end, so
//! recording costs a vector push and no I/O inside a timed pass. A
//! disabled recorder (untraced runs and untraced passes) does nothing.
//! The schema stores whole microseconds; the recorder keeps each span's
//! nanoseconds alongside, so metrics derived from short spans keep their
//! digits.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use hardbound_telemetry::trace::{new_trace, SpanEvent, SpanId, SpanTimer, TraceId};
use hardbound_telemetry::Field;

pub struct Tracer {
    on: bool,
    trace: TraceId,
    open: Vec<(SpanTimer, Instant)>,
    done: Vec<(SpanEvent, u64)>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            trace: new_trace(),
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggle tracing between spans only");
        self.on = on;
    }

    /// Opens a span of `kind` as a child of the innermost open span.
    pub fn enter(&mut self, kind: &'static str) {
        if self.on {
            let parent = self.open.last().map_or(SpanId::NONE, |(t, _)| t.span());
            let timer = SpanTimer::start(self.trace, parent, kind);
            self.open.push((timer, Instant::now()));
        }
    }

    /// Closes the innermost open span, attaching `ops` (how many
    /// operations the span covered, for per-operation figures).
    pub fn exit(&mut self, ops: u64) {
        if self.on {
            let (timer, t0) = self.open.pop().expect("exit matches an enter");
            let ns = t0.elapsed().as_nanos() as u64;
            let ev = timer.finish(vec![("ops".to_owned(), Field::from(ops))]);
            self.done.push((ev, ns));
        }
    }

    /// Runs `f` inside a span of `kind` covering `ops` operations.
    pub fn span<R>(&mut self, kind: &'static str, ops: u64, f: impl FnOnce() -> R) -> R {
        self.enter(kind);
        let r = f();
        self.exit(ops);
        r
    }

    /// Self time per span kind: each span's duration minus the part its
    /// direct children cover, summed by kind, with the summed `ops`.
    pub fn self_times(&self) -> HashMap<String, SelfTime> {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for (ev, ns) in &self.done {
            *child_ns.entry(ev.parent.0).or_default() += ns;
        }
        let mut out: HashMap<String, SelfTime> = HashMap::new();
        for (ev, ns) in &self.done {
            let children = child_ns.get(&ev.span.0).copied().unwrap_or(0);
            let t = out.entry(ev.kind.clone()).or_default();
            t.self_us += ns.saturating_sub(children) as f64 / 1e3;
            t.total_us += *ns as f64 / 1e3;
            t.ops += ev.field_u64("ops").unwrap_or(0);
            t.spans += 1;
        }
        out
    }

    /// Writes every recorded span as one JSONL line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (ev, _) in &self.done {
            writeln!(f, "{}", ev.to_json())?;
        }
        f.flush()
    }
}

/// Aggregated timing of one span kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfTime {
    pub self_us: f64,
    pub total_us: f64,
    pub ops: u64,
    pub spans: u64,
}

impl SelfTime {
    /// Self time per covered operation, in `unit_per_us` units per µs
    /// (1000 for ns, 1 for µs, 0.001 for ms).
    pub fn per_op(&self, unit_per_us: f64) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.self_us * unit_per_us / self.ops as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.enter("outer");
        t.span("inner", 2, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.exit(1);
        let st = t.self_times();
        let (outer, inner) = (st["outer"], st["inner"]);
        assert!(inner.self_us >= 5000.0);
        assert!(outer.total_us >= outer.self_us + inner.total_us - 1.0);
        assert!(outer.self_us >= 4000.0 && outer.self_us < outer.total_us);
        assert_eq!(inner.ops, 2);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 1, || 7), 7);
        assert!(t.self_times().is_empty());
    }
}
