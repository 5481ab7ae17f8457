//! Span-based structured tracing with a JSONL sink.
//!
//! A *trace* is a tree of *spans* sharing one [`TraceId`]; each span is
//! one timed operation (a compile, a block decode, a store lookup, a
//! batch chunk, a remote round trip, a server-side submission). Spans are
//! emitted as one JSON object per line to the sink installed with
//! [`install`] — by the runtime's settings loader for `HB_TRACE`, or
//! programmatically, which also lets benchmarks toggle tracing on and off
//! inside one process. This crate reads no environment.
//!
//! Trace context (`trace` + parent span id) crosses the `hbserve` wire:
//! the client stamps each submission, the server runs its `submit_exec`
//! and `chunk` spans under the client's ids and ships them back on the
//! submitting connection ahead of `DONE`, and the client writes them into
//! its own sink — one grid, one trace. A server span's `parent` is the
//! client's `remote_rt` span; a `remote_rt` without an `err` field is a
//! round trip that succeeded.
//!
//! Every line is a flat JSON object with the fixed keys `trace`, `span`,
//! `parent` (16-hex-digit ids; `parent` is all zeros for a root span),
//! `kind`, `start_us` (wall clock, µs since the Unix epoch) and `dur_us`,
//! plus free-form span fields whose values are non-negative integers or
//! strings. [`SpanEvent::parse`] inverts [`SpanEvent::to_json`] exactly.

use std::fmt;
use std::fs::OpenOptions;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, Once};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::{self, Json};

/// Identifies one distributed trace (e.g. one grid run).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TraceId(pub u64);

/// Identifies one span within a trace.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null id used as the parent of root spans.
    pub const NONE: SpanId = SpanId(0);
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The trace context that crosses process boundaries: which trace we are
/// in and which span the remote side should parent its spans under.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceCtx {
    /// The distributed trace id.
    pub trace: TraceId,
    /// The parent span for the receiving side's root spans.
    pub parent: SpanId,
}

static ID_STATE: AtomicU64 = AtomicU64::new(0);

/// A fresh, process-unique, non-zero 64-bit id (splitmix64 over a
/// time-and-pid-seeded counter).
pub fn fresh_id() -> u64 {
    // The finalizer must hash the *updated* counter, not the previous
    // value a fetch_update would hand back: on the first call the
    // previous value is the unseeded 0, which would make every process's
    // first id the same constant — exactly the id a client and the server
    // serving it both mint first (pinned by `report/tests/trace_env_cli`).
    let mut cur = ID_STATE.load(Relaxed);
    let seed = loop {
        let next = if cur == 0 {
            let now = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .unwrap_or_default();
            (now.as_nanos() as u64 ^ ((std::process::id() as u64) << 33)) | 1
        } else {
            cur.wrapping_add(0x9e37_79b9_7f4a_7c15)
        };
        match ID_STATE.compare_exchange_weak(cur, next, Relaxed, Relaxed) {
            Ok(_) => break next,
            Err(v) => cur = v,
        }
    };
    // splitmix64 finalizer.
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z = z ^ (z >> 31);
    z | 1 // never zero: zero means "no id"
}

/// Starts a new trace.
pub fn new_trace() -> TraceId {
    TraceId(fresh_id())
}

/// A span field value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Field {
    /// A non-negative integer (counts, ids, indexes).
    U64(u64),
    /// A string (addresses, names).
    Str(String),
}

impl From<u64> for Field {
    fn from(v: u64) -> Field {
        Field::U64(v)
    }
}

impl From<&str> for Field {
    fn from(v: &str) -> Field {
        Field::Str(v.to_string())
    }
}

impl From<String> for Field {
    fn from(v: String) -> Field {
        Field::Str(v)
    }
}

/// One completed span, ready to serialize.
#[derive(Clone, PartialEq, Debug)]
pub struct SpanEvent {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// The parent span ([`SpanId::NONE`] for roots).
    pub parent: SpanId,
    /// What kind of operation this span timed (`compile`, `decode`,
    /// `store_lookup`, `chunk`, `remote_rt`, `submit_exec`, ...).
    pub kind: String,
    /// Wall-clock start, µs since the Unix epoch.
    pub start_us: u64,
    /// Duration in µs (measured on a monotonic clock).
    pub dur_us: u64,
    /// Free-form span fields (`addr`, `cells`, `err`, ...).
    pub fields: Vec<(String, Field)>,
}

impl SpanEvent {
    /// The `u64` field named `name`, if present.
    pub fn field_u64(&self, name: &str) -> Option<u64> {
        self.fields.iter().find_map(|(k, v)| match v {
            Field::U64(n) if k == name => Some(*n),
            _ => None,
        })
    }

    /// Wall-clock end of the span, µs since the Unix epoch.
    pub fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.dur_us)
    }

    /// Serializes to one compact JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(112 + 24 * self.fields.len());
        self.write_json(&mut out);
        out
    }

    /// The serializer behind [`SpanEvent::to_json`] — writes straight
    /// into `out` rather than building a [`Json`] tree, because [`emit`]
    /// sits on the decode path and the tree costs an allocation per key.
    fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"trace\":\"{}\",\"span\":\"{}\",\"parent\":\"{}\",\"kind\":",
            self.trace, self.span, self.parent
        );
        json::write_escaped(out, &self.kind);
        let _ = write!(
            out,
            ",\"start_us\":{},\"dur_us\":{}",
            self.start_us, self.dur_us
        );
        for (k, v) in &self.fields {
            out.push(',');
            json::write_escaped(out, k);
            out.push(':');
            match v {
                Field::U64(n) => {
                    let _ = write!(out, "{n}");
                }
                Field::Str(s) => json::write_escaped(out, s),
            }
        }
        out.push('}');
    }

    /// Parses one JSONL line back into a span event; inverse of
    /// [`SpanEvent::to_json`].
    pub fn parse(line: &str) -> Result<SpanEvent, String> {
        let v = json::parse(line)?;
        let pairs = match &v {
            Json::Obj(pairs) => pairs,
            _ => return Err("span line is not a JSON object".into()),
        };
        let id = |key: &str| -> Result<u64, String> {
            let s = v
                .get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("missing id field {key:?}"))?;
            u64::from_str_radix(s, 16).map_err(|e| format!("bad id {key:?}: {e}"))
        };
        let mut ev = SpanEvent {
            trace: TraceId(id("trace")?),
            span: SpanId(id("span")?),
            parent: SpanId(id("parent")?),
            kind: v
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("missing kind")?
                .to_string(),
            start_us: v
                .get("start_us")
                .and_then(Json::as_u64)
                .ok_or("missing start_us")?,
            dur_us: v
                .get("dur_us")
                .and_then(Json::as_u64)
                .ok_or("missing dur_us")?,
            fields: Vec::new(),
        };
        for (k, jv) in pairs {
            if matches!(
                k.as_str(),
                "trace" | "span" | "parent" | "kind" | "start_us" | "dur_us"
            ) {
                continue;
            }
            let field = match jv {
                Json::Int(_) => Field::U64(jv.as_u64().ok_or("negative span field")?),
                Json::Str(s) => Field::Str(s.clone()),
                other => return Err(format!("unsupported span field value {other:?}")),
            };
            ev.fields.push((k.clone(), field));
        }
        Ok(ev)
    }
}

/// Wall-clock now, µs since the Unix epoch.
pub fn now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Times a span: allocates the span id up front (so it can be shipped to
/// a remote side as the parent) and measures duration on a monotonic
/// clock when finished.
pub struct SpanTimer {
    trace: TraceId,
    span: SpanId,
    parent: SpanId,
    kind: &'static str,
    start_us: u64,
    t0: Instant,
}

impl SpanTimer {
    /// Starts the clock.
    pub fn start(trace: TraceId, parent: SpanId, kind: &'static str) -> SpanTimer {
        SpanTimer {
            trace,
            span: SpanId(fresh_id()),
            parent,
            kind,
            start_us: now_us(),
            t0: Instant::now(),
        }
    }

    /// This span's id (hand it to children / the remote side).
    pub fn span(&self) -> SpanId {
        self.span
    }

    /// The trace this span belongs to.
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// Stops the clock and builds the event (the caller emits or buffers
    /// it).
    pub fn finish(self, fields: Vec<(String, Field)>) -> SpanEvent {
        SpanEvent {
            trace: self.trace,
            span: self.span,
            parent: self.parent,
            kind: self.kind.to_string(),
            start_us: self.start_us,
            dur_us: self.t0.elapsed().as_micros() as u64,
            fields,
        }
    }

    /// Stops the clock and writes the event to the sink.
    pub fn emit(self, fields: Vec<(String, Field)>) {
        emit(&self.finish(fields));
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<BufWriter<std::fs::File>>> = Mutex::new(None);

/// Whether span emission is on: off until [`install`], and again after
/// [`disable`].
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

static PANIC_FLUSH: Once = Once::new();

/// Chains a panic hook that flushes the JSONL sink before unwinding
/// proceeds, so a trap-path assert or any other panic cannot strand
/// the final spans in the `BufWriter`. Installed once, only after a sink
/// exists — a process that never traces keeps the stock hook.
fn install_panic_flush() {
    PANIC_FLUSH.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            flush();
            prev(info);
        }));
    });
}

/// Opens (appending) a JSONL sink at `path` and enables tracing,
/// replacing any sink installed before. The runtime's settings loader
/// calls this for `HB_TRACE`.
pub fn install(path: &Path) -> std::io::Result<()> {
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    *SINK.lock().unwrap() = Some(BufWriter::new(file));
    ENABLED.store(true, Relaxed);
    install_panic_flush();
    Ok(())
}

/// Turns span emission off and flushes + closes the sink.
pub fn disable() {
    ENABLED.store(false, Relaxed);
    if let Some(mut w) = SINK.lock().unwrap().take() {
        let _ = w.flush();
    }
}

/// Flushes buffered span lines to disk.
pub fn flush() {
    if let Some(w) = SINK.lock().unwrap().as_mut() {
        let _ = w.flush();
    }
}

/// Writes one span event to the sink (no-op when tracing is off).
pub fn emit(ev: &SpanEvent) {
    if !enabled() {
        return;
    }
    let mut line = String::with_capacity(128 + 24 * ev.fields.len());
    ev.write_json(&mut line);
    line.push('\n');
    if let Some(w) = SINK.lock().unwrap().as_mut() {
        let _ = w.write_all(line.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = fresh_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate id {id:#x}");
        }
    }

    #[test]
    fn span_event_json_round_trips() {
        let ev = SpanEvent {
            trace: TraceId(0xdead_beef_0000_0001),
            span: SpanId(fresh_id()),
            parent: SpanId::NONE,
            kind: "remote_rt".into(),
            start_us: now_us(),
            dur_us: 1234,
            fields: vec![
                ("chunk".into(), Field::U64(7)),
                ("addr".into(), Field::Str("127.0.0.1:4000".into())),
                ("cells".into(), Field::U64(u64::MAX)),
            ],
        };
        let line = ev.to_json();
        assert_eq!(SpanEvent::parse(&line).unwrap(), ev);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(SpanEvent::parse("not json").is_err());
        assert!(SpanEvent::parse("{\"trace\":\"xyzzy\"}").is_err());
        assert!(SpanEvent::parse("[1,2]").is_err());
        // Negative integers cannot be span fields.
        assert!(SpanEvent::parse(
            "{\"trace\":\"1\",\"span\":\"2\",\"parent\":\"0\",\
             \"kind\":\"k\",\"start_us\":1,\"dur_us\":1,\"bad\":-1}"
        )
        .is_err());
    }

    #[test]
    fn panic_flushes_buffered_spans() {
        let path = std::env::temp_dir().join(format!("hbtrace-panic-{:016x}.jsonl", fresh_id()));
        install(&path).unwrap();
        let mk = |kind: &str| SpanEvent {
            trace: TraceId(0x51),
            span: SpanId(fresh_id()),
            parent: SpanId::NONE,
            kind: kind.into(),
            start_us: now_us(),
            dur_us: 1,
            fields: vec![("cells".into(), Field::U64(6))],
        };
        emit(&mk("before_panic"));
        let doomed = mk("during_panic");
        let worker = std::thread::spawn(move || {
            emit(&doomed);
            panic!("simulated trap-path assert");
        });
        assert!(worker.join().is_err());
        // Read *before* any flush/disable from this thread: the only thing
        // that can have moved the buffered lines to disk is the panic hook.
        let text = std::fs::read_to_string(&path).unwrap();
        disable();
        let _ = std::fs::remove_file(&path);
        let kinds: Vec<String> = text
            .lines()
            .map(|l| SpanEvent::parse(l).expect("every line parses").kind)
            .collect();
        assert!(kinds.contains(&"before_panic".to_string()), "{kinds:?}");
        assert!(kinds.contains(&"during_panic".to_string()), "{kinds:?}");
    }

    #[test]
    fn timer_allocates_id_before_finish() {
        let t = SpanTimer::start(TraceId(1), SpanId::NONE, "compile");
        let id = t.span();
        let ev = t.finish(vec![("n".into(), 3u64.into())]);
        assert_eq!(ev.span, id);
        assert_eq!(ev.kind, "compile");
        assert_eq!(ev.field_u64("n"), Some(3));
    }
}
