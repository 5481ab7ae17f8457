//! `hardbound-telemetry` — the observability substrate for the HardBound
//! workspace: a process-global metrics [`Registry`] and span-based
//! structured [`trace`]-ing, both std-only.
//!
//! * [`metrics`] — named [`Counter`]s, [`Gauge`]s (plain or computed) and
//!   power-of-two-bucket latency [`Histogram`]s. Recording is one relaxed
//!   atomic add — cheap enough for the block-dispatch hot path. Snapshots
//!   subtract ([`Snapshot::delta`]) so ever-growing process counters can
//!   still back per-run assertions, and render in the Prometheus text
//!   exposition format (served by the `METRICS` wire verb and
//!   `hbserve --metrics-addr`).
//! * [`trace`] — [`TraceId`]/[`SpanId`]-stamped [`SpanEvent`]s written as
//!   JSONL to the sink [`trace::install`] opens (the runtime installs it
//!   for `HB_TRACE`). Trace context crosses the
//!   `hbserve` wire so one grid submission yields a single trace spanning
//!   client and server.
//! * [`profile`] — mergeable per-basic-block hot-spot [`Profile`]s
//!   (exec counts, attributed cycles, checks taken), summed with exact
//!   count conservation, rendered as ranked-PC tables and folded-stack
//!   flamegraph text, and shipped over the `PROFILE` wire verb.
//! * [`json`] — the tiny JSON emitter/parser backing the trace schema
//!   (the build container has no serde).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use metrics::{
    bucket_of, bucket_upper, global, scrape_value, Counter, Gauge, Histogram, HistogramSnapshot,
    Registry, Snapshot, Value, HIST_BUCKETS,
};
pub use profile::{BlockKey, BlockStat, Profile, SharedProfile};
pub use trace::{Field, SpanEvent, SpanId, SpanTimer, TraceCtx, TraceId};
