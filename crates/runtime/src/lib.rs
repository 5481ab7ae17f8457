//! The simulated C runtime for the HardBound evaluation, and the glue that
//! pairs each compiler [`Mode`] with the right machine configuration.
//!
//! The paper's heap protection story (§3.2) is entirely runtime-driven:
//! "Heap-allocated objects are bounded by instrumenting `malloc()` and
//! related runtime-library functions." [`RUNTIME_SOURCE`] is that
//! instrumented runtime, written in Cb. Like a real toolchain's libc it is
//! checked once per process and every program is compiled against it (see
//! [`compile`]); its `malloc` announces allocation extents with
//! `__setbound(p, n)`, which each compiler mode lowers to its own scheme
//! (a `setbound` instruction, fat-pointer construction, an object-table
//! registration, or nothing for the baseline).
//!
//! [`SplayTable`] is the object-lookup structure of §2.2 used by the
//! JK/RL/DA comparison mode.
//!
//! ```
//! use hardbound_compiler::Mode;
//! use hardbound_core::PointerEncoding;
//! use hardbound_runtime::compile_and_run;
//!
//! let out = compile_and_run(
//!     r#"
//!     int main() {
//!         int *a = (int*)malloc(10 * sizeof(int));
//!         for (int i = 0; i < 10; i = i + 1) a[i] = i;
//!         int s = 0;
//!         for (int i = 0; i < 10; i = i + 1) s = s + a[i];
//!         free(a);
//!         return s;
//!     }
//!     "#,
//!     Mode::HardBound,
//!     PointerEncoding::Intern4,
//! )?;
//! assert_eq!(out.exit_code, Some(45));
//! # Ok::<(), hardbound_compiler::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod settings;
mod source;
mod splay;

pub use settings::{settings, Settings};
pub use source::RUNTIME_SOURCE;
pub use splay::SplayTable;

use std::borrow::Cow;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use hardbound_compiler::{compile_with_prelude, CompileError, Mode, Options, Prelude};
use hardbound_core::{
    BoundsOrigin, HardboundConfig, Machine, MachineConfig, MetaPath, PointerEncoding, RunOutcome,
    ViolationReport,
};
use hardbound_exec::service::Job;
use hardbound_exec::ServiceStats;
use hardbound_isa::Program;
use hardbound_serve::{
    Client, PersistStats, PersistentService, ServeError, ShardRing, StoreLogStats,
};
use hardbound_telemetry::{trace, Counter, Field, Histogram, SpanId, SpanTimer, TraceCtx};

/// Prepends the runtime library to a user program. Compiling the result as
/// one unit gives the same [`Program`] as [`compile`]; only
/// parse-error lines differ, shifted down by the library's lines.
#[must_use]
pub fn link(user_source: &str) -> String {
    format!("{RUNTIME_SOURCE}\n{user_source}")
}

/// The runtime library, parsed and type-checked once per process. Its HIR
/// does not depend on the compiler mode, so one prelude serves them all.
fn runtime_prelude() -> &'static Prelude {
    static PRELUDE: OnceLock<Prelude> = OnceLock::new();
    PRELUDE.get_or_init(|| {
        Prelude::new(RUNTIME_SOURCE).unwrap_or_else(|e| panic!("runtime library: {e}"))
    })
}

/// Compiles a user program against the runtime library. The program is
/// checked against the library's prelude, so the library's front end runs
/// once per process, and parse errors report positions in `user_source`.
///
/// # Errors
///
/// Propagates [`CompileError`]s from the front end or code generator.
pub fn compile(user_source: &str, mode: Mode) -> Result<Program, CompileError> {
    // The allocator is trusted runtime code: its header bookkeeping is
    // exempt from software checks, as an uninstrumented libc would be.
    let opts = Options::mode(mode).with_unchecked(["malloc", "free"]);
    // The first compile loads the settings, installing any `HB_TRACE`
    // sink before the span below asks whether tracing is on.
    let _ = settings();
    // Compiles happen before any grid exists, so the span is a root of
    // its own trace rather than a child of a later grid span.
    let timer =
        trace::enabled().then(|| SpanTimer::start(trace::new_trace(), SpanId::NONE, "compile"));
    let started = Instant::now();
    let result = compile_with_prelude(runtime_prelude(), user_source, &opts);
    metrics().compile_us.record_duration(started.elapsed());
    if let Some(t) = timer {
        t.emit(vec![
            ("mode".to_owned(), Field::from(mode.to_string())),
            ("ok".to_owned(), Field::from(u64::from(result.is_ok()))),
        ]);
    }
    result
}

/// Another name for [`compile`], kept for callers written against it.
///
/// # Errors
///
/// Propagates [`CompileError`]s.
pub fn compile_uncached(user_source: &str, mode: Mode) -> Result<Program, CompileError> {
    compile(user_source, mode)
}

/// Registry-backed handles for every runtime-layer counter. All of them
/// live in the process-global [`hardbound_telemetry::Registry`], so
/// `hbrun --stats`, the Prometheus exposition and snapshot/delta metering
/// read the same cells the hot paths increment.
struct RuntimeMetrics {
    compile_us: Histogram,
    remote_round_trips: Counter,
    remote_cells: Counter,
    remote_retries: Counter,
    remote_reroutes: Counter,
    remote_rt_us: Histogram,
}

fn metrics() -> &'static RuntimeMetrics {
    static METRICS: OnceLock<RuntimeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let g = hardbound_telemetry::global();
        RuntimeMetrics {
            compile_us: g.histogram("hb_compile_us"),
            remote_round_trips: g.counter("hb_remote_round_trips"),
            remote_cells: g.counter("hb_remote_cells"),
            remote_retries: g.counter("hb_remote_retries"),
            remote_reroutes: g.counter("hb_remote_reroutes"),
            remote_rt_us: g.histogram("hb_remote_rt_us"),
        }
    })
}

/// A point-in-time snapshot of the process-global metrics registry: the
/// remote-client counters, the service mirror gauges, and the latency
/// histograms. Pair two snapshots with
/// [`hardbound_telemetry::Snapshot::delta`] to meter one region, or
/// render the Prometheus text exposition with
/// [`hardbound_telemetry::Snapshot::render`].
#[must_use]
pub fn metrics_snapshot() -> hardbound_telemetry::Snapshot {
    hardbound_telemetry::global().snapshot()
}

/// The one [`MetaPath`], the paper's §4.2 model. Kept only for `hbbench`,
/// which calls it; it goes with [`MetaPath`] (see its docs).
#[must_use]
pub fn meta_path_default() -> MetaPath {
    MetaPath::Summary
}

/// The machine configuration that corresponds to a compiler mode (paper
/// §5.1): HardBound hardware for the HardBound/MallocOnly modes, the plain
/// baseline machine for the software-only schemes.
#[must_use]
pub fn machine_config(mode: Mode, encoding: PointerEncoding) -> MachineConfig {
    match mode {
        Mode::Baseline | Mode::SoftBound | Mode::ObjectTable => MachineConfig::baseline(),
        Mode::MallocOnly => MachineConfig::hardbound(HardboundConfig::malloc_only(encoding)),
        Mode::HardBound => MachineConfig::hardbound(HardboundConfig::full(encoding)),
    }
}

/// Builds a machine for `program` under `mode`, attaching the splay-tree
/// object table when the mode needs one.
#[must_use]
pub fn build_machine(program: Program, mode: Mode, encoding: PointerEncoding) -> Machine {
    build_machine_with_config(program, mode, machine_config(mode, encoding))
}

/// [`build_machine`] with an explicit configuration (used by the ablation
/// experiments that tweak the hierarchy or enable the check-µop model).
/// `HB_FLIGHT=N` arms the machine's flight recorder — invisible to
/// [`RunOutcome`] equality, so every differential suite holds either way.
#[must_use]
pub fn build_machine_with_config(program: Program, mode: Mode, config: MachineConfig) -> Machine {
    let mut m = Machine::new(program, config);
    if mode == Mode::ObjectTable {
        m.set_object_table(Box::new(SplayTable::new()));
    }
    if let Some(depth) = settings().flight.filter(|&d| d > 0) {
        m.enable_flight(depth);
    }
    m
}

/// Assembles the violation forensics report for a trapped run of
/// `program`: a fresh machine (flight recorder armed per `HB_FLIGHT`)
/// re-runs the cell on the interpreter and hands back its
/// [`Machine::violation_report`]. `None` when the run does not trap.
///
/// The re-run is how forensics stay free on the hot paths: outcomes from
/// the service, the result store, or a remote shard carry no machine state,
/// so the (rare, already-failed) trapping cell is replayed once, in full,
/// with the provenance table and flight recorder live.
#[must_use]
pub fn violation_report(
    program: Program,
    mode: Mode,
    config: MachineConfig,
) -> Option<ViolationReport> {
    let mut m = build_machine_with_config(program, mode, config);
    let _ = m.run();
    let report = m.violation_report();
    if let Some(r) = &report {
        emit_violation_span(r);
    }
    report
}

/// Emits one `violation` span carrying the report's forensics fields into
/// the JSONL trace sink (no-op when `HB_TRACE` is off), so traced cluster
/// runs ship structured forensics alongside their timing spans.
pub fn emit_violation_span(report: &ViolationReport) {
    if !trace::enabled() {
        return;
    }
    let timer = SpanTimer::start(trace::new_trace(), SpanId::NONE, "violation");
    let mut fields = vec![("trap".to_owned(), Field::from(report.trap.to_string()))];
    if let Some(pc) = report.pc {
        fields.push(("pc".to_owned(), Field::from(pc.to_string())));
    }
    if let Some(addr) = report.addr {
        fields.push(("addr".to_owned(), Field::from(u64::from(addr))));
    }
    if let Some((base, bound)) = report.bounds {
        fields.push(("base".to_owned(), Field::from(u64::from(base))));
        fields.push(("bound".to_owned(), Field::from(u64::from(bound))));
    }
    if let Some(oob) = report.oob {
        fields.push(("oob".to_owned(), Field::from(oob.to_string())));
    }
    match report.origin {
        BoundsOrigin::Setbound { site, id } => {
            fields.push(("setbound_site".to_owned(), Field::from(site.to_string())));
            fields.push(("provenance_id".to_owned(), Field::from(id)));
        }
        BoundsOrigin::Region => {
            fields.push(("origin".to_owned(), Field::from("region")));
        }
        BoundsOrigin::Unknown => {}
    }
    fields.push((
        "flight_events".to_owned(),
        Field::from(report.flight.len() as u64),
    ));
    timer.emit(fields);
    trace::flush();
}

/// Compile (with runtime), build the paired machine, and run it to
/// completion with [`Machine::run`]. The corpus drivers go through
/// [`run_jobs`], which replays from the result store.
///
/// # Errors
///
/// Propagates compilation errors; runtime traps are reported in the
/// returned [`RunOutcome`].
pub fn compile_and_run(
    user_source: &str,
    mode: Mode,
    encoding: PointerEncoding,
) -> Result<RunOutcome, CompileError> {
    let program = compile(user_source, mode)?;
    Ok(build_machine(program, mode, encoding).run())
}

/// The process-wide corpus service: [`Settings::workers`] workers plus
/// the result store, living for the
/// whole process so every figure driver, corpus sweep and CI invocation
/// in it reuses earlier work. With `HB_STORE_PATH` set the store is
/// persistent — loaded here once, appended after every batch. `HB_PROF`
/// arms the profiler on its machines.
///
/// # Panics
///
/// Panics with a diagnostic when `HB_STORE_PATH` is set but unusable
/// (permissions, missing parent directory) — a silent fall-back to a
/// volatile store would defeat the warm-start contract without a trace.
fn service() -> &'static Mutex<PersistentService> {
    static SERVICE: OnceLock<Mutex<PersistentService>> = OnceLock::new();
    SERVICE.get_or_init(|| {
        let s = settings();
        let workers = s.workers();
        let mut svc = match &s.store_path {
            Some(path) => PersistentService::open(workers, path)
                .unwrap_or_else(|e| panic!("HB_STORE_PATH={path}: cannot open store: {e}")),
            None => PersistentService::new(workers),
        };
        svc.set_profiling(s.prof);
        register_service_gauges();
        Mutex::new(svc)
    })
}

/// Mirrors the process-wide service's counters into the global registry
/// as `hb_*` gauges, so one `METRICS`-style snapshot carries the result
/// store story without a second bookkeeping path. Each
/// closure locks the service mutex at snapshot time — never snapshot the
/// registry while holding that lock.
fn register_service_gauges() {
    let g = hardbound_telemetry::global();
    type Sel = fn(&PersistStats) -> u64;
    let gauges: [(&str, Sel); 8] = [
        ("hb_store_hits", |s| s.service.store.hits),
        ("hb_store_misses", |s| s.service.store.misses),
        ("hb_store_stored", |s| s.service.store.stored),
        ("hb_store_evicted", |s| s.service.store.evicted),
        ("hb_store_expired", |s| s.service.store.expired),
        ("hb_store_len", |s| s.service.store_len as u64),
        ("hb_log_appended", |s| {
            s.log.as_ref().map_or(0, |l| l.appended)
        }),
        ("hb_log_flushes", |s| {
            s.log.as_ref().map_or(0, |l| l.flushes)
        }),
    ];
    for (name, sel) in gauges {
        g.gauge_fn(name, move || {
            let stats = service()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .stats();
            sel(&stats)
        });
    }
}

/// Snapshot of the persistent store log's counters — `None` when the
/// process runs without `HB_STORE_PATH`.
#[must_use]
pub fn store_log_stats() -> Option<StoreLogStats> {
    service()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .stats()
        .log
}

/// One corpus cell: a compiled program to simulate under a mode-paired
/// machine configuration.
#[derive(Clone, Debug)]
pub struct SimJob {
    /// The compiled image.
    pub program: Program,
    /// Compiler mode (decides machine extras such as the object table).
    pub mode: Mode,
    /// Full machine configuration.
    pub config: MachineConfig,
}

impl SimJob {
    /// A job for `program` under the standard mode-paired configuration
    /// (see [`machine_config`]).
    #[must_use]
    pub fn new(program: Program, mode: Mode, encoding: PointerEncoding) -> SimJob {
        SimJob {
            program,
            mode,
            config: machine_config(mode, encoding),
        }
    }
}

/// Runs a batch of corpus cells, returning outcomes in input order.
///
/// This is the drivers' front door, choosing between two byte-identical
/// paths (pinned by `tests/service_differential.rs` and the `hbserve`
/// smoke suite):
///
/// 1. **Remote** — `HB_SERVE_ADDR` set: the grid ships to that `hbserve`
///    server (programs as listings, configs on the wire), which dedups
///    against its shared warm store and streams outcomes back.
/// 2. **Local service** (default) — the process-wide persistent
///    [`PersistentService`]: result-store hits replay, misses run on
///    its worker threads, fresh outcomes append to
///    `HB_STORE_PATH` when set.
///
/// # Panics
///
/// Panics with a diagnostic when `HB_SERVE_ADDR` is set but the server is
/// unreachable or rejects the submission — a silent local fallback would
/// hide that the warm server is not being used.
#[must_use]
pub fn run_jobs(jobs: Vec<SimJob>) -> Vec<RunOutcome> {
    if let Some(addrs) = &settings().serve_addrs {
        return run_jobs_remote_to(addrs, &jobs);
    }
    let jobs: Vec<Job<Mode>> = jobs
        .into_iter()
        .map(|j| Job {
            program: j.program,
            config: j.config,
            salt: j.mode as u64,
            tag: j.mode,
        })
        .collect();
    let outs = service()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .run_batch(&jobs, |program, config, &mode| {
            build_machine_with_config(program, mode, config)
        });
    // The sink's BufWriter is a static — no destructor runs at process
    // exit, so every grid boundary flushes (`HB_TRACE` users would
    // otherwise lose the buffered tail of short runs).
    if trace::enabled() {
        trace::flush();
    }
    outs
}

/// Attempts per shard address before falling through to the next shard on
/// the ring's fallback route: one initial submission plus one
/// reconnect-and-resubmit of the still-missing cells.
const ATTEMPTS_PER_SHARD: usize = 2;

/// One submission attempt against `addr`: connect (checking the protocol
/// version), submit, and stream the outcomes into `out` on the same
/// connection. On a mid-stream failure the slots filled so far stay
/// filled — the caller resubmits only the rest.
///
/// With `ctx` present the attempt runs under a `remote_rt` span: the
/// submission carries the span as the server-side parent, the
/// returned server spans are re-emitted into the local sink so the grid's
/// trace is one merged file, and a failed attempt records the error (an
/// `err` field, which a successful attempt lacks) so the following
/// retry/re-route is attributable to the shard that died.
fn try_shard_once(
    addr: &str,
    sub: &[Job<u64>],
    out: &mut [Option<RunOutcome>],
    ctx: Option<TraceCtx>,
    (shard, hop, attempt): (u64, u64, u64),
) -> Result<(), ServeError> {
    let m = metrics();
    let started = Instant::now();
    let timer = ctx.map(|c| SpanTimer::start(c.trace, c.parent, "remote_rt"));
    let result = (|| {
        let mut client = Client::connect(addr)?;
        let sub_ctx = ctx.zip(timer.as_ref()).map(|(c, t)| TraceCtx {
            trace: c.trace,
            parent: t.span(),
        });
        m.remote_round_trips.inc();
        m.remote_cells.add(sub.len() as u64);
        let mut spans = Vec::new();
        let ran = client.run_into(sub, sub_ctx, out, &mut spans);
        for ev in &spans {
            trace::emit(ev);
        }
        ran
    })();
    m.remote_rt_us.record_duration(started.elapsed());
    if let Some(t) = timer {
        let mut fields = vec![
            ("addr".to_owned(), Field::from(addr)),
            ("shard".to_owned(), Field::from(shard)),
            ("hop".to_owned(), Field::from(hop)),
            ("attempt".to_owned(), Field::from(attempt)),
            ("cells".to_owned(), Field::from(sub.len() as u64)),
        ];
        if let Err(e) = &result {
            fields.push(("err".to_owned(), Field::from(e.to_string())));
        }
        t.emit(fields);
    }
    result
}

/// Fetches one shard group's `cells`, walking the ring's fallback route:
/// bounded attempts per shard, resubmitting only the cells still missing
/// (results the cluster already streamed — or already computed into a
/// surviving shard's store — are never thrown away). A submission of the
/// whole group borrows `cells`; only a retry of part of it copies the
/// missing cells. A server *rejection* (invalid job) is non-transient and
/// fails immediately; connection/stream failures try the next attempt or
/// shard. The outcomes come back in `cells` order.
fn fetch_group(
    addrs: &[String],
    order: &[usize],
    cells: &[Job<u64>],
    ctx: Option<TraceCtx>,
) -> Result<Vec<RunOutcome>, String> {
    let mut results: Vec<Option<RunOutcome>> = vec![None; cells.len()];
    let mut errors: Vec<String> = Vec::new();
    for (hop, &shard) in order.iter().enumerate() {
        let addr = &addrs[shard];
        for attempt in 0..ATTEMPTS_PER_SHARD {
            let missing: Vec<usize> = (0..cells.len()).filter(|&k| results[k].is_none()).collect();
            if missing.is_empty() {
                break;
            }
            if attempt > 0 {
                metrics().remote_retries.inc();
            } else if hop > 0 {
                metrics().remote_reroutes.inc();
            }
            let sub: Cow<'_, [Job<u64>]> = if missing.len() == cells.len() {
                Cow::Borrowed(cells)
            } else {
                missing.iter().map(|&k| cells[k].clone()).collect()
            };
            let mut sub_results: Vec<Option<RunOutcome>> = vec![None; sub.len()];
            let outcome = try_shard_once(
                addr,
                &sub,
                &mut sub_results,
                ctx,
                (shard as u64, hop as u64, attempt as u64),
            );
            for (&k, out) in missing.iter().zip(sub_results) {
                if out.is_some() {
                    results[k] = out;
                }
            }
            match outcome {
                Ok(()) if results.iter().all(Option::is_some) => {
                    return Ok(results
                        .into_iter()
                        .map(|out| out.expect("checked above"))
                        .collect());
                }
                // A DONE with holes is a server bug; treat as transient
                // and resubmit the holes.
                Ok(()) => errors.push(format!("{addr}: incomplete result stream")),
                // A rejection means the submission itself is invalid —
                // every shard would reject it the same way. A version
                // mismatch is a deployment error, never worth a re-route.
                Err(
                    e @ (ServeError::Server(_)
                    | ServeError::Oversized { .. }
                    | ServeError::VersionMismatch { .. }),
                ) => {
                    return Err(format!("{addr}: {e}"));
                }
                Err(e) => errors.push(format!("{addr}: {e}")),
            }
        }
    }
    Err(format!(
        "all shards exhausted for {} cells [{}]",
        results.iter().filter(|r| r.is_none()).count(),
        errors.join("; ")
    ))
}

/// The `HB_SERVE_ADDR` client path: scatter the grid across the shard
/// cluster by consistent hashing over each cell's store key, gather the
/// streams, and merge outcomes back into input order. Shard groups fetch
/// concurrently; a shard's transient failure retries and then re-routes
/// along the ring (see `fetch_group`). With a single shard every cell
/// belongs to it, so no store key is computed.
///
/// Public so the cluster differential tests can drive an explicit shard
/// list without racing on the process environment.
///
/// # Panics
///
/// Panics with per-shard diagnostics when a submission is rejected or
/// every shard's attempts exhaust — a silent local fallback (or a silent
/// hole in the grid) would hide that the cluster is not being used.
#[must_use]
pub fn run_jobs_remote_to(addrs: &[String], jobs: &[SimJob]) -> Vec<RunOutcome> {
    assert!(!addrs.is_empty(), "empty hbserve shard list");
    if jobs.is_empty() {
        return Vec::new();
    }
    let ring = ShardRing::new(addrs.len());
    // Each shard's cells, laid out contiguously so the group submits as
    // one borrowed slice, with the input index of each.
    let mut groups: Vec<(Vec<usize>, Vec<Job<u64>>)> = vec![(Vec::new(), Vec::new()); addrs.len()];
    for (i, j) in jobs.iter().enumerate() {
        let cell = Job {
            program: j.program.clone(),
            config: j.config.clone(),
            salt: j.mode as u64,
            tag: j.mode as u64,
        };
        let owner = if addrs.len() == 1 {
            0
        } else {
            let (pid, fp) = cell.key();
            ring.owner_of_cell(pid.0, fp)
        };
        groups[owner].0.push(i);
        groups[owner].1.push(cell);
    }
    // The whole scatter/gather runs under one fresh trace: the `grid` root
    // span parents every per-attempt `remote_rt` span, and the server
    // spans each attempt brings back are re-emitted locally, so a single
    // JSONL file tells the cluster-wide story of this grid.
    let grid_timer =
        trace::enabled().then(|| SpanTimer::start(trace::new_trace(), SpanId::NONE, "grid"));
    let ctx = grid_timer.as_ref().map(|t| TraceCtx {
        trace: t.trace(),
        parent: t.span(),
    });
    let mut results: Vec<Option<RunOutcome>> = vec![None; jobs.len()];
    let mut failures: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .iter()
            .enumerate()
            .filter(|(_, (idxs, _))| !idxs.is_empty())
            .map(|(shard, (idxs, cells))| {
                let order = ring.route_from(shard);
                (
                    idxs,
                    scope.spawn(move || fetch_group(addrs, &order, cells, ctx)),
                )
            })
            .collect();
        for (idxs, handle) in handles {
            match handle.join().expect("no panics") {
                Ok(outs) => {
                    for (&i, out) in idxs.iter().zip(outs) {
                        results[i] = Some(out);
                    }
                }
                Err(msg) => failures.push(msg),
            }
        }
    });
    if let Some(t) = grid_timer {
        t.emit(vec![
            ("cells".to_owned(), Field::from(jobs.len() as u64)),
            ("shards".to_owned(), Field::from(addrs.len() as u64)),
            ("failures".to_owned(), Field::from(failures.len() as u64)),
        ]);
        trace::flush();
    }
    assert!(
        failures.is_empty(),
        "HB_SERVE_ADDR={}: remote batch failed: {}",
        addrs.join(","),
        failures.join(" | ")
    );
    results
        .into_iter()
        .map(|r| r.expect("every group resolved or failed loudly"))
        .collect()
}

/// Scrapes and merges the hot-spot profiles of every reachable shard in
/// `addrs` into one cluster-wide [`hardbound_telemetry::Profile`]. Merging
/// is exact summation key-by-key, so the merged block counts equal the
/// sums of the per-shard counts. Unreachable shards contribute an empty
/// profile — the same degradation path the result fetchers use for a
/// killed shard; their addresses come back in the second element.
#[must_use]
pub fn cluster_profile(addrs: &[String]) -> (hardbound_telemetry::Profile, Vec<String>) {
    let mut merged = hardbound_telemetry::Profile::new();
    let mut skipped = Vec::new();
    for addr in addrs {
        let scraped = Client::connect(addr).and_then(|mut c| c.profile());
        match scraped {
            Ok(p) => merged.merge(&p),
            Err(_) => skipped.push(addr.clone()),
        }
    }
    (merged, skipped)
}

/// [`run_jobs`] for a single cell (`hbrun`, one-shot tools).
#[must_use]
pub fn run_job(program: Program, mode: Mode, config: MachineConfig) -> RunOutcome {
    run_jobs(vec![SimJob {
        program,
        mode,
        config,
    }])
    .pop()
    .expect("one job, one outcome")
}

/// Snapshot of the process-wide service's counters (result-store
/// hits/misses/evictions, block-cache behaviour over all shards) —
/// surfaced by `hbrun --stats` and the bench harness. The persistent
/// log's counters ride along via [`store_log_stats`].
#[must_use]
pub fn service_stats() -> ServiceStats {
    service()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .stats()
        .service
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardbound_core::Trap;
    use hardbound_isa::layout;

    fn run_all_modes(src: &str) -> RunOutcome {
        let reference =
            compile_and_run(src, Mode::Baseline, PointerEncoding::Intern4).expect("compiles");
        assert_eq!(
            reference.trap, None,
            "baseline trapped: {:?}",
            reference.trap
        );
        for mode in [
            Mode::MallocOnly,
            Mode::HardBound,
            Mode::SoftBound,
            Mode::ObjectTable,
        ] {
            let out = compile_and_run(src, mode, PointerEncoding::Intern4).expect("compiles");
            assert_eq!(out.trap, None, "{mode} trapped: {:?}", out.trap);
            assert_eq!(out.exit_code, reference.exit_code, "{mode} exit differs");
            assert_eq!(out.output, reference.output, "{mode} output differs");
        }
        reference
    }

    #[test]
    fn flag_parsing_is_case_insensitive_and_matches_the_docs() {
        let prof = |v: &str| Settings::from_vars([("HB_PROF", v)]).map(|s| s.prof);
        // on/off/1/0/true/false in any case, with surrounding whitespace
        // tolerated; blank reads as unset, which is off.
        for off in [
            "0", "false", "FALSE", "False", " false ", " 0 ", "off", "OFF", "", "  ",
        ] {
            assert_eq!(prof(off), Ok(false), "`{off}`");
        }
        for on in ["1", "true", "TRUE", "on", "On", " on "] {
            assert_eq!(prof(on), Ok(true), "`{on}`");
        }
        // Anything else is an error naming the variable and quoting the
        // value, so a misspelled flag can never silently flip a layer.
        for bad in ["no", "yes", "2", "x", "enable", "of", "-1", "0x1"] {
            let err = prof(bad).expect_err(bad);
            assert!(err.contains("HB_PROF"), "{err}");
            assert!(err.contains(&format!("`{bad}`")), "{err}");
        }
    }

    #[test]
    fn env_parse_reports_unparseable_values() {
        let gate = |v: &str| Settings::from_vars([("HB_SERVICE_GATE", v)]).map(|s| s.service_gate);
        // Unset variables read as None.
        let unset = Settings::from_vars::<[(&str, &str); 0], _, _>([]).expect("no variables");
        assert_eq!(unset.service_gate, None);
        // A set-but-invalid value takes the error path, and the diagnostic
        // names the variable and quotes the value.
        let err = gate("1.x").expect_err("`1.x` must not parse as a ratio");
        assert!(err.contains("HB_SERVICE_GATE"), "{err}");
        assert!(err.contains("`1.x`"), "{err}");
        // Valid and empty values parse through the same path.
        assert_eq!(gate("2.5"), Ok(Some(2.5)));
        assert_eq!(gate(""), Ok(None));
    }

    #[test]
    fn malloc_returns_heap_pointers_with_exact_bounds() {
        let out = compile_and_run(
            "int main() {\n\
               int *a = (int*)malloc(12);\n\
               int lo = (int)a >= 0x1000000;\n\
               int hi = (int)a < 0x5000000;\n\
               int span = __readbound(a) - __readbase(a);\n\
               return lo * 100 + hi * 10 + (span == 12);\n\
             }",
            Mode::HardBound,
            PointerEncoding::Intern4,
        )
        .unwrap();
        assert_eq!(out.exit_code, Some(111), "{:?}", out.trap);
    }

    #[test]
    fn malloc_free_reuse_cycle() {
        let out = run_all_modes(
            "int main() {\n\
               int *a = (int*)malloc(32);\n\
               int first = (int)a;\n\
               a[0] = 7;\n\
               free(a);\n\
               int *b = (int*)malloc(32);\n\
               int second = (int)b;\n\
               b[0] = 9;\n\
               return (first == second) * 10 + b[0] - 9;\n\
             }",
        );
        assert_eq!(out.exit_code, Some(10), "free list must recycle the block");
    }

    #[test]
    fn distinct_allocations_do_not_overlap() {
        let out = run_all_modes(
            "int main() {\n\
               int *a = (int*)malloc(16);\n\
               int *b = (int*)malloc(16);\n\
               for (int i = 0; i < 4; i = i + 1) { a[i] = 1; b[i] = 2; }\n\
               int s = 0;\n\
               for (int i = 0; i < 4; i = i + 1) s = s + a[i] * 10 + b[i];\n\
               return s;\n\
             }",
        );
        assert_eq!(out.exit_code, Some(48));
    }

    #[test]
    fn heap_overflow_detected_in_protected_modes() {
        let src = "int main() {\n\
            int *a = (int*)malloc(8 * sizeof(int));\n\
            int i = 9;\n\
            a[i] = 1;\n\
            return 0;\n\
          }";
        for (mode, expect_hw) in [
            (Mode::MallocOnly, true),
            (Mode::HardBound, true),
            (Mode::SoftBound, false),
        ] {
            let out = compile_and_run(src, mode, PointerEncoding::Intern4).unwrap();
            match (expect_hw, out.trap) {
                (true, Some(Trap::BoundsViolation { .. }))
                | (false, Some(Trap::SoftwareAbort { .. })) => {}
                (_, other) => panic!("{mode}: unexpected trap {other:?}"),
            }
        }
        let ot = compile_and_run(src, Mode::ObjectTable, PointerEncoding::Intern4).unwrap();
        assert!(
            matches!(ot.trap, Some(Trap::ObjectTableViolation { .. })),
            "allocation-granularity overflow is visible to the object table: {:?}",
            ot.trap
        );
    }

    #[test]
    fn use_after_free_unregisters_in_object_table_mode() {
        // Spatial-only schemes (HardBound included) do NOT catch
        // use-after-free (paper §6.2); the object table does, as a side
        // effect of unregistration, when the block is not yet recycled.
        let src = "int main() {\n\
            int *a = (int*)malloc(16);\n\
            free(a);\n\
            return a[0];\n\
          }";
        let ot = compile_and_run(src, Mode::ObjectTable, PointerEncoding::Intern4).unwrap();
        assert!(matches!(ot.trap, Some(Trap::ObjectTableViolation { .. })));
        let hb = compile_and_run(src, Mode::HardBound, PointerEncoding::Intern4).unwrap();
        assert_eq!(hb.trap, None, "HardBound is spatial-only (§6.2)");
    }

    #[test]
    fn string_functions() {
        let out = run_all_modes(
            "int main() {\n\
               char *buf = (char*)malloc(16);\n\
               strcpy(buf, \"hello\");\n\
               int n = strlen(buf);\n\
               int c = strcmp(buf, \"hello\");\n\
               int d = strcmp(buf, \"help\");\n\
               print_str(buf);\n\
               char *copy = (char*)malloc(16);\n\
               memcpy(copy, buf, n + 1);\n\
               memset(buf, 88, 3);\n\
               print_char(buf[0]);\n\
               return n * 100 + (c == 0) * 10 + (d < 0);\n\
             }",
        );
        assert_eq!(out.exit_code, Some(511));
        assert_eq!(out.output, "helloX");
    }

    #[test]
    fn strcpy_overflow_is_the_paper_intro_example() {
        // §2.2/§3.2: strcpy through a narrowed sub-object pointer.
        let src = "struct node { char str[5]; int x; };\n\
             int main() {\n\
               struct node n;\n\
               n.x = 42;\n\
               char *p = n.str;\n\
               strcpy(p, \"overflow\");\n\
               return n.x;\n\
             }";
        let hb = compile_and_run(src, Mode::HardBound, PointerEncoding::Intern4).unwrap();
        assert!(
            matches!(hb.trap, Some(Trap::BoundsViolation { .. })),
            "HardBound must detect the strcpy overflow inside strcpy: {:?}",
            hb.trap
        );
        let base = compile_and_run(src, Mode::Baseline, PointerEncoding::Intern4).unwrap();
        assert_eq!(base.trap, None);
        assert_ne!(
            base.exit_code,
            Some(42),
            "baseline silently corrupts node.x"
        );
    }

    #[test]
    fn fixed_point_arithmetic() {
        let out = run_all_modes(
            "int main() {\n\
               int a = fx_from_int(7);\n\
               int b = fx_from_int(2);\n\
               int m = fx_to_int(fx_mul(a, b));\n\
               int d = fx_to_int(fx_div(a, b) + 32768);\n\
               int s = fx_to_int(fx_sqrt(fx_from_int(16)));\n\
               int neg = fx_to_int(fx_abs(0 - a));\n\
               return m * 1000 + d * 100 + s * 10 + neg;\n\
             }",
        );
        // 7*2=14, round(7/2)=4 (3.5+0.5), sqrt(16)=4, |−7|=7.
        assert_eq!(out.exit_code, Some(14_000 + 400 + 40 + 7));
    }

    #[test]
    fn prng_is_deterministic_and_bounded() {
        let out = run_all_modes(
            "int main() {\n\
               rand_seed(42);\n\
               int ok = 1;\n\
               for (int i = 0; i < 100; i = i + 1) {\n\
                 int v = rand_range(10);\n\
                 if (v < 0) ok = 0;\n\
                 if (v >= 10) ok = 0;\n\
               }\n\
               rand_seed(42);\n\
               int a = rand_next();\n\
               rand_seed(42);\n\
               int b = rand_next();\n\
               return ok * 10 + (a == b);\n\
             }",
        );
        assert_eq!(out.exit_code, Some(11));
    }

    #[test]
    fn many_allocations_stress() {
        let out = run_all_modes(
            "struct cell { int v; struct cell *next; };\n\
             int main() {\n\
               struct cell *head = 0;\n\
               for (int i = 0; i < 200; i = i + 1) {\n\
                 struct cell *c = (struct cell*)malloc(sizeof(struct cell));\n\
                 c->v = i;\n\
                 c->next = head;\n\
                 head = c;\n\
               }\n\
               int s = 0;\n\
               while (head != 0) { s = s + head->v; head = head->next; }\n\
               return s == 19900;\n\
             }",
        );
        assert_eq!(out.exit_code, Some(1));
    }

    #[test]
    fn parse_errors_report_positions_in_the_user_source() {
        // The runtime library is checked separately, so positions count
        // from the user's first line. Lex errors surface as parse errors.
        for mode in Mode::ALL {
            let e = compile("int main( { return 0; }", mode).unwrap_err();
            assert!(e.message.starts_with("parse error at 1:13:"), "{e}");
        }
        let e = compile("int main() {\n  return 1 @ 2;\n}", Mode::HardBound).unwrap_err();
        assert!(e.message.starts_with("parse error at 2:12:"), "{e}");
    }

    #[test]
    fn heap_layout_constants_match_isa_layout() {
        // The Cb runtime hard-codes the heap range; keep it in lock-step
        // with the ISA layout constants.
        assert!(RUNTIME_SOURCE.contains("0x1000000"));
        assert!(RUNTIME_SOURCE.contains("0x5000000"));
        assert_eq!(layout::HEAP_BASE, 0x0100_0000);
        assert_eq!(layout::HEAP_END, 0x0500_0000);
    }
}
