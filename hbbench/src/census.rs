//! The layer census of a traced run: the workload's own programs, each
//! under Baseline, HardBound (intern-4) and SoftBound, pushed once through
//! every layer — front end, code generation, listing codec, fingerprint,
//! machine construction, interpreter, engine (cold and warm decode),
//! forensics, wire codec, result store, store log and a loopback round
//! trip — with one span around each layer call. Every per-layer metric is
//! derived from those spans' self times or from the simulated counters,
//! so each layer is measured on every workload's inputs.

use std::path::Path;
use std::time::{Duration, Instant};

use hardbound_compiler::Mode;
use hardbound_core::{ExecStats, RunOutcome};
use hardbound_exec::service::{config_fingerprint, ResultStore, StoreKey};
use hardbound_exec::{BlockCacheStats, Engine, ProgramId, SharedBlockCache};
use hardbound_isa::{parse_program, Program};
use hardbound_runtime::{
    build_machine, build_machine_with_config, compile_uncached, link, machine_config,
    run_jobs_remote_to, violation_report, SimJob,
};
use hardbound_serve::wire::{decode_outcome, encode_outcome, Reader, Writer};
use hardbound_serve::{PersistentService, StoreLog};
use hardbound_telemetry::trace;

use crate::olden::{mode_key, ENCODING, MODES};
use crate::replay::Loopback;
use crate::runner::Checks;
use crate::spans::Tracer;
use crate::util::{ratio, Metric};

/// Span kinds per mode (kinds are static strings in the trace schema).
const INTERP: [&str; 3] = [
    "core.interp_run.baseline",
    "core.interp_run.hardbound",
    "core.interp_run.softbound",
];
const ENGINE: [&str; 3] = [
    "exec.engine_run.baseline",
    "exec.engine_run.hardbound",
    "exec.engine_run.softbound",
];

/// Cheap operations repeat inside one span until it lasts this long, so
/// the trace schema's whole-µs durations still resolve nanoseconds.
const MIN_SPAN: Duration = Duration::from_millis(2);

/// Runs `f` repeatedly inside one span of `kind` (at least once, until
/// [`MIN_SPAN`] passed); each repetition covers `per_rep` operations.
fn repeated<R>(tr: &mut Tracer, kind: &'static str, per_rep: u64, mut f: impl FnMut() -> R) -> R {
    tr.enter(kind);
    let t = Instant::now();
    let mut reps = 0;
    let out = loop {
        let r = std::hint::black_box(f());
        reps += 1;
        if t.elapsed() >= MIN_SPAN {
            break r;
        }
    };
    tr.exit(reps * per_rep);
    out
}

#[derive(Default)]
struct ModeTotals {
    uops: u64,
    fast_uops: u64,
    stepped: u64,
    hier_accesses: u64,
    fast_hits: u64,
    fast_misses: u64,
    cycles: u64,
    blocks: BlockCacheStats,
    stats: ExecStats,
}

impl ModeTotals {
    fn add(&mut self, s: &ExecStats) {
        let h = &s.hierarchy;
        self.uops += s.uops;
        self.cycles += s.cycles();
        self.hier_accesses += h.data_accesses + h.tag_accesses + h.shadow_accesses;
        let t = &mut self.stats;
        t.bounds_checks += s.bounds_checks;
        t.meta_uops += s.meta_uops;
        t.setbound_uops += s.setbound_uops;
        t.ptr_loads += s.ptr_loads;
        t.ptr_stores += s.ptr_stores;
        t.hierarchy.data_stall_cycles += h.data_stall_cycles;
        t.hierarchy.tag_stall_cycles += h.tag_stall_cycles;
        t.hierarchy.shadow_stall_cycles += h.shadow_stall_cycles;
        t.data_pages += s.data_pages;
        t.tag_pages += s.tag_pages;
        t.shadow_pages += s.shadow_pages;
    }
}

/// The end-to-end metric and workload each per-layer metric should move
/// (the prediction written down before measuring).
pub fn maps_to(metric: &str) -> &'static str {
    const MAP: [(&str, &str); 16] = [
        (
            "exec.decode_us",
            "pass_ms on violation-corpus (below 1% of ns_per_uop on olden-sim)",
        ),
        (
            "core.machine_new_us",
            "pass_ms on violation-corpus (below 1% of ns_per_uop on olden-sim)",
        ),
        ("core.forensics_us", "pass_ms on violation-corpus"),
        ("runtime.", "pass_ms on violation-corpus"),
        ("lang.", "pass_ms on violation-corpus"),
        ("compiler.", "pass_ms on violation-corpus"),
        (
            "exec.fingerprint_ns",
            "pass_ms on figure-replay (warm and restart paths)",
        ),
        (
            "exec.store_",
            "pass_ms on figure-replay (warm and restart paths)",
        ),
        ("serve.log_open", "pass_ms on figure-replay (restart path)"),
        (
            "serve.log_records",
            "pass_ms on figure-replay (restart path)",
        ),
        (
            "serve.log_",
            "pass_ms on figure-replay (rerun-after-edit path)",
        ),
        ("serve.", "pass_ms on figure-replay (remote path)"),
        ("isa.", "pass_ms on figure-replay (remote path)"),
        ("mem.", "ns_per_uop on olden-sim and peak_rss_mb"),
        (
            "sim.",
            "none: a simulated result, identical under simulator-only changes",
        ),
        ("bench.", "every workload: traced minus untraced pass time"),
    ];
    MAP.iter()
        .find(|(prefix, _)| metric.starts_with(prefix))
        .map_or("ns_per_uop on olden-sim", |(_, to)| to)
}

pub fn run(
    sources: &[(String, String)],
    tr: &mut Tracer,
    checks: &mut Checks,
    dir: &Path,
) -> Vec<Metric> {
    tr.enter("bench.census");
    let mut totals: [ModeTotals; 3] = Default::default();
    let mut decode_us = Vec::new();
    let mut jobs: Vec<SimJob> = Vec::new();
    let mut outcomes: Vec<(StoreKey, RunOutcome)> = Vec::new();
    for (name, src) in sources {
        let linked = link(src);
        let hir = tr.span("lang.frontend", 1, || hardbound_lang::frontend(&linked));
        checks.op(hir.is_ok(), || format!("{name}: front end rejected it"));
        for (mi, &mode) in MODES.iter().enumerate() {
            let program = match tr.span("runtime.compile", 1, || compile_uncached(src, mode)) {
                Ok(p) => p,
                Err(e) => {
                    checks.op(false, || format!("{name} ({mode}): {e}"));
                    continue;
                }
            };
            let listing = tr.span("isa.listing_render", 1, || {
                let mut s = String::new();
                program.write_listing(&mut s).expect("writing to a String");
                s
            });
            let parsed = tr.span("isa.listing_parse", 1, || parse_program(&listing));
            checks.op(parsed.as_ref() == Ok(&program), || {
                format!("{name} ({mode}): listing does not round-trip")
            });
            let config = machine_config(mode, ENCODING);
            let key = repeated(tr, "exec.fingerprint", 1, || {
                (
                    ProgramId::of(&program, &config),
                    config_fingerprint(&config, mode as u64),
                )
            });
            repeated(tr, "core.machine_new", 1, || {
                build_machine(program.clone(), mode, ENCODING)
            });
            let out = simulate(&program, mode, mi, tr, &mut totals[mi], checks, name);
            decode_us.push(decode_cost(&program, mode, tr, checks, name));
            if mode == Mode::HardBound {
                let report = tr.span("core.forensics", 1, || {
                    violation_report(program.clone(), mode, config.clone())
                });
                checks.op(report.is_some() == out.trap.is_some(), || {
                    format!("{name}: forensics disagree with the run")
                });
            }
            jobs.push(SimJob {
                program: program.clone(),
                mode,
                config,
            });
            outcomes.push((key, out));
        }
    }
    codec_and_store(&outcomes, tr, checks);
    let loaded = store_log(&outcomes, tr, checks, dir);
    let chunk_us = loopback(&jobs, &outcomes, tr, checks, dir);
    tr.exit(1);

    let st = tr.self_times();
    let get = |k: &str| st.get(k).copied().unwrap_or_default();
    let per_op = |k: &str, unit: f64| get(k).per_op(unit);
    let compile_us = per_op("runtime.compile", 1.0);
    let frontend_us = per_op("lang.frontend", 1.0);
    let sum = |f: fn(&ModeTotals) -> u64| totals.iter().map(f).sum::<u64>() as f64;
    let (decoded, block_hits) = (sum(|t| t.blocks.decoded), sum(|t| t.blocks.hits));
    let hb = &totals[1];
    let per_hb_uop = |v: u64| ratio(v as f64, hb.uops as f64);
    let (h, base) = (&hb.stats.hierarchy, &totals[0].stats);
    checks.op(
        base.bounds_checks + base.meta_uops + base.setbound_uops == 0,
        || "baseline cells retired HardBound work".to_owned(),
    );
    let mut m: Vec<Metric> = [
        ("runtime.compile_us", compile_us, "us"),
        ("lang.frontend_us", frontend_us, "us"),
        // The public API compiles in one call; code generation is what
        // is left after the separately timed front end.
        ("compiler.codegen_us", compile_us - frontend_us, "us"),
        (
            "isa.listing_render_us",
            per_op("isa.listing_render", 1.0),
            "us",
        ),
        (
            "isa.listing_parse_us",
            per_op("isa.listing_parse", 1.0),
            "us",
        ),
        ("exec.fingerprint_ns", per_op("exec.fingerprint", 1e3), "ns"),
        ("core.machine_new_us", per_op("core.machine_new", 1.0), "us"),
        (
            "exec.decode_us",
            ratio(decode_us.iter().sum(), decode_us.len() as f64),
            "us",
        ),
        (
            "exec.fast_uop_ratio",
            ratio(sum(|t| t.fast_uops), sum(|t| t.uops)),
            "ratio",
        ),
        ("exec.stepped_insts", sum(|t| t.stepped), "count"),
        ("exec.blocks_decoded", decoded, "count"),
        (
            "exec.block_hit_ratio",
            ratio(block_hits, block_hits + decoded),
            "ratio",
        ),
        (
            "core.bounds_checks_per_uop",
            per_hb_uop(hb.stats.bounds_checks),
            "ratio",
        ),
        (
            "core.meta_uops_per_uop",
            per_hb_uop(hb.stats.meta_uops),
            "ratio",
        ),
        (
            "core.setbound_uops_per_uop",
            per_hb_uop(hb.stats.setbound_uops),
            "ratio",
        ),
        (
            "core.ptr_loads_per_uop",
            per_hb_uop(hb.stats.ptr_loads),
            "ratio",
        ),
        (
            "core.ptr_stores_per_uop",
            per_hb_uop(hb.stats.ptr_stores),
            "ratio",
        ),
        (
            "cache.data_stall_cycles",
            h.data_stall_cycles as f64,
            "count",
        ),
        ("cache.tag_stall_cycles", h.tag_stall_cycles as f64, "count"),
        (
            "cache.shadow_stall_cycles",
            h.shadow_stall_cycles as f64,
            "count",
        ),
        ("mem.data_pages", hb.stats.data_pages as f64, "count"),
        ("mem.tag_pages", hb.stats.tag_pages as f64, "count"),
        ("mem.shadow_pages", hb.stats.shadow_pages as f64, "count"),
        (
            "sim.hb_rel_runtime",
            ratio(hb.cycles as f64, totals[0].cycles as f64),
            "ratio",
        ),
        (
            "serve.wire_encode_ns",
            per_op("serve.wire_encode", 1e3),
            "ns",
        ),
        (
            "serve.wire_decode_ns",
            per_op("serve.wire_decode", 1e3),
            "ns",
        ),
        (
            "exec.store_lookup_ns",
            per_op("exec.store_lookup", 1e3),
            "ns",
        ),
        ("serve.log_append_us", per_op("serve.log_append", 1.0), "us"),
        ("serve.log_flush_us", per_op("serve.log_flush", 1.0), "us"),
        ("serve.log_open_ms", per_op("serve.log_open", 1e-3), "ms"),
        ("serve.log_records_loaded", loaded as f64, "count"),
        ("serve.rt_ms", per_op("serve.rt", 1e-3), "ms"),
        ("serve.chunk_us", chunk_us, "us"),
        ("core.forensics_us", per_op("core.forensics", 1.0), "us"),
    ]
    .into_iter()
    .map(|(name, value, unit)| Metric::new(name, value, unit))
    .collect();
    for (mi, &mode) in MODES.iter().enumerate() {
        let (t, key) = (&totals[mi], mode_key(mode));
        let per_uop = |v: f64| ratio(v, t.uops as f64);
        m.extend([
            Metric::new(
                format!("core.interp_ns_per_uop.{key}"),
                per_uop(get(INTERP[mi]).self_us * 1e3),
                "ns",
            ),
            Metric::new(
                format!("exec.run_ns_per_uop.{key}"),
                per_uop(get(ENGINE[mi]).self_us * 1e3),
                "ns",
            ),
            Metric::new(
                format!("cache.accesses_per_uop.{key}"),
                per_uop(t.hier_accesses as f64),
                "ratio",
            ),
            Metric::new(
                format!("cache.fastpath_hit_ratio.{key}"),
                ratio(t.fast_hits as f64, (t.fast_hits + t.fast_misses) as f64),
                "ratio",
            ),
        ]);
    }
    m
}

/// Interpreter and cold-engine runs of one cell; checks they agree.
fn simulate(
    program: &Program,
    mode: Mode,
    mi: usize,
    tr: &mut Tracer,
    totals: &mut ModeTotals,
    checks: &mut Checks,
    name: &str,
) -> RunOutcome {
    let mut machine = build_machine(program.clone(), mode, ENCODING);
    tr.enter(INTERP[mi]);
    let interp = machine.run();
    tr.exit(interp.stats.uops);
    let machine = build_machine(program.clone(), mode, ENCODING);
    tr.enter(ENGINE[mi]);
    let mut engine = Engine::new(machine);
    let out = engine.run();
    tr.exit(out.stats.uops);
    let es = engine.stats();
    let fast = engine.machine().hier_fast_stats();
    totals.add(&out.stats);
    totals.fast_uops += es.fast_uops;
    totals.stepped += es.stepped_insts;
    totals.blocks.absorb(es.cache);
    totals.fast_hits += fast.fastpath_hits;
    totals.fast_misses += fast.fastpath_misses;
    checks.op(interp == out, || {
        format!("{name} ({mode}): engine and interpreter outcomes differ")
    });
    out
}

/// Fuel for the decode measurement: long enough to reach a program's
/// steady loops, short enough that run-to-run noise in a full-scale run
/// does not swamp the decode work.
const DECODE_FUEL: u64 = 200_000;
const DECODE_REPS: usize = 5;

/// Decode cost of one cell in µs: the fastest cold run on a fresh shared
/// block cache minus the fastest warm rerun on the same cache, both on
/// the same fuel-limited prefix.
fn decode_cost(
    program: &Program,
    mode: Mode,
    tr: &mut Tracer,
    checks: &mut Checks,
    name: &str,
) -> f64 {
    let config = machine_config(mode, ENCODING).with_fuel(DECODE_FUEL);
    let mut run = |kind, cache: &mut SharedBlockCache| {
        let machine = build_machine_with_config(program.clone(), mode, config.clone());
        tr.enter(kind);
        let t = Instant::now();
        let out = Engine::with_shared_cache(machine, cache).run();
        let d = t.elapsed();
        tr.exit(1);
        (d, out)
    };
    let (mut cold, mut warm) = (Duration::MAX, Duration::MAX);
    let mut same = true;
    for _ in 0..DECODE_REPS {
        let mut cache = SharedBlockCache::new(SharedBlockCache::DEFAULT_CAPACITY);
        let (c, cold_out) = run("exec.shared_cold", &mut cache);
        let (w, warm_out) = run("exec.shared_warm", &mut cache);
        same &= cold_out == warm_out;
        cold = cold.min(c);
        warm = warm.min(w);
    }
    checks.op(same, || {
        format!("{name} ({mode}): cold and warm decode runs differ")
    });
    cold.saturating_sub(warm).as_secs_f64() * 1e6
}

fn codec_and_store(outcomes: &[(StoreKey, RunOutcome)], tr: &mut Tracer, checks: &mut Checks) {
    let n = outcomes.len() as u64;
    let bufs: Vec<Vec<u8>> = repeated(tr, "serve.wire_encode", n, || {
        outcomes
            .iter()
            .map(|(_, o)| {
                let mut w = Writer::new();
                encode_outcome(&mut w, o);
                w.into_bytes()
            })
            .collect()
    });
    let decoded: Vec<_> = repeated(tr, "serve.wire_decode", n, || {
        bufs.iter()
            .map(|b| decode_outcome(&mut Reader::new(b)))
            .collect()
    });
    for ((_, o), d) in outcomes.iter().zip(&decoded) {
        checks.op(d.as_ref() == Ok(o), || {
            "wire codec does not round-trip".to_owned()
        });
    }

    let mut store = ResultStore::default();
    for (k, o) in outcomes {
        store.insert(*k, o.clone());
    }
    let found = repeated(tr, "exec.store_lookup", n, || {
        outcomes
            .iter()
            .filter(|(k, _)| store.lookup(*k).is_some())
            .count()
    });
    checks.op(found == outcomes.len(), || {
        "result store lost entries".to_owned()
    });
}

fn store_log(
    outcomes: &[(StoreKey, RunOutcome)],
    tr: &mut Tracer,
    checks: &mut Checks,
    dir: &Path,
) -> usize {
    let path = dir.join("census.log");
    let _ = std::fs::remove_file(&path);
    let mut log = match StoreLog::open(&path) {
        Ok(l) => l.log,
        Err(e) => {
            checks.op(false, || format!("census log: {e}"));
            return 0;
        }
    };
    tr.enter("serve.log_append");
    let appended = outcomes.iter().all(|(k, o)| log.append(*k, o).is_ok());
    tr.exit(outcomes.len() as u64);
    let flushed = tr.span("serve.log_flush", 1, || log.flush());
    checks.op(appended && flushed.is_ok(), || {
        "census log write failed".to_owned()
    });
    drop(log);
    let loaded = tr
        .span("serve.log_open", 1, || StoreLog::open(&path))
        .map_or(0, |l| l.entries.len());
    checks.op(loaded == outcomes.len(), || {
        "census log did not reload every record".to_owned()
    });
    loaded
}

/// Submits the census cells to a fresh loopback server twice: the cold
/// submission executes them (its server-side `chunk` spans give the
/// chunk time), the warm one is the timed round trip. Returns the mean
/// chunk time in µs.
fn loopback(
    jobs: &[SimJob],
    outcomes: &[(StoreKey, RunOutcome)],
    tr: &mut Tracer,
    checks: &mut Checks,
    dir: &Path,
) -> f64 {
    let server = match Loopback::start(PersistentService::new(1)) {
        Ok(s) => s,
        Err(e) => {
            checks.op(false, || format!("loopback server: {e}"));
            return 0.0;
        }
    };
    let addrs = [server.addr()];
    let spans = dir.join("server-spans.jsonl");
    let _ = std::fs::remove_file(&spans);
    let cold = match trace::install(&spans) {
        Ok(()) => {
            let out = run_jobs_remote_to(&addrs, jobs);
            trace::disable();
            out
        }
        Err(e) => {
            checks.op(false, || format!("server span sink: {e}"));
            run_jobs_remote_to(&addrs, jobs)
        }
    };
    let warm = tr.span("serve.rt", 1, || run_jobs_remote_to(&addrs, jobs));
    for ((_, o), (c, w)) in outcomes.iter().zip(cold.iter().zip(&warm)) {
        checks.op(c == o && w == o, || "remote outcome differs".to_owned());
    }
    server.stop();
    let text = std::fs::read_to_string(&spans).unwrap_or_default();
    let chunks: Vec<f64> = text
        .lines()
        .filter_map(|l| trace::SpanEvent::parse(l).ok())
        .filter(|ev| ev.kind == "chunk")
        .map(|ev| ev.dur_us as f64)
        .collect();
    checks.op(!chunks.is_empty(), || {
        "server returned no chunk spans".to_owned()
    });
    ratio(chunks.iter().sum(), chunks.len() as f64)
}
