//! `hbrun` — compile and run Cb programs (or `.s` µop listings) on the
//! HardBound simulator.
//!
//! ```sh
//! cargo run -p hardbound-report --bin hbrun -- program.cb \
//!     [--mode baseline|malloc-only|hardbound|softbound|objtable] \
//!     [--encoding extern-4|intern-4|intern-11] [--stats] [--metrics] \
//!     [--disasm] [--profile]
//! ```
//!
//! Inputs ending in `.s` are treated as assembly listings in the
//! disassembler's grammar (`isa::parse_program`) and run directly —
//! `hbrun --disasm prog.cb > prog.s && hbrun prog.s` round-trips the code
//! image. **Several inputs link**: `hbrun main.s lib.s` merges the
//! listings with `isa::merge_programs` (function renumbering, named
//! stub resolution, duplicate folding, data/globals union), and several
//! `.cb` files concatenate into one translation unit before compilation.
//! Mixing the two kinds is an error. Everything else is compiled as Cb
//! with the runtime library (`malloc`, strings, fixed point) linked in;
//! the machine configuration is paired to the mode exactly as in the
//! paper's evaluation.
//!
//! `--disasm` prints the (merged) listing and nothing else instead of
//! running. Execution goes through the corpus service — the interpreter
//! behind the process-wide result store (or the `HB_SERVE_ADDR` server;
//! both are byte-identical to a bare `Machine::run`, see
//! `tests/service_differential.rs`). With `--stats`, service runs also
//! report result-store counters; `--metrics` dumps the full process-global
//! metrics registry (the same cells, Prometheus text form) to stderr after
//! the run.
//!
//! `--profile` runs the program on a bare machine with its per-basic-block
//! hot-spot profiler armed — never from the result store, which would
//! leave nothing to attribute — and, after the run, prints the ranked-PC
//! table and the folded-stack (flamegraph collapse) text to stderr. On
//! any trap, `hbrun` re-runs the program on a forensics interpreter and
//! prints the structured violation report — faulting PC with a
//! disassembled window, out-of-bounds distance, originating `setbound`
//! site, page metadata summary, and the `HB_FLIGHT=N` flight-recorder
//! tail when armed.
//!
//! The `HB_*` settings are read before anything runs; a value outside its
//! variable's grammar is a usage error (exit 2).

use std::process::ExitCode;

use hardbound_compiler::Mode;
use hardbound_core::{checked_ratio, PointerEncoding};
use hardbound_exec::run_machine;
use hardbound_isa::Program;
use hardbound_runtime::{
    build_machine_with_config, compile, machine_config, metrics_snapshot, run_job, service_stats,
    store_log_stats,
};

struct Args {
    paths: Vec<String>,
    mode: Mode,
    encoding: PointerEncoding,
    stats: bool,
    metrics: bool,
    disasm: bool,
    profile: bool,
}

const USAGE: &str = "usage: hbrun FILE.{cb,s} [FILE.{cb,s} ...] [--mode M] [--encoding E] \
                     [--stats] [--metrics] [--disasm] [--profile]";

fn parse_args() -> Result<Args, String> {
    let mut paths = Vec::new();
    let mut mode = Mode::HardBound;
    let mut encoding = PointerEncoding::Intern4;
    let mut stats = false;
    let mut metrics = false;
    let mut disasm = false;
    let mut profile = false;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--mode" => {
                let v = it.next().ok_or("--mode needs a value")?;
                mode = match v.as_str() {
                    "baseline" => Mode::Baseline,
                    "malloc-only" => Mode::MallocOnly,
                    "hardbound" => Mode::HardBound,
                    "softbound" => Mode::SoftBound,
                    "objtable" => Mode::ObjectTable,
                    other => return Err(format!("unknown mode `{other}`")),
                };
            }
            "--encoding" => {
                let v = it.next().ok_or("--encoding needs a value")?;
                encoding = match v.as_str() {
                    "extern-4" => PointerEncoding::Extern4,
                    "intern-4" => PointerEncoding::Intern4,
                    "intern-11" => PointerEncoding::Intern11,
                    other => return Err(format!("unknown encoding `{other}`")),
                };
            }
            "--stats" => stats = true,
            "--metrics" => metrics = true,
            "--disasm" => disasm = true,
            "--profile" => profile = true,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other if !other.starts_with('-') => paths.push(other.to_owned()),
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    if paths.is_empty() {
        return Err("no input file (try --help)".to_owned());
    }
    Ok(Args {
        paths,
        mode,
        encoding,
        stats,
        metrics,
        disasm,
        profile,
    })
}

fn is_listing(path: &str) -> bool {
    std::path::Path::new(path)
        .extension()
        .is_some_and(|e| e == "s")
}

/// Loads the program image. All-`.s` inputs parse individually and link
/// with the listing merger; all-`.cb` inputs concatenate into one
/// translation unit compiled with the runtime linked in.
fn load(args: &Args, sources: &[(String, String)]) -> Result<Program, String> {
    let listings = sources.iter().filter(|(p, _)| is_listing(p)).count();
    if listings != 0 && listings != sources.len() {
        return Err("cannot mix .s listings and Cb sources in one run".to_owned());
    }
    if listings != 0 {
        let parts = sources
            .iter()
            .map(|(path, text)| {
                hardbound_isa::parse_program(text).map_err(|e| format!("{path}: {e}"))
            })
            .collect::<Result<Vec<Program>, String>>()?;
        let program = hardbound_isa::merge_programs(parts).map_err(|e| e.to_string())?;
        program
            .validate()
            .map_err(|e| format!("invalid linked listing: {e}"))?;
        Ok(program)
    } else {
        let combined = sources
            .iter()
            .map(|(_, text)| text.as_str())
            .collect::<Vec<&str>>()
            .join("\n");
        compile(&combined, args.mode).map_err(|e| e.to_string())
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = hardbound_runtime::settings::load() {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    let mut sources = Vec::new();
    for path in &args.paths {
        match std::fs::read_to_string(path) {
            Ok(s) => sources.push((path.clone(), s)),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let program = match load(&args, &sources) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(1);
        }
    };
    if args.disasm {
        // Print the listing and stop: stdout then carries only the `.s`
        // grammar, so `hbrun --disasm prog.cb > prog.s && hbrun prog.s`
        // round-trips.
        print!("{}", program.disassemble());
        return ExitCode::SUCCESS;
    }

    let config = machine_config(args.mode, args.encoding);
    // Two execution paths, observationally identical: the corpus service
    // (the interpreter behind the result store) by default, and a bare
    // profiled machine under `--profile` (a store hit would execute
    // nothing to attribute).
    let through_service = !args.profile;
    // `--stats` reports *this run's* registry activity: snapshot the
    // process-global cells before executing and print the delta after, so
    // a long-lived embedder (or a test running two grids back to back)
    // never sees one run's counters polluted by an earlier one.
    let registry_before = args.stats.then(metrics_snapshot);
    // Forensics re-runs on a fresh interpreter machine after a trap; the
    // run paths below consume the image, so keep a copy for that path.
    let forensics = (program.clone(), config.clone());
    let out = if through_service {
        run_job(program, args.mode, config)
    } else {
        let mut machine = build_machine_with_config(program, args.mode, config);
        machine.set_profiling(true);
        run_machine(&mut machine)
    };
    print!("{}", out.output);
    if let Some(trap) = &out.trap {
        eprintln!("trap: {trap}");
        let (program, config) = forensics;
        if let Some(report) = hardbound_runtime::violation_report(program, args.mode, config) {
            eprint!("{report}");
        }
    }
    if args.stats {
        // Per-run registry activity (see the snapshot above the run).
        let registry = metrics_snapshot().delta(
            registry_before
                .as_ref()
                .expect("--stats snapshots the registry before the run"),
        );
        let s = &out.stats;
        eprintln!(
            "-- stats ({} mode, {} encoding, {}) --",
            args.mode,
            args.encoding,
            if through_service {
                "service"
            } else {
                "profiled"
            }
        );
        eprintln!("cycles:          {}", s.cycles());
        eprintln!("µops:            {}", s.uops);
        eprintln!("setbound µops:   {}", s.setbound_uops);
        eprintln!("metadata µops:   {}", s.meta_uops);
        eprintln!("bounds checks:   {}", s.bounds_checks);
        eprintln!("loads/stores:    {}/{}", s.loads, s.stores);
        eprintln!(
            "ptr compression: {}/{} stores ({:.1}%)",
            s.compressed_ptr_stores,
            s.ptr_stores,
            100.0 * s.store_compression_rate()
        );
        eprintln!(
            "pages:           {} data, {} tag, {} base/bound",
            s.data_pages, s.tag_pages, s.shadow_pages
        );
        eprintln!(
            "stalls:          {} data, {} metadata",
            s.hierarchy.data_stall_cycles,
            s.metadata_stall_cycles()
        );
        // Per-class stall intensity. Structures a mode never touches (the
        // tag and shadow planes under baseline, shadow under malloc-only
        // programs with no uncompressed pointers) report 0.0, not NaN —
        // every ratio routes through the checked helper.
        eprintln!(
            "stalls/access:   {:.2} data, {:.2} tag, {:.2} base/bound",
            checked_ratio(s.hierarchy.data_stall_cycles, s.hierarchy.data_accesses),
            checked_ratio(s.hierarchy.tag_stall_cycles, s.hierarchy.tag_accesses),
            checked_ratio(s.hierarchy.shadow_stall_cycles, s.hierarchy.shadow_accesses),
        );
        // Hierarchy lookup-machinery activity, read back from the process
        // registry (`run_machine` records residency-filter counters there
        // after each run; a store hit or a remote run records none).
        let (fast_hits, fast_misses) = (
            registry.counter("hb_hier_fastpath_hits"),
            registry.counter("hb_hier_fastpath_misses"),
        );
        eprintln!(
            "hier fast path:  {} proofs, {} scans ({:.1}% proved)",
            fast_hits,
            fast_misses,
            100.0 * checked_ratio(fast_hits, fast_hits + fast_misses),
        );
        if through_service {
            let round_trips = registry.counter("hb_remote_round_trips");
            if round_trips > 0 {
                // The run was offloaded (`HB_SERVE_ADDR`); the store and
                // cache counters live in the server's process, not here.
                eprintln!(
                    "remote server:   {} round-trips, {} cells shipped",
                    round_trips,
                    registry.counter("hb_remote_cells")
                );
                let (retries, reroutes) = (
                    registry.counter("hb_remote_retries"),
                    registry.counter("hb_remote_reroutes"),
                );
                if retries + reroutes > 0 {
                    eprintln!(
                        "remote failover: {retries} retries, {reroutes} re-routed submissions"
                    );
                }
            } else {
                let svc = service_stats();
                eprintln!(
                    "result store:    {} hits, {} misses, {} stored, {} evicted",
                    svc.store.hits, svc.store.misses, svc.store_len, svc.store.evicted
                );
                if let Some(log) = store_log_stats() {
                    eprintln!(
                        "store log:       {} loaded, {} appended, {} flushes, {} compactions{}{}{}",
                        log.loaded,
                        log.appended,
                        log.flushes,
                        log.compactions,
                        if log.read_only > 0 {
                            " [READ-ONLY: another process holds the lock]"
                        } else {
                            ""
                        },
                        if log.cold_start > 0 {
                            " [cold start: version/format mismatch]"
                        } else {
                            ""
                        },
                        if log.dropped_bytes > 0 {
                            " [corrupt tail truncated]"
                        } else {
                            ""
                        },
                    );
                }
            }
        }
    }
    if args.metrics {
        // The full registry exposition — the same cells `--stats` (and a
        // server's `METRICS` request) read, in Prometheus text form.
        eprint!("{}", metrics_snapshot().render());
    }
    if args.profile {
        // `run_machine` flushed the per-block counters into the
        // process-wide accumulator at the end of the run; both renders read the same
        // snapshot so the table and the folded stacks agree exactly.
        let p = hardbound_telemetry::profile::global().snapshot();
        eprintln!("-- hot-spot profile (ranked blocks) --");
        eprint!("{}", p.render_table(20));
        eprintln!("-- folded stacks (flamegraph collapse) --");
        eprint!("{}", p.render_folded());
    }
    // The HB_TRACE sink is a static BufWriter with no exit destructor;
    // flush here so profiled runs keep their spans too.
    hardbound_telemetry::trace::flush();
    match out.trap {
        Some(_) => ExitCode::from(3),
        None => ExitCode::from(out.exit_code.unwrap_or(0).clamp(0, 255) as u8),
    }
}
