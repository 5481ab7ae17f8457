//! Criterion wall-clock benchmarks of the simulator infrastructure itself
//! (not a paper artefact): how fast the interpreter runs instrumented vs
//! baseline binaries, and how expensive compilation is.
//!
//! Ends with the result-store warm-vs-cold reports (`HB_SERVICE_GATE`,
//! `HB_PERSIST_GATE`) at `HB_SCALE` (default `Full`) and two overhead
//! reports:
//!
//! Set `HB_TRACE_GATE=<ratio>` to gate the **tracing overhead**: an
//! identical fleet of cold corpus-service batches with the `HB_TRACE`
//! JSONL sink installed must stay within `<ratio>`× of the untraced
//! baseline (CI pins `1.1` — tracing-enabled throughput within 10%), so
//! span emission can never creep into the hot path.
//!
//! Set `HB_PROF_GATE=<ratio>` to gate the **profiling overhead**: an
//! identical fleet of `Machine::run`s with the per-basic-block hot-spot
//! profiler armed must stay within `<ratio>`× of the unprofiled baseline
//! (CI pins `1.1` — profiled throughput within 10%), so retire-counter
//! bookkeeping can never creep into the interpreter loop.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};

use hardbound_compiler::Mode;
use hardbound_core::PointerEncoding;
use hardbound_exec::{run_machine, Job};
use hardbound_isa::Program;
use hardbound_runtime::{build_machine, compile, machine_config, settings};
use hardbound_serve::PersistentService;
use hardbound_workloads::{all, by_name, Scale};

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_treeadd_smoke");
    group.sample_size(20);
    let w = by_name("treeadd", Scale::Smoke).expect("treeadd exists");
    for mode in [Mode::Baseline, Mode::HardBound, Mode::SoftBound] {
        let program = compile(&w.source, mode).expect("compiles");
        group.bench_with_input(BenchmarkId::new("interp", mode), &program, |b, p| {
            b.iter(|| {
                let out = build_machine(p.clone(), mode, PointerEncoding::Intern4).run();
                assert!(out.trap.is_none());
                out.stats.cycles()
            });
        });
    }
    group.finish();
}

fn bench_compilation(c: &mut Criterion) {
    let w = by_name("bh", Scale::Smoke).expect("bh exists");
    c.bench_function("compile_bh_hardbound", |b| {
        b.iter(|| hardbound_runtime::compile(&w.source, Mode::HardBound).expect("compiles"));
    });
}

/// Best-of-N wall times of two closures, sampled interleaved so slow
/// machine phases (frequency scaling, noisy neighbours) hit both sides
/// equally instead of skewing the ratio.
fn compare<R>(
    n: usize,
    mut a: impl FnMut() -> R,
    mut b: impl FnMut() -> R,
) -> (Duration, Duration) {
    let mut best_a = Duration::MAX;
    let mut best_b = Duration::MAX;
    for _ in 0..n {
        let t0 = Instant::now();
        black_box(a());
        best_a = best_a.min(t0.elapsed());
        let t0 = Instant::now();
        black_box(b());
        best_b = best_b.min(t0.elapsed());
    }
    (best_a, best_b)
}

/// The corpus-service warm-vs-cold comparison (and optional CI gate): the
/// full figure-style grid — every workload × (baseline + HardBound per
/// encoding) — runs twice on one fresh [`PersistentService`]. The cold pass
/// simulates every cell; the warm pass must replay each one from the
/// program-hash result store, byte-identically and (gated via
/// `HB_SERVICE_GATE=<ratio>`, CI pins `2`) at least `<ratio>`× faster.
fn service_warm_cold_report() {
    let gate = settings().service_gate;
    let scale = settings().scale;
    let workloads = all(scale);
    let mut specs = vec![(Mode::Baseline, PointerEncoding::Intern4)];
    for encoding in PointerEncoding::ALL {
        specs.push((Mode::HardBound, encoding));
    }
    let jobs: Vec<Job<Mode>> = workloads
        .iter()
        .flat_map(|w| {
            specs.iter().map(|&(mode, encoding)| Job {
                program: compile(&w.source, mode).expect("compiles"),
                config: machine_config(mode, encoding),
                salt: mode as u64,
                tag: mode,
            })
        })
        .collect();
    let build = |program, config, &mode: &Mode| {
        hardbound_runtime::build_machine_with_config(program, mode, config)
    };

    let mut svc = PersistentService::new(settings().workers());
    let t0 = Instant::now();
    let cold_outs = svc.run_batch(&jobs, build);
    let cold = t0.elapsed();
    let after_cold = svc.stats().service;
    let t1 = Instant::now();
    let warm_outs = svc.run_batch(&jobs, build);
    let warm = t1.elapsed().max(Duration::from_nanos(1));
    let after_warm = svc.stats().service;

    assert_eq!(cold_outs, warm_outs, "warm replay must be byte-identical");
    let replayed = after_warm.store.hits - after_cold.store.hits;
    assert!(
        replayed >= jobs.len() as u64,
        "warm re-run must replay every cell from the result store \
         ({replayed} hits for {} cells)",
        jobs.len()
    );
    let speedup = cold.as_secs_f64() / warm.as_secs_f64();
    println!(
        "\ncorpus service warm vs cold ({scale:?} inputs, {} cells):",
        jobs.len()
    );
    println!(
        "  {:<24} cold {cold:>10.2?}  warm {warm:>10.2?}  speedup {speedup:>5.2}x",
        "figure grid"
    );
    println!(
        "  store: {} executed cold, {replayed} replayed warm",
        after_cold.store.misses
    );
    if let Some(required) = gate {
        assert!(
            speedup >= required,
            "service gate: warm corpus re-run speedup {speedup:.2}x \
             below the required {required:.2}x"
        );
        println!("  gate: {speedup:.2}x >= {required:.2}x — ok");
    }
}

/// The persistent-store warm-start comparison (and optional CI gate): a
/// figure-style grid runs cold on a [`PersistentService`] backed by a
/// fresh store file; the service is then **dropped and reopened from
/// disk** — every byte of warm state crosses the serialization boundary,
/// the same boundary a process restart crosses — and the grid re-runs.
/// The warm pass must replay every distinct cell from the persisted
/// store (zero re-simulated cells), byte-identically, and (gated via
/// `HB_PERSIST_GATE=<ratio>`, CI pins `2`) at least `<ratio>`× faster
/// than the cold pass. Both passes compile every image; the warm pass
/// skips simulation only.
fn persist_warm_report() {
    let gate = settings().persist_gate;
    let scale = settings().scale;
    let workloads = all(scale);
    let mut specs = vec![(Mode::Baseline, PointerEncoding::Intern4)];
    for encoding in PointerEncoding::ALL {
        specs.push((Mode::HardBound, encoding));
    }
    let build = |program, config, &mode: &Mode| {
        hardbound_runtime::build_machine_with_config(program, mode, config)
    };
    let make_jobs = || -> Vec<Job<Mode>> {
        workloads
            .iter()
            .flat_map(|w| {
                specs.iter().map(|&(mode, encoding)| Job {
                    program: compile(&w.source, mode).expect("compiles"),
                    config: machine_config(mode, encoding),
                    salt: mode as u64,
                    tag: mode,
                })
            })
            .collect()
    };

    let path = std::env::temp_dir().join(format!("hb-persist-bench-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let workers = settings().workers();

    let t0 = Instant::now();
    let mut svc = PersistentService::open(workers, &path).expect("store opens");
    let cold_outs = svc.run_batch(&make_jobs(), build);
    let after_cold = svc.stats();
    drop(svc); // flush; all warm state now lives in the file
    let cold = t0.elapsed();

    let t1 = Instant::now();
    let mut svc = PersistentService::open(workers, &path).expect("store reopens");
    let warm_outs = svc.run_batch(&make_jobs(), build);
    let warm = t1.elapsed().max(Duration::from_nanos(1));
    let after_warm = svc.stats();

    assert_eq!(
        cold_outs, warm_outs,
        "disk warm replay must be byte-identical"
    );
    assert_eq!(
        after_warm.service.store.misses, 0,
        "a warm start must re-simulate zero cells: {after_warm:?}"
    );
    let loaded = after_warm.log.expect("persistent").loaded;
    assert_eq!(
        loaded, after_cold.service.store.misses,
        "every executed cell must round-trip through the log"
    );
    let speedup = cold.as_secs_f64() / warm.as_secs_f64();
    println!(
        "\npersistent store warm start ({scale:?} inputs, {} cells, {} persisted):",
        cold_outs.len(),
        loaded
    );
    println!(
        "  {:<24} cold {cold:>10.2?}  warm {warm:>10.2?}  speedup {speedup:>5.2}x",
        "figure grid (restart)"
    );
    if let Some(required) = gate {
        assert!(
            speedup >= required,
            "persist gate: cross-process warm start speedup {speedup:.2}x \
             below the required {required:.2}x"
        );
        println!("  gate: {speedup:.2}x >= {required:.2}x — ok");
    }
    let _ = std::fs::remove_file(&path);
}

/// The tracing overhead comparison (and optional CI gate): identical
/// fleet runs with the `HB_TRACE` JSONL sink installed vs disabled. Each
/// pass runs the Olden suite as one batch on a fresh one-worker
/// [`PersistentService`], so every cell simulates and the batch stamps its
/// spans — the traced side pays real span emission, not just a
/// disabled-flag check. Gated via `HB_TRACE_GATE=<ratio>`, CI pins `1.1`
/// (traced throughput within 10% of baseline).
fn trace_overhead_report() {
    use hardbound_telemetry::trace;
    let gate = settings().trace_gate;
    let scale = settings().scale;
    let samples = match scale {
        Scale::Smoke => 10,
        Scale::Full => 3,
    };
    let mode = Mode::HardBound;
    let jobs: Vec<Job<Mode>> = all(scale)
        .iter()
        .map(|w| Job {
            program: compile(&w.source, mode).expect("compiles"),
            config: machine_config(mode, PointerEncoding::Intern4),
            salt: mode as u64,
            tag: mode,
        })
        .collect();
    let fleet = || {
        let outs = PersistentService::new(1).run_batch(&jobs, |program, config, &mode| {
            hardbound_runtime::build_machine_with_config(program, mode, config)
        });
        assert!(outs.iter().all(|o| o.trap.is_none()));
    };
    let path = std::env::temp_dir().join(format!("hb-trace-bench-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // `compare` interleaves the two closures, so the sink flips off/on
    // each iteration — exactly the state transition `HB_TRACE` users see.
    let (off, on) = compare(
        samples,
        || {
            trace::disable();
            fleet();
        },
        || {
            trace::install(&path).expect("trace sink installs");
            fleet();
        },
    );
    trace::disable();
    let spans = std::fs::read_to_string(&path).map_or(0, |t| t.lines().count());
    let _ = std::fs::remove_file(&path);
    let ratio = on.as_secs_f64() / off.as_secs_f64();
    println!("\ntracing overhead ({scale:?} fleet, service batches; {spans} spans emitted):");
    println!(
        "  {:<24} off {off:>10.2?}  on {on:>10.2?}  ratio {ratio:>5.2}x",
        "HB_TRACE sink"
    );
    assert!(spans > 0, "the traced passes must emit spans");
    if let Some(allowed) = gate {
        assert!(
            ratio <= allowed,
            "trace gate: traced fleet runs at {ratio:.2}x the untraced baseline, \
             above the allowed {allowed:.2}x"
        );
        println!("  gate: {ratio:.2}x <= {allowed:.2}x — ok");
    }
}

/// The profiling overhead comparison (and optional CI gate): identical
/// fleet runs with the per-basic-block hot-spot profiler armed vs off.
/// Each run builds a fresh machine, so the profiled side pays the full
/// per-block bookkeeping (retire counters, cycle attribution, the
/// end-of-run flush into the process accumulator), not just a disabled
/// `Option` check. Each port's unprofiled and profiled runs are timed back
/// to back, `samples` times, and each side keeps its minimum; the ratio of
/// the summed minima is gated via `HB_PROF_GATE=<ratio>`, CI pins `1.1`
/// (profiled throughput within 10% of baseline). Pairing per port keeps a
/// burst of host noise inside one port's pair instead of one whole side of
/// the fleet. Independent of the gate, the profiled runs must actually
/// populate the accumulator (`profile_differential` pins that profiling
/// leaves outcomes byte-identical).
fn prof_overhead_report() {
    use hardbound_telemetry::profile;
    let gate = settings().prof_gate;
    let scale = settings().scale;
    let samples = match scale {
        Scale::Smoke => 10,
        Scale::Full => 7,
    };
    let programs: Vec<Program> = all(scale)
        .iter()
        .map(|w| compile(&w.source, Mode::HardBound).expect("compiles"))
        .collect();
    let run = |p: &Program, profiled: bool| {
        let mut machine = build_machine(p.clone(), Mode::HardBound, PointerEncoding::Intern4);
        machine.set_profiling(profiled);
        let out = run_machine(&mut machine);
        assert!(out.trap.is_none());
    };
    let _ = profile::global().take();
    let (mut off, mut on) = (Duration::ZERO, Duration::ZERO);
    for p in &programs {
        let (port_off, port_on) = compare(samples, || run(p, false), || run(p, true));
        off += port_off;
        on += port_on;
    }
    let recorded = profile::global().take();
    assert!(
        recorded.total_execs() > 0,
        "the profiled passes must record block retires"
    );
    let ratio = on.as_secs_f64() / off.as_secs_f64();
    println!(
        "\nprofiling overhead ({scale:?} fleet, interpreter, summed per-port minima; {} blocks profiled):",
        recorded.blocks.len()
    );
    println!(
        "  {:<24} off {off:>10.2?}  on {on:>10.2?}  ratio {ratio:>5.2}x",
        "HB_PROF hot-spot profiler"
    );
    if let Some(allowed) = gate {
        assert!(
            ratio <= allowed,
            "prof gate: profiled fleet runs at {ratio:.2}x the unprofiled baseline, \
             above the allowed {allowed:.2}x"
        );
        println!("  gate: {ratio:.2}x <= {allowed:.2}x — ok");
    }
}

criterion_group!(benches, bench_simulation, bench_compilation);

fn main() {
    benches();
    service_warm_cold_report();
    persist_warm_report();
    trace_overhead_report();
    prof_overhead_report();
}
