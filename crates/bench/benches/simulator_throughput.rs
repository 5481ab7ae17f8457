//! Criterion wall-clock benchmarks of the simulator infrastructure itself
//! (not a paper artefact): how fast the two execution paths — the
//! one-µop-per-step interpreter and the pre-decoded basic-block engine —
//! run instrumented vs baseline binaries, and how expensive compilation is.
//!
//! Ends with the engine-vs-interpreter throughput report at `HB_SCALE`
//! (default `Full`):
//!
//! 1. **dispatch-bound** — a call/ALU-heavy microloop where instruction
//!    dispatch dominates; the block engine's home turf,
//! 2. **per-workload** — Olden ports, where the shared memory-hierarchy
//!    simulation (identical on both paths by construction) bounds the gap,
//! 3. **fleet** — the whole Olden suite, serial interpreter vs the
//!    `exec::batch` parallel engine driver: the configuration every figure
//!    pipeline actually runs.
//!
//! Set `HB_ENGINE_GATE=<ratio>` to turn the report into a hard gate: the
//! dispatch-bound speedup must reach `<ratio>` (CI pins `1.8` — the ≥ 2×
//! acceptance threshold minus 10% runner-noise headroom) and the fleet
//! must never fall below 0.9× of the serial interpreter, so an engine-path
//! throughput regression of more than 10% fails the build.
//!
//! Set `HB_META_GATE=<ratio>` to gate the **metadata fast path**: a
//! tag-sparse Olden-style workload must run at least `<ratio>`× faster on
//! the engine with the fast path on (`MetaPath::Summary`) than with it
//! off (`MetaPath::Charge`, every memory op charging tag traffic), so
//! metadata-walk skipping can never silently regress.
//!
//! Set `HB_TRACE_GATE=<ratio>` to gate the **tracing overhead**: an
//! identical engine fleet with the `HB_TRACE` JSONL sink installed must
//! stay within `<ratio>`× of the untraced baseline (CI pins `1.1` —
//! tracing-enabled throughput within 10%), so span emission can never
//! creep into the hot path.
//!
//! Set `HB_PROF_GATE=<ratio>` to gate the **profiling overhead**: an
//! identical engine fleet with the per-superblock hot-spot profiler armed
//! must stay within `<ratio>`× of the unprofiled baseline (CI pins `1.1`
//! — profiled throughput within 10%), so retire-counter bookkeeping can
//! never creep into the dispatch loop.
//!
//! Set `HB_HIER_GATE=<ratio>` to gate the **hierarchy fast path**: an
//! irregular-gather fleet whose hot blocks stay resident must run at
//! least `<ratio>`× faster under `HierPath::Event` (residency-proof
//! filter + branchless way-scan) than under the `HierPath::Walk`
//! reference (CI pins `1.2`), with the telemetry counters proving the
//! residency filter actually answered lookups.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};

use hardbound_bench::scale_from_env;
use hardbound_compiler::Mode;
use hardbound_core::{HierPath, Machine, MachineConfig, MetaPath, PointerEncoding};
use hardbound_exec::{batch, CorpusService, Engine, Job};
use hardbound_isa::{BinOp, CmpOp, FuncId, FunctionBuilder, Program, Reg};
use hardbound_runtime::{build_machine, compile, env_parse, machine_config};
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
        group.bench_with_input(BenchmarkId::new("engine", mode), &program, |b, p| {
            b.iter(|| {
                let machine = build_machine(p.clone(), mode, PointerEncoding::Intern4);
                let out = Engine::new(machine).run();
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

/// A dispatch-bound microloop: leaf calls + straight ALU runs, the shape
/// where per-instruction decode/dispatch dominates simulated time.
fn dispatch_loop(iters: i32) -> Program {
    let mut leaf = FunctionBuilder::new("leaf", 0);
    leaf.addi(Reg::A1, Reg::A1, 3);
    leaf.ret();
    let mut main = FunctionBuilder::new("main", 0);
    main.li(Reg::A0, 0);
    main.li(Reg::A1, 1);
    let head = main.bind_label();
    main.call(FuncId(1));
    main.addi(Reg::A2, Reg::A1, 5);
    main.bin(BinOp::Xor, Reg::A3, Reg::A2, Reg::A1);
    main.bin(BinOp::And, Reg::A4, Reg::A3, Reg::A2);
    main.bin(BinOp::Or, Reg::A5, Reg::A4, Reg::A2);
    main.mov(Reg::A6, Reg::A5);
    main.addi(Reg::A0, Reg::A0, 1);
    let done = main.new_label();
    main.branch(CmpOp::Ge, Reg::A0, iters, done);
    main.jump(head);
    main.bind(done);
    main.li(Reg::A0, 0);
    main.halt();
    Program::with_entry(vec![main.finish(), leaf.finish()])
}

/// A tag-sparse Olden-style workload (em3d-shaped): an irregular gather
/// through an index array, with the working pointers held in bounded
/// registers — so, like em3d's node sweep, every memory access lands on
/// data pages that never hold a pointer. The random access pattern defeats
/// the same-block memos: with the fast path off every access pays the
/// full tag-metadata charge; with it on, the page summaries prove there is
/// nothing to fetch.
fn tag_sparse_gather(n: u32, rounds: i32) -> Program {
    use hardbound_isa::{layout, Width};
    assert!(n.is_power_of_two());
    let mut f = FunctionBuilder::new("gather", 0);
    // A0 = data (bounded), A1 = idx (bounded), A2 = i, A3 = s, A4 = n.
    f.li(Reg::A0, layout::HEAP_BASE);
    f.setbound_imm(Reg::A0, Reg::A0, (n * 4) as i32);
    f.li(Reg::A1, layout::HEAP_BASE + n * 4);
    f.setbound_imm(Reg::A1, Reg::A1, (n * 4) as i32);
    f.li(Reg::A4, n);
    // Init: data[i] = i; idx[i] = lcg(i) & (n - 1).
    f.li(Reg::A2, 0);
    f.li(Reg::temp(3), 7);
    let init = f.bind_label();
    f.bin(BinOp::Shl, Reg::temp(0), Reg::A2, 2);
    f.add(Reg::temp(1), Reg::A0, Reg::temp(0));
    f.store(Width::Word, Reg::A2, Reg::temp(1), 0);
    f.bin(BinOp::Mul, Reg::temp(3), Reg::temp(3), 1_103_515_245);
    f.addi(Reg::temp(3), Reg::temp(3), 12345);
    f.bin(BinOp::And, Reg::temp(2), Reg::temp(3), (n - 1) as i32);
    f.add(Reg::temp(1), Reg::A1, Reg::temp(0));
    f.store(Width::Word, Reg::temp(2), Reg::temp(1), 0);
    f.addi(Reg::A2, Reg::A2, 1);
    f.branch(CmpOp::Lt, Reg::A2, Reg::A4, init);
    // Gather: s += data[idx[i]], `rounds` passes.
    f.li(Reg::A3, 0);
    f.li(Reg::temp(4), rounds as u32);
    let outer = f.bind_label();
    f.li(Reg::A2, 0);
    let inner = f.bind_label();
    f.bin(BinOp::Shl, Reg::temp(0), Reg::A2, 2);
    f.add(Reg::temp(1), Reg::A1, Reg::temp(0));
    f.load(Width::Word, Reg::temp(2), Reg::temp(1), 0); // idx[i]: sequential
    f.bin(BinOp::Shl, Reg::temp(2), Reg::temp(2), 2);
    f.add(Reg::temp(1), Reg::A0, Reg::temp(2));
    f.load(Width::Word, Reg::temp(2), Reg::temp(1), 0); // data[idx[i]]: random
    f.add(Reg::A3, Reg::A3, Reg::temp(2));
    f.addi(Reg::A2, Reg::A2, 1);
    f.branch(CmpOp::Lt, Reg::A2, Reg::A4, inner);
    f.addi(Reg::temp(4), Reg::temp(4), -1);
    f.branch(CmpOp::Gt, Reg::temp(4), 0, outer);
    f.li(Reg::A0, 0);
    f.halt();
    Program::with_entry(vec![f.finish()])
}

/// The metadata-fast-path throughput comparison (and optional CI gate):
/// engine runs of the tag-sparse gather, `MetaPath::Summary` vs
/// `MetaPath::Charge`.
fn meta_fast_path_report() {
    let gate = env_parse::<f64>("HB_META_GATE").unwrap_or_else(|e| panic!("{e}"));
    let program = tag_sparse_gather(32768, 6);
    let run = |meta: MetaPath| {
        let cfg = machine_config(Mode::HardBound, PointerEncoding::Intern4).with_meta_path(meta);
        let out = Engine::new(Machine::new(program.clone(), cfg)).run();
        assert!(out.is_success(), "{:?}", out.trap);
        out.stats.cycles()
    };
    let (charge, fast) = compare(5, || run(MetaPath::Charge), || run(MetaPath::Summary));
    let speedup = charge.as_secs_f64() / fast.as_secs_f64();
    println!("\nmetadata fast path (tag-sparse gather, engine):");
    println!(
        "  {:<24} charge {charge:>10.2?}  summary {fast:>10.2?}  speedup {speedup:>5.2}x",
        "tag-sparse gather"
    );
    if let Some(required) = gate {
        assert!(
            speedup >= required,
            "metadata fast-path gate: tag-sparse speedup {speedup:.2}x \
             below the required {required:.2}x"
        );
        println!("  gate: {speedup:.2}x >= {required:.2}x — ok");
    }
}

/// The hierarchy fast-path comparison (and optional CI gate): engine runs
/// of an irregular-gather fleet, `HierPath::Event` vs `HierPath::Walk`.
/// The gather's hot region (data + index arrays) is sized to the L1 — and
/// to the residency filter's reach — so almost every access resolves by
/// residency proof on the event path while the walk path re-scans its
/// ways every time. The two paths are exact twins (the differential
/// suites pin byte-identical outcomes), so the entire measured gap is
/// lookup machinery. Gated via `HB_HIER_GATE=<ratio>` (CI pins `1.2`);
/// independent of the gate, the run asserts identical outcomes and that
/// the telemetry delta shows the filter both proving and falling back —
/// the win has to come from answered residency probes, not noise.
fn hier_fast_report() {
    let gate = env_parse::<f64>("HB_HIER_GATE").unwrap_or_else(|e| panic!("{e}"));
    let scale = scale_from_env();
    let rounds = match scale {
        Scale::Smoke => 8,
        Scale::Full => 48,
    };
    // 4096 words of data + 4096 of indices = 32 KB hot: exactly the L1
    // capacity and the residency filter's 1024-block reach.
    let program = tag_sparse_gather(4096, rounds);
    let run = |path: HierPath| {
        let mut cfg =
            machine_config(Mode::HardBound, PointerEncoding::Intern4).with_hier_path(path);
        // Associativity-stressed geometry (same capacities as the paper's
        // §5.1 hierarchy, wider sets): the way-walk pays per-way compare
        // work on every hit while the residency proof stays O(1), so this
        // is the shape the event path exists for — and the shape where a
        // fast-path regression shows up first.
        cfg.hierarchy.l1_ways = 16;
        cfg.hierarchy.l2_ways = 16;
        cfg.hierarchy.tag_cache_ways = 16;
        cfg.hierarchy.tlb_ways = 16;
        let out = Engine::new(Machine::new(program.clone(), cfg)).run();
        assert!(out.is_success(), "{:?}", out.trap);
        out
    };
    let before = hardbound_telemetry::global().snapshot();
    let (walk, event) = compare(5, || run(HierPath::Walk), || run(HierPath::Event));
    let after = hardbound_telemetry::global().snapshot();
    assert_eq!(
        run(HierPath::Event),
        run(HierPath::Walk),
        "HierPath::Event and HierPath::Walk must be observationally identical"
    );
    let delta = |name: &str| after.counter(name) - before.counter(name);
    let (proofs, scans) = (
        delta("hb_hier_fastpath_hits"),
        delta("hb_hier_fastpath_misses"),
    );
    assert!(
        proofs > 0 && scans > 0,
        "the gather must drive the residency filter both ways: \
         {proofs} proofs, {scans} scans"
    );
    let speedup = walk.as_secs_f64() / event.as_secs_f64();
    println!("\nhierarchy fast path (irregular gather, engine):");
    println!(
        "  {:<24} walk {walk:>10.2?}  event {event:>10.2?}  speedup {speedup:>5.2}x",
        "irregular gather"
    );
    println!("  residency filter: {proofs} proofs, {scans} scans");
    if let Some(required) = gate {
        assert!(
            speedup >= required,
            "hierarchy fast-path gate: irregular-gather speedup {speedup:.2}x \
             below the required {required:.2}x"
        );
        println!("  gate: {speedup:.2}x >= {required:.2}x — ok");
    }
}

/// The engine-vs-interpreter throughput comparison (and optional CI gate).
fn engine_speedup_report() {
    let scale = scale_from_env();
    let gate = env_parse::<f64>("HB_ENGINE_GATE").unwrap_or_else(|e| panic!("{e}"));
    let samples = match scale {
        Scale::Smoke => 10,
        Scale::Full => 3,
    };
    println!("\nengine vs interpreter throughput ({scale:?} inputs):");

    // 1. Dispatch-bound microloop — the gated engine-vs-interpreter
    //    number (single-machine, so it holds on single-core runners too).
    let p = dispatch_loop(1_000_000);
    let (interp, engine) = compare(
        5,
        || {
            let out = Machine::new(p.clone(), MachineConfig::default()).run();
            assert!(out.is_success());
        },
        || {
            let out = Engine::new(Machine::new(p.clone(), MachineConfig::default())).run();
            assert!(out.is_success());
        },
    );
    let dispatch_speedup = interp.as_secs_f64() / engine.as_secs_f64();
    println!(
        "  {:<24} interp {interp:>10.2?}  engine {engine:>10.2?}  speedup {dispatch_speedup:>5.2}x",
        "dispatch-bound loop"
    );

    // 2. Individual Olden ports (shared memory-hierarchy simulation
    //    bounds the single-machine gap).
    for (bench, mode) in [("treeadd", Mode::HardBound), ("em3d", Mode::HardBound)] {
        let w = by_name(bench, scale).expect("workload exists");
        let program = compile(&w.source, mode).expect("compiles");
        let (interp, engine) = compare(
            samples,
            || {
                let out = build_machine(program.clone(), mode, PointerEncoding::Intern4).run();
                assert!(out.trap.is_none());
            },
            || {
                let machine = build_machine(program.clone(), mode, PointerEncoding::Intern4);
                let out = Engine::new(machine).run();
                assert!(out.trap.is_none());
            },
        );
        println!(
            "  {:<24} interp {interp:>10.2?}  engine {engine:>10.2?}  speedup {:>5.2}x",
            format!("{bench}/{mode}"),
            interp.as_secs_f64() / engine.as_secs_f64()
        );
    }

    // 3. The fleet: all nine Olden ports under full HardBound — serial
    //    interpreter vs the parallel engine batch driver (what the figure
    //    pipelines run). This is the gated number.
    let programs: Vec<Program> = all(scale)
        .iter()
        .map(|w| compile(&w.source, Mode::HardBound).expect("compiles"))
        .collect();
    let (serial_interp, parallel_engine) = compare(
        3,
        || {
            for p in &programs {
                let out = build_machine(p.clone(), Mode::HardBound, PointerEncoding::Intern4).run();
                assert!(out.trap.is_none());
            }
        },
        || {
            let outs = batch::map(&programs, |_, p| {
                Engine::new(build_machine(
                    p.clone(),
                    Mode::HardBound,
                    PointerEncoding::Intern4,
                ))
                .run()
            });
            assert!(outs.iter().all(|o| o.trap.is_none()));
        },
    );
    let fleet_speedup = serial_interp.as_secs_f64() / parallel_engine.as_secs_f64();
    println!(
        "  {:<24} interp {serial_interp:>10.2?}  engine {parallel_engine:>10.2?}  speedup {fleet_speedup:>5.2}x  ({} workers)",
        "fleet (9 workloads)",
        batch::default_workers()
    );

    if let Some(required) = gate {
        // The dispatch-bound ratio is core-count independent; the fleet
        // ratio scales with workers, so it is gated only against outright
        // regression (engine path more than 10% slower than the serial
        // interpreter would be a bug even on one core).
        assert!(
            dispatch_speedup >= required,
            "engine throughput gate: dispatch-bound speedup {dispatch_speedup:.2}x \
             below the required {required:.2}x"
        );
        assert!(
            fleet_speedup >= 0.9,
            "engine throughput gate: parallel-engine fleet is {fleet_speedup:.2}x \
             of the serial interpreter — a >10% regression of the engine path"
        );
        println!(
            "  gate: dispatch {dispatch_speedup:.2}x >= {required:.2}x, \
             fleet {fleet_speedup:.2}x >= 0.90x — ok"
        );
    }
}

/// The corpus-service warm-vs-cold comparison (and optional CI gate): the
/// full figure-style grid — every workload × (baseline + HardBound per
/// encoding) — runs twice on one fresh [`CorpusService`]. The cold pass
/// simulates every cell; the warm pass must replay each one from the
/// program-hash result store, byte-identically and (gated via
/// `HB_SERVICE_GATE=<ratio>`, CI pins `2`) at least `<ratio>`× faster.
fn service_warm_cold_report() {
    let gate = env_parse::<f64>("HB_SERVICE_GATE").unwrap_or_else(|e| panic!("{e}"));
    let scale = scale_from_env();
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

    let mut svc = CorpusService::new(batch::default_workers());
    let t0 = Instant::now();
    let cold_outs = svc.run_batch(&jobs, build);
    let cold = t0.elapsed();
    let after_cold = svc.stats();
    let t1 = Instant::now();
    let warm_outs = svc.run_batch(&jobs, build);
    let warm = t1.elapsed().max(Duration::from_nanos(1));
    let after_warm = svc.stats();

    assert_eq!(cold_outs, warm_outs, "warm replay must be byte-identical");
    let replayed = after_warm.store.hits - after_cold.store.hits;
    assert!(
        replayed >= jobs.len() as u64,
        "warm re-run must replay every cell from the result store \
         ({replayed} hits for {} cells)",
        jobs.len()
    );
    assert_eq!(
        after_warm.cache.decoded, after_cold.cache.decoded,
        "warm re-run must add no decode work"
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
        "  store: {} executed cold, {replayed} replayed warm; shards decoded {} blocks",
        after_cold.store.misses, after_cold.cache.decoded
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
    use hardbound_serve::PersistentService;
    let gate = env_parse::<f64>("HB_PERSIST_GATE").unwrap_or_else(|e| panic!("{e}"));
    let scale = scale_from_env();
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
    let workers = batch::default_workers();

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
    assert_eq!(
        after_warm.service.cache.decoded, 0,
        "a pure replay decodes nothing"
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
/// engine fleet runs with the `HB_TRACE` JSONL sink installed vs
/// disabled. Each pass builds fresh engines, so every block re-decodes
/// and stamps a decode span — the traced side pays real span emission,
/// not just a disabled-flag check. Gated via `HB_TRACE_GATE=<ratio>`,
/// CI pins `1.1` (traced throughput within 10% of baseline).
fn trace_overhead_report() {
    use hardbound_telemetry::trace;
    let gate = env_parse::<f64>("HB_TRACE_GATE").unwrap_or_else(|e| panic!("{e}"));
    let scale = scale_from_env();
    let samples = match scale {
        Scale::Smoke => 10,
        Scale::Full => 3,
    };
    let programs: Vec<Program> = all(scale)
        .iter()
        .map(|w| compile(&w.source, Mode::HardBound).expect("compiles"))
        .collect();
    let fleet = || {
        for p in &programs {
            let machine = build_machine(p.clone(), Mode::HardBound, PointerEncoding::Intern4);
            let out = Engine::new(machine).run();
            assert!(out.trap.is_none());
        }
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
    println!("\ntracing overhead ({scale:?} fleet, engine; {spans} spans emitted):");
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
/// engine fleet runs with the per-superblock hot-spot profiler armed vs
/// off. Each pass builds fresh engines, so the profiled side pays the
/// full per-block bookkeeping (retire counters, cycle attribution, the
/// end-of-run flush into the process accumulator), not just a disabled
/// `Option` check. Gated via `HB_PROF_GATE=<ratio>`, CI pins `1.1`
/// (profiled throughput within 10% of baseline). Independent of the
/// gate, the profiled passes must actually populate the accumulator and
/// the two sides must produce identical outcomes.
fn prof_overhead_report() {
    use hardbound_telemetry::profile;
    let gate = env_parse::<f64>("HB_PROF_GATE").unwrap_or_else(|e| panic!("{e}"));
    let scale = scale_from_env();
    let samples = match scale {
        Scale::Smoke => 10,
        Scale::Full => 3,
    };
    let programs: Vec<Program> = all(scale)
        .iter()
        .map(|w| compile(&w.source, Mode::HardBound).expect("compiles"))
        .collect();
    let fleet = |profiled: bool| {
        for p in &programs {
            let machine = build_machine(p.clone(), Mode::HardBound, PointerEncoding::Intern4);
            let mut engine = Engine::new(machine);
            engine.set_profiling(profiled);
            let out = engine.run();
            assert!(out.trap.is_none());
        }
    };
    let _ = profile::global().take();
    let (off, on) = compare(samples, || fleet(false), || fleet(true));
    let recorded = profile::global().take();
    assert!(
        recorded.total_execs() > 0,
        "the profiled passes must record block retires"
    );
    let ratio = on.as_secs_f64() / off.as_secs_f64();
    println!(
        "\nprofiling overhead ({scale:?} fleet, engine; {} blocks profiled):",
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
    engine_speedup_report();
    meta_fast_path_report();
    hier_fast_report();
    service_warm_cold_report();
    persist_warm_report();
    trace_overhead_report();
    prof_overhead_report();
}
