//! `figure-replay`: the paper's figure grid — the distinct cell specs of
//! Figs. 5–7, the check-µop ablation and the tag-cache sweep — over the
//! nine ports × seed-derived smoke-size variants. Set-up simulates the
//! grid once into a persistent service; each pass replays it four ways:
//! warm in memory, after reopening the log, through a loopback `hbserve`
//! server, and after invalidating one variant's programs (only those
//! cells re-simulate and append to the log). Simulation is bypassed
//! except on that last path; fingerprints, the result store, the store
//! log, the wire codec and TCP carry the work.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

use hardbound_compiler::Mode;
use hardbound_core::{HardboundConfig, MachineConfig, PointerEncoding, RunOutcome};
use hardbound_exec::service::Job;
use hardbound_exec::ProgramId;
use hardbound_runtime::{
    build_machine_with_config, compile_uncached, machine_config, meta_path_default,
    run_jobs_remote_to, SimJob,
};
use hardbound_serve::net::{Builder, TagCheck};
use hardbound_serve::{Client, PersistentService, Server};
use hardbound_workloads::sources;

use crate::meter::Meter;
use crate::olden::reseed;
use crate::runner::{Checks, Workload};
use crate::spans::Tracer;
use crate::util::{Metric, Rng};

/// Seed-derived variants per port; 9 ports × 7 variants × 13 specs
/// gives a grid of 819 cells.
const VARIANTS: usize = 7;

/// The compiler modes the grid's specs use.
const GRID_MODES: [Mode; 4] = [
    Mode::Baseline,
    Mode::HardBound,
    Mode::ObjectTable,
    Mode::SoftBound,
];

/// The distinct `(mode, configuration)` cell specs of the paper's
/// figures and ablations, in first-use order.
fn figure_specs() -> Vec<(Mode, MachineConfig)> {
    let mut specs = vec![
        (
            Mode::Baseline,
            machine_config(Mode::Baseline, PointerEncoding::Intern4),
        ),
        (
            Mode::ObjectTable,
            machine_config(Mode::ObjectTable, PointerEncoding::Intern4),
        ),
        (
            Mode::SoftBound,
            machine_config(Mode::SoftBound, PointerEncoding::Intern4),
        ),
    ];
    for encoding in PointerEncoding::ALL {
        specs.push((Mode::HardBound, machine_config(Mode::HardBound, encoding)));
        specs.push((
            Mode::HardBound,
            MachineConfig::hardbound(HardboundConfig::full(encoding).with_check_uop())
                .with_meta_path(meta_path_default()),
        ));
    }
    for bytes in [1024, 2 * 1024, 4 * 1024, 8 * 1024, 16 * 1024] {
        let cfg = machine_config(Mode::HardBound, PointerEncoding::Intern4);
        let cfg = cfg
            .clone()
            .with_hierarchy(cfg.hierarchy.with_tag_cache_bytes(bytes));
        specs.push((Mode::HardBound, cfg));
    }
    let mut distinct: Vec<(Mode, MachineConfig)> = Vec::new();
    for s in specs {
        if !distinct.contains(&s) {
            distinct.push(s);
        }
    }
    distinct
}

/// One smoke-size variant of each port. The size parameters are jittered
/// by the seed, the randomized ports get a seed-derived `rand_seed`, and a
/// tag function makes every variant a distinct program image.
fn variant_sources(rng: &mut Rng, v: usize) -> Vec<(&'static str, String)> {
    let mut j = |span: u64| rng.below(span) as u32;
    let ports: [(&str, String); 9] = [
        ("bh", sources::bh(24 + j(9), 1)),
        ("bisort", sources::bisort(63 + j(33))),
        ("em3d", sources::em3d(24 + j(9), 3, 2)),
        ("health", sources::health(3, 8 + j(5))),
        ("mst", sources::mst(24 + j(9))),
        ("perimeter", sources::perimeter(4)),
        ("power", sources::power(2, 2, 2, 2)),
        ("treeadd", sources::treeadd(6, 2 + j(3))),
        ("tsp", sources::tsp(24 + j(9))),
    ];
    ports
        .into_iter()
        .enumerate()
        .map(|(p, (name, mut src))| {
            reseed(&mut src, rng);
            src.push_str(&format!(
                "\nint bench_variant_tag() {{ return {}; }}\n",
                p * 100 + v
            ));
            (name, src)
        })
        .collect()
}

fn mode_of(tag: u64) -> Option<Mode> {
    Mode::ALL.into_iter().find(|&m| m as u64 == tag)
}

fn build(
    program: hardbound_isa::Program,
    config: MachineConfig,
    mode: &Mode,
) -> hardbound_core::Machine {
    build_machine_with_config(program, *mode, config)
}

/// An in-process `hbserve` server on an ephemeral loopback port, served
/// from one thread; stopped with a `SHUTDOWN` request and joined.
pub struct Loopback {
    addr: String,
    handle: Option<JoinHandle<io::Result<()>>>,
}

impl Loopback {
    pub fn start(svc: PersistentService) -> io::Result<Loopback> {
        let build: Arc<Builder> = Arc::new(|program, config, tag| {
            let mode = mode_of(tag).expect("tags are validated before any build");
            build_machine_with_config(program, mode, config)
        });
        let tag_ok: Arc<TagCheck> = Arc::new(|tag| mode_of(tag).is_some());
        let server = Server::bind("127.0.0.1:0", svc, build, tag_ok)?;
        let addr = server.local_addr()?.to_string();
        let handle = std::thread::spawn(move || server.run());
        Ok(Loopback {
            addr,
            handle: Some(handle),
        })
    }

    pub fn addr(&self) -> String {
        self.addr.clone()
    }

    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            if let Ok(mut c) = Client::connect(&self.addr) {
                let _ = c.shutdown();
            }
            let _ = handle.join();
        }
    }
}

impl Drop for Loopback {
    fn drop(&mut self) {
        self.shutdown();
    }
}

pub struct State {
    jobs: Vec<Job<Mode>>,
    sim_jobs: Vec<SimJob>,
    reference: Vec<RunOutcome>,
    /// Distinct program ids of each variant's cells, and the cell count.
    variant_pids: Vec<(Vec<ProgramId>, usize)>,
    census: Vec<(String, String)>,
    grid_log: PathBuf,
    svc: PersistentService,
    edit_svc: PersistentService,
    server: Loopback,
    grid_uops: u64,
    /// Passes so far. The rerun-after-edit path invalidates variant
    /// `passes % VARIANTS`: rotating keeps the path's median over the
    /// passes from hanging on the size of one seed-drawn variant.
    passes: usize,
    last_counts: (f64, f64),
    path_ms: [Vec<f64>; 4],
}

pub struct FigureReplay;

impl Workload for FigureReplay {
    type State = State;

    fn setup(&self, seed: u64, dir: &Path) -> State {
        let dir = dir.join("replay");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("replay scratch directory");
        let mut rng = Rng::new(seed);
        let specs = figure_specs();
        let mut cells: Vec<(usize, Job<Mode>)> = Vec::new();
        let mut census = Vec::new();
        for v in 0..VARIANTS {
            for (name, src) in variant_sources(&mut rng, v) {
                if v == 0 {
                    census.push((name.to_owned(), src.clone()));
                }
                let programs: Vec<_> = GRID_MODES
                    .iter()
                    .map(|&m| {
                        compile_uncached(&src, m)
                            .unwrap_or_else(|e| panic!("{name} variant {v} under {m}: {e}"))
                    })
                    .collect();
                for (mode, config) in &specs {
                    let mi = GRID_MODES
                        .iter()
                        .position(|m| m == mode)
                        .expect("grid mode");
                    cells.push((
                        v,
                        Job {
                            program: programs[mi].clone(),
                            config: config.clone(),
                            salt: *mode as u64,
                            tag: *mode,
                        },
                    ));
                }
            }
        }
        rng.shuffle(&mut cells);
        let mut variant_pids: Vec<(Vec<ProgramId>, usize)> = vec![(Vec::new(), 0); VARIANTS];
        for (v, job) in &cells {
            let pid = ProgramId::of(&job.program, &job.config);
            let (pids, n) = &mut variant_pids[*v];
            if !pids.contains(&pid) {
                pids.push(pid);
            }
            *n += 1;
        }
        let jobs: Vec<Job<Mode>> = cells.into_iter().map(|(_, j)| j).collect();
        let sim_jobs = jobs
            .iter()
            .map(|j| SimJob {
                program: j.program.clone(),
                mode: j.tag,
                config: j.config.clone(),
            })
            .collect();
        let grid_log = dir.join("grid.log");
        let mut svc = PersistentService::open(1, &grid_log).expect("grid log opens");
        let reference = svc.run_batch(&jobs, build);
        for (j, out) in jobs.iter().zip(&reference) {
            assert!(out.trap.is_none(), "{} cell trapped: {:?}", j.tag, out.trap);
        }
        let grid_uops = reference.iter().map(|o| o.stats.uops).sum();
        let copy = |name: &str| {
            let p = dir.join(name);
            std::fs::copy(&grid_log, &p).expect("log copy");
            p
        };
        let server_log = copy("server.log");
        let edit_log = copy("edit.log");
        let server =
            Loopback::start(PersistentService::open(1, &server_log).expect("server log opens"))
                .expect("loopback server starts");
        let edit_svc = PersistentService::open(1, &edit_log).expect("edit log opens");
        State {
            jobs,
            sim_jobs,
            reference,
            variant_pids,
            census,
            grid_log,
            svc,
            edit_svc,
            server,
            grid_uops,
            passes: 0,
            last_counts: (0.0, 0.0),
            path_ms: Default::default(),
        }
    }

    fn pass(
        &self,
        st: &mut State,
        _rng: &mut Rng,
        tr: &mut Tracer,
        checks: &mut Checks,
        meter: &mut Meter,
    ) -> u64 {
        let n = st.jobs.len();
        let mut hits = 0;
        let mut misses = 0;

        let before = st.svc.stats().service.store;
        let warm = meter.time(0, || {
            tr.span("replay.warm", n as u64, || {
                st.svc.run_batch(&st.jobs, build)
            })
        });
        let after = st.svc.stats().service.store;
        hits += after.hits - before.hits;
        misses += after.misses - before.misses;
        checks.op(
            warm == st.reference && after.misses == before.misses,
            || "warm replay differs or missed".to_owned(),
        );

        tr.enter("replay.restart");
        let restart = meter.time(1, || {
            let reopened = tr.span("serve.log_open", 1, || {
                PersistentService::open(1, &st.grid_log)
            });
            reopened.map(|mut svc| {
                let outs = tr.span("exec.service_replay", n as u64, || {
                    svc.run_batch(&st.jobs, build)
                });
                (outs, svc.stats())
            })
        });
        tr.exit(n as u64);
        match restart {
            Ok((outs, stats)) => {
                hits += stats.service.store.hits;
                misses += stats.service.store.misses;
                let loaded = stats.log.map_or(0, |l| l.loaded) as usize;
                checks.op(
                    outs == st.reference && stats.service.store.misses == 0 && loaded >= n,
                    || format!("restart replay differs ({loaded} records loaded)"),
                );
            }
            Err(e) => checks.op(false, || format!("reopening the grid log: {e}")),
        }

        let addrs = [st.server.addr()];
        let remote = meter.time(2, || {
            tr.span("replay.remote", n as u64, || {
                run_jobs_remote_to(&addrs, &st.sim_jobs)
            })
        });
        checks.op(remote == st.reference, || {
            "remote replay differs".to_owned()
        });

        let v = st.passes % VARIANTS;
        st.passes += 1;
        let (pids, edited) = &st.variant_pids[v];
        let before = st.edit_svc.stats().service.store;
        tr.enter("replay.rerun_edit");
        let rerun = meter.time(3, || {
            for &pid in pids {
                st.edit_svc.invalidate_program(pid);
            }
            tr.span("exec.service_replay", n as u64, || {
                st.edit_svc.run_batch(&st.jobs, build)
            })
        });
        tr.exit(n as u64);
        let after = st.edit_svc.stats().service.store;
        hits += after.hits - before.hits;
        misses += after.misses - before.misses;
        checks.op(
            rerun == st.reference && (after.misses - before.misses) as usize == *edited,
            || format!("rerun after editing variant {v} differs or missed the wrong cells"),
        );

        st.last_counts = (hits as f64, misses as f64);
        for (ms, ns) in st.path_ms.iter_mut().zip(&meter.cal) {
            ms.push(ns / 1e6);
        }
        4 * st.grid_uops
    }

    fn census_sources(&self, st: &State) -> Vec<(String, String)> {
        st.census.clone()
    }

    fn store_counts(&self, st: &State) -> (f64, f64) {
        st.last_counts
    }

    fn detail(&self, st: &State) -> Vec<Metric> {
        let names = [
            "replay_warm_ms",
            "replay_restart_ms",
            "replay_remote_ms",
            "rerun_edit_ms",
        ];
        let mut out: Vec<Metric> = names
            .iter()
            .zip(&st.path_ms)
            .map(|(name, ms)| Metric::new(*name, crate::util::median(ms), "ms"))
            .collect();
        out.push(Metric::new("grid_cells", st.jobs.len() as f64, "count"));
        out
    }
}
