//! `olden-sim`: the nine Olden ports at full scale under Baseline,
//! HardBound (intern-4) and SoftBound, each cell on a fresh engine,
//! serially on one thread. Nearly all of the time is `Engine::run`:
//! dispatch, metadata propagation, paged memory and the cache hierarchy.
//! Compile, the result store and serving are bypassed.

use std::path::Path;

use hardbound_compiler::Mode;
use hardbound_core::{PointerEncoding, RunOutcome};
use hardbound_exec::Engine;
use hardbound_isa::Program;
use hardbound_runtime::{build_machine, compile_uncached};
use hardbound_workloads::{all, Scale};

use crate::meter::Meter;
use crate::runner::{Checks, Workload};
use crate::spans::Tracer;
use crate::util::{ratio, Metric, Rng};

pub const MODES: [Mode; 3] = [Mode::Baseline, Mode::HardBound, Mode::SoftBound];
pub const ENCODING: PointerEncoding = PointerEncoding::Intern4;

/// Replaces the constant of the port's `rand_seed(K)` call, if it has one,
/// with a value drawn from `rng`.
pub fn reseed(source: &mut String, rng: &mut Rng) {
    let Some(at) = source.find("rand_seed(") else {
        return;
    };
    let digits = at + "rand_seed(".len();
    let end = digits
        + source[digits..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("rand_seed call is closed");
    let k = 1 + rng.below(1 << 30);
    source.replace_range(digits..end, &k.to_string());
}

/// The nine full-scale ports with seed-derived `rand_seed` constants.
fn seeded_sources(seed: u64) -> Vec<(&'static str, String)> {
    let mut rng = Rng::new(seed);
    all(Scale::Full)
        .into_iter()
        .map(|w| {
            let mut src = w.source;
            reseed(&mut src, &mut rng);
            (w.name, src)
        })
        .collect()
}

struct Cell {
    port: &'static str,
    mode: Mode,
    program: Program,
}

pub struct State {
    sources: Vec<(&'static str, String)>,
    cells: Vec<Cell>,
    /// Each cell's outcome from the first pass; later passes must match.
    reference: Vec<Option<RunOutcome>>,
    /// Calibrated host nanoseconds and µops per mode, over every pass.
    per_mode: [(f64, u64); 3],
    /// Simulated cycles per mode of one pass (the deterministic
    /// relative-runtime inputs).
    cycles: [u64; 3],
}

pub struct OldenSim;

impl Workload for OldenSim {
    type State = State;

    fn setup(&self, seed: u64, _dir: &Path) -> State {
        let sources = seeded_sources(seed);
        let mut cells = Vec::new();
        for (port, src) in &sources {
            for mode in MODES {
                let program = compile_uncached(src, mode)
                    .unwrap_or_else(|e| panic!("{port} does not compile under {mode}: {e}"));
                cells.push(Cell {
                    port,
                    mode,
                    program,
                });
            }
        }
        let n = cells.len();
        State {
            sources,
            cells,
            reference: vec![None; n],
            per_mode: [(0.0, 0); 3],
            cycles: [0; 3],
        }
    }

    fn pass(
        &self,
        st: &mut State,
        rng: &mut Rng,
        tr: &mut Tracer,
        checks: &mut Checks,
        meter: &mut Meter,
    ) -> u64 {
        let first = st.reference.iter().any(Option::is_none);
        let mut order: Vec<usize> = (0..st.cells.len()).collect();
        rng.shuffle(&mut order);
        let mut uops = 0;
        for i in order {
            let cell = &st.cells[i];
            let mi = MODES.iter().position(|&m| m == cell.mode).expect("mode");
            tr.enter("olden.cell");
            let out = meter.time(i, || {
                let machine = tr.span("core.machine_new", 1, || {
                    build_machine(cell.program.clone(), cell.mode, ENCODING)
                });
                tr.span("exec.engine_run", 1, || Engine::new(machine).run())
            });
            tr.exit(out.stats.uops);
            st.per_mode[mi].0 += meter.cal[i];
            st.per_mode[mi].1 += out.stats.uops;
            uops += out.stats.uops;
            match &st.reference[i] {
                Some(r) => checks.op(*r == out, || {
                    format!("{} ({}) changed between passes", cell.port, cell.mode)
                }),
                None => {
                    checks.op(out.trap.is_none() && !out.ints.is_empty(), || {
                        format!("{} ({}) trapped: {:?}", cell.port, cell.mode, out.trap)
                    });
                    st.cycles[mi] += out.stats.cycles();
                    st.reference[i] = Some(out);
                }
            }
        }
        if first {
            check_checksums(st, checks);
        }
        uops
    }

    fn census_sources(&self, st: &State) -> Vec<(String, String)> {
        st.sources
            .iter()
            .map(|(p, s)| ((*p).to_owned(), s.clone()))
            .collect()
    }

    fn detail(&self, st: &State) -> Vec<Metric> {
        let mut out = Vec::new();
        let (mut ns, mut n) = (0.0, 0);
        for (mode, &(mns, mu)) in MODES.iter().zip(&st.per_mode) {
            out.push(Metric::new(
                format!("ns_per_uop.{}", mode_key(*mode)),
                ratio(mns, mu as f64),
                "ns",
            ));
            ns += mns;
            n += mu;
        }
        out.push(Metric::new("ns_per_uop", ratio(ns, n as f64), "ns"));
        out.push(Metric::new(
            "hb_rel_runtime",
            ratio(st.cycles[1] as f64, st.cycles[0] as f64),
            "ratio",
        ));
        out
    }
}

/// Each port must print the same checksums in every mode.
fn check_checksums(st: &State, checks: &mut Checks) {
    for (port, _) in &st.sources {
        let outs: Vec<&RunOutcome> = st
            .cells
            .iter()
            .zip(&st.reference)
            .filter(|(c, _)| c.port == *port)
            .filter_map(|(_, r)| r.as_ref())
            .collect();
        checks.op(outs.windows(2).all(|w| w[0].ints == w[1].ints), || {
            format!("{port}: checksums differ between modes")
        });
    }
}

/// The lower-case label a mode's metrics carry.
pub fn mode_key(mode: Mode) -> &'static str {
    match mode {
        Mode::Baseline => "baseline",
        Mode::HardBound => "hardbound",
        Mode::SoftBound => "softbound",
        Mode::MallocOnly => "malloconly",
        Mode::ObjectTable => "objtable",
    }
}
