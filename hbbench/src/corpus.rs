//! `violation-corpus`: the 576 programs of the §5.2 corpus (288
//! violation/benign pairs) in seed-shuffled order, each compiled cold and
//! run under HardBound (intern-4) on a fresh engine; every trap also
//! builds its violation report. With about 176 µops per program the work
//! is the front end and code generator, machine construction, block
//! decode and forensics — layers the Olden fleet barely touches.

use std::path::Path;

use hardbound_compiler::Mode;
use hardbound_core::{BoundsOrigin, Trap};
use hardbound_exec::Engine;
use hardbound_isa::{Inst, Program};
use hardbound_runtime::{build_machine, compile_uncached, machine_config, violation_report};
use hardbound_violations::{corpus, is_detection, TestCase};

use crate::meter::Meter;
use crate::olden::ENCODING;
use crate::runner::{Checks, Workload};
use crate::spans::Tracer;
use crate::util::{Metric, Rng};

const MODE: Mode = Mode::HardBound;

pub struct State {
    cases: Vec<TestCase>,
    /// `(case index, violating twin?)` in seed-shuffled order.
    order: Vec<(usize, bool)>,
    census: Vec<(String, String)>,
    pass_ms: Vec<f64>,
}

pub struct ViolationCorpus;

impl Workload for ViolationCorpus {
    type State = State;

    fn setup(&self, seed: u64, _dir: &Path) -> State {
        let cases = corpus();
        let mut rng = Rng::new(seed);
        let mut order: Vec<(usize, bool)> = (0..cases.len())
            .flat_map(|i| [(i, true), (i, false)])
            .collect();
        rng.shuffle(&mut order);
        // The first nine violating programs of the shuffled order feed the
        // layer census.
        let census = order
            .iter()
            .filter(|(_, bad)| *bad)
            .take(9)
            .map(|&(i, _)| (cases[i].id.clone(), cases[i].bad_source.clone()))
            .collect();
        State {
            cases,
            order,
            census,
            pass_ms: Vec::new(),
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
        let config = machine_config(MODE, ENCODING);
        let mut uops = 0;
        for (k, &(i, bad)) in st.order.iter().enumerate() {
            let case = &st.cases[i];
            let src = if bad {
                &case.bad_source
            } else {
                &case.ok_source
            };
            tr.enter("corpus.program");
            let (verdict, ran) = meter
                .time(k, || {
                    let program = tr
                        .span("runtime.compile", 1, || compile_uncached(src, MODE))
                        .map_err(|e| format!("does not compile: {e}"))?;
                    let machine = tr.span("core.machine_new", 1, || {
                        build_machine(program.clone(), MODE, ENCODING)
                    });
                    let out = tr.span("exec.engine_run", 1, || Engine::new(machine).run());
                    let verdict = match (&out.trap, bad) {
                        (Some(trap), true) if is_detection(MODE, trap) => {
                            let report = tr.span("core.forensics", 1, || {
                                violation_report(program.clone(), MODE, config.clone())
                            });
                            blame(&program, trap, report.as_ref().map(|r| r.origin))
                        }
                        (trap, true) => Err(format!("not detected: {trap:?}")),
                        (None, false) => Ok(()),
                        (Some(trap), false) => Err(format!("false positive: {trap}")),
                    };
                    Ok((verdict, out.stats.uops))
                })
                .unwrap_or_else(|e: String| (Err(e), 0));
            tr.exit(ran);
            uops += ran;
            checks.op(verdict.is_ok(), || {
                format!(
                    "{} ({}): {}",
                    case.id,
                    if bad { "bad" } else { "ok" },
                    verdict.unwrap_err()
                )
            });
        }
        st.pass_ms.push(meter.cal.iter().sum::<f64>() / 1e6);
        uops
    }

    fn census_sources(&self, st: &State) -> Vec<(String, String)> {
        st.census.clone()
    }

    fn detail(&self, st: &State) -> Vec<Metric> {
        vec![
            Metric::new("corpus_ms", crate::util::median(&st.pass_ms), "ms"),
            Metric::new("programs", st.order.len() as f64, "count"),
        ]
    }
}

/// A detected violation must carry a report that blames a real
/// `setbound` instruction of the program.
fn blame(program: &Program, trap: &Trap, origin: Option<BoundsOrigin>) -> Result<(), String> {
    match origin {
        Some(BoundsOrigin::Setbound { site, .. }) => {
            match program.func(site.func).insts.get(site.index as usize) {
                Some(Inst::SetBound { .. }) => Ok(()),
                other => Err(format!("blamed site {site} is {other:?}, not a setbound")),
            }
        }
        other => Err(format!("{trap}: report blames {other:?}, not a setbound")),
    }
}
