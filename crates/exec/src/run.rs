//! The one execution path: [`run_machine`] runs a machine on the
//! interpreter and records what the run did in the process registries.

use std::sync::OnceLock;
use std::time::Instant;

use hardbound_core::{Machine, RunOutcome};
use hardbound_telemetry::{profile, BlockKey, BlockStat, Counter, Histogram, Profile};

use crate::ProgramId;

/// Global per-run metric handles, resolved once: the memory hierarchy's
/// fast-path counters and `hb_run_us`, the wall time of each run — the
/// window over which that run's fast-path counters accumulated.
struct RunMetrics {
    fastpath_hits: Counter,
    fastpath_misses: Counter,
    run_us: Histogram,
}

fn run_metrics() -> &'static RunMetrics {
    static M: OnceLock<RunMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let reg = hardbound_telemetry::global();
        RunMetrics {
            fastpath_hits: reg.counter("hb_hier_fastpath_hits"),
            fastpath_misses: reg.counter("hb_hier_fastpath_misses"),
            run_us: reg.histogram("hb_run_us"),
        }
    })
}

/// Runs `machine` with [`Machine::run`] and records the run: its
/// hierarchy fast-path counters (`hb_hier_fastpath_{hits,misses}`), its
/// wall time (`hb_run_us`) and, when the machine's profiler is armed
/// ([`Machine::set_profiling`]), its per-block counters. Those go to the
/// process-wide [`profile::global`] accumulator, keyed by the program's
/// [`ProgramId`] and labelled with function names, so profiles of one
/// image from different runs or processes merge exactly.
pub fn run_machine(machine: &mut Machine) -> RunOutcome {
    let start = Instant::now();
    let before = machine.hier_fast_stats();
    let out = machine.run();
    let after = machine.hier_fast_stats();
    let m = run_metrics();
    m.fastpath_hits
        .add(after.fastpath_hits - before.fastpath_hits);
    m.fastpath_misses
        .add(after.fastpath_misses - before.fastpath_misses);
    m.run_us.record_duration(start.elapsed());
    let blocks = machine.take_block_profile();
    if !blocks.is_empty() {
        let prog = ProgramId::of(machine.program(), machine.config()).0;
        let mut p = Profile::new();
        for b in blocks {
            let key = BlockKey {
                prog,
                func: b.func.0,
                entry: b.entry,
            };
            let stat = BlockStat {
                name: machine.program().func(b.func).name.clone(),
                execs: b.execs,
                cycles: b.cycles,
                taken: b.taken,
            };
            p.record(key, &stat);
        }
        profile::global().add(&p);
    }
    out
}
