//! Profiling differential: arming the hot-spot profiler must be invisible
//! to execution. For every cell of the full protection matrix (5 modes ×
//! 3 pointer encodings) the machine runs the same workload twice — profiler
//! off, profiler on — and the two [`RunOutcome`]s must be **equal**, which
//! is the repo's observational identity (exit code, trap, output, printed
//! ints, and every simulation statistic including cycle counts). The
//! profiled run must also actually populate the process-wide accumulator,
//! and the unprofiled run must leave it untouched.
//!
//! [`RunOutcome`]: hardbound_core::RunOutcome

use hardbound_compiler::Mode;
use hardbound_core::PointerEncoding;
use hardbound_exec::run_machine;
use hardbound_runtime::{build_machine_with_config, compile, machine_config};
use hardbound_telemetry::profile;
use hardbound_workloads::{all, Scale};

#[test]
fn profiling_is_byte_identical_across_the_matrix() {
    let workload = &all(Scale::Smoke)[0];
    for mode in [
        Mode::Baseline,
        Mode::MallocOnly,
        Mode::HardBound,
        Mode::SoftBound,
        Mode::ObjectTable,
    ] {
        let program = compile(&workload.source, mode)
            .unwrap_or_else(|e| panic!("{} ({mode}): compile failed: {e}", workload.name));
        for enc in PointerEncoding::ALL {
            let config = machine_config(mode, enc);
            let mut off = build_machine_with_config(program.clone(), mode, config.clone());
            off.set_profiling(false);
            let _ = profile::global().take();
            let plain = run_machine(&mut off);
            assert_eq!(
                profile::global().snapshot().total_execs(),
                0,
                "{mode}/{enc}: unprofiled run recorded profile data"
            );
            let mut on = build_machine_with_config(program.clone(), mode, config);
            on.set_profiling(true);
            let profiled = run_machine(&mut on);
            assert_eq!(
                plain, profiled,
                "{mode}/{enc}: profiling perturbed the outcome"
            );
            let recorded = profile::global().take();
            assert!(
                recorded.total_execs() > 0,
                "{mode}/{enc}: profiled run recorded nothing"
            );
            assert!(
                recorded.total_cycles() > 0,
                "{mode}/{enc}: profiled run attributed no cycles"
            );
        }
    }
}
