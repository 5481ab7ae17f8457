//! Forensics differential: every detected corpus violation must yield a
//! [`ViolationReport`] whose blame assignment is *correct* — the trap,
//! faulting PC, violated bounds and out-of-bounds distance agree with the
//! trap the machine raised, and the named `setbound` site really is a
//! `setbound` instruction in the program image. The same invariants are
//! checked through `hardbound_runtime::violation_report` (the re-run path
//! `hbrun` and traced remote clients use), which must agree with the
//! report of the machine that actually trapped.

use hardbound_compiler::Mode;
use hardbound_core::{BoundsOrigin, PointerEncoding, Trap, ViolationReport};
use hardbound_isa::Inst;
use hardbound_runtime::{build_machine_with_config, compile, machine_config, violation_report};
use hardbound_violations::corpus;

/// Checks the blame-assignment invariants of one report against the trap
/// that produced it and the program image. Returns a description of the
/// first violated invariant, if any.
fn check_report(
    id: &str,
    report: &ViolationReport,
    trap: &Trap,
    program: &hardbound_isa::Program,
) -> Result<(), String> {
    if report.trap != *trap {
        return Err(format!(
            "{id}: report trap {:?} != run trap {trap:?}",
            report.trap
        ));
    }
    if report.pc != trap.pc() {
        return Err(format!(
            "{id}: report pc {:?} != trap pc {:?}",
            report.pc,
            trap.pc()
        ));
    }
    let Trap::BoundsViolation {
        addr, base, bound, ..
    } = *trap
    else {
        return Ok(());
    };
    if report.addr != Some(addr) {
        return Err(format!("{id}: report addr {:?} != {addr:#x}", report.addr));
    }
    if report.bounds != Some((base, bound)) {
        return Err(format!(
            "{id}: report bounds {:?} != [{base:#x}, {bound:#x})",
            report.bounds
        ));
    }
    if report.oob != Some(ViolationReport::distance(addr, base, bound)) {
        return Err(format!("{id}: wrong oob distance {:?}", report.oob));
    }
    if report.window.is_empty() || !report.window.iter().any(|l| l.is_fault) {
        return Err(format!("{id}: code window missing the faulting line"));
    }
    // The heart of the feature: the provenance table must name a real
    // `setbound` site for software-created bounds.
    match report.origin {
        BoundsOrigin::Setbound { site, .. } => {
            let func = program.func(site.func);
            match func.insts.get(site.index as usize) {
                Some(Inst::SetBound { .. }) => Ok(()),
                other => Err(format!(
                    "{id}: blamed site {site} is {other:?}, not a setbound"
                )),
            }
        }
        BoundsOrigin::Region => Ok(()),
        BoundsOrigin::Unknown => Err(format!("{id}: bounds violation with unknown origin")),
    }
}

/// Runs the full corpus under full HardBound protection and validates the
/// forensics of every detected violation, on both report paths.
#[test]
fn corpus_reports_blame_the_setbound_site() {
    let mode = Mode::HardBound;
    let encoding = PointerEncoding::Intern4;
    let mut bounds_violations = 0usize;
    let mut setbound_origins = 0usize;
    let mut failures = Vec::new();
    for case in corpus() {
        let program = match compile(&case.bad_source, mode) {
            Ok(p) => p,
            Err(e) => {
                failures.push(format!("{}: compile error: {e}", case.id));
                continue;
            }
        };
        let config = machine_config(mode, encoding);
        // Path 1: the machine that actually trapped, flight recorder armed.
        let mut m = build_machine_with_config(program.clone(), mode, config.clone());
        m.enable_flight(16);
        let out = m.run();
        let Some(trap) = out.trap else {
            failures.push(format!("{}: violation not detected", case.id));
            continue;
        };
        let Some(report) = m.violation_report() else {
            failures.push(format!("{}: trapped but no report", case.id));
            continue;
        };
        if let Err(e) = check_report(&case.id, &report, &trap, &program) {
            failures.push(e);
            continue;
        }
        if matches!(trap, Trap::BoundsViolation { .. }) {
            bounds_violations += 1;
            // The armed recorder must have captured the faulting access
            // as its youngest event.
            match report.flight.last() {
                Some(last) if Some(last.addr) == report.addr && Some(last.pc) == report.pc => {}
                other => {
                    failures.push(format!(
                        "{}: flight tail {other:?} misses the fault",
                        case.id
                    ));
                    continue;
                }
            }
        }
        if matches!(report.origin, BoundsOrigin::Setbound { .. }) {
            setbound_origins += 1;
        }
        // Path 2: the runtime re-run wrapper must assign the same blame.
        let Some(rerun) = violation_report(program.clone(), mode, config) else {
            failures.push(format!("{}: runtime re-run produced no report", case.id));
            continue;
        };
        if rerun.trap != report.trap || rerun.pc != report.pc || rerun.origin != report.origin {
            failures.push(format!(
                "{}: re-run report disagrees ({:?} @ {:?} from {:?})",
                case.id, rerun.trap, rerun.pc, rerun.origin
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} forensics failures:\n{}",
        failures.len(),
        failures.join("\n")
    );
    // Full protection detects every case as a bounds violation, and every
    // one of them must be blamed on a concrete setbound site.
    assert_eq!(bounds_violations, corpus().len());
    assert_eq!(setbound_origins, corpus().len());
}
