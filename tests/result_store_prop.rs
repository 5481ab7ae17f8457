//! Property suite for the corpus service's program-hash result store.
//!
//! Two invariants carry the whole design:
//!
//! 1. **Replay ≡ recompute.** For any generated program and any
//!    mode/encoding perturbation, a warm [`CorpusService`]
//!    answering from its result store returns the byte-identical
//!    [`RunOutcome`] — full `ExecStats` and `HierarchyStats` included —
//!    that a cold service (and a direct `Machine::run`) computes.
//! 2. **Invalidation is exact.** Mutating one program invalidates exactly
//!    its keys: after `invalidate_program`, that image's cells re-execute
//!    while every other program's cells still replay, and the store drops
//!    precisely the invalidated program's entries.

use hardbound::compiler::Mode;
use hardbound::core::{Machine, MachineConfig, PointerEncoding, RunOutcome};
use hardbound::exec::service::Job;
use hardbound::exec::{CorpusService, ProgramId};
use hardbound::isa::{layout, FunctionBuilder, Program, Reg, Width};
use hardbound::runtime::machine_config;
use proptest::prelude::*;

/// One generated op over a small bounded working region: pointer spills,
/// tag-clearing integer/byte stores, loads.
#[derive(Clone, Copy, Debug)]
enum MOp {
    StoreInt(u32, u32),
    StorePtr { slot: u32, target: u32, size: u32 },
    StoreByte(u32, u8),
    LoadWord(u32),
}

const REGION_WORDS: u32 = 2 * 1024 + 1;
const REGION_BYTES: u32 = REGION_WORDS * 4;

fn op() -> impl Strategy<Value = MOp> {
    prop_oneof![
        (0u32..REGION_WORDS, any::<u32>()).prop_map(|(s, v)| MOp::StoreInt(s, v)),
        (
            0u32..REGION_WORDS,
            0u32..REGION_WORDS,
            prop_oneof![4u32..64, 4000u32..6000],
        )
            .prop_map(|(slot, target, size)| MOp::StorePtr { slot, target, size }),
        (0u32..REGION_WORDS, any::<u8>()).prop_map(|(s, v)| MOp::StoreByte(s, v)),
        (0u32..REGION_WORDS).prop_map(MOp::LoadWord),
    ]
}

fn build_program(ops: &[MOp]) -> Program {
    let mut f = FunctionBuilder::new("generated", 0);
    f.li(Reg::A0, layout::HEAP_BASE);
    f.setbound_imm(Reg::A0, Reg::A0, REGION_BYTES as i32);
    for &o in ops {
        match o {
            MOp::StoreInt(slot, v) => {
                f.li(Reg::A1, v);
                f.store(Width::Word, Reg::A1, Reg::A0, (slot * 4) as i32);
            }
            MOp::StorePtr { slot, target, size } => {
                f.li(Reg::A1, layout::HEAP_BASE + target * 4);
                f.setbound_imm(Reg::A1, Reg::A1, size as i32);
                f.store(Width::Word, Reg::A1, Reg::A0, (slot * 4) as i32);
            }
            MOp::StoreByte(slot, v) => {
                f.li(Reg::A1, u32::from(v));
                f.store(Width::Byte, Reg::A1, Reg::A0, (slot * 4) as i32);
            }
            MOp::LoadWord(slot) => {
                f.load(Width::Word, Reg::A2, Reg::A0, (slot * 4) as i32);
            }
        }
    }
    f.li(Reg::A0, 0);
    f.halt();
    Program::with_entry(vec![f.finish()])
}

/// The perturbation axes of one cell: every knob that participates in the
/// result-store key.
fn config_axis() -> impl Strategy<Value = (Mode, PointerEncoding)> {
    (
        prop_oneof![
            Just(Mode::Baseline),
            Just(Mode::MallocOnly),
            Just(Mode::HardBound),
        ],
        prop_oneof![
            Just(PointerEncoding::Extern4),
            Just(PointerEncoding::Intern4),
            Just(PointerEncoding::Intern11),
        ],
    )
}

fn cell(program: &Program, mode: Mode, encoding: PointerEncoding) -> Job<Mode> {
    Job {
        program: program.clone(),
        config: machine_config(mode, encoding),
        salt: mode as u64,
        tag: mode,
    }
}

fn build(program: Program, cfg: MachineConfig, _mode: &Mode) -> Machine {
    // Generated programs are raw ISA images (no object table modes in the
    // axis), so construction is plain.
    Machine::new(program, cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariant 1: a warm service replay is byte-identical to a cold
    /// recompute — and to a direct `Machine::run` — across perturbations.
    #[test]
    fn warm_replay_is_byte_identical_to_cold_recompute(
        ops in prop::collection::vec(op(), 1..40),
        axes in prop::collection::vec(config_axis(), 1..6),
    ) {
        let program = build_program(&ops);
        let jobs: Vec<Job<Mode>> = axes
            .iter()
            .map(|&(mode, encoding)| cell(&program, mode, encoding))
            .collect();

        let mut svc = CorpusService::new(2);
        let cold = svc.run_batch(&jobs, build);
        let warm = svc.run_batch(&jobs, build);
        prop_assert_eq!(&cold, &warm, "replay differs from recompute");
        let stats = svc.stats();
        prop_assert!(
            stats.store.hits >= jobs.len() as u64,
            "warm pass must be served by the store: {:?}", stats
        );

        // Cold recompute on a fresh service (an empty store executes
        // every cell of its first batch), and a direct run: all
        // byte-identical.
        let recompute = CorpusService::new(1).run_batch(&jobs, build);
        prop_assert_eq!(&cold, &recompute, "replay and recompute differ");
        for (job, out) in jobs.iter().zip(&cold) {
            let direct: RunOutcome = Machine::new(job.program.clone(), job.config.clone()).run();
            prop_assert_eq!(out, &direct, "service differs from a direct run");
        }
    }

    /// Invariant 2: mutating one program invalidates exactly its keys.
    #[test]
    fn mutation_invalidates_exactly_the_mutated_programs_keys(
        ops_a in prop::collection::vec(op(), 1..30),
        ops_b in prop::collection::vec(op(), 1..30),
        axes in prop::collection::vec(config_axis(), 1..4),
    ) {
        let a = build_program(&ops_a);
        // Ensure b is a distinct image even if the generators coincide.
        let mut ops_b = ops_b;
        ops_b.push(MOp::StoreInt(0, 0xb));
        let b = build_program(&ops_b);

        let jobs: Vec<Job<Mode>> = axes
            .iter()
            .flat_map(|&(mode, encoding)| [cell(&a, mode, encoding), cell(&b, mode, encoding)])
            .collect();
        let mut svc = CorpusService::new(2);
        let first = svc.run_batch(&jobs, build);
        let stored = svc.store().len();
        let a_keys: std::collections::HashSet<_> = jobs
            .iter()
            .filter(|j| j.program == a)
            .map(Job::key)
            .collect();

        // "Mutate" a: drop its cells, as a re-compiled image's new
        // ProgramIds would leave them stranded. One image owns one
        // ProgramId per HardBound extension configuration, so a full
        // mutation invalidates each of them.
        prop_assert_eq!(ProgramId::of(&a, &jobs[0].config), jobs[0].key().0);
        let pids: std::collections::HashSet<ProgramId> =
            a_keys.iter().map(|&(pid, _)| pid).collect();
        let mut dropped = 0;
        for &pid in &pids {
            dropped += svc.invalidate_program(pid);
        }
        prop_assert_eq!(
            dropped, a_keys.len(),
            "exactly a's stored cells die (one per distinct key)"
        );
        prop_assert_eq!(svc.store().len(), stored - dropped, "b's cells survive");

        let before = svc.stats().store;
        let second = svc.run_batch(&jobs, build);
        prop_assert_eq!(&first, &second, "re-run after invalidation changes nothing");
        let after = svc.stats().store;
        prop_assert_eq!(
            after.misses - before.misses,
            a_keys.len() as u64,
            "only a's distinct cells re-execute"
        );
    }
}
