//! The HardBound machine — the paper's primary contribution.
//!
//! HardBound (Devietti et al., ASPLOS 2008) is a *hardware bounded pointer*
//! primitive: every register and every word of memory carries an invisible
//! sidecar `{base, bound}` pair. Software initializes bounds with the
//! `setbound` instruction; the hardware then
//!
//! * **propagates** the metadata through pointer arithmetic (`add`/`sub`/
//!   `mov`), loads and stores (paper Figure 3),
//! * **implicitly checks** every dereference against the pointer's bounds,
//!   raising a bounds-check (or non-pointer) exception on failure, and
//! * **compresses** the in-memory metadata: common-case pointers (pointer
//!   equals base, small object) are encoded in a few tag bits, while the
//!   uncommon case falls back to a base/bound shadow space in virtual
//!   memory (§4).
//!
//! This crate implements the complete machine: sidecar register file,
//! propagation and checking rules, the three compressed pointer encodings
//! evaluated in the paper ([`PointerEncoding`]), the tag-metadata/shadow
//! traffic and its cache behaviour, and an execution-statistics module
//! ([`ExecStats`]) that attributes overhead exactly the way the paper's
//! Figure 5 does.
//!
//! ```
//! use hardbound_core::{Machine, MachineConfig, Meta, Trap};
//! use hardbound_isa::{CmpOp, FunctionBuilder, Program, Reg, Width};
//!
//! // The paper's Figure 2, as machine code.
//! let mut f = FunctionBuilder::new("figure2", 0);
//! f.li(Reg::A0, 0x0100_0000);              // set  R1 ← heap address
//! f.setbound_imm(Reg::A1, Reg::A0, 4);     // setbound R2 ← R1, 4
//! f.load(Width::Byte, Reg::A2, Reg::A1, 2); // read base+2: check passes
//! f.load(Width::Byte, Reg::A2, Reg::A1, 5); // read base+5: check fails!
//! f.halt();
//! let program = Program::with_entry(vec![f.finish()]);
//!
//! let mut machine = Machine::new(program, MachineConfig::default());
//! let outcome = machine.run();
//! assert!(matches!(outcome.trap, Some(Trap::BoundsViolation { .. })));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod encoding;
pub mod fingerprint;
pub mod forensics;
mod machine;
mod meta;
mod objtable;
mod stats;
mod trap;

pub use config::{FunctionalKey, HardboundConfig, MachineConfig, MetaPath, SafetyMode, TimingPart};
pub use encoding::{
    intern4_compress, intern4_decompress, intern_eligible, Intern4Word, PointerEncoding,
};
pub use fingerprint::{stable_fingerprint, Fnv64, FoldHasher, StableHash, FINGERPRINT_VERSION};
pub use forensics::{
    BoundsOrigin, FlightEvent, FlightRecorder, OobDistance, PageMetaSummary, ViolationReport,
    WindowLine,
};
pub use hardbound_cache::{
    checked_ratio, HierFastStats, HierPath, HierarchyConfig, HierarchyStats,
};
pub use machine::{ExecState, Machine, RunOutcome};
pub use meta::{propagate_binop, Meta};
pub use objtable::{NullObjectTable, ObjectTable};
pub use stats::ExecStats;
pub use trap::{Pc, Trap};

#[cfg(test)]
mod tests {
    use super::*;
    use hardbound_isa::layout;
    use hardbound_isa::{BinOp, CmpOp, FuncId, FunctionBuilder, Program, Reg, SysCall, Width};

    const HEAP: u32 = layout::HEAP_BASE;

    fn run_program(program: Program, cfg: MachineConfig) -> RunOutcome {
        Machine::new(program, cfg).run()
    }

    fn single(f: FunctionBuilder) -> Program {
        Program::with_entry(vec![f.finish()])
    }

    /// The complete Figure 2 walkthrough, line by line.
    #[test]
    fn figure2_trace() {
        // Lines 1–3, 5–6 of Figure 2 (the passing subset), then inspect
        // register state.
        let mut f = FunctionBuilder::new("fig2", 0);
        f.li(Reg::A0, HEAP); //          1: set R1
        f.setbound_imm(Reg::A1, Reg::A0, 4); // 2: setbound R2 ← R1,4
        f.load(Width::Byte, Reg::A2, Reg::A1, 2); // 3: passes
        f.addi(Reg::A3, Reg::A1, 1); //  5: R4 ← R2 + 1 (bounds copied)
        f.load(Width::Byte, Reg::A4, Reg::A3, 2); // 6: address base+3 passes
        f.halt();
        let mut m = Machine::new(single(f), MachineConfig::default());
        let out = m.run();
        assert_eq!(out.trap, None, "trap: {:?}", out.trap);
        // R2 = {0x...; base; base+4}
        assert_eq!(m.reg(Reg::A1), HEAP);
        assert_eq!(m.reg_meta(Reg::A1), Meta::object(HEAP, 4));
        // Line 5's increment kept the bounds: {base+1; base; base+4}.
        assert_eq!(m.reg(Reg::A3), HEAP + 1);
        assert_eq!(m.reg_meta(Reg::A3), Meta::object(HEAP, 4));
    }

    #[test]
    fn violation_report_names_setbound_site_and_flight_tail() {
        let mut f = FunctionBuilder::new("fig2", 0);
        f.li(Reg::A0, HEAP); //                   0
        f.setbound_imm(Reg::A1, Reg::A0, 4); //   1: the blamed site
        f.load(Width::Byte, Reg::A2, Reg::A1, 2); // 2: passes
        f.load(Width::Byte, Reg::A2, Reg::A1, 5); // 3: traps
        f.halt();
        let mut m = Machine::new(single(f), MachineConfig::default());
        m.enable_flight(8);
        assert!(m.violation_report().is_none(), "no report before the trap");
        let out = m.run();
        assert!(matches!(out.trap, Some(Trap::BoundsViolation { .. })));
        let rep = m.violation_report().expect("trapped machine has a report");
        match rep.origin {
            BoundsOrigin::Setbound { site, id } => {
                assert_eq!(
                    site,
                    Pc {
                        func: FuncId(0),
                        index: 1
                    }
                );
                assert_eq!(id, 0);
            }
            other => panic!("expected setbound origin, got {other:?}"),
        }
        assert_eq!(rep.oob, Some(OobDistance::PastBound(1)));
        assert_eq!(rep.bounds, Some((HEAP, HEAP + 4)));
        assert!(rep.window.iter().any(|l| l.is_fault && l.index == 3));
        // Both loads (the trapping one included) are in the flight tail.
        assert_eq!(rep.flight.len(), 2);
        assert!(rep.flight[1].addr == HEAP + 5 && !rep.flight[1].is_store);
        let text = rep.to_string();
        assert!(text.contains("setbound at fn#0@1"), "{text}");
        assert!(text.contains("1 bytes past bound"), "{text}");
    }

    #[test]
    fn flight_recorder_is_invisible_to_outcomes() {
        let mut f = FunctionBuilder::new("loopy", 0);
        f.li(Reg::A0, HEAP);
        f.setbound_imm(Reg::A1, Reg::A0, 64);
        f.store(Width::Word, Reg::A0, Reg::A1, 8);
        f.load(Width::Word, Reg::A2, Reg::A1, 8);
        f.load(Width::Byte, Reg::A2, Reg::A1, 99); // traps
        f.halt();
        let prog = single(f);
        let plain = run_program(prog.clone(), MachineConfig::default());
        let mut m = Machine::new(prog, MachineConfig::default());
        m.enable_flight(4);
        assert_eq!(m.run(), plain);
    }

    #[test]
    fn figure2_line4_fails() {
        let mut f = FunctionBuilder::new("fig2b", 0);
        f.li(Reg::A0, HEAP);
        f.setbound_imm(Reg::A1, Reg::A0, 4);
        f.load(Width::Byte, Reg::A2, Reg::A1, 5); // 4: read base+5 fails
        f.halt();
        let out = run_program(single(f), MachineConfig::default());
        match out.trap {
            Some(Trap::BoundsViolation {
                addr,
                base,
                bound,
                is_store,
                ..
            }) => {
                assert_eq!(addr, HEAP + 5);
                assert_eq!(base, HEAP);
                assert_eq!(bound, HEAP + 4);
                assert!(!is_store);
            }
            other => panic!("expected bounds violation, got {other:?}"),
        }
    }

    #[test]
    fn figure2_line7_fails_after_increment() {
        let mut f = FunctionBuilder::new("fig2c", 0);
        f.li(Reg::A0, HEAP);
        f.setbound_imm(Reg::A1, Reg::A0, 4);
        f.addi(Reg::A3, Reg::A1, 1);
        f.load(Width::Byte, Reg::A4, Reg::A3, 5); // 7: base+6 fails
        f.halt();
        let out = run_program(single(f), MachineConfig::default());
        assert!(matches!(out.trap, Some(Trap::BoundsViolation { addr, .. }) if addr == HEAP + 6));
    }

    #[test]
    fn nonpointer_dereference_traps_in_full_mode() {
        let mut f = FunctionBuilder::new("np", 0);
        f.li(Reg::A0, HEAP);
        f.load(Width::Word, Reg::A1, Reg::A0, 0); // li cleared metadata
        f.halt();
        let out = run_program(single(f), MachineConfig::default());
        assert!(matches!(out.trap, Some(Trap::NonPointerDereference { .. })));
    }

    #[test]
    fn nonpointer_dereference_allowed_in_malloc_only_mode() {
        let mut f = FunctionBuilder::new("np2", 0);
        f.li(Reg::A0, HEAP);
        f.load(Width::Word, Reg::A1, Reg::A0, 0);
        f.li(Reg::A0, 0);
        f.halt();
        let cfg = MachineConfig::hardbound(HardboundConfig::malloc_only(PointerEncoding::Intern4));
        let out = run_program(single(f), cfg);
        assert!(out.is_success(), "trap: {:?}", out.trap);
    }

    #[test]
    fn malloc_only_still_checks_bounded_pointers() {
        let mut f = FunctionBuilder::new("np3", 0);
        f.li(Reg::A0, HEAP);
        f.setbound_imm(Reg::A0, Reg::A0, 8);
        f.load(Width::Word, Reg::A1, Reg::A0, 8); // one past the end
        f.halt();
        let cfg = MachineConfig::hardbound(HardboundConfig::malloc_only(PointerEncoding::Intern4));
        let out = run_program(single(f), cfg);
        assert!(matches!(out.trap, Some(Trap::BoundsViolation { .. })));
    }

    #[test]
    fn baseline_machine_performs_no_checks() {
        let mut f = FunctionBuilder::new("base", 0);
        f.li(Reg::A0, HEAP);
        f.load(Width::Word, Reg::A1, Reg::A0, 0);
        f.store(Width::Word, Reg::A1, Reg::A0, 4096); // way past any object
        f.li(Reg::A0, 0);
        f.halt();
        let out = run_program(single(f), MachineConfig::baseline());
        assert!(out.is_success(), "trap: {:?}", out.trap);
        assert_eq!(out.stats.bounds_checks, 0);
        assert_eq!(out.stats.tag_pages, 0);
        assert_eq!(out.stats.shadow_pages, 0);
    }

    #[test]
    fn wild_access_faults_even_on_baseline() {
        let mut f = FunctionBuilder::new("wild", 0);
        f.li(Reg::A0, 0x10); // null page
        f.load(Width::Word, Reg::A1, Reg::A0, 0);
        f.halt();
        let out = run_program(single(f), MachineConfig::baseline());
        assert!(matches!(
            out.trap,
            Some(Trap::WildAddress { addr: 0x10, .. })
        ));
    }

    #[test]
    fn metadata_propagates_through_memory_roundtrip() {
        // Store a bounded pointer, load it back, dereference out of
        // bounds: the reloaded metadata must still trap (Figure 3 C/D).
        let slot = HEAP + 64;
        for enc in PointerEncoding::ALL {
            let mut f = FunctionBuilder::new("roundtrip", 0);
            f.li(Reg::A0, HEAP);
            f.setbound_imm(Reg::A0, Reg::A0, 8);
            f.li(Reg::A1, slot);
            f.setbound_imm(Reg::A1, Reg::A1, 4);
            f.store(Width::Word, Reg::A0, Reg::A1, 0); // spill pointer
            f.load(Width::Word, Reg::A2, Reg::A1, 0); // reload pointer
            f.load(Width::Word, Reg::A3, Reg::A2, 8); // deref out of bounds
            f.halt();
            let cfg = MachineConfig::hardbound(HardboundConfig::full(enc));
            let out = run_program(single(f), cfg);
            assert!(
                matches!(out.trap, Some(Trap::BoundsViolation { addr, .. }) if addr == HEAP + 8),
                "{enc}: {:?}",
                out.trap
            );
        }
    }

    #[test]
    fn small_object_pointer_store_compresses() {
        let mut f = FunctionBuilder::new("compress", 0);
        f.li(Reg::A0, HEAP);
        f.setbound_imm(Reg::A0, Reg::A0, 16); // small, ptr == base
        f.li(Reg::A1, HEAP + 64);
        f.setbound_imm(Reg::A1, Reg::A1, 4);
        f.store(Width::Word, Reg::A0, Reg::A1, 0);
        f.li(Reg::A0, 0);
        f.halt();
        let out = run_program(single(f), MachineConfig::default());
        assert!(out.is_success());
        assert_eq!(out.stats.ptr_stores, 1);
        assert_eq!(out.stats.compressed_ptr_stores, 1);
        assert_eq!(
            out.stats.meta_uops, 0,
            "compressed stores need no shadow µop"
        );
        assert_eq!(out.stats.shadow_pages, 0);
    }

    #[test]
    fn large_object_pointer_store_is_uncompressed() {
        let mut f = FunctionBuilder::new("uncompressed", 0);
        f.li(Reg::A0, HEAP);
        f.setbound_imm(Reg::A0, Reg::A0, 4096); // too large for 4-bit tags
        f.li(Reg::A1, HEAP + 8192);
        f.setbound_imm(Reg::A1, Reg::A1, 4);
        f.store(Width::Word, Reg::A0, Reg::A1, 0);
        f.load(Width::Word, Reg::A2, Reg::A1, 0);
        f.li(Reg::A0, 0);
        f.halt();
        let out = run_program(single(f), MachineConfig::default());
        assert!(out.is_success());
        assert_eq!(out.stats.ptr_stores, 1);
        assert_eq!(out.stats.compressed_ptr_stores, 0);
        assert_eq!(out.stats.ptr_loads, 1);
        assert_eq!(out.stats.compressed_ptr_loads, 0);
        assert_eq!(
            out.stats.meta_uops, 2,
            "store + load each pay one shadow µop"
        );
        assert!(out.stats.shadow_pages > 0);
    }

    #[test]
    fn intern11_compresses_4kb_object() {
        // The same 4 KB object that extern-4 cannot compress fits in the
        // 11-bit encoding (§4.3 / §5.4).
        let mut f = FunctionBuilder::new("big", 0);
        f.li(Reg::A0, HEAP);
        f.setbound_imm(Reg::A0, Reg::A0, 4096);
        f.li(Reg::A1, HEAP + 8192);
        f.setbound_imm(Reg::A1, Reg::A1, 4);
        f.store(Width::Word, Reg::A0, Reg::A1, 0);
        f.li(Reg::A0, 0);
        f.halt();
        let cfg = MachineConfig::hardbound(HardboundConfig::full(PointerEncoding::Intern11));
        let out = run_program(single(f), cfg);
        assert!(out.is_success());
        assert_eq!(out.stats.compressed_ptr_stores, 1);
        assert_eq!(out.stats.meta_uops, 0);
    }

    #[test]
    fn byte_store_clears_pointer_tag() {
        // Overwrite one byte of a stored pointer; the reloaded word is no
        // longer a pointer, so dereferencing it traps as non-pointer.
        let mut f = FunctionBuilder::new("clear", 0);
        f.li(Reg::A0, HEAP);
        f.setbound_imm(Reg::A0, Reg::A0, 16);
        f.li(Reg::A1, HEAP + 64);
        f.setbound_imm(Reg::A1, Reg::A1, 4);
        f.store(Width::Word, Reg::A0, Reg::A1, 0);
        f.li(Reg::A2, 0xAB);
        f.store(Width::Byte, Reg::A2, Reg::A1, 0);
        f.load(Width::Word, Reg::A3, Reg::A1, 0);
        f.load(Width::Word, Reg::A4, Reg::A3, 0); // A3 has no metadata now
        f.halt();
        let out = run_program(single(f), MachineConfig::default());
        assert!(
            matches!(out.trap, Some(Trap::NonPointerDereference { .. })),
            "{:?}",
            out.trap
        );
    }

    #[test]
    fn unchecked_escape_hatch_passes_all_checks() {
        let mut f = FunctionBuilder::new("hatch", 0);
        f.li(Reg::A0, HEAP + 12345);
        f.unbound(Reg::A0, Reg::A0);
        f.load(Width::Word, Reg::A1, Reg::A0, 0);
        f.store(Width::Word, Reg::A1, Reg::A0, 400);
        f.li(Reg::A0, 0);
        f.halt();
        let out = run_program(single(f), MachineConfig::default());
        assert!(out.is_success(), "trap: {:?}", out.trap);
    }

    #[test]
    fn code_pointers_call_but_do_not_dereference() {
        let mut callee = FunctionBuilder::new("callee", 0);
        callee.li(Reg::A0, 42);
        callee.ret();
        let mut main = FunctionBuilder::new("main", 0);
        main.code_ptr(Reg::A1, FuncId(1));
        main.call_indirect(Reg::A1);
        main.sys(SysCall::PrintInt); // prints callee's return value
        main.load(Width::Word, Reg::A2, Reg::A1, 0); // deref code pointer!
        main.halt();
        let program = Program::with_entry(vec![main.finish(), callee.finish()]);
        let out = run_program(program, MachineConfig::default());
        assert_eq!(out.ints, vec![42]);
        assert!(
            matches!(out.trap, Some(Trap::BoundsViolation { .. })),
            "{:?}",
            out.trap
        );
    }

    #[test]
    fn forged_function_pointer_is_not_callable() {
        let mut f = FunctionBuilder::new("forge", 0);
        f.li(Reg::A0, layout::code_addr(0)); // right value, no CODE meta
        f.call_indirect(Reg::A0);
        f.halt();
        let out = run_program(single(f), MachineConfig::default());
        assert!(matches!(out.trap, Some(Trap::InvalidCallTarget { .. })));
    }

    #[test]
    fn call_and_ret_restore_stack_registers() {
        let mut callee = FunctionBuilder::new("callee", 0);
        callee.addi(Reg::SP, Reg::SP, -64); // callee clobbers sp
        callee.li(Reg::A0, 7);
        callee.ret();
        let mut main = FunctionBuilder::new("main", 0);
        main.call(FuncId(1));
        main.sys(SysCall::PrintInt);
        main.li(Reg::A0, 0);
        main.halt();
        let program = Program::with_entry(vec![main.finish(), callee.finish()]);
        let mut m = Machine::new(program, MachineConfig::default());
        let out = m.run();
        assert!(out.is_success());
        assert_eq!(out.ints, vec![7]);
        assert_eq!(m.reg(Reg::SP), layout::STACK_TOP, "sp restored by ret");
    }

    #[test]
    fn returning_from_entry_exits_with_a0() {
        let mut f = FunctionBuilder::new("main", 0);
        f.li(Reg::A0, 5);
        f.ret();
        let out = run_program(single(f), MachineConfig::default());
        assert_eq!(out.exit_code, Some(5));
    }

    #[test]
    fn divide_by_zero_traps() {
        let mut f = FunctionBuilder::new("div0", 0);
        f.li(Reg::A0, 10);
        f.li(Reg::A1, 0);
        f.bin(BinOp::Div, Reg::A2, Reg::A0, Reg::A1);
        f.halt();
        let out = run_program(single(f), MachineConfig::default());
        assert!(matches!(out.trap, Some(Trap::DivideByZero { .. })));
    }

    #[test]
    fn fuel_exhaustion_traps() {
        let mut f = FunctionBuilder::new("spin", 0);
        let head = f.bind_label();
        f.jump(head);
        let out = run_program(single(f), MachineConfig::default().with_fuel(1000));
        assert_eq!(out.trap, Some(Trap::OutOfFuel));
    }

    #[test]
    fn setbound_counts_and_cycle_composition() {
        let mut f = FunctionBuilder::new("stats", 0);
        f.li(Reg::A0, HEAP);
        f.setbound_imm(Reg::A0, Reg::A0, 8);
        f.store(Width::Word, Reg::ZERO, Reg::A0, 0);
        f.li(Reg::A0, 0);
        f.halt();
        let out = run_program(single(f), MachineConfig::default());
        assert!(out.is_success());
        assert_eq!(out.stats.setbound_uops, 1);
        assert_eq!(out.stats.uops, 5);
        assert_eq!(out.stats.stores, 1);
        assert!(out.stats.cycles() >= out.stats.uops);
        assert_eq!(
            out.stats.cycles(),
            out.stats.uops + out.stats.hierarchy.total_stall_cycles()
        );
    }

    #[test]
    fn check_uop_ablation_charges_extra_uops() {
        let build = || {
            let mut f = FunctionBuilder::new("ablate", 0);
            f.li(Reg::A0, HEAP);
            f.setbound_imm(Reg::A0, Reg::A0, 4096); // uncompressible
            f.load(Width::Word, Reg::A1, Reg::A0, 0);
            f.li(Reg::A0, 0);
            f.halt();
            single(f)
        };
        let base = run_program(
            build(),
            MachineConfig::hardbound(HardboundConfig::full(PointerEncoding::Extern4)),
        );
        let ablated = run_program(
            build(),
            MachineConfig::hardbound(
                HardboundConfig::full(PointerEncoding::Extern4).with_check_uop(),
            ),
        );
        assert_eq!(base.stats.check_uops, 0);
        assert_eq!(ablated.stats.check_uops, 1);
        assert_eq!(ablated.stats.uops, base.stats.uops + 1);
    }

    /// A program with one check of an uncompressed (extern-4) pointer.
    fn one_uncompressed_check() -> Program {
        let mut f = FunctionBuilder::new("ablate", 0);
        f.li(Reg::A0, HEAP);
        f.setbound_imm(Reg::A0, Reg::A0, 4096); // uncompressible
        f.load(Width::Word, Reg::A1, Reg::A0, 0);
        f.li(Reg::A0, 0);
        f.halt();
        single(f)
    }

    fn extern4(check_uop: bool) -> MachineConfig {
        let hb = HardboundConfig::full(PointerEncoding::Extern4);
        MachineConfig::hardbound(if check_uop { hb.with_check_uop() } else { hb })
    }

    /// One run timing its variants gives each the outcome of its own run.
    #[test]
    fn timing_variants_match_their_own_runs() {
        let plain = extern4(false);
        let small_tags = plain
            .clone()
            .with_hierarchy(plain.hierarchy.with_tag_cache_bytes(512));
        let big_blocks = plain.clone().with_hierarchy(HierarchyConfig {
            block_bytes: 64,
            ..plain.hierarchy
        });
        let variants = [plain, small_tags, big_blocks, extern4(true)];
        let mut m = Machine::new(one_uncompressed_check(), extern4(true));
        m.set_timing_variants(&variants);
        let out = m.run();
        assert_eq!(out.stats.check_uops, 1);
        for (cfg, got) in variants.iter().zip(m.timing_variant_outcomes(&out)) {
            let want = run_program(one_uncompressed_check(), cfg.clone());
            assert_eq!(got, Some(want), "{cfg:?}");
        }
    }

    #[test]
    #[should_panic(expected = "a timing variant of another run")]
    fn timing_variants_share_the_functional_key() {
        let mut m = Machine::new(one_uncompressed_check(), extern4(true));
        m.set_timing_variants(&[extern4(true).with_fuel(7)]);
    }

    #[test]
    #[should_panic(expected = "a check-µop variant needs a check-µop machine")]
    fn check_uop_variants_need_a_check_uop_machine() {
        let mut m = Machine::new(one_uncompressed_check(), extern4(false));
        m.set_timing_variants(&[extern4(true)]);
    }

    #[test]
    fn readbase_readbound_extract_metadata() {
        let mut f = FunctionBuilder::new("rb", 0);
        f.li(Reg::A0, HEAP);
        f.setbound_imm(Reg::A0, Reg::A0, 12);
        f.readbase(Reg::A1, Reg::A0);
        f.readbound(Reg::A2, Reg::A0);
        f.halt();
        let mut m = Machine::new(single(f), MachineConfig::default());
        let out = m.run();
        assert!(out.trap.is_none());
        assert_eq!(m.reg(Reg::A1), HEAP);
        assert_eq!(m.reg(Reg::A2), HEAP + 12);
        assert_eq!(
            m.reg_meta(Reg::A1),
            Meta::NONE,
            "extracted values are plain integers"
        );
    }

    #[test]
    fn cmp_and_branch_do_not_trap_on_pointers() {
        // Pointer comparisons use the value, not the metadata (§4.4).
        let mut f = FunctionBuilder::new("cmp", 0);
        f.li(Reg::A0, HEAP);
        f.setbound_imm(Reg::A0, Reg::A0, 4);
        f.addi(Reg::A1, Reg::A0, 4);
        f.cmp(CmpOp::LtU, Reg::A2, Reg::A0, Reg::A1);
        let done = f.new_label();
        f.branch(CmpOp::Eq, Reg::A2, 1, done);
        f.li(Reg::A2, 99);
        f.bind(done);
        f.mov(Reg::A0, Reg::A2);
        f.halt();
        let out = run_program(single(f), MachineConfig::default());
        assert_eq!(out.exit_code, Some(1));
    }

    #[test]
    fn print_syscalls_capture_output() {
        let mut f = FunctionBuilder::new("print", 0);
        f.li(Reg::A0, -3i32 as u32);
        f.sys(SysCall::PrintInt);
        f.li(Reg::A0, b'h' as u32);
        f.sys(SysCall::PrintChar);
        f.li(Reg::A0, b'i' as u32);
        f.sys(SysCall::PrintChar);
        f.li(Reg::A0, 0);
        f.halt();
        let out = run_program(single(f), MachineConfig::default());
        assert_eq!(out.output, "-3\nhi");
        assert_eq!(out.ints, vec![-3]);
    }

    #[test]
    fn tag_traffic_only_when_hardbound_enabled() {
        let build = || {
            let mut f = FunctionBuilder::new("traffic", 0);
            f.li(Reg::A0, HEAP);
            f.setbound_imm(Reg::A0, Reg::A0, 64);
            f.store(Width::Word, Reg::A0, Reg::A0, 0);
            for i in 1..8 {
                f.store(Width::Word, Reg::ZERO, Reg::A0, i * 4);
            }
            f.li(Reg::A0, 0);
            f.halt();
            single(f)
        };
        let hb = run_program(build(), MachineConfig::default());
        let base = run_program(build(), MachineConfig::baseline());
        assert!(hb.stats.hierarchy.tag_accesses > 0);
        assert_eq!(base.stats.hierarchy.tag_accesses, 0);
        assert_eq!(base.stats.tag_pages, 0);
        assert!(hb.stats.tag_pages > 0);
    }

    #[test]
    fn plain_data_accesses_charge_tag_traffic() {
        // "This tag metadata is needed by every memory operation" (§4.2):
        // plain integer stores and loads through a bounded pointer touch a
        // page that never holds a tagged word, and still pay tag traffic.
        let program = {
            let mut f = FunctionBuilder::new("sparse", 0);
            f.li(Reg::A0, HEAP);
            f.setbound_imm(Reg::A0, Reg::A0, 64);
            for i in 0..8 {
                f.store(Width::Word, Reg::ZERO, Reg::A0, i * 4);
            }
            for i in 0..8 {
                f.load(Width::Word, Reg::A1, Reg::A0, i * 4);
            }
            f.li(Reg::A0, 0);
            f.halt();
            single(f)
        };
        let hb = run_program(program, MachineConfig::default());
        assert!(hb.is_success(), "{:?}", hb.trap);
        assert_eq!(
            hb.stats.hierarchy.tag_accesses,
            hb.stats.loads + hb.stats.stores,
            "{:?}",
            hb.stats.hierarchy
        );
        assert!(hb.stats.tag_pages > 0);
    }

    #[test]
    fn pointer_spill_and_tag_clear_charge_every_access() {
        // The accesses around a pointer spill, its reload and the integer
        // store that clears its tag again all pay tag traffic, before and
        // after the page holds a tagged word.
        let program = {
            let mut f = FunctionBuilder::new("transition", 0);
            f.li(Reg::A0, HEAP);
            f.setbound_imm(Reg::A0, Reg::A0, 64);
            f.store(Width::Word, Reg::ZERO, Reg::A0, 0);
            f.store(Width::Word, Reg::A0, Reg::A0, 8); // spills a pointer
            f.load(Width::Word, Reg::A1, Reg::A0, 8); // reloads it
            f.li(Reg::A2, 1);
            f.store(Width::Word, Reg::A2, Reg::A0, 8); // clears the tag
            f.store(Width::Byte, Reg::A2, Reg::A0, 12);
            f.load(Width::Word, Reg::A3, Reg::A0, 4);
            f.load(Width::Word, Reg::A3, Reg::A0, 8);
            f.li(Reg::A0, 0);
            f.halt();
            single(f)
        };
        let hb = run_program(program, MachineConfig::default());
        assert!(hb.is_success(), "{:?}", hb.trap);
        assert_eq!(
            hb.stats.hierarchy.tag_accesses,
            hb.stats.loads + hb.stats.stores,
            "{:?}",
            hb.stats.hierarchy
        );
        assert_eq!(hb.stats.ptr_loads, 1, "reloaded pointer keeps meta");
    }

    #[test]
    fn shadow_traffic_comes_only_from_uncompressed_pointers() {
        // Spill an uncompressed pointer and reload it (two shadow
        // accesses), then spill a compressed one, clear a tag and load
        // plain data (none).
        let program = {
            let mut f = FunctionBuilder::new("shadowy", 0);
            f.li(Reg::A0, HEAP);
            f.setbound_imm(Reg::A0, Reg::A0, 4096); // uncompressible
            f.li(Reg::A1, HEAP + 8192);
            f.setbound_imm(Reg::A1, Reg::A1, 32); // compressible
            f.store(Width::Word, Reg::A0, Reg::A1, 0); // uncompressed spill
            f.load(Width::Word, Reg::A2, Reg::A1, 0); // shadow reload
            f.store(Width::Word, Reg::A1, Reg::A1, 4); // compressed spill
            f.store(Width::Word, Reg::ZERO, Reg::A1, 0); // clears the tag
            f.load(Width::Word, Reg::A3, Reg::A1, 8); // plain data
            f.li(Reg::A0, 0);
            f.halt();
            single(f)
        };
        let out = run_program(program, MachineConfig::default());
        assert!(out.is_success(), "{:?}", out.trap);
        assert_eq!(out.stats.hierarchy.shadow_accesses, 2);
        assert_eq!(out.stats.ptr_stores, 2);
        assert_eq!(out.stats.compressed_ptr_stores, 1);
    }

    #[test]
    fn violation_report_counts_the_faulting_pages_metadata() {
        // On the faulting page: one compressed pointer, one uncompressed
        // pointer, and one uncompressed pointer overwritten by an integer
        // (tag cleared, shadow entry left stale), then a read past the
        // compressed pointer's bound on the same page.
        let page = HEAP + 8192;
        let mut f = FunctionBuilder::new("forensics", 0);
        f.li(Reg::A0, HEAP);
        f.setbound_imm(Reg::A0, Reg::A0, 4096); // uncompressible
        f.li(Reg::A1, page);
        f.setbound_imm(Reg::A1, Reg::A1, 32); // compressible
        f.store(Width::Word, Reg::A1, Reg::A1, 0); // compressed
        f.store(Width::Word, Reg::A0, Reg::A1, 4); // uncompressed
        f.store(Width::Word, Reg::A0, Reg::A1, 8); // uncompressed...
        f.store(Width::Word, Reg::ZERO, Reg::A1, 8); // ...then cleared
        f.load(Width::Byte, Reg::A2, Reg::A1, 40); // traps
        f.halt();
        let mut m = Machine::new(single(f), MachineConfig::default());
        let out = m.run();
        assert!(matches!(out.trap, Some(Trap::BoundsViolation { .. })));
        assert_eq!(out.stats.compressed_ptr_stores, 1);
        let rep = m.violation_report().expect("trapped machine has a report");
        assert_eq!(
            rep.page,
            Some(PageMetaSummary {
                page: page >> 12,
                tag_words: 2,
                shadow_words: 3,
                uncompressed_words: 1,
            })
        );
    }

    #[test]
    fn hier_reports_fastpath_hits() {
        let build = || {
            let mut f = FunctionBuilder::new("hier", 0);
            f.li(Reg::A0, HEAP);
            f.setbound_imm(Reg::A0, Reg::A0, 256);
            for i in 0..32 {
                f.store(Width::Word, Reg::ZERO, Reg::A0, (i % 16) * 4);
            }
            for i in 0..32 {
                f.load(Width::Word, Reg::A1, Reg::A0, (i % 16) * 4);
            }
            f.store(Width::Word, Reg::A0, Reg::A0, 64); // pointer spill
            f.load(Width::Word, Reg::A2, Reg::A0, 64);
            f.li(Reg::A0, 0);
            f.halt();
            single(f)
        };
        let mut m = Machine::new(build(), MachineConfig::default());
        let out = m.run();
        assert!(out.is_success(), "{:?}", out.trap);
        let fast = m.hier_fast_stats();
        assert!(fast.fastpath_hits > 0, "{fast:?}");
    }

    #[test]
    fn object_table_hook_is_invoked() {
        struct Recording(Vec<(u32, u32)>);
        impl ObjectTable for Recording {
            fn register(&mut self, base: u32, size: u32) -> u64 {
                self.0.push((base, size));
                3
            }
            fn unregister(&mut self, _base: u32) -> u64 {
                2
            }
            fn check(&mut self, _from: u32, to: u32) -> (u64, bool) {
                (5, to < HEAP + 100)
            }
            fn check_arith(&mut self, _from: u32, to: u32) -> (u64, bool) {
                (5, to < HEAP + 100)
            }
        }
        let mut f = FunctionBuilder::new("ot", 0);
        f.li(Reg::A0, HEAP);
        f.li(Reg::A1, 64);
        f.sys(SysCall::OtRegister);
        f.li(Reg::A1, HEAP + 4);
        f.sys(SysCall::OtCheck); // a0 = HEAP, a1 = HEAP+4: passes
        f.li(Reg::A0, HEAP + 5000);
        f.li(Reg::A1, HEAP + 5000);
        f.sys(SysCall::OtCheck); // fails
        f.halt();
        let mut m = Machine::new(single(f), MachineConfig::baseline());
        m.set_object_table(Box::new(Recording(Vec::new())));
        let out = m.run();
        assert!(
            matches!(out.trap, Some(Trap::ObjectTableViolation { addr, .. }) if addr == HEAP + 5000)
        );
        assert_eq!(out.stats.objtable_cycles, 3 + 5 + 5);
    }

    #[test]
    fn run_outcome_success_predicate() {
        let mut f = FunctionBuilder::new("ok", 0);
        f.li(Reg::A0, 0);
        f.halt();
        assert!(run_program(single(f), MachineConfig::default()).is_success());
        let mut f = FunctionBuilder::new("bad", 0);
        f.li(Reg::A0, 1);
        f.halt();
        assert!(!run_program(single(f), MachineConfig::default()).is_success());
    }
}
