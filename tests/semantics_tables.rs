//! Pinned semantics of the interpreter (`Machine::run`), the one
//! execution path:
//!
//! * **Value tables.** Every ALU operator in both operand forms over the
//!   signed and shift-mask corners, against a 64-bit specification that
//!   shares no expression with the simulator, and the bounds µops with
//!   Figure 3's `add`/`sub` propagation, under all five modes.
//! * **Cross-configuration agreement.** Benign programs and workloads give
//!   the same results under **all 15 mode × encoding configurations**, and
//!   a violation corpus program behaves the same under every pointer
//!   encoding of one mode (compression is invisible to the program).
//! * **Profiled ≡ plain.** Arming the per-basic-block profiler steps
//!   through a second interpreter loop. Over the full violation corpus,
//!   sanitized fuzz programs, the loop-heavy `isa::fuzz` family and
//!   generated pointer-soup programs it must leave every outcome
//!   byte-identical — exit code, output, traps with their program
//!   counters and every `ExecStats` counter — and attribute every retired
//!   µop and bounds check to some block.
//!
//! The hierarchy has one lookup path; its exactness against a reference
//! LRU model is pinned in `crates/cache/tests/prop.rs`.

use hardbound::compiler::Mode;
use hardbound::core::{BlockCount, Machine, MachineConfig, PointerEncoding, RunOutcome, Trap};
use hardbound::isa::{fuzz, layout, FuncId, Function, FunctionBuilder, Inst, Program, Reg};
use hardbound::isa::{SysCall, Width};
use hardbound::runtime::{build_machine, compile, machine_config};
use hardbound::workloads::{by_name, Scale};
use proptest::prelude::*;

const ALL_MODES: [Mode; 5] = [
    Mode::Baseline,
    Mode::MallocOnly,
    Mode::HardBound,
    Mode::SoftBound,
    Mode::ObjectTable,
];

/// Every mode × encoding pair (5 × 3 = 15 configurations).
fn all_configs() -> impl Iterator<Item = (Mode, PointerEncoding)> {
    ALL_MODES
        .into_iter()
        .flat_map(|m| PointerEncoding::ALL.into_iter().map(move |e| (m, e)))
}

/// The program-visible part of an outcome: everything but the
/// simulation statistics, which legitimately differ between modes and
/// encodings.
fn results(out: &RunOutcome) -> (Option<i32>, Option<Trap>, &str, &[i32]) {
    (out.exit_code, out.trap, &out.output, &out.ints)
}

/// Runs `program` under `cfg` plain and with the block profiler armed,
/// asserts the two outcomes identical and the profile conserved, and
/// returns the outcome.
fn check_program(label: &str, program: &Program, cfg: &MachineConfig) -> RunOutcome {
    let plain = Machine::new(program.clone(), cfg.clone()).run();
    let mut machine = Machine::new(program.clone(), cfg.clone());
    machine.set_profiling(true);
    let profiled = machine.run();
    assert_eq!(profiled, plain, "{label}: profiling changed the outcome");
    let blocks = machine.take_block_profile();
    let sum = |f: fn(&BlockCount) -> u64| blocks.iter().map(f).sum::<u64>();
    assert_eq!(sum(|b| b.cycles), plain.stats.uops, "{label}: µops");
    assert_eq!(
        sum(|b| b.taken),
        plain.stats.bounds_checks,
        "{label}: bounds checks"
    );
    plain
}

/// Compiles `source` under `mode` and runs it under `encoding`.
fn run_cb(label: &str, source: &str, mode: Mode, encoding: PointerEncoding) -> RunOutcome {
    let program = compile(source, mode)
        .unwrap_or_else(|e| panic!("{label}: compile failed under {mode}: {e}"));
    build_machine(program, mode, encoding).run()
}

/// Runs `source` under all 15 configurations; asserts each runs clean and
/// gives the Baseline run's results.
fn agrees_everywhere(label: &str, source: &str) {
    let base = run_cb(label, source, Mode::Baseline, PointerEncoding::Intern4);
    assert!(base.is_success(), "{label}: {:?}", base.trap);
    for (mode, encoding) in all_configs() {
        let out = run_cb(label, source, mode, encoding);
        assert_eq!(
            results(&out),
            results(&base),
            "{label}/{mode}/{encoding}: results differ from Baseline"
        );
    }
}

const BENIGN: &[(&str, &str)] = &[
    (
        "heap-sum",
        r"
        int main() {
            int n = 12;
            int *a = (int*)malloc(n * sizeof(int));
            for (int i = 0; i < n; i = i + 1) a[i] = i * 3;
            int sum = 0;
            for (int i = 0; i < n; i = i + 1) sum = sum + a[i];
            free(a);
            print_int(sum);
            return 0;
        }
        ",
    ),
    (
        "linked-list",
        r"
        struct node { int v; struct node *next; };
        int main() {
            struct node *head = 0;
            for (int i = 0; i < 9; i = i + 1) {
                struct node *n = (struct node*)malloc(sizeof(struct node));
                n->v = i; n->next = head; head = n;
            }
            int sum = 0;
            for (struct node *p = head; p != 0; p = p->next) sum = sum + p->v;
            print_int(sum);
            return 0;
        }
        ",
    ),
    (
        "recursion-and-globals",
        r"
        int g_hits[8];
        int fib(int n) {
            if (n < 8) g_hits[n] = g_hits[n] + 1;
            if (n < 2) return n;
            return fib(n - 1) + fib(n - 2);
        }
        int main() {
            print_int(fib(12));
            int s = 0;
            for (int i = 0; i < 8; i = i + 1) s = s + g_hits[i];
            print_int(s);
            return 0;
        }
        ",
    ),
];

#[test]
fn benign_programs_agree_on_all_15_configurations() {
    for (name, source) in BENIGN {
        agrees_everywhere(name, source);
    }
}

#[test]
fn violation_corpus_sample_agrees_on_all_15_configurations() {
    // Two interleaved strides (every 41st and every 37th case): 15 cases
    // spanning every dimension.
    let cases: Vec<_> = hardbound::violations::corpus()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % 41 == 0 || i % 37 == 0)
        .map(|(_, case)| case)
        .collect();
    assert!(cases.len() >= 14);
    for case in &cases {
        agrees_everywhere(&format!("{}-ok", case.id), &case.ok_source);
        let label = format!("{}-bad", case.id);
        for mode in ALL_MODES {
            let outs: Vec<RunOutcome> = PointerEncoding::ALL
                .into_iter()
                .map(|encoding| run_cb(&label, &case.bad_source, mode, encoding))
                .collect();
            for out in &outs[1..] {
                assert_eq!(
                    results(out),
                    results(&outs[0]),
                    "{label}/{mode}: pointer encodings disagree"
                );
            }
        }
    }
}

/// The **full** violation corpus — all pairs, both sources — under the
/// paper's default configuration, plain and profiled: the ok programs
/// must run clean.
#[test]
fn full_violation_corpus_agrees_under_hardbound() {
    let cfg = machine_config(Mode::HardBound, PointerEncoding::Intern4);
    for case in hardbound::violations::corpus() {
        for (source, flavor) in [(&case.bad_source, "bad"), (&case.ok_source, "ok")] {
            let program = compile(source, Mode::HardBound)
                .unwrap_or_else(|e| panic!("{}-{flavor}: compile failed: {e}", case.id));
            let out = check_program(&format!("{}-{flavor}", case.id), &program, &cfg);
            if flavor == "ok" {
                assert!(out.is_success(), "{}-ok: {:?}", case.id, out.trap);
            }
        }
    }
}

#[test]
fn workloads_agree_on_all_15_configurations() {
    for bench in ["treeadd", "health", "power"] {
        let w = by_name(bench, Scale::Smoke).expect("workload exists");
        agrees_everywhere(bench, &w.source);
    }
}

/// Builds a structurally valid program from a raw fuzz instruction stream:
/// control-flow targets are clamped into range and a terminating halt is
/// appended. Everything else (wild addresses, bad call targets, divide by
/// zero, runaway recursion) is left in — the profiled loop must agree on
/// every trap.
fn fuzz_program(seed: u64) -> Program {
    let mut insts = fuzz::insts(seed, 48);
    let len = insts.len() as u32 + 1; // + the appended halt
    for inst in &mut insts {
        match inst {
            Inst::Branch { target, .. } | Inst::Jump { target } => *target %= len,
            Inst::Call { func } | Inst::CodePtr { func, .. } => *func = FuncId(func.0 % 2),
            _ => {}
        }
    }
    insts.push(Inst::Sys {
        call: SysCall::Halt,
    });
    let helper = Function {
        name: "helper".into(),
        insts: vec![
            Inst::Li {
                rd: hardbound::isa::Reg::A0,
                imm: 7,
            },
            Inst::Ret,
        ],
        frame_size: 0,
        num_args: 0,
    };
    let main = Function {
        name: "main".into(),
        insts,
        frame_size: 0,
        num_args: 0,
    };
    let program = Program::with_entry(vec![main, helper]);
    program
        .validate()
        .expect("sanitized fuzz programs validate");
    program
}

#[test]
fn fuzz_programs_agree_across_modes_and_encodings() {
    for seed in 0..48 {
        let program = fuzz_program(seed);
        for (mode, encoding) in all_configs() {
            // Fuzz programs are raw µop streams — the compiler mode only
            // matters through the machine configuration, so pair each
            // config via the runtime glue as the drivers do.
            let cfg = machine_config(mode, encoding).with_fuel(100_000);
            check_program(&format!("fuzz-{seed}/{mode}/{encoding}"), &program, &cfg);
        }
    }
}

/// Builds a runnable program from the loop-heavy fuzz family.
fn loop_family_program(seed: u64) -> Program {
    let main = Function {
        name: "main".into(),
        insts: fuzz::loop_insts(seed),
        frame_size: 0,
        num_args: 0,
    };
    let program = Program::with_entry(vec![main]);
    program.validate().expect("loop family programs validate");
    program
}

/// The loop-heavy family across the full matrix: self-loops over bounded
/// arrays, where some seeds walk off their array mid-loop, pinning
/// trap-site identity inside hot blocks.
#[test]
fn loop_family_agrees_across_modes_and_encodings() {
    for seed in 0..64 {
        let program = loop_family_program(seed);
        for (mode, encoding) in all_configs() {
            let cfg = machine_config(mode, encoding).with_fuel(100_000);
            check_program(&format!("loop-{seed}/{mode}/{encoding}"), &program, &cfg);
        }
    }
}

/// Registers the pointer-soup property programs point through.
const PTRS: [Reg; 3] = [Reg::A0, Reg::A1, Reg::A6];

/// One generated pointer operation for the property sweep.
#[derive(Clone, Copy, Debug)]
enum POp {
    /// Re-derive pointer `p`: fresh base and (small) bounds — some
    /// offsets/sizes leave later fixed-offset accesses out of bounds.
    Rebase {
        p: usize,
        off: u32,
        size: u32,
    },
    /// `p += delta` (constant-offset pointer chains).
    Advance {
        p: usize,
        delta: i32,
    },
    /// `dst = src` (aliased pointers share their bounds).
    Alias {
        dst: usize,
        src: usize,
    },
    Load {
        p: usize,
        off: i32,
        byte: bool,
    },
    Store {
        p: usize,
        off: i32,
        byte: bool,
    },
}

fn pop() -> impl Strategy<Value = POp> {
    let p = 0usize..PTRS.len();
    // Offsets reach past the 16..=64-byte objects often enough that the
    // violation path is well traveled.
    let off = -8i32..72;
    prop_oneof![
        (p.clone(), 0u32..256, 16u32..64).prop_map(|(p, off, size)| POp::Rebase { p, off, size }),
        (p.clone(), -16i32..32).prop_map(|(p, delta)| POp::Advance { p, delta }),
        (p.clone(), 0usize..PTRS.len()).prop_map(|(dst, src)| POp::Alias { dst, src }),
        (p.clone(), off.clone(), any::<bool>()).prop_map(|(p, off, byte)| POp::Load {
            p,
            off,
            byte
        }),
        (p.clone(), off.clone(), any::<bool>()).prop_map(|(p, off, byte)| POp::Load {
            p,
            off,
            byte
        }),
        (p, off, any::<bool>()).prop_map(|(p, off, byte)| POp::Store { p, off, byte }),
    ]
}

/// Lowers the ops, optionally wrapped in a counted loop (the loop flavour
/// re-runs the same checks every iteration from one hot block).
fn build_pop_program(ops: &[POp], loop_trips: Option<u32>) -> Program {
    let mut f = FunctionBuilder::new("gen", 0);
    for (i, &r) in PTRS.iter().enumerate() {
        f.li(r, layout::HEAP_BASE + 64 * i as u32);
        f.setbound_imm(r, r, 48);
    }
    let head = loop_trips.map(|_| {
        f.li(Reg::T2, 0);
        f.bind_label()
    });
    for &op in ops {
        match op {
            POp::Rebase { p, off, size } => {
                f.li(PTRS[p], layout::HEAP_BASE + off);
                f.setbound_imm(PTRS[p], PTRS[p], size as i32);
            }
            POp::Advance { p, delta } => f.addi(PTRS[p], PTRS[p], delta),
            POp::Alias { dst, src } => f.mov(PTRS[dst], PTRS[src]),
            POp::Load { p, off, byte } => {
                let w = if byte { Width::Byte } else { Width::Word };
                f.load(w, Reg::T0, PTRS[p], off);
            }
            POp::Store { p, off, byte } => {
                let w = if byte { Width::Byte } else { Width::Word };
                f.store(w, Reg::T0, PTRS[p], off);
            }
        }
    }
    if let (Some(head), Some(trips)) = (head, loop_trips) {
        f.addi(Reg::T2, Reg::T2, 1);
        f.branch(hardbound::isa::CmpOp::Lt, Reg::T2, trips as i32, head);
    }
    f.li(Reg::A0, 0);
    f.halt();
    Program::with_entry(vec![f.finish()])
}

/// Property legs run the default HardBound configuration plus the two
/// non-default corners that change check-µop accounting the most.
fn prop_configs() -> [MachineConfig; 3] {
    [
        machine_config(Mode::HardBound, PointerEncoding::Intern4),
        machine_config(Mode::HardBound, PointerEncoding::Extern4),
        machine_config(Mode::MallocOnly, PointerEncoding::Intern11),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Straight-line pointer soup: aliasing, chain arithmetic, rebasing,
    /// and plenty of traps.
    #[test]
    fn straight_line_programs_agree(ops in prop::collection::vec(pop(), 1..40)) {
        let program = build_pop_program(&ops, None);
        for (i, cfg) in prop_configs().into_iter().enumerate() {
            check_program(&format!("straight/cfg{i}"), &program, &cfg.with_fuel(200_000));
        }
    }

    /// The same soup inside a counted loop: a trap may strike on any
    /// iteration of a hot block.
    #[test]
    fn looped_programs_agree(
        ops in prop::collection::vec(pop(), 1..24),
        trips in 1u32..6,
    ) {
        let program = build_pop_program(&ops, Some(trips));
        for (i, cfg) in prop_configs().into_iter().enumerate() {
            check_program(&format!("loop/cfg{i}"), &program, &cfg.with_fuel(200_000));
        }
    }
}

/// Operand values of the ALU table: zero, the unit values, both signed
/// extremes and the shift amounts either side of the 5-bit mask.
const TABLE_OPERANDS: [i32; 8] = [0, 1, -1, i32::MIN, i32::MAX, 31, 32, 33];

/// Every [`BinOp`](hardbound::isa::BinOp).
const ALL_BINOPS: [hardbound::isa::BinOp; 12] = {
    use hardbound::isa::BinOp::*;
    [Add, Sub, Mul, Mulh, Div, Rem, And, Or, Xor, Shl, Shr, Sra]
};

/// The ALU table's specification, written in 64-bit arithmetic so that it
/// shares no expression with the simulator: results are the low 32 bits of
/// the exact value, shift amounts are taken mod 32, and a zero divisor
/// yields `None`.
fn alu_spec(op: hardbound::isa::BinOp, a: i32, b: i32) -> Option<i32> {
    use hardbound::isa::BinOp::*;
    let (x, y) = (i64::from(a), i64::from(b));
    let low = |v: i64| (v & 0xFFFF_FFFF) as u32 as i32;
    let sh = (b & 31) as u32;
    Some(match op {
        Add => low(x + y),
        Sub => low(x - y),
        Mul => low(x * y),
        Mulh => low((x * y) >> 32),
        Div if b == 0 => return None,
        Div => low(x / y),
        Rem if b == 0 => return None,
        Rem => low(x % y),
        And => a & b,
        Or => a | b,
        Xor => a ^ b,
        Shl => low(x << sh),
        Shr => (u64::from(a as u32) >> sh) as u32 as i32,
        Sra => low(x >> sh),
    })
}

/// Runs a program printing `op(a, b)` for each pair, in register or
/// immediate form.
fn run_alu(
    cfg: &MachineConfig,
    op: hardbound::isa::BinOp,
    imm_form: bool,
    pairs: &[(i32, i32)],
) -> RunOutcome {
    let mut f = FunctionBuilder::new("alu", 0);
    for &(a, b) in pairs {
        f.li(Reg::A1, a as u32);
        if imm_form {
            f.bin(op, Reg::A0, Reg::A1, b);
        } else {
            f.li(Reg::A2, b as u32);
            f.bin(op, Reg::A0, Reg::A1, Reg::A2);
        }
        f.sys(SysCall::PrintInt);
    }
    f.li(Reg::A0, 0);
    f.halt();
    let program = Program::with_entry(vec![f.finish()]);
    Machine::new(program, cfg.clone()).run()
}

/// Hand-checked rows of the table: the signed-overflow and shift-mask
/// corners the machine must hit exactly.
#[test]
fn alu_corners_match_hand_written_values() {
    use hardbound::isa::BinOp::*;
    let cfg = MachineConfig::default();
    for (op, a, b, want) in [
        (Div, i32::MIN, -1, i32::MIN),
        (Rem, i32::MIN, -1, 0),
        (Div, 33, -1, -33),
        (Rem, -1, 32, -1),
        (Shl, 1, 33, 2),
        (Shl, 1, 32, 1),
        (Shl, 1, 31, i32::MIN),
        (Shr, -1, 33, i32::MAX),
        (Shr, i32::MIN, 31, 1),
        (Sra, i32::MIN, 33, -(1 << 30)),
        (Sra, -1, 31, -1),
        (Mul, i32::MAX, i32::MAX, 1),
        (Mulh, i32::MIN, i32::MIN, 1 << 30),
        (Mulh, i32::MAX, i32::MAX, 0x3FFF_FFFF),
        (Mulh, -1, -1, 0),
        (Mulh, i32::MIN, 1, -1),
        (Add, i32::MAX, 1, i32::MIN),
        (Sub, i32::MIN, 1, i32::MAX),
        (Xor, -1, i32::MAX, i32::MIN),
    ] {
        assert_eq!(alu_spec(op, a, b), Some(want), "spec {op:?}({a}, {b})");
        for imm_form in [false, true] {
            let out = run_alu(&cfg, op, imm_form, &[(a, b)]);
            assert_eq!(out.ints, [want], "{op:?}({a}, {b}) imm={imm_form}");
        }
    }
}

/// Every op in both operand forms over every operand pair with a nonzero
/// divisor, under all five modes; and every zero divisor must trap
/// `DivideByZero` at the dividing instruction.
#[test]
fn alu_table_is_exact() {
    use hardbound::core::Pc;
    use hardbound::isa::BinOp;
    for mode in ALL_MODES {
        let cfg = machine_config(mode, PointerEncoding::Intern4);
        for op in ALL_BINOPS {
            for imm_form in [false, true] {
                let mut pairs = Vec::new();
                let mut want = Vec::new();
                for a in TABLE_OPERANDS {
                    for b in TABLE_OPERANDS {
                        if let Some(v) = alu_spec(op, a, b) {
                            pairs.push((a, b));
                            want.push(v);
                        }
                    }
                }
                let out = run_alu(&cfg, op, imm_form, &pairs);
                assert!(out.is_success(), "{op:?}/{mode}: {:?}", out.trap);
                assert_eq!(out.ints, want, "{op:?}/imm={imm_form}/{mode}");

                if !matches!(op, BinOp::Div | BinOp::Rem) {
                    continue;
                }
                for a in TABLE_OPERANDS {
                    let out = run_alu(&cfg, op, imm_form, &[(a, 0)]);
                    let pc = Pc {
                        func: FuncId(0),
                        index: if imm_form { 1 } else { 2 },
                    };
                    let label = format!("{op:?}({a}, 0)/imm={imm_form}/{mode}");
                    assert_eq!(out.trap, Some(Trap::DivideByZero { pc }), "{label}");
                    assert_eq!(out.stats.uops, u64::from(pc.index) + 1, "{label}");
                    assert!(out.ints.is_empty(), "{label}");
                }
            }
        }
    }
}

/// The bounds µops (`setbound` in both forms, `unbound`, `codeptr`,
/// `readbase`, `readbound`) and Figure 3's `add`/`sub` propagation, under
/// all five modes. Each case prints the result's value, base and bound.
#[test]
fn bounds_uop_table_is_exact() {
    use hardbound::isa::BinOp;
    let p = layout::HEAP_BASE + 16;
    let q = layout::HEAP_BASE + 0x100;
    for mode in ALL_MODES {
        let cfg = machine_config(mode, PointerEncoding::Intern4);
        let code_meta = if cfg.hardbound.is_some() {
            (-1, -1)
        } else {
            (0, 0)
        };
        let mut f = FunctionBuilder::new("bounds", 0);
        let mut want: Vec<i32> = Vec::new();
        let mut show = |f: &mut FunctionBuilder, r: Reg, value: u32, meta: (i32, i32)| {
            f.mov(Reg::A0, r);
            f.sys(SysCall::PrintInt);
            f.readbase(Reg::A0, r);
            f.sys(SysCall::PrintInt);
            f.readbound(Reg::A0, r);
            f.sys(SysCall::PrintInt);
            want.extend([value as i32, meta.0, meta.1]);
        };
        let (pi, qi) = (p as i32, q as i32);
        f.li(Reg::T0, p);
        f.li(Reg::T1, 24);
        f.setbound(Reg::A1, Reg::T0, Reg::T1);
        show(&mut f, Reg::A1, p, (pi, pi + 24));
        f.li(Reg::T2, q);
        f.setbound_imm(Reg::A2, Reg::T2, 8);
        show(&mut f, Reg::A2, q, (qi, qi + 8));
        f.unbound(Reg::A3, Reg::T0);
        show(&mut f, Reg::A3, p, (0, -1));
        f.code_ptr(Reg::A4, FuncId(0));
        show(&mut f, Reg::A4, layout::code_addr(0), code_meta);
        // Figure 3 A/B: the first pointer operand's bounds win.
        f.li(Reg::T1, 4);
        f.add(Reg::A5, Reg::A1, Reg::T1);
        show(&mut f, Reg::A5, p + 4, (pi, pi + 24));
        f.add(Reg::A5, Reg::T1, Reg::A2);
        show(&mut f, Reg::A5, q + 4, (qi, qi + 8));
        f.add(Reg::A5, Reg::A2, Reg::A1);
        show(&mut f, Reg::A5, p + q, (qi, qi + 8));
        f.sub(Reg::A5, Reg::A1, Reg::T1);
        show(&mut f, Reg::A5, p - 4, (pi, pi + 24));
        f.sub(Reg::A5, Reg::T1, Reg::A2);
        show(&mut f, Reg::A5, 4u32.wrapping_sub(q), (qi, qi + 8));
        f.sub(Reg::A5, Reg::A1, 8);
        show(&mut f, Reg::A5, p - 8, (pi, pi + 24));
        f.addi(Reg::A5, Reg::A3, 8);
        show(&mut f, Reg::A5, p + 8, (0, -1));
        f.add(Reg::A5, Reg::T0, Reg::T1);
        show(&mut f, Reg::A5, p + 4, (0, 0));
        f.bin(BinOp::Mul, Reg::A5, Reg::A1, 1);
        show(&mut f, Reg::A5, p, (0, 0));
        f.bin(BinOp::And, Reg::A5, Reg::A1, Reg::A2);
        show(&mut f, Reg::A5, p & q, (0, 0));
        f.li(Reg::A0, 0);
        f.halt();
        let program = Program::with_entry(vec![f.finish()]);
        let label = format!("bounds/{mode}");
        let out = Machine::new(program, cfg).run();
        assert!(out.is_success(), "{label}: {:?}", out.trap);
        assert_eq!(out.ints, want, "{label}");
        assert_eq!(
            out.stats.setbound_uops, 3,
            "{label}: two setbounds, one unbound"
        );
    }
}
