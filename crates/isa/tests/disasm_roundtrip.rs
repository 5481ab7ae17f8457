//! Golden and generative round-trip tests for the disassembler/assembler
//! pair: `parse_inst(inst.to_string())` must reproduce the instruction
//! exactly, and a golden listing pins the concrete text so the rendering
//! cannot drift silently.

use hardbound_isa::fuzz::{insts, FuzzRng};
use hardbound_isa::{parse_inst, parse_listing, BinOp, CmpOp, FuncId, Inst, Operand, Reg, Width};

/// The golden listing: one line per instruction variant, exactly as the
/// disassembler renders it today. Changing `Display` output must break this
/// test, forcing the assembler (and any downstream golden files) to move in
/// lockstep.
const GOLDEN: &[(&str, Inst)] = &[
    (
        "li    a0, 0xdeadbeef",
        Inst::Li {
            rd: Reg::A0,
            imm: 0xdead_beef,
        },
    ),
    (
        "mov   t2, sp",
        Inst::Mov {
            rd: Reg::T2,
            rs: Reg::SP,
        },
    ),
    (
        "add   a0, a1, a2",
        Inst::Bin {
            op: BinOp::Add,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Operand::Reg(Reg::A2),
        },
    ),
    (
        "sra   t0, t1, -3",
        Inst::Bin {
            op: BinOp::Sra,
            rd: Reg::T0,
            rs1: Reg::T1,
            rs2: Operand::Imm(-3),
        },
    ),
    (
        "cltu  a0, a1, 3",
        Inst::Cmp {
            op: CmpOp::LtU,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Operand::Imm(3),
        },
    ),
    (
        "lw    a2, [a0+8]",
        Inst::Load {
            width: Width::Word,
            rd: Reg::A2,
            addr: Reg::A0,
            offset: 8,
        },
    ),
    (
        "lb    zero, [gp+0]",
        Inst::Load {
            width: Width::Byte,
            rd: Reg::ZERO,
            addr: Reg::GP,
            offset: 0,
        },
    ),
    (
        "sb    [a0-4], a2",
        Inst::Store {
            width: Width::Byte,
            src: Reg::A2,
            addr: Reg::A0,
            offset: -4,
        },
    ),
    (
        "sw    [fp-12], t0",
        Inst::Store {
            width: Width::Word,
            src: Reg::T0,
            addr: Reg::FP,
            offset: -12,
        },
    ),
    (
        "setbound a0, a0, 16",
        Inst::SetBound {
            rd: Reg::A0,
            rs: Reg::A0,
            size: Operand::Imm(16),
        },
    ),
    (
        "unbound a1, a0",
        Inst::Unbound {
            rd: Reg::A1,
            rs: Reg::A0,
        },
    ),
    (
        "codeptr a0, fn#3",
        Inst::CodePtr {
            rd: Reg::A0,
            func: FuncId(3),
        },
    ),
    (
        "readbase a1, a0",
        Inst::ReadBase {
            rd: Reg::A1,
            rs: Reg::A0,
        },
    ),
    (
        "readbound a1, a0",
        Inst::ReadBound {
            rd: Reg::A1,
            rs: Reg::A0,
        },
    ),
    (
        "bgeu  a0, t1 -> 42",
        Inst::Branch {
            op: CmpOp::GeU,
            rs1: Reg::A0,
            rs2: Operand::Reg(Reg::T1),
            target: 42,
        },
    ),
    (
        "beq   a0, 0 -> 7",
        Inst::Branch {
            op: CmpOp::Eq,
            rs1: Reg::A0,
            rs2: Operand::Imm(0),
            target: 7,
        },
    ),
    ("jmp   -> 9", Inst::Jump { target: 9 }),
    ("call  fn#2", Inst::Call { func: FuncId(2) }),
    ("calli t1", Inst::CallInd { rs: Reg::T1 }),
    ("ret", Inst::Ret),
    (
        "sys   halt",
        Inst::Sys {
            call: hardbound_isa::SysCall::Halt,
        },
    ),
    (
        "sys   ot_check_arith",
        Inst::Sys {
            call: hardbound_isa::SysCall::OtCheckArith,
        },
    ),
    ("nop", Inst::Nop),
];

#[test]
fn golden_listing_renders_exactly() {
    for (text, inst) in GOLDEN {
        assert_eq!(&inst.to_string(), text, "disassembly drifted for {inst:?}");
    }
}

#[test]
fn golden_listing_reassembles_exactly() {
    for (text, inst) in GOLDEN {
        assert_eq!(
            &parse_inst(text).unwrap(),
            inst,
            "assembly drifted for {text:?}"
        );
    }
}

#[test]
fn golden_listing_parses_as_a_unit() {
    let listing: String = GOLDEN
        .iter()
        .map(|(text, _)| format!("  {text}\n"))
        .collect();
    let commented = format!("; golden listing\n\n{listing}");
    let parsed = parse_listing(&commented).expect("golden listing must assemble");
    let expected: Vec<Inst> = GOLDEN.iter().map(|&(_, inst)| inst).collect();
    assert_eq!(parsed, expected);
}

/// The generative half: for many seeds, every random instruction must
/// survive disassemble → reassemble with an identical encoding.
#[test]
fn random_instructions_roundtrip() {
    for seed in 0..32u64 {
        for inst in insts(seed, 512) {
            let text = inst.to_string();
            let back = parse_inst(&text)
                .unwrap_or_else(|e| panic!("seed {seed}: unparseable disassembly {text:?}: {e}"));
            assert_eq!(back, inst, "seed {seed}: round trip diverged via {text:?}");
        }
    }
}

/// `Program::disassemble` output (function headers + indexed instruction
/// lines, the exact `hbrun --disasm` format) parses back to the program's
/// instruction stream with no preprocessing.
#[test]
fn program_disassembly_roundtrips() {
    use hardbound_isa::{FunctionBuilder, Program};

    let mut f = FunctionBuilder::new("main", 0);
    f.li(Reg::A0, 0x1000);
    f.setbound_imm(Reg::A0, Reg::A0, 4);
    f.load(Width::Word, Reg::A1, Reg::A0, 0);
    f.halt();
    let program = Program::with_entry(vec![f.finish()]);

    let parsed = parse_listing(&program.disassemble()).expect("disassembly assembles");
    let expected: Vec<Inst> = program
        .functions
        .iter()
        .flat_map(|f| f.insts.clone())
        .collect();
    assert_eq!(parsed, expected);
}

/// Whole random listings round-trip through the multi-line parser too.
#[test]
fn random_listings_roundtrip() {
    let mut rng = FuzzRng::new(0xB0B);
    for _ in 0..16 {
        let block: Vec<Inst> = (0..rng.below(64) + 1).map(|_| rng.inst()).collect();
        let text: String = block.iter().map(|i| format!("{i}\n")).collect();
        assert_eq!(parse_listing(&text).expect("listing assembles"), block);
    }
}

/// Indices of the padding function's pinned (non-`nop`) instructions: the
/// `{ii:4}` field is padded below 1000, exactly full at 1000–9999, and
/// overflows (wider, unpadded) at 10000.
const PAD_PINNED: [usize; 3] = [999, 1000, 10_000];

/// A whole program exercising every corner of the listing format: the
/// header comments (`; entry`, `; globals`, `; data` with empty, short and
/// full-width addresses), function headers, every instruction variant,
/// every ALU and compare mnemonic's padding, the extreme immediates and
/// offsets, every register name, and instruction indices on both sides of
/// the four-digit padding boundary.
fn listing_corner_program() -> hardbound_isa::Program {
    use hardbound_isa::{DataInit, Function, Program, SysCall};

    let r = Reg::new;
    let mut main = vec![
        Inst::Li { rd: r(4), imm: 0 },
        Inst::Li {
            rd: r(5),
            imm: u32::MAX,
        },
        Inst::Bin {
            op: BinOp::Add,
            rd: r(12),
            rs1: r(13),
            rs2: Operand::Imm(i32::MIN),
        },
        Inst::Load {
            width: Width::Word,
            rd: r(6),
            addr: r(4),
            offset: 0,
        },
        Inst::Store {
            width: Width::Byte,
            src: r(6),
            addr: r(1),
            offset: i32::MIN,
        },
        Inst::Load {
            width: Width::Byte,
            rd: r(7),
            addr: r(2),
            offset: i32::MAX,
        },
        Inst::Store {
            width: Width::Word,
            src: r(7),
            addr: r(3),
            offset: -1,
        },
        Inst::Cmp {
            op: CmpOp::Ge,
            rd: r(8),
            rs1: r(9),
            rs2: Operand::Imm(i32::MAX),
        },
        Inst::SetBound {
            rd: r(4),
            rs: r(4),
            size: Operand::Reg(r(31)),
        },
        // Indices 9 and 10: the last padded single digit and the first two.
        Inst::Unbound { rd: r(5), rs: r(4) },
        Inst::CodePtr {
            rd: r(6),
            func: FuncId(u32::MAX),
        },
        Inst::ReadBase { rd: r(7), rs: r(4) },
        Inst::ReadBound { rd: r(8), rs: r(4) },
        Inst::Branch {
            op: CmpOp::Ne,
            rs1: r(4),
            rs2: Operand::Imm(-1),
            target: u32::MAX,
        },
        Inst::Branch {
            op: CmpOp::LtU,
            rs1: r(0),
            rs2: Operand::Reg(r(31)),
            target: 0,
        },
        Inst::Jump { target: 10_000 },
        Inst::Call { func: FuncId(1) },
        Inst::CallInd { rs: r(30) },
        Inst::Nop,
    ];
    for op in [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Mulh,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Sra,
    ] {
        main.push(Inst::Bin {
            op,
            rd: r(14),
            rs1: r(15),
            rs2: Operand::Imm(7),
        });
    }
    for op in [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::LtU,
        CmpOp::GeU,
    ] {
        main.push(Inst::Cmp {
            op,
            rd: r(16),
            rs1: r(17),
            rs2: Operand::Reg(r(18)),
        });
    }
    // Every register name, `zero` through `t19`.
    for k in 0..16 {
        main.push(Inst::Mov {
            rd: r(2 * k),
            rs: r(2 * k + 1),
        });
    }
    for call in [
        SysCall::PrintInt,
        SysCall::PrintChar,
        SysCall::Abort,
        SysCall::OtRegister,
        SysCall::OtUnregister,
        SysCall::OtCheck,
        SysCall::OtCheckArith,
        SysCall::Halt,
    ] {
        main.push(Inst::Sys { call });
    }
    main.push(Inst::Ret);

    let mut pad = vec![Inst::Nop; 10_001];
    pad[999] = Inst::Li {
        rd: r(4),
        imm: 0x0123_abcd,
    };
    pad[1000] = Inst::Jump { target: 999 };
    pad[10_000] = Inst::Ret;

    Program {
        functions: vec![
            Function {
                name: "main".to_owned(),
                insts: main,
                frame_size: 16,
                num_args: 0,
            },
            Function {
                name: "pad_out".to_owned(),
                insts: pad,
                frame_size: 4_294_967_288,
                num_args: 8,
            },
        ],
        entry: FuncId(0),
        globals_size: 4096,
        data: vec![
            DataInit {
                addr: 0,
                bytes: vec![],
            },
            DataInit {
                addr: 0x1000_0040,
                bytes: vec![0x00, 0x0f, 0x10, 0xff, b'h', b'i'],
            },
            DataInit {
                addr: u32::MAX,
                bytes: vec![0xab],
            },
        ],
    }
}

/// Renders the corner program, keeping every line except the padding
/// function's filler `nop`s; each filler line is checked against an
/// independent `format!` of its expected text as it is dropped.
fn corner_listing_without_fillers() -> String {
    let text = listing_corner_program().disassemble();
    let mut kept = String::new();
    let mut in_pad = false;
    for line in text.lines() {
        if line.starts_with("fn#1 ") {
            in_pad = true;
        } else if in_pad {
            let (idx, body) = line
                .trim_start()
                .split_once(": ")
                .expect("instruction line");
            let ii: usize = idx.parse().expect("instruction index");
            if !PAD_PINNED.contains(&ii) {
                assert_eq!(body, "nop", "filler {ii}");
                assert_eq!(line, format!("  {ii:4}: nop"), "filler {ii}");
                continue;
            }
        }
        kept.push_str(line);
        kept.push('\n');
    }
    kept
}

/// The corner program's listing, filler `nop`s elided. Every persisted
/// `ProgramId` hashes text in this format, so any change here is a
/// fingerprint change.
const CORNER_GOLDEN: &str = r"; entry: fn#0
; globals: 4096
; data 0x00000000:
; data 0x10000040: 00 0f 10 ff 68 69
; data 0xffffffff: ab
fn#0 <main> (args=0, frame=16):
     0: li    a0, 0x0
     1: li    a1, 0xffffffff
     2: add   t0, t1, -2147483648
     3: lw    a2, [a0+0]
     4: sb    [sp-2147483648], a2
     5: lb    a3, [fp+2147483647]
     6: sw    [gp-1], a3
     7: cge   a4, a5, 2147483647
     8: setbound a0, a0, t19
     9: unbound a1, a0
    10: codeptr a2, fn#4294967295
    11: readbase a3, a0
    12: readbound a4, a0
    13: bne   a0, -1 -> 4294967295
    14: bltu  zero, t19 -> 0
    15: jmp   -> 10000
    16: call  fn#1
    17: calli t18
    18: nop
    19: add   t2, t3, 7
    20: sub   t2, t3, 7
    21: mul   t2, t3, 7
    22: mulh  t2, t3, 7
    23: div   t2, t3, 7
    24: rem   t2, t3, 7
    25: and   t2, t3, 7
    26: or    t2, t3, 7
    27: xor   t2, t3, 7
    28: shl   t2, t3, 7
    29: shr   t2, t3, 7
    30: sra   t2, t3, 7
    31: ceq   t4, t5, t6
    32: cne   t4, t5, t6
    33: clt   t4, t5, t6
    34: cle   t4, t5, t6
    35: cgt   t4, t5, t6
    36: cge   t4, t5, t6
    37: cltu  t4, t5, t6
    38: cgeu  t4, t5, t6
    39: mov   zero, sp
    40: mov   fp, gp
    41: mov   a0, a1
    42: mov   a2, a3
    43: mov   a4, a5
    44: mov   a6, a7
    45: mov   t0, t1
    46: mov   t2, t3
    47: mov   t4, t5
    48: mov   t6, t7
    49: mov   t8, t9
    50: mov   t10, t11
    51: mov   t12, t13
    52: mov   t14, t15
    53: mov   t16, t17
    54: mov   t18, t19
    55: sys   print_int
    56: sys   print_char
    57: sys   abort
    58: sys   ot_register
    59: sys   ot_unregister
    60: sys   ot_check
    61: sys   ot_check_arith
    62: sys   halt
    63: ret
fn#1 <pad_out> (args=8, frame=4294967288):
   999: li    a0, 0x123abcd
  1000: jmp   -> 999
  10000: ret
";

#[test]
fn whole_program_listing_is_pinned() {
    assert_eq!(corner_listing_without_fillers(), CORNER_GOLDEN);
}

/// Every instruction line of a whole listing is `  <idx>: <body>` with the
/// body exactly the instruction's `Display` text, and the listing parses
/// back to the same image.
#[test]
fn listing_lines_match_display_and_reassemble() {
    let program = listing_corner_program();
    let text = program.disassemble();
    let bodies: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("  "))
        .map(|l| l.split_once(": ").expect("instruction line").1)
        .collect();
    let insts: Vec<&Inst> = program.functions.iter().flat_map(|f| &f.insts).collect();
    assert_eq!(bodies.len(), insts.len());
    for (body, inst) in bodies.iter().zip(insts) {
        assert_eq!(*body, inst.to_string(), "{inst:?}");
    }
    assert_eq!(hardbound_isa::parse_program(&text).unwrap(), program);
}
