//! Pre-decoded micro-operations.
//!
//! [`Machine::step`](hardbound_core::Machine::step) re-derives three things
//! on every dynamic instruction: which function it is in, whether the second
//! ALU operand is a register or an immediate, and whether the HardBound
//! extension (and which [`SafetyMode`](hardbound_core::SafetyMode)) applies
//! to a memory access. All three are properties of the *static* instruction
//! under a fixed [`MachineConfig`], so the block engine resolves them once
//! at decode time — the same move the paper's µop-insertion pipeline makes
//! when it materializes bounds-check µops per static memory operation
//! (§4.4) — and dispatches a flat array of [`Uop`]s afterwards.
//!
//! µops that can trap or transfer control carry their own instruction
//! index (`idx`), so a decoded block is position-independent. That lets
//! [`decode_block`] build *superblocks*: decoding follows unconditional
//! jumps (each one emitting a [`Uop::FollowedJump`] so µop accounting stays
//! exact) until it would revisit an already-emitted instruction, hit a
//! two-way terminator, or exceed [`FOLLOW_CAP`].

use hardbound_core::{MachineConfig, Meta, Pc};
use hardbound_isa::{BinOp, CmpOp, FuncId, Inst, Operand, Program, Reg, Width};

/// Maximum µops in one decoded block (bounds superblock growth).
pub const FOLLOW_CAP: usize = 64;

/// One pre-decoded micro-operation. Decoding is one-to-one with dynamic
/// [`Inst`]s, so µop counts (and therefore the fuel meter and every
/// statistic) are preserved exactly; trap program counters come from the
/// embedded `idx` fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Uop {
    /// `rd ← imm`, metadata cleared.
    Li {
        /// Destination.
        rd: Reg,
        /// Immediate value.
        imm: u32,
    },
    /// `rd ← rs`, metadata copied.
    Mov {
        /// Destination.
        rd: Reg,
        /// Source.
        rs: Reg,
    },
    /// Pointer-forming add, register second operand.
    AddRR {
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// Pointer-forming add, immediate second operand.
    AddRI {
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Immediate (already cast to the wrapping-add operand).
        imm: u32,
    },
    /// Pointer-forming subtract, register second operand.
    SubRR {
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// Pointer-forming subtract, immediate second operand.
    SubRI {
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Immediate.
        imm: u32,
    },
    /// Non-propagating ALU op (`mul`…`sra`), register second operand.
    BinRR {
        /// Operation (never `Add`/`Sub`; those decode to dedicated µops).
        op: BinOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
        /// Own position (for the divide-by-zero trap pc).
        pc: Pc,
    },
    /// Non-propagating ALU op, immediate second operand.
    BinRI {
        /// Operation.
        op: BinOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Immediate.
        imm: u32,
        /// Own position.
        pc: Pc,
    },
    /// Comparison flag, register second operand.
    CmpRR {
        /// Predicate.
        op: CmpOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// Comparison flag, immediate second operand.
    CmpRI {
        /// Predicate.
        op: CmpOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Immediate.
        imm: u32,
    },
    /// Load on the baseline machine: no implicit check, no tag traffic
    /// (resolved at decode time from the configuration).
    LoadRaw {
        /// Access width.
        width: Width,
        /// Destination.
        rd: Reg,
        /// Address register.
        addr: Reg,
        /// Constant byte offset.
        offset: i32,
        /// Own position (trap pc).
        pc: Pc,
    },
    /// Load with the HardBound extension active: the Figure 3 C check µop
    /// is materialized here.
    LoadHb {
        /// Access width.
        width: Width,
        /// Destination.
        rd: Reg,
        /// Address register.
        addr: Reg,
        /// Constant byte offset.
        offset: i32,
        /// Own position (trap pc).
        pc: Pc,
    },
    /// Store on the baseline machine.
    StoreRaw {
        /// Access width.
        width: Width,
        /// Value register.
        src: Reg,
        /// Address register.
        addr: Reg,
        /// Constant byte offset.
        offset: i32,
        /// Own position (trap pc).
        pc: Pc,
    },
    /// Store with the HardBound extension active (Figure 3 D).
    StoreHb {
        /// Access width.
        width: Width,
        /// Value register.
        src: Reg,
        /// Address register.
        addr: Reg,
        /// Constant byte offset.
        offset: i32,
        /// Own position (trap pc).
        pc: Pc,
    },
    /// `setbound` with the size in a register.
    SetBoundRR {
        /// Destination.
        rd: Reg,
        /// Pointer-value source.
        rs: Reg,
        /// Size register.
        size: Reg,
        /// Own position (the bounds-provenance site recorded for
        /// violation forensics — dispatch bypasses `Machine::step`, so
        /// the site travels with the µop).
        pc: Pc,
    },
    /// `setbound` with an immediate size.
    SetBoundRI {
        /// Destination.
        rd: Reg,
        /// Pointer-value source.
        rs: Reg,
        /// Size in bytes.
        size: u32,
        /// Own position (bounds-provenance site).
        pc: Pc,
    },
    /// The §3.2 escape hatch.
    Unbound {
        /// Destination.
        rd: Reg,
        /// Source.
        rs: Reg,
    },
    /// Materialize a function pointer; the sidecar metadata (CODE vs NONE)
    /// is resolved from the configuration at decode time.
    CodePtr {
        /// Destination.
        rd: Reg,
        /// Pre-computed code-region address.
        value: u32,
        /// Pre-resolved sidecar metadata.
        meta: Meta,
    },
    /// Extract sidecar base.
    ReadBase {
        /// Destination.
        rd: Reg,
        /// Source.
        rs: Reg,
    },
    /// Extract sidecar bound.
    ReadBound {
        /// Destination.
        rd: Reg,
        /// Source.
        rs: Reg,
    },
    /// No operation.
    Nop,
    /// An unconditional jump the decoder followed: retires one µop (the
    /// dynamic `jmp`) with no other effect — the jump's effect is that the
    /// following µops in the block are the target's.
    FollowedJump,
    /// A direct call to a straight-line leaf function that the decoder
    /// inlined: performs the full calling sequence (frame push, stack
    /// check), then execution continues *in this block* with the callee's
    /// µops, ending at the matching [`Uop::InlineRet`].
    InlineCall {
        /// Callee.
        func: FuncId,
        /// Return-point instruction index in the calling function.
        ret: u32,
    },
    /// The return of an inlined leaf callee: pops the frame pushed by the
    /// matching [`Uop::InlineCall`] (never halts — the frame is always
    /// there) and continues in-block at the caller's µops.
    InlineRet,
    /// Block terminator: conditional branch, register second operand.
    BranchRR {
        /// Predicate.
        op: CmpOp,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
        /// Taken-path instruction index.
        target: u32,
        /// Untaken-path instruction index (the branch's own index + 1).
        fall: u32,
    },
    /// Block terminator: conditional branch, immediate second operand.
    BranchRI {
        /// Predicate.
        op: CmpOp,
        /// First source.
        rs1: Reg,
        /// Immediate.
        imm: u32,
        /// Taken-path instruction index.
        target: u32,
        /// Untaken-path instruction index.
        fall: u32,
    },
    /// Block terminator: unconditional jump (not followed by the decoder —
    /// a loop backedge or a jump into already-emitted territory). Retires
    /// the dynamic `jmp` µop.
    Jump {
        /// Destination instruction index.
        target: u32,
    },
    /// Block terminator synthesized by a superblock-cap cut: transfers to
    /// `target` **without retiring a µop** — there is no dynamic
    /// instruction behind it, execution merely resumes in another block.
    Fall {
        /// Destination instruction index.
        target: u32,
    },
    /// Block terminator: direct call, handled natively through
    /// [`ExecState::call`](hardbound_core::ExecState::call).
    Call {
        /// Callee.
        func: FuncId,
        /// Return-point instruction index (the call's own index + 1).
        ret: u32,
    },
    /// Block terminator: return, handled natively.
    Ret,
    /// Block terminator executed by falling back to
    /// [`Machine::step`](hardbound_core::Machine::step): indirect calls and
    /// environment calls (I/O, halt, object-table hooks).
    Step {
        /// The instruction's own index (the machine is positioned there
        /// before stepping).
        idx: u32,
    },
}

impl Uop {
    /// Whether this µop ends a basic block.
    #[must_use]
    pub fn is_terminator(self) -> bool {
        matches!(
            self,
            Uop::BranchRR { .. }
                | Uop::BranchRI { .. }
                | Uop::Jump { .. }
                | Uop::Fall { .. }
                | Uop::Call { .. }
                | Uop::Ret
                | Uop::Step { .. }
        )
    }
}

/// Decodes the instruction at `func`/`idx` under `cfg`.
#[must_use]
pub fn decode_inst(inst: Inst, cfg: &MachineConfig, func: FuncId, idx: u32) -> Uop {
    let hb = cfg.hardbound.is_some();
    let pc = Pc { func, index: idx };
    match inst {
        Inst::Li { rd, imm } => Uop::Li { rd, imm },
        Inst::Mov { rd, rs } => Uop::Mov { rd, rs },
        Inst::Bin { op, rd, rs1, rs2 } => match (op, rs2) {
            (BinOp::Add, Operand::Reg(rs2)) => Uop::AddRR { rd, rs1, rs2 },
            (BinOp::Add, Operand::Imm(i)) => Uop::AddRI {
                rd,
                rs1,
                imm: i as u32,
            },
            (BinOp::Sub, Operand::Reg(rs2)) => Uop::SubRR { rd, rs1, rs2 },
            (BinOp::Sub, Operand::Imm(i)) => Uop::SubRI {
                rd,
                rs1,
                imm: i as u32,
            },
            (op, Operand::Reg(rs2)) => Uop::BinRR {
                op,
                rd,
                rs1,
                rs2,
                pc,
            },
            (op, Operand::Imm(i)) => Uop::BinRI {
                op,
                rd,
                rs1,
                imm: i as u32,
                pc,
            },
        },
        Inst::Cmp { op, rd, rs1, rs2 } => match rs2 {
            Operand::Reg(rs2) => Uop::CmpRR { op, rd, rs1, rs2 },
            Operand::Imm(i) => Uop::CmpRI {
                op,
                rd,
                rs1,
                imm: i as u32,
            },
        },
        Inst::Load {
            width,
            rd,
            addr,
            offset,
        } => {
            if hb {
                Uop::LoadHb {
                    width,
                    rd,
                    addr,
                    offset,
                    pc,
                }
            } else {
                Uop::LoadRaw {
                    width,
                    rd,
                    addr,
                    offset,
                    pc,
                }
            }
        }
        Inst::Store {
            width,
            src,
            addr,
            offset,
        } => {
            if hb {
                Uop::StoreHb {
                    width,
                    src,
                    addr,
                    offset,
                    pc,
                }
            } else {
                Uop::StoreRaw {
                    width,
                    src,
                    addr,
                    offset,
                    pc,
                }
            }
        }
        Inst::SetBound { rd, rs, size } => match size {
            Operand::Reg(size) => Uop::SetBoundRR { rd, rs, size, pc },
            Operand::Imm(i) => Uop::SetBoundRI {
                rd,
                rs,
                size: i as u32,
                pc,
            },
        },
        Inst::Unbound { rd, rs } => Uop::Unbound { rd, rs },
        Inst::CodePtr { rd, func } => Uop::CodePtr {
            rd,
            value: func.code_addr(),
            meta: cfg.code_pointer_meta(),
        },
        Inst::ReadBase { rd, rs } => Uop::ReadBase { rd, rs },
        Inst::ReadBound { rd, rs } => Uop::ReadBound { rd, rs },
        Inst::Branch {
            op,
            rs1,
            rs2,
            target,
        } => match rs2 {
            Operand::Reg(rs2) => Uop::BranchRR {
                op,
                rs1,
                rs2,
                target,
                fall: idx + 1,
            },
            Operand::Imm(i) => Uop::BranchRI {
                op,
                rs1,
                imm: i as u32,
                target,
                fall: idx + 1,
            },
        },
        Inst::Jump { target } => Uop::Jump { target },
        Inst::Call { func } => Uop::Call { func, ret: idx + 1 },
        Inst::CallInd { .. } | Inst::Sys { .. } => Uop::Step { idx },
        Inst::Ret => Uop::Ret,
        Inst::Nop => Uop::Nop,
    }
}

/// Maximum instruction count of a leaf callee that [`decode_block`]
/// inlines into the calling superblock.
pub const INLINE_CAP: usize = 16;

/// Whether `f` is a straight-line leaf: every instruction but the last is
/// a plain data µop and the last is `ret`. Such callees can be inlined
/// into a caller's superblock — the calling sequence still executes
/// (frame push/pop, stack check), only the block transitions disappear.
fn inlinable_leaf(f: &hardbound_isa::Function) -> bool {
    f.insts.len() <= INLINE_CAP
        && f.insts.last() == Some(&Inst::Ret)
        && f.insts[..f.insts.len() - 1].iter().all(|i| {
            !matches!(
                i,
                Inst::Branch { .. }
                    | Inst::Jump { .. }
                    | Inst::Call { .. }
                    | Inst::CallInd { .. }
                    | Inst::Sys { .. }
                    | Inst::Ret
            )
        })
}

/// Decodes the superblock of `func` beginning at instruction index
/// `entry`: straight-line µops, following unconditional jumps (each
/// emitting a [`Uop::FollowedJump`]) and inlining straight-line leaf
/// callees ([`Uop::InlineCall`]/[`Uop::InlineRet`]), until a two-way
/// terminator, a jump back into an already-emitted instruction, or
/// [`FOLLOW_CAP`].
///
/// Validated programs always end functions with an unconditional transfer,
/// so a terminator is guaranteed before the slice runs out.
#[must_use]
pub fn decode_block(
    program: &Program,
    func: FuncId,
    entry: u32,
    cfg: &MachineConfig,
) -> Box<[Uop]> {
    let insts = &program.func(func).insts;
    let mut uops = Vec::new();
    let mut emitted: Vec<u32> = Vec::new();
    let mut pc = entry;
    loop {
        let u = decode_inst(insts[pc as usize], cfg, func, pc);
        match u {
            Uop::Jump { target } => {
                if uops.len() + 1 < FOLLOW_CAP && !emitted.contains(&target) {
                    // Follow the jump: the dynamic `jmp` still retires.
                    uops.push(Uop::FollowedJump);
                    emitted.push(pc);
                    pc = target;
                    continue;
                }
                uops.push(u);
                break;
            }
            Uop::Call { func: callee, ret } => {
                let body = &program.func(callee).insts;
                if uops.len() + body.len() + 2 < FOLLOW_CAP && inlinable_leaf(program.func(callee))
                {
                    uops.push(Uop::InlineCall { func: callee, ret });
                    for (i, &inst) in body[..body.len() - 1].iter().enumerate() {
                        uops.push(decode_inst(inst, cfg, callee, i as u32));
                    }
                    uops.push(Uop::InlineRet);
                    emitted.push(pc);
                    pc = ret;
                    continue;
                }
                uops.push(u);
                break;
            }
            u if u.is_terminator() => {
                uops.push(u);
                break;
            }
            u => {
                emitted.push(pc);
                uops.push(u);
                pc += 1;
                if uops.len() + 1 >= FOLLOW_CAP {
                    // Cap cut mid-run: continue in the block decoded at `pc`.
                    uops.push(Uop::Fall { target: pc });
                    break;
                }
            }
        }
    }
    debug_assert!(
        uops.last().is_some_and(|u| u.is_terminator()),
        "blocks always end in a terminator"
    );
    uops.into_boxed_slice()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardbound_isa::{Function, SysCall};

    fn hb_cfg() -> MachineConfig {
        MachineConfig::default()
    }

    fn base_cfg() -> MachineConfig {
        MachineConfig::baseline()
    }

    fn program_of(insts: Vec<Inst>) -> Program {
        Program::with_entry(vec![Function {
            name: "main".into(),
            insts,
            frame_size: 0,
            num_args: 0,
        }])
    }

    const F0: FuncId = FuncId(0);

    #[test]
    fn memory_ops_specialize_on_configuration() {
        let load = Inst::Load {
            width: Width::Word,
            rd: Reg::A0,
            addr: Reg::A1,
            offset: 4,
        };
        assert!(matches!(
            decode_inst(load, &hb_cfg(), F0, 7),
            Uop::LoadHb {
                offset: 4,
                pc: Pc { func: F0, index: 7 },
                ..
            }
        ));
        assert!(matches!(
            decode_inst(load, &base_cfg(), F0, 7),
            Uop::LoadRaw { offset: 4, .. }
        ));
    }

    #[test]
    fn code_pointer_meta_resolved_at_decode() {
        let inst = Inst::CodePtr {
            rd: Reg::A0,
            func: FuncId(3),
        };
        assert!(matches!(
            decode_inst(inst, &hb_cfg(), F0, 0),
            Uop::CodePtr {
                meta: Meta::CODE,
                ..
            }
        ));
        assert!(matches!(
            decode_inst(inst, &base_cfg(), F0, 0),
            Uop::CodePtr {
                meta: Meta::NONE,
                ..
            }
        ));
    }

    #[test]
    fn operands_resolve_to_rr_ri_variants() {
        let add_ri = Inst::Bin {
            op: BinOp::Add,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Operand::Imm(-4),
        };
        assert!(
            matches!(decode_inst(add_ri, &hb_cfg(), F0, 0), Uop::AddRI { imm, .. } if imm == (-4i32) as u32)
        );
        let mul_rr = Inst::Bin {
            op: BinOp::Mul,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Operand::Reg(Reg::A2),
        };
        assert!(matches!(
            decode_inst(mul_rr, &hb_cfg(), F0, 0),
            Uop::BinRR { op: BinOp::Mul, .. }
        ));
    }

    #[test]
    fn branches_carry_both_successors() {
        let b = Inst::Branch {
            op: CmpOp::Eq,
            rs1: Reg::A0,
            rs2: Operand::Imm(0),
            target: 3,
        };
        assert!(matches!(
            decode_inst(b, &hb_cfg(), F0, 9),
            Uop::BranchRI {
                target: 3,
                fall: 10,
                ..
            }
        ));
    }

    #[test]
    fn blocks_stop_at_two_way_terminators() {
        let p = program_of(vec![
            Inst::Li {
                rd: Reg::A0,
                imm: 1,
            },
            Inst::Nop,
            Inst::Branch {
                op: CmpOp::Eq,
                rs1: Reg::A0,
                rs2: Operand::Imm(0),
                target: 0,
            },
            Inst::Sys {
                call: SysCall::Halt,
            },
        ]);
        let block = decode_block(&p, F0, 0, &hb_cfg());
        assert_eq!(block.len(), 3);
        assert!(matches!(
            block[2],
            Uop::BranchRI {
                target: 0,
                fall: 3,
                ..
            }
        ));
        let tail = decode_block(&p, F0, 3, &hb_cfg());
        assert_eq!(&*tail, &[Uop::Step { idx: 3 }]);
    }

    #[test]
    fn superblocks_follow_forward_jumps_but_not_backedges() {
        let p = program_of(vec![
            // 0: jump over a gap to 2
            Inst::Jump { target: 2 },
            Inst::Nop,
            // 2: body, then backedge to 2 (a loop head)
            Inst::Li {
                rd: Reg::A0,
                imm: 1,
            },
            Inst::Jump { target: 2 },
        ]);
        let block = decode_block(&p, F0, 0, &hb_cfg());
        // jmp (followed) + li + backedge jump terminator
        assert_eq!(
            &*block,
            &[
                Uop::FollowedJump,
                Uop::Li {
                    rd: Reg::A0,
                    imm: 1
                },
                Uop::Jump { target: 2 },
            ]
        );
    }

    #[test]
    fn superblock_cap_cuts_with_a_fall_continuation() {
        let mut insts = vec![Inst::Nop; FOLLOW_CAP + 8];
        let n = insts.len();
        insts[n - 1] = Inst::Ret;
        let p = program_of(insts);
        let block = decode_block(&p, F0, 0, &hb_cfg());
        assert_eq!(block.len(), FOLLOW_CAP);
        assert!(matches!(
            block[FOLLOW_CAP - 1],
            Uop::Fall { target } if target == FOLLOW_CAP as u32 - 1
        ));
    }

    #[test]
    fn straight_line_leaf_calls_are_inlined() {
        let leaf = Function {
            name: "leaf".into(),
            insts: vec![
                Inst::Li {
                    rd: Reg::A0,
                    imm: 42,
                },
                Inst::Ret,
            ],
            frame_size: 0,
            num_args: 0,
        };
        let main = Function {
            name: "main".into(),
            insts: vec![
                Inst::Call { func: FuncId(1) },
                Inst::Sys {
                    call: SysCall::Halt,
                },
            ],
            frame_size: 0,
            num_args: 0,
        };
        let p = Program::with_entry(vec![main, leaf]);
        let block = decode_block(&p, F0, 0, &hb_cfg());
        assert_eq!(
            &*block,
            &[
                Uop::InlineCall {
                    func: FuncId(1),
                    ret: 1
                },
                Uop::Li {
                    rd: Reg::A0,
                    imm: 42
                },
                Uop::InlineRet,
                Uop::Step { idx: 1 },
            ]
        );
    }

    #[test]
    fn branchy_callees_are_not_inlined() {
        let callee = Function {
            name: "callee".into(),
            insts: vec![
                Inst::Branch {
                    op: CmpOp::Eq,
                    rs1: Reg::A0,
                    rs2: Operand::Imm(0),
                    target: 0,
                },
                Inst::Ret,
            ],
            frame_size: 0,
            num_args: 0,
        };
        let main = Function {
            name: "main".into(),
            insts: vec![
                Inst::Call { func: FuncId(1) },
                Inst::Sys {
                    call: SysCall::Halt,
                },
            ],
            frame_size: 0,
            num_args: 0,
        };
        let p = Program::with_entry(vec![main, callee]);
        let block = decode_block(&p, F0, 0, &hb_cfg());
        assert_eq!(
            &*block,
            &[Uop::Call {
                func: FuncId(1),
                ret: 1
            }]
        );
    }
}
