use crate::program::FuncId;
use crate::reg::Reg;

/// Access width of a memory operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Width {
    /// 8-bit access (zero-extended on load).
    Byte,
    /// 32-bit, naturally aligned access.
    Word,
}

impl Width {
    /// Number of bytes accessed.
    #[must_use]
    pub fn bytes(self) -> u32 {
        match self {
            Width::Byte => 1,
            Width::Word => 4,
        }
    }
}

/// Second source of a three-address instruction: a register or an immediate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Register operand.
    Reg(Reg),
    /// Sign-relevant 32-bit immediate operand.
    Imm(i32),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<i32> for Operand {
    fn from(imm: i32) -> Operand {
        Operand::Imm(imm)
    }
}

/// Binary ALU operation.
///
/// HardBound's metadata-propagation policy (paper §3.1, Figure 3) is a
/// property of the *operation*: `add` and `sub` are pointer-forming and
/// propagate sidecar bounds; the rest are "not typically used to calculate
/// pointers" and clear them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping 32-bit addition. Propagates bounds (Figure 3 A/B).
    Add,
    /// Wrapping 32-bit subtraction. Propagates bounds (paper §3.1).
    Sub,
    /// Wrapping 32-bit multiplication (low word). Clears bounds.
    Mul,
    /// High 32 bits of the signed 64-bit product. Clears bounds.
    ///
    /// Not in the paper's µop list; added so the integer-only Cb runtime can
    /// implement exact 16.16 fixed-point arithmetic for the floating-point
    /// Olden benchmarks (see DESIGN.md substitutions).
    Mulh,
    /// Signed division (trapping on divide-by-zero). Clears bounds.
    Div,
    /// Signed remainder (trapping on divide-by-zero). Clears bounds.
    Rem,
    /// Bitwise AND. Clears bounds.
    And,
    /// Bitwise OR. Clears bounds.
    Or,
    /// Bitwise XOR. Clears bounds.
    Xor,
    /// Logical shift left (shift amount masked to 5 bits). Clears bounds.
    Shl,
    /// Logical shift right. Clears bounds.
    Shr,
    /// Arithmetic shift right. Clears bounds.
    Sra,
}

impl BinOp {
    /// Whether HardBound propagates sidecar metadata through this operation
    /// (paper §3.1: "add, sub, lea, mov, and xchg" propagate; multiply,
    /// divide, shift, rotate and logical operations do not).
    #[must_use]
    pub fn propagates_bounds(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub)
    }

    /// Evaluates the operation on raw 32-bit values: wrapping arithmetic,
    /// signed `div`/`rem`/`mulh`/`sra`, shift amounts masked to 5 bits.
    /// `None` on a zero divisor (`div`/`rem`), which the machine turns
    /// into a divide-by-zero trap.
    #[inline]
    #[must_use]
    pub fn eval(self, a: u32, b: u32) -> Option<u32> {
        Some(match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Mulh => ((i64::from(a as i32) * i64::from(b as i32)) >> 32) as u32,
            BinOp::Div | BinOp::Rem if b == 0 => return None,
            BinOp::Div => (a as i32).wrapping_div(b as i32) as u32,
            BinOp::Rem => (a as i32).wrapping_rem(b as i32) as u32,
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b),
            BinOp::Shr => a.wrapping_shr(b),
            BinOp::Sra => ((a as i32).wrapping_shr(b)) as u32,
        })
    }
}

/// Comparison predicate used by [`Inst::Cmp`] and [`Inst::Branch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    LtU,
    /// Unsigned greater-or-equal.
    GeU,
}

impl CmpOp {
    /// Evaluates the predicate on raw 32-bit values.
    #[must_use]
    pub fn eval(self, a: u32, b: u32) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => (a as i32) < (b as i32),
            CmpOp::Le => (a as i32) <= (b as i32),
            CmpOp::Gt => (a as i32) > (b as i32),
            CmpOp::Ge => (a as i32) >= (b as i32),
            CmpOp::LtU => a < b,
            CmpOp::GeU => a >= b,
        }
    }

    /// The predicate testing the negated condition.
    #[must_use]
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::LtU => CmpOp::GeU,
            CmpOp::GeU => CmpOp::LtU,
        }
    }
}

/// Environment call executed by the simulator rather than the µop pipeline.
///
/// `Print*` model console output; `Ot*` are the hooks used by the
/// ObjectTable comparison mode (JK/RL/DA-style splay-tree checking — see
/// DESIGN.md): the table lives host-side and each call is charged a
/// lookup-dependent cycle cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SysCall {
    /// Print the signed value of `a0` followed by a newline.
    PrintInt,
    /// Print the low byte of `a0` as a character.
    PrintChar,
    /// Stop the machine successfully; `a0` is the exit code.
    Halt,
    /// Abort with a software-detected error; `a0` is an error code.
    /// SoftBound mode jumps here when an explicit bounds check fails.
    Abort,
    /// Register the allocation `[a0, a0 + a1)` in the object table.
    OtRegister,
    /// Remove the allocation starting at `a0` from the object table.
    OtUnregister,
    /// Dereference check: `a1` must lie inside the object covering `a0`.
    OtCheck,
    /// Arithmetic check: pointer derivation from `a0` to `a1` must stay
    /// within the covering object (one-past-the-end allowed).
    OtCheckArith,
}

/// One micro-operation of the simulated machine.
///
/// Every variant costs one cycle in the in-order pipeline (paper §5.1, "at
/// most one micro-operation per cycle"); memory operations additionally pay
/// cache/TLB penalties, and HardBound metadata traffic inserts extra µops
/// exactly as described in paper §4.4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `rd ← imm` — load immediate; clears `rd`'s metadata.
    Li {
        /// Destination register.
        rd: Reg,
        /// 32-bit immediate value.
        imm: u32,
    },
    /// `rd ← rs` — register move; copies metadata (paper §3.1: `mov`
    /// propagates).
    Mov {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs: Reg,
    },
    /// `rd ← rs1 op rs2` — ALU operation with metadata policy from
    /// [`BinOp::propagates_bounds`].
    Bin {
        /// Operation.
        op: BinOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source operand.
        rs2: Operand,
    },
    /// `rd ← (rs1 cmp rs2) ? 1 : 0` — comparison producing a flag; clears
    /// metadata.
    Cmp {
        /// Predicate.
        op: CmpOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source operand.
        rs2: Operand,
    },
    /// `rd ← Mem[addr + offset]` — load with implicit HardBound check on
    /// `addr`'s sidecar metadata (paper Figure 3 C). Word loads also fetch
    /// the loaded word's metadata.
    Load {
        /// Access width.
        width: Width,
        /// Destination register.
        rd: Reg,
        /// Address register (checked against its sidecar bounds).
        addr: Reg,
        /// Constant byte offset.
        offset: i32,
    },
    /// `Mem[addr + offset] ← src` — store with implicit check (Figure 3 D).
    /// Word stores also write the stored value's metadata.
    Store {
        /// Access width.
        width: Width,
        /// Value register.
        src: Reg,
        /// Address register (checked against its sidecar bounds).
        addr: Reg,
        /// Constant byte offset.
        offset: i32,
    },
    /// `rd ← {rs.value; base: rs.value; bound: rs.value + size}` — the
    /// HardBound `setbound` instruction (paper §3.1).
    SetBound {
        /// Destination register.
        rd: Reg,
        /// Pointer-value source register.
        rs: Reg,
        /// Region size in bytes.
        size: Operand,
    },
    /// `rd ← {rs.value; base: 0; bound: MAXINT}` — the programmer escape
    /// hatch of paper §3.2: a pointer that passes every bounds check.
    Unbound {
        /// Destination register.
        rd: Reg,
        /// Pointer-value source register.
        rs: Reg,
    },
    /// `rd ← {code_addr(func); base: MAXINT; bound: MAXINT}` — materialize
    /// a function pointer. Code pointers get the `{MAXINT, MAXINT}` sidecar
    /// of paper §6.1: they are callable but fail every dereference check,
    /// "to prevent forging of arbitrary function pointers".
    CodePtr {
        /// Destination register.
        rd: Reg,
        /// Referenced function.
        func: FuncId,
    },
    /// `rd ← rs.base` — extract sidecar base (paper §3.1 footnote 1).
    ReadBase {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs: Reg,
    },
    /// `rd ← rs.bound` — extract sidecar bound (paper §3.1 footnote 1).
    ReadBound {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs: Reg,
    },
    /// Conditional branch to instruction index `target` in the same
    /// function.
    Branch {
        /// Predicate.
        op: CmpOp,
        /// First source register.
        rs1: Reg,
        /// Second source operand.
        rs2: Operand,
        /// Destination instruction index.
        target: u32,
    },
    /// Unconditional branch to instruction index `target`.
    Jump {
        /// Destination instruction index.
        target: u32,
    },
    /// Direct call. Arguments are in `a0..a7`; the result returns in `a0`.
    Call {
        /// Callee.
        func: FuncId,
    },
    /// Indirect call through a code pointer (sidecar `{MAXINT, MAXINT}`).
    CallInd {
        /// Register holding a code-region address.
        rs: Reg,
    },
    /// Return from the current function.
    Ret,
    /// Environment call; see [`SysCall`].
    Sys {
        /// Which environment service.
        call: SysCall,
    },
    /// No operation (used by instrumentation padding in tests).
    Nop,
}

impl Inst {
    /// Whether this µop accesses program memory (used by the timing model).
    #[must_use]
    pub fn is_memory_op(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::Store { .. })
    }

    /// Destination register, if the instruction writes one.
    #[must_use]
    pub fn dest(&self) -> Option<Reg> {
        match *self {
            Inst::Li { rd, .. }
            | Inst::Mov { rd, .. }
            | Inst::Bin { rd, .. }
            | Inst::Cmp { rd, .. }
            | Inst::Load { rd, .. }
            | Inst::SetBound { rd, .. }
            | Inst::Unbound { rd, .. }
            | Inst::CodePtr { rd, .. }
            | Inst::ReadBase { rd, .. }
            | Inst::ReadBound { rd, .. } => Some(rd),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propagation_policy_matches_paper() {
        assert!(BinOp::Add.propagates_bounds());
        assert!(BinOp::Sub.propagates_bounds());
        for op in [
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
            assert!(!op.propagates_bounds(), "{op:?} must clear bounds");
        }
    }

    #[test]
    fn cmp_eval_signed_vs_unsigned() {
        let minus_one = -1i32 as u32;
        assert!(CmpOp::Lt.eval(minus_one, 0));
        assert!(!CmpOp::LtU.eval(minus_one, 0));
        assert!(CmpOp::GeU.eval(minus_one, 0));
        assert!(CmpOp::Eq.eval(7, 7));
        assert!(CmpOp::Ne.eval(7, 8));
        assert!(CmpOp::Le.eval(7, 7));
        assert!(CmpOp::Gt.eval(8, 7));
        assert!(CmpOp::Ge.eval(7, 7));
    }

    #[test]
    fn cmp_negation_is_involutive_and_complementary() {
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::LtU,
            CmpOp::GeU,
        ];
        for op in ops {
            assert_eq!(op.negate().negate(), op);
            for (a, b) in [(0u32, 0u32), (1, 2), (u32::MAX, 0), (5, 5)] {
                assert_eq!(op.eval(a, b), !op.negate().eval(a, b), "{op:?} {a} {b}");
            }
        }
    }

    #[test]
    fn width_bytes() {
        assert_eq!(Width::Byte.bytes(), 1);
        assert_eq!(Width::Word.bytes(), 4);
    }

    #[test]
    fn dest_extraction() {
        assert_eq!(
            Inst::Li {
                rd: Reg::A0,
                imm: 3
            }
            .dest(),
            Some(Reg::A0)
        );
        assert_eq!(Inst::Ret.dest(), None);
        assert_eq!(
            Inst::Store {
                width: Width::Word,
                src: Reg::A0,
                addr: Reg::A1,
                offset: 0
            }
            .dest(),
            None
        );
    }

    #[test]
    fn memory_op_classification() {
        assert!(Inst::Load {
            width: Width::Word,
            rd: Reg::A0,
            addr: Reg::A1,
            offset: 0
        }
        .is_memory_op());
        assert!(!Inst::Nop.is_memory_op());
    }
}
