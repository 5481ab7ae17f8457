//! Textual rendering of instructions: one writer, [`Inst::write_to`],
//! behind both `Display for Inst` and [`Program::write_listing`].
//!
//! The writer emits text with `write_str` only — mnemonics from static
//! tables, numbers through the hand-written decimal and hex helpers below —
//! because the listing is the workspace's pinned program serialization:
//! every `ProgramId` hashes it and every `hbserve` submission ships it, so
//! it is rendered far more often than it is read. Its bytes are pinned by
//! the whole-program golden in `tests/disasm_roundtrip.rs` and by a
//! `format!` reference in this module's tests.
//!
//! [`Program::write_listing`]: crate::Program::write_listing

use std::fmt::{self, Write};

use crate::inst::{BinOp, CmpOp, Inst, Operand, SysCall};
use crate::reg::Reg;

/// Writes `digits` (ASCII) as a string.
fn put_ascii<W: Write + ?Sized>(out: &mut W, digits: &[u8]) -> fmt::Result {
    out.write_str(std::str::from_utf8(digits).map_err(|_| fmt::Error)?)
}

/// Writes `v` in decimal, right-aligned in at least `width` columns
/// (`{v:width$}`; `width` at most 20).
pub(crate) fn put_dec<W: Write + ?Sized>(out: &mut W, mut v: u64, width: usize) -> fmt::Result {
    let mut buf = [b' '; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    put_ascii(out, &buf[i.min(buf.len() - width)..])
}

/// Writes `v` in signed decimal (`{v}`), or with an explicit sign when
/// `plus` is set (`{v:+}`).
fn put_signed<W: Write + ?Sized>(out: &mut W, v: i32, plus: bool) -> fmt::Result {
    if v < 0 {
        out.write_str("-")?;
    } else if plus {
        out.write_str("+")?;
    }
    put_dec(out, u64::from(v.unsigned_abs()), 0)
}

/// Writes `v` as lowercase hex, zero-padded to at least `digits` digits
/// (`{v:0digits$x}`; `digits` at most 8).
pub(crate) fn put_hex<W: Write + ?Sized>(out: &mut W, mut v: u32, digits: usize) -> fmt::Result {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [b'0'; 8];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = HEX[(v & 0xf) as usize];
        v >>= 4;
        if v == 0 {
            break;
        }
    }
    put_ascii(out, &buf[i.min(buf.len() - digits)..])
}

/// One piece of an instruction's text.
#[derive(Clone, Copy)]
enum Piece {
    Str(&'static str),
    /// A mnemonic left-aligned in a field this wide, then a space
    /// (`{s:<width$} `).
    Mnemonic(&'static str, usize),
    /// Unsigned decimal (`{v}`).
    Dec(u32),
    /// Signed decimal (`{v}`).
    Imm(i32),
    /// Signed decimal with its sign always written (`{v:+}`).
    Offset(i32),
    /// `0x`-prefixed lowercase hex (`{v:#x}`).
    Hex(u32),
}

impl Piece {
    fn write_to<W: Write + ?Sized>(self, out: &mut W) -> fmt::Result {
        match self {
            Piece::Str(s) => out.write_str(s),
            Piece::Mnemonic(s, width) => {
                out.write_str(s)?;
                out.write_str(&"         "[..width.saturating_sub(s.len()) + 1])
            }
            Piece::Dec(v) => put_dec(out, u64::from(v), 0),
            Piece::Imm(v) => put_signed(out, v, false),
            Piece::Offset(v) => put_signed(out, v, true),
            Piece::Hex(v) => {
                out.write_str("0x")?;
                put_hex(out, v, 1)
            }
        }
    }
}

impl From<Reg> for Piece {
    fn from(r: Reg) -> Piece {
        Piece::Str(r.name())
    }
}

impl From<Operand> for Piece {
    fn from(o: Operand) -> Piece {
        match o {
            Operand::Reg(r) => r.into(),
            Operand::Imm(i) => Piece::Imm(i),
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Piece::from(*self).write_to(f)
    }
}

impl BinOp {
    /// The assembly mnemonic (`add`, `mulh`, …).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Mulh => "mulh",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Sra => "sra",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.mnemonic())
    }
}

impl CmpOp {
    /// The predicate's mnemonic suffix (`eq`, `ltu`, …): `c<suffix>` is
    /// the compare, `b<suffix>` the branch.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
            CmpOp::LtU => "ltu",
            CmpOp::GeU => "geu",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.mnemonic())
    }
}

impl SysCall {
    /// The call's name as `sys` spells it (`halt`, `ot_check`, …).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SysCall::PrintInt => "print_int",
            SysCall::PrintChar => "print_char",
            SysCall::Halt => "halt",
            SysCall::Abort => "abort",
            SysCall::OtRegister => "ot_register",
            SysCall::OtUnregister => "ot_unregister",
            SysCall::OtCheck => "ot_check",
            SysCall::OtCheckArith => "ot_check_arith",
        }
    }
}

impl fmt::Display for SysCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Inst {
    /// Writes this instruction's assembly text — exactly its `Display`
    /// form, which round-trips through [`crate::parse_inst`] — into `out`.
    /// `Display` and [`crate::Program::write_listing`] both call this one
    /// writer.
    ///
    /// # Errors
    ///
    /// Propagates errors from the sink (infallible for `String`).
    pub fn write_to<W: Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        use Piece::{Dec, Hex, Mnemonic, Offset, Str};
        const SEP: Piece = Str(", ");
        let pieces: &[Piece] = match *self {
            Inst::Li { rd, imm } => &[Str("li    "), rd.into(), SEP, Hex(imm)],
            Inst::Mov { rd, rs } => &[Str("mov   "), rd.into(), SEP, rs.into()],
            Inst::Bin { op, rd, rs1, rs2 } => &[
                Mnemonic(op.mnemonic(), 5),
                rd.into(),
                SEP,
                rs1.into(),
                SEP,
                rs2.into(),
            ],
            Inst::Cmp { op, rd, rs1, rs2 } => &[
                Str("c"),
                Mnemonic(op.mnemonic(), 4),
                rd.into(),
                SEP,
                rs1.into(),
                SEP,
                rs2.into(),
            ],
            Inst::Load {
                width,
                rd,
                addr,
                offset,
            } => &[
                Str(if width.bytes() == 1 {
                    "lb    "
                } else {
                    "lw    "
                }),
                rd.into(),
                Str(", ["),
                addr.into(),
                Offset(offset),
                Str("]"),
            ],
            Inst::Store {
                width,
                src,
                addr,
                offset,
            } => &[
                Str(if width.bytes() == 1 {
                    "sb    ["
                } else {
                    "sw    ["
                }),
                addr.into(),
                Offset(offset),
                Str("], "),
                src.into(),
            ],
            Inst::SetBound { rd, rs, size } => &[
                Str("setbound "),
                rd.into(),
                SEP,
                rs.into(),
                SEP,
                size.into(),
            ],
            Inst::Unbound { rd, rs } => &[Str("unbound "), rd.into(), SEP, rs.into()],
            Inst::CodePtr { rd, func } => &[Str("codeptr "), rd.into(), Str(", fn#"), Dec(func.0)],
            Inst::ReadBase { rd, rs } => &[Str("readbase "), rd.into(), SEP, rs.into()],
            Inst::ReadBound { rd, rs } => &[Str("readbound "), rd.into(), SEP, rs.into()],
            Inst::Branch {
                op,
                rs1,
                rs2,
                target,
            } => &[
                Str("b"),
                Mnemonic(op.mnemonic(), 4),
                rs1.into(),
                SEP,
                rs2.into(),
                Str(" -> "),
                Dec(target),
            ],
            Inst::Jump { target } => &[Str("jmp   -> "), Dec(target)],
            Inst::Call { func } => &[Str("call  fn#"), Dec(func.0)],
            Inst::CallInd { rs } => &[Str("calli "), rs.into()],
            Inst::Ret => &[Str("ret")],
            Inst::Sys { call } => &[Str("sys   "), Str(call.name())],
            Inst::Nop => &[Str("nop")],
        };
        pieces.iter().try_for_each(|p| p.write_to(out))
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::FuzzRng;
    use crate::program::FuncId;
    use crate::Width;

    #[test]
    fn instruction_rendering() {
        let cases: Vec<(Inst, &str)> = vec![
            (
                Inst::Li {
                    rd: Reg::A0,
                    imm: 0x1000,
                },
                "li    a0, 0x1000",
            ),
            (
                Inst::Mov {
                    rd: Reg::A1,
                    rs: Reg::A0,
                },
                "mov   a1, a0",
            ),
            (
                Inst::Bin {
                    op: BinOp::Add,
                    rd: Reg::A0,
                    rs1: Reg::A0,
                    rs2: Operand::Imm(1),
                },
                "add   a0, a0, 1",
            ),
            (
                Inst::Load {
                    width: Width::Word,
                    rd: Reg::A2,
                    addr: Reg::A0,
                    offset: 8,
                },
                "lw    a2, [a0+8]",
            ),
            (
                Inst::Store {
                    width: Width::Byte,
                    src: Reg::A2,
                    addr: Reg::A0,
                    offset: -4,
                },
                "sb    [a0-4], a2",
            ),
            (
                Inst::SetBound {
                    rd: Reg::A0,
                    rs: Reg::A0,
                    size: Operand::Imm(4),
                },
                "setbound a0, a0, 4",
            ),
            (Inst::Call { func: FuncId(2) }, "call  fn#2"),
            (
                Inst::Sys {
                    call: SysCall::Halt,
                },
                "sys   halt",
            ),
        ];
        for (inst, expected) in cases {
            assert_eq!(inst.to_string(), expected);
        }
    }

    /// The `format_args!` renderer the writer replaced, kept as the
    /// reference its bytes must match.
    fn format_reference(inst: &Inst) -> String {
        match *inst {
            Inst::Li { rd, imm } => format!("li    {rd}, {imm:#x}"),
            Inst::Mov { rd, rs } => format!("mov   {rd}, {rs}"),
            Inst::Bin { op, rd, rs1, rs2 } => format!("{op:<5} {rd}, {rs1}, {rs2}"),
            Inst::Cmp { op, rd, rs1, rs2 } => format!("c{op:<4} {rd}, {rs1}, {rs2}"),
            Inst::Load {
                width,
                rd,
                addr,
                offset,
            } => {
                let w = if width.bytes() == 1 { "lb" } else { "lw" };
                format!("{w}    {rd}, [{addr}{offset:+}]")
            }
            Inst::Store {
                width,
                src,
                addr,
                offset,
            } => {
                let w = if width.bytes() == 1 { "sb" } else { "sw" };
                format!("{w}    [{addr}{offset:+}], {src}")
            }
            Inst::SetBound { rd, rs, size } => format!("setbound {rd}, {rs}, {size}"),
            Inst::Unbound { rd, rs } => format!("unbound {rd}, {rs}"),
            Inst::CodePtr { rd, func } => format!("codeptr {rd}, fn#{}", func.0),
            Inst::ReadBase { rd, rs } => format!("readbase {rd}, {rs}"),
            Inst::ReadBound { rd, rs } => format!("readbound {rd}, {rs}"),
            Inst::Branch {
                op,
                rs1,
                rs2,
                target,
            } => format!("b{op:<4} {rs1}, {rs2} -> {target}"),
            Inst::Jump { target } => format!("jmp   -> {target}"),
            Inst::Call { func } => format!("call  fn#{}", func.0),
            Inst::CallInd { rs } => format!("calli {rs}"),
            Inst::Ret => "ret".to_owned(),
            Inst::Sys { call } => format!("sys   {call}"),
            Inst::Nop => "nop".to_owned(),
        }
    }

    /// Random instructions, with every numeric field redrawn over its full
    /// range, render exactly as the `format!` reference does.
    #[test]
    fn writer_matches_the_format_reference() {
        let mut rng = FuzzRng::new(0x11_57);
        for _ in 0..20_000 {
            let mut inst = rng.inst();
            let wide = rng.next_u64();
            match &mut inst {
                Inst::Li { imm, .. } => *imm = wide as u32,
                Inst::Load { offset, .. } | Inst::Store { offset, .. } => *offset = wide as i32,
                Inst::Branch { target, .. } | Inst::Jump { target } => *target = wide as u32,
                Inst::CodePtr { func, .. } | Inst::Call { func } => *func = FuncId(wide as u32),
                _ => {}
            }
            if let Inst::Bin { rs2, .. }
            | Inst::Cmp { rs2, .. }
            | Inst::SetBound { size: rs2, .. }
            | Inst::Branch { rs2, .. } = &mut inst
            {
                if let Operand::Imm(i) = rs2 {
                    *i = (wide >> 32) as i32;
                }
            }
            assert_eq!(inst.to_string(), format_reference(&inst), "{inst:?}");
        }
        for v in [0, 1, 9, 10, 15, 16, 255, 0x8000_0000, u32::MAX] {
            let li = Inst::Li {
                rd: Reg::A0,
                imm: v,
            };
            assert_eq!(li.to_string(), format_reference(&li));
            let mut hex = String::new();
            put_hex(&mut hex, v, 8).unwrap();
            assert_eq!(hex, format!("{v:08x}"));
        }
        for v in [0, 1, 9, 10, 999, 1000, 9999, 10_000, u64::MAX] {
            let mut dec = String::new();
            put_dec(&mut dec, v, 4).unwrap();
            assert_eq!(dec, format!("{v:4}"));
        }
    }

    #[test]
    fn every_variant_renders_nonempty() {
        let all = vec![
            Inst::Li {
                rd: Reg::A0,
                imm: 0,
            },
            Inst::Mov {
                rd: Reg::A0,
                rs: Reg::A1,
            },
            Inst::Bin {
                op: BinOp::Xor,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2.into(),
            },
            Inst::Cmp {
                op: CmpOp::LtU,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Operand::Imm(3),
            },
            Inst::Load {
                width: Width::Byte,
                rd: Reg::A0,
                addr: Reg::A1,
                offset: 0,
            },
            Inst::Store {
                width: Width::Word,
                src: Reg::A0,
                addr: Reg::A1,
                offset: 0,
            },
            Inst::SetBound {
                rd: Reg::A0,
                rs: Reg::A1,
                size: Reg::A2.into(),
            },
            Inst::Unbound {
                rd: Reg::A0,
                rs: Reg::A1,
            },
            Inst::CodePtr {
                rd: Reg::A0,
                func: FuncId(1),
            },
            Inst::ReadBase {
                rd: Reg::A0,
                rs: Reg::A1,
            },
            Inst::ReadBound {
                rd: Reg::A0,
                rs: Reg::A1,
            },
            Inst::Branch {
                op: CmpOp::Eq,
                rs1: Reg::A0,
                rs2: Operand::Imm(0),
                target: 0,
            },
            Inst::Jump { target: 1 },
            Inst::Call { func: FuncId(0) },
            Inst::CallInd { rs: Reg::A0 },
            Inst::Ret,
            Inst::Sys {
                call: SysCall::OtCheck,
            },
            Inst::Nop,
        ];
        for inst in all {
            assert!(!inst.to_string().is_empty(), "{inst:?}");
        }
    }
}
