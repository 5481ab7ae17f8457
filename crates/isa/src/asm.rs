//! The assembler: parses the disassembler's textual rendering back into
//! [`Inst`] values, so `parse_inst(inst.to_string()) == inst` for every
//! instruction. The golden round-trip suite in `tests/disasm_roundtrip.rs`
//! holds the two directions together.

use std::fmt;

use crate::inst::{BinOp, CmpOp, Inst, Operand, SysCall, Width};
use crate::program::{FuncId, Function, Program};
use crate::reg::Reg;

/// Why a line of assembly failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsmError {
    /// The offending line, verbatim.
    pub line: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot assemble {:?}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

fn err(line: &str, message: impl Into<String>) -> AsmError {
    AsmError {
        line: line.to_owned(),
        message: message.into(),
    }
}

/// Parses one disassembled instruction line.
///
/// Accepts exactly the grammar the `Display` impls emit (mnemonic, comma
/// separated operands, `[reg+offset]` memory operands, `-> target` branch
/// destinations, `fn#N` function references), with arbitrary whitespace
/// between tokens.
///
/// # Errors
///
/// Returns [`AsmError`] on an unknown mnemonic, a malformed operand, or a
/// wrong operand count.
pub fn parse_inst(line: &str) -> Result<Inst, AsmError> {
    let text = line.trim();
    let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (text, ""),
    };
    if mnemonic.is_empty() {
        return Err(err(line, "empty line"));
    }

    let ops: Vec<&str> = if rest.is_empty() {
        Vec::new()
    } else {
        rest.split(',').map(str::trim).collect()
    };

    let want = |n: usize| -> Result<(), AsmError> {
        if ops.len() == n {
            Ok(())
        } else {
            Err(err(
                line,
                format!("expected {n} operands, found {}", ops.len()),
            ))
        }
    };

    if let Some(op) = parse_binop(mnemonic) {
        want(3)?;
        return Ok(Inst::Bin {
            op,
            rd: parse_reg(line, ops[0])?,
            rs1: parse_reg(line, ops[1])?,
            rs2: parse_operand(line, ops[2])?,
        });
    }
    if let Some(op) = mnemonic.strip_prefix('c').and_then(parse_cmpop) {
        want(3)?;
        return Ok(Inst::Cmp {
            op,
            rd: parse_reg(line, ops[0])?,
            rs1: parse_reg(line, ops[1])?,
            rs2: parse_operand(line, ops[2])?,
        });
    }
    if let Some(op) = mnemonic.strip_prefix('b').and_then(parse_cmpop) {
        want(2)?;
        let (rs2, target) = parse_arrow(line, ops[1])?;
        return Ok(Inst::Branch {
            op,
            rs1: parse_reg(line, ops[0])?,
            rs2,
            target,
        });
    }

    match mnemonic {
        "li" => {
            want(2)?;
            Ok(Inst::Li {
                rd: parse_reg(line, ops[0])?,
                imm: parse_u32(line, ops[1])?,
            })
        }
        "mov" => {
            want(2)?;
            Ok(Inst::Mov {
                rd: parse_reg(line, ops[0])?,
                rs: parse_reg(line, ops[1])?,
            })
        }
        "lb" | "lw" => {
            want(2)?;
            let width = if mnemonic == "lb" {
                Width::Byte
            } else {
                Width::Word
            };
            let (addr, offset) = parse_mem(line, ops[1])?;
            Ok(Inst::Load {
                width,
                rd: parse_reg(line, ops[0])?,
                addr,
                offset,
            })
        }
        "sb" | "sw" => {
            want(2)?;
            let width = if mnemonic == "sb" {
                Width::Byte
            } else {
                Width::Word
            };
            let (addr, offset) = parse_mem(line, ops[0])?;
            Ok(Inst::Store {
                width,
                src: parse_reg(line, ops[1])?,
                addr,
                offset,
            })
        }
        "setbound" => {
            want(3)?;
            Ok(Inst::SetBound {
                rd: parse_reg(line, ops[0])?,
                rs: parse_reg(line, ops[1])?,
                size: parse_operand(line, ops[2])?,
            })
        }
        "unbound" => {
            want(2)?;
            Ok(Inst::Unbound {
                rd: parse_reg(line, ops[0])?,
                rs: parse_reg(line, ops[1])?,
            })
        }
        "codeptr" => {
            want(2)?;
            Ok(Inst::CodePtr {
                rd: parse_reg(line, ops[0])?,
                func: parse_func(line, ops[1])?,
            })
        }
        "readbase" => {
            want(2)?;
            Ok(Inst::ReadBase {
                rd: parse_reg(line, ops[0])?,
                rs: parse_reg(line, ops[1])?,
            })
        }
        "readbound" => {
            want(2)?;
            Ok(Inst::ReadBound {
                rd: parse_reg(line, ops[0])?,
                rs: parse_reg(line, ops[1])?,
            })
        }
        "jmp" => {
            want(1)?;
            let target = ops[0]
                .strip_prefix("->")
                .map(str::trim)
                .ok_or_else(|| err(line, "jmp needs a `-> target`"))?;
            Ok(Inst::Jump {
                target: parse_u32(line, target)?,
            })
        }
        "call" => {
            want(1)?;
            Ok(Inst::Call {
                func: parse_func(line, ops[0])?,
            })
        }
        "calli" => {
            want(1)?;
            Ok(Inst::CallInd {
                rs: parse_reg(line, ops[0])?,
            })
        }
        "ret" => {
            want(0)?;
            Ok(Inst::Ret)
        }
        "sys" => {
            want(1)?;
            Ok(Inst::Sys {
                call: parse_syscall(line, ops[0])?,
            })
        }
        "nop" => {
            want(0)?;
            Ok(Inst::Nop)
        }
        other => Err(err(line, format!("unknown mnemonic `{other}`"))),
    }
}

/// Parses a multi-line listing, skipping blank lines and `;` comments.
///
/// Accepts `Program::disassemble` output directly: function-header lines
/// (ending in `:`, e.g. `fn#0 <main> (args=0, frame=0):`) are skipped and
/// numeric instruction-index prefixes (`  12: sw ...`) are stripped, so
/// `hbrun --disasm` output round-trips without preprocessing.
///
/// # Errors
///
/// Returns the first [`AsmError`] encountered.
pub fn parse_listing(text: &str) -> Result<Vec<Inst>, AsmError> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with(';') && !l.ends_with(':'))
        .map(|l| {
            let body = match l.split_once(':') {
                Some((idx, rest)) if idx.trim().parse::<u32>().is_ok() => rest.trim(),
                _ => l,
            };
            parse_inst(body)
        })
        .collect()
}

/// Parses a whole-program listing — the grammar `Program::disassemble`
/// emits — back into a [`Program`].
///
/// Function boundaries come from `fn#N <name> (args=A, frame=F):` header
/// lines; an optional `; entry: fn#N` comment (the disassembler always
/// writes one) selects the entry point, defaulting to a function named
/// `main`, then to `fn#0`. A headerless listing becomes a single
/// zero-frame function named `main` — so a bare `parse_listing`-style µop
/// listing is also a valid program.
///
/// Only code and the entry point round-trip: initialized data sections and
/// the globals reservation are not part of the listing.
///
/// # Errors
///
/// Returns [`AsmError`] on the first malformed line, or if the listing
/// contains no instructions. The returned program is **not** validated —
/// callers run [`Program::validate`] for structural checks.
pub fn parse_program(text: &str) -> Result<Program, AsmError> {
    let mut functions: Vec<Function> = Vec::new();
    let mut current: Option<Function> = None;
    let mut entry: Option<FuncId> = None;
    let mut globals_size = 0;
    let mut data = Vec::new();

    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix(';') {
            let comment = comment.trim();
            if let Some(e) = comment.strip_prefix("entry:") {
                entry = Some(parse_func(line, e.trim())?);
            } else if let Some(g) = comment.strip_prefix("globals:") {
                globals_size = parse_u32(line, g.trim())?;
            } else if let Some(d) = comment.strip_prefix("data ") {
                data.push(parse_data_line(line, d)?);
            }
            continue;
        }
        if line.ends_with(':') {
            if line.starts_with("fn#") {
                functions.extend(current.take());
                current = Some(parse_func_header(line)?);
            }
            // Other label-like lines are skipped, as in `parse_listing`.
            continue;
        }
        // Strip the optional `NN:` instruction-index prefix.
        let body = match line.split_once(':') {
            Some((idx, rest)) if idx.trim().parse::<u32>().is_ok() => rest.trim(),
            _ => line,
        };
        let inst = parse_inst(body)?;
        current
            .get_or_insert_with(|| Function {
                name: "main".to_owned(),
                insts: Vec::new(),
                frame_size: 0,
                num_args: 0,
            })
            .insts
            .push(inst);
    }
    functions.extend(current.take());
    if functions.is_empty() {
        return Err(err(text.trim(), "listing contains no instructions"));
    }
    let entry = entry
        .or_else(|| {
            functions
                .iter()
                .position(|f| f.name == "main")
                .map(|i| FuncId(i as u32))
        })
        .unwrap_or(FuncId(0));
    Ok(Program {
        functions,
        entry,
        globals_size,
        data,
    })
}

/// Parses the tail of a `; data 0xADDR: hh hh …` line.
fn parse_data_line(line: &str, tail: &str) -> Result<crate::program::DataInit, AsmError> {
    let (addr, hex) = tail
        .split_once(':')
        .ok_or_else(|| err(line, "data line lacks `:`"))?;
    let addr = parse_u32(line, addr.trim())?;
    let bytes = hex
        .split_whitespace()
        .map(|h| u8::from_str_radix(h, 16).map_err(|_| err(line, format!("bad data byte `{h}`"))))
        .collect::<Result<Vec<u8>, AsmError>>()?;
    Ok(crate::program::DataInit { addr, bytes })
}

/// Parses a `fn#N <name> (args=A, frame=F):` function-header line.
fn parse_func_header(line: &str) -> Result<Function, AsmError> {
    let bad = |msg: &str| err(line, msg);
    let name = line
        .split_once('<')
        .and_then(|(_, rest)| rest.split_once('>'))
        .map(|(name, _)| name.to_owned())
        .ok_or_else(|| bad("function header lacks a `<name>`"))?;
    let field = |key: &str| -> Result<u32, AsmError> {
        let tail = line
            .split_once(&format!("{key}="))
            .map(|(_, t)| t)
            .ok_or_else(|| err(line, format!("function header lacks `{key}=`")))?;
        let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
        parse_u32(line, &digits)
    };
    let num_args = field("args")?;
    let frame_size = field("frame")?;
    if num_args > u32::from(u8::MAX) {
        return Err(bad("args out of range"));
    }
    Ok(Function {
        name,
        insts: Vec::new(),
        frame_size,
        num_args: num_args as u8,
    })
}

fn parse_binop(m: &str) -> Option<BinOp> {
    Some(match m {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "mulh" => BinOp::Mulh,
        "div" => BinOp::Div,
        "rem" => BinOp::Rem,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "xor" => BinOp::Xor,
        "shl" => BinOp::Shl,
        "shr" => BinOp::Shr,
        "sra" => BinOp::Sra,
        _ => return None,
    })
}

fn parse_cmpop(m: &str) -> Option<CmpOp> {
    Some(match m {
        "eq" => CmpOp::Eq,
        "ne" => CmpOp::Ne,
        "lt" => CmpOp::Lt,
        "le" => CmpOp::Le,
        "gt" => CmpOp::Gt,
        "ge" => CmpOp::Ge,
        "ltu" => CmpOp::LtU,
        "geu" => CmpOp::GeU,
        _ => return None,
    })
}

fn parse_syscall(line: &str, s: &str) -> Result<SysCall, AsmError> {
    Ok(match s {
        "print_int" => SysCall::PrintInt,
        "print_char" => SysCall::PrintChar,
        "halt" => SysCall::Halt,
        "abort" => SysCall::Abort,
        "ot_register" => SysCall::OtRegister,
        "ot_unregister" => SysCall::OtUnregister,
        "ot_check" => SysCall::OtCheck,
        "ot_check_arith" => SysCall::OtCheckArith,
        other => return Err(err(line, format!("unknown syscall `{other}`"))),
    })
}

fn parse_reg(line: &str, s: &str) -> Result<Reg, AsmError> {
    match s {
        "zero" => return Ok(Reg::ZERO),
        "sp" => return Ok(Reg::SP),
        "fp" => return Ok(Reg::FP),
        "gp" => return Ok(Reg::GP),
        _ => {}
    }
    if !s.is_ascii() || s.len() < 2 {
        return Err(err(line, format!("bad register `{s}`")));
    }
    let (class, number) = s.split_at(1);
    let n: u8 = number
        .parse()
        .map_err(|_| err(line, format!("bad register `{s}`")))?;
    let index = match class {
        "a" if usize::from(n) < Reg::NUM_ARG_REGS => 4 + n,
        "t" => Reg::FIRST_TEMP.saturating_add(n),
        _ => return Err(err(line, format!("bad register `{s}`"))),
    };
    Reg::try_new(index).ok_or_else(|| err(line, format!("register `{s}` out of range")))
}

fn parse_operand(line: &str, s: &str) -> Result<Operand, AsmError> {
    if s.starts_with(|c: char| c.is_ascii_alphabetic()) {
        Ok(Operand::Reg(parse_reg(line, s)?))
    } else {
        let imm: i32 = s
            .parse()
            .map_err(|_| err(line, format!("bad immediate `{s}`")))?;
        Ok(Operand::Imm(imm))
    }
}

fn parse_func(line: &str, s: &str) -> Result<FuncId, AsmError> {
    let id = s
        .strip_prefix("fn#")
        .ok_or_else(|| err(line, format!("expected `fn#N`, found `{s}`")))?;
    Ok(FuncId(parse_u32(line, id)?))
}

fn parse_u32(line: &str, s: &str) -> Result<u32, AsmError> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u32::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| err(line, format!("bad value `{s}`")))
}

/// Parses a `[reg+offset]` / `[reg-offset]` memory operand.
fn parse_mem(line: &str, s: &str) -> Result<(Reg, i32), AsmError> {
    let inner = s
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| err(line, format!("expected `[reg±offset]`, found `{s}`")))?;
    let split = inner
        .char_indices()
        .find(|&(_, c)| c == '+' || c == '-')
        .map(|(i, _)| i)
        .ok_or_else(|| err(line, format!("memory operand `{s}` lacks a signed offset")))?;
    let (reg, offset) = inner.split_at(split);
    let offset: i32 = offset
        .parse()
        .map_err(|_| err(line, format!("bad offset `{offset}`")))?;
    Ok((parse_reg(line, reg)?, offset))
}

/// Parses the `rs2 -> target` tail of a branch.
fn parse_arrow(line: &str, s: &str) -> Result<(Operand, u32), AsmError> {
    let (rs2, target) = s
        .split_once("->")
        .ok_or_else(|| err(line, format!("branch tail `{s}` lacks `->`")))?;
    Ok((
        parse_operand(line, rs2.trim())?,
        parse_u32(line, target.trim())?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_disassembler_examples() {
        assert_eq!(
            parse_inst("li    a0, 0x1000").unwrap(),
            Inst::Li {
                rd: Reg::A0,
                imm: 0x1000
            }
        );
        assert_eq!(
            parse_inst("sb    [a0-4], a2").unwrap(),
            Inst::Store {
                width: Width::Byte,
                src: Reg::A2,
                addr: Reg::A0,
                offset: -4
            }
        );
        assert_eq!(
            parse_inst("beq   a0, 0 -> 7").unwrap(),
            Inst::Branch {
                op: CmpOp::Eq,
                rs1: Reg::A0,
                rs2: Operand::Imm(0),
                target: 7
            }
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_inst("frobnicate a0").is_err());
        assert!(parse_inst("li a0").is_err());
        assert!(parse_inst("lw a0, a1").is_err());
        assert!(parse_inst("add a9, a0, a1").is_err());
    }

    #[test]
    fn listing_skips_comments_and_blanks() {
        let insts = parse_listing("; prologue\n\nnop\n  ret\n").unwrap();
        assert_eq!(insts, vec![Inst::Nop, Inst::Ret]);
    }

    #[test]
    fn program_listing_roundtrips_disassembly() {
        use crate::builder::FunctionBuilder;
        use crate::program::Program;

        let mut helper = FunctionBuilder::new("helper", 2);
        helper.set_frame_size(16);
        helper.li(Reg::A0, 7);
        helper.ret();
        let mut main = FunctionBuilder::new("main", 0);
        main.call(FuncId(0));
        main.halt();
        let mut p = Program::with_entry(vec![helper.finish(), main.finish()]);
        p.entry = FuncId(1);
        p.globals_size = 24;
        p.data.push(crate::program::DataInit {
            addr: 0x0001_0000,
            bytes: vec![0xde, 0xad, 0xbe, 0xef],
        });

        let text = p.disassemble();
        let back = parse_program(&text).expect("disassembly must re-assemble");
        assert_eq!(back, p);
        assert_eq!(back.validate(), Ok(()));
    }

    #[test]
    fn headerless_listing_becomes_single_main() {
        let p = parse_program("li a0, 3\nsys halt\n").unwrap();
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.functions[0].name, "main");
        assert_eq!(p.entry, FuncId(0));
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn empty_listing_is_an_error() {
        assert!(parse_program("; nothing here\n").is_err());
    }
}
