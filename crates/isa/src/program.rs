use std::fmt;

use crate::disasm::{put_dec, put_hex};
use crate::inst::Inst;
use crate::layout;
use crate::reg::Reg;

/// Index of a function within a [`Program`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

impl FuncId {
    /// The code-region address representing this function (usable as a
    /// function pointer value; see [`layout::code_addr`]).
    #[must_use]
    pub fn code_addr(self) -> u32 {
        layout::code_addr(self.0)
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

/// A compiled function: a straight-line vector of µops with intra-function
/// branch targets expressed as instruction indices.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Function {
    /// Symbol name (for diagnostics and disassembly).
    pub name: String,
    /// Instruction stream.
    pub insts: Vec<Inst>,
    /// Stack frame size in bytes; the machine's calling sequence subtracts
    /// this from `sp` on entry and restores it on return.
    pub frame_size: u32,
    /// Number of register arguments the function expects (`<= 8`).
    pub num_args: u8,
}

/// An initialized data region copied into memory before execution (string
/// literals, initialized globals).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DataInit {
    /// Destination virtual address.
    pub addr: u32,
    /// Bytes to place there.
    pub bytes: Vec<u8>,
}

/// A complete executable image for the simulator.
///
/// `Hash` covers the full image — functions (names, bodies, frames), the
/// entry point, the globals reservation and initialized data — so a hash
/// of a `Program` is a content fingerprint of everything execution can
/// observe (the basis of `hardbound-exec`'s `ProgramId`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Program {
    /// All functions; [`FuncId`] indexes this vector.
    pub functions: Vec<Function>,
    /// Entry function (conventionally `main`).
    pub entry: FuncId,
    /// Bytes of global data reserved at [`layout::GLOBALS_BASE`].
    pub globals_size: u32,
    /// Initialized data regions.
    pub data: Vec<DataInit>,
}

/// Error found by [`Program::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidateError {
    /// The entry [`FuncId`] does not exist.
    BadEntry(FuncId),
    /// A branch or jump targets an instruction index outside its function.
    BadBranchTarget {
        /// Offending function.
        func: FuncId,
        /// Instruction index of the branch.
        inst: usize,
        /// The out-of-range target.
        target: u32,
    },
    /// A call references a function that does not exist.
    BadCallee {
        /// Offending function.
        func: FuncId,
        /// Instruction index of the call.
        inst: usize,
        /// The nonexistent callee.
        callee: FuncId,
    },
    /// A function declares more register arguments than the ABI provides.
    TooManyArgs {
        /// Offending function.
        func: FuncId,
        /// Declared argument count.
        num_args: u8,
    },
    /// A function's frame size is not 8-byte aligned (the calling sequence
    /// keeps `sp` 8-byte aligned).
    MisalignedFrame {
        /// Offending function.
        func: FuncId,
        /// Declared frame size.
        frame_size: u32,
    },
    /// A function body is empty or can fall off its end (last instruction
    /// is not an unconditional transfer or halt-style µop).
    FallsOffEnd {
        /// Offending function.
        func: FuncId,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::BadEntry(id) => write!(f, "entry {id} does not exist"),
            ValidateError::BadBranchTarget { func, inst, target } => {
                write!(f, "{func} inst {inst}: branch target {target} out of range")
            }
            ValidateError::BadCallee { func, inst, callee } => {
                write!(f, "{func} inst {inst}: call to nonexistent {callee}")
            }
            ValidateError::TooManyArgs { func, num_args } => {
                write!(
                    f,
                    "{func}: {num_args} register arguments exceeds ABI limit of 8"
                )
            }
            ValidateError::MisalignedFrame { func, frame_size } => {
                write!(f, "{func}: frame size {frame_size} is not 8-byte aligned")
            }
            ValidateError::FallsOffEnd { func } => {
                write!(f, "{func}: control can fall off the end of the function")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

impl Program {
    /// Builds a program whose entry point is the *first* function.
    #[must_use]
    pub fn with_entry(functions: Vec<Function>) -> Program {
        Program {
            functions,
            entry: FuncId(0),
            globals_size: 0,
            data: Vec::new(),
        }
    }

    /// The function named `name`, if any.
    #[must_use]
    pub fn function_named(&self, name: &str) -> Option<(FuncId, &Function)> {
        self.functions
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// The function for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range; validated programs never do this.
    #[must_use]
    pub fn func(&self, id: FuncId) -> &Function {
        &self.functions[id.0 as usize]
    }

    /// Total number of µops in the image (static size).
    #[must_use]
    pub fn static_uop_count(&self) -> usize {
        self.functions.iter().map(|f| f.insts.len()).sum()
    }

    /// Checks structural invariants: entry exists, every branch lands in its
    /// function, every callee exists, frames are aligned, functions end in
    /// an unconditional control transfer.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateError`] found.
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.entry.0 as usize >= self.functions.len() {
            return Err(ValidateError::BadEntry(self.entry));
        }
        for (fi, func) in self.functions.iter().enumerate() {
            let id = FuncId(fi as u32);
            if func.num_args as usize > Reg::NUM_ARG_REGS {
                return Err(ValidateError::TooManyArgs {
                    func: id,
                    num_args: func.num_args,
                });
            }
            if func.frame_size % 8 != 0 {
                return Err(ValidateError::MisalignedFrame {
                    func: id,
                    frame_size: func.frame_size,
                });
            }
            let n = func.insts.len() as u32;
            for (ii, inst) in func.insts.iter().enumerate() {
                match *inst {
                    Inst::Branch { target, .. } | Inst::Jump { target } if target >= n => {
                        return Err(ValidateError::BadBranchTarget {
                            func: id,
                            inst: ii,
                            target,
                        });
                    }
                    Inst::Call { func: callee } | Inst::CodePtr { func: callee, .. }
                        if callee.0 as usize >= self.functions.len() =>
                    {
                        return Err(ValidateError::BadCallee {
                            func: id,
                            inst: ii,
                            callee,
                        });
                    }
                    _ => {}
                }
            }
            let terminated = matches!(
                func.insts.last(),
                Some(
                    Inst::Ret
                        | Inst::Jump { .. }
                        | Inst::Sys {
                            call: crate::inst::SysCall::Halt | crate::inst::SysCall::Abort
                        }
                )
            );
            if !terminated {
                return Err(ValidateError::FallsOffEnd { func: id });
            }
        }
        Ok(())
    }

    /// Renders the whole program as annotated assembly text.
    ///
    /// The output fully round-trips through
    /// [`crate::asm::parse_program`]: the entry point, the globals
    /// reservation, and initialized data ride along as structured `;`
    /// comments, so `hbrun --disasm prog.cb > prog.s && hbrun prog.s`
    /// reproduces the program image.
    #[must_use]
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        let _ = self.write_listing(&mut out);
        out
    }

    /// Streams the annotated assembly listing of [`Program::disassemble`]
    /// into any [`std::fmt::Write`] sink, without materializing the string.
    ///
    /// Each instruction line is `  <idx>: <text>` with the text written by
    /// [`Inst::write_to`] — the one writer `Display for Inst` also uses —
    /// and instruction indices and data bytes go through its hand-written
    /// number formatting, so the per-line work costs no `format_args!`.
    ///
    /// Because the listing fully round-trips through
    /// [`crate::asm::parse_program`], its text uniquely determines the
    /// program image — which makes it a *pinned serialization* of the
    /// program: consumers that need a toolchain-stable byte encoding (the
    /// corpus service's persistent `ProgramId` fingerprints, the `hbserve`
    /// wire protocol) hash or ship exactly these bytes. Changing this
    /// format changes every persisted program fingerprint.
    ///
    /// # Errors
    ///
    /// Propagates errors from the sink (infallible for `String`).
    pub fn write_listing<W: std::fmt::Write>(&self, out: &mut W) -> std::fmt::Result {
        writeln!(out, "; entry: {}", self.entry)?;
        if self.globals_size != 0 {
            writeln!(out, "; globals: {}", self.globals_size)?;
        }
        for init in &self.data {
            write!(out, "; data {:#010x}:", init.addr)?;
            for &b in &init.bytes {
                out.write_str(" ")?;
                put_hex(out, u32::from(b), 2)?;
            }
            out.write_str("\n")?;
        }
        for (fi, func) in self.functions.iter().enumerate() {
            writeln!(
                out,
                "{} <{}> (args={}, frame={}):",
                FuncId(fi as u32),
                func.name,
                func.num_args,
                func.frame_size
            )?;
            for (ii, inst) in func.insts.iter().enumerate() {
                out.write_str("  ")?;
                put_dec(out, ii as u64, 4)?;
                out.write_str(": ")?;
                inst.write_to(out)?;
                out.write_str("\n")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, CmpOp, Operand, SysCall, Width};

    fn halt_fn(name: &str) -> Function {
        Function {
            name: name.to_owned(),
            insts: vec![Inst::Sys {
                call: SysCall::Halt,
            }],
            frame_size: 0,
            num_args: 0,
        }
    }

    #[test]
    fn validate_accepts_minimal_program() {
        let p = Program::with_entry(vec![halt_fn("main")]);
        assert_eq!(p.validate(), Ok(()));
        assert_eq!(p.static_uop_count(), 1);
    }

    #[test]
    fn validate_rejects_bad_entry() {
        let mut p = Program::with_entry(vec![halt_fn("main")]);
        p.entry = FuncId(3);
        assert_eq!(p.validate(), Err(ValidateError::BadEntry(FuncId(3))));
    }

    #[test]
    fn validate_rejects_out_of_range_branch() {
        let mut f = halt_fn("main");
        f.insts.insert(0, Inst::Jump { target: 9 });
        let p = Program::with_entry(vec![f]);
        assert!(matches!(
            p.validate(),
            Err(ValidateError::BadBranchTarget { target: 9, .. })
        ));
    }

    #[test]
    fn validate_rejects_bad_callee() {
        let mut f = halt_fn("main");
        f.insts.insert(0, Inst::Call { func: FuncId(5) });
        let p = Program::with_entry(vec![f]);
        assert!(matches!(
            p.validate(),
            Err(ValidateError::BadCallee {
                callee: FuncId(5),
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_falling_off_end() {
        let f = Function {
            name: "f".into(),
            insts: vec![Inst::Li {
                rd: Reg::A0,
                imm: 1,
            }],
            frame_size: 0,
            num_args: 0,
        };
        let p = Program::with_entry(vec![f]);
        assert!(matches!(
            p.validate(),
            Err(ValidateError::FallsOffEnd { .. })
        ));
    }

    #[test]
    fn validate_rejects_misaligned_frame() {
        let mut f = halt_fn("main");
        f.frame_size = 12;
        let p = Program::with_entry(vec![f]);
        assert!(matches!(
            p.validate(),
            Err(ValidateError::MisalignedFrame { .. })
        ));
    }

    #[test]
    fn validate_rejects_too_many_args() {
        let mut f = halt_fn("main");
        f.num_args = 9;
        let p = Program::with_entry(vec![f]);
        assert!(matches!(
            p.validate(),
            Err(ValidateError::TooManyArgs { .. })
        ));
    }

    #[test]
    fn function_lookup_by_name() {
        let p = Program::with_entry(vec![halt_fn("main"), halt_fn("helper")]);
        let (id, f) = p.function_named("helper").expect("helper exists");
        assert_eq!(id, FuncId(1));
        assert_eq!(f.name, "helper");
        assert!(p.function_named("absent").is_none());
    }

    #[test]
    fn disassembly_contains_all_functions() {
        let mut f = halt_fn("main");
        f.insts.insert(
            0,
            Inst::Bin {
                op: BinOp::Add,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Operand::Imm(4),
            },
        );
        f.insts.insert(
            1,
            Inst::Branch {
                op: CmpOp::Eq,
                rs1: Reg::A0,
                rs2: Operand::Reg(Reg::ZERO),
                target: 2,
            },
        );
        let p = Program::with_entry(vec![f, halt_fn("aux")]);
        let text = p.disassemble();
        assert!(text.contains("<main>"));
        assert!(text.contains("<aux>"));
        assert!(text.contains("add"));

        // Word access helper also exercised here for Width coverage.
        assert_eq!(Width::Word.bytes(), 4);
    }
}
