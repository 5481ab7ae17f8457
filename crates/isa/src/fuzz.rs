//! Deterministic random-instruction generation for fuzzing the
//! disassembler/assembler pair and any other consumer that wants a stream
//! of structurally valid [`Inst`]s.
//!
//! The build environment has no `rand` crate, so this module carries its
//! own xorshift64* generator. Everything is a pure function of the seed:
//! `insts(seed, n)` always returns the same instructions, which lets test
//! failures name the seed that reproduces them.

use crate::inst::{BinOp, CmpOp, Inst, Operand, SysCall, Width};
use crate::program::FuncId;
use crate::reg::Reg;

/// A tiny xorshift64* PRNG; deterministic and seedable.
#[derive(Clone, Debug)]
pub struct FuzzRng {
    state: u64,
}

impl FuzzRng {
    /// Creates a generator from a seed (any value, including 0).
    #[must_use]
    pub fn new(seed: u64) -> FuzzRng {
        FuzzRng {
            state: seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform-ish value in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.next_u64() % n
    }

    fn reg(&mut self) -> Reg {
        Reg::new(self.below(Reg::COUNT as u64) as u8)
    }

    fn operand(&mut self) -> Operand {
        if self.below(2) == 0 {
            Operand::Reg(self.reg())
        } else {
            Operand::Imm(self.next_u64() as i32 % 0x1_0000)
        }
    }

    fn width(&mut self) -> Width {
        if self.below(2) == 0 {
            Width::Byte
        } else {
            Width::Word
        }
    }

    fn binop(&mut self) -> BinOp {
        const OPS: [BinOp; 12] = [
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
        ];
        OPS[self.below(OPS.len() as u64) as usize]
    }

    fn cmpop(&mut self) -> CmpOp {
        const OPS: [CmpOp; 8] = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::LtU,
            CmpOp::GeU,
        ];
        OPS[self.below(OPS.len() as u64) as usize]
    }

    fn syscall(&mut self) -> SysCall {
        const CALLS: [SysCall; 8] = [
            SysCall::PrintInt,
            SysCall::PrintChar,
            SysCall::Halt,
            SysCall::Abort,
            SysCall::OtRegister,
            SysCall::OtUnregister,
            SysCall::OtCheck,
            SysCall::OtCheckArith,
        ];
        CALLS[self.below(CALLS.len() as u64) as usize]
    }

    fn offset(&mut self) -> i32 {
        self.next_u64() as i32 % 0x1000
    }

    fn func(&mut self) -> FuncId {
        FuncId(self.below(64) as u32)
    }

    fn target(&mut self) -> u32 {
        self.below(256) as u32
    }

    /// One random instruction, uniform over the 18 variants.
    pub fn inst(&mut self) -> Inst {
        match self.below(18) {
            0 => Inst::Li {
                rd: self.reg(),
                imm: self.next_u64() as u32,
            },
            1 => Inst::Mov {
                rd: self.reg(),
                rs: self.reg(),
            },
            2 => Inst::Bin {
                op: self.binop(),
                rd: self.reg(),
                rs1: self.reg(),
                rs2: self.operand(),
            },
            3 => Inst::Cmp {
                op: self.cmpop(),
                rd: self.reg(),
                rs1: self.reg(),
                rs2: self.operand(),
            },
            4 => Inst::Load {
                width: self.width(),
                rd: self.reg(),
                addr: self.reg(),
                offset: self.offset(),
            },
            5 => Inst::Store {
                width: self.width(),
                src: self.reg(),
                addr: self.reg(),
                offset: self.offset(),
            },
            6 => Inst::SetBound {
                rd: self.reg(),
                rs: self.reg(),
                size: self.operand(),
            },
            7 => Inst::Unbound {
                rd: self.reg(),
                rs: self.reg(),
            },
            8 => Inst::CodePtr {
                rd: self.reg(),
                func: self.func(),
            },
            9 => Inst::ReadBase {
                rd: self.reg(),
                rs: self.reg(),
            },
            10 => Inst::ReadBound {
                rd: self.reg(),
                rs: self.reg(),
            },
            11 => Inst::Branch {
                op: self.cmpop(),
                rs1: self.reg(),
                rs2: self.operand(),
                target: self.target(),
            },
            12 => Inst::Jump {
                target: self.target(),
            },
            13 => Inst::Call { func: self.func() },
            14 => Inst::CallInd { rs: self.reg() },
            15 => Inst::Ret,
            16 => Inst::Sys {
                call: self.syscall(),
            },
            _ => Inst::Nop,
        }
    }
}

/// `n` random instructions derived from `seed`.
#[must_use]
pub fn insts(seed: u64, n: usize) -> Vec<Inst> {
    let mut rng = FuzzRng::new(seed);
    (0..n).map(|_| rng.inst()).collect()
}

/// A loop-heavy program family: a counted self-loop whose body mixes
/// adjacent-field accesses off a loop-invariant struct pointer, redundant
/// re-loads, and a strided array walk through a rewritten cursor.
///
/// Where [`insts`] produces unstructured instruction soup (good at
/// straight-line redundancy, terrible at loops), this family keeps the
/// same bounds checks hot inside one self-loop superblock — while the
/// randomized object sizes, field counts, strides, and trip counts make
/// some walks run off their array's bound mid-loop, which pins trap-site
/// identity inside cached blocks. The result is a complete,
/// structurally valid function body (branch targets in range, `Halt`
/// last); everything is a pure function of `seed`.
#[must_use]
pub fn loop_insts(seed: u64) -> Vec<Inst> {
    let mut rng = FuzzRng::new(seed ^ 0x4c4f_4f50); // "LOOP"
    let obj = Reg::A0; // invariant struct pointer: never written in the loop
    let arr = Reg::A1; // array base, copied into the walking cursor
    let cursor = Reg::A2; // strided-walk cursor, advanced every iteration
    let counter = Reg::A3;
    let tmp = Reg::A4;
    let sink = Reg::A5;
    let obj_size = 16 + 4 * rng.below(13) as i32; // 16..=64 bytes
    let arr_size = 32 + 4 * rng.below(25) as i32; // 32..=128 bytes
    let mut insts = vec![
        Inst::Li {
            rd: obj,
            imm: crate::layout::HEAP_BASE,
        },
        Inst::SetBound {
            rd: obj,
            rs: obj,
            size: Operand::Imm(obj_size),
        },
        Inst::Li {
            rd: arr,
            imm: crate::layout::HEAP_BASE + 256,
        },
        Inst::SetBound {
            rd: arr,
            rs: arr,
            size: Operand::Imm(arr_size),
        },
        Inst::Li {
            rd: counter,
            imm: 0,
        },
        Inst::Mov {
            rd: cursor,
            rs: arr,
        },
    ];
    let head = insts.len() as u32;
    // Adjacent struct fields off the invariant base, re-checked every
    // iteration once the back edge makes the decoded superblock a
    // self-loop.
    for field in 0..2 + rng.below(3) {
        insts.push(Inst::Load {
            width: Width::Word,
            rd: tmp,
            addr: obj,
            offset: 4 * field as i32,
        });
        insts.push(Inst::Bin {
            op: BinOp::Add,
            rd: sink,
            rs1: sink,
            rs2: Operand::Reg(tmp),
        });
    }
    // Sometimes store back to a just-checked field: a subset of an
    // earlier check's window.
    if rng.below(2) == 0 {
        insts.push(Inst::Store {
            width: Width::Word,
            src: sink,
            addr: obj,
            offset: 0,
        });
    }
    // The strided walk, sometimes with a repeated load.
    insts.push(Inst::Load {
        width: Width::Word,
        rd: tmp,
        addr: cursor,
        offset: 0,
    });
    if rng.below(2) == 0 {
        insts.push(Inst::Load {
            width: Width::Word,
            rd: sink,
            addr: cursor,
            offset: 0,
        });
    }
    let stride = 4 * (1 + rng.below(3)) as i32; // 4, 8, or 12
    insts.push(Inst::Bin {
        op: BinOp::Add,
        rd: cursor,
        rs1: cursor,
        rs2: Operand::Imm(stride),
    });
    insts.push(Inst::Bin {
        op: BinOp::Add,
        rd: counter,
        rs1: counter,
        rs2: Operand::Imm(1),
    });
    // Some (trips, stride) draws walk past the array bound mid-loop and
    // must trap there — on every execution path alike.
    let trips = 3 + rng.below(6) as i32; // 3..=8
    insts.push(Inst::Branch {
        op: CmpOp::Lt,
        rs1: counter,
        rs2: Operand::Imm(trips),
        target: head,
    });
    insts.push(Inst::Li {
        rd: Reg::A0,
        imm: 0,
    });
    insts.push(Inst::Sys {
        call: SysCall::Halt,
    });
    insts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(insts(7, 100), insts(7, 100));
        assert_ne!(insts(7, 100), insts(8, 100));
    }

    #[test]
    fn loop_family_is_deterministic_and_well_formed() {
        assert_eq!(loop_insts(3), loop_insts(3));
        assert_ne!(loop_insts(3), loop_insts(4));
        for seed in 0..32 {
            let insts = loop_insts(seed);
            assert!(
                matches!(insts.last(), Some(Inst::Sys { .. })),
                "ends halted"
            );
            let backedge = insts.iter().any(
                |i| matches!(i, Inst::Branch { target, .. } if (*target as usize) < insts.len()),
            );
            assert!(backedge, "seed {seed}: loop family must loop");
        }
    }

    #[test]
    fn covers_every_variant_quickly() {
        let discriminants: std::collections::HashSet<_> =
            insts(1, 2000).iter().map(std::mem::discriminant).collect();
        assert_eq!(
            discriminants.len(),
            18,
            "generator misses instruction variants"
        );
    }
}
