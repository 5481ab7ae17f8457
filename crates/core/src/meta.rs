use hardbound_isa::BinOp;

/// Sidecar `{base, bound}` metadata of one register or memory word
/// (paper §3.1: "the architected state of registers and memory locations
/// are now triples `{value; base; bound}`").
///
/// Distinguished values:
///
/// * [`Meta::NONE`] `(0, 0)` — a non-pointer; dereferencing it traps in
///   full-safety mode (Figure 3's "nonpointer check").
/// * [`Meta::UNCHECKED`] `(0, MAXINT)` — the §3.2 escape hatch: "a
///   completely unsafe pointer that passes all bounds checks".
/// * [`Meta::CODE`] `(MAXINT, MAXINT)` — a code pointer (§6.1): callable
///   but never dereferenceable, so function pointers cannot be forged into
///   data pointers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Meta {
    /// First valid address of the region.
    pub base: u32,
    /// First address *after* the region (exclusive).
    pub bound: u32,
}

impl From<(u32, u32)> for Meta {
    fn from((base, bound): (u32, u32)) -> Meta {
        Meta { base, bound }
    }
}

impl Meta {
    /// Non-pointer marker.
    pub const NONE: Meta = Meta { base: 0, bound: 0 };
    /// The escape-hatch pointer that passes every check (§3.2).
    pub const UNCHECKED: Meta = Meta {
        base: 0,
        bound: u32::MAX,
    };
    /// Code-pointer marker (§6.1): fails every dereference check but is
    /// accepted by indirect calls.
    pub const CODE: Meta = Meta {
        base: u32::MAX,
        bound: u32::MAX,
    };

    /// Builds metadata for an object of `size` bytes starting at `base`
    /// (the effect of `setbound`).
    #[must_use]
    pub fn object(base: u32, size: u32) -> Meta {
        Meta {
            base,
            bound: base.wrapping_add(size),
        }
    }

    /// Whether this metadata marks a pointer (anything but `NONE`).
    #[must_use]
    pub fn is_pointer(self) -> bool {
        self != Meta::NONE
    }

    /// Whether this is the code-pointer marker.
    #[must_use]
    pub fn is_code(self) -> bool {
        self == Meta::CODE
    }

    /// The implicit HardBound dereference check for an access covering
    /// `[ea, ea + width)`.
    ///
    /// The paper's Figure 3 checks only the effective address
    /// (`value < base or value >= bound`); we check the whole access span,
    /// which is strictly stronger and catches word accesses that straddle
    /// the bound (see DESIGN.md "modelling deviations").
    #[must_use]
    pub fn check(self, ea: u32, width: u32) -> bool {
        let ea = u64::from(ea);
        let width = u64::from(width);
        ea >= u64::from(self.base) && ea + width <= u64::from(self.bound)
    }

    /// Object size in bytes (`bound - base`), saturating at zero for
    /// malformed pairs.
    #[must_use]
    pub fn size(self) -> u32 {
        self.bound.wrapping_sub(self.base)
    }
}

/// Metadata result of a two-operand ALU instruction (paper Figure 3 A/B).
///
/// * Pointer-forming ops (`add`, `sub`) propagate the first operand's
///   metadata if it is a pointer, otherwise the second's (`R1.base ←
///   if (R2.bound != 0) R2.base else R3.base`).
/// * All other ops clear the metadata.
#[inline]
#[must_use]
pub fn propagate_binop(op: BinOp, lhs: Meta, rhs: Option<Meta>) -> Meta {
    if !op.propagates_bounds() {
        return Meta::NONE;
    }
    if lhs.bound != 0 || lhs.base != 0 {
        lhs
    } else {
        rhs.unwrap_or(Meta::NONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_constructor() {
        let m = Meta::object(0x1000, 4);
        assert_eq!(
            m,
            Meta {
                base: 0x1000,
                bound: 0x1004
            }
        );
        assert_eq!(m.size(), 4);
        assert!(m.is_pointer());
        assert!(!m.is_code());
    }

    #[test]
    fn figure2_checks() {
        // setbound R2 ← 0x1000, 4  ⇒ {0x1000; 0x1000; 0x1004}
        let m = Meta::object(0x1000, 4);
        // load Mem[R2+2]: address 0x1002 passes (byte access).
        assert!(m.check(0x1002, 1));
        // load Mem[R2+5]: address 0x1005 fails.
        assert!(!m.check(0x1005, 1));
        // R4 = R2 + 1 keeps the same bounds; 0x1003 passes, 0x1006 fails.
        assert!(m.check(0x1003, 1));
        assert!(!m.check(0x1006, 1));
    }

    #[test]
    fn span_check_catches_straddling_word() {
        let m = Meta::object(0x1000, 4);
        assert!(m.check(0x1000, 4));
        assert!(
            !m.check(0x1002, 4),
            "word access straddling the bound must fail"
        );
        assert!(!m.check(0x0FFF, 4), "access starting below base must fail");
    }

    #[test]
    fn unchecked_passes_everything() {
        for (ea, w) in [(0u32, 1u32), (0x1234_5678, 4), (u32::MAX - 4, 4)] {
            assert!(Meta::UNCHECKED.check(ea, w));
        }
        assert!(Meta::UNCHECKED.is_pointer());
    }

    #[test]
    fn code_pointer_fails_every_dereference() {
        for (ea, w) in [(0u32, 1u32), (0x1000, 4), (u32::MAX, 1)] {
            assert!(
                !Meta::CODE.check(ea, w),
                "code pointers are not dereferenceable"
            );
        }
        assert!(Meta::CODE.is_pointer());
        assert!(Meta::CODE.is_code());
    }

    #[test]
    fn nonpointer_fails_checks() {
        assert!(!Meta::NONE.check(0, 1));
        assert!(!Meta::NONE.is_pointer());
    }

    #[test]
    fn add_propagates_first_pointer_operand() {
        let p = Meta::object(0x2000, 16);
        let q = Meta::object(0x3000, 8);
        // pointer + immediate → pointer's bounds (Figure 3 A).
        assert_eq!(propagate_binop(BinOp::Add, p, None), p);
        // pointer + nonpointer → pointer's bounds (Figure 3 B).
        assert_eq!(propagate_binop(BinOp::Add, p, Some(Meta::NONE)), p);
        // nonpointer + pointer → the second operand's bounds.
        assert_eq!(propagate_binop(BinOp::Add, Meta::NONE, Some(q)), q);
        // pointer + pointer → the first operand wins (paper's if-else).
        assert_eq!(propagate_binop(BinOp::Add, p, Some(q)), p);
        // nonpointer + nonpointer → nonpointer.
        assert_eq!(
            propagate_binop(BinOp::Add, Meta::NONE, Some(Meta::NONE)),
            Meta::NONE
        );
    }

    #[test]
    fn sub_propagates_like_add() {
        let p = Meta::object(0x2000, 16);
        assert_eq!(propagate_binop(BinOp::Sub, p, Some(Meta::NONE)), p);
        assert_eq!(propagate_binop(BinOp::Sub, Meta::NONE, Some(p)), p);
    }

    #[test]
    fn non_pointer_ops_clear_metadata() {
        let p = Meta::object(0x2000, 16);
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
            assert_eq!(propagate_binop(op, p, Some(p)), Meta::NONE, "{op:?}");
        }
    }

    #[test]
    fn escape_hatch_meta_propagates_through_add() {
        // UNCHECKED has bound != 0, so Figure 3's test treats it as a
        // pointer and propagates it.
        assert_eq!(
            propagate_binop(BinOp::Add, Meta::UNCHECKED, Some(Meta::NONE)),
            Meta::UNCHECKED
        );
    }
}
