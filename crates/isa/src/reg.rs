use std::fmt;

/// One of the 32 general-purpose registers of the simulated machine.
///
/// Architecturally every register carries a sidecar `{base, bound}` pair
/// (paper §3.1, "the architected state of registers ... are now triples");
/// the sidecars themselves are simulator state in `hardbound-core`, not part
/// of this identifier type.
///
/// Software conventions (enforced by `hardbound-compiler`, not hardware):
///
/// | register | role |
/// |---|---|
/// | `r0` | hardwired zero ([`Reg::ZERO`]) |
/// | `r1` | stack pointer ([`Reg::SP`]) |
/// | `r2` | frame pointer ([`Reg::FP`]) |
/// | `r3` | global-section pointer ([`Reg::GP`]) |
/// | `r4..=r11` | arguments / return value ([`Reg::A0`]..[`Reg::A7`]) |
/// | `r12..=r31` | expression temporaries ([`Reg::T0`]..) |
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Number of general-purpose registers.
    pub const COUNT: usize = 32;

    /// Hardwired zero register; writes are ignored, reads yield `0`.
    pub const ZERO: Reg = Reg(0);
    /// Stack pointer (software convention).
    pub const SP: Reg = Reg(1);
    /// Frame pointer (software convention).
    pub const FP: Reg = Reg(2);
    /// Global-section base pointer (software convention).
    pub const GP: Reg = Reg(3);
    /// First argument / return-value register.
    pub const A0: Reg = Reg(4);
    /// Second argument register.
    pub const A1: Reg = Reg(5);
    /// Third argument register.
    pub const A2: Reg = Reg(6);
    /// Fourth argument register.
    pub const A3: Reg = Reg(7);
    /// Fifth argument register.
    pub const A4: Reg = Reg(8);
    /// Sixth argument register.
    pub const A5: Reg = Reg(9);
    /// Seventh argument register.
    pub const A6: Reg = Reg(10);
    /// Eighth argument register.
    pub const A7: Reg = Reg(11);
    /// First expression temporary.
    pub const T0: Reg = Reg(12);
    /// Second expression temporary.
    pub const T1: Reg = Reg(13);
    /// Third expression temporary.
    pub const T2: Reg = Reg(14);

    /// Number of argument registers in the calling convention.
    pub const NUM_ARG_REGS: usize = 8;
    /// Index of the first expression-temporary register.
    pub const FIRST_TEMP: u8 = 12;

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[must_use]
    pub fn new(index: u8) -> Reg {
        assert!(
            (index as usize) < Reg::COUNT,
            "register index {index} out of range"
        );
        Reg(index)
    }

    /// Creates a register from its index if it is in range.
    #[must_use]
    pub fn try_new(index: u8) -> Option<Reg> {
        ((index as usize) < Reg::COUNT).then_some(Reg(index))
    }

    /// The `n`-th argument register (`n < 8`).
    ///
    /// # Panics
    ///
    /// Panics if `n >= 8`.
    #[must_use]
    pub fn arg(n: usize) -> Reg {
        assert!(n < Reg::NUM_ARG_REGS, "argument register {n} out of range");
        Reg(4 + n as u8)
    }

    /// The `n`-th temporary register.
    ///
    /// # Panics
    ///
    /// Panics if the index would exceed `r31`.
    #[must_use]
    pub fn temp(n: usize) -> Reg {
        let idx = Reg::FIRST_TEMP as usize + n;
        assert!(idx < Reg::COUNT, "temporary register {n} out of range");
        Reg(idx as u8)
    }

    /// Number of temporaries available to [`Reg::temp`].
    #[must_use]
    pub fn temp_count() -> usize {
        Reg::COUNT - Reg::FIRST_TEMP as usize
    }

    /// This register's index (`0..32`).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// `true` for the hardwired zero register.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The assembly name: `zero`, `sp`, `fp`, `gp`, `a0`–`a7`, `t0`–`t19`.
    #[must_use]
    pub fn name(self) -> &'static str {
        const NAMES: [&str; Reg::COUNT] = [
            "zero", "sp", "fp", "gp", "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "t0", "t1",
            "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "t10", "t11", "t12", "t13", "t14",
            "t15", "t16", "t17", "t18", "t19",
        ];
        NAMES[self.0 as usize]
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Reg({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_registers_have_expected_indices() {
        assert_eq!(Reg::ZERO.index(), 0);
        assert_eq!(Reg::SP.index(), 1);
        assert_eq!(Reg::FP.index(), 2);
        assert_eq!(Reg::GP.index(), 3);
        assert_eq!(Reg::A0.index(), 4);
        assert_eq!(Reg::arg(7).index(), 11);
        assert_eq!(Reg::T0.index(), 12);
        assert_eq!(Reg::temp(0), Reg::T0);
    }

    #[test]
    fn display_names() {
        assert_eq!(Reg::ZERO.to_string(), "zero");
        assert_eq!(Reg::A0.to_string(), "a0");
        assert_eq!(Reg::arg(3).to_string(), "a3");
        assert_eq!(Reg::temp(2).to_string(), "t2");
        assert_eq!(Reg::new(31).to_string(), "t19");
        for i in 0..Reg::COUNT as u8 {
            let name = match i {
                0 => "zero".to_owned(),
                1 => "sp".to_owned(),
                2 => "fp".to_owned(),
                3 => "gp".to_owned(),
                4..=11 => format!("a{}", i - 4),
                _ => format!("t{}", i - Reg::FIRST_TEMP),
            };
            assert_eq!(Reg::new(i).name(), name);
        }
    }

    #[test]
    fn try_new_bounds() {
        assert_eq!(Reg::try_new(31), Some(Reg::new(31)));
        assert_eq!(Reg::try_new(32), None);
    }

    #[test]
    #[should_panic(expected = "register index")]
    fn new_rejects_out_of_range() {
        let _ = Reg::new(32);
    }

    #[test]
    fn zero_detection() {
        assert!(Reg::ZERO.is_zero());
        assert!(!Reg::SP.is_zero());
    }

    #[test]
    fn temp_count_matches_layout() {
        assert_eq!(Reg::temp_count(), 20);
        let _ = Reg::temp(Reg::temp_count() - 1);
    }
}
