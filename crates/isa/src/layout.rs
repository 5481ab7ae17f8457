//! Virtual-address-space layout of the simulated machine.
//!
//! The entire *program-visible* address space sits below 128 MB so that
//! every data pointer is eligible for the paper's internal compressed
//! encodings, which require pointers to lie in the lowest or highest 128 MB
//! of the virtual address space (paper §4.3). The hardware metadata spaces
//! (base/bound shadow, tag space) are *conceptual* virtual regions used for
//! cache indexing and page accounting; they are modelled with 64-bit
//! addresses so they can never collide with program data.

/// Base of the code-handle region. The address of function `f` is
/// `CODE_BASE + 16 * f.0`; code addresses are never dereferenceable (their
/// sidecar metadata is `{MAXINT, MAXINT}` per paper §6.1).
pub const CODE_BASE: u32 = 0x0000_1000;

/// Byte stride between consecutive function handles in the code region.
pub const CODE_STRIDE: u32 = 16;

/// Base address of the global data section.
pub const GLOBALS_BASE: u32 = 0x0001_0000;

/// First address of the heap managed by the Cb runtime allocator.
pub const HEAP_BASE: u32 = 0x0100_0000;

/// One past the last usable heap address (64 MB heap).
pub const HEAP_END: u32 = 0x0500_0000;

/// Stack top; the stack grows downward from here.
pub const STACK_TOP: u32 = 0x0700_0000;

/// Lowest address the stack pointer may reach (8 MB stack).
pub const STACK_LIMIT: u32 = 0x0680_0000;

/// Base of the *software* shadow region used only by the SoftBound
/// (CCured-style) compiler mode, which maintains pointer metadata with
/// explicit instructions. `sw_shadow_addr` maps a word address into it.
pub const SW_SHADOW_BASE: u32 = 0x6000_0000;

/// Base of the hardware base/bound shadow space (paper §4.1):
/// `base(addr) = SHADOW_SPACE_BASE + addr * 2`, interleaved so base and
/// bound are fetched with one double-word access. Modelled as a 64-bit
/// conceptual address so it never collides with program data.
pub const HW_SHADOW_BASE: u64 = 0x1_0000_0000;

/// Base of the tag metadata space (paper §4.2): one bit (or one nibble, for
/// the external 4-bit encoding) per 32-bit word of program memory.
pub const HW_TAG_BASE: u64 = 0x3_0000_0000;

/// Size of a virtual-memory page (4 KB, as in the paper's evaluation).
pub const PAGE_SIZE: u64 = 4096;

/// Address of the base/bound shadow entry for the word containing `addr`
/// (paper §4.1's `base(addr) = SHADOW_SPACE_BASE + (addr * 2)`, expressed
/// over byte addresses: 8 metadata bytes per 4-byte word).
#[must_use]
pub fn hw_shadow_addr(addr: u32) -> u64 {
    HW_SHADOW_BASE + u64::from(addr & !3) * 2
}

/// Address of the tag metadata for the word containing `addr`, given the
/// number of tag bits per word (1 or 4).
///
/// With 1-bit tags one tag byte covers 32 data bytes; with 4-bit tags one
/// tag byte covers 8 data bytes (paper §4.2–4.3).
#[must_use]
pub fn hw_tag_addr(addr: u32, tag_bits: u32) -> u64 {
    debug_assert!(tag_bits == 1 || tag_bits == 4);
    let data_bytes_per_tag_byte = u64::from(32 / tag_bits);
    HW_TAG_BASE + u64::from(addr) / data_bytes_per_tag_byte
}

/// Address of the *software* shadow slot (SoftBound mode) holding the base
/// word for the pointer stored at word address `addr`; the bound word lives
/// at `+4`.
#[must_use]
pub fn sw_shadow_addr(addr: u32) -> u32 {
    SW_SHADOW_BASE + (addr & !3) * 2
}

/// The code-region address denoting function `func_index`.
#[must_use]
pub fn code_addr(func_index: u32) -> u32 {
    CODE_BASE + func_index * CODE_STRIDE
}

/// Inverse of [`code_addr`]; `None` if `addr` is not a function handle.
#[must_use]
pub fn func_index_of_code_addr(addr: u32) -> Option<u32> {
    if !(CODE_BASE..GLOBALS_BASE).contains(&addr) || !(addr - CODE_BASE).is_multiple_of(CODE_STRIDE)
    {
        return None;
    }
    Some((addr - CODE_BASE) / CODE_STRIDE)
}

/// The 4 KB page number of a conceptual 64-bit address.
#[must_use]
pub fn page_of(addr: u64) -> u64 {
    addr / PAGE_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_ordered() {
        const _: () = assert!(CODE_BASE < GLOBALS_BASE);
        const _: () = assert!(GLOBALS_BASE < HEAP_BASE);
        const _: () = assert!(HEAP_BASE < HEAP_END);
        const _: () = assert!(HEAP_END < STACK_LIMIT);
        const _: () = assert!(STACK_LIMIT < STACK_TOP);
        const _: () = assert!(STACK_TOP <= SW_SHADOW_BASE);
    }

    #[test]
    fn program_space_fits_lowest_128mb() {
        // Required for the internal compressed encodings (paper §4.3).
        const _: () = assert!(STACK_TOP <= 128 * 1024 * 1024);
    }

    #[test]
    fn sw_shadow_stays_in_32_bits() {
        // The largest program data address must map inside the u32 space.
        let top = sw_shadow_addr(STACK_TOP - 4);
        assert!(top > SW_SHADOW_BASE);
        assert_eq!(sw_shadow_addr(0), SW_SHADOW_BASE);
        assert_eq!(sw_shadow_addr(7), SW_SHADOW_BASE + 8);
    }

    #[test]
    fn hw_shadow_is_interleaved_double_words() {
        assert_eq!(hw_shadow_addr(0), HW_SHADOW_BASE);
        assert_eq!(hw_shadow_addr(3), HW_SHADOW_BASE); // same word
        assert_eq!(hw_shadow_addr(4), HW_SHADOW_BASE + 8);
        assert_eq!(hw_shadow_addr(0x1000), HW_SHADOW_BASE + 0x2000);
    }

    #[test]
    fn tag_addresses_by_density() {
        assert_eq!(hw_tag_addr(0, 1), HW_TAG_BASE);
        assert_eq!(hw_tag_addr(31, 1), HW_TAG_BASE);
        assert_eq!(hw_tag_addr(32, 1), HW_TAG_BASE + 1);
        assert_eq!(hw_tag_addr(7, 4), HW_TAG_BASE);
        assert_eq!(hw_tag_addr(8, 4), HW_TAG_BASE + 1);
    }

    #[test]
    fn code_addr_roundtrip() {
        for f in [0u32, 1, 7, 100] {
            assert_eq!(func_index_of_code_addr(code_addr(f)), Some(f));
        }
        assert_eq!(func_index_of_code_addr(CODE_BASE + 1), None);
        assert_eq!(func_index_of_code_addr(0), None);
        assert_eq!(func_index_of_code_addr(GLOBALS_BASE), None);
    }

    #[test]
    fn page_numbering() {
        assert_eq!(page_of(0), 0);
        assert_eq!(page_of(4095), 0);
        assert_eq!(page_of(4096), 1);
        assert_eq!(page_of(HW_SHADOW_BASE), 0x1_0000_0000 / 4096);
    }
}
