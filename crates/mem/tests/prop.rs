//! Property tests: `Memory` must agree with a trivial reference model.

use std::collections::HashMap;

use hardbound_mem::Memory;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    WriteByte(u32, u8),
    WriteWord(u32, u32),
    SetTag(u32, u8),
    SetShadow(u32, u32, u32),
    WriteWordTagged(u32, u32, u8),
    WriteWordPointer(u32, u32, u8, u32, u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Confine addresses to a few pages so operations actually collide.
    let addr = prop_oneof![
        0u32..0x3000,
        0x0FFC_u32..0x1004,
        0x1000_0000u32..0x1000_0100
    ];
    let word_addr = addr.clone().prop_map(|a| a & !3);
    prop_oneof![
        (addr.clone(), any::<u8>()).prop_map(|(a, v)| Op::WriteByte(a, v)),
        (addr.clone(), any::<u32>()).prop_map(|(a, v)| Op::WriteWord(a, v)),
        (addr.clone(), 0u8..16).prop_map(|(a, t)| Op::SetTag(a, t)),
        (addr, any::<u32>(), any::<u32>()).prop_map(|(a, b, d)| Op::SetShadow(a, b, d)),
        (word_addr.clone(), any::<u32>(), 0u8..3)
            .prop_map(|(a, v, t)| Op::WriteWordTagged(a, v, t)),
        (word_addr, any::<u32>(), 1u8..3, any::<u32>(), any::<u32>())
            .prop_map(|(a, v, t, b, d)| Op::WriteWordPointer(a, v, t, b, d)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn memory_matches_reference(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut mem = Memory::new();
        let mut ref_bytes: HashMap<u32, u8> = HashMap::new();
        let mut ref_tags: HashMap<u32, u8> = HashMap::new();
        let mut ref_shadow: HashMap<u32, (u32, u32)> = HashMap::new();

        for op in &ops {
            match *op {
                Op::WriteByte(a, v) => {
                    mem.write_u8(a, v);
                    ref_bytes.insert(a, v);
                }
                Op::WriteWord(a, v) => {
                    mem.write_u32(a, v);
                    for (i, b) in v.to_le_bytes().iter().enumerate() {
                        ref_bytes.insert(a.wrapping_add(i as u32), *b);
                    }
                }
                Op::SetTag(a, t) => {
                    mem.set_tag(a, t);
                    ref_tags.insert(a & !3, t);
                }
                Op::SetShadow(a, b, d) => {
                    mem.set_shadow(a, (b, d));
                    ref_shadow.insert(a & !3, (b, d));
                }
                Op::WriteWordTagged(a, v, t) => {
                    mem.write_word_tagged(a, v, t);
                    for (i, b) in v.to_le_bytes().iter().enumerate() {
                        ref_bytes.insert(a + i as u32, *b);
                    }
                    ref_tags.insert(a, t);
                }
                Op::WriteWordPointer(a, v, t, b, d) => {
                    mem.write_word_pointer(a, v, t, (b, d));
                    for (i, byte) in v.to_le_bytes().iter().enumerate() {
                        ref_bytes.insert(a + i as u32, *byte);
                    }
                    ref_tags.insert(a, t);
                    ref_shadow.insert(a, (b, d));
                }
            }
        }

        for (&a, &v) in &ref_bytes {
            prop_assert_eq!(mem.read_u8(a), v);
        }
        for (&a, &t) in &ref_tags {
            prop_assert_eq!(mem.tag(a), t);
            prop_assert_eq!(mem.tag(a + 3), t);
        }
        for (&a, &s) in &ref_shadow {
            prop_assert_eq!(mem.shadow(a), s);
        }

        // The per-page metadata counts must agree with a from-scratch scan
        // of the reference model.
        let mut tag_count: HashMap<u32, u32> = HashMap::new();
        for (&a, &t) in &ref_tags {
            if t != 0 {
                *tag_count.entry(a / 4096).or_insert(0) += 1;
            }
        }
        let mut shadow_count: HashMap<u32, u32> = HashMap::new();
        for (&a, &s) in &ref_shadow {
            if s != (0, 0) {
                *shadow_count.entry(a / 4096).or_insert(0) += 1;
            }
        }
        let pages: std::collections::HashSet<u32> = ref_bytes
            .keys()
            .chain(ref_tags.keys())
            .chain(ref_shadow.keys())
            .map(|a| a / 4096)
            .collect();
        for &page in &pages {
            let a = page * 4096;
            let want_tags = tag_count.get(&page).copied().unwrap_or(0);
            let want_shadow = shadow_count.get(&page).copied().unwrap_or(0);
            prop_assert_eq!(mem.page_tag_words(a), want_tags, "page {:#x}", a);
            prop_assert_eq!(mem.page_shadow_words(a), want_shadow, "page {:#x}", a);
        }
    }

    #[test]
    fn word_read_composes_byte_reads(addr in 0u32..0x2000, value in any::<u32>()) {
        let mut mem = Memory::new();
        mem.write_u32(addr, value);
        let composed = u32::from_le_bytes([
            mem.read_u8(addr),
            mem.read_u8(addr + 1),
            mem.read_u8(addr + 2),
            mem.read_u8(addr + 3),
        ]);
        prop_assert_eq!(composed, value);
        prop_assert_eq!(mem.read_u32(addr), value);
    }
}
