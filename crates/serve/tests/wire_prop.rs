//! Property suite for the wire codec: `decode ∘ encode ≡ id` over
//! generated [`RunOutcome`]s, [`MachineConfig`]s and store-record keys —
//! the invariant that makes disk replay and socket replay byte-identical
//! to in-process execution.

use hardbound_core::{
    ExecStats, HardboundConfig, MachineConfig, Pc, PointerEncoding, RunOutcome, SafetyMode, Trap,
};
use hardbound_isa::FuncId;
use hardbound_serve::wire::{
    decode_config, decode_outcome, encode_config, encode_outcome, Reader, Writer,
};
use proptest::prelude::*;

fn pc() -> impl Strategy<Value = Pc> {
    (any::<u32>(), any::<u32>()).prop_map(|(f, i)| Pc {
        func: FuncId(f),
        index: i,
    })
}

fn trap() -> impl Strategy<Value = Trap> {
    prop_oneof![
        (
            pc(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<bool>()
        )
            .prop_map(|(pc, addr, base, bound, is_store)| Trap::BoundsViolation {
                pc,
                addr,
                base,
                bound,
                is_store,
            }),
        (pc(), any::<u32>(), any::<bool>()).prop_map(|(pc, addr, is_store)| {
            Trap::NonPointerDereference { pc, addr, is_store }
        }),
        (pc(), any::<u32>()).prop_map(|(pc, value)| Trap::InvalidCallTarget { pc, value }),
        (pc(), any::<u32>(), any::<bool>()).prop_map(|(pc, addr, is_store)| Trap::WildAddress {
            pc,
            addr,
            is_store
        }),
        any::<i32>().prop_map(|code| Trap::SoftwareAbort { code }),
        (pc(), any::<u32>()).prop_map(|(pc, addr)| Trap::ObjectTableViolation { pc, addr }),
        pc().prop_map(|pc| Trap::DivideByZero { pc }),
        Just(Trap::CallDepthExceeded),
        Just(Trap::StackOverflow),
        Just(Trap::OutOfFuel),
    ]
}

fn stats() -> impl Strategy<Value = ExecStats> {
    (
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        (0usize..1 << 20, 0usize..1 << 20, 0usize..1 << 20),
    )
        .prop_map(|(a, b, c, pages)| {
            let mut s = ExecStats {
                uops: a.0,
                setbound_uops: a.1,
                meta_uops: a.2,
                check_uops: a.3,
                bounds_checks: a.4,
                loads: a.5,
                stores: b.0,
                ptr_stores: b.1,
                compressed_ptr_stores: b.2,
                ptr_loads: b.3,
                compressed_ptr_loads: b.4,
                objtable_cycles: b.5,
                ..ExecStats::default()
            };
            s.hierarchy.data_accesses = c.0;
            s.hierarchy.data_stall_cycles = c.1;
            s.hierarchy.tag_accesses = c.2;
            s.hierarchy.tag_stall_cycles = c.3;
            s.hierarchy.shadow_accesses = c.4;
            s.hierarchy.shadow_stall_cycles = c.5;
            s.data_pages = pages.0;
            s.tag_pages = pages.1;
            s.shadow_pages = pages.2;
            s
        })
}

fn outcome() -> impl Strategy<Value = RunOutcome> {
    (
        prop_oneof![Just(None), any::<i32>().prop_map(Some)],
        prop_oneof![Just(None), trap().prop_map(Some)],
        stats(),
        prop::collection::vec(0u8..128, 0..64),
        prop::collection::vec(any::<i32>(), 0..32),
    )
        .prop_map(|(exit_code, trap, stats, output, ints)| RunOutcome {
            exit_code,
            trap,
            stats,
            // Arbitrary ASCII keeps the string valid UTF-8; multi-byte
            // coverage comes from the fixed case in the unit tests.
            output: output.into_iter().map(char::from).collect(),
            ints,
        })
}

fn config() -> impl Strategy<Value = MachineConfig> {
    (
        prop_oneof![
            Just(None),
            (0u8..3, any::<bool>(), any::<bool>()).prop_map(|(enc, malloc_only, check)| {
                let encoding = [
                    PointerEncoding::Extern4,
                    PointerEncoding::Intern4,
                    PointerEncoding::Intern11,
                ][enc as usize];
                let mode = if malloc_only {
                    SafetyMode::MallocOnly
                } else {
                    SafetyMode::Full
                };
                Some(HardboundConfig {
                    encoding,
                    mode,
                    check_uop: check,
                })
            }),
        ],
        any::<u64>(),
        1usize..1 << 24,
        (1u64..1 << 24, 1usize..64, 0u64..1 << 10),
    )
        .prop_map(|(hardbound, fuel, depth, (bytes, ways, penalty))| {
            let mut cfg = MachineConfig::baseline();
            cfg.hardbound = hardbound;
            cfg.fuel = fuel;
            cfg.max_call_depth = depth;
            cfg.hierarchy.tag_cache_bytes = bytes;
            cfg.hierarchy.l1_ways = ways;
            cfg.hierarchy.l2_miss_penalty = penalty;
            cfg
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn outcome_encode_decode_is_identity(out in outcome()) {
        let mut w = Writer::new();
        encode_outcome(&mut w, &out);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = decode_outcome(&mut r).expect("encoded outcomes decode");
        prop_assert_eq!(back, out, "decode ∘ encode must be the identity");
        prop_assert!(r.is_exhausted(), "no trailing bytes");
    }

    #[test]
    fn config_encode_decode_is_identity(cfg in config()) {
        let mut w = Writer::new();
        encode_config(&mut w, &cfg);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = decode_config(&mut r).expect("encoded configs decode");
        prop_assert_eq!(back, cfg, "decode ∘ encode must be the identity");
        prop_assert!(r.is_exhausted());
    }

    /// Fingerprint keys (two u64s) survive the record framing: encode a
    /// key alongside an outcome, decode, compare — and the config's
    /// stable fingerprint is unchanged by a wire round trip, so remote
    /// and local store keys agree.
    #[test]
    fn fingerprints_survive_the_wire(cfg in config(), salt in any::<u64>()) {
        let fp = hardbound_exec::config_fingerprint(&cfg, salt);
        let mut w = Writer::new();
        encode_config(&mut w, &cfg);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = decode_config(&mut r).expect("decodes");
        prop_assert_eq!(
            hardbound_exec::config_fingerprint(&back, salt),
            fp,
            "a config's fingerprint must be invariant under the codec"
        );
    }

    /// Corrupting any single byte of an encoded outcome never panics the
    /// decoder: it either fails cleanly or yields some decoded value —
    /// the record checksum upstream is what detects the flip.
    #[test]
    fn single_byte_corruption_never_panics(out in outcome(), flip in any::<u64>()) {
        let mut w = Writer::new();
        encode_outcome(&mut w, &out);
        let mut bytes = w.into_bytes();
        let i = (flip % bytes.len() as u64) as usize;
        bytes[i] ^= 1 + (flip >> 32) as u8 % 255;
        let mut r = Reader::new(&bytes);
        let _ = decode_outcome(&mut r); // must not panic
    }
}
