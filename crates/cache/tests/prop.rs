//! The reference LRU model and the tests that pin the cache against it.
//!
//! `RefCache` is a naive set-associative LRU array (a recency-ordered
//! `Vec` per set); `RefHierarchy` wires five of them together with the
//! penalty rules of `Hierarchy::access`. The real [`Cache`] (residency
//! filter plus branchless padded-set scan) and [`Hierarchy`] (same-block
//! memos in front of that lookup) must agree with them on every hit,
//! miss, returned stall and counter.

use hardbound_cache::{AccessClass, Cache, CacheStats, Hierarchy, HierarchyConfig, HierarchyStats};
use proptest::prelude::*;

/// Naive reference: each set is a recency-ordered vector of block tags.
struct RefCache {
    block_bits: u32,
    num_sets: u64,
    ways: usize,
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl RefCache {
    fn new(num_sets: u64, ways: usize, block_bytes: u64) -> RefCache {
        RefCache {
            block_bits: block_bytes.trailing_zeros(),
            num_sets,
            ways,
            sets: vec![Vec::new(); num_sets as usize],
            stats: CacheStats::default(),
        }
    }

    /// A cache of `bytes` capacity, as `Cache::new` sizes it.
    fn sized(bytes: u64, ways: usize, block_bytes: u64) -> RefCache {
        RefCache::new(bytes / block_bytes / ways as u64, ways, block_bytes)
    }

    fn access(&mut self, addr: u64) -> bool {
        let block = addr >> self.block_bits;
        let set = &mut self.sets[(block % self.num_sets) as usize];
        if let Some(pos) = set.iter().position(|&b| b == block) {
            set.remove(pos);
            set.insert(0, block);
            self.stats.hits += 1;
            true
        } else {
            set.insert(0, block);
            set.truncate(self.ways);
            self.stats.misses += 1;
            false
        }
    }
}

/// Reference hierarchy: a TLB and a first-level structure per access
/// class (dTLB + L1 for data and shadow, tag TLB + tag cache for tags),
/// both first levels missing into one shared L2.
struct RefHierarchy {
    cfg: HierarchyConfig,
    l1d: RefCache,
    tag_cache: RefCache,
    l2: RefCache,
    dtlb: RefCache,
    tag_tlb: RefCache,
    stats: HierarchyStats,
}

impl RefHierarchy {
    fn new(cfg: HierarchyConfig) -> RefHierarchy {
        let tlb = || RefCache::new(cfg.tlb_entries / cfg.tlb_ways as u64, cfg.tlb_ways, 4096);
        RefHierarchy {
            l1d: RefCache::sized(cfg.l1_bytes, cfg.l1_ways, cfg.block_bytes),
            tag_cache: RefCache::sized(cfg.tag_cache_bytes, cfg.tag_cache_ways, cfg.block_bytes),
            l2: RefCache::sized(cfg.l2_bytes, cfg.l2_ways, cfg.block_bytes),
            dtlb: tlb(),
            tag_tlb: tlb(),
            stats: HierarchyStats::default(),
            cfg,
        }
    }

    fn access(&mut self, class: AccessClass, addr: u64) -> u64 {
        let (tlb, first) = match class {
            AccessClass::Data | AccessClass::Shadow => (&mut self.dtlb, &mut self.l1d),
            AccessClass::Tag => (&mut self.tag_tlb, &mut self.tag_cache),
        };
        let mut stall = 0;
        if !tlb.access(addr) {
            stall += self.cfg.tlb_miss_penalty;
        }
        if !first.access(addr) {
            stall += self.cfg.l1_miss_penalty;
            if !self.l2.access(addr) {
                stall += self.cfg.l2_miss_penalty;
            }
        }
        let (accesses, stalls) = match class {
            AccessClass::Data => (
                &mut self.stats.data_accesses,
                &mut self.stats.data_stall_cycles,
            ),
            AccessClass::Tag => (
                &mut self.stats.tag_accesses,
                &mut self.stats.tag_stall_cycles,
            ),
            AccessClass::Shadow => (
                &mut self.stats.shadow_accesses,
                &mut self.stats.shadow_stall_cycles,
            ),
        };
        *accesses += 1;
        *stalls += stall;
        stall
    }

    fn observations(&self) -> (HierarchyStats, [CacheStats; 4]) {
        let s = |c: &RefCache| c.stats;
        (
            self.stats,
            [s(&self.l1d), s(&self.tag_cache), s(&self.l2), s(&self.dtlb)],
        )
    }
}

/// Everything [`Hierarchy`] lets a caller observe, in
/// [`RefHierarchy::observations`] order.
fn observations(h: &Hierarchy) -> (HierarchyStats, [CacheStats; 4]) {
    (
        h.stats(),
        [
            h.l1_stats(),
            h.tag_cache_stats(),
            h.l2_stats(),
            h.dtlb_stats(),
        ],
    )
}

/// Maps a stream element to a classed access: data addresses as given,
/// tag addresses in the tag region (one tag block per 32 data blocks),
/// shadow addresses in the shadow region.
fn classed(kind: u64, addr: u64) -> (AccessClass, u64) {
    match kind % 3 {
        0 => (AccessClass::Data, addr),
        1 => (AccessClass::Tag, 0x3_0000_0000 + (addr >> 5)),
        _ => (AccessClass::Shadow, 0x1_0000_0000 + addr),
    }
}

/// One step of the 64-bit LCG the deterministic streams use.
fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1)
}

#[test]
fn cache_matches_reference_on_a_long_random_stream() {
    let mut real = Cache::new(1024, 4, 32);
    let mut reference = RefCache::sized(1024, 4, 32);
    let mut x = 0x9e37_79b9u64;
    for i in 0..20_000u64 {
        x = lcg(x);
        let addr = (x >> 16) & 0x7FFF;
        assert_eq!(real.access(addr), reference.access(addr), "access {i}");
    }
    assert_eq!(real.stats(), reference.stats);
    assert!(real.fast_stats().fastpath_hits > 0);
}

#[test]
fn padded_stride_keeps_lru_for_non_power_of_two_ways() {
    // 3 ways pad to stride 4; the padding slot must never hit and never be
    // chosen as a victim.
    let mut real = Cache::with_sets(2, 3, 32);
    let mut reference = RefCache::new(2, 3, 32);
    let mut x = 7u64;
    for i in 0..5_000u64 {
        x = x.wrapping_mul(48271) % 0x7FFF_FFFF;
        let addr = (x & 0x1FF) * 32;
        assert_eq!(real.access(addr), reference.access(addr), "access {i}");
    }
    assert_eq!(real.stats(), reference.stats);
}

#[test]
fn hierarchy_matches_reference_on_a_mixed_stream() {
    // A mixed Data/Tag/Shadow stream over the paper's geometry: every
    // returned stall and every observable counter must match. The
    // proptest below re-runs this shape over random streams.
    let mut real = Hierarchy::new(HierarchyConfig::default());
    let mut reference = RefHierarchy::new(HierarchyConfig::default());
    let mut x = 0x0bad_cafeu64;
    for i in 0..6000u64 {
        x = lcg(x);
        let (class, addr) = classed(x, (x >> 16) & 0xF_FFFF);
        assert_eq!(
            real.access(class, addr),
            reference.access(class, addr),
            "stall divergence at access {i}"
        );
    }
    assert_eq!(observations(&real), reference.observations());
    assert!(real.fast_stats().fastpath_hits > 0);
}

/// A small geometry on which shadow traffic often evicts the data block
/// it follows: a four-set L1 of `l1_ways` ways, a direct-mapped tag
/// cache, a 1 KiB L2 and four-entry TLBs.
fn small_geometry(l1_ways: usize) -> HierarchyConfig {
    HierarchyConfig {
        l1_bytes: 4 * 32 * l1_ways as u64,
        l1_ways,
        l2_bytes: 1024,
        l2_ways: 2,
        tlb_entries: 4,
        tlb_ways: 1,
        tag_cache_bytes: 64,
        tag_cache_ways: 1,
        ..HierarchyConfig::default()
    }
}

#[test]
fn memos_match_reference_on_machine_shaped_traffic() {
    // The machine's traffic: runs of word accesses within one data block,
    // each a data access and its tag access, and now and then the shadow
    // access of an uncompressed pointer. The shadow block shares the data
    // block's L1 set, so a memo that outlived it would report a hit the
    // reference misses.
    for l1_ways in [1, 2] {
        for seed in [1u64, 0x5eed, 0xdead_beef] {
            let cfg = small_geometry(l1_ways);
            assert_eq!(cfg.validate(), Ok(()));
            let mut real = Hierarchy::new(cfg);
            let mut reference = RefHierarchy::new(cfg);
            let mut x = seed;
            let mut addr = 0u64;
            for i in 0..4000u64 {
                x = lcg(x);
                addr = if x >> 61 == 0 {
                    (x >> 20) & 0x1FFC
                } else {
                    (addr & !31) | ((addr + 4) & 31)
                };
                let mut step = vec![
                    (AccessClass::Data, addr),
                    (AccessClass::Tag, 0x3_0000_0000 + (addr >> 5)),
                ];
                if (x >> 40) & 7 == 0 {
                    step.push((AccessClass::Shadow, 0x1_0000_0000 + addr));
                }
                for (class, a) in step {
                    assert_eq!(
                        real.access(class, a),
                        reference.access(class, a),
                        "{l1_ways}-way L1, seed {seed:#x}: {class:?} access {i} at {a:#x}"
                    );
                }
            }
            assert_eq!(observations(&real), reference.observations());
            // Memo hits happened: the structures counted more accesses
            // than their filters saw lookups (the tag TLB sees every tag
            // access the tag cache does).
            let [l1, tag_cache, l2, dtlb] = observations(&real).1;
            let counted =
                l1.accesses() + 2 * tag_cache.accesses() + l2.accesses() + dtlb.accesses();
            let fast = real.fast_stats();
            assert!(
                counted > fast.fastpath_hits + fast.fastpath_misses,
                "no memo hits: {counted} accesses, {fast:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cache_matches_reference_lru(
        sets_log in 0u32..4,
        ways in 1usize..5,
        addrs in prop::collection::vec(0u64..0x4000, 1..400),
    ) {
        let num_sets = 1u64 << sets_log;
        let mut real = Cache::with_sets(num_sets, ways, 32);
        let mut reference = RefCache::new(num_sets, ways, 32);
        for (i, &a) in addrs.iter().enumerate() {
            let got = real.access(a);
            let want = reference.access(a);
            prop_assert_eq!(got, want, "divergence at access {} addr {:#x}", i, a);
        }
        prop_assert_eq!(
            real.stats().accesses(),
            addrs.len() as u64
        );
    }

    #[test]
    fn probe_agrees_with_access_history(
        addrs in prop::collection::vec(0u64..0x800, 1..200),
    ) {
        let mut c = Cache::with_sets(4, 2, 32);
        let mut reference = RefCache::new(4, 2, 32);
        for &a in &addrs {
            // probe must predict exactly what a subsequent access reports.
            let predicted = c.probe(a);
            let hit = c.access(a);
            prop_assert_eq!(predicted, hit);
            reference.access(a);
        }
    }

    /// The real hierarchy and the reference one, driven by the same
    /// pseudo-random mixed Data/Tag/Shadow stream, must agree on every
    /// returned stall, the `HierarchyStats` and every per-structure
    /// `CacheStats`.
    #[test]
    fn hierarchy_matches_reference_hierarchy(
        big_tag_cache in any::<bool>(),
        stream in prop::collection::vec((0u64..3, 0u64..0x10_0000), 1..1500),
    ) {
        let kb = if big_tag_cache { 8 } else { 2 };
        let cfg = HierarchyConfig::default().with_tag_cache_bytes(kb * 1024);
        let mut real = Hierarchy::new(cfg);
        let mut reference = RefHierarchy::new(cfg);
        for (i, &(kind, addr)) in stream.iter().enumerate() {
            let (class, addr) = classed(kind, addr);
            let a = real.access(class, addr);
            let b = reference.access(class, addr);
            prop_assert_eq!(a, b, "stall divergence at access {} addr {:#x}", i, addr);
        }
        prop_assert_eq!(observations(&real), reference.observations());
    }
}
