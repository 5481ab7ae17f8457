use crate::set_assoc::{Cache, CacheStats, FastPathStats};

/// The hierarchy's lookup machinery. Its one variant is the only lookup
/// there is: residency-proof filters answer repeat accesses without a
/// way-scan, and cold scans are branchless (see [`Cache`]).
///
/// No simulation code reads this type. It exists only because `hbbench`
/// checks `hier_path == HierPath::Event` before it runs, and it goes, with
/// `MachineConfig::hier_path`, in the next benchmark change, which drops
/// that check (ROADMAP item 7).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum HierPath {
    /// The one lookup path (see the type docs).
    #[default]
    Event,
}

/// The most lines (cache blocks, TLB entries) one structure of a
/// [`HierarchyConfig`] may have: 2^20, 8× the 2^17 lines of the paper's
/// 4 MB L2 at 32-byte blocks. [`HierarchyConfig::validate`] enforces it,
/// so an untrusted geometry cannot ask for an unbounded allocation.
const MAX_LINES: u64 = 1 << 20;

/// What kind of access is being made, for stall attribution.
///
/// Figure 5 of the paper splits HardBound's overhead into components; the
/// two memory-system components are "stalling on pointer metadata" (tag
/// and base/bound accesses) and "additional memory latency" (pollution
/// suffered by ordinary data accesses). Classifying every access lets the
/// machine compute both.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// Ordinary program data (or instruction-inserted software metadata —
    /// the SoftBound comparison treats its explicit metadata traffic as
    /// data, as real software schemes do).
    Data,
    /// HardBound tag metadata (1-bit or 4-bit per word), via the tag cache.
    Tag,
    /// HardBound base/bound shadow space, via the L1 (paper §4.4: "the
    /// base/bound metadata and program data share the primary data cache").
    Shadow,
}

/// Geometry and penalties of the simulated memory system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HierarchyConfig {
    /// L1 data cache capacity in bytes (paper: 32 KB).
    pub l1_bytes: u64,
    /// L1 associativity (paper: 4).
    pub l1_ways: usize,
    /// L1 miss penalty in cycles (paper: 12).
    pub l1_miss_penalty: u64,
    /// L2 capacity in bytes (paper: 4 MB).
    pub l2_bytes: u64,
    /// L2 associativity (paper: 4).
    pub l2_ways: usize,
    /// L2 miss penalty in cycles (paper: 200).
    pub l2_miss_penalty: u64,
    /// Block size in bytes for all caches (paper: 32).
    pub block_bytes: u64,
    /// TLB entries (paper: 256, 4-way, 4 KB pages).
    pub tlb_entries: u64,
    /// TLB associativity.
    pub tlb_ways: usize,
    /// TLB miss penalty in cycles (paper: 12).
    pub tlb_miss_penalty: u64,
    /// Tag metadata cache capacity in bytes (paper: 2 KB for 1-bit tags,
    /// 8 KB for the 4-bit external encoding).
    pub tag_cache_bytes: u64,
    /// Tag cache associativity (paper: 4).
    pub tag_cache_ways: usize,
}

impl Default for HierarchyConfig {
    /// The paper's §5.1 configuration with the 2 KB tag cache.
    fn default() -> HierarchyConfig {
        HierarchyConfig {
            l1_bytes: 32 * 1024,
            l1_ways: 4,
            l1_miss_penalty: 12,
            l2_bytes: 4 * 1024 * 1024,
            l2_ways: 4,
            l2_miss_penalty: 200,
            block_bytes: 32,
            tlb_entries: 256,
            tlb_ways: 4,
            tlb_miss_penalty: 12,
            tag_cache_bytes: 2 * 1024,
            tag_cache_ways: 4,
        }
    }
}

impl HierarchyConfig {
    /// The paper configuration with an 8 KB tag cache (external 4-bit
    /// encoding).
    #[must_use]
    pub fn with_tag_cache_bytes(mut self, bytes: u64) -> HierarchyConfig {
        self.tag_cache_bytes = bytes;
        self
    }

    /// Every field as a `u64`, in **pinned declaration order** — the one
    /// list both the stable fingerprint and the wire codec serialize, so
    /// a new field added here (and in [`HierarchyConfig::from_words`])
    /// automatically reaches both byte formats. Changing the order or
    /// length is a format change: bump the fingerprint and wire versions.
    #[must_use]
    pub fn to_words(&self) -> [u64; 12] {
        [
            self.l1_bytes,
            self.l1_ways as u64,
            self.l1_miss_penalty,
            self.l2_bytes,
            self.l2_ways as u64,
            self.l2_miss_penalty,
            self.block_bytes,
            self.tlb_entries,
            self.tlb_ways as u64,
            self.tlb_miss_penalty,
            self.tag_cache_bytes,
            self.tag_cache_ways as u64,
        ]
    }

    /// Checks the invariants [`Hierarchy::new`] (and the [`Cache`]
    /// constructors under it) would otherwise `assert!`: every cache's
    /// size and the block size are powers of two, way counts are in
    /// `1..=255` and divide the block count, and the TLB's set count is a
    /// power of two. It also caps every structure at [`MAX_LINES`] lines.
    /// Untrusted configurations (the `hbserve` wire protocol) are
    /// validated with this before any machine is built, so a malformed
    /// request is a rejection, not a worker panic or a huge allocation.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let cache = |name: &str, bytes: u64, ways: usize| -> Result<(), String> {
            if !bytes.is_power_of_two() {
                return Err(format!("{name} size {bytes} is not a power of two"));
            }
            if !self.block_bytes.is_power_of_two() {
                return Err(format!(
                    "block size {} is not a power of two",
                    self.block_bytes
                ));
            }
            if ways == 0 || ways > 255 {
                return Err(format!("{name} way count {ways} outside 1..=255"));
            }
            let blocks = bytes / self.block_bytes;
            if blocks > MAX_LINES {
                return Err(format!(
                    "{name}: {blocks} blocks exceed the cap of {MAX_LINES} lines per structure"
                ));
            }
            if blocks < ways as u64 || !blocks.is_multiple_of(ways as u64) {
                return Err(format!(
                    "{name}: {blocks} blocks do not fill {ways}-way sets"
                ));
            }
            Ok(())
        };
        cache("L1", self.l1_bytes, self.l1_ways)?;
        cache("tag cache", self.tag_cache_bytes, self.tag_cache_ways)?;
        cache("L2", self.l2_bytes, self.l2_ways)?;
        if self.tlb_ways == 0 || self.tlb_ways > 255 {
            return Err(format!("TLB way count {} outside 1..=255", self.tlb_ways));
        }
        if self.tlb_entries > MAX_LINES {
            return Err(format!(
                "TLB: {} entries exceed the cap of {MAX_LINES} lines per structure",
                self.tlb_entries
            ));
        }
        if !self.tlb_entries.is_multiple_of(self.tlb_ways as u64) {
            // sets = entries / ways rounds down, so without this check a
            // non-dividing way count could *validate* (truncated set count
            // happens to be a power of two) yet build a smaller TLB than
            // requested — e.g. 387 entries / 6 ways would silently become
            // a 384-entry structure.
            return Err(format!(
                "TLB: {} entries do not divide into {}-way sets (would silently truncate to {} entries)",
                self.tlb_entries,
                self.tlb_ways,
                (self.tlb_entries / self.tlb_ways as u64) * self.tlb_ways as u64
            ));
        }
        let sets = self.tlb_entries / self.tlb_ways as u64;
        if !sets.is_power_of_two() {
            return Err(format!(
                "TLB set count {sets} ({} entries / {} ways) is not a power of two",
                self.tlb_entries, self.tlb_ways
            ));
        }
        Ok(())
    }

    /// Inverse of [`HierarchyConfig::to_words`]; `None` when a
    /// way-count word does not fit this target's `usize`.
    #[must_use]
    pub fn from_words(words: [u64; 12]) -> Option<HierarchyConfig> {
        Some(HierarchyConfig {
            l1_bytes: words[0],
            l1_ways: usize::try_from(words[1]).ok()?,
            l1_miss_penalty: words[2],
            l2_bytes: words[3],
            l2_ways: usize::try_from(words[4]).ok()?,
            l2_miss_penalty: words[5],
            block_bytes: words[6],
            tlb_entries: words[7],
            tlb_ways: usize::try_from(words[8]).ok()?,
            tlb_miss_penalty: words[9],
            tag_cache_bytes: words[10],
            tag_cache_ways: usize::try_from(words[11]).ok()?,
        })
    }
}

/// Per-class stall accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Accesses classified as ordinary data.
    pub data_accesses: u64,
    /// Stall cycles suffered by data accesses.
    pub data_stall_cycles: u64,
    /// Tag metadata accesses.
    pub tag_accesses: u64,
    /// Stall cycles suffered by tag accesses.
    pub tag_stall_cycles: u64,
    /// Base/bound shadow accesses.
    pub shadow_accesses: u64,
    /// Stall cycles suffered by shadow accesses.
    pub shadow_stall_cycles: u64,
}

impl HierarchyStats {
    /// Total stall cycles attributed to HardBound metadata (tag + shadow) —
    /// the paper's "stalling on pointer metadata" component.
    #[must_use]
    pub fn metadata_stall_cycles(&self) -> u64 {
        self.tag_stall_cycles + self.shadow_stall_cycles
    }

    /// Total stall cycles across all classes.
    #[must_use]
    pub fn total_stall_cycles(&self) -> u64 {
        self.data_stall_cycles + self.tag_stall_cycles + self.shadow_stall_cycles
    }
}

/// Aggregate fast-path counters across the whole hierarchy — the numbers
/// behind `hb_hier_fastpath_{hits,misses}`. Kept apart from [`HierarchyStats`]: these
/// describe *how* the simulation ran, not what it observed, so the
/// observations compare equal to a reference model that has no filters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HierFastStats {
    /// Accesses answered by a residency filter alone, summed over every
    /// structure (dTLB, L1, tag TLB, tag cache, L2).
    pub fastpath_hits: u64,
    /// Accesses that fell through a filter to the full way-scan.
    pub fastpath_misses: u64,
}

/// The simulated memory system: L1 data cache, tag metadata cache, shared
/// L2, and a TLB per first-level structure (paper Figure 4).
///
/// Two same-block memos sit in front of the lookup. An access to the
/// block of the previous data access, with no shadow access in between,
/// is a sure dTLB and L1 hit that changes no LRU order; the tag plane's
/// memo does the same for the tag TLB and tag cache. Such repeats only
/// bump the hit counters. Shadow traffic shares the dTLB and L1 with
/// data (paper §4.4), so it clears the data memo.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1d: Cache,
    tag_cache: Cache,
    l2: Cache,
    dtlb: Cache,
    tag_tlb: Cache,
    stats: HierarchyStats,
    /// `log2(block_bytes)`: an address's block for the memos.
    block_shift: u32,
    /// Block of the last data access (`u64::MAX` = none).
    last_data_block: u64,
    /// Block of the last tag access (`u64::MAX` = none).
    last_tag_block: u64,
}

impl Hierarchy {
    /// Builds the hierarchy for `cfg`.
    #[must_use]
    pub fn new(cfg: HierarchyConfig) -> Hierarchy {
        Hierarchy {
            l1d: Cache::new(cfg.l1_bytes, cfg.l1_ways, cfg.block_bytes),
            tag_cache: Cache::new(cfg.tag_cache_bytes, cfg.tag_cache_ways, cfg.block_bytes),
            l2: Cache::new(cfg.l2_bytes, cfg.l2_ways, cfg.block_bytes),
            dtlb: Cache::with_sets(cfg.tlb_entries / cfg.tlb_ways as u64, cfg.tlb_ways, 4096),
            tag_tlb: Cache::with_sets(cfg.tlb_entries / cfg.tlb_ways as u64, cfg.tlb_ways, 4096),
            stats: HierarchyStats::default(),
            block_shift: cfg.block_bytes.trailing_zeros(),
            last_data_block: u64::MAX,
            last_tag_block: u64::MAX,
            cfg,
        }
    }

    /// Performs one access of `class` at conceptual address `addr`,
    /// returning the stall cycles it incurs. Loads and stores are charged
    /// identically (write-allocate, penalties dominated by the fill).
    /// A same-block repeat (see the type docs) is answered here; every
    /// other access takes the full lookup, which stays out of line.
    #[inline(always)]
    pub fn access(&mut self, class: AccessClass, addr: u64) -> u64 {
        let block = addr >> self.block_shift;
        match class {
            AccessClass::Data if block == self.last_data_block => {
                self.dtlb.note_hit();
                self.l1d.note_hit();
                self.stats.data_accesses += 1;
                0
            }
            AccessClass::Tag if block == self.last_tag_block => {
                self.tag_tlb.note_hit();
                self.tag_cache.note_hit();
                self.stats.tag_accesses += 1;
                0
            }
            _ => self.lookup(class, addr, block),
        }
    }

    /// The full lookup behind [`Hierarchy::access`]; it leaves `block` in
    /// the memo of its plane (a shadow access clears the data memo).
    #[inline(never)]
    fn lookup(&mut self, class: AccessClass, addr: u64, block: u64) -> u64 {
        let mut stall = 0;
        match class {
            AccessClass::Data | AccessClass::Shadow => {
                if !self.dtlb.access(addr) {
                    stall += self.cfg.tlb_miss_penalty;
                }
                if !self.l1d.access(addr) {
                    stall += self.cfg.l1_miss_penalty;
                    if !self.l2.access(addr) {
                        stall += self.cfg.l2_miss_penalty;
                    }
                }
            }
            AccessClass::Tag => {
                if !self.tag_tlb.access(addr) {
                    stall += self.cfg.tlb_miss_penalty;
                }
                if !self.tag_cache.access(addr) {
                    stall += self.cfg.l1_miss_penalty;
                    if !self.l2.access(addr) {
                        stall += self.cfg.l2_miss_penalty;
                    }
                }
            }
        }
        match class {
            AccessClass::Data => {
                self.last_data_block = block;
                self.stats.data_accesses += 1;
                self.stats.data_stall_cycles += stall;
            }
            AccessClass::Tag => {
                self.last_tag_block = block;
                self.stats.tag_accesses += 1;
                self.stats.tag_stall_cycles += stall;
            }
            AccessClass::Shadow => {
                self.last_data_block = u64::MAX;
                self.stats.shadow_accesses += 1;
                self.stats.shadow_stall_cycles += stall;
            }
        }
        stall
    }

    /// Accumulated per-class stall statistics.
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// Hit/miss counters of the L1 data cache.
    #[must_use]
    pub fn l1_stats(&self) -> CacheStats {
        self.l1d.stats()
    }

    /// Hit/miss counters of the tag metadata cache.
    #[must_use]
    pub fn tag_cache_stats(&self) -> CacheStats {
        self.tag_cache.stats()
    }

    /// Hit/miss counters of the shared L2.
    #[must_use]
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Hit/miss counters of the data TLB.
    #[must_use]
    pub fn dtlb_stats(&self) -> CacheStats {
        self.dtlb.stats()
    }

    /// Aggregate residency-filter counters over every structure in the
    /// hierarchy.
    #[must_use]
    pub fn fast_stats(&self) -> HierFastStats {
        let mut f = FastPathStats::default();
        f.absorb(self.dtlb.fast_stats());
        f.absorb(self.l1d.fast_stats());
        f.absorb(self.tag_tlb.fast_stats());
        f.absorb(self.tag_cache.fast_stats());
        f.absorb(self.l2.fast_stats());
        HierFastStats {
            fastpath_hits: f.fastpath_hits,
            fastpath_misses: f.fastpath_misses,
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_data_access_pays_tlb_l1_l2() {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        // Cold: TLB miss (12) + L1 miss (12) + L2 miss (200).
        assert_eq!(h.access(AccessClass::Data, 0x1000), 224);
        // Warm: everything hits.
        assert_eq!(h.access(AccessClass::Data, 0x1000), 0);
        // Same page, next block: TLB hits, L1 misses, L2 misses.
        assert_eq!(h.access(AccessClass::Data, 0x1020), 212);
    }

    #[test]
    fn tag_accesses_use_tag_cache_and_shared_l2() {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        let tag_addr = 0x3_0000_0000u64;
        assert_eq!(h.access(AccessClass::Tag, tag_addr), 224);
        assert_eq!(h.access(AccessClass::Tag, tag_addr), 0);
        // The block now lives in L2: a conflicting tag line would refill
        // from L2 at 12 cycles, not 212. Force an eviction by sweeping the
        // tag cache's 64 blocks * 16 sets... simpler: a second cold block
        // in the same L2 set region still pays full cost.
        let stats = h.stats();
        assert_eq!(stats.tag_accesses, 2);
        assert_eq!(stats.tag_stall_cycles, 224);
        assert_eq!(stats.data_stall_cycles, 0);
    }

    #[test]
    fn shadow_shares_l1_with_data() {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        let a = 0x1_0000_0000u64;
        assert_eq!(h.access(AccessClass::Shadow, a), 224);
        // A data access to an address mapping to the same L1 block index
        // but different tag misses; the shadow block itself now hits.
        assert_eq!(h.access(AccessClass::Shadow, a), 0);
        let s = h.stats();
        assert_eq!(s.shadow_accesses, 2);
        assert_eq!(s.metadata_stall_cycles(), 224);
    }

    #[test]
    fn tag_cache_evictions_refill_from_l2() {
        let cfg = HierarchyConfig::default(); // 2 KB tag cache = 64 blocks
        let mut h = Hierarchy::new(cfg);
        let base = 0x3_0000_0000u64;
        // Fill well past the tag cache capacity, within one page (4 KB =
        // 128 blocks > 64 blocks of capacity).
        for i in 0..128u64 {
            h.access(AccessClass::Tag, base + i * 32);
        }
        // Re-access the first block: evicted from the 2 KB tag cache but
        // resident in the 4 MB L2 → pays exactly the L1-miss penalty.
        let stall = h.access(AccessClass::Tag, base);
        assert_eq!(stall, cfg.l1_miss_penalty);
    }

    #[test]
    fn stats_accumulate_per_class() {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        h.access(AccessClass::Data, 0x100);
        h.access(AccessClass::Tag, 0x3_0000_0000);
        h.access(AccessClass::Shadow, 0x1_0000_0000);
        let s = h.stats();
        assert_eq!(s.data_accesses, 1);
        assert_eq!(s.tag_accesses, 1);
        assert_eq!(s.shadow_accesses, 1);
        assert_eq!(
            s.total_stall_cycles(),
            s.data_stall_cycles + s.metadata_stall_cycles()
        );
    }

    #[test]
    fn validate_rejects_non_dividing_tlb_ways() {
        // Regression: 387 entries / 6 ways truncates to 64 sets — a power
        // of two — so the old validator accepted it and Hierarchy::new
        // silently built a 384-entry TLB.
        let cfg = HierarchyConfig {
            tlb_entries: 387,
            tlb_ways: 6,
            ..HierarchyConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("387 entries do not divide"), "{err}");
        assert!(err.contains("384"), "{err}");
        assert!(HierarchyConfig::default().validate().is_ok());
    }

    #[test]
    fn validate_accepts_every_geometry_in_use() {
        assert_eq!(HierarchyConfig::default().validate(), Ok(()));
        // The tag-cache sweep of the figure grid: 1–16 KiB.
        for kb in [1, 2, 4, 8, 16] {
            let cfg = HierarchyConfig::default().with_tag_cache_bytes(kb * 1024);
            assert_eq!(cfg.validate(), Ok(()), "{kb} KiB tag cache");
        }
        // The line cap itself is a valid geometry.
        let at_cap = HierarchyConfig {
            l2_bytes: MAX_LINES * 32,
            tlb_entries: MAX_LINES,
            ..HierarchyConfig::default()
        };
        assert_eq!(at_cap.validate(), Ok(()));
    }

    #[test]
    fn config_accessors() {
        let cfg = HierarchyConfig::default().with_tag_cache_bytes(8 * 1024);
        let h = Hierarchy::new(cfg);
        assert_eq!(h.config().tag_cache_bytes, 8 * 1024);
        assert_eq!(h.l1_stats().accesses(), 0);
        assert_eq!(h.tag_cache_stats().accesses(), 0);
        assert_eq!(h.l2_stats().accesses(), 0);
        assert_eq!(h.dtlb_stats().accesses(), 0);
    }
}
