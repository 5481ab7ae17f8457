/// Checked ratio: `num / den` as `f64`, or `0.0` when `den` is zero.
///
/// Every ratio the simulator renders (miss ratios, hit ratios, page and
/// compression fractions) routes through this one helper so a structure
/// that was never touched — an untouched tag cache under malloc-only
/// mode, say — renders `0.0` everywhere instead of `NaN`.
#[must_use]
pub fn checked_ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Hit/miss counters for one cache array.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed (and filled).
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; `0` when there were no accesses.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        checked_ratio(self.misses, self.accesses())
    }
}

/// Residency-proof fast-path counters for one cache array. Deliberately
/// *not* part of [`CacheStats`]: the filter is an implementation detail of
/// the lookup, and the tests compare `CacheStats` against a reference LRU
/// model that has no filter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FastPathStats {
    /// Accesses answered by the residency filter alone (no way-scan).
    pub fastpath_hits: u64,
    /// Accesses that fell through to the full way-scan.
    pub fastpath_misses: u64,
}

impl FastPathStats {
    /// Accumulates `other` into `self`.
    pub fn absorb(&mut self, other: FastPathStats) {
        self.fastpath_hits += other.fastpath_hits;
        self.fastpath_misses += other.fastpath_misses;
    }
}

/// Slots in the direct-mapped residency filter (power of two). 1024 slots
/// give the filter a reach of 32 KB at the paper's 32-byte blocks — the
/// whole L1 — and 4 MB at TLB page granularity, for ~9 KB per structure.
const FILTER_SLOTS: usize = 1024;

/// A set-associative array with true-LRU replacement.
///
/// Used for data caches, the tag metadata cache *and* TLBs (a TLB is the
/// same structure with 4 KB "blocks"). Addresses are 64-bit because
/// HardBound's metadata spaces are modelled as conceptual regions above the
/// 32-bit program space (see `hardbound_isa::layout`).
///
/// Every access first asks a small direct-mapped *residency filter* — a
/// proof that the block is resident at a known way, maintained by
/// invalidating a block's entry whenever that block is evicted — and on a
/// filter miss scans the set branchlessly (tag compare + stamp min in one
/// pass over a padded, fixed-stride set). `tests/prop.rs` pins this
/// lookup against a naive recency-ordered reference model: identical
/// hits, misses and victims.
#[derive(Clone, Debug)]
pub struct Cache {
    block_bits: u32,
    /// `num_sets - 1`; set counts are asserted powers of two, so indexing
    /// is a mask, never a hardware division (the set-index `%` was the
    /// single hottest operation in the whole simulator).
    set_mask: u64,
    ways: usize,
    /// `ways` rounded up to a power of two: each set occupies `stride`
    /// slots of `lines`/`stamps` so the branchless scan runs over a fixed
    /// power-of-two extent. Padding slots hold line `0` (invalid, never
    /// tag-matches) and stamp `u64::MAX` (never the LRU victim).
    stride: usize,
    /// `lines[set * stride + way]` = block tag **plus one**, or `0` when
    /// invalid. The +1 encoding makes the all-invalid initial state
    /// all-zeroes, so construction is one `calloc` (lazily faulted pages)
    /// instead of a multi-megabyte sentinel memset per machine.
    lines: Vec<u64>,
    /// Last-use timestamp per line; the eviction victim is the line with
    /// the smallest stamp (0 = never used, so invalid ways fill first).
    /// This implements exactly the true-LRU policy the previous
    /// recency-order encoding did — same hits, same misses, same victims
    /// among valid lines — with a one-store hit path.
    stamps: Vec<u64>,
    /// Monotonic use counter feeding `stamps` (64-bit: never wraps).
    clock: u64,
    /// Residency filter: `filter_tags[block % FILTER_SLOTS]` = block tag
    /// plus one (0 = empty), `filter_ways` the way it resides at. The
    /// invariant — an entry `(block, way)` exists only while
    /// `lines[set(block) * stride + way]` still holds that block — is
    /// maintained by installing on every resolved access and erasing the
    /// victim's entry on every eviction, so a filter hit *is* a residency
    /// proof and the whole TLB/L1 way-scan is skipped. Exact: stats and
    /// replacement state evolve identically with or without it.
    filter_tags: Vec<u64>,
    filter_ways: Vec<u8>,
    fast_stats: FastPathStats,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache of `size_bytes` capacity with `ways` ways and
    /// `block_bytes` blocks.
    ///
    /// # Panics
    ///
    /// Panics unless sizes are powers of two, `ways` divides the number of
    /// blocks, and `ways <= 255`.
    #[must_use]
    pub fn new(size_bytes: u64, ways: usize, block_bytes: u64) -> Cache {
        assert!(
            size_bytes.is_power_of_two(),
            "cache size must be a power of two"
        );
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        assert!(ways > 0 && ways <= 255);
        let blocks = size_bytes / block_bytes;
        assert!(blocks >= ways as u64, "fewer blocks than ways");
        assert_eq!(blocks % ways as u64, 0);
        let num_sets = blocks / ways as u64;
        Cache::with_sets(num_sets, ways, block_bytes)
    }

    /// Creates a cache from an explicit set count (used for TLBs:
    /// `entries / ways` sets with page-sized blocks).
    ///
    /// # Panics
    ///
    /// Panics unless `num_sets` and `block_bytes` are powers of two.
    #[must_use]
    pub fn with_sets(num_sets: u64, ways: usize, block_bytes: u64) -> Cache {
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(block_bytes.is_power_of_two());
        let stride = ways.next_power_of_two();
        let total = (num_sets as usize) * stride;
        let mut stamps = vec![0; total];
        if stride != ways {
            // Padding slots must never win the stamp-min victim scan.
            for set in 0..num_sets as usize {
                for pad in ways..stride {
                    stamps[set * stride + pad] = u64::MAX;
                }
            }
        }
        Cache {
            block_bits: block_bytes.trailing_zeros(),
            set_mask: num_sets - 1,
            ways,
            stride,
            lines: vec![0; total],
            stamps,
            clock: 0,
            filter_tags: vec![0; FILTER_SLOTS],
            filter_ways: vec![0; FILTER_SLOTS],
            fast_stats: FastPathStats::default(),
            stats: CacheStats::default(),
        }
    }

    /// A 256-entry 4-way TLB over 4 KB pages (the paper's configuration).
    #[must_use]
    pub fn tlb_256_4way() -> Cache {
        Cache::with_sets(64, 4, 4096)
    }

    /// Looks up the block containing `addr`, filling on miss. Returns
    /// `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let block = addr >> self.block_bits;
        let slot = (block as usize) & (FILTER_SLOTS - 1);
        if self.filter_tags[slot] == block + 1 {
            // Residency proof: the block still sits at the recorded way
            // (its entry would have been erased by the eviction
            // otherwise), so only the recency stamp moves.
            let set = (block & self.set_mask) as usize;
            let way = self.filter_ways[slot] as usize;
            debug_assert_eq!(self.lines[set * self.stride + way], block + 1);
            self.clock += 1;
            self.stamps[set * self.stride + way] = self.clock;
            self.stats.hits += 1;
            self.fast_stats.fastpath_hits += 1;
            return true;
        }
        self.fast_stats.fastpath_misses += 1;
        self.access_scan(block)
    }

    /// Set scan on a filter miss: one branchless pass over the padded set
    /// computing the tag-match way and the stamp-min victim together (no
    /// early exit, no data-dependent branches in the loop — the shape
    /// the autovectorizer handles). Padding slots never match (line 0)
    /// and never win the victim min (stamp `u64::MAX`).
    fn access_scan(&mut self, block: u64) -> bool {
        let set = (block & self.set_mask) as usize;
        let base = set * self.stride;
        let lines = &mut self.lines[base..base + self.stride];
        let stamps = &mut self.stamps[base..base + self.stride];
        self.clock += 1;
        let tag = block + 1;

        let mut hit_way = usize::MAX;
        let mut victim = 0usize;
        let mut best = u64::MAX;
        for w in 0..lines.len() {
            let line = lines[w];
            let stamp = stamps[w];
            hit_way = if line == tag { w } else { hit_way };
            let better = stamp < best;
            best = if better { stamp } else { best };
            victim = if better { w } else { victim };
        }

        let slot = (block as usize) & (FILTER_SLOTS - 1);
        if hit_way != usize::MAX {
            stamps[hit_way] = self.clock;
            self.filter_tags[slot] = tag;
            self.filter_ways[slot] = hit_way as u8;
            self.stats.hits += 1;
            true
        } else {
            let old = lines[victim];
            if old != 0 {
                // Erase the victim's residency proof — the one write that
                // keeps the filter invariant (entry ⇒ resident at way).
                let oslot = ((old - 1) as usize) & (FILTER_SLOTS - 1);
                if self.filter_tags[oslot] == old {
                    self.filter_tags[oslot] = 0;
                }
            }
            lines[victim] = tag;
            stamps[victim] = self.clock;
            self.filter_tags[slot] = tag;
            self.filter_ways[slot] = victim as u8;
            self.stats.misses += 1;
            false
        }
    }

    /// Records a hit without a lookup. Callers (the hierarchy's
    /// repeat-access fast path) use this only when the hit is already
    /// proven — the block was the most recent access and nothing touched
    /// this cache since — so the LRU rotation is a no-op and only the
    /// counter moves.
    #[inline]
    pub(crate) fn note_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// Whether the block containing `addr` is currently resident (no state
    /// change, no stats).
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let block = addr >> self.block_bits;
        let set = (block & self.set_mask) as usize;
        let base = set * self.stride;
        self.lines[base..base + self.ways].contains(&(block + 1))
    }

    /// Accumulated hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Residency-filter counters.
    #[must_use]
    pub fn fast_stats(&self) -> FastPathStats {
        self.fast_stats
    }

    /// Capacity in blocks (diagnostic).
    #[must_use]
    pub fn num_blocks(&self) -> u64 {
        (self.set_mask + 1) * self.ways as u64
    }

    /// Block size in bytes.
    #[must_use]
    pub fn block_bytes(&self) -> u64 {
        1 << self.block_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = Cache::new(1024, 4, 32);
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x11F)); // same 32-byte block
        assert!(!c.access(0x120)); // next block
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 2 });
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 4 blocks, 4 ways, 1 set: pure LRU stack of depth 4.
        let mut c = Cache::new(128, 4, 32);
        for a in [0u64, 32, 64, 96] {
            assert!(!c.access(a));
        }
        // Touch 0 to make it MRU; next fill must evict 32.
        assert!(c.access(0));
        assert!(!c.access(128));
        assert!(!c.access(32), "LRU line must have been evicted");
        assert!(c.access(0), "MRU line must survive");
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = Cache::new(256, 1, 32); // direct-mapped, 8 sets
        assert!(!c.access(0));
        assert!(!c.access(32));
        assert!(c.access(0));
        assert!(c.access(32));
        // Conflicting block (same set as 0: 8 sets * 32B = 256B stride).
        assert!(!c.access(256));
        assert!(!c.access(0));
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = Cache::new(128, 4, 32);
        c.access(0);
        let before = c.stats();
        assert!(c.probe(0));
        assert!(!c.probe(32));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn tlb_covers_pages() {
        let mut t = Cache::tlb_256_4way();
        assert_eq!(t.num_blocks(), 256);
        assert_eq!(t.block_bytes(), 4096);
        assert!(!t.access(0x1000));
        assert!(t.access(0x1FFF));
        assert!(!t.access(0x2000));
    }

    #[test]
    fn paper_geometries_construct() {
        let l1 = Cache::new(32 * 1024, 4, 32);
        assert_eq!(l1.num_blocks(), 1024);
        let l2 = Cache::new(4 * 1024 * 1024, 4, 32);
        assert_eq!(l2.num_blocks(), 131072);
        let tag2k = Cache::new(2 * 1024, 4, 32);
        assert_eq!(tag2k.num_blocks(), 64);
        let tag8k = Cache::new(8 * 1024, 4, 32);
        assert_eq!(tag8k.num_blocks(), 256);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = Cache::new(3000, 4, 32);
    }

    #[test]
    fn metadata_space_addresses_index_correctly() {
        // Conceptual 64-bit addresses above 4 GB must not alias low ones
        // unless their block bits collide by construction.
        let mut c = Cache::new(128, 4, 32);
        assert!(!c.access(0x1_0000_0000));
        assert!(c.access(0x1_0000_0000));
        assert!(!c.access(0x0000_0000));
    }

    #[test]
    fn filter_answers_repeats_and_survives_conflict_evictions() {
        let mut c = Cache::new(128, 4, 32); // 1 set, 4 ways
        assert!(!c.access(0));
        assert!(c.access(0), "repeat must hit");
        assert!(c.fast_stats().fastpath_hits >= 1, "{:?}", c.fast_stats());
        // Fill the set; block 0 becomes LRU and the next fill evicts it.
        for a in [32u64, 64, 96, 128] {
            assert!(!c.access(a));
        }
        // The filter entry for block 0 must have been erased with the
        // eviction: a repeat access is a genuine miss, not a stale proof.
        assert!(!c.access(0), "evicted block must miss");
    }

    #[test]
    fn checked_ratio_guards_zero_denominators() {
        assert_eq!(checked_ratio(0, 0), 0.0);
        assert_eq!(checked_ratio(5, 0), 0.0);
        assert_eq!(checked_ratio(1, 4), 0.25);
        let untouched = CacheStats::default();
        assert_eq!(untouched.miss_ratio(), 0.0);
    }
}
