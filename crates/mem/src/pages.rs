use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// An identity hash for page numbers. Page numbers are already
/// well-distributed small integers; SipHash-ing each one showed up as
/// double-digit percent of whole-simulation profiles.
#[derive(Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        // Spread low-entropy page numbers across hashbrown's bucket and
        // control bits (fibonacci multiply; one cycle).
        self.0.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("page sets only hash u64 keys");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

type PageSet = HashSet<u64, BuildHasherDefault<PageHasher>>;

/// Slots in each plane's memo of recently recorded pages.
const MEMO_SLOTS: usize = 64;

/// One plane's distinct pages, behind a direct-mapped memo of pages
/// already in the set: consecutive accesses overwhelmingly revisit a
/// recent page, and interleaved stack, heap and global pages each keep
/// their own slot. A memo hit only skips re-inserting a page the set
/// holds, so the count is exact.
#[derive(Clone, Debug)]
struct PlanePages {
    set: PageSet,
    memo: [u64; MEMO_SLOTS],
}

impl PlanePages {
    fn new() -> PlanePages {
        PlanePages {
            set: PageSet::default(),
            // No page number reaches `u64::MAX` (addresses are at most
            // 64-bit, pages 4 KB), so it marks an empty slot.
            memo: [u64::MAX; MEMO_SLOTS],
        }
    }

    #[inline]
    fn touch(&mut self, page: u64) {
        let slot = &mut self.memo[page as usize % MEMO_SLOTS];
        if *slot != page {
            *slot = page;
            self.set.insert(page);
        }
    }
}

/// Distinct-4 KB-page accounting for the three metadata planes.
///
/// The paper's Figure 6 reports "the number of additional distinct pages
/// touched, compared to the baseline C versions", split into tag metadata
/// and base/bound metadata. This type is the measurement instrument: the
/// machine records every page it touches in each plane, and the report
/// layer differences the counts against a baseline run.
#[derive(Clone, Debug)]
pub struct PageTouches {
    data: PlanePages,
    tag: PlanePages,
    shadow: PlanePages,
}

impl Default for PageTouches {
    fn default() -> PageTouches {
        PageTouches::new()
    }
}

impl PageTouches {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> PageTouches {
        PageTouches {
            data: PlanePages::new(),
            tag: PlanePages::new(),
            shadow: PlanePages::new(),
        }
    }

    /// Records a touch of the data-plane page containing byte `addr`.
    #[inline]
    pub fn touch_data(&mut self, addr: u32) {
        self.data.touch(u64::from(addr) / 4096);
    }

    /// Records a touch of a tag-plane page (conceptual 64-bit address).
    #[inline]
    pub fn touch_tag(&mut self, conceptual_addr: u64) {
        self.tag.touch(conceptual_addr / 4096);
    }

    /// Records a touch of a base/bound shadow-plane page (conceptual 64-bit
    /// address).
    #[inline]
    pub fn touch_shadow(&mut self, conceptual_addr: u64) {
        self.shadow.touch(conceptual_addr / 4096);
    }

    /// Number of distinct data pages touched.
    #[must_use]
    pub fn data_pages(&self) -> usize {
        self.data.set.len()
    }

    /// Number of distinct tag-metadata pages touched.
    #[must_use]
    pub fn tag_pages(&self) -> usize {
        self.tag.set.len()
    }

    /// Number of distinct base/bound shadow pages touched.
    #[must_use]
    pub fn shadow_pages(&self) -> usize {
        self.shadow.set.len()
    }

    /// Total distinct pages across all planes.
    #[must_use]
    pub fn total_pages(&self) -> usize {
        self.data_pages() + self.tag_pages() + self.shadow_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_deduplicate_within_plane() {
        let mut t = PageTouches::new();
        t.touch_data(0);
        t.touch_data(4095);
        t.touch_data(4096);
        assert_eq!(t.data_pages(), 2);
    }

    #[test]
    fn planes_are_independent() {
        let mut t = PageTouches::new();
        t.touch_data(0);
        t.touch_tag(0x3_0000_0000);
        t.touch_shadow(0x1_0000_0000);
        t.touch_shadow(0x1_0000_0008); // same page
        assert_eq!(t.data_pages(), 1);
        assert_eq!(t.tag_pages(), 1);
        assert_eq!(t.shadow_pages(), 1);
        assert_eq!(t.total_pages(), 3);
    }

    /// A long seeded stream interleaving the three planes over a few
    /// hundred pages (many sharing a memo slot) counts exactly what a
    /// plain set of every touched page counts.
    #[test]
    fn memo_counts_match_a_reference_set() {
        use std::collections::BTreeSet;
        let mut t = PageTouches::new();
        let mut reference: [BTreeSet<u64>; 3] = Default::default();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..200_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Mostly eight hot pages, one touch in four any of 400.
            let page = if state.is_multiple_of(4) {
                (state >> 8) % 400
            } else {
                (state >> 40) % 8
            };
            let offset = (state >> 20) % 4096;
            match (state >> 4) % 3 {
                0 => {
                    t.touch_data((page * 4096 + offset) as u32);
                    reference[0].insert(page);
                }
                1 => {
                    let base = 0x3_0000_0000 / 4096;
                    t.touch_tag((base + page) * 4096 + offset);
                    reference[1].insert(base + page);
                }
                _ => {
                    let base = 0x1_0000_0000 / 4096;
                    t.touch_shadow((base + page) * 4096 + offset);
                    reference[2].insert(base + page);
                }
            }
        }
        assert_eq!(t.data_pages(), reference[0].len());
        assert_eq!(t.tag_pages(), reference[1].len());
        assert_eq!(t.shadow_pages(), reference[2].len());
        assert!(reference.iter().all(|r| r.len() > MEMO_SLOTS));
    }

    #[test]
    fn empty_tracker_reports_zero() {
        let t = PageTouches::new();
        assert_eq!(t.total_pages(), 0);
    }
}
