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

/// Distinct-4 KB-page accounting for the three metadata planes.
///
/// The paper's Figure 6 reports "the number of additional distinct pages
/// touched, compared to the baseline C versions", split into tag metadata
/// and base/bound metadata. This type is the measurement instrument: the
/// machine records every page it touches in each plane, and the report
/// layer differences the counts against a baseline run.
#[derive(Clone, Debug)]
pub struct PageTouches {
    data: PageSet,
    tag: PageSet,
    shadow: PageSet,
    // One-entry caches: consecutive accesses overwhelmingly hit the same
    // page, and this tracker sits on the simulator's hot path.
    last_data: u64,
    last_tag: u64,
    last_shadow: u64,
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
            data: PageSet::default(),
            tag: PageSet::default(),
            shadow: PageSet::default(),
            last_data: u64::MAX,
            last_tag: u64::MAX,
            last_shadow: u64::MAX,
        }
    }

    /// Records a touch of the data-plane page containing byte `addr`.
    #[inline]
    pub fn touch_data(&mut self, addr: u32) {
        let page = u64::from(addr) / 4096;
        if page != self.last_data {
            self.last_data = page;
            self.data.insert(page);
        }
    }

    /// Records a touch of a tag-plane page (conceptual 64-bit address).
    #[inline]
    pub fn touch_tag(&mut self, conceptual_addr: u64) {
        let page = conceptual_addr / 4096;
        if page != self.last_tag {
            self.last_tag = page;
            self.tag.insert(page);
        }
    }

    /// Records a touch of a base/bound shadow-plane page (conceptual 64-bit
    /// address).
    #[inline]
    pub fn touch_shadow(&mut self, conceptual_addr: u64) {
        let page = conceptual_addr / 4096;
        if page != self.last_shadow {
            self.last_shadow = page;
            self.shadow.insert(page);
        }
    }

    /// Number of distinct data pages touched.
    #[must_use]
    pub fn data_pages(&self) -> usize {
        self.data.len()
    }

    /// Number of distinct tag-metadata pages touched.
    #[must_use]
    pub fn tag_pages(&self) -> usize {
        self.tag.len()
    }

    /// Number of distinct base/bound shadow pages touched.
    #[must_use]
    pub fn shadow_pages(&self) -> usize {
        self.shadow.len()
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

    #[test]
    fn empty_tracker_reports_zero() {
        let t = PageTouches::new();
        assert_eq!(t.total_pages(), 0);
    }
}
