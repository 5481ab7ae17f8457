/// Sidecar metadata of one aligned memory word: the architectural
/// `{base, bound}` pair of paper §3.1. `(0, 0)` denotes a non-pointer.
pub type WordMeta = (u32, u32);

const PAGE_BYTES: usize = 4096;
const WORDS_PER_PAGE: usize = PAGE_BYTES / 4;
const NUM_PAGES: usize = 1 << 20; // 2^32 / 4096

/// Pages per second-level chunk of the page table. A flat page vector
/// would be 8 MB of `Option`s zeroed on every `Memory::new` — three orders
/// of magnitude more than any simulated program touches. The two-level
/// radix keeps construction at one small vector and allocates interior
/// chunks on demand.
const CHUNK_PAGES: usize = 1 << 10;
const NUM_CHUNKS: usize = NUM_PAGES / CHUNK_PAGES;

/// Metadata arrays of one page, allocated only once a tag or shadow entry
/// is actually written (most pages never hold a pointer).
struct MetaPlane {
    /// `(base, bound)` per aligned word of the page.
    shadow: Box<[WordMeta; WORDS_PER_PAGE]>,
    /// Raw tag value per aligned word (meaning assigned by the encoding:
    /// 0 = non-pointer; for the external 4-bit encoding 1–14 are compressed
    /// sizes and 15 is "uncompressed"; for 1-bit encodings only 0/1 are
    /// used).
    tags: Box<[u8; WORDS_PER_PAGE]>,
}

/// One 4 KB page: data bytes plus (lazily materialized) metadata planes.
/// Keeping the planes behind one page-table walk lets a tagged word load —
/// the HardBound machine's single hottest memory operation — resolve data
/// and tag with one lookup.
struct Page {
    bytes: Box<[u8; PAGE_BYTES]>,
    meta: Option<MetaPlane>,
}

impl Page {
    fn new() -> Page {
        Page {
            bytes: Box::new([0u8; PAGE_BYTES]),
            meta: None,
        }
    }

    fn meta_mut(&mut self) -> &mut MetaPlane {
        self.meta.get_or_insert_with(|| MetaPlane {
            shadow: Box::new([(0, 0); WORDS_PER_PAGE]),
            tags: Box::new([0u8; WORDS_PER_PAGE]),
        })
    }
}

type Chunk = Box<[Option<Page>; CHUNK_PAGES]>;

/// The simulator's sparse 32-bit memory with HardBound metadata planes.
///
/// Data is byte-addressed; metadata (tags and shadow `{base, bound}`) is
/// keyed by the *aligned word* containing an address, matching the paper's
/// per-word metadata granularity (§4.1–4.2). Unwritten memory reads as
/// zero / non-pointer, which mirrors demand-zero page allocation.
///
/// This type is pure storage: it never raises bounds errors and performs no
/// implicit tag updates — the machine in `hardbound-core` implements that
/// policy, including clearing tags on non-pointer stores.
pub struct Memory {
    chunks: Vec<Option<Chunk>>,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory::new()
    }
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memory")
            .field("mapped_pages", &self.mapped_data_pages())
            .finish()
    }
}

impl Memory {
    /// Creates an empty (all-zero, all-non-pointer) memory.
    #[must_use]
    pub fn new() -> Memory {
        let mut chunks = Vec::new();
        chunks.resize_with(NUM_CHUNKS, || None);
        Memory { chunks }
    }

    #[inline]
    fn page(&self, addr: u32) -> Option<&Page> {
        let idx = (addr as usize) / PAGE_BYTES;
        self.chunks[idx / CHUNK_PAGES].as_ref()?[idx % CHUNK_PAGES].as_ref()
    }

    #[inline]
    fn page_mut(&mut self, addr: u32) -> &mut Page {
        let idx = (addr as usize) / PAGE_BYTES;
        let chunk = self.chunks[idx / CHUNK_PAGES]
            .get_or_insert_with(|| Box::new(std::array::from_fn(|_| None)));
        chunk[idx % CHUNK_PAGES].get_or_insert_with(Page::new)
    }

    /// Reads one byte.
    #[must_use]
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.page(addr) {
            Some(p) => p.bytes[(addr as usize) % PAGE_BYTES],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        let off = (addr as usize) % PAGE_BYTES;
        self.page_mut(addr).bytes[off] = value;
    }

    /// Reads a little-endian 32-bit word starting at `addr` (any
    /// alignment; unaligned reads cross into the following bytes exactly as
    /// on x86).
    #[must_use]
    pub fn read_u32(&self, addr: u32) -> u32 {
        if addr as usize % PAGE_BYTES <= PAGE_BYTES - 4 {
            // Fast path: within one page.
            match self.page(addr) {
                Some(p) => {
                    let off = (addr as usize) % PAGE_BYTES;
                    u32::from_le_bytes([
                        p.bytes[off],
                        p.bytes[off + 1],
                        p.bytes[off + 2],
                        p.bytes[off + 3],
                    ])
                }
                None => 0,
            }
        } else {
            let b = [
                self.read_u8(addr),
                self.read_u8(addr.wrapping_add(1)),
                self.read_u8(addr.wrapping_add(2)),
                self.read_u8(addr.wrapping_add(3)),
            ];
            u32::from_le_bytes(b)
        }
    }

    /// Reads the aligned word containing `addr` together with its tag —
    /// one page-table walk instead of two.
    ///
    /// # Panics
    ///
    /// Debug-asserts 4-byte alignment.
    #[inline]
    #[must_use]
    pub fn read_word_tagged(&self, addr: u32) -> (u32, u8) {
        debug_assert!(addr % 4 == 0, "read_word_tagged wants aligned words");
        match self.page(addr) {
            Some(p) => {
                let off = (addr as usize) % PAGE_BYTES;
                let word = u32::from_le_bytes([
                    p.bytes[off],
                    p.bytes[off + 1],
                    p.bytes[off + 2],
                    p.bytes[off + 3],
                ]);
                let tag = match &p.meta {
                    Some(m) => m.tags[off / 4],
                    None => 0,
                };
                (word, tag)
            }
            None => (0, 0),
        }
    }

    /// Reads the aligned word containing `addr` together with its tag and
    /// shadow `{base, bound}` — one page-table walk for the pointer-load
    /// hot path (shadow reads as `(0, 0)` when no metadata exists).
    ///
    /// # Panics
    ///
    /// Debug-asserts 4-byte alignment.
    #[inline]
    #[must_use]
    pub fn read_word_full(&self, addr: u32) -> (u32, u8, WordMeta) {
        debug_assert!(addr % 4 == 0, "read_word_full wants aligned words");
        match self.page(addr) {
            Some(p) => {
                let off = (addr as usize) % PAGE_BYTES;
                let word = u32::from_le_bytes([
                    p.bytes[off],
                    p.bytes[off + 1],
                    p.bytes[off + 2],
                    p.bytes[off + 3],
                ]);
                match &p.meta {
                    Some(m) => (word, m.tags[off / 4], m.shadow[off / 4]),
                    None => (word, 0, (0, 0)),
                }
            }
            None => (0, 0, (0, 0)),
        }
    }

    /// Writes the aligned word containing `addr` and sets its tag in one
    /// page-table walk (`tag == 0` never materializes metadata arrays).
    ///
    /// # Panics
    ///
    /// Debug-asserts 4-byte alignment.
    #[inline]
    pub fn write_word_tagged(&mut self, addr: u32, value: u32, tag: u8) {
        debug_assert!(addr % 4 == 0, "write_word_tagged wants aligned words");
        let off = (addr as usize) % PAGE_BYTES;
        let page = self.page_mut(addr);
        page.bytes[off..off + 4].copy_from_slice(&value.to_le_bytes());
        if let Some(m) = &mut page.meta {
            m.tags[off / 4] = tag;
        } else if tag != 0 {
            page.meta_mut().tags[off / 4] = tag;
        }
    }

    /// Writes an aligned pointer word: value, tag, and shadow `{base,
    /// bound}` in one page-table walk.
    ///
    /// # Panics
    ///
    /// Debug-asserts 4-byte alignment.
    #[inline]
    pub fn write_word_pointer(&mut self, addr: u32, value: u32, tag: u8, shadow: WordMeta) {
        debug_assert!(addr % 4 == 0, "write_word_pointer wants aligned words");
        let off = (addr as usize) % PAGE_BYTES;
        let page = self.page_mut(addr);
        page.bytes[off..off + 4].copy_from_slice(&value.to_le_bytes());
        let meta = page.meta_mut();
        meta.tags[off / 4] = tag;
        meta.shadow[off / 4] = shadow;
    }

    /// Writes a little-endian 32-bit word starting at `addr`.
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        let bytes = value.to_le_bytes();
        if addr as usize % PAGE_BYTES <= PAGE_BYTES - 4 {
            let off = (addr as usize) % PAGE_BYTES;
            let p = self.page_mut(addr);
            p.bytes[off..off + 4].copy_from_slice(&bytes);
        } else {
            for (i, b) in bytes.iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), *b);
            }
        }
    }

    /// Copies `bytes` into memory starting at `addr` (used by the loader
    /// for initialized data).
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b);
        }
    }

    /// Reads `len` bytes starting at `addr`.
    #[must_use]
    pub fn read_bytes(&self, addr: u32, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| self.read_u8(addr.wrapping_add(i as u32)))
            .collect()
    }

    /// Raw tag value of the aligned word containing `addr`.
    #[must_use]
    pub fn tag(&self, addr: u32) -> u8 {
        match self.page(addr).and_then(|p| p.meta.as_ref()) {
            Some(m) => m.tags[((addr as usize) % PAGE_BYTES) / 4],
            None => 0,
        }
    }

    /// Sets the raw tag value of the aligned word containing `addr`.
    pub fn set_tag(&mut self, addr: u32, tag: u8) {
        let word = ((addr as usize) % PAGE_BYTES) / 4;
        // Avoid materializing metadata arrays just to store the default.
        if tag == 0 && self.page(addr).is_none_or(|p| p.meta.is_none()) {
            return;
        }
        self.page_mut(addr).meta_mut().tags[word] = tag;
    }

    /// Shadow `{base, bound}` of the aligned word containing `addr`.
    #[must_use]
    pub fn shadow(&self, addr: u32) -> WordMeta {
        match self.page(addr).and_then(|p| p.meta.as_ref()) {
            Some(m) => m.shadow[((addr as usize) % PAGE_BYTES) / 4],
            None => (0, 0),
        }
    }

    /// Sets the shadow `{base, bound}` of the aligned word containing
    /// `addr`.
    pub fn set_shadow(&mut self, addr: u32, meta: WordMeta) {
        let word = ((addr as usize) % PAGE_BYTES) / 4;
        if meta == (0, 0) && self.page(addr).is_none_or(|p| p.meta.is_none()) {
            return;
        }
        self.page_mut(addr).meta_mut().shadow[word] = meta;
    }

    /// Counts the words of the 4 KB page containing `addr` whose metadata
    /// satisfies `pred(tag, shadow)`, by walking the page's planes. Used
    /// only by trap forensics, so the scan is off every hot path.
    fn count_page_words(&self, addr: u32, pred: impl Fn(u8, WordMeta) -> bool) -> u32 {
        self.page(addr)
            .and_then(|p| p.meta.as_ref())
            .map_or(0, |m| {
                let words = m.tags.iter().zip(m.shadow.iter());
                words.filter(|&(&t, &s)| pred(t, s)).count() as u32
            })
    }

    /// Number of words with a nonzero tag on the 4 KB page containing
    /// `addr`.
    #[must_use]
    pub fn page_tag_words(&self, addr: u32) -> u32 {
        self.count_page_words(addr, |tag, _| tag != 0)
    }

    /// Number of words with a nonzero shadow `{base, bound}` entry on the
    /// 4 KB page containing `addr`.
    #[must_use]
    pub fn page_shadow_words(&self, addr: u32) -> u32 {
        self.count_page_words(addr, |_, shadow| shadow != (0, 0))
    }

    /// Number of words tagged as uncompressed pointers (tag ≥ 2 — the
    /// machine's `TAG_UNCOMPRESSED`; 1 is a compressed pointer whose bounds
    /// live in the tag itself) on the 4 KB page containing `addr`.
    #[must_use]
    pub fn page_uncompressed_words(&self, addr: u32) -> u32 {
        self.count_page_words(addr, |tag, _| tag >= 2)
    }

    /// Number of data pages actually materialized (diagnostic).
    #[must_use]
    pub fn mapped_data_pages(&self) -> usize {
        self.chunks
            .iter()
            .flatten()
            .map(|chunk| chunk.iter().filter(|p| p.is_some()).count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0x1234), 0);
        assert_eq!(m.read_u32(0x1000_0000), 0);
        assert_eq!(m.tag(0x1000_0000), 0);
        assert_eq!(m.shadow(0x1000_0000), (0, 0));
        assert_eq!(m.read_word_tagged(0x1000_0000), (0, 0));
    }

    #[test]
    fn byte_write_read_roundtrip() {
        let mut m = Memory::new();
        m.write_u8(0x4000_0003, 0xAB);
        assert_eq!(m.read_u8(0x4000_0003), 0xAB);
        assert_eq!(m.read_u8(0x4000_0002), 0);
    }

    #[test]
    fn word_is_little_endian_over_bytes() {
        let mut m = Memory::new();
        m.write_u32(0x100, 0x0403_0201);
        assert_eq!(m.read_u8(0x100), 0x01);
        assert_eq!(m.read_u8(0x101), 0x02);
        assert_eq!(m.read_u8(0x102), 0x03);
        assert_eq!(m.read_u8(0x103), 0x04);
        assert_eq!(m.read_u32(0x100), 0x0403_0201);
    }

    #[test]
    fn unaligned_word_access_crosses_page_boundary() {
        let mut m = Memory::new();
        m.write_u32(0xFFE, 0xDDCC_BBAA);
        assert_eq!(m.read_u8(0xFFE), 0xAA);
        assert_eq!(m.read_u8(0xFFF), 0xBB);
        assert_eq!(m.read_u8(0x1000), 0xCC);
        assert_eq!(m.read_u8(0x1001), 0xDD);
        assert_eq!(m.read_u32(0xFFE), 0xDDCC_BBAA);
    }

    #[test]
    fn tags_are_per_aligned_word() {
        let mut m = Memory::new();
        m.set_tag(0x2000, 7);
        for byte in 0..4 {
            assert_eq!(m.tag(0x2000 + byte), 7);
        }
        assert_eq!(m.tag(0x2004), 0);
    }

    #[test]
    fn shadow_is_per_aligned_word() {
        let mut m = Memory::new();
        m.set_shadow(0x3001, (0x3000, 0x3010));
        assert_eq!(m.shadow(0x3000), (0x3000, 0x3010));
        assert_eq!(m.shadow(0x3003), (0x3000, 0x3010));
        assert_eq!(m.shadow(0x3004), (0, 0));
    }

    #[test]
    fn default_stores_do_not_materialize_meta_pages() {
        let mut m = Memory::new();
        m.set_tag(0x9000, 0);
        m.set_shadow(0x9000, (0, 0));
        assert_eq!(m.mapped_data_pages(), 0);
        // Even on a data-mapped page, default metadata stays lazy.
        m.write_u8(0x9000, 1);
        m.set_tag(0x9000, 0);
        assert!(m.page(0x9000).unwrap().meta.is_none());
    }

    #[test]
    fn combined_word_apis_match_the_granular_ones() {
        let mut m = Memory::new();
        m.write_word_tagged(0x5000, 0xDEAD_BEEF, 0);
        assert_eq!(m.read_word_tagged(0x5000), (0xDEAD_BEEF, 0));
        assert_eq!(m.read_u32(0x5000), 0xDEAD_BEEF);

        m.write_word_pointer(0x5004, 0x0100_0000, 2, (0x0100_0000, 0x0100_0040));
        assert_eq!(m.read_word_tagged(0x5004), (0x0100_0000, 2));
        assert_eq!(m.tag(0x5004), 2);
        assert_eq!(m.shadow(0x5004), (0x0100_0000, 0x0100_0040));

        // Tagged write over a pointer clears via the same path set_tag uses.
        m.write_word_tagged(0x5004, 7, 0);
        assert_eq!(m.read_word_tagged(0x5004), (7, 0));
        assert_eq!(
            m.shadow(0x5004),
            (0x0100_0000, 0x0100_0040),
            "shadow is stale but tag gates it"
        );
    }

    #[test]
    fn page_summaries_track_tag_and_shadow_counts() {
        let mut m = Memory::new();
        assert_eq!(m.page_tag_words(0x7000), 0);

        m.set_tag(0x7000, 2);
        m.set_tag(0x7004, 1);
        m.set_tag(0x7004, 3); // overwrite: count unchanged
        assert_eq!(m.page_tag_words(0x7123), 2);
        assert_eq!(m.page_tag_words(0x8000), 0, "other pages unaffected");

        m.set_shadow(0x7000, (0x7000, 0x7010));
        assert_eq!(m.page_shadow_words(0x7000), 1);
        m.set_shadow(0x7000, (0, 0));
        assert_eq!(m.page_shadow_words(0x7000), 0);

        // Clearing every tag leaves a materialized page with no tagged
        // word.
        m.set_tag(0x7000, 0);
        m.set_tag(0x7004, 0);
        assert_eq!(m.page_tag_words(0x7000), 0);
    }

    #[test]
    fn combined_write_apis_keep_summaries_exact() {
        let mut m = Memory::new();
        m.write_word_pointer(0x9000, 0x0100_0000, 2, (0x0100_0000, 0x0100_0040));
        assert_eq!(m.page_tag_words(0x9000), 1);
        assert_eq!(m.page_shadow_words(0x9000), 1);

        // Tagged write of 0 over the pointer clears the tag (shadow stays
        // stale by design, gated by the tag).
        m.write_word_tagged(0x9000, 7, 0);
        assert_eq!(m.page_tag_words(0x9000), 0);
        assert_eq!(m.page_shadow_words(0x9000), 1);

        // A tagged write on a page with no metadata arrays materializes
        // them only for nonzero tags, counting exactly once.
        m.write_word_tagged(0xA000, 1, 0);
        assert_eq!(m.page_tag_words(0xA000), 0);
        m.write_word_tagged(0xA004, 2, 5);
        assert_eq!(m.page_tag_words(0xA000), 1);
    }

    #[test]
    fn uncompressed_summary_tracks_tag_transitions() {
        let mut m = Memory::new();
        assert_eq!(m.page_uncompressed_words(0xB000), 0);

        // Compressed pointers (tag 1) never count.
        m.set_tag(0xB000, 1);
        assert_eq!(m.page_uncompressed_words(0xB000), 0);

        // Uncompressed (tag 2) counts, through transitions in every
        // direction.
        m.set_tag(0xB004, 2);
        assert_eq!(m.page_uncompressed_words(0xB123), 1);
        m.set_tag(0xB000, 2); // compressed -> uncompressed
        assert_eq!(m.page_uncompressed_words(0xB000), 2);
        m.set_tag(0xB004, 1); // uncompressed -> compressed
        assert_eq!(m.page_uncompressed_words(0xB000), 1);
        m.set_tag(0xB000, 0); // uncompressed -> none
        assert_eq!(m.page_uncompressed_words(0xB000), 0);
        assert_eq!(
            m.page_uncompressed_words(0xC000),
            0,
            "other pages untouched"
        );

        // The combined pointer-write API counts too.
        m.write_word_pointer(0xB008, 0x0100_0000, 2, (0x0100_0000, 0x0100_0040));
        assert_eq!(m.page_uncompressed_words(0xB000), 1);
        m.write_word_tagged(0xB008, 0, 0);
        assert_eq!(m.page_uncompressed_words(0xB000), 0);
    }

    #[test]
    fn bulk_bytes_roundtrip() {
        let mut m = Memory::new();
        let data = b"hello, hardbound";
        m.write_bytes(0x5000, data);
        assert_eq!(m.read_bytes(0x5000, data.len()), data);
    }

    #[test]
    fn mapped_page_accounting() {
        let mut m = Memory::new();
        assert_eq!(m.mapped_data_pages(), 0);
        m.write_u8(0, 1);
        m.write_u8(4096, 1);
        m.write_u8(4097, 1);
        assert_eq!(m.mapped_data_pages(), 2);
    }
}
