//! Stable, versioned fingerprints of the simulator's cacheable inputs.
//!
//! The corpus service keys its result store on hashes of the program image
//! and the machine configuration. Inside one process any hash works; the
//! moment those keys are **persisted** (`HB_STORE_PATH`) or sent over a
//! socket (`hbserve`), the hash must be identical across processes,
//! toolchains and platforms. `#[derive(Hash)]` promises none of that — its
//! byte encoding (field order, length prefixes, enum discriminant widths)
//! is an implementation detail of the Rust release that compiled the
//! binary. This module therefore pins the serialization by hand:
//!
//! * [`Fnv64`] — 64-bit FNV-1a with no per-process random state,
//! * [`StableHash`] — explicit field-by-field mixing for every type that
//!   participates in a fingerprint, each field reduced to little-endian
//!   bytes in a documented order, and
//! * [`FINGERPRINT_VERSION`] — a format tag mixed into every fingerprint,
//!   so any change to the rules below changes every key (and a persistent
//!   store from the old format cold-starts instead of aliasing).
//!
//! Programs are mixed via their **assembly listing**
//! ([`Program::write_listing`]): the listing round-trips through
//! `isa::parse_program` and therefore uniquely determines the image, and
//! its text is a grammar this workspace owns — stable across toolchains by
//! construction. It is also exactly the byte stream `hbserve` clients ship,
//! so client and server hash literally the same bytes.
//!
//! **Never** reorder, add or remove mixing steps without bumping
//! [`FINGERPRINT_VERSION`].

use std::fmt;
use std::hash::Hasher;

use hardbound_cache::HierarchyConfig;
use hardbound_isa::Program;

use crate::config::{HardboundConfig, MachineConfig, SafetyMode};
use crate::encoding::PointerEncoding;

/// Version tag of the fingerprint format. Bump on **any** change to a
/// [`StableHash`] impl or to the listing grammar's semantics; persisted
/// stores recorded under another version cold-start cleanly.
pub const FINGERPRINT_VERSION: u32 = 2;

/// A 64-bit FNV-1a [`Hasher`]: tiny, dependency-free, and — unlike
/// `DefaultHasher` — free of per-process random state, so fingerprints are
/// deterministic for a given input. The mixing function is pinned (offset
/// basis `0xcbf29ce484222325`, prime `0x100000001b3`); combined with the
/// explicit byte encodings of [`StableHash`], fingerprints are stable
/// across processes and toolchains.
#[derive(Clone, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Mixes raw bytes (no length prefix — callers delimit variable-length
    /// fields themselves via [`Fnv64::mix_bytes`] or a count field).
    pub fn mix_raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes one byte.
    pub fn mix_u8(&mut self, v: u8) {
        self.mix_raw(&[v]);
    }

    /// Mixes a `u32` as 4 little-endian bytes.
    pub fn mix_u32(&mut self, v: u32) {
        self.mix_raw(&v.to_le_bytes());
    }

    /// Mixes a `u64` as 8 little-endian bytes.
    pub fn mix_u64(&mut self, v: u64) {
        self.mix_raw(&v.to_le_bytes());
    }

    /// Mixes a length-prefixed byte string (the prefix makes adjacent
    /// variable-length fields unambiguous).
    pub fn mix_bytes(&mut self, bytes: &[u8]) {
        self.mix_u64(bytes.len() as u64);
        self.mix_raw(bytes);
    }

    /// The accumulated 64-bit fingerprint.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.mix_raw(bytes);
    }
}

/// Explicit, versioned hashing: implementors mix every semantically
/// relevant field into the hasher in a pinned order with pinned byte
/// encodings (see the module docs). This is the serialization
/// `#[derive(Hash)]` never promised.
pub trait StableHash {
    /// Mixes `self` into `h` under the rules of [`FINGERPRINT_VERSION`].
    fn stable_hash(&self, h: &mut Fnv64);
}

/// A fingerprint of `value` alone: version tag, then the value's stable
/// bytes, then `salt` (caller-side context the value cannot express).
#[must_use]
pub fn stable_fingerprint<T: StableHash>(value: &T, salt: u64) -> u64 {
    let mut h = Fnv64::default();
    h.mix_u32(FINGERPRINT_VERSION);
    value.stable_hash(&mut h);
    h.mix_u64(salt);
    h.value()
}

impl StableHash for PointerEncoding {
    fn stable_hash(&self, h: &mut Fnv64) {
        h.mix_u8(self.wire_tag());
    }
}

impl StableHash for SafetyMode {
    fn stable_hash(&self, h: &mut Fnv64) {
        h.mix_u8(self.wire_tag());
    }
}

impl StableHash for HardboundConfig {
    fn stable_hash(&self, h: &mut Fnv64) {
        self.encoding.stable_hash(h);
        self.mode.stable_hash(h);
        h.mix_u8(u8::from(self.check_uop));
    }
}

impl StableHash for Option<HardboundConfig> {
    fn stable_hash(&self, h: &mut Fnv64) {
        match self {
            None => h.mix_u8(0),
            Some(hb) => {
                h.mix_u8(1);
                hb.stable_hash(h);
            }
        }
    }
}

impl StableHash for HierarchyConfig {
    fn stable_hash(&self, h: &mut Fnv64) {
        // One pinned field list (`to_words`) serves both this hash and
        // the wire codec — a new field reaches both or neither.
        for word in self.to_words() {
            h.mix_u64(word);
        }
    }
}

impl StableHash for MachineConfig {
    /// `meta_path` and `hier_path` are not mixed: each is a one-variant
    /// enum that no simulation code reads, kept only for `hbbench`'s
    /// start-up guard.
    fn stable_hash(&self, h: &mut Fnv64) {
        self.hardbound.stable_hash(h);
        self.hierarchy.stable_hash(h);
        h.mix_u64(self.fuel);
        h.mix_u64(self.max_call_depth as u64);
    }
}

/// Streams [`fmt::Write`] output straight into the hasher — how a whole
/// program listing is mixed without materializing the string.
struct HashWriter<'a>(&'a mut Fnv64);

impl fmt::Write for HashWriter<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.mix_raw(s.as_bytes());
        Ok(())
    }
}

impl StableHash for Program {
    /// A program's stable bytes are its **assembly listing** (see the
    /// module docs): the listing round-trips through `isa::parse_program`,
    /// so it determines the image uniquely, and the grammar is owned by
    /// this workspace rather than by the Rust toolchain.
    fn stable_hash(&self, h: &mut Fnv64) {
        let _ = self.write_listing(&mut HashWriter(h));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The FNV pin: if the mixing constants ever drift, persisted stores
    /// written by older builds would silently alias.
    #[test]
    fn fnv_constants_are_pinned() {
        let mut h = Fnv64::default();
        assert_eq!(h.value(), 0xcbf2_9ce4_8422_2325);
        h.mix_raw(b"a");
        assert_eq!(h.value(), 0xaf63_dc4c_8601_ec8c, "FNV-1a of \"a\"");
        let mut h = Fnv64::default();
        h.mix_raw(b"foobar");
        assert_eq!(h.value(), 0x85944171f73967e8, "FNV-1a of \"foobar\"");
    }

    /// The golden fingerprint of the default configuration — computed
    /// once from the format rules above and pinned forever.
    const GOLDEN_DEFAULT_CONFIG: u64 = 0x0fc5_15b6_8492_070b;

    /// The golden fingerprint of the default configuration. This value is
    /// the cross-process contract: it must only ever change together with
    /// a FINGERPRINT_VERSION bump (which cold-starts persistent stores).
    #[test]
    fn default_config_fingerprint_is_pinned() {
        let fp = stable_fingerprint(&MachineConfig::default(), 0);
        assert_eq!(
            fp, GOLDEN_DEFAULT_CONFIG,
            "stable fingerprint of MachineConfig::default() drifted — if \
             this is intentional, bump FINGERPRINT_VERSION and update the pin"
        );
    }

    #[test]
    fn fields_split_fingerprints() {
        let base = MachineConfig::default();
        let fp = |c: &MachineConfig| stable_fingerprint(c, 0);
        assert_ne!(fp(&base), fp(&base.clone().with_fuel(1)));
        assert_ne!(fp(&base), fp(&MachineConfig::baseline()));
        assert_ne!(fp(&base), stable_fingerprint(&base, 1), "salt splits");
        let mut hier = base.clone();
        hier.hierarchy.tag_cache_bytes += 1;
        assert_ne!(fp(&base), fp(&hier));
    }

    #[test]
    fn program_hash_follows_the_listing() {
        use hardbound_isa::{FunctionBuilder, Reg};
        let mut f = FunctionBuilder::new("main", 0);
        f.li(Reg::A0, 0);
        f.halt();
        let p = Program::with_entry(vec![f.finish()]);
        let mut q = p.clone();
        q.functions[0].name.push('x');

        let hash = |p: &Program| {
            let mut h = Fnv64::default();
            p.stable_hash(&mut h);
            h.value()
        };
        assert_eq!(hash(&p), hash(&p.clone()));
        assert_ne!(hash(&p), hash(&q));

        // The listing IS the hashed byte stream: hashing the rendered
        // string directly agrees with the streaming writer.
        let mut h = Fnv64::default();
        h.mix_raw(p.disassemble().as_bytes());
        assert_eq!(hash(&p), h.value());
    }
}
