use hardbound_cache::{HierPath, HierarchyConfig};

use crate::encoding::PointerEncoding;
use crate::meta::Meta;

/// How much checking the HardBound hardware performs (paper §3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SafetyMode {
    /// Complete spatial safety: dereferencing a word with no metadata
    /// raises a non-pointer exception (Figure 3's "nonpointer check").
    /// Requires compiler instrumentation of locals and globals.
    Full,
    /// The malloc-only legacy-binary mode: "checks memory accesses only
    /// when bounds information is present; no checking is performed on the
    /// non-heap references" (§3.2, footnote 2).
    MallocOnly,
}

impl SafetyMode {
    /// The pinned one-byte tag shared by the stable fingerprint and the
    /// wire codec (see [`crate::PointerEncoding::wire_tag`]).
    #[must_use]
    pub fn wire_tag(self) -> u8 {
        match self {
            SafetyMode::Full => 0,
            SafetyMode::MallocOnly => 1,
        }
    }

    /// Inverse of [`SafetyMode::wire_tag`].
    #[must_use]
    pub fn from_wire_tag(tag: u8) -> Option<SafetyMode> {
        [SafetyMode::Full, SafetyMode::MallocOnly]
            .into_iter()
            .find(|m| m.wire_tag() == tag)
    }
}

/// Configuration of the HardBound hardware extension.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HardboundConfig {
    /// Active compressed pointer encoding (§4.3).
    pub encoding: PointerEncoding,
    /// Checking policy.
    pub mode: SafetyMode,
    /// §5.4 ablation: charge one extra µop per bounds check of an
    /// uncompressed pointer ("a more modest implementation might perform
    /// bounds checking of uncompressed pointers by using shared ALUs").
    pub check_uop: bool,
}

impl HardboundConfig {
    /// Full-safety configuration for `encoding` (the paper's main setup).
    #[must_use]
    pub fn full(encoding: PointerEncoding) -> HardboundConfig {
        HardboundConfig {
            encoding,
            mode: SafetyMode::Full,
            check_uop: false,
        }
    }

    /// Malloc-only legacy configuration for `encoding`.
    #[must_use]
    pub fn malloc_only(encoding: PointerEncoding) -> HardboundConfig {
        HardboundConfig {
            encoding,
            mode: SafetyMode::MallocOnly,
            check_uop: false,
        }
    }

    /// Enables the §5.4 extra-check-µop ablation.
    #[must_use]
    pub fn with_check_uop(mut self) -> HardboundConfig {
        self.check_uop = true;
        self
    }
}

/// The metadata-cost model. Its one variant is the paper's §4.2 model:
/// "tag metadata is needed by every memory operation", so every HardBound
/// load or store reads its tag and charges the `Tag` hierarchy, and every
/// access to an uncompressed pointer also charges `Shadow`.
///
/// No simulation code reads this type. It is named `Summary` only because
/// `hbbench` checks `meta_path == MetaPath::Summary` before it runs, and it
/// goes, with [`MachineConfig::meta_path`] and
/// [`MachineConfig::with_meta_path`], in the next benchmark change, which
/// drops that check (ROADMAP item 7).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MetaPath {
    /// The paper's §4.2 model (see the type docs for the name).
    #[default]
    Summary,
}

/// Full machine configuration.
///
/// `Hash` covers every field, so a hash of a `MachineConfig` fingerprints
/// the complete simulated hardware — the corpus-service result store keys
/// on it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MachineConfig {
    /// HardBound hardware; `None` disables it entirely (the baseline and
    /// the software-only comparison schemes run this way).
    pub hardbound: Option<HardboundConfig>,
    /// Memory-hierarchy geometry and penalties.
    pub hierarchy: HierarchyConfig,
    /// Maximum µops before the run is aborted with `Trap::OutOfFuel`.
    pub fuel: u64,
    /// Maximum call depth before `Trap::CallDepthExceeded`.
    pub max_call_depth: usize,
    /// The metadata-cost model; one variant, read by no simulation code
    /// (see [`MetaPath`]).
    pub meta_path: MetaPath,
    /// The hierarchy's lookup machinery; one variant, read by no
    /// simulation code and not fingerprinted (see [`HierPath`]).
    pub hier_path: HierPath,
}

impl Default for MachineConfig {
    /// HardBound enabled, full safety, internal 4-bit encoding, the paper's
    /// memory hierarchy.
    fn default() -> MachineConfig {
        MachineConfig::hardbound(HardboundConfig::full(PointerEncoding::Intern4))
    }
}

impl MachineConfig {
    /// A configuration with HardBound enabled; the tag-cache size is set
    /// from the encoding as in the paper (§5.1).
    #[must_use]
    pub fn hardbound(hb: HardboundConfig) -> MachineConfig {
        let hierarchy =
            HierarchyConfig::default().with_tag_cache_bytes(hb.encoding.tag_cache_bytes());
        MachineConfig {
            hardbound: Some(hb),
            hierarchy,
            fuel: 4_000_000_000,
            max_call_depth: 1 << 20,
            meta_path: MetaPath::Summary,
            hier_path: HierPath::Event,
        }
    }

    /// The baseline machine: HardBound hardware absent.
    #[must_use]
    pub fn baseline() -> MachineConfig {
        MachineConfig {
            hardbound: None,
            hierarchy: HierarchyConfig::default(),
            fuel: 4_000_000_000,
            max_call_depth: 1 << 20,
            meta_path: MetaPath::Summary,
            hier_path: HierPath::Event,
        }
    }

    /// Sidecar metadata of a `codeptr` result (§6.1): [`Meta::CODE`] with
    /// the HardBound extension, none on the baseline machine.
    #[must_use]
    pub fn code_pointer_meta(&self) -> Meta {
        if self.hardbound.is_some() {
            Meta::CODE
        } else {
            Meta::NONE
        }
    }

    /// Replaces the fuel limit.
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> MachineConfig {
        self.fuel = fuel;
        self
    }

    /// Replaces the memory hierarchy configuration (used by the tag-cache
    /// sensitivity ablation).
    #[must_use]
    pub fn with_hierarchy(mut self, hierarchy: HierarchyConfig) -> MachineConfig {
        self.hierarchy = hierarchy;
        self
    }

    /// Replaces the metadata-cost model (a no-op kept for `hbbench`; see
    /// [`MetaPath`]).
    #[must_use]
    pub fn with_meta_path(mut self, meta_path: MetaPath) -> MachineConfig {
        self.meta_path = meta_path;
        self
    }

    /// The part of this configuration that decides functional execution:
    /// registers, memory, tags, traps, output and every statistic except
    /// the ones [`MachineConfig::timing`] changes. It is this
    /// configuration with the timing part reset, so a field added to
    /// `MachineConfig` or [`HardboundConfig`] is functional until it is
    /// explicitly moved to the timing part. `block_bytes` stays
    /// functional: the machine's same-block memos, which every hierarchy
    /// of a timing group shares, are only valid for one block size.
    #[must_use]
    pub fn functional_key(&self) -> FunctionalKey {
        let mut key = self.clone();
        key.hierarchy = HierarchyConfig {
            block_bytes: self.hierarchy.block_bytes,
            ..HierarchyConfig::default()
        };
        if let Some(hb) = &mut key.hardbound {
            hb.check_uop = false;
        }
        FunctionalKey(key)
    }

    /// The part of this configuration that only changes timing: the
    /// hierarchy geometry and the §5.4 check-µop costing. Configurations with one [`FunctionalKey`] execute
    /// identically and differ only in the counters this part decides
    /// (`hierarchy` stalls, `check_uops` and `uops`), so a
    /// [`crate::Machine`] can run them as timing variants of one run.
    #[must_use]
    pub fn timing(&self) -> TimingPart {
        TimingPart {
            hierarchy: self.hierarchy,
            check_uop: self.hardbound.is_some_and(|hb| hb.check_uop),
        }
    }
}

/// A [`MachineConfig`] with its timing part reset (see
/// [`MachineConfig::functional_key`]): equal keys mean equal functional
/// execution of one program image.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FunctionalKey(MachineConfig);

impl FunctionalKey {
    /// The canonical configuration this key stands for.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.0
    }
}

/// The timing-only part of a [`MachineConfig`] (see
/// [`MachineConfig::timing`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimingPart {
    /// Memory-hierarchy geometry and penalties.
    pub hierarchy: HierarchyConfig,
    /// The §5.4 extra-check-µop ablation (`false` without HardBound).
    pub check_uop: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_intern4() {
        let c = MachineConfig::default();
        let hb = c.hardbound.expect("hardbound on by default");
        assert_eq!(hb.encoding, PointerEncoding::Intern4);
        assert_eq!(hb.mode, SafetyMode::Full);
        assert!(!hb.check_uop);
        assert_eq!(c.hierarchy.tag_cache_bytes, 2048);
        assert_eq!(c.meta_path, MetaPath::Summary);
        assert_eq!(c.hier_path, HierPath::Event);
    }

    #[test]
    fn extern4_gets_8kb_tag_cache() {
        let c = MachineConfig::hardbound(HardboundConfig::full(PointerEncoding::Extern4));
        assert_eq!(c.hierarchy.tag_cache_bytes, 8192);
    }

    #[test]
    fn baseline_has_no_hardbound() {
        assert!(MachineConfig::baseline().hardbound.is_none());
    }

    /// Every timing field leaves the functional key alone, every
    /// functional field changes it, and key plus timing part rebuild the
    /// configuration. The exhaustive destructuring stops compiling when a
    /// field is added, so a new field gets classified here.
    #[test]
    fn functional_key_and_timing_part_split_the_config() {
        let base = MachineConfig::default();
        let MachineConfig {
            hardbound,
            hierarchy,
            fuel,
            max_call_depth,
            meta_path: _,
            hier_path: _,
        } = base.clone();
        let hb = hardbound.expect("hardbound on by default");
        let HardboundConfig {
            encoding: _,
            mode: _,
            check_uop: _,
        } = hb;
        let with_hb = |hb: HardboundConfig| MachineConfig {
            hardbound: Some(hb),
            ..base.clone()
        };
        // `HierarchyConfig::to_words` lists every hierarchy field; word 6
        // is `block_bytes`, the one functional hierarchy field.
        const BLOCK_BYTES_WORD: usize = 6;
        assert_eq!(
            hierarchy.to_words()[BLOCK_BYTES_WORD],
            hierarchy.block_bytes
        );
        let with_word_doubled = |i: usize| {
            let mut words = hierarchy.to_words();
            words[i] *= 2;
            base.clone()
                .with_hierarchy(HierarchyConfig::from_words(words).expect("fits"))
        };

        let mut timing = vec![with_hb(hb.with_check_uop())];
        timing.extend(
            (0..hierarchy.to_words().len())
                .filter(|&i| i != BLOCK_BYTES_WORD)
                .map(with_word_doubled),
        );
        for cfg in &timing {
            assert_ne!(*cfg, base);
            assert_eq!(cfg.functional_key(), base.functional_key(), "{cfg:?}");
            assert_ne!(cfg.timing(), base.timing(), "{cfg:?}");
        }

        let functional = [
            with_hb(HardboundConfig::full(PointerEncoding::Extern4)),
            with_hb(HardboundConfig::full(PointerEncoding::Intern11)),
            with_hb(HardboundConfig::malloc_only(hb.encoding)),
            MachineConfig {
                hardbound: None,
                ..base.clone()
            },
            base.clone().with_fuel(fuel + 1),
            MachineConfig {
                max_call_depth: max_call_depth + 1,
                ..base.clone()
            },
            with_word_doubled(BLOCK_BYTES_WORD),
        ];
        for cfg in &functional {
            assert_ne!(cfg.functional_key(), base.functional_key(), "{cfg:?}");
        }

        for cfg in timing.iter().chain(&functional) {
            let t = cfg.timing();
            let mut back = cfg.functional_key().config().clone();
            back.hierarchy = t.hierarchy;
            if let Some(hb) = &mut back.hardbound {
                hb.check_uop = t.check_uop;
            }
            assert_eq!(back, *cfg, "key and timing part rebuild the config");
        }
    }

    #[test]
    fn builders_compose() {
        let c = MachineConfig::hardbound(
            HardboundConfig::malloc_only(PointerEncoding::Intern11).with_check_uop(),
        )
        .with_fuel(1000);
        let hb = c.hardbound.unwrap();
        assert_eq!(hb.mode, SafetyMode::MallocOnly);
        assert!(hb.check_uop);
        assert_eq!(c.fuel, 1000);
    }
}
