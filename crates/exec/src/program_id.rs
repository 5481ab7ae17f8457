//! The stable identity of a program image under a HardBound
//! configuration: the first half of every result-store key and the
//! program handle of the `hbserve` wire protocol.

use std::collections::HashMap;

use hardbound_core::{Fnv64, FoldHasher, MachineConfig, StableHash, FINGERPRINT_VERSION};
use hardbound_isa::Program;

/// Content-hash identity of a program image under a configuration: the
/// full image (functions, entry, globals, data) plus the HardBound
/// extension (encoding, mode, check-µop ablation). Configurations that
/// differ only in run-time knobs (fuel, call depth, hierarchy geometry)
/// map to the *same* `ProgramId`; the result store's key adds their
/// fingerprint (see [`config_fingerprint`](crate::config_fingerprint)).
///
/// It is computed on the pinned serialization of
/// `hardbound_core::fingerprint`, so a `ProgramId` is byte-identical across
/// processes and toolchains. That is what lets the result store persist,
/// the wire protocol dedup against it, and hot-spot profiles from
/// different processes merge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProgramId(pub u64);

/// Process-local memo of the **stable** program hash (FNV-1a over the
/// assembly listing — see `core::fingerprint`), keyed by a
/// `#[derive(Hash)]` walk of the image under `core::FoldHasher`.
/// Rendering a multi-thousand-line listing per [`ProgramId::of`] call
/// would tax exactly the path the result store exists to make cheap (key
/// computation on warm replays), so each distinct image is rendered once
/// per process. The walk itself runs on every call, so it uses the
/// word-at-a-time `FoldHasher`.
/// The structural key is process-internal only — nothing derived from it
/// is persisted or sent — and its 64-bit collision exposure matches what
/// the pre-stable `ProgramId` itself carried.
fn stable_program_hash(program: &Program) -> u64 {
    use std::collections::hash_map::Entry;
    use std::hash::{BuildHasher, BuildHasherDefault};
    use std::sync::{Mutex, OnceLock, PoisonError};

    /// Distinct images memoized before the memo resets (fuzz sweeps over
    /// unbounded generated programs must not leak).
    const MEMO_CAP: usize = 1 << 14;

    let fast = BuildHasherDefault::<FoldHasher>::default().hash_one(program);

    static MEMO: OnceLock<Mutex<HashMap<u64, u64>>> = OnceLock::new();
    let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(&stable) = memo
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&fast)
    {
        return stable;
    }
    // Render outside the lock: a figure grid's parallel compiles must not
    // serialize on each other's listing formatting.
    let mut h = Fnv64::default();
    program.stable_hash(&mut h);
    let stable = h.value();
    let mut memo = memo.lock().unwrap_or_else(PoisonError::into_inner);
    if memo.len() >= MEMO_CAP {
        memo.clear();
    }
    if let Entry::Vacant(slot) = memo.entry(fast) {
        slot.insert(stable);
    }
    stable
}

impl ProgramId {
    /// Fingerprints `program` under `cfg` (see the type docs for what is
    /// — and deliberately is not — part of the identity).
    ///
    /// The hash runs on the **stable serialization**
    /// (`hardbound_core::fingerprint`): the program contributes the
    /// FNV-1a of its assembly listing (memoized per distinct image —
    /// see `stable_program_hash`) and the configuration is mixed field
    /// by field, with the format version folded in — so a `ProgramId`
    /// computed by another process, another toolchain, or the far side
    /// of an `hbserve` socket is byte-identical, which is what lets the
    /// result store persist and the wire protocol dedup against it.
    #[must_use]
    pub fn of(program: &Program, cfg: &MachineConfig) -> ProgramId {
        let mut h = Fnv64::default();
        h.mix_u32(FINGERPRINT_VERSION);
        h.mix_u64(stable_program_hash(program));
        cfg.hardbound.stable_hash(&mut h);
        ProgramId(h.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardbound_isa::{FunctionBuilder, Reg};

    fn two_function_program() -> Program {
        let mut a = FunctionBuilder::new("a", 0);
        a.li(Reg::A0, 1);
        a.halt();
        let mut b = FunctionBuilder::new("b", 0);
        b.li(Reg::A0, 2);
        b.ret();
        Program::with_entry(vec![a.finish(), b.finish()])
    }

    /// The golden `ProgramId` of one fixed image under the default
    /// (HardBound) configuration. Like the configuration fingerprint pin in
    /// `core::fingerprint`, this is the cross-process contract: persisted
    /// stores and `hbserve` peers agree on it, so it may only change with a
    /// `FINGERPRINT_VERSION` bump. The in-process memo key in front of the
    /// listing hash must not move it.
    #[test]
    fn program_id_is_pinned() {
        let mut p = two_function_program();
        p.globals_size = 8;
        p.data.push(hardbound_isa::DataInit {
            addr: hardbound_isa::layout::GLOBALS_BASE,
            bytes: b"hb\0".to_vec(),
        });
        assert_eq!(
            ProgramId::of(&p, &MachineConfig::default()),
            ProgramId(0x14a3_a3a3_b1df_d97b),
            "ProgramId drifted — if this is intentional, bump \
             FINGERPRINT_VERSION and update the pin"
        );
    }

    #[test]
    fn program_id_covers_image_and_hardbound_config() {
        let p = two_function_program();
        let cfg = MachineConfig::default();
        assert_eq!(ProgramId::of(&p, &cfg), ProgramId::of(&p, &cfg));
        // Run-time knobs do not split the identity…
        assert_eq!(
            ProgramId::of(&p, &cfg),
            ProgramId::of(&p, &cfg.clone().with_fuel(10)),
        );
        // …but the HardBound extension does, and so does the image.
        assert_ne!(
            ProgramId::of(&p, &cfg),
            ProgramId::of(&p, &MachineConfig::baseline())
        );
        let mut q = p.clone();
        q.functions[0].name.push('x');
        assert_ne!(ProgramId::of(&p, &cfg), ProgramId::of(&q, &cfg));
    }
}
