//! The shared decoded-block cache.
//!
//! Blocks are keyed by `(program, entry point)`: a [`ProgramId`] — a
//! content hash of the program image plus the decode-relevant
//! configuration — and the entry `(function, instruction index)`. One
//! cache therefore serves **many machines and many programs**: a corpus
//! service re-running the same image under a new fuel limit, or a second
//! machine of the same program, finds the decode work already done.
//! Within a program the index is a dense per-function table rather than a
//! hash map — a lookup on the block-transition path is three array reads
//! (the engine resolves its program's dense handle once at bind time).
//! Decoded blocks may overlap (jumping into the middle of a previously
//! decoded run simply decodes a new block starting there); this keeps
//! decode single-pass with no leader analysis, exactly like a hardware µop
//! trace cache.
//!
//! Residency is managed by a **segmented LRU** shared across programs:
//! freshly decoded blocks enter a probationary segment and are promoted to
//! a protected segment on their first re-use, so one-shot decode streams
//! (a long straight-line prologue, a cold error path, a sweep of one-run
//! corpus programs) cannot wash a long-lived service's hot loops out of
//! the cache. Capacity pressure evicts one probationary LRU block at a
//! time — never the whole cache.
//!
//! Program images are immutable: a [`Machine`](hardbound_core::Machine)
//! holds its program with no mutable accessor, and simulated stores never
//! reach code addresses (`isa::layout`). So a decoded block never goes
//! stale, and the one invalidation is
//! [`SharedBlockCache::invalidate_program`], which retires a whole
//! program when a long-lived service replaces it.

use std::collections::HashMap;

use hardbound_core::{Fnv64, FoldHasher, MachineConfig, StableHash, FINGERPRINT_VERSION};
use hardbound_isa::{FuncId, Program};

use crate::slru::SlruIndex;
use crate::uop::Uop;

/// Content-hash identity of a program *as the decoder sees it*: the full
/// program image (functions, entry, globals, data) plus the
/// decode-facing configuration — the HardBound extension
/// (encoding/mode/check-µop ablation). Two machines with equal `ProgramId`s decode byte-identical blocks and may
/// share them; configurations that differ only in run-time knobs (fuel,
/// call depth, hierarchy geometry) map to the *same* `ProgramId` and
/// reuse each other's decode work.
///
/// The keying is deliberately **conservative**: today's decoder
/// specializes only on whether the extension is present (checked vs raw
/// memory µops), so hashing the full extension config splits some
/// byte-identical µop streams — e.g. the three encodings of one image
/// decode separately. That costs a bounded amount of re-decode across an
/// encoding sweep and in exchange no future decoder specialization
/// (per-encoding check fusion is the obvious one) can silently alias
/// blocks across configurations it has started to distinguish.
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

/// A decoded basic block.
#[derive(Clone, Debug)]
pub struct Block {
    /// Dense handle of the owning program (see
    /// [`SharedBlockCache::register`]).
    pub prog: u32,
    /// Owning function.
    pub func: FuncId,
    /// Entry instruction index within the function.
    pub entry: u32,
    /// Pre-decoded µops; one per instruction, terminator last.
    pub uops: Box<[Uop]>,
}

/// Counters describing the cache's behaviour over its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Lookups that found a resident decoded block.
    pub hits: u64,
    /// Blocks decoded (== lookup misses).
    pub decoded: u64,
    /// Blocks discarded by capacity eviction (segmented-LRU victims).
    pub evicted: u64,
    /// Blocks discarded by explicit invalidation.
    pub invalidated: u64,
}

impl BlockCacheStats {
    /// Lookup hit ratio in `[0, 1]`; `0` with no lookups.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.decoded;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates `other` into `self` (the corpus service sums its
    /// per-worker shards this way).
    pub fn absorb(&mut self, other: BlockCacheStats) {
        self.hits += other.hits;
        self.decoded += other.decoded;
        self.evicted += other.evicted;
        self.invalidated += other.invalidated;
    }
}

/// One registered program: its dense entry-PC index (the identity lives
/// in the cache's `by_id` map).
#[derive(Debug)]
struct ProgramEntry {
    /// `index[func][pc]` = slot id + 1; `0` = not decoded.
    index: Vec<Vec<u32>>,
}

/// Decoded blocks for any number of programs, indexed by
/// `(program, entry PC)`, with bounded capacity and segmented-LRU
/// replacement shared across all of them.
///
/// Programs are registered once ([`SharedBlockCache::register`]) and
/// addressed by the returned dense handle on the hot path; registration is
/// idempotent per [`ProgramId`], which is how a long-lived cache hands a
/// second run of the same image its warm blocks.
/// [`SharedBlockCache::invalidate_program`] *unregisters*, recycling the
/// handle and the per-instruction index table, so an open-ended sweep
/// that retires programs does not accumulate dead registrations.
#[derive(Debug)]
pub struct SharedBlockCache {
    by_id: HashMap<ProgramId, u32>,
    /// Registered programs by dense handle; unregistered slots are `None`
    /// and recycled through `free_programs`.
    programs: Vec<Option<ProgramEntry>>,
    free_programs: Vec<u32>,
    /// Slab of resident blocks; freed slots are recycled through `free`,
    /// so resident slot ids are stable across unrelated evictions.
    slots: Vec<Option<Block>>,
    free: Vec<u32>,
    /// Segmented-LRU recency of the resident slots.
    recency: SlruIndex,
    resident: usize,
    capacity: usize,
    stats: BlockCacheStats,
}

impl SharedBlockCache {
    /// Default capacity in blocks; far beyond any single program image, so
    /// capacity evictions only matter to long-lived corpus services (and
    /// callers that ask for a small cache to exercise eviction).
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Creates an empty cache holding at most `capacity` decoded blocks
    /// across all registered programs.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> SharedBlockCache {
        assert!(capacity > 0, "block cache needs room for at least 1 block");
        SharedBlockCache {
            by_id: HashMap::new(),
            programs: Vec::new(),
            free_programs: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            recency: SlruIndex::new(capacity),
            resident: 0,
            capacity,
            stats: BlockCacheStats::default(),
        }
    }

    /// Registers `program` under `pid` and returns its dense handle; a
    /// `pid` seen before returns the existing handle (and its resident
    /// blocks) without touching the shape.
    pub fn register(&mut self, pid: ProgramId, program: &Program) -> u32 {
        if let Some(&h) = self.by_id.get(&pid) {
            // The 64-bit fingerprint is trusted as the identity; at least
            // catch shape-diverging collisions (which would otherwise
            // surface as out-of-bounds panics deep in lookup/insert, or
            // as silently shared blocks) where the check is free.
            debug_assert!(
                {
                    let entry = self.entry(h);
                    entry.index.len() == program.functions.len()
                        && entry
                            .index
                            .iter()
                            .zip(&program.functions)
                            .all(|(per_fn, f)| per_fn.len() == f.insts.len())
                },
                "ProgramId collision: {pid:?} maps to a different image shape"
            );
            return h;
        }
        let entry = ProgramEntry {
            index: program
                .functions
                .iter()
                .map(|f| vec![0; f.insts.len()])
                .collect(),
        };
        let h = match self.free_programs.pop() {
            Some(h) => {
                self.programs[h as usize] = Some(entry);
                h
            }
            None => {
                self.programs.push(Some(entry));
                (self.programs.len() - 1) as u32
            }
        };
        self.by_id.insert(pid, h);
        h
    }

    fn entry(&self, prog: u32) -> &ProgramEntry {
        self.programs[prog as usize]
            .as_ref()
            .expect("registered program")
    }

    fn entry_mut(&mut self, prog: u32) -> &mut ProgramEntry {
        self.programs[prog as usize]
            .as_mut()
            .expect("registered program")
    }

    /// The dense handle for `pid`, if registered.
    #[must_use]
    pub fn handle(&self, pid: ProgramId) -> Option<u32> {
        self.by_id.get(&pid).copied()
    }

    /// Number of currently registered programs.
    #[must_use]
    pub fn program_count(&self) -> usize {
        self.by_id.len()
    }

    /// Removes the block in slot `id` entirely (index entry, recency, slab).
    fn remove(&mut self, id: u32) {
        self.recency.remove(id);
        let b = self.slots[id as usize].take().expect("resident slot");
        self.entry_mut(b.prog).index[b.func.0 as usize][b.entry as usize] = 0;
        self.free.push(id);
        self.resident -= 1;
    }

    /// Evicts one block to make room: the probationary LRU if any, else
    /// the protected LRU.
    fn evict_one(&mut self) {
        let victim = self.recency.victim().expect("evicting from an empty cache");
        self.remove(victim);
        self.stats.evicted += 1;
    }

    /// Id of the resident block of program handle `prog` decoded at
    /// `(func, pc)`, if any. Counts a hit and touches the block's recency:
    /// probationary blocks are promoted to the protected segment,
    /// protected blocks move to its MRU position. Ids are only stable
    /// until the next insert or invalidation — resolve them with
    /// [`SharedBlockCache::block`] immediately.
    #[inline]
    pub fn lookup(&mut self, prog: u32, func: FuncId, pc: u32) -> Option<usize> {
        let id = self.entry(prog).index[func.0 as usize][pc as usize];
        if id == 0 {
            return None;
        }
        let id = id - 1;
        self.stats.hits += 1;
        self.recency.touch(id);
        Some(id as usize)
    }

    /// Inserts a freshly decoded block for program handle `prog` and
    /// returns its id. Counts a decode; evicts segmented-LRU victims one
    /// at a time when at capacity.
    pub fn insert(&mut self, prog: u32, func: FuncId, entry: u32, uops: Box<[Uop]>) -> usize {
        while self.resident >= self.capacity {
            self.evict_one();
        }
        self.stats.decoded += 1;
        let block = Block {
            prog,
            func,
            entry,
            uops,
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(block);
                id
            }
            None => {
                self.slots.push(Some(block));
                (self.slots.len() - 1) as u32
            }
        };
        self.recency.insert(id);
        self.entry_mut(prog).index[func.0 as usize][entry as usize] = id + 1;
        self.resident += 1;
        id as usize
    }

    /// The block for an id returned by [`SharedBlockCache::lookup`] /
    /// [`SharedBlockCache::insert`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is not resident.
    #[inline]
    #[must_use]
    pub fn block(&self, id: usize) -> &Block {
        self.slots[id].as_ref().expect("resident slot")
    }

    /// Drops every decoded block of the program registered as `pid`
    /// (counting them as invalidated) **and unregisters it** — the handle
    /// and its per-instruction index table are recycled, so a long-lived
    /// cache sweeping an open-ended stream of programs can retire them
    /// without accumulating dead registrations. Returns how many blocks
    /// died; a later run of the image simply re-registers.
    pub fn invalidate_program(&mut self, pid: ProgramId) -> u64 {
        let Some(prog) = self.handle(pid) else {
            return 0;
        };
        let victims: Vec<u32> = (0..self.slots.len() as u32)
            .filter(|&id| {
                self.slots[id as usize]
                    .as_ref()
                    .is_some_and(|b| b.prog == prog)
            })
            .collect();
        let dropped = victims.len() as u64;
        for id in victims {
            self.remove(id);
        }
        self.stats.invalidated += dropped;
        self.by_id.remove(&pid);
        self.programs[prog as usize] = None;
        self.free_programs.push(prog);
        dropped
    }

    /// Number of resident decoded blocks (across all programs).
    #[must_use]
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// Accumulated cache counters.
    #[must_use]
    pub fn stats(&self) -> BlockCacheStats {
        self.stats
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

    fn pid(n: u64) -> ProgramId {
        ProgramId(n)
    }

    fn uops() -> Box<[Uop]> {
        vec![Uop::Nop, Uop::Ret].into_boxed_slice()
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
    fn program_id_covers_image_and_decode_config() {
        let p = two_function_program();
        let cfg = MachineConfig::default();
        assert_eq!(ProgramId::of(&p, &cfg), ProgramId::of(&p, &cfg));
        // Run-time knobs do not split the decode identity…
        assert_eq!(
            ProgramId::of(&p, &cfg),
            ProgramId::of(&p, &cfg.clone().with_fuel(10)),
        );
        // …but the HardBound extension (checked vs raw memory µops) does,
        // and so does the image.
        assert_ne!(
            ProgramId::of(&p, &cfg),
            ProgramId::of(&p, &MachineConfig::baseline())
        );
        let mut q = p.clone();
        q.functions[0].name.push('x');
        assert_ne!(ProgramId::of(&p, &cfg), ProgramId::of(&q, &cfg));
    }

    #[test]
    fn register_is_idempotent_per_pid() {
        let p = two_function_program();
        let mut c = SharedBlockCache::new(8);
        let h = c.register(pid(1), &p);
        assert_eq!(c.register(pid(1), &p), h);
        assert_ne!(c.register(pid(2), &p), h);
        assert_eq!(c.program_count(), 2);
    }

    #[test]
    fn insert_then_lookup_hits_per_program() {
        let p = two_function_program();
        let mut c = SharedBlockCache::new(8);
        let pa = c.register(pid(1), &p);
        let pb = c.register(pid(2), &p);
        assert!(c.lookup(pa, FuncId(0), 0).is_none());
        let id = c.insert(pa, FuncId(0), 0, uops());
        assert_eq!(c.lookup(pa, FuncId(0), 0), Some(id));
        assert!(
            c.lookup(pb, FuncId(0), 0).is_none(),
            "programs do not alias each other's entries"
        );
        assert_eq!(c.block(id).entry, 0);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().decoded, 1);
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_evicts_one_block_not_everything() {
        let p = two_function_program();
        let mut c = SharedBlockCache::new(1);
        let h = c.register(pid(1), &p);
        c.insert(h, FuncId(0), 0, uops());
        c.insert(h, FuncId(0), 1, uops());
        assert_eq!(c.stats().evicted, 1);
        assert_eq!(c.resident(), 1);
        assert!(c.lookup(h, FuncId(0), 0).is_none(), "evicted block is gone");
        assert!(c.lookup(h, FuncId(0), 1).is_some());
    }

    #[test]
    fn reused_blocks_survive_a_cold_decode_stream() {
        // The segmented-LRU point, now across programs: a re-used
        // (promoted) block of one program outlives an arbitrarily long
        // stream of never-reused insertions from *another* program — the
        // corpus-sweep shape a shared cache must not thrash on.
        let mut f = FunctionBuilder::new("big", 0);
        for _ in 0..63 {
            f.li(Reg::A0, 0);
        }
        f.halt();
        let big = Program::with_entry(vec![f.finish()]);
        let mut c = SharedBlockCache::new(4);
        let hot_prog = c.register(pid(1), &big);
        let cold_prog = c.register(pid(2), &big);
        let hot = c.insert(hot_prog, FuncId(0), 0, uops());
        assert_eq!(
            c.lookup(hot_prog, FuncId(0), 0),
            Some(hot),
            "promote to protected"
        );
        for e in 1..40 {
            c.insert(cold_prog, FuncId(0), e, uops());
        }
        assert!(
            c.lookup(hot_prog, FuncId(0), 0).is_some(),
            "hot block must survive the scan: {:?}",
            c.stats()
        );
        assert_eq!(c.resident(), 4);
        assert_eq!(c.stats().evicted, 36);
    }

    #[test]
    fn program_invalidation_drops_exactly_that_programs_blocks() {
        let p = two_function_program();
        let mut c = SharedBlockCache::new(8);
        let pa = c.register(pid(1), &p);
        let pb = c.register(pid(2), &p);
        c.insert(pa, FuncId(0), 0, uops());
        c.insert(pa, FuncId(1), 0, uops());
        c.insert(pb, FuncId(0), 0, uops());
        assert_eq!(c.invalidate_program(pid(1)), 2);
        assert_eq!(c.stats().invalidated, 2);
        assert_eq!(c.resident(), 1, "program B's block survives");
        assert_eq!(c.invalidate_program(pid(777)), 0, "unknown pid is a no-op");
        assert!(c.lookup(pb, FuncId(0), 0).is_some());

        // Invalidation unregisters: the handle is recycled and the pid is
        // gone until the image runs again.
        assert_eq!(c.handle(pid(1)), None);
        assert_eq!(c.program_count(), 1);
        let pc2 = c.register(pid(3), &p);
        assert_eq!(pc2, pa, "retired handles are recycled");
        assert_eq!(c.program_count(), 2);
        assert!(c.lookup(pc2, FuncId(0), 0).is_none(), "fresh index");
    }
}
