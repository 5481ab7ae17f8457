//! The result store behind the corpus service.
//!
//! The paper's evaluation is corpus-shaped — hundreds of violation pairs
//! and nine Olden ports re-simulated under every mode × encoding — yet a
//! bare [`Machine::run`](hardbound_core::Machine::run) treats each run as
//! a throwaway. A [`ResultStore`] maps `(`[`ProgramId`]`, configuration
//! fingerprint)` to the full [`RunOutcome`] of that cell, so re-running a
//! corpus replays identical cells instead of simulating them. Execution
//! is deterministic in the key, which makes replay *byte-identical* to
//! recomputation — pinned by the service differential suite and the
//! result-store proptests at the workspace root.
//!
//! The service that owns a store, runs its misses on the [`batch`](crate::batch)
//! scheduler and (optionally) persists it is
//! `hardbound_serve::PersistentService`; this module holds the pieces it
//! and the benchmark harness share: the store, the [`Job`] cell and its
//! [`StoreKey`].

use std::collections::HashMap;

use hardbound_core::{stable_fingerprint, MachineConfig, RunOutcome};
use hardbound_isa::Program;

use crate::slru::SlruIndex;
use crate::ProgramId;

/// Fingerprint of everything *besides the program image* that determines a
/// run's outcome: the [`MachineConfig`] (HardBound extension, hierarchy
/// geometry, fuel, call depth; not the one-variant `meta_path` and
/// `hier_path`, which no simulation code reads) plus a caller-supplied
/// salt for machine construction the config cannot see (the runtime layer
/// salts with its compiler `Mode`, which decides e.g. whether an object
/// table is attached).
///
/// Computed on the pinned serialization of
/// `hardbound_core::fingerprint` (explicit field-by-field FNV mixing with
/// a format version tag), so the fingerprint is identical across
/// processes and toolchains — the property the persistent store and the
/// `hbserve` protocol key on.
#[must_use]
pub fn config_fingerprint(config: &MachineConfig, salt: u64) -> u64 {
    stable_fingerprint(config, salt)
}

/// A result-store key: the program's identity plus the full
/// configuration fingerprint (see [`config_fingerprint`]).
pub type StoreKey = (ProgramId, u64);

/// Counters describing the result store's behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResultStoreStats {
    /// Lookups answered from the store (simulations avoided).
    pub hits: u64,
    /// Lookups that had to execute.
    pub misses: u64,
    /// Outcomes inserted.
    pub stored: u64,
    /// Entries dropped by program invalidation.
    pub invalidated: u64,
    /// Entries dropped by capacity eviction (oldest first).
    pub evicted: u64,
}

/// The program-hash result store: `(ProgramId, config fingerprint)` →
/// the complete [`RunOutcome`] of that cell.
///
/// Residency is **bounded**: the store lives for the whole process inside
/// a long-lived service, so unchecked growth across an open-ended corpus
/// sweep would be a leak. Past [`ResultStore::DEFAULT_CAPACITY`] (or the
/// explicit [`ResultStore::with_capacity`] bound) entries are evicted by
/// **segmented LRU** (the crate's `slru` index): fresh results sit in a
/// probationary segment and are promoted on their first replay, so a
/// figure grid's re-used cells outlive an arbitrarily long one-shot sweep
/// that a FIFO order would let wash them out.
///
/// For persistence (`hardbound-serve`), [`ResultStore::seed`] loads
/// entries from disk without perturbing the counters.
#[derive(Debug)]
pub struct ResultStore {
    /// Key → slab slot id.
    map: HashMap<StoreKey, u32>,
    /// Slab of live entries; freed slots recycle through `free`.
    slots: Vec<Option<(StoreKey, RunOutcome)>>,
    free: Vec<u32>,
    recency: SlruIndex,
    capacity: usize,
    stats: ResultStoreStats,
}

impl Default for ResultStore {
    fn default() -> ResultStore {
        ResultStore::with_capacity(ResultStore::DEFAULT_CAPACITY)
    }
}

impl ResultStore {
    /// Default capacity in stored outcomes — far beyond one full figure
    /// pipeline (a few thousand cells), small enough that a process
    /// sweeping unbounded fresh programs stays bounded.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// An empty store holding at most `capacity` outcomes.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> ResultStore {
        assert!(capacity > 0, "result store needs room for at least 1 entry");
        ResultStore {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            recency: SlruIndex::new(capacity),
            capacity,
            stats: ResultStoreStats::default(),
        }
    }

    /// The stored outcome for `key`, if any; counts a hit or a miss and
    /// touches the entry's recency (first replay promotes it to the
    /// protected segment).
    pub fn lookup(&mut self, key: StoreKey) -> Option<RunOutcome> {
        match self.map.get(&key) {
            Some(&id) => {
                self.stats.hits += 1;
                self.recency.touch(id);
                let (_, out) = self.slots[id as usize].as_ref().expect("live slot");
                Some(out.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Places `(key, outcome)` into the slab and the maps; the caller has
    /// already ensured the key is absent.
    fn place(&mut self, key: StoreKey, outcome: RunOutcome) {
        let slot = Some((key, outcome));
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = slot;
                id
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        self.map.insert(key, id);
        self.recency.insert(id);
        while self.map.len() > self.capacity {
            let victim = self.recency.victim().expect("store is non-empty");
            self.drop_slot(victim);
            self.stats.evicted += 1;
        }
    }

    /// Removes slot `victim` from the slab, map and recency index.
    fn drop_slot(&mut self, victim: u32) {
        let (key, _) = self.slots[victim as usize].take().expect("live slot");
        self.map.remove(&key);
        self.recency.remove(victim);
        self.free.push(victim);
    }

    /// Stores `outcome` under `key` (last write wins; identical keys can
    /// only ever carry identical outcomes), evicting segmented-LRU
    /// victims past capacity.
    pub fn insert(&mut self, key: StoreKey, outcome: RunOutcome) {
        self.stats.stored += 1;
        if let Some(&id) = self.map.get(&key) {
            self.slots[id as usize] = Some((key, outcome));
            self.recency.touch(id);
            return;
        }
        self.place(key, outcome);
    }

    /// Loads `(key, outcome)` from a persistent log: like
    /// [`ResultStore::insert`], but not counted as `stored` — seeded
    /// entries are already on disk.
    pub fn seed(&mut self, key: StoreKey, outcome: RunOutcome) {
        if let Some(&id) = self.map.get(&key) {
            self.slots[id as usize] = Some((key, outcome));
            return;
        }
        self.place(key, outcome);
    }

    /// Iterates every live `(key, outcome)` (compaction snapshots).
    pub fn entries(&self) -> impl Iterator<Item = (&StoreKey, &RunOutcome)> {
        self.slots.iter().flatten().map(|(k, o)| (k, o))
    }

    /// Drops every entry of program `pid` — and nothing else — returning
    /// how many died.
    pub fn invalidate_program(&mut self, pid: ProgramId) -> usize {
        let victims: Vec<u32> = (0..self.slots.len() as u32)
            .filter(|&id| {
                self.slots[id as usize]
                    .as_ref()
                    .is_some_and(|((p, _), _)| *p == pid)
            })
            .collect();
        for &id in &victims {
            self.drop_slot(id);
        }
        self.stats.invalidated += victims.len() as u64;
        victims.len()
    }

    /// Number of stored results.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> ResultStoreStats {
        self.stats
    }
}

/// One unit of corpus work: a program image, the machine configuration to
/// run it under, a construction salt (see [`config_fingerprint`]) and an
/// opaque tag handed back to the machine builder (the runtime layer passes
/// its compiler `Mode` here).
#[derive(Clone, Debug)]
pub struct Job<T> {
    /// The program image.
    pub program: Program,
    /// Full machine configuration.
    pub config: MachineConfig,
    /// Key salt for builder-side state the config cannot express.
    pub salt: u64,
    /// Opaque context for the machine builder.
    pub tag: T,
}

impl<T> Job<T> {
    /// The result-store key this job executes (or replays) under.
    #[must_use]
    pub fn key(&self) -> (ProgramId, u64) {
        (
            ProgramId::of(&self.program, &self.config),
            config_fingerprint(&self.config, self.salt),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_machine;
    use hardbound_core::Machine;
    use hardbound_isa::{CmpOp, FunctionBuilder, Program, Reg};

    fn counting_program(limit: i32) -> Program {
        let mut f = FunctionBuilder::new("main", 0);
        f.li(Reg::A0, 0);
        let head = f.bind_label();
        f.addi(Reg::A0, Reg::A0, 1);
        let done = f.new_label();
        f.branch(CmpOp::Ge, Reg::A0, limit, done);
        f.jump(head);
        f.bind(done);
        f.li(Reg::A0, 0);
        f.halt();
        Program::with_entry(vec![f.finish()])
    }

    fn job(limit: i32, fuel: u64) -> Job<()> {
        Job {
            program: counting_program(limit),
            config: MachineConfig::default().with_fuel(fuel),
            salt: 0,
            tag: (),
        }
    }

    /// The outcome of running `job(limit, 1_000_000)` on its own.
    fn out(limit: i32) -> RunOutcome {
        let j = job(limit, 1_000_000);
        run_machine(&mut Machine::new(j.program, j.config))
    }

    #[test]
    fn salt_splits_otherwise_identical_cells() {
        let a = job(10, 1_000_000);
        let mut b = job(10, 1_000_000);
        b.salt = 1;
        assert_ne!(a.key(), b.key());
    }

    #[test]
    fn store_capacity_evicts_untouched_oldest_first() {
        let mut store = ResultStore::with_capacity(2);
        let keys: Vec<StoreKey> = (0..3).map(|k| job(10 + k, 1_000_000).key()).collect();
        for (k, &key) in keys.iter().enumerate() {
            store.insert(key, out(10 + k as i32));
        }
        // Never-replayed entries are all probationary, so eviction order
        // degrades to insertion order: the oldest insert dies first.
        assert_eq!(store.len(), 2, "capacity bound holds");
        assert_eq!(store.stats().evicted, 1);
        assert!(store.lookup(keys[0]).is_none(), "oldest entry evicted");
        assert!(store.lookup(keys[1]).is_some());
        assert!(store.lookup(keys[2]).is_some());
        // Re-insertion after invalidation enters probation: with keys[1]
        // and keys[2] protected by their replays above, the fresh insert
        // beyond capacity evicts the probationary re-insert, not them.
        store.invalidate_program(keys[1].0);
        store.insert(keys[0], out(10));
        assert_eq!(store.len(), 2);
        let fresh = job(99, 1_000_000).key();
        store.insert(fresh, out(99));
        assert_eq!(store.stats().evicted, 2);
        assert!(
            store.lookup(keys[2]).is_some(),
            "replayed (protected) entry survives"
        );
        assert!(
            store.lookup(keys[0]).is_none(),
            "the probationary re-insert is the victim"
        );
        assert!(store.lookup(fresh).is_some());
    }

    /// The segmented-LRU hit-rate regression test: a replayed (hot) cell
    /// must survive an arbitrarily long one-shot sweep that exceeds the
    /// store's capacity many times over — the exact pattern the old FIFO
    /// order thrashed on (the hot cell aged to the front and died after
    /// `capacity` fresh inserts, taking its warm replay with it).
    #[test]
    fn replayed_cells_survive_a_one_shot_sweep() {
        let mut store = ResultStore::with_capacity(8);
        let hot = job(10, 1_000_000);
        let hot_out = out(10);
        store.insert(hot.key(), hot_out.clone());
        assert_eq!(store.lookup(hot.key()), Some(hot_out.clone()), "promote");
        for k in 0..64 {
            // 8× capacity of never-replayed sweep cells.
            store.insert(job(100 + k, 1_000_000).key(), hot_out.clone());
        }
        assert_eq!(
            store.lookup(hot.key()),
            Some(hot_out),
            "hot cell must out-live the sweep: {:?}",
            store.stats()
        );
        assert_eq!(store.len(), 8);
        assert_eq!(store.stats().evicted, 64 - 7);
        assert_eq!(store.stats().hits, 2, "both hot probes hit");
        assert_eq!(store.stats().misses, 0, "a 100% hot-cell hit rate");
    }
}
