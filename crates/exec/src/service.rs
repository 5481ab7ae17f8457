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

use std::collections::{HashMap, VecDeque};

use hardbound_core::{stable_fingerprint, MachineConfig, RunOutcome};
use hardbound_isa::Program;

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
/// explicit [`ResultStore::with_capacity`] bound) the oldest insert is
/// evicted first (**FIFO**); a replay does not reorder anything. No
/// benchmarked workload comes near the default bound (figure replay holds
/// 819 cells), so a recency policy would never get to act.
///
/// [`ResultStore::entries`] walks the live keys in insertion order, so a
/// compaction writes the same log for the same history. For persistence
/// (`hardbound-serve`), [`ResultStore::seed`] loads entries from disk
/// without perturbing the counters.
#[derive(Debug)]
pub struct ResultStore {
    map: HashMap<StoreKey, RunOutcome>,
    /// Each live key once, oldest first (the eviction order).
    order: VecDeque<StoreKey>,
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
            order: VecDeque::new(),
            capacity,
            stats: ResultStoreStats::default(),
        }
    }

    /// The stored outcome for `key`, if any; counts a hit or a miss.
    pub fn lookup(&mut self, key: StoreKey) -> Option<RunOutcome> {
        let found = self.map.get(&key).cloned();
        if found.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        found
    }

    /// Stores `outcome` under `key` (last write wins; identical keys can
    /// only ever carry identical outcomes), evicting the oldest inserts
    /// past capacity. A key already present keeps its place in the order.
    pub fn insert(&mut self, key: StoreKey, outcome: RunOutcome) {
        self.stats.stored += 1;
        self.seed(key, outcome);
    }

    /// Loads `(key, outcome)` from a persistent log: like
    /// [`ResultStore::insert`], but not counted as `stored` — seeded
    /// entries are already on disk.
    pub fn seed(&mut self, key: StoreKey, outcome: RunOutcome) {
        if self.map.insert(key, outcome).is_some() {
            return;
        }
        self.order.push_back(key);
        while self.map.len() > self.capacity {
            let oldest = self.order.pop_front().expect("store is non-empty");
            self.map.remove(&oldest);
            self.stats.evicted += 1;
        }
    }

    /// Iterates every live `(key, outcome)`, oldest insert first
    /// (compaction snapshots).
    pub fn entries(&self) -> impl Iterator<Item = (&StoreKey, &RunOutcome)> {
        self.order.iter().map(|k| (k, &self.map[k]))
    }

    /// Drops every entry of program `pid` — and nothing else — returning
    /// how many died.
    pub fn invalidate_program(&mut self, pid: ProgramId) -> usize {
        let before = self.map.len();
        self.map.retain(|(p, _), _| *p != pid);
        self.order.retain(|(p, _)| *p != pid);
        let dropped = before - self.map.len();
        self.stats.invalidated += dropped as u64;
        dropped
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

    /// The store's live keys, oldest insert first.
    fn order(store: &ResultStore) -> Vec<StoreKey> {
        store.entries().map(|(k, _)| *k).collect()
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
        assert_eq!(store.len(), 2, "capacity bound holds");
        assert_eq!(store.stats().evicted, 1);
        assert!(store.lookup(keys[0]).is_none(), "oldest entry evicted");
        assert!(store.lookup(keys[1]).is_some());
        assert!(store.lookup(keys[2]).is_some());
    }

    #[test]
    fn a_replay_does_not_save_the_oldest_insert() {
        let mut store = ResultStore::with_capacity(2);
        let keys: Vec<StoreKey> = (0..3).map(|k| job(10 + k, 1_000_000).key()).collect();
        store.insert(keys[0], out(10));
        store.insert(keys[1], out(11));
        assert!(store.lookup(keys[0]).is_some(), "replay the oldest");
        store.insert(keys[2], out(12));
        assert!(store.lookup(keys[0]).is_none(), "replayed oldest evicted");
        assert!(store.lookup(keys[1]).is_some());
        assert!(store.lookup(keys[2]).is_some());
        assert_eq!(store.len(), 2);
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.stored, s.evicted), (3, 1, 3, 1));
    }

    #[test]
    fn reinserting_a_present_key_keeps_its_place() {
        let mut store = ResultStore::with_capacity(3);
        let keys: Vec<StoreKey> = (0..4).map(|k| job(10 + k, 1_000_000).key()).collect();
        for (k, &key) in keys[..3].iter().enumerate() {
            store.insert(key, out(10 + k as i32));
        }
        store.insert(keys[0], out(10));
        store.seed(keys[0], out(10));
        assert_eq!(
            order(&store),
            keys[..3],
            "re-insert and re-seed keep the order"
        );
        assert_eq!(store.len(), 3);
        assert_eq!(store.stats().stored, 4, "a seed is not counted");
        // keys[0] is still the oldest, so it is the one a fourth key evicts.
        store.insert(keys[3], out(13));
        assert_eq!(order(&store), keys[1..]);
        assert_eq!(store.stats().evicted, 1);
    }

    #[test]
    fn invalidated_then_reinserted_key_goes_to_the_back() {
        let mut store = ResultStore::with_capacity(3);
        let keys: Vec<StoreKey> = (0..4).map(|k| job(10 + k, 1_000_000).key()).collect();
        for (k, &key) in keys[..3].iter().enumerate() {
            store.insert(key, out(10 + k as i32));
        }
        assert_eq!(store.invalidate_program(keys[0].0), 1);
        assert_eq!(store.len(), 2);
        store.insert(keys[0], out(10));
        assert_eq!(order(&store), [keys[1], keys[2], keys[0]]);
        // Past capacity the oldest survivor goes, not the re-insert.
        store.insert(keys[3], out(13));
        assert_eq!(order(&store), [keys[2], keys[0], keys[3]]);
        let s = store.stats();
        assert_eq!((s.stored, s.invalidated, s.evicted), (5, 1, 1));
        assert_eq!(store.len(), 3);
    }
}
