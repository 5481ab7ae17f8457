//! The corpus service: a long-lived, cache-warm execution backend.
//!
//! The paper's evaluation is corpus-shaped — hundreds of violation pairs
//! and nine Olden ports re-simulated under every mode × encoding — yet a
//! bare [`Machine::run`] treats each run as a throwaway: results are
//! rediscovered from scratch on every job, every figure, every CI
//! invocation. [`CorpusService`] keeps a **result store** — a map from
//! `(`[`ProgramId`]`, configuration fingerprint)` to the full
//! [`RunOutcome`] — so re-running a corpus replays identical cells instead
//! of simulating them. Execution is deterministic in the key, which makes
//! replay *byte-identical* to recomputation — pinned by the service
//! differential suite and the result-store proptests at the workspace
//! root.
//!
//! The **incremental re-run** story falls out of the keying: after one
//! scheme or program changes, only the keys it invalidates miss the store
//! ([`CorpusService::invalidate_program`] drops exactly one image's
//! results); everything else replays. Misses run through
//! [`run_machine`] on the lock-free [`batch`] scheduler with a
//! deterministic, input-ordered merge of store hits and fresh executions.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use hardbound_core::{stable_fingerprint, FunctionalKey, Machine, MachineConfig, RunOutcome};
use hardbound_isa::Program;
use hardbound_telemetry::{trace, Field, SpanId, SpanTimer};

use crate::slru::SlruIndex;
use crate::{batch, run_machine, ProgramId};

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
    /// Entries dropped by idle-TTL expiry (see [`ResultStore::set_ttl`]).
    pub expired: u64,
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
/// For persistence (`hardbound-serve`), the store exposes a write
/// **journal** ([`ResultStore::set_journal`] /
/// [`ResultStore::take_dirty`]) recording freshly inserted keys, a
/// non-counting [`ResultStore::peek`], and [`ResultStore::seed`] for
/// loading entries from disk without perturbing the counters.
#[derive(Debug)]
pub struct ResultStore {
    /// Key → slab slot id.
    map: HashMap<StoreKey, u32>,
    /// Slab of live entries; freed slots recycle through `free`.
    slots: Vec<Option<(StoreKey, RunOutcome)>>,
    free: Vec<u32>,
    recency: SlruIndex,
    capacity: usize,
    /// Last-touched stamp per slab slot (insert, seed or hit refreshes);
    /// only consulted when a TTL is set.
    stamps: Vec<Instant>,
    /// Idle time after which an untouched entry is collectable by
    /// [`ResultStore::gc_expired`]; `None` disables expiry.
    ttl: Option<Duration>,
    stats: ResultStoreStats,
    /// Keys inserted since the last [`ResultStore::take_dirty`] — `Some`
    /// only when a persistence layer enabled journaling, so standalone
    /// stores pay nothing.
    journal: Option<Vec<StoreKey>>,
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
            stamps: Vec::new(),
            ttl: None,
            stats: ResultStoreStats::default(),
            journal: None,
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
                self.stamps[id as usize] = Instant::now();
                let (_, out) = self.slots[id as usize].as_ref().expect("live slot");
                Some(out.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// The stored outcome for `key` without touching counters or recency
    /// (diagnostics and the persistence layer's journal drain).
    #[must_use]
    pub fn peek(&self, key: &StoreKey) -> Option<&RunOutcome> {
        self.map
            .get(key)
            .map(|&id| &self.slots[id as usize].as_ref().expect("live slot").1)
    }

    /// Places `(key, outcome)` into the slab and the maps; the caller has
    /// already ensured the key is absent.
    fn place(&mut self, key: StoreKey, outcome: RunOutcome) {
        let slot = Some((key, outcome));
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = slot;
                self.stamps[id as usize] = Instant::now();
                id
            }
            None => {
                self.slots.push(slot);
                self.stamps.push(Instant::now());
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
    /// victims past capacity and journaling the key when persistence is
    /// on.
    pub fn insert(&mut self, key: StoreKey, outcome: RunOutcome) {
        self.stats.stored += 1;
        if let Some(journal) = &mut self.journal {
            journal.push(key);
        }
        if let Some(&id) = self.map.get(&key) {
            self.slots[id as usize] = Some((key, outcome));
            self.recency.touch(id);
            self.stamps[id as usize] = Instant::now();
            return;
        }
        self.place(key, outcome);
    }

    /// Loads `(key, outcome)` from a persistent log: like
    /// [`ResultStore::insert`], but neither counted as `stored` nor
    /// journaled — seeded entries are already on disk.
    pub fn seed(&mut self, key: StoreKey, outcome: RunOutcome) {
        if let Some(&id) = self.map.get(&key) {
            self.slots[id as usize] = Some((key, outcome));
            self.stamps[id as usize] = Instant::now();
            return;
        }
        self.place(key, outcome);
    }

    /// Sets the idle TTL: entries untouched (no hit, insert or seed) for
    /// at least `ttl` are dropped by the next [`ResultStore::gc_expired`]
    /// sweep. `None` (the default) disables expiry — capacity eviction is
    /// then the only bound. A long-lived `hbserve` shard sets this from
    /// `--ttl` so one hot week of corpus traffic cannot pin a month of
    /// stale results.
    pub fn set_ttl(&mut self, ttl: Option<Duration>) {
        self.ttl = ttl;
    }

    /// Drops every entry idle for at least the configured TTL, returning
    /// how many died (0 without a TTL). Counted under `expired`, not
    /// `evicted` — distinct pressure, distinct counter.
    pub fn gc_expired(&mut self) -> usize {
        let Some(ttl) = self.ttl else { return 0 };
        let victims: Vec<u32> = (0..self.slots.len() as u32)
            .filter(|&id| {
                self.slots[id as usize].is_some() && self.stamps[id as usize].elapsed() >= ttl
            })
            .collect();
        for &id in &victims {
            self.drop_slot(id);
        }
        self.stats.expired += victims.len() as u64;
        victims.len()
    }

    /// Enables (or disables) the insert journal the persistence layer
    /// drains; flipping it clears any pending keys.
    pub fn set_journal(&mut self, on: bool) {
        self.journal = on.then(Vec::new);
    }

    /// Drains the journal: every key inserted since the last drain, in
    /// insertion order (empty when journaling is off). Keys whose entries
    /// were since evicted or invalidated resolve to `None` under
    /// [`ResultStore::peek`]; skip them.
    pub fn take_dirty(&mut self) -> Vec<StoreKey> {
        match &mut self.journal {
            Some(journal) => std::mem::take(journal),
            None => Vec::new(),
        }
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

/// A point-in-time snapshot of the service's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Result-store behaviour (replays vs executions).
    pub store: ResultStoreStats,
    /// Stored results currently resident.
    pub store_len: usize,
    /// Simulations run for executed cells: one per timing group (see
    /// [`CorpusService::run_batch`]) plus one per cell that fell back to
    /// a run of its own. Executed cells beyond this count were timed in
    /// another cell's run.
    pub functional_runs: u64,
}

/// The long-lived multi-program execution service (see the module docs).
#[derive(Debug)]
pub struct CorpusService {
    workers: usize,
    store: ResultStore,
    profiling: bool,
    functional_runs: u64,
}

impl CorpusService {
    /// A service that runs store misses on `workers` threads, with the
    /// result store enabled.
    #[must_use]
    pub fn new(workers: usize) -> CorpusService {
        CorpusService {
            workers: workers.max(1),
            store: ResultStore::default(),
            profiling: false,
            functional_runs: 0,
        }
    }

    /// Arms the per-basic-block profiler on every machine this service
    /// runs (see [`Machine::set_profiling`]); off by default. While it is on, every
    /// cell runs on its own rather than as a timing variant of another
    /// cell's run, so profile counts are those of separate runs: the
    /// profile is keyed by [`ProgramId`], which includes the check-µop
    /// ablation, and a grouped run would credit one cell's key with them.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
    }

    /// Sets the result store's idle TTL (`hbserve --ttl`); expired entries
    /// are garbage-collected at the start of every batch. See
    /// [`ResultStore::set_ttl`].
    pub fn set_ttl(&mut self, ttl: Option<Duration>) {
        self.store.set_ttl(ttl);
    }

    /// Read access to the result store (tests and diagnostics).
    #[must_use]
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// Mutable access to the result store — the persistence layer
    /// (`hardbound-serve`) seeds loaded entries and drains the insert
    /// journal through here.
    #[must_use]
    pub fn store_mut(&mut self) -> &mut ResultStore {
        &mut self.store
    }

    /// Runs `jobs` and returns their outcomes in input order: store hits
    /// replay, misses execute on the service's workers via the lock-free
    /// batch scheduler, and fresh outcomes are stored for next time.
    /// Duplicate keys *within* the batch execute once and replay for the
    /// other occurrences (counted as store hits). `build` constructs the
    /// machine for a missing cell (attach object tables etc. according to
    /// the job's tag).
    ///
    /// Misses that share a program image, a salt and a
    /// [`MachineConfig::functional_key`] form a **timing group** and
    /// simulate once: the machine times the other cells' configurations
    /// in lockstep ([`Machine::set_timing_variants`]). Each cell is still
    /// stored under its own key, and its outcome is byte-identical to a
    /// run of its own; a cell whose separate run could stop elsewhere
    /// (fuel) runs on its own.
    pub fn run_batch<T, F>(&mut self, jobs: &[Job<T>], build: F) -> Vec<RunOutcome>
    where
        T: Sync,
        F: Fn(Program, MachineConfig, &T) -> Machine + Sync,
    {
        self.store.gc_expired();
        // Under `HB_TRACE` each batch is a root span with two stamped
        // children: the store-lookup sweep and the parallel execution of
        // the misses.
        let batch_timer =
            trace::enabled().then(|| SpanTimer::start(trace::new_trace(), SpanId::NONE, "batch"));
        let lookup_timer = batch_timer
            .as_ref()
            .map(|b| SpanTimer::start(b.trace(), b.span(), "store_lookup"));
        let keys: Vec<(ProgramId, u64)> = jobs.iter().map(Job::key).collect();
        let mut results: Vec<Option<RunOutcome>> = vec![None; jobs.len()];
        let mut missing: Vec<usize> = Vec::new();
        let mut first_of: HashMap<(ProgramId, u64), usize> = HashMap::new();
        let mut replay_of: Vec<Option<usize>> = vec![None; jobs.len()];
        for (i, &key) in keys.iter().enumerate() {
            match self.store.lookup(key) {
                Some(out) => results[i] = Some(out),
                None => match first_of.get(&key) {
                    // A duplicate of a cell already executing in this
                    // batch: replay its outcome instead of re-simulating.
                    // The store lookup above counted it as a miss;
                    // reclassify, since no simulation happens for it.
                    Some(&j) => {
                        self.store.stats.misses -= 1;
                        self.store.stats.hits += 1;
                        replay_of[i] = Some(j);
                    }
                    None => {
                        first_of.insert(key, i);
                        missing.push(i);
                    }
                },
            }
        }
        if let Some(t) = lookup_timer {
            t.emit(vec![
                ("jobs".to_owned(), Field::from(jobs.len() as u64)),
                ("missing".to_owned(), Field::from(missing.len() as u64)),
            ]);
        }
        let exec_timer = batch_timer
            .as_ref()
            .map(|b| SpanTimer::start(b.trace(), b.span(), "batch_exec"));
        let profiling = self.profiling;
        let groups = timing_groups(jobs, &missing, profiling);
        let fresh = batch::map_with_workers(&groups, self.workers, |_, group| {
            run_group(jobs, group, &build, profiling)
        });
        let mut functional_runs = 0;
        for (group, (outs, runs)) in groups.iter().zip(fresh) {
            functional_runs += runs;
            for (&i, out) in group.iter().zip(outs) {
                results[i] = Some(out);
            }
        }
        self.functional_runs += functional_runs;
        if let Some(t) = exec_timer {
            t.emit(vec![
                ("executed".to_owned(), Field::from(missing.len() as u64)),
                ("functional_runs".to_owned(), Field::from(functional_runs)),
            ]);
        }
        if let Some(t) = batch_timer {
            t.emit(vec![("jobs".to_owned(), Field::from(jobs.len() as u64))]);
        }
        for &i in &missing {
            let out = results[i].clone().expect("every miss executed");
            self.store.insert(keys[i], out);
        }
        for i in 0..jobs.len() {
            if let Some(j) = replay_of[i] {
                results[i] = results[j].clone();
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every job resolved"))
            .collect()
    }

    /// [`CorpusService::run_batch`] for a single job.
    pub fn run_one<T, F>(&mut self, job: &Job<T>, build: F) -> RunOutcome
    where
        T: Sync,
        F: Fn(Program, MachineConfig, &T) -> Machine + Sync,
    {
        self.run_batch(std::slice::from_ref(job), build)
            .pop()
            .expect("one job, one outcome")
    }

    /// Invalidates one program image: its stored results under every
    /// configuration. Other programs' keys are untouched — this is the
    /// incremental-re-run primitive: after mutating one program,
    /// re-running the corpus executes only its cells and replays the rest.
    ///
    /// Returns how many stored results were dropped.
    pub fn invalidate_program(&mut self, pid: ProgramId) -> usize {
        self.store.invalidate_program(pid)
    }

    /// Snapshot of the service's counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            store: self.store.stats(),
            store_len: self.store.len(),
            functional_runs: self.functional_runs,
        }
    }
}

/// Partitions the missing cells into timing groups: cells with one
/// program image, salt and functional key, in first-miss order. A group
/// leads with a check-µop cell when it has one (the machine that counts
/// the ablation-eligible checks). With `profiling` every cell is a group
/// of its own (see [`CorpusService::set_profiling`]).
fn timing_groups<T>(jobs: &[Job<T>], missing: &[usize], profiling: bool) -> Vec<Vec<usize>> {
    if profiling {
        return missing.iter().map(|&i| vec![i]).collect();
    }
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of: HashMap<(ProgramId, u64, FunctionalKey), usize> = HashMap::new();
    for &i in missing {
        let job = &jobs[i];
        let key = job.config.functional_key();
        let image = ProgramId::of(&job.program, key.config());
        let next = groups.len();
        let g = *group_of.entry((image, job.salt, key)).or_insert(next);
        if g == next {
            groups.push(Vec::new());
        }
        groups[g].push(i);
    }
    for group in &mut groups {
        if let Some(lead) = group
            .iter()
            .position(|&i| jobs[i].config.timing().check_uop)
        {
            group.swap(0, lead);
        }
    }
    groups
}

/// Runs one timing group: its first cell's machine, timing the others as
/// variants, then a run of its own for each variant the machine could not
/// time exactly. Returns the outcomes in group order and the number of
/// simulations run.
fn run_group<T, F>(
    jobs: &[Job<T>],
    group: &[usize],
    build: &F,
    profiling: bool,
) -> (Vec<RunOutcome>, u64)
where
    F: Fn(Program, MachineConfig, &T) -> Machine,
{
    let run = |job: &Job<T>, variants: &[MachineConfig]| {
        let mut machine = build(job.program.clone(), job.config.clone(), &job.tag);
        machine.set_timing_variants(variants);
        machine.set_profiling(profiling);
        let out = run_machine(&mut machine);
        let derived = machine.timing_variant_outcomes(&out);
        (out, derived)
    };
    let (lead, rest) = group.split_first().expect("groups are non-empty");
    let variants: Vec<MachineConfig> = rest.iter().map(|&i| jobs[i].config.clone()).collect();
    let (out, derived) = run(&jobs[*lead], &variants);
    let mut runs = 1;
    let mut outs = vec![out];
    for (&i, out) in rest.iter().zip(derived) {
        outs.push(out.unwrap_or_else(|| {
            runs += 1;
            run(&jobs[i], &[]).0
        }));
    }
    (outs, runs)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn build(p: Program, cfg: MachineConfig, (): &()) -> Machine {
        Machine::new(p, cfg)
    }

    #[test]
    fn warm_batch_replays_from_the_store() {
        let jobs: Vec<Job<()>> = (0..8).map(|k| job(10 + k, 1_000_000)).collect();
        let mut svc = CorpusService::new(4);
        let cold = svc.run_batch(&jobs, build);
        let after_cold = svc.stats();
        assert_eq!(after_cold.store.hits, 0);
        assert_eq!(after_cold.store.misses, 8);
        assert_eq!(after_cold.store_len, 8);
        let warm = svc.run_batch(&jobs, build);
        assert_eq!(cold, warm, "replay must be byte-identical");
        let after_warm = svc.stats();
        assert_eq!(after_warm.store.hits, 8, "warm run is pure replay");
        assert_eq!(after_warm.store.misses, 8, "no new executions");
    }

    #[test]
    fn distinct_configs_are_distinct_cells() {
        let mut svc = CorpusService::new(1);
        let a = job(10, 1_000_000);
        let mut b = job(10, 1_000_000);
        b.config = b.config.clone().with_fuel(999_999);
        assert_ne!(a.key(), b.key(), "fuel is part of the result identity");
        assert_eq!(a.key().0, b.key().0, "…but not of the program identity");
        svc.run_one(&a, build);
        svc.run_one(&b, build);
        let s = svc.stats();
        assert_eq!(s.store_len, 2);
        assert_eq!((s.store.hits, s.store.misses), (0, 2), "b is a store miss");
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
        let out = |limit| {
            let mut svc = CorpusService::new(1);
            svc.run_one(&job(limit, 1_000_000), build)
        };
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
        let mut svc = CorpusService::new(1);
        let hot = job(10, 1_000_000);
        let hot_out = svc.run_one(&hot, build);
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

    #[test]
    fn journal_records_inserts_not_seeds() {
        let mut store = ResultStore::with_capacity(8);
        let out = {
            let mut svc = CorpusService::new(1);
            svc.run_one(&job(10, 1_000_000), build)
        };
        let a = job(10, 1_000_000).key();
        let b = job(11, 1_000_000).key();
        store.insert(a, out.clone());
        assert!(
            store.take_dirty().is_empty(),
            "journaling off: nothing recorded"
        );
        store.set_journal(true);
        store.seed(b, out.clone());
        assert!(store.take_dirty().is_empty(), "seeds are already on disk");
        store.insert(a, out.clone());
        store.insert(b, out.clone());
        assert_eq!(store.take_dirty(), vec![a, b]);
        assert!(store.take_dirty().is_empty(), "drain empties the journal");
        assert_eq!(store.peek(&a), Some(&out), "peek is count-free");
        let stats = store.stats();
        assert_eq!(stats.hits + stats.misses, 0, "peek/seed never count");
    }

    #[test]
    fn ttl_expires_idle_entries_and_none_disables_expiry() {
        // A zero TTL makes every entry expired at the next sweep —
        // deterministic without sleeping.
        let mut store = ResultStore::with_capacity(8);
        let out = {
            let mut svc = CorpusService::new(1);
            svc.run_one(&job(10, 1_000_000), build)
        };
        let a = job(10, 1_000_000).key();
        let b = job(11, 1_000_000).key();
        store.insert(a, out.clone());
        store.insert(b, out.clone());
        assert_eq!(store.gc_expired(), 0, "no TTL, no expiry");
        store.set_ttl(Some(Duration::from_secs(3600)));
        assert_eq!(store.gc_expired(), 0, "nothing idle for an hour yet");
        store.set_ttl(Some(Duration::ZERO));
        assert_eq!(store.gc_expired(), 2, "zero TTL expires everything");
        assert_eq!(store.len(), 0);
        let stats = store.stats();
        assert_eq!(stats.expired, 2);
        assert_eq!(stats.evicted, 0, "expiry is not capacity eviction");
    }

    #[test]
    fn service_gc_runs_at_batch_start() {
        let jobs = vec![job(10, 1_000_000)];
        let mut svc = CorpusService::new(1);
        svc.set_ttl(Some(Duration::ZERO));
        svc.run_batch(&jobs, build);
        assert_eq!(svc.stats().store_len, 1, "the fresh result is stored");
        // The next batch's sweep expires it, so the cell re-executes.
        svc.run_batch(&jobs, build);
        let s = svc.stats();
        assert_eq!(s.store.hits, 0, "expired entries never replay");
        assert_eq!(s.store.misses, 2);
        assert_eq!(s.store.expired, 1);
    }

    #[test]
    fn invalidation_is_per_program() {
        let a = job(10, 1_000_000);
        let b = job(20, 1_000_000);
        let mut svc = CorpusService::new(1);
        svc.run_batch(&[a.clone(), b.clone()], build);
        assert_eq!(svc.stats().store_len, 2);
        let results = svc.invalidate_program(a.key().0);
        assert_eq!(results, 1, "exactly a's stored result dies");
        svc.run_batch(&[a, b], build);
        let s = svc.stats();
        assert_eq!(s.store.hits, 1, "b replays");
        assert_eq!(s.store.misses, 3, "a re-executes (2 cold + 1 after inval)");
    }
}
