//! [`PersistentService`] — the corpus service: a long-lived, cache-warm
//! execution backend whose result store can survive the process.
//!
//! The service owns a [`ResultStore`] — `(`[`ProgramId`]`, configuration
//! fingerprint)` → the full [`RunOutcome`] — so re-running a corpus
//! replays identical cells instead of simulating them, and runs the
//! misses through [`run_machine`] on the lock-free [`batch`] scheduler
//! with a deterministic, input-ordered merge of store hits and fresh
//! executions. After one
//! scheme or program changes, only the keys it invalidates miss the
//! store ([`PersistentService::invalidate_program`] drops exactly one
//! image's results); everything else replays.
//!
//! Opened with a store path (`HB_STORE_PATH`), the service also owns a
//! [`StoreLog`]: at open, every surviving log record is seeded into the
//! store; each fresh outcome is appended where it is stored, and the log
//! is flushed once per batch (the process-wide service in
//! `hardbound_runtime` is a static that never drops, so durability
//! cannot wait for `Drop` — though `Drop` flushes too, for short-lived
//! services). [`PersistentService::checkpoint`] compacts the log down to
//! the store's live entries with an atomic rewrite.
//!
//! Because the store keys are the **stable fingerprints** of
//! `hardbound_core::fingerprint` and execution is deterministic in the
//! key, a warm start from disk replays byte-identical outcomes with zero
//! re-simulated cells — pinned by this crate's persistence differential
//! and gated in CI (`HB_PERSIST_GATE`).

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

use hardbound_core::{FunctionalKey, Machine, MachineConfig, RunOutcome};
use hardbound_exec::service::Job;
use hardbound_exec::{batch, run_machine, ProgramId, ResultStore, ResultStoreStats, StoreKey};
use hardbound_isa::Program;
use hardbound_telemetry::{trace, Field, Registry, SpanId, SpanTimer};

use crate::store::{StoreLog, StoreLogStats};

/// A point-in-time snapshot of the in-memory service's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Result-store behaviour (replays vs executions).
    pub store: ResultStoreStats,
    /// Stored results currently resident.
    pub store_len: usize,
    /// Simulations run for executed cells: one per timing group (see
    /// [`PersistentService::run_batch`]) plus one per cell that fell back
    /// to a run of its own. Executed cells beyond this count were timed
    /// in another cell's run.
    pub functional_runs: u64,
}

/// A point-in-time snapshot of the persistent service's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// The in-memory service (store hits/misses/evictions, functional runs).
    pub service: ServiceStats,
    /// The log's counters; `None` when running without persistence.
    pub log: Option<StoreLogStats>,
}

/// The corpus service (see the module docs).
#[derive(Debug)]
pub struct PersistentService {
    workers: usize,
    store: ResultStore,
    /// The on-disk log behind the store; `None` without persistence.
    log: Option<StoreLog>,
    profiling: bool,
    functional_runs: u64,
}

impl PersistentService {
    /// A service with no persistence that runs store misses on `workers`
    /// threads.
    #[must_use]
    pub fn new(workers: usize) -> PersistentService {
        PersistentService {
            workers: workers.max(1),
            store: ResultStore::default(),
            log: None,
            profiling: false,
            functional_runs: 0,
        }
    }

    /// Opens a service backed by the log at `path`: surviving records are
    /// seeded into the store (corrupt tails truncated, mismatched formats
    /// cold-started — see [`StoreLog::open`]), and every future batch's
    /// fresh results are appended and flushed.
    ///
    /// # Errors
    ///
    /// Real I/O errors only (permissions, missing parent directory).
    pub fn open(workers: usize, path: impl AsRef<Path>) -> io::Result<PersistentService> {
        let loaded = StoreLog::open(path)?;
        let mut svc = PersistentService::new(workers);
        for (key, outcome) in loaded.entries {
            svc.store.seed(key, outcome);
        }
        svc.log = Some(loaded.log);
        Ok(svc)
    }

    /// Arms the per-basic-block profiler on every machine this service
    /// runs (see [`Machine::set_profiling`]); off by default. While it is
    /// on, every cell runs on its own rather than as a timing variant of
    /// another cell's run, so profile counts are those of separate runs:
    /// the profile is keyed by [`ProgramId`], which includes the check-µop
    /// ablation, and a grouped run would credit one cell's key with them.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
    }

    /// Runs `jobs` and returns their outcomes in input order: store hits
    /// replay, misses execute on the service's workers via the lock-free
    /// batch scheduler, and fresh outcomes are stored (and appended to the
    /// log, flushed once per batch) for next time. Duplicate keys
    /// *within* the batch execute once and replay for the other
    /// occurrences (counted as store hits). `build` constructs the machine
    /// for a missing cell (attach object tables etc. according to the
    /// job's tag).
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
        // Under `HB_TRACE` each batch is a root span with two stamped
        // children: the store-lookup sweep and the parallel execution of
        // the misses.
        let batch_timer =
            trace::enabled().then(|| SpanTimer::start(trace::new_trace(), SpanId::NONE, "batch"));
        let lookup_timer = batch_timer
            .as_ref()
            .map(|b| SpanTimer::start(b.trace(), b.span(), "store_lookup"));
        let keys: Vec<StoreKey> = jobs.iter().map(Job::key).collect();
        let mut results: Vec<Option<RunOutcome>> = vec![None; jobs.len()];
        let mut missing: Vec<usize> = Vec::new();
        let mut first_of: HashMap<StoreKey, usize> = HashMap::new();
        let mut replay_of: Vec<(usize, usize)> = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            // A duplicate of a cell already executing in this batch is
            // looked up again once that cell is stored, below.
            if let Some(&j) = first_of.get(&key) {
                replay_of.push((i, j));
                continue;
            }
            match self.store.lookup(key) {
                Some(out) => results[i] = Some(out),
                None => {
                    first_of.insert(key, i);
                    missing.push(i);
                }
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
            let out = results[i].as_ref().expect("every miss executed");
            if let Some(log) = &mut self.log {
                if let Err(e) = log.append(keys[i], out) {
                    eprintln!("hardbound-serve: store append failed: {e} (entry lost)");
                }
            }
            self.store.insert(keys[i], out.clone());
        }
        if let Some(log) = self.log.as_mut().filter(|_| !missing.is_empty()) {
            if let Err(e) = log.flush() {
                eprintln!("hardbound-serve: store flush failed: {e}");
            }
        }
        for (i, j) in replay_of {
            // Counted as a store hit: no simulation happens for it. (Only
            // a store smaller than the batch's misses can have evicted it.)
            results[i] = self.store.lookup(keys[i]).or_else(|| results[j].clone());
        }
        results
            .into_iter()
            .map(|r| r.expect("every job resolved"))
            .collect()
    }

    /// [`PersistentService::run_batch`] for a single job.
    pub fn run_one<T, F>(&mut self, job: &Job<T>, build: F) -> RunOutcome
    where
        T: Sync,
        F: Fn(Program, MachineConfig, &T) -> Machine + Sync,
    {
        self.run_batch(std::slice::from_ref(job), build)
            .pop()
            .expect("one job, one outcome")
    }

    /// Compacts the log to exactly the store's live entries with an
    /// atomic rewrite (drops superseded appends and invalidated keys).
    /// A no-op without persistence.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the old log survives failures.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        let Some(log) = &mut self.log else {
            return Ok(());
        };
        log.compact(self.store.entries().map(|(k, o)| (*k, o)))?;
        log.flush()
    }

    /// Invalidates one program image: its stored results under every
    /// configuration. Other programs' keys are untouched — this is the
    /// incremental-re-run primitive: after mutating one program,
    /// re-running the corpus executes only its cells and replays the
    /// rest. The log's stale records are harmless — their keys are never
    /// looked up again if the image changed, and replay is deterministic
    /// if it did not — and are dropped by the next
    /// [`PersistentService::checkpoint`].
    ///
    /// Returns how many stored results were dropped.
    pub fn invalidate_program(&mut self, pid: ProgramId) -> usize {
        self.store.invalidate_program(pid)
    }

    /// Snapshot of the service's and the log's counters.
    #[must_use]
    pub fn stats(&self) -> PersistStats {
        PersistStats {
            service: ServiceStats {
                store: self.store.stats(),
                store_len: self.store.len(),
                functional_runs: self.functional_runs,
            },
            log: self.log.as_ref().map(StoreLog::stats),
        }
    }
}

impl Drop for PersistentService {
    /// Flushes any buffered appends — short-lived services (tests,
    /// `hbserve` shutdown) get durability without an explicit checkpoint.
    fn drop(&mut self) {
        if let Some(log) = &mut self.log {
            let _ = log.flush();
        }
    }
}

/// Registers a service's counters in `registry` as computed gauges
/// `{prefix}_store_{hits,misses,stored,evicted,len}` and
/// `{prefix}_log_{appended,flushes}` (the log gauges read 0 without
/// persistence). Each gauge calls `stats` at scrape time; when `stats`
/// locks the service, never render the registry while holding that lock.
pub fn register_gauges(
    registry: &Registry,
    prefix: &str,
    stats: impl Fn() -> PersistStats + Send + Sync + 'static,
) {
    type Sel = fn(&PersistStats) -> u64;
    let gauges: [(&str, Sel); 7] = [
        ("store_hits", |s| s.service.store.hits),
        ("store_misses", |s| s.service.store.misses),
        ("store_stored", |s| s.service.store.stored),
        ("store_evicted", |s| s.service.store.evicted),
        ("store_len", |s| s.service.store_len as u64),
        ("log_appended", |s| s.log.map_or(0, |l| l.appended)),
        ("log_flushes", |s| s.log.map_or(0, |l| l.flushes)),
    ];
    let stats = Arc::new(stats);
    for (name, sel) in gauges {
        let stats = Arc::clone(&stats);
        registry.gauge_fn(&format!("{prefix}_{name}"), move || sel(&stats()));
    }
}

/// Partitions the missing cells into timing groups: cells with one
/// program image, salt and functional key, in first-miss order. A group
/// leads with a check-µop cell when it has one (the machine that counts
/// the ablation-eligible checks). With `profiling` every cell is a group
/// of its own (see [`PersistentService::set_profiling`]).
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
    use hardbound_core::MachineConfig;
    use hardbound_isa::{CmpOp, FunctionBuilder, Program, Reg};
    use std::path::PathBuf;

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

    fn job(limit: i32) -> Job<()> {
        Job {
            program: counting_program(limit),
            config: MachineConfig::default().with_fuel(1_000_000),
            salt: 0,
            tag: (),
        }
    }

    fn build(p: Program, cfg: MachineConfig, (): &()) -> Machine {
        Machine::new(p, cfg)
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hb-persist-{}-{tag}.bin", std::process::id()))
    }

    /// Removes a test log and the lock file its opens leave behind.
    fn remove_log(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(format!("{}.lock", path.display()));
    }

    #[test]
    fn warm_batch_replays_from_the_store() {
        let jobs: Vec<Job<()>> = (0..8).map(|k| job(10 + k)).collect();
        let mut svc = PersistentService::new(4);
        let cold = svc.run_batch(&jobs, build);
        let after_cold = svc.stats().service;
        assert_eq!(after_cold.store.hits, 0);
        assert_eq!(after_cold.store.misses, 8);
        assert_eq!(after_cold.store_len, 8);
        let warm = svc.run_batch(&jobs, build);
        assert_eq!(cold, warm, "replay must be byte-identical");
        let after_warm = svc.stats().service;
        assert_eq!(after_warm.store.hits, 8, "warm run is pure replay");
        assert_eq!(after_warm.store.misses, 8, "no new executions");
    }

    #[test]
    fn distinct_configs_are_distinct_cells() {
        let mut svc = PersistentService::new(1);
        let a = job(10);
        let mut b = job(10);
        b.config = b.config.clone().with_fuel(999_999);
        assert_ne!(a.key(), b.key(), "fuel is part of the result identity");
        assert_eq!(a.key().0, b.key().0, "…but not of the program identity");
        svc.run_one(&a, build);
        svc.run_one(&b, build);
        let s = svc.stats().service;
        assert_eq!(s.store_len, 2);
        assert_eq!((s.store.hits, s.store.misses), (0, 2), "b is a store miss");
    }

    #[test]
    fn invalidation_is_per_program() {
        let a = job(10);
        let b = job(20);
        let mut svc = PersistentService::new(1);
        svc.run_batch(&[a.clone(), b.clone()], build);
        assert_eq!(svc.stats().service.store_len, 2);
        let results = svc.invalidate_program(a.key().0);
        assert_eq!(results, 1, "exactly a's stored result dies");
        svc.run_batch(&[a, b], build);
        let s = svc.stats().service;
        assert_eq!(s.store.hits, 1, "b replays");
        assert_eq!(s.store.misses, 3, "a re-executes (2 cold + 1 after inval)");
    }

    #[test]
    fn reopened_log_appends_each_fresh_cell_once() {
        let path = temp_path("fresh-once");
        remove_log(&path);
        let seeded: Vec<Job<()>> = (0..2).map(|k| job(10 + k)).collect();
        PersistentService::open(1, &path)
            .unwrap()
            .run_batch(&seeded, build);

        let mut svc = PersistentService::open(1, &path).unwrap();
        let opened = svc.stats();
        assert_eq!(opened.log.unwrap().loaded, 2);
        assert_eq!(opened.service.store_len, 2);
        assert_eq!(
            opened.service.store,
            ResultStoreStats::default(),
            "seeding counts nothing"
        );
        // The seeded cells, then one fresh cell twice in the same batch.
        let fresh = job(30);
        let mut jobs = seeded.clone();
        jobs.extend([fresh.clone(), fresh]);
        let outs = svc.run_batch(&jobs, build);
        assert_eq!(outs[2], outs[3], "the duplicate replays the fresh cell");
        let stats = svc.stats();
        assert_eq!(
            (stats.service.store.hits, stats.service.store.misses),
            (3, 1),
            "seeds and the in-batch duplicate replay"
        );
        let log = stats.log.unwrap();
        assert_eq!(log.appended, 1, "seeds are never re-appended");
        assert_eq!(log.flushes, 1, "one flush per batch");
        svc.run_batch(&jobs, build);
        let log = svc.stats().log.unwrap();
        assert_eq!(
            (log.appended, log.flushes),
            (1, 1),
            "a warm batch writes nothing"
        );
        drop(svc);

        let svc = PersistentService::open(1, &path).unwrap();
        assert_eq!(svc.stats().log.unwrap().loaded, 3);
        remove_log(&path);
    }

    #[test]
    fn gauges_read_the_service_under_their_prefix() {
        let registry = Registry::new();
        let svc = Arc::new(std::sync::Mutex::new(PersistentService::new(1)));
        let shared = Arc::clone(&svc);
        register_gauges(&registry, "t", move || shared.lock().unwrap().stats());
        svc.lock().unwrap().run_batch(&[job(10), job(10)], build);
        let text = registry.render();
        for (name, want) in [
            ("t_store_hits", 1),
            ("t_store_misses", 1),
            ("t_store_stored", 1),
            ("t_store_evicted", 0),
            ("t_store_len", 1),
            ("t_log_appended", 0),
            ("t_log_flushes", 0),
        ] {
            let got = hardbound_telemetry::scrape_value(&text, name);
            assert_eq!(got, Some(want), "{name}: {text}");
        }
    }

    #[test]
    fn reopen_replays_without_reexecuting() {
        let path = temp_path("reopen");
        remove_log(&path);
        let jobs: Vec<Job<()>> = (0..6).map(|k| job(10 + k)).collect();

        let mut svc = PersistentService::open(2, &path).unwrap();
        let cold = svc.run_batch(&jobs, build);
        assert_eq!(svc.stats().service.store.misses, 6);
        assert_eq!(svc.stats().log.unwrap().appended, 6);
        drop(svc);

        // "Restart": a brand-new service whose only state is the file.
        let mut svc = PersistentService::open(2, &path).unwrap();
        assert_eq!(svc.stats().log.unwrap().loaded, 6);
        let warm = svc.run_batch(&jobs, build);
        assert_eq!(cold, warm, "cross-process replay must be byte-identical");
        let stats = svc.stats();
        assert_eq!(stats.service.store.misses, 0, "zero re-simulated cells");
        assert_eq!(stats.service.store.hits, 6);
        assert_eq!(
            stats.log.unwrap().appended,
            0,
            "replays append nothing to the log"
        );
        remove_log(&path);
    }

    #[test]
    fn checkpoint_compacts_duplicate_appends() {
        let path = temp_path("checkpoint");
        remove_log(&path);
        let jobs: Vec<Job<()>> = (0..4).map(|k| job(10 + k)).collect();
        let mut svc = PersistentService::open(1, &path).unwrap();
        svc.run_batch(&jobs, build);
        // Invalidate + re-run: the log now holds both generations.
        let pid = jobs[0].key().0;
        assert_eq!(svc.invalidate_program(pid), 1);
        svc.run_batch(&jobs, build);
        assert_eq!(svc.stats().log.unwrap().appended, 5);
        let fat = std::fs::metadata(&path).unwrap().len();
        svc.checkpoint().unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() < fat);
        drop(svc);

        let svc = PersistentService::open(1, &path).unwrap();
        assert_eq!(svc.stats().log.unwrap().loaded, 4, "live entries survive");
        remove_log(&path);
    }

    #[test]
    fn store_order_survives_checkpoint_and_reopen() {
        let path = temp_path("order");
        remove_log(&path);
        let jobs: Vec<Job<()>> = (0..6).map(|k| job(10 + k)).collect();
        let mut svc = PersistentService::open(1, &path).unwrap();
        svc.run_batch(&jobs[..4], build);
        // Invalidate mid-fill: jobs[1]'s cell re-enters behind the rest.
        assert_eq!(svc.invalidate_program(jobs[1].key().0), 1);
        svc.run_batch(&jobs[4..], build);
        svc.run_batch(&jobs[1..2], build);
        let order = |svc: &PersistentService| -> Vec<StoreKey> {
            svc.store.entries().map(|(k, _)| *k).collect()
        };
        let before = order(&svc);
        let want: Vec<StoreKey> = [0, 2, 3, 4, 5, 1].map(|i| jobs[i].key()).into();
        assert_eq!(before, want, "insertion order, re-insert last");
        svc.checkpoint().unwrap();
        let first = std::fs::read(&path).unwrap();
        svc.checkpoint().unwrap();
        let second = std::fs::read(&path).unwrap();
        assert_eq!(first, second, "a checkpoint writes the same bytes");
        drop(svc);

        let svc = PersistentService::open(1, &path).unwrap();
        assert_eq!(order(&svc), before, "reopen keeps the order");
        remove_log(&path);
    }

    #[test]
    fn without_persistence_everything_still_works() {
        let jobs: Vec<Job<()>> = (0..3).map(|k| job(10 + k)).collect();
        let mut svc = PersistentService::new(2);
        let a = svc.run_batch(&jobs, build);
        let b = svc.run_batch(&jobs, build);
        assert_eq!(a, b);
        assert_eq!(svc.stats().log, None);
        assert!(svc.checkpoint().is_ok(), "checkpoint is a no-op");
    }

    #[test]
    fn corrupt_log_recomputes_exactly_the_lost_cells() {
        let path = temp_path("recover");
        remove_log(&path);
        let jobs: Vec<Job<()>> = (0..5).map(|k| job(10 + k)).collect();
        let mut svc = PersistentService::open(1, &path).unwrap();
        let cold = svc.run_batch(&jobs, build);
        drop(svc);

        // Tear the last record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let mut svc = PersistentService::open(1, &path).unwrap();
        let log = svc.stats().log.unwrap();
        assert_eq!(log.loaded, 4);
        assert!(log.dropped_bytes > 0);
        let warm = svc.run_batch(&jobs, build);
        assert_eq!(cold, warm, "recovery must not change outcomes");
        let stats = svc.stats();
        assert_eq!(stats.service.store.misses, 1, "exactly the lost cell");
        assert_eq!(stats.service.store.hits, 4);
        assert_eq!(
            stats.log.unwrap().appended,
            1,
            "the recomputed cell is re-persisted"
        );
        remove_log(&path);
    }
}
