//! [`PersistentService`] — a corpus service whose result store survives
//! the process.
//!
//! The wrapper owns a [`CorpusService`] and, when opened with a store
//! path (`HB_STORE_PATH`), a [`StoreLog`]: at open, every surviving log
//! record is seeded into the in-memory store; after every batch, freshly
//! computed outcomes are appended and the log is flushed (the process-wide
//! service in `hardbound_runtime` is a static that never drops, so
//! durability cannot wait for `Drop` — though `Drop` flushes too, for
//! short-lived services). [`PersistentService::checkpoint`] compacts the
//! log down to the store's live entries with an atomic rewrite.
//!
//! Because the store keys are the **stable fingerprints** of
//! `hardbound_core::fingerprint` and execution is deterministic in the
//! key, a warm start from disk replays byte-identical outcomes with zero
//! re-simulated cells — pinned by this crate's persistence differential
//! and gated in CI (`HB_PERSIST_GATE`).

use std::io;
use std::path::Path;

use hardbound_core::{Machine, MachineConfig, RunOutcome};
use hardbound_exec::service::Job;
use hardbound_exec::{CorpusService, ProgramId, ServiceStats};
use hardbound_isa::Program;

use crate::store::{StoreLog, StoreLogStats};

/// A point-in-time snapshot of the persistent service's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// The in-memory service (store hits/misses/evictions, functional runs).
    pub service: ServiceStats,
    /// The log's counters; `None` when running without persistence.
    pub log: Option<StoreLogStats>,
}

/// The persistent corpus service (see the module docs).
#[derive(Debug)]
pub struct PersistentService {
    svc: CorpusService,
    log: Option<StoreLog>,
}

impl PersistentService {
    /// A service with no persistence: behaves exactly like
    /// [`CorpusService::new`].
    #[must_use]
    pub fn new(workers: usize) -> PersistentService {
        PersistentService {
            svc: CorpusService::new(workers),
            log: None,
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
        let mut svc = CorpusService::new(workers);
        svc.store_mut().set_journal(true);
        for (key, outcome) in loaded.entries {
            svc.store_mut().seed(key, outcome);
        }
        Ok(PersistentService {
            svc,
            log: Some(loaded.log),
        })
    }

    /// Whether a log backs this service.
    #[must_use]
    pub fn is_persistent(&self) -> bool {
        self.log.is_some()
    }

    /// Arms the hot-spot profiler on every machine the service runs (see
    /// [`CorpusService::set_profiling`]).
    pub fn set_profiling(&mut self, on: bool) {
        self.svc.set_profiling(on);
    }

    /// Sets the store's idle TTL (`hbserve --ttl`):
    /// entries untouched for that long are garbage-collected at the start
    /// of the next batch. Expired entries persist in the log until the
    /// next [`PersistentService::checkpoint`] compacts them away (they
    /// would re-seed at the next open, then idle out again).
    pub fn set_ttl(&mut self, ttl: Option<std::time::Duration>) {
        self.svc.set_ttl(ttl);
    }

    /// The wrapped in-memory service (tests and diagnostics).
    #[must_use]
    pub fn service(&self) -> &CorpusService {
        &self.svc
    }

    /// Runs `jobs` through the in-memory service (store replays, shard
    /// execution — see [`CorpusService::run_batch`]), then appends every
    /// freshly computed outcome to the log and flushes it.
    pub fn run_batch<T, F>(&mut self, jobs: &[Job<T>], build: F) -> Vec<RunOutcome>
    where
        T: Sync,
        F: Fn(Program, MachineConfig, &T) -> Machine + Sync,
    {
        let outs = self.svc.run_batch(jobs, build);
        self.persist_dirty();
        outs
    }

    /// [`PersistentService::run_batch`] for a single job.
    pub fn run_one<T, F>(&mut self, job: &Job<T>, build: F) -> RunOutcome
    where
        T: Sync,
        F: Fn(Program, MachineConfig, &T) -> Machine + Sync,
    {
        let out = self.svc.run_one(job, build);
        self.persist_dirty();
        out
    }

    /// Drains the store's insert journal into the log. Keys evicted or
    /// invalidated since their insert no longer resolve and are skipped —
    /// the log only ever holds outcomes the store vouched for.
    fn persist_dirty(&mut self) {
        let Some(log) = &mut self.log else { return };
        let dirty = self.svc.store_mut().take_dirty();
        if dirty.is_empty() {
            return;
        }
        let store = self.svc.store();
        for key in dirty {
            if let Some(outcome) = store.peek(&key) {
                if let Err(e) = log.append(key, outcome) {
                    eprintln!("hardbound-serve: store append failed: {e} (entry lost)");
                }
            }
        }
        if let Err(e) = log.flush() {
            eprintln!("hardbound-serve: store flush failed: {e}");
        }
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
        log.compact(self.svc.store().entries().map(|(k, o)| (*k, o)))?;
        log.flush()
    }

    /// Invalidates one program image's stored results (see
    /// [`CorpusService::invalidate_program`]). The log's stale records
    /// are harmless — their keys are never looked up again if the image
    /// changed, and replay is deterministic if it did not — and are
    /// dropped by the next [`PersistentService::checkpoint`].
    pub fn invalidate_program(&mut self, pid: ProgramId) -> usize {
        self.svc.invalidate_program(pid)
    }

    /// Snapshot of the service's and the log's counters.
    #[must_use]
    pub fn stats(&self) -> PersistStats {
        PersistStats {
            service: self.svc.stats(),
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

    #[test]
    fn reopen_replays_without_reexecuting() {
        let path = temp_path("reopen");
        let _ = std::fs::remove_file(&path);
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
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_compacts_duplicate_appends() {
        let path = temp_path("checkpoint");
        let _ = std::fs::remove_file(&path);
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
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn without_persistence_everything_still_works() {
        let jobs: Vec<Job<()>> = (0..3).map(|k| job(10 + k)).collect();
        let mut svc = PersistentService::new(2);
        let a = svc.run_batch(&jobs, build);
        let b = svc.run_batch(&jobs, build);
        assert_eq!(a, b);
        assert!(!svc.is_persistent());
        assert_eq!(svc.stats().log, None);
        assert!(svc.checkpoint().is_ok(), "checkpoint is a no-op");
    }

    #[test]
    fn corrupt_log_recomputes_exactly_the_lost_cells() {
        let path = temp_path("recover");
        let _ = std::fs::remove_file(&path);
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
        let _ = std::fs::remove_file(&path);
    }
}
