//! The append-only log behind the persistent result store.
//!
//! Layout (all integers little-endian, written via [`crate::wire`]):
//!
//! ```text
//! header:  "HBSTORE\x01" (8B magic) | wire version (u32)
//!          | fingerprint version (u32) | format salt (u64)
//! record:  payload length (u32) | FNV-1a checksum of payload (u64)
//!          | payload = ProgramId (u64) | config fingerprint (u64)
//!          | encoded RunOutcome
//! ```
//!
//! Robustness rules, in order:
//!
//! * **Version/salt mismatch → clean cold start.** A log written under
//!   another wire or fingerprint version (or a foreign file at the path)
//!   is discarded wholesale — its keys could alias current ones — and the
//!   file is rewritten with a fresh header.
//! * **Corruption-tolerant load.** Records are read until the first bad
//!   one (truncated frame, checksum mismatch, undecodable payload); the
//!   file is truncated at the last good byte, so a crash mid-append (or a
//!   flipped bit) costs exactly the damaged tail, never the whole store.
//! * **Atomic rewrite-compaction.** [`StoreLog::compact`] writes a
//!   temporary file next to the log (the log's file name plus `.tmp`)
//!   and `rename`s it over — readers and crashes observe either the old
//!   log or the new one, never a torn mix.
//! * **Single writer.** An OS advisory lock ([`File::try_lock`]) on a
//!   sibling lock file — the log's file name plus `.lock`, so `store.bin`
//!   and `store.log` get distinct locks — guards the log: the first opener
//!   owns appends; a concurrent opener, in this process or another,
//!   **degrades to read-only** — it seeds from the log but appends
//!   nothing, so overlapping processes share warm state instead of
//!   appending at stale offsets and truncating each other's live file.
//!   The lock lasts as long as the owning handle's open lock file: the OS
//!   releases it when the handle drops or its process exits, however it
//!   exits, so a dead writer never blocks the next one. The lock file
//!   itself stays on disk; unlinking it would let two openers lock two
//!   different files.

use std::fs::{File, OpenOptions, TryLockError};
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use hardbound_core::{Fnv64, RunOutcome, FINGERPRINT_VERSION};
use hardbound_exec::{ProgramId, StoreKey};

use crate::wire::{decode_outcome, encode_outcome, Reader, Writer, WIRE_VERSION};

/// The 8-byte file magic.
const MAGIC: &[u8; 8] = b"HBSTORE\x01";
/// Header length in bytes: magic + two version words + salt.
const HEADER_LEN: usize = 8 + 4 + 4 + 8;
/// Per-record frame overhead: length word + checksum.
const FRAME_LEN: usize = 4 + 8;
/// Sanity cap on one record's payload (a RunOutcome is kilobytes; a
/// length beyond this means corruption, not data).
const MAX_RECORD: u32 = 64 << 20;

/// The format salt folded into the header: any change to either version
/// changes it, so a mismatched log cold-starts instead of aliasing keys.
#[must_use]
fn format_salt() -> u64 {
    let mut h = Fnv64::default();
    h.mix_u32(WIRE_VERSION);
    h.mix_u32(FINGERPRINT_VERSION);
    h.value()
}

fn checksum(payload: &[u8]) -> u64 {
    let mut h = Fnv64::default();
    h.mix_raw(payload);
    h.value()
}

/// Counters describing the log's lifetime behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreLogStats {
    /// Records loaded at open (seeded into the store).
    pub loaded: u64,
    /// Bytes dropped at open because the tail was corrupt or truncated.
    pub dropped_bytes: u64,
    /// `1` when the log cold-started (missing file, bad magic, or a
    /// version/salt mismatch).
    pub cold_start: u64,
    /// Records appended since open.
    pub appended: u64,
    /// Explicit flushes of the append buffer.
    pub flushes: u64,
    /// Rewrite-compactions performed.
    pub compactions: u64,
    /// `1` when another open handle holds the log's lock: this handle
    /// seeded from the file but appends/compactions are no-ops.
    pub read_only: u64,
}

/// The result of [`StoreLog::open`]: the log handle (positioned for
/// appends) plus every record that survived the load.
#[derive(Debug)]
pub struct LoadedStore {
    /// The open log.
    pub log: StoreLog,
    /// Surviving `(key, outcome)` records in file order (later duplicates
    /// of a key supersede earlier ones when seeded in order).
    pub entries: Vec<(StoreKey, RunOutcome)>,
}

/// An open append-only store log (see the module docs).
#[derive(Debug)]
pub struct StoreLog {
    path: PathBuf,
    /// `None` when another handle holds the lock: reads seeded, writes
    /// are no-ops.
    writer: Option<BufWriter<File>>,
    /// The locked lock file, held open while this handle owns the log.
    lock: Option<File>,
    stats: StoreLogStats,
}

/// Takes the advisory lock on `lock_path`, creating the file if needed:
/// `Some` (the locked file, to hold for as long as the log is owned) or
/// `None` when another open handle holds the lock.
fn acquire_lock(lock_path: &Path) -> io::Result<Option<File>> {
    let file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(lock_path)?;
    match file.try_lock() {
        Ok(()) => Ok(Some(file)),
        Err(TryLockError::WouldBlock) => Ok(None),
        Err(TryLockError::Error(e)) => Err(e),
    }
}

impl StoreLog {
    /// Opens (or creates) the log at `path`, returning the handle and the
    /// surviving records. Corrupt tails are truncated in place;
    /// version-mismatched or foreign files cold-start (see module docs).
    /// When another open handle holds the log's lock the handle is
    /// **read-only**: it seeds from the current file contents (without
    /// truncating anything out from under the owner) and every write is
    /// a counted no-op.
    ///
    /// # Errors
    ///
    /// Real I/O errors only (permissions, missing parent directory);
    /// corruption and lock contention are handled, not reported.
    pub fn open(path: impl AsRef<Path>) -> io::Result<LoadedStore> {
        let path = path.as_ref().to_path_buf();
        let lock_path = sibling(&path, "lock");
        let lock = acquire_lock(&lock_path)?;
        let mut stats = StoreLogStats::default();
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };

        let mut entries = Vec::new();
        let mut good_end = 0usize;
        let header_ok = bytes.len() >= HEADER_LEN && {
            let mut r = Reader::new(&bytes[..HEADER_LEN]);
            let mut magic = [0u8; 8];
            for m in &mut magic {
                *m = r.get_u8().expect("header length checked");
            }
            magic == *MAGIC
                && r.get_u32().expect("header") == WIRE_VERSION
                && r.get_u32().expect("header") == FINGERPRINT_VERSION
                && r.get_u64().expect("header") == format_salt()
        };

        if header_ok {
            good_end = HEADER_LEN;
            let mut pos = HEADER_LEN;
            while pos < bytes.len() {
                let Some(record) = read_record(&bytes[pos..]) else {
                    break;
                };
                let (consumed, key, outcome) = record;
                entries.push((key, outcome));
                pos += consumed;
                good_end = pos;
            }
            stats.loaded = entries.len() as u64;
            stats.dropped_bytes = (bytes.len() - good_end) as u64;
        } else {
            // A missing/empty file is a first run, not a recovery event;
            // a non-empty file with a foreign or mismatched header is the
            // version/salt cold start. Both get a fresh header below.
            stats.cold_start = u64::from(!bytes.is_empty());
        }

        if lock.is_none() {
            // Another handle owns appends: seed from what parsed
            // and leave the file strictly alone (its owner may be
            // mid-append past our snapshot).
            stats.read_only = 1;
            stats.dropped_bytes = 0;
            let log = StoreLog {
                path,
                writer: None,
                lock: None,
                stats,
            };
            return Ok(LoadedStore { log, entries });
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        if header_ok {
            // Drop the corrupt tail (no-op when the whole file was good).
            file.set_len(good_end as u64)?;
            file.seek(SeekFrom::End(0))?;
        } else {
            file.set_len(0)?;
            file.write_all(&header_bytes())?;
        }
        let log = StoreLog {
            path,
            writer: Some(BufWriter::new(file)),
            lock,
            stats,
        };
        Ok(LoadedStore { log, entries })
    }

    /// Whether this handle owns the log (can append); `false` for the
    /// read-only degraded mode under lock contention.
    #[must_use]
    pub fn is_writable(&self) -> bool {
        self.writer.is_some()
    }

    /// Appends one `(key, outcome)` record to the buffered writer (call
    /// [`StoreLog::flush`] to make it durable). A no-op on a read-only
    /// handle.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn append(&mut self, key: StoreKey, outcome: &RunOutcome) -> io::Result<()> {
        let Some(writer) = &mut self.writer else {
            return self.no_writer();
        };
        let payload = record_payload(key, outcome);
        writer.write_all(&frame(&payload))?;
        self.stats.appended += 1;
        Ok(())
    }

    /// The no-writer outcome: a benign no-op for the read-only degraded
    /// mode, a **loud error** for an owned log whose writer was lost by a
    /// failed compaction reopen — silence there would masquerade as
    /// persistence while every record lands in an unlinked inode.
    fn no_writer(&self) -> io::Result<()> {
        if self.lock.is_some() {
            return Err(io::Error::other(
                "store log writer lost after a failed compaction reopen",
            ));
        }
        Ok(())
    }

    /// Flushes buffered appends to the file. A no-op on a read-only
    /// handle.
    ///
    /// # Errors
    ///
    /// Propagates flush errors.
    pub fn flush(&mut self) -> io::Result<()> {
        let Some(writer) = &mut self.writer else {
            return self.no_writer();
        };
        writer.flush()?;
        self.stats.flushes += 1;
        Ok(())
    }

    /// Atomically rewrites the log to hold exactly `entries`: writes a
    /// sibling temporary file and renames it over the log, then reopens
    /// the append handle. Drops records superseded by invalidation and
    /// duplicate appends — the log's steady-state size becomes the store's
    /// live size.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the original log survives any failure
    /// before the rename.
    pub fn compact<'a>(
        &mut self,
        entries: impl Iterator<Item = (StoreKey, &'a RunOutcome)>,
    ) -> io::Result<()> {
        let Some(writer) = &mut self.writer else {
            // Read-only handles never rewrite the owner's file; a broken
            // owned handle reports itself instead.
            return self.no_writer();
        };
        let tmp_path = sibling(&self.path, "tmp");
        {
            let mut tmp = BufWriter::new(File::create(&tmp_path)?);
            tmp.write_all(&header_bytes())?;
            for (key, outcome) in entries {
                tmp.write_all(&frame(&record_payload(key, outcome)))?;
            }
            tmp.flush()?;
        }
        // Make sure nothing buffered lands *after* the rename and corrupts
        // the fresh file's tail through the stale handle.
        writer.flush()?;
        std::fs::rename(&tmp_path, &self.path)?;
        // From here the old handle points at an unlinked inode: the
        // writer MUST be replaced or dropped, never kept — appends
        // through it would "succeed" into a file that vanishes at exit.
        self.writer = None;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.writer = Some(BufWriter::new(file));
        self.stats.compactions += 1;
        Ok(())
    }

    /// The log's file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> StoreLogStats {
        self.stats
    }
}

/// `path` with `.{suffix}` appended to its full file name: `store.bin` →
/// `store.bin.lock`. Replacing the extension instead would give
/// `store.bin` and `store.log` one lock, and make a log named `x.lock`
/// its own lock file.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".");
    name.push(suffix);
    PathBuf::from(name)
}

fn header_bytes() -> Vec<u8> {
    let mut w = Writer::new();
    for &b in MAGIC {
        w.put_u8(b);
    }
    w.put_u32(WIRE_VERSION);
    w.put_u32(FINGERPRINT_VERSION);
    w.put_u64(format_salt());
    w.into_bytes()
}

fn record_payload(key: StoreKey, outcome: &RunOutcome) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(key.0 .0);
    w.put_u64(key.1);
    encode_outcome(&mut w, outcome);
    w.into_bytes()
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(payload.len() as u32);
    w.put_u64(checksum(payload));
    let mut bytes = w.into_bytes();
    bytes.extend_from_slice(payload);
    bytes
}

/// Parses one record at the start of `bytes`: `Some((bytes consumed, key,
/// outcome))`, or `None` when the frame is truncated, the checksum fails,
/// or the payload does not decode — the load stops (and truncates) there.
fn read_record(bytes: &[u8]) -> Option<(usize, StoreKey, RunOutcome)> {
    if bytes.len() < FRAME_LEN {
        return None;
    }
    let mut r = Reader::new(bytes);
    let len = r.get_u32().ok()?;
    if len > MAX_RECORD {
        return None;
    }
    let sum = r.get_u64().ok()?;
    let total = FRAME_LEN + len as usize;
    if bytes.len() < total {
        return None;
    }
    let payload = &bytes[FRAME_LEN..total];
    if checksum(payload) != sum {
        return None;
    }
    let mut r = Reader::new(payload);
    let pid = ProgramId(r.get_u64().ok()?);
    let fp = r.get_u64().ok()?;
    let outcome = decode_outcome(&mut r).ok()?;
    if !r.is_exhausted() {
        return None; // trailing garbage inside a framed record
    }
    Some((total, (pid, fp), outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardbound_core::ExecStats;

    fn outcome(n: i32) -> RunOutcome {
        RunOutcome {
            exit_code: Some(n),
            trap: None,
            stats: ExecStats {
                uops: n as u64 * 10,
                ..ExecStats::default()
            },
            output: format!("out{n}"),
            ints: vec![n],
        }
    }

    fn key(n: u64) -> StoreKey {
        (ProgramId(n), n.wrapping_mul(0x9e37_79b9))
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hb-storelog-{}-{tag}.bin", std::process::id()))
    }

    /// Removes a test log and the lock file its opens leave behind.
    fn remove_log(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(sibling(path, "lock"));
    }

    #[test]
    fn append_flush_reload_round_trips() {
        let path = temp_path("roundtrip");
        remove_log(&path);
        {
            let mut loaded = StoreLog::open(&path).unwrap();
            assert_eq!(loaded.entries.len(), 0);
            assert_eq!(loaded.log.stats().cold_start, 0, "fresh file, not cold");
            for n in 0..5 {
                loaded.log.append(key(n), &outcome(n as i32)).unwrap();
            }
            loaded.log.flush().unwrap();
        }
        let loaded = StoreLog::open(&path).unwrap();
        assert_eq!(loaded.log.stats().loaded, 5);
        assert_eq!(loaded.log.stats().dropped_bytes, 0);
        for (n, (k, out)) in loaded.entries.iter().enumerate() {
            assert_eq!(*k, key(n as u64));
            assert_eq!(*out, outcome(n as i32));
        }
        remove_log(&path);
    }

    #[test]
    fn corrupt_tail_is_truncated_not_fatal() {
        let path = temp_path("corrupt");
        remove_log(&path);
        {
            let mut loaded = StoreLog::open(&path).unwrap();
            for n in 0..3 {
                loaded.log.append(key(n), &outcome(n as i32)).unwrap();
            }
            loaded.log.flush().unwrap();
        }
        // Flip one byte inside the last record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let loaded = StoreLog::open(&path).unwrap();
        assert_eq!(loaded.entries.len(), 2, "last record dropped");
        assert!(loaded.log.stats().dropped_bytes > 0);
        assert_eq!(loaded.log.stats().cold_start, 0);
        // The file was truncated in place: a reload sees a clean log.
        drop(loaded);
        let reloaded = StoreLog::open(&path).unwrap();
        assert_eq!(reloaded.entries.len(), 2);
        assert_eq!(reloaded.log.stats().dropped_bytes, 0);
        remove_log(&path);
    }

    #[test]
    fn truncated_mid_record_recovers_the_prefix() {
        let path = temp_path("truncated");
        remove_log(&path);
        {
            let mut loaded = StoreLog::open(&path).unwrap();
            for n in 0..3 {
                loaded.log.append(key(n), &outcome(n as i32)).unwrap();
            }
            loaded.log.flush().unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let loaded = StoreLog::open(&path).unwrap();
        assert_eq!(loaded.entries.len(), 2, "the torn record is lost, no more");
        remove_log(&path);
    }

    #[test]
    fn version_mismatch_cold_starts() {
        let path = temp_path("version");
        remove_log(&path);
        {
            let mut loaded = StoreLog::open(&path).unwrap();
            loaded.log.append(key(1), &outcome(1)).unwrap();
            loaded.log.flush().unwrap();
        }
        // Corrupt the header's version word.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let loaded = StoreLog::open(&path).unwrap();
        assert_eq!(loaded.entries.len(), 0, "foreign format is discarded");
        assert_eq!(loaded.log.stats().cold_start, 1);
        // The file is now a clean current-format log again.
        drop(loaded);
        let reloaded = StoreLog::open(&path).unwrap();
        assert_eq!(reloaded.log.stats().cold_start, 0);
        remove_log(&path);
    }

    #[test]
    fn concurrent_opener_degrades_to_read_only() {
        let path = temp_path("locked");
        remove_log(&path);
        let mut owner = StoreLog::open(&path).unwrap();
        assert!(owner.log.is_writable());
        owner.log.append(key(1), &outcome(1)).unwrap();
        owner.log.flush().unwrap();

        // A second handle while the owner lives: seeded, but read-only —
        // its writes are no-ops and the owner's file is untouched.
        let mut second = StoreLog::open(&path).unwrap();
        assert!(!second.log.is_writable());
        assert_eq!(second.log.stats().read_only, 1);
        assert_eq!(second.entries, vec![(key(1), outcome(1))]);
        let before = std::fs::metadata(&path).unwrap().len();
        second.log.append(key(2), &outcome(2)).unwrap();
        second.log.flush().unwrap();
        second.log.compact(std::iter::empty()).unwrap();
        assert_eq!(second.log.stats().appended, 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before);

        // The owner keeps appending safely; dropping it releases the
        // lock, so a fresh open owns the log again.
        owner.log.append(key(3), &outcome(3)).unwrap();
        owner.log.flush().unwrap();
        drop(second);
        drop(owner);
        assert!(sibling(&path, "lock").exists(), "the lock file stays");
        let reopened = StoreLog::open(&path).unwrap();
        assert!(reopened.log.is_writable(), "released lock is re-acquired");
        assert_eq!(reopened.entries.len(), 2);
        remove_log(&path);
    }

    #[test]
    fn leftover_lock_file_does_not_block_a_writer() {
        let path = temp_path("leftover");
        let lock = sibling(&path, "lock");
        // Whatever a lock file holds — a dead writer's PID, this very
        // process's PID, garbage, nothing — only a held lock counts.
        let pid = std::process::id().to_string();
        for contents in ["4194999", pid.as_str(), "garbage", ""] {
            remove_log(&path);
            std::fs::write(&lock, contents).unwrap();
            let loaded = StoreLog::open(&path).unwrap();
            assert!(loaded.log.is_writable(), "lock file holding {contents:?}");
        }
        remove_log(&path);
    }

    #[test]
    fn logs_sharing_a_stem_are_both_writable() {
        let bin = temp_path("stem");
        let log = bin.with_extension("log");
        for p in [&bin, &log] {
            remove_log(p);
        }
        let mut a = StoreLog::open(&bin).unwrap();
        let mut b = StoreLog::open(&log).unwrap();
        assert!(a.log.is_writable() && b.log.is_writable());
        a.log.append(key(1), &outcome(1)).unwrap();
        b.log.append(key(2), &outcome(2)).unwrap();
        a.log.compact([(key(3), &outcome(3))].into_iter()).unwrap();
        drop((a, b));
        assert_eq!(
            StoreLog::open(&bin).unwrap().entries,
            vec![(key(3), outcome(3))]
        );
        assert_eq!(
            StoreLog::open(&log).unwrap().entries,
            vec![(key(2), outcome(2))]
        );
        for p in [&bin, &log] {
            remove_log(p);
        }
    }

    #[test]
    fn a_log_named_like_its_lock_or_temp_file_survives_reopen() {
        for ext in ["lock", "tmp"] {
            let path = temp_path("named").with_extension(ext);
            remove_log(&path);
            {
                let mut loaded = StoreLog::open(&path).unwrap();
                assert!(loaded.log.is_writable(), "{ext}");
                loaded.log.append(key(1), &outcome(1)).unwrap();
                loaded.log.flush().unwrap();
                // Buffered when the compaction starts.
                loaded.log.append(key(2), &outcome(2)).unwrap();
                loaded
                    .log
                    .compact([(key(2), &outcome(2))].into_iter())
                    .unwrap();
                loaded.log.append(key(3), &outcome(3)).unwrap();
                loaded.log.flush().unwrap();
            }
            let reopened = StoreLog::open(&path).unwrap();
            assert!(reopened.log.is_writable(), "{ext}");
            assert_eq!(
                reopened.entries,
                vec![(key(2), outcome(2)), (key(3), outcome(3))],
                "{ext}"
            );
            drop(reopened);
            remove_log(&path);
        }
    }

    #[test]
    fn compaction_rewrites_atomically_and_appends_continue() {
        let path = temp_path("compact");
        remove_log(&path);
        let mut loaded = StoreLog::open(&path).unwrap();
        for n in 0..10 {
            loaded.log.append(key(n % 2), &outcome(n as i32)).unwrap();
        }
        loaded.log.flush().unwrap();
        let fat = std::fs::metadata(&path).unwrap().len();

        let live = [(key(0), outcome(8)), (key(1), outcome(9))];
        loaded
            .log
            .compact(live.iter().map(|(k, o)| (*k, o)))
            .unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() < fat);
        loaded.log.append(key(7), &outcome(7)).unwrap();
        loaded.log.flush().unwrap();

        let reloaded = StoreLog::open(&path).unwrap();
        assert_eq!(
            reloaded.entries,
            vec![
                (key(0), outcome(8)),
                (key(1), outcome(9)),
                (key(7), outcome(7)),
            ]
        );
        remove_log(&path);
    }
}
