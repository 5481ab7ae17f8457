//! `hardbound-serve` — the corpus service across process and machine
//! boundaries.
//!
//! This crate holds the corpus service, [`PersistentService`]: the
//! result store (`hardbound_exec::service`) with its worker threads,
//! which amortizes whole-run results *within* one process. It extends the
//! service across the two remaining boundaries — fresh `hbrun`s and CI
//! invocations, and other machines:
//!
//! * [`wire`] — a pinned, versioned **binary codec** (std-only; the build
//!   container has no serde) for [`RunOutcome`](hardbound_core::RunOutcome),
//!   [`MachineConfig`](hardbound_core::MachineConfig) and store records.
//!   Together with the stable fingerprints of
//!   `hardbound_core::fingerprint`, bytes written by one process mean the
//!   same thing to every other.
//! * [`store`] — an **append-only log** backing the result store
//!   (`HB_STORE_PATH`): corruption-tolerant load (truncate at the first
//!   bad record), version/salt mismatch → clean cold start, and atomic
//!   rewrite-compaction.
//! * [`persist`] — [`PersistentService`], the corpus service, whose store
//!   can survive the process: entries load at open, each fresh result is
//!   appended where it is stored and the log is flushed once per batch,
//!   on drop and on an explicit [`PersistentService::checkpoint`].
//! * [`net`] — a `TcpListener` front end speaking a length-prefixed
//!   request/response protocol of five verbs (`HELLO`, `SUBMIT`,
//!   `METRICS`, `PROFILE`, `SHUTDOWN`): clients submit cell grids, the
//!   server dedups against the store and drains misses through the
//!   lock-free `exec::batch` scheduler, and results stream back in chunks
//!   on the submitting connection. Clients submit the same
//!   [`Job<u64>`](hardbound_exec::Job) cells the server decodes; the
//!   codec renders each distinct program once into the `SUBMIT` frame's
//!   deduplicated listing table, next to an optional trace context. Every
//!   connection starts with a `HELLO` version check. Counters reach
//!   clients only through the `METRICS` exposition. `hbserve` (in
//!   `hardbound-report`) is the binary;
//!   `hardbound_runtime::run_jobs` is the transparent client of the one
//!   server `HB_SERVE_ADDR` names.
//!
//! Replay — from disk or from the far side of a socket — is
//! **byte-identical** to in-process execution; the differential suites at
//! the workspace root and in `crates/report/tests` pin it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod net;
pub mod persist;
pub mod store;
pub mod wire;

pub use net::{Client, ServeError, Server, MAX_GRID, PROTOCOL_VERSION};
pub use persist::{register_gauges, PersistStats, PersistentService, ServiceStats};
pub use store::{StoreLog, StoreLogStats};
pub use wire::{Reader, WireError, Writer, WIRE_VERSION};
