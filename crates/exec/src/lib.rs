//! `hardbound-exec` — the one execution path and the parallel corpus
//! driver.
//!
//! Every run — the corpus service, `hbrun`, `hbserve` and the figure
//! drivers — executes on the interpreter in `hardbound-core`
//! ([`Machine::run`](hardbound_core::Machine::run)), which resolves the
//! paper's decode-time µop insertion (§4.4) once per run. This crate
//! wraps that path:
//!
//! 1. [`run_machine`] runs one machine and records the run's metrics and,
//!    when armed, its per-basic-block hot-spot profile,
//! 2. [`ProgramId`] is the stable identity of a program image: the first
//!    half of every result-store key and the program handle on the
//!    `hbserve` wire,
//! 3. [`batch`] fans independent simulations (the 288-pair violation
//!    corpus, the 9 Olden ports × 3 encodings) across threads with a
//!    lock-free claimed-by-atomic-index scheduler and deterministic,
//!    input-ordered results, and
//! 4. [`service`] holds the [`ResultStore`] keyed by program hash, so a
//!    warm corpus re-run replays identical cells instead of simulating
//!    them and incremental re-runs execute only invalidated keys.
//!
//! The corpus service itself — the store, its worker threads and its
//! optional on-disk log — is `hardbound_serve::PersistentService`.
//!
//! ```
//! use hardbound_core::{Machine, MachineConfig};
//! use hardbound_isa::{FunctionBuilder, Program, Reg};
//!
//! let mut f = FunctionBuilder::new("main", 0);
//! f.li(Reg::A0, 0);
//! f.halt();
//! let program = Program::with_entry(vec![f.finish()]);
//! let mut machine = Machine::new(program, MachineConfig::default());
//! let out = hardbound_exec::run_machine(&mut machine);
//! assert!(out.is_success());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
#[doc(hidden)]
pub mod compat;
mod program_id;
mod run;
pub mod service;

#[doc(hidden)]
pub use compat::{BlockCacheStats, Engine, EngineStats, SharedBlockCache};
pub use program_id::ProgramId;
pub use run::run_machine;
pub use service::{config_fingerprint, Job, ResultStore, ResultStoreStats, StoreKey};
