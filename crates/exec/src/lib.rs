//! `hardbound-exec` — the pre-decoded basic-block execution engine and the
//! parallel corpus driver.
//!
//! The interpreter in `hardbound-core` re-decodes and re-dispatches every
//! dynamic µop, re-deriving per-step facts that are static under a fixed
//! [`MachineConfig`](hardbound_core::MachineConfig): operand shapes,
//! whether the HardBound extension is active, which check µops a memory
//! operation needs. This crate resolves all of that once per *basic block*
//! — mirroring the paper's decode-time µop-insertion pipeline (§4.4) — and
//! then executes cached blocks in a tight dispatch loop:
//!
//! 1. [`uop`] pre-decodes instructions into configuration-resolved
//!    micro-operations, materializing every bounds check the hardware
//!    performs (none is ever elided: the simulated counts are exact),
//! 2. [`block`] caches decoded blocks in a [`SharedBlockCache`] keyed by
//!    `(`[`ProgramId`]`, entry PC)` — one segmented-LRU cache serving any
//!    number of machines and programs. Program images are immutable, so
//!    blocks never go stale: the one invalidation,
//!    [`SharedBlockCache::invalidate_program`], retires a whole program,
//! 3. [`engine`] dispatches blocks — and owns nothing but dispatch — against
//!    the machine state through the narrow
//!    [`ExecState`](hardbound_core::ExecState) interface, which runs the
//!    interpreter's own semantics; it owns a private cache or borrows a
//!    long-lived shared one, and falls back to
//!    [`Machine::step`](hardbound_core::Machine::step) for indirect calls,
//!    environment calls and fuel-limited tails,
//! 4. [`batch`] fans independent simulations (the 288-pair violation
//!    corpus, the 9 Olden ports × 3 encodings) across threads with a
//!    lock-free claimed-by-atomic-index scheduler and deterministic,
//!    input-ordered results, and
//! 5. [`service`] turns the one-shot simulator into a long-lived corpus
//!    backend: per-worker shared decode-cache shards plus a
//!    [`ResultStore`](service::ResultStore) keyed by program hash, so a
//!    warm corpus re-run replays identical cells instead of simulating
//!    them and incremental re-runs execute only invalidated keys.
//!
//! The engine is observationally identical to the interpreter — same
//! output, same traps at the same program counters, same
//! [`ExecStats`](hardbound_core::ExecStats) to the last counter — which the
//! engine-vs-interpreter differential suite (`tests/engine_differential.rs`
//! at the workspace root) enforces across every safety mode and pointer
//! encoding.
//!
//! ```
//! use hardbound_core::MachineConfig;
//! use hardbound_isa::{FunctionBuilder, Program, Reg};
//!
//! let mut f = FunctionBuilder::new("main", 0);
//! f.li(Reg::A0, 0);
//! f.halt();
//! let program = Program::with_entry(vec![f.finish()]);
//! let out = hardbound_exec::run_program(program, MachineConfig::default());
//! assert!(out.is_success());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod block;
pub mod engine;
pub mod service;
mod slru;
pub mod uop;

pub use block::{Block, BlockCacheStats, ProgramId, SharedBlockCache};
pub use engine::{run_program, Engine, EngineStats};
pub use service::{
    config_fingerprint, CorpusService, Job, ResultStore, ResultStoreStats, ServiceStats, StoreKey,
};
pub use uop::{decode_block, decode_inst, Uop};
