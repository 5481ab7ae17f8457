//! # HardBound
//!
//! A full reproduction of *HardBound: Architectural Support for Spatial
//! Safety of the C Programming Language* (Devietti, Blundell, Martin,
//! Zdancewic — ASPLOS 2008) as a Rust workspace.
//!
//! This facade crate re-exports every subsystem so downstream users can
//! depend on a single crate:
//!
//! * [`isa`] — the 32-bit µop instruction set the simulator executes.
//! * [`mem`] — sparse paged memory plus the base/bound shadow space and the
//!   tag metadata space of paper §4.1–4.2.
//! * [`cache`] — the set-associative cache / TLB models with the paper's
//!   geometry (32 KB L1, 4 MB L2, 2 KB/8 KB tag metadata cache).
//! * [`core`] — the HardBound machine: sidecar register metadata, implicit
//!   bounds checks, metadata propagation, and the three compressed pointer
//!   encodings (`extern-4`, `intern-4`, `intern-11`).
//! * [`exec`] — the one execution path (the interpreter, with per-run
//!   metrics and profiles), program identity, the corpus service's result
//!   store and the deterministic parallel batch driver.
//! * [`lang`] — the *Cb* language front end (a C subset) used in place of
//!   the paper's CIL/GCC toolchain.
//! * [`compiler`] — Cb → ISA code generation with four instrumentation
//!   modes: `Baseline`, `HardBound`, `SoftBound` (CCured-style software fat
//!   pointers) and `ObjectTable` (JK/RL/DA-style).
//! * [`runtime`] — the simulated C runtime (free-list `malloc`, string
//!   functions, fixed-point math) and the object-table splay tree.
//! * [`workloads`] — ports of the nine Olden benchmarks used in §5.
//! * [`violations`] — the spatial-violation corpus generator of §5.2.
//! * [`report`] — experiment drivers that regenerate every table and figure.
//! * [`serve`] — the persistent result store (`HB_STORE_PATH`) and the
//!   `hbserve` networked corpus service (wire codec, append-only log, and
//!   a TCP front end that streams each submission's results back in
//!   chunks on the submitting connection).
//! * [`telemetry`] — the metrics registry (counters, gauges, latency
//!   histograms; Prometheus-style exposition) and `HB_TRACE` span
//!   tracing with cross-shard trace propagation.
//! * [`bench`](mod@bench) — bench-harness support (`cargo bench` targets
//!   regenerate the paper artefacts; `HB_SCALE=smoke` shrinks inputs for
//!   CI).
//!
//! ## Quick start
//!
//! ```
//! use hardbound::compiler::Mode;
//! use hardbound::core::{PointerEncoding, Trap};
//! use hardbound::runtime::compile_and_run;
//!
//! let source = r#"
//!     int main() {
//!         int *a = (int*)malloc(4 * sizeof(int));
//!         a[1] = 10;      // in bounds
//!         a[7] = 99;      // spatial violation: caught by HardBound
//!         return a[1];
//!     }
//! "#;
//! let outcome = compile_and_run(source, Mode::HardBound, PointerEncoding::Intern4)?;
//! assert!(matches!(outcome.trap, Some(Trap::BoundsViolation { .. })));
//! # Ok::<(), hardbound::compiler::CompileError>(())
//! ```

pub use hardbound_bench as bench;
pub use hardbound_cache as cache;
pub use hardbound_compiler as compiler;
pub use hardbound_core as core;
pub use hardbound_exec as exec;
pub use hardbound_isa as isa;
pub use hardbound_lang as lang;
pub use hardbound_mem as mem;
pub use hardbound_report as report;
pub use hardbound_runtime as runtime;
pub use hardbound_serve as serve;
pub use hardbound_telemetry as telemetry;
pub use hardbound_violations as violations;
pub use hardbound_workloads as workloads;
