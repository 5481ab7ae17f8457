//! Benchmark harness support for the HardBound evaluation.
//!
//! The actual experiment logic lives in `hardbound-report`; this crate's
//! `benches/` directory exposes one `cargo bench` target per paper
//! artefact:
//!
//! | target | regenerates |
//! |---|---|
//! | `fig5_runtime_overhead` | Figure 5 (runtime overhead, stacked components) |
//! | `fig6_memory_overhead` | Figure 6 (extra distinct pages touched) |
//! | `fig7_comparison` | Figure 7 (software schemes vs HardBound) |
//! | `correctness_suite` | §5.2 (288-pair spatial-violation corpus) |
//! | `ablation_check_uop` | §5.4 (bounds check costs one µop) |
//! | `ablation_tag_cache` | tag-cache capacity sensitivity |
//! | `simulator_throughput` | criterion wall-clock benchmarks of the simulator itself |
//!
//! Every target reads `HB_SCALE` (and `simulator_throughput` its `*_GATE`
//! ratios) through `hardbound_runtime::settings`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
