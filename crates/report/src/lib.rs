//! Experiment drivers and table rendering for the HardBound evaluation.
//!
//! Each public function in [`experiments`] regenerates one of the paper's
//! evaluation artefacts (Figures 5–7, the §5.2 correctness suite, the §5.4
//! check-µop ablation and a tag-cache sensitivity sweep); [`render`] prints
//! them as text tables shaped like the paper's figures. The `hardbound-
//! bench` crate exposes these as `cargo bench` targets; EXPERIMENTS.md
//! records the paper-vs-measured comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod render;

pub use experiments::{
    ablation_check_uop, correctness, fig5, fig6, fig7, granularity, tag_cache_sweep, AblationRow,
    Fig5Row, Fig6Row, Fig7Row, GranularityRow, TagCacheRow,
};
