//! The figure-pipeline half of the corpus-service differential: every
//! rendered table must come out byte-identical on a warm second pass
//! served from the result store, which must report replays and execute
//! nothing new. That each cell's outcome equals a fresh engine's is pinned
//! cell by cell in `tests/service_differential.rs`.

use hardbound::core::PointerEncoding;
use hardbound::report::{ablation_check_uop, fig5, fig6, fig7, granularity, render};
use hardbound::workloads::Scale;

/// Renders every figure artefact the drivers produce into one string.
fn render_all(scale: Scale) -> String {
    let mut out = String::new();
    out.push_str(&render::fig5_table(&fig5(scale)));
    out.push_str(&render::fig6_table(&fig6(scale)));
    out.push_str(&render::fig7_table(&fig7(scale)));
    out.push_str(&render::ablation_table(&ablation_check_uop(scale)));
    out.push_str(&render::granularity_table(&granularity(
        PointerEncoding::Intern4,
    )));
    out
}

#[test]
fn figure_pipelines_replay_byte_identically_from_the_store() {
    let cold = render_all(Scale::Smoke);
    let after_cold = hardbound::runtime::service_stats();
    let warm = render_all(Scale::Smoke);
    let after_warm = hardbound::runtime::service_stats();

    assert_eq!(
        cold, warm,
        "warm replays must reproduce the figures byte-for-byte"
    );
    assert!(
        after_cold.store.hits > 0,
        "the figure grids share (program, config) cells — the cold pass \
         itself must already replay some: {after_cold:?}"
    );
    assert!(
        after_warm.store.hits > after_cold.store.hits,
        "the warm pass must replay from the store: {after_warm:?}"
    );
    assert!(
        after_warm.store.misses == after_cold.store.misses,
        "the warm pass must execute nothing new: {after_warm:?} vs {after_cold:?}"
    );
}
