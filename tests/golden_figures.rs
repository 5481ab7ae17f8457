//! Byte-for-byte snapshots of the paper's figure tables at smoke scale,
//! and of the §5.2 corpus report and §6 granularity table.
//!
//! The differential suites prove that the execution paths agree with each
//! other; this suite pins the values they agree on. Each table is rendered
//! exactly as its `cargo bench` target prints it and compared against
//! `tests/golden/<name>.txt`.
//!
//! After an intended change to the model, regenerate the snapshots with
//! `cargo test --release --test golden_figures -- --ignored` and review
//! the diff of `tests/golden/` with the change.

use std::path::PathBuf;

use hardbound::core::PointerEncoding;
use hardbound::report::{
    ablation_check_uop, correctness, fig5, fig6, fig7, granularity, render, tag_cache_sweep,
};
use hardbound::workloads::Scale;

/// The tag-cache capacities of `benches/ablation_tag_cache.rs`.
const TAG_CACHE_SIZES: [u64; 5] = [1024, 2 * 1024, 4 * 1024, 8 * 1024, 16 * 1024];

/// The file stem of every snapshot.
const TABLES: [&str; 7] = [
    "fig5",
    "fig6",
    "fig7",
    "ablation_check_uop",
    "ablation_tag_cache",
    "correctness",
    "granularity",
];

/// Renders the table `name` at smoke scale, as its bench target prints it.
/// The corpus tables do not depend on the scale.
fn render_table(name: &str) -> String {
    let scale = Scale::Smoke;
    match name {
        "fig5" => render::fig5_table(&fig5(scale)),
        "fig6" => render::fig6_table(&fig6(scale)),
        "fig7" => render::fig7_table(&fig7(scale)),
        "ablation_check_uop" => render::ablation_table(&ablation_check_uop(scale)),
        "ablation_tag_cache" => render::tag_cache_table(&tag_cache_sweep(scale, &TAG_CACHE_SIZES)),
        "correctness" => PointerEncoding::ALL
            .into_iter()
            .map(|enc| render::correctness_section(enc, &correctness(enc)))
            .collect(),
        "granularity" => render::granularity_table(&granularity(PointerEncoding::Intern4)),
        other => panic!("no snapshot named `{other}`"),
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

fn check(name: &str) {
    let actual = render_table(name);
    let path = golden_path(name);
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(
        actual == expected,
        "{name} differs from {}\n--- expected ---\n{expected}\n--- actual ---\n{actual}",
        path.display()
    );
}

#[test]
fn fig5_matches_snapshot() {
    check("fig5");
}

#[test]
fn fig6_matches_snapshot() {
    check("fig6");
}

#[test]
fn fig7_matches_snapshot() {
    check("fig7");
}

#[test]
fn ablation_check_uop_matches_snapshot() {
    check("ablation_check_uop");
}

#[test]
fn ablation_tag_cache_matches_snapshot() {
    check("ablation_tag_cache");
}

#[test]
fn correctness_matches_snapshot() {
    check("correctness");
}

#[test]
fn granularity_matches_snapshot() {
    check("granularity");
}

/// Rewrites every snapshot from the current model. Run only on purpose
/// (see the module docs); the diff it leaves is the change to review.
#[test]
#[ignore = "regenerates tests/golden/; run explicitly after an intended model change"]
fn regenerate_golden_figures() {
    for name in TABLES {
        let path = golden_path(name);
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create tests/golden");
        std::fs::write(&path, render_table(name))
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}
