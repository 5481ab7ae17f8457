//! Regenerates the §5.4 design-choice experiment: charging one µop per
//! bounds check of an uncompressed pointer (a "more modest implementation"
//! using shared ALUs instead of a dedicated checker).

fn main() {
    let scale = hardbound_runtime::settings().scale;
    let t0 = std::time::Instant::now();
    let rows = hardbound_report::ablation_check_uop(scale);
    println!("{}", hardbound_report::render::ablation_table(&rows));
    println!("(regenerated in {:.1?} at {scale:?} scale)", t0.elapsed());
}
