//! Regenerates paper Figure 5: runtime overhead of the three pointer
//! encodings on the Olden ports, decomposed into the paper's four stacked
//! components.

fn main() {
    let scale = hardbound_runtime::settings().scale;
    let t0 = std::time::Instant::now();
    let rows = hardbound_report::fig5(scale);
    println!("{}", hardbound_report::render::fig5_table(&rows));
    println!("(regenerated in {:.1?} at {scale:?} scale)", t0.elapsed());
}
