//! Regenerates paper Figure 6: extra distinct 4 KB pages touched for tag
//! and base/bound metadata, per benchmark and encoding.

fn main() {
    let scale = hardbound_runtime::settings().scale;
    let t0 = std::time::Instant::now();
    let rows = hardbound_report::fig6(scale);
    println!("{}", hardbound_report::render::fig6_table(&rows));
    println!("(regenerated in {:.1?} at {scale:?} scale)", t0.elapsed());
}
