//! Regenerates paper Figure 7: the comparison of an object-table scheme
//! (JK/RL/DA-style), software fat pointers (CCured-style), and HardBound
//! under its three encodings, with the paper's published columns printed
//! alongside.

fn main() {
    let scale = hardbound_runtime::settings().scale;
    let t0 = std::time::Instant::now();
    let rows = hardbound_report::fig7(scale);
    println!("{}", hardbound_report::render::fig7_table(&rows));
    println!("(regenerated in {:.1?} at {scale:?} scale)", t0.elapsed());
}
