//! Tag-metadata-cache capacity sweep: the paper fixes 2 KB (1-bit tags)
//! and 8 KB (4-bit tags); this ablation shows how sensitive the overhead
//! is to that design choice.

fn main() {
    let scale = hardbound_runtime::settings().scale;
    let t0 = std::time::Instant::now();
    let sizes = [1024, 2 * 1024, 4 * 1024, 8 * 1024, 16 * 1024];
    let rows = hardbound_report::tag_cache_sweep(scale, &sizes);
    println!("{}", hardbound_report::render::tag_cache_table(&rows));
    println!("(regenerated in {:.1?} at {scale:?} scale)", t0.elapsed());
}
