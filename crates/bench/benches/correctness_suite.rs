//! Regenerates the §5.2 functional-correctness experiment: the 288-pair
//! spatial-violation corpus under full HardBound protection, for each
//! pointer encoding (paper: "HardBound detects all the violations and
//! generates no false positives"), followed by the §6
//! protection-granularity contrast (word vs object vs malloc-only) that
//! documents the sub-object blind spot of coarser-grained schemes.
//!
//! The corpus fans out across threads through `exec::batch` with
//! deterministic, corpus-ordered aggregation — the output is byte-identical
//! to the serial driver it replaced.

use hardbound_core::PointerEncoding;

fn main() {
    let t0 = std::time::Instant::now();
    for encoding in PointerEncoding::ALL {
        let report = hardbound_report::correctness(encoding);
        print!(
            "{}",
            hardbound_report::render::correctness_section(encoding, &report)
        );
        assert!(report.is_perfect(), "correctness suite must be perfect");
    }

    let rows = hardbound_report::granularity(PointerEncoding::Intern4);
    println!("{}", hardbound_report::render::granularity_table(&rows));
    let hb = &rows[0];
    assert_eq!(hb.scheme, "hardbound");
    assert_eq!(
        (hb.subobject_detected, hb.other_detected),
        (hb.subobject_total, hb.other_total),
        "word granularity covers the whole corpus"
    );
    let ot = &rows[1];
    assert!(
        ot.subobject_rate() < 1.0,
        "§6: the object table must exhibit the sub-object blind spot"
    );

    println!("(regenerated in {:.1?})", t0.elapsed());
}
