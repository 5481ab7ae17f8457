//! `HB_TRACE` on vs off must not change a single byte of grid results —
//! tracing is pure observation. A **single-test binary**, because the
//! trace sink is process-global state that concurrent tests in a shared
//! binary would race against.

use hardbound::compiler::Mode;
use hardbound::core::PointerEncoding;
use hardbound::runtime::{compile, run_jobs, SimJob};
use hardbound::telemetry::{trace, SpanEvent};

#[test]
fn tracing_does_not_perturb_local_grid_results() {
    let mut jobs = Vec::new();
    for k in 0..6 {
        let source = format!(
            "int main() {{\n\
               int *a = (int*)malloc(8 * sizeof(int));\n\
               for (int i = 0; i < 8; i = i + 1) a[i] = i * {k};\n\
               int s = 0;\n\
               for (int i = 0; i < 8; i = i + 1) s = s + a[i];\n\
               print_int(s);\n\
               return 0;\n\
             }}"
        );
        for mode in [Mode::Baseline, Mode::HardBound] {
            let program = compile(&source, mode).expect("compiles");
            jobs.push(SimJob::new(program, mode, PointerEncoding::Intern4));
        }
    }

    trace::disable();
    let off = run_jobs(jobs.clone());

    let path = std::env::temp_dir().join(format!("hb-local-trace-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    trace::install(&path).expect("trace sink installs");
    let on = run_jobs(jobs.clone());
    // A cold re-run of the same grid under tracing exercises the decode
    // spans too (the first grid warmed the result store, so force fresh
    // cells through distinct sources).
    let mut fresh = Vec::new();
    for k in 0..3 {
        let source = format!("int main() {{ print_int({k} + 400); return 0; }}");
        let program = compile(&source, Mode::HardBound).expect("compiles");
        fresh.push(SimJob::new(
            program,
            Mode::HardBound,
            PointerEncoding::Intern4,
        ));
    }
    let _ = run_jobs(fresh);
    trace::disable();

    assert_eq!(
        on, off,
        "HB_TRACE on vs off must be byte-identical in grid results"
    );

    // Every emitted line re-parses, and the local service path stamped
    // its own span kinds (batch + store-lookup sweep + parallel exec).
    let text = std::fs::read_to_string(&path).expect("trace sink written");
    let _ = std::fs::remove_file(&path);
    let mut kinds = std::collections::BTreeSet::new();
    for line in text.lines() {
        let ev = SpanEvent::parse(line)
            .unwrap_or_else(|e| panic!("unparseable trace line {line:?}: {e}"));
        kinds.insert(ev.kind);
    }
    for kind in ["batch", "store_lookup", "batch_exec"] {
        assert!(kinds.contains(kind), "missing `{kind}` spans: {kinds:?}");
    }
}
