//! Regression test for per-run registry reporting (`hbrun --stats`).
//!
//! The metrics registry is process-global and monotonic: a second grid in
//! the same process starts on top of the first grid's counters. Anything
//! that reports "this run's" activity must therefore snapshot the
//! registry before the run and print `Snapshot::delta` after — which is
//! exactly how `hbrun --stats` is routed. This pins the property that
//! routing depends on: two identical back-to-back grids produce two
//! *identical* deltas, while the absolute registry keeps accumulating.

use hardbound_compiler::Mode;
use hardbound_core::PointerEncoding;
use hardbound_exec::run_machine;
use hardbound_runtime::{build_machine_with_config, compile, machine_config, metrics_snapshot};

const SRC: &str = "
int main() {
  int *a = malloc(16 * sizeof(int));
  int i;
  int s = 0;
  for (i = 0; i < 16; i = i + 1) {
    a[i] = i * 3;
  }
  for (i = 0; i < 16; i = i + 1) {
    s = s + a[i];
  }
  print_int(s);
  return 0;
}
";

/// One grid: the source under two protection modes and every encoding,
/// run on bare machines (no result store, so both grids really execute
/// and their registry contributions are equal).
fn run_grid() {
    for mode in [Mode::HardBound, Mode::SoftBound] {
        let program = compile(SRC, mode).unwrap();
        for enc in PointerEncoding::ALL {
            let config = machine_config(mode, enc);
            let mut machine = build_machine_with_config(program.clone(), mode, config);
            let out = run_machine(&mut machine);
            assert_eq!(out.trap, None, "{mode}/{enc} trapped");
        }
    }
}

#[test]
fn per_run_deltas_are_stable_across_back_to_back_grids() {
    let before_first = metrics_snapshot();
    run_grid();
    let after_first = metrics_snapshot();
    run_grid();
    let after_second = metrics_snapshot();

    let first = after_first.delta(&before_first);
    let second = after_second.delta(&after_first);
    // The hierarchy fast-path counters are recorded per run, so identical
    // grids contribute identical deltas.
    for name in ["hb_hier_fastpath_hits", "hb_hier_fastpath_misses"] {
        assert!(
            first.counter(name) > 0,
            "{name}: first grid recorded nothing"
        );
        assert_eq!(
            first.counter(name),
            second.counter(name),
            "{name}: identical grids must show identical per-grid deltas"
        );
        // The regression the delta routing guards against: the absolute
        // registry has accumulated both grids, so reporting it as the
        // second run's activity would double-count.
        assert!(
            after_second.counter(name) >= 2 * first.counter(name),
            "{name}: registry no longer accumulates"
        );
        assert!(
            second.counter(name) < after_second.counter(name),
            "{name}: delta must exclude the earlier grid"
        );
    }
}
