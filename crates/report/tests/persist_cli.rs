//! Cross-process persistence differential, through the real binary: an
//! `hbrun` under `HB_STORE_PATH` persists its cell; a second `hbrun`
//! **process** on the same path replays it byte-identically with zero
//! re-simulated cells (store stats prove the replay). This is the
//! acceptance criterion the in-process suites cannot cover — every byte
//! of warm state crosses a process boundary here.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SOURCE: &str = r"
    int main() {
        int *a = (int*)malloc(6 * sizeof(int));
        for (int i = 0; i < 6; i = i + 1) a[i] = i * i;
        int s = 0;
        for (int i = 0; i < 6; i = i + 1) s = s + a[i];
        print_int(s);
        free(a);
        return 0;
    }
";

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hbrun-persist-{}-{name}", std::process::id()))
}

/// Removes a test store and the lock file its opens leave behind.
fn remove_store(store: &Path) {
    let _ = std::fs::remove_file(store);
    let _ = std::fs::remove_file(format!("{}.lock", store.display()));
}

fn hbrun(cb: &Path, store: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hbrun"))
        .arg(cb.to_str().unwrap())
        .arg("--stats")
        .env("HB_STORE_PATH", store)
        .output()
        .expect("hbrun spawns")
}

#[test]
fn warm_replay_survives_a_process_restart() {
    let cb = temp("prog.cb");
    let store = temp("store.bin");
    std::fs::write(&cb, SOURCE).expect("source writes");
    remove_store(&store);

    let cold = hbrun(&cb, &store);
    assert!(cold.status.success(), "{cold:?}");
    let cold_err = String::from_utf8_lossy(&cold.stderr);
    assert!(
        cold_err.contains("result store:    0 hits, 1 misses"),
        "the first process simulates its cell: {cold_err}"
    );
    assert!(
        cold_err.contains("store log:       0 loaded, 1 appended"),
        "the outcome must be persisted: {cold_err}"
    );
    assert!(store.exists(), "the store file must exist after the run");

    let warm = hbrun(&cb, &store);
    assert!(warm.status.success(), "{warm:?}");
    assert_eq!(
        cold.stdout, warm.stdout,
        "cross-process warm replay must be byte-identical"
    );
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(
        warm_err.contains("result store:    1 hits, 0 misses"),
        "the restarted process must replay with zero re-simulated cells: {warm_err}"
    );
    assert!(
        warm_err.contains("store log:       1 loaded, 0 appended"),
        "replays append nothing: {warm_err}"
    );
    // The cycle decompositions agree line for line (stats are computed
    // from the replayed outcome, which is byte-identical).
    let stat_lines = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.starts_with("cycles:") || l.starts_with("µops:"))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(stat_lines(&cold_err), stat_lines(&warm_err));

    let _ = std::fs::remove_file(&cb);
    remove_store(&store);
}

#[test]
fn corrupt_store_recovers_and_recomputes() {
    let cb = temp("recover.cb");
    let store = temp("recover-store.bin");
    std::fs::write(&cb, SOURCE).expect("source writes");
    remove_store(&store);

    let cold = hbrun(&cb, &store);
    assert!(cold.status.success(), "{cold:?}");

    // Tear the file mid-record: the next process must load cleanly and
    // recompute exactly the lost cell.
    let bytes = std::fs::read(&store).expect("store exists");
    std::fs::write(&store, &bytes[..bytes.len() - 9]).expect("truncates");

    let recovered = hbrun(&cb, &store);
    assert!(recovered.status.success(), "{recovered:?}");
    assert_eq!(cold.stdout, recovered.stdout, "recovery changes nothing");
    let err = String::from_utf8_lossy(&recovered.stderr);
    assert!(
        err.contains("result store:    0 hits, 1 misses"),
        "the torn cell re-executes: {err}"
    );
    assert!(
        err.contains("store log:       0 loaded, 1 appended"),
        "…and is re-persisted: {err}"
    );

    // Third process: warm again.
    let warm = hbrun(&cb, &store);
    let err = String::from_utf8_lossy(&warm.stderr);
    assert!(
        err.contains("result store:    1 hits, 0 misses"),
        "the re-persisted store serves the third process: {err}"
    );

    let _ = std::fs::remove_file(&cb);
    remove_store(&store);
}
