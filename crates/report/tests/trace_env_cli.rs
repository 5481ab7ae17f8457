//! The `HB_TRACE` environment path, through the real binary: an `hbrun`
//! process with `HB_TRACE=path` in its environment must run to
//! completion, produce output byte-identical to an untraced run, and
//! leave a sink where every line re-parses. The in-process suites all
//! install the sink programmatically ([`trace::install`]), so only a
//! spawned process exercises the settings loader installing the sink for
//! `HB_TRACE` when `hbrun` starts. That path once deadlocked, when the
//! telemetry crate read the variable lazily behind a `Once` that
//! `install` re-entered; the watchdog below turns a hang on this path
//! back into a test failure instead of a CI hang.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::Duration;

use hardbound_telemetry::SpanEvent;

const SOURCE: &str = r"
    int main() {
        int *a = (int*)malloc(6 * sizeof(int));
        for (int i = 0; i < 6; i = i + 1) a[i] = i * 7;
        int s = 0;
        for (int i = 0; i < 6; i = i + 1) s = s + a[i];
        print_int(s);
        free(a);
        return 0;
    }
";

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hbrun-trace-env-{}-{name}", std::process::id()))
}

/// Runs `hbrun` with the given extra env, killing it (and failing the
/// test) if it does not exit within 60 seconds — the regression this
/// suite pins was a deadlock, and a deadlock must not become a CI hang.
fn hbrun_watchdogged(cb: &Path, envs: &[(&str, &PathBuf)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hbrun"));
    cmd.arg(cb.to_str().unwrap());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.stdout(std::process::Stdio::piped());
    cmd.stderr(std::process::Stdio::piped());
    let mut child = cmd.spawn().expect("hbrun spawns");
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        match child.try_wait().expect("wait works") {
            Some(_) => return child.wait_with_output().expect("output collects"),
            None if std::time::Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("hbrun did not exit within 60s — the HB_TRACE env path hangs");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

#[test]
fn hb_trace_env_runs_to_completion_and_sink_parses() {
    let cb = temp("prog.cb");
    let sink = temp("trace.jsonl");
    std::fs::write(&cb, SOURCE).expect("source writes");
    let _ = std::fs::remove_file(&sink);

    let untraced = hbrun_watchdogged(&cb, &[]);
    assert!(untraced.status.success(), "{untraced:?}");

    let traced = hbrun_watchdogged(&cb, &[("HB_TRACE", &sink)]);
    assert!(traced.status.success(), "{traced:?}");
    assert_eq!(
        untraced.stdout, traced.stdout,
        "HB_TRACE must not change a byte of program output"
    );

    let text = std::fs::read_to_string(&sink).expect("trace sink written");
    let _ = std::fs::remove_file(&sink);
    assert!(!text.trim().is_empty(), "the traced run must emit spans");
    let mut kinds = std::collections::BTreeSet::new();
    for line in text.lines() {
        let ev = SpanEvent::parse(line)
            .unwrap_or_else(|e| panic!("unparseable trace line {line:?}: {e}"));
        kinds.insert(ev.kind);
    }
    // A local service run stamps at least the compile and batch kinds.
    for kind in ["compile", "batch", "store_lookup", "batch_exec"] {
        assert!(kinds.contains(kind), "missing `{kind}` spans: {kinds:?}");
    }

    // Two *processes* must never mint the same ids: a second traced run
    // (fresh process, fresh sink) shares no trace or span id with the
    // first. The id generator once hashed its pre-seed counter value, so
    // every process's first id — a client's first trace and the server
    // serving it's first span — was one deterministic constant.
    let sink2 = temp("trace2.jsonl");
    let _ = std::fs::remove_file(&sink2);
    let traced2 = hbrun_watchdogged(&cb, &[("HB_TRACE", &sink2)]);
    assert!(traced2.status.success(), "{traced2:?}");
    let text2 = std::fs::read_to_string(&sink2).expect("second trace sink written");
    let _ = std::fs::remove_file(&sink2);
    let _ = std::fs::remove_file(&cb);
    let ids = |t: &str| -> std::collections::BTreeSet<u64> {
        t.lines()
            .map(|l| SpanEvent::parse(l).expect("parses"))
            .flat_map(|ev| [ev.trace.0, ev.span.0])
            .collect()
    };
    let shared: Vec<u64> = ids(&text).intersection(&ids(&text2)).copied().collect();
    assert!(
        shared.is_empty(),
        "two processes minted the same ids: {shared:x?}"
    );
}
