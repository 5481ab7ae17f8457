//! End-to-end smoke tests of the `hbserve` binary: spawn a real server
//! process, drive cell grids through the `hardbound_serve` client, and
//! hold the remote path **byte-identical** to in-process execution — the
//! `HB_SERVE_ADDR` acceptance criterion. Also exercises `hbrun` as a
//! transparent client via the environment variable, the runtime client
//! (`run_jobs_remote_to`) traced and against a profiling server, and the
//! store-log lock across processes.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use hardbound_compiler::Mode;
use hardbound_core::{PointerEncoding, RunOutcome};
use hardbound_exec::Job;
use hardbound_runtime::{
    build_machine_with_config, compile, machine_config, run_jobs_remote_to, SimJob,
};
use hardbound_serve::{Client, PersistentService, StoreLog};
use hardbound_telemetry::{scrape_value, trace, SpanEvent};

/// An `hbserve` child that dies with the test (no orphaned listeners when
/// an assertion fails before the explicit shutdown).
struct ServerGuard {
    child: Child,
    addr: String,
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_server(extra: &[&str]) -> ServerGuard {
    spawn_server_with_env(extra, &[])
}

fn spawn_server_with_env(extra: &[&str], env: &[(&str, &str)]) -> ServerGuard {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hbserve"))
        .args(["--listen", "127.0.0.1:0"])
        .args(extra)
        .envs(env.iter().copied())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("hbserve spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("hbserve prints its address");
    let addr = line
        .trim()
        .strip_prefix("hbserve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_owned();
    ServerGuard { child, addr }
}

/// One counter or gauge of the server's `METRICS` exposition.
fn scrape(client: &mut Client, name: &str) -> u64 {
    let text = client.metrics().expect("metrics");
    scrape_value(&text, name).unwrap_or_else(|| panic!("the exposition lacks {name}:\n{text}"))
}

const PROGRAMS: &[&str] = &[
    r"
    struct node { int v; struct node *next; };
    int main() {
        struct node *head = 0;
        for (int i = 0; i < 9; i = i + 1) {
            struct node *n = (struct node*)malloc(sizeof(struct node));
            n->v = i * 3; n->next = head; head = n;
        }
        int s = 0;
        for (struct node *p = head; p != 0; p = p->next) s = s + p->v;
        print_int(s);
        return 0;
    }
    ",
    r#"
    int main() {
        char *buf = (char*)malloc(16);
        strcpy(buf, "remote");
        print_str(buf);
        return strlen(buf);
    }
    "#,
];

const MODES: [Mode; 3] = [Mode::Baseline, Mode::HardBound, Mode::ObjectTable];

/// The test grid: every program × mode × encoding, as remote jobs
/// (tagged with the mode's number, as `hbserve` expects) plus the matching
/// in-process service jobs.
fn grid() -> (Vec<Job<u64>>, Vec<Job<Mode>>) {
    let mut local = Vec::new();
    for source in PROGRAMS {
        for mode in MODES {
            let program = compile(source, mode).expect("compiles");
            for encoding in PointerEncoding::ALL {
                local.push(Job {
                    program: program.clone(),
                    config: machine_config(mode, encoding),
                    salt: mode as u64,
                    tag: mode,
                });
            }
        }
    }
    let remote = local
        .iter()
        .map(|j| Job {
            program: j.program.clone(),
            config: j.config.clone(),
            salt: j.salt,
            tag: j.tag as u64,
        })
        .collect();
    (remote, local)
}

#[test]
fn remote_grid_is_byte_identical_to_in_process_service() {
    let server = spawn_server(&[]);
    let (remote_jobs, local_jobs) = grid();

    // The in-process reference: the same grid through a local service —
    // what `run_jobs` runs without `HB_SERVE_ADDR`.
    let mut svc = PersistentService::new(2);
    let expected = svc.run_batch(&local_jobs, |program, config, &mode| {
        build_machine_with_config(program, mode, config)
    });

    let mut client = Client::connect(&server.addr).expect("connects");
    let cold = client.run_jobs(&remote_jobs).expect("remote batch runs");
    assert_eq!(
        cold, expected,
        "hbserve outcomes must be byte-identical to the in-process service"
    );

    // Warm pass: every cell replays from the server's store.
    let hits_before = scrape(&mut client, "hbserve_store_hits");
    let misses_before = scrape(&mut client, "hbserve_store_misses");
    let warm = client
        .run_jobs(&remote_jobs)
        .expect("remote warm batch runs");
    assert_eq!(warm, expected, "warm replay must be byte-identical");
    assert_eq!(
        scrape(&mut client, "hbserve_store_hits") - hits_before,
        remote_jobs.len() as u64,
        "the warm pass must be pure replay"
    );
    assert_eq!(
        scrape(&mut client, "hbserve_store_misses"),
        misses_before,
        "no new executions"
    );

    client.shutdown().expect("shutdown");
    let mut guard = server;
    let status = guard.child.wait().expect("hbserve exits");
    assert!(status.success(), "hbserve must exit cleanly: {status}");
}

#[test]
fn hbrun_offloads_transparently_via_hb_serve_addr() {
    let server = spawn_server(&[]);
    let cb = std::env::temp_dir().join(format!("hbserve-test-{}.cb", std::process::id()));
    std::fs::write(&cb, PROGRAMS[0]).expect("temp source writes");
    let run = |envs: &[(&str, &str)]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_hbrun"));
        cmd.arg(cb.to_str().unwrap()).arg("--stats");
        for (k, v) in envs {
            cmd.env(k, v);
        }
        cmd.output().expect("hbrun runs")
    };
    let local = run(&[]);
    let remote = run(&[("HB_SERVE_ADDR", server.addr.as_str())]);
    assert!(local.status.success(), "{:?}", local);
    assert!(remote.status.success(), "{:?}", remote);
    assert_eq!(
        local.stdout, remote.stdout,
        "remote offload must not change program output"
    );
    assert_eq!(local.status.code(), remote.status.code());
    let stderr = String::from_utf8_lossy(&remote.stderr);
    assert!(
        stderr.contains("remote server:   1 round-trips, 1 cells shipped"),
        "remote stats must be surfaced: {stderr}"
    );

    let mut client = Client::connect(&server.addr).expect("connects");
    assert_eq!(
        scrape(&mut client, "hbserve_store_misses"),
        1,
        "the server executed hbrun's cell"
    );
    client.shutdown().expect("shutdown");
    let _ = std::fs::remove_file(&cb);
}

#[test]
fn persistent_server_restarts_warm() {
    let store = std::env::temp_dir().join(format!("hbserve-store-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&store);
    let (remote_jobs, local_jobs) = grid();
    // Distinct store keys: cells sharing a `(program, config, salt)` —
    // the software modes run one baseline config for all encodings —
    // dedup within the batch, so only the distinct keys execute cold.
    let distinct = local_jobs
        .iter()
        .map(Job::key)
        .collect::<std::collections::HashSet<_>>()
        .len() as u64;

    // First server: cold, computes and persists.
    let server = spawn_server(&["--store", store.to_str().unwrap()]);
    let mut client = Client::connect(&server.addr).expect("connects");
    let cold = client.run_jobs(&remote_jobs).expect("cold batch");
    assert_eq!(scrape(&mut client, "hbserve_store_misses"), distinct);
    client.shutdown().expect("shutdown");
    drop(client);
    let mut guard = server;
    assert!(guard.child.wait().expect("exits").success());
    drop(guard);

    // Second server process: the store file is its only warm state.
    let server = spawn_server(&["--store", store.to_str().unwrap()]);
    let mut client = Client::connect(&server.addr).expect("connects");
    let warm = client.run_jobs(&remote_jobs).expect("warm batch");
    assert_eq!(
        warm, cold,
        "a restarted hbserve must replay byte-identically from disk"
    );
    assert_eq!(
        scrape(&mut client, "hbserve_store_misses"),
        0,
        "zero re-simulated cells after restart"
    );
    assert_eq!(
        scrape(&mut client, "hbserve_store_hits"),
        remote_jobs.len() as u64
    );
    client.shutdown().expect("shutdown");
    let _ = std::fs::remove_file(&store);
    let _ = std::fs::remove_file(format!("{}.lock", store.display()));
}

/// The in-process reference for `local`, and the same cells as runtime
/// jobs for `run_jobs_remote_to`.
fn reference(local: &[Job<Mode>]) -> (Vec<SimJob>, Vec<RunOutcome>) {
    let sim = local
        .iter()
        .map(|j| SimJob {
            program: j.program.clone(),
            mode: j.tag,
            config: j.config.clone(),
        })
        .collect();
    let mut svc = PersistentService::new(2);
    let expected = svc.run_batch(local, |program, config, &mode| {
        build_machine_with_config(program, mode, config)
    });
    (sim, expected)
}

#[test]
fn traced_grid_is_one_trace_with_enclosed_server_spans() {
    // A grid size no other test in this binary submits, so this grid's
    // root span is identifiable in the process-global trace sink.
    const CELLS: u64 = 14;
    let local: Vec<Job<Mode>> = (0..CELLS)
        .map(|k| {
            let source = format!(
                "int main() {{\n\
                   int *a = (int*)malloc({n} * sizeof(int));\n\
                   int s = 0;\n\
                   for (int i = 0; i < {n}; i = i + 1) {{ a[i] = i * {k}; s = s + a[i]; }}\n\
                   print_int(s);\n\
                   return 0;\n\
                 }}",
                n = 4 + k,
            );
            Job {
                program: compile(&source, Mode::HardBound).expect("compiles"),
                config: machine_config(Mode::HardBound, PointerEncoding::Intern4),
                salt: Mode::HardBound as u64,
                tag: Mode::HardBound,
            }
        })
        .collect();
    let (sim_jobs, expected) = reference(&local);
    let server = spawn_server(&[]);
    let addrs = [server.addr.clone()];

    let untraced = run_jobs_remote_to(&addrs, &sim_jobs);
    assert_eq!(untraced, expected, "untraced remote run disagrees");

    let path = std::env::temp_dir().join(format!("hbserve-trace-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    trace::install(&path).expect("trace sink installs");
    let traced = run_jobs_remote_to(&addrs, &sim_jobs);
    trace::disable();
    assert_eq!(traced, untraced, "tracing must not change an outcome");

    // Every emitted line re-parses under the documented schema.
    let text = std::fs::read_to_string(&path).expect("trace file exists");
    let _ = std::fs::remove_file(&path);
    let events: Vec<SpanEvent> = text
        .lines()
        .map(|l| SpanEvent::parse(l).unwrap_or_else(|e| panic!("bad trace line {l:?}: {e}")))
        .collect();
    let grids: Vec<&SpanEvent> = events
        .iter()
        .filter(|e| e.kind == "grid" && e.field_u64("cells") == Some(CELLS))
        .collect();
    assert_eq!(grids.len(), 1, "expected one {CELLS}-cell grid root");
    let grid = grids[0];
    let in_trace: Vec<&SpanEvent> = events.iter().filter(|e| e.trace == grid.trace).collect();

    // One successful round trip under the root, naming the server.
    let rts: Vec<&&SpanEvent> = in_trace.iter().filter(|e| e.kind == "remote_rt").collect();
    assert_eq!(rts.len(), 1, "{rts:?}");
    let rt = rts[0];
    assert_eq!(rt.parent, grid.span);
    assert!(!rt.fields.iter().any(|(k, _)| k == "err"), "{rt:?}");
    assert_eq!(rt.field_u64("cells"), Some(CELLS));

    // The server's execution span sits under the round trip and inside
    // its wall-clock window (slack for µs rounding across processes),
    // with its chunk spans under it.
    const SLACK_US: u64 = 5_000;
    let execs: Vec<&&SpanEvent> = in_trace
        .iter()
        .filter(|e| e.kind == "submit_exec")
        .collect();
    assert_eq!(execs.len(), 1, "{execs:?}");
    let ex = execs[0];
    assert_eq!(ex.parent, rt.span);
    assert_eq!(ex.field_u64("cells"), Some(CELLS));
    assert!(ex.start_us + SLACK_US >= rt.start_us, "{ex:?} vs {rt:?}");
    assert!(ex.end_us() <= rt.end_us() + SLACK_US, "{ex:?} vs {rt:?}");
    let chunk_cells: u64 = in_trace
        .iter()
        .filter(|c| c.kind == "chunk" && c.parent == ex.span)
        .map(|c| c.field_u64("cells").expect("chunk spans carry cells"))
        .sum();
    assert_eq!(chunk_cells, CELLS, "the chunks cover every cell once");
}

#[test]
fn profiled_server_returns_identical_outcomes_and_a_profile() {
    let server = spawn_server_with_env(&[], &[("HB_PROF", "1")]);
    let (_, local_jobs) = grid();
    let (sim_jobs, expected) = reference(&local_jobs);
    let out = run_jobs_remote_to(std::slice::from_ref(&server.addr), &sim_jobs);
    assert_eq!(
        out, expected,
        "profiling on the server must not change a single outcome"
    );
    let mut client = Client::connect(&server.addr).expect("connects");
    let profile = client.profile().expect("profile scrape");
    assert!(profile.total_execs() > 0, "the server profiled its runs");
    client.shutdown().expect("shutdown");
}

#[test]
fn shard_flag_is_unknown_to_hbserve() {
    // One hbserve serves every cell; there is no cluster to place it in.
    let out = Command::new(env!("CARGO_BIN_EXE_hbserve"))
        .args(["--listen", "127.0.0.1:0", "--shard", "0/3"])
        .output()
        .expect("hbserve runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "nothing bound: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unexpected argument `--shard`"),
        "stderr: {stderr}"
    );
}

#[test]
#[should_panic(expected = "HB_SERVE_ADDR accepts one hbserve address, got 2")]
fn two_addresses_panic_with_the_one_address_diagnostic() {
    let program = compile(PROGRAMS[0], Mode::HardBound).expect("compiles");
    let sim_jobs = [SimJob::new(
        program,
        Mode::HardBound,
        PointerEncoding::Intern4,
    )];
    let addrs = ["127.0.0.1:1".to_owned(), "127.0.0.1:2".to_owned()];
    let _ = run_jobs_remote_to(&addrs, &sim_jobs);
}

#[test]
fn killed_server_releases_its_store_lock() {
    let store = std::env::temp_dir().join(format!("hbserve-lock-{}.bin", std::process::id()));
    let lock = format!("{}.lock", store.display());
    let _ = std::fs::remove_file(&store);
    let (remote_jobs, local_jobs) = grid();
    let distinct = local_jobs
        .iter()
        .map(Job::key)
        .collect::<std::collections::HashSet<_>>()
        .len();

    let mut server = spawn_server(&["--store", store.to_str().unwrap()]);
    let mut client = Client::connect(&server.addr).expect("connects");
    client.run_jobs(&remote_jobs).expect("grid runs");
    // The live server owns the log: this process may read it, not write.
    let shared = StoreLog::open(&store).expect("log opens");
    assert!(!shared.log.is_writable(), "the server holds the lock");
    assert_eq!(shared.entries.len(), distinct, "flushed once per batch");
    drop(shared);

    // SIGKILL: no shutdown, no checkpoint, no clean-up of any kind.
    server.child.kill().expect("kill");
    server.child.wait().expect("reap");
    let reopened = StoreLog::open(&store).expect("log reopens");
    assert!(reopened.log.is_writable(), "a dead server holds no lock");
    assert_eq!(reopened.entries.len(), distinct);
    drop(reopened);
    let _ = std::fs::remove_file(&store);
    let _ = std::fs::remove_file(&lock);
}
