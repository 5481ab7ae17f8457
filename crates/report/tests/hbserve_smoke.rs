//! End-to-end smoke tests of the `hbserve` binary: spawn a real server
//! process, drive cell grids through the `hardbound_serve` client, and
//! hold the remote path **byte-identical** to in-process execution — the
//! `HB_SERVE_ADDR` acceptance criterion. Also exercises `hbrun` as a
//! transparent client via the environment variable.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use hardbound_compiler::Mode;
use hardbound_core::PointerEncoding;
use hardbound_exec::Job;
use hardbound_runtime::{build_machine_with_config, compile, machine_config};
use hardbound_serve::{Client, PersistentService};
use hardbound_telemetry::scrape_value;

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
    let mut child = Command::new(env!("CARGO_BIN_EXE_hbserve"))
        .args(["--listen", "127.0.0.1:0"])
        .args(extra)
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
}
