//! End-to-end smoke tests of the **sharded hbserve cluster**: spawn real
//! `hbserve --shard k/n` processes, scatter a figure grid across them via
//! the runtime's consistent-hash client, and hold the cluster
//! **byte-identical** to a single in-process run — including with one
//! shard dead (the failover acceptance criterion: retry/re-route, never a
//! panic, never a wrong or missing cell).
//!
//! The observability acceptance rides the same harness: the `METRICS`
//! exposition of all shards must sum to the grid size, and a traced grid
//! (`HB_TRACE`) must produce one merged JSONL trace whose client
//! round-trip spans enclose the matching server-side execution spans —
//! with results byte-identical to tracing off, including on the
//! kill-one-shard re-route path.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use hardbound_compiler::Mode;
use hardbound_core::{PointerEncoding, RunOutcome};
use hardbound_runtime::{
    build_machine_with_config, compile, machine_config, metrics_snapshot, run_jobs_remote_to,
    SimJob,
};
use hardbound_serve::{Client, PersistentService};
use hardbound_telemetry::{scrape_value, trace, SpanEvent};

/// An `hbserve` child that dies with the test.
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
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hbserve"));
    cmd.args(["--listen", "127.0.0.1:0"]).args(extra);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let mut child = cmd
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

/// Spawns an `n`-shard cluster, each member told its ring position.
fn spawn_cluster(n: usize) -> Vec<ServerGuard> {
    (0..n)
        .map(|k| spawn_server(&["--shard", &format!("{k}/{n}")]))
        .collect()
}

fn addrs_of(cluster: &[ServerGuard]) -> Vec<String> {
    cluster.iter().map(|s| s.addr.clone()).collect()
}

/// One counter or gauge of a scraped `METRICS` exposition.
fn metric(text: &str, name: &str) -> u64 {
    scrape_value(text, name).unwrap_or_else(|| panic!("the exposition lacks {name}:\n{text}"))
}

/// Whether a `remote_rt` span records a failed attempt.
fn failed(rt: &SpanEvent) -> bool {
    rt.fields.iter().any(|(k, _)| k == "err")
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
        strcpy(buf, "cluster");
        print_str(buf);
        return strlen(buf);
    }
    "#,
];

const MODES: [Mode; 3] = [Mode::Baseline, Mode::HardBound, Mode::ObjectTable];

/// The figure grid (program × mode × encoding) as runtime jobs, plus the
/// matching in-process service jobs for the reference run.
fn grid() -> (Vec<SimJob>, Vec<hardbound_exec::Job<Mode>>) {
    let mut sim = Vec::new();
    let mut local = Vec::new();
    for source in PROGRAMS {
        for mode in MODES {
            let program = compile(source, mode).expect("compiles");
            for encoding in PointerEncoding::ALL {
                sim.push(SimJob::new(program.clone(), mode, encoding));
                local.push(hardbound_exec::Job {
                    program: program.clone(),
                    config: machine_config(mode, encoding),
                    salt: mode as u64,
                    tag: mode,
                });
            }
        }
    }
    (sim, local)
}

/// The single in-process reference run the cluster is measured against.
fn reference(local_jobs: &[hardbound_exec::Job<Mode>]) -> Vec<RunOutcome> {
    let mut svc = PersistentService::new(2);
    svc.run_batch(local_jobs, |program, config, &mode| {
        build_machine_with_config(program, mode, config)
    })
}

#[test]
fn three_shard_cluster_matches_the_in_process_run() {
    let cluster = spawn_cluster(3);
    let addrs = addrs_of(&cluster);
    let (sim_jobs, local_jobs) = grid();
    let expected = reference(&local_jobs);

    let out = run_jobs_remote_to(&addrs, &sim_jobs);
    assert_eq!(
        out, expected,
        "the sharded cluster must be byte-identical to a single in-process run"
    );

    // Distinct store keys in the grid (the software modes share one
    // baseline config across encodings, so those cells dedup).
    let distinct = local_jobs
        .iter()
        .map(hardbound_exec::Job::key)
        .collect::<std::collections::HashSet<_>>()
        .len() as u64;

    // Every shard served only cells it owns (no failover traffic on the
    // happy path), the work actually spread out, and across the cluster
    // each distinct key executed exactly once.
    let mut misses = 0;
    let mut served = 0;
    let mut scraped_cells = 0;
    for (k, guard) in cluster.iter().enumerate() {
        let mut client = Client::connect(&guard.addr).expect("connects");
        let text = client.metrics().expect("metrics");
        assert_eq!(
            metric(&text, "hbserve_shard_index"),
            k as u64,
            "banner order is shard order"
        );
        assert_eq!(metric(&text, "hbserve_shard_count"), 3);
        let owned = metric(&text, "hbserve_owned_cells");
        let foreign = metric(&text, "hbserve_foreign_cells");
        assert_eq!(foreign, 0, "shard {k} saw re-routed cells");
        assert!(owned > 0, "shard {k} sat idle");
        assert_eq!(
            metric(&text, "hbserve_submissions"),
            1,
            "one submission per shard"
        );
        assert_eq!(
            metric(&text, "hbserve_cells_in_flight"),
            0,
            "nothing in flight after DONE"
        );
        let shard_misses = metric(&text, "hbserve_store_misses");
        misses += shard_misses;
        served += metric(&text, "hbserve_store_hits") + shard_misses;

        // This shard executed exactly the cells the ring routed to it.
        let cells = metric(&text, "hbserve_cells_executed");
        assert_eq!(
            cells,
            owned + foreign,
            "shard {k}: executed cells must equal owned + foreign"
        );
        scraped_cells += cells;
        client.shutdown().expect("shutdown");
    }
    assert_eq!(misses, distinct, "each distinct key executed exactly once");
    assert_eq!(served, sim_jobs.len() as u64, "every cell was served");
    assert_eq!(
        scraped_cells,
        sim_jobs.len() as u64,
        "summed hbserve_cells_executed across the cluster must equal the grid size"
    );

    for mut guard in cluster {
        let status = guard.child.wait().expect("hbserve exits");
        assert!(status.success(), "hbserve must exit cleanly: {status}");
    }
}

#[test]
fn dead_shard_reroutes_to_survivors_with_zero_wrong_cells() {
    let mut cluster = spawn_cluster(3);
    let addrs = addrs_of(&cluster);
    let (sim_jobs, local_jobs) = grid();
    let expected = reference(&local_jobs);

    // Kill shard 1 outright: its cells must re-route to the survivors —
    // no panic, no wrong cell, no missing cell.
    {
        let dead = &mut cluster[1];
        dead.child.kill().expect("kill");
        dead.child.wait().expect("reap");
    }
    let before = metrics_snapshot().counter("hb_remote_reroutes");
    let out = run_jobs_remote_to(&addrs, &sim_jobs);
    assert_eq!(
        out, expected,
        "losing a shard must not change a single outcome"
    );
    let after = metrics_snapshot().counter("hb_remote_reroutes");
    assert!(
        after > before,
        "the dead shard's cells must re-route: {before} -> {after} re-routes"
    );

    // The survivors picked up the dead shard's cells as foreign traffic.
    let mut foreign = 0;
    for k in [0usize, 2] {
        let mut client = Client::connect(&cluster[k].addr).expect("connects");
        foreign += metric(&client.metrics().expect("metrics"), "hbserve_foreign_cells");
    }
    assert!(foreign > 0, "survivors must have served re-routed cells");
}

#[test]
fn shard_killed_mid_grid_recovers() {
    // A slower grid (distinct arithmetic loops) so the kill lands while
    // cells are still streaming; whenever it lands — before connect,
    // mid-stream, or after the grid finished — the client must come back
    // byte-identical.
    let cluster = spawn_cluster(2);
    let addrs = addrs_of(&cluster);
    let mut sim_jobs = Vec::new();
    let mut local_jobs = Vec::new();
    for k in 0..24 {
        let source = format!(
            "int main() {{\n\
               int s = 0;\n\
               for (int i = 0; i < {}; i = i + 1) s = s + i % 7;\n\
               print_int(s);\n\
               return 0;\n\
             }}",
            20_000 + k * 13
        );
        let program = compile(&source, Mode::HardBound).expect("compiles");
        sim_jobs.push(SimJob::new(
            program.clone(),
            Mode::HardBound,
            PointerEncoding::Intern4,
        ));
        local_jobs.push(hardbound_exec::Job {
            program,
            config: machine_config(Mode::HardBound, PointerEncoding::Intern4),
            salt: Mode::HardBound as u64,
            tag: Mode::HardBound,
        });
    }
    let expected = reference(&local_jobs);

    let mut cluster = cluster;
    let mut victim = cluster.remove(0);
    let killer = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(30));
        victim.child.kill().expect("kill");
        victim.child.wait().expect("reap");
    });
    let out = run_jobs_remote_to(&addrs, &sim_jobs);
    killer.join().expect("killer thread");
    drop(cluster);
    assert_eq!(
        out, expected,
        "a shard dying mid-grid must degrade to retry/re-route, not corrupt cells"
    );
}

/// The profiler acceptance criterion: a grid over a 3-shard cluster
/// running with `HB_PROF=1` yields per-shard hot-spot profiles whose
/// client-side merge conserves counts **exactly** — every merged block's
/// retire count equals the sum of that block's per-shard counts, and the
/// merged totals equal the summed per-shard totals. Profiling the servers
/// must not change a single grid outcome, and after a shard dies the
/// merge must degrade to the survivors (reported as skipped, never an
/// error).
#[test]
fn profiled_cluster_merges_with_exact_count_conservation() {
    let mut cluster: Vec<ServerGuard> = (0..3)
        .map(|k| spawn_server_with_env(&["--shard", &format!("{k}/3")], &[("HB_PROF", "1")]))
        .collect();
    let addrs = addrs_of(&cluster);
    let (sim_jobs, local_jobs) = grid();
    let expected = reference(&local_jobs);

    let out = run_jobs_remote_to(&addrs, &sim_jobs);
    assert_eq!(
        out, expected,
        "profiling on the servers must not change a single grid outcome"
    );

    // Scrape each shard the same way a dashboard would, then merge the
    // cluster through the runtime helper.
    let per_shard: Vec<hardbound_telemetry::Profile> = cluster
        .iter()
        .map(|g| {
            Client::connect(&g.addr)
                .expect("connects")
                .profile()
                .expect("profile scrape")
        })
        .collect();
    assert!(
        per_shard.iter().all(|p| p.total_execs() > 0),
        "every shard executed cells, so every shard must have profile data"
    );
    let (merged, skipped) = hardbound_runtime::cluster_profile(&addrs);
    assert!(skipped.is_empty(), "all shards alive, none may be skipped");

    // Exact conservation, block by block and in total.
    assert_eq!(
        merged.total_execs(),
        per_shard
            .iter()
            .map(hardbound_telemetry::Profile::total_execs)
            .sum::<u64>(),
        "merged block retires must equal the sum of per-shard scrapes"
    );
    assert_eq!(
        merged.total_cycles(),
        per_shard
            .iter()
            .map(hardbound_telemetry::Profile::total_cycles)
            .sum::<u64>(),
        "merged cycle attribution must equal the sum of per-shard scrapes"
    );
    for (key, stat) in &merged.blocks {
        let (execs, cycles) = per_shard
            .iter()
            .filter_map(|p| p.blocks.get(key))
            .fold((0u64, 0u64), |(e, c), s| (e + s.execs, c + s.cycles));
        assert_eq!(
            (stat.execs, stat.cycles),
            (execs, cycles),
            "block {key:?} not conserved by the merge"
        );
    }

    // Kill shard 1: the merge degrades to the survivors and stays exact.
    {
        let dead = &mut cluster[1];
        dead.child.kill().expect("kill");
        dead.child.wait().expect("reap");
    }
    let (survivors, skipped) = hardbound_runtime::cluster_profile(&addrs);
    assert_eq!(
        skipped,
        vec![addrs[1].clone()],
        "exactly the dead shard is reported as skipped"
    );
    assert_eq!(
        survivors.total_execs(),
        per_shard[0].total_execs() + per_shard[2].total_execs(),
        "survivor merge must equal the sum of the surviving shards' scrapes"
    );
}

/// The observability acceptance criterion: one traced grid over a
/// 3-shard cluster — with one shard killed to force the re-route path —
/// yields a single merged JSONL trace in which every successful client
/// round-trip span encloses the matching server-side execution span,
/// while the grid results stay byte-identical to tracing off.
#[test]
fn traced_cluster_produces_one_merged_trace_with_enclosing_spans() {
    // 14 distinct cells: a grid size no other test in this binary uses,
    // so this grid's root span is identifiable even though the trace
    // sink is process-global and other tests may emit concurrently.
    const CELLS: u64 = 14;
    let mut sim_jobs = Vec::new();
    let mut local_jobs = Vec::new();
    for k in 0..CELLS {
        let source = format!(
            "int main() {{\n\
               int *a = (int*)malloc({} * sizeof(int));\n\
               int s = 0;\n\
               for (int i = 0; i < {}; i = i + 1) {{ a[i] = i * {k}; s = s + a[i]; }}\n\
               print_int(s);\n\
               return 0;\n\
             }}",
            4 + k,
            4 + k,
        );
        let program = compile(&source, Mode::HardBound).expect("compiles");
        sim_jobs.push(SimJob::new(
            program.clone(),
            Mode::HardBound,
            PointerEncoding::Intern4,
        ));
        local_jobs.push(hardbound_exec::Job {
            program,
            config: machine_config(Mode::HardBound, PointerEncoding::Intern4),
            salt: Mode::HardBound as u64,
            tag: Mode::HardBound,
        });
    }
    let expected = reference(&local_jobs);

    // Precondition (deterministic in the consistent hash): the shard we
    // are about to kill owns cells, so the re-route path really runs.
    let ring = hardbound_serve::ShardRing::new(3);
    let owned_by_victim = sim_jobs
        .iter()
        .filter(|j| {
            let pid = hardbound_exec::ProgramId::of(&j.program, &j.config);
            let fp = hardbound_exec::service::config_fingerprint(&j.config, j.mode as u64);
            ring.owner_of_cell(pid.0, fp) == 1
        })
        .count();
    assert!(
        owned_by_victim > 0,
        "test grid routes no cells to shard 1; vary the generator"
    );

    let mut cluster = spawn_cluster(3);
    let addrs = addrs_of(&cluster);

    // Baseline with tracing off, on the full cluster.
    trace::disable();
    let untraced = run_jobs_remote_to(&addrs, &sim_jobs);
    assert_eq!(untraced, expected, "untraced cluster run disagrees");

    // Kill shard 1, then run the same grid traced: the dead shard's
    // cells re-route, and the trace must record both the failures and
    // the enclosing server spans of the successful attempts.
    {
        let dead = &mut cluster[1];
        dead.child.kill().expect("kill");
        dead.child.wait().expect("reap");
    }
    let path = std::env::temp_dir().join(format!("hb-cluster-trace-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    trace::install(&path).expect("trace sink installs");
    let traced = run_jobs_remote_to(&addrs, &sim_jobs);
    trace::disable();
    assert_eq!(
        traced, expected,
        "HB_TRACE on vs off must be byte-identical in grid results"
    );

    // Every emitted line re-parses under the documented schema.
    let text = std::fs::read_to_string(&path).expect("trace file exists");
    let events: Vec<SpanEvent> = text
        .lines()
        .map(|l| SpanEvent::parse(l).unwrap_or_else(|e| panic!("bad trace line {l:?}: {e}")))
        .collect();
    let _ = std::fs::remove_file(&path);

    // Exactly one grid root for this test's cell count; everything below
    // is keyed on its trace id — the "one coherent trace" criterion.
    let grids: Vec<&SpanEvent> = events
        .iter()
        .filter(|e| e.kind == "grid" && e.field_u64("cells") == Some(CELLS))
        .collect();
    assert_eq!(
        grids.len(),
        1,
        "expected exactly one {CELLS}-cell grid span"
    );
    let grid = grids[0];
    assert_eq!(grid.field_u64("shards"), Some(3));
    assert_eq!(grid.field_u64("failures"), Some(0));
    let in_trace: Vec<&SpanEvent> = events.iter().filter(|e| e.trace == grid.trace).collect();

    let rts: Vec<&&SpanEvent> = in_trace.iter().filter(|e| e.kind == "remote_rt").collect();
    let execs: Vec<&&SpanEvent> = in_trace
        .iter()
        .filter(|e| e.kind == "submit_exec")
        .collect();
    assert!(!rts.is_empty(), "no round-trip spans in the grid trace");

    // The re-route story is attributable: the dead shard left failed
    // attempts (an err field), and at least one later hop succeeded
    // elsewhere.
    let failures: Vec<&&&SpanEvent> = rts.iter().filter(|e| failed(e)).collect();
    assert!(
        !failures.is_empty(),
        "the killed shard must leave failed round-trip spans"
    );
    assert!(
        failures.iter().all(|e| e.field_u64("shard") == Some(1)),
        "every failed attempt names the shard that died"
    );
    assert!(
        rts.iter()
            .any(|e| e.field_u64("hop").is_some_and(|h| h > 0) && !failed(e)),
        "a re-routed (hop > 0) round trip must have succeeded"
    );

    // Enclosure: every successful round trip parents exactly one server
    // execution span (same trace, parent = the client span), and the
    // server's wall-clock window sits inside the client's.
    // SystemTime is shared across local processes; the slack absorbs
    // microsecond rounding at the window edges.
    const SLACK_US: u64 = 5_000;
    let mut cells_enclosed = 0;
    for rt in rts.iter().filter(|e| !failed(e)) {
        let matches: Vec<&&&SpanEvent> = execs.iter().filter(|e| e.parent == rt.span).collect();
        assert_eq!(
            matches.len(),
            1,
            "round trip {:?} must parent exactly one server exec span",
            rt.span
        );
        let ex = matches[0];
        assert!(
            ex.start_us + SLACK_US >= rt.start_us,
            "server span starts before its round trip: {ex:?} vs {rt:?}"
        );
        assert!(
            ex.end_us() <= rt.end_us() + SLACK_US,
            "server span outlives its round trip: {ex:?} vs {rt:?}"
        );
        // The per-chunk children the server shipped back ride under the
        // exec span.
        assert!(
            in_trace
                .iter()
                .any(|c| c.kind == "chunk" && c.parent == ex.span),
            "exec span {:?} has no chunk children",
            ex.span
        );
        cells_enclosed += ex.field_u64("cells").expect("exec spans carry cells");
    }
    assert!(
        cells_enclosed >= CELLS,
        "every cell must be covered by an enclosed server span \
         (got {cells_enclosed} of {CELLS}; resubmissions may exceed)"
    );
}
