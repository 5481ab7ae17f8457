//! The corpus-service differential suite: executing through
//! [`CorpusService`](hardbound::exec::CorpusService) — worker threads
//! behind the program-hash result store — must be observationally
//! identical to a direct [`Machine::run`](hardbound::core::Machine::run), across **all 15
//! mode × encoding configurations**, for hand-written programs and every
//! Olden port at smoke scale, and a warm service must *replay*
//! (result-store hits > 0) rather than re-simulate.
//!
//! The figure-pipeline half of the story — rendered tables byte-identical
//! on a warm replay — lives in `tests/service_figures_differential.rs`.

use hardbound::compiler::Mode;
use hardbound::core::{MachineConfig, PointerEncoding, RunOutcome};
use hardbound::exec::service::Job;
use hardbound::exec::CorpusService;
use hardbound::runtime::{build_machine_with_config, compile, machine_config};
use hardbound::workloads::{all, Scale};

const ALL_MODES: [Mode; 5] = [
    Mode::Baseline,
    Mode::MallocOnly,
    Mode::HardBound,
    Mode::SoftBound,
    Mode::ObjectTable,
];

const PROGRAMS: &[(&str, &str)] = &[
    (
        "heap-walk",
        r"
        struct node { int v; struct node *next; };
        int main() {
            struct node *head = 0;
            for (int i = 0; i < 11; i = i + 1) {
                struct node *n = (struct node*)malloc(sizeof(struct node));
                n->v = i * i; n->next = head; head = n;
            }
            int sum = 0;
            for (struct node *p = head; p != 0; p = p->next) sum = sum + p->v;
            print_int(sum);
            return 0;
        }
        ",
    ),
    (
        "strings-and-globals",
        r#"
        int g_tab[16];
        int main() {
            char *buf = (char*)malloc(32);
            strcpy(buf, "service");
            for (int i = 0; i < 16; i = i + 1) g_tab[i] = strlen(buf) + i;
            int s = 0;
            for (int i = 0; i < 16; i = i + 1) s = s + g_tab[i];
            print_int(s);
            print_str(buf);
            return 0;
        }
        "#,
    ),
];

fn build(
    program: hardbound::isa::Program,
    cfg: MachineConfig,
    mode: &Mode,
) -> hardbound::core::Machine {
    build_machine_with_config(program, *mode, cfg)
}

/// Direct path: a fresh machine per run.
fn direct(program: &hardbound::isa::Program, mode: Mode, cfg: &MachineConfig) -> RunOutcome {
    build_machine_with_config(program.clone(), mode, cfg.clone()).run()
}

#[test]
fn service_matches_direct_path_across_the_full_matrix() {
    // One long-lived service across the whole matrix: later configs run
    // against a store already warm with other programs and configs, which
    // is exactly the sharing the identity must survive.
    let mut svc = CorpusService::new(3);
    let olden = all(Scale::Smoke);
    let inputs: Vec<(&str, &str)> = PROGRAMS
        .iter()
        .copied()
        .chain(olden.iter().map(|w| (w.name, w.source.as_str())))
        .collect();
    for &(label, source) in &inputs {
        for mode in ALL_MODES {
            let program = compile(source, mode)
                .unwrap_or_else(|e| panic!("{label}: compile failed under {mode}: {e}"));
            for encoding in PointerEncoding::ALL {
                let cfg = machine_config(mode, encoding);
                let expected = direct(&program, mode, &cfg);
                let job = Job {
                    program: program.clone(),
                    config: cfg,
                    salt: mode as u64,
                    tag: mode,
                };
                let cold = svc.run_one(&job, build);
                let warm = svc.run_one(&job, build);
                assert_eq!(
                    cold, expected,
                    "{label}/{mode}/{encoding}: service cold run differs from the direct path"
                );
                assert_eq!(
                    warm, expected,
                    "{label}/{mode}/{encoding}: store replay differs from the direct path"
                );
            }
        }
    }
    let stats = svc.stats();
    let runs = (inputs.len() * ALL_MODES.len() * 3 * 2) as u64;
    assert_eq!(
        stats.store.hits + stats.store.misses,
        runs,
        "every run consults the store once: {stats:?}"
    );
    // At least every warm run replays; cold runs of software-scheme cells
    // that share one baseline configuration across encodings replay too.
    assert!(
        stats.store.hits >= runs / 2,
        "every warm run must be a result-store replay: {stats:?}"
    );
    assert!(stats.store.misses > 0, "cold cells must execute: {stats:?}");
}

#[test]
fn batch_and_one_by_one_agree() {
    let mode = Mode::HardBound;
    let program = compile(PROGRAMS[0].1, mode).expect("compiles");
    let jobs: Vec<Job<Mode>> = PointerEncoding::ALL
        .into_iter()
        .map(|encoding| Job {
            program: program.clone(),
            config: machine_config(mode, encoding),
            salt: mode as u64,
            tag: mode,
        })
        .collect();
    let mut batch_svc = CorpusService::new(4);
    let batched = batch_svc.run_batch(&jobs, build);
    let mut serial_svc = CorpusService::new(1);
    let serial: Vec<RunOutcome> = jobs.iter().map(|j| serial_svc.run_one(j, build)).collect();
    assert_eq!(batched, serial, "worker count must not change outcomes");
}
