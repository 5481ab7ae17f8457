//! Timing-group differential: a batch that mixes timing-only variants of
//! one functional run (the §5.4 check-µop ablation, the §5.1 tag-cache
//! sweep and other cache block sizes) must give every cell the outcome a
//! separate run of that cell's full configuration gives, byte for byte on
//! the whole [`RunOutcome`].
//!
//! The reference is a separate run of a fresh machine ([`Machine::run`])
//! per cell. The grouped runs are checked two ways: through
//! [`PersistentService::run_batch`], the path the figure grid, hbrun and
//! hbserve take, and as one machine per group with
//! [`Machine::set_timing_variants`]. The fuel rule — a
//! variant whose separate run could stop elsewhere runs on its own — is
//! pinned with a fuel limit only the check-µop cell exceeds, and the
//! profiling rule — a profiled batch runs every cell on its own — by
//! comparing profiles.

use hardbound::cache::HierarchyConfig;
use hardbound::compiler::Mode;
use hardbound::core::{
    FunctionalKey, HardboundConfig, Machine, MachineConfig, PointerEncoding, RunOutcome, Trap,
};
use hardbound::exec::service::Job;
use hardbound::exec::{run_machine, ProgramId};
use hardbound::isa::Program;
use hardbound::runtime::{build_machine_with_config, compile, machine_config};
use hardbound::serve::PersistentService;
use hardbound::telemetry::profile;
use hardbound::violations::corpus;
use hardbound::workloads::{all, Scale};

/// The tag-cache capacities of the §5.1 sensitivity sweep in the figure
/// grid.
const TAG_CACHE_SWEEP: [u64; 5] = [1024, 2 * 1024, 4 * 1024, 8 * 1024, 16 * 1024];

fn build(program: Program, cfg: MachineConfig, mode: &Mode) -> Machine {
    build_machine_with_config(program, *mode, cfg)
}

/// HardBound intern-4 with the tag cache resized to `bytes`.
fn intern4_with_tag_cache(bytes: u64) -> MachineConfig {
    let cfg = machine_config(Mode::HardBound, PointerEncoding::Intern4);
    let hierarchy = cfg.hierarchy.with_tag_cache_bytes(bytes);
    cfg.with_hierarchy(hierarchy)
}

/// `cfg` with the §5.4 check-µop ablation on.
fn with_check_uop(cfg: MachineConfig) -> MachineConfig {
    let hb = cfg.hardbound.expect("a HardBound configuration");
    MachineConfig {
        hardbound: Some(hb.with_check_uop()),
        ..cfg
    }
}

/// The 13 distinct `(mode, configuration)` specs of the figure grid:
/// Figs. 5–7, the check-µop ablation and the tag-cache sweep.
fn figure_specs() -> Vec<(Mode, MachineConfig)> {
    let mut specs = vec![
        (
            Mode::Baseline,
            machine_config(Mode::Baseline, PointerEncoding::Intern4),
        ),
        (
            Mode::ObjectTable,
            machine_config(Mode::ObjectTable, PointerEncoding::Intern4),
        ),
        (
            Mode::SoftBound,
            machine_config(Mode::SoftBound, PointerEncoding::Intern4),
        ),
    ];
    for encoding in PointerEncoding::ALL {
        specs.push((Mode::HardBound, machine_config(Mode::HardBound, encoding)));
        specs.push((
            Mode::HardBound,
            MachineConfig::hardbound(HardboundConfig::full(encoding).with_check_uop()),
        ));
    }
    for bytes in TAG_CACHE_SWEEP {
        specs.push((Mode::HardBound, intern4_with_tag_cache(bytes)));
    }
    let mut distinct: Vec<(Mode, MachineConfig)> = Vec::new();
    for s in specs {
        if !distinct.contains(&s) {
            distinct.push(s);
        }
    }
    assert_eq!(distinct.len(), 13, "the figure grid has 13 distinct specs");
    distinct
}

/// The violation corpus's HardBound intern-4 cell and its timing
/// variants: the check-µop ablation and every other tag-cache size.
fn corpus_variants() -> Vec<MachineConfig> {
    let base = machine_config(Mode::HardBound, PointerEncoding::Intern4);
    let mut cfgs = vec![base.clone(), with_check_uop(base.clone())];
    for bytes in TAG_CACHE_SWEEP {
        let cfg = intern4_with_tag_cache(bytes);
        if cfg != base {
            cfgs.push(cfg);
        }
    }
    cfgs
}

/// The separate reference run of one cell.
fn separate(job: &Job<Mode>) -> RunOutcome {
    build(job.program.clone(), job.config.clone(), &job.tag).run()
}

/// The cells of `jobs` that share a program image, salt and functional
/// key, each led by a check-µop cell when it has one.
fn groups_of(jobs: &[Job<Mode>]) -> Vec<Vec<usize>> {
    let mut groups: Vec<(ProgramId, u64, FunctionalKey, Vec<usize>)> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let key = job.config.functional_key();
        let image = ProgramId::of(&job.program, key.config());
        match groups
            .iter_mut()
            .find(|(p, salt, k, _)| (*p, *salt) == (image, job.salt) && *k == key)
        {
            Some((.., cells)) => cells.push(i),
            None => groups.push((image, job.salt, key, vec![i])),
        }
    }
    groups
        .into_iter()
        .map(|(.., mut cells)| {
            if let Some(lead) = cells
                .iter()
                .position(|&i| jobs[i].config.timing().check_uop)
            {
                cells.swap(0, lead);
            }
            cells
        })
        .collect()
}

/// One grouped run: `group[0]`'s machine times the other cells as
/// variants. Returns each cell's outcome in group order, `None` for a
/// variant the machine declined to time.
fn grouped(jobs: &[Job<Mode>], group: &[usize]) -> Vec<Option<RunOutcome>> {
    let lead = &jobs[group[0]];
    let variants: Vec<MachineConfig> = group[1..].iter().map(|&i| jobs[i].config.clone()).collect();
    let mut machine = build(lead.program.clone(), lead.config.clone(), &lead.tag);
    machine.set_timing_variants(&variants);
    let out = machine.run();
    let derived = machine.timing_variant_outcomes(&out);
    std::iter::once(Some(out)).chain(derived).collect()
}

/// Checks every cell of `jobs` against its separate run two ways: as one
/// service batch, and as grouped runs. The batch must simulate
/// `functional_runs` times.
fn check_batch(labels: &[String], jobs: &[Job<Mode>], functional_runs: u64) {
    let expected: Vec<RunOutcome> = jobs.iter().map(separate).collect();

    let mut svc = PersistentService::new(2);
    let batched = svc.run_batch(jobs, build);
    assert_eq!(batched.len(), jobs.len());
    for ((label, out), want) in labels.iter().zip(&batched).zip(&expected) {
        assert_eq!(
            out, want,
            "{label}: batched cell differs from a separate run"
        );
    }
    let mut keys: Vec<_> = jobs.iter().map(Job::key).collect();
    keys.sort_unstable();
    keys.dedup();
    let stats = svc.stats().service;
    assert_eq!(
        stats.store.misses as usize,
        keys.len(),
        "every distinct cell misses once"
    );
    assert_eq!(
        stats.functional_runs, functional_runs,
        "one simulation per timing group"
    );

    for group in groups_of(jobs) {
        for (&i, out) in group.iter().zip(grouped(jobs, &group)) {
            let label = &labels[i];
            let out = out.unwrap_or_else(|| panic!("{label}: no grouped outcome"));
            assert_eq!(
                out, expected[i],
                "{label}: grouped run differs from a separate run"
            );
        }
    }
}

#[test]
fn figure_grid_cells_match_separate_runs() {
    let specs = figure_specs();
    let mut labels = Vec::new();
    let mut jobs = Vec::new();
    for w in all(Scale::Smoke) {
        let mut programs: Vec<(Mode, Program)> = Vec::new();
        for (mode, cfg) in &specs {
            let program = match programs.iter().find(|(m, _)| m == mode) {
                Some((_, p)) => p.clone(),
                None => {
                    let p = compile(&w.source, *mode)
                        .unwrap_or_else(|e| panic!("{}: compile failed under {mode}: {e}", w.name));
                    programs.push((*mode, p.clone()));
                    p
                }
            };
            labels.push(format!("{}/{mode}/{cfg:?}", w.name));
            jobs.push(Job {
                program,
                config: cfg.clone(),
                salt: *mode as u64,
                tag: *mode,
            });
        }
    }
    assert_eq!(jobs.len(), 9 * 13);
    // Per port: Baseline, ObjectTable, SoftBound and one HardBound run per
    // encoding; intern-4 also times its check-µop cell and four tag
    // caches, the other encodings their check-µop cell.
    check_batch(&labels, &jobs, 9 * 6);
}

/// Every hierarchy keeps its own same-block memos, so one timing group
/// may mix block sizes: each port's Baseline, HardBound and SoftBound
/// cell with 32-, 16-, 64- and 128-byte blocks.
#[test]
fn block_size_variants_match_separate_runs() {
    let mut labels = Vec::new();
    let mut jobs = Vec::new();
    for w in all(Scale::Smoke) {
        for mode in [Mode::Baseline, Mode::HardBound, Mode::SoftBound] {
            let program = compile(&w.source, mode)
                .unwrap_or_else(|e| panic!("{}: compile failed under {mode}: {e}", w.name));
            let base = machine_config(mode, PointerEncoding::Intern4);
            for block_bytes in [32, 16, 64, 128] {
                let config = base.clone().with_hierarchy(HierarchyConfig {
                    block_bytes,
                    ..base.hierarchy
                });
                assert_eq!(config.hierarchy.validate(), Ok(()));
                labels.push(format!("{}/{mode}/{block_bytes}-byte blocks", w.name));
                jobs.push(Job {
                    program: program.clone(),
                    config,
                    salt: mode as u64,
                    tag: mode,
                });
            }
        }
    }
    check_batch(&labels, &jobs, 9 * 3);
}

#[test]
fn violation_corpus_timing_variants_match_separate_runs() {
    let mode = Mode::HardBound;
    let cfgs = corpus_variants();
    assert_eq!(
        cfgs.len(),
        6,
        "default, check-µop and four other tag caches"
    );
    let mut labels = Vec::new();
    let mut jobs = Vec::new();
    let mut programs = 0;
    for case in corpus() {
        for (twin, src) in [("bad", &case.bad_source), ("ok", &case.ok_source)] {
            let Ok(program) = compile(src, mode) else {
                continue;
            };
            programs += 1;
            for (i, cfg) in cfgs.iter().enumerate() {
                labels.push(format!("{}/{twin}/variant {i}", case.id));
                jobs.push(Job {
                    program: program.clone(),
                    config: cfg.clone(),
                    salt: mode as u64,
                    tag: mode,
                });
            }
        }
    }
    assert_eq!(programs, 576, "the whole violation corpus compiles");
    let mut images: Vec<_> = jobs.iter().map(|j| j.key().0).collect();
    images.sort_unstable();
    images.dedup();
    // One ProgramId per (image, check-µop setting): two per distinct image.
    check_batch(&labels, &jobs, images.len() as u64 / 2);
}

/// A fuel limit that exactly covers a cell's run leaves its check-µop
/// variant short: that variant runs out of fuel, and the group falls back
/// to separate runs whose traps and µop counts match exactly.
#[test]
fn fuel_limit_only_the_check_uop_cell_exceeds_falls_back_to_separate_runs() {
    let mode = Mode::HardBound;
    let base = machine_config(mode, PointerEncoding::Intern4);
    let (program, plain_uops, check_uops) = all(Scale::Smoke)
        .iter()
        .find_map(|w| {
            let program = compile(&w.source, mode).expect("compiles");
            let plain = build(program.clone(), base.clone(), &mode).run();
            let check = build(program.clone(), with_check_uop(base.clone()), &mode).run();
            (check.stats.check_uops > 0).then_some((program, plain.stats.uops, check.stats.uops))
        })
        .expect("an Olden port with uncompressed-pointer checks");
    assert!(check_uops > plain_uops);

    let fuel = plain_uops;
    let cfgs = [
        base.clone().with_fuel(fuel),
        with_check_uop(base.clone()).with_fuel(fuel),
    ];
    let jobs: Vec<Job<Mode>> = cfgs
        .iter()
        .map(|cfg| Job {
            program: program.clone(),
            config: cfg.clone(),
            salt: mode as u64,
            tag: mode,
        })
        .collect();
    let expected: Vec<RunOutcome> = jobs.iter().map(separate).collect();
    assert!(expected[0].is_success(), "{:?}", expected[0].trap);
    assert_eq!(expected[0].stats.uops, fuel);
    assert_eq!(expected[1].trap, Some(Trap::OutOfFuel));
    assert!(expected[1].stats.uops >= fuel);

    // The check-µop cell leads (its µop count bounds the group's), runs
    // out of fuel, and the machine declines to time the plain cell.
    let group = groups_of(&jobs).pop().expect("one group");
    assert_eq!(group, [1, 0]);
    let outs = grouped(&jobs, &group);
    assert_eq!(outs[0].as_ref(), Some(&expected[1]));
    assert_eq!(outs[1], None, "the plain cell must run on its own");

    let mut svc = PersistentService::new(1);
    let batched = svc.run_batch(&jobs, build);
    assert_eq!(batched, expected, "fallback cells match separate runs");
    assert_eq!(
        svc.stats().service.functional_runs,
        2,
        "the group fell back"
    );
}

/// With profiling on, the service runs every cell on its own, so the
/// per-block profile (keyed by `ProgramId`, which includes the check-µop
/// ablation) is exactly that of separate profiled runs.
#[test]
fn profiled_batches_run_every_cell_on_its_own() {
    let mode = Mode::HardBound;
    let base = machine_config(mode, PointerEncoding::Intern4);
    let program = compile(&all(Scale::Smoke)[0].source, mode).expect("compiles");
    let jobs: Vec<Job<Mode>> = [
        base.clone(),
        with_check_uop(base),
        intern4_with_tag_cache(1024),
    ]
    .into_iter()
    .map(|config| Job {
        program: program.clone(),
        config,
        salt: mode as u64,
        tag: mode,
    })
    .collect();

    let _ = profile::global().take();
    let mut svc = PersistentService::new(1);
    svc.set_profiling(true);
    let batched = svc.run_batch(&jobs, build);
    let grouped_profile = profile::global().take();
    assert_eq!(svc.stats().service.functional_runs, 3, "one run per cell");

    let separate: Vec<RunOutcome> = jobs
        .iter()
        .map(|job| {
            let mut machine = build(job.program.clone(), job.config.clone(), &job.tag);
            machine.set_profiling(true);
            run_machine(&mut machine)
        })
        .collect();
    let separate_profile = profile::global().take();
    assert_eq!(batched, separate);
    assert!(separate_profile.total_execs() > 0);
    assert_eq!(grouped_profile, separate_profile);
}
