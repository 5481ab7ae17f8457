//! The repository benchmark: per-core Olden simulation, figure-grid
//! replay and the violation corpus, measured from outside by timing calls
//! into the crates' public functions.
//!
//! ```text
//! cargo run --release --manifest-path hbbench/Cargo.toml -- \
//!     --workload olden-sim|figure-replay|violation-corpus \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Load is one closed-loop client in one process: every operation waits
//! for the previous one. Every run uses the repository's default
//! configuration (event-driven hierarchy, summary metadata path, block
//! engine on, check optimizer off), so any `HB_*` variable in the
//! environment is refused. The last stdout line is the JSON result; with
//! `--trace 0` it carries the end-to-end metrics, with `--trace 1` the
//! per-layer metrics of the layer census. Lines before it stamp the
//! settings and print workload detail.

mod census;
mod corpus;
mod meter;
mod olden;
mod replay;
mod runner;
mod spans;
mod util;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use hardbound_compiler::Mode;
use hardbound_core::{HierPath, MetaPath, PointerEncoding};

use runner::{drive, RunArgs, RunResult};
use util::{json_num, json_str, Metric};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const WORKLOADS: [&str; 3] = ["olden-sim", "figure-replay", "violation-corpus"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!("unknown workload `{value}` (one of {WORKLOADS:?})"))
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if s >= 1 => seconds = Some(s),
                _ => {
                    return Err(format!(
                        "--seconds must be a whole number ≥ 1, got `{value}`"
                    ))
                }
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
            },
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Every number must come from the default configuration, and `HB_*`
/// flags have lenient parsers (`HB_OPT=off` reads as *on*), so the
/// benchmark refuses to start under any of them.
fn refuse_hb_settings() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HB_"))
        .collect();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with HB_* settings in the environment: {}",
            set.join(", ")
        ));
    }
    let cfg = hardbound_runtime::machine_config(Mode::HardBound, PointerEncoding::Intern4);
    if cfg.hier_path != HierPath::Event || cfg.meta_path != MetaPath::Summary {
        return Err("the default configuration is not Event/Summary".to_owned());
    }
    Ok(())
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| refuse_hb_settings().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hbbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"stamp\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"cores\": {cores}, \"rustc\": {}, \"commit\": {}, \"settings\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        json_str("hier=Event meta=Summary engine=on opt=off workers=1 encoding=intern-4"),
    );

    let out_dir = PathBuf::from(".bench_out");
    let dir = out_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("hbbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let trace_file = out_dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    let run = RunArgs {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: &dir,
        trace_file: &trace_file,
    };
    let result: RunResult = match args.workload.as_str() {
        "olden-sim" => drive(&olden::OldenSim, &run),
        "figure-replay" => drive(&replay::FigureReplay, &run),
        _ => drive(&corpus::ViolationCorpus, &run),
    };
    let _ = std::fs::remove_dir_all(&dir);

    let notes: Vec<String> = result.checks.notes.iter().map(|n| json_str(n)).collect();
    let layer_map: Vec<String> = result
        .metrics
        .iter()
        .filter(|_| args.trace)
        .map(|m| {
            format!(
                "{}: {}",
                json_str(&m.name),
                json_str(census::maps_to(&m.name))
            )
        })
        .collect();
    println!(
        "{{\"detail\": {}, \"failures\": [{}], \"layer_map\": {{{}}}}}",
        metrics_json(&result.detail),
        notes.join(", "),
        layer_map.join(", ")
    );
    let c = &result.checks;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        c.failed == 0 && c.attempted > 0,
        c.attempted.max(1),
        c.failed,
        metrics_json(&result.metrics)
    );
    ExitCode::SUCCESS
}
