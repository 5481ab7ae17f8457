//! The measurement loop every workload shares: repeated set-up, timed
//! passes for the requested wall time, and in traced runs the layer
//! census over the workload's own programs.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::census;
use crate::meter::Meter;
use crate::spans::Tracer;
use crate::util::{median, peak_rss_mb, ratio, Metric, Rng};

/// Operation and failure accounting for one run.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one checked operation; `why` describes a failure.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 16 {
                self.notes.push(why());
            }
        }
    }
}

pub trait Workload {
    type State;

    /// Builds the inputs and everything a pass needs. Timed as set-up.
    fn setup(&self, seed: u64, dir: &Path) -> Self::State;

    /// One pass over the workload's timed operations, each timed through
    /// `meter` under a stable operation number (the same in every pass).
    /// Returns the simulated µops whose results the pass delivered (the
    /// same in every pass).
    fn pass(
        &self,
        st: &mut Self::State,
        rng: &mut Rng,
        tr: &mut Tracer,
        checks: &mut Checks,
        meter: &mut Meter,
    ) -> u64;

    /// `(name, Cb source)` of the programs the layer census runs.
    fn census_sources(&self, st: &Self::State) -> Vec<(String, String)>;

    /// Result-store hits and misses per pass on the workload's own path.
    fn store_counts(&self, _st: &Self::State) -> (f64, f64) {
        (0.0, 0.0)
    }

    /// Workload-specific figures printed as detail (not as metrics).
    fn detail(&self, st: &Self::State) -> Vec<Metric>;
}

pub struct RunArgs<'a> {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub dir: &'a Path,
    pub trace_file: &'a Path,
}

pub struct RunResult {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    pub detail: Vec<Metric>,
}

/// Set-up repeats at least this often, and until this much time went
/// into it, so `setup_s` is a median and not one noisy sample.
const SETUP_REPS: usize = 3;
const SETUP_MIN: Duration = Duration::from_millis(300);
const SETUP_MAX_REPS: usize = 50;

/// Operations a run repeats fewer times than this are summarised by their
/// best time, the rest by their median.
const MEDIAN_MIN_SAMPLES: usize = 8;

/// One pass's time from every operation's samples over the passes.
/// Interference only adds time and, on a shared host, comes in phases of
/// seconds: the median of many samples sits in the common phase, but with
/// only a few samples (the Olden cells, 4–7 passes a run) the median
/// follows whichever phase the run happened to catch, so those operations
/// take their best time (best-of-N) instead.
fn pass_time(samples: &[Vec<f64>]) -> f64 {
    samples
        .iter()
        .map(|s| {
            if s.len() >= MEDIAN_MIN_SAMPLES {
                median(s)
            } else {
                s.iter().copied().fold(f64::INFINITY, f64::min)
            }
        })
        .sum()
}

pub fn drive<W: Workload>(w: &W, args: &RunArgs<'_>) -> RunResult {
    let mut meter = Meter::new();
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let mut spent = Duration::ZERO;
    let mut state = None;
    // One slice up front, so the first set-up is bracketed on both sides.
    meter.calibrate(Duration::ZERO);
    while setups.len() < SETUP_REPS || (spent < SETUP_MIN && setups.len() < SETUP_MAX_REPS) {
        drop(state.take());
        let t = Instant::now();
        state = Some(w.setup(args.seed, args.dir));
        let d = t.elapsed();
        spent += d;
        raw_setups.push(d.as_secs_f64());
        setups.push(meter.calibrate(d));
    }
    let mut st = state.expect("set up at least once");

    // Traced runs alternate traced and untraced passes, so the tracing
    // overhead is measured inside one run on the same inputs.
    let mut tracer = Tracer::new(args.trace);
    let mut checks = Checks::default();
    let mut rng = Rng::new(args.seed ^ 0xb5ad_4ece_da1c_e2a9);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut cal_samples, mut raw_samples): (Vec<Vec<f64>>, Vec<Vec<f64>>) = Default::default();
    let mut uops = 0;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while plain.len() + traced.len() == 0 || start.elapsed() < budget {
        let on = args.trace && traced.len() < plain.len();
        tracer.set_enabled(on);
        tracer.enter("bench.pass");
        meter.begin_pass();
        uops = w.pass(&mut st, &mut rng, &mut tracer, &mut checks, &mut meter);
        tracer.exit(1);
        let ms: f64 = meter.cal.iter().sum::<f64>() / 1e6;
        eprintln!(
            "pass {}: {ms:.3} ms calibrated, {:.3} ms raw, {uops} µops",
            plain.len() + traced.len(),
            meter.raw.iter().sum::<f64>() / 1e6
        );
        if on {
            traced.push(ms);
        } else {
            plain.push(ms);
            for (samples, ns) in [
                (&mut cal_samples, &meter.cal),
                (&mut raw_samples, &meter.raw),
            ] {
                samples.resize(ns.len(), Vec::new());
                for (s, &v) in samples.iter_mut().zip(ns) {
                    s.push(v);
                }
            }
        }
    }
    let pass_ns = pass_time(&cal_samples);
    let raw_pass_ns = pass_time(&raw_samples);

    let mut metrics = Vec::new();
    if args.trace {
        tracer.set_enabled(true);
        let sources = w.census_sources(&st);
        metrics = census::run(&sources, &mut tracer, &mut checks, args.dir);
        let (hits, misses) = w.store_counts(&st);
        metrics.push(Metric::new("exec.store_hits", hits, "count"));
        metrics.push(Metric::new("exec.store_misses", misses, "count"));
        let overhead = if plain.is_empty() {
            0.0
        } else {
            100.0 * ratio(median(&traced) - median(&plain), median(&plain))
        };
        metrics.push(Metric::new("bench.trace_overhead_pct", overhead, "%"));
        if let Err(e) = tracer.write_jsonl(args.trace_file) {
            let path = args.trace_file.display();
            checks.op(false, || format!("cannot write {path}: {e}"));
        }
    } else {
        metrics.push(Metric::new("setup_s", median(&setups), "s"));
        metrics.push(Metric::new(
            "peak_rss_mb",
            peak_rss_mb().unwrap_or(0.0),
            "MiB",
        ));
        metrics.push(Metric::new("pass_ms", pass_ns / 1e6, "ms"));
        metrics.push(Metric::new("ns_per_uop", ratio(pass_ns, uops as f64), "ns"));
    }
    let mut detail = w.detail(&st);
    detail.push(Metric::new("raw_setup_s", median(&raw_setups), "s"));
    detail.push(Metric::new("raw_pass_ms", raw_pass_ns / 1e6, "ms"));
    detail.push(Metric::new(
        "raw_ns_per_uop",
        ratio(raw_pass_ns, uops as f64),
        "ns",
    ));
    detail.push(Metric::new("calibration_slice_us", meter.slice_us(), "us"));
    detail.push(Metric::new(
        "passes",
        (plain.len() + traced.len()) as f64,
        "count",
    ));
    detail.push(Metric::new("setups", setups.len() as f64, "count"));
    RunResult {
        checks,
        metrics,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_time_takes_the_best_of_few_and_the_median_of_many() {
        let few = vec![3.0, 1.0, 2.0];
        let many: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(pass_time(std::slice::from_ref(&few)), 1.0);
        assert_eq!(pass_time(std::slice::from_ref(&many)), 5.0);
        assert_eq!(pass_time(&[few, many]), 6.0);
    }
}
