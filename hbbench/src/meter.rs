//! Operation timing against a calibration kernel.
//!
//! On a 2-vCPU Intel Xeon virtual machine on a shared host, speed drifts
//! by tens of percent over minutes with the guest idle (other tenants
//! share the host's cores), far more than the regressions the end-to-end
//! bounds are meant to catch. So
//! a fixed kernel — code owned by this benchmark, the same on every commit
//! it compares — runs in short slices between timed operations, and each
//! operation's time is rescaled by `REF_SLICE_NS / local slice time`: the
//! time it would have taken on a host where one slice takes exactly 1 ms.
//! Raw wall times are kept alongside and printed as detail.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::util::median;

/// Kernel iterations per slice: 1–2 ms on that virtual machine.
const SLICE_ITERS: u32 = 100_000;
/// The slice time the calibrated figures are scaled to.
const REF_SLICE_NS: f64 = 1e6;
/// A slice runs before an operation once this much operation time has
/// passed since the last one, so slices add under a tenth to a run.
const SLICE_EVERY: Duration = Duration::from_millis(25);
/// The local host speed is the median of this many recent slices.
const RECENT: usize = 5;

pub struct Meter {
    table: Vec<u32>,
    regs: (u32, u32, usize),
    recent: VecDeque<f64>,
    slices: Vec<f64>,
    since: Duration,
    /// This pass's raw and calibrated nanoseconds per operation number.
    pub raw: Vec<f64>,
    pub cal: Vec<f64>,
}

impl Meter {
    pub fn new() -> Meter {
        let mut x: u32 = 0x1234_5678;
        let table = (0..1u32 << 18)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x ^ i
            })
            .collect();
        Meter {
            table,
            regs: (1, 2, 0),
            recent: VecDeque::new(),
            slices: Vec::new(),
            since: Duration::ZERO,
            raw: Vec::new(),
            cal: Vec::new(),
        }
    }

    pub fn begin_pass(&mut self) {
        self.raw.clear();
        self.cal.clear();
    }

    /// Times `f` as operation `op` of the current pass, scaled by the
    /// median of the recent slices (a long operation gets a fresh slice
    /// after it, so its own slow or fast phase counts).
    pub fn time<R>(&mut self, op: usize, f: impl FnOnce() -> R) -> R {
        if self.recent.is_empty() || self.since >= SLICE_EVERY {
            self.slice();
        }
        let t = Instant::now();
        let r = f();
        let d = t.elapsed();
        self.since += d;
        if d >= SLICE_EVERY {
            self.slice();
        }
        let recent: Vec<f64> = self.recent.iter().copied().collect();
        if self.raw.len() <= op {
            self.raw.resize(op + 1, 0.0);
            self.cal.resize(op + 1, 0.0);
        }
        let ns = d.as_nanos() as f64;
        self.raw[op] = ns;
        self.cal[op] = ns * REF_SLICE_NS / median(&recent);
        r
    }

    /// Calibrated length of `d`, measured between now and the last slice:
    /// a fresh slice brackets it on the far side.
    pub fn calibrate(&mut self, d: Duration) -> f64 {
        let before = self.recent.back().copied();
        self.slice();
        let after = self.recent.back().copied().expect("slice just ran");
        let local = before.map_or(after, |b| (b + after) / 2.0);
        d.as_secs_f64() * REF_SLICE_NS / local
    }

    /// Median slice time so far, in µs (how fast the host ran).
    pub fn slice_us(&self) -> f64 {
        median(&self.slices) / 1e3
    }

    /// Runs one kernel slice: a small register-machine interpreter over a
    /// 1 MiB table — dispatch, dependent loads, stores and branches, the
    /// same mix the simulator's hot loop has.
    fn slice(&mut self) {
        let t = Instant::now();
        let mask = (1u32 << 18) - 1;
        let (mut a, mut b, mut pc) = self.regs;
        for _ in 0..SLICE_ITERS {
            let op = (pc as u32).wrapping_mul(2_654_435_761) >> 29;
            match op {
                0 | 1 => a = a.wrapping_add(self.table[(b & mask) as usize]),
                2 => {
                    let k = (a & mask) as usize;
                    self.table[k] = self.table[k].wrapping_add(b);
                }
                3 => b = b.rotate_left(5) ^ a,
                4 if a & 1 == 0 => b = b.wrapping_mul(31),
                4 => a ^= b >> 3,
                5 => a = self.table[(a.wrapping_mul(7) & mask) as usize],
                _ => b = b.wrapping_add(a).wrapping_add(pc as u32),
            }
            pc = (pc + 1 + (a as usize & 1)) & 63;
        }
        self.regs = std::hint::black_box((a, b, pc));
        let ns = t.elapsed().as_nanos() as f64;
        self.slices.push(ns);
        self.recent.push_back(ns);
        if self.recent.len() > RECENT {
            self.recent.pop_front();
        }
        self.since = Duration::ZERO;
    }
}
