//! The basic-block execution engine.
//!
//! [`Engine::run`] is a drop-in replacement for
//! [`Machine::run`](hardbound_core::Machine::run): identical observable
//! behaviour (output, ints, exit code, traps *including their program
//! counters*, and every [`ExecStats`](hardbound_core::ExecStats) counter),
//! reached by dispatching pre-decoded µop superblocks instead of
//! re-decoding one instruction per step. The engine owns dispatch only:
//! every µop's semantics live in `hardbound-core` behind the [`ExecState`]
//! interface, and ALU values and Figure 3 propagation come from the same
//! [`BinOp::eval`]/[`CmpOp::eval`](hardbound_isa::CmpOp::eval) and
//! [`propagate_binop`] the interpreter calls. Anything the block path
//! cannot express — indirect calls, environment calls, runs near the fuel
//! limit — falls back to the interpreter's own [`Machine::step`].

use std::sync::OnceLock;
use std::time::Instant;

use hardbound_core::{
    propagate_binop, ExecState, Machine, MachineConfig, Meta, Pc, RunOutcome, Trap,
};
use hardbound_isa::{BinOp, FuncId, Program};
use hardbound_telemetry::{
    trace, BlockKey, BlockStat, Counter, Field, Histogram, SpanId, SpanTimer,
};

use crate::block::{BlockCacheStats, ProgramId, SharedBlockCache};
use crate::uop::{decode_block, Uop};

/// The global `hb_decode_us` histogram handle, resolved once — the decode
/// path must not take the registry lock per block.
fn decode_us_hist() -> &'static Histogram {
    static H: OnceLock<Histogram> = OnceLock::new();
    H.get_or_init(|| hardbound_telemetry::global().histogram("hb_decode_us"))
}

/// Global per-run metric handles, resolved once (same rationale as
/// [`decode_us_hist`]): the memory hierarchy's fast-path counters and
/// `hb_engine_run_us`, the wall time of each [`Engine::run`] — the window
/// over which that run's fast-path counters accumulated.
struct RunMetrics {
    fastpath_hits: Counter,
    fastpath_misses: Counter,
    run_us: Histogram,
}

fn run_metrics() -> &'static RunMetrics {
    static M: OnceLock<RunMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let reg = hardbound_telemetry::global();
        RunMetrics {
            fastpath_hits: reg.counter("hb_hier_fastpath_hits"),
            fastpath_misses: reg.counter("hb_hier_fastpath_misses"),
            run_us: reg.histogram("hb_engine_run_us"),
        }
    })
}

/// Per-superblock retire counters accumulated while profiling. The static
/// check count of the block (`static_taken`) is computed once on first
/// execution and credited per retire, so the per-dispatch cost of
/// profiling is three counter bumps behind one indexed load.
#[derive(Clone, Default)]
struct ProfCell {
    /// Identity of the block this cell is counting (`execs == 0` marks an
    /// untouched cell).
    func: u32,
    entry: u32,
    execs: u64,
    cycles: u64,
    taken: u64,
    static_taken: u64,
}

/// One run's profiler state. `cells` is a flat vector indexed by
/// block-cache id — the hot-path dispatch credit is an indexed bump, not
/// a hash lookup. If the cache reuses a slot for a different block
/// mid-run (eviction/invalidation), the displaced cell moves to
/// `spilled` so no retire is ever dropped; both drain into the
/// process-wide accumulator at the end of the run.
#[derive(Default)]
struct BlockProfile {
    cells: Vec<ProfCell>,
    spilled: Vec<ProfCell>,
}

/// Counters describing how a run was executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Behaviour of the cache the engine is bound to (decodes, hits,
    /// evictions, invalidations) — lifetime counters of that cache, which
    /// a shared cache accumulates across every engine bound to it.
    pub cache: BlockCacheStats,
    /// Blocks dispatched through the fast path.
    pub blocks_executed: u64,
    /// µops retired by the block dispatch loop.
    pub fast_uops: u64,
    /// Instructions executed via the `Machine::step` fallback (indirect
    /// calls, environment calls, and fuel-limited tails).
    pub stepped_insts: u64,
}

/// The engine's cache: its own private [`SharedBlockCache`], or a borrowed
/// long-lived one (a corpus-service shard) whose warm blocks outlive the
/// engine.
enum CacheBinding<'c> {
    Owned(Box<SharedBlockCache>),
    Shared(&'c mut SharedBlockCache),
}

impl CacheBinding<'_> {
    fn get(&self) -> &SharedBlockCache {
        match self {
            CacheBinding::Owned(c) => c,
            CacheBinding::Shared(c) => c,
        }
    }

    fn get_mut(&mut self) -> &mut SharedBlockCache {
        match self {
            CacheBinding::Owned(c) => c,
            CacheBinding::Shared(c) => c,
        }
    }
}

/// A machine driven through pre-decoded basic blocks.
///
/// The lifetime parameter is the borrow of a shared block cache
/// ([`Engine::with_shared_cache`]); engines that own their cache
/// ([`Engine::new`]) are `Engine<'static>`.
pub struct Engine<'c> {
    machine: Machine,
    cache: CacheBinding<'c>,
    /// Dense handle of this machine's program in the bound cache.
    prog: u32,
    pid: ProgramId,
    blocks_executed: u64,
    fast_uops: u64,
    stepped_insts: u64,
    /// Hot-spot profiler: per-block retire counters indexed by cache id,
    /// flushed into the process-wide
    /// [`hardbound_telemetry::profile::global`] accumulator at the end of
    /// each run. `None` (the default; see [`Engine::set_profiling`]) costs
    /// one `Option` test per dispatched block and changes nothing
    /// observable.
    profile: Option<BlockProfile>,
}

impl Engine<'static> {
    /// Wraps `machine` with its own default-capacity block cache.
    #[must_use]
    pub fn new(machine: Machine) -> Engine<'static> {
        let cache = Box::new(SharedBlockCache::new(SharedBlockCache::DEFAULT_CAPACITY));
        Engine::bind(machine, CacheBinding::Owned(cache))
    }
}

impl<'c> Engine<'c> {
    /// Binds `machine` to a long-lived shared cache: the machine's program
    /// is registered under its [`ProgramId`] (idempotently — a cache that
    /// has run this image before hands back its warm decoded blocks), and
    /// all decode work this run produces stays in `cache` for the next
    /// engine bound to it.
    #[must_use]
    pub fn with_shared_cache(machine: Machine, cache: &'c mut SharedBlockCache) -> Engine<'c> {
        Engine::bind(machine, CacheBinding::Shared(cache))
    }

    fn bind(machine: Machine, mut cache: CacheBinding<'c>) -> Engine<'c> {
        let pid = ProgramId::of(machine.program(), machine.config());
        let prog = cache.get_mut().register(pid, machine.program());
        Engine {
            machine,
            cache,
            prog,
            pid,
            blocks_executed: 0,
            fast_uops: 0,
            stepped_insts: 0,
            profile: None,
        }
    }

    /// Turns the hot-spot profiler on or off for this engine (off by
    /// default). Enabling mid-run starts attribution at the next
    /// dispatched block; disabling drops any unflushed counters.
    pub fn set_profiling(&mut self, on: bool) {
        self.profile = on.then(BlockProfile::default);
    }

    /// The content-hash identity this engine's program is cached under.
    #[must_use]
    pub fn program_id(&self) -> ProgramId {
        self.pid
    }

    /// Runs to halt, trap, or fuel exhaustion — observationally identical
    /// to [`Machine::run`].
    pub fn run(&mut self) -> RunOutcome {
        let run_start = Instant::now();
        let fast_before = self.machine.hier_fast_stats();
        // After a block that ended in pure intra-function control flow
        // (branch/jump, or a call that entered its callee cleanly), the
        // machine cannot have halted or trapped, so the state re-check is
        // skipped — only the fuel gate runs.
        let mut check_state = true;
        loop {
            let gate = {
                let mut st = self.machine.exec_state();
                if check_state && (st.halted().is_some() || st.trap().is_some()) {
                    None
                } else if st.uops() >= st.fuel() {
                    st.set_trap(Trap::OutOfFuel);
                    None
                } else {
                    let (func, pc) = st.pc();
                    Some((func, pc, st.fuel() - st.uops()))
                }
            };
            let Some((func, pc, budget)) = gate else {
                break;
            };
            let id = self.lookup_or_decode(func, pc);
            let len = self.cache.get().block(id).uops.len() as u64;
            // A memory µop can retire up to two extra µops (metadata +
            // check); 3×len over-approximates the block's fuel draw. Runs
            // that close to the limit finish on the interpreter so the
            // per-step fuel accounting (and the exact µop count inside an
            // `OutOfFuel` outcome) matches `Machine::run` bit for bit.
            if 3 * len >= budget {
                self.stepped_insts += self.machine.run_steps();
                break;
            }
            if self.profile.is_some() {
                let uops_before = self.machine.exec_state().uops();
                check_state = !self.exec_block(id, func);
                self.note_block_profile(func, pc, id, uops_before);
            } else {
                check_state = !self.exec_block(id, func);
            }
        }
        self.flush_profile();
        let outcome = self.machine.finish_outcome();
        let fast = self.machine.hier_fast_stats();
        let m = run_metrics();
        m.fastpath_hits
            .add(fast.fastpath_hits - fast_before.fastpath_hits);
        m.fastpath_misses
            .add(fast.fastpath_misses - fast_before.fastpath_misses);
        m.run_us
            .record(run_start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        outcome
    }

    /// Engine-level counters for the run so far.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            cache: self.cache.get().stats(),
            blocks_executed: self.blocks_executed,
            fast_uops: self.fast_uops,
            stepped_insts: self.stepped_insts,
        }
    }

    /// The wrapped machine (for post-run register/statistics inspection).
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    fn lookup_or_decode(&mut self, func: FuncId, pc: u32) -> usize {
        if let Some(id) = self.cache.get_mut().lookup(self.prog, func, pc) {
            return id;
        }
        // Cold path only: decode latency feeds the `hb_decode_us`
        // histogram, and under `HB_TRACE` each decode is a stamped span.
        let timer =
            trace::enabled().then(|| SpanTimer::start(trace::new_trace(), SpanId::NONE, "decode"));
        let started = Instant::now();
        let uops = decode_block(self.machine.program(), func, pc, self.machine.config());
        decode_us_hist().record_duration(started.elapsed());
        if let Some(t) = timer {
            t.emit(vec![
                ("func".to_owned(), Field::from(u64::from(func.0))),
                ("pc".to_owned(), Field::from(u64::from(pc))),
                ("uops".to_owned(), Field::from(uops.len() as u64)),
            ]);
        }
        self.cache.get_mut().insert(self.prog, func, pc, uops)
    }

    /// Dispatches one decoded block. The caller has already guaranteed the
    /// fuel budget covers the block's worst case. Returns `true` when the
    /// block ended in pure control flow that cannot have halted or trapped
    /// the machine.
    fn exec_block(&mut self, id: usize, func: FuncId) -> bool {
        let Engine {
            machine,
            cache,
            blocks_executed,
            fast_uops,
            stepped_insts,
            ..
        } = self;
        *blocks_executed += 1;
        let uops = &cache.get().block(id).uops;
        let n = uops.len();
        let mut st = machine.exec_state();

        // Straight-line µops: everything but the terminator.
        if let Err((i, t)) = exec_run(&mut st, &uops[..n - 1], func) {
            // Mirror the interpreter: the trapping µop retires and the pc
            // is left pre-advanced past it.
            st.retire_uops(i as u64 + 1);
            *fast_uops += i as u64 + 1;
            if let Some(pc) = trap_pc(&t) {
                st.set_pc(pc.func, pc.index + 1);
            }
            st.set_trap(t);
            return false;
        }

        match uops[n - 1] {
            Uop::BranchRR {
                op,
                rs1,
                rs2,
                target,
                fall,
            } => {
                st.retire_uops(n as u64);
                *fast_uops += n as u64;
                let taken = op.eval(st.reg(rs1), st.reg(rs2));
                st.set_pc(func, if taken { target } else { fall });
                true
            }
            Uop::BranchRI {
                op,
                rs1,
                imm,
                target,
                fall,
            } => {
                st.retire_uops(n as u64);
                *fast_uops += n as u64;
                let taken = op.eval(st.reg(rs1), imm);
                st.set_pc(func, if taken { target } else { fall });
                true
            }
            Uop::Jump { target } => {
                st.retire_uops(n as u64);
                *fast_uops += n as u64;
                st.set_pc(func, target);
                true
            }
            Uop::Fall { target } => {
                // Synthesized by a superblock-cap cut: no dynamic µop.
                st.retire_uops(n as u64 - 1);
                *fast_uops += n as u64 - 1;
                st.set_pc(func, target);
                true
            }
            Uop::Call { func: callee, ret } => {
                st.retire_uops(n as u64);
                *fast_uops += n as u64;
                st.set_pc(func, ret);
                if let Err(t) = st.call(callee) {
                    st.set_trap(t);
                    false
                } else {
                    true
                }
            }
            Uop::Ret => {
                st.retire_uops(n as u64);
                *fast_uops += n as u64;
                // A non-halting return is pure control flow: skip the gate.
                !st.ret()
            }
            Uop::Step { idx } => {
                st.retire_uops(n as u64 - 1);
                *fast_uops += n as u64 - 1;
                st.set_pc(func, idx);
                *stepped_insts += 1;
                if let Err(t) = machine.step() {
                    machine.exec_state().set_trap(t);
                }
                false
            }
            u => unreachable!("non-terminator {u:?} at block end"),
        }
    }

    /// Credits one dispatch of the block at `(func, entry)` to the
    /// profiler: one execution, the µops the machine retired across the
    /// dispatch (`Step` interpreter escapes included — the delta is read
    /// from the machine's own retire counter, so attribution follows
    /// wherever dispatch actually went), and the block's static check
    /// count.
    fn note_block_profile(&mut self, func: FuncId, entry: u32, id: usize, uops_before: u64) {
        let uops_after = self.machine.exec_state().uops();
        let Some(prof) = self.profile.as_mut() else {
            return;
        };
        if id >= prof.cells.len() {
            prof.cells.resize_with(id + 1, ProfCell::default);
        }
        let cell = &mut prof.cells[id];
        if cell.execs != 0 && (cell.func, cell.entry) != (func.0, entry) {
            // The cache reused this slot for a different block mid-run;
            // park the displaced counts for the flush.
            prof.spilled.push(cell.clone());
            *cell = ProfCell::default();
        }
        if cell.execs == 0 {
            let block = self.cache.get().block(id);
            cell.func = func.0;
            cell.entry = entry;
            cell.static_taken = block
                .uops
                .iter()
                .filter(|u| matches!(u, Uop::LoadHb { .. } | Uop::StoreHb { .. }))
                .count() as u64;
        }
        cell.execs += 1;
        cell.cycles += uops_after - uops_before;
        cell.taken += cell.static_taken;
    }

    /// Drains this run's per-block counters into the process-wide profile
    /// accumulator (labelled with function names from the program image and
    /// keyed under the program's stable content hash, so profiles from
    /// different processes — or different shards — merge exactly).
    fn flush_profile(&mut self) {
        let Some(prof) = self.profile.as_mut() else {
            return;
        };
        if prof.cells.is_empty() && prof.spilled.is_empty() {
            return;
        }
        let cells = std::mem::take(&mut prof.cells);
        let spilled = std::mem::take(&mut prof.spilled);
        let program = self.machine.program();
        let mut p = hardbound_telemetry::Profile::new();
        for cell in cells.iter().chain(&spilled) {
            if cell.execs == 0 {
                continue;
            }
            let name = program.func(FuncId(cell.func)).name.clone();
            p.record(
                BlockKey {
                    prog: self.pid.0,
                    func: cell.func,
                    entry: cell.entry,
                },
                &BlockStat {
                    name,
                    execs: cell.execs,
                    cycles: cell.cycles,
                    taken: cell.taken,
                },
            );
        }
        hardbound_telemetry::profile::global().add(&p);
    }
}

/// Builds a machine for `program` under `cfg` and runs it through the
/// engine.
///
/// # Panics
///
/// Panics if the program fails validation (as [`Machine::new`] does).
#[must_use]
pub fn run_program(program: Program, cfg: MachineConfig) -> RunOutcome {
    Engine::new(Machine::new(program, cfg)).run()
}

/// Runs a straight-line slice to completion; on a trap, returns the
/// trapping µop's index alongside the trap. Outlined on purpose: the
/// [`exec_straight`] match is large, and keeping it out of `exec_block`
/// keeps the block-transition path small (one call per block is noise).
#[inline(never)]
fn exec_run(st: &mut ExecState<'_>, uops: &[Uop], func: FuncId) -> Result<(), (usize, Trap)> {
    for (i, &u) in uops.iter().enumerate() {
        exec_straight(st, u, func).map_err(|t| (i, t))?;
    }
    Ok(())
}

/// The faulting position of a trap raised by a straight-line µop.
fn trap_pc(t: &Trap) -> Option<Pc> {
    match t {
        Trap::BoundsViolation { pc, .. }
        | Trap::NonPointerDereference { pc, .. }
        | Trap::WildAddress { pc, .. }
        | Trap::DivideByZero { pc } => Some(*pc),
        _ => None,
    }
}

/// Executes one straight-line (non-terminator) µop.
#[inline(always)]
fn exec_straight(st: &mut ExecState<'_>, u: Uop, func: FuncId) -> Result<(), Trap> {
    match u {
        Uop::Li { rd, imm } => st.set_reg(rd, imm, Meta::NONE),
        Uop::Mov { rd, rs } => st.set_reg(rd, st.reg(rs), st.reg_meta(rs)),
        Uop::AddRR { rd, rs1, rs2 } => {
            let meta = propagate_binop(BinOp::Add, st.reg_meta(rs1), Some(st.reg_meta(rs2)));
            st.set_reg(rd, st.reg(rs1).wrapping_add(st.reg(rs2)), meta);
        }
        Uop::AddRI { rd, rs1, imm } => {
            let meta = propagate_binop(BinOp::Add, st.reg_meta(rs1), None);
            st.set_reg(rd, st.reg(rs1).wrapping_add(imm), meta);
        }
        Uop::SubRR { rd, rs1, rs2 } => {
            let meta = propagate_binop(BinOp::Sub, st.reg_meta(rs1), Some(st.reg_meta(rs2)));
            st.set_reg(rd, st.reg(rs1).wrapping_sub(st.reg(rs2)), meta);
        }
        Uop::SubRI { rd, rs1, imm } => {
            let meta = propagate_binop(BinOp::Sub, st.reg_meta(rs1), None);
            st.set_reg(rd, st.reg(rs1).wrapping_sub(imm), meta);
        }
        Uop::BinRR {
            op,
            rd,
            rs1,
            rs2,
            pc,
        } => {
            let v = op.eval(st.reg(rs1), st.reg(rs2));
            st.set_reg(rd, v.ok_or(Trap::DivideByZero { pc })?, Meta::NONE);
        }
        Uop::BinRI {
            op,
            rd,
            rs1,
            imm,
            pc,
        } => {
            let v = op.eval(st.reg(rs1), imm);
            st.set_reg(rd, v.ok_or(Trap::DivideByZero { pc })?, Meta::NONE);
        }
        Uop::CmpRR { op, rd, rs1, rs2 } => {
            let flag = op.eval(st.reg(rs1), st.reg(rs2));
            st.set_reg(rd, u32::from(flag), Meta::NONE);
        }
        Uop::CmpRI { op, rd, rs1, imm } => {
            let flag = op.eval(st.reg(rs1), imm);
            st.set_reg(rd, u32::from(flag), Meta::NONE);
        }
        Uop::LoadRaw {
            width,
            rd,
            addr,
            offset,
            pc,
        } => st.load_raw(pc, width, rd, addr, offset)?,
        Uop::LoadHb {
            width,
            rd,
            addr,
            offset,
            pc,
        } => st.load_hb(pc, width, rd, addr, offset)?,
        Uop::StoreRaw {
            width,
            src,
            addr,
            offset,
            pc,
        } => st.store_raw(pc, width, src, addr, offset)?,
        Uop::StoreHb {
            width,
            src,
            addr,
            offset,
            pc,
        } => st.store_hb(pc, width, src, addr, offset)?,
        Uop::SetBoundRR { rd, rs, size, pc } => st.setbound(pc, rd, rs, st.reg(size)),
        Uop::SetBoundRI { rd, rs, size, pc } => st.setbound(pc, rd, rs, size),
        Uop::Unbound { rd, rs } => st.unbound(rd, rs),
        Uop::CodePtr { rd, value, meta } => st.set_reg(rd, value, meta),
        Uop::ReadBase { rd, rs } => {
            let base = st.reg_meta(rs).base;
            st.set_reg(rd, base, Meta::NONE);
        }
        Uop::ReadBound { rd, rs } => {
            let bound = st.reg_meta(rs).bound;
            st.set_reg(rd, bound, Meta::NONE);
        }
        Uop::InlineCall { func: callee, ret } => {
            // The full calling sequence runs; only the block transition is
            // elided. The return point is in the *calling* function.
            st.set_pc(func, ret);
            st.call(callee)?;
        }
        Uop::InlineRet => {
            // Pops the frame its InlineCall pushed; the frame is always
            // there, so this can never halt the machine.
            let halted = st.ret();
            debug_assert!(!halted, "inlined leaf returns cannot halt");
        }
        Uop::Nop | Uop::FollowedJump => {}
        u => unreachable!("terminator {u:?} mid-block"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardbound_isa::{CmpOp, FunctionBuilder, Reg, Width};

    fn engine_for(f: FunctionBuilder) -> Engine<'static> {
        let program = Program::with_entry(vec![f.finish()]);
        Engine::new(Machine::new(program, MachineConfig::default()))
    }

    #[test]
    fn figure2_runs_identically_under_the_engine() {
        let build = || {
            let mut f = FunctionBuilder::new("fig2", 0);
            f.li(Reg::A0, hardbound_isa::layout::HEAP_BASE);
            f.setbound_imm(Reg::A1, Reg::A0, 4);
            f.load(Width::Byte, Reg::A2, Reg::A1, 2);
            f.load(Width::Byte, Reg::A2, Reg::A1, 5); // out of bounds
            f.halt();
            Program::with_entry(vec![f.finish()])
        };
        let interp = Machine::new(build(), MachineConfig::default()).run();
        let engine = run_program(build(), MachineConfig::default());
        assert_eq!(engine.trap, interp.trap);
        assert_eq!(engine.stats, interp.stats);
    }

    #[test]
    fn loops_hit_the_block_cache() {
        let mut f = FunctionBuilder::new("loop", 0);
        f.li(Reg::A0, 0);
        let head = f.bind_label();
        f.addi(Reg::A0, Reg::A0, 1);
        let done = f.new_label();
        f.branch(CmpOp::Ge, Reg::A0, 100, done);
        f.jump(head);
        f.bind(done);
        f.li(Reg::A0, 0);
        f.halt();
        let mut e = engine_for(f);
        let out = e.run();
        assert!(out.is_success(), "trap: {:?}", out.trap);
        let s = e.stats();
        assert!(s.cache.hits > 90, "loop iterations must hit: {s:?}");
        assert!(s.cache.decoded <= 4, "few static blocks: {s:?}");
        assert!(s.blocks_executed > 100);
        assert!(s.fast_uops > 300);
    }

    #[test]
    fn program_id_is_the_plain_program_fingerprint() {
        let mut f = FunctionBuilder::new("main", 0);
        f.li(Reg::A0, 0);
        f.halt();
        let program = Program::with_entry(vec![f.finish()]);
        let cfg = MachineConfig::default();
        let pid = ProgramId::of(&program, &cfg);
        assert_eq!(Engine::new(Machine::new(program, cfg)).program_id(), pid);
    }

    #[test]
    fn tiny_block_cache_exercises_eviction() {
        let mut f = FunctionBuilder::new("evict", 0);
        f.li(Reg::A0, 0);
        let head = f.bind_label();
        f.addi(Reg::A0, Reg::A0, 1);
        let done = f.new_label();
        f.branch(CmpOp::Ge, Reg::A0, 10, done);
        f.jump(head);
        f.bind(done);
        f.li(Reg::A0, 0);
        f.halt();
        let program = Program::with_entry(vec![f.finish()]);
        let mut cache = SharedBlockCache::new(1);
        let mut e =
            Engine::with_shared_cache(Machine::new(program, MachineConfig::default()), &mut cache);
        let out = e.run();
        assert!(out.is_success());
        assert!(e.stats().cache.evicted > 0, "{:?}", e.stats());
    }

    #[test]
    fn fuel_exhaustion_matches_interpreter_exactly() {
        let build = || {
            let mut f = FunctionBuilder::new("spin", 0);
            let head = f.bind_label();
            f.jump(head);
            Program::with_entry(vec![f.finish()])
        };
        let cfg = MachineConfig::default().with_fuel(1000);
        let interp = Machine::new(build(), cfg.clone()).run();
        let engine = run_program(build(), cfg);
        assert_eq!(engine.trap, Some(Trap::OutOfFuel));
        assert_eq!(engine.stats.uops, interp.stats.uops);
    }

    #[test]
    fn explicit_invalidation_forces_redecode() {
        let build = || {
            let mut f = FunctionBuilder::new("inv", 0);
            f.li(Reg::A0, 0);
            f.halt();
            Machine::new(
                Program::with_entry(vec![f.finish()]),
                MachineConfig::default(),
            )
        };
        let mut cache = SharedBlockCache::new(SharedBlockCache::DEFAULT_CAPACITY);
        let mut e = Engine::with_shared_cache(build(), &mut cache);
        let first = e.run();
        let pid = e.program_id();
        let decoded_before = e.stats().cache.decoded;
        assert!(decoded_before > 0);
        assert_eq!(cache.invalidate_program(pid), decoded_before);
        assert_eq!(cache.stats().invalidated, decoded_before);
        assert_eq!(cache.resident(), 0);
        let mut e = Engine::with_shared_cache(build(), &mut cache);
        assert_eq!(e.run(), first, "a redecoded run changes nothing observable");
        assert_eq!(
            e.stats().cache.decoded,
            2 * decoded_before,
            "the retired program decodes again"
        );
    }

    #[test]
    fn shared_cache_hands_warm_blocks_to_the_next_engine() {
        let build = || {
            let mut f = FunctionBuilder::new("main", 0);
            f.li(Reg::A0, 0);
            let head = f.bind_label();
            f.addi(Reg::A0, Reg::A0, 1);
            let done = f.new_label();
            f.branch(CmpOp::Ge, Reg::A0, 20, done);
            f.jump(head);
            f.bind(done);
            f.li(Reg::A0, 0);
            f.halt();
            Program::with_entry(vec![f.finish()])
        };
        let mut cache = SharedBlockCache::new(SharedBlockCache::DEFAULT_CAPACITY);
        let first = {
            let m = Machine::new(build(), MachineConfig::default());
            let mut e = Engine::with_shared_cache(m, &mut cache);
            let out = e.run();
            assert!(out.is_success());
            out
        };
        let decoded_cold = cache.stats().decoded;
        assert!(decoded_cold > 0);
        let second = {
            let m = Machine::new(build(), MachineConfig::default());
            let mut e = Engine::with_shared_cache(m, &mut cache);
            let out = e.run();
            assert!(out.is_success());
            out
        };
        assert_eq!(
            cache.stats().decoded,
            decoded_cold,
            "the second run of the same image must decode nothing"
        );
        assert_eq!(first, second, "warm blocks change nothing observable");

        // A different decode identity (baseline hardware) shares the cache
        // but not the blocks.
        let m = Machine::new(build(), MachineConfig::baseline());
        let mut e = Engine::with_shared_cache(m, &mut cache);
        assert!(e.run().is_success());
        assert!(
            cache.stats().decoded > decoded_cold,
            "a new decode configuration decodes its own blocks"
        );
        assert_eq!(cache.program_count(), 2);
    }

    #[test]
    fn hot_loop_blocks_survive_cold_code_under_pressure() {
        // Segmented LRU under the engine: a loop body re-used every
        // iteration is promoted to the protected segment and keeps its
        // decode work even when a tiny cache thrashes on one-shot blocks.
        let mut f = FunctionBuilder::new("mix", 0);
        f.li(Reg::A0, 0);
        let head = f.bind_label();
        f.addi(Reg::A0, Reg::A0, 1);
        let done = f.new_label();
        f.branch(CmpOp::Ge, Reg::A0, 50, done);
        f.jump(head);
        f.bind(done);
        f.li(Reg::A0, 0);
        f.halt();
        let program = Program::with_entry(vec![f.finish()]);
        let mut cache = SharedBlockCache::new(2);
        let mut e =
            Engine::with_shared_cache(Machine::new(program, MachineConfig::default()), &mut cache);
        let out = e.run();
        assert!(out.is_success());
        let s = e.stats();
        assert!(
            s.cache.hits > 45,
            "the promoted loop block must keep hitting: {s:?}"
        );
        assert!(
            s.cache.decoded <= 4,
            "no whole-flush redecode storms: {s:?}"
        );
    }

    #[test]
    fn profiling_changes_nothing_observable_and_attributes_all_blocks() {
        let build = || {
            let mut f = FunctionBuilder::new("profloop", 0);
            f.li(Reg::A0, 0);
            f.li(Reg::T0, hardbound_isa::layout::HEAP_BASE);
            f.setbound_imm(Reg::A1, Reg::T0, 64);
            let head = f.bind_label();
            f.load(Width::Word, Reg::A2, Reg::A1, 0);
            f.addi(Reg::A0, Reg::A0, 1);
            let done = f.new_label();
            f.branch(CmpOp::Ge, Reg::A0, 25, done);
            f.jump(head);
            f.bind(done);
            f.li(Reg::A0, 0);
            f.halt();
            Program::with_entry(vec![f.finish()])
        };
        let plain = run_program(build(), MachineConfig::default());
        let drained = hardbound_telemetry::profile::global().take();
        let mut e = Engine::new(Machine::new(build(), MachineConfig::default()));
        e.set_profiling(true);
        let profiled = e.run();
        assert_eq!(profiled, plain, "profiling must be invisible to outcomes");
        let blocks_executed = e.stats().blocks_executed;
        let p = hardbound_telemetry::profile::global().take();
        // Other tests in this process may flush concurrently, so filter to
        // this engine's program before asserting exact conservation.
        let pid = e.program_id().0;
        let execs: u64 = p
            .blocks
            .iter()
            .filter(|(k, _)| k.prog == pid)
            .map(|(_, s)| s.execs)
            .sum();
        let cycles: u64 = p
            .blocks
            .iter()
            .filter(|(k, _)| k.prog == pid)
            .map(|(_, s)| s.cycles)
            .sum();
        assert_eq!(
            execs, blocks_executed,
            "every dispatched block must be attributed exactly once"
        );
        assert_eq!(
            cycles, profiled.stats.uops,
            "all retired µops must be attributed to some block"
        );
        assert!(
            p.blocks
                .iter()
                .any(|(k, s)| k.prog == pid && s.name == "profloop" && s.taken > 0),
            "the loop block must show its taken checks: {p:?}"
        );
        // Restore anything another test had accumulated.
        hardbound_telemetry::profile::global().add(&drained);
    }

    #[test]
    fn mid_block_trap_counts_uops_like_the_interpreter() {
        let build = || {
            let mut f = FunctionBuilder::new("div0", 0);
            f.li(Reg::A0, 10);
            f.li(Reg::A1, 0);
            f.bin(BinOp::Div, Reg::A2, Reg::A0, Reg::A1);
            f.li(Reg::A3, 1); // never reached
            f.halt();
            Program::with_entry(vec![f.finish()])
        };
        let interp = Machine::new(build(), MachineConfig::default()).run();
        let engine = run_program(build(), MachineConfig::default());
        assert_eq!(engine.trap, interp.trap);
        assert_eq!(engine.stats.uops, interp.stats.uops);
        assert!(matches!(engine.trap, Some(Trap::DivideByZero { pc }) if pc.index == 2));
    }
}
