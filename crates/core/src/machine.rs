use std::collections::HashMap;

use hardbound_cache::{AccessClass, Hierarchy};
use hardbound_isa::layout;
use hardbound_isa::{FuncId, Inst, Operand, Program, Reg, SysCall, Width};
use hardbound_mem::{Memory, PageTouches};

use crate::config::{MachineConfig, SafetyMode, TimingPart};
use crate::forensics::{
    BoundsOrigin, FlightEvent, FlightRecorder, PageMetaSummary, ViolationReport, WindowLine,
};
use crate::meta::{propagate_binop, Meta};
use crate::objtable::ObjectTable;
use crate::stats::ExecStats;
use crate::trap::{Pc, Trap};

/// Simulator-internal tag-plane values (the architectural encodings they
/// correspond to are described in `crate::encoding`).
const TAG_NONE: u8 = 0;
const TAG_COMPRESSED: u8 = 1;
const TAG_UNCOMPRESSED: u8 = 2;

/// Saved caller state for the simulator-side return stack (see DESIGN.md:
/// the link register is abstracted; `sp`/`fp` save/restore is performed by
/// the calling sequence identically in every configuration).
#[derive(Clone, Copy, Debug)]
struct Frame {
    ret_func: FuncId,
    ret_pc: u32,
    saved_sp: u32,
    saved_sp_meta: Meta,
    saved_fp: u32,
    saved_fp_meta: Meta,
}

/// Result of a completed run.
///
/// `PartialEq` compares every observable field — exit code, trap (with
/// program counter), full [`ExecStats`], console output and the
/// `print_int` stream — so outcome equality *is* observational identity,
/// which the corpus-service result store and the differential suites rely
/// on.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutcome {
    /// Exit code if the program halted normally (via `sys halt` or
    /// returning from the entry function).
    pub exit_code: Option<i32>,
    /// The trap that stopped the program, if any.
    pub trap: Option<Trap>,
    /// Execution statistics (Figure 5 / Figure 6 inputs).
    pub stats: ExecStats,
    /// Console output produced by `print_*` syscalls.
    pub output: String,
    /// All values passed to `print_int`, for cheap checksum assertions.
    pub ints: Vec<i32>,
}

impl RunOutcome {
    /// `true` when the program halted normally with exit code 0.
    #[must_use]
    pub fn is_success(&self) -> bool {
        self.exit_code == Some(0) && self.trap.is_none()
    }
}

/// The HardBound machine: an in-order, one-µop-per-cycle 32-bit processor
/// with sidecar `{base, bound}` metadata on every register and memory word
/// (paper §3–4).
///
/// The HardBound extension is optional ([`MachineConfig::baseline`] models
/// the unmodified processor); when enabled, every load and store performs
/// the implicit bounds check of Figure 3, every memory operation consults
/// the tag metadata cache, and pointer metadata is compressed per the
/// configured [`crate::PointerEncoding`].
///
/// Every access is charged the same way: record the page touch, then
/// [`Hierarchy::access`] on the machine's hierarchy and on each timing
/// variant's. Each hierarchy answers its own same-block repeats.
pub struct Machine {
    program: Program,
    cfg: MachineConfig,
    regs: [u32; Reg::COUNT],
    metas: [Meta; Reg::COUNT],
    mem: Memory,
    hier: Hierarchy,
    pages: PageTouches,
    func: FuncId,
    pc: u32,
    call_stack: Vec<Frame>,
    stats: ExecStats,
    output: String,
    ints: Vec<i32>,
    halted: Option<i32>,
    trap: Option<Trap>,
    objtable: Option<Box<dyn ObjectTable>>,
    globals_end: u32,
    /// Right-shift mapping a data address to its tag-byte offset (5 for
    /// 1-bit tags, 3 for 4-bit tags); meaningless when HardBound is off.
    tag_down_shift: u32,
    /// Direct-mapped memo of pages known `region_ok`
    /// (`entry[page & MASK] == page`; `u32::MAX` = empty). Region
    /// boundaries are all page-aligned, so one passing check whitelists
    /// the whole page for non-straddling accesses; several entries keep
    /// loops that alternate between a few regions (two arrays, the frame)
    /// from thrashing the memo.
    ok_pages: [u32; OK_PAGES_MEMO_SIZE],
    /// Bounds provenance: the site PC and monotonic allocation id of the
    /// most recent `setbound` that produced each `{base, bound}` pair.
    /// Forensics-only — never consulted on the execution path and
    /// invisible to [`RunOutcome`] equality.
    bounds_origins: HashMap<(u32, u32), (Pc, u64)>,
    /// Next provenance id to allocate.
    next_origin: u64,
    /// The `HB_FLIGHT` ring of recent memory events (`None` = off, the
    /// default: one discriminant test per access, nothing recorded).
    flight: Option<FlightRecorder>,
    /// Timing variants of this run (see [`Machine::set_timing_variants`]);
    /// empty on the single-configuration path.
    variants: Vec<TimingVariant>,
    /// One hierarchy per distinct variant geometry that differs from the
    /// machine's own, driven in lockstep with `hier` by every charge.
    variant_hiers: Vec<Hierarchy>,
}

/// One timing variant: its timing part and the hierarchy that charges it
/// (`None` = the machine's own, whose geometry it shares).
#[derive(Debug)]
struct TimingVariant {
    timing: TimingPart,
    hier: Option<usize>,
}

/// Entries in the machine's direct-mapped `region_ok` page memo.
const OK_PAGES_MEMO_SIZE: usize = 64;

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("func", &self.func)
            .field("pc", &self.pc)
            .field("halted", &self.halted)
            .field("trap", &self.trap)
            .field("uops", &self.stats.uops)
            .finish()
    }
}

impl Machine {
    /// Creates a machine ready to execute `program` from its entry
    /// function.
    ///
    /// # Panics
    ///
    /// Panics if the program fails [`Program::validate`] — callers are
    /// expected to compile through `hardbound-compiler`, which always
    /// produces valid images.
    #[must_use]
    pub fn new(program: Program, cfg: MachineConfig) -> Machine {
        if let Err(e) = program.validate() {
            panic!("invalid program: {e}");
        }
        let mut mem = Memory::new();
        for init in &program.data {
            mem.write_bytes(init.addr, &init.bytes);
        }
        let globals_end = layout::GLOBALS_BASE
            + program
                .globals_size
                .next_multiple_of(layout::PAGE_SIZE as u32);
        let entry = program.entry;
        let mut m = Machine {
            hier: Hierarchy::new(cfg.hierarchy),
            tag_down_shift: cfg
                .hardbound
                .map_or(5, |hb| (32 / hb.encoding.tag_bits()).trailing_zeros()),
            ok_pages: [u32::MAX; OK_PAGES_MEMO_SIZE],
            cfg,
            program,
            regs: [0; Reg::COUNT],
            metas: [Meta::NONE; Reg::COUNT],
            mem,
            pages: PageTouches::new(),
            func: entry,
            pc: 0,
            call_stack: Vec::new(),
            stats: ExecStats::default(),
            output: String::new(),
            ints: Vec::new(),
            halted: None,
            trap: None,
            objtable: None,
            globals_end,
            bounds_origins: HashMap::new(),
            next_origin: 0,
            flight: None,
            variants: Vec::new(),
            variant_hiers: Vec::new(),
        };
        // Set up the entry function's frame directly (there is no caller).
        let entry_frame = m.program.functions[entry.0 as usize].frame_size;
        let sp = layout::STACK_TOP - entry_frame;
        let smeta = m.stack_reg_meta();
        m.set(Reg::SP, sp, smeta);
        m.set(Reg::FP, sp, smeta);
        let gmeta = if m.cfg.hardbound.is_some() {
            Meta {
                base: layout::GLOBALS_BASE,
                bound: m.globals_end,
            }
        } else {
            Meta::NONE
        };
        m.set(Reg::GP, layout::GLOBALS_BASE, gmeta);
        m
    }

    /// Makes this run also time each configuration of `variants`: one
    /// functional execution, charged in lockstep to one extra hierarchy
    /// per distinct geometry, from which
    /// [`Machine::timing_variant_outcomes`] derives each variant's
    /// outcome. The single-configuration path (no variants) pays one
    /// untaken branch per hierarchy charge.
    ///
    /// # Panics
    ///
    /// Panics if the machine has started running, if a variant's
    /// [`MachineConfig::functional_key`] differs from the machine's, or if
    /// a variant has the §5.4 check-µop ablation and the machine does not:
    /// the machine counts the ablation-eligible checks only when its own
    /// configuration charges them, and its µop count must bound every
    /// variant's for the fuel rule of
    /// [`Machine::timing_variant_outcomes`].
    pub fn set_timing_variants(&mut self, variants: &[MachineConfig]) {
        assert_eq!(self.stats.uops, 0, "timing variants are set before the run");
        let key = self.cfg.functional_key();
        let own = self.cfg.timing();
        self.variants.clear();
        self.variant_hiers.clear();
        for cfg in variants {
            assert_eq!(cfg.functional_key(), key, "a timing variant of another run");
            let timing = cfg.timing();
            assert!(
                own.check_uop || !timing.check_uop,
                "a check-µop variant needs a check-µop machine"
            );
            let hier = if timing.hierarchy == own.hierarchy {
                None
            } else if let Some(v) = self
                .variants
                .iter()
                .find(|v| v.timing.hierarchy == timing.hierarchy)
            {
                v.hier
            } else {
                self.variant_hiers.push(Hierarchy::new(timing.hierarchy));
                Some(self.variant_hiers.len() - 1)
            };
            self.variants.push(TimingVariant { timing, hier });
        }
    }

    /// The outcome of each timing variant (in [`Machine::set_timing_variants`]
    /// order), derived from `primary`, this machine's own finished
    /// outcome. A variant's outcome differs from `primary` only in
    /// `hierarchy` (its own hierarchy's), `check_uops` (the eligible checks
    /// this machine counted, or none) and `uops` (by the difference).
    ///
    /// `None` marks a variant whose separate run could have stopped
    /// elsewhere, so its cell must run on its own: every variant when
    /// `primary` ran out of fuel, and any variant whose µop count exceeds
    /// the fuel limit.
    #[must_use]
    pub fn timing_variant_outcomes(&self, primary: &RunOutcome) -> Vec<Option<RunOutcome>> {
        let out_of_fuel = primary.trap == Some(Trap::OutOfFuel);
        let eligible = primary.stats.check_uops;
        self.variants
            .iter()
            .map(|v| {
                let check_uops = if v.timing.check_uop { eligible } else { 0 };
                let uops = primary.stats.uops - eligible + check_uops;
                if out_of_fuel || uops > self.cfg.fuel {
                    return None;
                }
                let mut out = primary.clone();
                out.stats.uops = uops;
                out.stats.check_uops = check_uops;
                if let Some(i) = v.hier {
                    out.stats.hierarchy = self.variant_hiers[i].stats();
                }
                Some(out)
            })
            .collect()
    }

    /// Installs the object-table hook used by the JK/RL/DA comparison mode.
    pub fn set_object_table(&mut self, table: Box<dyn ObjectTable>) {
        self.objtable = Some(table);
    }

    /// Runs until halt, trap, or fuel exhaustion.
    pub fn run(&mut self) -> RunOutcome {
        self.run_steps();
        self.finish_outcome()
    }

    /// The interpreter loop: [`Machine::step`]s until halt, trap, or fuel
    /// exhaustion, recording the stopping trap, and returns how many
    /// instructions it stepped. The block engine (`hardbound-exec`)
    /// finishes runs near the fuel limit with this loop.
    pub fn run_steps(&mut self) -> u64 {
        let mut steps = 0;
        while self.halted.is_none() && self.trap.is_none() {
            if self.stats.uops >= self.cfg.fuel {
                self.trap = Some(Trap::OutOfFuel);
                break;
            }
            steps += 1;
            if let Err(t) = self.step() {
                self.trap = Some(t);
            }
        }
        steps
    }

    /// Finalizes page/stall accounting and assembles the [`RunOutcome`] for
    /// the machine's current state. [`Machine::run`] ends with this; the
    /// block engine (`hardbound-exec`) drives the machine through
    /// [`ExecState`] and calls it directly.
    pub fn finish_outcome(&mut self) -> RunOutcome {
        self.finalize_stats();
        RunOutcome {
            exit_code: self.halted,
            trap: self.trap,
            stats: self.stats,
            output: self.output.clone(),
            ints: self.ints.clone(),
        }
    }

    /// The program image this machine executes.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The active machine configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The narrow state interface the block execution engine drives; see
    /// [`ExecState`].
    #[must_use]
    pub fn exec_state(&mut self) -> ExecState<'_> {
        ExecState { m: self }
    }

    /// Execution statistics so far (page counts are finalized by
    /// [`Machine::run`]).
    #[must_use]
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Aggregate residency-filter counters of the simulated
    /// hierarchy — machinery telemetry (`hb_hier_fastpath_*`), not part of
    /// any observational identity.
    #[must_use]
    pub fn hier_fast_stats(&self) -> hardbound_cache::HierFastStats {
        self.hier.fast_stats()
    }

    /// Console output so far.
    #[must_use]
    pub fn output(&self) -> &str {
        &self.output
    }

    /// Enables the flight recorder: the machine keeps the last `depth`
    /// memory events for [`Machine::violation_report`]. Off by default
    /// (`HB_FLIGHT=N` turns it on via the runtime); recording touches no
    /// statistics, so outcomes are byte-identical either way.
    pub fn enable_flight(&mut self, depth: usize) {
        self.flight = Some(FlightRecorder::new(depth));
    }

    /// Records one `setbound`'s bounds provenance: `site` created `meta`'s
    /// `{base, bound}` pair, under the next monotonic provenance id.
    #[inline]
    fn record_setbound(&mut self, site: Pc, meta: Meta) {
        let id = self.next_origin;
        self.next_origin += 1;
        self.bounds_origins
            .insert((meta.base, meta.bound), (site, id));
    }

    /// `setbound`: `rd` gets `rs`'s value bounded to `[value, value +
    /// size)`, and `site` is recorded as the pair's provenance.
    #[inline]
    fn exec_setbound(&mut self, site: Pc, rd: Reg, rs: Reg, size: u32) {
        self.stats.setbound_uops += 1;
        let value = self.r(rs);
        let meta = Meta::object(value, size);
        self.record_setbound(site, meta);
        self.set(rd, value, meta);
    }

    /// `unbound`: the §3.2 escape hatch. Counted with `setbound`: both are
    /// bounds-manipulation µops present only in instrumented binaries.
    #[inline]
    fn exec_unbound(&mut self, rd: Reg, rs: Reg) {
        self.stats.setbound_uops += 1;
        self.set(rd, self.r(rs), Meta::UNCHECKED);
    }

    /// Appends one memory event to the flight recorder, if enabled.
    #[inline]
    fn note_flight(&mut self, pc: Pc, addr: u32, width: u32, is_store: bool) {
        if let Some(fr) = self.flight.as_mut() {
            fr.record(FlightEvent {
                uop: self.stats.uops,
                pc,
                addr,
                width: width as u8,
                is_store,
            });
        }
    }

    /// Assembles the structured forensics report for a trapped machine:
    /// the trap, the out-of-bounds distance, the originating `setbound`
    /// site from the provenance table, the faulting page's tag/shadow
    /// word counts (walked here, off the execution path), a disassembled
    /// code window, and the flight
    /// recorder's tail. `None` while the machine has not trapped.
    #[must_use]
    pub fn violation_report(&self) -> Option<ViolationReport> {
        let trap = self.trap?;
        let pc = trap.pc();
        let (addr, bounds) = match trap {
            Trap::BoundsViolation {
                addr, base, bound, ..
            } => (Some(addr), Some((base, bound))),
            Trap::NonPointerDereference { addr, .. }
            | Trap::WildAddress { addr, .. }
            | Trap::ObjectTableViolation { addr, .. } => (Some(addr), None),
            _ => (None, None),
        };
        let oob = match (addr, bounds) {
            (Some(a), Some((base, bound))) => Some(ViolationReport::distance(a, base, bound)),
            _ => None,
        };
        let origin = match bounds {
            Some((base, bound)) => {
                let meta = Meta { base, bound };
                if self.is_region_meta(meta) {
                    BoundsOrigin::Region
                } else if let Some(&(site, id)) = self.bounds_origins.get(&(base, bound)) {
                    BoundsOrigin::Setbound { site, id }
                } else {
                    BoundsOrigin::Unknown
                }
            }
            None => BoundsOrigin::Unknown,
        };
        let page = addr.map(|a| PageMetaSummary {
            page: a >> 12,
            tag_words: self.mem.page_tag_words(a),
            shadow_words: self.mem.page_shadow_words(a),
            uncompressed_words: self.mem.page_uncompressed_words(a),
        });
        let window = pc.map_or_else(Vec::new, |pc| {
            let insts = &self.program.functions[pc.func.0 as usize].insts;
            let lo = pc.index.saturating_sub(2);
            let hi = (pc.index + 3).min(insts.len() as u32);
            (lo..hi)
                .map(|i| WindowLine {
                    index: i,
                    text: insts[i as usize].to_string(),
                    is_fault: i == pc.index,
                })
                .collect()
        });
        let flight = self
            .flight
            .as_ref()
            .map_or_else(Vec::new, FlightRecorder::tail);
        Some(ViolationReport {
            trap,
            pc,
            addr,
            bounds,
            oob,
            origin,
            page,
            window,
            flight,
        })
    }

    /// Direct register read (for tests and the Figure 2 walkthrough).
    #[must_use]
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Direct sidecar-metadata read (for tests).
    #[must_use]
    pub fn reg_meta(&self, r: Reg) -> Meta {
        self.metas[r.index()]
    }

    fn finalize_stats(&mut self) {
        self.stats.hierarchy = self.hier.stats();
        self.stats.data_pages = self.pages.data_pages();
        self.stats.tag_pages = self.pages.tag_pages();
        self.stats.shadow_pages = self.pages.shadow_pages();
    }

    #[inline]
    fn r(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    #[inline]
    fn m(&self, r: Reg) -> Meta {
        self.metas[r.index()]
    }

    #[inline]
    fn set(&mut self, r: Reg, value: u32, meta: Meta) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
            self.metas[r.index()] = meta;
        }
    }

    fn resolve(&self, op: Operand) -> (u32, Option<Meta>) {
        match op {
            Operand::Reg(r) => (self.r(r), Some(self.m(r))),
            Operand::Imm(i) => (i as u32, None),
        }
    }

    #[inline]
    fn region_ok(&mut self, ea: u32, width: u32) -> bool {
        // Every region boundary (globals end included — it is rounded to a
        // page multiple) is 4 KB-aligned, so a page either lies entirely in
        // a region or entirely outside all of them: one passing check
        // whitelists its whole page for accesses that do not straddle it.
        let in_page = (ea & 4095) + width <= 4096;
        let page = ea >> 12;
        if in_page && self.ok_pages[page as usize % OK_PAGES_MEMO_SIZE] == page {
            return true;
        }
        let ok = self.region_ok_slow(ea, width);
        if ok && in_page {
            self.ok_pages[page as usize % OK_PAGES_MEMO_SIZE] = page;
        }
        ok
    }

    fn region_ok_slow(&self, ea: u32, width: u32) -> bool {
        let start = u64::from(ea);
        let end = start + u64::from(width);
        let within = |lo: u32, hi: u32| start >= u64::from(lo) && end <= u64::from(hi);
        within(layout::GLOBALS_BASE, self.globals_end)
            || within(layout::HEAP_BASE, layout::HEAP_END)
            || within(layout::STACK_LIMIT, layout::STACK_TOP)
            || within(
                layout::SW_SHADOW_BASE,
                layout::sw_shadow_addr(layout::STACK_TOP),
            )
    }

    /// The implicit HardBound dereference check of Figure 3 C/D. Returns
    /// `Ok(())` when the access may proceed.
    #[inline]
    fn implicit_check(
        &mut self,
        fpc: Pc,
        ea: u32,
        width: u32,
        meta: Meta,
        is_store: bool,
    ) -> Result<(), Trap> {
        let Some(hb) = self.cfg.hardbound else {
            return Ok(());
        };
        if !meta.is_pointer() {
            return match hb.mode {
                // Full safety: Figure 3's non-pointer exception.
                SafetyMode::Full => Err(Trap::NonPointerDereference {
                    pc: fpc,
                    addr: ea,
                    is_store,
                }),
                // Malloc-only: unchecked when no metadata is present.
                SafetyMode::MallocOnly => Ok(()),
            };
        }
        self.stats.bounds_checks += 1;
        if hb.check_uop
            && !hb.encoding.is_compressible(meta.base, meta)
            && !self.is_region_meta(meta)
        {
            // §5.4 ablation: bounds checks of uncompressed pointers borrow
            // a shared ALU and cost one extra µop. Frame/global-direct
            // accesses check against constant region bounds held in
            // dedicated registers and are excluded (see DESIGN.md).
            self.stats.check_uops += 1;
            self.stats.uops += 1;
        }
        if meta.check(ea, width) {
            Ok(())
        } else {
            Err(Trap::BoundsViolation {
                pc: fpc,
                addr: ea,
                base: meta.base,
                bound: meta.bound,
                is_store,
            })
        }
    }

    /// Charges one access to the machine's hierarchy and, in lockstep, to
    /// every variant hierarchy.
    #[inline]
    fn charge(&mut self, class: AccessClass, addr: u64) {
        self.hier.access(class, addr);
        for h in &mut self.variant_hiers {
            h.access(class, addr);
        }
    }

    #[inline]
    fn charge_data(&mut self, ea: u32) {
        self.pages.touch_data(ea);
        self.charge(AccessClass::Data, u64::from(ea));
    }

    /// Charges one data access and then its tag-metadata access.
    #[inline]
    fn charge_data_and_tag(&mut self, ea: u32) {
        debug_assert!(
            self.cfg.hardbound.is_some(),
            "tag traffic only with HardBound"
        );
        let tag_addr = layout::HW_TAG_BASE + u64::from(ea >> self.tag_down_shift);
        debug_assert_eq!(
            tag_addr,
            layout::hw_tag_addr(ea, self.cfg.hardbound.expect("checked").encoding.tag_bits())
        );
        self.charge_data(ea);
        self.pages.touch_tag(tag_addr);
        self.charge(AccessClass::Tag, tag_addr);
    }

    /// Charges the shadow `{base, bound}` access of an uncompressed
    /// pointer word at `ea`.
    fn charge_shadow(&mut self, ea: u32) {
        let addr = layout::hw_shadow_addr(ea);
        self.pages.touch_shadow(addr);
        self.charge(AccessClass::Shadow, addr);
        // "Any load or store of an uncompressed bounded pointer creates an
        // additional micro-operation to access the bounds metadata" (§5.1).
        self.stats.meta_uops += 1;
        self.stats.uops += 1;
    }

    fn exec_load(
        &mut self,
        fpc: Pc,
        width: Width,
        rd: Reg,
        addr: Reg,
        offset: i32,
    ) -> Result<(), Trap> {
        if self.cfg.hardbound.is_some() {
            self.exec_load_g::<true>(fpc, width, rd, addr, offset)
        } else {
            self.exec_load_g::<false>(fpc, width, rd, addr, offset)
        }
    }

    /// Load semantics, monomorphized over "is the HardBound extension
    /// active". The interpreter dispatches on the configuration each step;
    /// the block engine resolves `HB` once at decode time and calls the
    /// right instantiation directly (paper §4.4's µop-insertion pipeline,
    /// applied per static instruction).
    fn exec_load_g<const HB: bool>(
        &mut self,
        fpc: Pc,
        width: Width,
        rd: Reg,
        addr: Reg,
        offset: i32,
    ) -> Result<(), Trap> {
        debug_assert_eq!(HB, self.cfg.hardbound.is_some());
        let ea = self.r(addr).wrapping_add(offset as u32);
        if self.flight.is_some() {
            self.note_flight(fpc, ea, width.bytes(), false);
        }
        if HB {
            let ameta = self.m(addr);
            self.implicit_check(fpc, ea, width.bytes(), ameta, false)?;
        }
        if !self.region_ok(ea, width.bytes()) {
            return Err(Trap::WildAddress {
                pc: fpc,
                addr: ea,
                is_store: false,
            });
        }
        self.load_body::<HB>(ea, width, rd);
        Ok(())
    }

    /// Everything a load does *after* its checks pass: hierarchy charges,
    /// tag/shadow traffic, the memory read and the register write.
    fn load_body<const HB: bool>(&mut self, ea: u32, width: Width, rd: Reg) {
        self.stats.loads += 1;
        // "This tag metadata is needed by every memory operation" (§4.2).
        if HB {
            self.charge_data_and_tag(ea);
        } else {
            self.charge_data(ea);
        }
        match width {
            Width::Byte => {
                let v = self.mem.read_u8(ea);
                self.set(rd, u32::from(v), Meta::NONE);
            }
            Width::Word => {
                if HB && ea.is_multiple_of(4) {
                    let (raw, tag, shadow) = self.mem.read_word_full(ea);
                    let mut meta = Meta::NONE;
                    match tag {
                        TAG_NONE => {}
                        TAG_COMPRESSED => {
                            // Metadata travels inside the word/tag — no
                            // extra traffic (paper §4.3).
                            meta = shadow.into();
                            self.stats.ptr_loads += 1;
                            self.stats.compressed_ptr_loads += 1;
                        }
                        TAG_UNCOMPRESSED => {
                            self.charge_shadow(ea);
                            meta = shadow.into();
                            self.stats.ptr_loads += 1;
                        }
                        t => unreachable!("corrupt tag {t}"),
                    }
                    self.set(rd, raw, meta);
                } else {
                    // Baseline or unaligned load: never a pointer.
                    let raw = self.mem.read_u32(ea);
                    self.set(rd, raw, Meta::NONE);
                }
            }
        }
    }

    fn exec_store(
        &mut self,
        fpc: Pc,
        width: Width,
        src: Reg,
        addr: Reg,
        offset: i32,
    ) -> Result<(), Trap> {
        if self.cfg.hardbound.is_some() {
            self.exec_store_g::<true>(fpc, width, src, addr, offset)
        } else {
            self.exec_store_g::<false>(fpc, width, src, addr, offset)
        }
    }

    /// Store semantics, monomorphized like [`Machine::exec_load_g`].
    fn exec_store_g<const HB: bool>(
        &mut self,
        fpc: Pc,
        width: Width,
        src: Reg,
        addr: Reg,
        offset: i32,
    ) -> Result<(), Trap> {
        debug_assert_eq!(HB, self.cfg.hardbound.is_some());
        let ea = self.r(addr).wrapping_add(offset as u32);
        if self.flight.is_some() {
            self.note_flight(fpc, ea, width.bytes(), true);
        }
        if HB {
            let ameta = self.m(addr);
            self.implicit_check(fpc, ea, width.bytes(), ameta, true)?;
        }
        if !self.region_ok(ea, width.bytes()) {
            return Err(Trap::WildAddress {
                pc: fpc,
                addr: ea,
                is_store: true,
            });
        }
        self.store_body::<HB>(ea, width, src);
        Ok(())
    }

    /// Everything a store does *after* its checks pass (dual of
    /// [`Machine::load_body`]).
    fn store_body<const HB: bool>(&mut self, ea: u32, width: Width, src: Reg) {
        self.stats.stores += 1;
        if HB {
            self.charge_data_and_tag(ea);
        } else {
            self.charge_data(ea);
        }
        let value = self.r(src);
        match width {
            Width::Byte => {
                self.mem.write_u8(ea, value as u8);
                if HB {
                    // A sub-word store destroys the containing word's
                    // pointer-ness (conservative, as real hardware must).
                    self.mem.set_tag(ea, TAG_NONE);
                }
            }
            Width::Word => {
                if HB {
                    if ea.is_multiple_of(4) {
                        let meta = self.m(src);
                        if meta.is_pointer() {
                            self.stats.ptr_stores += 1;
                            let hb = self.cfg.hardbound.expect("checked above");
                            if hb.encoding.is_compressible(value, meta) {
                                self.stats.compressed_ptr_stores += 1;
                                self.mem.write_word_pointer(
                                    ea,
                                    value,
                                    TAG_COMPRESSED,
                                    (meta.base, meta.bound),
                                );
                            } else {
                                self.mem.write_word_pointer(
                                    ea,
                                    value,
                                    TAG_UNCOMPRESSED,
                                    (meta.base, meta.bound),
                                );
                                self.charge_shadow(ea);
                            }
                        } else {
                            self.mem.write_word_tagged(ea, value, TAG_NONE);
                        }
                    } else {
                        // Unaligned word store: clear both containing words.
                        self.mem.write_u32(ea, value);
                        self.mem.set_tag(ea, TAG_NONE);
                        self.mem.set_tag(ea.wrapping_add(3), TAG_NONE);
                    }
                } else {
                    self.mem.write_u32(ea, value);
                }
            }
        }
    }

    /// Performs the calling sequence: saves the caller's `sp`/`fp`, carves
    /// the callee's frame out of the stack and points `fp` at it. With
    /// HardBound enabled, `sp` and `fp` carry whole-stack bounds — the
    /// compiler narrows pointers to individual stack objects with
    /// `setbound` (paper §3.2); compiler-generated frame-slot accesses are
    /// statically safe and check against the stack region only.
    fn do_call(&mut self, callee: FuncId) -> Result<(), Trap> {
        if self.call_stack.len() >= self.cfg.max_call_depth {
            return Err(Trap::CallDepthExceeded);
        }
        self.call_stack.push(Frame {
            ret_func: self.func,
            ret_pc: self.pc,
            saved_sp: self.r(Reg::SP),
            saved_sp_meta: self.m(Reg::SP),
            saved_fp: self.r(Reg::FP),
            saved_fp_meta: self.m(Reg::FP),
        });
        let frame_size = self.program.functions[callee.0 as usize].frame_size;
        let new_sp = self.r(Reg::SP).wrapping_sub(frame_size);
        if !(layout::STACK_LIMIT..=layout::STACK_TOP).contains(&new_sp) {
            return Err(Trap::StackOverflow);
        }
        let meta = self.stack_reg_meta();
        self.set(Reg::SP, new_sp, meta);
        self.set(Reg::FP, new_sp, meta);
        self.func = callee;
        self.pc = 0;
        Ok(())
    }

    /// Whether `meta` is one of the machine-provided region bounds (whole
    /// stack / whole globals) rather than a software-created pointer.
    fn is_region_meta(&self, meta: Meta) -> bool {
        meta == Meta {
            base: layout::STACK_LIMIT,
            bound: layout::STACK_TOP,
        } || meta
            == Meta {
                base: layout::GLOBALS_BASE,
                bound: self.globals_end,
            }
    }

    fn stack_reg_meta(&self) -> Meta {
        if self.cfg.hardbound.is_some() {
            Meta {
                base: layout::STACK_LIMIT,
                bound: layout::STACK_TOP,
            }
        } else {
            Meta::NONE
        }
    }

    fn do_ret(&mut self) {
        match self.call_stack.pop() {
            Some(frame) => {
                self.set(Reg::SP, frame.saved_sp, frame.saved_sp_meta);
                self.set(Reg::FP, frame.saved_fp, frame.saved_fp_meta);
                self.func = frame.ret_func;
                self.pc = frame.ret_pc;
            }
            None => {
                // Returning from the entry function exits the program.
                self.halted = Some(self.r(Reg::A0) as i32);
            }
        }
    }

    fn exec_sys(&mut self, fpc: Pc, call: SysCall) -> Result<(), Trap> {
        use std::fmt::Write as _;
        match call {
            SysCall::PrintInt => {
                let v = self.r(Reg::A0) as i32;
                self.ints.push(v);
                let _ = writeln!(self.output, "{v}");
            }
            SysCall::PrintChar => {
                self.output.push(self.r(Reg::A0) as u8 as char);
            }
            SysCall::Halt => {
                self.halted = Some(self.r(Reg::A0) as i32);
            }
            SysCall::Abort => {
                return Err(Trap::SoftwareAbort {
                    code: self.r(Reg::A0) as i32,
                });
            }
            SysCall::OtRegister => {
                let (base, size) = (self.r(Reg::A0), self.r(Reg::A1));
                if let Some(t) = self.objtable.as_mut() {
                    self.stats.objtable_cycles += t.register(base, size);
                }
            }
            SysCall::OtUnregister => {
                let base = self.r(Reg::A0);
                if let Some(t) = self.objtable.as_mut() {
                    self.stats.objtable_cycles += t.unregister(base);
                }
            }
            SysCall::OtCheck => {
                let (from, to) = (self.r(Reg::A0), self.r(Reg::A1));
                if let Some(t) = self.objtable.as_mut() {
                    let (cost, ok) = t.check(from, to);
                    self.stats.objtable_cycles += cost;
                    if !ok {
                        return Err(Trap::ObjectTableViolation { pc: fpc, addr: to });
                    }
                }
            }
            SysCall::OtCheckArith => {
                let (from, to) = (self.r(Reg::A0), self.r(Reg::A1));
                if let Some(t) = self.objtable.as_mut() {
                    let (cost, ok) = t.check_arith(from, to);
                    self.stats.objtable_cycles += cost;
                    if !ok {
                        return Err(Trap::ObjectTableViolation { pc: fpc, addr: to });
                    }
                }
            }
        }
        Ok(())
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] raised by the instruction, if any.
    pub fn step(&mut self) -> Result<(), Trap> {
        let f = &self.program.functions[self.func.0 as usize];
        debug_assert!(
            (self.pc as usize) < f.insts.len(),
            "validated programs never run off"
        );
        let inst = f.insts[self.pc as usize];
        let fpc = Pc {
            func: self.func,
            index: self.pc,
        };
        // Pre-advance; branches, calls and returns overwrite.
        self.pc += 1;
        self.stats.uops += 1;

        match inst {
            Inst::Li { rd, imm } => self.set(rd, imm, Meta::NONE),
            Inst::Mov { rd, rs } => self.set(rd, self.r(rs), self.m(rs)),
            Inst::Bin { op, rd, rs1, rs2 } => {
                let a = self.r(rs1);
                let am = self.m(rs1);
                let (b, bm) = self.resolve(rs2);
                let value = op.eval(a, b).ok_or(Trap::DivideByZero { pc: fpc })?;
                self.set(rd, value, propagate_binop(op, am, bm));
            }
            Inst::Cmp { op, rd, rs1, rs2 } => {
                let a = self.r(rs1);
                let (b, _) = self.resolve(rs2);
                self.set(rd, u32::from(op.eval(a, b)), Meta::NONE);
            }
            Inst::Load {
                width,
                rd,
                addr,
                offset,
            } => {
                self.exec_load(fpc, width, rd, addr, offset)?;
            }
            Inst::Store {
                width,
                src,
                addr,
                offset,
            } => {
                self.exec_store(fpc, width, src, addr, offset)?;
            }
            Inst::SetBound { rd, rs, size } => {
                let (size, _) = self.resolve(size);
                self.exec_setbound(fpc, rd, rs, size);
            }
            Inst::Unbound { rd, rs } => self.exec_unbound(rd, rs),
            Inst::CodePtr { rd, func } => {
                self.set(rd, func.code_addr(), self.cfg.code_pointer_meta());
            }
            Inst::ReadBase { rd, rs } => {
                let base = self.m(rs).base;
                self.set(rd, base, Meta::NONE);
            }
            Inst::ReadBound { rd, rs } => {
                let bound = self.m(rs).bound;
                self.set(rd, bound, Meta::NONE);
            }
            Inst::Branch {
                op,
                rs1,
                rs2,
                target,
            } => {
                let a = self.r(rs1);
                let (b, _) = self.resolve(rs2);
                if op.eval(a, b) {
                    self.pc = target;
                }
            }
            Inst::Jump { target } => self.pc = target,
            Inst::Call { func } => self.do_call(func)?,
            Inst::CallInd { rs } => {
                let value = self.r(rs);
                let meta = self.m(rs);
                if self.cfg.hardbound.is_some() && !meta.is_code() {
                    // §6.1: only genuine code pointers are callable. In
                    // malloc-only mode legacy binaries carry no metadata,
                    // so non-pointers are allowed through.
                    let malloc_only =
                        self.cfg.hardbound.map(|h| h.mode) == Some(SafetyMode::MallocOnly);
                    if !malloc_only || meta.is_pointer() {
                        return Err(Trap::InvalidCallTarget { pc: fpc, value });
                    }
                }
                let Some(idx) = layout::func_index_of_code_addr(value) else {
                    return Err(Trap::InvalidCallTarget { pc: fpc, value });
                };
                if idx as usize >= self.program.functions.len() {
                    return Err(Trap::InvalidCallTarget { pc: fpc, value });
                }
                self.do_call(FuncId(idx))?;
            }
            Inst::Ret => self.do_ret(),
            Inst::Sys { call } => self.exec_sys(fpc, call)?,
            Inst::Nop => {}
        }
        Ok(())
    }
}

/// The narrow mutable interface the basic-block execution engine
/// (`hardbound-exec`) drives.
///
/// The engine owns instruction *dispatch* only (pre-decoded µop blocks);
/// the machine keeps sole ownership of *semantics* — register/metadata
/// state, the memory planes, the cache hierarchy, statistics, and trap
/// plumbing. Everything here delegates to exactly the code
/// [`Machine::step`] runs, and the engine takes ALU values and Figure 3
/// propagation from the same `BinOp::eval`/`CmpOp::eval` and
/// [`propagate_binop`] the interpreter calls, so the two execution paths
/// cannot drift: the engine-vs-interpreter differential suite holds them
/// observationally identical (output, traps, and every
/// [`ExecStats`](crate::ExecStats) counter).
pub struct ExecState<'m> {
    m: &'m mut Machine,
}

impl ExecState<'_> {
    /// Register value.
    #[inline]
    #[must_use]
    pub fn reg(&self, r: Reg) -> u32 {
        self.m.regs[r.index()]
    }

    /// Register sidecar metadata.
    #[inline]
    #[must_use]
    pub fn reg_meta(&self, r: Reg) -> Meta {
        self.m.metas[r.index()]
    }

    /// Writes a register and its sidecar metadata (writes to `zero` are
    /// discarded, as in the interpreter).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: u32, meta: Meta) {
        self.m.set(r, value, meta);
    }

    /// Current control-flow position.
    #[inline]
    #[must_use]
    pub fn pc(&self) -> (FuncId, u32) {
        (self.m.func, self.m.pc)
    }

    /// Moves control to `pc` within `func`. The engine uses this to commit
    /// block-local control flow and to position the machine before a
    /// [`Machine::step`] fallback.
    #[inline]
    pub fn set_pc(&mut self, func: FuncId, pc: u32) {
        self.m.func = func;
        self.m.pc = pc;
    }

    /// Exit code if the machine has halted.
    #[inline]
    #[must_use]
    pub fn halted(&self) -> Option<i32> {
        self.m.halted
    }

    /// The pending trap, if any.
    #[inline]
    #[must_use]
    pub fn trap(&self) -> Option<Trap> {
        self.m.trap
    }

    /// Records a trap, stopping the run (mirrors [`Machine::run`]'s
    /// handling of a `step` error).
    #[inline]
    pub fn set_trap(&mut self, trap: Trap) {
        self.m.trap = Some(trap);
    }

    /// µops retired so far (the fuel meter reading).
    #[inline]
    #[must_use]
    pub fn uops(&self) -> u64 {
        self.m.stats.uops
    }

    /// The configured fuel limit.
    #[inline]
    #[must_use]
    pub fn fuel(&self) -> u64 {
        self.m.cfg.fuel
    }

    /// Retires `n` µops at once (the engine batches a block's worth of
    /// straight-line µops into one counter update).
    #[inline]
    pub fn retire_uops(&mut self, n: u64) {
        self.m.stats.uops += n;
    }

    /// `setbound rd, rs, size` as [`Machine::step`] runs it, provenance
    /// (`site`, for [`Machine::violation_report`]) included.
    #[inline]
    pub fn setbound(&mut self, site: Pc, rd: Reg, rs: Reg, size: u32) {
        self.m.exec_setbound(site, rd, rs, size);
    }

    /// `unbound rd, rs` as [`Machine::step`] runs it.
    #[inline]
    pub fn unbound(&mut self, rd: Reg, rs: Reg) {
        self.m.exec_unbound(rd, rs);
    }

    /// Load with the HardBound extension statically known inactive
    /// (decode-time resolution of the baseline configuration).
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] the access raises, if any.
    #[inline]
    pub fn load_raw(
        &mut self,
        fpc: Pc,
        width: Width,
        rd: Reg,
        addr: Reg,
        offset: i32,
    ) -> Result<(), Trap> {
        self.m.exec_load_g::<false>(fpc, width, rd, addr, offset)
    }

    /// Load with the HardBound extension statically known active.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] the access raises, if any.
    #[inline]
    pub fn load_hb(
        &mut self,
        fpc: Pc,
        width: Width,
        rd: Reg,
        addr: Reg,
        offset: i32,
    ) -> Result<(), Trap> {
        self.m.exec_load_g::<true>(fpc, width, rd, addr, offset)
    }

    /// Store with the HardBound extension statically known inactive.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] the access raises, if any.
    #[inline]
    pub fn store_raw(
        &mut self,
        fpc: Pc,
        width: Width,
        src: Reg,
        addr: Reg,
        offset: i32,
    ) -> Result<(), Trap> {
        self.m.exec_store_g::<false>(fpc, width, src, addr, offset)
    }

    /// Store with the HardBound extension statically known active.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] the access raises, if any.
    #[inline]
    pub fn store_hb(
        &mut self,
        fpc: Pc,
        width: Width,
        src: Reg,
        addr: Reg,
        offset: i32,
    ) -> Result<(), Trap> {
        self.m.exec_store_g::<true>(fpc, width, src, addr, offset)
    }

    /// Performs the calling sequence into `callee`. The return address is
    /// the machine's current position, so the engine must
    /// [`ExecState::set_pc`] to the instruction *after* the call first.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::CallDepthExceeded`] / [`Trap::StackOverflow`].
    #[inline]
    pub fn call(&mut self, callee: FuncId) -> Result<(), Trap> {
        self.m.do_call(callee)
    }

    /// Returns from the current function. Reports whether the machine
    /// halted (i.e. the entry function returned).
    #[inline]
    pub fn ret(&mut self) -> bool {
        self.m.do_ret();
        self.m.halted.is_some()
    }
}
