//! Violation forensics: the structured report a [`Machine`] assembles when
//! a run ends in a trap.
//!
//! A bare [`Trap`] names the faulting PC and little else. Debugging a
//! spatial violation needs *blame assignment*: which `setbound` created
//! the violated bounds, how far out of bounds the access landed, what the
//! surrounding code looks like, and what the program touched just before
//! it died. The machine keeps a bounds-provenance table (every `setbound`
//! records its site PC under a monotonically allocated provenance id) and,
//! when `HB_FLIGHT=N` enables it, a fixed-size flight recorder of recent
//! memory events — both invisible to [`RunOutcome`](crate::RunOutcome)
//! equality, so the differential suites hold with forensics on or off.
//! [`Machine::violation_report`] folds them together with the trap, a
//! disassembled code window, and the faulting page's tag/shadow word
//! counts into a [`ViolationReport`].
//!
//! [`Machine`]: crate::Machine
//! [`Machine::violation_report`]: crate::Machine::violation_report

use std::fmt;

use crate::trap::{Pc, Trap};

/// Where the violated bounds came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundsOrigin {
    /// Created by a `setbound` at `site`; `id` is the monotonically
    /// allocated provenance id of that (most recent) `setbound` whose
    /// bounds equal the violated pair.
    Setbound {
        /// The `setbound` instruction's program counter.
        site: Pc,
        /// Allocation order among all `setbound`s executed so far.
        id: u64,
    },
    /// Machine-provided region bounds (the whole-stack bounds carried by
    /// `sp`/`fp`, or the whole-globals bounds carried by `gp`) — no
    /// software `setbound` created them.
    Region,
    /// No recorded origin (the trap carries no bounds, or none of the
    /// executed `setbound`s produced this exact pair).
    Unknown,
}

/// How far outside the object the faulting address landed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OobDistance {
    /// The address is `n` bytes below the base.
    BelowBase(u32),
    /// The address is `n` bytes at-or-past the bound (`0` = exactly the
    /// first byte past the object).
    PastBound(u32),
    /// The address itself is in bounds but the access's width crosses the
    /// bound.
    StraddlesBound,
}

impl fmt::Display for OobDistance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OobDistance::BelowBase(n) => write!(f, "{n} bytes below base"),
            OobDistance::PastBound(n) => write!(f, "{n} bytes past bound"),
            OobDistance::StraddlesBound => write!(f, "access straddles the bound"),
        }
    }
}

/// Tag/shadow metadata summary of the page containing the faulting
/// address, counted by walking the page's tag and shadow planes when the
/// report is built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageMetaSummary {
    /// Page number (`addr >> 12`).
    pub page: u32,
    /// Words on the page carrying a pointer tag.
    pub tag_words: u32,
    /// Words on the page with live shadow-plane `{base, bound}` entries.
    pub shadow_words: u32,
    /// Words on the page tagged as uncompressed pointers.
    pub uncompressed_words: u32,
}

/// One entry of the in-machine flight recorder: a memory access the
/// machine performed shortly before the trap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// µop count when the access issued (a global order stamp).
    pub uop: u64,
    /// The issuing instruction.
    pub pc: Pc,
    /// Effective address.
    pub addr: u32,
    /// Access width in bytes.
    pub width: u8,
    /// `true` for stores.
    pub is_store: bool,
}

impl fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "uop {:>8}: {} {:#010x} w{} at {}",
            self.uop,
            if self.is_store { "store" } else { "load " },
            self.addr,
            self.width,
            self.pc
        )
    }
}

/// The fixed-size ring of recent memory events, enabled by `HB_FLIGHT=N`
/// ([`Machine::enable_flight`](crate::Machine::enable_flight)). Off by
/// default; when off the machine pays one `Option` discriminant test per
/// memory access and records nothing.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    events: Vec<FlightEvent>,
    next: usize,
    cap: usize,
}

impl FlightRecorder {
    /// A recorder holding the last `cap` events (`cap == 0` records
    /// nothing but still reports as enabled).
    #[must_use]
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            events: Vec::with_capacity(cap.min(4096)),
            next: 0,
            cap,
        }
    }

    /// Records one event, evicting the oldest once full.
    #[inline]
    pub fn record(&mut self, ev: FlightEvent) {
        if self.cap == 0 {
            return;
        }
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.events[self.next] = ev;
        }
        self.next = (self.next + 1) % self.cap;
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn tail(&self) -> Vec<FlightEvent> {
        if self.events.len() < self.cap {
            self.events.clone()
        } else {
            let mut out = Vec::with_capacity(self.cap);
            out.extend_from_slice(&self.events[self.next..]);
            out.extend_from_slice(&self.events[..self.next]);
            out
        }
    }
}

/// One line of the disassembled code window around the faulting PC.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowLine {
    /// Instruction index within the faulting function.
    pub index: u32,
    /// Disassembled instruction text.
    pub text: String,
    /// Whether this is the faulting instruction.
    pub is_fault: bool,
}

/// The structured forensics report for a trapped run. Assembled on demand
/// by [`Machine::violation_report`](crate::Machine::violation_report) —
/// never part of [`RunOutcome`](crate::RunOutcome), whose `PartialEq` is
/// the observational identity the differential suites pin.
#[derive(Clone, Debug)]
pub struct ViolationReport {
    /// The trap that ended the run.
    pub trap: Trap,
    /// The faulting instruction, when the trap has one.
    pub pc: Option<Pc>,
    /// Effective address of the faulting access, when the trap has one.
    pub addr: Option<u32>,
    /// The violated `{base, bound}` pair (bounds violations only).
    pub bounds: Option<(u32, u32)>,
    /// How far out of bounds the access landed (bounds violations only).
    pub oob: Option<OobDistance>,
    /// Which `setbound` (or machine region) produced the violated bounds.
    pub origin: BoundsOrigin,
    /// Tag/shadow summary of the page containing the faulting address.
    pub page: Option<PageMetaSummary>,
    /// Disassembled window around the faulting PC.
    pub window: Vec<WindowLine>,
    /// Tail of the flight recorder, oldest first (empty when `HB_FLIGHT`
    /// is off).
    pub flight: Vec<FlightEvent>,
}

impl ViolationReport {
    /// The out-of-bounds distance for an access at `addr` against
    /// `[base, bound)`.
    #[must_use]
    pub fn distance(addr: u32, base: u32, bound: u32) -> OobDistance {
        if addr < base {
            OobDistance::BelowBase(base - addr)
        } else if addr >= bound {
            OobDistance::PastBound(addr - bound)
        } else {
            OobDistance::StraddlesBound
        }
    }
}

impl fmt::Display for ViolationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== hardbound violation report ==")?;
        writeln!(f, "trap: {}", self.trap)?;
        if let Some(oob) = self.oob {
            writeln!(f, "out of bounds: {oob}")?;
        }
        match self.origin {
            BoundsOrigin::Setbound { site, id } => {
                writeln!(f, "bounds origin: setbound at {site} (provenance id {id})")?;
            }
            BoundsOrigin::Region => {
                writeln!(f, "bounds origin: machine region bounds (no setbound site)")?;
            }
            BoundsOrigin::Unknown => {}
        }
        if let Some(p) = self.page {
            writeln!(
                f,
                "page {:#x}: {} tagged words, {} uncompressed, {} shadow entries",
                p.page, p.tag_words, p.uncompressed_words, p.shadow_words
            )?;
        }
        if let (Some(pc), false) = (self.pc, self.window.is_empty()) {
            writeln!(f, "code window ({}):", pc.func)?;
            for line in &self.window {
                let marker = if line.is_fault { "=>" } else { "  " };
                writeln!(f, "  {marker} {:>4}: {}", line.index, line.text)?;
            }
        }
        if !self.flight.is_empty() {
            writeln!(
                f,
                "flight recorder (last {} memory events):",
                self.flight.len()
            )?;
            for ev in &self.flight {
                writeln!(f, "  {ev}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_recorder_keeps_last_n_in_order() {
        let mut fr = FlightRecorder::new(3);
        let ev = |uop| FlightEvent {
            uop,
            pc: Pc {
                func: hardbound_isa::FuncId(0),
                index: 0,
            },
            addr: 0x1000,
            width: 4,
            is_store: false,
        };
        assert!(fr.tail().is_empty());
        for i in 0..5 {
            fr.record(ev(i));
        }
        let uops: Vec<u64> = fr.tail().iter().map(|e| e.uop).collect();
        assert_eq!(uops, vec![2, 3, 4]);
        FlightRecorder::new(0).record(ev(9)); // cap 0: records nothing
    }

    #[test]
    fn distance_classifies_all_sides() {
        assert_eq!(
            ViolationReport::distance(0x0ff0, 0x1000, 0x1040),
            OobDistance::BelowBase(0x10)
        );
        assert_eq!(
            ViolationReport::distance(0x1040, 0x1000, 0x1040),
            OobDistance::PastBound(0)
        );
        assert_eq!(
            ViolationReport::distance(0x1050, 0x1000, 0x1040),
            OobDistance::PastBound(0x10)
        );
        assert_eq!(
            ViolationReport::distance(0x103e, 0x1000, 0x1040),
            OobDistance::StraddlesBound
        );
    }
}
