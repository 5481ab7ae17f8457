//! The pinned binary wire format.
//!
//! Std-only (no serde in the build container), versioned, and **explicit**:
//! every field is written in a documented order as little-endian bytes,
//! every enum as a one-byte tag, every variable-length field with a length
//! prefix. The same encoding backs the persistent store records and the
//! `hbserve` socket protocol, so a byte stream produced by any process of
//! any toolchain decodes identically everywhere. Any change to the layout
//! below must bump [`WIRE_VERSION`]; readers reject (or cold-start on)
//! other versions rather than guess.
//!
//! Decoding is **total**: malformed input yields a [`WireError`], never a
//! panic — the persistent-store loader leans on that to truncate a
//! corrupted log at the first bad record.

use std::fmt;

use hardbound_core::{
    ExecStats, HardboundConfig, HierarchyConfig, MachineConfig, Pc, PointerEncoding, RunOutcome,
    SafetyMode, Trap,
};
use hardbound_isa::FuncId;
use hardbound_telemetry::{Field, SpanEvent, SpanId, TraceId};

/// Version tag of the wire layout. Bump on **any** change to an encode
/// function in this module.
pub const WIRE_VERSION: u32 = 2;

/// Why a byte stream failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the field being read.
    Truncated,
    /// An enum tag byte held no known variant.
    BadTag {
        /// Which field was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A length prefix exceeded the remaining input (or a sanity bound).
    BadLength,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated mid-field"),
            WireError::BadTag { what, tag } => write!(f, "invalid {what} tag {tag:#04x}"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
            WireError::BadLength => write!(f, "length prefix exceeds the input"),
        }
    }
}

impl std::error::Error for WireError {}

/// An append-only byte sink with the primitive encoders.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32` as 4 little-endian bytes.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` as 8 little-endian bytes.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i32` as its two's-complement little-endian bytes.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// A cursor over encoded bytes with the primitive decoders.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf` starting at its first byte.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4B")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    /// Reads a little-endian `i32`.
    pub fn get_i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("4B")))
    }

    /// Reads a `u64` that must fit a `usize` length.
    pub fn get_len(&mut self) -> Result<usize, WireError> {
        let v = self.get_u64()?;
        let v = usize::try_from(v).map_err(|_| WireError::BadLength)?;
        if v > self.remaining() {
            return Err(WireError::BadLength);
        }
        Ok(v)
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.get_len()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| WireError::BadUtf8)
    }
}

fn put_bool(w: &mut Writer, v: bool) {
    w.put_u8(u8::from(v));
}

fn get_bool(r: &mut Reader<'_>) -> Result<bool, WireError> {
    match r.get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(WireError::BadTag { what: "bool", tag }),
    }
}

fn put_pc(w: &mut Writer, pc: Pc) {
    w.put_u32(pc.func.0);
    w.put_u32(pc.index);
}

fn get_pc(r: &mut Reader<'_>) -> Result<Pc, WireError> {
    Ok(Pc {
        func: FuncId(r.get_u32()?),
        index: r.get_u32()?,
    })
}

/// Encodes an optional trap (tag `0` = none, else variant tag + fields).
pub fn encode_trap(w: &mut Writer, trap: &Option<Trap>) {
    match trap {
        None => w.put_u8(0),
        Some(Trap::BoundsViolation {
            pc,
            addr,
            base,
            bound,
            is_store,
        }) => {
            w.put_u8(1);
            put_pc(w, *pc);
            w.put_u32(*addr);
            w.put_u32(*base);
            w.put_u32(*bound);
            put_bool(w, *is_store);
        }
        Some(Trap::NonPointerDereference { pc, addr, is_store }) => {
            w.put_u8(2);
            put_pc(w, *pc);
            w.put_u32(*addr);
            put_bool(w, *is_store);
        }
        Some(Trap::InvalidCallTarget { pc, value }) => {
            w.put_u8(3);
            put_pc(w, *pc);
            w.put_u32(*value);
        }
        Some(Trap::WildAddress { pc, addr, is_store }) => {
            w.put_u8(4);
            put_pc(w, *pc);
            w.put_u32(*addr);
            put_bool(w, *is_store);
        }
        Some(Trap::SoftwareAbort { code }) => {
            w.put_u8(5);
            w.put_i32(*code);
        }
        Some(Trap::ObjectTableViolation { pc, addr }) => {
            w.put_u8(6);
            put_pc(w, *pc);
            w.put_u32(*addr);
        }
        Some(Trap::DivideByZero { pc }) => {
            w.put_u8(7);
            put_pc(w, *pc);
        }
        Some(Trap::CallDepthExceeded) => w.put_u8(8),
        Some(Trap::StackOverflow) => w.put_u8(9),
        Some(Trap::OutOfFuel) => w.put_u8(10),
    }
}

/// Decodes an optional trap (inverse of [`encode_trap`]).
///
/// # Errors
///
/// [`WireError`] on truncation or an unknown variant tag.
pub fn decode_trap(r: &mut Reader<'_>) -> Result<Option<Trap>, WireError> {
    Ok(match r.get_u8()? {
        0 => None,
        1 => Some(Trap::BoundsViolation {
            pc: get_pc(r)?,
            addr: r.get_u32()?,
            base: r.get_u32()?,
            bound: r.get_u32()?,
            is_store: get_bool(r)?,
        }),
        2 => Some(Trap::NonPointerDereference {
            pc: get_pc(r)?,
            addr: r.get_u32()?,
            is_store: get_bool(r)?,
        }),
        3 => Some(Trap::InvalidCallTarget {
            pc: get_pc(r)?,
            value: r.get_u32()?,
        }),
        4 => Some(Trap::WildAddress {
            pc: get_pc(r)?,
            addr: r.get_u32()?,
            is_store: get_bool(r)?,
        }),
        5 => Some(Trap::SoftwareAbort { code: r.get_i32()? }),
        6 => Some(Trap::ObjectTableViolation {
            pc: get_pc(r)?,
            addr: r.get_u32()?,
        }),
        7 => Some(Trap::DivideByZero { pc: get_pc(r)? }),
        8 => Some(Trap::CallDepthExceeded),
        9 => Some(Trap::StackOverflow),
        10 => Some(Trap::OutOfFuel),
        tag => return Err(WireError::BadTag { what: "trap", tag }),
    })
}

/// Encodes the complete [`ExecStats`] (every counter, hierarchy stalls
/// included) — field order is the struct's declaration order and part of
/// the wire contract.
pub fn encode_stats(w: &mut Writer, s: &ExecStats) {
    w.put_u64(s.uops);
    w.put_u64(s.setbound_uops);
    w.put_u64(s.meta_uops);
    w.put_u64(s.check_uops);
    w.put_u64(s.bounds_checks);
    w.put_u64(s.loads);
    w.put_u64(s.stores);
    w.put_u64(s.ptr_stores);
    w.put_u64(s.compressed_ptr_stores);
    w.put_u64(s.ptr_loads);
    w.put_u64(s.compressed_ptr_loads);
    w.put_u64(s.objtable_cycles);
    w.put_u64(s.hierarchy.data_accesses);
    w.put_u64(s.hierarchy.data_stall_cycles);
    w.put_u64(s.hierarchy.tag_accesses);
    w.put_u64(s.hierarchy.tag_stall_cycles);
    w.put_u64(s.hierarchy.shadow_accesses);
    w.put_u64(s.hierarchy.shadow_stall_cycles);
    w.put_u64(s.data_pages as u64);
    w.put_u64(s.tag_pages as u64);
    w.put_u64(s.shadow_pages as u64);
}

/// Decodes [`ExecStats`] (inverse of [`encode_stats`]).
///
/// # Errors
///
/// [`WireError::Truncated`] when the input ends early.
pub fn decode_stats(r: &mut Reader<'_>) -> Result<ExecStats, WireError> {
    let mut s = ExecStats {
        uops: r.get_u64()?,
        setbound_uops: r.get_u64()?,
        meta_uops: r.get_u64()?,
        check_uops: r.get_u64()?,
        bounds_checks: r.get_u64()?,
        loads: r.get_u64()?,
        stores: r.get_u64()?,
        ptr_stores: r.get_u64()?,
        compressed_ptr_stores: r.get_u64()?,
        ptr_loads: r.get_u64()?,
        compressed_ptr_loads: r.get_u64()?,
        objtable_cycles: r.get_u64()?,
        ..ExecStats::default()
    };
    s.hierarchy.data_accesses = r.get_u64()?;
    s.hierarchy.data_stall_cycles = r.get_u64()?;
    s.hierarchy.tag_accesses = r.get_u64()?;
    s.hierarchy.tag_stall_cycles = r.get_u64()?;
    s.hierarchy.shadow_accesses = r.get_u64()?;
    s.hierarchy.shadow_stall_cycles = r.get_u64()?;
    s.data_pages = usize::try_from(r.get_u64()?).map_err(|_| WireError::BadLength)?;
    s.tag_pages = usize::try_from(r.get_u64()?).map_err(|_| WireError::BadLength)?;
    s.shadow_pages = usize::try_from(r.get_u64()?).map_err(|_| WireError::BadLength)?;
    Ok(s)
}

/// Encodes a complete [`RunOutcome`]: exit code, trap, full statistics,
/// console output and the `print_int` stream — everything `PartialEq`
/// compares, so decode∘encode preserves observational identity exactly.
pub fn encode_outcome(w: &mut Writer, out: &RunOutcome) {
    match out.exit_code {
        None => w.put_u8(0),
        Some(code) => {
            w.put_u8(1);
            w.put_i32(code);
        }
    }
    encode_trap(w, &out.trap);
    encode_stats(w, &out.stats);
    w.put_str(&out.output);
    w.put_u64(out.ints.len() as u64);
    for &v in &out.ints {
        w.put_i32(v);
    }
}

/// Decodes a [`RunOutcome`] (inverse of [`encode_outcome`]).
///
/// # Errors
///
/// [`WireError`] on truncation, bad tags, or invalid UTF-8.
pub fn decode_outcome(r: &mut Reader<'_>) -> Result<RunOutcome, WireError> {
    let exit_code = match r.get_u8()? {
        0 => None,
        1 => Some(r.get_i32()?),
        tag => {
            return Err(WireError::BadTag {
                what: "exit_code",
                tag,
            })
        }
    };
    let trap = decode_trap(r)?;
    let stats = decode_stats(r)?;
    let output = r.get_str()?.to_owned();
    let n = r.get_u64()?;
    // Each int is 4 bytes; reject counts the remaining input cannot hold.
    if n > (r.remaining() / 4) as u64 {
        return Err(WireError::BadLength);
    }
    let mut ints = Vec::with_capacity(n as usize);
    for _ in 0..n {
        ints.push(r.get_i32()?);
    }
    Ok(RunOutcome {
        exit_code,
        trap,
        stats,
        output,
        ints,
    })
}

/// Encodes a full [`MachineConfig`] — the `hbserve` protocol ships the
/// configuration verbatim so the server simulates exactly the client's
/// cell. The byte layout is tied to `core::fingerprint`'s stable hash by
/// construction: enum tags come from the shared `wire_tag` mappings and
/// the hierarchy fields from the one pinned `HierarchyConfig::to_words`
/// list, so the two formats cannot drift apart silently.
pub fn encode_config(w: &mut Writer, cfg: &MachineConfig) {
    match &cfg.hardbound {
        None => w.put_u8(0),
        Some(hb) => {
            w.put_u8(1);
            w.put_u8(hb.encoding.wire_tag());
            w.put_u8(hb.mode.wire_tag());
            put_bool(w, hb.check_uop);
        }
    }
    for word in cfg.hierarchy.to_words() {
        w.put_u64(word);
    }
    w.put_u64(cfg.fuel);
    w.put_u64(cfg.max_call_depth as u64);
}

fn get_usize(r: &mut Reader<'_>) -> Result<usize, WireError> {
    usize::try_from(r.get_u64()?).map_err(|_| WireError::BadLength)
}

/// Decodes a [`MachineConfig`] (inverse of [`encode_config`]).
///
/// # Errors
///
/// [`WireError`] on truncation or unknown enum tags.
pub fn decode_config(r: &mut Reader<'_>) -> Result<MachineConfig, WireError> {
    let hardbound = match r.get_u8()? {
        0 => None,
        1 => {
            let tag = r.get_u8()?;
            let encoding = PointerEncoding::from_wire_tag(tag).ok_or(WireError::BadTag {
                what: "encoding",
                tag,
            })?;
            let tag = r.get_u8()?;
            let mode = SafetyMode::from_wire_tag(tag).ok_or(WireError::BadTag {
                what: "safety mode",
                tag,
            })?;
            let check_uop = get_bool(r)?;
            Some(HardboundConfig {
                encoding,
                mode,
                check_uop,
            })
        }
        tag => {
            return Err(WireError::BadTag {
                what: "hardbound option",
                tag,
            })
        }
    };
    let mut words = [0u64; 12];
    for word in &mut words {
        *word = r.get_u64()?;
    }
    let hierarchy = HierarchyConfig::from_words(words).ok_or(WireError::BadLength)?;
    // Start from a baseline config and overwrite every field: the struct
    // is exhaustively re-populated here.
    let mut cfg = MachineConfig::baseline();
    cfg.hardbound = hardbound;
    cfg.hierarchy = hierarchy;
    cfg.fuel = r.get_u64()?;
    cfg.max_call_depth = get_usize(r)?;
    Ok(cfg)
}

/// Encodes one trace span event (for the `SPANS` response frames that
/// ship server-side spans back to the submitting client): the three ids,
/// the kind string, start/duration, then the tagged field list.
pub fn encode_span(w: &mut Writer, ev: &SpanEvent) {
    w.put_u64(ev.trace.0);
    w.put_u64(ev.span.0);
    w.put_u64(ev.parent.0);
    w.put_str(&ev.kind);
    w.put_u64(ev.start_us);
    w.put_u64(ev.dur_us);
    w.put_u32(ev.fields.len() as u32);
    for (name, value) in &ev.fields {
        w.put_str(name);
        match value {
            Field::U64(n) => {
                w.put_u8(0);
                w.put_u64(*n);
            }
            Field::Str(s) => {
                w.put_u8(1);
                w.put_str(s);
            }
        }
    }
}

/// Decodes a trace span event (inverse of [`encode_span`]).
///
/// # Errors
///
/// [`WireError`] on truncation, bad UTF-8, or an unknown field tag.
pub fn decode_span(r: &mut Reader<'_>) -> Result<SpanEvent, WireError> {
    let trace = TraceId(r.get_u64()?);
    let span = SpanId(r.get_u64()?);
    let parent = SpanId(r.get_u64()?);
    let kind = r.get_str()?.to_owned();
    let start_us = r.get_u64()?;
    let dur_us = r.get_u64()?;
    let count = r.get_u32()?;
    // Sanity bound: each field costs at least its name length prefix.
    if count as usize > r.remaining() {
        return Err(WireError::BadLength);
    }
    let mut fields = Vec::with_capacity(count.min(256) as usize);
    for _ in 0..count {
        let name = r.get_str()?.to_owned();
        let value = match r.get_u8()? {
            0 => Field::U64(r.get_u64()?),
            1 => Field::Str(r.get_str()?.to_owned()),
            tag => {
                return Err(WireError::BadTag {
                    what: "span field",
                    tag,
                })
            }
        };
        fields.push((name, value));
    }
    Ok(SpanEvent {
        trace,
        span,
        parent,
        kind,
        start_us,
        dur_us,
        fields,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardbound_core::HardboundConfig;

    fn outcome() -> RunOutcome {
        let mut stats = ExecStats {
            uops: 123_456,
            setbound_uops: 7,
            loads: 99,
            ..ExecStats::default()
        };
        stats.hierarchy.tag_stall_cycles = 41;
        stats.data_pages = 17;
        RunOutcome {
            exit_code: Some(-3),
            trap: Some(Trap::BoundsViolation {
                pc: Pc {
                    func: FuncId(4),
                    index: 19,
                },
                addr: 0x0100_0010,
                base: 0x0100_0000,
                bound: 0x0100_000c,
                is_store: true,
            }),
            stats,
            output: "héllo\n".to_owned(),
            ints: vec![0, -1, i32::MAX, i32::MIN],
        }
    }

    #[test]
    fn outcome_round_trips() {
        let out = outcome();
        let mut w = Writer::new();
        encode_outcome(&mut w, &out);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(decode_outcome(&mut r).unwrap(), out);
        assert!(r.is_exhausted(), "no trailing bytes");
    }

    #[test]
    fn config_round_trips() {
        for cfg in [
            MachineConfig::default(),
            MachineConfig::baseline(),
            MachineConfig::hardbound(
                HardboundConfig::malloc_only(PointerEncoding::Intern11).with_check_uop(),
            )
            .with_fuel(42),
        ] {
            let mut w = Writer::new();
            encode_config(&mut w, &cfg);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(decode_config(&mut r).unwrap(), cfg);
            assert!(r.is_exhausted());
        }
    }

    #[test]
    fn truncation_is_an_error_at_every_prefix() {
        let mut w = Writer::new();
        encode_outcome(&mut w, &outcome());
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(
                decode_outcome(&mut r).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn bad_tags_are_errors_not_panics() {
        let mut r = Reader::new(&[9]);
        assert_eq!(
            decode_outcome(&mut r),
            Err(WireError::BadTag {
                what: "exit_code",
                tag: 9
            })
        );
        let mut r = Reader::new(&[99]);
        assert!(matches!(
            decode_trap(&mut r),
            Err(WireError::BadTag { what: "trap", .. })
        ));
    }

    #[test]
    fn span_round_trips_and_rejects_truncation() {
        let ev = SpanEvent {
            trace: TraceId(0x1234_5678_9abc_def0),
            span: SpanId(7),
            parent: SpanId(0),
            kind: "ticket_exec".into(),
            start_us: 1_700_000_000_000_000,
            dur_us: 250,
            fields: vec![
                ("ticket".into(), Field::U64(3)),
                ("shard".into(), Field::Str("127.0.0.1:9".into())),
            ],
        };
        let mut w = Writer::new();
        encode_span(&mut w, &ev);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(decode_span(&mut r).unwrap(), ev);
        assert!(r.is_exhausted());
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(decode_span(&mut r).is_err(), "prefix of {cut} bytes");
        }
    }

    #[test]
    fn int_count_is_sanity_bounded() {
        // exit_code None, trap None, zeroed stats, empty output, then a
        // preposterous int count with no bytes behind it.
        let mut w = Writer::new();
        w.put_u8(0);
        w.put_u8(0);
        encode_stats(&mut w, &ExecStats::default());
        w.put_str("");
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(decode_outcome(&mut r), Err(WireError::BadLength));
    }
}
