//! Mergeable hot-spot profiles.
//!
//! The interpreter's profiler attributes retire work to the basic block
//! it executed (see `core::Machine::set_profiling` and
//! `exec::run_machine`): exec count, retired-µop cycles, and bounds checks
//! taken. Those per-block counters land here as a [`Profile`] —
//! a map keyed by `(program fingerprint, function, entry index)`, which is
//! stable across processes because the program fingerprint is the same
//! pinned serialization the result store and wire protocol use. That
//! stability is what makes profiles *mergeable*: every run's flush sums
//! into the process-wide accumulator key by key ([`Profile::merge`]),
//! conserving counts exactly — no sampling, no loss — and an `hbserve`
//! ships that accumulator over the `PROFILE` wire verb.
//!
//! Rendering comes in three forms: a ranked-PC table
//! ([`Profile::render_table`]) for humans, folded-stack text
//! ([`Profile::render_folded`]) that flamegraph tooling consumes directly,
//! and a line-oriented parseable form ([`Profile::to_text`] /
//! [`Profile::from_text`]) that crosses the `hbserve` wire.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Identifies one basic block across processes: the stable program
/// fingerprint (see `core::fingerprint`), the function id, and the entry
/// instruction index of the block within that function.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct BlockKey {
    /// Stable program fingerprint (`ProgramId`'s inner hash).
    pub prog: u64,
    /// Function id within the program.
    pub func: u32,
    /// Entry instruction index of the block.
    pub entry: u32,
}

/// Counters attributed to one basic block.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct BlockStat {
    /// Function name (for rendering; the identity lives in [`BlockKey`]).
    pub name: String,
    /// Times the block was dispatched.
    pub execs: u64,
    /// Simulated cycles attributed to the block: µops retired while
    /// executing it (check and metadata µops included). Hierarchy stall
    /// cycles are accounted globally in `ExecStats`, not per block.
    pub cycles: u64,
    /// Bounds checks actually performed.
    pub taken: u64,
}

impl BlockStat {
    fn add(&mut self, other: &BlockStat) {
        if self.name.is_empty() {
            self.name = other.name.clone();
        }
        self.execs += other.execs;
        self.cycles += other.cycles;
        self.taken += other.taken;
    }
}

/// A mergeable per-basic-block profile.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Profile {
    /// Per-block counters.
    pub blocks: BTreeMap<BlockKey, BlockStat>,
}

impl Profile {
    /// An empty profile.
    #[must_use]
    pub const fn new() -> Profile {
        Profile {
            blocks: BTreeMap::new(),
        }
    }

    /// Whether any block has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Adds `stat`'s counters to `key`'s entry.
    pub fn record(&mut self, key: BlockKey, stat: &BlockStat) {
        self.blocks.entry(key).or_default().add(stat);
    }

    /// Sums `other` into `self`, key by key. Counts are conserved
    /// exactly: after merging N profiles, every block's counters equal
    /// the sum of that block's counters in the N.
    pub fn merge(&mut self, other: &Profile) {
        for (key, stat) in &other.blocks {
            self.blocks.entry(*key).or_default().add(stat);
        }
    }

    /// Total block dispatches across all blocks.
    #[must_use]
    pub fn total_execs(&self) -> u64 {
        self.blocks.values().map(|s| s.execs).sum()
    }

    /// Total attributed cycles across all blocks.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.blocks.values().map(|s| s.cycles).sum()
    }

    /// Blocks ranked hottest-first (by cycles, then execs, then key — the
    /// key tiebreak keeps the ranking total so renders are deterministic).
    #[must_use]
    pub fn ranked(&self) -> Vec<(&BlockKey, &BlockStat)> {
        let mut rows: Vec<_> = self.blocks.iter().collect();
        rows.sort_by(|a, b| {
            (b.1.cycles, b.1.execs)
                .cmp(&(a.1.cycles, a.1.execs))
                .then_with(|| a.0.cmp(b.0))
        });
        rows
    }

    /// Renders a ranked-PC table of the `limit` hottest blocks
    /// (`limit == 0` means all).
    #[must_use]
    pub fn render_table(&self, limit: usize) -> String {
        use std::fmt::Write as _;
        let total = self.total_cycles().max(1);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5}  {:>24}  {:>12}  {:>14}  {:>6}  {:>10}",
            "rank", "block", "execs", "cycles", "cyc%", "taken"
        );
        let rows = self.ranked();
        let shown = if limit == 0 { rows.len() } else { limit };
        for (rank, (key, s)) in rows.iter().take(shown).enumerate() {
            let label = format!("{}@{}", s.name, key.entry);
            let _ = writeln!(
                out,
                "{:>5}  {:>24}  {:>12}  {:>14}  {:>5.1}%  {:>10}",
                rank + 1,
                label,
                s.execs,
                s.cycles,
                100.0 * s.cycles as f64 / total as f64,
                s.taken
            );
        }
        if rows.len() > shown {
            let _ = writeln!(out, "  ... {} more blocks", rows.len() - shown);
        }
        out
    }

    /// Renders folded-stack (flamegraph collapse) text: one
    /// `func;func@entry cycles` line per block, deterministic order.
    /// Feed straight to `flamegraph.pl` or `inferno-flamegraph`.
    #[must_use]
    pub fn render_folded(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (key, s) in &self.blocks {
            let _ = writeln!(out, "{};{}@{} {}", s.name, s.name, key.entry, s.cycles);
        }
        out
    }

    /// Serializes to the parseable line form that crosses the `hbserve`
    /// wire: a `hbprof 2` header, then one
    /// `prog func entry execs cycles taken name` line per block
    /// (name last so it may contain spaces). Inverse of
    /// [`Profile::from_text`].
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("hbprof 2\n");
        for (key, s) in &self.blocks {
            let _ = writeln!(
                out,
                "{:016x} {} {} {} {} {} {}",
                key.prog, key.func, key.entry, s.execs, s.cycles, s.taken, s.name
            );
        }
        out
    }

    /// Parses the [`Profile::to_text`] form.
    pub fn from_text(text: &str) -> Result<Profile, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("hbprof 2") => {}
            other => return Err(format!("bad profile header: {other:?}")),
        }
        let mut p = Profile::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let mut parts = line.splitn(7, ' ');
            let mut field = |what: &str| {
                parts
                    .next()
                    .ok_or_else(|| format!("profile line missing {what}: {line:?}"))
            };
            let prog = u64::from_str_radix(field("prog")?, 16)
                .map_err(|e| format!("bad prog field: {e}"))?;
            let num = |s: &str, what: &str| -> Result<u64, String> {
                s.parse().map_err(|e| format!("bad {what} field: {e}"))
            };
            let func = num(field("func")?, "func")? as u32;
            let entry = num(field("entry")?, "entry")? as u32;
            let execs = num(field("execs")?, "execs")?;
            let cycles = num(field("cycles")?, "cycles")?;
            let taken = num(field("taken")?, "taken")?;
            let name = field("name")?.to_string();
            p.record(
                BlockKey { prog, func, entry },
                &BlockStat {
                    name,
                    execs,
                    cycles,
                    taken,
                },
            );
        }
        Ok(p)
    }
}

/// A lock-protected profile accumulator; [`global()`] is the process-wide
/// instance every profiled run flushes into at its end.
pub struct SharedProfile {
    inner: Mutex<Profile>,
}

impl Default for SharedProfile {
    fn default() -> SharedProfile {
        SharedProfile::new()
    }
}

impl SharedProfile {
    /// An empty accumulator.
    #[must_use]
    pub const fn new() -> SharedProfile {
        SharedProfile {
            inner: Mutex::new(Profile::new()),
        }
    }

    /// Sums `p` into the accumulator.
    pub fn add(&self, p: &Profile) {
        self.inner.lock().unwrap().merge(p);
    }

    /// A consistent copy of the accumulated profile (the lock makes a
    /// scrape atomic with respect to run flushes — no torn reads).
    #[must_use]
    pub fn snapshot(&self) -> Profile {
        self.inner.lock().unwrap().clone()
    }

    /// Takes the accumulated profile, leaving the accumulator empty.
    pub fn take(&self) -> Profile {
        std::mem::take(&mut *self.inner.lock().unwrap())
    }
}

static GLOBAL: SharedProfile = SharedProfile::new();

/// The process-global profile accumulator.
pub fn global() -> &'static SharedProfile {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(name: &str, execs: u64, cycles: u64, taken: u64) -> BlockStat {
        BlockStat {
            name: name.into(),
            execs,
            cycles,
            taken,
        }
    }

    fn key(prog: u64, func: u32, entry: u32) -> BlockKey {
        BlockKey { prog, func, entry }
    }

    #[test]
    fn merge_conserves_counts_exactly() {
        let mut shards = Vec::new();
        for i in 0..3u64 {
            let mut p = Profile::new();
            p.record(key(0xabc, 0, 0), &stat("main", i + 1, 10 * (i + 1), 2 * i));
            p.record(key(0xabc, 1, 4), &stat("loop", 5, 50, 5));
            if i == 2 {
                p.record(key(0xdef, 0, 0), &stat("other", 7, 7, 1));
            }
            shards.push(p);
        }
        let mut merged = Profile::new();
        for p in &shards {
            merged.merge(p);
        }
        let per_shard: u64 = shards.iter().map(Profile::total_execs).sum();
        assert_eq!(merged.total_execs(), per_shard);
        let m = &merged.blocks[&key(0xabc, 0, 0)];
        assert_eq!((m.execs, m.cycles, m.taken), (6, 60, 6));
        assert_eq!(merged.blocks[&key(0xabc, 1, 4)].execs, 15);
        assert_eq!(merged.blocks[&key(0xdef, 0, 0)].execs, 7);
    }

    #[test]
    fn text_round_trips() {
        let mut p = Profile::new();
        p.record(key(0x1234, 0, 0), &stat("main", 3, 41, 9));
        p.record(key(0x1234, 2, 17), &stat("hot loop", 100, 9000, 36));
        let round = Profile::from_text(&p.to_text()).unwrap();
        assert_eq!(round, p);
        assert_eq!(Profile::from_text("hbprof 2\n").unwrap(), Profile::new());
        assert!(Profile::from_text("hbprof 1\n").is_err());
        assert!(Profile::from_text("hbprof 2\n1234 0 0 3\n").is_err());
    }

    #[test]
    fn table_ranks_by_cycles_and_folded_is_deterministic() {
        let mut p = Profile::new();
        p.record(key(1, 0, 0), &stat("cold", 1, 10, 1));
        p.record(key(1, 1, 8), &stat("hot", 90, 990, 7));
        let table = p.render_table(0);
        let hot_at = table.find("hot@8").unwrap();
        let cold_at = table.find("cold@0").unwrap();
        assert!(hot_at < cold_at, "hot block must rank first:\n{table}");
        assert_eq!(p.render_folded(), "cold;cold@0 10\nhot;hot@8 990\n");
        // Truncation notes how much was elided.
        assert!(p.render_table(1).contains("... 1 more blocks"));
    }

    #[test]
    fn shared_profile_accumulates() {
        let shared = SharedProfile::new();
        let mut p = Profile::new();
        p.record(key(9, 0, 0), &stat("f", 2, 20, 0));
        shared.add(&p);
        shared.add(&p);
        assert_eq!(shared.snapshot().total_execs(), 4);
        assert_eq!(shared.take().total_execs(), 4);
        assert!(shared.snapshot().is_empty());
    }
}
