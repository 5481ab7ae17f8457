//! Forwarding names for the benchmark harness (`hbbench`), which still
//! spells the API of the deleted block engine, hidden from the docs.
//! [`Engine::run`] is [`run_machine`](crate::run_machine) and every block
//! counter reads zero. ROADMAP item 1, step 1 moves the harness off these
//! names and deletes this module.

use hardbound_core::{Machine, RunOutcome};

/// Runs a machine through [`run_machine`](crate::run_machine).
pub struct Engine(Machine);

impl Engine {
    pub fn new(machine: Machine) -> Engine {
        Engine(machine)
    }
    pub fn with_shared_cache(machine: Machine, _: &mut SharedBlockCache) -> Engine {
        Engine(machine)
    }
    pub fn run(&mut self) -> RunOutcome {
        crate::run_machine(&mut self.0)
    }
    pub fn stats(&self) -> EngineStats {
        EngineStats::default()
    }
    pub fn machine(&self) -> &Machine {
        &self.0
    }
}

/// Block-engine counters, all zero.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    pub cache: BlockCacheStats,
    pub fast_uops: u64,
    pub stepped_insts: u64,
}

/// Block-cache counters, all zero, so accumulating them is a no-op.
#[derive(Clone, Copy, Debug, Default)]
pub struct BlockCacheStats {
    pub hits: u64,
    pub decoded: u64,
}

impl BlockCacheStats {
    pub fn absorb(&mut self, _: BlockCacheStats) {}
}

/// A stand-in for the deleted decoded-block cache.
pub struct SharedBlockCache;

impl SharedBlockCache {
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    pub fn new(_capacity: usize) -> SharedBlockCache {
        SharedBlockCache
    }
}
