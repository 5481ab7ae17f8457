//! Deterministic parallel batch driver.
//!
//! The evaluation's outer loops — 288 violation pairs × modes, 9 Olden
//! ports × encodings — are embarrassingly parallel: every job compiles and
//! simulates its own machine with zero shared state.
//! [`map_with_workers`] fans a job list across `std::thread` workers and
//! returns results **in input order**, so a parallelized driver produces
//! byte-identical reports to the serial loop it replaces. Callers pass the
//! worker count (the runtime's `HB_JOBS` setting); this crate reads no
//! environment.
//!
//! Scheduling is a **lock-free claimed-by-atomic-index** design: jobs are
//! claimed by a single `fetch_add` on a shared cursor (dynamic load
//! balancing — a worker stuck on a slow job never strands queued work),
//! inputs are read straight from the shared slice, and each result lands
//! in its own write-once [`OnceLock`] slot. The previous scheme took two
//! `Mutex` locks per job (one to take the input, one to store the output)
//! even though neither slot was ever contended.
//!
//! [`map_with_states`] additionally threads a per-worker mutable state
//! (a cache, a scratch buffer, statistics) through the claim loop.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Applies `f` to every item on `workers` threads, preserving input
/// order in the results (`1` degrades to the plain serial loop).
///
/// # Panics
///
/// Propagates a panic raised by `f` (a panicking job poisons nothing:
/// every slot is independent).
pub fn map_with_workers<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut states = vec![(); workers.clamp(1, items.len().max(1))];
    map_with_states(items, &mut states, |(), i, t| f(i, t))
}

/// [`map_with_workers`] with one mutable state per worker: `states.len()`
/// workers run, each claiming jobs off the shared cursor and threading its
/// own `&mut S` through every job it claims. Results are still returned in input
/// order, and — because job results must not depend on which worker ran
/// them — a state may only carry *transparent* mutable context (caches,
/// scratch buffers, statistics).
///
/// # Panics
///
/// Panics if `states` is empty; propagates a panic raised by `f`.
pub fn map_with_states<S, T, R, F>(items: &[T], states: &mut [S], f: F) -> Vec<R>
where
    S: Send,
    T: Sync,
    R: Send + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    assert!(!states.is_empty(), "need at least one worker state");
    let n = items.len();
    if states.len() == 1 || n <= 1 {
        let state = &mut states[0];
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(state, i, t))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let results: Vec<OnceLock<R>> = (0..n).map(|_| OnceLock::new()).collect();
    {
        let (next, results, f, items) = (&next, &results, &f, items);
        std::thread::scope(|scope| {
            for state in states.iter_mut() {
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(state, i, &items[i]);
                    // `i` was claimed exactly once, so the slot is empty.
                    assert!(results[i].set(r).is_ok(), "job slot set twice");
                });
            }
        });
    }
    results
        .into_iter()
        .map(|slot| slot.into_inner().expect("every job completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardbound_runtime::Settings;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = map_with_workers(&items, 4, |i, &x| {
            assert_eq!(i as u64, x);
            x * x
        });
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn matches_the_serial_path_exactly() {
        let items: Vec<u32> = (0..100).rev().collect();
        let serial = map_with_workers(&items, 1, |i, x| (i, x.wrapping_mul(2654435761)));
        let parallel = map_with_workers(&items, 8, |i, x| (i, x.wrapping_mul(2654435761)));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single_item_batches() {
        let empty: Vec<u8> = Vec::new();
        assert!(map_with_workers(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(map_with_workers(&[7u8], 4, |_, x| x + 1), vec![8]);
    }

    #[test]
    fn worker_count_honors_env_floor() {
        // The worker count the batch drivers get from `HB_JOBS` is at
        // least 1 whether or not the variable is set, and a count of 0
        // handed in directly still runs every job on one worker.
        let workers = |v: &str| Settings::from_vars([("HB_JOBS", v)]).map(|s| s.workers());
        assert!(workers("").expect("unset") >= 1);
        assert_eq!(workers("1"), Ok(1));
        assert!(workers("0").is_err(), "HB_JOBS=0 is below the floor");
        assert_eq!(
            map_with_workers(&[1u8, 2, 3], 0, |_, x| x * 2),
            vec![2, 4, 6]
        );
    }

    #[test]
    fn jobs_parsing_rejects_invalid_values() {
        let jobs = |v: &str| Settings::from_vars([("HB_JOBS", v)]).map(|s| s.jobs);
        assert_eq!(
            Settings::from_vars::<[(&str, &str); 0], _, _>([]).map(|s| s.jobs),
            Ok(None)
        );
        assert_eq!(jobs(""), Ok(None));
        assert_eq!(jobs("  "), Ok(None));
        assert_eq!(jobs("1"), Ok(Some(1)));
        assert_eq!(jobs(" 8 "), Ok(Some(8)));
        let zero = jobs("0").expect_err("0 workers is impossible");
        assert!(zero.contains("≥ 1"), "{zero}");
        for bad in ["abc", "-2", "1.5", "4x"] {
            let err = jobs(bad).expect_err(bad);
            assert!(err.contains(bad), "diagnostic must quote the value: {err}");
            assert!(err.contains("HB_JOBS"), "{err}");
        }
    }

    #[test]
    fn per_worker_states_cover_every_job_exactly_once() {
        let items: Vec<usize> = (0..500).collect();
        let mut tallies = vec![0usize; 4];
        let out = map_with_states(&items, &mut tallies, |count, i, &x| {
            assert_eq!(i, x);
            *count += 1;
            x + 1
        });
        assert_eq!(out, (1..=500).collect::<Vec<_>>());
        assert_eq!(
            tallies.iter().sum::<usize>(),
            500,
            "each job touched exactly one worker's state: {tallies:?}"
        );
    }

    #[test]
    fn more_states_than_items_is_fine() {
        let mut states = vec![(); 16];
        assert_eq!(
            map_with_states(&[1, 2], &mut states, |(), _, &x| x * 10),
            vec![10, 20]
        );
    }
}
