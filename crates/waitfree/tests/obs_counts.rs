//! Exact atomic-op counts of the `WfQueue` enqueue + dequeue pair under
//! the instrumented backend (`--features obs`).
//!
//! One thread, so one interleaving and deterministic counters; one
//! `#[test]`, because the registry is process-global (see
//! `crates/core/tests/obs_counters.rs`). A row counts a window of
//! `CHECKPOINT_EVERY` warm pairs: `2 · CHECKPOINT_EVERY` log positions,
//! so the window holds the same checkpoints and frees every time.

#![cfg(all(feature = "obs", not(loom)))]

use kex_waitfree::universal::CHECKPOINT_EVERY;
use kex_waitfree::WfQueue;

/// `(RMWs, stores, loads)`.
type Counts = (u64, u64, u64);

/// `(RMWs, stores, loads)` of `CHECKPOINT_EVERY` enqueue + dequeue pairs
/// on one thread, as name 0, and the loads a debug build's
/// `assert_live` adds. 128 ops and two checkpoints: the RMWs are each
/// op's claim, commit and decide and each checkpoint's `newest` CAS and
/// `floor` raise; the stores each op's announce, its node's `seq` and
/// its idle word and each checkpoint's hazard, set and cleared. Every
/// op looks at `asks` once at its end, for its own bit. An idle name 1
/// adds no RMW and no store: its turns (every other op) cost one more
/// load of `asks`, and its span two loads (`hazard`, `resume`) per
/// `reclaim` scan — one scan per checkpoint, which frees the interval
/// the floor has passed.
const LADDER: [(&str, usize, Counts, u64); 2] = [
    ("WfQueue::new(1)", 1, (388, 388, 1030), 258),
    ("WfQueue::new(2), name 0 alone", 2, (388, 388, 1098), 258),
];

/// `(RMWs, stores, loads)` of `op`, over every pid, section and the
/// untracked bucket.
fn counted(op: impl FnOnce()) -> Counts {
    kex_obs::reset();
    op();
    kex_obs::snapshot()
        .per_pid
        .iter()
        .flat_map(|pid| pid.sections.iter())
        .fold((0, 0, 0), |acc, s| {
            (acc.0 + s.rmws, acc.1 + s.stores, acc.2 + s.loads)
        })
}

#[test]
fn a_warm_queue_pair_costs_what_it_is_pinned_at() {
    let window = |queue: &WfQueue<u64>| {
        for i in 0..CHECKPOINT_EVERY as u64 {
            queue.enqueue(0, i);
            assert_eq!(queue.dequeue(0), Some(i));
        }
    };
    let moved: Vec<String> = LADDER
        .iter()
        .filter_map(|&(row, k, (rmws, stores, loads), debug_loads)| {
            let debug_loads = u64::from(cfg!(debug_assertions)) * debug_loads;
            let pinned = (rmws, stores, loads + debug_loads);
            let queue = WfQueue::new(k);
            // Past the first checkpoints, with a full list of spares.
            (0..4).for_each(|_| window(&queue));
            let got = counted(|| window(&queue));
            (got != pinned).then(|| format!("{row}: {got:?}, pinned {pinned:?}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "(rmws, stores, loads) per {CHECKPOINT_EVERY} pairs moved:\n  {}",
        moved.join("\n  ")
    );
}
