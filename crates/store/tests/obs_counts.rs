//! Exact atomic-op counts of a shard op under the instrumented backend
//! (`--features obs`): what a `Shard` adds on top of the k-assignment
//! it is built on, what a read that goes around it costs, and what a
//! shed costs.
//!
//! One thread, so one interleaving and deterministic counters; one
//! `#[test]`, because the registry is process-global (see
//! `crates/core/tests/obs_counters.rs`).

#![cfg(all(feature = "obs", not(loom)))]

use kex_core::native::KAssignment;
use kex_store::{KvCells, LaneJournal, OpKind, Shard, ShardObject};

const N: usize = 16;
const K: usize = 4;

/// `(RMWs, stores, loads)` since the last `reset()`, over every pid,
/// section and the untracked bucket (the tally cells are bumped outside
/// any span).
fn counts() -> (u64, u64, u64) {
    let snap = kex_obs::snapshot();
    snap.per_pid
        .iter()
        .flat_map(|pid| pid.sections.iter())
        .fold((0, 0, 0), |acc, s| {
            (acc.0 + s.rmws, acc.1 + s.stores, acc.2 + s.loads)
        })
}

#[test]
fn a_guarded_op_adds_no_rmw_a_read_performs_none_and_a_shed_writes_only_its_own_tally() {
    let assign = KAssignment::new(N, K);
    kex_obs::reset();
    drop(assign.enter(0));
    let (admission_rmws, ..) = counts();
    assert_eq!(admission_rmws, 11);

    // A journal entry is loads and stores on words the name owns: the
    // head read, two payload words, `meta` twice (read back in between)
    // and the head.
    let journal = LaneJournal::new(K, 8);
    kex_obs::reset();
    let lsn = journal.begin(0, OpKind::Put, 7, 70);
    journal.commit(0, lsn);
    let (rmws, stores, loads) = counts();
    assert_eq!(rmws, 0, "a journal entry performs an RMW");
    assert!(stores + loads <= 7, "{stores} stores + {loads} loads");

    // So is the object's read: loads down the probe run.
    let cells = KvCells::new(64);
    cells.put(0, 7, 70).unwrap();
    kex_obs::reset();
    assert_eq!(cells.get_unguarded(7), Some(70));
    let (rmws, stores, probe_loads) = counts();
    assert_eq!((rmws, stores), (0, 0), "KvCells' read writes");

    // A put, and the read that asks for admission, pay the
    // k-assignment and nothing more; `ops` is the caller's own cell.
    // (Claiming a cell for a new key is the object's own CAS, so the
    // put that is measured overwrites.)
    let shard = Shard::new(N, K, 8, KvCells::new(64));
    shard.put(0, 7, 69).unwrap();
    kex_obs::reset();
    shard.put(0, 7, 70).unwrap();
    assert_eq!(counts().0, admission_rmws, "Shard::put adds an RMW");
    kex_obs::reset();
    assert_eq!(shard.try_get(0, 7), Some(Some(70)));
    assert_eq!(counts().0, admission_rmws, "a served try_get adds an RMW");

    // `get` goes around the wrapper: the probe, and the caller's own
    // `ops` cell read and stored.
    kex_obs::reset();
    assert_eq!(shard.get(0, 7), Some(70));
    assert_eq!(counts(), (0, 1, probe_loads + 1), "Shard::get");

    // A full shard sheds off one load of `X`; the only write is the
    // shedder's own `sheds` cell (read, then stored), a line no other
    // process writes.
    for p in 1..=K {
        shard.crash_in_cs(p, 7, 71);
    }
    kex_obs::reset();
    assert_eq!(shard.try_get(0, 7), None);
    assert_eq!(counts(), (0, 1, 2));
    kex_obs::reset();
    assert_eq!(shard.try_put(0, 7, 72), None);
    assert_eq!(counts(), (0, 1, 2));
    assert_eq!(shard.stats().sheds, 2);
}
