//! Exact atomic-op counts of the store layer's ladder rungs under the
//! instrumented backend (`--features obs`): the journal, the object,
//! what a `Shard` adds on top of the k-assignment it is built on, what
//! a read that goes around it costs, what a shed costs, and the store.
//!
//! One thread, so one interleaving and deterministic counters; one
//! `#[test]`, because the registry is process-global (see
//! `crates/core/tests/obs_counters.rs`).

#![cfg(all(feature = "obs", not(loom)))]

use kex_store::{
    KvCells, KvStore, LaneJournal, OpKind, Shard, ShardObject, StoreConfig, StoreRead, StoreWrite,
};

const N: usize = 16;
const K: usize = 4;

/// `(RMWs, stores, loads)` of one call of each ladder rung at T = 1 — the
/// benchmark's count pass (`benchmark/src/counts.rs`) at its sizing, on
/// a key already present (a put overwrites; claiming a cell for a new
/// key is the object's own CAS). 11 RMWs are the k-assignment's enter
/// and drop (`crates/core/tests/obs_counters.rs`): a guarded op adds
/// none, a read around the wrapper performs none, and a shed — one load
/// of `X` — writes only the shedder's own `sheds` cell (read, then
/// stored), a line no other process writes.
const LADDER: [(&str, (u64, u64, u64)); 10] = [
    // The head read, two payload words, `meta` twice (read back in
    // between) and the head: loads and stores on words the name owns.
    ("LaneJournal begin + commit", (0, 5, 2)),
    ("KvCells get", (0, 0, 1)),
    ("KvCells overwrite", (0, 1, 1)),
    // The probe, and the caller's own `ops` cell read and stored.
    ("Shard::get", (0, 1, 2)),
    // Admission (11, 2, 2) + journal + overwrite + `ops`.
    ("Shard::put", (11, 9, 6)),
    // Admission + probe + `ops`.
    ("Shard::try_get", (11, 3, 4)),
    ("Shard::try_get shed", (0, 1, 2)),
    ("Shard::try_put shed", (0, 1, 2)),
    // Routing is arithmetic: a store op is its shard's.
    ("Store::get", (0, 1, 2)),
    ("Store::put", (11, 9, 6)),
];

/// `(RMWs, stores, loads)` of `op`, over every pid, section and the
/// untracked bucket (the tally cells are bumped outside any span).
fn counted(op: impl FnOnce()) -> (u64, u64, u64) {
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
fn a_guarded_op_adds_no_rmw_a_read_performs_none_and_a_shed_writes_only_its_own_tally() {
    let journal = LaneJournal::new(K, 8);
    let cells = KvCells::new(64);
    let shard = Shard::new(N, K, 8, KvCells::new(64));
    let full = Shard::new(N, K, 8, KvCells::new(64));
    let store = KvStore::new(StoreConfig::new(4, N, K));
    cells.put(0, 7, 70).unwrap();
    shard.put(0, 7, 70).unwrap();
    full.put(0, 7, 70).unwrap();
    store.put(0, 7, 70).unwrap();
    for p in 1..=K {
        full.crash_in_cs(p, 7, 71);
    }
    let rungs: [&dyn Fn(); 10] = [
        &|| {
            let lsn = journal.begin(0, OpKind::Put, 7, 70);
            journal.commit(0, lsn);
        },
        &|| assert_eq!(cells.get(0, 7), Some(70)),
        &|| cells.put(0, 7, 70).unwrap(),
        &|| assert_eq!(shard.get(0, 7), Some(70)),
        &|| shard.put(0, 7, 70).unwrap(),
        &|| assert_eq!(shard.try_get(0, 7), Some(Some(70))),
        &|| assert_eq!(full.try_get(0, 7), None),
        &|| assert_eq!(full.try_put(0, 7, 72), None),
        &|| assert_eq!(store.get(0, 7), Some(70)),
        &|| store.put(0, 7, 70).unwrap(),
    ];
    // Each rung is called once before it is counted (the count pass
    // makes 10 000 calls: only the first is cold), and every rung that
    // moved is reported, not only the first.
    let moved: Vec<String> = LADDER
        .iter()
        .zip(rungs)
        .filter_map(|(&(rung, pinned), call)| {
            call();
            let got = counted(call);
            (got != pinned).then(|| format!("{rung}: {got:?}, pinned {pinned:?}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "(rmws, stores, loads) moved:\n  {}",
        moved.join("\n  ")
    );
    assert_eq!(full.stats().sheds, 4);
}
