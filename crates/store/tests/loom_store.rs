//! Model checking of the store's crash story, driven by the vendored
//! `kex-loom` checker.
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p kex-store --test loom_store --release
//! ```
//!
//! Under `cfg(loom)` the `kex_util::sync` facade swaps every atomic the
//! store (and the k-assignment machinery beneath it) touches for the
//! model-checked versions, so the exact production composition —
//! route → admission gate → k-exclusion → renaming → object →
//! journal — is explored. The headline model is the ISSUE-8 one: two
//! processes race `StoreWrite::put` on the *same key* while one of them
//! crash-fails inside its critical section.

#![cfg(loom)]

use std::sync::Arc;

use kex_loom::{thread, Builder};
use kex_store::{KvStore, OpState, StoreConfig, StoreRead, StoreWrite};

/// One shard keeps the model honest (both writers *must* collide on
/// the same wrapper) and small; k = 2 — one crash survivable. With
/// n = 3 the k-exclusion is a single block, with n = 5 it has the fast
/// path, the tree and the final block of the benchmark's shards.
fn tiny_store(n: usize) -> KvStore {
    let mut cfg = StoreConfig::new(1, n, 2);
    cfg.capacity = 4;
    cfg.journal_depth = 2;
    KvStore::new(cfg)
}

const KEY: u64 = 42;

/// Two processes race a put on the same key; process 0 crashes in its
/// critical section mid-put (slot, name, and lane consumed forever).
/// Every schedule must end with: the survivor's put completed, the
/// value intact (one of the two written values — the register may
/// linearize either last), exactly one lane attributing the crash, and
/// the store still answering reads.
#[test]
fn racing_same_key_writes_with_crash_in_cs() {
    let stats = Builder::new().max_preemptions(2).check(move || {
        let store = Arc::new(tiny_store(3));

        let crasher = Arc::clone(&store);
        let t0 = thread::spawn(move || {
            // Crash-in-CS: journals the op, applies it, dies before
            // commit — the paper's failure model via a leaked guard.
            crasher.crash_in_cs(0, KEY, 100);
        });

        let writer = Arc::clone(&store);
        let t1 = thread::spawn(move || {
            // k = 2: the survivor is admitted even while the crasher
            // holds (and never releases) the other slot.
            writer.put(1, KEY, 200).unwrap();
            let seen = writer.get(1, KEY).unwrap();
            assert!(seen == 100 || seen == 200, "torn or lost value: {seen}");
        });

        t0.join().unwrap();
        t1.join().unwrap();

        // Post-mortem, from a third process (the main thread).
        let value = store.get(2, KEY).unwrap();
        assert!(value == 100 || value == 200, "torn value {value}");

        let stats = store.stats();
        assert_eq!(stats[0].in_flight_lanes, 1, "crash not attributed");
        assert_eq!(stats[0].occupancy, 1, "crashed slot not retained");

        // The dead lane names exactly the interrupted operation.
        let journal = store.shard(0).journal();
        let dead: Vec<_> = (0..2).filter_map(|name| journal.in_flight(name)).collect();
        assert_eq!(dead.len(), 1);
        assert_eq!((dead[0].key, dead[0].value), (KEY, 100));
        assert_eq!(dead[0].state, OpState::InFlight);

        // And the survivor's lane committed its put.
        let committed: u64 = (0..2).map(|name| journal.committed(name)).sum();
        assert!(committed >= 1, "survivor's commit lost");
    });
    eprintln!(
        "store crash race: {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}

/// The non-blocking surface under a *fully* dead shard: both slots
/// crash-consumed, so `try_put`/`try_get` must shed (return `None`)
/// on every schedule rather than admit or hang. Then the same surface
/// one crash short of that, with the last slot contended.
#[test]
fn try_ops_shed_when_every_slot_is_crash_consumed() {
    let stats = Builder::new().max_preemptions(2).check(move || {
        let store = Arc::new(tiny_store(3));

        let c0 = Arc::clone(&store);
        let t0 = thread::spawn(move || c0.crash_in_cs(0, KEY, 1));
        let c1 = Arc::clone(&store);
        let t1 = thread::spawn(move || c1.crash_in_cs(1, KEY, 2));
        t0.join().unwrap();
        t1.join().unwrap();

        // k = 2 slots crash-consumed: shedding is permanent.
        assert_eq!(store.try_put(2, KEY, 3), None);
        assert_eq!(store.try_get(2, KEY), None);
        assert_eq!(store.stats()[0].in_flight_lanes, 2);
    });
    eprintln!(
        "store full-crash shed: {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );

    // k - 1 slots crash-consumed, two blocking writers after the one
    // that is left (the second finds no fast slot and comes round the
    // tree, so it holds the final block while `X` is free again), and a
    // third process on the shedding surface throughout: each of its ops
    // is served or shed, none waits — it would deadlock the model —
    // and no schedule leaves a counter, a lane or a tally off by one.
    let stats = Builder::new().max_preemptions(2).check(move || {
        let store = Arc::new(tiny_store(5));
        store.crash_in_cs(0, KEY, 1);

        let writers: Vec<_> = [1, 2]
            .into_iter()
            .map(|p| {
                let store = Arc::clone(&store);
                thread::spawn(move || store.put(p, KEY, 10 * p as u64).unwrap())
            })
            .collect();
        let served = [
            store.try_put(3, KEY, 30).map(|put| put.unwrap()).is_some(),
            store.try_get(3, KEY).is_some(),
        ];
        for writer in writers {
            writer.join().unwrap();
        }

        let value = store.get(3, KEY).unwrap();
        assert!([1, 10, 20, 30].contains(&value), "torn value {value}");
        let stats = store.stats()[0];
        let sheds = served.iter().filter(|&&s| !s).count() as u64;
        assert_eq!((stats.in_flight_lanes, stats.occupancy), (1, 1));
        assert_eq!((stats.ops, stats.sheds), (5 - sheds, sheds));

        // The last slot dies too: from here on everything is shed.
        store.crash_in_cs(1, KEY, 2);
        assert_eq!(store.try_put(3, KEY, 3), None);
        assert_eq!(store.try_get(3, KEY), None);
        let stats = store.stats()[0];
        assert_eq!((stats.in_flight_lanes, stats.occupancy), (2, 2));
        assert_eq!(stats.sheds, sheds + 2);
    });
    eprintln!(
        "store shed behind a slow-path holder: {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}
