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
//! crash-fails inside its critical section. The journal's orderings
//! (payload `Relaxed`, `meta`/`head` `Release`, loads `Acquire`) are the
//! subject of the `journal_*` models and of a seeded canary whose only
//! defect is an ordering.
//!
//! Reads go around the wrapper, so the two `unguarded_*` models record
//! every operation with `kex_util::lincheck` and ask of each schedule's
//! history whether the register specification explains it, a crashed
//! put counting as an invocation that never responds. The recorder's
//! stamps are `SeqCst` RMWs on one shared word: they can hide a
//! reordering the bare code would show (they cannot invent one), so the
//! plain assertions on what the reader saw stay beside the checker.

#![cfg(loom)]

mod common;

use std::sync::Arc;

use common::{check, crash, get, put};
use kex_loom::atomic::{AtomicU64, Ordering};
use kex_loom::{thread, Builder};
use kex_store::{KvStore, OpState, StoreConfig, StoreRead, StoreWrite};
use kex_util::lincheck::Clock;

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
/// Probes from the same cell as [`KEY`] in `tiny_store`'s four-cell
/// table (pinned by `object.rs`'s unit tests).
const COLLIDER: u64 = 46;

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

/// A reader outside the wrapper, twice, while pid 0 dies mid-put on the
/// key it reads and pid 1 overwrites it, on the shape the benchmark's
/// shards have (fast path, tree, final block). On every schedule the
/// history linearizes with the crashed put pending — taking effect at
/// any point after its invocation, or never — and the reader does not
/// see a new value and then the old one.
#[test]
fn unguarded_reads_linearize_around_a_crashed_writer() {
    let stats = Builder::new().max_preemptions(2).check(move || {
        let store = Arc::new(tiny_store(5));
        let clock = Arc::new(Clock::new());
        let mut history = vec![put(&clock, &*store, 2, KEY, 1)];

        let (c, s) = (Arc::clone(&clock), Arc::clone(&store));
        let crasher = thread::spawn(move || crash(&c, &s, 0, KEY, 100));
        let (c, s) = (Arc::clone(&clock), Arc::clone(&store));
        let writer = thread::spawn(move || put(&c, &*s, 1, KEY, 200));
        let reads = [(); 2].map(|()| get(&clock, &*store, 3, KEY));

        let seen = reads.each_ref().map(|(_, call)| match call.returned {
            Some((_, Some(value))) => value,
            _ => panic!("key {KEY} read as absent after a completed put"),
        });
        assert!(
            seen.iter().all(|value| [1, 100, 200].contains(value)),
            "torn value in {seen:?}"
        );
        assert!(seen[0] == 1 || seen[1] != 1, "new, then old: {seen:?}");

        history.extend(reads);
        history.push(crasher.join().unwrap());
        history.push(writer.join().unwrap());
        assert_eq!(check(&history), Ok(()), "{history:?}");
        assert_eq!(store.stats()[0].in_flight_lanes, 1, "crash not attributed");
    });
    eprintln!(
        "unguarded reads vs crashed writer: {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}

/// A reader outside the wrapper racing the *first* insert of two keys
/// that probe from the same cell: one writer wins the empty → claimed
/// CAS, the other loses it and probes on, and the reader walks the run
/// while it forms. No schedule answers `None` for a key whose put has
/// responded, or a value under the wrong key.
#[test]
fn unguarded_reads_linearize_around_colliding_first_inserts() {
    let stats = Builder::new().max_preemptions(2).check(move || {
        let store = Arc::new(tiny_store(3));
        let clock = Arc::new(Clock::new());
        let writers: Vec<_> = [(1, KEY, 10), (2, COLLIDER, 20)]
            .into_iter()
            .map(|(p, key, value)| {
                let (c, s) = (Arc::clone(&clock), Arc::clone(&store));
                thread::spawn(move || put(&c, &*s, p, key, value))
            })
            .collect();
        let mut history = vec![
            get(&clock, &*store, 0, COLLIDER),
            get(&clock, &*store, 0, KEY),
        ];
        for (_, call) in &history {
            let seen = call.returned.expect("a get responds").1;
            assert!([None, Some(10), Some(20)].contains(&seen), "torn: {seen:?}");
        }
        history.extend(writers.into_iter().map(|w| w.join().unwrap()));

        assert_eq!(store.get(0, KEY), Some(10));
        assert_eq!(store.get(0, COLLIDER), Some(20));
        assert_eq!(check(&history), Ok(()), "{history:?}");
    });
    eprintln!(
        "unguarded reads vs colliding first inserts: {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}

/// Two writers put `(p, p + 100)` while the main thread reads the lanes
/// the way a recovery pass would. With `name_0_is_dead` a crashed
/// holder keeps name 0 for good, so the writers take turns on name 1 —
/// the one without a bit, whose hand-off edge is the k-exclusion's own
/// RMW chain (`crash_degraded`'s regime); without it they share names 0
/// and 1 as the schedule has it. On every schedule:
///
/// * **publication** — a reader that sees an entry (in flight or in the
///   history) sees that entry's key *and* value, and one that sees the
///   head past an entry sees how the entry ended: `meta` is stored with
///   release after the relaxed payload, `head` with release after it;
/// * **hand-off** — the second holder of a name starts where the first
///   stopped: no lsn is reused (a reused one would overwrite an entry
///   and leave the heads one short of the puts issued).
fn check_journal(name_0_is_dead: bool) -> kex_loom::Stats {
    Builder::new().max_preemptions(2).check(move || {
        let store = Arc::new(tiny_store(3));
        if name_0_is_dead {
            store.crash_in_cs(0, KEY, KEY + 100);
        }
        let writers: Vec<_> = [1, 2]
            .into_iter()
            .map(|p| {
                let store = Arc::clone(&store);
                thread::spawn(move || store.put(p, p as u64, p as u64 + 100).unwrap())
            })
            .collect();

        let journal = store.shard(0).journal();
        for name in 0..2 {
            let finished = journal.committed(name);
            for e in journal
                .history(name)
                .into_iter()
                .chain(journal.in_flight(name))
            {
                assert_eq!(e.value, e.key + 100, "entry without its payload");
                let open = e.state == OpState::InFlight;
                assert!(e.lsn >= finished || !open, "head ahead of its entry's meta");
            }
        }
        for writer in writers {
            writer.join().unwrap();
        }

        let mut keys = Vec::new();
        for name in 0..2 {
            for (at, e) in journal.history(name).into_iter().enumerate() {
                assert_eq!(e.lsn, at as u64, "lane {name} skipped or reused an lsn");
                assert_eq!(e.value, e.key + 100, "entry without its payload");
                assert_eq!(e.state == OpState::InFlight, e.key == KEY);
                keys.push(e.key);
            }
        }
        keys.sort_unstable();
        let mut issued = vec![1, 2];
        issued.extend(name_0_is_dead.then_some(KEY));
        assert_eq!(keys, issued);
        let finished: u64 = (0..2).map(|name| journal.committed(name)).sum();
        assert_eq!(finished, 2, "a second holder reused its predecessor's lsn");
    })
}

#[test]
fn journal_entries_are_published_whole_and_lsns_never_reused() {
    for name_0_is_dead in [false, true] {
        let stats = check_journal(name_0_is_dead);
        eprintln!(
            "journal publication (name 0 dead: {name_0_is_dead}): {} executions, {} schedule points",
            stats.executions, stats.schedule_points
        );
    }
}

/// `LaneJournal::begin` and the reader's side of `in_flight`, with the
/// bug the `RELEASE` on `meta` is there to prevent seeded in.
#[derive(Default)]
struct BrokenLane {
    meta: AtomicU64,
    key: AtomicU64,
    val: AtomicU64,
}

impl BrokenLane {
    const IN_FLIGHT: u64 = 1;

    fn begin(&self, key: u64, value: u64) {
        self.key.store(key, Ordering::Relaxed);
        self.val.store(value, Ordering::Relaxed);
        // BUG: the meta word no longer publishes the payload before it.
        self.meta.store(Self::IN_FLIGHT, Ordering::Relaxed);
    }

    fn in_flight(&self) -> Option<(u64, u64)> {
        (self.meta.load(Ordering::Acquire) == Self::IN_FLIGHT).then(|| {
            (
                self.key.load(Ordering::Acquire),
                self.val.load(Ordering::Acquire),
            )
        })
    }
}

/// Keeps the publication model above honest: the same reader-side
/// assertion must find a counterexample once `meta` is stored
/// `Relaxed`.
#[test]
fn journal_meta_stored_relaxed_is_caught() {
    let msg = kex_loom::check_expecting_failure(|| {
        let lane = Arc::new(BrokenLane::default());
        let writer = {
            let lane = Arc::clone(&lane);
            thread::spawn(move || lane.begin(KEY, KEY + 100))
        };
        if let Some(entry) = lane.in_flight() {
            assert_eq!(
                entry,
                (KEY, KEY + 100),
                "in-flight entry without its payload"
            );
        }
        writer.join().unwrap();
    });
    assert!(
        msg.contains("in-flight entry without its payload"),
        "checker reported an unrelated failure: {msg}"
    );
}
