//! The paper's resilience regime end to end: with `k - 1` holders
//! crashed inside the critical section of *every* shard, the blocking
//! surface must still complete every operation through the one live
//! slot per shard, and once a shard's last slot dies too its
//! non-blocking surface must shed while the other shards keep serving
//! — and while its own keys can still be read.

use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use kex_store::{KvStore, StoreConfig, StoreRead, StoreScan, StoreWrite};

const SHARDS: usize = 4;
const N: usize = 16;
const K: usize = 4;
const WORKERS: usize = 4;
const OPS_PER_WORKER: u64 = 4_000;
const KEYS: u64 = 256;

/// Self-verifying value: the key's low half rides along with the
/// writer's nonce, so a reader can tell a value that belongs to another
/// key (or a torn pair) from a legitimate one.
fn encode(key: u64, nonce: u64) -> u64 {
    (key & 0xFFFF) << 16 | (nonce & 0xFFFF)
}

fn belongs_to(key: u64, value: u64) -> bool {
    value >> 16 == key & 0xFFFF
}

fn key_on(store: &KvStore, shard: usize) -> u64 {
    (0..KEYS)
        .find(|&key| store.shard_of(key) == shard)
        .expect("every shard owns one of the keys")
}

/// On an idle shard the occupancy gauge — read off the k-exclusion's
/// own final-stage counter — and the journal's in-flight lanes count
/// the same thing: the holders that crashed in there.
fn assert_idle_shards_show(store: &KvStore, crashes: &[usize], when: &str) {
    let stats = store.stats();
    assert_eq!(stats.len(), crashes.len());
    for (shard, (s, &crashed)) in stats.iter().zip(crashes).enumerate() {
        assert_eq!(s.in_flight_lanes, crashed, "shard {shard} lanes {when}");
        assert_eq!(s.occupancy, crashed, "shard {shard} occupancy {when}");
    }
}

#[test]
fn k_minus_1_dead_per_shard_stays_available_and_a_dead_shard_sheds() {
    let store = KvStore::new(StoreConfig::new(SHARDS, N, K));

    // Pids above the workers' die mid-put, k - 1 in every shard.
    let mut pid = WORKERS;
    for shard in 0..SHARDS {
        let key = key_on(&store, shard);
        for _ in 0..K - 1 {
            store.crash_in_cs(pid, key, encode(key, 0xDEAD));
            pid += 1;
        }
    }
    assert_eq!(pid, N, "the crash plan uses every non-worker pid");
    assert_idle_shards_show(&store, &[K - 1; SHARDS], "after the crash plan");

    // Availability: every blocking op completes. Worker `t` writes only
    // keys congruent to `t`, so its last write per key is what must read
    // back; reads range over every key and check the value's key half.
    let start = Barrier::new(WORKERS);
    let last_written: Vec<Vec<Option<u64>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|t| {
                let (store, start) = (&store, &start);
                s.spawn(move || {
                    let mut last = vec![None; KEYS as usize];
                    start.wait();
                    for i in 0..OPS_PER_WORKER {
                        if i % 2 == 0 {
                            let key = i * 7 % (KEYS / WORKERS as u64) * WORKERS as u64 + t as u64;
                            let value = encode(key, i);
                            store.put(t, key, value).expect("the table has room");
                            last[key as usize] = Some(value);
                        } else {
                            let key = (i * 13 + t as u64) % KEYS;
                            if let Some(value) = store.get(t, key) {
                                assert!(
                                    belongs_to(key, value),
                                    "get({key}) returned {value:#x}, another key's value"
                                );
                            }
                        }
                    }
                    last
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker completed"))
            .collect()
    });
    for (t, last) in last_written.iter().enumerate() {
        assert!(last.iter().any(Option::is_some), "worker {t} wrote nothing");
        for (key, value) in last.iter().enumerate() {
            if value.is_some() {
                assert_eq!(store.get(0, key as u64), *value, "key {key} read back");
            }
        }
    }
    assert_idle_shards_show(&store, &[K - 1; SHARDS], "after the mixed run");
    for (shard, s) in store.stats().iter().enumerate() {
        assert_eq!(
            s.sheds, 0,
            "shard {shard}: the blocking surface never sheds"
        );
    }

    // Shard 0's last slot dies (worker pid 0 is free again): its
    // non-blocking surface sheds, shard 1 still serves.
    let (dead, live) = (key_on(&store, 0), key_on(&store, 1));
    store.crash_in_cs(0, dead, encode(dead, 0xDEAD));
    assert_eq!(store.try_get(1, dead), None);
    assert_eq!(store.try_put(2, dead, encode(dead, 1)), None);
    assert_eq!(store.try_put(1, live, encode(live, 2)), Some(Ok(())));
    assert_eq!(store.try_get(2, live), Some(Some(encode(live, 2))));
    let stats = store.stats();
    assert_eq!(stats[0].sheds, 2);
    assert_eq!(stats[1].sheds, 0);
    // A shed wrote nothing to the kex and a served try gave everything
    // back: the gauge moved only on the shard that lost a holder.
    let mut crashes = [K - 1; SHARDS];
    crashes[0] = K;
    assert_idle_shards_show(&store, &crashes, "after the sheds");
}

/// Reads take no slot, so they outlive the crash budget: with all `k`
/// slots of a shard consumed by holders that died mid-put, `get` and
/// `for_each` still answer — with the dead writers' values, which the
/// lanes attribute — while the surface that asks for admission sheds.
#[test]
fn reads_outlive_the_crash_budget() {
    let store = KvStore::new(StoreConfig::new(SHARDS, N, K));
    let live = key_on(&store, 1);
    store
        .put(0, live, encode(live, 1))
        .expect("the table has room");
    let on_dead_shard = (0..KEYS).filter(|&key| store.shard_of(key) == 0);
    let died_with: Vec<(u64, u64)> = on_dead_shard
        .take(K)
        .map(|key| (key, encode(key, 0xDEAD)))
        .collect();
    assert_eq!(died_with.len(), K, "shard 0 owns k of the keys");
    for (pid, &(key, value)) in died_with.iter().enumerate() {
        store.crash_in_cs(pid + 1, key, value);
    }
    let mut crashes = [0; SHARDS];
    crashes[0] = K;
    assert_idle_shards_show(&store, &crashes, "with shard 0 dead");

    // A read that asked for admission would wait here for good, so the
    // reads run on a thread of their own and a stuck one fails the test.
    let store = Arc::new(store);
    let (reader, keys, (tx, rx)) = (Arc::clone(&store), died_with.clone(), mpsc::channel());
    let reads = std::thread::spawn(move || {
        tx.send(keys.iter().map(|&(key, _)| reader.get(0, key)).collect())
    });
    let got: Vec<_> = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("a read on the dead shard waited for admission (or panicked)");
    reads.join().unwrap().unwrap();
    for (&(key, value), got) in died_with.iter().zip(got) {
        assert_eq!(got, Some(value), "key {key} on the dead shard");
    }
    let mut pairs = Vec::new();
    store.for_each(0, &mut |key, value| pairs.push((key, value)));
    pairs.sort_unstable();
    let mut expected = died_with.clone();
    expected.push((live, encode(live, 1)));
    expected.sort_unstable();
    assert_eq!(pairs, expected);
    assert_eq!(store.len(), K + 1);

    let journal = store.shard(0).journal();
    let mut attributed: Vec<_> = (0..K)
        .filter_map(|name| journal.in_flight(name))
        .map(|entry| (entry.key, entry.value))
        .collect();
    attributed.sort_unstable();
    assert_eq!(attributed, died_with);

    // Admission is still what it was: nothing gets a slot there.
    let (key, _) = died_with[0];
    assert_eq!(store.try_get(0, key), None);
    assert_eq!(store.try_put(0, key, encode(key, 2)), None);
    let stats = store.stats();
    assert_eq!((stats[0].sheds, stats[1].sheds), (2, 0));
    assert_eq!(stats[0].ops, K as u64 + 1, "k gets and a scan, no sheds");
    assert_idle_shards_show(&store, &crashes, "after the reads and the sheds");
}

/// A `put` that panics inside the object unwinds through the guard: the
/// slot and the name come back, so the lane must not stay in flight
/// — only a `crash_in_cs` whose `put` returned, which leaks its guard,
/// may pin a lane.
#[test]
fn a_panicking_put_is_not_attributed_as_a_crash() {
    let store = KvStore::new(StoreConfig::new(1, N, K));
    let bad_key = kex_store::MAX_KEY + 1;
    let blocking = || {
        let _ = store.put(0, bad_key, 1);
    };
    let shedding = || {
        let _ = store.try_put(0, bad_key, 1);
    };
    let crashing = || store.crash_in_cs(0, bad_key, 1);
    for attempt in [&blocking as &dyn Fn(), &shedding, &crashing] {
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(attempt));
        assert!(unwound.is_err(), "KvCells rejects keys above MAX_KEY");
        // The guard returned its slot and no holder died in there.
        assert_idle_shards_show(&store, &[0], "after the unwind");
    }
    store.put(0, 1, 1).expect("the shard still serves");
    assert_eq!(store.get(1, 1), Some(1));
}
