//! Store histories, checked: reads go around the k-assignment wrapper
//! ([`kex_store::Shard::get`]), so "a read racing up to k writers, some
//! of them dead mid-put, still linearizes" is a claim about recorded
//! histories — `kex_util::lincheck` decides it, here on real threads
//! and in `loom_store.rs` on every schedule of two small models.
//!
//! The two canaries keep the checker honest in the `BrokenGate` style:
//! each is a shard object with one seeded bug that only a reader outside
//! the wrapper (or beside another holder) can see, driven through the
//! same `Store` surface by a scripted two-thread schedule, and each must
//! be reported on every run.

#![cfg(not(loom))]

mod common;

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Barrier};

use common::{check, crash, get, put, KvCall};
use kex_store::{KvStore, PutError, ShardObject, Store, StoreConfig};
use kex_util::lincheck::Clock;
use kex_util::rng::SmallRng;

const PIDS: usize = 16;
const SHARDS: usize = 2;
const K: usize = 2;
const KEYS: u64 = 8;
const OPS_PER_PID: u64 = 10_000;

/// 16 pids on however few cpus there are, 8 keys over 2 shards at
/// k = 2, gets and puts 1:1, every put's value unique — and the last
/// two pids each die mid-put half way through, one in each shard, so
/// every shard runs its second half on its last slot with a crashed
/// write of unknown fate in the history. 10 000 ops a pid is what makes
/// the run outlast many time slices: a pid is then descheduled *inside*
/// calls, and about one call in ten overlaps the next one invoked.
#[test]
fn seeded_stress_histories_linearize_with_two_pids_crashing_mid_run() {
    for seed in [1, 2, 3] {
        let mut cfg = StoreConfig::new(SHARDS, PIDS, K);
        // Room for every key in either shard, and no more: probe runs
        // collide, so reads walk past cells other keys have claimed.
        cfg.capacity = KEYS as usize;
        let store = KvStore::new(cfg);
        let key_on = |shard| {
            (0..KEYS)
                .find(|&key| store.shard_of(key) == shard)
                .expect("every shard owns one of the keys")
        };
        let (clock, start) = (Clock::new(), Barrier::new(PIDS));
        let history: Vec<KvCall> = std::thread::scope(|s| {
            let pids: Vec<_> = (0..PIDS)
                .map(|p| {
                    let (store, clock, start) = (&store, &clock, &start);
                    let dies_on = p.checked_sub(PIDS - SHARDS).map(key_on);
                    s.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(seed << 8 | p as u64);
                        let mut calls = Vec::new();
                        start.wait();
                        for i in 0..OPS_PER_PID {
                            let key = rng.gen_range(0..KEYS as usize) as u64;
                            let value = (p as u64) << 16 | i;
                            match dies_on {
                                Some(key) if i == OPS_PER_PID / 2 => {
                                    calls.push(crash(clock, store, p, key, value));
                                    break;
                                }
                                _ if rng.gen_bool(0.5) => calls.push(get(clock, store, p, key)),
                                _ => calls.push(put(clock, store, p, key, value)),
                            }
                        }
                        calls
                    })
                })
                .collect();
            pids.into_iter()
                .flat_map(|pid| pid.join().expect("pid completed"))
                .collect()
        });
        assert_eq!(check(&history), Ok(()), "seed {seed}");
        for stats in store.stats() {
            assert_eq!((stats.in_flight_lanes, stats.occupancy), (1, 1));
        }
    }
}

/// A one-pair table that keeps the key's tag and its value in two words
/// and claims the tag first, so a read can pair the new key with the
/// value the word held before (nothing: 0).
struct TornCells {
    tag: AtomicU64,
    value: AtomicU64,
    /// Met twice inside `put`, between the two stores.
    mid_put: Arc<Barrier>,
}

impl ShardObject for TornCells {
    fn get_unguarded(&self, key: u64) -> Option<u64> {
        (self.tag.load(SeqCst) == key + 1).then(|| self.value.load(SeqCst))
    }

    fn put(&self, _name: usize, key: u64, value: u64) -> Result<(), PutError> {
        self.tag.store(key + 1, SeqCst);
        // BUG: the pair is visible before it is whole.
        self.mid_put.wait();
        self.mid_put.wait();
        self.value.store(value, SeqCst);
        Ok(())
    }

    fn scan(&self, _f: &mut dyn FnMut(u64, u64)) {}

    fn len_unguarded(&self) -> usize {
        1
    }
}

#[test]
fn torn_cells_are_caught() {
    let mid_put = Arc::new(Barrier::new(2));
    let store = Store::with_objects(&StoreConfig::new(1, 4, 2), |_| TornCells {
        tag: AtomicU64::new(0),
        value: AtomicU64::new(0),
        mid_put: Arc::clone(&mid_put),
    });
    let clock = Clock::new();
    let history = std::thread::scope(|s| {
        let writer = s.spawn(|| put(&clock, &store, 0, 7, 70));
        mid_put.wait();
        let read = get(&clock, &store, 1, 7);
        mid_put.wait();
        [writer.join().expect("writer completed"), read]
    });
    assert_eq!(history[1].1.returned, Some((2, Some(0))), "the script");
    assert_eq!(
        check(&history),
        Err(7),
        "a value nobody wrote went unnoticed"
    );
}

/// An open-addressed table (every key probes from cell 0) whose `get`
/// gives up at the first cell it meets that another key has claimed, as
/// if a claimed cell ended a probe run the way an empty one does.
struct ShortProbe {
    cells: [AtomicU64; 4],
}

impl ShardObject for ShortProbe {
    fn get_unguarded(&self, key: u64) -> Option<u64> {
        let cur = self.cells[0].load(SeqCst);
        // BUG: one cell is not the probe run.
        (cur >> 32 == key + 1).then_some(cur & 0xFFFF_FFFF)
    }

    /// Sound for the one writer at a time the script has.
    fn put(&self, _name: usize, key: u64, value: u64) -> Result<(), PutError> {
        for cell in &self.cells {
            let cur = cell.load(SeqCst);
            if cur == 0 || cur >> 32 == key + 1 {
                cell.store((key + 1) << 32 | value, SeqCst);
                return Ok(());
            }
        }
        Err(PutError::ShardFull)
    }

    fn scan(&self, _f: &mut dyn FnMut(u64, u64)) {}

    fn len_unguarded(&self) -> usize {
        self.cells.iter().filter(|c| c.load(SeqCst) != 0).count()
    }
}

#[test]
fn a_short_probe_is_caught() {
    let store = Store::with_objects(&StoreConfig::new(1, 4, 2), |_| ShortProbe {
        cells: Default::default(),
    });
    let (clock, both_put) = (Clock::new(), Barrier::new(2));
    let history = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let puts = [put(&clock, &store, 0, 7, 70), put(&clock, &store, 0, 8, 80)];
            both_put.wait();
            puts
        });
        both_put.wait();
        let reads = [get(&clock, &store, 1, 7), get(&clock, &store, 1, 8)];
        let mut history = Vec::from(writer.join().expect("writer completed"));
        history.extend(reads);
        history
    });
    assert_eq!(history[2].1.returned, Some((5, Some(70))), "the script");
    assert_eq!(
        check(&history),
        Err(8),
        "a None after a responded put went unnoticed"
    );
}
