//! The sharded store: seeded-hash routing over a fixed set of
//! [`Shard`]s, all built at the config's `(n, k)`.

use crate::hash::shard_of;
use crate::object::{KvCells, ShardObject};
use crate::shard::{Shard, ShardStats};
use crate::traits::{PutError, StoreRead, StoreScan, StoreWrite};

// Span shim: real `Section::Store` spans under `--features obs`,
// erased otherwise (see `kex_core::obs`).
use kex_core::obs;

/// The routing seed ("kex_stor"): fixed, so every process — and any
/// recovery pass — routes a key to the same shard.
const SEED: u64 = 0x6B65_785F_7374_6F72;

/// Construction parameters for a [`Store`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Number of shards; routing is `shard_of(key, Store::seed(), shards)`.
    pub shards: usize,
    /// Per-shard process universe: every process id in `0..n` may
    /// operate on every shard. Size it with headroom for the crash
    /// budget (a crashed id's slot and name are never reclaimed).
    pub n: usize,
    /// Admission/resiliency bound of every shard (each shard tolerates
    /// `k - 1` crashed holders).
    pub k: usize,
    /// Key capacity per shard object (rounded up to a power of two).
    pub capacity: usize,
    /// Journaled operations retained per lane.
    pub journal_depth: usize,
}

impl StoreConfig {
    /// A config with `shards` shards for an `n`-process universe and
    /// uniform admission bound `k`.
    pub fn new(shards: usize, n: usize, k: usize) -> Self {
        StoreConfig {
            shards,
            n,
            k,
            capacity: 1024,
            journal_depth: 8,
        }
    }
}

/// A sharded, `(k-1)`-resilient-per-shard key/value service:
/// keys route by seeded hash to a shard, each shard is a
/// [`Resilient`](kex_core::native::Resilient)-wrapped wait-free object
/// with its own operation lanes.
///
/// ```rust
/// use kex_store::{KvStore, StoreConfig, StoreRead, StoreWrite};
///
/// let store = KvStore::new(StoreConfig::new(8, 16, 2));
/// store.put(3, 7001, 42).unwrap();
/// assert_eq!(store.get(5, 7001), Some(42));
/// ```
pub struct Store<O> {
    shards: Vec<Shard<O>>,
}

/// The concrete store the benchmarks and examples use: [`KvCells`]
/// behind every shard.
pub type KvStore = Store<KvCells>;

impl KvStore {
    /// Build a store of [`KvCells`] shards from `cfg`.
    pub fn new(cfg: StoreConfig) -> Self {
        Store::with_objects(&cfg, |_| KvCells::new(cfg.capacity))
    }
}

impl<O: ShardObject> Store<O> {
    /// Build a store whose shard objects come from `make(shard_index)`.
    pub fn with_objects(cfg: &StoreConfig, make: impl FnMut(usize) -> O) -> Self {
        assert!(cfg.shards >= 1, "a store needs at least one shard");
        assert!(
            cfg.k >= 1 && cfg.k < cfg.n,
            "need 1 <= k < n (k = {}, n = {})",
            cfg.k,
            cfg.n
        );
        let mut make = make;
        Store {
            shards: (0..cfg.shards)
                .map(|s| Shard::new(cfg.n, cfg.k, cfg.journal_depth, make(s)))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The routing seed, the same for every store.
    pub fn seed(&self) -> u64 {
        SEED
    }

    /// The shard index `key` routes to.
    pub fn shard_of(&self, key: u64) -> usize {
        shard_of(key, SEED, self.shards.len())
    }

    /// The shard that owns `key`.
    pub fn shard_for(&self, key: u64) -> &Shard<O> {
        &self.shards[self.shard_of(key)]
    }

    /// The shard at `index` (monitoring/recovery surface).
    pub fn shard(&self, index: usize) -> &Shard<O> {
        &self.shards[index]
    }

    /// Crash-failure injection on the shard owning `key`: process `p`
    /// dies inside the critical section mid-`put`, consuming a slot and
    /// a name there forever. See [`Shard::crash_in_cs`].
    pub fn crash_in_cs(&self, p: usize, key: u64, value: u64) {
        let _span = obs::span(obs::Section::Store, p);
        self.shard_for(key).crash_in_cs(p, key, value);
    }

    /// Per-shard monitoring snapshots, in shard order.
    pub fn stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(Shard::stats).collect()
    }
}

impl<O: ShardObject> StoreRead for Store<O> {
    fn get(&self, p: usize, key: u64) -> Option<u64> {
        let _span = obs::span(obs::Section::Store, p);
        self.shard_for(key).get(p, key)
    }

    fn try_get(&self, p: usize, key: u64) -> Option<Option<u64>> {
        let _span = obs::span(obs::Section::Store, p);
        self.shard_for(key).try_get(p, key)
    }
}

impl<O: ShardObject> StoreWrite for Store<O> {
    fn put(&self, p: usize, key: u64, value: u64) -> Result<(), PutError> {
        let _span = obs::span(obs::Section::Store, p);
        self.shard_for(key).put(p, key, value)
    }

    fn try_put(&self, p: usize, key: u64, value: u64) -> Option<Result<(), PutError>> {
        let _span = obs::span(obs::Section::Store, p);
        self.shard_for(key).try_put(p, key, value)
    }
}

impl<O: ShardObject> StoreScan for Store<O> {
    fn for_each(&self, p: usize, f: &mut dyn FnMut(u64, u64)) {
        let _span = obs::span(obs::Section::Store, p);
        for shard in &self.shards {
            shard.scan(p, f);
        }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(Shard::keys).sum()
    }
}

impl<O> std::fmt::Debug for Store<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("shards", &self.shards.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_deterministically_and_round_trips() {
        let store = KvStore::new(StoreConfig::new(16, 8, 2));
        for key in 0..500u64 {
            store.put(key as usize % 8, key, key + 1).unwrap();
            assert_eq!(store.shard_of(key), store.shard_of(key));
        }
        for key in 0..500u64 {
            assert_eq!(store.get(0, key), Some(key + 1));
        }
        assert_eq!(store.get(0, 100_000), None);
        assert_eq!(store.len(), 500);
    }

    #[test]
    fn scan_covers_every_shard() {
        let store = KvStore::new(StoreConfig::new(4, 4, 2));
        for key in 0..64u64 {
            store.put(0, key, key * 2).unwrap();
        }
        let mut pairs = std::collections::BTreeMap::new();
        store.for_each(1, &mut |k, v| {
            pairs.insert(k, v);
        });
        assert_eq!(pairs.len(), 64);
        assert!(pairs.iter().all(|(k, v)| *v == k * 2));
    }

    #[test]
    fn crashed_shard_keeps_serving_with_k_minus_1_dead() {
        let cfg = StoreConfig::new(2, 8, 2);
        let store = KvStore::new(cfg);
        // Find a key per shard, then kill one holder in shard 0.
        let key0 = (0..).find(|&k| store.shard_of(k) == 0).unwrap();
        let key1 = (0..).find(|&k| store.shard_of(k) == 1).unwrap();
        store.crash_in_cs(0, key0, 7);
        // Both shards still serve blocking ops.
        store.put(1, key0, 8).unwrap();
        store.put(2, key1, 9).unwrap();
        assert_eq!(store.get(3, key0), Some(8));
        assert_eq!(store.get(3, key1), Some(9));
        let stats = store.stats();
        assert_eq!(stats[0].in_flight_lanes, 1);
        assert_eq!(stats[1].in_flight_lanes, 0);
        assert_eq!(stats[0].occupancy, 1);
    }

    #[test]
    fn sheds_route_only_to_the_dead_shard() {
        let store = KvStore::new(StoreConfig::new(2, 16, 2));
        let key0 = (0..).find(|&k| store.shard_of(k) == 0).unwrap();
        let key1 = (0..).find(|&k| store.shard_of(k) == 1).unwrap();
        // Kill *all* of shard 0's slots: it is now unavailable, and the
        // non-blocking surface sheds instead of hanging.
        store.crash_in_cs(0, key0, 1);
        store.crash_in_cs(1, key0, 2);
        assert_eq!(store.try_put(2, key0, 3), None);
        assert_eq!(store.try_get(3, key0), None);
        // The live shard is untouched.
        assert_eq!(store.try_put(2, key1, 3), Some(Ok(())));
        assert_eq!(store.try_get(3, key1), Some(Some(3)));
        assert_eq!(store.stats()[0].sheds, 2);
    }
}
