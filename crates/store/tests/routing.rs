//! Shard-routing distribution tests: the seeded hash must spread keys
//! near-uniformly across shards (a hot shard defeats the whole point of
//! sharding the k-assignment wrappers) and must be a pure function of
//! `(key, seed, shards)` so every process routes identically.

use kex_store::{shard_of, KvStore, StoreConfig, StoreScan, StoreWrite};

/// Pearson chi-squared statistic of `counts` against a uniform
/// expectation.
fn chi_squared(counts: &[u64], total: u64) -> f64 {
    let expected = total as f64 / counts.len() as f64;
    counts
        .iter()
        .map(|&o| {
            let d = o as f64 - expected;
            d * d / expected
        })
        .sum()
}

/// 99.9%-quantile of the chi-squared distribution with 63 degrees of
/// freedom is ≈ 103.4; the seeds below are fixed, so this is a
/// deterministic regression bound with headroom, not a flaky
/// statistical test.
const CHI2_DF63_BOUND: f64 = 110.0;

#[test]
fn sequential_keys_spread_uniformly_across_64_shards() {
    // Sequential key ids are exactly what the Zipfian benchmark uses
    // (rank = key), making this the adversarial-but-realistic input: a
    // weak mixer would stripe them.
    const SHARDS: usize = 64;
    const KEYS: u64 = 64_000;
    for seed in [0u64, 1, 0x6B65_785F_7374_6F72, u64::MAX] {
        let mut counts = [0u64; SHARDS];
        for key in 0..KEYS {
            counts[shard_of(key, seed, SHARDS)] += 1;
        }
        let chi2 = chi_squared(&counts, KEYS);
        assert!(
            chi2 < CHI2_DF63_BOUND,
            "seed {seed:#x}: chi^2 = {chi2:.1} over {SHARDS} shards (bound {CHI2_DF63_BOUND})"
        );
        // No shard may be empty or pathologically hot at this volume.
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        assert!(min > 0, "seed {seed:#x}: empty shard");
        assert!(
            (max as f64) < 1.5 * (KEYS as f64 / SHARDS as f64),
            "seed {seed:#x}: hottest shard holds {max} of {KEYS}"
        );
    }
}

#[test]
fn sparse_and_clustered_key_patterns_also_spread() {
    const SHARDS: usize = 64;
    for (label, keys) in [
        (
            "strided",
            (0..32_000u64).map(|i| i * 4096).collect::<Vec<_>>(),
        ),
        ("high-bit", (0..32_000u64).map(|i| i | 1 << 63).collect()),
    ] {
        let mut counts = [0u64; SHARDS];
        for &key in &keys {
            counts[shard_of(key, 7, SHARDS)] += 1;
        }
        let chi2 = chi_squared(&counts, keys.len() as u64);
        assert!(
            chi2 < CHI2_DF63_BOUND,
            "{label}: chi^2 = {chi2:.1} (bound {CHI2_DF63_BOUND})"
        );
    }
}

#[test]
fn routing_is_deterministic_and_seed_dependent() {
    const SHARDS: usize = 64;
    for key in (0..10_000u64).step_by(97) {
        assert_eq!(shard_of(key, 42, SHARDS), shard_of(key, 42, SHARDS));
    }
    // Changing the seed must re-route a substantial fraction (≈ 63/64)
    // of keys: routing is a function of the seed, not just the key.
    let moved = (0..10_000u64)
        .filter(|&k| shard_of(k, 42, SHARDS) != shard_of(k, 43, SHARDS))
        .count();
    assert!(moved > 9_000, "seed change moved only {moved}/10000 keys");
}

#[test]
fn store_occupancy_matches_direct_routing() {
    // End-to-end: inserting through the Store lands each key on the
    // shard `shard_of` predicts, and the per-shard key counts the
    // stats report reproduce the routing histogram.
    let store = KvStore::new(StoreConfig::new(16, 4, 2));
    let seed = store.seed();
    let mut expected = [0usize; 16];
    for key in 0..2_000u64 {
        store.put(0, key, key).unwrap();
        expected[shard_of(key, seed, 16)] += 1;
    }
    let stats = store.stats();
    for (shard, stat) in stats.iter().enumerate() {
        assert_eq!(
            stat.keys, expected[shard],
            "shard {shard} key count diverges from routing"
        );
    }
    assert_eq!(store.len(), 2_000);
}
