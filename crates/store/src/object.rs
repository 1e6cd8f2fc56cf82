//! The wait-free k-process object a shard wraps: a fixed-capacity
//! open-addressed key/value table over atomic registers.
//!
//! [`KvCells`] is deliberately minimal — the store layer's subject is
//! the *composition* (hash → k-assignment → object → journal), not a
//! clever map. Every slot is one `AtomicU64` packing a 32-bit key tag
//! with a 32-bit value, so a read or an overwrite is a single atomic
//! register access and a racing same-key write can never tear the pair
//! apart. Probes are linearly bounded by the (fixed) capacity and there
//! are no deletions, so every operation is wait-free for *any* number
//! of processes — a strictly stronger object than the k-process
//! contract the paper asks for. Writes go through the admission layer
//! all the same (the journal needs the name); reads go around it
//! ([`crate::Shard::get`]), and the histories that allows are checked
//! in `tests/linearizable.rs` and `tests/loom_store.rs`.

use kex_util::sync::atomic::{AtomicU64, AtomicUsize};
use kex_util::CachePadded;

use crate::hash::slot_of;
use crate::ordering::SEQ_CST;
use crate::traits::PutError;

/// Largest storable key: keys are packed as a 32-bit tag (`key + 1`,
/// reserving 0 for *empty*).
pub const MAX_KEY: u64 = (u32::MAX - 1) as u64;
/// Largest storable value: values occupy the low 32 bits of a slot.
pub const MAX_VALUE: u64 = u32::MAX as u64;

/// The k-process object behind each shard: operations take the caller's
/// assigned *name* in `0..k` per the paper's calling convention.
///
/// Implementations must be wait-free for `k` concurrent processes with
/// distinct names. The operations that take no name (`get_unguarded`,
/// `scan`, `len_unguarded`) are called through
/// [`Resilient::object_unguarded`](kex_core::native::Resilient::object_unguarded):
/// they must be wait-free and linearizable for *any* number of callers
/// racing up to `k` named writers, some of them stopped mid-`put` for good.
pub trait ShardObject: Sync {
    /// Read `key` without a name; `None` when absent.
    fn get_unguarded(&self, key: u64) -> Option<u64>;
    /// Read `key` as the holder of `name`: the same read.
    fn get(&self, name: usize, key: u64) -> Option<u64> {
        let _ = name;
        self.get_unguarded(key)
    }
    /// Insert or overwrite `key`.
    fn put(&self, name: usize, key: u64, value: u64) -> Result<(), PutError>;
    /// Visit every present pair. Per-entry atomic, not a consistent cut.
    fn scan(&self, f: &mut dyn FnMut(u64, u64));
    /// Approximate number of distinct keys present; safe to call
    /// without entering the wrapper.
    fn len_unguarded(&self) -> usize;
}

/// Fixed-capacity open-addressed atomic-register k/v table; see the
/// module docs for the design constraints.
#[derive(Debug)]
pub struct KvCells {
    /// `(key + 1) << 32 | value` per slot; 0 = empty. Slots only ever
    /// transition empty → claimed-for-one-key and then hold that key
    /// forever (no deletes), which is what makes bounded probing sound.
    slots: Vec<AtomicU64>,
    /// Distinct keys inserted (monotone; exact once insertions settle).
    len: CachePadded<AtomicUsize>,
}

impl KvCells {
    /// A table with room for `capacity` keys (rounded up to a power of
    /// two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        KvCells {
            slots: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            len: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Slot capacity (insertions beyond it return
    /// [`PutError::ShardFull`]).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn pack(key: u64, value: u64) -> u64 {
        assert!(key <= MAX_KEY, "KvCells keys are 32-bit (got {key})");
        assert!(
            value <= MAX_VALUE,
            "KvCells values are 32-bit (got {value})"
        );
        (key + 1) << 32 | value
    }
}

impl ShardObject for KvCells {
    fn get_unguarded(&self, key: u64) -> Option<u64> {
        if key > MAX_KEY {
            // `put` refuses such a key, so it was never stored.
            return None;
        }
        let cap = self.slots.len();
        let tag = key + 1;
        let start = slot_of(key, cap);
        for i in 0..cap {
            let cur = self.slots[(start + i) & (cap - 1)].load(SEQ_CST);
            if cur == 0 {
                // First empty slot in probe order: the key was not
                // present when we looked (slots never empty out, so no
                // earlier insert can hide beyond this point).
                return None;
            }
            if cur >> 32 == tag {
                return Some(cur & MAX_VALUE);
            }
        }
        None
    }

    fn put(&self, _name: usize, key: u64, value: u64) -> Result<(), PutError> {
        let packed = Self::pack(key, value);
        let tag = packed >> 32;
        let cap = self.slots.len();
        let start = slot_of(key, cap);
        for i in 0..cap {
            let slot = &self.slots[(start + i) & (cap - 1)];
            let cur = slot.load(SEQ_CST);
            if cur >> 32 == tag {
                // Our key's slot: a full-word store replaces the value
                // and necessarily rewrites the same tag — concurrent
                // same-key writers cannot tear it, last write wins.
                slot.store(packed, SEQ_CST);
                return Ok(());
            }
            if cur == 0 {
                match slot.compare_exchange(0, packed, SEQ_CST, SEQ_CST) {
                    Ok(_) => {
                        self.len.fetch_add(1, SEQ_CST);
                        return Ok(());
                    }
                    Err(found) if found >> 32 == tag => {
                        // Lost the claim to a racing writer of the
                        // *same* key: converge on its slot.
                        slot.store(packed, SEQ_CST);
                        return Ok(());
                    }
                    // Claimed by a different key: keep probing.
                    Err(_) => {}
                }
            }
            // Occupied by a different key: keep probing.
        }
        Err(PutError::ShardFull)
    }

    fn scan(&self, f: &mut dyn FnMut(u64, u64)) {
        for slot in &self.slots {
            let cur = slot.load(SEQ_CST);
            if cur != 0 {
                f((cur >> 32) - 1, cur & MAX_VALUE);
            }
        }
    }

    fn len_unguarded(&self) -> usize {
        self.len.load(SEQ_CST)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_overwrite_roundtrip() {
        let kv = KvCells::new(8);
        assert_eq!(kv.get(0, 7), None);
        kv.put(0, 7, 100).unwrap();
        kv.put(0, 9, 200).unwrap();
        assert_eq!(kv.get(1, 7), Some(100));
        kv.put(1, 7, 101).unwrap();
        assert_eq!(kv.get(0, 7), Some(101));
        assert_eq!(kv.get(0, 9), Some(200));
        assert_eq!(kv.len_unguarded(), 2);
        // A key too wide to have been stored is absent, not a panic.
        kv.put(0, MAX_KEY, 300).unwrap();
        assert_eq!(kv.get(0, MAX_KEY), Some(300));
        assert_eq!(kv.get_unguarded(MAX_KEY + 1), None);
        assert_eq!(kv.get_unguarded(u64::MAX), None);
    }

    #[test]
    fn zero_key_and_zero_value_are_storable() {
        let kv = KvCells::new(4);
        kv.put(0, 0, 0).unwrap();
        assert_eq!(kv.get(0, 0), Some(0));
        assert_eq!(kv.len_unguarded(), 1);
    }

    #[test]
    fn fills_to_capacity_then_sheds() {
        let kv = KvCells::new(4); // rounds to 4 slots
        for key in 0..4 {
            kv.put(0, key, key).unwrap();
        }
        assert_eq!(kv.put(0, 99, 1), Err(PutError::ShardFull));
        // Overwrites of present keys still succeed at capacity.
        kv.put(0, 2, 22).unwrap();
        assert_eq!(kv.get(0, 2), Some(22));
    }

    /// `tests/loom_store.rs` races the first inserts of these two keys
    /// in a four-cell table, and needs them to want the same cell.
    #[test]
    fn the_loom_models_keys_collide() {
        assert_eq!(slot_of(42, 4), slot_of(46, 4));
    }

    #[test]
    fn scan_visits_every_pair() {
        let kv = KvCells::new(16);
        for key in 0..10 {
            kv.put(0, key, key * 3).unwrap();
        }
        let mut seen = std::collections::BTreeMap::new();
        kv.scan(&mut |k, v| {
            assert!(seen.insert(k, v).is_none());
        });
        assert_eq!(seen.len(), 10);
        for (k, v) in seen {
            assert_eq!(v, k * 3);
        }
    }

    #[test]
    fn concurrent_same_key_writers_never_tear_the_pair() {
        let kv = std::sync::Arc::new(KvCells::new(8));
        std::thread::scope(|s| {
            for name in 0..4u64 {
                let kv = std::sync::Arc::clone(&kv);
                s.spawn(move || {
                    for i in 0..500 {
                        // Value encodes its writer; a torn pair would
                        // surface as an unknown value below.
                        kv.put(name as usize, 5, name * 1000 + (i % 100)).unwrap();
                        let got = kv.get(name as usize, 5).unwrap();
                        assert!(got / 1000 < 4, "torn value {got}");
                    }
                });
            }
        });
        assert_eq!(kv.len_unguarded(), 1);
    }
}
