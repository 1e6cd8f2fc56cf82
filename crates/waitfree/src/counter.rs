//! Wait-free counters for `k` processes.
//!
//! Two flavours:
//!
//! * [`SlotCounter`] — one padded cell per process name; `add` touches
//!   only the caller's cell (one uncontended RMW), `read` sums all `k`
//!   cells. This is the shape the paper's methodology rewards: the inner
//!   object only needs to be correct for `k` processes, so per-name
//!   slotting — impossible for unbounded process universes — becomes
//!   trivial and contention-free.
//! * [`FetchAddCounter`] — a single hardware fetch-and-add word, for
//!   comparison; still wait-free (hardware RMW) but every `add` contends
//!   on one cache line.

use kex_util::ord;
use kex_util::sync::atomic::AtomicI64;

use kex_util::CachePadded;

/// Per-name slotted counter: contention-free wait-free adds, `O(k)`
/// wait-free reads.
#[derive(Debug)]
pub struct SlotCounter {
    slots: Vec<CachePadded<AtomicI64>>,
}

impl SlotCounter {
    /// A counter for `k` process names.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one slot");
        SlotCounter {
            slots: (0..k)
                .map(|_| CachePadded::new(AtomicI64::new(0)))
                .collect(),
        }
    }

    /// Number of slots `k`.
    pub fn k(&self) -> usize {
        self.slots.len()
    }

    /// Add `delta` on behalf of name `me` (single uncontended RMW).
    ///
    /// # Panics
    /// Panics if `me >= k`.
    pub fn add(&self, me: usize, delta: i64) {
        self.slots[me].fetch_add(delta, ord::handshake::SEQ_CST);
    }

    /// Read the counter: the sum of all slots. Linearizable when
    /// concurrent adds only move slots in one direction; otherwise a
    /// consistent "regular" read.
    pub fn read(&self) -> i64 {
        self.slots
            .iter()
            .map(|s| s.load(ord::handshake::SEQ_CST))
            .sum()
    }
}

/// Single-word fetch-and-add counter (the contended comparison point).
#[derive(Debug, Default)]
pub struct FetchAddCounter {
    value: CachePadded<AtomicI64>,
}

impl FetchAddCounter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta`; returns the previous value.
    pub fn add(&self, delta: i64) -> i64 {
        self.value.fetch_add(delta, ord::handshake::SEQ_CST)
    }

    /// Read the current value.
    pub fn read(&self) -> i64 {
        self.value.load(ord::handshake::SEQ_CST)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_counter_sums_all_names() {
        let c = SlotCounter::new(3);
        c.add(0, 5);
        c.add(1, -2);
        c.add(2, 10);
        assert_eq!(c.read(), 13);
    }

    #[test]
    fn concurrent_adds_are_all_counted() {
        let k = 4;
        let per = 10_000;
        let c = SlotCounter::new(k);
        std::thread::scope(|s| {
            for me in 0..k {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..per {
                        c.add(me, 1);
                    }
                });
            }
        });
        assert_eq!(c.read(), (k * per) as i64);
    }

    #[test]
    fn fetch_add_counter_matches() {
        let c = FetchAddCounter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.read(), 40_000);
    }

    #[test]
    #[should_panic]
    fn slot_counter_rejects_foreign_names() {
        SlotCounter::new(2).add(2, 1);
    }
}
