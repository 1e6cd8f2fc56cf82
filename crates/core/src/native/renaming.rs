//! Native Figure-7 long-lived renaming via `test_and_set`.
//!
//! Given that at most `k` processes hold names at any time (the caller's
//! obligation — discharged by wrapping in k-exclusion, as
//! [`crate::native::KAssignment`] does), every acquisition terminates in
//! at most `k-1` probes with a unique name in `0..k`, and names
//! can be re-acquired forever (the *long-lived* property the paper
//! contributes over prior one-shot renaming). A probe reads a bit before
//! it `test_and_set`s it: a crashed holder's bit is never written again.

use kex_util::ord;
use kex_util::sync::atomic::AtomicBool;

use kex_util::CachePadded;

/// The Figure-7 name allocator: `k-1` test-and-set bits for a name space
/// of exactly `k` (name `k-1` needs no bit; at most one process can be
/// probing it at a time).
#[derive(Debug)]
pub struct TasRenaming {
    bits: Vec<CachePadded<AtomicBool>>,
    k: usize,
}

impl TasRenaming {
    /// A name allocator for `k` concurrent holders.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one name");
        TasRenaming {
            bits: (0..k.saturating_sub(1))
                .map(|_| CachePadded::new(AtomicBool::new(false)))
                .collect(),
            k,
        }
    }

    /// The name-space size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Obtain a name in `0..k`.
    ///
    /// Correct only while at most `k` processes (this caller included)
    /// concurrently hold or probe names; under that precondition the loop
    /// always finds a clear bit (or falls through to name `k-1`) — it is
    /// wait-free: one read per bit, plus a test-and-set per bit read clear.
    pub fn acquire_name(&self) -> usize {
        // Statement 2: test-and-set each bit in ascending order (the
        // order is what keeps name k-1 unique: the `start_hint` test)
        // until one is clear; a bit read set is a refused test-and-set
        // linearised at the read. The §4 pigeonhole argument only
        // reasons about each bit's own RMW history, so the AcqRel chain
        // on each bit suffices; its acquire half pairs with the release
        // clear below to hand over any name-guarded data. Name k-1 has
        // no bit: its hand-off edge is the enclosing k-exclusion's RMW
        // chains, direct or via a later entrant's swap that this probe
        // reads — hence ACQUIRE on the read (docs/MEMORY_ORDERING.md).
        for (name, bit) in self.bits.iter().enumerate() {
            let seen_set = bit.load(ord::spin::ACQUIRE);
            if !seen_set && !bit.swap(true, ord::counter::ACQ_REL) {
                return name;
            }
        }
        // All of 0..k-1 were taken: name k-1 is free by the pigeonhole
        // argument in §4.
        self.k - 1
    }

    /// Release a previously acquired name.
    ///
    /// # Panics
    /// Panics if `name >= k`. Releasing a name that is not held corrupts
    /// the allocator (as would double-releasing a lock).
    pub fn release_name(&self, name: usize) {
        assert!(name < self.k, "name {name} out of range 0..{}", self.k);
        // Statement 3: clear the bit (name k-1 has none). Release pairs
        // with the acquire half of the swap above.
        if name < self.k - 1 {
            self.bits[name].store(false, ord::publish::RELEASE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn sequential_names_are_dense_from_zero() {
        let r = TasRenaming::new(4);
        let a = r.acquire_name();
        let b = r.acquire_name();
        let c = r.acquire_name();
        let d = r.acquire_name();
        let names: HashSet<_> = [a, b, c, d].into_iter().collect();
        assert_eq!(names, HashSet::from([0, 1, 2, 3]));
        r.release_name(b);
        assert_eq!(r.acquire_name(), b, "released names are reusable");
    }

    #[test]
    fn k_equals_one_never_touches_memory() {
        let r = TasRenaming::new(1);
        assert_eq!(r.acquire_name(), 0);
        r.release_name(0);
        assert_eq!(r.acquire_name(), 0);
    }

    #[test]
    fn concurrent_holders_get_distinct_names() {
        let k = 4;
        let r = TasRenaming::new(k);
        let held = Mutex::new(HashSet::new());
        std::thread::scope(|s| {
            for _ in 0..k {
                s.spawn(|| {
                    for _ in 0..500 {
                        let name = r.acquire_name();
                        {
                            let mut h = held.lock().unwrap();
                            assert!(h.insert(name), "duplicate live name {name}");
                        }
                        kex_util::sync::hint::spin_loop();
                        {
                            let mut h = held.lock().unwrap();
                            h.remove(&name);
                        }
                        r.release_name(name);
                    }
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn release_rejects_foreign_names() {
        TasRenaming::new(2).release_name(2);
    }

    /// One walk of the probe loop, a probe per `step`, that begins at
    /// bit `start` and wraps — what a per-process "start where you
    /// last won" hint would turn [`TasRenaming::acquire_name`] into.
    struct Walk {
        start: usize,
        probed: usize,
    }

    impl Walk {
        fn starting_at(start: usize) -> Self {
            Walk { start, probed: 0 }
        }

        /// Probes the next bit; `Some(name)` once the walk has ended.
        fn step(&mut self, r: &TasRenaming) -> Option<usize> {
            let name = (self.start + self.probed) % r.bits.len();
            let bit = &r.bits[name];
            if !bit.load(ord::spin::ACQUIRE) && !bit.swap(true, ord::counter::ACQ_REL) {
                return Some(name);
            }
            self.probed += 1;
            (self.probed == r.bits.len()).then_some(r.k - 1)
        }
    }

    /// k = 3, never more than three processes inside. q, s and p take
    /// 0, 1 and 2 (p by falling through) and s leaves; r is refused at
    /// bit 0; q leaves and comes back, its walk starting at
    /// `q_restart`; r finishes its walk. Returns the names p, q and r
    /// then hold at once.
    fn p_q_r_after_q_restarts_at(q_restart: usize) -> [usize; 3] {
        let names = TasRenaming::new(3);
        let (q, s, p) = (
            names.acquire_name(),
            names.acquire_name(),
            names.acquire_name(),
        );
        assert_eq!((q, s, p), (0, 1, 2));
        names.release_name(s);
        let mut r = Walk::starting_at(0);
        assert_eq!(r.step(&names), None);
        names.release_name(q);
        let q = Walk::starting_at(q_restart)
            .step(&names)
            .expect("a bit is clear");
        let r = r.step(&names).expect("r has one bit left to probe");
        [p, q, r]
    }

    /// Why the read-first probe keeps the paper's ascending order: the
    /// pigeonhole argument for name `k-1` counts the holders *below* a
    /// walker, and a walk that starts above a clear bit lets a holder
    /// slip in there behind it.
    #[test]
    fn start_hint_would_hand_out_name_k_minus_1_twice() {
        assert_eq!(p_q_r_after_q_restarts_at(1), [2, 1, 2], "r shares p's name");
        assert_eq!(p_q_r_after_q_restarts_at(0), [2, 0, 1]);
    }
}
