//! Native `(N, k)`-assignment: k-exclusion + Figure-7 renaming
//! (Theorem 9), with an RAII name guard.

use super::fast_path::FastPathKex;
use super::raw::RawKex;
use super::renaming::TasRenaming;

/// The k-assignment wrapper: admits at most `k` processes and hands each
/// a unique name in `0..k` for the duration of its stay.
///
/// This is the paper's resiliency mechanism: put a wait-free `k`-process
/// object behind a `KAssignment` and the composite tolerates `k-1`
/// undetected crash failures (see [`crate::native::Resilient`]).
///
/// ```rust
/// use kex_core::native::KAssignment;
///
/// let pool = KAssignment::new(16, 4); // 16 threads share 4 names
/// let guard = pool.enter(3);
/// assert!(guard.name() < 4); // unique among current holders
/// ```
pub struct KAssignment {
    kex: FastPathKex,
    names: TasRenaming,
}

impl std::fmt::Debug for KAssignment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KAssignment")
            .field("n", &self.kex.n())
            .field("k", &self.kex.k())
            .finish()
    }
}

impl KAssignment {
    /// k-assignment over the Theorem-3 cache-coherent fast-path
    /// k-exclusion (Theorem 9).
    pub fn new(n: usize, k: usize) -> Self {
        KAssignment {
            kex: FastPathKex::new(n, k),
            names: TasRenaming::new(k),
        }
    }

    /// [`KAssignment::enter`] that never waits: `None` when
    /// [`FastPathKex::try_acquire`] finds no slot free — the k-exclusion's
    /// own counters are the gate callers shed load through.
    pub fn try_enter(&self, p: usize) -> Option<NameGuard<'_>> {
        let entry = crate::obs::span(crate::obs::Section::Entry, p);
        self.kex.try_acquire(p).then(|| self.named(p, entry))
    }

    /// Processes holding a slot or waiting at the k-exclusion's final
    /// stage ([`FastPathKex::occupancy`]); crashed holders count for ever.
    pub fn occupancy(&self) -> usize {
        self.kex.occupancy()
    }

    /// The process universe size.
    pub fn n(&self) -> usize {
        self.kex.n()
    }

    /// The admission bound / name-space size.
    pub fn k(&self) -> usize {
        self.kex.k()
    }

    /// Enter: acquires a k-exclusion slot, then a unique name. The guard
    /// releases both (name first, as in Figure 7) on drop.
    pub fn enter(&self, p: usize) -> NameGuard<'_> {
        // One Entry span covering both the k-exclusion acquisition and the
        // renaming loop: the inner kex's own span nests transparently, so
        // the Figure-7 test-and-sets are attributed to this entry section.
        let entry = crate::obs::span(crate::obs::Section::Entry, p);
        self.kex.acquire(p);
        self.named(p, entry)
    }

    /// The second half of entering: `p` holds a slot, so one of the `k`
    /// names is free.
    fn named(&self, p: usize, entry: crate::obs::SpanGuard) -> NameGuard<'_> {
        let name = self.names.acquire_name();
        drop(entry);
        NameGuard {
            owner: self,
            p,
            name,
            cs: Some(crate::obs::span(crate::obs::Section::Cs, p)),
        }
    }
}

/// Holds one of the `k` slots and its unique name.
#[must_use = "dropping the guard immediately releases the name and slot"]
#[derive(Debug)]
pub struct NameGuard<'a> {
    owner: &'a KAssignment,
    p: usize,
    name: usize,
    /// Critical-section observability span; closed before the releases so
    /// the occupancy gauge never counts an exiting process.
    cs: Option<crate::obs::SpanGuard>,
}

impl NameGuard<'_> {
    /// The unique name in `0..k` held by this guard.
    pub fn name(&self) -> usize {
        self.name
    }

    /// The process id that entered.
    pub fn pid(&self) -> usize {
        self.p
    }
}

impl Drop for NameGuard<'_> {
    fn drop(&mut self) {
        // Close the Cs span first so the occupancy gauge never counts
        // an exiting process. (`= None`, not `drop(..take())`: the
        // disabled-backend guard is a Drop-less ZST and clippy objects
        // to dropping it explicitly.)
        self.cs = None;
        let _obs = crate::obs::span(crate::obs::Section::Exit, self.p);
        // Figure 7 order: release the name (statement 3), then the
        // k-exclusion (statement 4).
        self.owner.names.release_name(self.name);
        self.owner.kex.release(self.p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kex_util::ord;
    use kex_util::sync::atomic::AtomicUsize;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn names_are_unique_among_concurrent_holders() {
        let assign = KAssignment::new(8, 3);
        let held = Mutex::new(HashSet::new());
        let max_inside = AtomicUsize::new(0);
        let inside = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for p in 0..8 {
                let (assign, held, inside, max_inside) = (&assign, &held, &inside, &max_inside);
                s.spawn(move || {
                    for _ in 0..200 {
                        let guard = assign.enter(p);
                        let now = inside.fetch_add(1, ord::handshake::SEQ_CST) + 1;
                        max_inside.fetch_max(now, ord::handshake::SEQ_CST);
                        {
                            let mut h = held.lock().unwrap();
                            assert!(guard.name() < 3);
                            assert!(
                                h.insert(guard.name()),
                                "duplicate live name {}",
                                guard.name()
                            );
                        }
                        for _ in 0..10 {
                            kex_util::sync::hint::spin_loop();
                        }
                        {
                            let mut h = held.lock().unwrap();
                            h.remove(&guard.name());
                        }
                        inside.fetch_sub(1, ord::handshake::SEQ_CST);
                    }
                });
            }
        });
        assert!(max_inside.load(ord::handshake::SEQ_CST) <= 3);
    }

    #[test]
    fn guard_exposes_pid_and_name() {
        let assign = KAssignment::new(2, 1);
        let g = assign.enter(1);
        assert_eq!(g.pid(), 1);
        assert_eq!(g.name(), 0);
    }
}
