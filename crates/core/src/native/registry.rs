//! Process-identity management for native algorithms.
//!
//! The paper's algorithms assume a fixed universe of `N` processes with
//! distinct ids `0..N`. [`ProcessRegistry`] hands out and recycles those
//! ids to threads, so applications do not have to thread pid plumbing by
//! hand. Ids are recycled when their [`ProcessId`] handle drops — safe
//! because a departing thread is, by definition, in its noncritical
//! section forever (a nonfaulty departure in the paper's model).
//!
//! **Known limitation (ROADMAP item 6, tracked):** a thread that
//! crash-fails (or leaks its handle) while registered never returns its
//! id — the registry *leaks the name*, exactly as a crashed process
//! permanently consumes a slot and a name inside a k-assignment
//! wrapper. The paper's model makes this the intended semantics for
//! in-protocol crashes, but for a long-running service a *recoverable*
//! variant (fenced reclamation of ids whose owning thread is provably
//! gone, per the recoverable-mutual-exclusion line in PAPERS.md) would
//! let the universe heal. Until that lands, size `n` with headroom for
//! the expected crash budget, as `kex-store` does per shard.

use kex_util::sync::atomic::AtomicBool;
use std::sync::Arc;

use super::ordering as ord;

/// Allocates distinct process ids in `0..n` to threads.
#[derive(Debug)]
pub struct ProcessRegistry {
    slots: Arc<Vec<AtomicBool>>,
}

impl ProcessRegistry {
    /// A registry for a universe of `n` processes.
    pub fn new(n: usize) -> Self {
        ProcessRegistry {
            slots: Arc::new((0..n).map(|_| AtomicBool::new(false)).collect()),
        }
    }

    /// The universe size.
    pub fn n(&self) -> usize {
        self.slots.len()
    }

    /// Claim a free process id.
    ///
    /// Returns `None` when all `n` ids are taken.
    pub fn register(&self) -> Option<ProcessId> {
        for (pid, slot) in self.slots.iter().enumerate() {
            if !slot.swap(true, ord::SEQ_CST) {
                return Some(ProcessId {
                    pid,
                    slots: Arc::clone(&self.slots),
                });
            }
        }
        None
    }
}

impl Clone for ProcessRegistry {
    fn clone(&self) -> Self {
        ProcessRegistry {
            slots: Arc::clone(&self.slots),
        }
    }
}

/// An owned process identity; the id returns to the registry on drop.
#[derive(Debug)]
pub struct ProcessId {
    pid: usize,
    slots: Arc<Vec<AtomicBool>>,
}

impl ProcessId {
    /// The numeric id in `0..n`.
    pub fn get(&self) -> usize {
        self.pid
    }
}

impl Drop for ProcessId {
    fn drop(&mut self) {
        self.slots[self.pid].store(false, ord::SEQ_CST);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_distinct_and_bounded() {
        let reg = ProcessRegistry::new(3);
        let a = reg.register().unwrap();
        let b = reg.register().unwrap();
        let c = reg.register().unwrap();
        let ids: HashSet<_> = [a.get(), b.get(), c.get()].into_iter().collect();
        assert_eq!(ids.len(), 3);
        assert!(reg.register().is_none(), "universe exhausted");
        drop(b);
        let d = reg.register().expect("dropped id is recycled");
        assert!(d.get() < 3);
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let reg = ProcessRegistry::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let reg = reg.clone();
                s.spawn(move || {
                    let id = reg.register().expect("enough ids for all threads");
                    assert!(id.get() < 8);
                });
            }
        });
    }
}
