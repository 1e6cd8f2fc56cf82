//! An OS-blocking counting semaphore — the "what practitioners reach
//! for" baseline for the native benchmarks (E9).
//!
//! The paper motivates k-exclusion as the shared-memory primitive behind
//! resilient object wrappers; in practice, bounded-concurrency admission
//! is usually done with a semaphore. A semaphore is *not* a k-exclusion
//! solution in the paper's model: it blocks in the kernel rather than
//! spinning (so RMR accounting doesn't apply) and a holder's crash
//! deadlocks it just the same. It is, however, the right wall-clock
//! comparison point for the native algorithms.

use kex_util::sync::{Condvar, Mutex};

use super::raw::RawKex;

/// Counting semaphore with `k` permits, presented through the
/// [`RawKex`] interface (process ids are accepted and ignored).
#[derive(Debug)]
pub struct SemaphoreKex {
    permits: Mutex<usize>,
    cv: Condvar,
    n: usize,
    k: usize,
}

impl SemaphoreKex {
    /// A semaphore with `k` permits for `n` processes.
    ///
    /// # Panics
    /// Panics unless `1 <= k < n`.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k >= 1 && k < n, "SemaphoreKex requires 1 <= k < n");
        SemaphoreKex {
            permits: Mutex::new(k),
            cv: Condvar::new(),
            n,
            k,
        }
    }
}

impl RawKex for SemaphoreKex {
    fn n(&self) -> usize {
        self.n
    }

    fn k(&self) -> usize {
        self.k
    }

    fn acquire(&self, p: usize) {
        let _obs = crate::obs::span(crate::obs::Section::Entry, p);
        let mut permits = self.permits.lock();
        while *permits == 0 {
            permits = self.cv.wait(permits);
        }
        *permits -= 1;
    }

    fn release(&self, p: usize) {
        let _obs = crate::obs::span(crate::obs::Section::Exit, p);
        let mut permits = self.permits.lock();
        *permits += 1;
        drop(permits);
        self.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::testutil::{max_concurrency, occupancy_stress};
    use std::time::Duration;

    #[test]
    fn never_more_than_k_inside() {
        let kex = SemaphoreKex::new(8, 3);
        let report = occupancy_stress(&kex, 300);
        assert!(report.max_seen <= 3);
        assert_eq!(report.total_entries, 8 * 300);
    }

    #[test]
    fn k_holders_rendezvous() {
        let kex = SemaphoreKex::new(8, 3);
        assert_eq!(max_concurrency(&kex, 3, Duration::from_secs(2)), 3);
    }
}
