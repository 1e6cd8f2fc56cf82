//! Native Figure-1 baseline: k-exclusion from a FIFO queue protected by a
//! real mutex.
//!
//! The paper's point about this algorithm is that it needs *large atomic
//! sections* (the angle-bracketed multi-word statements of Figure 1) and
//! is not resilient: a crashed waiter blocks the queue behind it. On real
//! hardware the "large atomic section" becomes a lock — which is exactly
//! why the construction is a baseline, not a solution: the lock
//! reintroduces a single serialization point and a single point of
//! failure. Benchmarks use it as the Table-1 \[9\]/\[10\] stand-in.

use kex_util::ord;
use kex_util::sync::atomic::AtomicBool;
use std::collections::VecDeque;

use kex_util::sync::Mutex;
use kex_util::{Backoff, CachePadded};

use super::raw::RawKex;

/// Figure-1 queue-based `(N, k)`-exclusion with a mutex standing in for
/// the paper's multi-word atomic statements.
#[derive(Debug)]
pub struct QueueKex {
    inner: Mutex<QueueState>,
    /// `waiting[p]`: p is queued; cleared by the dequeuer. Spun on
    /// outside the lock.
    waiting: Vec<CachePadded<AtomicBool>>,
    n: usize,
    k: usize,
}

#[derive(Debug)]
struct QueueState {
    /// Available slots minus queued waiters (`X` in Figure 1).
    x: isize,
    /// The FIFO of waiting process ids (`Q` in Figure 1).
    queue: VecDeque<usize>,
}

impl QueueKex {
    /// Build the `(n, k)` queue algorithm.
    ///
    /// # Panics
    /// Panics unless `1 <= k < n`.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k >= 1 && k < n, "QueueKex requires 1 <= k < n");
        QueueKex {
            inner: Mutex::new(QueueState {
                x: k as isize,
                queue: VecDeque::with_capacity(n),
            }),
            waiting: (0..n)
                .map(|_| CachePadded::new(AtomicBool::new(false)))
                .collect(),
            n,
            k,
        }
    }
}

impl RawKex for QueueKex {
    fn n(&self) -> usize {
        self.n
    }

    fn k(&self) -> usize {
        self.k
    }

    fn acquire(&self, p: usize) {
        assert!(p < self.n, "pid {p} out of range 0..{}", self.n);
        let _obs = crate::obs::span(crate::obs::Section::Entry, p);
        // Statement 1 (atomic): if f&i(X,-1) <= 0 then Enqueue(p, Q).
        let must_wait = {
            let mut st = self.inner.lock();
            let old = st.x;
            st.x -= 1;
            if old <= 0 {
                st.queue.push_back(p);
                // Ordered against the dequeuer's clear by the mutex
                // (both writes happen under `inner`), so Relaxed.
                self.waiting[p].store(true, ord::private::RELAXED);
                true
            } else {
                false
            }
        };
        // Statement 2: while Element(p, Q) do od.
        if must_wait {
            let backoff = Backoff::new();
            // Pairs with the dequeuer's release store below: the wake
            // carries the releaser's critical-section writes.
            while self.waiting[p].load(ord::spin::ACQUIRE) {
                backoff.snooze();
            }
        }
    }

    fn release(&self, p: usize) {
        let _obs = crate::obs::span(crate::obs::Section::Exit, p);
        // Statement 3 (atomic): Dequeue(Q); f&i(X, 1).
        let mut st = self.inner.lock();
        if let Some(q) = st.queue.pop_front() {
            self.waiting[q].store(false, ord::publish::RELEASE);
        }
        st.x += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::testutil::{max_concurrency, occupancy_stress};
    use std::time::Duration;

    #[test]
    fn never_more_than_k_inside() {
        let kex = QueueKex::new(6, 2);
        let report = occupancy_stress(&kex, 300);
        assert!(report.max_seen <= 2);
        assert_eq!(report.total_entries, 6 * 300);
    }

    #[test]
    fn k_holders_rendezvous() {
        let kex = QueueKex::new(5, 3);
        assert_eq!(max_concurrency(&kex, 3, Duration::from_secs(2)), 3);
    }
}
