//! Native Figure-2 stages and the Theorem-1 chain, over real atomics,
//! for cache-coherent hardware (i.e., any modern multicore).
//!
//! See [`crate::sim::fig2`] for the statement-level rendition and proofs
//! coverage; this module is the same algorithm expressed with
//! `AtomicIsize`/`AtomicUsize` and cache-line padding.
//!
//! # One line per stage
//!
//! A stage's `X` and `Q` share one padded line, so an uncontended pass
//! through a `(2k, k)` block moves `k` lines between processors, not
//! `2k`. The price is paid by a process spinning on `Q`: a write of `X`
//! now invalidates its copy as well. Every write of `X` is one of
//!
//! * a `fetch_and_increment(X, -1)` that found no slot — that process's
//!   next statement writes `Q` (statement 3), which ends the spin;
//! * a release's `fetch_and_increment(X, 1)` — that process's next
//!   statement writes `Q` (statement 7), which ends the spin;
//! * a decrement that did find a slot (`try_acquire`'s included). The
//!   spinner saw `X < 0` after queueing, so `X >= 1` takes two
//!   increments of the second kind whose `Q` writes are both still to
//!   come.
//!
//! So each re-read that does not end the wait is charged to a process
//! one statement short of ending it, and only the one process whose id
//! is in `Q` pays it. System-wide that is at most two more remote
//! references per stage passage (one for each of its `X` writes):
//! Theorem 1's `7(N-k)` becomes `9(N-k)` amortised, the same order. A
//! single wait meets more than a constant number of them only if that
//! many holders are stopped between the two adjacent statements of
//! `release`. Putting a whole chain on one line would instead charge
//! the spinner for the `X` traffic of every stage (`O(k)` passers times
//! `O(k)` stages), and was rejected — see EXPERIMENTS.md E14.

use kex_util::sync::atomic::{AtomicIsize, AtomicUsize};

use kex_util::{Backoff, CachePadded};

use super::ordering as ord;
use super::raw::{try_stages, Block, RawKex};

/// One Figure-2 stage: admits `j` of the at-most-`j+1` processes its
/// caller lets through. Both words, to be kept on one padded line.
#[derive(Debug)]
pub(crate) struct CcStage {
    /// Slot counter, initially `j`.
    x: AtomicIsize,
    /// Spin word holding a process id (`n` = "nobody", used initially).
    q: AtomicUsize,
}

const _: () = assert!(size_of::<CachePadded<CcStage>>() == size_of::<CachePadded<u8>>());

impl CcStage {
    pub(crate) fn new(j: usize, n: usize) -> Self {
        CcStage {
            x: AtomicIsize::new(j as isize),
            // Initial Q value: the paper uses process 0; any value works
            // because releases just overwrite it. We use `n` ("nobody")
            // so no process can spuriously self-block on a fresh stage.
            q: AtomicUsize::new(n),
        }
    }

    /// Statements 2–5 of Figure 2.
    pub(crate) fn acquire(&self, p: usize) {
        if self.x.fetch_sub(1, ord::SEQ_CST) <= 0 {
            // No slot: advertise ourselves as the waiter...
            self.q.store(p, ord::SEQ_CST);
            // ...re-check (a release may have raced us)...
            if self.x.load(ord::SEQ_CST) < 0 {
                // ...and spin until *anyone* writes Q (a releaser at
                // statement 7 or a newer waiter at statement 3). Both
                // wake stores are SeqCst (hence also releases); the
                // acquire pairing hands the waker's history — and,
                // through the X RMW chain, every earlier releaser's
                // critical section — to the woken process.
                let backoff = Backoff::new();
                while self.q.load(ord::ACQUIRE) == p {
                    backoff.snooze();
                }
            }
        }
    }

    /// Statements 6–7 of Figure 2.
    pub(crate) fn release(&self, p: usize) {
        self.x.fetch_add(1, ord::SEQ_CST);
        // Writing our own id both differs from any waiter's id and marks
        // the stage released.
        self.q.store(p, ord::SEQ_CST);
    }

    /// Statement 2 as footnote 2 writes it: take a slot only if one is
    /// free, and do not write otherwise. A link of the same SeqCst RMW
    /// chain on `X` as statements 2 and 6.
    pub(crate) fn try_acquire(&self) -> bool {
        self.x
            .fetch_update(ord::SEQ_CST, ord::SEQ_CST, |v| (v > 0).then_some(v - 1))
            .is_ok()
    }

    /// Slots not taken; negative while a process waits.
    fn free(&self) -> isize {
        self.x.load(ord::SEQ_CST)
    }
}

/// Theorem 1's inductive chain: `(N, k)`-exclusion as Figure-2 stages
/// `j = N-1 .. k`, acquired top (widest) first.
///
/// Worst-case RMR cost is `7(N-k)` (linear in `N`); prefer
/// [`crate::native::TreeKex`] or [`crate::native::FastPathKex`] unless
/// `N - k` is small. This type is both the paper's baseline construction
/// and the `(2k, k)` building block of the better ones.
///
/// ```rust
/// use kex_core::native::{CcChainKex, RawKex};
///
/// // 4 threads, at most 2 in the protected section at once.
/// let kex = CcChainKex::new(4, 2);
/// let guard = kex.enter(0);
/// assert_eq!(guard.pid(), 0);
/// drop(guard); // releases the slot
/// ```
#[derive(Debug)]
pub struct CcChainKex {
    stages: Vec<CachePadded<CcStage>>,
    n: usize,
    k: usize,
}

impl CcChainKex {
    /// Build the `(n, k)` chain.
    ///
    /// # Panics
    /// Panics unless `1 <= k < n`.
    pub fn new(n: usize, k: usize) -> Self {
        Self::with_universe(n, n, k)
    }
}

impl Block for CcChainKex {
    fn with_universe(universe: usize, m: usize, k: usize) -> Self {
        assert!(
            k >= 1 && k < m && m <= universe,
            "CcChainKex requires 1 <= k < m <= universe"
        );
        // stages[i] admits j = m-1-i; acquire walks i = 0 .. len-1,
        // finishing at the stage that admits exactly k.
        let stages = (k..m)
            .rev()
            .map(|j| CachePadded::new(CcStage::new(j, universe)))
            .collect();
        CcChainKex {
            stages,
            n: universe,
            k,
        }
    }

    fn try_acquire(&self, p: usize) -> bool {
        assert!(p < self.n, "pid {p} out of range 0..{}", self.n);
        let _obs = crate::obs::span(crate::obs::Section::Entry, p);
        try_stages(&self.stages, |s| s.try_acquire(), |s| s.release(p))
    }

    fn occupancy(&self) -> usize {
        let last = self.stages.last().expect("k < m: at least one stage");
        (self.k as isize - last.free()).max(0) as usize
    }
}

impl RawKex for CcChainKex {
    fn n(&self) -> usize {
        self.n
    }

    fn k(&self) -> usize {
        self.k
    }

    fn acquire(&self, p: usize) {
        assert!(p < self.n, "pid {p} out of range 0..{}", self.n);
        let _obs = crate::obs::span(crate::obs::Section::Entry, p);
        for stage in &self.stages {
            stage.acquire(p);
        }
    }

    fn release(&self, p: usize) {
        let _obs = crate::obs::span(crate::obs::Section::Exit, p);
        for stage in self.stages.iter().rev() {
            stage.release(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::testutil::{occupancy_stress, OccupancyReport};

    #[test]
    fn never_more_than_k_inside() {
        for (n, k) in [(2, 1), (4, 2), (8, 3)] {
            let kex = CcChainKex::new(n, k);
            let report: OccupancyReport = occupancy_stress(&kex, 400);
            assert!(
                report.max_seen <= k,
                "(n={n},k={k}): {} threads inside at once",
                report.max_seen
            );
            assert_eq!(report.total_entries, n as u64 * 400);
        }
    }

    #[test]
    fn slots_actually_admit_k_concurrently() {
        // The algorithm must not degrade to mutual exclusion: k holders
        // must be able to rendezvous inside.
        use std::time::Duration;
        let kex = CcChainKex::new(6, 3);
        let seen = crate::native::testutil::max_concurrency(&kex, 3, Duration::from_secs(2));
        assert_eq!(seen, 3, "k slots should be usable");
    }

    #[test]
    fn a_refused_try_leaves_every_stage_as_it_found_it() {
        use kex_util::sync::atomic::Ordering::SeqCst;
        // (4, 2): a stage admitting 3, then one admitting 2. Two
        // holders leave room in the first and none in the second.
        let kex = CcChainKex::new(4, 2);
        kex.acquire(0);
        kex.acquire(1);
        let credits = |kex: &CcChainKex| kex.stages.iter().map(|s| s.free()).collect::<Vec<_>>();
        assert_eq!(credits(&kex), [1, 0]);
        assert!(!kex.try_acquire(2));
        assert_eq!(credits(&kex), [1, 0]);
        // It left the stage it did take as a holder does: the wake-up
        // write is there for a process that queued behind it.
        assert_eq!(kex.stages[0].q.load(SeqCst), 2);
        assert_eq!(kex.occupancy(), 2);

        kex.release(0);
        assert!(kex.try_acquire(3));
        assert_eq!(credits(&kex), [1, 0]);
        kex.release(3);
        kex.release(1);
        assert_eq!((credits(&kex), kex.occupancy()), (vec![3, 2], 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_pid() {
        let kex = CcChainKex::new(2, 1);
        kex.acquire(2);
    }
}
