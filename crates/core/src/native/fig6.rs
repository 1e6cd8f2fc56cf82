//! The native Figure-6 stage: the bounded-space DSM algorithm over real
//! atomics; Theorem 5's chain of them is [`DsmChainKex`].
//!
//! On a multicore this behaves like any other local-spin lock family;
//! its distinguishing property — every process spins on a *statically
//! owned* location, never on a shared hot word — matters on NUMA and
//! non-coherent machines and is what Theorems 5–8 count. The per-process
//! spin locations `P[p][..]` and handshake counters `R[p][..]` are
//! cache-line padded per process so one process's spinning does not
//! false-share with another's.
//!
//! See [`crate::sim::fig6`] for the statement-exact rendition and the
//! exhaustive model-checking coverage.

use kex_util::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, AtomicUsize};

use kex_util::{Backoff, CachePadded};

use super::chain::{ChainKex, Stage};
use super::ordering as ord;

/// Per-process slice of one stage: `k+2` spin flags and handshake
/// counters, plus the owner-private `last` cursor.
#[derive(Debug)]
struct ProcSlots {
    /// Spin locations `P[p][0..locs]`.
    p: Vec<AtomicBool>,
    /// Handshake counters `R[p][0..locs]`.
    r: Vec<AtomicIsize>,
    /// `last`: private to the owner (stored here to keep the stage
    /// `Sync`; only the owner reads/writes it).
    last: AtomicUsize,
}

impl ProcSlots {
    fn new(locs: usize, owner: usize) -> Self {
        let slots = ProcSlots {
            p: (0..locs).map(|_| AtomicBool::new(false)).collect(),
            r: (0..locs).map(|_| AtomicIsize::new(0)).collect(),
            last: AtomicUsize::new(0),
        };
        // DSM accounting: every location in this slice lives in the
        // owner's memory partition — that is the whole point of the
        // Figure-6 design (processes spin only on their own P[p][..]).
        for flag in &slots.p {
            kex_util::sync::assign_home(flag, owner);
        }
        for counter in &slots.r {
            kex_util::sync::assign_home(counter, owner);
        }
        kex_util::sync::assign_home(&slots.last, owner);
        slots
    }
}

/// One Figure-6 stage admitting `j` processes, with `j+2` spin locations
/// per process.
#[derive(Debug)]
pub struct DsmStage {
    x: CachePadded<AtomicIsize>,
    /// Packed `(pid, loc)` record: `pid * locs + loc`.
    q: CachePadded<AtomicU64>,
    slots: Vec<CachePadded<ProcSlots>>,
    locs: usize,
}

impl DsmStage {
    #[inline]
    fn enc(&self, pid: usize, loc: usize) -> u64 {
        (pid * self.locs + loc) as u64
    }

    #[inline]
    fn dec(&self, packed: u64) -> (usize, usize) {
        let v = packed as usize;
        (v / self.locs, v % self.locs)
    }
}

impl Stage for DsmStage {
    const MAX_UNIVERSE: usize = usize::MAX;

    /// Padded stages, and `X` on a line of its own.
    type Stages = (Vec<DsmStage>, CachePadded<AtomicU64>);

    /// Spin-location arrays are indexed by global process id.
    fn build(js: impl ExactSizeIterator<Item = usize>, n: usize, x: u64) -> Self::Stages {
        let stage = |j: usize| DsmStage {
            x: CachePadded::new(AtomicIsize::new(j as isize)),
            q: CachePadded::new(AtomicU64::new(0)), // (pid 0, loc 0)
            slots: (0..n)
                .map(|owner| CachePadded::new(ProcSlots::new(j + 2, owner)))
                .collect(),
            locs: j + 2,
        };
        (js.map(stage).collect(), CachePadded::new(AtomicU64::new(x)))
    }

    fn slice(stages: &Self::Stages, _len: usize) -> &[Self] {
        &stages.0
    }

    fn x(stages: &Self::Stages, _len: usize) -> &AtomicU64 {
        &stages.1
    }

    /// Statements 2–15 of Figure 6.
    #[inline]
    fn acquire(&self, p: usize) {
        if self.x.fetch_sub(1, ord::SEQ_CST) <= 0 {
            let mine = &*self.slots[p];
            // Statements 3–5: find a spin location with a zero handshake
            // count, starting just past the last one used. `last` is
            // owner-private (atomic only for `Sync`), so Relaxed.
            let mut next = (mine.last.load(ord::RELAXED) + 1) % self.locs;
            while mine.r[next].load(ord::SEQ_CST) != 0 {
                next = (next + 1) % self.locs; // kex-lint: allow(spin): bounded local scan
            }
            // Statement 6: initialize it.
            mine.p[next].store(false, ord::SEQ_CST);
            // Statement 7: read the current spin record.
            let u = self.q.load(ord::SEQ_CST);
            let (upid, uloc) = self.dec(u);
            // Statement 8: announce we may write P[u].
            self.slots[upid].r[uloc].fetch_add(1, ord::SEQ_CST);
            // Statements 9–10: release the incumbent if Q is unchanged.
            if self.q.load(ord::SEQ_CST) == u {
                self.slots[upid].p[uloc].store(true, ord::SEQ_CST);
            }
            // Statement 11: install our location if the incumbent is
            // still the same (detects racing releasers, cf. Lemma 2).
            if self
                .q
                .compare_exchange(u, self.enc(p, next), ord::SEQ_CST, ord::SEQ_CST)
                .is_ok()
            {
                // Statement 12 (owner-private cursor, as above).
                mine.last.store(next, ord::RELAXED);
                // Statements 13–14: wait on our own location. The wake
                // store (statement 10/19) is SeqCst, hence also a
                // release; acquire suffices to receive the waker's —
                // and, via the X/R RMW chains, every prior releaser's —
                // critical-section writes.
                if self.x.load(ord::SEQ_CST) < 0 {
                    let backoff = Backoff::new();
                    while !mine.p[next].load(ord::ACQUIRE) {
                        backoff.snooze();
                    }
                }
            }
            // Statement 15: done with u's location.
            self.slots[upid].r[uloc].fetch_add(-1, ord::SEQ_CST);
        }
    }

    /// Statements 16–21 of Figure 6.
    #[inline]
    fn release(&self, _p: usize) {
        self.x.fetch_add(1, ord::SEQ_CST);
        let u = self.q.load(ord::SEQ_CST);
        let (upid, uloc) = self.dec(u);
        self.slots[upid].r[uloc].fetch_add(1, ord::SEQ_CST);
        if self.q.load(ord::SEQ_CST) == u {
            self.slots[upid].p[uloc].store(true, ord::SEQ_CST);
        }
        self.slots[upid].r[uloc].fetch_add(-1, ord::SEQ_CST);
    }

    #[inline]
    fn try_acquire(&self) -> bool {
        self.x
            .fetch_update(ord::SEQ_CST, ord::SEQ_CST, |v| (v > 0).then_some(v - 1))
            .is_ok()
    }

    fn free(&self) -> isize {
        self.x.load(ord::SEQ_CST)
    }
}

/// Theorem 5's inductive chain of Figure-6 stages: `(N, k)`-exclusion
/// with all spinning on per-process locations and bounded space
/// (`k+2` locations per process per stage).
///
/// Worst-case RMR cost `14(N-k)` under the DSM model; use
/// [`crate::native::TreeKex`]/[`crate::native::FastPathKex`] over
/// `DsmChainKex` blocks for the logarithmic/fast-path variants.
pub type DsmChainKex = ChainKex<DsmStage>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::testutil::{max_concurrency, occupancy_stress};
    use crate::native::{Block, RawKex};
    use std::time::Duration;

    #[test]
    fn never_more_than_k_inside() {
        for (n, k) in [(2, 1), (4, 2), (8, 3)] {
            let kex = DsmChainKex::new(n, k);
            let report = occupancy_stress(&kex, 300);
            assert!(
                report.max_seen <= k,
                "(n={n},k={k}): {} threads inside at once",
                report.max_seen
            );
            assert_eq!(report.total_entries, n as u64 * 300);
        }
    }

    #[test]
    fn k_holders_can_rendezvous() {
        let kex = DsmChainKex::new(6, 3);
        assert_eq!(max_concurrency(&kex, 3, Duration::from_secs(2)), 3);
    }

    #[test]
    fn a_refused_try_leaves_every_stage_as_it_found_it() {
        let kex = DsmChainKex::new(4, 2);
        kex.acquire(0);
        kex.acquire(1);
        let credits =
            |kex: &DsmChainKex| kex.stages().iter().map(DsmStage::free).collect::<Vec<_>>();
        assert_eq!(credits(&kex), [1, 0]);
        assert!(!kex.try_acquire(2));
        assert_eq!((credits(&kex), kex.occupancy()), (vec![1, 0], 2));
        kex.release(0);
        assert!(kex.try_acquire(3));
        kex.release(3);
        kex.release(1);
        assert_eq!((credits(&kex), kex.occupancy()), (vec![3, 2], 0));
    }

    #[test]
    fn heavy_churn_single_slot() {
        // k = 1 degenerates to a mutex: a strong consistency hammer for
        // the handshake protocol.
        let kex = DsmChainKex::new(4, 1);
        let report = occupancy_stress(&kex, 500);
        assert_eq!(report.max_seen, 1);
        assert_eq!(report.total_entries, 2000);
    }
}
