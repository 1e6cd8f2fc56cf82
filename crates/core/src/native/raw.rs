//! The native k-exclusion interface: [`RawKex`], its RAII guard, and the
//! [`Block`] constructor the compositions are built from.
//!
//! Native implementations run over the `kex_util::sync::atomic` facade
//! (std atomics normally, loom model-checked atomics under `cfg(loom)`)
//! with the audited orderings of the private `ordering` module:
//! acquire/release/relaxed where a site-local pairing argument proves
//! them sufficient, `SeqCst` where the paper's sequentially consistent
//! reasoning genuinely spans variables (the simulator versions in
//! [`crate::sim`] are the reference semantics; see DESIGN.md and
//! `docs/MEMORY_ORDERING.md` for the site-by-site audit).
//!
//! Every algorithm is parameterized by a fixed process universe `0..N`:
//! callers assign each thread a distinct process id, as `kex-store` does
//! (one pid per client per shard). Passing the same id to two
//! concurrently running threads is a logic error and voids every
//! guarantee.

use kex_util::sync::atomic::AtomicU64;

/// A k-exclusion algorithm over processes `0..n()`.
///
/// At most [`RawKex::k`] processes can be between [`RawKex::acquire`] and
/// [`RawKex::release`] at any time. If at most `k - 1` participating
/// processes fail (stop for ever) outside their noncritical sections,
/// every other process's `acquire` and `release` complete in a bounded
/// number of its own steps.
pub trait RawKex: Send + Sync {
    /// The process universe size `N`.
    fn n(&self) -> usize;

    /// The exclusion bound `k`.
    fn k(&self) -> usize;

    /// Enter: blocks (spinning) until one of the `k` slots is held.
    ///
    /// # Panics
    /// Implementations may panic if `p >= self.n()`.
    fn acquire(&self, p: usize);

    /// Leave: releases the slot taken by the matching [`RawKex::acquire`].
    ///
    /// Must only be called by the process that currently holds a slot.
    fn release(&self, p: usize);

    /// RAII-style entry: acquires and returns a guard that releases on
    /// drop.
    fn enter(&self, p: usize) -> KexGuard<'_>
    where
        Self: Sized,
    {
        self.acquire(p);
        KexGuard {
            kex: self,
            p,
            cs: Some(crate::obs::span(crate::obs::Section::Cs, p)),
        }
    }
}

/// The paper's building block: an `(m, k)`-exclusion over a larger pid
/// universe. [`crate::native::TreeKex`] and the Figure-4 compositions
/// are built from one block type, chosen statically.
pub trait Block: RawKex + Sized {
    /// Build an `(m, k)` block: at most `m` of the `universe` processes
    /// contend in it at a time (e.g. `m = 2k` blocks in a tree), but
    /// process ids range over `0..universe`.
    ///
    /// # Panics
    /// Panics unless `1 <= k < m <= universe`.
    fn with_universe(universe: usize, m: usize, k: usize) -> Self;

    /// [`RawKex::acquire`] that never waits: `true` with a slot held
    /// (leave through [`RawKex::release`]), `false` — with the block as
    /// it was found — when some stage has no slot free right now, be it
    /// held by a live process or consumed by a crashed one.
    ///
    /// Each stage is taken by the paper's footnote-2 conditional
    /// decrement (`x > 0 → x - 1`, otherwise no write at all), so to the
    /// stage a successful taker is a process whose `fetch_and_increment`
    /// found a slot; one refused further down leaves the stages it did
    /// take the way any holder leaves them.
    fn try_acquire(&self, p: usize) -> bool;

    /// Processes holding a slot or waiting at the final stage, read off
    /// that stage's counter: live holders, crashed holders (for ever),
    /// and at most one waiter. A monitoring gauge, stale by the time it
    /// returns.
    fn occupancy(&self) -> usize;

    /// Figure 4's `X` when this block is a node's final block: a word
    /// kept after the last stage, initially `k`, the block never touches.
    fn x(&self) -> &AtomicU64;
}

/// Releases the underlying [`RawKex`] slot when dropped.
#[must_use = "dropping the guard immediately releases the slot"]
pub struct KexGuard<'a> {
    kex: &'a dyn RawKex,
    p: usize,
    /// Critical-section observability span; closed just before release
    /// so the occupancy gauge never counts an exiting process.
    cs: Option<crate::obs::SpanGuard>,
}

impl std::fmt::Debug for KexGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KexGuard").field("p", &self.p).finish()
    }
}

impl KexGuard<'_> {
    /// The process id that holds this slot.
    pub fn pid(&self) -> usize {
        self.p
    }
}

impl Drop for KexGuard<'_> {
    fn drop(&mut self) {
        self.cs = None;
        self.kex.release(self.p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // Facade types, not `std::sync::atomic`: the literal `Ordering::SeqCst`
    // arguments below are fine under the ordering-policy lint, which exempts
    // `#[cfg(test)]` code (test scaffolding is not an audited hot path).
    use kex_util::sync::atomic::{AtomicUsize, Ordering};

    struct CountingKex {
        inside: AtomicUsize,
        released: AtomicUsize,
    }

    impl RawKex for CountingKex {
        fn n(&self) -> usize {
            4
        }
        fn k(&self) -> usize {
            4
        }
        fn acquire(&self, _p: usize) {
            self.inside.fetch_add(1, Ordering::SeqCst);
        }
        fn release(&self, _p: usize) {
            self.released.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn guard_releases_on_drop() {
        let kex = CountingKex {
            inside: AtomicUsize::new(0),
            released: AtomicUsize::new(0),
        };
        {
            let g = kex.enter(2);
            assert_eq!(g.pid(), 2);
            assert_eq!(kex.inside.load(Ordering::SeqCst), 1);
            assert_eq!(kex.released.load(Ordering::SeqCst), 0);
        }
        assert_eq!(kex.released.load(Ordering::SeqCst), 1);
    }
}
