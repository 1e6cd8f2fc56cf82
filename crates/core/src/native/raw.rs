//! The native k-exclusion interface: [`RawKex`] and its RAII guard.
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
