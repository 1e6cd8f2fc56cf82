//! The paper's headline methodology (§1): a `(k-1)`-resilient shared
//! object = a wait-free **k-process** object inside a k-assignment
//! wrapper.
//!
//! The wrapper admits at most `k` processes into the object at a time and
//! assigns each a unique *name* in `0..k` to use as its process identity
//! inside the wait-free implementation. Because the inner object is
//! wait-free for `k` processes and the wrapper tolerates `k-1` crashes
//! (each crash permanently consumes one slot and one name, leaving the
//! rest usable), the composite is `(k-1)`-resilient — and **effectively
//! wait-free whenever contention is at most `k`**, at a fraction of the
//! cost of an `N`-process wait-free construction.

use super::assignment::{KAssignment, NameGuard};

/// A `(k-1)`-resilient wrapper around a `k`-process object.
///
/// `O` is any object whose operations take a process identity in `0..k`
/// (the *name*); the wait-free objects in the `kex-waitfree` crate are
/// designed for exactly this calling convention.
///
/// ```rust
/// use kex_core::native::Resilient;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// // A trivial "k-process object": one counter cell per name.
/// struct Cells(Vec<AtomicU64>);
///
/// let obj = Cells((0..3).map(|_| AtomicU64::new(0)).collect());
/// let shared = Resilient::new(8, 3, obj); // 8 threads, tolerate 2 crashes
/// shared.with(5, |cells, name| {
///     cells.0[name].fetch_add(1, Ordering::Relaxed);
/// });
/// ```
pub struct Resilient<O> {
    assign: KAssignment,
    obj: O,
}

impl<O: std::fmt::Debug> std::fmt::Debug for Resilient<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resilient")
            .field("assign", &self.assign)
            .field("obj", &self.obj)
            .finish()
    }
}

/// Holds one of the `k` slots, the unique name that came with it, and a
/// shared reference to the wrapped object. Obtained from
/// [`Resilient::enter`] / [`Resilient::try_enter`]; dropping it leaves
/// the wrapper (name first, then slot).
///
/// Leaking the guard (`std::mem::forget`) models a crash inside the
/// object: the slot and the name are consumed permanently, which is
/// precisely the paper's failure model — the `kex-store` crash-injection
/// paths do exactly this.
#[must_use = "dropping the guard immediately releases the name and slot"]
pub struct ResilientGuard<'a, O> {
    obj: &'a O,
    inner: NameGuard<'a>,
}

impl<'a, O> ResilientGuard<'a, O> {
    /// The wrapped object. The reference outlives the guard's borrow
    /// scope but operations on it are only covered by the k-assignment
    /// while the guard is live.
    pub fn object(&self) -> &'a O {
        self.obj
    }

    /// The unique name in `0..k` held by this guard — the process
    /// identity to use inside the wait-free object.
    pub fn name(&self) -> usize {
        self.inner.name()
    }

    /// The process id that entered.
    pub fn pid(&self) -> usize {
        self.inner.pid()
    }
}

impl<O> std::fmt::Debug for ResilientGuard<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientGuard")
            .field("pid", &self.pid())
            .field("name", &self.name())
            .finish()
    }
}

impl<O: Sync> Resilient<O> {
    /// Wrap `obj` for `n` processes with resiliency/contention knob `k`,
    /// using the Theorem-3 cache-coherent fast-path k-exclusion.
    ///
    /// `obj` must be a correct *wait-free k-process* object for process
    /// identities `0..k`.
    pub fn new(n: usize, k: usize, obj: O) -> Self {
        Resilient {
            assign: KAssignment::new(n, k),
            obj,
        }
    }

    /// The process universe size `N`.
    pub fn n(&self) -> usize {
        self.assign.n()
    }

    /// The resiliency/contention knob `k`.
    pub fn k(&self) -> usize {
        self.assign.k()
    }

    /// Processes holding a slot or waiting at the final stage of the
    /// k-exclusion: live holders, crashed holders (for ever), and at
    /// most one waiter — processes queued further out are not counted.
    /// Monitoring only; the value may be stale by the time it returns.
    pub fn occupancy(&self) -> usize {
        self.assign.occupancy()
    }

    /// Enter the wrapper: process `p` waits for one of the `k` slots,
    /// receives a unique name, and gets guarded access to the object.
    ///
    /// Blocks (locally spinning) while all `k` slots are held. If at
    /// most `k-1` participating processes have crash-failed, every call
    /// completes.
    pub fn enter(&self, p: usize) -> ResilientGuard<'_, O> {
        ResilientGuard {
            obj: &self.obj,
            inner: self.assign.enter(p),
        }
    }

    /// Non-blocking [`Resilient::enter`]: `None` when all `k` slots are
    /// held, so callers can shed load instead of spinning.
    ///
    /// The k-exclusion's own counters are the gate
    /// ([`KAssignment::try_enter`]): a refusal waits for nobody and
    /// leaves every counter as it found it — one load, when the fast
    /// slots are all taken — whether the slots are held by live
    /// processes, by a blocking process a few of its own steps from its
    /// slot, or by processes that crashed holding them. On success the
    /// slot is already held; only the bounded name search follows.
    pub fn try_enter(&self, p: usize) -> Option<ResilientGuard<'_, O>> {
        let inner = self.assign.try_enter(p)?;
        Some(ResilientGuard {
            obj: &self.obj,
            inner,
        })
    }

    /// Perform an operation: process `p` enters the wrapper, runs `f`
    /// with the object and its assigned name, and leaves.
    ///
    /// If at most `k-1` participating processes have crash-failed, every
    /// call completes; if contention never exceeds `k`, the wrapper adds
    /// only `O(k)` remote references and `f` runs wait-free.
    pub fn with<R>(&self, p: usize, f: impl FnOnce(&O, usize) -> R) -> R {
        let guard = self.enter(p);
        f(guard.object(), guard.name())
    }

    /// Non-blocking [`Resilient::with`]: runs `f` only if a slot is
    /// immediately available, returning `None` (without spinning) when
    /// all `k` slots are held — including slots consumed by crashed
    /// processes. See [`Resilient::try_enter`] for the exact admission
    /// rule.
    pub fn try_with<R>(&self, p: usize, f: impl FnOnce(&O, usize) -> R) -> Option<R> {
        let guard = self.try_enter(p)?;
        Some(f(guard.object(), guard.name()))
    }

    /// Read-only access to the wrapped object **without** entering the
    /// wrapper.
    ///
    /// # Caveat: no exclusion, no name
    ///
    /// The returned reference aliases the object concurrently with up to
    /// `k` guarded operations (plus any other unguarded readers): none
    /// of the wrapper's guarantees apply. In particular the caller has
    /// **no name** — it must not invoke any operation that takes a
    /// process identity, because every name in `0..k` may simultaneously
    /// be in use by an admitted process, and the k-process object's
    /// correctness argument assumes one operation per name at a time.
    /// Only sound for name-free operations that are safe under arbitrary
    /// concurrency — approximate reads of scalable counters, or single-word
    /// register reads like `kex-store`'s `get_unguarded`, `scan` and `len`.
    pub fn object_unguarded(&self) -> &O {
        &self.obj
    }

    /// Consume the wrapper and return the inner object.
    pub fn into_inner(self) -> O {
        self.obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kex_util::sync::atomic::{AtomicUsize, Ordering::SeqCst};

    /// A deliberately non-thread-safe-looking "k-process object": a set of
    /// per-name scratch cells. If two concurrent operations ever receive
    /// the same name, the cell check fails.
    struct PerNameCells {
        cells: Vec<AtomicUsize>,
    }

    impl PerNameCells {
        fn new(k: usize) -> Self {
            PerNameCells {
                cells: (0..k).map(|_| AtomicUsize::new(0)).collect(),
            }
        }

        fn exercise(&self, name: usize) {
            // Mark the cell claimed; detect any concurrent claimant.
            let prev = self.cells[name].fetch_add(1, SeqCst);
            assert_eq!(prev, 0, "name {name} used by two operations at once");
            for _ in 0..20 {
                kex_util::sync::hint::spin_loop();
            }
            self.cells[name].fetch_sub(1, SeqCst);
        }
    }

    #[test]
    fn names_partition_the_inner_object() {
        let r = Resilient::new(8, 3, PerNameCells::new(3));
        std::thread::scope(|s| {
            for p in 0..8 {
                let r = &r;
                s.spawn(move || {
                    for _ in 0..300 {
                        r.with(p, |obj, name| obj.exercise(name));
                    }
                });
            }
        });
    }

    #[test]
    fn survivors_progress_past_k_minus_1_crashes() {
        // Two "threads" crash while holding wrapper slots (simulated by
        // acquiring and never releasing); with k = 3 one slot remains and
        // everyone else still completes.
        let r = Resilient::new(6, 3, PerNameCells::new(3));
        let crashed = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for p in 0..2 {
                let (r, crashed, done) = (&r, &crashed, &done);
                s.spawn(move || {
                    r.with(p, |_, _| {
                        crashed.fetch_add(1, SeqCst);
                        // "Crash": hold the slot until everyone else is done.
                        while done.load(SeqCst) < 4 {
                            kex_util::sync::thread::yield_now();
                        }
                    });
                });
            }
            for p in 2..6 {
                let (r, crashed, done) = (&r, &crashed, &done);
                s.spawn(move || {
                    while crashed.load(SeqCst) < 2 {
                        kex_util::sync::thread::yield_now();
                    }
                    for _ in 0..100 {
                        r.with(p, |obj, name| obj.exercise(name));
                    }
                    done.fetch_add(1, SeqCst);
                });
            }
        });
        assert_eq!(done.load(SeqCst), 4);
    }

    #[test]
    fn into_inner_returns_the_object() {
        let r = Resilient::new(2, 1, 42u64);
        assert_eq!(r.into_inner(), 42);
    }

    #[test]
    fn guard_exposes_object_name_and_pid() {
        let r = Resilient::new(4, 2, PerNameCells::new(2));
        let g = r.enter(3);
        assert_eq!(g.pid(), 3);
        assert!(g.name() < 2);
        g.object().exercise(g.name());
        assert_eq!(r.occupancy(), 1);
        drop(g);
        assert_eq!(r.occupancy(), 0);
    }

    #[test]
    fn try_with_sheds_when_all_slots_are_held() {
        let r = Resilient::new(8, 2, PerNameCells::new(2));
        // Two live holders (distinct pids from one thread: nothing
        // blocks while slots remain).
        let g0 = r.enter(0);
        let g1 = r.enter(1);
        assert_eq!(r.occupancy(), 2);
        // House full: shed without spinning.
        assert_eq!(r.try_with(2, |_, _| ()), None);
        assert!(r.try_enter(3).is_none());
        drop(g0);
        // A slot is free again: admitted, and the freed name is reused.
        let got = r.try_with(2, |obj, name| {
            obj.exercise(name);
            name
        });
        assert!(got.is_some());
        drop(g1);
    }

    #[test]
    fn try_with_sheds_permanently_after_k_crashes() {
        // Both holders crash in the critical section (leaked guards):
        // their slots and names are consumed forever, so the
        // non-blocking path sheds every subsequent operation instead of
        // hanging the caller.
        let r = Resilient::new(8, 2, PerNameCells::new(2));
        std::mem::forget(r.enter(0));
        std::mem::forget(r.enter(1));
        assert_eq!(r.occupancy(), 2);
        for p in 2..6 {
            assert_eq!(r.try_with(p, |_, _| ()), None);
        }
    }

    #[test]
    fn try_with_runs_under_partial_crashes() {
        // k = 3, two crashed holders: one slot remains, and try_with
        // keeps succeeding through it once no live holder is inside.
        let r = Resilient::new(8, 3, PerNameCells::new(3));
        std::mem::forget(r.enter(0));
        std::mem::forget(r.enter(1));
        for p in 2..6 {
            assert!(r.try_with(p, |_, name| name).is_some());
        }
    }
}
