//! Backend-swappable synchronization facade.
//!
//! Everything the native algorithms synchronize through lives behind
//! this module: [`Mutex`]/[`Condvar`], the [`atomic`] types, the
//! [`hint::spin_loop`] shim, and [`thread`]. Three backends exist, with
//! a strict precedence:
//!
//! 1. **loom** — building with `RUSTFLAGS="--cfg loom"` swaps in the
//!    `kex-loom` model-checked replacements so the *same* algorithm
//!    code runs under exhaustive schedule exploration
//!    (`crates/core/tests/loom_models.rs`). This backend always wins.
//! 2. **obs** — building with `--features obs` (and not loom) swaps
//!    [`atomic`] and [`hint`] to the `kex-obs` instrumented
//!    implementations: every operation is counted per process and
//!    section, with estimated remote references under the CC cost
//!    model (see `docs/OBSERVABILITY.md`; DSM costs are the
//!    simulator's). `Mutex`/`Condvar`/[`thread`] stay std-backed.
//! 3. **std** — the default. The re-exports *are* the `std` types
//!    (same `TypeId`, same layout, zero added fields or operations);
//!    `crates/util/tests/zero_cost.rs` pins this down.
//!
//! Rules for code in `kex-core`'s native layer:
//!
//! * import atomics from `kex_util::sync::atomic`, never
//!   `std::sync::atomic`;
//! * busy-wait loops call [`hint::spin_loop`] (usually via
//!   [`crate::Backoff`]), never `std::hint::spin_loop` — under loom the
//!   shim is the yield point that makes spin loops explorable, and
//!   under obs it is where spin iterations are counted;
//! * there is no timed wait: the model has no clock, and the paper's
//!   protocols are timeout-free.
//!
//! The `Mutex`/`Condvar` are std's API minus poisoning: `lock` and
//! `wait` return the guard itself, not a `Result`. The native
//! algorithms use a mutex only to
//! *model* the paper's multi-word atomic statements, where poisoning is
//! noise (a panicking holder should not turn every later test failure
//! into `PoisonError`).

#[cfg(loom)]
pub use kex_loom::sync::{Condvar, Mutex, MutexGuard};
#[cfg(not(loom))]
pub use std_impl::{Condvar, Mutex, MutexGuard};

/// Atomic types: `std::sync::atomic`, model-checked under `cfg(loom)`,
/// or instrumented under `--features obs`.
pub mod atomic {
    #[cfg(loom)]
    pub use kex_loom::atomic::{
        AtomicBool, AtomicI64, AtomicIsize, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
        Ordering,
    };
    #[cfg(all(not(loom), feature = "obs"))]
    pub use kex_obs::atomic::{
        AtomicBool, AtomicI64, AtomicIsize, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
        Ordering,
    };
    #[cfg(all(not(loom), not(feature = "obs")))]
    pub use std::sync::atomic::{
        AtomicBool, AtomicI64, AtomicIsize, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
        Ordering,
    };
}

/// Spin-hint shim; under `cfg(loom)` a spinning thread is demoted until
/// another thread writes (which makes busy-wait loops finite in the
/// model), and under `--features obs` each call is counted against the
/// current `(process, section)` span.
pub mod hint {
    #[cfg(loom)]
    pub use kex_loom::hint::spin_loop;
    #[cfg(all(not(loom), feature = "obs"))]
    pub use kex_obs::hint::spin_loop;
    #[cfg(all(not(loom), not(feature = "obs")))]
    pub use std::hint::spin_loop;
}

/// Thread spawn/join/yield, `std::thread` or model-checked.
pub mod thread {
    #[cfg(loom)]
    pub use kex_loom::thread::{spawn, yield_now, JoinHandle};
    #[cfg(not(loom))]
    pub use std::thread::{spawn, yield_now, JoinHandle};
}

#[cfg(not(loom))]
mod std_impl {
    use std::fmt;
    use std::ops::{Deref, DerefMut};
    use std::sync::{self, PoisonError};

    /// A mutual-exclusion lock that does not poison on panic.
    pub struct Mutex<T: ?Sized> {
        inner: sync::Mutex<T>,
    }

    /// RAII guard for [`Mutex::lock`]; unlocks on drop.
    pub struct MutexGuard<'a, T: ?Sized> {
        inner: sync::MutexGuard<'a, T>,
    }

    impl<T> Mutex<T> {
        /// A mutex holding `value`.
        pub const fn new(value: T) -> Self {
            Mutex {
                inner: sync::Mutex::new(value),
            }
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquires the lock, blocking until it is available.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            MutexGuard {
                inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            }
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.inner.fmt(f)
        }
    }

    impl<T: ?Sized> Deref for MutexGuard<'_, T> {
        type Target = T;

        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            (**self).fmt(f)
        }
    }

    /// A condition variable paired with [`Mutex`].
    #[derive(Debug)]
    pub struct Condvar {
        inner: sync::Condvar,
    }

    // No `Default`, on either backend: nothing builds a condvar except
    // through `new`.
    #[allow(clippy::new_without_default)]
    impl Condvar {
        /// A fresh condition variable.
        pub const fn new() -> Self {
            Condvar {
                inner: sync::Condvar::new(),
            }
        }

        /// Atomically releases the guard's lock and waits; re-acquires
        /// and returns the guard. Spurious wakeups are possible, as usual.
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            MutexGuard {
                inner: self
                    .inner
                    .wait(guard.inner)
                    .unwrap_or_else(PoisonError::into_inner),
            }
        }

        /// Wakes one waiter.
        pub fn notify_one(&self) {
            self.inner.notify_one();
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn lock_round_trip() {
        let m = Mutex::new(5);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn no_poisoning_after_panic() {
        let m = Arc::new(Mutex::new(1));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 1, "lock usable after a holder panicked");
    }

    #[test]
    fn condvar_signals_across_threads() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut ready = m.lock();
            while !*ready {
                ready = cv.wait(ready);
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_one();
        }
        t.join().unwrap();
    }

    #[test]
    fn facade_paths_resolve() {
        use super::atomic::{AtomicUsize, Ordering::SeqCst};
        let x = AtomicUsize::new(1);
        assert_eq!(x.fetch_add(1, SeqCst), 1);
        super::hint::spin_loop();
        super::thread::spawn(|| {}).join().unwrap();
    }
}
