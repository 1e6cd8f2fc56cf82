//! Model-checked [`Mutex`] and [`Condvar`] matching the non-poisoning
//! `kex-util::sync` API surface, so `kex-util` can re-export these
//! under `cfg(loom)` with no call-site changes.
//!
//! Blocking is cooperative: a thread that cannot acquire parks with a
//! `rt::WaitTarget` keyed by the primitive's address, and the releasing
//! /notifying thread marks it runnable again. Because every block
//! decision happens while the blocker is the only running thread, there
//! is no window in which a wakeup can be lost — if the model itself
//! loses one (e.g. a notify before the matching wait), the checker
//! reports the resulting deadlock with the schedule that produced it.

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::sync::atomic::{AtomicBool as StdAtomicBool, Ordering::SeqCst};

use crate::rt::{self, WaitTarget};

/// A model-checked mutual-exclusion lock (non-poisoning).
pub struct Mutex<T: ?Sized> {
    locked: StdAtomicBool,
    data: UnsafeCell<T>,
}

// SAFETY: same bounds as std::sync::Mutex — the lock protocol (checked
// by the model scheduler) guarantees exclusive access to `data`.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

/// RAII guard for [`Mutex::lock`]; unlocks on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
}

impl<T> Mutex<T> {
    /// A mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            locked: StdAtomicBool::new(false),
            data: UnsafeCell::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    fn addr(&self) -> usize {
        self as *const Self as *const () as usize
    }

    /// Acquires the lock, blocking (cooperatively) until available.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let site = Location::caller();
        loop {
            rt::schedule("Mutex::lock", true, site);
            if self
                .locked
                .compare_exchange(false, true, SeqCst, SeqCst)
                .is_ok()
            {
                rt::sync_acquire(self.addr());
                return MutexGuard { lock: self };
            }
            if !rt::in_model() {
                // Outside a model there is no scheduler to wake us;
                // uncontended use (setup/teardown) never reaches here
                // with the lock held by another thread for long.
                std::hint::spin_loop();
                continue;
            }
            rt::block_on(
                WaitTarget::Mutex(self.addr()),
                "Mutex::lock (blocked)",
                site,
            );
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.locked.load(SeqCst) {
            f.write_str("Mutex(<locked>)")
        } else {
            // SAFETY: unlocked at the moment of the check; Debug output
            // is inherently racy and only used outside models.
            unsafe { write!(f, "Mutex({:?})", &*self.data.get()) }
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the guard proves exclusive ownership of the lock.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        rt::schedule("Mutex::unlock", true, Location::caller());
        rt::sync_release(self.lock.addr());
        self.lock.locked.store(false, SeqCst);
        rt::wake_all(WaitTarget::Mutex(self.lock.addr()));
    }
}

/// A model-checked condition variable paired with [`Mutex`].
pub struct Condvar {
    // Gives the condvar a unique address to key waiters on (a ZST could
    // share addresses with a sibling field).
    _addr: u8,
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

// No `Default`, as on the facade's std backend.
#[allow(clippy::new_without_default)]
impl Condvar {
    /// A fresh condition variable.
    pub const fn new() -> Self {
        Condvar { _addr: 0 }
    }

    fn addr(&self) -> usize {
        self as *const Self as *const () as usize
    }

    /// Atomically releases the guard's lock and waits; re-acquires and
    /// returns the guard. Spurious wakeups are possible, as with std.
    #[track_caller]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let site = Location::caller();
        let mutex = guard.lock;
        // The unlock is the one below, not the guard's drop.
        std::mem::forget(guard);
        // Release the lock; because no other thread runs between the
        // store and the block below, the wait is atomic w.r.t. the
        // scheduler and no notification can slip through unseen.
        rt::schedule("Condvar::wait (release)", true, site);
        rt::sync_release(mutex.addr());
        mutex.locked.store(false, SeqCst);
        rt::wake_all(WaitTarget::Mutex(mutex.addr()));
        rt::block_on(WaitTarget::Condvar(self.addr()), "Condvar::wait", site);
        // Re-acquire before returning.
        loop {
            rt::schedule("Condvar::wait (relock)", true, site);
            if mutex
                .locked
                .compare_exchange(false, true, SeqCst, SeqCst)
                .is_ok()
            {
                rt::sync_acquire(mutex.addr());
                return MutexGuard { lock: mutex };
            }
            rt::block_on(
                WaitTarget::Mutex(mutex.addr()),
                "Condvar::wait (relock)",
                site,
            );
        }
    }

    /// Wakes one waiter (the lowest-tid one; sufficient because waiter
    /// identity is symmetric in the modelled algorithms).
    #[track_caller]
    pub fn notify_one(&self) {
        rt::schedule("Condvar::notify_one", true, Location::caller());
        rt::wake_one(WaitTarget::Condvar(self.addr()));
    }
}
