//! Instrumented drop-in replacements for `std::sync::atomic` types.
//!
//! Each type wraps the real std atomic plus a private `Meta` word: the
//! **CC holder bitmask** the `kex-sim` memory model tracks per variable
//! — which processes hold a valid cached copy. A read is local iff the
//! reader's bit is set (else it is counted remote and the bit is ORed
//! in); a write or RMW is local iff the writer is the *sole* holder
//! (else it is counted remote and the mask collapses to the writer
//! alone). These are exactly `classify_read`/`classify_write` from
//! `kex-sim`, evaluated at runtime against real interleavings instead
//! of simulated ones. (A CC host cannot reproduce the DSM model; DSM
//! costs are the simulator's.)
//!
//! The real operation always executes with the caller's requested
//! `Ordering`, unchanged; bookkeeping is `Relaxed` and synchronizes
//! nothing. Operations by threads outside any span (or with pids beyond
//! [`crate::MAX_PIDS`]) count as CC-remote without touching the mask —
//! except writes, which invalidate every cached copy (the hardware
//! would too).
//!
//! `into_inner` / `get_mut` are unsynchronized accesses through `&mut`
//! and are deliberately not counted: the paper's accounting (§2) only
//! charges *shared* accesses, and `&mut` proves exclusivity.

pub use std::sync::atomic::Ordering;

use std::sync::atomic::Ordering::Relaxed;

use crate::counters::{self, OpKind};

/// Per-variable cost-model state carried alongside every instrumented
/// atomic: the bitmask of pids holding a valid cached copy.
#[derive(Debug)]
struct Meta {
    holders: std::sync::atomic::AtomicU64,
}

impl Meta {
    const fn new() -> Self {
        Meta {
            holders: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Classifies and records a read.
    #[inline]
    fn on_read(&self) {
        let cc_remote = match counters::current_pid() {
            Some(p) => {
                let bit = 1u64 << p;
                if self.holders.load(Relaxed) & bit != 0 {
                    false
                } else {
                    self.holders.fetch_or(bit, Relaxed);
                    true
                }
            }
            None => true,
        };
        counters::record_op(OpKind::Load, cc_remote);
    }

    /// Classifies and records a write or RMW.
    #[inline]
    fn on_write(&self, kind: OpKind) {
        let cc_remote = match counters::current_pid() {
            Some(p) => {
                let bit = 1u64 << p;
                self.holders.swap(bit, Relaxed) != bit
            }
            None => {
                // An untracked writer invalidates every cached copy.
                self.holders.store(0, Relaxed);
                true
            }
        };
        counters::record_op(kind, cc_remote);
    }

    /// Classifies and records a `fetch_update`: one RMW if it wrote, one
    /// read if its closure declined (nothing is written).
    #[inline]
    fn on_update<T>(&self, outcome: &Result<T, T>) {
        match outcome {
            Ok(_) => self.on_write(OpKind::Rmw),
            Err(_) => self.on_read(),
        }
    }
}

macro_rules! instrumented_common {
    ($name:ident, $ty:ty) => {
        /// Instrumented counterpart of the same-named `std::sync::atomic`
        /// type; see the module docs for the accounting rules.
        pub struct $name {
            inner: std::sync::atomic::$name,
            meta: Meta,
        }

        impl $name {
            /// Creates a new atomic holding `v` (cached nowhere).
            pub const fn new(v: $ty) -> Self {
                $name {
                    inner: std::sync::atomic::$name::new(v),
                    meta: Meta::new(),
                }
            }

            /// Consumes the atomic, returning the contained value
            /// (unsynchronized; not counted).
            pub fn into_inner(self) -> $ty {
                self.inner.into_inner()
            }

            /// Mutable access without synchronization (not counted).
            pub fn get_mut(&mut self) -> &mut $ty {
                self.inner.get_mut()
            }

            /// Loads the value; counted as a read.
            #[inline]
            pub fn load(&self, order: Ordering) -> $ty {
                self.meta.on_read();
                self.inner.load(order)
            }

            /// Stores `v`; counted as a write.
            #[inline]
            pub fn store(&self, v: $ty, order: Ordering) {
                self.meta.on_write(OpKind::Store);
                self.inner.store(v, order)
            }

            /// Swaps in `v`; counted as an RMW.
            #[inline]
            pub fn swap(&self, v: $ty, order: Ordering) -> $ty {
                self.meta.on_write(OpKind::Rmw);
                self.inner.swap(v, order)
            }

            /// Compare-and-exchange; counted as one RMW whether it
            /// succeeds or fails (a failed CAS still owns the line).
            #[inline]
            pub fn compare_exchange(
                &self,
                current: $ty,
                new: $ty,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$ty, $ty> {
                self.meta.on_write(OpKind::Rmw);
                self.inner.compare_exchange(current, new, success, failure)
            }

            /// Weak compare-and-exchange; counted as one RMW.
            #[inline]
            pub fn compare_exchange_weak(
                &self,
                current: $ty,
                new: $ty,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$ty, $ty> {
                self.meta.on_write(OpKind::Rmw);
                self.inner
                    .compare_exchange_weak(current, new, success, failure)
            }

            /// Fetch-and-update; counted as **one** RMW even though the
            /// underlying CAS loop may retry (an estimator
            /// simplification, documented in the crate docs) — or as
            /// one read when `f` declines, which writes nothing.
            #[inline]
            pub fn fetch_update<F>(
                &self,
                set_order: Ordering,
                fetch_order: Ordering,
                f: F,
            ) -> Result<$ty, $ty>
            where
                F: FnMut($ty) -> Option<$ty>,
            {
                let outcome = self.inner.fetch_update(set_order, fetch_order, f);
                self.meta.on_update(&outcome);
                outcome
            }
        }

        impl From<$ty> for $name {
            fn from(v: $ty) -> Self {
                $name::new(v)
            }
        }

        impl Default for $name {
            fn default() -> Self {
                $name::new(<$ty>::default())
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.inner.fmt(f)
            }
        }
    };
}

macro_rules! instrumented_int_ops {
    ($name:ident, $ty:ty, [$($op:ident),* $(,)?]) => {
        impl $name {
            $(
                #[doc = concat!("`", stringify!($op), "`; counted as an RMW.")]
                #[inline]
                pub fn $op(&self, v: $ty, order: Ordering) -> $ty {
                    self.meta.on_write(OpKind::Rmw);
                    self.inner.$op(v, order)
                }
            )*
        }
    };
}

instrumented_common!(AtomicBool, bool);
instrumented_common!(AtomicU8, u8);
instrumented_common!(AtomicU32, u32);
instrumented_common!(AtomicU64, u64);
instrumented_common!(AtomicI64, i64);
instrumented_common!(AtomicUsize, usize);
instrumented_common!(AtomicIsize, isize);

instrumented_int_ops!(
    AtomicU8,
    u8,
    [fetch_add, fetch_sub, fetch_and, fetch_or, fetch_xor, fetch_max, fetch_min]
);
instrumented_int_ops!(
    AtomicU32,
    u32,
    [fetch_add, fetch_sub, fetch_and, fetch_or, fetch_xor, fetch_max, fetch_min]
);
instrumented_int_ops!(
    AtomicU64,
    u64,
    [fetch_add, fetch_sub, fetch_and, fetch_or, fetch_xor, fetch_max, fetch_min]
);
instrumented_int_ops!(
    AtomicI64,
    i64,
    [fetch_add, fetch_sub, fetch_and, fetch_or, fetch_xor, fetch_max, fetch_min]
);
instrumented_int_ops!(
    AtomicUsize,
    usize,
    [fetch_add, fetch_sub, fetch_and, fetch_or, fetch_xor, fetch_max, fetch_min]
);
instrumented_int_ops!(
    AtomicIsize,
    isize,
    [fetch_add, fetch_sub, fetch_and, fetch_or, fetch_xor, fetch_max, fetch_min]
);

instrumented_int_ops!(AtomicBool, bool, [fetch_and, fetch_or, fetch_xor]);

/// Instrumented counterpart of `std::sync::atomic::AtomicPtr`.
pub struct AtomicPtr<T> {
    inner: std::sync::atomic::AtomicPtr<T>,
    meta: Meta,
}

impl<T> AtomicPtr<T> {
    /// Creates a new atomic pointer (cached nowhere).
    pub const fn new(p: *mut T) -> Self {
        AtomicPtr {
            inner: std::sync::atomic::AtomicPtr::new(p),
            meta: Meta::new(),
        }
    }

    /// Consumes the atomic, returning the contained pointer
    /// (unsynchronized; not counted).
    pub fn into_inner(self) -> *mut T {
        self.inner.into_inner()
    }

    /// Mutable access without synchronization (not counted).
    pub fn get_mut(&mut self) -> &mut *mut T {
        self.inner.get_mut()
    }

    /// Loads the pointer; counted as a read.
    #[inline]
    pub fn load(&self, order: Ordering) -> *mut T {
        self.meta.on_read();
        self.inner.load(order)
    }

    /// Stores `p`; counted as a write.
    #[inline]
    pub fn store(&self, p: *mut T, order: Ordering) {
        self.meta.on_write(OpKind::Store);
        self.inner.store(p, order)
    }

    /// Swaps in `p`; counted as an RMW.
    #[inline]
    pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
        self.meta.on_write(OpKind::Rmw);
        self.inner.swap(p, order)
    }

    /// Compare-and-exchange; counted as one RMW either way.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        self.meta.on_write(OpKind::Rmw);
        self.inner.compare_exchange(current, new, success, failure)
    }

    /// Weak compare-and-exchange; counted as one RMW.
    #[inline]
    pub fn compare_exchange_weak(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        self.meta.on_write(OpKind::Rmw);
        self.inner
            .compare_exchange_weak(current, new, success, failure)
    }

    /// Fetch-and-update; counted as one RMW, or as one read when `f`
    /// declines.
    #[inline]
    pub fn fetch_update<F>(
        &self,
        set_order: Ordering,
        fetch_order: Ordering,
        f: F,
    ) -> Result<*mut T, *mut T>
    where
        F: FnMut(*mut T) -> Option<*mut T>,
    {
        let outcome = self.inner.fetch_update(set_order, fetch_order, f);
        self.meta.on_update(&outcome);
        outcome
    }
}

impl<T> From<*mut T> for AtomicPtr<T> {
    fn from(p: *mut T) -> Self {
        AtomicPtr::new(p)
    }
}

impl<T> Default for AtomicPtr<T> {
    fn default() -> Self {
        AtomicPtr::new(std::ptr::null_mut())
    }
}

impl<T> std::fmt::Debug for AtomicPtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{span, Section};
    use std::sync::atomic::Ordering::SeqCst;

    #[test]
    fn cc_estimator_mirrors_simulator_rules() {
        let _g = crate::testlock::hold();
        crate::reset();
        let x = AtomicUsize::new(0);
        {
            let _s = span(Section::Entry, 1);
            // First read: miss; second: cached.
            x.load(SeqCst);
            x.load(SeqCst);
            // Sole-holder write after own read: mask {1} != {only 1}? The
            // mask is exactly {1}, so the write is local.
            x.store(7, SeqCst);
            // And a second write stays local.
            x.fetch_add(1, SeqCst);
        }
        {
            let _s = span(Section::Entry, 2);
            // Another pid reads: miss, then local.
            x.load(SeqCst);
            x.load(SeqCst);
        }
        {
            let _s = span(Section::Entry, 1);
            // p2 holds a copy too, so p1's write is remote again.
            x.store(0, SeqCst);
        }
        let snap = crate::snapshot();
        let p1 = snap.pid(1).unwrap();
        let p2 = snap.pid(2).unwrap();
        let e1 = &p1.sections[Section::Entry as usize];
        let e2 = &p2.sections[Section::Entry as usize];
        assert_eq!(e1.loads, 2);
        assert_eq!(e1.stores, 2);
        assert_eq!(e1.rmws, 1);
        // p1: 1 read miss + 0 local writes ... store local, fetch_add
        // local, final store remote => 2 CC-remote.
        assert_eq!(e1.cc_remote, 2);
        assert_eq!(e2.cc_remote, 1);
    }

    #[test]
    fn untracked_ops_count_as_remote_and_invalidate() {
        let _g = crate::testlock::hold();
        crate::reset();
        let x = AtomicU64::new(0);
        {
            let _s = span(Section::Entry, 0);
            x.load(SeqCst); // miss, caches for p0
        }
        // Outside any span: remote, and the write wipes p0's copy.
        x.fetch_add(1, SeqCst);
        {
            let _s = span(Section::Entry, 0);
            x.load(SeqCst); // miss again
        }
        let snap = crate::snapshot();
        let p0 = snap.pid(0).unwrap();
        assert_eq!(p0.sections[Section::Entry as usize].cc_remote, 2);
        let untracked = snap.untracked().unwrap();
        assert_eq!(untracked.sections[Section::Other as usize].rmws, 1);
        assert_eq!(untracked.sections[Section::Other as usize].cc_remote, 1);
    }

    #[test]
    fn non_seqcst_orderings_pass_through_and_are_counted() {
        // The native layer's relaxed hot paths (see kex-core's
        // `ordering` module) run through this backend under `--features
        // obs`: every ordering must be forwarded to the real operation
        // unchanged (no panic, correct result) and instrumented exactly
        // like SeqCst traffic.
        use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};
        let _g = crate::testlock::hold();
        crate::reset();
        let x = AtomicUsize::new(1);
        {
            let _s = span(Section::Entry, 3);
            assert_eq!(x.load(Acquire), 1);
            x.store(2, Release);
            x.store(3, Relaxed);
            assert_eq!(x.swap(4, AcqRel), 3);
            assert_eq!(x.fetch_add(1, Relaxed), 4);
            assert_eq!(x.compare_exchange(5, 6, AcqRel, Acquire), Ok(5));
            assert_eq!(x.compare_exchange(0, 9, Release, Relaxed), Err(6));
            assert!(x.fetch_update(AcqRel, Acquire, |v| Some(v + 1)).is_ok());
        }
        assert_eq!(x.load(Relaxed), 7);
        let snap = crate::snapshot();
        let entry = &snap.pid(3).unwrap().sections[Section::Entry as usize];
        assert_eq!(entry.loads, 1);
        assert_eq!(entry.stores, 2);
        // swap + fetch_add + 2 CAS + fetch_update's successful CAS.
        assert_eq!(entry.rmws, 5);
    }

    #[test]
    fn pointer_atomics_are_instrumented() {
        let _g = crate::testlock::hold();
        crate::reset();
        let mut value = 9usize;
        let p = AtomicPtr::new(std::ptr::null_mut());
        {
            let _s = span(Section::Other, 0);
            p.store(&mut value, SeqCst);
            assert_eq!(p.load(SeqCst), &mut value as *mut usize);
            assert!(p
                .compare_exchange(&mut value, std::ptr::null_mut(), SeqCst, SeqCst)
                .is_ok());
        }
        let snap = crate::snapshot();
        let other = &snap.pid(0).unwrap().sections[Section::Other as usize];
        assert_eq!(other.loads, 1);
        assert_eq!(other.stores, 1);
        assert_eq!(other.rmws, 1);
    }
}
