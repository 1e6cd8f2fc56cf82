//! Model-checked drop-in replacements for `std::sync::atomic` types.
//!
//! Every operation is a schedule point: the checker may switch threads
//! immediately *before* the operation executes, which is exactly the
//! granularity at which interleavings differ.
//!
//! The `Ordering` argument is real: each operation reports its ordering
//! class to the runtime (see the crate docs), and a load may read an
//! older entry of the location's modification order where the declared
//! ordering permits. The wrapped std atomic is always accessed with
//! `SeqCst` and keeps holding the modification-order maximum (every
//! store writes through), so the memory backing the model stays
//! physically coherent.
//!
//! Outside [`crate::model`] the types degrade to plain `SeqCst` std
//! atomics (no scheduling), keeping construction and `Debug` usable.

pub use std::sync::atomic::Ordering;

use std::panic::Location;
use std::sync::atomic::Ordering::SeqCst;

use crate::rt;

/// Raw-bits conversion funnelling every atomic value type through the
/// runtime's single `u64` representation.
trait Bits: Copy {
    fn to_bits(self) -> u64;
    fn from_bits(bits: u64) -> Self;
}

macro_rules! bits_int {
    ($($ty:ty),*) => {
        $(impl Bits for $ty {
            fn to_bits(self) -> u64 {
                self as u64
            }
            fn from_bits(bits: u64) -> Self {
                bits as $ty
            }
        })*
    };
}

bits_int!(u8, u32, u64, usize, i64, isize);

impl Bits for bool {
    fn to_bits(self) -> u64 {
        self as u64
    }
    fn from_bits(bits: u64) -> Self {
        bits != 0
    }
}

macro_rules! atomic_common {
    ($name:ident, $std:ident, $ty:ty) => {
        /// Model-checked counterpart of the same-named `std::sync::atomic` type.
        #[derive(Debug, Default)]
        pub struct $name {
            inner: std::sync::atomic::$std,
        }

        impl $name {
            /// Creates a new atomic holding `v`.
            pub const fn new(v: $ty) -> Self {
                $name {
                    inner: std::sync::atomic::$std::new(v),
                }
            }

            /// Consumes the atomic, returning the contained value.
            pub fn into_inner(self) -> $ty {
                self.inner.into_inner()
            }

            /// Mutable access without synchronization.
            pub fn get_mut(&mut self) -> &mut $ty {
                self.inner.get_mut()
            }

            /// The location key the runtime tracks this atomic under
            /// (stable while the object is alive).
            fn addr(&self) -> usize {
                &self.inner as *const _ as usize
            }

            /// Loads the value (schedule point; read). May read an older
            /// modification-order entry as the declared ordering permits.
            #[track_caller]
            pub fn load(&self, order: Ordering) -> $ty {
                rt::schedule(
                    concat!(stringify!($name), "::load"),
                    false,
                    Location::caller(),
                );
                let init = self.inner.load(SeqCst);
                <$ty as Bits>::from_bits(rt::weak_load(
                    self.addr(),
                    init.to_bits(),
                    rt::ord_class(order),
                    concat!(stringify!($name), "::load"),
                    Location::caller(),
                ))
            }

            /// Stores `v` (schedule point; write).
            #[track_caller]
            pub fn store(&self, v: $ty, order: Ordering) {
                rt::schedule(
                    concat!(stringify!($name), "::store"),
                    true,
                    Location::caller(),
                );
                let init = self.inner.load(SeqCst);
                rt::weak_store(
                    self.addr(),
                    init.to_bits(),
                    v.to_bits(),
                    rt::ord_class(order),
                );
                self.inner.store(v, SeqCst)
            }

            /// Swaps in `v`, returning the previous value (schedule
            /// point; write).
            #[track_caller]
            pub fn swap(&self, v: $ty, order: Ordering) -> $ty {
                rt::schedule(
                    concat!(stringify!($name), "::swap"),
                    true,
                    Location::caller(),
                );
                let old = self.inner.swap(v, SeqCst);
                let class = rt::ord_class(order);
                rt::weak_rmw(self.addr(), old.to_bits(), Some(v.to_bits()), class, class);
                old
            }

            /// Compare-and-exchange (schedule point; write — a failed
            /// CAS is a load of the newest store with `failure`).
            #[track_caller]
            pub fn compare_exchange(
                &self,
                current: $ty,
                new: $ty,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$ty, $ty> {
                rt::schedule(
                    concat!(stringify!($name), "::compare_exchange"),
                    true,
                    Location::caller(),
                );
                let r = self.inner.compare_exchange(current, new, SeqCst, SeqCst);
                let (old, stored) = match r {
                    Ok(old) => (old, Some(new.to_bits())),
                    Err(old) => (old, None),
                };
                rt::weak_rmw(
                    self.addr(),
                    old.to_bits(),
                    stored,
                    rt::ord_class(success),
                    rt::ord_class(failure),
                );
                r
            }

            /// Weak compare-and-exchange; never fails spuriously in the
            /// model (spurious failure would only add schedules already
            /// covered by a plain retry loop).
            #[track_caller]
            pub fn compare_exchange_weak(
                &self,
                current: $ty,
                new: $ty,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$ty, $ty> {
                self.compare_exchange(current, new, success, failure)
            }

            /// Fetch-and-update loop as a single atomic RMW (schedule
            /// point; write).
            #[track_caller]
            pub fn fetch_update<F>(
                &self,
                set_order: Ordering,
                fetch_order: Ordering,
                f: F,
            ) -> Result<$ty, $ty>
            where
                F: FnMut($ty) -> Option<$ty>,
            {
                rt::schedule(
                    concat!(stringify!($name), "::fetch_update"),
                    true,
                    Location::caller(),
                );
                let r = self.inner.fetch_update(SeqCst, SeqCst, f);
                let (old, stored) = match r {
                    Ok(old) => (old, Some(self.inner.load(SeqCst).to_bits())),
                    Err(old) => (old, None),
                };
                rt::weak_rmw(
                    self.addr(),
                    old.to_bits(),
                    stored,
                    rt::ord_class(set_order),
                    rt::ord_class(fetch_order),
                );
                r
            }
        }

        impl From<$ty> for $name {
            fn from(v: $ty) -> Self {
                $name::new(v)
            }
        }
    };
}

macro_rules! atomic_int_ops {
    ($name:ident, $ty:ty, [$($op:ident),* $(,)?]) => {
        impl $name {
            $(
                #[doc = concat!("`", stringify!($op), "` (schedule point; write).")]
                #[track_caller]
                pub fn $op(&self, v: $ty, order: Ordering) -> $ty {
                    rt::schedule(
                        concat!(stringify!($name), "::", stringify!($op)),
                        true,
                        Location::caller(),
                    );
                    let old = self.inner.$op(v, SeqCst);
                    let new = self.inner.load(SeqCst);
                    let class = rt::ord_class(order);
                    rt::weak_rmw(self.addr(), old.to_bits(), Some(new.to_bits()), class, class);
                    old
                }
            )*
        }
    };
}

atomic_common!(AtomicBool, AtomicBool, bool);
atomic_common!(AtomicU8, AtomicU8, u8);
atomic_common!(AtomicU32, AtomicU32, u32);
atomic_common!(AtomicU64, AtomicU64, u64);
atomic_common!(AtomicI64, AtomicI64, i64);
atomic_common!(AtomicUsize, AtomicUsize, usize);
atomic_common!(AtomicIsize, AtomicIsize, isize);

atomic_int_ops!(
    AtomicU8,
    u8,
    [fetch_add, fetch_sub, fetch_and, fetch_or, fetch_xor, fetch_max, fetch_min]
);
atomic_int_ops!(
    AtomicU32,
    u32,
    [fetch_add, fetch_sub, fetch_and, fetch_or, fetch_xor, fetch_max, fetch_min]
);
atomic_int_ops!(
    AtomicU64,
    u64,
    [fetch_add, fetch_sub, fetch_and, fetch_or, fetch_xor, fetch_max, fetch_min]
);
atomic_int_ops!(
    AtomicUsize,
    usize,
    [fetch_add, fetch_sub, fetch_and, fetch_or, fetch_xor, fetch_max, fetch_min]
);
atomic_int_ops!(
    AtomicIsize,
    isize,
    [fetch_add, fetch_sub, fetch_and, fetch_or, fetch_xor, fetch_max, fetch_min]
);

atomic_int_ops!(
    AtomicI64,
    i64,
    [fetch_add, fetch_sub, fetch_and, fetch_or, fetch_xor, fetch_max, fetch_min]
);

atomic_int_ops!(AtomicBool, bool, [fetch_and, fetch_or, fetch_xor]);

/// Model-checked counterpart of `std::sync::atomic::AtomicPtr`.
///
/// Generic, so the `atomic_common!` macro (which names concrete std
/// types) does not apply; the operations and scheduling discipline are
/// identical. Pointers round-trip through the runtime as their address
/// bits.
#[derive(Debug)]
pub struct AtomicPtr<T> {
    inner: std::sync::atomic::AtomicPtr<T>,
}

impl<T> AtomicPtr<T> {
    /// Creates a new atomic pointer holding `p`.
    pub const fn new(p: *mut T) -> Self {
        AtomicPtr {
            inner: std::sync::atomic::AtomicPtr::new(p),
        }
    }

    /// Consumes the atomic, returning the contained pointer.
    pub fn into_inner(self) -> *mut T {
        self.inner.into_inner()
    }

    /// Mutable access without synchronization.
    pub fn get_mut(&mut self) -> &mut *mut T {
        self.inner.get_mut()
    }

    fn addr(&self) -> usize {
        &self.inner as *const _ as usize
    }

    /// Loads the pointer (schedule point; read).
    #[track_caller]
    pub fn load(&self, order: Ordering) -> *mut T {
        rt::schedule("AtomicPtr::load", false, Location::caller());
        let init = self.inner.load(SeqCst);
        rt::weak_load(
            self.addr(),
            init as u64,
            rt::ord_class(order),
            "AtomicPtr::load",
            Location::caller(),
        ) as usize as *mut T
    }

    /// Stores `p` (schedule point; write).
    #[track_caller]
    pub fn store(&self, p: *mut T, order: Ordering) {
        rt::schedule("AtomicPtr::store", true, Location::caller());
        let init = self.inner.load(SeqCst);
        rt::weak_store(self.addr(), init as u64, p as u64, rt::ord_class(order));
        self.inner.store(p, SeqCst)
    }

    /// Swaps in `p`, returning the previous pointer (schedule point;
    /// write).
    #[track_caller]
    pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
        rt::schedule("AtomicPtr::swap", true, Location::caller());
        let old = self.inner.swap(p, SeqCst);
        let class = rt::ord_class(order);
        rt::weak_rmw(self.addr(), old as u64, Some(p as u64), class, class);
        old
    }

    /// Compare-and-exchange (schedule point; write — a failed CAS is a
    /// load of the newest store with `failure`).
    #[track_caller]
    pub fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        rt::schedule("AtomicPtr::compare_exchange", true, Location::caller());
        let r = self.inner.compare_exchange(current, new, SeqCst, SeqCst);
        let (old, stored) = match r {
            Ok(old) => (old, Some(new as u64)),
            Err(old) => (old, None),
        };
        rt::weak_rmw(
            self.addr(),
            old as u64,
            stored,
            rt::ord_class(success),
            rt::ord_class(failure),
        );
        r
    }

    /// Weak compare-and-exchange; never fails spuriously in the model.
    #[track_caller]
    pub fn compare_exchange_weak(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        self.compare_exchange(current, new, success, failure)
    }

    /// Fetch-and-update as a single atomic RMW (schedule point; write).
    #[track_caller]
    pub fn fetch_update<F>(
        &self,
        set_order: Ordering,
        fetch_order: Ordering,
        f: F,
    ) -> Result<*mut T, *mut T>
    where
        F: FnMut(*mut T) -> Option<*mut T>,
    {
        rt::schedule("AtomicPtr::fetch_update", true, Location::caller());
        let r = self.inner.fetch_update(SeqCst, SeqCst, f);
        let (old, stored) = match r {
            Ok(old) => (old, Some(self.inner.load(SeqCst) as u64)),
            Err(old) => (old, None),
        };
        rt::weak_rmw(
            self.addr(),
            old as u64,
            stored,
            rt::ord_class(set_order),
            rt::ord_class(fetch_order),
        );
        r
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
