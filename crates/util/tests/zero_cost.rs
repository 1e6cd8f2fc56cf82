//! Proof that the disabled observability backend is zero-cost.
//!
//! The strongest possible "no fields, no ops" argument is definitional:
//! with `--features obs` off (and outside loom), the facade's atomic
//! re-exports *are* `std::sync::atomic` — the same `TypeId`, therefore
//! the same layout and the same codegen for every operation. There is
//! no wrapper to optimize away because there is no wrapper.
//!
//! With the feature on, the inverse is pinned: the instrumented types
//! are distinct, carry exactly one word beside the value (the CC holder
//! mask), and actually count — so the feature cannot silently decay
//! into a no-op either.

#![cfg(not(loom))]

use std::any::TypeId;
use std::mem::size_of;

use kex_util::sync;

#[cfg(not(feature = "obs"))]
#[test]
fn disabled_backend_is_exactly_std() {
    use std::mem::align_of;

    macro_rules! same_type {
        ($name:ident) => {
            assert_eq!(
                TypeId::of::<sync::atomic::$name>(),
                TypeId::of::<std::sync::atomic::$name>(),
                concat!(
                    "facade ",
                    stringify!($name),
                    " must BE std's type when obs is disabled"
                ),
            );
            assert_eq!(
                size_of::<sync::atomic::$name>(),
                size_of::<std::sync::atomic::$name>(),
            );
            assert_eq!(
                align_of::<sync::atomic::$name>(),
                align_of::<std::sync::atomic::$name>(),
            );
        };
    }
    same_type!(AtomicBool);
    same_type!(AtomicU8);
    same_type!(AtomicU32);
    same_type!(AtomicU64);
    same_type!(AtomicI64);
    same_type!(AtomicUsize);
    same_type!(AtomicIsize);
    assert_eq!(
        TypeId::of::<sync::atomic::AtomicPtr<u8>>(),
        TypeId::of::<std::sync::atomic::AtomicPtr<u8>>(),
    );
    assert_eq!(
        size_of::<sync::atomic::AtomicPtr<u8>>(),
        size_of::<std::sync::atomic::AtomicPtr<u8>>(),
    );
}

#[cfg(not(feature = "obs"))]
#[test]
fn disabled_spin_hint_is_std() {
    // The shim path exists and costs a plain `std::hint::spin_loop`;
    // nothing to count, nothing counted.
    sync::hint::spin_loop();
    let x = sync::atomic::AtomicUsize::new(0);
    assert_eq!(x.load(sync::atomic::Ordering::SeqCst), 0);
}

#[cfg(feature = "obs")]
#[test]
fn instrumented_backend_is_distinct_and_counts() {
    use sync::atomic::Ordering::SeqCst;

    assert_ne!(
        TypeId::of::<sync::atomic::AtomicUsize>(),
        TypeId::of::<std::sync::atomic::AtomicUsize>(),
        "obs backend must not alias std's type",
    );
    assert_eq!(
        size_of::<sync::atomic::AtomicUsize>(),
        2 * size_of::<usize>(),
        "an instrumented atomic is the value plus the CC holder mask, nothing more",
    );

    let before = kex_obs::snapshot()
        .section_totals(kex_obs::Section::Entry)
        .rmws;
    let x = sync::atomic::AtomicUsize::new(0);
    {
        let _span = kex_obs::span(kex_obs::Section::Entry, 0);
        x.fetch_add(1, SeqCst);
        sync::hint::spin_loop();
    }
    let snap = kex_obs::snapshot();
    let entry = snap.section_totals(kex_obs::Section::Entry);
    assert!(entry.rmws > before, "instrumented RMW was counted");
    assert!(entry.spins >= 1, "instrumented spin hint was counted");
}
