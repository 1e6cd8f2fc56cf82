//! # kex-util — dependency-free concurrency utilities
//!
//! The workspace builds offline, so the handful of external helpers the
//! native algorithms and schedulers need are provided here instead:
//!
//! * [`CachePadded`] — align a value to a cache-line-sized boundary so
//!   per-process slots never share a line (false sharing would corrupt
//!   the RMR story the native benchmarks tell).
//! * [`Backoff`] — bounded exponential spin/yield backoff for busy-wait
//!   loops, routed through the [`sync::hint`] shim so the same loops are
//!   explorable under the loom model checker.
//! * [`sync`] — the backend-swappable synchronization facade:
//!   non-poisoning [`sync::Mutex`] / [`sync::Condvar`],
//!   [`sync::atomic`], [`sync::hint`], and [`sync::thread`];
//!   `std`-backed normally, `kex-loom`-backed under
//!   `RUSTFLAGS="--cfg loom"`, `kex-obs`-instrumented under
//!   `--features obs` (loom wins when both apply).
//! * [`ord`] — the memory orderings every audited atomic access names,
//!   one module per role, each exporting only what its role admits.
//! * [`prefetch`] — a cache hint for the line holding a value: one
//!   `prefetcht0` on x86_64, nothing elsewhere or under miri.
//! * [`prefetch_write`] — the same hint with intent to write: one
//!   `prefetchw` on x86_64 parts that have it. `Universal` calls it on
//!   the node its name's next op fills, so a warm op's node write finds
//!   its line already exclusive instead of invalidating the copy the
//!   other name's walk left. The crate denies `unsafe_code` and allows
//!   it on one private function that both hints call, there only
//!   because the intrinsic carries the `sse` target feature every
//!   x86_64 target has and `prefetchw` is inline assembly.
//! * [`rng`] — a small deterministic PRNG ([`rng::SmallRng`]) for
//!   reproducible randomized schedules and tests.
//! * [`Sequential`] — what a sequential specification is: the input of
//!   `kex-waitfree`'s universal construction and what a recorded history
//!   is judged against.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

#[doc(hidden)]
pub mod lincheck;
pub mod ord;
pub mod rng;
pub mod sync;

use std::cell::Cell;
use std::ops::{Deref, DerefMut};

/// A deterministic sequential object.
///
/// `apply` must be a pure function of the object state and the operation:
/// replaying the same operation sequence from [`Default::default`] must
/// always produce the same states and responses. (No randomness, no
/// clocks, no interior mutability.)
pub trait Sequential: Default + Clone {
    /// The operation type (the "invocation"). Cloned freely by helpers.
    type Op: Clone + Send + Sync;
    /// The response type.
    type Resp;

    /// Apply one operation, mutating the state and producing a response.
    fn apply(&mut self, op: &Self::Op) -> Self::Resp;
}

/// Pads and aligns a value to (at least) a cache-line boundary.
///
/// 128 bytes covers the common cases: 64-byte lines with adjacent-line
/// prefetching on x86, and 128-byte lines on several ARM parts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Pads `value` to a cache-line boundary.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Returns the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

/// Hints the CPU to pull the cache line holding `value` into every
/// cache level, ahead of a later access that would miss.
///
/// A hint only: it changes no memory, never faults (a zero-sized
/// value's dangling address included) and is not an atomic access, so
/// the `obs` backend counts nothing and the loom backend sees no step.
/// On x86_64 it is one `prefetcht0`, which — unlike a load — a later
/// locked instruction does not wait for; elsewhere, and under miri, it
/// does nothing.
///
/// ```
/// let cells: Vec<u64> = (0..4096).collect();
/// kex_util::prefetch(cells.last().unwrap());
/// assert_eq!(cells[4095], 4095);
/// kex_util::prefetch(&());
/// ```
#[inline]
pub fn prefetch<T>(value: &T) {
    hint::<false, T>(value);
}

/// Hints the CPU to take the cache line holding `value` for writing:
/// into this core's cache, exclusive, so that a later write to it does
/// not wait for another core's copy to be invalidated.
///
/// The same kind of hint as [`prefetch`] (no memory changed, no fault,
/// no atomic access): on x86_64 it is one `prefetchw` where CPUID
/// reports `PRFCHW` (read once) and a `prefetcht0` where it does not;
/// elsewhere, and under miri, it does nothing.
///
/// ```
/// let mut cells: Vec<u64> = (0..4096).collect();
/// kex_util::prefetch_write(cells.last().unwrap());
/// assert_eq!(cells[4095], 4095);
/// cells[4095] = 0;
/// kex_util::prefetch_write(&());
/// ```
#[inline]
pub fn prefetch_write<T>(value: &T) {
    hint::<true, T>(value);
}

/// Whether this x86_64 part has `prefetchw` (CPUID `0x8000_0001`,
/// ECX bit 8): not every one does, and the opcode is only defined where
/// the bit is set.
#[cfg(all(target_arch = "x86_64", not(miri)))]
fn prfchw() -> bool {
    use std::arch::x86_64::__cpuid;
    const LEAF: u32 = 0x8000_0001;
    __cpuid(0x8000_0000).eax >= LEAF && __cpuid(LEAF).ecx & 1 << 8 != 0
}

/// The one `unsafe` site of the crate: both prefetch hints.
#[inline(always)]
#[allow(unsafe_code)]
fn hint<const WRITE: bool, T>(value: &T) {
    let at: *const T = value;
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    // SAFETY: `prefetchw` runs only where CPUID says it exists, and
    // `_mm_prefetch` is gated only on its `sse` target feature, which
    // every x86_64 target enables. A prefetch of any address neither
    // faults nor writes, and touches no register but its operand.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        static PRFCHW: std::sync::LazyLock<bool> = std::sync::LazyLock::new(prfchw);
        if WRITE && *PRFCHW {
            // Not `_MM_HINT_ET0`: without the `prfchw` target feature it
            // compiles to `prefetcht0`.
            std::arch::asm!(
                "prefetchw byte ptr [{}]",
                in(reg) at,
                options(nostack, preserves_flags, readonly)
            );
        } else {
            _mm_prefetch::<_MM_HINT_T0>(at.cast());
        }
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = at;
}

/// Last step of [`Backoff`]'s busy-spin phase (`2^SPIN_LIMIT` hints);
/// past it a snooze yields to the OS.
///
/// `{2, 6}` stands on a 2-vCPU measurement (`EXPERIMENTS.md` E18's
/// sizing table): raising `SPIN_LIMIT` from 2 to 6 was level on the
/// benchmark's `hot_shard_handoff` and `crash_degraded` workloads, the
/// two where a client waits for another, so the short spin phase stays.
/// It catches a holder running on another core without a `yield`
/// syscall, and yields early to one that is descheduled.
const SPIN_LIMIT: u32 = 2;
/// Step at which backoff growth stops (the steady yield phase).
const YIELD_LIMIT: u32 = 6;

/// Exponential backoff for spin loops: spin for a while, then start
/// yielding the thread to the OS scheduler.
#[derive(Debug)]
pub struct Backoff {
    step: Cell<u32>,
}

impl Backoff {
    /// A fresh backoff in the spinning phase.
    pub fn new() -> Self {
        Backoff { step: Cell::new(0) }
    }

    /// Resets to the spinning phase.
    pub fn reset(&self) {
        self.step.set(0);
    }

    /// Backs off, spinning at first and yielding to the OS once the
    /// spin budget is exhausted. Call this in a loop that waits for
    /// another thread's progress.
    ///
    /// Under `cfg(loom)` every call is a single [`sync::hint::spin_loop`]
    /// yield point: the model has no notion of wasted cycles, and one
    /// hint per loop iteration is exactly the granularity the checker's
    /// spin-pruning reduction wants.
    pub fn snooze(&self) {
        let step = self.step.get();
        if step <= SPIN_LIMIT {
            #[cfg(not(loom))]
            for _ in 0..1u32 << step {
                crate::sync::hint::spin_loop();
            }
            #[cfg(loom)]
            crate::sync::hint::spin_loop();
        } else {
            crate::sync::thread::yield_now();
        }
        if step <= YIELD_LIMIT {
            self.step.set(step + 1);
        }
    }

    /// Backs off without ever yielding (pure spinning); for loops where
    /// the wait is known to be short.
    pub fn spin(&self) {
        let step = self.step.get().min(SPIN_LIMIT);
        #[cfg(not(loom))]
        for _ in 0..1u32 << step {
            crate::sync::hint::spin_loop();
        }
        #[cfg(loom)]
        crate::sync::hint::spin_loop();
        if step <= SPIN_LIMIT {
            self.step.set(step + 1);
        }
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_is_aligned_and_transparent() {
        let x = CachePadded::new(7u64);
        assert_eq!(*x, 7);
        assert_eq!(x.into_inner(), 7);
        assert!(std::mem::align_of::<CachePadded<u8>>() >= 128);
        let boxed: Vec<CachePadded<u8>> = vec![CachePadded::new(1), CachePadded::new(2)];
        let a = &*boxed[0] as *const u8 as usize;
        let b = &*boxed[1] as *const u8 as usize;
        assert!(b - a >= 128, "adjacent elements share a cache line");
    }

    #[test]
    fn backoff_progresses_and_resets() {
        let b = Backoff::new();
        for _ in 0..20 {
            b.snooze();
        }
        assert_eq!(
            b.step.get(),
            YIELD_LIMIT + 1,
            "growth stops past YIELD_LIMIT"
        );
        b.reset();
        assert_eq!(b.step.get(), 0);
        b.spin();
        assert_eq!(b.step.get(), 1);
    }
}
