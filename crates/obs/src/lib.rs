//! # kex-obs — lock-free runtime observability for the native layer
//!
//! The paper's entire evaluation is *remote-memory-reference* (RMR)
//! accounting: Table 1 and Theorems 1–10 bound the number of remote
//! shared-memory accesses per critical-section acquisition under the
//! cache-coherent (CC) and distributed-shared-memory (DSM) machine
//! models. The statement-exact simulator (`kex-sim`) counts those
//! references precisely, under both models, but only for protocol IR
//! programs. This crate makes the *native* Rust implementations — the
//! cache-coherent stack — observable at runtime:
//!
//! * [`atomic`] — drop-in instrumented replacements for
//!   `std::sync::atomic` types. Every operation increments per-process,
//!   per-section counters (op kind and **estimated** CC remote
//!   references) and then performs the real hardware operation with the
//!   caller's ordering. The estimator mirrors `kex-sim`'s
//!   `classify_read`/`classify_write` CC rules exactly, with a
//!   per-variable holder bitmask. DSM costs are the simulator's: a CC
//!   host running native code cannot reproduce that model.
//! * [`span`] — scoped section annotation. The native algorithms open a
//!   span at each section boundary (entry section, exit section,
//!   critical section); while the span is live, every instrumented
//!   operation and spin iteration on that thread is attributed to the
//!   `(process, section)` pair. Spans nest; only the outermost span of a
//!   section records latency and completion.
//! * Per-process fixed-bucket latency **histograms** (power-of-two
//!   nanosecond buckets, allocation-free) and a critical-section
//!   **occupancy gauge** (current / high-water, the native analogue of
//!   the simulator's occupancy invariant).
//! * [`snapshot()`] / [`reset()`] — a consistent-enough copy of every
//!   counter, renderable to JSON ([`Snapshot::to_json`]) with the
//!   dependency-free writer in [`json`]. `kex-core`'s `obs_bounds` test
//!   reduces it to a per-algorithm mean against the theorem bounds.
//!
//! ## This crate is a *backend*, not a public dependency
//!
//! Algorithm code never imports `kex_obs` directly: it imports
//! `kex_util::sync::atomic` and `kex_util::sync::hint`, and the facade
//! selects this crate when built with `--features obs` (and `std` or
//! `kex-loom` otherwise). Under `cfg(loom)` the facade always prefers
//! the model checker and the span shim in `kex-core` compiles to a
//! no-op, so observability can never perturb model-checked
//! interleavings.
//!
//! ## Memory ordering of the instrumentation itself
//!
//! All bookkeeping uses `Relaxed` operations on independent counters:
//! the instrumentation never synchronizes anything and adds no fences
//! beyond the instrumented operation itself (which runs with the
//! caller's requested ordering, unchanged). Counter visibility to a
//! snapshotting thread is established by whatever synchronization the
//! benchmark already performs (typically `JoinHandle::join`).
//!
//! ## Accuracy of the RMR estimator
//!
//! The estimates are *estimates*: the holder-bitmask update itself races
//! benignly with concurrent accesses to the same variable, `fetch_update`
//! is counted as one RMW even when the underlying CAS loop retries (and
//! as one read when its closure declines to write), and
//! processes with ids ≥ [`MAX_PIDS`] are counted as always-remote under
//! CC. See `docs/OBSERVABILITY.md` for how the numbers relate to the
//! simulator's exact counts and the Table 1 formulas.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod atomic;
mod counters;
mod hist;
pub mod json;
mod snapshot;

pub use counters::{span, Section, SpanGuard};
pub use snapshot::{
    snapshot, HistSnapshot, OccupancySnapshot, PidSnapshot, SectionTotals, Snapshot,
};

/// Maximum number of distinct process ids tracked individually.
///
/// Matches the simulator's `MAX_PROCESSES` (the CC holder sets are `u64`
/// bitmasks). Operations attributed to pids at or above this limit — or
/// performed outside any [`span`] — land in the shared *untracked*
/// bucket and are counted as CC-remote.
pub const MAX_PIDS: usize = 64;

/// Spin-hint shim for the instrumented backend: counts the iteration
/// against the current `(process, section)` context, then issues the
/// real `std::hint::spin_loop`.
pub mod hint {
    /// Counted spin hint; see the module docs.
    #[inline]
    pub fn spin_loop() {
        crate::counters::record_spin();
        std::hint::spin_loop();
    }
}

/// Resets every counter, histogram, and the occupancy high-water mark
/// to zero.
///
/// Call this between benchmark phases **while no instrumented code is
/// running**: resetting under concurrent activity is memory-safe but
/// yields torn numbers. The CC holder masks live inside the
/// instrumented atomics themselves and are *not* cleared — cache state
/// survives a reset, exactly like real hardware surviving a counter
/// reset.
pub fn reset() {
    counters::reset();
}

#[cfg(test)]
pub(crate) mod testlock {
    //! Counters are process-global, so tests that assert exact values
    //! serialize on this lock (and tolerate reset races by holding it
    //! across reset + work + snapshot).
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
