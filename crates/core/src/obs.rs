//! Section-span shim for the native algorithms.
//!
//! The native layer annotates its protocol sections — entry section,
//! exit section, critical section — by opening a [`span`] at the
//! boundary and holding the guard for the section's duration. What a
//! span *does* depends on the build:
//!
//! * `--features obs` (and not loom): re-exports `kex_obs`'s real spans.
//!   While a span is live, every facade atomic operation and spin
//!   iteration on the thread is attributed to the `(process, section)`
//!   pair, and top-level spans record latency, completion counts, and
//!   the critical-section occupancy gauge.
//! * default build, or any build under `RUSTFLAGS="--cfg loom"`: the
//!   two items below — a fieldless guard with no `Drop` impl and an
//!   `#[inline(always)]` constructor. The annotation compiles to
//!   nothing: no state, no branches, no schedule points. Keeping the
//!   shim inert under loom is what guarantees observability can never
//!   perturb model-checked interleavings
//!   (`tests/loom_models.rs::obs_spans_do_not_perturb_schedules`).
//!
//! The section labels are `kex_obs`'s own in every build.
//!
//! Algorithms use it as:
//!
//! ```rust
//! # let p = 0usize;
//! let _obs = kex_core::obs::span(kex_core::obs::Section::Entry, p);
//! // ... entry-section ops, attributed to (p, entry) when enabled ...
//! drop(_obs);
//! ```

pub use kex_obs::Section;

#[cfg(all(feature = "obs", not(loom)))]
pub use kex_obs::{span, SpanGuard};

/// Inert span guard: a zero-sized type with no `Drop` impl, so the
/// whole annotation is erased at compile time.
#[cfg(not(all(feature = "obs", not(loom))))]
#[derive(Debug)]
#[must_use = "a span guard attributes operations only while it is live"]
pub struct SpanGuard(());

/// Opens a no-op span.
#[cfg(not(all(feature = "obs", not(loom))))]
#[inline(always)]
pub fn span(_section: Section, _pid: usize) -> SpanGuard {
    SpanGuard(())
}
