//! # kex — resilient, scalable shared objects via local-spin k-exclusion
//!
//! Umbrella crate for the reproduction of Anderson & Moir, *"Using
//! k-Exclusion to Implement Resilient, Scalable Shared Objects"*
//! (PODC 1994). It re-exports the three component crates:
//!
//! * [`core`] (`kex-core`) — the paper's k-exclusion, renaming,
//!   k-assignment, and resilient-object algorithms, in both
//!   statement-exact simulator form and native-atomics form.
//! * [`sim`] (`kex-sim`) — the shared-memory simulator with remote-
//!   memory-reference accounting, failure injection, and a model checker.
//! * [`waitfree`] (`kex-waitfree`) — wait-free k-process objects to wrap.
//!
//! See the repository's `README.md` for the quickstart, `DESIGN.md` for
//! the system inventory, and `EXPERIMENTS.md` for the paper-vs-measured
//! record of every table and theorem bound.
//!
//! ```rust
//! use kex::core::native::Resilient;
//! use kex::waitfree::SlotCounter;
//!
//! // 16 threads; tolerate up to 2 crash failures (k = 3).
//! let counter = Resilient::new(16, 3, SlotCounter::new(3));
//! counter.with(5, |c, name| c.add(name, 1));
//! assert_eq!(counter.object_unguarded().read(), 1);
//! ```

#![warn(missing_docs)]

pub use kex_core as core;
pub use kex_sim as sim;
pub use kex_waitfree as waitfree;

/// Runtime observability (`kex-obs`): spans, counters, the CC RMR
/// estimator, and the JSON snapshot. Only present with `--features obs`, which also
/// routes every algorithm's atomics through the instrumented backend;
/// see `docs/OBSERVABILITY.md`.
#[cfg(feature = "obs")]
pub use kex_obs as obs;
