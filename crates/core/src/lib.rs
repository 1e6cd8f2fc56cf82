//! # kex-core — resilient, scalable shared objects via k-exclusion
//!
//! A full implementation of Anderson & Moir, *"Using k-Exclusion to
//! Implement Resilient, Scalable Shared Objects"* (PODC 1994).
//!
//! The paper's proposal: instead of paying the `O(N)` costs of wait-free
//! object implementations, wrap a wait-free **k-process** object in a
//! **k-assignment** wrapper — a `k`-exclusion algorithm extended with
//! long-lived renaming — so that up to `k-1` undetected crash failures
//! are tolerated, and the object is *effectively wait-free* whenever
//! contention stays at or below `k`. The enabling contribution is a
//! family of **local-spin** k-exclusion algorithms whose remote-memory-
//! reference (RMR) complexity is bounded on both cache-coherent and
//! distributed shared-memory machines.
//!
//! Two parallel implementations are provided:
//!
//! * [`sim`] — statement-exact renditions of the paper's Figures 1–7 over
//!   the `kex-sim` simulator, with per-access RMR accounting under both
//!   machine models, exhaustive model checking, and failure injection.
//!   These regenerate the paper's Table 1 and theorem bounds.
//! * [`native`] — the cache-coherent stack of those algorithms (Figures
//!   2, 4 and 7 and the tree, plus the Figure-1 baseline) over real
//!   `std::sync::atomic` operations with cache-line padding, for use as
//!   an actual synchronization library and for wall-clock scalability
//!   benchmarks.
//!
//! ## Quickstart (native)
//!
//! ```rust
//! use kex_core::native::{FastPathKex, RawKex};
//! use std::sync::Arc;
//!
//! // 8 threads, at most 3 in the protected section at a time.
//! let kex = Arc::new(FastPathKex::new(8, 3));
//! let handles: Vec<_> = (0..8)
//!     .map(|p| {
//!         let kex = Arc::clone(&kex);
//!         std::thread::spawn(move || {
//!             for _ in 0..100 {
//!                 let _guard = kex.enter(p);
//!                 // ... at most 3 threads are ever here together ...
//!             }
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod native;
pub mod obs;
pub mod sim;
