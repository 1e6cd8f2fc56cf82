//! Native (real-atomics) implementations of the paper's algorithms, for
//! use as an actual synchronization library and for wall-clock
//! benchmarks.
//!
//! | type | paper artifact |
//! |---|---|
//! | [`CcChainKex`]  | Figure 2 chain — Theorem 1 |
//! | [`TreeKex`]     | Figure 3(a) tree of Figure-2 chains — Theorem 2 |
//! | [`FastPathKex`] | Figure 4 fast path over the tree — Theorem 3 |
//! | [`QueueKex`]    | Figure 1 baseline (mutex-guarded queue) |
//! | [`SemaphoreKex`]| OS counting-semaphore baseline |
//! | [`TasRenaming`] | Figure 7 long-lived renaming |
//! | [`KAssignment`] | k-assignment — Theorem 9 |
//! | [`Resilient`]   | the §1 resilient-object methodology |
//!
//! That is what the store runs, `Resilient` → `KAssignment` →
//! `FastPathKex` → `CcChainKex`, plus the two k-exclusion baselines.
//! The rest of the paper's constructions — Figure 6 and the DSM
//! compositions (Theorems 5–8, 10), the nested Figure-4 node (Theorems
//! 4/8) and the §5 k = 1 reference locks (MCS \[12\], Yang–Anderson
//! \[14\]) — are claims about remote references on a cost model, and
//! exist only as simulator protocols in [`crate::sim`], where those are
//! counted exactly and explored exhaustively.
//!
//! The compositions are static: [`TreeKex`] and [`FastPathKex`] hold
//! their [`CcChainKex`] blocks by value, and [`KAssignment`] its
//! [`FastPathKex`].
//!
//! Every atomic access names its memory ordering by the role it plays,
//! as a [`kex_util::ord`] constant: acquire/release/relaxed where a
//! site-local pairing argument proves them sufficient, `SeqCst` where
//! the paper's cross-variable reasoning genuinely needs the single
//! total order (see `docs/MEMORY_ORDERING.md` for the site-by-site
//! audit). Atomics are imported through the loom-swappable
//! facade in [`kex_util::sync`] — never `std::sync::atomic` directly. Their
//! interleaving-level correctness is established three ways: exhaustively
//! on the statement-exact simulator versions in [`crate::sim`],
//! exhaustively on *this* code under the loom model checker
//! (`tests/loom_models.rs`, built with `RUSTFLAGS="--cfg loom"`), and by
//! real-thread stress tests here.

mod assignment;
mod fast_path;
mod fig1;
mod fig2;
mod raw;
mod renaming;
mod resilient;
mod semaphore;
#[cfg(test)]
pub(crate) mod testutil;
mod tree;

pub use assignment::{KAssignment, NameGuard};
pub use fast_path::FastPathKex;
pub use fig1::QueueKex;
pub use fig2::CcChainKex;
pub use raw::{KexGuard, RawKex};
pub use renaming::TasRenaming;
pub use resilient::{Resilient, ResilientGuard};
pub use semaphore::SemaphoreKex;
pub use tree::TreeKex;
