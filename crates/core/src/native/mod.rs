//! Native (real-atomics) implementations of the paper's algorithms, for
//! use as an actual synchronization library and for wall-clock
//! benchmarks.
//!
//! | type | paper artifact |
//! |---|---|
//! | [`CcChainKex`]  | Figure 2 chain — Theorem 1 |
//! | [`DsmChainKex`] | Figure 6 chain — Theorem 5 (all spinning on per-process, padded locations) |
//! | [`TreeKex`]     | Figure 3(a) tree — Theorems 2/6 |
//! | [`FastPathKex`] | Figure 4 fast path over the tree — Theorems 3/7 |
//! | [`GracefulKex`] | Figure 4 over itself, population shrinking by `k` — Theorems 4/8 (the same node: [`Fig4Kex`]) |
//! | [`QueueKex`]    | Figure 1 baseline (mutex-guarded queue) |
//! | [`SemaphoreKex`]| OS counting-semaphore baseline |
//! | [`TasRenaming`] | Figure 7 long-lived renaming |
//! | [`KAssignment`] | k-assignment — Theorems 9/10 |
//! | [`Resilient`]   | the §1 resilient-object methodology |
//!
//! That is the paper's stack plus the two k-exclusion baselines. The
//! §5 k = 1 reference locks (MCS \[12\], Yang–Anderson \[14\]) exist only
//! as simulator protocols, [`mod@crate::sim::mcs`] and
//! [`mod@crate::sim::yang_anderson`], where their remote references are
//! counted exactly.
//!
//! The compositions are static: [`TreeKex`] and [`Fig4Kex`] are generic
//! over one [`Block`] type ([`CcChainKex`] by default, [`DsmChainKex`]
//! for the DSM theorems) and [`KAssignment`] over its [`RawKex`], all
//! held by value.
//!
//! All algorithms name their memory orderings through the audited
//! constants in the private `ordering` module: acquire/release/relaxed
//! where a site-local pairing argument proves them sufficient, `SeqCst`
//! where the paper's cross-variable reasoning genuinely needs the
//! single total order (see `docs/MEMORY_ORDERING.md` for the
//! site-by-site audit). Atomics are imported through the loom-swappable
//! facade in [`kex_util::sync`] — never `std::sync::atomic` directly. Their
//! interleaving-level correctness is established three ways: exhaustively
//! on the statement-exact simulator versions in [`crate::sim`],
//! exhaustively on *this* code under the loom model checker
//! (`tests/loom_models.rs`, built with `RUSTFLAGS="--cfg loom"`), and by
//! real-thread stress tests here.

mod assignment;
mod chain;
mod fast_path;
mod fig1;
mod fig2;
mod fig6;
mod ordering;
mod raw;
mod renaming;
mod resilient;
mod semaphore;
#[cfg(test)]
pub(crate) mod testutil;
mod tree;

pub use assignment::{KAssignment, NameGuard};
pub use fast_path::{FastPathKex, Fig4Kex, GracefulKex};
pub use fig1::QueueKex;
pub use fig2::CcChainKex;
pub use fig6::DsmChainKex;
pub use raw::{Block, KexGuard, RawKex};
pub use renaming::TasRenaming;
pub use resilient::{Resilient, ResilientGuard};
pub use semaphore::SemaphoreKex;
pub use tree::TreeKex;
