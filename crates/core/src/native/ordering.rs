//! The audited memory orderings of the native hot paths.
//!
//! Every atomic call site in `crates/core/src/native/` names its
//! ordering through these constants instead of `Ordering::*` literals.
//! The per-site justification lives in `docs/MEMORY_ORDERING.md`; the
//! constants are the audited orderings: acquire/release/relaxed where a
//! site-local argument proves them sufficient, `SeqCst` where the
//! paper's cross-variable reasoning genuinely needs the single total
//! order.
//!
//! Relaxation policy (enforced by review + the loom suite + TSan CI):
//!
//! * a site may use [`ACQUIRE`]/[`RELEASE`] only when its
//!   synchronizes-with partner is identified in the audit table and the
//!   pairing alone carries the property the proof needs (typically the
//!   critical-section data handoff);
//! * a site may use [`RELAXED`] only when it is owner-private (stored
//!   atomically purely for `Sync`) or ordered by an enclosing facade
//!   `Mutex`;
//! * any site whose argument spans *three or more* variables (Figure
//!   6's announce-then-verify `R`/`Q`/`P` handshake and its `X`
//!   re-check) stays [`SEQ_CST`]: mixed-ordering executions of those
//!   shapes are `Z6.U`-style litmus tests that the C++ model permits to
//!   go wrong even though common hardware does not, and we refuse to
//!   rely on hardware folklore.
//!
//! Under `cfg(loom)` the checker explores every site with the ordering
//! it passes (a C11-fragment memory model; the sequentially consistent
//! interleavings are a subset of what it explores), so the loom models
//! verify the acquire/release pairings as well as the algorithmic
//! content of every site; the TSan CI job exercises the same pairings
//! on real hardware, and the audit table argues them site-locally.

use kex_util::sync::atomic::Ordering;

/// Spin-loop and handoff-observing loads; pairs with a [`RELEASE`] (or
/// stronger) store named in the audit table.
pub(crate) const ACQUIRE: Ordering = Ordering::Acquire;

/// Wakeup/handoff stores publishing the writer's prior work (including
/// critical-section data) to the [`ACQUIRE`] reader named in the audit
/// table.
pub(crate) const RELEASE: Ordering = Ordering::Release;

/// Owner-private state (atomic only for `Sync`) and mutex-ordered
/// flags; carries no synchronization of its own.
pub(crate) const RELAXED: Ordering = Ordering::Relaxed;

/// Same-location RMW chains (credit counters, queue tails) where
/// coherence already totally orders the operations and the RMW only
/// additionally needs to give/take the data-handoff edge.
pub(crate) const ACQ_REL: Ordering = Ordering::AcqRel;

/// Sites where the proof's interleaving argument runs through the
/// sequentially consistent total order across *different* variables —
/// never weakened.
pub(crate) const SEQ_CST: Ordering = Ordering::SeqCst;
