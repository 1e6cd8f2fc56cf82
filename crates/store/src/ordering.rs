//! Named ordering constants for the store layer.
//!
//! Mirrors `kex_core::native::ordering` and `kex-waitfree`'s module of
//! the same name: every non-test atomic access in this crate names its
//! ordering through a constant defined here instead of spelling a
//! literal `Ordering::*`, so the kex-lint ordering-policy pass can
//! audit the crate the same way it audits the native hot paths. The
//! store's shared cells — packed key/value slots raced by up to `k`
//! admitted writers, journal lane heads read cross-process for crash
//! attribution — are [`SEQ_CST`], with no per-site relaxation argument
//! attempted; the one exception is state only its owner writes, under
//! rule 2 of `docs/MEMORY_ORDERING.md`'s relaxation policy.

use kex_util::sync::atomic::Ordering;

/// Every cell two processes can both write, or that one writes for
/// another to act on.
pub(crate) const SEQ_CST: Ordering = Ordering::SeqCst;

/// Owner-private state, atomic only for `Sync`: one process writes the
/// cell, so it is a plain register, and its readers (`Shard::stats`)
/// are monitoring reads that decide nothing and publish nothing.
pub(crate) const RELAXED: Ordering = Ordering::Relaxed;
