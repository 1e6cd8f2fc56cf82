//! Named ordering constants for the store layer.
//!
//! Mirrors `kex_core::native::ordering` and `kex-waitfree`'s module of
//! the same name: every non-test atomic access in this crate names its
//! ordering through a constant defined here instead of spelling a
//! literal `Ordering::*`, so the kex-lint ordering-policy pass can
//! audit the crate the same way it audits the native hot paths. Cells
//! that up to `k` admitted writers race (`KvCells`' packed key/value
//! slots) are [`SEQ_CST`], with no per-site relaxation argument
//! attempted; what one writer at a time publishes is relaxed under
//! `docs/MEMORY_ORDERING.md`'s policy: a journal lane (rule 1, argued
//! in that file's "store layer" section), the tallies (rule 2).

use kex_util::sync::atomic::Ordering;

/// Every cell two processes can write at once.
pub(crate) const SEQ_CST: Ordering = Ordering::SeqCst;

/// A lane's `meta` and `head` stores: publish the entry's payload to an
/// [`ACQUIRE`] load of the same word.
pub(crate) const RELEASE: Ordering = Ordering::Release;

/// Every journal load.
pub(crate) const ACQUIRE: Ordering = Ordering::Acquire;

/// Written by one process at a time: a journal entry's payload, which the
/// [`RELEASE`] store after it publishes, and the monitoring tallies.
pub(crate) const RELAXED: Ordering = Ordering::Relaxed;
