//! Memory orderings named by the role an access plays.
//!
//! Every atomic access in `kex-core`'s native layer, `kex-store` and
//! `kex-waitfree` names its ordering `ord::<role>::<CONST>`, never a
//! literal `Ordering::*`. A role module exports only the orderings its
//! role admits, so an ordering the role does not admit does not compile
//! and a role change is an edit of the token. `kex-lint` reads a native
//! site's role from its token; `docs/MEMORY_ORDERING.md` argues its
//! ordering. There is no role-less constant:
//!
//! ```compile_fail,E0425
//! let _ = kex_util::ord::SEQ_CST; // which role?
//! ```
//!
//! Relaxation policy. An access is weaker than `SeqCst` only under one
//! of three site-local arguments:
//!
//! * **pairing identified** — [`spin::ACQUIRE`] / [`publish::RELEASE`]
//!   where the synchronizes-with partner is named in the audit table
//!   and that pairing alone carries what the proof needs (typically the
//!   critical-section data handoff);
//! * **owner-private or lock-ordered** — [`private::RELAXED`] where only
//!   the owner reads the value, or an enclosing facade `Mutex` (or a
//!   later publishing write) orders it;
//! * **same-location RMW chain** — [`counter::ACQ_REL`] where coherence
//!   already totally orders the RMWs and the RMW only gives and takes
//!   the handoff edge.
//!
//! An argument that spans *three or more* variables stays
//! [`handshake::SEQ_CST`]: those are `Z6.U`-style litmus shapes the C++
//! model lets go wrong even where hardware does not. Under `cfg(loom)`
//! the model checker explores every access with the ordering it passes;
//! the TSan CI job exercises the same pairings on real hardware.

use crate::sync::atomic::Ordering;

/// The acquire side of a handoff: a read in a wait loop, or a probe.
///
/// ```compile_fail,E0425
/// let _ = kex_util::ord::spin::RELAXED; // would see the flag, not the data
/// ```
pub mod spin {
    use super::Ordering;
    /// Pairs with a release (or stronger) write named in the audit table.
    pub const ACQUIRE: Ordering = Ordering::Acquire;
    /// A handoff read that is also in the single total order.
    pub const SEQ_CST: Ordering = Ordering::SeqCst;
}

/// The release side of a handoff: a write a reader acquires.
///
/// ```compile_fail,E0425
/// let _ = kex_util::ord::publish::ACQUIRE; // a publishing write has no acquire half
/// ```
pub mod publish {
    use super::Ordering;
    /// Publishes the writer's prior work to the acquire read it pairs with.
    pub const RELEASE: Ordering = Ordering::Release;
    /// A handoff write that is also in the single total order.
    pub const SEQ_CST: Ordering = Ordering::SeqCst;
}

/// An access whose argument runs through the single total order across
/// variables, or that races other writers of its cell.
///
/// ```compile_fail,E0425
/// let _ = kex_util::ord::handshake::ACQ_REL; // gives no total order
/// ```
pub mod handshake {
    use super::Ordering;
    /// Never weakened.
    pub const SEQ_CST: Ordering = Ordering::SeqCst;
}

/// An RMW whose atomicity on one location carries the protocol.
///
/// ```compile_fail,E0425
/// let _ = kex_util::ord::counter::RELAXED; // the RMW chain must still hand off
/// ```
pub mod counter {
    use super::Ordering;
    /// Gives and takes the handoff edge through the RMW chain.
    pub const ACQ_REL: Ordering = Ordering::AcqRel;
    /// A counter RMW that is also in the single total order.
    pub const SEQ_CST: Ordering = Ordering::SeqCst;
}

/// An owner-private word (atomic only for `Sync`), or one a lock or a
/// later publishing write orders.
///
/// ```compile_fail,E0425
/// let _ = kex_util::ord::private::SEQ_CST; // a role that synchronizes says so
/// ```
pub mod private {
    use super::Ordering;
    /// Carries no synchronization of its own.
    pub const RELAXED: Ordering = Ordering::Relaxed;
}
