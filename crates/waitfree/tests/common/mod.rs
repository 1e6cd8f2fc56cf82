//! Recording glue shared by `linearizable.rs` and `loom_universal.rs`: an
//! `apply` run under a `kex_util::lincheck::Clock`, and the recorded
//! history judged against the object's own [`Sequential`] specification.

use std::hash::Hash;

use kex_util::lincheck::{linearizable, Call, Clock};
use kex_waitfree::{Sequential, Universal};

/// A recorded call on an object specified by `S`.
pub type OpCall<S> = Call<<S as Sequential>::Op, <S as Sequential>::Resp>;

/// One `object.apply(name, op)`, recorded.
pub fn apply<S: Sequential>(
    clock: &Clock,
    object: &Universal<S>,
    name: usize,
    op: S::Op,
) -> OpCall<S> {
    clock.call(op.clone(), || object.apply(name, op))
}

/// Whether some order of `history` that respects real time gives every
/// call the answer `S`, started from its default, gives.
pub fn check<S: Sequential + Eq + Hash>(history: &[OpCall<S>]) -> bool
where
    S::Resp: PartialEq,
{
    linearizable(S::default(), history)
}
