//! A small linearizability checker: Wing & Gong's search over the
//! orders a recorded history allows, with Lowe's memoisation on
//! *(calls linearized so far, specification state)*.
//!
//! Test tooling, not service surface — hidden from the docs and used by
//! `tests/linearizable.rs` in `crates/store` and `crates/waitfree` and by
//! their loom suites (`loom_store.rs`, `loom_universal.rs`). Three
//! pieces:
//!
//! * [`Clock`] records. One shared counter (a [`crate::sync`] facade
//!   atomic, so a recording runs unmodified under the loom checker)
//!   stamps every invocation and every response; [`Clock::call`] wraps a
//!   completed operation and [`Clock::crashed`] one whose caller halts
//!   before it answers. Each thread keeps the [`Call`]s it made and the
//!   test concatenates them after joining. If the stamps put a response
//!   before an invocation, the response really came first, so a recorded
//!   history constrains the order no more than the run did and the
//!   checker raises no false alarm.
//! * A [`Sequential`] specification with the `Eq + Hash` the memo needs
//!   is the object the history is judged against: the store's is
//!   [`Register`], a single key of a key/value store; a `Universal` is
//!   judged against the specification it was built from.
//! * [`linearizable`] searches. A pending call — crashed in its
//!   critical section — is the halted process of the t-resilient model
//!   (Delporte-Gallet et al., PAPERS.md): it may take effect at any
//!   point after its invocation or never, so it is offered at every
//!   step and never required. [`linearizable_per_key`] splits a
//!   many-key history first, because linearizability is local.
//!
//! **What a recording can hide.** The stamps are `SeqCst`
//! read-modify-writes on one word, so they order the recording threads
//! more strongly than the code under test does by itself. Under loom
//! (or TSan) a recorded run can therefore miss a reordering the bare
//! code would show; it cannot invent one. Keep the
//! bare invariant assertions beside the checker.

use std::collections::{BTreeMap, HashSet};
use std::hash::Hash;

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::Sequential;

/// One recorded operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call<Op, Resp> {
    /// The invocation.
    pub op: Op,
    /// Stamp taken before the operation started.
    pub invoked: u64,
    /// Stamp taken after it answered, and the answer; `None` for a call
    /// that never responded.
    pub returned: Option<(u64, Resp)>,
}

/// The recorder: one counter shared by every recording thread.
#[derive(Debug, Default)]
pub struct Clock(AtomicU64);

impl Clock {
    /// A clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    fn tick(&self) -> u64 {
        self.0.fetch_add(1, Ordering::SeqCst)
    }

    /// Run `run` as one completed call of `op`.
    pub fn call<Op, Resp>(&self, op: Op, run: impl FnOnce() -> Resp) -> Call<Op, Resp> {
        let invoked = self.tick();
        let resp = run();
        Call {
            op,
            invoked,
            returned: Some((self.tick(), resp)),
        }
    }

    /// Run `run` as a call of `op` whose caller crashes before it
    /// answers: invoked, pending for ever.
    pub fn crashed<Op, Resp>(&self, op: Op, run: impl FnOnce()) -> Call<Op, Resp> {
        let invoked = self.tick();
        run();
        Call {
            op,
            invoked,
            returned: None,
        }
    }
}

/// Whether `history` is a linearizable history of the object that
/// starts as `init`: some total order of all its completed calls and
/// any of its pending ones (a) keeps every call that responded before
/// another was invoked ahead of it and (b) gives each completed call the
/// answer it recorded.
pub fn linearizable<S>(init: S, history: &[Call<S::Op, S::Resp>]) -> bool
where
    S: Sequential + Eq + Hash,
    S::Resp: PartialEq,
{
    let mut calls: Vec<_> = history.iter().collect();
    calls.sort_by_key(|c| c.invoked);
    let completed = |i: usize| usize::from(calls[i].returned.is_some());
    let mut todo: usize = (0..calls.len()).map(completed).sum();
    let mut at = Node {
        open: Vec::new(),
        beyond: 0,
        state: init,
    };
    // Depth-first: `path` holds each call linearized so far with the
    // node it was taken from; `from` is where the scan for the next one
    // resumes after a retreat.
    let mut path: Vec<(usize, Node<S>)> = Vec::new();
    let mut seen: HashSet<Node<S>> = HashSet::new();
    let mut from = 0;
    while todo > 0 {
        // A call may come next only if it was invoked before every
        // unlinearized completed call responded; in invocation order
        // only the calls up to it can hold that horizon.
        let mut horizon = u64::MAX;
        let mut step = None;
        for i in at.open.iter().copied().chain(at.beyond..calls.len()) {
            if calls[i].invoked >= horizon {
                break;
            }
            if let Some((responded, _)) = calls[i].returned {
                horizon = horizon.min(responded);
            }
            if i < from {
                continue;
            }
            let mut state = at.state.clone();
            let resp = state.apply(&calls[i].op);
            if calls[i].returned.as_ref().is_some_and(|(_, r)| *r != resp) {
                continue;
            }
            let next = at.after(i, state);
            if seen.insert(next.clone()) {
                step = Some((i, next));
                break;
            }
        }
        match step {
            Some((i, next)) => {
                path.push((i, std::mem::replace(&mut at, next)));
                todo -= completed(i);
                from = 0;
            }
            None => {
                let Some((i, before)) = path.pop() else {
                    return false;
                };
                at = before;
                todo += completed(i);
                from = i + 1;
            }
        }
    }
    true
}

/// A point of the search, and the memo's key: which calls are
/// linearized — all those below `beyond` in invocation order except the
/// `open` ones (ascending; as many as were ever in flight at once, plus
/// the pending) — and the specification's state after them.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Node<S> {
    open: Vec<usize>,
    beyond: usize,
    state: S,
}

impl<S> Node<S> {
    /// This node with call `i` linearized too, leaving `state`.
    fn after(&self, i: usize, state: S) -> Self {
        let mut open = self.open.clone();
        let beyond = match open.binary_search(&i) {
            Ok(at) => {
                open.remove(at);
                self.beyond
            }
            Err(_) => {
                open.extend(self.beyond..i);
                i + 1
            }
        };
        Node {
            open,
            beyond,
            state,
        }
    }
}

/// [`linearizable`] key by key — a history over independent objects is
/// linearizable exactly when each object's part of it is. `Err` names
/// the first key whose part is not.
pub fn linearizable_per_key<K: Ord, S>(
    init: &S,
    history: impl IntoIterator<Item = (K, Call<S::Op, S::Resp>)>,
) -> Result<(), K>
where
    S: Sequential + Eq + Hash,
    S::Resp: PartialEq,
{
    let mut by_key: BTreeMap<K, Vec<_>> = BTreeMap::new();
    for (key, call) in history {
        by_key.entry(key).or_default().push(call);
    }
    match by_key
        .into_iter()
        .find(|(_, calls)| !linearizable(init.clone(), calls))
    {
        Some((key, _)) => Err(key),
        None => Ok(()),
    }
}

/// One key of a key/value store: absent until first written, then the
/// last value written.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Register(pub Option<u64>);

/// [`Register`]'s invocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterOp {
    /// Answers the current value.
    Read,
    /// Answers `None`.
    Write(u64),
}

impl Sequential for Register {
    type Op = RegisterOp;
    type Resp = Option<u64>;

    fn apply(&mut self, op: &RegisterOp) -> Option<u64> {
        match *op {
            RegisterOp::Read => self.0,
            RegisterOp::Write(value) => {
                self.0 = Some(value);
                None
            }
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::RegisterOp::{Read, Write};
    use super::*;

    type RegCall = Call<RegisterOp, Option<u64>>;

    fn done(op: RegisterOp, invoked: u64, responded: u64, resp: Option<u64>) -> RegCall {
        Call {
            op,
            invoked,
            returned: Some((responded, resp)),
        }
    }

    fn pending(op: RegisterOp, invoked: u64) -> RegCall {
        Call {
            op,
            invoked,
            returned: None,
        }
    }

    fn ok(history: &[RegCall]) -> bool {
        linearizable(Register(None), history)
    }

    #[test]
    fn sequential_histories_follow_the_register() {
        assert!(ok(&[]));
        assert!(ok(&[done(Read, 0, 1, None)]));
        assert!(ok(&[
            done(Write(1), 0, 1, None),
            done(Read, 2, 3, Some(1)),
            done(Write(2), 4, 5, None),
            done(Read, 6, 7, Some(2)),
        ]));
        // A stale read, a lost write and a value out of thin air.
        assert!(!ok(&[
            done(Write(1), 0, 1, None),
            done(Write(2), 2, 3, None),
            done(Read, 4, 5, Some(1)),
        ]));
        assert!(!ok(&[done(Write(1), 0, 1, None), done(Read, 2, 3, None)]));
        assert!(!ok(&[
            done(Write(1), 0, 1, None),
            done(Read, 2, 3, Some(0))
        ]));
    }

    #[test]
    fn overlapping_calls_may_take_either_order_but_only_one() {
        // A read inside a write's interval may see it or not …
        for seen in [None, Some(1)] {
            assert!(ok(&[done(Write(1), 0, 3, None), done(Read, 1, 2, seen)]));
        }
        // … two racing writes may land either way round …
        for last in [1, 2] {
            assert!(ok(&[
                done(Write(1), 0, 3, None),
                done(Write(2), 1, 2, None),
                done(Read, 4, 5, Some(last)),
            ]));
        }
        // … but two reads in a row inside one write cannot see new, then
        // old,
        assert!(!ok(&[
            done(Write(1), 0, 1, None),
            done(Write(2), 2, 9, None),
            done(Read, 3, 4, Some(2)),
            done(Read, 5, 6, Some(1)),
        ]));
        // and two readers cannot disagree on the order of two writes.
        assert!(!ok(&[
            done(Write(1), 0, 9, None),
            done(Write(2), 0, 9, None),
            done(Read, 10, 11, Some(1)),
            done(Read, 12, 13, Some(2)),
        ]));
    }

    #[test]
    fn a_pending_write_may_take_effect_or_not_but_not_both() {
        // Linearizable only if the crashed write took effect (late).
        assert!(ok(&[
            pending(Write(7), 0),
            done(Read, 1, 2, None),
            done(Read, 3, 4, Some(7)),
        ]));
        // Linearizable only if it is dropped, or lands after the reads.
        assert!(ok(&[
            done(Write(1), 0, 1, None),
            pending(Write(7), 2),
            done(Read, 3, 4, Some(1)),
            done(Read, 5, 6, Some(1)),
        ]));
        // It cannot take effect and then not have.
        assert!(!ok(&[
            pending(Write(7), 0),
            done(Read, 1, 2, Some(7)),
            done(Read, 3, 4, None),
        ]));
        // Nor before it was invoked.
        assert!(!ok(&[done(Read, 0, 1, Some(7)), pending(Write(7), 2)]));
        // Nothing but pending calls: nothing to explain.
        assert!(ok(&[pending(Write(7), 0), pending(Read, 1)]));
    }

    #[test]
    fn a_wide_overlap_is_decided_by_the_memo_not_by_factorial_search() {
        // 14 racing writes, then a read of a value nobody wrote: 14!
        // orders, 14 * 2^14 distinct (set, state) pairs.
        let mut history: Vec<_> = (0..14).map(|v| done(Write(v), v, 100 + v, None)).collect();
        history.push(done(Read, 200, 201, Some(99)));
        assert!(!ok(&history));
        history.pop();
        history.push(done(Read, 200, 201, Some(3)));
        assert!(ok(&history));
    }

    #[test]
    fn keys_are_judged_apart_and_the_bad_one_is_named() {
        let history = |bad: Option<u64>| {
            vec![
                (1, done(Write(1), 0, 1, None)),
                (2, done(Write(2), 2, 3, None)),
                (1, done(Read, 4, 5, Some(1))),
                (2, done(Read, 6, 7, bad)),
            ]
        };
        assert_eq!(
            linearizable_per_key(&Register(None), history(Some(2))),
            Ok(())
        );
        assert_eq!(
            linearizable_per_key(&Register(None), history(Some(1))),
            Err(2)
        );
    }

    #[test]
    fn the_clock_orders_a_response_before_the_next_invocation() {
        let clock = Clock::new();
        let first = clock.call(Write(1), || None);
        let crashed: RegCall = clock.crashed(Write(2), || ());
        let second = clock.call(Read, || Some(1));
        let responded = first.returned.expect("completed").0;
        assert!(first.invoked < responded && responded < crashed.invoked);
        assert!(crashed.invoked < second.invoked && crashed.returned.is_none());
        assert!(ok(&[second, crashed, first]));
    }
}
