//! A wait-free universal construction for `k` processes that resumes
//! and truncates.
//!
//! Herlihy's construction: operations are *announced*, threaded onto a
//! totally ordered log by winning (or being helped through) a CAS-based
//! consensus per log cell, and responses are computed by
//! deterministically replaying the log. Helping makes it wait-free: the
//! successor of log position `p` is preferentially the announced node of
//! name `(p + 1) mod k` once that name has *asked* for help (Kogan and
//! Petrank's slow path), so a node is threaded within `k + 1` positions
//! of the ask whether or not its owner is running. An op asks once its
//! pass has walked `CHECKPOINT_EVERY + k` positions short of its node;
//! `reclaim` asks for a name it finds committed with its node unthreaded.
//! Until then a decide at its turn reads one rarely written word.
//!
//! This is exactly the kind of **wait-free k-process object** the paper's
//! methodology presumes (§1): wrap a `Universal<S>` for `k` processes in
//! a k-assignment wrapper (`kex_core::native::Resilient`) and the result
//! is a `(k-1)`-resilient, `N`-process shared object that is effectively
//! wait-free whenever contention stays at or below `k`.
//!
//! ## Resuming and truncating
//!
//! Each name keeps, owner-private, the state it had after its previous
//! operation; that operation's node and position are Herlihy's
//! `head[me]`. An operation threads its node and computes its response
//! in **one forward pass** from there: where the log goes on it applies
//! the decided successor, where it ends it decides one. The owner of the
//! node at every `CHECKPOINT_EVERY`-th (64th) position attaches a clone of
//! the state and publishes the node as the newest *checkpoint*, where a
//! name that never ran or that the checkpoints have passed resumes.
//!
//! Nodes are freed during operation, each by the name that allocated
//! it, up to `RECLAIM_BUDGET` (64, a checkpoint interval) per op, so one
//! scan per floor raise, once they lie below the newest checkpoint and
//! outside every *span* another name can still read: `[the position it
//! committed to resume at, the position of its announced node]`,
//! open-ended until helpers have threaded that node.
//! An idle name (or one crashed *between* operations, `Resilient`'s
//! failure model) pins nothing but its own last node and what it had
//! yet to free. Neither does an operation that has not committed yet:
//! it is *pending*, and whoever frees past its position turns it down
//! instead — it then resumes from a checkpoint, as does one that the
//! checkpoints have passed: it picks and copies one under its hazard
//! slot, then holds the suffix (*firm*) only to check that the floor has
//! not passed its pick. The one dereference outside a span — the `seq`
//! of another name's announced node, of the checkpoint being replaced,
//! or of the one picked to resume from — goes through a per-name hazard
//! slot that is published, re-validated against its source, and scanned
//! by the node's owner before it frees.
//!
//! ## Costs and caveats
//!
//! * `apply` is one pass of `O(distance to own node + k)` steps — `O(k)`
//!   for a name that keeps running, about `CHECKPOINT_EVERY + k` after
//!   a pause — plus a constant-bounded reclaim, and never waits on
//!   another name. At most `CHECKPOINT_EVERY + k` of those steps are
//!   unhelped: then the op asks, and its node lies at most `k + 1`
//!   positions past where the log ended at the ask. It pays one
//!   `S::clone` per checkpoint it publishes or resumes from.
//! * Warm, `apply` does not call the allocator: a node `reclaim` frees
//!   goes on its name's owner-private list of spares (`CHECKPOINT_EVERY`
//!   at most, the rest to the allocator) and is that name's next node.
//!   That is a pointer move, neither reading nor writing the node, whose
//!   line another core may hold; what it owns (its op, a checkpoint's
//!   state) is dropped when `apply` overwrites it for reuse. Reuse is
//!   `free`, then `malloc` handing back the same address, which the span
//!   and hazard protocol has to survive anyway: no new argument. What
//!   that hides from miri and ASan, a `POOLED` poison in `seq` shows to
//!   every walk in debug builds. A checkpoint still boxes a clone.
//! * The last thing an op does before it goes idle is a write-intent
//!   prefetch (`kex_util::prefetch_write`, x86's `prefetchw`) of the
//!   spare its name's next op fills. So a warm op's node write finds the
//!   line already exclusive, instead of opening the op by invalidating
//!   the copy another name's walk left, with the `announce` store behind
//!   it waiting. A hint is not an access: no model or count sees it.
//! * Memory is `O(k · CHECKPOINT_EVERY)` nodes plus what stalled names
//!   pin. A name stalled *mid-operation* pins its span, which the first
//!   `reclaim` to meet it closes by asking for it. That is the
//!   suffix of the log only in the few instructions of a firm start (a
//!   name's first operation, or one after the checkpoints have passed
//!   it, the only kind turned down while pending), and for as long as
//!   a second copy takes if the floor passed the first pick.
//! * A panic inside `S::apply` leaves its name claimed for good (the next
//!   `apply` under it panics); every replayer of that operation panics too.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;

use kex_util::ord;
use kex_util::sync::atomic::{AtomicPtr, AtomicUsize};

use crate::consensus::PtrConsensus;
use crate::seq::Sequential;

/// Every this-many log positions a checkpoint is published. Two under
/// `cfg(loom)` so that truncation happens inside a model.
#[doc(hidden)]
pub const CHECKPOINT_EVERY: usize = if cfg!(loom) { 2 } else { 64 };

/// Most retired nodes one `apply` examines for freeing: a checkpoint
/// interval, so that the first scan after the floor rises frees all it
/// has passed (64 also under `cfg(loom)`, where checkpoints come at 2).
/// `reclaim` keeps a bit per candidate in a `u64`.
const RECLAIM_BUDGET: usize = 64;
const _: () = assert!(RECLAIM_BUDGET <= u64::BITS as usize);

/// Most freed nodes a name keeps for its next ops.
const SPARE_CAP: usize = CHECKPOINT_EVERY;

/// The `seq` of a node in a name's `spare`: no walker may meet it.
const POOLED: usize = usize::MAX;

/// A `resume` word is `position << TAG_BITS | tag`.
const TAG_BITS: u32 = 3;
const TAG: usize = (1 << TAG_BITS) - 1;
/// Between ops; the position is that of `announce`.
const IDLE: usize = 0;
/// An op means to resume at the position (that of its previous op), has
/// read nothing outside its hazard slot and is not helped: whoever frees
/// past the position turns it down instead of honouring it; below it,
/// it pins nothing.
const PENDING: usize = 1;
/// A `PENDING` turned down: pins nothing, and cannot commit.
const REVOKED: usize = 2;
/// Honoured from the position on while the op looks where to resume.
const FIRM: usize = 3;
/// The op resumed at the position and its node may be helped.
const COMMITTED: usize = 4;

/// One log cell: an announced operation plus the consensus object that
/// threads its successor.
struct Node<S: Sequential> {
    /// The operation; `None` only for the sentinel.
    op: Option<S::Op>,
    /// Consensus on the successor cell; also the `next` pointer.
    next: PtrConsensus<Node<S>>,
    /// Position in the log; 0 = not yet threaded, sentinel = 1. Set by
    /// every walker before it steps onto the node, so whoever stands at
    /// position `p` knows all of `..= p` carry their `seq`.
    seq: AtomicUsize,
    /// The state after this node, if it is or was a checkpoint (`None`
    /// on the sentinel stands for `S::default()`). Written by the owner
    /// before it publishes the node as `newest`, immutable after.
    state: UnsafeCell<Option<Box<S>>>,
}

/// One name's shared words and its owner-private part.
#[repr(C)]
struct Name<S: Sequential> {
    /// This name's newest node (the sentinel before its first op).
    announce: AtomicPtr<Node<S>>,
    /// See [`IDLE`] .. [`COMMITTED`]; any tag but `IDLE` is also the
    /// claim on `local`.
    resume: AtomicUsize,
    /// A node this name is about to dereference outside its span.
    hazard: AtomicPtr<Node<S>>,
    local: UnsafeCell<Local<S>>,
    /// Keeps the next name off this one's cache lines, without the
    /// over-aligned (thrice as slow) allocation `CachePadded` would cost.
    _gap: MaybeUninit<[u8; 64]>,
}

/// Owner-private part of a name; allocates nothing until first use.
#[derive(Default)]
struct Local<S: Sequential> {
    /// State after `announce`; `None` before the first op.
    state: Option<S>,
    /// This name's unlinked nodes with their positions, oldest first
    /// except where one found pinned has been put back at the end.
    retired: VecDeque<(usize, *mut Node<S>)>,
    /// Freed nodes of this name, for its next ops; at most [`SPARE_CAP`].
    spare: Vec<*mut Node<S>>,
}

impl<S: Sequential> Local<S> {
    /// The spare this name's next op fills, if it has one.
    fn next_spare(&self) -> Option<*mut Node<S>> {
        self.spare.last().copied()
    }

    /// Takes out the spare [`Local::next_spare`] names.
    fn take_spare(&mut self) -> Option<*mut Node<S>> {
        let next = self.next_spare()?;
        self.spare.pop();
        Some(next)
    }
}

/// A linearizable, wait-free shared object for `k` processes, built from
/// any deterministic [`Sequential`] specification.
///
/// Process identities are *names* in `0..k` — pass each operation the
/// name of the calling process. Two concurrent calls with the same name
/// are a logic error (the k-assignment wrapper rules them out by
/// construction); the second one panics. Sharing the object needs
/// `S: Send + Sync`: per-name and checkpoint states live inside it, and
/// a name moves from thread to thread.
///
/// ```rust
/// use kex_waitfree::seq::{CounterOp, SeqCounter};
/// use kex_waitfree::Universal;
///
/// let counter: Universal<SeqCounter> = Universal::new(3);
/// counter.apply(0, CounterOp::Add(5));
/// counter.apply(2, CounterOp::Add(-2));
/// assert_eq!(counter.apply(1, CounterOp::Get), 3);
/// ```
pub struct Universal<S: Sequential> {
    names: Box<[Name<S>]>,
    /// The newest checkpoint; the sentinel until there is one.
    newest: AtomicPtr<Node<S>>,
    /// Position of a checkpoint that has been installed: never above
    /// that of `newest`, and nothing at or above it is ever freed.
    floor: AtomicUsize,
    /// Bit `x`: name `x` has asked for help. Like `newest` and `floor`,
    /// written far less often than once an op.
    asks: AtomicUsize,
    sentinel: *mut Node<S>,
    /// Under the model checker freed nodes are parked here until `drop`,
    /// so that touching one fails an assertion and is no worse than that.
    #[cfg(loom)]
    freed: std::sync::Mutex<Vec<*mut Node<S>>>,
    /// Decides that proposed another name's node (models only).
    #[cfg(loom)]
    helped: std::sync::Mutex<usize>,
}

// SAFETY: the shared words are atomics. A `Local` is touched only by the
// one caller holding its name's claim (see `apply`) and moves with the
// name from thread to thread, hence `S: Send`. A node's `op` is written
// before the node is announced and its `state` before it becomes a
// checkpoint, both immutable afterwards and then read through `&` by
// every replayer and resumer, hence `S: Sync` (`S::Op: Send + Sync` is
// the trait's own bound).
unsafe impl<S: Sequential + Send + Sync> Send for Universal<S> {}
unsafe impl<S: Sequential + Send + Sync> Sync for Universal<S> {}

impl<S: Sequential> std::fmt::Debug for Universal<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Universal").field("k", &self.k()).finish()
    }
}

impl<S: Sequential> Universal<S> {
    /// A fresh object (state `S::default()`) for `k` processes. Allocates
    /// the sentinel and one per-name array; everything else comes into
    /// being on first use.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one process");
        let sentinel = Self::alloc(None, 1);
        let name = |_| Name {
            announce: AtomicPtr::new(sentinel),
            resume: AtomicUsize::new(1 << TAG_BITS | IDLE),
            hazard: AtomicPtr::default(),
            local: UnsafeCell::default(),
            _gap: MaybeUninit::uninit(),
        };
        Universal {
            names: (0..k).map(name).collect(),
            newest: AtomicPtr::new(sentinel),
            floor: AtomicUsize::new(1),
            asks: AtomicUsize::new(0),
            sentinel,
            #[cfg(loom)]
            freed: Default::default(),
            #[cfg(loom)]
            helped: Default::default(),
        }
    }

    fn node(op: Option<S::Op>, seq: usize) -> Node<S> {
        Node {
            op,
            next: PtrConsensus::new(),
            seq: AtomicUsize::new(seq),
            state: UnsafeCell::new(None),
        }
    }

    fn alloc(op: Option<S::Op>, seq: usize) -> *mut Node<S> {
        Box::into_raw(Box::new(Self::node(op, seq)))
    }

    /// The process bound `k`.
    pub fn k(&self) -> usize {
        self.names.len()
    }

    /// Apply `op` on behalf of the process named `me` (`0..k`); returns
    /// the linearized response. Wait-free: one forward pass from this
    /// name's resume point to its own node plus a constant-bounded
    /// reclaim, regardless of the scheduling (or crash) of other processes.
    ///
    /// # Panics
    /// Panics if `me >= k`, or if another call under the same name is in
    /// progress (or panicked inside `S::apply`).
    pub fn apply(&self, me: usize, op: S::Op) -> S::Resp {
        assert!(me < self.k(), "name {me} out of range 0..{}", self.k());
        let name = &self.names[me];
        // The claim, from an idle word only: `local` is ours from here to
        // the idle word stored at the end.
        let idle = name.resume.load(ord::handshake::SEQ_CST);
        let (pending, prev_pos) = (idle | PENDING, idle >> TAG_BITS);
        let swap = |old, new| {
            name.resume
                .compare_exchange(old, new, ord::handshake::SEQ_CST, ord::handshake::SEQ_CST)
        };
        let claimed = idle & TAG == IDLE && swap(idle, pending).is_ok();
        assert!(claimed, "name {me} is in use");
        // SAFETY: `local` by the claim. Every node dereferenced below is
        // our own, in our hazard slot, or in the span we have committed
        // to: the pass starts at `resume`, moves forward one position at
        // a time and stops at `mine`. `reclaim` has the other side of it.
        unsafe {
            let local = &mut *name.local.get();
            // A spare is a node `reclaim` found out of everybody's reach;
            // overwriting it drops its last op and checkpoint state.
            let mine = local
                .take_spare()
                .unwrap_or_else(|| Self::alloc(None, POOLED));
            *mine = Self::node(Some(op), 0);
            let prev = name.announce.load(ord::handshake::SEQ_CST);
            name.announce.store(mine, ord::handshake::SEQ_CST);
            if prev != self.sentinel {
                local.retired.push_back((prev_pos, prev));
            }
            // Our previous op is where we resume if truncation has not
            // passed it — read after we published ourselves, so whoever
            // missed us freed below a floor no higher than this one.
            let own = local.state.is_some() && prev_pos >= self.floor.load(ord::handshake::SEQ_CST);
            let committed = prev_pos << TAG_BITS | COMMITTED;
            let (mut cur, mut pos) = (prev, prev_pos);
            if !(own && swap(pending, committed).is_ok()) {
                // Fallen behind (turned down, the floor passed us too): we
                // resume from a checkpoint, picked and copied under the
                // hazard slot before we hold the suffix. Firm, we only
                // check that the floor has not passed it, else pick again.
                // Only once committed may helpers thread `mine`: above the
                // point we picked.
                let copy = |node: *mut Node<S>| (*(*node).state.get()).as_deref().cloned();
                let pick = self
                    .protect(name, &self.newest)
                    .map(|node| (node, copy(node)));
                name.resume
                    .store(prev_pos << TAG_BITS | FIRM, ord::handshake::SEQ_CST);
                let floor = self.floor.load(ord::handshake::SEQ_CST);
                let (node, state) = pick
                    .filter(|(node, _)| self.seq(*node) >= floor)
                    .unwrap_or_else(|| {
                        let node = self.newest.load(ord::handshake::SEQ_CST);
                        (node, copy(node))
                    });
                (cur, pos, local.state) = (node, self.seq(node), state);
                name.resume
                    .store(pos << TAG_BITS | COMMITTED, ord::handshake::SEQ_CST);
            }
            let mut state = local.state.take().unwrap_or_default();

            // Unhelped past the longest catch-up of an op that is not
            // starved, we ask (under loom at once: both kinds of turn).
            let k = self.k();
            let ask_at = pos + if cfg!(loom) { 1 } else { CHECKPOINT_EVERY + k };
            let resp = loop {
                let mut next = (*cur).next.peek();
                if next.is_null() {
                    next = (*cur).next.decide(self.preferred(me, pos + 1, mine));
                }
                self.assert_live(cur);
                pos += 1;
                if self.seq(next) == 0 {
                    (*next).seq.store(pos, ord::handshake::SEQ_CST);
                }
                let resp = state.apply((*next).op.as_ref().expect("only the sentinel has no op"));
                if next == mine {
                    break resp;
                }
                cur = next;
                if pos == ask_at {
                    self.ask(me);
                }
            };

            if pos % CHECKPOINT_EVERY == 0 {
                self.publish_checkpoint(name, mine, pos, &state);
            }
            local.state = Some(state);
            self.reclaim(me, local);
            if !name.hazard.load(ord::handshake::SEQ_CST).is_null() {
                name.hazard
                    .store(std::ptr::null_mut(), ord::handshake::SEQ_CST);
            }
            let bit = Self::bit(me).unwrap_or(0);
            if self.asks.load(ord::handshake::SEQ_CST) & bit != 0 {
                self.asks.fetch_and(!bit, ord::handshake::SEQ_CST);
            }
            // The node our next op overwrites, taken for writing while we
            // are idle: its line is likely the other name's since its walk.
            if let Some(next) = local.next_spare() {
                kex_util::prefetch_write(&*next);
            }
            name.resume
                .store(pos << TAG_BITS | IDLE, ord::handshake::SEQ_CST);
            resp
        }
    }

    /// `node`'s position, 0 if it is not threaded yet; `node` must be the
    /// caller's own, in its span, or in its hazard slot.
    unsafe fn seq(&self, node: *mut Node<S>) -> usize {
        let seq = (*node).seq.load(ord::handshake::SEQ_CST);
        self.assert_live(node);
        seq
    }

    /// `node`, just accessed, had not been freed. Under the model checker
    /// a freed node stays parked; elsewhere, in debug builds, one kept as
    /// a spare reads [`POOLED`] until its owner announces it again.
    unsafe fn assert_live(&self, node: *mut Node<S>) {
        #[cfg(loom)]
        assert!(!self.freed.lock().unwrap().contains(&node), "freed node");
        #[cfg(not(loom))]
        debug_assert!(
            (*node).seq.load(ord::handshake::SEQ_CST) != POOLED,
            "recycled node"
        );
    }

    /// Loads `source` into `name`'s hazard slot; `None` if `source` has
    /// changed by then. Otherwise the node was still linked after the
    /// slot was published, and its owner scans the slots after unlinking
    /// and before freeing: it stays until the slot moves on.
    fn protect(&self, name: &Name<S>, source: &AtomicPtr<Node<S>>) -> Option<*mut Node<S>> {
        let node = source.load(ord::handshake::SEQ_CST);
        name.hazard.store(node, ord::handshake::SEQ_CST);
        (source.load(ord::handshake::SEQ_CST) == node).then_some(node)
    }

    /// Name `x`'s bit in `asks`; none past its width.
    fn bit(x: usize) -> Option<usize> {
        u32::try_from(x).ok().and_then(|x| 1usize.checked_shl(x))
    }

    /// Whether name `x` has asked for help, itself or through `reclaim`
    /// (a hint: a stale ask costs one look at `x`). A name without a bit
    /// always has.
    fn asked(&self, x: usize) -> bool {
        Self::bit(x).is_none_or(|bit| self.asks.load(ord::handshake::SEQ_CST) & bit != 0)
    }

    /// Asks for help on behalf of name `x`, until the end of its op.
    fn ask(&self, x: usize) {
        if !self.asked(x) {
            self.asks.fetch_or(1 << x, ord::handshake::SEQ_CST);
        }
    }

    /// What to propose for log position `pos`: the announced node of the
    /// name whose turn it is if that name has asked and the node is
    /// committed and unthreaded (`resume` read last: an unthreaded node
    /// of a committed name has been committed itself), else our own. A
    /// turn lost to a concurrent announcement or ask is skipped — the
    /// helping bound only counts deciders that read after it.
    unsafe fn preferred(&self, me: usize, pos: usize, mine: *mut Node<S>) -> *mut Node<S> {
        let turn = pos % self.k();
        if turn == me || !self.asked(turn) {
            return mine;
        }
        let them = &self.names[turn];
        let helpable = |node| {
            self.seq(node) == 0 && them.resume.load(ord::handshake::SEQ_CST) & TAG == COMMITTED
        };
        let theirs = self
            .protect(&self.names[me], &them.announce)
            .filter(|&n| helpable(n));
        #[cfg(loom)]
        let _ = theirs.map(|_| *self.helped.lock().unwrap() += 1);
        theirs.unwrap_or(mine)
    }

    /// Makes `mine`, `name`'s node at `pos` with `state` after it, the
    /// newest checkpoint, unless a newer one is in place. An attempt fails
    /// where another checkpoint went in meanwhile; they go in by ascending
    /// position, and one below `pos` comes from one of the at most `k - 1`
    /// ops threaded before ours and still running: after `k` failures a
    /// newer one is in place.
    unsafe fn publish_checkpoint(&self, name: &Name<S>, mine: *mut Node<S>, pos: usize, state: &S) {
        for _ in 0..self.k() {
            let Some(old) = self.protect(name, &self.newest) else {
                continue;
            };
            if self.seq(old) >= pos {
                return;
            }
            // Nobody reads it before `mine` is the newest checkpoint.
            (*(*mine).state.get()).get_or_insert_with(|| Box::new(state.clone()));
            let swap = self.newest.compare_exchange(
                old,
                mine,
                ord::handshake::SEQ_CST,
                ord::handshake::SEQ_CST,
            );
            if swap.is_ok() {
                self.floor.fetch_max(pos, ord::handshake::SEQ_CST);
                return;
            }
        }
    }

    /// Frees those of the first [`RECLAIM_BUDGET`] of `retired` (name
    /// `me`'s) that lie below the floor and that no other name can
    /// reach — into `spare` while there is room, by moving the pointer
    /// (in debug builds poisoned) — the rest of them go to the back of
    /// the queue.
    ///
    /// Why looking once is enough: an op that has claimed its name when
    /// we read its `resume` shows us its span (or, its node replaced by
    /// a later op's, a wider one). One that claims later reads, after
    /// claiming, a floor at least ours, and resumes at or above it. So
    /// does one pending at or above our floor: from there, or from a
    /// checkpoint it checks, once firm, against a floor at least ours.
    ///
    /// # Safety
    /// Like every `unsafe fn` here, called under the claim on name `me`.
    unsafe fn reclaim(&self, me: usize, local: &mut Local<S>) {
        let retired = &mut local.retired;
        let floor = self.floor.load(ord::handshake::SEQ_CST);
        let candidates = retired.iter().take(RECLAIM_BUDGET);
        let n = candidates.take_while(|(pos, _)| *pos < floor).count();
        if n == 0 {
            return;
        }
        let mut held = 0u64; // bit i: candidate i is pinned by somebody
        for x in (0..self.k()).filter(|&x| x != me) {
            let them = &self.names[x];
            let hazard = them.hazard.load(ord::handshake::SEQ_CST);
            // What `x` may still read. Pending at or above the floor,
            // nothing below it; pending below, it is turned down; where
            // that fails it has moved on, and we go by where to (an op
            // pending by then claimed after we read the floor).
            let mut resume = them.resume.load(ord::handshake::SEQ_CST);
            let revoked = resume ^ PENDING ^ REVOKED;
            if resume & TAG == PENDING && resume >> TAG_BITS < floor {
                let turned_down = them.resume.compare_exchange(
                    resume,
                    revoked,
                    ord::handshake::SEQ_CST,
                    ord::handshake::SEQ_CST,
                );
                resume = turned_down.map_or_else(|now| now, |_| revoked);
            }
            // Firm, all from its position on; committed, only up to its
            // announced node once that is threaded (we ask for it: if it
            // has stalled, only helpers will); else nothing.
            let from = resume >> TAG_BITS;
            let mut to = if resume & TAG >= FIRM { usize::MAX } else { 0 };
            if resume & TAG == COMMITTED {
                let theirs = self.protect(&self.names[me], &them.announce);
                let threaded = theirs.map_or(0, |node| self.seq(node));
                if threaded == 0 {
                    self.ask(x);
                }
                to = if threaded == 0 { usize::MAX } else { threaded };
            }
            for (i, (pos, node)) in retired.iter().take(n).enumerate() {
                held |= u64::from(*node == hazard || (from..=to).contains(pos)) << i;
            }
        }
        for i in 0..n {
            let (pos, node) = retired.pop_front().expect("counted above");
            if held & 1 << i != 0 {
                retired.push_back((pos, node));
            } else if cfg!(loom) || local.spare.len() >= SPARE_CAP {
                #[cfg(loom)]
                self.freed.lock().unwrap().push(node);
                #[cfg(not(loom))]
                drop(Box::from_raw(node));
            } else {
                // Untouched: its line may be another core's. What it owns
                // is dropped when `apply` overwrites it.
                if cfg!(debug_assertions) {
                    std::ptr::addr_of_mut!((*node).seq).write(AtomicUsize::new(POOLED));
                }
                local.spare.push(node);
            }
        }
        // What a stalled name pinned is given back, and so is the room.
        if retired.capacity() > 4 * retired.len().max(CHECKPOINT_EVERY) {
            retired.shrink_to(2 * retired.len());
        }
    }

    /// How many nodes have been freed during operation, and how many
    /// name `me`, done for good, has unlinked and not freed (models only).
    #[cfg(loom)]
    pub fn freed_and_retained(&self, me: usize) -> (usize, usize) {
        assert!(
            self.names[me].resume.load(ord::handshake::SEQ_CST) & TAG == IDLE,
            "running"
        );
        // SAFETY: idle, and the models ask after the name's last op.
        let retained = unsafe { (*self.names[me].local.get()).retired.len() };
        (self.freed.lock().unwrap().len(), retained)
    }

    /// How many decides have proposed another name's node (models only).
    #[cfg(loom)]
    pub fn helped(&self) -> usize {
        *self.helped.lock().unwrap()
    }
}

impl<S: Sequential> Drop for Universal<S> {
    fn drop(&mut self) {
        // SAFETY: exclusive access, so no op is in progress: every node
        // ever announced is a name's current one (the sentinel, for a
        // name that never ran), in its `retired` or `spare`, or freed (or
        // parked).
        unsafe {
            for name in self.names.iter_mut() {
                let Local { retired, spare, .. } = name.local.get_mut();
                retired.push_back((0, *name.announce.get_mut()));
                retired.extend(spare.drain(..).map(|node| (0, node)));
                for (_, node) in retired.drain(..).filter(|item| item.1 != self.sentinel) {
                    drop(Box::from_raw(node));
                }
            }
            #[cfg(loom)]
            for node in self.freed.get_mut().unwrap().drain(..) {
                drop(Box::from_raw(node));
            }
            drop(Box::from_raw(self.sentinel));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{CounterOp, QueueOp, SeqCounter, SeqQueue, SeqSnapshot, SnapshotOp};
    use kex_util::rng::SmallRng;
    use std::collections::HashSet;
    use std::fmt::Debug;

    /// `T` is not `Sync`: with both impls in reach `_` below is ambiguous.
    trait NotSync<A> {
        fn proof() {}
    }
    impl<T> NotSync<()> for T {}
    impl<T: Sync> NotSync<u8> for T {}

    /// Per-name states and checkpoint states live inside the shared
    /// object, and a name moves from thread to thread.
    #[test]
    fn a_state_that_is_not_thread_safe_makes_the_object_unshareable() {
        #[derive(Clone, Default)]
        struct Counted(std::rc::Rc<u32>);
        impl Sequential for Counted {
            type Op = ();
            type Resp = u32;
            fn apply(&mut self, (): &()) -> u32 {
                *self.0
            }
        }
        <Universal<Counted> as NotSync<_>>::proof();
        fn shared<T: Send + Sync>() {}
        shared::<Universal<SeqQueue<u32>>>();
    }

    const K: usize = 4;
    /// Name that runs once, sleeps through more than two checkpoint
    /// intervals and comes back.
    const SLEEPER: usize = 2;
    /// Name whose first op comes after truncation has passed genesis.
    const LATE: usize = 3;

    /// Drives a seeded stream through `Universal<S>` and through `S`
    /// itself (the oracle for a sequential stream) and compares every
    /// response.
    fn matches_the_spec<S>(draw: impl Fn(&mut SmallRng) -> S::Op)
    where
        S: Sequential,
        S::Resp: PartialEq + Debug,
    {
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        let object: Universal<S> = Universal::new(K);
        let mut oracle = S::default();
        let mut step = |name: usize, rng: &mut SmallRng| {
            let op = draw(rng);
            assert_eq!(object.apply(name, op.clone()), oracle.apply(&op));
        };
        step(SLEEPER, &mut rng);
        for _ in 0..3 * CHECKPOINT_EVERY {
            step(rng.gen_range(0..2), &mut rng);
        }
        let floor = object.floor.load(ord::handshake::SEQ_CST);
        assert!(
            floor > 2 * CHECKPOINT_EVERY,
            "no checkpoints: floor {floor}"
        );
        // A name keeps only what lies at or above the floor it last saw.
        for name in 0..2 {
            let kept = unsafe { (*object.names[name].local.get()).retired.len() };
            assert!(
                kept < CHECKPOINT_EVERY,
                "name {name} frees too little during operation: keeps {kept}"
            );
        }
        // Both resume from the checkpoint: one has a stale state, one none.
        step(SLEEPER, &mut rng);
        step(LATE, &mut rng);
        for _ in 0..2 * CHECKPOINT_EVERY {
            step(rng.gen_range(0..K), &mut rng);
        }
    }

    #[test]
    fn every_spec_matches_its_sequential_oracle() {
        let value = |rng: &mut SmallRng| rng.gen_range(0..1000) as u32;
        matches_the_spec::<SeqQueue<u32>>(|rng| match rng.gen_bool(0.6) {
            true => QueueOp::Enqueue(value(rng)),
            false => QueueOp::Dequeue,
        });
        matches_the_spec::<SeqCounter>(|rng| match rng.gen_bool(0.8) {
            true => CounterOp::Add(rng.gen_range(0..9) as i64 - 4),
            false => CounterOp::Get,
        });
        matches_the_spec::<SeqSnapshot<u32>>(|rng| match rng.gen_bool(0.4) {
            true => SnapshotOp::Update(rng.gen_range(0..K), value(rng)),
            false => SnapshotOp::Scan,
        });
    }

    /// Two names taking turns on one thread: each op, the first past a
    /// checkpoint included, leaves its name nothing retired below the
    /// floor — one scan frees all that the floor has passed.
    #[test]
    fn one_scan_frees_all_that_the_floor_has_passed() {
        let c: Universal<SeqCounter> = Universal::new(2);
        for i in 0..3 * CHECKPOINT_EVERY {
            let me = i % 2;
            c.apply(me, CounterOp::Add(1));
            let floor = c.floor.load(ord::handshake::SEQ_CST);
            let retired = unsafe { &(*c.names[me].local.get()).retired };
            let below = retired.iter().filter(|(pos, _)| *pos < floor).count();
            assert_eq!(
                below, 0,
                "op {i}: name {me} keeps {below} below floor {floor}"
            );
        }
        assert!(c.floor.load(ord::handshake::SEQ_CST) > 2 * CHECKPOINT_EVERY);
    }

    /// Two names taking turns on one thread: the node the end-of-op
    /// hint names is the node that name announces on its next op, unless
    /// it had no spare and that op allocated.
    #[test]
    fn the_hinted_spare_is_the_next_node() {
        let c: Universal<SeqCounter> = Universal::new(2);
        let mut hinted = [None; 2];
        let mut reused = 0;
        for i in 0..4 * CHECKPOINT_EVERY {
            let me = i % 2;
            c.apply(me, CounterOp::Add(1));
            let announced = c.names[me].announce.load(ord::handshake::SEQ_CST);
            if let Some(node) = hinted[me] {
                assert_eq!(announced, node, "op {i}: name {me} hinted another node");
                reused += 1;
            }
            hinted[me] = unsafe { (*c.names[me].local.get()).next_spare() };
        }
        assert!(reused > CHECKPOINT_EVERY, "spares hardly reused: {reused}");
    }

    /// A node in another name's hazard slot survives every scan, and
    /// only the slot holds it: that name is idle, so its span is empty.
    /// Cleared, the slot lets the next scan recycle it.
    #[test]
    fn a_node_in_a_hazard_slot_is_not_recycled() {
        let c: Universal<SeqCounter> = Universal::new(2);
        c.apply(0, CounterOp::Add(1));
        let node = c.names[0].announce.load(ord::handshake::SEQ_CST);
        let retired = || unsafe {
            (*c.names[0].local.get())
                .retired
                .iter()
                .any(|e| e.1 == node)
        };
        c.names[1].hazard.store(node, ord::handshake::SEQ_CST);
        for i in 0..3 * CHECKPOINT_EVERY {
            c.apply(0, CounterOp::Add(1));
            assert!(retired(), "op {i}: recycled behind name 1's hazard");
        }
        c.names[1]
            .hazard
            .store(std::ptr::null_mut(), ord::handshake::SEQ_CST);
        for _ in 0..3 * CHECKPOINT_EVERY {
            c.apply(0, CounterOp::Add(1));
        }
        assert!(!retired(), "still retired with name 1's slot cleared");
    }

    /// Ops per thread in the concurrent tests: enough for several
    /// checkpoints and frees during operation, few enough for miri.
    const PER: u32 = if cfg!(miri) { 100 } else { 5_000 };

    /// `k` threads each enqueue `PER` tagged values and dequeue after
    /// every enqueue; returns what each dequeued, and last what was left.
    fn churn(k: usize) -> Vec<Vec<(usize, u32)>> {
        let q: Universal<SeqQueue<(usize, u32)>> = Universal::new(k);
        let mut popped: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..k)
                .map(|name| {
                    let q = &q;
                    s.spawn(move || {
                        let mut got = Vec::new();
                        for i in 0..PER {
                            q.apply(name, QueueOp::Enqueue((name, i)));
                            got.extend(q.apply(name, QueueOp::Dequeue));
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        popped.push(std::iter::from_fn(|| q.apply(0, QueueOp::Dequeue)).collect());
        popped
    }

    #[test]
    fn queue_never_duplicates_or_loses_elements() {
        let k = 3;
        let all: Vec<_> = churn(k).into_iter().flatten().collect();
        assert_eq!(all.len(), k * PER as usize, "lost or duplicated items");
        let distinct: HashSet<_> = all.iter().collect();
        assert_eq!(distinct.len(), all.len(), "duplicated items");
    }

    #[test]
    fn each_consumer_sees_each_producer_in_fifo_order() {
        // The queue is FIFO and a producer enqueues in program order, so
        // what any one thread dequeues from any one producer ascends.
        let k = 3;
        for seen in churn(k) {
            for producer in 0..k {
                let seqs: Vec<u32> = seen
                    .iter()
                    .filter(|(name, _)| *name == producer)
                    .map(|(_, i)| *i)
                    .collect();
                assert!(
                    seqs.windows(2).all(|w| w[0] < w[1]),
                    "producer {producer} items reordered: {seqs:?}"
                );
            }
        }
    }

    #[test]
    fn counter_linearizes_concurrent_increments() {
        // More names than most hosts have cores: ops get preempted
        // pending, committed and mid-pass.
        let k = 6;
        let c: Universal<SeqCounter> = Universal::new(k);
        std::thread::scope(|s| {
            for name in 0..k {
                let c = &c;
                s.spawn(move || {
                    let mut last = 0;
                    for _ in 0..PER {
                        let now = c.apply(name, CounterOp::Add(1));
                        assert!(now > last, "a name's own increments went backwards");
                        last = now;
                    }
                });
            }
        });
        assert_eq!(c.apply(0, CounterOp::Get), i64::from(PER) * k as i64);
    }

    #[test]
    fn a_single_name_works() {
        let c: Universal<SeqCounter> = Universal::new(1);
        for i in 1..=3 * CHECKPOINT_EVERY as i64 {
            assert_eq!(c.apply(0, CounterOp::Add(1)), i);
        }
    }

    /// `Call` applies `Get` to `OBJECT` under name 0; `Boom` panics.
    #[derive(Clone, Default)]
    struct Unruly;
    #[derive(Clone)]
    enum UnrulyOp {
        Get,
        Call,
        Boom,
    }
    static OBJECT: std::sync::OnceLock<Universal<Unruly>> = std::sync::OnceLock::new();
    impl Sequential for Unruly {
        type Op = UnrulyOp;
        type Resp = ();
        fn apply(&mut self, op: &UnrulyOp) {
            match op {
                UnrulyOp::Get => {}
                UnrulyOp::Call => OBJECT
                    .get()
                    .expect("set by the test")
                    .apply(0, UnrulyOp::Get),
                UnrulyOp::Boom => panic!("boom"),
            }
        }
    }

    // A name is claimed from an idle word only: a second `&mut Local`
    // would be a data race, and a node retired at the position in a
    // committed word (not its own) a use-after-free.
    #[test]
    #[should_panic(expected = "name 0 is in use")]
    fn a_reentrant_call_under_the_same_name_panics() {
        OBJECT
            .get_or_init(|| Universal::new(2))
            .apply(0, UnrulyOp::Call);
    }

    #[test]
    #[should_panic(expected = "name 1 is in use")]
    fn a_name_whose_op_panicked_stays_claimed() {
        let object: Universal<Unruly> = Universal::new(2);
        let boom = || object.apply(1, UnrulyOp::Boom);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(boom));
        assert!(caught.is_err());
        object.apply(1, UnrulyOp::Get);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_foreign_names() {
        let c: Universal<SeqCounter> = Universal::new(2);
        c.apply(2, CounterOp::Get);
    }
}
