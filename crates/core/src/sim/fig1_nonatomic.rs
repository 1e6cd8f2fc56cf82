//! The *naive realistic decomposition* of Figure 1 — and why it fails.
//!
//! Figure 1 is correct **because** its queue operations execute inside
//! multi-word atomic sections (the paper's Table 1 files its ancestors
//! \[9, 10\] under "Large Critical Sections"). The paper's §3 argues
//! that implementing those sections out of realistic single-word
//! primitives is precisely the hard part: *"Such an implementation is
//! complicated by the possibility that a process may fail after having
//! only partially executed a queue operation."*
//!
//! This module makes that argument mechanical. It is Figure 1 with the
//! angle brackets deleted — every shared access its own atomic
//! statement, with no added synchronization:
//!
//! ```text
//! entry:  1a: if fetch_and_increment(X,-1) <= 0 then
//!         1b:     t := Q.len            /* read tail      */
//!         1c:     Q.slots[t] := p       /* publish self   */
//!         1d:     Q.len := t + 1        /* commit enqueue */
//!         2:      while Element(p, Q) do od
//! exit:   3a: t := Q.len
//!         3b: if t > 0 then shift/clear  (one statement per slot move)
//!         3c: Q.len := t - 1
//!         3d: fetch_and_increment(X, 1)
//! ```
//!
//! Two enqueuers can now interleave at 1b/1c and overwrite each other's
//! slot; a lost waiter believes it is queued, `Element` says otherwise,
//! and it walks straight into the critical section — **k-exclusion is
//! violated**. The root test `counterexamples_from_the_matrix_are_replayable`
//! (`tests/model_checking.rs`) has the explorer find such an interleaving
//! automatically and replays it, which is this repository's mechanized
//! version of the paper's "first difficulty". (Given a crash between 1c
//! and 1d the queue also wedges, the "second difficulty".)
//!
//! Nothing outside the test suite should use this node; it exists as a
//! negative control.

use kex_sim::mem::MemCtx;
use kex_sim::node::Node;
use kex_sim::protocol::ProtocolBuilder;
use kex_sim::summary::{AccessDesc, BackEdge, NodeDesc, SpaceClass, StmtDesc};
use kex_sim::types::{NodeId, Pid, Section, Step, VarId, Word};
use kex_sim::vars::at;

/// Local-variable layout.
const L_T: usize = 0;

/// Figure 1 with its atomic sections naively decomposed.
pub struct NonatomicQueueNode {
    x: VarId,
    len: VarId,
    slots: VarId,
    n: usize,
}

impl NonatomicQueueNode {
    /// Allocate the same variables as the atomic version.
    pub fn new(b: &mut ProtocolBuilder, k: usize) -> Self {
        let n = b.n();
        let x = b.vars.alloc("fig1na.X", k as Word);
        let len = b.vars.alloc("fig1na.len", 0);
        let slots = b.vars.alloc_array("fig1na.q", n, -1);
        NonatomicQueueNode { x, len, slots, n }
    }
}

impl Node for NonatomicQueueNode {
    fn name(&self) -> String {
        format!("fig1-nonatomic(n={})", self.n)
    }

    fn locals_len(&self) -> usize {
        1
    }

    fn step(&self, sec: Section, pc: u32, locals: &mut [Word], mem: &mut MemCtx<'_>) -> Step {
        let p = mem.pid() as Word;
        match (sec, pc) {
            // 1a: the slot counter check.
            (Section::Entry, 0) => {
                if mem.fetch_and_increment(self.x, -1) <= 0 {
                    Step::Goto(1)
                } else {
                    Step::Return
                }
            }
            // 1b: read the tail — RACE: another enqueuer may read the
            // same value.
            (Section::Entry, 1) => {
                locals[L_T] = mem.read(self.len);
                Step::Goto(2)
            }
            // 1c: publish into the (possibly stale) slot.
            (Section::Entry, 2) => {
                mem.write(at(self.slots, locals[L_T] as usize % self.n), p);
                Step::Goto(3)
            }
            // 1d: commit.
            (Section::Entry, 3) => {
                mem.write(self.len, locals[L_T] + 1);
                Step::Goto(4)
            }
            // 2: while Element(p, Q) — one scan per statement, as in the
            // atomic version.
            (Section::Entry, 4) => {
                let len = mem.read(self.len);
                let mut queued = false;
                for i in 0..(len as usize).min(self.n) {
                    if mem.read(at(self.slots, i)) == p {
                        queued = true;
                        break;
                    }
                }
                if queued {
                    Step::Goto(4)
                } else {
                    Step::Return
                }
            }

            // 3a: read length.
            (Section::Exit, 0) => {
                locals[L_T] = mem.read(self.len);
                Step::Goto(if locals[L_T] > 0 { 1 } else { 3 })
            }
            // 3b: shift left (single statement here; the race of interest
            // is already present in the enqueue path).
            (Section::Exit, 1) => {
                let len = (locals[L_T] as usize).min(self.n);
                for i in 1..len {
                    let v = mem.read(at(self.slots, i));
                    mem.write(at(self.slots, i - 1), v);
                }
                mem.write(at(self.slots, len - 1), -1);
                Step::Goto(2)
            }
            // 3c: commit the dequeue.
            (Section::Exit, 2) => {
                mem.write(self.len, locals[L_T] - 1);
                Step::Goto(3)
            }
            // 3d: return the slot.
            (Section::Exit, 3) => {
                mem.fetch_and_increment(self.x, 1);
                Step::Return
            }
            _ => unreachable!("fig1-nonatomic: bad pc {pc} in {sec}"),
        }
    }

    fn describe(&self, _p: Pid) -> Option<NodeDesc> {
        let n = self.n;
        let entry = vec![
            StmtDesc::new(0, "1a: if f&i(X,-1) <= 0")
                .access(AccessDesc::rmw(self.x))
                .goto(1)
                .returns(),
            StmtDesc::new(1, "1b: t := Q.len")
                .access(AccessDesc::read(self.len))
                .goto(2),
            StmtDesc::new(2, "1c: Q.slots[t] := p")
                .access(AccessDesc::write_any(self.slots, n))
                .goto(3),
            StmtDesc::new(3, "1d: Q.len := t + 1")
                .access(AccessDesc::write(self.len))
                .goto(4),
            StmtDesc::new(4, "2: while Element(p, Q) do od")
                .access(AccessDesc::read(self.len))
                .access(AccessDesc::read_any(self.slots, n).times(n))
                .returns()
                .back_edge(BackEdge::spin(4)),
        ];
        let exit = vec![
            StmtDesc::new(0, "3a: t := Q.len")
                .access(AccessDesc::read(self.len))
                .goto(1)
                .goto(3),
            // The shift stays one statement here; the decomposition this
            // node demonstrates lives in the enqueue path.
            StmtDesc::new(1, "3b: shift/clear")
                .access(AccessDesc::read_any(self.slots, n).times(n.saturating_sub(1)))
                .access(AccessDesc::write_any(self.slots, n).times(n))
                .goto(2),
            StmtDesc::new(2, "3c: Q.len := t - 1")
                .access(AccessDesc::write(self.len))
                .goto(3),
            StmtDesc::new(3, "3d: f&i(X, 1)")
                .access(AccessDesc::rmw(self.x))
                .returns(),
        ];
        Some(NodeDesc {
            exclusion: None,
            spin_space: SpaceClass::Bounded,
            entry,
            exit,
        })
    }
}

/// Build the naive decomposition as a protocol root (negative control).
pub fn fig1_nonatomic(b: &mut ProtocolBuilder, k: usize) -> NodeId {
    let node = NonatomicQueueNode::new(b, k);
    b.add(node)
}
