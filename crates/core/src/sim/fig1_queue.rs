//! Figure 1: `(N, k)`-exclusion from an atomic queue — the paper's
//! illustration of why the "obvious" queue solution is unattractive.
//!
//! ```text
//! shared variable
//!     X : (k-N)..k initially k   /* available slots minus waiters */
//!     Q : queue of 0..N-1        /* initially empty */
//!
//! 0: Noncritical Section
//! 1: <if fetch_and_increment(X, -1) <= 0 then Enqueue(p, Q)>   (atomic)
//! 2: while Element(p, Q) do od   /* busy-wait until dequeued */
//!    Critical Section
//! 3: <Dequeue(Q); fetch_and_increment(X, 1)>                   (atomic)
//! ```
//!
//! Two problems, both demonstrated by this crate's tests and benches:
//!
//! 1. The angle-bracketed statements are **multi-word atomic sections** —
//!    trivial in a simulator whose statements are atomic by construction,
//!    but unrealistic on real hardware (the paper's Table 1 lists these
//!    algorithms under "Large Critical Sections"). Deleting the brackets
//!    breaks the algorithm outright; see [`mod@crate::sim::fig1_nonatomic`],
//!    where the model checker finds the violation.
//! 2. The FIFO queue couples waiters: a waiter that crashes is eventually
//!    dequeued by an exiting process and silently swallows that grant —
//!    one of the `k` slots is destroyed (as in any counting algorithm
//!    whose victim crashed after its decrement). With the brackets intact
//!    the algorithm is still `(k-1)`-resilient; it is the brackets
//!    themselves — unimplementable with realistic primitives without
//!    reintroducing a single lock — that the paper's new algorithms
//!    eliminate, while also cutting the RMR cost.
//!
//! The queue is a fixed array `q[0..N]` plus a length word, kept
//! compacted at index 0 (dequeue shifts left). Shifting costs extra
//! accounted accesses, but they fall inside the statement-3 "large
//! atomic section" whose unrealism is this baseline's point — and the
//! canonical layout keeps the model checker's state space small.

use kex_sim::mem::MemCtx;
use kex_sim::node::Node;
use kex_sim::protocol::ProtocolBuilder;
use kex_sim::summary::{AccessDesc, BackEdge, NodeDesc, SpaceClass, StmtDesc};
use kex_sim::types::{Pid, Section, Step, VarId, Word};
use kex_sim::vars::at;

/// The Figure-1 queue-based `(N, k)`-exclusion node.
pub struct QueueKexNode {
    x: VarId,
    len: VarId,
    slots: VarId,
    n: usize,
}

impl QueueKexNode {
    /// Allocate the counter and queue variables.
    pub fn new(b: &mut ProtocolBuilder, k: usize) -> Self {
        let n = b.n();
        let x = b.vars.alloc("fig1.X", k as Word);
        let len = b.vars.alloc("fig1.len", 0);
        let slots = b.vars.alloc_array("fig1.q", n, -1);
        QueueKexNode { x, len, slots, n }
    }

    /// `Element(p, Q)`: scan the occupied prefix. Performed within a
    /// single atomic statement (each read is RMR-accounted).
    fn element(&self, mem: &mut MemCtx<'_>, p: Word) -> bool {
        let len = mem.read(self.len);
        for i in 0..len as usize {
            if mem.read(at(self.slots, i)) == p {
                return true;
            }
        }
        false
    }
}

impl Node for QueueKexNode {
    fn name(&self) -> String {
        format!("fig1-queue(n={})", self.n)
    }

    fn step(&self, sec: Section, pc: u32, _locals: &mut [Word], mem: &mut MemCtx<'_>) -> Step {
        let p = mem.pid() as Word;
        match (sec, pc) {
            // statement 1 (atomic): if f&i(X,-1) <= 0 then Enqueue(p, Q)
            (Section::Entry, 0) => {
                if mem.fetch_and_increment(self.x, -1) <= 0 {
                    let len = mem.read(self.len);
                    mem.write(at(self.slots, len as usize), p);
                    mem.write(self.len, len + 1);
                    Step::Goto(1)
                } else {
                    Step::Return
                }
            }
            // statement 2: while Element(p, Q) do od
            (Section::Entry, 1) => {
                if self.element(mem, p) {
                    Step::Goto(1)
                } else {
                    Step::Return
                }
            }
            // statement 3 (atomic): Dequeue(Q); f&i(X, 1)
            (Section::Exit, 0) => {
                let len = mem.read(self.len);
                if len > 0 {
                    // Shift the queue left by one (compacted layout).
                    for i in 1..len as usize {
                        let v = mem.read(at(self.slots, i));
                        mem.write(at(self.slots, i - 1), v);
                    }
                    mem.write(at(self.slots, len as usize - 1), -1);
                    mem.write(self.len, len - 1);
                }
                mem.fetch_and_increment(self.x, 1);
                Step::Return
            }
            _ => unreachable!("fig1: bad pc {pc} in {sec}"),
        }
    }

    fn describe(&self, _p: Pid) -> Option<NodeDesc> {
        let n = self.n;
        let entry = vec![
            // The angle-bracketed enqueue: four word accesses fused into
            // one statement — exactly what the atomic-section lint is for.
            StmtDesc::new(0, "<if f&i(X,-1) <= 0 then Enqueue(p, Q)>")
                .access(AccessDesc::rmw(self.x))
                .access(AccessDesc::read(self.len))
                .access(AccessDesc::write_any(self.slots, n))
                .access(AccessDesc::write(self.len))
                .goto(1)
                .returns(),
            // Each wait iteration re-scans the whole occupied prefix.
            StmtDesc::new(1, "while Element(p, Q) do od")
                .access(AccessDesc::read(self.len))
                .access(AccessDesc::read_any(self.slots, n).times(n))
                .returns()
                .back_edge(BackEdge::spin(1)),
        ];
        let exit = vec![
            // Dequeue-with-shift plus the slot release, all in one
            // bracket: ~2N accesses in a single "atomic" statement.
            StmtDesc::new(0, "<Dequeue(Q); f&i(X, 1)>")
                .access(AccessDesc::read(self.len))
                .access(AccessDesc::read_any(self.slots, n).times(n.saturating_sub(1)))
                .access(AccessDesc::write_any(self.slots, n).times(n))
                .access(AccessDesc::write(self.len))
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

/// Build the Figure-1 node as a protocol root.
pub fn fig1_queue(b: &mut ProtocolBuilder, k: usize) -> kex_sim::types::NodeId {
    let node = QueueKexNode::new(b, k);
    b.add(node)
}

#[cfg(test)]
mod tests {
    use crate::sim::build::queue_fig1;
    use kex_sim::prelude::*;

    // The exhaustive verdicts — (3, 1) and (3, 2) safe and starvation-free,
    // and (3, 2) surviving one crash at the cost of a slot — are rows of
    // the root `tests/model_checking.rs` matrix. The paper's objection to
    // this algorithm, that naive decompositions of its atomic sections
    // break, is that file's replayable counterexample.

    #[test]
    fn safe_and_quiescent_without_failures() {
        for seed in 0..10 {
            let mut sim = Sim::new(queue_fig1(5, 2), MemoryModel::CacheCoherent)
                .cycles(25)
                .scheduler(RandomSched::new(seed))
                .timing(Timing {
                    ncs_steps: 1,
                    cs_steps: 2,
                })
                .build();
            let report = sim.run(5_000_000);
            report.assert_safe();
            assert_eq!(report.stop, StopReason::Quiescent, "seed {seed}");
        }
    }
}
