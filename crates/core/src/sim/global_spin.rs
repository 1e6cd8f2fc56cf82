//! A non-local-spin baseline: everyone busy-waits on one global counter.
//!
//! Stands in for the Table-1 rows whose remote-reference complexity is
//! unbounded ("∞ with contention"): algorithms such as \[8\] and \[1\] in
//! which waiting processes repeatedly access *shared, contended*
//! variables rather than spinning on a private location. Every retry is a
//! read of a word that other processes keep writing, so under either
//! memory model the waiter's remote-reference count grows without bound
//! while it waits — exactly the behaviour the paper's local-spin
//! algorithms eliminate.
//!
//! The algorithm itself is the obvious counting-semaphore loop:
//!
//! ```text
//! shared X : 0..k initially k
//! entry:  loop { if fetch_and_increment(X,-1) > 0 break;
//!                fetch_and_increment(X, 1);         /* undo */
//!                while X <= 0 do od }               /* remote spin */
//! exit:   fetch_and_increment(X, 1)
//! ```
//!
//! It is safe (never more than `k` inside) but neither starvation-free
//! nor RMR-bounded; both deficiencies are demonstrated in the tests.

use kex_sim::mem::MemCtx;
use kex_sim::node::Node;
use kex_sim::protocol::ProtocolBuilder;
use kex_sim::summary::{AccessDesc, BackEdge, NodeDesc, SpaceClass, StmtDesc};
use kex_sim::types::{NodeId, Pid, Section, Step, VarId, Word};

/// The global-spin baseline node.
pub struct GlobalSpinNode {
    x: VarId,
    k: usize,
}

impl GlobalSpinNode {
    /// Allocate the single shared counter.
    pub fn new(b: &mut ProtocolBuilder, k: usize) -> Self {
        let x = b.vars.alloc("gspin.X", k as Word);
        GlobalSpinNode { x, k }
    }
}

impl Node for GlobalSpinNode {
    fn name(&self) -> String {
        format!("global-spin(k={})", self.k)
    }

    fn step(&self, sec: Section, pc: u32, _locals: &mut [Word], mem: &mut MemCtx<'_>) -> Step {
        match (sec, pc) {
            // Try to grab a slot.
            (Section::Entry, 0) => {
                if mem.fetch_and_increment(self.x, -1) > 0 {
                    Step::Return
                } else {
                    Step::Goto(1)
                }
            }
            // Failed: undo the decrement.
            (Section::Entry, 1) => {
                mem.fetch_and_increment(self.x, 1);
                Step::Goto(2)
            }
            // Spin on the global counter, then retry.
            (Section::Entry, 2) => {
                if mem.read(self.x) > 0 {
                    Step::Goto(0)
                } else {
                    Step::Goto(2)
                }
            }
            (Section::Exit, 0) => {
                mem.fetch_and_increment(self.x, 1);
                Step::Return
            }
            _ => unreachable!("global-spin: bad pc {pc} in {sec}"),
        }
    }

    fn describe(&self, _p: Pid) -> Option<NodeDesc> {
        let entry = vec![
            StmtDesc::new(0, "if f&i(X,-1) > 0 then CS")
                .access(AccessDesc::rmw(self.x))
                .goto(1)
                .returns(),
            StmtDesc::new(1, "f&i(X, 1) /* undo */")
                .access(AccessDesc::rmw(self.x))
                .goto(2),
            // The wait both self-loops on the contended global counter
            // (a remote spin under either model) and, once it observes
            // X > 0, retries from statement 0 — with no bound on how
            // often the race can be lost.
            StmtDesc::new(2, "while X <= 0 do od; retry")
                .access(AccessDesc::read(self.x))
                .back_edge(BackEdge::spin(2))
                .back_edge(BackEdge::unbounded(0)),
        ];
        let exit = vec![StmtDesc::new(0, "f&i(X, 1)")
            .access(AccessDesc::rmw(self.x))
            .returns()];
        Some(NodeDesc {
            exclusion: Some(self.k),
            spin_space: SpaceClass::Bounded,
            entry,
            exit,
        })
    }
}

/// Build the baseline node as a protocol root.
pub fn global_spin(b: &mut ProtocolBuilder, k: usize) -> NodeId {
    let node = GlobalSpinNode::new(b, k);
    b.add(node)
}

#[cfg(test)]
mod tests {
    use crate::sim::build::global_spin_baseline;
    use kex_sim::prelude::*;

    // The exhaustive verdicts — (3, 2) safe, (3, 1) safe but starvable —
    // are the root `tests/model_checking.rs` matrix row and reference
    // negative.

    #[test]
    fn exclusion_holds_exhaustively() {
        let report = explore(global_spin_baseline(4, 2), &ExploreConfig::default());
        report.assert_ok();
    }

    #[test]
    fn waiters_pay_remote_references_while_spinning() {
        // Park p1 behind p0's critical section and count p1's remote
        // references while it spins: they must grow — the opposite of the
        // local-spin property checked for Figure 5.
        let mut w = World::new(
            global_spin_baseline(2, 1),
            MemoryModel::Dsm,
            Timing::default(),
            None,
        );
        while !w.procs[0].phase.in_critical() {
            w.step(0);
        }
        for _ in 0..10 {
            w.step(1); // let p1 reach its spin loop
        }
        let before = w.mem.remote_refs(1);
        for _ in 0..100 {
            w.step(1);
        }
        let spent = w.mem.remote_refs(1) - before;
        assert!(
            spent >= 100,
            "global spinning must burn remote references (got {spent})"
        );
    }
}
