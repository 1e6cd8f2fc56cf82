//! The MCS queue lock (Mellor-Crummey & Scott 1991, the paper's \[12\])
//! as a mutual-exclusion reference point.
//!
//! §5 sets the aspiration: *"We would also like for such algorithms to
//! have performance that approaches that of the fastest spin-lock
//! algorithms \[2, 11, 12, 14\] when k approaches 1."* MCS is that
//! yardstick: `O(1)` remote references per acquisition on both machine
//! models (each process spins on its own queue node), FIFO-fair, but
//! **only** mutual exclusion (`k = 1`) and **not** crash-resilient — a
//! process that dies holding the lock, or parked in the queue, wedges
//! everyone behind it. The experiment harness compares it against the
//! paper's `(N, 1)`-exclusion instances.
//!
//! Uses `swap` (fetch-and-store) and `compare_and_swap`.
//!
//! ```text
//! shared tail : pid | nil,  next[p] : pid | nil,  locked[p] : bool
//! entry:  1: next[p] := nil
//!         2: pred := swap(tail, p)
//!         3: if pred != nil then
//!              locked[p] := true
//!         4:   next[pred] := p
//!         5:   while locked[p] do od          /* local spin */
//! exit:   6: if next[p] = nil then
//!              if compare_and_swap(tail, p, nil) then return
//!         7:   while next[p] = nil do od      /* successor announcing */
//!         8: locked[next[p]] := false
//! ```

use kex_sim::mem::MemCtx;
use kex_sim::node::Node;
use kex_sim::protocol::ProtocolBuilder;
use kex_sim::summary::{AccessDesc, BackEdge, NodeDesc, SpaceClass, StmtDesc};
use kex_sim::types::{NodeId, Pid, Section, Step, VarId, Word};
use kex_sim::vars::at;

/// Sentinel for "nil" process references.
const NIL: Word = -1;

/// Local-variable layout.
const L_PRED: usize = 0;

/// The MCS mutual-exclusion node.
pub struct McsNode {
    tail: VarId,
    /// `next[p]`, homed at `p`... except that predecessors write it, so
    /// under DSM it is remote to the writer and local to the spinner's
    /// *successor* — as in the original algorithm, where queue nodes
    /// live in their owner's memory.
    next: VarId,
    /// `locked[p]`, homed at `p` (the spin location).
    locked: VarId,
    n: usize,
}

impl McsNode {
    /// Allocate the lock's variables for the builder's process universe.
    pub fn new(b: &mut ProtocolBuilder) -> Self {
        let n = b.n();
        let tail = b.vars.alloc("mcs.tail", NIL);
        let mut next = None;
        for p in 0..n {
            let v = b.vars.alloc_local(format!("mcs.next[{p}]"), p, NIL);
            next.get_or_insert(v);
        }
        let mut locked = None;
        for p in 0..n {
            let v = b.vars.alloc_local(format!("mcs.locked[{p}]"), p, 0);
            locked.get_or_insert(v);
        }
        McsNode {
            tail,
            next: next.unwrap(),
            locked: locked.unwrap(),
            n,
        }
    }
}

impl Node for McsNode {
    fn name(&self) -> String {
        format!("mcs(n={})", self.n)
    }

    fn locals_len(&self) -> usize {
        1
    }

    fn step(&self, sec: Section, pc: u32, locals: &mut [Word], mem: &mut MemCtx<'_>) -> Step {
        let p = mem.pid();
        match (sec, pc) {
            // 1: next[p] := nil
            (Section::Entry, 0) => {
                mem.write(at(self.next, p), NIL);
                Step::Goto(1)
            }
            // 2: pred := swap(tail, p)
            (Section::Entry, 1) => {
                locals[L_PRED] = mem.swap(self.tail, p as Word);
                if locals[L_PRED] == NIL {
                    Step::Return // lock acquired
                } else {
                    Step::Goto(2)
                }
            }
            // 3: locked[p] := true
            (Section::Entry, 2) => {
                mem.write(at(self.locked, p), 1);
                Step::Goto(3)
            }
            // 4: next[pred] := p
            (Section::Entry, 3) => {
                mem.write(at(self.next, locals[L_PRED] as usize), p as Word);
                Step::Goto(4)
            }
            // 5: while locked[p] do od (local spin)
            (Section::Entry, 4) => {
                if mem.read(at(self.locked, p)) != 0 {
                    Step::Goto(4)
                } else {
                    Step::Return
                }
            }

            // 6: if next[p] = nil then try CAS(tail, p, nil)
            (Section::Exit, 0) => {
                if mem.read(at(self.next, p)) == NIL {
                    Step::Goto(1)
                } else {
                    Step::Goto(3)
                }
            }
            (Section::Exit, 1) => {
                if mem.compare_and_swap(self.tail, p as Word, NIL) {
                    Step::Return // no successor: done
                } else {
                    Step::Goto(2)
                }
            }
            // 7: while next[p] = nil do od (successor is announcing)
            (Section::Exit, 2) => {
                if mem.read(at(self.next, p)) == NIL {
                    Step::Goto(2)
                } else {
                    Step::Goto(3)
                }
            }
            // 8: locked[next[p]] := false
            (Section::Exit, 3) => {
                let succ = mem.read(at(self.next, p));
                mem.write(at(self.locked, succ as usize), 0);
                Step::Return
            }
            _ => unreachable!("mcs: bad pc {pc} in {sec}"),
        }
    }

    fn describe(&self, p: Pid) -> Option<NodeDesc> {
        let my_next = at(self.next, p);
        let my_locked = at(self.locked, p);
        let entry = vec![
            StmtDesc::new(0, "1: next[p] := nil")
                .access(AccessDesc::write(my_next))
                .goto(1),
            StmtDesc::new(1, "2: pred := swap(tail, p)")
                .access(AccessDesc::rmw(self.tail))
                .goto(2)
                .returns(),
            StmtDesc::new(2, "3: locked[p] := true")
                .access(AccessDesc::write(my_locked))
                .goto(3),
            StmtDesc::new(3, "4: next[pred] := p")
                .access(AccessDesc::write_any(self.next, self.n))
                .goto(4),
            StmtDesc::new(4, "5: while locked[p] do od")
                .access(AccessDesc::read(my_locked))
                .returns()
                .back_edge(BackEdge::spin(4)),
        ];
        let exit = vec![
            StmtDesc::new(0, "6: if next[p] = nil")
                .access(AccessDesc::read(my_next))
                .goto(1)
                .goto(3),
            StmtDesc::new(1, "if CAS(tail, p, nil)")
                .access(AccessDesc::rmw(self.tail))
                .goto(2)
                .returns(),
            StmtDesc::new(2, "7: while next[p] = nil do od")
                .access(AccessDesc::read(my_next))
                .goto(3)
                .back_edge(BackEdge::spin(2)),
            StmtDesc::new(3, "8: locked[next[p]] := false")
                .access(AccessDesc::read(my_next))
                .access(AccessDesc::write_any(self.locked, self.n))
                .returns(),
        ];
        Some(NodeDesc {
            exclusion: Some(1),
            spin_space: SpaceClass::Bounded,
            entry,
            exit,
        })
    }
}

/// Build an MCS lock as a protocol root (k = 1).
pub fn mcs(b: &mut ProtocolBuilder) -> NodeId {
    let node = McsNode::new(b);
    b.add(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kex_sim::prelude::*;
    use std::sync::Arc;

    fn protocol(n: usize) -> Arc<Protocol> {
        let mut b = ProtocolBuilder::new(n);
        let root = mcs(&mut b);
        b.finish(root, 1)
    }

    #[test]
    fn exhaustive_mutual_exclusion_and_liveness() {
        // Its zero crash resilience, one crash wedging every successor,
        // is a reference negative of the root `tests/model_checking.rs`.
        let report = explore(protocol(3), &ExploreConfig::default());
        report.assert_ok();
        check_starvation_freedom(&report).expect("MCS is FIFO, hence starvation-free");
    }

    #[test]
    fn safe_under_random_schedules() {
        for seed in 0..10 {
            let mut sim = Sim::new(protocol(6), MemoryModel::Dsm)
                .cycles(25)
                .scheduler(RandomSched::new(seed))
                .timing(Timing {
                    ncs_steps: 1,
                    cs_steps: 3,
                })
                .build();
            let report = sim.run(10_000_000);
            report.assert_safe();
            assert_eq!(report.stop, StopReason::Quiescent, "seed {seed}");
        }
    }

    #[test]
    fn constant_rmr_per_acquisition_on_both_models() {
        // The point of the comparison: MCS pays O(1) remote references
        // per acquisition regardless of N, on CC and on DSM.
        for model in [MemoryModel::CacheCoherent, MemoryModel::Dsm] {
            for n in [4usize, 8, 16] {
                let mut worst = 0;
                for seed in 0..6 {
                    let mut sim = Sim::new(protocol(n), model)
                        .cycles(20)
                        .scheduler(RandomSched::new(seed))
                        .build();
                    let report = sim.run(50_000_000);
                    report.assert_safe();
                    worst = worst.max(report.stats.worst_pair());
                }
                assert!(
                    worst <= 10,
                    "MCS should be O(1) RMR, got {worst} at n={n} under {model:?}"
                );
            }
        }
    }
}
