//! Figure 5: `(N, k)`-exclusion on a **distributed shared-memory**
//! machine using an *unbounded* number of local spin locations per
//! process, given an `(N, k+1)` child. Uses `fetch_and_increment` and
//! `compare_and_swap`.
//!
//! ```text
//! type loctype = record pid: 0..N-1; loc: 0..infinity end
//! shared variable
//!     X : -1..k                                initially k
//!     Q : loctype                              initially (0, 0)
//!     P : array[0..N-1][0..infinity] of bool   /* P[p][i] local to p */
//!
//! private variable next, v : loctype           initially next = (p, 0)
//!
//! 0:  Noncritical Section
//! 1:  Acquire(N, k+1)
//! 2:  if fetch_and_increment(X, -1) = 0 then       /* no slots        */
//! 3:      next.loc := next.loc + 1                 /* fresh location  */
//! 4:      P[p][next.loc] := false                  /* initialize      */
//! 5:      v := Q                                   /* current waiter  */
//! 6:      P[v.pid][v.loc] := true                  /* release it      */
//! 7:      if compare_and_swap(Q, v, next) then     /* still the same? */
//! 8:          if X < 0 then                        /* still no slots  */
//! 9:              while not P[p][next.loc] do od   /* local-spin wait */
//!     Critical Section
//! 10: fetch_and_increment(X, 1)
//! 11: v := Q
//! 12: P[v.pid][v.loc] := true
//! 13: Release(N, k+1)
//! ```
//!
//! Every wait uses a location never used before, so no stale-release race
//! exists — at the cost of unbounded space. Figure 6 ([`crate::sim::
//! fig6`]) bounds the space to `k+2` locations per process.
//!
//! The simulator cannot allocate truly unbounded arrays; a stage is built
//! with a `max_locs` capacity and panics if an execution exhausts it, so
//! experiments pick `max_locs` ≥ acquisitions + 1.

use kex_sim::mem::MemCtx;
use kex_sim::node::Node;
use kex_sim::protocol::ProtocolBuilder;
use kex_sim::summary::{AccessDesc, BackEdge, NodeDesc, SpaceClass, StmtDesc};
use kex_sim::types::{NodeId, Pid, Section, Step, VarId, Word};
use kex_sim::vars::at;

use super::loc::LocCodec;

/// Local-variable layout.
const L_NEXT_LOC: usize = 0;
const L_V: usize = 1;

/// One Figure-5 stage: `(N, j)`-exclusion from an `(N, j+1)` child.
pub struct Fig5Stage {
    x: VarId,
    q: VarId,
    /// `P[p][i]`, flattened via the codec; `P[p][..]` owned by `p`.
    p_base: VarId,
    codec: LocCodec,
    child: Option<NodeId>,
    j: usize,
    n: usize,
}

impl Fig5Stage {
    /// Allocate shared variables for `n` processes with `max_locs` spin
    /// locations each (the "unbounded" array, truncated for simulation).
    /// `child` is the `(N, j+1)` algorithm, `None` for the skip basis.
    pub fn new(b: &mut ProtocolBuilder, j: usize, max_locs: usize, child: Option<NodeId>) -> Self {
        let n = b.n();
        let codec = LocCodec::new(max_locs);
        let x = b.vars.alloc(format!("fig5[{j}].X"), j as Word);
        let q = b.vars.alloc(format!("fig5[{j}].Q"), codec.enc(0, 0));
        // Allocate P[p][i] with per-process DSM ownership.
        let p_base = {
            let first = b.vars.alloc_local(format!("fig5[{j}].P[0][0]"), 0, 0);
            for pid in 0..n {
                for i in 0..max_locs {
                    if pid == 0 && i == 0 {
                        continue;
                    }
                    b.vars
                        .alloc_local(format!("fig5[{j}].P[{pid}][{i}]"), pid, 0);
                }
            }
            first
        };
        Fig5Stage {
            x,
            q,
            p_base,
            codec,
            child,
            j,
            n,
        }
    }

    #[inline]
    fn p_at(&self, packed: Word) -> VarId {
        at(self.p_base, self.codec.flat(packed))
    }

    /// Statement 2: `if fetch_and_increment(X,-1) = 0 then ...`
    fn stmt2(&self, mem: &mut MemCtx<'_>) -> Step {
        if mem.fetch_and_increment(self.x, -1) <= 0 {
            Step::Goto(2)
        } else {
            Step::Return
        }
    }
}

impl Node for Fig5Stage {
    fn name(&self) -> String {
        format!("fig5(j={})", self.j)
    }

    fn locals_len(&self) -> usize {
        2
    }

    fn step(&self, sec: Section, pc: u32, locals: &mut [Word], mem: &mut MemCtx<'_>) -> Step {
        let p = mem.pid();
        match (sec, pc) {
            // statement 1: Acquire(N, j+1) — skip at the basis.
            (Section::Entry, 0) => match self.child {
                Some(child) => Step::Call {
                    child,
                    section: Section::Entry,
                    ret: 1,
                },
                None => self.stmt2(mem),
            },
            // statement 2: if fetch_and_increment(X,-1) = 0
            (Section::Entry, 1) => self.stmt2(mem),
            // statement 3: next.loc := next.loc + 1 (private)
            (Section::Entry, 2) => {
                locals[L_NEXT_LOC] += 1;
                assert!(
                    (locals[L_NEXT_LOC] as usize) < self.codec.stride(),
                    "fig5 stage exhausted its simulated spin locations; \
                     raise max_locs or bound the cycle count"
                );
                Step::Goto(3)
            }
            // statement 4: P[p][next.loc] := false (local under DSM)
            (Section::Entry, 3) => {
                let mine = self.codec.enc(p, locals[L_NEXT_LOC]);
                mem.write(self.p_at(mine), 0);
                Step::Goto(4)
            }
            // statement 5: v := Q
            (Section::Entry, 4) => {
                locals[L_V] = mem.read(self.q);
                Step::Goto(5)
            }
            // statement 6: P[v.pid][v.loc] := true
            (Section::Entry, 5) => {
                mem.write(self.p_at(locals[L_V]), 1);
                Step::Goto(6)
            }
            // statement 7: if compare_and_swap(Q, v, next)
            (Section::Entry, 6) => {
                let mine = self.codec.enc(p, locals[L_NEXT_LOC]);
                let installed = mem.compare_and_swap(self.q, locals[L_V], mine);
                locals[L_V] = 0; // dead after the CAS (keeps checker states canonical)
                if installed {
                    Step::Goto(7)
                } else {
                    Step::Return // someone else already replaced Q: no wait
                }
            }
            // statement 8: if X < 0
            (Section::Entry, 7) => {
                if mem.read(self.x) < 0 {
                    Step::Goto(8)
                } else {
                    Step::Return
                }
            }
            // statement 9: while !P[p][next.loc] do od (local spin)
            (Section::Entry, 8) => {
                let mine = self.codec.enc(p, locals[L_NEXT_LOC]);
                if mem.read(self.p_at(mine)) == 0 {
                    Step::Goto(8)
                } else {
                    Step::Return
                }
            }

            // statement 10: fetch_and_increment(X, 1)
            (Section::Exit, 0) => {
                mem.fetch_and_increment(self.x, 1);
                Step::Goto(1)
            }
            // statement 11: v := Q
            (Section::Exit, 1) => {
                locals[L_V] = mem.read(self.q);
                Step::Goto(2)
            }
            // statement 12: P[v.pid][v.loc] := true
            (Section::Exit, 2) => {
                mem.write(self.p_at(locals[L_V]), 1);
                locals[L_V] = 0; // dead
                match self.child {
                    // statement 13: Release(N, j+1) — skip at the basis.
                    Some(child) => Step::Call {
                        child,
                        section: Section::Exit,
                        ret: 3,
                    },
                    None => Step::Return,
                }
            }
            (Section::Exit, 3) => Step::Return,
            _ => unreachable!("fig5 stage: bad pc {pc} in {sec}"),
        }
    }

    fn describe(&self, p: Pid) -> Option<NodeDesc> {
        let locs = self.codec.stride();
        // P[p][..] — the caller's own (locally owned) row.
        let own_row = at(self.p_base, p * locs);
        // P[*][*] — statements 6/12 release whichever record Q held.
        let all = self.n * locs;
        let mut entry = vec![match self.child {
            Some(child) => StmtDesc::new(0, "1: Acquire(N, j+1)").call(child, Section::Entry, 1),
            None => StmtDesc::new(0, "2: if f&i(X,-1) <= 0 (basis)")
                .access(AccessDesc::rmw(self.x))
                .goto(2)
                .returns(),
        }];
        entry.extend([
            StmtDesc::new(1, "2: if f&i(X,-1) <= 0")
                .access(AccessDesc::rmw(self.x))
                .goto(2)
                .returns(),
            StmtDesc::new(2, "3: next.loc := next.loc + 1").goto(3),
            StmtDesc::new(3, "4: P[p][next.loc] := false")
                .access(AccessDesc::write_any(own_row, locs))
                .goto(4),
            StmtDesc::new(4, "5: v := Q")
                .access(AccessDesc::read(self.q))
                .goto(5),
            StmtDesc::new(5, "6: P[v.pid][v.loc] := true")
                .access(AccessDesc::write_any(self.p_base, all))
                .goto(6),
            StmtDesc::new(6, "7: if CAS(Q, v, next)")
                .access(AccessDesc::rmw(self.q))
                .goto(7)
                .returns(),
            StmtDesc::new(7, "8: if X < 0")
                .access(AccessDesc::read(self.x))
                .goto(8)
                .returns(),
            StmtDesc::new(8, "9: while !P[p][next.loc] do od")
                .access(AccessDesc::read_any(own_row, locs))
                .returns()
                .back_edge(BackEdge::spin(8)),
        ]);
        let mut exit = vec![
            StmtDesc::new(0, "10: f&i(X, 1)")
                .access(AccessDesc::rmw(self.x))
                .goto(1),
            StmtDesc::new(1, "11: v := Q")
                .access(AccessDesc::read(self.q))
                .goto(2),
        ];
        match self.child {
            Some(child) => {
                exit.push(
                    StmtDesc::new(2, "12: P[v.pid][v.loc] := true")
                        .access(AccessDesc::write_any(self.p_base, all))
                        .call(child, Section::Exit, 3),
                );
                exit.push(StmtDesc::new(3, "13: Release(N, j+1) done").returns());
            }
            None => exit.push(
                StmtDesc::new(2, "12: P[v.pid][v.loc] := true")
                    .access(AccessDesc::write_any(self.p_base, all))
                    .returns(),
            ),
        }
        Some(NodeDesc {
            exclusion: Some(self.j),
            // The paper-true algorithm consumes a fresh location per wait;
            // the simulator's `max_locs` truncation is an artifact.
            spin_space: SpaceClass::Unbounded,
            entry,
            exit,
        })
    }
}

/// Build the Theorem-5-style inductive chain out of Figure-5 stages:
/// `(m, k)`-exclusion via stages `j = m-1 .. k` (skip basis).
///
/// `max_locs` bounds the per-process spin-location supply of every stage;
/// executions that wait more than `max_locs - 1` times in one stage panic.
pub fn fig5_chain(b: &mut ProtocolBuilder, m: usize, k: usize, max_locs: usize) -> NodeId {
    assert!(k >= 1 && k < m, "fig5 chain requires 1 <= k < m");
    let mut child: Option<NodeId> = None;
    for j in (k..m).rev() {
        let stage = Fig5Stage::new(b, j, max_locs, child);
        child = Some(b.add(stage));
    }
    child.unwrap()
}

#[cfg(test)]
mod tests {
    use crate::sim::build::dsm_unbounded_chain;
    use kex_sim::prelude::*;

    #[test]
    fn safe_and_quiescent_under_round_robin() {
        let mut sim = Sim::new(dsm_unbounded_chain(3, 1, 128), MemoryModel::Dsm)
            .cycles(25)
            .build();
        let report = sim.run(1_000_000);
        report.assert_safe();
        assert_eq!(report.stop, StopReason::Quiescent);
        assert_eq!(report.completed, vec![25, 25, 25]);
    }

    #[test]
    fn safe_under_random_schedules() {
        for seed in 0..15 {
            let mut sim = Sim::new(dsm_unbounded_chain(4, 2, 256), MemoryModel::Dsm)
                .cycles(25)
                .scheduler(RandomSched::new(seed))
                .timing(Timing {
                    ncs_steps: 1,
                    cs_steps: 1,
                })
                .build();
            let report = sim.run(5_000_000);
            report.assert_safe();
            assert_eq!(report.stop, StopReason::Quiescent, "seed {seed}");
        }
    }

    #[test]
    fn exhaustive_three_two_over_two_cycles() {
        // Figure 5's state space is infinite (fresh locations forever), so
        // the explorer bounds each process to a few cycles: (3,2) over two
        // cycles is ~220k states. (2,1) over three cycles is a row of the
        // root `tests/model_checking.rs` matrix.
        let cfg = ExploreConfig {
            cycles: Some(2),
            ..ExploreConfig::default()
        };
        let report = explore(dsm_unbounded_chain(3, 2, 16), &cfg);
        report.assert_ok();
    }

    #[test]
    fn all_spinning_is_on_locally_owned_variables_under_dsm() {
        // The local-spin property: a waiting process generates no remote
        // references while it waits. We run a schedule in which p1 is
        // parked waiting while p0 repeatedly wins, and assert p1's remote
        // count does not grow while it spins.
        let proto = dsm_unbounded_chain(2, 1, 64);
        let mut w = World::new(proto, MemoryModel::Dsm, Timing::default(), None);
        // Drive p0 into its CS.
        while !w.procs[0].phase.in_critical() {
            w.step(0);
        }
        // Drive p1 until it is spinning (its whole frame stack is stable
        // across a step).
        let spin_pc = loop {
            let before = w.procs[1].stack.clone();
            w.step(1);
            if !before.is_empty() && before == w.procs[1].stack {
                break before.last().unwrap().pc;
            }
        };
        assert_eq!(spin_pc, 8, "p1 should be in the statement-9 spin loop");
        let before = w.mem.remote_refs(1);
        for _ in 0..1000 {
            w.step(1);
        }
        assert_eq!(
            w.mem.remote_refs(1),
            before,
            "spinning must be free of remote references under DSM"
        );
    }

    #[test]
    #[should_panic(expected = "exhausted its simulated spin locations")]
    fn exhausting_the_location_supply_is_loud() {
        // Long critical sections force the loser onto the slow branch
        // every cycle, so its location counter must exhaust max_locs = 3.
        let mut sim = Sim::new(dsm_unbounded_chain(2, 1, 3), MemoryModel::Dsm)
            .cycles(50)
            .timing(Timing {
                ncs_steps: 0,
                cs_steps: 8,
            })
            .build();
        let _ = sim.run(10_000_000);
    }
}
