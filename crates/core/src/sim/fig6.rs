//! Figure 6: `(N, k)`-exclusion on a **distributed shared-memory**
//! machine using a *bounded* set of `k+2` spin locations per process,
//! given an `(N, k+1)` child. Uses `fetch_and_increment` and
//! `compare_and_swap`.
//!
//! ```text
//! type loctype = record pid: 0..N-1; loc: 0..k+1 end
//! shared variable
//!     X : -1..k                              initially k
//!     Q : loctype                            initially (0, 0)
//!     P : array[0..N-1][0..k+1] of bool      /* P[p][i], R[p][i]  */
//!     R : array[0..N-1][0..k+1] of 0..k+1    /*   local to p      */
//!
//! private variable u, next : loctype; last : 0..k+1 initially 0
//!
//! 0:  Noncritical Section
//! 1:  Acquire(N, k+1)
//! 2:  if fetch_and_increment(X, -1) = 0 then
//! 3:      next.loc := (last + 1) mod (k+2)     /* start after last     */
//! 4:      while R[p][next.loc] != 0 do         /* find an unused slot  */
//! 5:          next.loc := (next.loc + 1) mod (k+2)
//! 6:      P[p][next.loc] := false              /* initialize           */
//! 7:      u := Q                               /* current spin loc     */
//! 8:      fetch_and_increment(R[u.pid][u.loc], 1)  /* "about to write" */
//! 9:      if Q = u then                        /* unchanged?           */
//! 10:         P[u.pid][u.loc] := true          /* release spinner      */
//! 11:     if compare_and_swap(Q, u, next) then /* install our location */
//! 12:         last := next.loc
//! 13:         if X < 0 then
//! 14:             while not P[p][next.loc] do od   /* local-spin wait  */
//! 15:     fetch_and_increment(R[u.pid][u.loc], -1) /* done with u      */
//!     Critical Section
//! 16: fetch_and_increment(X, 1)
//! 17: u := Q
//! 18: fetch_and_increment(R[u.pid][u.loc], 1)
//! 19: if Q = u then
//! 20:     P[u.pid][u.loc] := true
//! 21: fetch_and_increment(R[u.pid][u.loc], -1)
//! 22: Release(N, k+1)
//! ```
//!
//! The handshake counters `R[p][v]` tell `p` which of its spin locations
//! might still be written by a delayed releaser, so `p` can safely re-use
//! locations — bounding space where Figure 5 needed an unbounded supply.
//! Worst case under DSM: 8 entry + 6 exit = 14 remote references per
//! stage (Theorem 5: `14(N-k)` for the chain).

use kex_sim::mem::MemCtx;
use kex_sim::node::Node;
use kex_sim::protocol::ProtocolBuilder;
use kex_sim::summary::{AccessDesc, BackEdge, NodeDesc, SpaceClass, StmtDesc};
use kex_sim::types::{NodeId, Pid, Section, Step, VarId, Word};
use kex_sim::vars::at;

use super::loc::LocCodec;

/// Local-variable layout.
const L_LAST: usize = 0;
const L_NEXT_LOC: usize = 1;
const L_U: usize = 2;

/// One Figure-6 stage: `(N, j)`-exclusion from an `(N, j+1)` child with
/// `j+2` spin locations per process.
pub struct Fig6Stage {
    x: VarId,
    q: VarId,
    p_base: VarId,
    r_base: VarId,
    codec: LocCodec,
    child: Option<NodeId>,
    j: usize,
    n: usize,
}

impl Fig6Stage {
    /// Allocate the stage's shared variables: `X`, `Q`, and the
    /// per-process arrays `P[p][0..j+2]`, `R[p][0..j+2]` homed at `p`.
    /// `child` is the `(N, j+1)` algorithm, `None` for the skip basis.
    pub fn new(b: &mut ProtocolBuilder, j: usize, child: Option<NodeId>) -> Self {
        let n = b.n();
        let locs = j + 2;
        let codec = LocCodec::new(locs);
        let x = b.vars.alloc(format!("fig6[{j}].X"), j as Word);
        let q = b.vars.alloc(format!("fig6[{j}].Q"), codec.enc(0, 0));
        let mut p_base = None;
        for pid in 0..n {
            for i in 0..locs {
                let v = b
                    .vars
                    .alloc_local(format!("fig6[{j}].P[{pid}][{i}]"), pid, 0);
                p_base.get_or_insert(v);
            }
        }
        let mut r_base = None;
        for pid in 0..n {
            for i in 0..locs {
                let v = b
                    .vars
                    .alloc_local(format!("fig6[{j}].R[{pid}][{i}]"), pid, 0);
                r_base.get_or_insert(v);
            }
        }
        Fig6Stage {
            x,
            q,
            p_base: p_base.unwrap(),
            r_base: r_base.unwrap(),
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

    #[inline]
    fn r_at(&self, packed: Word) -> VarId {
        at(self.r_base, self.codec.flat(packed))
    }

    #[inline]
    fn mine(&self, p: Pid, locals: &[Word]) -> Word {
        self.codec.enc(p, locals[L_NEXT_LOC])
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

impl Node for Fig6Stage {
    fn name(&self) -> String {
        format!("fig6(j={})", self.j)
    }

    fn locals_len(&self) -> usize {
        3
    }

    fn step(&self, sec: Section, pc: u32, locals: &mut [Word], mem: &mut MemCtx<'_>) -> Step {
        let p = mem.pid();
        let locs = self.codec.stride() as Word;
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
            // statement 2
            (Section::Entry, 1) => self.stmt2(mem),
            // statement 3: next.loc := (last + 1) mod (j+2)   (private)
            (Section::Entry, 2) => {
                locals[L_NEXT_LOC] = (locals[L_LAST] + 1) % locs;
                Step::Goto(3)
            }
            // statement 4: while R[p][next.loc] != 0 ...
            (Section::Entry, 3) => {
                let mine = self.mine(p, locals);
                if mem.read(self.r_at(mine)) != 0 {
                    Step::Goto(4)
                } else {
                    Step::Goto(5)
                }
            }
            // statement 5: ... do next.loc := (next.loc + 1) mod (j+2)
            (Section::Entry, 4) => {
                locals[L_NEXT_LOC] = (locals[L_NEXT_LOC] + 1) % locs;
                Step::Goto(3)
            }
            // statement 6: P[p][next.loc] := false
            (Section::Entry, 5) => {
                let mine = self.mine(p, locals);
                mem.write(self.p_at(mine), 0);
                Step::Goto(6)
            }
            // statement 7: u := Q
            (Section::Entry, 6) => {
                locals[L_U] = mem.read(self.q);
                Step::Goto(7)
            }
            // statement 8: fetch_and_increment(R[u], 1)
            (Section::Entry, 7) => {
                mem.fetch_and_increment(self.r_at(locals[L_U]), 1);
                Step::Goto(8)
            }
            // statement 9: if Q = u then
            (Section::Entry, 8) => {
                if mem.read(self.q) == locals[L_U] {
                    Step::Goto(9)
                } else {
                    Step::Goto(10)
                }
            }
            // statement 10: P[u] := true
            (Section::Entry, 9) => {
                mem.write(self.p_at(locals[L_U]), 1);
                Step::Goto(10)
            }
            // statement 11: if compare_and_swap(Q, u, next) then
            (Section::Entry, 10) => {
                let mine = self.mine(p, locals);
                if mem.compare_and_swap(self.q, locals[L_U], mine) {
                    Step::Goto(11)
                } else {
                    Step::Goto(14)
                }
            }
            // statement 12: last := next.loc   (private)
            (Section::Entry, 11) => {
                locals[L_LAST] = locals[L_NEXT_LOC];
                Step::Goto(12)
            }
            // statement 13: if X < 0 then
            (Section::Entry, 12) => {
                if mem.read(self.x) < 0 {
                    Step::Goto(13)
                } else {
                    Step::Goto(14)
                }
            }
            // statement 14: while not P[p][next.loc] do od (local spin)
            (Section::Entry, 13) => {
                let mine = self.mine(p, locals);
                if mem.read(self.p_at(mine)) == 0 {
                    Step::Goto(13)
                } else {
                    Step::Goto(14)
                }
            }
            // statement 15: fetch_and_increment(R[u], -1)
            (Section::Entry, 14) => {
                mem.fetch_and_increment(self.r_at(locals[L_U]), -1);
                // u and next.loc are dead until the next entry; clearing
                // them keeps model-checker states canonical.
                locals[L_U] = 0;
                locals[L_NEXT_LOC] = 0;
                Step::Return
            }

            // statement 16: fetch_and_increment(X, 1)
            (Section::Exit, 0) => {
                mem.fetch_and_increment(self.x, 1);
                Step::Goto(1)
            }
            // statement 17: u := Q
            (Section::Exit, 1) => {
                locals[L_U] = mem.read(self.q);
                Step::Goto(2)
            }
            // statement 18: fetch_and_increment(R[u], 1)
            (Section::Exit, 2) => {
                mem.fetch_and_increment(self.r_at(locals[L_U]), 1);
                Step::Goto(3)
            }
            // statement 19: if Q = u then
            (Section::Exit, 3) => {
                if mem.read(self.q) == locals[L_U] {
                    Step::Goto(4)
                } else {
                    Step::Goto(5)
                }
            }
            // statement 20: P[u] := true
            (Section::Exit, 4) => {
                mem.write(self.p_at(locals[L_U]), 1);
                Step::Goto(5)
            }
            // statement 21: fetch_and_increment(R[u], -1)
            (Section::Exit, 5) => {
                mem.fetch_and_increment(self.r_at(locals[L_U]), -1);
                locals[L_U] = 0; // dead
                match self.child {
                    // statement 22: Release(N, j+1) — skip at the basis.
                    Some(child) => Step::Call {
                        child,
                        section: Section::Exit,
                        ret: 6,
                    },
                    None => Step::Return,
                }
            }
            (Section::Exit, 6) => Step::Return,
            _ => unreachable!("fig6 stage: bad pc {pc} in {sec}"),
        }
    }

    fn describe(&self, p: Pid) -> Option<NodeDesc> {
        let locs = self.codec.stride();
        // p's own rows of P and R (locally homed under DSM) vs the full
        // arrays (statements addressing `u = Q`'s record).
        let own_p = at(self.p_base, p * locs);
        let own_r = at(self.r_base, p * locs);
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
            StmtDesc::new(2, "3: next.loc := (last + 1) mod (j+2)").goto(3),
            StmtDesc::new(3, "4: while R[p][next.loc] != 0")
                .access(AccessDesc::read_any(own_r, locs))
                .goto(4)
                .goto(5),
            // The search visits each of the j+2 slots at most once (the
            // paper's statement-4/5 termination argument).
            StmtDesc::new(4, "5: next.loc := (next.loc + 1) mod (j+2)")
                .back_edge(BackEdge::bounded(3, locs)),
            StmtDesc::new(5, "6: P[p][next.loc] := false")
                .access(AccessDesc::write_any(own_p, locs))
                .goto(6),
            StmtDesc::new(6, "7: u := Q")
                .access(AccessDesc::read(self.q))
                .goto(7),
            StmtDesc::new(7, "8: f&i(R[u.pid][u.loc], 1)")
                .access(AccessDesc::rmw_any(self.r_base, all))
                .goto(8),
            StmtDesc::new(8, "9: if Q = u")
                .access(AccessDesc::read(self.q))
                .goto(9)
                .goto(10),
            StmtDesc::new(9, "10: P[u.pid][u.loc] := true")
                .access(AccessDesc::write_any(self.p_base, all))
                .goto(10),
            StmtDesc::new(10, "11: if CAS(Q, u, next)")
                .access(AccessDesc::rmw(self.q))
                .goto(11)
                .goto(14),
            StmtDesc::new(11, "12: last := next.loc").goto(12),
            StmtDesc::new(12, "13: if X < 0")
                .access(AccessDesc::read(self.x))
                .goto(13)
                .goto(14),
            StmtDesc::new(13, "14: while !P[p][next.loc] do od")
                .access(AccessDesc::read_any(own_p, locs))
                .goto(14)
                .back_edge(BackEdge::spin(13)),
            StmtDesc::new(14, "15: f&i(R[u.pid][u.loc], -1)")
                .access(AccessDesc::rmw_any(self.r_base, all))
                .returns(),
        ]);
        let mut exit = vec![
            StmtDesc::new(0, "16: f&i(X, 1)")
                .access(AccessDesc::rmw(self.x))
                .goto(1),
            StmtDesc::new(1, "17: u := Q")
                .access(AccessDesc::read(self.q))
                .goto(2),
            StmtDesc::new(2, "18: f&i(R[u.pid][u.loc], 1)")
                .access(AccessDesc::rmw_any(self.r_base, all))
                .goto(3),
            StmtDesc::new(3, "19: if Q = u")
                .access(AccessDesc::read(self.q))
                .goto(4)
                .goto(5),
            StmtDesc::new(4, "20: P[u.pid][u.loc] := true")
                .access(AccessDesc::write_any(self.p_base, all))
                .goto(5),
        ];
        match self.child {
            Some(child) => {
                exit.push(
                    StmtDesc::new(5, "21: f&i(R[u.pid][u.loc], -1)")
                        .access(AccessDesc::rmw_any(self.r_base, all))
                        .call(child, Section::Exit, 6),
                );
                exit.push(StmtDesc::new(6, "22: Release(N, j+1) done").returns());
            }
            None => exit.push(
                StmtDesc::new(5, "21: f&i(R[u.pid][u.loc], -1)")
                    .access(AccessDesc::rmw_any(self.r_base, all))
                    .returns(),
            ),
        }
        Some(NodeDesc {
            exclusion: Some(self.j),
            spin_space: SpaceClass::Bounded,
            entry,
            exit,
        })
    }
}

/// Build the Theorem-5 inductive chain out of Figure-6 stages:
/// `(m, k)`-exclusion with bounded space. Worst-case remote references
/// per entry+exit pair under DSM: `14(m-k)` (Theorem 5).
pub fn fig6_chain(b: &mut ProtocolBuilder, m: usize, k: usize) -> NodeId {
    assert!(k >= 1 && k < m, "fig6 chain requires 1 <= k < m");
    let mut child: Option<NodeId> = None;
    for j in (k..m).rev() {
        let stage = Fig6Stage::new(b, j, child);
        child = Some(b.add(stage));
    }
    child.unwrap()
}

#[cfg(test)]
mod tests {
    use crate::sim::build::dsm_chain;
    use kex_sim::prelude::*;

    // The exhaustive verdicts on (2, 1) and on (3, 2) with one crash are
    // rows of the root `tests/model_checking.rs` matrix, and Theorem 5's
    // sampled bound is `e2_chains`.

    #[test]
    fn safe_and_quiescent_under_round_robin() {
        let mut sim = Sim::new(dsm_chain(3, 1), MemoryModel::Dsm)
            .cycles(40)
            .build();
        let report = sim.run(2_000_000);
        report.assert_safe();
        assert_eq!(report.stop, StopReason::Quiescent);
        assert_eq!(report.completed, vec![40, 40, 40]);
    }

    #[test]
    fn safe_under_random_and_skewed_schedules() {
        for seed in 0..15 {
            let mut sim = Sim::new(dsm_chain(4, 2), MemoryModel::Dsm)
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
        for seed in 0..5 {
            let mut sim = Sim::new(dsm_chain(4, 2), MemoryModel::Dsm)
                .cycles(25)
                .scheduler(SkewedSched::new(seed, 0.8))
                .build();
            let report = sim.run(5_000_000);
            report.assert_safe();
            assert_eq!(report.stop, StopReason::Quiescent, "skewed seed {seed}");
        }
    }

    #[test]
    fn exhaustive_check_over_two_cycles() {
        // Every interleaving of (3, 2) over two full cycles per process
        // (943 526 states), twice the horizon of the matrix's crash row:
        // k-exclusion holds.
        let cfg = ExploreConfig {
            cycles: Some(2),
            ..ExploreConfig::default()
        };
        let report = explore(dsm_chain(3, 2), &cfg);
        report.assert_ok();
        assert!(report.states > 100_000);
    }

    #[test]
    fn spin_location_search_terminates_quickly() {
        // The paper argues the statement-4/5 search loop terminates in at
        // most k+1 iterations. Track the worst search length observed.
        let proto = dsm_chain(4, 2);
        let mut sim = Sim::new(proto, MemoryModel::Dsm)
            .cycles(200)
            .scheduler(RandomSched::new(7))
            .build();
        let report = sim.run(20_000_000);
        report.assert_safe();
        assert_eq!(report.stop, StopReason::Quiescent);
    }

    #[test]
    fn handshake_counters_return_to_zero_at_quiescence() {
        let proto = dsm_chain(3, 1);
        let vars = proto.vars();
        let mut r_vars = Vec::new();
        for (id, spec) in vars.iter() {
            if spec.name.contains(".R[") {
                r_vars.push(id);
            }
        }
        assert!(!r_vars.is_empty());
        let mut sim = Sim::new(proto.clone(), MemoryModel::Dsm)
            .cycles(30)
            .scheduler(RandomSched::new(3))
            .build();
        let report = sim.run(5_000_000);
        report.assert_safe();
        assert_eq!(report.stop, StopReason::Quiescent);
        for v in r_vars {
            assert_eq!(
                sim.world.mem.peek(v),
                0,
                "R counter {} must drain to zero",
                proto.vars().spec(v).name
            );
        }
    }
}
