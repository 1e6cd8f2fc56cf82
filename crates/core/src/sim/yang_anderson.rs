//! Yang & Anderson's local-spin mutual exclusion (the paper's \[14\]):
//! `O(log N)` remote references per acquisition using **reads and writes
//! only** — no read-modify-write instructions at all.
//!
//! The paper cites \[14\] twice: as prior local-spin art in §1/§2, and in
//! §5 as one of "the fastest spin-lock algorithms" that k-exclusion
//! should approach as `k → 1`. Together with the MCS lock
//! ([`mod@crate::sim::mcs`], RMW-based, `O(1)` RMR) it brackets the paper's
//! k = 1 design space by instruction set:
//!
//! | algorithm | primitives | RMR per acquisition |
//! |---|---|---|
//! | MCS \[12\] | swap + CAS | `O(1)` |
//! | Yang–Anderson \[14\] | read/write | `O(log N)` |
//! | this paper, k = 1 | fetch&inc (+CAS) | `O(log N)` |
//!
//! ## The two-process building block
//!
//! Process `p` enters with a *side* `i ∈ {0, 1}`; `q` denotes the rival.
//!
//! ```text
//! shared C[2] : pid|nil, T : pid, P[p] : 0..2   /* P[p] local to p */
//!
//! entry(p, i):
//!   1: C[i] := p
//!   2: T := p
//!   3: P[p] := 0
//!   4: rival := C[1-i]
//!   5: if rival != nil and T = p then
//!   6:     if P[rival] = 0 then P[rival] := 1
//!   7:     while P[p] = 0 do od            /* local spin */
//!   8:     if T = p then
//!   9:         while P[p] <= 1 do od       /* local spin */
//!
//! exit(p, i):
//!  10: C[i] := nil
//!  11: rival := T
//!  12: if rival != p then P[rival] := 2
//! ```
//!
//! `T` breaks the tie (last writer loses), `C[side]` announces presence,
//! and the split `P` handshake (0 → 1 → 2) lets the loser wait on its
//! own flag through both phases. An **arbitration tree** of these blocks
//! — process `p` uses side `(p >> level) & 1` in instance `p >> (level+1)`
//! — yields N-process mutual exclusion in `⌈log2 N⌉` rounds.
//!
//! Per-level spin flags `P[level][p]` are homed at `p`, so all waiting is
//! local under both machine models. The exhaustive checker verifies
//! mutual exclusion and starvation-freedom for small `N`; the
//! root test `e10_k1_vs_mcs` includes it in the k = 1 comparison.

use kex_sim::mem::MemCtx;
use kex_sim::node::Node;
use kex_sim::protocol::ProtocolBuilder;
use kex_sim::summary::{AccessDesc, BackEdge, NodeDesc, SpaceClass, StmtDesc};
use kex_sim::types::{NodeId, Pid, Section, Step, VarId, Word};
use kex_sim::vars::at;

/// Sentinel for "no process".
const NIL: Word = -1;

/// Local-variable layout.
const L_RIVAL: usize = 0;

/// One two-process Yang–Anderson instance.
struct Ya2 {
    /// `C[0..2]`: per-side announcement.
    c: VarId,
    /// `T`: the tie-breaker.
    t: VarId,
    /// `P[0..N]`: per-process spin flags for this instance, homed at the
    /// owning process.
    p_base: VarId,
}

impl Ya2 {
    fn new(b: &mut ProtocolBuilder, tag: &str) -> Self {
        let n = b.n();
        let c = b.vars.alloc_array(&format!("ya[{tag}].C"), 2, NIL);
        let t = b.vars.alloc(format!("ya[{tag}].T"), NIL);
        let mut p_base = None;
        for p in 0..n {
            let v = b.vars.alloc_local(format!("ya[{tag}].P[{p}]"), p, 0);
            p_base.get_or_insert(v);
        }
        Ya2 {
            c,
            t,
            p_base: p_base.unwrap(),
        }
    }
}

/// The arbitration tree of two-process instances: N-process mutual
/// exclusion from reads and writes, all spinning local.
pub struct YangAndersonNode {
    /// `levels[l]` holds the instances of round `l` (leaf round first).
    levels: Vec<Vec<Ya2>>,
    n: usize,
}

impl YangAndersonNode {
    /// Allocate the arbitration tree for the builder's process universe.
    pub fn new(b: &mut ProtocolBuilder) -> Self {
        let n = b.n();
        let depth = usize::max(1, n.next_power_of_two().trailing_zeros() as usize);
        let mut levels = Vec::with_capacity(depth);
        for l in 0..depth {
            let instances = usize::max(1, n.next_power_of_two() >> (l + 1));
            let level: Vec<Ya2> = (0..instances)
                .map(|i| Ya2::new(b, &format!("{l}.{i}")))
                .collect();
            levels.push(level);
        }
        YangAndersonNode { levels, n }
    }

    #[inline]
    fn instance(&self, level: usize, pid: usize) -> &Ya2 {
        &self.levels[level][pid >> (level + 1)]
    }

    #[inline]
    fn side(level: usize, pid: usize) -> usize {
        (pid >> level) & 1
    }

    #[inline]
    fn depth(&self) -> u32 {
        self.levels.len() as u32
    }
}

/// Per-level pc layout: each level consumes `STRIDE` program counters in
/// the entry section and `STRIDE_EXIT` in the exit section.
const STRIDE: u32 = 9;
const STRIDE_EXIT: u32 = 3;

impl Node for YangAndersonNode {
    fn name(&self) -> String {
        format!("yang-anderson(n={})", self.n)
    }

    fn locals_len(&self) -> usize {
        1
    }

    fn step(&self, sec: Section, pc: u32, locals: &mut [Word], mem: &mut MemCtx<'_>) -> Step {
        let p = mem.pid();
        match sec {
            Section::Entry => {
                let level = (pc / STRIDE) as usize;
                if level >= self.levels.len() {
                    return Step::Return;
                }
                let inst = self.instance(level, p);
                let side = Self::side(level, p);
                let base = level as u32 * STRIDE;
                match pc - base {
                    // 1: C[side] := p
                    0 => {
                        mem.write(at(inst.c, side), p as Word);
                        Step::Goto(base + 1)
                    }
                    // 2: T := p
                    1 => {
                        mem.write(inst.t, p as Word);
                        Step::Goto(base + 2)
                    }
                    // 3: P[p] := 0
                    2 => {
                        mem.write(at(inst.p_base, p), 0);
                        Step::Goto(base + 3)
                    }
                    // 4: rival := C[1-side]; 5: if rival != nil and T = p
                    3 => {
                        locals[L_RIVAL] = mem.read(at(inst.c, 1 - side));
                        Step::Goto(base + 4)
                    }
                    4 => {
                        if locals[L_RIVAL] != NIL && mem.read(inst.t) == p as Word {
                            Step::Goto(base + 5)
                        } else {
                            // Won this round: next level (or the CS).
                            locals[L_RIVAL] = 0; // dead (canonical states)
                            Step::Goto(base + STRIDE)
                        }
                    }
                    // 6: if P[rival] = 0 then P[rival] := 1   (one atomic
                    // read-then-write would be an RMW; split faithfully)
                    5 => {
                        let rival = locals[L_RIVAL] as usize;
                        if mem.read(at(inst.p_base, rival)) == 0 {
                            mem.write(at(inst.p_base, rival), 1);
                        }
                        locals[L_RIVAL] = 0; // dead until the exit section
                        Step::Goto(base + 6)
                    }
                    // 7: while P[p] = 0 do od   (local spin: P[p] only)
                    6 => {
                        if mem.read(at(inst.p_base, p)) == 0 {
                            Step::Goto(base + 6)
                        } else {
                            Step::Goto(base + 7)
                        }
                    }
                    // 8: if T = p then ...   (a single check, not a spin)
                    7 => {
                        if mem.read(inst.t) == p as Word {
                            Step::Goto(base + 8)
                        } else {
                            Step::Goto(base + STRIDE)
                        }
                    }
                    // 9: while P[p] <= 1 do od   (local spin: P[p] only)
                    8 => {
                        if mem.read(at(inst.p_base, p)) <= 1 {
                            Step::Goto(base + 8)
                        } else {
                            Step::Goto(base + STRIDE)
                        }
                    }
                    _ => unreachable!("ya entry: bad pc {pc}"),
                }
            }
            Section::Exit => {
                let d = self.depth();
                let round = pc / STRIDE_EXIT;
                if round >= d {
                    return Step::Return;
                }
                // Release top (widest) round first.
                let level = (d - 1 - round) as usize;
                let inst = self.instance(level, p);
                let side = Self::side(level, p);
                let base = round * STRIDE_EXIT;
                match pc - base {
                    // 10: C[side] := nil
                    0 => {
                        mem.write(at(inst.c, side), NIL);
                        Step::Goto(base + 1)
                    }
                    // 11: rival := T
                    1 => {
                        locals[L_RIVAL] = mem.read(inst.t);
                        Step::Goto(base + 2)
                    }
                    // 12: if rival != p then P[rival] := 2
                    2 => {
                        if locals[L_RIVAL] != p as Word && locals[L_RIVAL] != NIL {
                            mem.write(at(inst.p_base, locals[L_RIVAL] as usize), 2);
                        }
                        locals[L_RIVAL] = 0; // dead
                        Step::Goto(base + STRIDE_EXIT)
                    }
                    _ => unreachable!("ya exit: bad pc {pc}"),
                }
            }
        }
    }

    fn describe(&self, p: Pid) -> Option<NodeDesc> {
        let d = self.levels.len();
        let n = self.n;
        let mut entry = Vec::new();
        for level in 0..d {
            let inst = self.instance(level, p);
            let side = Self::side(level, p);
            let own_flag = at(inst.p_base, p);
            let base = (level * STRIDE as usize) as u32;
            entry.extend([
                StmtDesc::new(base, "1: C[side] := p")
                    .access(AccessDesc::write(at(inst.c, side)))
                    .goto(base + 1),
                StmtDesc::new(base + 1, "2: T := p")
                    .access(AccessDesc::write(inst.t))
                    .goto(base + 2),
                StmtDesc::new(base + 2, "3: P[p] := 0")
                    .access(AccessDesc::write(own_flag))
                    .goto(base + 3),
                StmtDesc::new(base + 3, "4: rival := C[1-side]")
                    .access(AccessDesc::read(at(inst.c, 1 - side)))
                    .goto(base + 4),
                StmtDesc::new(base + 4, "5: if rival != nil and T = p")
                    .access(AccessDesc::read(inst.t))
                    .goto(base + 5)
                    .goto(base + STRIDE),
                StmtDesc::new(base + 5, "6: if P[rival] = 0 then P[rival] := 1")
                    .access(AccessDesc::read_any(inst.p_base, n))
                    .access(AccessDesc::write_any(inst.p_base, n))
                    .goto(base + 6),
                StmtDesc::new(base + 6, "7: while P[p] = 0 do od")
                    .access(AccessDesc::read(own_flag))
                    .goto(base + 7)
                    .back_edge(BackEdge::spin(base + 6)),
                StmtDesc::new(base + 7, "8: if T = p")
                    .access(AccessDesc::read(inst.t))
                    .goto(base + 8)
                    .goto(base + STRIDE),
                StmtDesc::new(base + 8, "9: while P[p] <= 1 do od")
                    .access(AccessDesc::read(own_flag))
                    .goto(base + STRIDE)
                    .back_edge(BackEdge::spin(base + 8)),
            ]);
        }
        entry.push(StmtDesc::new((d * STRIDE as usize) as u32, "all rounds won").returns());
        let mut exit = Vec::new();
        for round in 0..d {
            let level = d - 1 - round;
            let inst = self.instance(level, p);
            let side = Self::side(level, p);
            let base = (round * STRIDE_EXIT as usize) as u32;
            exit.extend([
                StmtDesc::new(base, "10: C[side] := nil")
                    .access(AccessDesc::write(at(inst.c, side)))
                    .goto(base + 1),
                StmtDesc::new(base + 1, "11: rival := T")
                    .access(AccessDesc::read(inst.t))
                    .goto(base + 2),
                StmtDesc::new(base + 2, "12: if rival != p then P[rival] := 2")
                    .access(AccessDesc::write_any(inst.p_base, n))
                    .goto(base + STRIDE_EXIT),
            ]);
        }
        exit.push(
            StmtDesc::new((d * STRIDE_EXIT as usize) as u32, "all rounds released").returns(),
        );
        Some(NodeDesc {
            exclusion: Some(1),
            spin_space: SpaceClass::Bounded,
            entry,
            exit,
        })
    }
}

/// Build the Yang–Anderson arbitration tree as a protocol root (k = 1).
pub fn yang_anderson(b: &mut ProtocolBuilder) -> NodeId {
    let node = YangAndersonNode::new(b);
    b.add(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kex_sim::prelude::*;
    use std::sync::Arc;

    fn protocol(n: usize) -> Arc<Protocol> {
        let mut b = ProtocolBuilder::new(n);
        let root = yang_anderson(&mut b);
        b.finish(root, 1)
    }

    #[test]
    fn exhaustive_two_process_block() {
        let report = explore(protocol(2), &ExploreConfig::default());
        report.assert_ok();
        check_starvation_freedom(&report).expect("YA 2-process must be starvation-free");
    }

    #[test]
    fn exhaustive_three_process_tree() {
        // The heaviest single verification in the suite (1 519 666 states):
        // the full two-level arbitration tree under every interleaving,
        // forever, including the SCC starvation-freedom analysis.
        let report = explore(protocol(3), &ExploreConfig::default());
        report.assert_ok();
        check_starvation_freedom(&report).expect("YA tree must be starvation-free");
    }

    #[test]
    fn exhaustive_cross_subtree_pair() {
        // Two contenders from different level-0 subtrees meeting at the
        // root instance of a 4-process tree.
        let cfg = ExploreConfig {
            participants: Some(vec![0, 2]),
            ..ExploreConfig::default()
        };
        let report = explore(protocol(4), &cfg);
        report.assert_ok();
        check_starvation_freedom(&report).expect("YA tree must be starvation-free");
    }

    #[test]
    fn safe_under_random_schedules() {
        for seed in 0..10 {
            let mut sim = Sim::new(protocol(8), MemoryModel::Dsm)
                .cycles(20)
                .scheduler(RandomSched::new(seed))
                .timing(Timing {
                    ncs_steps: 1,
                    cs_steps: 3,
                })
                .build();
            let report = sim.run(20_000_000);
            report.assert_safe();
            assert_eq!(report.stop, StopReason::Quiescent, "seed {seed}");
        }
    }

    #[test]
    fn logarithmic_rmr_growth() {
        // O(log N) remote references per acquisition on both models.
        for model in [MemoryModel::CacheCoherent, MemoryModel::Dsm] {
            let mut prev = 0;
            for n in [4usize, 8, 16, 32] {
                let mut worst = 0;
                for seed in 0..6 {
                    let mut sim = Sim::new(protocol(n), model)
                        .cycles(15)
                        .scheduler(RandomSched::new(seed))
                        .build();
                    let report = sim.run(100_000_000);
                    report.assert_safe();
                    worst = worst.max(report.stats.worst_pair());
                }
                let depth = (n.next_power_of_two().trailing_zeros()) as u64;
                assert!(
                    worst <= 12 * depth,
                    "YA should be O(log N): {worst} at n={n} under {model:?}"
                );
                // Sub-linear growth: doubling N adds at most one round.
                assert!(
                    prev == 0 || worst <= prev + 12,
                    "growth too steep: {prev} -> {worst}"
                );
                prev = worst;
            }
        }
    }

    #[test]
    fn only_reads_and_writes_no_rmw() {
        // The node's self-description declares every shared access it
        // makes (`every_protocol_steps_as_it_describes_itself` holds
        // `step()` to it), so no RMW among the declarations of any pid
        // at any level means the algorithm uses none.
        let proto = protocol(8);
        let node = proto.node(proto.root());
        for p in 0..proto.n() {
            let desc = node.describe(p).expect("described");
            for section in [Section::Entry, Section::Exit] {
                for stmt in desc.section(section) {
                    assert!(
                        stmt.accesses.iter().all(|a| a.kind != AccessKind::Rmw),
                        "pid {p} {section:?} pc {} ({}) declares an RMW: {:?}",
                        stmt.pc,
                        stmt.label,
                        stmt.accesses
                    );
                }
            }
        }
    }
}
