//! Figure 7: long-lived renaming via `test_and_set`, wrapped around any
//! `(N, k)`-exclusion algorithm to yield **`(N, k)`-assignment**
//! (Theorems 9 and 10).
//!
//! ```text
//! shared variable X : array[0..k-2] of boolean, initially all false
//! local variable name : 0..k-1 initially 0
//!
//! 0: Noncritical Section
//! 1: Acquire(N, k)                       /* k-exclusion entry */
//! 2: while name < k-1 and test_and_set(X[name]) = true do
//!        name := name + 1                /* first clear bit is the name */
//!    Critical Section  (using name)
//! 3: X[name], name := false, 0           /* release name, reset */
//! 4: Release(N, k)                       /* k-exclusion exit */
//! ```
//!
//! Inside the k-exclusion at most `k` processes run the loop, and it can
//! be shown that whenever a process is about to test `X[i]` some bit in
//! `X[i..k-1]` is clear; so after at most `k-1` failed test-and-sets the
//! process may take name `k-1` *without* a bit — the paper notes bit
//! `X[k-1]` is unnecessary. Renaming is **long-lived**: names are
//! acquired and released repeatedly, the first renaming algorithm with
//! this property. Cost: at most `k` additional remote references per
//! acquisition (plus one release write), name space exactly `k`.

use kex_sim::mem::MemCtx;
use kex_sim::node::Node;
use kex_sim::protocol::ProtocolBuilder;
use kex_sim::summary::{AccessDesc, BackEdge, NodeDesc, SpaceClass, StmtDesc};
use kex_sim::types::{NodeId, Pid, Section, Step, VarId, Word};
use kex_sim::vars::at;

/// Local-variable layout.
const L_NAME: usize = 0;
const L_HOLDING: usize = 1;

/// The k-assignment wrapper node: `(N, k)`-exclusion child + Figure-7
/// renaming.
pub struct AssignmentNode {
    /// `X[0..k-1]` test-and-set bits (element `k-1` is allocated but
    /// never used, mirroring the paper's remark that it is unnecessary).
    bits: VarId,
    kex: NodeId,
    k: usize,
}

impl AssignmentNode {
    /// Allocate the name bits over an existing `(N, k)`-exclusion child.
    pub fn new(b: &mut ProtocolBuilder, k: usize, kex: NodeId) -> Self {
        let bits = b.vars.alloc_array("rename.X", k.max(1), 0);
        AssignmentNode { bits, kex, k }
    }
}

impl Node for AssignmentNode {
    fn name(&self) -> String {
        format!("k-assignment(k={})", self.k)
    }

    fn locals_len(&self) -> usize {
        2
    }

    fn acquired_name(&self, locals: &[Word]) -> Option<Word> {
        if locals[L_HOLDING] != 0 {
            Some(locals[L_NAME])
        } else {
            None
        }
    }

    fn assigns_names(&self) -> bool {
        true
    }

    fn step(&self, sec: Section, pc: u32, locals: &mut [Word], mem: &mut MemCtx<'_>) -> Step {
        let k = self.k as Word;
        match (sec, pc) {
            // statement 1: Acquire(N, k)
            (Section::Entry, 0) => Step::Call {
                child: self.kex,
                section: Section::Entry,
                ret: 1,
            },
            // reset name before the search (private).
            (Section::Entry, 1) => {
                locals[L_NAME] = 0;
                Step::Goto(2)
            }
            // statement 2: while name < k-1 and test_and_set(X[name]) ...
            (Section::Entry, 2) => {
                if locals[L_NAME] < k - 1 {
                    if mem.test_and_set(at(self.bits, locals[L_NAME] as usize)) {
                        locals[L_NAME] += 1;
                        Step::Goto(2)
                    } else {
                        locals[L_HOLDING] = 1;
                        Step::Return
                    }
                } else {
                    // name = k-1 needs no bit (at most one process can
                    // reach it at a time).
                    locals[L_HOLDING] = 1;
                    Step::Return
                }
            }
            // statement 3: X[name], name := false, 0 (one atomic pair)
            (Section::Exit, 0) => {
                if locals[L_NAME] < k - 1 {
                    mem.write(at(self.bits, locals[L_NAME] as usize), 0);
                }
                locals[L_NAME] = 0;
                locals[L_HOLDING] = 0;
                Step::Goto(1)
            }
            // statement 4: Release(N, k)
            (Section::Exit, 1) => Step::Call {
                child: self.kex,
                section: Section::Exit,
                ret: 2,
            },
            (Section::Exit, 2) => Step::Return,
            _ => unreachable!("assignment: bad pc {pc} in {sec}"),
        }
    }

    fn describe(&self, _p: Pid) -> Option<NodeDesc> {
        let bits = self.k.max(1);
        let entry = vec![
            StmtDesc::new(0, "1: Acquire(N, k)").call(self.kex, Section::Entry, 1),
            StmtDesc::new(1, "name := 0").goto(2),
            // At most k-1 failed test-and-sets before name k-1 is free:
            // the whole search executes statement 2 at most k times.
            StmtDesc::new(2, "2: while name < k-1 and T&S(X[name])")
                .access(AccessDesc::rmw_any(self.bits, bits))
                .returns()
                .back_edge(BackEdge::bounded(2, self.k)),
        ];
        let exit = vec![
            StmtDesc::new(0, "3: X[name], name := false, 0")
                .access(AccessDesc::write_any(self.bits, bits))
                .goto(1),
            StmtDesc::new(1, "4: Release(N, k)").call(self.kex, Section::Exit, 2),
            StmtDesc::new(2, "released").returns(),
        ];
        Some(NodeDesc {
            exclusion: Some(self.k),
            spin_space: SpaceClass::NoSpin,
            entry,
            exit,
        })
    }
}

/// Wrap an existing `(N, k)`-exclusion node into `(N, k)`-assignment.
pub fn assignment(b: &mut ProtocolBuilder, k: usize, kex: NodeId) -> NodeId {
    let node = AssignmentNode::new(b, k, kex);
    b.add(node)
}

#[cfg(test)]
mod tests {
    use crate::sim::build::{assignment_cc, assignment_dsm, cc_chain};
    use kex_sim::prelude::*;

    // Up to N = 2k the catalog's k-assignment is Figure 7 over one
    // Figure-2 (or Figure-6) chain. The exhaustive verdicts on the CC
    // (3, 2) instance, with and without a crash, are rows of the root
    // `tests/model_checking.rs` matrix.

    #[test]
    fn names_are_unique_and_in_range_under_random_schedules() {
        // The Sim's built-in checker verifies name uniqueness and range in
        // every state because the root implements `acquired_name`.
        for seed in 0..15 {
            let mut sim = Sim::new(assignment_cc(5, 3), MemoryModel::CacheCoherent)
                .cycles(25)
                .scheduler(RandomSched::new(seed))
                .timing(Timing {
                    ncs_steps: 1,
                    cs_steps: 3,
                })
                .build();
            let report = sim.run(5_000_000);
            report.assert_safe();
            assert_eq!(report.stop, StopReason::Quiescent, "seed {seed}");
        }
    }

    #[test]
    fn exhaustive_assignment_on_dsm_chain() {
        // (3,2) over one cycle per process (the full fig6 assignment
        // space is too large to enumerate in a unit test; longer-horizon
        // coverage comes from the randomized suites).
        let proto = assignment_dsm(3, 2);
        let cfg = ExploreConfig {
            cycles: Some(1),
            ..ExploreConfig::default()
        };
        let report = explore(proto, &cfg);
        report.assert_ok();
        check_starvation_freedom(&report)
            .expect("dsm assignment must leave no one spinning forever");
    }

    #[test]
    fn name_k_minus_1_is_reachable_without_a_bit() {
        // Drive k processes into the CS simultaneously; the last one must
        // end up with name k-1 even though no bit exists for it.
        let k = 3;
        let proto = assignment_cc(4, k);
        let mut w = World::new(
            proto,
            MemoryModel::CacheCoherent,
            Timing {
                ncs_steps: 0,
                cs_steps: 1_000,
            },
            None,
        );
        let mut names = Vec::new();
        for p in 0..k {
            while !w.procs[p].phase.in_critical() {
                w.step(p);
            }
            names.push(w.held_name(p).expect("critical process has a name"));
        }
        names.sort();
        assert_eq!(names, vec![0, 1, 2]);
    }

    #[test]
    fn renaming_cost_is_at_most_k_extra_references() {
        // Theorems 9/10: the renaming adds at most ~k remote references
        // on top of the k-exclusion cost. Compare assignment vs bare kex.
        let (n, k) = (5, 3);
        let bare = cc_chain(n, k);
        let mut worst_bare = 0;
        let mut worst_assign = 0;
        for seed in 0..10 {
            let mut sim = Sim::new(bare.clone(), MemoryModel::CacheCoherent)
                .cycles(20)
                .scheduler(RandomSched::new(seed))
                .build();
            let r = sim.run(5_000_000);
            r.assert_safe();
            worst_bare = worst_bare.max(r.stats.worst_pair());

            let mut sim = Sim::new(assignment_cc(n, k), MemoryModel::CacheCoherent)
                .cycles(20)
                .scheduler(RandomSched::new(seed))
                .build();
            let r = sim.run(5_000_000);
            r.assert_safe();
            worst_assign = worst_assign.max(r.stats.worst_pair());
        }
        // The sampled bare worst stays within its Theorem-1 bound...
        let bare_bound = 7 * (n as u64 - k as u64);
        assert!(
            worst_bare <= bare_bound,
            "bare kex exceeded Theorem 1: {worst_bare} > {bare_bound}"
        );
        // ...and renaming adds at most ~k on top of that bound. (Compare
        // against the bound, not the sampled bare worst: ten seeds need
        // not drive the bare instance to its true worst case.)
        assert!(
            worst_assign <= bare_bound + k as u64 + 1,
            "renaming overhead too large: {worst_assign} vs {bare_bound} + {k} + 1"
        );
    }
}
