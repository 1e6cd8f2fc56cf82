//! Ready-made protocol factories: every algorithm variant of the paper,
//! buildable by name for experiments.

use std::sync::Arc;

use kex_sim::memmodel::MemoryModel;
use kex_sim::protocol::{Protocol, ProtocolBuilder};
use kex_sim::types::NodeId;

use super::assignment::assignment;
use super::fast_path::{fast_path_over_tree, graceful};
use super::fig1_queue::fig1_queue;
use super::fig2::fig2_chain;
use super::fig5::fig5_chain;
use super::fig6::fig6_chain;
use super::global_spin::global_spin;
use super::tree::{tree, tree_depth};

/// Every simulator algorithm variant, for experiment catalogs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Figure 1: atomic-queue baseline (large atomic sections, like
    /// \[9\]/\[10\] in Table 1).
    QueueFig1,
    /// Non-local-spin global counter baseline (unbounded RMRs under
    /// contention, like \[8\]/\[1\] in Table 1).
    GlobalSpin,
    /// Theorem 1: Figure-2 inductive chain (CC, `7(N-k)`).
    CcChain,
    /// Theorem 2: tree of Figure-2 `(2k,k)` blocks (CC, `7k·log2⌈N/k⌉`).
    CcTree,
    /// Theorem 3: fast path over a CC tree (`O(k)` at low contention).
    CcFastPath,
    /// Theorem 4: gracefully degrading nested fast paths (CC).
    CcGraceful,
    /// Figure 5 chain: DSM, unbounded spin locations.
    DsmUnboundedChain,
    /// Theorem 5: Figure-6 inductive chain (DSM, `14(N-k)`).
    DsmChain,
    /// Theorem 6: tree of Figure-6 blocks (DSM, `14k·log2⌈N/k⌉`).
    DsmTree,
    /// Theorem 7: fast path over a DSM tree.
    DsmFastPath,
    /// Theorem 8: gracefully degrading nested fast paths (DSM).
    DsmGraceful,
    /// Theorem 9: k-assignment = CC fast path + Figure-7 renaming.
    AssignmentCc,
    /// Theorem 10: k-assignment = DSM fast path + Figure-7 renaming.
    AssignmentDsm,
}

impl Algorithm {
    /// All variants, in Table-1 presentation order.
    pub const ALL: [Algorithm; 13] = [
        Algorithm::QueueFig1,
        Algorithm::GlobalSpin,
        Algorithm::CcChain,
        Algorithm::CcTree,
        Algorithm::CcFastPath,
        Algorithm::CcGraceful,
        Algorithm::DsmUnboundedChain,
        Algorithm::DsmChain,
        Algorithm::DsmTree,
        Algorithm::DsmFastPath,
        Algorithm::DsmGraceful,
        Algorithm::AssignmentCc,
        Algorithm::AssignmentDsm,
    ];

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::QueueFig1 => "fig1-queue",
            Algorithm::GlobalSpin => "global-spin",
            Algorithm::CcChain => "cc-chain (Thm 1)",
            Algorithm::CcTree => "cc-tree (Thm 2)",
            Algorithm::CcFastPath => "cc-fastpath (Thm 3)",
            Algorithm::CcGraceful => "cc-graceful (Thm 4)",
            Algorithm::DsmUnboundedChain => "dsm-unbounded (Fig 5)",
            Algorithm::DsmChain => "dsm-chain (Thm 5)",
            Algorithm::DsmTree => "dsm-tree (Thm 6)",
            Algorithm::DsmFastPath => "dsm-fastpath (Thm 7)",
            Algorithm::DsmGraceful => "dsm-graceful (Thm 8)",
            Algorithm::AssignmentCc => "assign-cc (Thm 9)",
            Algorithm::AssignmentDsm => "assign-dsm (Thm 10)",
        }
    }

    /// The memory model this variant targets (used for RMR accounting in
    /// experiments; any variant *runs* correctly under either model).
    pub fn model(self) -> MemoryModel {
        match self {
            Algorithm::QueueFig1
            | Algorithm::GlobalSpin
            | Algorithm::CcChain
            | Algorithm::CcTree
            | Algorithm::CcFastPath
            | Algorithm::CcGraceful
            | Algorithm::AssignmentCc => MemoryModel::CacheCoherent,
            _ => MemoryModel::Dsm,
        }
    }

    /// The worst-case remote references per entry+exit pair, under
    /// [`Algorithm::model`], that Theorems 1–10 allow this variant at
    /// `(n, k)`, with the expression evaluated. Table 1 states the chain
    /// and tree constants outright; the fast-path, assignment and
    /// Figure-5 rows are its `O(·)` entries with the constants of the
    /// constructions here. `None` for the baselines (unbounded) and for
    /// Theorems 4 and 8, whose cost is in the contention, not in `n`.
    pub fn paper_bound(self, n: usize, k: usize) -> Option<(&'static str, u64)> {
        let depth = u64::from(tree_depth(n, k));
        let (n, k) = (n as u64, k as u64);
        Some(match self {
            Algorithm::CcChain => ("7(N-k)", 7 * (n - k)),
            Algorithm::CcTree => ("7k*ceil(log2(N/k))", 7 * k * depth),
            Algorithm::CcFastPath => ("7k*(ceil(log2(N/k))+1)+2", 7 * k * (depth + 1) + 2),
            Algorithm::AssignmentCc => (
                "7k*(ceil(log2(N/k))+1)+2+k+1",
                7 * k * (depth + 1) + 2 + k + 1,
            ),
            Algorithm::DsmUnboundedChain => ("8(N-k)", 8 * (n - k)),
            Algorithm::DsmChain => ("14(N-k)", 14 * (n - k)),
            Algorithm::DsmTree => ("14k*ceil(log2(N/k))", 14 * k * depth),
            Algorithm::DsmFastPath => ("14k*(ceil(log2(N/k))+1)+2", 14 * k * (depth + 1) + 2),
            Algorithm::AssignmentDsm => (
                "14k*(ceil(log2(N/k))+1)+2+k+1",
                14 * k * (depth + 1) + 2 + k + 1,
            ),
            Algorithm::QueueFig1
            | Algorithm::GlobalSpin
            | Algorithm::CcGraceful
            | Algorithm::DsmGraceful => return None,
        })
    }

    /// Build the `(n, k)` instance of this variant.
    ///
    /// `max_locs` only matters for [`Algorithm::DsmUnboundedChain`]
    /// (Figure 5's simulated location supply).
    pub fn build(self, n: usize, k: usize, max_locs: usize) -> Arc<Protocol> {
        let mut b = ProtocolBuilder::new(n);
        let root: NodeId = match self {
            Algorithm::QueueFig1 => fig1_queue(&mut b, k),
            Algorithm::GlobalSpin => global_spin(&mut b, k),
            Algorithm::CcChain => fig2_chain(&mut b, n, k),
            Algorithm::CcTree => tree(&mut b, n, k, &mut |b, m, k| fig2_chain(b, m, k)),
            Algorithm::CcFastPath => {
                fast_path_over_tree(&mut b, n, k, &mut |b, m, k| fig2_chain(b, m, k))
            }
            Algorithm::CcGraceful => graceful(&mut b, n, k, &mut |b, m, k| fig2_chain(b, m, k)),
            Algorithm::DsmUnboundedChain => fig5_chain(&mut b, n, k, max_locs),
            Algorithm::DsmChain => fig6_chain(&mut b, n, k),
            Algorithm::DsmTree => tree(&mut b, n, k, &mut |b, m, k| fig6_chain(b, m, k)),
            Algorithm::DsmFastPath => {
                fast_path_over_tree(&mut b, n, k, &mut |b, m, k| fig6_chain(b, m, k))
            }
            Algorithm::DsmGraceful => graceful(&mut b, n, k, &mut |b, m, k| fig6_chain(b, m, k)),
            Algorithm::AssignmentCc => {
                let kex = fast_path_over_tree(&mut b, n, k, &mut |b, m, k| fig2_chain(b, m, k));
                assignment(&mut b, k, kex)
            }
            Algorithm::AssignmentDsm => {
                let kex = fast_path_over_tree(&mut b, n, k, &mut |b, m, k| fig6_chain(b, m, k));
                assignment(&mut b, k, kex)
            }
        };
        b.finish(root, k)
    }
}

/// Theorem-1-style chain: `(n, k)`-exclusion, CC, `7(N-k)` bound.
pub fn cc_chain(n: usize, k: usize) -> Arc<Protocol> {
    Algorithm::CcChain.build(n, k, 0)
}

/// Theorem-2 tree on CC.
pub fn cc_tree(n: usize, k: usize) -> Arc<Protocol> {
    Algorithm::CcTree.build(n, k, 0)
}

/// Theorem-3 fast path on CC.
pub fn cc_fast_path(n: usize, k: usize) -> Arc<Protocol> {
    Algorithm::CcFastPath.build(n, k, 0)
}

/// Theorem-4 graceful degradation on CC.
pub fn cc_graceful(n: usize, k: usize) -> Arc<Protocol> {
    Algorithm::CcGraceful.build(n, k, 0)
}

/// Figure-5 chain on DSM with a bounded location supply.
pub fn dsm_unbounded_chain(n: usize, k: usize, max_locs: usize) -> Arc<Protocol> {
    Algorithm::DsmUnboundedChain.build(n, k, max_locs)
}

/// Theorem-5 chain (Figure 6) on DSM.
pub fn dsm_chain(n: usize, k: usize) -> Arc<Protocol> {
    Algorithm::DsmChain.build(n, k, 0)
}

/// Theorem-6 tree on DSM.
pub fn dsm_tree(n: usize, k: usize) -> Arc<Protocol> {
    Algorithm::DsmTree.build(n, k, 0)
}

/// Theorem-7 fast path on DSM.
pub fn dsm_fast_path(n: usize, k: usize) -> Arc<Protocol> {
    Algorithm::DsmFastPath.build(n, k, 0)
}

/// Theorem-8 graceful degradation on DSM.
pub fn dsm_graceful(n: usize, k: usize) -> Arc<Protocol> {
    Algorithm::DsmGraceful.build(n, k, 0)
}

/// Figure-1 queue baseline.
pub fn queue_fig1(n: usize, k: usize) -> Arc<Protocol> {
    Algorithm::QueueFig1.build(n, k, 0)
}

/// Global-spin baseline.
pub fn global_spin_baseline(n: usize, k: usize) -> Arc<Protocol> {
    Algorithm::GlobalSpin.build(n, k, 0)
}

/// Theorem-9 k-assignment (CC).
pub fn assignment_cc(n: usize, k: usize) -> Arc<Protocol> {
    Algorithm::AssignmentCc.build(n, k, 0)
}

/// Theorem-10 k-assignment (DSM).
pub fn assignment_dsm(n: usize, k: usize) -> Arc<Protocol> {
    Algorithm::AssignmentDsm.build(n, k, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kex_sim::prelude::*;
    use std::cmp::Ordering;

    #[test]
    fn every_variant_builds_and_runs_safely() {
        for algo in Algorithm::ALL {
            let proto = algo.build(6, 2, 512);
            let mut sim = Sim::new(proto, algo.model())
                .cycles(8)
                .scheduler(RandomSched::new(1))
                .build();
            let report = sim.run(10_000_000);
            report.assert_safe();
            assert_eq!(
                report.stop,
                StopReason::Quiescent,
                "{} did not quiesce",
                algo.label()
            );
            assert_eq!(report.total_completed(), 6 * 8, "{}", algo.label());
        }
    }

    /// Runs `protocol` under a seeded schedule and holds every statement
    /// executed against its node's `describe()`: each access performed
    /// is among those declared (kind equal, variable among the
    /// candidates, no more of them than the multiplicity) and the step
    /// taken is a declared successor or back edge. Seeds differ in how
    /// long a critical section lasts and, from 4 on, in starving the
    /// high pids: uniform schedules with no dwell leave the waiting
    /// paths and MCS's hand-off-less release all but unexecuted.
    fn steps_as_described(label: &str, protocol: Arc<Protocol>, model: MemoryModel, seed: u64) {
        let timing = Timing {
            ncs_steps: 0,
            cs_steps: 8 * (seed as u32 % 3),
        };
        let mut world = World::new(protocol.clone(), model, timing, Some(10));
        world.mem.record_accesses();
        let mut sched: Box<dyn Scheduler> = match seed {
            ..=3 => Box::new(RandomSched::new(seed)),
            _ => Box::new(SkewedSched::new(seed, 0.6)),
        };
        for _ in 0..1_000_000 {
            let runnable = world.runnable();
            if runnable.is_empty() {
                return;
            }
            let p = sched.next(&runnable);
            let before = world.procs[p].stack.clone();
            world.step(p);
            let accesses = world.mem.take_accesses();
            // The step that starts a section executes no statement.
            let Some(frame) = before.last() else {
                assert!(accesses.is_empty(), "{label}: accesses outside a section");
                continue;
            };
            let at = format!(
                "{label}: {} {} pc {} pid {p}",
                frame.node, frame.section, frame.pc
            );
            let desc = protocol.node(frame.node).describe(p).expect("described");
            let stmt = desc
                .section(frame.section)
                .get(frame.pc as usize)
                .unwrap_or_else(|| panic!("{at}: no such statement described"));
            assert_eq!(stmt.pc, frame.pc, "{at}: statements are numbered densely");

            // Narrowest declaration first, so that `One(v)` beside a
            // range holding `v` is used up before the range is.
            let mut declared: Vec<_> = stmt.accesses.iter().map(|a| (a, a.multiplicity)).collect();
            declared.sort_by_key(|(a, _)| a.var.len());
            for (var, kind) in &accesses {
                let slot = declared.iter_mut().find(|(a, left)| {
                    *left > 0 && a.kind == *kind && a.var.iter().any(|v| v == *var)
                });
                match slot {
                    Some((_, left)) => *left -= 1,
                    None => panic!(
                        "{at} ({}): performs {kind:?} of {var} beyond the declared {:?}",
                        stmt.label, stmt.accesses
                    ),
                }
            }

            let after = &world.procs[p].stack;
            let top = after.last();
            let declared = match after.len().cmp(&before.len()) {
                Ordering::Less => stmt.succ.contains(&SuccDesc::Return),
                Ordering::Equal => {
                    let pc = top.expect("same depth").pc;
                    stmt.succ.contains(&SuccDesc::Goto(pc)) || stmt.back.iter().any(|b| b.to == pc)
                }
                Ordering::Greater => {
                    let callee = top.expect("deeper");
                    stmt.succ.contains(&SuccDesc::Call {
                        child: callee.node,
                        section: callee.section,
                        ret: after[before.len() - 1].pc,
                    })
                }
            };
            assert!(
                declared,
                "{at} ({}): went to {top:?}, declared {:?} / {:?}",
                stmt.label, stmt.succ, stmt.back
            );
        }
        panic!("{label}: did not finish");
    }

    /// `describe()` is what kex-analyze's verdicts and bounds and
    /// kex-lint's obligations are computed from, `step()` is what the
    /// explorer and the Table-1 runs execute: they are two statements of
    /// each protocol, and `step` is the reference.
    #[test]
    fn every_protocol_steps_as_it_describes_itself() {
        use crate::sim::{mcs, splitter_assignment, splitter_grid_standalone, yang_anderson};
        type Root = fn(&mut ProtocolBuilder, usize, usize) -> NodeId;
        let others: [(&str, usize, Root); 4] = [
            ("mcs", 1, |b, _, _| mcs(b)),
            ("yang-anderson", 1, |b, _, _| yang_anderson(b)),
            ("splitter-grid", 2, |b, _, k| splitter_grid_standalone(b, k)),
            ("splitter-assignment", 2, |b, n, k| {
                let kex = fig2_chain(b, n, k);
                splitter_assignment(b, k, kex)
            }),
        ];
        for (n, k) in [(4, 2), (5, 2)] {
            for seed in 1..=6 {
                for algo in Algorithm::ALL {
                    steps_as_described(algo.label(), algo.build(n, k, 512), algo.model(), seed);
                }
                for (label, k, root) in others {
                    let mut b = ProtocolBuilder::new(n);
                    let root = root(&mut b, n, k);
                    let protocol = b.finish(root, k);
                    for model in [MemoryModel::CacheCoherent, MemoryModel::Dsm] {
                        steps_as_described(label, protocol.clone(), model, seed);
                    }
                }
            }
        }
    }

    #[test]
    fn the_tree_formulas_depth_is_the_built_trees() {
        // ceil(log2(ceil(N/k))), as Table 1 writes it, is `tree_depth`.
        for n in 2..=64usize {
            for k in 1..n {
                let levels = n.div_ceil(k).next_power_of_two().trailing_zeros();
                assert_eq!(levels, tree_depth(n, k), "(n={n},k={k})");
                let (_, tree) = Algorithm::CcTree.paper_bound(n, k).unwrap();
                assert_eq!(tree, 7 * k as u64 * u64::from(levels));
            }
        }
        assert_eq!(Algorithm::DsmChain.paper_bound(8, 2), Some(("14(N-k)", 84)));
        assert_eq!(Algorithm::CcGraceful.paper_bound(8, 2), None);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = Algorithm::ALL.iter().map(|a| a.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), Algorithm::ALL.len());
    }
}
