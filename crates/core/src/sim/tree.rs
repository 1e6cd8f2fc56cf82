//! Figure 3(a): arranging `(2k, k)`-exclusion building blocks in a
//! binary tree that halves the number of processes at each level until
//! only `k` remain — Theorems 2 and 6.
//!
//! Processes are partitioned into groups of `2k` at the leaves; each
//! group passes through its leaf block, which admits at most `k` of them.
//! Winners from two sibling blocks (at most `2k` together) contend in the
//! parent block, and so on to the root, whose at-most-`k` winners hold the
//! critical section. A process acquires leaf→root and releases root→leaf.
//!
//! The blocks must not require a process to know the identities of other
//! processes in advance — the paper notes its building blocks have this
//! property, and it is what makes the composition sound (any subset of
//! processes can show up at any block).
//!
//! Worst-case cost: `depth × block cost` = `7k·log2⌈N/k⌉` on CC
//! (Theorem 2) or `14k·log2⌈N/k⌉` on DSM (Theorem 6).

use kex_sim::mem::MemCtx;
use kex_sim::node::Node;
use kex_sim::protocol::ProtocolBuilder;
use kex_sim::summary::{NodeDesc, SpaceClass, StmtDesc};
use kex_sim::types::{NodeId, Pid, Section, Step, Word};

/// A builder of `(m, k)`-exclusion blocks, used as the tree's (and fast
/// path's) building block factory. Receives `(builder, m, k)` where `m`
/// is the maximum number of processes that will contend in the block.
pub type BlockBuilder<'a> = &'a mut dyn FnMut(&mut ProtocolBuilder, usize, usize) -> NodeId;

/// The tree combinator node: routes each process through one block per
/// level, leaf to root.
pub struct TreeNode {
    /// `levels[0]` = leaves, `levels.last()` = root level (single block).
    levels: Vec<Vec<NodeId>>,
    /// Processes per leaf group (`arity * k`).
    group: usize,
    /// Children merged per level (the paper's Figure 3(a) uses 2).
    arity: usize,
}

impl TreeNode {
    #[inline]
    fn block_at(&self, level: usize, pid: usize) -> NodeId {
        let mut g = pid / self.group;
        for _ in 0..level {
            g /= self.arity;
        }
        self.levels[level][g]
    }

    #[inline]
    fn depth(&self) -> u32 {
        self.levels.len() as u32
    }
}

impl Node for TreeNode {
    fn name(&self) -> String {
        format!("tree(depth={})", self.levels.len())
    }

    fn step(&self, sec: Section, pc: u32, _locals: &mut [Word], mem: &mut MemCtx<'_>) -> Step {
        let d = self.depth();
        if pc >= d {
            return Step::Return;
        }
        match sec {
            // Acquire leaf (level 0) up to the root (level d-1).
            Section::Entry => Step::Call {
                child: self.block_at(pc as usize, mem.pid()),
                section: Section::Entry,
                ret: pc + 1,
            },
            // Release root down to the leaf.
            Section::Exit => Step::Call {
                child: self.block_at((d - 1 - pc) as usize, mem.pid()),
                section: Section::Exit,
                ret: pc + 1,
            },
        }
    }

    fn describe(&self, p: Pid) -> Option<NodeDesc> {
        // Pure combinator: process p's path is one block per level, leaf
        // to root on entry and root to leaf on exit. No shared accesses
        // of its own.
        let d = self.levels.len();
        let mut entry = Vec::new();
        let mut exit = Vec::new();
        for pc in 0..d {
            entry.push(StmtDesc::new(pc as u32, "Acquire(level block)").call(
                self.block_at(pc, p),
                Section::Entry,
                pc as u32 + 1,
            ));
            exit.push(StmtDesc::new(pc as u32, "Release(level block)").call(
                self.block_at(d - 1 - pc, p),
                Section::Exit,
                pc as u32 + 1,
            ));
        }
        entry.push(StmtDesc::new(d as u32, "root acquired").returns());
        exit.push(StmtDesc::new(d as u32, "leaf released").returns());
        Some(NodeDesc {
            exclusion: None,
            spin_space: SpaceClass::NoSpin,
            entry,
            exit,
        })
    }
}

/// Build an `(n, k)`-exclusion tree from `(2k, k)` blocks produced by
/// `block`, merging two children per level — the paper's Figure 3(a).
/// Falls back to a single `(n, k)` block when `n <= 2k`.
pub fn tree(b: &mut ProtocolBuilder, n: usize, k: usize, block: BlockBuilder<'_>) -> NodeId {
    tree_with_arity(b, n, k, 2, block)
}

/// Generalized tree: merge `arity` children per level, so each block is
/// an `(arity*k, k)`-exclusion. Higher arity trades a shallower tree
/// (fewer levels) for costlier blocks (`7(arity-1)k` per level on CC) —
/// the ablation knob behind the paper's choice of a binary tree.
///
/// # Panics
/// Panics unless `1 <= k < n` and `arity >= 2`.
pub fn tree_with_arity(
    b: &mut ProtocolBuilder,
    n: usize,
    k: usize,
    arity: usize,
    block: BlockBuilder<'_>,
) -> NodeId {
    assert!(k >= 1 && k < n, "tree requires 1 <= k < n");
    assert!(arity >= 2, "tree arity must be at least 2");
    let group = arity * k;
    if n <= group {
        return block(b, n, k);
    }
    let leaf_count = n.div_ceil(group);
    let mut levels = Vec::new();
    let mut count = leaf_count;
    loop {
        let level: Vec<NodeId> = (0..count).map(|_| block(b, group, k)).collect();
        levels.push(level);
        if count == 1 {
            break;
        }
        count = count.div_ceil(arity);
    }
    b.add(TreeNode {
        levels,
        group,
        arity,
    })
}

/// The binary tree's depth for given `(n, k)` — the number of blocks on
/// each process's path. Used by bound calculations in experiments.
pub fn tree_depth(n: usize, k: usize) -> u32 {
    tree_depth_with_arity(n, k, 2)
}

/// [`tree_depth`] for an arbitrary arity.
pub fn tree_depth_with_arity(n: usize, k: usize, arity: usize) -> u32 {
    if n <= arity * k {
        return 1;
    }
    let mut count = n.div_ceil(arity * k);
    let mut depth = 1;
    while count > 1 {
        count = count.div_ceil(arity);
        depth += 1;
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::build::{cc_tree, dsm_tree};
    use crate::sim::fig2::fig2_chain;
    use kex_sim::prelude::*;

    // Theorem 2's sampled bound, and the tree's bound beating the flat
    // chain's, are `e3_trees`.

    #[test]
    fn depth_matches_log_formula() {
        assert_eq!(tree_depth(4, 2), 1); // single block
        assert_eq!(tree_depth(8, 2), 2); // 2 leaves + root
        assert_eq!(tree_depth(16, 2), 3);
        assert_eq!(tree_depth(9, 2), 3); // 3 leaves -> 2 -> 1
        assert_eq!(tree_depth(64, 4), 4);
    }

    #[test]
    fn tree_is_safe_under_random_schedules() {
        for seed in 0..10 {
            let mut sim = Sim::new(cc_tree(8, 2), MemoryModel::CacheCoherent)
                .cycles(15)
                .scheduler(RandomSched::new(seed))
                .timing(Timing {
                    ncs_steps: 1,
                    cs_steps: 2,
                })
                .build();
            let report = sim.run(10_000_000);
            report.assert_safe();
            assert_eq!(report.stop, StopReason::Quiescent, "seed {seed}");
        }
    }

    #[test]
    fn dsm_tree_is_safe_too() {
        let proto = dsm_tree(8, 2);
        for seed in 0..5 {
            let mut sim = Sim::new(proto.clone(), MemoryModel::Dsm)
                .cycles(10)
                .scheduler(RandomSched::new(seed))
                .build();
            let report = sim.run(10_000_000);
            report.assert_safe();
            assert_eq!(report.stop, StopReason::Quiescent, "seed {seed}");
        }
    }

    #[test]
    fn arity_depth_tradeoff() {
        // Higher arity -> shallower tree; (arity-1)k cost per level is
        // checked empirically by the root test `e10_tree_arity`.
        use super::tree_depth_with_arity;
        assert_eq!(tree_depth_with_arity(32, 2, 2), 4);
        assert_eq!(tree_depth_with_arity(32, 2, 4), 2);
        assert_eq!(tree_depth_with_arity(32, 2, 8), 2);
        assert_eq!(tree_depth_with_arity(32, 2, 16), 1);
    }

    #[test]
    fn quaternary_tree_is_safe() {
        let mut b = ProtocolBuilder::new(16);
        let root = super::tree_with_arity(&mut b, 16, 2, 4, &mut |b, m, k| fig2_chain(b, m, k));
        let proto = b.finish(root, 2);
        for seed in 0..5 {
            let mut sim = Sim::new(proto.clone(), MemoryModel::CacheCoherent)
                .cycles(10)
                .scheduler(RandomSched::new(seed))
                .build();
            let report = sim.run(20_000_000);
            report.assert_safe();
            assert_eq!(report.stop, StopReason::Quiescent, "seed {seed}");
        }
    }

    #[test]
    fn exhaustive_quaternary_tree_small() {
        // (6,1) with arity 3: one leaf level of 2 blocks + root; three
        // participants spanning leaves.
        let mut b = ProtocolBuilder::new(6);
        let root = super::tree_with_arity(&mut b, 6, 1, 3, &mut |b, m, k| fig2_chain(b, m, k));
        let proto = b.finish(root, 1);
        let cfg = ExploreConfig {
            participants: Some(vec![0, 3, 5]),
            ..ExploreConfig::default()
        };
        let report = explore(proto, &cfg);
        report.assert_ok();
        check_starvation_freedom(&report).expect("arity-3 tree must be starvation-free");
    }

    #[test]
    fn exhaustive_small_tree() {
        // (6, 1): 3 leaves of 2 processes, depth 3; k = 1 means full
        // mutual exclusion through the tree. Restrict to 3 participants
        // spanning different leaves to keep the space small.
        let cfg = ExploreConfig {
            participants: Some(vec![0, 2, 4]),
            ..ExploreConfig::default()
        };
        let report = explore(cc_tree(6, 1), &cfg);
        report.assert_ok();
        check_starvation_freedom(&report).expect("tree must be starvation-free");
    }
}
