//! Figure 4: `(N, k)`-exclusion with a **fast path** — Theorems 3 and 7,
//! and (applied recursively) the gracefully-degrading Theorems 4 and 8.
//!
//! ```text
//! shared variable X : 0..k initially k    /* fast-path slot counter */
//! private variable slow : boolean         /* records path taken     */
//!
//! 0: Noncritical Section
//! 1: slow := false
//! 2: if fetch_and_increment(X, -1) = 0 then   /* no fast slots */
//! 3:     slow := true
//! 4:     Acquire(N - k)                       /* slow path */
//! 5: Acquire(2k)                              /* final (2k,k) block */
//!    Critical Section
//! 6: Release(2k)
//! 7: if slow then
//! 8:     Release(N - k)
//! 9: else fetch_and_increment(X, 1)
//! ```
//!
//! `fetch_and_increment(X, -1)` is assumed range-safe (footnote 2): it
//! leaves `X` unchanged when `X = 0`; we use the simulator's clamped
//! primitive.
//!
//! At most `k` processes hold fast-path slots at a time, and the slow
//! path is itself a `k`-admitting `(N, k)`-exclusion (per the paper's
//! `Acquire(N-k)` shorthand), so at most `2k` processes ever contend in
//! the final `(2k, k)` block. When contention is at most `k`, statement
//! 2's test never fails, so only the fast f&i pair plus the uncontended
//! `(2k, k)` block is paid — `O(k)` remote references in total — while
//! high contention degrades to the slow path's cost (the tree for
//! Theorems 3/7, a recursive fast path for the graceful Theorems 4/8).

use kex_sim::mem::MemCtx;
use kex_sim::node::Node;
use kex_sim::protocol::ProtocolBuilder;
use kex_sim::summary::{AccessDesc, NodeDesc, SpaceClass, StmtDesc};
use kex_sim::types::{NodeId, Pid, Section, Step, VarId, Word};

use super::tree::{tree, BlockBuilder};

/// Local-variable layout.
const L_SLOW: usize = 0;

/// The Figure-4 combinator node.
pub struct FastPathNode {
    /// Fast-path slot counter `X`, initially `k`.
    x: VarId,
    /// The slow path: an `(N, k)`-exclusion over the overflow processes.
    slow: NodeId,
    /// The final `(2k, k)` block.
    block: NodeId,
    k: usize,
}

impl FastPathNode {
    /// Construct a fast-path node over an existing slow path and final
    /// block.
    pub fn new(b: &mut ProtocolBuilder, k: usize, slow: NodeId, block: NodeId) -> Self {
        let x = b
            .vars
            .alloc(format!("fastpath.X(k={k},v{})", b.vars.len()), k as Word);
        FastPathNode { x, slow, block, k }
    }
}

impl Node for FastPathNode {
    fn name(&self) -> String {
        format!("fast-path(k={})", self.k)
    }

    fn locals_len(&self) -> usize {
        1
    }

    fn step(&self, sec: Section, pc: u32, locals: &mut [Word], mem: &mut MemCtx<'_>) -> Step {
        match (sec, pc) {
            // statement 1: slow := false (private)
            (Section::Entry, 0) => {
                locals[L_SLOW] = 0;
                Step::Goto(1)
            }
            // statement 2: if fetch_and_increment(X, -1) = 0
            (Section::Entry, 1) => {
                let old = mem.fetch_and_increment_clamped(self.x, -1, 0, self.k as Word);
                if old == 0 {
                    Step::Goto(2)
                } else {
                    Step::Goto(3) // fast path: straight to the block
                }
            }
            // statement 3: slow := true (private)
            (Section::Entry, 2) => {
                locals[L_SLOW] = 1;
                // statement 4: Acquire(N-k) — the slow path
                Step::Call {
                    child: self.slow,
                    section: Section::Entry,
                    ret: 3,
                }
            }
            // statement 5: Acquire(2k)
            (Section::Entry, 3) => Step::Call {
                child: self.block,
                section: Section::Entry,
                ret: 4,
            },
            (Section::Entry, 4) => Step::Return,

            // statement 6: Release(2k)
            (Section::Exit, 0) => Step::Call {
                child: self.block,
                section: Section::Exit,
                ret: 1,
            },
            // statement 7: if slow
            (Section::Exit, 1) => {
                if locals[L_SLOW] != 0 {
                    // statement 8: Release(N-k)
                    Step::Call {
                        child: self.slow,
                        section: Section::Exit,
                        ret: 3,
                    }
                } else {
                    Step::Goto(2)
                }
            }
            // statement 9: fetch_and_increment(X, 1)
            (Section::Exit, 2) => {
                mem.fetch_and_increment(self.x, 1);
                Step::Return
            }
            (Section::Exit, 3) => Step::Return,
            _ => unreachable!("fast-path: bad pc {pc} in {sec}"),
        }
    }

    fn describe(&self, _p: Pid) -> Option<NodeDesc> {
        let entry = vec![
            StmtDesc::new(0, "1: slow := false").goto(1),
            StmtDesc::new(1, "2: if f&i(X, -1) = 0")
                .access(AccessDesc::rmw(self.x))
                .goto(2)
                .goto(3),
            StmtDesc::new(2, "3-4: slow := true; Acquire(N-k)").call(self.slow, Section::Entry, 3),
            StmtDesc::new(3, "5: Acquire(2k)").call(self.block, Section::Entry, 4),
            StmtDesc::new(4, "acquired").returns(),
        ];
        let exit = vec![
            StmtDesc::new(0, "6: Release(2k)").call(self.block, Section::Exit, 1),
            StmtDesc::new(1, "7-8: if slow then Release(N-k)")
                .call(self.slow, Section::Exit, 3)
                .goto(2),
            StmtDesc::new(2, "9: f&i(X, 1)")
                .access(AccessDesc::rmw(self.x))
                .returns(),
            StmtDesc::new(3, "released").returns(),
        ];
        Some(NodeDesc {
            exclusion: Some(self.k),
            spin_space: SpaceClass::NoSpin,
            entry,
            exit,
        })
    }
}

/// Theorem 3/7 construction: fast path over a **tree** slow path, with
/// `(2k, k)` blocks from `block`.
///
/// `O(k)` remote references when contention is at most `k`;
/// `O(k · log2⌈N/k⌉)` when it exceeds `k`.
pub fn fast_path_over_tree(
    b: &mut ProtocolBuilder,
    n: usize,
    k: usize,
    block: BlockBuilder<'_>,
) -> NodeId {
    assert!(k >= 1 && k < n, "fast path requires 1 <= k < n");
    if n <= 2 * k {
        // Nothing to split: the block alone is (n, k)-exclusion.
        return block(b, n, k);
    }
    let slow = tree(b, n, k, block);
    let final_block = block(b, 2 * k, k);
    let node = FastPathNode::new(b, k, slow, final_block);
    b.add(node)
}

/// Theorem 4/8 construction: the **gracefully degrading** algorithm — the
/// slow path is itself a fast-path algorithm, recursively, so the cost is
/// proportional to `⌈c/k⌉` where `c` is the contention actually
/// encountered, rather than jumping to the full tree cost.
pub fn graceful(b: &mut ProtocolBuilder, n: usize, k: usize, block: BlockBuilder<'_>) -> NodeId {
    assert!(k >= 1 && k < n, "graceful requires 1 <= k < n");
    if n <= 2 * k {
        return block(b, n, k);
    }
    // Each nesting level absorbs k processes on its fast path; the
    // residual population shrinks by k per level (Figure 3(b), nested
    // dotted boxes).
    let slow = graceful(b, n - k, k, block);
    let final_block = block(b, 2 * k, k);
    let node = FastPathNode::new(b, k, slow, final_block);
    b.add(node)
}

/// Number of fast-path nesting levels the graceful construction uses for
/// `(n, k)` — the experiment harness uses this for bound curves.
pub fn graceful_depth(n: usize, k: usize) -> u32 {
    let mut n = n;
    let mut d = 0;
    while n > 2 * k {
        n -= k;
        d += 1;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::build::{cc_fast_path, cc_graceful};
    use kex_sim::prelude::*;

    // The exhaustive verdict on graceful (3, 1) is a row of the root
    // `tests/model_checking.rs` matrix.

    #[test]
    fn fast_path_is_safe_under_random_schedules() {
        for seed in 0..10 {
            let mut sim = Sim::new(cc_fast_path(8, 2), MemoryModel::CacheCoherent)
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
    fn graceful_is_safe_under_random_schedules() {
        for seed in 0..10 {
            let mut sim = Sim::new(cc_graceful(8, 2), MemoryModel::CacheCoherent)
                .cycles(15)
                .scheduler(RandomSched::new(seed))
                .build();
            let report = sim.run(10_000_000);
            report.assert_safe();
            assert_eq!(report.stop, StopReason::Quiescent, "seed {seed}");
        }
    }

    #[test]
    fn low_contention_cost_is_constant_in_n() {
        // Theorem 3's headline: with contention <= k, the pair cost does
        // not depend on N (the slow path is never taken). Measure the
        // worst pair cost with a single participant for growing N.
        let mut costs = Vec::new();
        for n in [8, 16, 32] {
            let mut sim = Sim::new(cc_fast_path(n, 2), MemoryModel::CacheCoherent)
                .cycles(10)
                .participants([0])
                .build();
            let report = sim.run(1_000_000);
            report.assert_safe();
            costs.push(report.stats.worst_pair());
        }
        assert_eq!(costs[0], costs[1], "cost must not grow with N");
        assert_eq!(costs[1], costs[2], "cost must not grow with N");
        // And it is O(k): comfortably below the full tree bound.
        assert!(
            costs[0] <= 3 * 2 + 4,
            "expected O(k) fast-path cost, got {}",
            costs[0]
        );
    }

    #[test]
    fn exhaustive_fast_path_full_liveness() {
        // (3,1) fast path over a tree (641 820 states), unrestricted:
        // footnote 2's range-safe fetch-and-increment keeps X in 0..=k
        // in every reachable state, and no process starves.
        let proto = cc_fast_path(3, 1);
        let x = proto
            .vars()
            .iter()
            .find(|(_, s)| s.name.starts_with("fastpath.X"))
            .map(|(id, _)| id)
            .expect("fast-path X variable");
        let report = explore_with(proto, &ExploreConfig::default(), move |w| {
            let v = w.mem.peek(x);
            if (0..=1).contains(&v) {
                Ok(())
            } else {
                Err(format!("fast-path X = {v} outside 0..1"))
            }
        });
        report.assert_ok();
        check_starvation_freedom(&report).expect("fast path (3,1) must be starvation-free");
    }

    #[test]
    fn graceful_depth_tracks_population() {
        assert_eq!(graceful_depth(4, 2), 0);
        assert_eq!(graceful_depth(6, 2), 1);
        assert_eq!(graceful_depth(8, 2), 2);
        assert_eq!(graceful_depth(32, 4), 6);
    }
}
