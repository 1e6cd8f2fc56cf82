//! Native Figure-3(a) tree composition: `(N, k)`-exclusion from
//! `(2k, k)` Figure-2 chains, cost logarithmic in `N/k` (Theorem 2).

use super::fig2::CcChainKex;
use super::raw::RawKex;

/// The tree combinator: processes are partitioned into groups of `2k` at
/// the leaves; each block admits `k`, two sibling blocks' winners meet in
/// the parent, and the root's winners hold the critical section.
///
/// ```rust
/// use kex_core::native::{RawKex, TreeKex};
///
/// // 32 threads, k = 4: a 3-level tree instead of a 28-stage chain.
/// let kex = TreeKex::new(32, 4);
/// assert_eq!(kex.depth(), 3);
/// let _guard = kex.enter(17);
/// ```
#[derive(Debug)]
pub struct TreeKex {
    /// `levels[0]` = leaves; the last level is the single root block.
    /// With `n <= 2k` that is one level of one `(n, k)` block.
    levels: Vec<Vec<CcChainKex>>,
    group: usize,
    n: usize,
    k: usize,
}

impl TreeKex {
    /// Tree of Figure-2 chain blocks — Theorem 2.
    ///
    /// # Panics
    /// Panics unless `1 <= k < n`.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k >= 1 && k < n, "TreeKex requires 1 <= k < n");
        let group = 2 * k;
        // `n <= 2k` leaves one block, and it is `(n, k)` rather than
        // `(2k, k)`: a block's population cannot exceed the universe.
        let mut levels = Vec::new();
        let mut count = n.div_ceil(group);
        loop {
            levels.push(
                (0..count)
                    .map(|_| CcChainKex::with_universe(n, group.min(n), k))
                    .collect(),
            );
            if count == 1 {
                break;
            }
            count = count.div_ceil(2);
        }
        TreeKex {
            levels,
            group,
            n,
            k,
        }
    }

    /// The number of blocks on each acquisition path.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    #[inline]
    fn block_at(&self, level: usize, p: usize) -> &CcChainKex {
        &self.levels[level][(p / self.group) >> level]
    }
}

impl RawKex for TreeKex {
    fn n(&self) -> usize {
        self.n
    }

    fn k(&self) -> usize {
        self.k
    }

    fn acquire(&self, p: usize) {
        assert!(p < self.n, "pid {p} out of range 0..{}", self.n);
        let _obs = crate::obs::span(crate::obs::Section::Entry, p);
        for level in 0..self.levels.len() {
            self.block_at(level, p).acquire(p);
        }
    }

    fn release(&self, p: usize) {
        let _obs = crate::obs::span(crate::obs::Section::Exit, p);
        for level in (0..self.levels.len()).rev() {
            self.block_at(level, p).release(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::testutil::{max_concurrency, occupancy_stress};
    use std::time::Duration;

    #[test]
    fn tree_never_exceeds_k() {
        for (n, k) in [(8, 2), (12, 3), (16, 2)] {
            let kex = TreeKex::new(n, k);
            let report = occupancy_stress(&kex, 150);
            assert!(report.max_seen <= k, "(n={n},k={k}): {}", report.max_seen);
            assert_eq!(report.total_entries, n as u64 * 150);
        }
    }

    #[test]
    fn depth_is_logarithmic() {
        assert_eq!(TreeKex::new(4, 2).depth(), 1);
        assert_eq!(TreeKex::new(8, 2).depth(), 2);
        assert_eq!(TreeKex::new(16, 2).depth(), 3);
        assert_eq!(TreeKex::new(32, 2).depth(), 4);
    }

    #[test]
    fn k_holders_rendezvous_through_the_tree() {
        let kex = TreeKex::new(12, 3);
        assert_eq!(max_concurrency(&kex, 3, Duration::from_secs(2)), 3);
    }
}
