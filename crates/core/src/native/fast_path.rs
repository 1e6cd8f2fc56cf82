//! Native Figure-4 fast path over the tree slow path (Theorem 3).

use kex_util::ord;
use kex_util::sync::atomic::{AtomicU64, AtomicUsize};

use kex_util::CachePadded;

use super::fig2::CcChainKex;
use super::raw::RawKex;
use super::tree::TreeKex;

/// Range-safe `fetch_and_increment(X, -1)` per the paper's footnote 2:
/// decrements only if positive; returns whether a slot was obtained.
/// The slot accounting is same-location arithmetic on `X` alone, so the
/// AcqRel RMW chain suffices: each successful grab takes the hand-off
/// edge from every `fetch_add` release that precedes it in `X`'s
/// modification order (and the admitted process still passes through a
/// `(2k, k)` block, which provides its own synchronization).
#[inline]
fn try_grab(x: &AtomicU64) -> bool {
    x.fetch_update(ord::counter::ACQ_REL, ord::spin::ACQUIRE, |v| {
        if v > 0 {
            Some(v - 1)
        } else {
            None
        }
    })
    .is_ok()
}

/// Figure 4 over a tree slow path — Theorem 3.
///
/// With contention at most `k`, an acquisition costs one fetch-and-add
/// pair plus an uncontended pass through a single `(2k, k)` block —
/// `O(k)` remote references independent of `N`. Once contention exceeds
/// `k`, overflow processes take the `(N, k)` tree (`O(k log(N/k))`).
/// This is the variant to reach for by default.
///
/// ```rust
/// use kex_core::native::{FastPathKex, RawKex};
///
/// let kex = FastPathKex::new(64, 4); // 64 threads, 4 slots
/// kex.acquire(9);
/// // ... protected section, at most 4 threads here ...
/// kex.release(9);
/// ```
pub struct FastPathKex {
    node: Node,
    n: usize,
    k: usize,
}

/// The Figure-4 node over the processes `0..n`.
enum Node {
    /// `n <= 2k`: a single block is the whole algorithm.
    Block(CcChainKex),
    Split {
        /// The `(N, k)` tree.
        slow: TreeKex,
        /// The final `(2k, k)` block; its `x()` is the fast-path slot
        /// counter, `0..=k`, initially `k`.
        block: CcChainKex,
        /// Per-process "took the slow path" flags (each private to its
        /// owner; atomics only to keep the structure `Sync`).
        slow_flag: Vec<CachePadded<AtomicUsize>>,
    },
}

impl Node {
    fn acquire(&self, p: usize) {
        match self {
            Node::Block(b) => b.acquire(p),
            Node::Split {
                slow,
                block,
                slow_flag,
            } => {
                // Statements 1–5 of Figure 4. `slow_flag[p]` is
                // owner-private (atomic only for `Sync`), so Relaxed.
                if try_grab(block.x()) {
                    slow_flag[p].store(0, ord::private::RELAXED);
                } else {
                    slow_flag[p].store(1, ord::private::RELAXED);
                    slow.acquire(p);
                }
                block.acquire(p);
            }
        }
    }

    /// Figure 4 without its waiting half: the fast slot and then the
    /// block, or nothing. `X == 0` means `k` processes hold fast slots
    /// and with them the block's `k` (or are a bounded number of their
    /// own steps from it), so the slow path could only queue behind
    /// them; a block that refuses although `X` had a slot is full of
    /// slow-path holders, and the fast slot goes back.
    fn try_acquire(&self, p: usize) -> bool {
        match self {
            Node::Block(b) => b.try_acquire(p),
            Node::Split {
                block, slow_flag, ..
            } => {
                let x = block.x();
                if !try_grab(x) {
                    return false;
                }
                if block.try_acquire(p) {
                    slow_flag[p].store(0, ord::private::RELAXED);
                    return true;
                }
                x.fetch_add(1, ord::counter::ACQ_REL);
                false
            }
        }
    }

    fn occupancy(&self) -> usize {
        match self {
            Node::Block(block) | Node::Split { block, .. } => block.occupancy(),
        }
    }

    fn release(&self, p: usize) {
        match self {
            Node::Block(b) => b.release(p),
            Node::Split {
                slow,
                block,
                slow_flag,
            } => {
                // Statements 6–9 of Figure 4.
                block.release(p);
                if slow_flag[p].load(ord::private::RELAXED) != 0 {
                    slow.release(p);
                } else {
                    // Release half pairs with the acquire in `try_grab`,
                    // handing our critical section to the next grabber.
                    let x = block.x();
                    x.fetch_add(1, ord::counter::ACQ_REL);
                }
            }
        }
    }
}

impl FastPathKex {
    /// Build the `(n, k)` node: a single `(n, k)` chain when `n <= 2k`,
    /// otherwise `X`, the `(n, k)` tree and a final `(2k, k)` chain.
    ///
    /// # Panics
    /// Panics unless `1 <= k < n`.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k >= 1 && k < n, "Figure 4 requires 1 <= k < n");
        let node = if n <= 2 * k {
            Node::Block(CcChainKex::new(n, k))
        } else {
            Node::Split {
                slow: TreeKex::new(n, k),
                block: CcChainKex::with_universe(n, 2 * k, k),
                slow_flag: (0..n)
                    .map(|_| CachePadded::new(AtomicUsize::new(0)))
                    .collect(),
            }
        };
        FastPathKex { node, n, k }
    }

    /// [`RawKex::acquire`] that never waits: `true` with a slot held
    /// (leave through [`RawKex::release`]), `false` when all `k` are
    /// held right now — by live processes or by crashed ones. It tries
    /// the fast path only ([`CcChainKex::try_acquire`] behind the `X`
    /// slot) and on refusal leaves every counter as it found it.
    ///
    /// # Panics
    /// Panics if `p >= self.n()`.
    pub fn try_acquire(&self, p: usize) -> bool {
        assert!(p < self.n, "pid {p} out of range 0..{}", self.n);
        let _obs = crate::obs::span(crate::obs::Section::Entry, p);
        self.node.try_acquire(p)
    }

    /// Processes holding a slot or waiting at the final stage of the
    /// final block ([`CcChainKex::occupancy`]); crashed holders count
    /// for ever.
    pub fn occupancy(&self) -> usize {
        self.node.occupancy()
    }
}

impl std::fmt::Debug for FastPathKex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FastPathKex")
            .field("n", &self.n)
            .field("k", &self.k)
            .finish()
    }
}

impl RawKex for FastPathKex {
    fn n(&self) -> usize {
        self.n
    }

    fn k(&self) -> usize {
        self.k
    }

    fn acquire(&self, p: usize) {
        assert!(p < self.n, "pid {p} out of range 0..{}", self.n);
        let _obs = crate::obs::span(crate::obs::Section::Entry, p);
        self.node.acquire(p);
    }

    fn release(&self, p: usize) {
        let _obs = crate::obs::span(crate::obs::Section::Exit, p);
        self.node.release(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::testutil::{crash_stress, max_concurrency, occupancy_stress};
    use std::time::Duration;

    #[test]
    fn fast_path_never_exceeds_k() {
        for (n, k) in [(4, 2), (8, 2), (12, 3), (16, 4)] {
            let kex = FastPathKex::new(n, k);
            let report = occupancy_stress(&kex, 200);
            assert!(report.max_seen <= k, "(n={n},k={k}): {}", report.max_seen);
            assert_eq!(report.total_entries, n as u64 * 200);
        }
    }

    #[test]
    fn fast_path_k_holders_rendezvous() {
        let kex = FastPathKex::new(12, 3);
        assert_eq!(max_concurrency(&kex, 3, Duration::from_secs(2)), 3);
    }

    #[test]
    fn a_try_refused_by_the_block_hands_the_fast_slot_back() {
        // (5, 2), so the node splits. 0 and 1 take both fast slots; 2
        // must go round the tree and waits in the final block until 0
        // leaves — after which `X` has a slot again but the block is
        // held by 1 and, through the slow path, by 2.
        let kex = FastPathKex::new(5, 2);
        let x = |kex: &FastPathKex| match &kex.node {
            Node::Split { block, .. } => block.x().load(ord::handshake::SEQ_CST),
            Node::Block(_) => unreachable!("5 > 2k"),
        };
        kex.acquire(0);
        kex.acquire(1);
        assert!(!kex.try_acquire(3), "no fast slot: refused off X alone");
        std::thread::scope(|s| {
            let slow = s.spawn(|| kex.acquire(2));
            while kex.occupancy() < 3 {
                kex_util::sync::thread::yield_now(); // until 2 queues at the final stage
            }
            kex.release(0);
            slow.join().unwrap();
        });
        assert_eq!((x(&kex), kex.occupancy()), (1, 2));
        assert!(!kex.try_acquire(3));
        assert_eq!((x(&kex), kex.occupancy()), (1, 2));

        kex.release(1);
        assert!(kex.try_acquire(3));
        assert_eq!((x(&kex), kex.occupancy()), (1, 2));
        kex.release(3);
        kex.release(2);
        assert_eq!((x(&kex), kex.occupancy()), (2, 0));
    }

    #[test]
    #[cfg(not(feature = "obs"))] // the instrumented atomics are wider
    fn x_shares_a_line_with_the_final_blocks_stages() {
        // k + 1 words from a 128-byte boundary: one 64-byte line up to
        // k = 7, one 128-byte pair at k = 8.
        for (k, line) in [(1, 64), (2, 64), (4, 64), (7, 64), (8, 128)] {
            let kex = FastPathKex::new(2 * k + 1, k);
            let Node::Split { block, .. } = &kex.node else {
                unreachable!("2k + 1 > 2k")
            };
            let x = std::ptr::from_ref(block.x()) as usize;
            let stages: Vec<usize> = block
                .stages()
                .iter()
                .map(|s| std::ptr::from_ref(s) as usize)
                .collect();
            assert_eq!((stages.len(), x), (k, stages[0] + 8 * k), "k = {k}");
            assert_eq!(stages[0] / line, x / line, "k = {k}");
        }
    }

    #[test]
    fn fast_path_survives_k_minus_1_crashes_in_cs() {
        // Two of k = 3 holders crash inside; the other six threads must
        // keep completing acquisitions through the remaining slot.
        let kex = FastPathKex::new(8, 3);
        let completed = crash_stress(&kex, &[0, 1], 200);
        assert_eq!(completed, 6 * 200);
    }

    #[test]
    fn chain_and_tree_survive_crashes_too() {
        let kex = CcChainKex::new(6, 2);
        assert_eq!(crash_stress(&kex, &[3], 150), 5 * 150);
        let kex = TreeKex::new(8, 2);
        assert_eq!(crash_stress(&kex, &[7], 150), 7 * 150);
    }
}
