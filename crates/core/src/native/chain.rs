//! The inductive chain of Theorems 1 and 5, written once over the stage
//! it is made of: `(m, k)`-exclusion as stages `j = m-1 .. k`, acquired
//! top (widest) first, each admitting `j` of the at most `j + 1`
//! processes the stage before it lets through.

use super::raw::{Block, RawKex};

/// One stage of a chain: `(j + 1, j)`-exclusion over pids `0..universe`.
///
/// Sealed by reachability: the trait and its two implementors, Figure
/// 2's `CcStage` and Figure 6's `DsmStage`, are `pub` only so that the
/// [`ChainKex`] aliases can be, and sit in modules that are not.
pub trait Stage: Send + Sync {
    /// The largest universe a stage's representation can count.
    const MAX_UNIVERSE: usize;

    /// The stage admitting `j`.
    fn new(j: usize, universe: usize) -> Self;

    /// The figure's entry section: returns with one of the `j` slots.
    fn acquire(&self, p: usize);

    /// The figure's exit section: the slot back, and the wake-up.
    fn release(&self, p: usize);

    /// The entry's first statement as footnote 2 writes it: take a slot
    /// only if one is free, and do not write otherwise.
    fn try_acquire(&self) -> bool;

    /// Slots not taken; negative while a process waits.
    fn free(&self) -> isize;
}

/// `(N, k)`-exclusion as a chain of [`Stage`]s; see the aliases
/// [`CcChainKex`](super::CcChainKex) (Theorem 1) and
/// [`DsmChainKex`](super::DsmChainKex) (Theorem 5). It is both the
/// paper's baseline construction and the `(2k, k)` block of the better
/// ones.
#[derive(Debug)]
pub struct ChainKex<S> {
    /// `stages[i]` admits `j = m-1-i`; the last admits exactly `k`.
    stages: Vec<S>,
    n: usize,
    k: usize,
}

impl<S: Stage> ChainKex<S> {
    /// Build the `(n, k)` chain.
    ///
    /// # Panics
    /// Panics unless `1 <= k < n`, or if `n` is more than the stage can
    /// count (32768 for `CcChainKex`).
    pub fn new(n: usize, k: usize) -> Self {
        Self::with_universe(n, n, k)
    }

    #[cfg(test)]
    pub(super) fn stages(&self) -> &[S] {
        &self.stages
    }
}

impl<S: Stage> Block for ChainKex<S> {
    fn with_universe(universe: usize, m: usize, k: usize) -> Self {
        assert!(
            k >= 1 && k < m && m <= universe && universe <= S::MAX_UNIVERSE,
            "a chain requires 1 <= k < m <= universe <= {}",
            S::MAX_UNIVERSE
        );
        ChainKex {
            stages: (k..m).rev().map(|j| S::new(j, universe)).collect(),
            n: universe,
            k,
        }
    }

    fn try_acquire(&self, p: usize) -> bool {
        assert!(p < self.n, "pid {p} out of range 0..{}", self.n);
        let _obs = crate::obs::span(crate::obs::Section::Entry, p);
        for (i, stage) in self.stages.iter().enumerate() {
            if !stage.try_acquire() {
                // Refused: give back the stages already taken, last
                // first, the way a holder leaves them — a blocking
                // process may have queued behind a slot held on the way
                // here, and is owed the wake-up.
                self.stages[..i].iter().rev().for_each(|s| s.release(p));
                return false;
            }
        }
        true
    }

    fn occupancy(&self) -> usize {
        let last = self.stages.last().expect("k < m: at least one stage");
        (self.k as isize - last.free()).max(0) as usize
    }
}

impl<S: Stage> RawKex for ChainKex<S> {
    fn n(&self) -> usize {
        self.n
    }

    fn k(&self) -> usize {
        self.k
    }

    fn acquire(&self, p: usize) {
        assert!(p < self.n, "pid {p} out of range 0..{}", self.n);
        let _obs = crate::obs::span(crate::obs::Section::Entry, p);
        for stage in &self.stages {
            stage.acquire(p);
        }
    }

    fn release(&self, p: usize) {
        let _obs = crate::obs::span(crate::obs::Section::Exit, p);
        for stage in self.stages.iter().rev() {
            stage.release(p);
        }
    }
}
