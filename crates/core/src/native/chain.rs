//! The inductive chain of Theorems 1 and 5, written once over the stage
//! it is made of: `(m, k)`-exclusion as stages `j = m-1 .. k`, acquired
//! top (widest) first, each admitting `j` of the at most `j + 1`
//! processes the stage before it lets through.

use kex_util::sync::atomic::AtomicU64;

use super::raw::{Block, RawKex};

/// One stage of a chain: `(j + 1, j)`-exclusion over pids `0..universe`.
///
/// Sealed by reachability: the trait and its two implementors, Figure
/// 2's `CcStage` and Figure 6's `DsmStage`, are `pub` only so that the
/// [`ChainKex`] aliases can be, and sit in modules that are not.
pub trait Stage: Send + Sync + Sized {
    /// The largest universe a stage's representation can count.
    const MAX_UNIVERSE: usize;

    /// A chain's stages, and after the last one the word
    /// [`Block::x`] hands out, laid out as the stage wants them.
    type Stages: Send + Sync + std::fmt::Debug;

    /// Stages admitting each of `js` in turn, then that word holding `x`.
    fn build(js: impl ExactSizeIterator<Item = usize>, universe: usize, x: u64) -> Self::Stages;

    /// The `len` stages of `stages`, top first.
    fn slice(stages: &Self::Stages, len: usize) -> &[Self];

    /// The word after them.
    fn x(stages: &Self::Stages, len: usize) -> &AtomicU64;

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
pub struct ChainKex<S: Stage> {
    /// Stage `i` admits `j = m-1-i`; the last admits exactly `k`.
    stages: S::Stages,
    len: usize,
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

    pub(super) fn stages(&self) -> &[S] {
        S::slice(&self.stages, self.len)
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
            stages: S::build((k..m).rev(), universe, k as u64),
            len: m - k,
            n: universe,
            k,
        }
    }

    fn try_acquire(&self, p: usize) -> bool {
        assert!(p < self.n, "pid {p} out of range 0..{}", self.n);
        let _obs = crate::obs::span(crate::obs::Section::Entry, p);
        for (i, stage) in self.stages().iter().enumerate() {
            if !stage.try_acquire() {
                // Refused: give back the stages already taken, last
                // first, the way a holder leaves them — a blocking
                // process may have queued behind a slot held on the way
                // here, and is owed the wake-up.
                self.stages()[..i].iter().rev().for_each(|s| s.release(p));
                return false;
            }
        }
        true
    }

    fn occupancy(&self) -> usize {
        let last = self.stages().last().expect("k < m: at least one stage");
        (self.k as isize - last.free()).max(0) as usize
    }

    fn x(&self) -> &AtomicU64 {
        S::x(&self.stages, self.len)
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
        for stage in self.stages() {
            stage.acquire(p);
        }
    }

    fn release(&self, p: usize) {
        let _obs = crate::obs::span(crate::obs::Section::Exit, p);
        for stage in self.stages().iter().rev() {
            stage.release(p);
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg(not(feature = "obs"))] // the instrumented atomics are wider
    fn a_cc_chains_stage_words_are_consecutive_from_a_128_byte_boundary() {
        let kex = crate::native::CcChainKex::new(20, 4);
        let at: Vec<usize> = kex
            .stages()
            .iter()
            .map(|s| std::ptr::from_ref(s) as usize)
            .collect();
        assert_eq!(at.len(), 16);
        assert_eq!(at[0] % 128, 0);
        assert!(at.iter().enumerate().all(|(i, &a)| a == at[0] + 8 * i));
    }
}
