//! The native Figure-2 stage, over real atomics, for cache-coherent
//! hardware (i.e., any modern multicore), and Theorem 1's inductive
//! chain of them, [`CcChainKex`]: `(m, k)`-exclusion as stages
//! `j = m-1 .. k`, acquired top (widest) first, each admitting `j` of the
//! at most `j + 1` processes the stage before it lets through.
//!
//! See [`crate::sim::fig2`] for the statement-level rendition and proofs
//! coverage; this module is the same algorithm with a stage's two
//! variables in one `AtomicU64`.
//!
//! # One word per stage
//!
//! The low 16 bits of a stage's word hold `X + BIAS`, the 48 above them
//! an *epoch* that stands for `Q`. Figure 2 asks one thing of `Q` —
//! `Q ≠ p`: has anybody written it since I did — and a count that every
//! such write moves answers it. So statement 2 stays `fetch_sub(1)`;
//! 3–4 (`Q := p`; re-read `X`) are one `fetch_add(EPOCH)` whose return
//! value is the re-read and, one epoch on, what statement 5 spins on;
//! 6–7 (`X + 1`; `Q := p`) are one `fetch_add(EPOCH + 1)`. Running two
//! adjacent statements of a process as one step only removes
//! interleavings (one is the crash between 6 and 7: a slot returned,
//! nobody woken), so the paper's proofs carry over — ALGORITHMS.md §3.
//!
//! The three kinds of `X` write a spinner used to be charged for
//! collapse: a release *is* the wake-up; an arrival that finds no slot
//! moves the epoch in its next step; a decrement that finds a slot
//! cannot happen while anyone waits (only a release raises `X`, and a
//! refused `try_acquire` writes nothing). So the count is per passage
//! again, not amortised. A stage admits `j` of at most `j + 1`: a
//! waiter means the other `j` hold slots, and the next write of the
//! word is one of their releases. Entry is the decrement, the bump
//! (which leaves the line with the waiter) and one re-read after that
//! release; exit is one `fetch_add`: **4 remote references per stage**,
//! `4(N-k)` a chain, under the paper's 7 (`tests/obs_bounds.rs` checks it).
//!
//! # One allocation per chain
//!
//! A chain's words are consecutive from a 128-byte boundary, sixteen
//! to a pair of lines, and a final block's `X` is the word after its
//! last stage (`CcChainKex::x`). Per variable nothing changes. Per
//! line, a passage that does not wait writes one line a chain of up to
//! eight words; a waiter re-reads its line after any member's write, at
//! most `3(m - k - 1)` times per other process and wait: `O(m(m - k))`
//! a wait, `O(k^3)` a `(2k, k)` passage (ALGORITHMS.md §3,
//! EXPERIMENTS.md E19).

use kex_util::ord;
use kex_util::sync::atomic::AtomicU64;

use kex_util::Backoff;

use super::raw::RawKex;

/// Width of a word's `X` field, and what one epoch adds to the word.
const X_BITS: u32 = 16;
const EPOCH: u64 = 1 << X_BITS;
/// Keeps `X < 0` (a waiter) inside the field: `|X| <= universe <= BIAS`.
const BIAS: u64 = EPOCH / 2;

fn x_of(word: u64) -> isize {
    (word % EPOCH) as isize - BIAS as isize
}

/// Words in a pair of 64-byte lines, on whose boundary a chain starts.
const PAIR: usize = 16;

/// One Figure-2 stage, `(j + 1, j)`-exclusion: admits `j` of the
/// at-most-`j+1` processes its caller lets through. It keeps no pid:
/// the epoch stands for `Q`.
#[derive(Debug, Default)]
pub(super) struct CcStage {
    /// `X + BIAS`, initially `j + BIAS`, below the epoch.
    word: AtomicU64,
}

impl CcStage {
    /// Statements 2–5 of Figure 2: returns with one of the `j` slots.
    #[inline]
    fn acquire(&self) {
        if x_of(self.word.fetch_sub(1, ord::handshake::SEQ_CST)) <= 0 {
            // No slot: move the epoch, as writing `Q` did, and in the
            // same step re-check `X` (a release may have raced us)...
            let queued = self.word.fetch_add(EPOCH, ord::handshake::SEQ_CST);
            if x_of(queued) < 0 {
                // ...and spin until *anyone* moves it again, a release
                // or a newer waiter. Both are SeqCst RMWs (hence also
                // releases) of the word's one RMW chain: the acquire
                // pairing hands the woken process the waker's history
                // and every earlier releaser's critical section.
                let mine = queued.wrapping_add(EPOCH) >> X_BITS;
                let backoff = Backoff::new();
                while self.word.load(ord::spin::ACQUIRE) >> X_BITS == mine {
                    backoff.snooze();
                }
            }
        }
    }

    /// Statements 6–7 of Figure 2: the slot back and the wake-up.
    #[inline]
    fn release(&self) {
        self.word.fetch_add(EPOCH + 1, ord::handshake::SEQ_CST);
    }

    /// Statement 2 as footnote 2 writes it: take a slot only if one is
    /// free, and do not write otherwise. A link of the same SeqCst RMW
    /// chain as statements 2 and 6.
    #[inline]
    fn try_acquire(&self) -> bool {
        self.word
            .fetch_update(ord::handshake::SEQ_CST, ord::handshake::SEQ_CST, |w| {
                (x_of(w) > 0).then(|| w - 1)
            })
            .is_ok()
    }

    /// Slots not taken; negative while a process waits.
    fn free(&self) -> isize {
        x_of(self.word.load(ord::handshake::SEQ_CST))
    }
}

/// Theorem 1's inductive chain: `(N, k)`-exclusion as Figure-2 stages
/// `j = N-1 .. k`, acquired top (widest) first. It is both the paper's
/// baseline construction and the `(2k, k)` block of the better ones.
///
/// Worst-case RMR cost is `4(N-k)` (linear in `N`; the paper's `7(N-k)`
/// with two pairs of statements fused); prefer [`crate::native::TreeKex`]
/// or [`crate::native::FastPathKex`] unless `N - k` is small.
///
/// ```rust
/// use kex_core::native::{CcChainKex, RawKex};
///
/// // 4 threads, at most 2 in the protected section at once.
/// let kex = CcChainKex::new(4, 2);
/// let guard = kex.enter(0);
/// assert_eq!(guard.pid(), 0);
/// drop(guard); // releases the slot
/// ```
#[derive(Debug)]
pub struct CcChainKex {
    /// One allocation, whole pairs of lines from a boundary found rather
    /// than asked of the allocator (its aligned path more than doubled a
    /// tree's build): stage `i`, admitting `j = m-1-i`, is word `at + i`,
    /// and `X` the word after the last.
    words: Box<[CcStage]>,
    at: usize,
    len: usize,
    n: usize,
    k: usize,
}

impl CcChainKex {
    /// Build the `(n, k)` chain.
    ///
    /// # Panics
    /// Panics unless `1 <= k < n <= 32768`, the most the `X` field can
    /// count.
    pub fn new(n: usize, k: usize) -> Self {
        Self::with_universe(n, n, k)
    }

    /// An `(m, k)` block: at most `m` of the `universe` processes contend
    /// in it at a time (e.g. `m = 2k` blocks in a tree), but process ids
    /// range over `0..universe`. A node's final block also keeps Figure
    /// 4's `X`, initially `k`, in the word after its last stage.
    pub(super) fn with_universe(universe: usize, m: usize, k: usize) -> Self {
        let max = BIAS as usize;
        assert!(
            k >= 1 && k < m && m <= universe && universe <= max,
            "a chain requires 1 <= k < m <= universe <= {max}"
        );
        let len = m - k;
        let mut words: Box<[_]> = (0..(len + 1).next_multiple_of(PAIR) + PAIR)
            .map(|_| CcStage::default())
            .collect();
        let at = words.as_ptr().addr().wrapping_neg() % (8 * PAIR) / size_of::<CcStage>();
        let init = (k..m).rev().map(|j| BIAS + j as u64).chain([k as u64]);
        for (w, v) in words[at..].iter_mut().zip(init) {
            *w.word.get_mut() = v;
        }
        CcChainKex {
            words,
            at,
            len,
            n: universe,
            k,
        }
    }

    pub(super) fn stages(&self) -> &[CcStage] {
        &self.words[self.at..][..self.len]
    }

    /// Figure 4's `X` when this chain is a node's final block: the word
    /// after the last stage, which the chain itself never touches.
    pub(super) fn x(&self) -> &AtomicU64 {
        &self.words[self.at + self.len].word
    }

    /// [`RawKex::acquire`] that never waits: `true` with a slot held
    /// (leave through [`RawKex::release`]), `false` — with the chain as
    /// it was found — when some stage has no slot free right now, be it
    /// held by a live process or consumed by a crashed one.
    ///
    /// Each stage is taken by the paper's footnote-2 conditional
    /// decrement (`x > 0 → x - 1`, otherwise no write at all), so to the
    /// stage a successful taker is a process whose `fetch_and_increment`
    /// found a slot; one refused further down leaves the stages it did
    /// take the way any holder leaves them.
    pub fn try_acquire(&self, p: usize) -> bool {
        assert!(p < self.n, "pid {p} out of range 0..{}", self.n);
        let _obs = crate::obs::span(crate::obs::Section::Entry, p);
        for (i, stage) in self.stages().iter().enumerate() {
            if !stage.try_acquire() {
                // Refused: give back the stages already taken, last
                // first, the way a holder leaves them — a blocking
                // process may have queued behind a slot held on the way
                // here, and is owed the wake-up.
                self.stages()[..i].iter().rev().for_each(CcStage::release);
                return false;
            }
        }
        true
    }

    /// Processes holding a slot or waiting at the final stage, read off
    /// that stage's counter: live holders, crashed holders (for ever),
    /// and at most one waiter. A monitoring gauge, stale by the time it
    /// returns.
    pub fn occupancy(&self) -> usize {
        let last = self.stages().last().expect("k < m: at least one stage");
        (self.k as isize - last.free()).max(0) as usize
    }
}

impl RawKex for CcChainKex {
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
            stage.acquire();
        }
    }

    fn release(&self, p: usize) {
        let _obs = crate::obs::span(crate::obs::Section::Exit, p);
        for stage in self.stages().iter().rev() {
            stage.release();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::testutil::{occupancy_stress, OccupancyReport};

    #[test]
    fn never_more_than_k_inside() {
        for (n, k) in [(2, 1), (4, 2), (8, 3)] {
            let kex = CcChainKex::new(n, k);
            let report: OccupancyReport = occupancy_stress(&kex, 400);
            assert!(
                report.max_seen <= k,
                "(n={n},k={k}): {} threads inside at once",
                report.max_seen
            );
            assert_eq!(report.total_entries, n as u64 * 400);
        }
    }

    #[test]
    fn slots_actually_admit_k_concurrently() {
        // The algorithm must not degrade to mutual exclusion: k holders
        // must be able to rendezvous inside.
        use std::time::Duration;
        let kex = CcChainKex::new(6, 3);
        let seen = crate::native::testutil::max_concurrency(&kex, 3, Duration::from_secs(2));
        assert_eq!(seen, 3, "k slots should be usable");
    }

    #[test]
    fn a_refused_try_leaves_every_stage_as_it_found_it() {
        // (4, 2): a stage admitting 3, then one admitting 2. Two
        // holders leave room in the first and none in the second.
        let kex = CcChainKex::new(4, 2);
        kex.acquire(0);
        kex.acquire(1);
        let credits = |kex: &CcChainKex| kex.stages().iter().map(|s| s.free()).collect::<Vec<_>>();
        let epoch = |kex: &CcChainKex| kex.stages()[0].word.load(ord::handshake::SEQ_CST) >> X_BITS;
        assert_eq!((credits(&kex), epoch(&kex)), (vec![1, 0], 0));
        assert!(!kex.try_acquire(2));
        // It left the stage it did take as a holder does: the epoch
        // moved by one, the wake-up of a process queued behind it.
        assert_eq!((credits(&kex), epoch(&kex)), (vec![1, 0], 1));
        assert_eq!(kex.occupancy(), 2);

        kex.release(0);
        assert!(kex.try_acquire(3));
        assert_eq!(credits(&kex), [1, 0]);
        kex.release(3);
        kex.release(1);
        assert_eq!((credits(&kex), kex.occupancy()), (vec![3, 2], 0));
    }

    #[test]
    fn the_epoch_wraps_without_touching_x() {
        // A stage at the last epoch with its one slot taken.
        let stage = CcStage {
            word: AtomicU64::new(u64::MAX << X_BITS | BIAS),
        };
        assert_eq!((stage.free(), stage.try_acquire()), (0, false));
        stage.release();
        assert_eq!(
            stage.word.load(ord::handshake::SEQ_CST),
            BIAS + 1,
            "X + 1, epoch 0"
        );
    }

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

    #[test]
    #[should_panic(expected = "universe <= 32768")]
    fn rejects_a_universe_the_x_field_cannot_hold() {
        let _ = CcChainKex::with_universe(BIAS as usize + 1, 2, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_pid() {
        let kex = CcChainKex::new(2, 1);
        kex.acquire(2);
    }
}
