//! Single-shot consensus on pointers, from compare-and-swap.
//!
//! The universal construction threads its log by having processes *agree*
//! on each node's successor. With hardware CAS, consensus for any number
//! of processes is a one-liner: first CAS from null wins, everyone
//! returns the stored winner. This module wraps that idiom with a safe
//! API and documents the protocol obligations.

use kex_util::ord;
use kex_util::sync::atomic::AtomicPtr;

/// A single-shot, wait-free, `n`-process consensus object deciding a
/// non-null raw pointer.
#[derive(Debug)]
pub struct PtrConsensus<T> {
    cell: AtomicPtr<T>,
}

impl<T> Default for PtrConsensus<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PtrConsensus<T> {
    /// An undecided consensus object.
    pub fn new() -> Self {
        PtrConsensus {
            cell: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Propose `value` (must be non-null); returns the decided value —
    /// `value` if this call won, the winner's proposal otherwise.
    ///
    /// Wait-free: one CAS and at most one load.
    pub fn decide(&self, value: *mut T) -> *mut T {
        debug_assert!(!value.is_null(), "consensus proposals must be non-null");
        match self.cell.compare_exchange(
            std::ptr::null_mut(),
            value,
            ord::handshake::SEQ_CST,
            ord::handshake::SEQ_CST,
        ) {
            Ok(_) => value,
            Err(winner) => winner,
        }
    }

    /// The decided value, or null if undecided.
    pub fn peek(&self) -> *mut T {
        self.cell.load(ord::handshake::SEQ_CST)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_proposal_wins_and_is_stable() {
        let c = PtrConsensus::<u32>::new();
        let a = Box::into_raw(Box::new(1u32));
        let b = Box::into_raw(Box::new(2u32));
        assert!(c.peek().is_null());
        assert_eq!(c.decide(a), a);
        assert_eq!(c.decide(b), a, "later proposals see the winner");
        assert_eq!(c.peek(), a);
        unsafe {
            drop(Box::from_raw(a));
            drop(Box::from_raw(b));
        }
    }

    #[test]
    fn concurrent_deciders_agree() {
        let c = PtrConsensus::<usize>::new();
        let proposals: Vec<*mut usize> = (0..8).map(|i| Box::into_raw(Box::new(i))).collect();
        // Raw pointers are not Send; smuggle them as usizes for the test.
        let addrs: Vec<usize> = proposals.iter().map(|p| *p as usize).collect();
        let decisions: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = addrs
                .iter()
                .map(|&addr| {
                    let c = &c;
                    s.spawn(move || c.decide(addr as *mut usize) as usize)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(decisions.windows(2).all(|w| w[0] == w[1]), "split decision");
        assert!(addrs.contains(&decisions[0]), "decision must be a proposal");
        for p in proposals {
            unsafe { drop(Box::from_raw(p)) };
        }
    }
}
