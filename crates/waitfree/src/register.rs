//! Typed wait-free multi-writer register, instantiating the universal
//! construction.
//!
//! Any name may overwrite the one value; for a register per name read
//! together, see [`crate::snapshot::Snapshot`] — the same construction,
//! the same cost per op.

use crate::seq::{RegisterOp, SeqRegister};
use crate::universal::Universal;

/// A linearizable, wait-free multi-writer multi-reader register for `k`
/// processes ([`Universal::new`]`(k)`), initially `T::default()`.
pub type WfRegister<T> = Universal<SeqRegister<T>>;

impl<T: Clone + Default + Send + Sync> WfRegister<T> {
    /// Read the current value on behalf of name `me`.
    pub fn read(&self, me: usize) -> T {
        self.apply(me, RegisterOp::Read)
    }

    /// Write `value`; returns the previous value (linearized).
    pub fn write(&self, me: usize, value: T) -> T {
        self.apply(me, RegisterOp::Write(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let r: WfRegister<u32> = WfRegister::new(2);
        assert_eq!(r.read(0), 0);
        assert_eq!(r.write(1, 7), 0);
        assert_eq!(r.read(0), 7);
        assert_eq!(r.write(0, 9), 7);
    }

    #[test]
    fn writes_linearize_previous_values_chain() {
        // Every write returns the previous value, so the multiset of
        // (returned, written) pairs must chain: each written value is
        // returned by exactly one later write (or is the final value).
        let k = 3;
        let per = 100u64;
        let r: WfRegister<u64> = WfRegister::new(k);
        let returned: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..k)
                .map(|me| {
                    let r = &r;
                    s.spawn(move || {
                        (0..per)
                            .map(|i| r.write(me, (me as u64 + 1) * 1_000 + i))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut seen: Vec<u64> = returned.into_iter().flatten().collect();
        seen.push(r.read(0)); // the final value completes the chain
        seen.sort_unstable();
        // Expected: initial 0 plus every written value exactly once.
        let mut expect: Vec<u64> = (0..k as u64)
            .flat_map(|me| (0..per).map(move |i| (me + 1) * 1_000 + i))
            .collect();
        expect.push(0);
        expect.sort_unstable();
        assert_eq!(seen, expect, "lost or duplicated write linearizations");
    }
}
