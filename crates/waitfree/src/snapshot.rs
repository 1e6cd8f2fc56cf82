//! Typed wait-free single-writer atomic snapshot: the universal
//! construction at a snapshot specification.
//!
//! Name `i` owns register `i`; a scan reads all `k` at one point of the
//! log. A scan is threaded like any other op, so it costs what an update
//! costs and a scanner needs a name of its own — which inside
//! `Resilient::with` it has.

use crate::seq::{SeqSnapshot, SnapshotOp, SnapshotResp};
use crate::universal::Universal;

/// A linearizable, wait-free single-writer snapshot object for `k`
/// processes ([`Universal::new`]`(k)`), every register initially
/// `T::default()`.
///
/// ```rust
/// use kex_waitfree::Snapshot;
///
/// let snap: Snapshot<u64> = Snapshot::new(3);
/// assert_eq!(snap.update(1, 42), 0); // name 1 writes its own register
/// assert_eq!(snap.scan(0), vec![0, 42, 0]); // one coherent view
/// ```
pub type Snapshot<T> = Universal<SeqSnapshot<T>>;

impl<T: Clone + Default + Send + Sync> Snapshot<T> {
    /// Write `value` to name `me`'s own register; returns the value it
    /// replaces.
    pub fn update(&self, me: usize, value: T) -> T {
        match self.apply(me, SnapshotOp::Update(me, value)) {
            SnapshotResp::Replaced(previous) => previous,
            SnapshotResp::View(_) => unreachable!("an update answers one value"),
        }
    }

    /// All `k` registers at one linearization point inside the call, on
    /// behalf of name `me`.
    pub fn scan(&self, me: usize) -> Vec<T> {
        match self.apply(me, SnapshotOp::Scan) {
            SnapshotResp::View(mut view) => {
                view.resize(self.k(), T::default());
                view
            }
            SnapshotResp::Replaced(_) => unreachable!("a scan answers the registers"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kex_util::ord;
    use kex_util::sync::atomic::AtomicBool;

    #[test]
    fn scan_sees_updates() {
        let s: Snapshot<u64> = Snapshot::new(3);
        assert_eq!(s.scan(0), vec![0, 0, 0]);
        assert_eq!(s.update(1, 42), 0);
        assert_eq!(s.scan(2), vec![0, 42, 0]);
        assert_eq!(s.update(1, 43), 42);
    }

    #[test]
    fn concurrent_scans_are_monotone_per_register() {
        // Single-writer registers only grow (we write increasing values),
        // so every scanned vector must be pointwise monotone over time
        // from any one scanner's perspective.
        let k = 3;
        let s: Snapshot<u64> = Snapshot::new(k + 1);
        let stop = AtomicBool::new(false);
        std::thread::scope(|sc| {
            for me in 0..k {
                let (s, stop) = (&s, &stop);
                sc.spawn(move || {
                    for i in 1..=300u64 {
                        s.update(me, i);
                    }
                    if me == 0 {
                        stop.store(true, ord::handshake::SEQ_CST);
                    }
                });
            }
            let (s, stop) = (&s, &stop);
            sc.spawn(move || {
                let mut last = vec![0u64; k + 1];
                while !stop.load(ord::handshake::SEQ_CST) {
                    let now = s.scan(k);
                    for i in 0..k {
                        assert!(
                            now[i] >= last[i],
                            "register {i} went backwards: {last:?} -> {now:?}"
                        );
                    }
                    last = now;
                }
            });
        });
    }

    #[test]
    fn snapshots_are_comparable_total_order() {
        // Linearizability of scans implies any two scans are pointwise
        // comparable when writers only increment their own register.
        let k = 4;
        let s: Snapshot<u64> = Snapshot::new(k + 2);
        let scans: Vec<Vec<Vec<u64>>> = std::thread::scope(|sc| {
            let writers: Vec<_> = (0..k)
                .map(|me| {
                    let s = &s;
                    sc.spawn(move || {
                        for i in 1..=100u64 {
                            s.update(me, i);
                        }
                    })
                })
                .collect();
            let scanners: Vec<_> = (k..k + 2)
                .map(|me| {
                    let s = &s;
                    sc.spawn(move || (0..200).map(|_| s.scan(me)).collect::<Vec<_>>())
                })
                .collect();
            for w in writers {
                w.join().unwrap();
            }
            scanners.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<Vec<u64>> = scans.into_iter().flatten().collect();
        all.sort();
        for w in all.windows(2) {
            let (x, y) = (&w[0], &w[1]);
            assert!(
                (0..k).all(|i| x[i] <= y[i]),
                "incomparable snapshots {x:?} / {y:?}: scans not linearizable"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_rejects_foreign_names() {
        Snapshot::<u8>::new(2).update(2, 1);
    }
}
