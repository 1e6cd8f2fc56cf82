//! One shard: a `Resilient<O>` wrapper, its per-name operation lanes,
//! and monitoring counters.
//!
//! The shard is where the paper's composition becomes a service
//! building block: the k-assignment wrapper admits at most `k`
//! processes and hands each a *name*, the name indexes both the
//! k-process object's identity space and the journal lane the operation
//! is logged to, and a crash inside the critical section consumes the
//! slot, the name, and the lane together — so the lane's in-flight
//! entry is exactly the crashed process's last operation.

use kex_core::native::Resilient;
use kex_util::sync::atomic::AtomicU64;
use kex_util::CachePadded;

use crate::journal::{LaneJournal, OpKind};
use crate::object::ShardObject;
use crate::ordering::SEQ_CST;
use crate::traits::PutError;

/// A single shard; created and routed to by [`crate::Store`].
pub struct Shard<O> {
    res: Resilient<O>,
    journal: LaneJournal,
    /// Operations completed through this shard (reads + writes).
    ops: CachePadded<AtomicU64>,
    /// Non-blocking operations shed because no slot was free.
    sheds: CachePadded<AtomicU64>,
}

/// A monitoring snapshot of one shard; all fields are approximate
/// point-in-time reads (see [`Shard::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// The shard's admission bound.
    pub k: usize,
    /// Distinct keys resident in the shard object.
    pub keys: usize,
    /// Operations completed through the shard.
    pub ops: u64,
    /// Non-blocking operations shed.
    pub sheds: u64,
    /// Processes admitted or waiting right now (crashed holders count
    /// forever).
    pub occupancy: usize,
    /// Lanes whose last journaled operation is still in flight — after
    /// crashes, the number of attributable dead holders.
    pub in_flight_lanes: usize,
}

impl<O: ShardObject> Shard<O> {
    /// A shard over `obj` for `n` processes with admission bound `k`,
    /// journaling the most recent `journal_depth` operations per lane.
    pub fn new(n: usize, k: usize, journal_depth: usize, obj: O) -> Self {
        Shard {
            res: Resilient::new(n, k, obj),
            journal: LaneJournal::new(k, journal_depth),
            ops: CachePadded::new(AtomicU64::new(0)),
            sheds: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// The shard's admission bound.
    pub fn k(&self) -> usize {
        self.res.k()
    }

    /// The shard's per-name journal.
    pub fn journal(&self) -> &LaneJournal {
        &self.journal
    }

    /// One journaled write by the holder of `name`: begin → put →
    /// commit, or abort when the object refuses the op *or `put` unwinds*
    /// — the guard's drop then returns the slot and the name, and a lane
    /// left in flight would attribute a crash to a holder that is gone.
    fn journaled_put(&self, obj: &O, name: usize, key: u64, value: u64) -> Result<(), PutError> {
        struct Entry<'a> {
            journal: &'a LaneJournal,
            name: usize,
            lsn: u64,
            committed: bool,
        }
        impl Drop for Entry<'_> {
            fn drop(&mut self) {
                if self.committed {
                    self.journal.commit(self.name, self.lsn);
                } else {
                    self.journal.abort(self.name, self.lsn);
                }
            }
        }
        let mut entry = Entry {
            journal: &self.journal,
            name,
            lsn: self.journal.begin(name, OpKind::Put, key, value),
            committed: false,
        };
        let result = obj.put(name, key, value);
        entry.committed = result.is_ok();
        drop(entry);
        self.ops.fetch_add(1, SEQ_CST);
        result
    }

    /// Guarded read.
    pub fn get(&self, p: usize, key: u64) -> Option<u64> {
        let got = self.res.with(p, |obj, name| obj.get(name, key));
        self.ops.fetch_add(1, SEQ_CST);
        got
    }

    /// Non-blocking guarded read; `None` = shed.
    pub fn try_get(&self, p: usize, key: u64) -> Option<Option<u64>> {
        match self.res.try_with(p, |obj, name| obj.get(name, key)) {
            Some(got) => {
                self.ops.fetch_add(1, SEQ_CST);
                Some(got)
            }
            None => {
                self.sheds.fetch_add(1, SEQ_CST);
                None
            }
        }
    }

    /// Guarded, journaled write.
    pub fn put(&self, p: usize, key: u64, value: u64) -> Result<(), PutError> {
        self.res
            .with(p, |obj, name| self.journaled_put(obj, name, key, value))
    }

    /// Non-blocking guarded, journaled write; `None` = shed.
    pub fn try_put(&self, p: usize, key: u64, value: u64) -> Option<Result<(), PutError>> {
        let outcome = self
            .res
            .try_with(p, |obj, name| self.journaled_put(obj, name, key, value));
        if outcome.is_none() {
            self.sheds.fetch_add(1, SEQ_CST);
        }
        outcome
    }

    /// Guarded scan of this shard's pairs.
    pub fn scan(&self, p: usize, f: &mut dyn FnMut(u64, u64)) {
        self.res.with(p, |obj, name| obj.scan(name, f));
        self.ops.fetch_add(1, SEQ_CST);
    }

    /// Crash-failure injection: enter as `p`, journal and apply a put,
    /// then die *before committing* — permanently consuming one slot,
    /// one name, and leaving the lane's in-flight entry attributing the
    /// interrupted operation to this crash. Used by the loom model and
    /// the crash-mix benchmark runs.
    pub fn crash_in_cs(&self, p: usize, key: u64, value: u64) {
        let guard = self.res.enter(p);
        let name = guard.name();
        self.journal.begin(name, OpKind::Put, key, value);
        let _ = guard.object().put(name, key, value);
        // The crash: the slot, name, and admission ticket never return.
        std::mem::forget(guard);
    }

    /// Approximate monitoring snapshot (no wrapper entry; every field
    /// is an always-safe read).
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            k: self.res.k(),
            keys: self.res.object_unguarded().len_unguarded(),
            ops: self.ops.load(SEQ_CST),
            sheds: self.sheds.load(SEQ_CST),
            occupancy: self.res.occupancy(),
            in_flight_lanes: self.journal.in_flight_lanes(),
        }
    }
}

impl<O: Sync> std::fmt::Debug for Shard<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("k", &self.res.k())
            .field("journal", &self.journal)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::OpState;
    use crate::object::KvCells;

    #[test]
    fn ops_are_journaled_to_the_holders_lane() {
        let shard = Shard::new(4, 2, 8, KvCells::new(16));
        shard.put(0, 5, 50).unwrap();
        shard.put(1, 6, 60).unwrap();
        assert_eq!(shard.get(2, 5), Some(50));
        let committed: u64 = (0..2).map(|name| shard.journal().committed(name)).sum();
        assert_eq!(committed, 2);
        assert_eq!(shard.stats().in_flight_lanes, 0);
        assert_eq!(shard.stats().keys, 2);
        assert_eq!(shard.stats().ops, 3);
    }

    #[test]
    fn crash_in_cs_is_attributable_and_survivable() {
        let shard = Shard::new(6, 2, 4, KvCells::new(16));
        shard.crash_in_cs(0, 42, 1);
        // One slot and one lane are gone; survivors still operate.
        shard.put(1, 42, 2).unwrap();
        assert!(shard.get(2, 42).is_some());
        let stats = shard.stats();
        assert_eq!(stats.in_flight_lanes, 1);
        assert_eq!(stats.occupancy, 1);
        // The dead lane names the interrupted op.
        let dead: Vec<_> = (0..2)
            .filter_map(|name| shard.journal().in_flight(name))
            .collect();
        assert_eq!(dead.len(), 1);
        assert_eq!((dead[0].key, dead[0].value), (42, 1));
        assert_eq!(dead[0].state, OpState::InFlight);
    }

    #[test]
    fn full_shard_sheds_nonblocking_ops() {
        let shard = Shard::new(6, 2, 4, KvCells::new(16));
        shard.crash_in_cs(0, 1, 1);
        shard.crash_in_cs(1, 2, 2);
        assert_eq!(shard.try_put(2, 3, 3), None);
        assert_eq!(shard.try_get(3, 1), None);
        assert_eq!(shard.stats().sheds, 2);
        assert_eq!(shard.stats().in_flight_lanes, 2);
    }

    #[test]
    fn aborts_are_journaled_not_in_flight() {
        let shard = Shard::new(4, 1, 4, KvCells::new(2));
        shard.put(0, 0, 0).unwrap();
        shard.put(0, 1, 1).unwrap();
        assert_eq!(shard.put(0, 2, 2), Err(PutError::ShardFull));
        assert_eq!(shard.stats().in_flight_lanes, 0);
        let hist = shard.journal().history(0);
        assert_eq!(hist.last().unwrap().state, OpState::Aborted);
    }
}
