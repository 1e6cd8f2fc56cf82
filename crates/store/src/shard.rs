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
use crate::ordering::RELAXED;
use crate::traits::PutError;

/// A single shard; created and routed to by [`crate::Store`].
pub struct Shard<O> {
    res: Resilient<O>,
    journal: LaneJournal,
    /// One cell per process id, written by that process alone (a pid
    /// runs on one thread at a time) and summed by [`Shard::stats`].
    /// Per pid and not per name: two clients that take turns on name 0
    /// would pass a per-name line back and forth.
    tallies: Vec<CachePadded<Tally>>,
}

#[derive(Default)]
struct Tally {
    /// Operations completed through this shard (reads + writes).
    ops: AtomicU64,
    /// Non-blocking operations shed because no slot was free.
    sheds: AtomicU64,
}

/// Owner-private increment: a plain register needs no RMW.
fn bump(cell: &AtomicU64) {
    cell.store(cell.load(RELAXED) + 1, RELAXED);
}

/// A journaled op between its `begin` and its finish. Dropping it
/// commits or aborts, so an object whose `put` unwinds — the wrapper
/// guard's drop then returns the slot and the name — cannot leave the
/// lane in flight, attributing a crash to a holder that is gone.
struct Entry<'a> {
    journal: &'a LaneJournal,
    name: usize,
    lsn: u64,
    committed: bool,
}

impl<'a> Entry<'a> {
    fn begin(journal: &'a LaneJournal, name: usize, key: u64, value: u64) -> Self {
        Entry {
            journal,
            name,
            lsn: journal.begin(name, OpKind::Put, key, value),
            committed: false,
        }
    }
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
    /// Processes holding a slot, or waiting at the final stage of the
    /// k-exclusion, right now (crashed holders count forever); on an
    /// idle shard, the slots crashes have consumed.
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
            tallies: (0..n).map(|_| CachePadded::default()).collect(),
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
    /// commit, or abort when the object refuses the op or `put` unwinds.
    fn journaled_put(&self, obj: &O, name: usize, key: u64, value: u64) -> Result<(), PutError> {
        let mut entry = Entry::begin(&self.journal, name, key, value);
        let result = obj.put(name, key, value);
        entry.committed = result.is_ok();
        drop(entry);
        result
    }

    /// Counts a non-blocking op of `p`'s: served, or shed.
    fn tried<R>(&self, p: usize, outcome: Option<R>) -> Option<R> {
        let tally = &self.tallies[p];
        bump(if outcome.is_some() {
            &tally.ops
        } else {
            &tally.sheds
        });
        outcome
    }

    /// Read, around the wrapper: wait-free for any number of callers,
    /// so it buys no name and outlives every slot of the shard.
    pub fn get(&self, p: usize, key: u64) -> Option<u64> {
        let got = self.res.object_unguarded().get_unguarded(key);
        bump(&self.tallies[p].ops);
        got
    }

    /// The admission-controlled read: guarded, non-blocking; `None` = shed.
    pub fn try_get(&self, p: usize, key: u64) -> Option<Option<u64>> {
        self.tried(p, self.res.try_with(p, |obj, name| obj.get(name, key)))
    }

    /// Guarded, journaled write.
    pub fn put(&self, p: usize, key: u64, value: u64) -> Result<(), PutError> {
        let journaled = |obj: &O, name| self.journaled_put(obj, name, key, value);
        let result = self.res.with(p, journaled);
        bump(&self.tallies[p].ops);
        result
    }

    /// Non-blocking guarded, journaled write; `None` = shed.
    pub fn try_put(&self, p: usize, key: u64, value: u64) -> Option<Result<(), PutError>> {
        let journaled = |obj: &O, name| self.journaled_put(obj, name, key, value);
        self.tried(p, self.res.try_with(p, journaled))
    }

    /// Scan of this shard's pairs, around the wrapper like [`Shard::get`].
    pub fn scan(&self, p: usize, f: &mut dyn FnMut(u64, u64)) {
        self.res.object_unguarded().scan(f);
        bump(&self.tallies[p].ops);
    }

    /// Distinct keys resident in the shard object (approximate).
    pub fn keys(&self) -> usize {
        self.res.object_unguarded().len_unguarded()
    }

    /// Crash-failure injection: enter as `p`, journal and apply a put,
    /// then die *before committing* — permanently consuming one slot,
    /// one name, and leaving the lane's in-flight entry attributing the
    /// interrupted operation to this crash. Used by the loom model and
    /// the crash-mix benchmark runs.
    pub fn crash_in_cs(&self, p: usize, key: u64, value: u64) {
        let guard = self.res.enter(p);
        let name = guard.name();
        let entry = Entry::begin(&self.journal, name, key, value);
        let _ = guard.object().put(name, key, value);
        // The crash: the lane stays in flight, the slot and the name
        // never return. A `put` that unwound has dropped both instead.
        std::mem::forget(entry);
        std::mem::forget(guard);
    }

    /// Approximate monitoring snapshot (no wrapper entry; every field
    /// is an always-safe read).
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            k: self.res.k(),
            keys: self.keys(),
            ops: self.tallies.iter().map(|t| t.ops.load(RELAXED)).sum(),
            sheds: self.tallies.iter().map(|t| t.sheds.load(RELAXED)).sum(),
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
