//! Per-name operation lanes: an append-only journal in the spirit of
//! quickstep's per-lane WAL discipline, keyed by k-assignment *names*.
//!
//! The k-assignment wrapper guarantees that at most one live process
//! holds each name at a time, so a name is a natural single-writer lane:
//! the holder journals `begin → (object op) → commit` into its lane with
//! plain stores — payload `private::RELAXED`, then `meta` and `head`
//! `publish::RELEASE` for `spin::ACQUIRE` readers — and no
//! synchronization among writers beyond the name's hand-off edge
//! (docs/MEMORY_ORDERING.md, "store layer").
//! Because a crashed process consumes its name forever (the paper's
//! failure model), the lane it leaves behind is *attributable*: an entry
//! that is begun but never committed sits at the lane head and names
//! exactly the in-flight operation the crash interrupted — which is what
//! a recovery pass (or the crash-mix benchmark) reads back out.
//!
//! Lanes are fixed-depth rings; only the most recent `depth` entries are
//! retained. The head advances when an entry *finishes* (commit or
//! abort), so the in-flight entry (if any) always lives at
//! `head % depth`.

use kex_util::ord;
use kex_util::sync::atomic::AtomicU64;
use kex_util::CachePadded;

/// State of a journal slot, packed into the low bits of its meta word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpState {
    /// Begun, outcome unknown — the attribution target after a crash.
    InFlight,
    /// Completed successfully.
    Committed,
    /// Completed with an object-level error (e.g. shard full).
    Aborted,
}

/// Kind of journaled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// An insert/overwrite.
    Put,
}

/// One decoded journal entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Lane-local sequence number (0-based, monotone).
    pub lsn: u64,
    /// What the operation was.
    pub kind: OpKind,
    /// How it ended — or [`OpState::InFlight`] if it never did.
    pub state: OpState,
    /// The operation's key.
    pub key: u64,
    /// The operation's value.
    pub value: u64,
}

const STATE_EMPTY: u64 = 0;
const STATE_IN_FLIGHT: u64 = 1;
const STATE_COMMITTED: u64 = 2;
const STATE_ABORTED: u64 = 3;
/// meta = `lsn << 4 | kind << 2 | state` (60-bit lsn).
const META_BITS: u32 = 4;

/// One journal entry; two to a 64-byte line.
#[repr(align(32))]
#[derive(Default)]
struct Slot {
    meta: AtomicU64,
    key: AtomicU64,
    val: AtomicU64,
}

#[cfg(not(feature = "obs"))] // the instrumented atomics are wider
const _: () = assert!(size_of::<Slot>() == 32 && align_of::<Slot>() == 32);

/// One name's ring: a head counter on a line of its own plus `depth`
/// slots, four to a padded block, on lines no other lane touches.
struct Lane {
    head: CachePadded<AtomicU64>,
    ring: Box<[CachePadded<[Slot; 4]>]>,
}

/// The per-shard journal: one single-writer lane per k-assignment name.
pub struct LaneJournal {
    lanes: Vec<Lane>,
    depth: usize,
}

impl std::fmt::Debug for LaneJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneJournal")
            .field("lanes", &self.lanes.len())
            .field("depth", &self.depth)
            .finish()
    }
}

impl LaneJournal {
    /// A journal with one lane per name in `0..k`, each retaining the
    /// most recent `depth` entries (`depth` rounded up to at least 1).
    pub fn new(k: usize, depth: usize) -> Self {
        let depth = depth.max(1);
        LaneJournal {
            lanes: (0..k)
                .map(|_| Lane {
                    head: CachePadded::default(),
                    ring: (0..depth.div_ceil(4)).map(|_| Default::default()).collect(),
                })
                .collect(),
            depth,
        }
    }

    /// Number of lanes (the wrapper's `k`).
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Entries retained per lane.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The slot of `name`'s lane that entry `lsn` lives in.
    fn slot(&self, name: usize, lsn: u64) -> &Slot {
        let at = (lsn % self.depth as u64) as usize;
        &self.lanes[name].ring[at / 4][at % 4]
    }

    /// Journal the start of an operation on `name`'s lane; returns the
    /// entry's lane-local sequence number for [`LaneJournal::commit`] /
    /// [`LaneJournal::abort`].
    ///
    /// Caller contract (what the k-assignment buys): the caller holds
    /// `name` right now, making it the lane's only writer.
    pub fn begin(&self, name: usize, kind: OpKind, key: u64, value: u64) -> u64 {
        let lsn = self.lanes[name].head.load(ord::spin::ACQUIRE);
        let slot = self.slot(name, lsn);
        slot.key.store(key, ord::private::RELAXED);
        slot.val.store(value, ord::private::RELAXED);
        let kind = match kind {
            OpKind::Put => 0u64,
        };
        // Publishing the meta word last, with release, makes the (key,
        // value) pair visible before any observer can classify it.
        slot.meta.store(
            lsn << META_BITS | kind << 2 | STATE_IN_FLIGHT,
            ord::publish::RELEASE,
        );
        lsn
    }

    fn finish(&self, name: usize, lsn: u64, state: u64) {
        let slot = self.slot(name, lsn);
        let meta = slot.meta.load(ord::spin::ACQUIRE);
        debug_assert_eq!(meta >> META_BITS, lsn, "finish of a non-head entry");
        slot.meta.store(meta & !0b11 | state, ord::publish::RELEASE);
        // Advancing the head only now keeps the in-flight entry (if the
        // writer dies first) pinned at `head % depth`.
        self.lanes[name].head.store(lsn + 1, ord::publish::RELEASE);
    }

    /// Mark `name`'s entry `lsn` committed and advance the lane head.
    pub fn commit(&self, name: usize, lsn: u64) {
        self.finish(name, lsn, STATE_COMMITTED);
    }

    /// Mark `name`'s entry `lsn` aborted (the object refused the op)
    /// and advance the lane head.
    pub fn abort(&self, name: usize, lsn: u64) {
        self.finish(name, lsn, STATE_ABORTED);
    }

    fn decode(&self, name: usize, lsn: u64) -> Option<Entry> {
        let slot = self.slot(name, lsn);
        let meta = slot.meta.load(ord::spin::ACQUIRE);
        if meta & 0b11 == STATE_EMPTY || meta >> META_BITS != lsn {
            return None;
        }
        Some(Entry {
            lsn,
            kind: OpKind::Put,
            state: match meta & 0b11 {
                STATE_IN_FLIGHT => OpState::InFlight,
                STATE_COMMITTED => OpState::Committed,
                _ => OpState::Aborted,
            },
            key: slot.key.load(ord::spin::ACQUIRE),
            value: slot.val.load(ord::spin::ACQUIRE),
        })
    }

    /// The begun-but-unfinished operation on `name`'s lane, if any —
    /// after a crash, the attributable in-flight op the holder died in.
    ///
    /// Sound to call from any process for lanes whose holder is gone;
    /// racing it against a *live* holder yields a momentary in-flight
    /// entry, an accurate answer and, unless `depth` or more entries
    /// finish meanwhile (`meta` is not re-read), not a torn one.
    pub fn in_flight(&self, name: usize) -> Option<Entry> {
        let head = self.lanes[name].head.load(ord::spin::ACQUIRE);
        self.decode(name, head)
            .filter(|e| e.state == OpState::InFlight)
    }

    /// How many lanes currently show an in-flight entry.
    pub fn in_flight_lanes(&self) -> usize {
        (0..self.lanes.len())
            .filter(|&name| self.in_flight(name).is_some())
            .count()
    }

    /// Entries *finished* on `name`'s lane so far — committed or
    /// aborted: the head advances on both.
    pub fn committed(&self, name: usize) -> u64 {
        self.lanes[name].head.load(ord::spin::ACQUIRE)
    }

    /// The retained tail of `name`'s lane, oldest first (completed
    /// entries plus a trailing in-flight one, if any).
    pub fn history(&self, name: usize) -> Vec<Entry> {
        // Candidate lsns span one ring plus the (possibly in-flight)
        // head entry; `decode` rejects slots whose stored lsn does not
        // match, so overwritten history simply drops out.
        let head = self.lanes[name].head.load(ord::spin::ACQUIRE);
        let first = head.saturating_sub(self.depth as u64);
        (first..=head)
            .filter_map(|lsn| self.decode(name, lsn))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_commit_advances_and_records() {
        let j = LaneJournal::new(2, 4);
        let lsn = j.begin(0, OpKind::Put, 7, 70);
        assert_eq!(lsn, 0);
        assert_eq!(j.in_flight(0).unwrap().key, 7);
        assert_eq!(j.in_flight_lanes(), 1);
        j.commit(0, lsn);
        assert_eq!(j.in_flight(0), None);
        assert_eq!(j.committed(0), 1);
        let hist = j.history(0);
        assert_eq!(hist.len(), 1);
        assert_eq!(
            hist[0],
            Entry {
                lsn: 0,
                kind: OpKind::Put,
                state: OpState::Committed,
                key: 7,
                value: 70
            }
        );
    }

    #[test]
    fn crash_leaves_attributable_in_flight_entry() {
        let j = LaneJournal::new(3, 4);
        j.begin(1, OpKind::Put, 42, 1); // never committed: the crash
        let lsn = j.begin(2, OpKind::Put, 9, 2);
        j.commit(2, lsn);
        assert_eq!(j.in_flight_lanes(), 1);
        let e = j.in_flight(1).unwrap();
        assert_eq!((e.key, e.value, e.state), (42, 1, OpState::InFlight));
        assert_eq!(j.in_flight(0), None);
        assert_eq!(j.in_flight(2), None);
    }

    #[test]
    fn aborted_ops_are_not_in_flight() {
        let j = LaneJournal::new(1, 2);
        let lsn = j.begin(0, OpKind::Put, 1, 1);
        j.abort(0, lsn);
        assert_eq!(j.in_flight(0), None);
        assert_eq!(j.committed(0), 1, "an abort advances the head too");
        assert_eq!(j.history(0)[0].state, OpState::Aborted);
    }

    #[test]
    fn ring_retains_only_the_most_recent_entries() {
        let j = LaneJournal::new(1, 4);
        for i in 0..10u64 {
            let lsn = j.begin(0, OpKind::Put, i, i * 10);
            j.commit(0, lsn);
        }
        let hist = j.history(0);
        assert!(hist.len() <= 4, "ring overflowed: {hist:?}");
        assert_eq!(hist.last().unwrap().key, 9);
        for w in hist.windows(2) {
            assert_eq!(w[1].lsn, w[0].lsn + 1);
        }
    }

    #[test]
    #[cfg(not(feature = "obs"))] // the instrumented atomics are wider
    fn neighbouring_lanes_share_no_cache_line() {
        // Odd depth: the ring's last line is half used, not shared.
        let j = LaneJournal::new(3, 5);
        let line_of = |name, lsn| std::ptr::from_ref(j.slot(name, lsn)) as usize / 64;
        for name in 0..2 {
            assert_ne!(line_of(name, 4), line_of(name + 1, 0));
            assert_eq!(line_of(name, 0), line_of(name, 1), "two slots to a line");
            let head = std::ptr::from_ref(&*j.lanes[name].head) as usize / 64;
            assert!((0..5).all(|lsn| line_of(name, lsn) != head));
        }
    }
}
