//! What the universal construction allocates: next to nothing when it is
//! built, a flat amount however long it runs, and in steady state
//! nothing per op — a name's freed nodes are its next ones. As a queue
//! and as a snapshot: the second has no reclaimer of its own to hold.
//!
//! One test function, because the counting allocator is the process's:
//! tests running side by side would count each other's memory. Only
//! what a thread does inside [`counting`]`(true, ..)` is counted — the
//! harness's own thread files the test in its lists while the test
//! already runs, and a thread's start and end allocate on one thread
//! what they free on another.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{
    AtomicIsize, AtomicUsize,
    Ordering::{Relaxed, SeqCst},
};

use kex_waitfree::seq::{QueueOp, SeqQueue, Sequential};
use kex_waitfree::universal::CHECKPOINT_EVERY;
use kex_waitfree::{Snapshot, Universal, WfQueue};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static CACHE_LINE_ALIGNED: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Whether this thread's allocator calls are counted now.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
    /// Whether this thread parks in [`Stalls`].
    static PARKS: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every call goes to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTED.get() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            CACHE_LINE_ALIGNED.fetch_add(usize::from(layout.align() >= 64), Relaxed);
            LIVE_BYTES.fetch_add(layout.size() as isize, Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTED.get() {
            LIVE_BYTES.fetch_sub(layout.size() as isize, Relaxed);
        }
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Live bytes an object may hold however long it has run: per name a
/// checkpoint interval of 40-byte nodes retired and as many spare, the
/// lists that hold them, a few cloned states.
const FLAT: isize = 32 << 10;

/// Under miri the same walk at a thousandth of the length.
const SCALE: u64 = if cfg!(miri) { 1000 } else { 1 };

type Queue = Universal<SeqQueue<u64>>;

/// Runs `work` with the calling thread's allocator calls counted, or
/// not: spawning and joining threads is not the object's doing.
fn counting<R>(on: bool, work: impl FnOnce() -> R) -> R {
    let was = COUNTED.replace(on);
    let result = work();
    COUNTED.set(was);
    result
}

fn pairs<S>(queue: &Universal<S>, name: usize, count: u64)
where
    S: Sequential<Op = QueueOp<u64>, Resp = Option<u64>>,
{
    for i in 0..count {
        queue.apply(name, QueueOp::Enqueue(i));
        queue
            .apply(name, QueueOp::Dequeue)
            .expect("one in, one out");
    }
}

fn updates(snapshot: &Snapshot<u64>, name: usize, count: u64) {
    for i in 0..count {
        snapshot.update(name, i);
    }
}

/// (b) One name runs for good — 10⁶ `calls` in three legs —, one stops
/// after five, two never run: live bytes do not depend on how long the
/// first has run.
fn a_long_life_is_flat<S: Sequential>(
    live: impl Fn() -> isize,
    calls: impl Fn(&Universal<S>, usize, u64),
) {
    let object = Universal::new(4);
    calls(&object, 1, 5);
    let mut at = [0; 3];
    for (at, (so_far, total)) in
        at.iter_mut()
            .zip([(0, 10_000), (10_000, 100_000), (100_000, 1_000_000)])
    {
        calls(&object, 0, (total - so_far) / SCALE);
        *at = live();
        assert!(*at < FLAT, "{at} live bytes after {total} calls");
    }
    assert!((at[2] - at[1]).abs() < FLAT, "live bytes moved: {at:?}");
    drop(object);
    assert_eq!(live(), 0, "drop leaks");
}

/// (d) Warm, an op does not call the allocator: a name's nodes go
/// round. What is left is per checkpoint — the boxed copy of the
/// state, that copy's buffer, and the buffer of the copy the other
/// name resumes from — and the lists' rare growth. A call is
/// `ops_per_call` ops.
fn a_warm_op_allocates_nothing<S: Sequential>(
    live: impl Fn() -> isize,
    ops_per_call: usize,
    calls: impl Fn(&Universal<S>, usize, u64),
) {
    let object = Universal::new(2);
    let alternating = |count: u64| (0..count).for_each(|i| calls(&object, (i % 2) as usize, 1));
    alternating(1_000);
    let before = ALLOCATIONS.load(Relaxed);
    let count = 100_000 / SCALE;
    alternating(count);
    let allocations = ALLOCATIONS.load(Relaxed) - before;
    let checkpoints = ops_per_call * count as usize / CHECKPOINT_EVERY;
    assert!(
        allocations <= 3 * checkpoints + 8,
        "{allocations} allocations in {count} calls, {checkpoints} checkpoints"
    );
    drop(object);
    assert_eq!(live(), 0, "drop leaks");
}

/// How many times a flagged thread has parked, and how many of those
/// parks are let go.
static PARKED: AtomicUsize = AtomicUsize::new(0);
static RELEASED: AtomicUsize = AtomicUsize::new(0);

/// The value whose enqueue [`Stalls`] parks in.
const MARK: u64 = u64::MAX;

/// A queue in which a flagged thread stops: in the middle of copying a
/// checkpoint to resume from — the one call `apply` can make while it
/// holds the log's suffix, if the floor passed its first pick — or of
/// applying the enqueue of [`MARK`], mid-pass.
#[derive(Default)]
struct Stalls(SeqQueue<u64>);

/// Parks a flagged thread until [`RELEASED`] counts this park.
fn park() {
    if PARKS.get() {
        let park = PARKED.fetch_add(1, SeqCst) + 1;
        while RELEASED.load(SeqCst) < park {
            std::thread::yield_now();
        }
    }
}

/// Waits until the flagged thread has parked `parks` times in all.
fn parked(parks: usize) {
    while PARKED.load(SeqCst) < parks {
        std::thread::yield_now();
    }
}

impl Clone for Stalls {
    fn clone(&self) -> Self {
        park();
        Stalls(self.0.clone())
    }
}

impl Sequential for Stalls {
    type Op = QueueOp<u64>;
    type Resp = Option<u64>;

    fn apply(&mut self, op: &Self::Op) -> Self::Resp {
        if *op == QueueOp::Enqueue(MARK) {
            park();
        }
        self.0.apply(op)
    }
}

#[test]
fn construction_is_three_allocations_and_a_long_life_is_flat() {
    COUNTED.set(true);
    // (a) The constructor: a sentinel and one padded per-name array.
    let (before, aligned_before) = (ALLOCATIONS.load(Relaxed), CACHE_LINE_ALIGNED.load(Relaxed));
    let fresh = WfQueue::<u64>::new(2);
    let allocations = ALLOCATIONS.load(Relaxed) - before;
    let aligned = CACHE_LINE_ALIGNED.load(Relaxed) - aligned_before;
    assert!(
        allocations <= 3,
        "WfQueue::new(2) allocates {allocations} times"
    );
    assert!(aligned <= 1, "{aligned} cache-line-aligned allocations");
    drop(fresh);

    let empty = LIVE_BYTES.load(Relaxed);
    let live = || LIVE_BYTES.load(Relaxed) - empty;
    // (b) and, further down, (d): as a queue, then as a snapshot.
    a_long_life_is_flat(live, pairs::<SeqQueue<u64>>);
    a_long_life_is_flat(live, updates);

    // (c) Two names on a thread each, a third that never announces
    // anything. What a descheduled thread pinned is let go once it runs
    // again, up to an interval per op: the ops after the join see to that.
    let queue = Queue::new(3);
    counting(false, || {
        std::thread::scope(|s| {
            for name in 0..2 {
                let queue = &queue;
                s.spawn(move || counting(true, || pairs(queue, name, 100_000 / SCALE)));
            }
        })
    });
    for name in 0..2 {
        pairs(&queue, name, 100_000 / SCALE);
    }
    assert!(live() < FLAT, "{} live bytes after two threads", live());
    drop(queue);
    assert_eq!(live(), 0, "drop leaks");

    a_warm_op_allocates_nothing(live, 2, pairs::<SeqQueue<u64>>);
    a_warm_op_allocates_nothing(live, 1, updates);

    // (e) The spares are capped. Name 1 stalls firm on its first op, so
    // name 0 can free nothing for ten checkpoint intervals; let go, it
    // frees up to an interval an op and needs one. Kept, they would all stay.
    // Firm only once the floor has passed its first pick: it first
    // parks copying that, pending, while name 0 runs an interval on.
    let queue: Universal<Stalls> = Universal::new(2);
    pairs(&queue, 0, CHECKPOINT_EVERY as u64);
    counting(false, || {
        std::thread::scope(|s| {
            let stalled = s.spawn(|| {
                PARKS.set(true);
                counting(true, || queue.apply(1, QueueOp::Dequeue))
            });
            parked(1);
            counting(true, || pairs(&queue, 0, CHECKPOINT_EVERY as u64));
            RELEASED.store(1, SeqCst);
            parked(2);
            let pinned = counting(true, || {
                let before = live();
                pairs(&queue, 0, 5 * CHECKPOINT_EVERY as u64);
                live() - before
            });
            RELEASED.store(usize::MAX, SeqCst);
            assert_eq!(stalled.join().expect("stalled name finished"), None);
            assert!(
                pinned > 10 * 40 * CHECKPOINT_EVERY as isize,
                "the stalled name pinned {pinned} bytes: not the script"
            );
        })
    });
    pairs(&queue, 0, 5 * CHECKPOINT_EVERY as u64);
    assert!(live() < FLAT, "{} live bytes after a stall", live());
    drop(queue);
    assert_eq!(live(), 0, "drop leaks");

    // (f) A name stalls mid-pass, committed and its node unthreaded:
    // name 1 parks replaying name 0's marked op, before it has walked
    // far enough to ask for help. Name 0's `reclaim` asks on its
    // behalf, so name 0 threads the stalled node and frees past it.
    // Unasked, the node would stay unthreaded and pin the whole suffix.
    PARKED.store(0, SeqCst);
    RELEASED.store(0, SeqCst);
    let queue: Universal<Stalls> = Universal::new(2);
    pairs(&queue, 1, 1);
    queue.apply(0, QueueOp::Enqueue(MARK));
    counting(false, || {
        std::thread::scope(|s| {
            let stalled = s.spawn(|| {
                PARKS.set(true);
                counting(true, || queue.apply(1, QueueOp::Dequeue))
            });
            parked(1);
            counting(true, || {
                pairs(&queue, 0, 500 * CHECKPOINT_EVERY as u64 / SCALE)
            });
            let pinned = live();
            RELEASED.store(usize::MAX, SeqCst);
            stalled.join().expect("stalled name finished");
            assert!(
                pinned < FLAT,
                "{pinned} live bytes behind a name stalled mid-pass"
            );
        })
    });
    drop(queue);
    assert_eq!(live(), 0, "drop leaks");
}
