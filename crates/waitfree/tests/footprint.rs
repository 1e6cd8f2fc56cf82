//! What the universal construction allocates: next to nothing when it is
//! built, and a flat amount however long it runs.
//!
//! One test function, because the counting allocator is the process's:
//! tests running side by side would count each other's memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering::Relaxed};

use kex_waitfree::seq::{QueueOp, SeqQueue};
use kex_waitfree::{Universal, WfQueue};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static CACHE_LINE_ALIGNED: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call goes to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        CACHE_LINE_ALIGNED.fetch_add(usize::from(layout.align() >= 64), Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as isize, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Live bytes an object may hold however long it has run: a checkpoint
/// interval of 40-byte nodes per name, the queues that list them, a few
/// cloned states.
const FLAT: isize = 32 << 10;

/// Under miri the same walk at a thousandth of the length.
const SCALE: u64 = if cfg!(miri) { 1000 } else { 1 };

type Queue = Universal<SeqQueue<u64>>;

fn pairs(queue: &Queue, name: usize, count: u64) {
    for i in 0..count {
        queue.apply(name, QueueOp::Enqueue(i));
        queue
            .apply(name, QueueOp::Dequeue)
            .expect("one in, one out");
    }
}

#[test]
fn construction_is_three_allocations_and_a_long_life_is_flat() {
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

    // (b) One name runs for good, one stops after ten ops, two never
    // run: live bytes do not depend on how long the first has run.
    let empty = LIVE_BYTES.load(Relaxed);
    let live = || LIVE_BYTES.load(Relaxed) - empty;
    let queue = Queue::new(4);
    pairs(&queue, 1, 5);
    let mut at = [0; 3];
    for (at, (so_far, total)) in
        at.iter_mut()
            .zip([(0, 10_000), (10_000, 100_000), (100_000, 1_000_000)])
    {
        pairs(&queue, 0, (total - so_far) / SCALE);
        *at = live();
        assert!(*at < FLAT, "{at} live bytes after {total} pairs");
    }
    assert!((at[2] - at[1]).abs() < FLAT, "live bytes moved: {at:?}");
    drop(queue);
    assert_eq!(live(), 0, "drop leaks");

    // (c) Two names on a thread each, a third that never announces
    // anything. What a descheduled thread pinned is let go once it runs
    // again, a few nodes per op: the ops after the join see to that.
    let queue = Queue::new(3);
    std::thread::scope(|s| {
        for name in 0..2 {
            let queue = &queue;
            s.spawn(move || pairs(queue, name, 100_000 / SCALE));
        }
    });
    for name in 0..2 {
        pairs(&queue, name, 100_000 / SCALE);
    }
    assert!(live() < FLAT, "{} live bytes after two threads", live());
    drop(queue);
    assert_eq!(live(), 0, "drop leaks");
}
