//! Shared helpers for native stress tests: occupancy tracking with real
//! threads.

use kex_util::ord;
use kex_util::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::time::{Duration, Instant};

use super::raw::RawKex;

/// Result of [`occupancy_stress`].
pub(crate) struct OccupancyReport {
    /// Largest number of threads observed inside simultaneously.
    pub max_seen: usize,
    /// Total completed critical sections.
    pub total_entries: u64,
}

/// Run every process through `cycles` acquire/release pairs with small
/// pseudo-random critical-section work, tracking the maximum concurrent
/// occupancy. The caller asserts `max_seen <= k`.
pub(crate) fn occupancy_stress<K: RawKex>(kex: &K, cycles: u64) -> OccupancyReport {
    let inside = AtomicUsize::new(0);
    let max = AtomicUsize::new(0);
    let total = AtomicU64::new(0);
    std::thread::scope(|s| {
        for p in 0..kex.n() {
            let (inside, max, total) = (&inside, &max, &total);
            s.spawn(move || {
                for i in 0..cycles {
                    kex.acquire(p);
                    let now = inside.fetch_add(1, ord::handshake::SEQ_CST) + 1;
                    max.fetch_max(now, ord::handshake::SEQ_CST);
                    total.fetch_add(1, ord::handshake::SEQ_CST);
                    // Vary the hold time so occupancies overlap.
                    let spin = (p * 7 + i as usize * 13) % 64;
                    for _ in 0..spin {
                        kex_util::sync::hint::spin_loop();
                    }
                    inside.fetch_sub(1, ord::handshake::SEQ_CST);
                    kex.release(p);
                }
            });
        }
    });
    OccupancyReport {
        max_seen: max.load(ord::handshake::SEQ_CST),
        total_entries: total.load(ord::handshake::SEQ_CST),
    }
}

/// Determine the achievable concurrency: every process enters once and
/// holds its slot until `want` threads are inside together (success) or
/// `timeout` elapses. Returns the maximum simultaneous occupancy seen.
///
/// Unlike [`occupancy_stress`] this is not timing-luck dependent: if the
/// algorithm truly admits `want` concurrent holders, they will
/// rendezvous.
pub(crate) fn max_concurrency<K: RawKex>(kex: &K, want: usize, timeout: Duration) -> usize {
    let inside = AtomicUsize::new(0);
    let max = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let deadline = Instant::now() + timeout;
    std::thread::scope(|s| {
        for p in 0..kex.n() {
            let (inside, max, done) = (&inside, &max, &done);
            s.spawn(move || {
                kex.acquire(p);
                let now = inside.fetch_add(1, ord::handshake::SEQ_CST) + 1;
                max.fetch_max(now, ord::handshake::SEQ_CST);
                if now >= want {
                    done.store(true, ord::handshake::SEQ_CST);
                }
                while !done.load(ord::handshake::SEQ_CST) && Instant::now() < deadline {
                    kex_util::sync::hint::spin_loop();
                }
                inside.fetch_sub(1, ord::handshake::SEQ_CST);
                kex.release(p);
            });
        }
    });
    max.load(ord::handshake::SEQ_CST)
}

/// Stress with a subset of processes "crashing" inside their critical
/// sections: the listed pids acquire once and never release (they park on
/// a flag until the survivors finish). Returns the survivors' completed
/// entries; the caller asserts progress.
pub(crate) fn crash_stress<K: RawKex>(kex: &K, crashed: &[usize], cycles: u64) -> u64 {
    let total = AtomicU64::new(0);
    let finished = AtomicUsize::new(0);
    let survivors = kex.n() - crashed.len();
    let crashed_in = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for p in 0..kex.n() {
            let total = &total;
            let finished = &finished;
            let crashed_in = &crashed_in;
            let is_crashed = crashed.contains(&p);
            s.spawn(move || {
                if is_crashed {
                    kex.acquire(p);
                    crashed_in.fetch_add(1, ord::handshake::SEQ_CST);
                    // Hold the slot until every survivor is done — the
                    // thread has effectively failed inside its CS.
                    while finished.load(ord::handshake::SEQ_CST) < survivors {
                        kex_util::sync::thread::yield_now();
                    }
                    kex.release(p); // only to let the scope join cleanly
                } else {
                    // Give the crashing threads a head start so they are
                    // really inside when the survivors contend.
                    while crashed_in.load(ord::handshake::SEQ_CST) < crashed.len() {
                        kex_util::sync::thread::yield_now();
                    }
                    for _ in 0..cycles {
                        kex.acquire(p);
                        total.fetch_add(1, ord::handshake::SEQ_CST);
                        kex.release(p);
                    }
                    finished.fetch_add(1, ord::handshake::SEQ_CST);
                }
            });
        }
    });
    total.load(ord::handshake::SEQ_CST)
}
