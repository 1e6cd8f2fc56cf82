//! The one wall-clock harness outside `benchmark/`: the measurement
//! loop and the algorithm table of the `contend` binary
//! (EXPERIMENTS.md E12).
//!
//! [`run_contended`] spawns `T` OS threads that hammer one shared
//! operation (an acquire→critical-section→release cycle) for a fixed
//! wall-clock window after a warmup, and reports throughput, per-op
//! latency percentiles, and per-thread fairness. Latency is *sampled*
//! (every [`RunConfig::sample_every`]-th operation is timed) so the
//! `Instant::now` overhead does not dominate short critical sections,
//! and recorded into a log-linear [`LatencyHist`] whose buckets bound
//! the relative error to ~6% — plenty for the shapes this grid charts.
//!
//! [`algorithms`] is every row of that grid; it lives here, not in the
//! binary, so `cargo test` drives each row.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use kex_core::native::{
    CcChainKex, FastPathKex, KAssignment, QueueKex, RawKex, Resilient, SemaphoreKex, TreeKex,
};
use kex_waitfree::seq::{CounterOp, SeqCounter};
use kex_waitfree::{FetchAddCounter, SlotCounter, Snapshot, Universal, WfQueue};

/// The resiliency/admission knob for the k > 1 algorithms.
pub const K: usize = 4;

/// One closed-loop operation, called with the thread index as pid.
pub type Op = Box<dyn Fn(usize) + Sync>;

/// One row of the grid: name, its `k`, and an operation factory (a
/// fresh instance per measured window, so no state leaks across runs).
#[derive(Debug)]
pub struct Algo {
    /// Row name (`--algo` filter, JSON `name`).
    pub name: &'static str,
    /// Slots the row admits at once.
    pub k: usize,
    /// Builds the operation for a run of `threads` threads.
    pub make: fn(threads: usize) -> Op,
}

/// Universe size for a `k`-slot algorithm driven by `threads` threads
/// (pids are thread indices; the paper's algorithms need `k < n`).
fn universe(threads: usize, k: usize) -> usize {
    threads.max(k + 1)
}

fn kex_op<L: RawKex + 'static>(lock: L) -> Op {
    Box::new(move |p| {
        lock.acquire(p);
        std::hint::black_box(p);
        lock.release(p);
    })
}

/// Every row, in presentation order: the k-exclusion algorithms and
/// baselines, the paper's (N, 1) instance, the wrapped stack, then the
/// bare payload objects. A payload has no admission in front of it, so it is
/// built with a name per thread, never fewer than its `k`.
pub fn algorithms() -> Vec<Algo> {
    vec![
        Algo {
            name: "fig2",
            k: K,
            make: |t| kex_op(CcChainKex::new(universe(t, K), K)),
        },
        Algo {
            name: "tree",
            k: K,
            make: |t| kex_op(TreeKex::new(universe(t, K), K)),
        },
        Algo {
            name: "fast_path",
            k: K,
            make: |t| kex_op(FastPathKex::new(universe(t, K), K)),
        },
        Algo {
            name: "fig1",
            k: K,
            make: |t| kex_op(QueueKex::new(universe(t, K), K)),
        },
        Algo {
            name: "semaphore",
            k: K,
            make: |t| kex_op(SemaphoreKex::new(universe(t, K), K)),
        },
        // The paper's own (N, 1) instance; §5 sets it against MCS and
        // Yang–Anderson in remote references (`bounds mcs`).
        Algo {
            name: "fast_path_k1",
            k: 1,
            make: |t| kex_op(FastPathKex::new(universe(t, 1), 1)),
        },
        Algo {
            name: "assignment",
            k: K,
            make: |t| {
                let pool = KAssignment::new(universe(t, K), K);
                Box::new(move |p| {
                    let guard = pool.enter(p);
                    std::hint::black_box(guard.name());
                })
            },
        },
        Algo {
            name: "resilient_counter",
            k: K,
            make: |t| {
                let obj = Resilient::new(universe(t, K), K, SlotCounter::new(K));
                Box::new(move |p| {
                    obj.with(p, |counter, name| counter.add(name, 1));
                })
            },
        },
        Algo {
            name: "resilient_queue",
            k: K,
            make: |t| {
                let obj = Resilient::new(universe(t, K), K, WfQueue::<u64>::new(K));
                Box::new(move |p| {
                    obj.with(p, |queue, name| {
                        queue.enqueue(name, p as u64);
                        std::hint::black_box(queue.dequeue(name));
                    });
                })
            },
        },
        // The payload spectrum: per-name cells, one hot word, a log node
        // per op — why a dense name space 0..k matters.
        Algo {
            name: "slot_counter",
            k: K,
            make: |t| {
                let counter = SlotCounter::new(t.max(K));
                Box::new(move |p| counter.add(p, 1))
            },
        },
        Algo {
            name: "fetch_add_counter",
            k: K,
            make: |_| {
                let counter = FetchAddCounter::new();
                Box::new(move |_| {
                    counter.add(1);
                })
            },
        },
        Algo {
            name: "universal_counter",
            k: K,
            make: |t| {
                let counter = Universal::<SeqCounter>::new(t.max(K));
                Box::new(move |p| {
                    counter.apply(p, CounterOp::Add(1));
                })
            },
        },
        // The universal construction again, at a snapshot specification.
        Algo {
            name: "snapshot_update",
            k: K,
            make: |t| {
                let snap = Snapshot::<u64>::new(t.max(K));
                Box::new(move |p| {
                    snap.update(p, p as u64);
                })
            },
        },
    ]
}

/// Number of log-linear sub-bucket bits (16 sub-buckets per power of 2).
const SUB_BITS: u32 = 4;
/// Sub-buckets per major (power-of-two) bucket.
const SUBS: usize = 1 << SUB_BITS;
/// Total bucket count: 64 majors × 16 subs.
const BUCKETS: usize = 64 * SUBS;

/// A log-linear latency histogram over nanoseconds: the major bucket is
/// `floor(log2 ns)`, subdivided into 16 linear sub-buckets, so any
/// recorded value lands in a bucket whose width is at most 1/16th of the
/// value (≈6% worst-case relative error), using a fixed 8 KiB table.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist::new()
    }
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    fn index(ns: u64) -> usize {
        let v = ns.max(1);
        let major = 63 - v.leading_zeros();
        if major <= SUB_BITS {
            // Values below 2^(SUB_BITS+1) index directly: exact.
            v as usize
        } else {
            let sub = ((v >> (major - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
            (major as usize) * SUBS + sub
        }
    }

    /// A representative (midpoint) value for bucket `idx`.
    fn midpoint(idx: usize) -> u64 {
        if idx < 2 * SUBS {
            return idx as u64;
        }
        let major = (idx / SUBS) as u32;
        let sub = (idx % SUBS) as u64;
        let low = (1u64 << major) + (sub << (major - SUB_BITS));
        low + (1u64 << (major - SUB_BITS)) / 2
    }

    /// Records one latency sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Number of recorded samples.
    pub fn samples(&self) -> u64 {
        self.total
    }

    /// The latency (ns) at quantile `q` in `[0, 1]`; 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (idx, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Self::midpoint(idx);
            }
        }
        Self::midpoint(BUCKETS - 1)
    }
}

/// Timing parameters for one [`run_contended`] call.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Measured window.
    pub duration: Duration,
    /// Un-measured ramp-up before the window opens (threads already
    /// running, caches and backoff states warm).
    pub warmup: Duration,
    /// Time every Nth operation for the latency histogram.
    pub sample_every: u64,
}

impl RunConfig {
    /// A config with the given measured window and proportionate warmup.
    pub fn with_duration(duration: Duration) -> Self {
        RunConfig {
            duration,
            warmup: (duration / 4).min(Duration::from_millis(100)),
            sample_every: 8,
        }
    }
}

/// What one [`run_contended`] call measured.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Thread count of the run.
    pub threads: usize,
    /// Actual measured-window length.
    pub elapsed: Duration,
    /// Operations completed inside the window, all threads.
    pub total_ops: u64,
    /// Fewest operations any single thread completed (fairness floor).
    pub min_thread_ops: u64,
    /// Most operations any single thread completed (fairness ceiling).
    pub max_thread_ops: u64,
    /// Median sampled latency, ns.
    pub p50_ns: u64,
    /// 90th-percentile sampled latency, ns.
    pub p90_ns: u64,
    /// 99th-percentile sampled latency, ns.
    pub p99_ns: u64,
    /// 99.9th-percentile sampled latency, ns.
    pub p999_ns: u64,
    /// Latency samples taken.
    pub samples: u64,
}

impl RunStats {
    /// Aggregate operations per second over the measured window.
    pub fn ops_per_sec(&self) -> f64 {
        self.total_ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Runs `op(thread_index)` in a closed loop on `threads` OS threads and
/// measures the window after `cfg.warmup`. `op` must be one complete
/// acquire→work→release cycle (it is called back-to-back with no think
/// time, the maximum-contention regime).
pub fn run_contended<F>(threads: usize, cfg: &RunConfig, op: F) -> RunStats
where
    F: Fn(usize) + Sync,
{
    assert!(threads >= 1);
    let start_line = Barrier::new(threads + 1);
    let measuring = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let mut elapsed = Duration::ZERO;

    let per_thread: Vec<(u64, LatencyHist)> = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let (op, start_line, measuring, stop) = (&op, &start_line, &measuring, &stop);
            handles.push(s.spawn(move || {
                let mut ops: u64 = 0;
                let mut cycle: u64 = 0;
                let mut hist = LatencyHist::new();
                start_line.wait();
                while !stop.load(Ordering::Relaxed) {
                    cycle += 1;
                    if measuring.load(Ordering::Relaxed) {
                        if cycle.is_multiple_of(cfg.sample_every) {
                            let begin = Instant::now();
                            op(t);
                            hist.record(begin.elapsed().as_nanos() as u64);
                        } else {
                            op(t);
                        }
                        ops += 1;
                    } else {
                        op(t);
                        ops = 0; // warmup ops don't count
                    }
                }
                (ops, hist)
            }));
        }
        start_line.wait();
        std::thread::sleep(cfg.warmup);
        let window = Instant::now();
        measuring.store(true, Ordering::Relaxed);
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
        elapsed = window.elapsed();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut hist = LatencyHist::new();
    let mut total_ops = 0;
    let mut min_thread_ops = u64::MAX;
    let mut max_thread_ops = 0;
    for (ops, thread_hist) in &per_thread {
        total_ops += ops;
        min_thread_ops = min_thread_ops.min(*ops);
        max_thread_ops = max_thread_ops.max(*ops);
        hist.merge(thread_hist);
    }
    RunStats {
        threads,
        elapsed,
        total_ops,
        min_thread_ops,
        max_thread_ops,
        p50_ns: hist.percentile(0.50),
        p90_ns: hist.percentile(0.90),
        p99_ns: hist.percentile(0.99),
        p999_ns: hist.percentile(0.999),
        samples: hist.samples(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_bound_relative_error() {
        let mut h = LatencyHist::new();
        for v in [1u64, 7, 100, 1_000, 55_555, 9_999_999] {
            h.record(v);
            let back = LatencyHist::midpoint(LatencyHist::index(v));
            let err = (back as f64 - v as f64).abs() / v as f64;
            assert!(err <= 0.07, "value {v} came back as {back} ({err:.3})");
        }
        assert_eq!(h.samples(), 6);
    }

    #[test]
    fn percentiles_are_ordered_and_merge_adds_up() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        for i in 1..=1000u64 {
            a.record(i);
        }
        // Five outliers: >0.1% of the mass, so they own the p999 rank
        // (ceil(0.999 * 1005) = 1004 > 1000) but not the p99 one.
        for _ in 0..5 {
            b.record(1_000_000);
        }
        a.merge(&b);
        assert_eq!(a.samples(), 1005);
        let (p50, p90, p99, p999) = (
            a.percentile(0.50),
            a.percentile(0.90),
            a.percentile(0.99),
            a.percentile(0.999),
        );
        assert!(p50 <= p90 && p90 <= p99 && p99 <= p999);
        // The single outlier should only surface at the very tail.
        assert!(p99 < 2000, "p99 = {p99}");
        assert!(p999 >= 900_000, "p999 = {p999}");
        assert_eq!(LatencyHist::new().percentile(0.5), 0);
    }

    #[test]
    fn every_row_is_named_once_and_runs_at_one_and_two_threads() {
        let rows = algorithms();
        assert_eq!(rows.len(), 13);
        let mut names: Vec<_> = rows.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), rows.len(), "duplicate row name");
        for row in &rows {
            for threads in [1, 2] {
                let op = (row.make)(threads);
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let op = &op;
                        s.spawn(move || (0..64).for_each(|_| op(t)));
                    }
                });
            }
        }
    }

    #[test]
    fn run_contended_counts_real_work() {
        use std::sync::atomic::AtomicU64;
        let counter = AtomicU64::new(0);
        let cfg = RunConfig {
            duration: Duration::from_millis(30),
            warmup: Duration::from_millis(5),
            sample_every: 4,
        };
        let stats = run_contended(2, &cfg, |_t| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(stats.threads, 2);
        assert!(stats.total_ops > 0);
        assert!(stats.samples > 0);
        assert!(stats.min_thread_ops <= stats.max_thread_ops);
        assert!(stats.total_ops <= counter.load(Ordering::Relaxed));
        assert!(stats.ops_per_sec() > 0.0);
        assert!(stats.elapsed >= cfg.duration);
    }
}
