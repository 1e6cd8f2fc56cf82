//! E9b — wait-free object ablation: the cost spectrum of the payload
//! objects that go inside the resiliency wrapper, plus the full
//! wrapped stack.
//!
//! * `SlotCounter` (per-name cells) vs `FetchAddCounter` (one hot word)
//!   vs `Universal<SeqCounter>` (a log node per op): why the bounded
//!   name space that k-assignment provides matters — per-name slotting
//!   is only possible because names are dense in `0..k`.
//! * `Resilient<SlotCounter>` end to end: wrapper + payload.
//!
//! Run: `cargo bench -p kex-bench --bench waitfree`

use kex_bench::microbench::{BenchmarkId, Criterion, Throughput};

use kex_core::native::Resilient;
use kex_waitfree::seq::CounterOp;
use kex_waitfree::{FetchAddCounter, SlotCounter, Snapshot, Universal, WfQueue};

const K: usize = 4;

fn bench_counters_single_thread(c: &mut Criterion) {
    let mut group = c.benchmark_group("counter_add_single_thread");
    let slot = SlotCounter::new(K);
    group.bench_function("slot_counter", |b| b.iter(|| slot.add(0, 1)));
    let fa = FetchAddCounter::new();
    group.bench_function("fetch_add_counter", |b| b.iter(|| fa.add(1)));
    let uni: Universal<kex_waitfree::seq::SeqCounter> = Universal::new(K);
    group.bench_function("universal_counter", |b| {
        b.iter(|| uni.apply(0, CounterOp::Add(1)))
    });
    group.finish();
}

fn bench_counters_contended(c: &mut Criterion) {
    let threads = K;
    let ops: u64 = 5_000;
    let mut group = c.benchmark_group("counter_add_contended");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ops * threads as u64));

    group.bench_function(BenchmarkId::new("slot_counter", threads), |b| {
        b.iter(|| {
            let counter = SlotCounter::new(K);
            std::thread::scope(|s| {
                for me in 0..threads {
                    let counter = &counter;
                    s.spawn(move || {
                        for _ in 0..ops {
                            counter.add(me, 1);
                        }
                    });
                }
            });
            counter.read()
        })
    });

    group.bench_function(BenchmarkId::new("fetch_add_counter", threads), |b| {
        b.iter(|| {
            let counter = FetchAddCounter::new();
            std::thread::scope(|s| {
                for _ in 0..threads {
                    let counter = &counter;
                    s.spawn(move || {
                        for _ in 0..ops {
                            counter.add(1);
                        }
                    });
                }
            });
            counter.read()
        })
    });
    group.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot");
    let snap: Snapshot<u64> = Snapshot::new(K);
    for i in 0..K {
        snap.update(i, i as u64);
    }
    group.bench_function("scan_k4", |b| b.iter(|| snap.scan()));
    group.bench_function("update_k4", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            snap.update(0, i);
        })
    });
    group.finish();
}

fn bench_wrapped_stack(c: &mut Criterion) {
    let mut group = c.benchmark_group("resilient_end_to_end");
    let counter = Resilient::new(8, K, SlotCounter::new(K));
    group.bench_function("resilient_counter_add", |b| {
        b.iter(|| counter.with(0, |c, name| c.add(name, 1)));
    });
    let queue = Resilient::new(8, K, WfQueue::<u64>::new(K));
    group.bench_function("resilient_universal_queue_100_ops", |b| {
        b.iter(|| {
            for i in 0..50 {
                queue.with(0, |q, name| q.enqueue(name, i));
                queue.with(0, |q, name| q.dequeue(name));
            }
        });
    });
    group.finish();
}

fn main() {
    let mut c = Criterion::new();
    bench_counters_single_thread(&mut c);
    bench_counters_contended(&mut c);
    bench_snapshot(&mut c);
    bench_wrapped_stack(&mut c);
}
