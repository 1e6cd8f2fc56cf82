//! The layer ladder: the same closed loop run against each layer's
//! public functions from outside, raw kex up to `Store`. One call per
//! rung lives in [`Fixtures`]; the timed pass (here) runs it in batches
//! and records a span per batch, the count pass (`counts.rs`) runs it
//! between `kex_obs::reset()` and `snapshot()`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use kex_core::native::{FastPathKex, KAssignment, RawKex, Resilient, TasRenaming};
use kex_store::{
    shard_of, KvCells, LaneJournal, OpKind, Shard, ShardObject, StoreRead, StoreWrite,
};
use kex_util::CachePadded;
use kex_waitfree::WfQueue;

use crate::hist::median;
use crate::loadgen::{encode, Op, OpStream, Sampler, SplitMix64};
use crate::spec::{Kind, WORKLOADS};
use crate::trace::Trace;
use crate::workload::{build_store, StoreBed, CLIENTS, N};

/// Calls per batch (= per span), and batches per rung.
pub const CALLS: usize = 4096;
const BATCHES: usize = 200;
const K: usize = 4;
const BIG_KEYS: u32 = 1 << 20;

pub type Metrics = BTreeMap<&'static str, f64>;

/// One instance of every layer, sized n = 16, k = 4 unless the rung says
/// otherwise, and one batch of pre-drawn ops per client so no rung pays
/// for the load generator.
pub struct Fixtures {
    ops: [Vec<Op>; CLIENTS],
    kex: FastPathKex,
    /// k = 1: with two threads one is always waiting.
    kex_handoff: FastPathKex,
    renaming: TasRenaming,
    /// Names 0..2 held for good: every acquisition scans past three set
    /// bits, as on a shard with k − 1 crashed holders.
    renaming_dead3: TasRenaming,
    assignment: KAssignment,
    resilient: Resilient<()>,
    object: KvCells,
    journal: LaneJournal,
    shard: Shard<KvCells>,
    /// The `zipf_read_heavy` store and its Zipf(0.99) sampler over 4096
    /// keys, which every keyed rung draws from.
    bed: StoreBed,
    shards: usize,
}

impl Fixtures {
    pub fn new(seed: u64) -> Self {
        let Kind::Store(spec) = &WORKLOADS[0].kind else {
            unreachable!("the first workload is the Zipf store")
        };
        let bed = build_store(spec, seed);
        let ops = [0, 1].map(|thread| {
            let mut stream = OpStream::new(seed, thread, spec.get_pct);
            (0..CALLS).map(|_| stream.next_op(&bed.sampler)).collect()
        });
        let renaming_dead3 = TasRenaming::new(K);
        for dead in 0..K - 1 {
            assert_eq!(renaming_dead3.acquire_name(), dead);
        }
        let object = KvCells::new(2 * spec.keys as usize);
        let shard = Shard::new(N, K, 8, KvCells::new(2 * spec.keys as usize));
        for key in 0..spec.keys {
            let value = u64::from(encode(key, 0));
            object.put(0, u64::from(key), value).expect("fits");
            shard.put(0, u64::from(key), value).expect("fits");
        }
        Fixtures {
            ops,
            kex: FastPathKex::new(N, K),
            kex_handoff: FastPathKex::new(N, 1),
            renaming: TasRenaming::new(K),
            renaming_dead3,
            assignment: KAssignment::new(N, K),
            resilient: Resilient::new(N, K, ()),
            object,
            journal: LaneJournal::new(K, 8),
            shard,
            bed,
            shards: spec.shards,
        }
    }

    #[inline]
    fn op(&self, p: usize, i: usize) -> Op {
        self.ops[p][i % CALLS]
    }

    #[inline]
    pub fn hash_shard_of(&self, p: usize, i: usize) {
        black_box(shard_of(
            u64::from(self.op(p, i).key),
            self.bed.store.seed(),
            self.shards,
        ));
    }

    #[inline]
    pub fn kex_pair(&self, p: usize) {
        self.kex.acquire(p);
        self.kex.release(p);
    }

    #[inline]
    pub fn kex_handoff(&self, p: usize) {
        self.kex_handoff.acquire(p);
        self.kex_handoff.release(p);
    }

    #[inline]
    pub fn renaming_pair(&self) {
        self.renaming
            .release_name(black_box(self.renaming.acquire_name()));
    }

    #[inline]
    pub fn renaming_pair_dead3(&self) {
        let name = black_box(self.renaming_dead3.acquire_name());
        self.renaming_dead3.release_name(name);
    }

    #[inline]
    pub fn assignment_pair(&self, p: usize) {
        black_box(self.assignment.enter(p).name());
    }

    #[inline]
    pub fn resilient_with(&self, p: usize) {
        black_box(self.resilient.with(p, |_, name| name));
    }

    #[inline]
    pub fn resilient_try_with(&self, p: usize) {
        black_box(self.resilient.try_with(p, |_, name| name));
    }

    #[inline]
    pub fn object_get(&self, p: usize, i: usize) {
        black_box(self.object.get(0, u64::from(self.op(p, i).key)));
    }

    #[inline]
    pub fn object_put(&self, p: usize, i: usize) {
        let op = self.op(p, i);
        black_box(self.object.put(0, u64::from(op.key), u64::from(op.value))).ok();
    }

    #[inline]
    pub fn journal_begin_commit(&self, p: usize, i: usize) {
        let op = self.op(p, i);
        let lsn = self
            .journal
            .begin(0, OpKind::Put, u64::from(op.key), u64::from(op.value));
        self.journal.commit(0, lsn);
    }

    #[inline]
    pub fn shard_get(&self, p: usize, i: usize) {
        black_box(self.shard.get(p, u64::from(self.op(p, i).key)));
    }

    #[inline]
    pub fn shard_put(&self, p: usize, i: usize) {
        let op = self.op(p, i);
        black_box(self.shard.put(p, u64::from(op.key), u64::from(op.value))).ok();
    }

    #[inline]
    pub fn store_get(&self, p: usize, i: usize) {
        black_box(self.bed.store.get(p, u64::from(self.op(p, i).key)));
    }

    #[inline]
    pub fn store_put(&self, p: usize, i: usize) {
        let op = self.op(p, i);
        black_box(
            self.bed
                .store
                .put(p, u64::from(op.key), u64::from(op.value)),
        )
        .ok();
    }
}

/// Runs one batch of `CALLS` calls unrecorded, then `BATCHES` of them
/// under a span each; the metric is the median ns/call.
fn rung(
    trace: &mut Trace,
    out: &mut Metrics,
    name: &'static str,
    parent: Option<&str>,
    mut call: impl FnMut(usize),
) {
    let id = trace.open(name, parent);
    (0..CALLS).for_each(&mut call);
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = trace.now_ns();
        (0..CALLS).for_each(&mut call);
        let end = trace.now_ns();
        trace.push(id, name, 0, start, end, CALLS as u64);
        per_call.push((end - start) as f64 / CALLS as f64);
    }
    trace.close(id, (BATCHES * CALLS) as u64);
    out.insert(name, median(&per_call));
}

/// The `_t2` rungs: both client threads run batches on one instance.
/// A thread keeps going until the other has its `BATCHES` too, so each
/// recorded batch ran against a busy peer; the metric is the median
/// ns/call one thread sees.
fn rung_t2(
    trace: &mut Trace,
    out: &mut Metrics,
    name: &'static str,
    parent: Option<&str>,
    call: impl Fn(usize, usize) + Sync,
) {
    let id = trace.open(name, parent);
    let epoch = trace.epoch;
    let done: [CachePadded<AtomicUsize>; CLIENTS] =
        std::array::from_fn(|_| CachePadded::new(AtomicUsize::new(0)));
    let barrier = Barrier::new(CLIENTS);
    let batches: Vec<Vec<(u64, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|p| {
                let (call, done, barrier) = (&call, &done, &barrier);
                scope.spawn(move || {
                    let mut mine = Vec::with_capacity(BATCHES);
                    barrier.wait();
                    // Relaxed: `done` only paces the loop; the batches
                    // themselves come back through `join`.
                    while mine.len() < BATCHES || done[1 - p].load(Ordering::Relaxed) < BATCHES {
                        let start = epoch.elapsed().as_nanos() as u64;
                        for i in 0..CALLS {
                            call(p, i);
                        }
                        let end = epoch.elapsed().as_nanos() as u64;
                        if mine.len() < BATCHES {
                            mine.push((start, end));
                            done[p].store(mine.len(), Ordering::Relaxed);
                        }
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ladder thread panicked"))
            .collect()
    });
    let mut per_call = Vec::with_capacity(CLIENTS * BATCHES);
    for (thread, mine) in batches.iter().enumerate() {
        for &(start, end) in mine {
            trace.push(id, name, thread, start, end, CALLS as u64);
            per_call.push((end - start) as f64 / CALLS as f64);
        }
    }
    trace.close(id, (CLIENTS * BATCHES * CALLS) as u64);
    out.insert(name, median(&per_call));
}

/// Times every rung, parents before children so each span can name the
/// rung that contains it in the call graph.
pub fn run(trace: &mut Trace, seed: u64) -> Metrics {
    let fx = Fixtures::new(seed);
    let mut out = Metrics::new();
    // `t1!(metric, parent rung, one call)`; `t2!` likewise with both clients.
    macro_rules! t1 {
        ($name:literal, $parent:expr, $call:expr) => {
            rung(trace, &mut out, $name, $parent, $call)
        };
    }
    macro_rules! t2 {
        ($name:literal, $parent:expr, $call:expr) => {
            rung_t2(trace, &mut out, $name, $parent, $call)
        };
    }
    let mut stream = OpStream::new(seed, 0, 90);
    t1!("loadgen.draw_ns", None, |_| {
        black_box(stream.next_op(&fx.bed.sampler));
    });
    t1!("store.get_ns", None, |i| fx.store_get(0, i));
    t1!("store.put_ns", None, |i| fx.store_put(0, i));
    t1!("hash.shard_of_ns", Some("store.get_ns"), |i| fx
        .hash_shard_of(0, i));
    t1!("shard.get_ns", Some("store.get_ns"), |i| fx.shard_get(0, i));
    t1!("shard.put_ns", Some("store.put_ns"), |i| fx.shard_put(0, i));
    t1!("resilient.with_ns", Some("shard.get_ns"), |_| fx
        .resilient_with(0));
    t1!("resilient.try_with_ns", Some("shard.get_ns"), |_| fx
        .resilient_try_with(0));
    t1!("assignment.pair_ns", Some("resilient.with_ns"), |_| fx
        .assignment_pair(0));
    t1!("kex.pair_ns", Some("assignment.pair_ns"), |_| fx
        .kex_pair(0));
    t1!("renaming.pair_ns", Some("assignment.pair_ns"), |_| fx
        .renaming_pair());
    t1!("renaming.pair_dead3_ns", Some("assignment.pair_ns"), |_| fx
        .renaming_pair_dead3());
    t1!("object.get_ns", Some("shard.get_ns"), |i| fx
        .object_get(0, i));
    t1!("object.put_ns", Some("shard.put_ns"), |i| fx
        .object_put(0, i));
    t1!("journal.begin_commit_ns", Some("shard.put_ns"), |i| fx
        .journal_begin_commit(0, i));

    t2!("shard.get_t2_ns", None, |p, i| fx.shard_get(p, i));
    t2!("shard.put_t2_ns", None, |p, i| fx.shard_put(p, i));
    t2!("resilient.with_t2_ns", Some("shard.get_t2_ns"), |p, _| fx
        .resilient_with(p));
    t2!(
        "assignment.pair_t2_ns",
        Some("resilient.with_t2_ns"),
        |p, _| fx.assignment_pair(p)
    );
    t2!("kex.pair_t2_ns", Some("assignment.pair_t2_ns"), |p, _| fx
        .kex_pair(p));
    t2!("kex.handoff_t2_ns", None, |p, _| fx.kex_handoff(p));

    big_object(trace, &mut out, seed);
    queue_by_history(trace, &mut out);
    self_times(&mut out);
    out
}

/// `KvCells` at the `uniform_write_heavy` size: 2^20 keys in 16 MB of
/// slots, drawn uniformly on the fly (a draw is ~1 ns against a probe
/// that misses the cache), so no batch revisits the last one's lines.
fn big_object(trace: &mut Trace, out: &mut Metrics, seed: u64) {
    let big = KvCells::new(2 * BIG_KEYS as usize);
    for key in 0..BIG_KEYS {
        big.put(0, u64::from(key), u64::from(encode(key, 0)))
            .expect("fits");
    }
    let sampler = Sampler::uniform(BIG_KEYS);
    let mut rng = SplitMix64::for_thread(seed, CLIENTS);
    rung(
        trace,
        out,
        "object.get_big_ns",
        Some("object.get_ns"),
        |_| {
            black_box(big.get(0, u64::from(sampler.rank(rng.next()))));
        },
    );
    let mut rng = SplitMix64::for_thread(seed, CLIENTS + 1);
    rung(
        trace,
        out,
        "object.put_big_ns",
        Some("object.put_ns"),
        |_| {
            let key = sampler.rank(rng.next());
            black_box(big.put(0, u64::from(key), u64::from(encode(key, 1)))).ok();
        },
    );
}

/// `WfQueue` direct, one name: ns per enqueue+dequeue pair once the log
/// holds 1k and 8k pairs. Each history point is one span of 128 pairs,
/// taken on three fresh queues.
fn queue_by_history(trace: &mut Trace, out: &mut Metrics) {
    const SPAN: usize = 128;
    const REPEATS: usize = 3;
    let points: [(&'static str, usize); 2] = [
        ("waitfree.queue_pair_ns_at_1k", 1000),
        ("waitfree.queue_pair_ns_at_8k", 8000),
    ];
    let ids = points.map(|(name, _)| trace.open(name, None));
    let mut per_pair = [Vec::new(), Vec::new()];
    for _ in 0..REPEATS {
        let queue = WfQueue::<u64>::new(1);
        let mut pairs = 0;
        for (point, &(name, at)) in points.iter().enumerate() {
            while pairs < at {
                queue.enqueue(0, pairs as u64);
                black_box(queue.dequeue(0));
                pairs += 1;
            }
            let start = trace.now_ns();
            for _ in 0..SPAN {
                queue.enqueue(0, pairs as u64);
                black_box(queue.dequeue(0));
                pairs += 1;
            }
            let end = trace.now_ns();
            trace.push(ids[point], name, 0, start, end, SPAN as u64);
            per_pair[point].push((end - start) as f64 / SPAN as f64);
        }
    }
    for (point, (name, _)) in points.iter().enumerate() {
        trace.close(ids[point], (REPEATS * SPAN) as u64);
        out.insert(name, median(&per_pair[point]));
    }
    out.insert(
        "waitfree.queue_slowdown_8k_over_1k",
        out[points[1].0] / out[points[0].0],
    );
}

/// Self time = a rung minus the rungs it calls.
pub fn self_times(m: &mut Metrics) {
    let assignment = m["assignment.pair_ns"] - m["kex.pair_ns"] - m["renaming.pair_ns"];
    let resilient = m["resilient.with_ns"] - m["assignment.pair_ns"];
    let shard_get = m["shard.get_ns"] - m["resilient.with_ns"] - m["object.get_ns"];
    let shard_put = m["shard.put_ns"]
        - m["resilient.with_ns"]
        - m["object.put_ns"]
        - m["journal.begin_commit_ns"];
    let store_get = m["store.get_ns"] - m["shard.get_ns"] - m["hash.shard_of_ns"];
    let store_put = m["store.put_ns"] - m["shard.put_ns"] - m["hash.shard_of_ns"];
    m.insert("assignment.self_ns", assignment);
    m.insert("resilient.self_ns", resilient);
    m.insert("shard.get_self_ns", shard_get);
    m.insert("shard.put_self_ns", shard_put);
    m.insert("store.get_self_ns", store_get);
    m.insert("store.put_self_ns", store_put);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_rung_minus_its_children() {
        let mut m: Metrics = [
            ("kex.pair_ns", 30.0),
            ("renaming.pair_ns", 8.0),
            ("assignment.pair_ns", 41.0),
            ("resilient.with_ns", 66.0),
            ("object.get_ns", 5.0),
            ("object.put_ns", 7.0),
            ("journal.begin_commit_ns", 20.0),
            ("shard.get_ns", 80.0),
            ("shard.put_ns", 110.0),
            ("hash.shard_of_ns", 2.0),
            ("store.get_ns", 85.0),
            ("store.put_ns", 116.0),
        ]
        .into_iter()
        .collect();
        self_times(&mut m);
        assert_eq!(m["assignment.self_ns"], 3.0);
        assert_eq!(m["resilient.self_ns"], 25.0);
        assert_eq!(m["shard.get_self_ns"], 9.0);
        assert_eq!(m["shard.put_self_ns"], 17.0);
        assert_eq!(m["store.get_self_ns"], 3.0);
        assert_eq!(m["store.put_self_ns"], 4.0);
        // The ladder telescopes: the self times and the leaves add back
        // up to the top rung.
        let rebuilt = m["store.get_self_ns"]
            + m["hash.shard_of_ns"]
            + m["shard.get_self_ns"]
            + m["object.get_ns"]
            + m["resilient.self_ns"]
            + m["assignment.self_ns"]
            + m["kex.pair_ns"]
            + m["renaming.pair_ns"];
        assert_eq!(rebuilt, m["store.get_ns"]);
    }
}
