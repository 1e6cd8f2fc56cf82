//! The five workloads: set-up, the closed-loop client windows, and the
//! output checks. Two client threads (pids 0 and 1), no think time.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use kex_core::native::Resilient;
use kex_store::{KvStore, ShardStats, StoreConfig, StoreRead, StoreScan, StoreWrite};
use kex_util::CachePadded;
use kex_waitfree::WfQueue;

use crate::hist::Hist;
use crate::loadgen::{encode, verifies, Op, OpStream, Sampler, SplitMix64};
use crate::spec::{Kind, StoreSpec, Workload};
use crate::trace::{OpKind, SpanSink};

pub const CLIENTS: usize = 2;
/// Per-shard process universe. `FastPathKex` takes its `Split` shape
/// (the Theorem-3 fast path) only when `n > 2k`; `build_store` asserts it.
pub const N: usize = 16;
const JOURNAL_DEPTH: usize = 8;
const WARM_UP: Duration = Duration::from_secs(1);
/// A run is many short windows so that its medians can shrug off the
/// seconds-long slow spells of a shared host (README, "Calibration").
const STORE_WINDOW: Duration = Duration::from_millis(200);
/// A queue window starts from an empty log, and how far the log grows is
/// part of the workload: 2 s takes it well past 10 000 pairs.
const QUEUE_WINDOW: Duration = Duration::from_secs(2);
/// The traced window and the plain one it is compared with.
const TRACED_WINDOW: Duration = Duration::from_secs(2);
/// Store clients time one op in eight; queue ops are slow enough (and
/// few enough) to time every one.
const STORE_SAMPLE_EVERY: u64 = 8;
/// Op spans kept per client thread in the traced window.
const SPAN_CAP: usize = 4096;

/// A failed output check: the run exits non-zero.
pub struct CheckFailed(pub String);

macro_rules! check {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(CheckFailed(format!($($msg)+)));
        }
    };
}

/// One closed-loop client. `draw` is outside the timed part of an op,
/// `exec` is the op and the check of its output.
pub trait Client: Send {
    type Op: Copy;
    fn draw(&mut self) -> Self::Op;
    /// Runs the op; `true` when it completed and its output verified.
    fn exec(&mut self, op: Self::Op) -> bool;
    /// `exec` with each call into the library wrapped in a span.
    fn exec_traced(&mut self, op: Self::Op, sink: &mut SpanSink) -> bool;
}

pub struct ThreadWindow {
    pub ops: u64,
    pub failed: u64,
    pub elapsed: Duration,
    /// How much of `elapsed` the thread spent on a cpu.
    pub on_cpu: Duration,
    /// Sampled op latencies; empty when traced, the sink has them all.
    pub latency: Hist,
    pub sink: Option<SpanSink>,
}

/// Runs every client for `window` on its own thread, started together.
/// Clients are padded apart: each one's stream state changes on every
/// op, and two of them on one cache line cost a fifth of the throughput.
/// The first op of every `sample_every` is timed, and its end timestamp
/// doubles as the clock check, so untimed ops carry no timer call at all.
/// With `trace`, every op is timed and recorded as spans against that epoch.
pub fn run_window<C: Client>(
    clients: &mut [CachePadded<C>],
    window: Duration,
    sample_every: u64,
    trace: Option<Instant>,
) -> Vec<ThreadWindow> {
    let barrier = Barrier::new(clients.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut latency = Hist::new();
                    let mut sink = trace.map(|epoch| SpanSink::new(epoch, SPAN_CAP));
                    let (mut ops, mut failed) = (0u64, 0u64);
                    barrier.wait();
                    let on_cpu_before = on_cpu();
                    let start = Instant::now();
                    loop {
                        let op = client.draw();
                        let t0 = Instant::now();
                        let ok = match &mut sink {
                            Some(sink) => client.exec_traced(op, sink),
                            None => client.exec(op),
                        };
                        let t1 = Instant::now();
                        failed += u64::from(!ok);
                        if let Some(sink) = &mut sink {
                            sink.record(OpKind::Whole, t0, t1);
                            ops += 1;
                        } else {
                            latency.record((t1 - t0).as_nanos() as u64);
                            for _ in 1..sample_every {
                                let op = client.draw();
                                failed += u64::from(!client.exec(op));
                            }
                            ops += sample_every;
                        }
                        if t1 - start >= window {
                            break;
                        }
                    }
                    ThreadWindow {
                        ops,
                        failed,
                        elapsed: start.elapsed(),
                        on_cpu: on_cpu().saturating_sub(on_cpu_before),
                        latency,
                        sink,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// The cpu time of the calling thread, `CLOCK_THREAD_CPUTIME_ID`: time
/// spent runnable behind another task, or stolen from the guest by the
/// host, is not in it. std has no call for it; the benchmark reads
/// `/proc` for its memory metric and is Linux-only already.
fn on_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which is what `Timespec` is on 64-bit Linux (`time_t` and
    // `long` are both 64 bits), and keeps nothing.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "no thread cpu clock on this host");
    Duration::new(time.sec as u64, time.nsec as u32)
}

pub fn throughput(window: &[ThreadWindow]) -> f64 {
    window
        .iter()
        .map(|t| t.ops as f64 / t.elapsed.as_secs_f64())
        .sum()
}

/// What a measured window leaves behind: four numbers, so a run's
/// memory does not grow with its window count.
pub struct WindowStat {
    pub throughput: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
    /// The smaller of the two clients' shares of the window spent on a
    /// cpu.
    pub cpu_share: f64,
}

/// Everything one run of a workload hands to the report.
pub struct Outcome {
    /// The time of every set-up the run made, ns.
    pub setups_ns: Hist,
    /// Measured windows (tracing off), in order.
    pub windows: Vec<WindowStat>,
    /// The latency samples of all measured windows.
    pub pooled: Hist,
    /// The traced window, when asked for.
    pub traced: Option<Vec<ThreadWindow>>,
    /// Every client op of the run, warm-up and traced window included:
    /// all of them are checked, so all of them count as attempts.
    pub attempted: u64,
    pub failed: u64,
    pub client_ops: [u64; CLIENTS],
    /// Per-shard completed-op counts from `Store::stats()`, and sheds.
    pub shard_ops: Vec<u64>,
    pub sheds: u64,
}

impl Outcome {
    fn new(setups_ns: Hist) -> Self {
        Outcome {
            setups_ns,
            windows: Vec::new(),
            pooled: Hist::new(),
            traced: None,
            attempted: 0,
            failed: 0,
            client_ops: [0; CLIENTS],
            shard_ops: Vec::new(),
            sheds: 0,
        }
    }

    fn count(&mut self, window: &[ThreadWindow]) {
        for (client, t) in window.iter().enumerate() {
            self.attempted += t.ops;
            self.failed += t.failed;
            self.client_ops[client] += t.ops;
        }
    }

    /// The run's schedule. Tracing off: windows of `window` for
    /// `seconds`. Traced: one plain window and one traced one, whose
    /// throughputs differ by what tracing costs.
    fn windows_of(
        &mut self,
        window: Duration,
        seconds: u64,
        trace: Option<Instant>,
        mut run: impl FnMut(Duration, Option<Instant>) -> Result<Vec<ThreadWindow>, CheckFailed>,
    ) -> Result<(), CheckFailed> {
        match trace {
            None => {
                let total = Duration::from_secs(seconds);
                for _ in 0..(total.as_millis() / window.as_millis()).max(1) {
                    self.measure(&run(window.min(total), None)?);
                }
            }
            Some(_) => {
                self.measure(&run(TRACED_WINDOW, None)?);
                let traced = run(TRACED_WINDOW, trace)?;
                self.count(&traced);
                self.traced = Some(traced);
            }
        }
        Ok(())
    }

    fn measure(&mut self, window: &[ThreadWindow]) {
        self.count(window);
        let mut latency = Hist::new();
        window.iter().for_each(|t| latency.merge(&t.latency));
        self.windows.push(WindowStat {
            throughput: throughput(window),
            p50_ns: latency.quantile(0.5),
            p99_ns: latency.quantile(0.99),
            cpu_share: window
                .iter()
                .map(|t| t.on_cpu.as_secs_f64() / t.elapsed.as_secs_f64())
                .fold(1.0, f64::min),
        });
        self.pooled.merge(&latency);
    }
}

/// Builds the bed repeatedly until a quarter second has gone by (at
/// least five times) and hands back the last one with the time each
/// took, in a histogram so that the 200 000 set-ups of the queue cost no
/// memory. The time is the cpu time of this thread: a set-up is
/// single-threaded and waits for nothing, so on a quiet host that is the
/// wall time, and on a busy one it leaves out what the host took. The
/// two clock calls are system calls and put about 0.6 µs into every
/// reading, which only the queue's set-up (0.7 µs) is small enough to
/// show; it is the same 0.6 µs on both sides of any comparison.
fn timed_setup<B>(mut build: impl FnMut() -> B) -> (B, Hist) {
    let mut times = Hist::new();
    let began = Instant::now();
    loop {
        let before = on_cpu();
        let bed = build();
        times.record((on_cpu() - before).as_nanos() as u64);
        if times.count() >= 5 && began.elapsed() >= Duration::from_millis(250) {
            return (bed, times);
        }
    }
}

pub fn run(
    w: &Workload,
    seed: u64,
    seconds: u64,
    trace: Option<Instant>,
) -> Result<Outcome, CheckFailed> {
    match &w.kind {
        Kind::Store(spec) => run_store(spec, seed, seconds, trace),
        Kind::Queue => run_queue(seed, seconds, trace),
    }
}

// ---------------------------------------------------------------- store

pub struct StoreBed {
    pub store: KvStore,
    pub sampler: Sampler,
}

/// Some key of the workload that `shard` owns.
fn key_on(store: &KvStore, spec: &StoreSpec, shard: usize) -> u32 {
    (0..spec.keys)
        .find(|&key| store.shard_of(u64::from(key)) == shard)
        .expect("every shard owns a key")
}

/// construct + populate + crash injection + sampler table.
pub fn build_store(spec: &StoreSpec, seed: u64) -> StoreBed {
    assert!(
        N > 2 * spec.k,
        "n = {N} would collapse FastPathKex to one block"
    );
    let mut cfg = StoreConfig::new(spec.shards, N, spec.k);
    cfg.capacity = (2 * spec.keys as usize / spec.shards).next_power_of_two();
    cfg.journal_depth = JOURNAL_DEPTH;
    let store = KvStore::new(cfg);
    let mut nonces = SplitMix64::for_thread(seed, CLIENTS);
    for key in 0..spec.keys {
        let value = encode(key, nonces.next() as u16);
        store
            .put(key as usize % CLIENTS, u64::from(key), u64::from(value))
            .expect("populate fits the table");
    }
    // Pids above the clients' die mid-put, `crashed_per_shard` in every
    // shard, each on some key that shard owns.
    let mut pid = CLIENTS;
    for shard in 0..spec.shards {
        let key = key_on(&store, spec, shard);
        for _ in 0..spec.crashed_per_shard {
            store.crash_in_cs(
                pid,
                u64::from(key),
                u64::from(encode(key, nonces.next() as u16)),
            );
            pid += 1;
        }
    }
    assert!(
        pid < N,
        "crash plan needs {pid} pids plus one for the shed demonstration"
    );
    let sampler = match spec.zipf {
        Some(s) => Sampler::zipf(spec.keys, s),
        None => Sampler::uniform(spec.keys),
    };
    StoreBed { store, sampler }
}

struct StoreClient<'a> {
    bed: &'a StoreBed,
    pid: usize,
    stream: OpStream,
    puts: u64,
}

impl Client for StoreClient<'_> {
    type Op = Op;

    #[inline]
    fn draw(&mut self) -> Op {
        self.stream.next_op(&self.bed.sampler)
    }

    #[inline]
    fn exec(&mut self, op: Op) -> bool {
        let key = u64::from(op.key);
        if op.is_get {
            matches!(self.bed.store.get(self.pid, key), Some(v) if verifies(op.key, v))
        } else {
            self.puts += 1;
            self.bed
                .store
                .put(self.pid, key, u64::from(op.value))
                .is_ok()
        }
    }

    fn exec_traced(&mut self, op: Op, sink: &mut SpanSink) -> bool {
        let start = Instant::now();
        let ok = self.exec(op);
        let kind = if op.is_get {
            OpKind::Read
        } else {
            OpKind::Write
        };
        sink.record(kind, start, Instant::now());
        ok
    }
}

fn run_store(
    spec: &StoreSpec,
    seed: u64,
    seconds: u64,
    trace: Option<Instant>,
) -> Result<Outcome, CheckFailed> {
    let (bed, setup) = timed_setup(|| build_store(spec, seed));
    let mut out = Outcome::new(setup);
    let mut clients: Vec<_> = (0..CLIENTS)
        .map(|pid| {
            CachePadded::new(StoreClient {
                bed: &bed,
                pid,
                stream: OpStream::new(seed, pid, spec.get_pct),
                puts: 0,
            })
        })
        .collect();

    out.count(&run_window(&mut clients, WARM_UP, STORE_SAMPLE_EVERY, None));
    out.windows_of(STORE_WINDOW, seconds, trace, |window, trace| {
        Ok(run_window(&mut clients, window, STORE_SAMPLE_EVERY, trace))
    })?;

    let stats = bed.store.stats();
    let client_puts: u64 = clients.iter().map(|c| c.puts).sum();
    check_store(spec, &bed, &stats, u64::from(spec.keys) + client_puts)?;
    if spec.crashed_per_shard > 0 {
        check_dead_shard_sheds(spec, &bed.store)?;
    }
    out.shard_ops = stats.iter().map(|s| s.ops).collect();
    out.sheds = stats.iter().map(|s| s.sheds).sum();
    Ok(out)
}

/// The state the run left behind is the state its inputs imply.
fn check_store(
    spec: &StoreSpec,
    bed: &StoreBed,
    stats: &[ShardStats],
    puts_issued: u64,
) -> Result<(), CheckFailed> {
    let store = &bed.store;
    check!(
        store.len() == spec.keys as usize,
        "len() = {} with {} keys",
        store.len(),
        spec.keys
    );
    let mut visits = vec![0u8; spec.keys as usize];
    let mut bad_values = 0u64;
    store.for_each(0, &mut |key, value| {
        match visits.get_mut(key as usize) {
            Some(v) => *v = v.saturating_add(1),
            None => bad_values += 1,
        }
        bad_values += u64::from(!verifies(key as u32, value));
    });
    check!(
        bad_values == 0,
        "for_each met {bad_values} foreign keys or values under the wrong key"
    );
    let exactly_once = visits.iter().filter(|&&v| v == 1).count();
    check!(
        exactly_once == visits.len(),
        "for_each visited {exactly_once} of {} keys exactly once",
        visits.len()
    );

    let mut committed = 0u64;
    for (s, stats) in stats.iter().enumerate() {
        let shard = store.shard(s);
        committed += (0..shard.k())
            .map(|name| shard.journal().committed(name))
            .sum::<u64>();
        check!(
            stats.sheds == 0,
            "shard {s} shed {} blocking-surface ops",
            stats.sheds
        );
        check!(
            stats.in_flight_lanes == spec.crashed_per_shard
                && stats.occupancy == spec.crashed_per_shard,
            "shard {s} idle with {} in-flight lanes and occupancy {}, expected {} of each",
            stats.in_flight_lanes,
            stats.occupancy,
            spec.crashed_per_shard
        );
    }
    check!(
        committed == puts_issued,
        "journals committed {committed} puts, {puts_issued} were issued"
    );
    Ok(())
}

/// Checked, not timed: once shard 0's last slot dies too, the
/// non-blocking surface sheds there while another shard still serves.
fn check_dead_shard_sheds(spec: &StoreSpec, store: &KvStore) -> Result<(), CheckFailed> {
    let (dead, live) = (key_on(store, spec, 0), key_on(store, spec, 1));
    let last_pid = CLIENTS + spec.shards * spec.crashed_per_shard;
    store.crash_in_cs(last_pid, u64::from(dead), u64::from(encode(dead, 0)));
    check!(
        store.try_get(0, u64::from(dead)).is_none(),
        "try_get on the dead shard did not shed"
    );
    check!(
        store
            .try_put(1, u64::from(dead), u64::from(encode(dead, 1)))
            .is_none(),
        "try_put on the dead shard did not shed"
    );
    check!(
        store.try_put(1, u64::from(live), u64::from(encode(live, 2))) == Some(Ok(())),
        "try_put on a live shard did not serve"
    );
    check!(
        matches!(store.try_get(0, u64::from(live)), Some(Some(v)) if v == u64::from(encode(live, 2))),
        "try_get on a live shard did not return the value just put"
    );
    let stats = store.stats();
    check!(
        stats[0].sheds == 2 && stats[1].sheds == 0,
        "sheds {} / {} after the demonstration",
        stats[0].sheds,
        stats[1].sheds
    );
    check!(
        stats[0].in_flight_lanes == spec.k,
        "dead shard shows {} in-flight lanes",
        stats[0].in_flight_lanes
    );
    Ok(())
}

// ---------------------------------------------------------------- queue

type QueueBed = Resilient<WfQueue<u64>>;

fn build_queue() -> QueueBed {
    Resilient::new(N, CLIENTS, WfQueue::new(CLIENTS))
}

/// One op = `enqueue` + `dequeue` under one `with`. A value names its
/// producer and that producer's sequence number, so every dequeue can
/// check FIFO order per producer without knowing the interleaving.
struct QueueClient<'a> {
    bed: &'a QueueBed,
    pid: usize,
    nonces: SplitMix64,
    next_seq: u64,
    last_seen: [u64; CLIENTS],
}

const SEQ_SHIFT: u32 = 16;
const PRODUCER_SHIFT: u32 = 56;

impl QueueClient<'_> {
    fn in_order(&mut self, got: Option<u64>) -> bool {
        let Some(value) = got else { return false };
        let producer = (value >> PRODUCER_SHIFT) as usize;
        let seq = (value >> SEQ_SHIFT) & ((1 << (PRODUCER_SHIFT - SEQ_SHIFT)) - 1);
        let Some(last) = self.last_seen.get_mut(producer) else {
            return false;
        };
        let ok = seq > *last;
        *last = seq;
        ok
    }
}

impl Client for QueueClient<'_> {
    type Op = u64;

    fn draw(&mut self) -> u64 {
        self.next_seq += 1;
        (self.pid as u64) << PRODUCER_SHIFT | self.next_seq << SEQ_SHIFT | self.nonces.next() >> 48
    }

    fn exec(&mut self, value: u64) -> bool {
        let got = self.bed.with(self.pid, |queue, name| {
            queue.enqueue(name, value);
            queue.dequeue(name)
        });
        self.in_order(got)
    }

    fn exec_traced(&mut self, value: u64, sink: &mut SpanSink) -> bool {
        let got = self.bed.with(self.pid, |queue, name| {
            let t0 = Instant::now();
            queue.enqueue(name, value);
            let t1 = Instant::now();
            let got = queue.dequeue(name);
            sink.record(OpKind::Write, t0, t1);
            sink.record(OpKind::Read, t1, Instant::now());
            got
        });
        self.in_order(got)
    }
}

/// Every window starts from an empty log on a fresh object and is not
/// warmed up: each op replays the history, so how long the history gets
/// in a window is part of what the workload measures.
fn run_queue(seed: u64, seconds: u64, trace: Option<Instant>) -> Result<Outcome, CheckFailed> {
    let (first, setup) = timed_setup(build_queue);
    let mut out = Outcome::new(setup);
    let mut first = Some(first);
    let mut fresh_window = |window: Duration, trace: Option<Instant>| {
        let bed = first.take().unwrap_or_else(build_queue);
        let mut clients: Vec<_> = (0..CLIENTS)
            .map(|pid| {
                CachePadded::new(QueueClient {
                    bed: &bed,
                    pid,
                    nonces: SplitMix64::for_thread(seed, pid),
                    next_seq: 0,
                    last_seen: [0; CLIENTS],
                })
            })
            .collect();
        let threads = run_window(&mut clients, window, 1, trace);
        // Every pair took out as much as it put in.
        let left = bed.with(0, |queue, name| queue.dequeue(name));
        check!(left.is_none(), "queue not empty after its pairs: {left:?}");
        Ok(threads)
    };

    out.windows_of(QUEUE_WINDOW, seconds, trace, &mut fresh_window)?;
    // One object and no shedding surface: nothing to skew, nothing shed.
    Ok(out)
}
