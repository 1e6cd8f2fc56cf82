//! The global counter registry, section spans, and attribution context.
//!
//! Layout: a static array of [`MAX_PIDS`](crate::MAX_PIDS) + 1
//! cache-line-aligned per-process blocks (the extra slot is the shared
//! *untracked* bucket for operations outside any span or by pids beyond
//! the limit). Each block holds per-section counters and per-section
//! latency histograms. In the intended regime — one thread per process
//! id, as every harness in this repo runs — each block has a single
//! logical writer, so the `Relaxed`
//! fetch-adds are uncontended and never bounce cache lines between
//! processes (the blocks are 128-byte aligned for exactly the reason
//! `kex_util::CachePadded` exists).
//!
//! Attribution is a thread-local `(pid, section)` cell maintained by
//! RAII [`SpanGuard`]s. Spans nest (e.g. `FastPathKex` entry opens the
//! underlying `TreeKex` entry, which opens a chain entry): a nested span
//! of the *same* `(pid, section)` is transparent — it restores its
//! predecessor on drop and records neither latency nor completion — so
//! "entry section latency" always means the outermost entry span.

use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use crate::hist::Hist;
use crate::MAX_PIDS;

/// Protocol section an operation is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Section {
    /// The entry section (acquire path) of a protocol.
    Entry = 0,
    /// The exit section (release path) of a protocol.
    Exit = 1,
    /// Inside the critical section; drives the occupancy gauge.
    Cs = 2,
    /// Instrumented work outside any annotated section.
    Other = 3,
    /// A whole service-layer store operation (route + admission +
    /// object op + journal); the protocol sections it contains nest
    /// transparently inside it. Opened by `kex-store`.
    Store = 4,
}

/// Number of [`Section`] variants.
pub(crate) const N_SECTIONS: usize = 5;

impl Section {
    /// All sections, in discriminant order.
    pub const ALL: [Section; N_SECTIONS] = [
        Section::Entry,
        Section::Exit,
        Section::Cs,
        Section::Other,
        Section::Store,
    ];

    /// Human-readable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Section::Entry => "entry",
            Section::Exit => "exit",
            Section::Cs => "cs",
            Section::Other => "other",
            Section::Store => "store",
        }
    }
}

/// Kind of an instrumented atomic operation; the discriminant indexes
/// [`SectionCounters::ops`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    Load = 0,
    Store = 1,
    Rmw = 2,
}

/// Thread-local attribution: which `(pid, section)` owns the
/// operations this thread performs right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ctx {
    /// Pid slot index (0..=MAX_PIDS; MAX_PIDS = untracked).
    slot: u16,
    section: u8,
}

const UNTRACKED: u16 = MAX_PIDS as u16;
const AMBIENT: Ctx = Ctx {
    slot: UNTRACKED,
    section: Section::Other as u8,
};

thread_local! {
    static CURRENT: Cell<Ctx> = const { Cell::new(AMBIENT) };
}

/// Counters for one `(process, section)` pair.
pub(crate) struct SectionCounters {
    /// Operation counts indexed by [`OpKind`].
    pub ops: [AtomicU64; 3],
    /// Estimated remote references under the CC model.
    pub cc_remote: AtomicU64,
    /// Spin-loop hint iterations.
    pub spins: AtomicU64,
    /// Completed top-level spans of this section.
    pub spans: AtomicU64,
    /// Total nanoseconds across completed top-level spans.
    pub span_ns: AtomicU64,
}

impl SectionCounters {
    const fn new() -> Self {
        SectionCounters {
            ops: [const { AtomicU64::new(0) }; 3],
            cc_remote: AtomicU64::new(0),
            spins: AtomicU64::new(0),
            spans: AtomicU64::new(0),
            span_ns: AtomicU64::new(0),
        }
    }

    fn reset(&self) {
        for op in &self.ops {
            op.store(0, Relaxed);
        }
        self.cc_remote.store(0, Relaxed);
        self.spins.store(0, Relaxed);
        self.spans.store(0, Relaxed);
        self.span_ns.store(0, Relaxed);
    }
}

/// One process's block: 128-byte aligned so neighbouring processes
/// never share a cache line.
#[repr(align(128))]
pub(crate) struct PerPid {
    pub sec: [SectionCounters; N_SECTIONS],
    pub hist: [Hist; N_SECTIONS],
}

impl PerPid {
    const fn new() -> Self {
        PerPid {
            sec: [const { SectionCounters::new() }; N_SECTIONS],
            hist: [const { Hist::new() }; N_SECTIONS],
        }
    }
}

/// MAX_PIDS tracked blocks plus the untracked bucket at index MAX_PIDS.
static REGISTRY: [PerPid; MAX_PIDS + 1] = [const { PerPid::new() }; MAX_PIDS + 1];

/// Critical-section occupancy gauge (current and high-water number of
/// live top-level [`Section::Cs`] spans).
struct Gauge {
    cur: AtomicI64,
    max: AtomicI64,
}

static OCCUPANCY: Gauge = Gauge {
    cur: AtomicI64::new(0),
    max: AtomicI64::new(0),
};

#[inline]
fn pid_slot(pid: usize) -> u16 {
    if pid < MAX_PIDS {
        pid as u16
    } else {
        UNTRACKED
    }
}

/// The pid the current thread attributes operations to, if a span with
/// a tracked pid is live.
#[inline]
pub(crate) fn current_pid() -> Option<usize> {
    let slot = CURRENT.with(|c| c.get().slot);
    (slot != UNTRACKED).then_some(slot as usize)
}

/// Records one atomic operation against the current context.
#[inline]
pub(crate) fn record_op(kind: OpKind, cc_remote: bool) {
    let ctx = CURRENT.with(|c| c.get());
    let sc = &REGISTRY[ctx.slot as usize].sec[ctx.section as usize];
    sc.ops[kind as usize].fetch_add(1, Relaxed);
    if cc_remote {
        sc.cc_remote.fetch_add(1, Relaxed);
    }
}

/// Records one spin-loop iteration against the current context.
#[inline]
pub(crate) fn record_spin() {
    let ctx = CURRENT.with(|c| c.get());
    REGISTRY[ctx.slot as usize].sec[ctx.section as usize]
        .spins
        .fetch_add(1, Relaxed);
}

/// RAII guard returned by [`span`]; closes the span on drop.
///
/// Dropping restores the previous `(pid, section)` context, and — for
/// the outermost span of its `(pid, section)` — records the section
/// latency into the histogram, bumps the completion counter, and (for
/// [`Section::Cs`]) decrements the occupancy gauge.
#[derive(Debug)]
#[must_use = "a span guard attributes operations only while it is live"]
pub struct SpanGuard {
    prev: Ctx,
    me: Ctx,
    start: Instant,
    top_level: bool,
}

/// Opens a section span attributing this thread's instrumented
/// operations to `(pid, section)` until the returned guard drops.
///
/// Pids at or above [`MAX_PIDS`](crate::MAX_PIDS) fold into the shared
/// untracked bucket. Re-opening the section already live on this thread
/// (a nested span of the same `(pid, section)`) is transparent: it
/// neither double-counts completions nor re-records latency.
pub fn span(section: Section, pid: usize) -> SpanGuard {
    let me = Ctx {
        slot: pid_slot(pid),
        section: section as u8,
    };
    let prev = CURRENT.with(|c| c.replace(me));
    let top_level = prev != me;
    if top_level && section == Section::Cs {
        let cur = OCCUPANCY.cur.fetch_add(1, Relaxed) + 1;
        OCCUPANCY.max.fetch_max(cur, Relaxed);
    }
    SpanGuard {
        prev,
        me,
        start: Instant::now(),
        top_level,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
        if !self.top_level {
            return;
        }
        let ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let block = &REGISTRY[self.me.slot as usize];
        let sc = &block.sec[self.me.section as usize];
        sc.spans.fetch_add(1, Relaxed);
        sc.span_ns.fetch_add(ns, Relaxed);
        block.hist[self.me.section as usize].record(ns);
        if self.me.section == Section::Cs as u8 {
            OCCUPANCY.cur.fetch_sub(1, Relaxed);
        }
    }
}

/// Raw access for the snapshot layer.
pub(crate) struct PidView {
    pub sec: [SectionView; N_SECTIONS],
    pub hist: [[u64; crate::hist::BUCKETS]; N_SECTIONS],
}

/// Loaded values of one [`SectionCounters`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SectionView {
    pub ops: [u64; 3],
    pub cc_remote: u64,
    pub spins: u64,
    pub spans: u64,
    pub span_ns: u64,
}

impl SectionView {
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }
}

pub(crate) fn load_pid(slot: usize) -> PidView {
    let block = &REGISTRY[slot];
    let mut sec = [SectionView::default(); N_SECTIONS];
    for (view, counters) in sec.iter_mut().zip(&block.sec) {
        *view = SectionView {
            ops: [
                counters.ops[0].load(Relaxed),
                counters.ops[1].load(Relaxed),
                counters.ops[2].load(Relaxed),
            ],
            cc_remote: counters.cc_remote.load(Relaxed),
            spins: counters.spins.load(Relaxed),
            spans: counters.spans.load(Relaxed),
            span_ns: counters.span_ns.load(Relaxed),
        };
    }
    let mut hist = [[0u64; crate::hist::BUCKETS]; N_SECTIONS];
    for (out, h) in hist.iter_mut().zip(&block.hist) {
        *out = h.load();
    }
    PidView { sec, hist }
}

pub(crate) fn load_occupancy() -> (i64, i64) {
    (OCCUPANCY.cur.load(Relaxed), OCCUPANCY.max.load(Relaxed))
}

pub(crate) fn reset() {
    for block in &REGISTRY {
        for sc in &block.sec {
            sc.reset();
        }
        for h in &block.hist {
            h.reset();
        }
    }
    // Keep `cur` (live spans must still balance); restart the high-water
    // mark from the present occupancy.
    let cur = OCCUPANCY.cur.load(Relaxed);
    OCCUPANCY.max.store(cur, Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_attribute_and_nest() {
        let _g = crate::testlock::hold();
        crate::reset();
        {
            let _e = span(Section::Entry, 3);
            record_spin();
            {
                // Nested same-section span: transparent.
                let _inner = span(Section::Entry, 3);
                record_spin();
            }
            {
                let _cs = span(Section::Cs, 3);
                record_spin();
            }
            record_spin();
        }
        let view = load_pid(3);
        assert_eq!(view.sec[Section::Entry as usize].spins, 3);
        assert_eq!(view.sec[Section::Entry as usize].spans, 1);
        assert_eq!(view.sec[Section::Cs as usize].spins, 1);
        assert_eq!(view.sec[Section::Cs as usize].spans, 1);
        let (_, max) = load_occupancy();
        assert_eq!(max, 1);
        // Entry histogram recorded exactly the one top-level span.
        let entry_hist: u64 = view.hist[Section::Entry as usize].iter().sum();
        assert_eq!(entry_hist, 1);
    }

    #[test]
    fn untracked_pid_folds_into_shared_bucket() {
        let _g = crate::testlock::hold();
        crate::reset();
        {
            let _s = span(Section::Exit, MAX_PIDS + 7);
            record_spin();
        }
        assert_eq!(load_pid(MAX_PIDS).sec[Section::Exit as usize].spins, 1);
        assert_eq!(current_pid(), None);
    }
}
