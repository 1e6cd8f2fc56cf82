//! The execution engine behind [`crate::model`]: every model thread is a
//! real OS thread, but exactly one runs at a time. Each synchronization
//! primitive calls into [`Execution::switch`] *before* it acts; that call
//! is a *schedule point* where the engine records (or replays) a
//! scheduling decision. A depth-first search over those decisions
//! enumerates interleavings; see [`crate::model`] for the driver loop.
//!
//! ## Scheduling policy
//!
//! * **Serialization** — only the `active` thread executes model code;
//!   everyone else is parked on the execution's condvar. Hand-off through
//!   the std mutex provides the happens-before edges that make the
//!   memory backing the model physically coherent.
//! * **Preemption bounding** — switching away from a thread that could
//!   have kept running consumes one unit of the preemption budget
//!   (`LOOM_MAX_PREEMPTIONS`); once spent, the active thread runs until
//!   it blocks, yields, or finishes. Voluntary switches are free. This is
//!   the CHESS bound: most bugs need very few preemptions.
//! * **Yield demotion** — a thread that executes a spin hint
//!   ([`crate::hint::spin_loop`] / [`crate::thread::yield_now`]) is
//!   *yielded*: it becomes schedulable again only after some other thread
//!   performs a write. Re-running a pure spin re-read with no intervening
//!   write would stutter (same loads, same state), so pruning it is a
//!   sound reduction — and it makes busy-wait loops explorable without
//!   artificial iteration bounds.
//! * **Deadlock/livelock detection** — if no thread is schedulable while
//!   unfinished threads remain (everyone blocked, or every spinner waits
//!   on a write that no live thread can perform), the execution aborts
//!   and the schedule is reported: this is how lost wakeups surface.
//!
//! ## Memory model
//!
//! Atomics are tracked under an operational C11 fragment, so the
//! `Ordering` a call site declares is the ordering that is explored:
//!
//! * every location carries a **modification order** — the append order
//!   of its stores, each paired with the *message view* it released;
//! * every thread carries an **acquired view**: per location, the oldest
//!   modification-order timestamp it may still read. A load picks its
//!   store from the (bounded) suffix of the modification order at or
//!   after the view — each such choice is a [`Decision`] explored by the
//!   same DFS that explores schedules;
//! * acquire-class loads join the chosen store's message view; release-
//!   class stores deposit the storing thread's view as their message; an
//!   RMW's message also carries forward the message of the store it read
//!   (release sequences survive intervening relaxed RMWs);
//! * `SeqCst` accesses additionally synchronize through a single global
//!   `sc_view`, which is what forbids the store-buffering and IRIW
//!   splits that plain release/acquire allows;
//! * `Mutex`/`Condvar` hand-offs and `spawn`/`join` contribute their
//!   happens-before edges through per-primitive release views.
//!
//! A spinner re-scheduled after a write reads the modification-order
//! maximum on its next load (the `fresh` flag): pruning the still-stale
//! re-reads is the read-from analogue of yield demotion, and keeps
//! spin loops from diverging into unboundedly many stale branches.
//!
//! Deliberate under-approximations (documented in the crate docs): no
//! fences (the workspace uses none), bounded read-from enumeration,
//! load-buffering outcomes requiring cycles are never produced, and a
//! location's history is keyed by address (reusing a freed atomic's
//! address within one execution would splice histories).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::panic::Location;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, OnceLock};

/// Model-thread id; `0` is the thread running the model closure.
pub(crate) type Tid = usize;

/// What a blocked thread is waiting for. Mutexes and condvars are keyed
/// by address (unique while the object is alive, which spans the whole
/// execution); a stale match only causes a spurious wake followed by a
/// re-check, never a lost one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaitTarget {
    /// Waiting for a mutex at this address to be unlocked.
    Mutex(usize),
    /// Waiting for a notification on the condvar at this address.
    Condvar(usize),
    /// Waiting for the thread to finish.
    Join(Tid),
}

/// Schedulability of one model thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    /// Spinning: schedulable only once `write_seq` exceeds `since_write`.
    Yielded {
        since_write: u64,
    },
    Blocked(WaitTarget),
    Finished,
}

/// The kind of schedule point the active thread hit.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Point {
    /// An operation about to execute; `write` marks ops whose effect can
    /// wake spinners (stores, RMWs, unlocks, notifies).
    Op { write: bool },
    /// A spin hint: demote until someone writes.
    Yield,
    /// The op cannot proceed; park until the target wakes us.
    Block(WaitTarget),
    /// The thread's closure returned.
    Finish,
}

struct ThreadState {
    status: Status,
    /// Set when this thread's *previous* schedule point announced a
    /// write; the bump to `write_seq` is applied at the *next* point,
    /// i.e. once the write has physically happened.
    pending_write: bool,
    last_op: &'static str,
    last_site: &'static Location<'static>,
}

/// One recorded decision: which option, out of which set. The DFS
/// driver treats thread choices and read-from choices
/// uniformly — both are branches of the same exploration tree.
#[derive(Debug)]
pub(crate) struct Decision {
    options: Opts,
    index: usize,
}

/// The option set a [`Decision`] ranges over.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Opts {
    /// Schedulable threads at a schedule point.
    Threads(Vec<Tid>),
    /// Candidate modification-order timestamps for a load, newest first
    /// (index 0 = the choice an SC interleaving would make).
    ReadFrom(Vec<usize>),
}

impl Opts {
    fn len(&self) -> usize {
        match self {
            Opts::Threads(v) => v.len(),
            Opts::ReadFrom(v) => v.len(),
        }
    }
}

/// What a trace line records was picked.
enum Choice {
    Thread(Tid),
    ReadFrom { ts: usize, latest: usize },
}

struct TraceEntry {
    tid: Tid,
    op: &'static str,
    site: &'static Location<'static>,
    chosen: Choice,
}

/// A view: per location, the latest modification-order timestamp known.
/// Used both as a thread's acquired view and as a store's message.
type View = BTreeMap<usize, usize>;

/// Pointwise maximum: `dst` learns everything `src` knows.
fn join_view(dst: &mut View, src: &View) {
    for (&addr, &ts) in src {
        let e = dst.entry(addr).or_insert(0);
        *e = (*e).max(ts);
    }
}

/// One store in a location's modification order.
struct StoreEvent {
    /// The stored value, as raw bits.
    val: u64,
    /// The release view an acquire-class load of this store joins.
    msg: View,
}

/// The C11-fragment memory state of one execution.
struct WeakMem {
    /// Per-location modification order; index = timestamp. Entry 0 is
    /// seeded from the std atomic's value at the location's first
    /// tracked access.
    history: HashMap<usize, Vec<StoreEvent>>,
    /// Per-thread acquired views.
    views: Vec<View>,
    /// The view every `SeqCst` access synchronizes through; joining it
    /// forward (stores) and backward (loads) realizes the single total
    /// order S of C11 §32.4 closely enough to forbid SB/IRIW splits.
    sc_view: View,
    /// Release views deposited by Mutex/Condvar hand-offs, keyed by
    /// primitive address.
    sync_views: HashMap<usize, View>,
    /// Per-thread flag set when a yielded spinner is re-scheduled after
    /// a write: its next load reads the modification-order maximum
    /// (stale re-reads of a spin word are pruned, mirroring yield
    /// demotion).
    fresh: Vec<bool>,
    /// Per-thread flag: the thread's last load chose a non-latest
    /// store. A spinner stranded by such a read (every other thread
    /// done) is promoted once with `fresh` set instead of being
    /// reported stuck — modelling eventual value propagation.
    stale: Vec<bool>,
}

struct ExecInner {
    threads: Vec<ThreadState>,
    active: Tid,
    write_seq: u64,
    preemptions: u32,
    steps: u64,
    decisions: Vec<Decision>,
    depth: usize,
    trace: Vec<TraceEntry>,
    abort: Option<String>,
    /// Model threads not yet `Finished`.
    live: usize,
    /// OS worker jobs that have not yet returned.
    workers: usize,
    weak: WeakMem,
}

/// An execution that passes this many schedule points is aborted as a
/// livelock.
const MAX_STEPS: u64 = 100_000;

/// How many of the newest stores in a location's modification order a
/// load may read from (the read-from enumeration bound).
const READ_FROM_BOUND: usize = 4;

/// One execution (a single schedule) of the model closure.
pub(crate) struct Execution {
    inner: StdMutex<ExecInner>,
    cv: StdCondvar,
    /// Cap on involuntary preemptions; `None` explores exhaustively.
    max_preemptions: Option<u32>,
}

/// Panic payload used to unwind parked threads after an abort. Never
/// reported: the first (real) failure wins.
struct AbortSignal;

/// What the driver gets back from one execution.
pub(crate) struct RunOutcome {
    pub(crate) decisions: Vec<Decision>,
    pub(crate) failure: Option<String>,
    pub(crate) schedule_points: u64,
}

const INIT_SITE: &Location<'static> = Location::caller();

impl Execution {
    pub(crate) fn new(max_preemptions: Option<u32>, decisions: Vec<Decision>) -> Arc<Self> {
        Arc::new(Execution {
            inner: StdMutex::new(ExecInner {
                threads: vec![ThreadState {
                    status: Status::Runnable,
                    pending_write: false,
                    last_op: "start",
                    last_site: INIT_SITE,
                }],
                active: 0,
                write_seq: 0,
                preemptions: 0,
                steps: 0,
                decisions,
                depth: 0,
                trace: Vec::new(),
                abort: None,
                live: 1,
                workers: 1,
                weak: WeakMem {
                    history: HashMap::new(),
                    views: vec![View::new()],
                    sc_view: View::new(),
                    sync_views: HashMap::new(),
                    fresh: vec![false],
                    stale: vec![false],
                },
            }),
            cv: StdCondvar::new(),
            max_preemptions,
        })
    }

    /// Run one execution of `f` as thread 0 and wait for every model
    /// thread to finish (or for an abort to drain them).
    pub(crate) fn run(self: &Arc<Self>, f: Arc<dyn Fn() + Send + Sync>) -> RunOutcome {
        launch_thread(self, 0, Box::new(move || f()));
        let mut g = self.inner.lock().unwrap();
        while g.workers > 0 {
            g = self.cv.wait(g).unwrap();
        }
        RunOutcome {
            decisions: std::mem::take(&mut g.decisions),
            failure: g.abort.take().map(|msg| {
                let mut out = msg;
                let _ = write!(out, "\n{}", render_trace(&g.trace));
                out
            }),
            schedule_points: g.steps,
        }
    }

    /// The heart of the engine: a schedule point hit by `tid`.
    fn switch(
        self: &Arc<Self>,
        tid: Tid,
        point: Point,
        op: &'static str,
        site: &'static Location<'static>,
    ) {
        let mut g = self.inner.lock().unwrap();
        if g.abort.is_some() {
            // Teardown: drop glue running during an unwind must pass
            // through without scheduling (the execution is already dead).
            return;
        }
        debug_assert_eq!(g.active, tid, "schedule point from a non-active thread");
        g.steps += 1;
        if g.steps > MAX_STEPS {
            let msg = format!("execution exceeded {MAX_STEPS} schedule points — livelock");
            self.abort_locked(&mut g, msg);
            drop(g);
            std::panic::panic_any(AbortSignal);
        }
        // Apply the previous point's write (it has executed by now).
        if g.threads[tid].pending_write {
            g.threads[tid].pending_write = false;
            g.write_seq += 1;
        }
        g.threads[tid].last_op = op;
        g.threads[tid].last_site = site;
        g.threads[tid].status = match point {
            Point::Op { write } => {
                g.threads[tid].pending_write = write;
                Status::Runnable
            }
            Point::Yield => Status::Yielded {
                since_write: g.write_seq,
            },
            Point::Block(t) => Status::Blocked(t),
            Point::Finish => Status::Finished,
        };
        if matches!(point, Point::Finish) {
            g.live -= 1;
            g.write_seq += 1;
            for i in 0..g.threads.len() {
                if g.threads[i].status == Status::Blocked(WaitTarget::Join(tid)) {
                    g.threads[i].status = Status::Runnable;
                }
            }
            if g.live == 0 {
                self.cv.notify_all();
                return;
            }
        }
        // Schedulable set: runnable threads plus spinners someone has
        // written past.
        let ws = g.write_seq;
        let mut options: Vec<Tid> = g
            .threads
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match t.status {
                Status::Runnable => Some(i),
                Status::Yielded { since_write } if ws > since_write => Some(i),
                _ => None,
            })
            .collect();
        if options.is_empty() {
            // A spinner can strand itself on a stale read with no writer
            // left to promote it; on real hardware the final store
            // eventually propagates. Promote such threads once with
            // `fresh` set (the next load reads the mo maximum) — a spin
            // that is stuck even on the latest value still deadlocks on
            // the next pass.
            let g = &mut *g;
            for (i, t) in g.threads.iter_mut().enumerate() {
                if matches!(t.status, Status::Yielded { .. }) && g.weak.stale[i] {
                    g.weak.stale[i] = false;
                    g.weak.fresh[i] = true;
                    t.status = Status::Runnable;
                    options.push(i);
                }
            }
        }
        if options.is_empty() {
            let msg = format!(
                "deadlock: no schedulable thread ({} alive)\n{}",
                g.live,
                describe_threads(&g.threads)
            );
            self.abort_locked(&mut g, msg);
            drop(g);
            std::panic::panic_any(AbortSignal);
        }
        // Preemption bounding (CHESS): once the budget is spent, a thread
        // that could continue must continue.
        let voluntary = !matches!(point, Point::Op { .. });
        if !voluntary {
            if let Some(maxp) = self.max_preemptions {
                if g.preemptions >= maxp && options.contains(&tid) {
                    options = vec![tid];
                }
            }
        }
        let chosen = if g.depth < g.decisions.len() {
            let d = &g.decisions[g.depth];
            assert_eq!(
                d.options,
                Opts::Threads(options),
                "nondeterministic model: replay diverged at depth {}",
                g.depth
            );
            match &d.options {
                Opts::Threads(opts) => opts[d.index],
                Opts::ReadFrom(_) => unreachable!("asserted equal above"),
            }
        } else {
            let first = options[0];
            g.decisions.push(Decision {
                options: Opts::Threads(options),
                index: 0,
            });
            first
        };
        g.depth += 1;
        g.trace.push(TraceEntry {
            tid,
            op,
            site,
            chosen: Choice::Thread(chosen),
        });
        if !voluntary && chosen != tid {
            g.preemptions += 1;
        }
        if let Status::Yielded { .. } = g.threads[chosen].status {
            g.threads[chosen].status = Status::Runnable;
            // A promoted spinner was woken by a write: its next load
            // must observe it (stale re-reads are pruned).
            g.weak.fresh[chosen] = true;
        }
        g.active = chosen;
        self.cv.notify_all();
        if matches!(point, Point::Finish) || chosen == tid {
            return;
        }
        self.park(g, tid);
    }

    /// Park until this thread is scheduled again (or the execution dies).
    fn park(self: &Arc<Self>, mut g: std::sync::MutexGuard<'_, ExecInner>, tid: Tid) {
        loop {
            if g.abort.is_some() {
                drop(g);
                std::panic::panic_any(AbortSignal);
            }
            if g.active == tid && g.threads[tid].status == Status::Runnable {
                return;
            }
            g = self.cv.wait(g).unwrap();
        }
    }

    fn abort_locked(&self, g: &mut ExecInner, msg: String) {
        if g.abort.is_none() {
            g.abort = Some(msg);
        }
        self.cv.notify_all();
    }

    /// Register a freshly spawned model thread (caller is active).
    fn register_thread(&self) -> Tid {
        let mut g = self.inner.lock().unwrap();
        let tid = g.threads.len();
        g.threads.push(ThreadState {
            status: Status::Runnable,
            pending_write: false,
            last_op: "spawned",
            last_site: INIT_SITE,
        });
        g.live += 1;
        g.workers += 1;
        // spawn happens-before the child's first step: the child starts
        // with everything its parent has acquired.
        let parent = g.active;
        let w = &mut g.weak;
        let v = w.views[parent].clone();
        w.views.push(v);
        w.fresh.push(false);
        w.stale.push(false);
        tid
    }

    /// Wake every thread blocked on `target` (they re-check and may
    /// re-block; wakes are never lost because block decisions are made
    /// while serialized).
    fn wake_all(&self, target: WaitTarget) {
        let mut g = self.inner.lock().unwrap();
        for t in &mut g.threads {
            if t.status == Status::Blocked(target) {
                t.status = Status::Runnable;
            }
        }
    }

    /// Wake the lowest-tid thread blocked on `target`; returns whether a
    /// waiter existed.
    fn wake_one(&self, target: WaitTarget) -> bool {
        let mut g = self.inner.lock().unwrap();
        for t in &mut g.threads {
            if t.status == Status::Blocked(target) {
                t.status = Status::Runnable;
                return true;
            }
        }
        false
    }

    fn is_finished(&self, tid: Tid) -> bool {
        let mut g = self.inner.lock().unwrap();
        let done = g.threads[tid].status == Status::Finished;
        if done {
            // join: everything the finished thread did happens-before
            // the joiner's continuation.
            let joiner = g.active;
            let child = g.weak.views[tid].clone();
            join_view(&mut g.weak.views[joiner], &child);
        }
        done
    }

    /// A worker's job ended (normally or by panic).
    fn worker_done(&self) {
        let mut g = self.inner.lock().unwrap();
        g.workers -= 1;
        if g.workers == 0 {
            self.cv.notify_all();
        }
    }

    // -- memory model -----------------------------------------------------

    /// A load: pick (replay or branch) which store in `addr`'s
    /// modification order to read. While the execution is tearing down
    /// it reads `init`, the value the std atomic holds.
    fn weak_load(
        self: &Arc<Self>,
        tid: Tid,
        addr: usize,
        init: u64,
        class: OrdClass,
        op: &'static str,
        site: &'static Location<'static>,
    ) -> u64 {
        let mut g = self.inner.lock().unwrap();
        if g.abort.is_some() {
            return init;
        }
        let w = &mut g.weak;
        seed(&mut w.history, addr, init);
        if class == OrdClass::SeqCst {
            // An SC load reads no store older than the last SC store to
            // this location: joining the SC view raises the floor first.
            let sc = w.sc_view.clone();
            join_view(&mut w.views[tid], &sc);
        }
        let latest = w.history[&addr].len() - 1;
        let floor = if std::mem::take(&mut w.fresh[tid]) {
            latest
        } else {
            w.views[tid].get(&addr).copied().unwrap_or(0)
        };
        let lo = floor.max((latest + 1).saturating_sub(READ_FROM_BOUND));
        let candidates: Vec<usize> = (lo..=latest).rev().collect();
        let ts = if candidates.len() == 1 {
            candidates[0]
        } else {
            let idx = if g.depth < g.decisions.len() {
                let d = &g.decisions[g.depth];
                assert_eq!(
                    d.options,
                    Opts::ReadFrom(candidates.clone()),
                    "nondeterministic model: replay diverged at depth {}",
                    g.depth
                );
                d.index
            } else {
                g.decisions.push(Decision {
                    options: Opts::ReadFrom(candidates.clone()),
                    index: 0,
                });
                0
            };
            g.depth += 1;
            let ts = candidates[idx];
            g.trace.push(TraceEntry {
                tid,
                op,
                site,
                chosen: Choice::ReadFrom { ts, latest },
            });
            ts
        };
        let w = &mut g.weak;
        w.stale[tid] = ts < latest;
        if class.acquires() {
            let msg = w.history[&addr][ts].msg.clone();
            join_view(&mut w.views[tid], &msg);
        }
        let e = w.views[tid].entry(addr).or_insert(0);
        *e = (*e).max(ts);
        w.history[&addr][ts].val
    }

    /// A store: append to `addr`'s modification order. The caller
    /// performs the std write-through afterwards, so the physical value
    /// stays the mo-maximum.
    fn weak_store(&self, tid: Tid, addr: usize, init: u64, val: u64, class: OrdClass) {
        let mut g = self.inner.lock().unwrap();
        if g.abort.is_some() {
            return;
        }
        let w = &mut g.weak;
        seed(&mut w.history, addr, init);
        if class == OrdClass::SeqCst {
            let sc = w.sc_view.clone();
            join_view(&mut w.views[tid], &sc);
        }
        let ts = w.history[&addr].len();
        let mut msg = if class.releases() {
            w.views[tid].clone()
        } else {
            View::new()
        };
        msg.insert(addr, ts);
        w.history
            .get_mut(&addr)
            .unwrap()
            .push(StoreEvent { val, msg });
        w.views[tid].insert(addr, ts);
        if class == OrdClass::SeqCst {
            let v = w.views[tid].clone();
            join_view(&mut w.sc_view, &v);
        }
    }

    /// RMW bookkeeping. The caller has already performed the
    /// std operation (serialized, and the physical value equals the
    /// modification-order maximum), passing the observed `old` bits and
    /// the stored bits — `None` for a failed compare-exchange, which is
    /// a load with the failure ordering.
    fn weak_rmw(
        &self,
        tid: Tid,
        addr: usize,
        old: u64,
        new: Option<u64>,
        success: OrdClass,
        failure: OrdClass,
    ) {
        let mut g = self.inner.lock().unwrap();
        if g.abort.is_some() {
            return;
        }
        let w = &mut g.weak;
        seed(&mut w.history, addr, old);
        let class = if new.is_some() { success } else { failure };
        let ts_old = w.history[&addr].len() - 1;
        // An RMW (even a failed CAS) reads the mo maximum: stores write
        // through, so the serialized std value is always the newest.
        w.stale[tid] = false;
        if class == OrdClass::SeqCst {
            let sc = w.sc_view.clone();
            join_view(&mut w.views[tid], &sc);
        }
        if class.acquires() {
            let msg = w.history[&addr][ts_old].msg.clone();
            join_view(&mut w.views[tid], &msg);
        }
        {
            let e = w.views[tid].entry(addr).or_insert(0);
            *e = (*e).max(ts_old);
        }
        if let Some(val) = new {
            let ts = ts_old + 1;
            // An RMW extends the release sequence of the store it read:
            // its message carries that store's message forward even when
            // the RMW itself is relaxed.
            let mut msg = w.history[&addr][ts_old].msg.clone();
            if class.releases() {
                let v = w.views[tid].clone();
                join_view(&mut msg, &v);
            }
            msg.insert(addr, ts);
            w.history
                .get_mut(&addr)
                .unwrap()
                .push(StoreEvent { val, msg });
            w.views[tid].insert(addr, ts);
            if class == OrdClass::SeqCst {
                let v = w.views[tid].clone();
                join_view(&mut w.sc_view, &v);
            }
        }
    }

    /// The calling thread acquired the sync primitive at `addr`: join
    /// the release view its last holder deposited.
    fn sync_acquire_at(&self, tid: Tid, addr: usize) {
        let mut g = self.inner.lock().unwrap();
        let w = &mut g.weak;
        if let Some(v) = w.sync_views.get(&addr) {
            join_view(&mut w.views[tid], v);
        }
    }

    /// The calling thread is releasing the sync primitive at `addr`:
    /// deposit everything it has acquired for the next holder.
    fn sync_release_at(&self, tid: Tid, addr: usize) {
        let mut g = self.inner.lock().unwrap();
        let w = &mut g.weak;
        join_view(w.sync_views.entry(addr).or_default(), &w.views[tid]);
    }

    /// Record a panic that escaped a model thread.
    fn abort_from_panic(&self, tid: Tid, payload: Box<dyn std::any::Any + Send>) {
        if payload.downcast_ref::<AbortSignal>().is_some() {
            return; // secondary unwind caused by the original abort
        }
        let text = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".to_string());
        let mut g = self.inner.lock().unwrap();
        let msg = format!("thread t{tid} panicked: {text}");
        if g.abort.is_none() {
            g.abort = Some(msg);
        }
        self.cv.notify_all();
    }
}

/// Seed a location's modification order from the std atomic's current
/// value at its first tracked access.
fn seed(history: &mut HashMap<usize, Vec<StoreEvent>>, addr: usize, init: u64) {
    history.entry(addr).or_insert_with(|| {
        vec![StoreEvent {
            val: init,
            msg: View::new(),
        }]
    });
}

/// Memory-ordering class of an access, mapped from
/// `std::sync::atomic::Ordering` by the facade types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OrdClass {
    /// No synchronization; only coherence.
    Relaxed,
    /// Load side of a synchronizes-with edge.
    Acquire,
    /// Store side of a synchronizes-with edge.
    Release,
    /// Both sides (RMWs).
    AcqRel,
    /// Additionally ordered by the single SC total order.
    SeqCst,
}

impl OrdClass {
    fn acquires(self) -> bool {
        matches!(
            self,
            OrdClass::Acquire | OrdClass::AcqRel | OrdClass::SeqCst
        )
    }

    fn releases(self) -> bool {
        matches!(
            self,
            OrdClass::Release | OrdClass::AcqRel | OrdClass::SeqCst
        )
    }
}

/// Map a std `Ordering` to its class. `Ordering` is `#[non_exhaustive]`;
/// anything unrecognized is treated as `SeqCst` (the safe direction).
pub(crate) fn ord_class(order: std::sync::atomic::Ordering) -> OrdClass {
    use std::sync::atomic::Ordering as O;
    match order {
        O::Relaxed => OrdClass::Relaxed,
        O::Acquire => OrdClass::Acquire,
        O::Release => OrdClass::Release,
        O::AcqRel => OrdClass::AcqRel,
        _ => OrdClass::SeqCst,
    }
}

fn describe_threads(threads: &[ThreadState]) -> String {
    let mut out = String::new();
    for (i, t) in threads.iter().enumerate() {
        let _ = writeln!(
            out,
            "  t{i}: {:?} — last {} at {}:{}",
            t.status,
            t.last_op,
            t.last_site.file(),
            t.last_site.line()
        );
    }
    out
}

fn render_trace(trace: &[TraceEntry]) -> String {
    const SHOWN: usize = 400;
    let skip = trace.len().saturating_sub(SHOWN);
    let mut out = format!(
        "schedule ({} points{}):\n",
        trace.len(),
        if skip > 0 {
            format!(", last {SHOWN} shown")
        } else {
            String::new()
        }
    );
    for e in &trace[skip..] {
        let chosen = match e.chosen {
            Choice::Thread(t) => format!("t{t}"),
            Choice::ReadFrom { ts, latest } => format!("reads mo#{ts}/{latest}"),
        };
        let _ = writeln!(
            out,
            "  t{} {:<24} {}:{} -> {}",
            e.tid,
            e.op,
            e.site.file(),
            e.site.line(),
            chosen
        );
    }
    out
}

/// Advance the decision stack to the next unexplored schedule; `false`
/// when the space is exhausted.
pub(crate) fn advance(decisions: &mut Vec<Decision>) -> bool {
    while let Some(d) = decisions.last_mut() {
        if d.index + 1 < d.options.len() {
            d.index += 1;
            return true;
        }
        decisions.pop();
    }
    false
}

// ---------------------------------------------------------------------------
// Thread-local model context and the public-ish hooks the primitives use.

#[derive(Clone)]
struct Ctx {
    exec: Arc<Execution>,
    tid: Tid,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

fn ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

/// A schedule point for an operation about to execute. A no-op outside
/// a model, so the facade's types stay usable for construction, `Debug`
/// printing, and single-threaded setup code.
pub(crate) fn schedule(op: &'static str, write: bool, site: &'static Location<'static>) {
    if let Some(c) = ctx() {
        c.exec.switch(c.tid, Point::Op { write }, op, site);
    }
}

/// A spin hint: demote this thread until another thread writes. No-op
/// outside a model.
pub(crate) fn yield_point(op: &'static str, site: &'static Location<'static>) {
    if let Some(c) = ctx() {
        c.exec.switch(c.tid, Point::Yield, op, site);
    }
}

/// Park on `target`; returns when some thread wakes it (re-check and
/// re-block if the condition is still false). Blocking is meaningless
/// outside a model — the caller must check [`in_model`] first.
pub(crate) fn block_on(target: WaitTarget, op: &'static str, site: &'static Location<'static>) {
    let c = ctx().expect("kex-loom blocking primitive used outside of kex_loom::model()");
    c.exec.switch(c.tid, Point::Block(target), op, site);
}

/// Wake every thread blocked on `target`. No-op outside a model.
pub(crate) fn wake_all(target: WaitTarget) {
    if let Some(c) = ctx() {
        c.exec.wake_all(target);
    }
}

/// Wake one thread blocked on `target`. No-op outside a model.
pub(crate) fn wake_one(target: WaitTarget) {
    if let Some(c) = ctx() {
        c.exec.wake_one(target);
    }
}

/// Load of the atomic at `addr`, whose std value is `init` — which is
/// also what a load outside a model reads.
pub(crate) fn weak_load(
    addr: usize,
    init: u64,
    class: OrdClass,
    op: &'static str,
    site: &'static Location<'static>,
) -> u64 {
    match ctx() {
        Some(c) => c.exec.weak_load(c.tid, addr, init, class, op, site),
        None => init,
    }
}

/// Store tracking; see [`Execution::weak_store`]. The caller always
/// performs the std write-through afterwards. No-op outside a model.
pub(crate) fn weak_store(addr: usize, init: u64, val: u64, class: OrdClass) {
    if let Some(c) = ctx() {
        c.exec.weak_store(c.tid, addr, init, val, class);
    }
}

/// RMW tracking; see [`Execution::weak_rmw`]. The caller has already
/// performed the std operation. No-op outside a model.
pub(crate) fn weak_rmw(
    addr: usize,
    old: u64,
    new: Option<u64>,
    success: OrdClass,
    failure: OrdClass,
) {
    if let Some(c) = ctx() {
        c.exec.weak_rmw(c.tid, addr, old, new, success, failure);
    }
}

/// Happens-before edge into the calling thread from the last release of
/// the sync primitive at `addr` (mutex acquisition, condvar re-lock).
pub(crate) fn sync_acquire(addr: usize) {
    if let Some(c) = ctx() {
        c.exec.sync_acquire_at(c.tid, addr);
    }
}

/// Happens-before edge out of the calling thread through the sync
/// primitive at `addr` (mutex release, condvar wait-release).
pub(crate) fn sync_release(addr: usize) {
    if let Some(c) = ctx() {
        c.exec.sync_release_at(c.tid, addr);
    }
}

/// Register and launch a new model thread running `body`.
pub(crate) fn spawn_model_thread(body: Box<dyn FnOnce() + Send>) -> Tid {
    let c = ctx().expect("kex_loom::thread::spawn used outside of kex_loom::model()");
    let tid = c.exec.register_thread();
    launch_thread(&c.exec, tid, body);
    tid
}

/// Whether model thread `tid` has finished (for join loops).
pub(crate) fn thread_finished(tid: Tid) -> bool {
    ctx()
        .expect("JoinHandle::join used outside of kex_loom::model()")
        .exec
        .is_finished(tid)
}

// ---------------------------------------------------------------------------
// Worker pool: model threads are real OS threads, reused across the
// (possibly hundreds of thousands of) executions in one exploration.

type Job = Box<dyn FnOnce() + Send + 'static>;

static POOL: OnceLock<StdMutex<Vec<Sender<Job>>>> = OnceLock::new();

fn pool() -> &'static StdMutex<Vec<Sender<Job>>> {
    POOL.get_or_init(|| StdMutex::new(Vec::new()))
}

fn spawn_in_pool(job: Job) {
    let idle = pool().lock().unwrap().pop();
    match idle {
        Some(tx) => match tx.send(job) {
            Ok(()) => {}
            Err(e) => spawn_worker(e.0), // worker died; replace it
        },
        None => spawn_worker(job),
    }
}

fn spawn_worker(first: Job) {
    let (tx, rx) = channel::<Job>();
    tx.send(first).expect("fresh channel");
    std::thread::Builder::new()
        .name("kex-loom-worker".into())
        .spawn(move || {
            while let Ok(job) = rx.recv() {
                job();
                pool().lock().unwrap().push(tx.clone());
            }
        })
        .expect("spawn kex-loom worker");
}

fn launch_thread(exec: &Arc<Execution>, tid: Tid, body: Job) {
    let exec = exec.clone();
    spawn_in_pool(Box::new(move || {
        CTX.with(|c| {
            *c.borrow_mut() = Some(Ctx {
                exec: exec.clone(),
                tid,
            })
        });
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Wait to be scheduled for the first time.
            {
                let g = exec.inner.lock().unwrap();
                exec.park(g, tid);
            }
            body();
            let c = CTX.with(|c| c.borrow().clone()).expect("ctx set above");
            c.exec
                .switch(tid, Point::Finish, "finish", Location::caller());
        }));
        CTX.with(|c| *c.borrow_mut() = None);
        if let Err(payload) = result {
            exec.abort_from_panic(tid, payload);
        }
        exec.worker_done();
    }));
}

/// True if the calling OS thread currently hosts a model thread. Used by
/// the atomics to decide whether to schedule (outside a model, the
/// facade's types behave like plain `SeqCst` std atomics so `Debug`
/// printing and construction stay usable).
pub(crate) fn in_model() -> bool {
    CTX.with(|c| c.borrow().is_some())
}
