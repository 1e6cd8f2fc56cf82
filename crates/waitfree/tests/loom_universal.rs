//! Model checking of the two races that reclamation during operation
//! adds to the universal construction, driven by the vendored `kex-loom`
//! checker.
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p kex-waitfree --test loom_universal --release
//! ```
//!
//! Under `cfg(loom)` the checkpoint interval is 2, so a handful of ops
//! cross several checkpoints, and nothing is deallocated before the
//! object drops: a freed node is parked (never recycled), and every later
//! dereference of it fails an assertion on that schedule.
//!
//! Every schedule's ops are recorded and the history handed to
//! `kex_util::lincheck`, beside the bare assertions: the recorder's
//! `SeqCst` stamps can hide a reordering, not invent one.

#![cfg(loom)]

mod common;

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use kex_loom::atomic::{AtomicBool, Ordering::SeqCst};
use kex_loom::{hint, thread, Builder};
use kex_util::lincheck::Clock;
use kex_waitfree::seq::Sequential;
use kex_waitfree::universal::CHECKPOINT_EVERY;
use kex_waitfree::Universal;

thread_local! {
    /// Whether this thread parks at a [`Gate`] or walks through it. The
    /// checker reuses its threads, so every model thread sets it.
    static PARKS: Cell<bool> = const { Cell::new(false) };
}

/// Where the stalled thread waits, inside `S::apply` of its own node:
/// that is mid-pass, with the node threaded and its span closed.
#[derive(Default)]
struct Gate {
    reached: AtomicBool,
    open: AtomicBool,
}

/// An op counter; `Some(gate)` is an increment like any other that
/// first parks the thread applying it, if that thread asked to be.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
struct Count(i64);

impl Sequential for Count {
    type Op = Option<Arc<Gate>>;
    type Resp = i64;

    fn apply(&mut self, op: &Self::Op) -> i64 {
        if let Some(gate) = op.as_ref().filter(|_| PARKS.get()) {
            gate.reached.store(true, SeqCst);
            while !gate.open.load(SeqCst) {
                hint::spin_loop();
            }
        }
        self.0 += 1;
        self.0
    }
}

/// The object and the clock its ops are recorded under.
type Counter = (Universal<Count>, Clock);
type History = Vec<common::OpCall<Count>>;

fn responses(history: &History) -> Vec<i64> {
    let response = |call: &common::OpCall<Count>| call.returned.as_ref().expect("completed").1;
    history.iter().map(response).collect()
}

/// `n` recorded increments under `name`; the responses must ascend.
fn increments((counter, clock): &Counter, name: usize, n: usize) -> History {
    let calls: History = (0..n)
        .map(|_| common::apply(clock, counter, name, None))
        .collect();
    let seen = responses(&calls);
    assert!(seen.windows(2).all(|w| w[0] < w[1]), "{name} saw {seen:?}");
    calls
}

/// Every increment returned a different value of `1..=total`, and the
/// history is one the counter's specification allows.
fn assert_one_order(history: History) {
    let mut all = responses(&history);
    all.sort_unstable();
    let expect: Vec<i64> = (1..=all.len() as i64).collect();
    assert_eq!(all, expect, "responses of no sequential order");
    assert!(common::check::<Count>(&history), "not linearizable");
}

/// A helper loads `announce[x]` — a node below the helper's own span,
/// left there by an `x` that went idle — and may be preempted holding
/// it; `x` comes back, runs on past two checkpoints and reclaims that
/// node. Only the hazard slot keeps the helper off freed memory (checked
/// at every dereference), and every response must fit one sequential
/// order. A decide looks at another name's node only if that name has
/// asked for help, so some schedule must also propose one.
#[test]
fn helper_holding_an_announced_node_while_its_owner_reclaims() {
    const OWNER_OPS: usize = 2 * CHECKPOINT_EVERY + 1;
    let helped = Arc::new(AtomicUsize::new(0));
    let helped_in_model = Arc::clone(&helped);
    let stats = Builder::new().max_preemptions(2).check(move || {
        let counter = Arc::new((Universal::new(2), Clock::new()));
        let mut all = increments(&counter, 0, 1);
        all.extend(increments(&counter, 1, 1));

        let owner = Arc::clone(&counter);
        let owner = thread::spawn(move || increments(&owner, 0, OWNER_OPS));
        let helper = Arc::clone(&counter);
        let helper = thread::spawn(move || increments(&helper, 1, 1));

        all.extend(owner.join().unwrap());
        all.extend(helper.join().unwrap());
        assert_one_order(all);
        // The race is only in the model if the owner does free.
        assert!(counter.0.freed_and_retained(0).0 > 0, "nothing freed");
        helped_in_model.fetch_add(counter.0.helped(), Relaxed);
    });
    let helped = helped.load(Relaxed);
    eprintln!(
        "helper vs reclaiming owner: {} executions, {} schedule points, {helped} helped decides",
        stats.executions, stats.schedule_points
    );
    assert!(helped > 0, "no schedule helps");
}

/// A name that has run before starts an op alongside the other name's
/// and parks mid-pass, its resume position published and its node
/// threaded; the other name then appends past two more checkpoints and
/// reclaims. The survivor must keep no more than the stalled span and
/// the stretch above the newest checkpoint, and the stalled name, let
/// go, must finish with a response that fits.
#[test]
fn stalled_name_finishes_and_pins_only_its_span() {
    const SURVIVOR_OPS: usize = 2 * CHECKPOINT_EVERY + 2;
    let most_kept = Arc::new(AtomicUsize::new(0));
    let kept_by_survivor = Arc::clone(&most_kept);
    let helped = Arc::new(AtomicUsize::new(0));
    let helped_in_model = Arc::clone(&helped);
    let stats = Builder::new().max_preemptions(2).check(move || {
        let counter = Arc::new((Universal::new(2), Clock::new()));
        let gate = Arc::new(Gate::default());
        PARKS.set(false);
        let mut all = increments(&counter, 1, 1);

        let (stalled, at) = (Arc::clone(&counter), Arc::clone(&gate));
        let stalled = thread::spawn(move || {
            PARKS.set(true);
            common::apply(&stalled.1, &stalled.0, 1, Some(at))
        });
        let (survivor, kept) = (Arc::clone(&counter), Arc::clone(&kept_by_survivor));
        let survivor = thread::spawn(move || {
            PARKS.set(false);
            let mut seen = increments(&survivor, 0, 1);
            while !gate.reached.load(SeqCst) {
                hint::spin_loop();
            }
            seen.extend(increments(&survivor, 0, SURVIVOR_OPS));
            let (freed, retained) = survivor.0.freed_and_retained(0);
            assert!(freed > 0, "nothing freed behind a stalled name");
            kept.fetch_max(retained, Relaxed);
            gate.open.store(true, SeqCst);
            seen
        });

        all.push(stalled.join().unwrap());
        all.extend(survivor.join().unwrap());
        assert_one_order(all);
        helped_in_model.fetch_add(counter.0.helped(), Relaxed);
    });
    let (most_kept, helped) = (most_kept.load(Relaxed), helped.load(Relaxed));
    eprintln!(
        "stalled name vs survivor: {} executions, {} schedule points, survivor keeps {most_kept} at most, {helped} helped decides",
        stats.executions, stats.schedule_points
    );
    // The survivor's first node if it lies in the stalled span, and the
    // stretch above the newest checkpoint.
    assert!(most_kept <= 1 + CHECKPOINT_EVERY, "{most_kept}");
}
