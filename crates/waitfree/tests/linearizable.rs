//! `Universal` histories, checked: nodes are recycled name by name while
//! other names walk the log, so "every response is that of one order of
//! the ops" is a claim about recorded histories — `kex_util::lincheck`
//! decides it, here on real threads and in `loom_universal.rs` on every
//! schedule of its two models.
//!
//! The canary keeps the checker honest in the `BrokenGate` style: a
//! specification with one seeded bug that only a name resuming from a
//! checkpoint can see, and it must be reported on every run.

#![cfg(not(loom))]

mod common;

use std::sync::Barrier;

use common::{apply, check, OpCall};
use kex_util::lincheck::Clock;
use kex_util::rng::SmallRng;
use kex_waitfree::seq::{QueueOp, SeqQueue, SeqSnapshot, Sequential, SnapshotOp};
use kex_waitfree::universal::CHECKPOINT_EVERY;
use kex_waitfree::Universal;

const NAMES: usize = 8;
/// Names that halt half way, between two ops.
const HALTING: usize = 2;
const OPS_PER_NAME: u64 = if cfg!(miri) { 100 } else { 10_000 };

/// 8 names on however few cpus there are, each applying the ops `draw`
/// gives it (seeded; its name and the op's index to build unique values
/// from) to one fresh object — and the last two names halt between ops
/// half way through, the wrapper's failure model: their last nodes stay
/// announced for good while the survivors run on, truncate past them and
/// recycle what they free. Returns the recorded history.
fn stress<S>(seed: u64, draw: impl Fn(&mut SmallRng, u64, u64) -> S::Op + Sync) -> Vec<OpCall<S>>
where
    S: Sequential + Send + Sync,
    S::Resp: Send,
{
    let object: Universal<S> = Universal::new(NAMES);
    let (clock, start) = (Clock::new(), Barrier::new(NAMES));
    std::thread::scope(|s| {
        let names: Vec<_> = (0..NAMES)
            .map(|name| {
                let (object, clock, start, draw) = (&object, &clock, &start, &draw);
                let halts = name >= NAMES - HALTING;
                s.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(seed << 8 | name as u64);
                    start.wait();
                    (0..OPS_PER_NAME / if halts { 2 } else { 1 })
                        .map(|i| draw(&mut rng, name as u64, i))
                        .map(|op| apply(clock, object, name, op))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        names
            .into_iter()
            .flat_map(|name| name.join().expect("name completed"))
            .collect()
    })
}

/// Enqueues and dequeues 1:2 on one queue, every enqueued value unique.
/// Every sixteenth enqueue gives up the cpu inside `S::apply`, in
/// whoever replays it: names sleep mid-pass, committed, and come back to
/// a log that has moved on by whole checkpoint intervals — an idle host
/// would not do that to them in the tenth of a second the run takes.
///
/// Why [`Ticketed`] and not the plain queue, and why 1:2. A plain
/// enqueue answers nothing, so the search may place one whose caller
/// slept anywhere in its interval and learns that it chose wrong only
/// when the value is dequeued; with a few such calls open at every step
/// it outgrew 2 GiB on this very run. An enqueue that answers its
/// ticket fits in one place. The memo keeps a copy of the state per
/// step, so the queue is kept a few items long.
#[test]
fn seeded_stress_histories_linearize_with_two_names_halting_mid_run() {
    for seed in [1, 2, 3] {
        let history = stress::<Ticketed<true>>(seed, |rng, name, i| match rng.gen_range(0..3) {
            0 => QueueOp::Enqueue(name << 32 | i),
            _ => QueueOp::Dequeue,
        });
        assert!(check::<Ticketed<false>>(&history), "seed {seed}");
    }
}

/// The snapshot is the same construction at another specification, so
/// its histories go to the same judge: updates and scans 1:2, a name's
/// values unique and ascending. Every call is informative — an update
/// answers the value it replaced, a scan all eight registers — and the
/// state the memo copies is those eight words.
#[test]
fn snapshot_histories_linearize_with_two_names_halting_mid_run() {
    let history = stress::<SeqSnapshot<u64>>(4, |rng, name, i| match rng.gen_range(0..3) {
        0 => SnapshotOp::Update(name as usize, name << 32 | (i + 1)),
        _ => SnapshotOp::Scan,
    });
    assert!(check::<SeqSnapshot<u64>>(&history));
}

/// `SeqQueue<u64>` whose enqueue answers how many values have been
/// enqueued, itself included; `YIELDS` — the object's side, not the
/// checker's — it gives up the cpu inside every sixteenth of them.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
struct Ticketed<const YIELDS: bool> {
    queue: SeqQueue<u64>,
    enqueued: u64,
}

impl<const YIELDS: bool> Sequential for Ticketed<YIELDS> {
    type Op = QueueOp<u64>;
    type Resp = Option<u64>;

    fn apply(&mut self, op: &Self::Op) -> Self::Resp {
        let dequeued = self.queue.apply(op);
        if matches!(op, QueueOp::Dequeue) {
            return dequeued;
        }
        self.enqueued += 1;
        if YIELDS && self.enqueued.is_multiple_of(16) {
            std::thread::yield_now();
        }
        Some(self.enqueued)
    }
}

/// A queue whose `clone` loses the head: whoever resumes from a
/// checkpoint answers from a state in which one enqueue too few has
/// been dequeued from — a checkpoint taken one position early.
#[derive(Default)]
struct LosesItsHead(SeqQueue<u64>);

impl Clone for LosesItsHead {
    fn clone(&self) -> Self {
        let mut copy = self.0.clone();
        // BUG: a copy is not the state it was taken of.
        copy.apply(&QueueOp::Dequeue);
        LosesItsHead(copy)
    }
}

impl Sequential for LosesItsHead {
    type Op = QueueOp<u64>;
    type Resp = Option<u64>;

    fn apply(&mut self, op: &Self::Op) -> Self::Resp {
        self.0.apply(op)
    }
}

#[test]
fn a_checkpoint_that_is_not_the_state_is_caught() {
    let queue: Universal<LosesItsHead> = Universal::new(2);
    let clock = Clock::new();
    // Name 0 enqueues past a checkpoint. Name 1, which never ran, resumes
    // from it (a copy of a copy); name 0 replays that dequeue on the
    // state it kept and takes the next: nobody is given the 1.
    let mut history: Vec<_> = (1..=CHECKPOINT_EVERY as u64)
        .map(|value| apply(&clock, &queue, 0, QueueOp::Enqueue(value)))
        .collect();
    history.push(apply(&clock, &queue, 1, QueueOp::Dequeue));
    history.push(apply(&clock, &queue, 0, QueueOp::Dequeue));
    let answers = |at: usize| history[at].returned.as_ref().expect("completed").1;
    let n = history.len();
    assert_eq!(
        (answers(n - 2), answers(n - 1)),
        (Some(3), Some(2)),
        "the script"
    );
    assert!(
        !check::<SeqQueue<u64>>(&history),
        "a dequeue that skipped the head went unnoticed"
    );
}
