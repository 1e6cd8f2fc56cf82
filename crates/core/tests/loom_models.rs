//! Exhaustive / preemption-bounded model checking of the **native**
//! algorithm implementations, driven by the vendored `kex-loom` checker.
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p kex-core --test loom_models --release
//! ```
//!
//! Under `cfg(loom)` the `kex_util::sync` facade swaps every atomic,
//! mutex, condvar and spin hint for the model-checked versions, so the
//! exact production code paths are explored, each atomic under the
//! `Ordering` its call site declares. Each test enumerates
//! thread interleavings at a small `(N, k)` and asserts, per the
//! ISSUE-2 matrix:
//!
//! * **(a) at-most-`k`-in-CS** — an occupancy counter incremented inside
//!   every critical section never exceeds `k`;
//! * **(b) unique names in `0..k`** — renaming/assignment paths record
//!   held names in a claim table and fail on any duplicate;
//! * **(c) no lost wakeups** — the checker reports a deadlock whenever a
//!   spinner or condvar waiter can never be woken again, so every
//!   passing model doubles as a lost-wakeup proof for its spin and
//!   handshake loops;
//! * **(d) crash-in-CS safety** — a designated process acquires and then
//!   stops taking steps while still inside its critical section (the
//!   paper's failure model); the survivors must still satisfy (a)–(c)
//!   and terminate, i.e. the block really is `(k-1)`-resilient.
//!
//! Tiny 2-thread models run exhaustively; 3-thread models use a CHESS
//! preemption bound (2–4), which the `LOOM_MAX_PREEMPTIONS` env var
//! overrides globally (the CI `loom` job pins it).
//!
//! The `broken_gate_*` test keeps the suite honest: it injects the
//! classic ordering bug — Figure 2's atomic `fetch_sub` admission gate
//! split into a non-atomic load/store pair — and asserts the checker
//! *finds* the resulting k-exclusion violation. `stale_epoch_*` does the
//! same for the liveness half of the one-word stage: a waiter that reads
//! the epoch it waits on after its bump, not from it, must be reported.

#![cfg(loom)]

use std::sync::Arc;

use kex_core::native::{
    CcChainKex, FastPathKex, KAssignment, QueueKex, RawKex, Resilient, SemaphoreKex, TasRenaming,
    TreeKex,
};
use kex_loom::atomic::{AtomicBool, AtomicIsize, AtomicU64, AtomicUsize, Ordering::SeqCst};
use kex_loom::{thread, Builder};

/// Explore every schedule of `pids` running `cycles` acquire/release
/// pairs against a fresh instance from `make`, asserting at-most-`k`
/// occupancy. Pids listed in `crashed` acquire once, increment the
/// occupancy counter, and then stop taking steps *inside* the critical
/// section — the paper's crash model. Deadlocks (including stuck
/// spinners and lost wakeups among the survivors) fail the test via the
/// checker itself.
fn check_occupancy<K>(
    name: &'static str,
    builder: Builder,
    make: fn() -> K,
    pids: &'static [usize],
    crashed: &'static [usize],
    cycles: usize,
) where
    K: RawKex + Send + Sync + 'static,
{
    let stats = builder.check(move || {
        let kex = Arc::new(make());
        let k = kex.k();
        let inside = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = pids
            .iter()
            .map(|&p| {
                let kex = Arc::clone(&kex);
                let inside = Arc::clone(&inside);
                let dies = crashed.contains(&p);
                thread::spawn(move || {
                    if dies {
                        kex.acquire(p);
                        let now = inside.fetch_add(1, SeqCst) + 1;
                        assert!(now <= k, "k-exclusion violated: {now} > k={k}");
                        // Crash: never decrement, never release — the
                        // slot stays occupied forever.
                    } else {
                        for _ in 0..cycles {
                            kex.acquire(p);
                            let now = inside.fetch_add(1, SeqCst) + 1;
                            assert!(now <= k, "k-exclusion violated: {now} > k={k}");
                            inside.fetch_sub(1, SeqCst);
                            kex.release(p);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    eprintln!(
        "{name}: {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}

// --- (a) at-most-k safety -------------------------------------------------

#[test]
fn fig2_cc_chain_n2_k1_exhaustive() {
    check_occupancy(
        "fig2 (2,1)",
        Builder::new(),
        || CcChainKex::new(2, 1),
        &[0, 1],
        &[],
        1,
    );
}

#[test]
fn fig2_cc_chain_n3_k2() {
    check_occupancy(
        "fig2 (3,2)",
        Builder::new().max_preemptions(3),
        || CcChainKex::new(3, 2),
        &[0, 1, 2],
        &[],
        1,
    );
}

#[test]
fn fig2_release_then_arrival_wakes_the_older_waiter_once() {
    // (3, 1): stages admitting 2 and 1. Pid 0 is inside when 1 and 2
    // start, so one of them queues at the last stage; 0 then leaves
    // and the other can reach that stage and queue before the first
    // waiter has looked at the word again. The waiter then finds the
    // epoch two on from the one it waits on, not one: it must go in
    // all the same, once, and the newer waiter after it.
    let stats = Builder::new().max_preemptions(3).check(|| {
        let kex = Arc::new(CcChainKex::new(3, 1));
        let inside = Arc::new(AtomicUsize::new(1));
        kex.acquire(0);
        let handles: Vec<_> = [1, 2]
            .into_iter()
            .map(|p| {
                let (kex, inside) = (Arc::clone(&kex), Arc::clone(&inside));
                thread::spawn(move || {
                    kex.acquire(p);
                    let now = inside.fetch_add(1, SeqCst) + 1;
                    assert!(now <= 1, "k-exclusion violated: {now} > k=1");
                    inside.fetch_sub(1, SeqCst);
                    kex.release(p);
                })
            })
            .collect();
        inside.fetch_sub(1, SeqCst);
        kex.release(0);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(kex.occupancy(), 0, "a slot was lost or kept");
    });
    eprintln!(
        "fig2 release then arrival (3,1): {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}

#[test]
fn tree_two_levels_n3_k1() {
    // n=3, k=1 composes two levels of Figure-2 blocks — the smallest
    // genuinely hierarchical instance.
    check_occupancy(
        "tree cc (3,1)",
        Builder::new().max_preemptions(2),
        || TreeKex::new(3, 1),
        &[0, 1, 2],
        &[],
        1,
    );
}

#[test]
fn fast_path_n3_k1() {
    // n > 2k, so the fast-path/slow-path split and the `slow_flag`
    // arbitration are actually exercised.
    check_occupancy(
        "fast path (3,1)",
        Builder::new().max_preemptions(2),
        || FastPathKex::new(3, 1),
        &[0, 1, 2],
        &[],
        1,
    );
}

#[test]
fn queue_kex_n3_k2() {
    // Figure 1 baseline: facade Mutex + per-process spin flags — checks
    // the mutex hand-off and the wakeup of dequeued waiters.
    check_occupancy(
        "fig1 queue (3,2)",
        Builder::new().max_preemptions(2),
        || QueueKex::new(3, 2),
        &[0, 1, 2],
        &[],
        1,
    );
}

#[test]
fn semaphore_n3_k2() {
    // Condvar-based baseline: a lost `notify` would park a waiter
    // forever and surface as a model deadlock.
    check_occupancy(
        "semaphore (3,2)",
        Builder::new().max_preemptions(2),
        || SemaphoreKex::new(3, 2),
        &[0, 1, 2],
        &[],
        1,
    );
}

// --- (d) crash-in-CS safety ----------------------------------------------

#[test]
fn fig2_crash_in_cs_n3_k2() {
    // Process 0 halts inside its critical section; with k = 2 the block
    // is 1-resilient, so processes 1 and 2 must still cycle through the
    // remaining slot without ever exceeding k or deadlocking.
    check_occupancy(
        "fig2 crash (3,2)",
        Builder::new().max_preemptions(2),
        || CcChainKex::new(3, 2),
        &[0, 1, 2],
        &[0],
        1,
    );
}

#[test]
fn fast_path_crash_in_cs_n3_k2() {
    check_occupancy(
        "fast path crash (3,2)",
        Builder::new().max_preemptions(2),
        || FastPathKex::new(3, 2),
        &[0, 1, 2],
        &[0],
        1,
    );
}

// --- never-waiting entry racing blocking entry ---------------------------

/// `try_acquire` against `acquire` on one Figure-4 instance. Before any
/// thread starts, the pids in `crashed` enter and stop for good and the
/// pids in `leavers` enter; then, concurrently, the main thread lets
/// the leavers out, every pid in `blockers` runs one blocking cycle and
/// every pid in `tryers` one `try_acquire` (and a release if it got
/// in). On every schedule:
///
/// * at most `k` are inside, counting the crashed;
/// * everything terminates: a `try_acquire` has no loop to spin in, so
///   a crashed holder cannot hold it up, and a blocker that queued
///   behind a slot a refused try held for a moment is woken again;
/// * afterwards the counters are where the crashes alone put them:
///   `occupancy()` says so for the final stage, and exactly
///   `k - crashed` further tries get in, which a fast slot or a
///   final-stage slot lost or gained by a refused try would change
///   (dropping the `X` hand-back fails all three split models).
///
/// What these sizes cannot show is the refused try's way out of the
/// *earlier* stages of a chain. A slot leaked there is invisible to
/// every caller of a `(4, 2)` chain, and a blocker whose wake-up the
/// try left out is woken anyway by the next holder to leave, because
/// whoever made the try fail is a live holder or about to become one.
/// `a_refused_try_leaves_every_stage_as_it_found_it` in `fig2.rs` pins
/// both on the counters themselves.
fn check_try_against_blocking(
    name: &'static str,
    make: fn() -> FastPathKex,
    crashed: &'static [usize],
    leavers: &'static [usize],
    blockers: &'static [usize],
    tryers: &'static [usize],
) {
    let stats = Builder::new().max_preemptions(2).check(move || {
        let kex = Arc::new(make());
        let k = kex.k();
        let inside = Arc::new(AtomicUsize::new(crashed.len()));
        for &p in crashed.iter().chain(leavers) {
            kex.acquire(p);
        }
        let visit = move |kex: &FastPathKex, inside: &AtomicUsize, p: usize| {
            let now = inside.fetch_add(1, SeqCst) + 1;
            assert!(now <= k, "k-exclusion violated: {now} > k={k}");
            inside.fetch_sub(1, SeqCst);
            kex.release(p);
        };
        inside.fetch_add(leavers.len(), SeqCst);
        let handles: Vec<_> = blockers
            .iter()
            .map(|&p| (p, true))
            .chain(tryers.iter().map(|&p| (p, false)))
            .map(|(p, blocking)| {
                let (kex, inside) = (Arc::clone(&kex), Arc::clone(&inside));
                thread::spawn(move || {
                    if blocking {
                        kex.acquire(p);
                        visit(&kex, &inside, p);
                    } else if kex.try_acquire(p) {
                        visit(&kex, &inside, p);
                    }
                })
            })
            .collect();
        for &p in leavers {
            inside.fetch_sub(1, SeqCst);
            kex.release(p);
        }
        for h in handles {
            h.join().unwrap();
        }

        assert_eq!(kex.occupancy(), crashed.len(), "a slot was lost or kept");
        let spare = k - crashed.len();
        let idle: Vec<usize> = leavers
            .iter()
            .chain(blockers)
            .chain(tryers)
            .copied()
            .collect();
        assert!(idle.len() > spare, "the model needs a pid to be refused");
        for (i, &p) in idle.iter().enumerate().take(spare + 1) {
            assert_eq!(kex.try_acquire(p), i < spare, "try number {i} afterwards");
        }
        assert_eq!(kex.occupancy(), k);
        for &p in &idle[..spare] {
            kex.release(p);
        }
        assert_eq!(kex.occupancy(), crashed.len());
    });
    eprintln!(
        "{name}: {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}

#[test]
fn try_vs_blocking_block_shape_n4_k2() {
    // n <= 2k: the node is one (4, 2) chain of two stages. With 0 and
    // the crashed 1 inside, the try takes the first stage's last slot
    // and is refused at the second (unless 0 has left by then); the
    // blocker that arrives in between queues at the *first* stage,
    // behind the slot the try is about to give back.
    check_try_against_blocking(
        "try vs acquire, block (4,2)",
        || FastPathKex::new(4, 2),
        &[1],
        &[0],
        &[3],
        &[2],
    );
}

#[test]
fn try_vs_blocking_split_shape_n3_k1() {
    // n > 2k: X, the tree and a (2, 1) final block. 0 holds the fast
    // slot, so the blocker goes round the tree; once 0 leaves, the try
    // can win X and still find the block taken through the slow path —
    // the one case in which it has to hand X back.
    check_try_against_blocking(
        "try vs acquire, split (3,1)",
        || FastPathKex::new(3, 1),
        &[],
        &[0],
        &[1],
        &[2],
    );
}

#[test]
fn two_tries_vs_blocking_split_shape_n3_k1() {
    check_try_against_blocking(
        "two tries vs acquire, split (3,1)",
        || FastPathKex::new(3, 1),
        &[],
        &[],
        &[0],
        &[1, 2],
    );
}

#[test]
fn try_vs_blocking_split_shape_crash_n5_k2() {
    // k - 1 = 1 crashed holder on a fast slot for good, 1 on the other
    // until it leaves, the blocker on the slow path: the try is refused
    // off X, or wins X and is refused by a block holding the crashed
    // process and the slow-path one — never waiting for either.
    check_try_against_blocking(
        "try vs acquire after a crash, split (5,2)",
        || FastPathKex::new(5, 2),
        &[0],
        &[1],
        &[2],
        &[3],
    );
}

// --- (b) unique names in 0..k --------------------------------------------

#[test]
fn tas_renaming_two_concurrent() {
    // Two concurrent processes over k = 2 names, two acquisitions each
    // (long-lived renaming: names are re-acquired after release). Names
    // must stay in 0..2 and never be held twice at once. Exhaustive
    // exploration takes ~1.3M executions; a 4-preemption bound keeps the
    // same bug-finding power at a fraction of the cost.
    let stats = Builder::new().max_preemptions(4).check(|| {
        let r = Arc::new(TasRenaming::new(2));
        let held: Arc<Vec<AtomicBool>> = Arc::new((0..2).map(|_| AtomicBool::new(false)).collect());
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let r = Arc::clone(&r);
                let held = Arc::clone(&held);
                thread::spawn(move || {
                    for _ in 0..2 {
                        let name = r.acquire_name();
                        assert!(name < 2, "name {name} out of 0..2");
                        assert!(!held[name].swap(true, SeqCst), "duplicate name {name}");
                        held[name].store(false, SeqCst);
                        r.release_name(name);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    eprintln!(
        "tas renaming (2 names): {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}

#[test]
fn k_assignment_n3_k2_unique_names() {
    // Three processes funnel through a (3,2)-exclusion block and then
    // claim one of 2 names each — the ISSUE's "renaming with 3
    // processes over 2 names" configuration.
    let stats = Builder::new().max_preemptions(2).check(|| {
        let a = Arc::new(KAssignment::new(3, 2));
        let held: Arc<Vec<AtomicBool>> = Arc::new((0..2).map(|_| AtomicBool::new(false)).collect());
        let handles: Vec<_> = (0..3)
            .map(|p| {
                let a = Arc::clone(&a);
                let held = Arc::clone(&held);
                thread::spawn(move || {
                    let g = a.enter(p);
                    let name = g.name();
                    assert!(name < 2, "name {name} out of 0..2");
                    assert!(!held[name].swap(true, SeqCst), "duplicate name {name}");
                    held[name].store(false, SeqCst);
                    drop(g);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    eprintln!(
        "k-assignment (3,2): {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}

#[test]
fn k_assignment_crash_n3_k2_keeps_names_unique() {
    // Process 0 crashes while *holding* slot and name: the name must
    // stay permanently claimed, and the two survivors must keep cycling
    // with distinct names from what remains.
    let stats = Builder::new().max_preemptions(2).check(|| {
        let a = Arc::new(KAssignment::new(3, 2));
        let held: Arc<Vec<AtomicBool>> = Arc::new((0..2).map(|_| AtomicBool::new(false)).collect());
        let handles: Vec<_> = (0..3)
            .map(|p| {
                let a = Arc::clone(&a);
                let held = Arc::clone(&held);
                thread::spawn(move || {
                    if p == 0 {
                        let g = a.enter(p);
                        let name = g.name();
                        assert!(!held[name].swap(true, SeqCst), "duplicate name {name}");
                        // Crash while holding: the guard never drops, so
                        // neither slot nor name is ever released.
                        std::mem::forget(g);
                    } else {
                        let g = a.enter(p);
                        let name = g.name();
                        assert!(name < 2, "name {name} out of 0..2");
                        assert!(!held[name].swap(true, SeqCst), "duplicate name {name}");
                        held[name].store(false, SeqCst);
                        drop(g);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    eprintln!(
        "k-assignment crash (3,2): {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}

// --- resilient-object wrapper --------------------------------------------

#[test]
fn resilient_counter_n3_k2() {
    // The §1 methodology end-to-end: three processes bump a shared
    // counter through `Resilient::with`; every increment must land.
    let stats = Builder::new().max_preemptions(2).check(|| {
        let obj = Arc::new(Resilient::new(3, 2, AtomicUsize::new(0)));
        let handles: Vec<_> = (0..3)
            .map(|p| {
                let obj = Arc::clone(&obj);
                thread::spawn(move || {
                    obj.with(p, |counter, name| {
                        assert!(name < 2, "name {name} out of 0..2");
                        counter.fetch_add(1, SeqCst);
                    });
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(obj.object_unguarded().load(SeqCst), 3, "lost increment");
    });
    eprintln!(
        "resilient counter (3,2): {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}

// --- observability is inert under loom ------------------------------------

/// Under `cfg(loom)` the `kex_core::obs` shim must be a zero-sized
/// no-op, whatever cargo features are enabled: spans may never add
/// schedule points or the model-checking results would stop covering
/// the uninstrumented production build. We run the same (2,1) chain
/// model twice — bare, and drowning in redundant span annotations —
/// and require bit-identical exploration statistics.
#[test]
fn obs_spans_do_not_perturb_schedules() {
    // Under loom the guards are inert, Drop-less ZSTs — the point of
    // the test — and the drops mark where a real span would close.
    #[allow(clippy::drop_non_drop)]
    fn explore(annotate: bool) -> kex_loom::Stats {
        Builder::new().check(move || {
            let kex = Arc::new(CcChainKex::new(2, 1));
            let inside = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..2)
                .map(|p| {
                    let kex = Arc::clone(&kex);
                    let inside = Arc::clone(&inside);
                    thread::spawn(move || {
                        let outer =
                            annotate.then(|| kex_core::obs::span(kex_core::obs::Section::Other, p));
                        kex.acquire(p);
                        let cs =
                            annotate.then(|| kex_core::obs::span(kex_core::obs::Section::Cs, p));
                        let now = inside.fetch_add(1, SeqCst) + 1;
                        assert!(now <= 1, "k-exclusion violated: {now} > k=1");
                        inside.fetch_sub(1, SeqCst);
                        drop(cs);
                        kex.release(p);
                        drop(outer);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        })
    }

    let bare = explore(false);
    let annotated = explore(true);
    assert_eq!(
        bare.executions, annotated.executions,
        "span annotations changed the number of explored interleavings"
    );
    assert_eq!(
        bare.schedule_points, annotated.schedule_points,
        "span annotations introduced schedule points"
    );
    eprintln!(
        "obs inertness: {} executions, {} schedule points, identical with and without spans",
        bare.executions, bare.schedule_points
    );
}

// --- relaxed-ordering sites: multi-cycle models ---------------------------
//
// Selected hot-path sites are weaker than SeqCst, each under the
// `kex_util::ord` role that admits it (see `docs/MEMORY_ORDERING.md`). The vendored
// checker explores each site under the ordering it declares, so a
// *wrong ordering* fails the model that leans on it (and TSan runs the
// contend smoke under `-Z sanitizer=thread`). What these models add is
// the state reuse that only shows up after a release: every model below
// runs two full acquire→release cycles per process, so each relaxed
// site is exercised in its "stale value from the previous cycle" regime.

#[test]
fn fig2_two_cycles_spin_sees_second_wakeup() {
    // Relaxed site: the spin load of a stage's word is ACQUIRE. Its
    // soundness argument needs *every* epoch move (release-side and
    // newer-waiter side) to reach the spinner — including a second
    // wakeup of the same process after it already cycled once.
    check_occupancy(
        "fig2 2-cycle (2,1)",
        Builder::new().max_preemptions(3),
        || CcChainKex::new(2, 1),
        &[0, 1],
        &[],
        2,
    );
}

#[test]
fn fast_path_two_cycles_slow_flag_round_trip() {
    // Relaxed sites: the X credit counter RMWs are ACQ_REL (same-location
    // chain) and `slow_flag` is RELAXED (arbitration is advisory; safety
    // rests on X). Two cycles drive a process through set-then-clear of
    // its slow flag with the other process mid-protocol.
    check_occupancy(
        "fast path 2-cycle (3,1)",
        Builder::new().max_preemptions(2),
        || FastPathKex::new(3, 1),
        &[0, 1, 2],
        &[],
        2,
    );
}

#[test]
fn fig1_two_cycles_waiting_flag_reuse() {
    // Relaxed sites: a process's own `waiting` flag is stored RELAXED
    // (ordered by the enclosing mutex), spun on with ACQUIRE, and
    // cleared by the releaser with RELEASE. Cycle 2 re-arms the same
    // flag the releaser just cleared.
    check_occupancy(
        "fig1 2-cycle (3,2)",
        Builder::new().max_preemptions(2),
        || QueueKex::new(3, 2),
        &[0, 1, 2],
        &[],
        2,
    );
}

// The renaming swap/clear pair (ACQ_REL `bit.swap`, RELEASE clear) is
// already exercised across reuse by `tas_renaming_two_concurrent`
// above: each process acquires a name twice, so cycle 2 re-swaps bits
// cycle 1 released. What a *name* hands over is the model below.

#[test]
fn k_assignment_two_cycles_name_hands_over_plain_data() {
    // Relaxed site: the read-first probe of a name bit is an ACQUIRE
    // load. The store's journal lanes lean on a name being a
    // single-writer register file: each holder bumps a per-name cell
    // with a plain (Relaxed) load and store, so an increment is lost
    // iff two holders of one name overlap or the later one's load is
    // not ordered after the earlier one's store. Name 0 hands over
    // through its bit's release/acquire pair; name 1 has no bit — its
    // edge is the k-exclusion's RMW chain, direct or via a later
    // entrant's swap of bit 0 that the new holder's probe reads, which
    // a RELAXED probe load loses (this model then fails).
    use kex_loom::atomic::Ordering::Relaxed;
    let stats = Builder::new().max_preemptions(2).check(|| {
        let a = Arc::new(KAssignment::new(3, 2));
        let cells: Arc<Vec<AtomicUsize>> = Arc::new((0..2).map(|_| AtomicUsize::new(0)).collect());
        let handles: Vec<_> = (0..3)
            .map(|p| {
                let (a, cells) = (Arc::clone(&a), Arc::clone(&cells));
                thread::spawn(move || {
                    for _ in 0..2 {
                        let g = a.enter(p);
                        let cell = &cells[g.name()];
                        cell.store(cell.load(Relaxed) + 1, Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let entries: usize = cells.iter().map(|c| c.load(Relaxed)).sum();
        assert_eq!(entries, 6, "a holder's write to its name's cell was lost");
    });
    eprintln!(
        "k-assignment name hand-off (3,2) x2: {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}

// --- checker power: the injected Figure-2 ordering bug --------------------

/// Figure 2's admission gate with the atomic `fetch_sub` deliberately
/// split into a load/store pair — the exact bug a relaxed or non-RMW
/// "optimization" of the gate would introduce. Two processes can both
/// read `X = 1` and both admit themselves.
struct BrokenGate {
    x: AtomicIsize,
    q: AtomicUsize,
}

impl BrokenGate {
    fn new(k: isize) -> Self {
        BrokenGate {
            x: AtomicIsize::new(k),
            q: AtomicUsize::new(usize::MAX),
        }
    }

    fn acquire(&self, p: usize) {
        // BUG: non-atomic read-modify-write of the admission counter.
        let v = self.x.load(SeqCst);
        self.x.store(v - 1, SeqCst);
        if v <= 0 {
            self.q.store(p, SeqCst);
            while self.q.load(SeqCst) == p && self.x.load(SeqCst) < 0 {
                kex_loom::hint::spin_loop();
            }
        }
    }

    fn release(&self, p: usize) {
        self.x.fetch_add(1, SeqCst);
        self.q.store(p, SeqCst);
    }
}

#[test]
fn broken_gate_violation_is_caught() {
    let msg = kex_loom::check_expecting_failure(|| {
        let gate = Arc::new(BrokenGate::new(1));
        let inside = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|p| {
                let gate = Arc::clone(&gate);
                let inside = Arc::clone(&inside);
                thread::spawn(move || {
                    gate.acquire(p);
                    let now = inside.fetch_add(1, SeqCst) + 1;
                    assert!(now <= 1, "k-exclusion violated: {now} > k=1");
                    inside.fetch_sub(1, SeqCst);
                    gate.release(p);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    assert!(
        msg.contains("k-exclusion violated") || msg.contains("deadlock"),
        "checker reported an unrelated failure: {msg}"
    );
}

// --- checker power: the injected one-word-stage liveness bug ---------------

/// The one-word stage of `fig2.rs` with the waiter's epoch taken from a
/// *separate load* after its bump instead of from the bump's return
/// value. A release that lands between the two moves the epoch first,
/// so the waiter waits on the epoch that release produced: the wake-up
/// meant for it is slept through.
struct StaleEpoch {
    word: AtomicU64,
}

impl StaleEpoch {
    const X_BITS: u32 = 16;
    const EPOCH: u64 = 1 << Self::X_BITS;
    const BIAS: u64 = Self::EPOCH / 2;

    fn x_of(word: u64) -> i64 {
        (word % Self::EPOCH) as i64 - Self::BIAS as i64
    }

    fn acquire(&self) {
        if Self::x_of(self.word.fetch_sub(1, SeqCst)) <= 0 {
            let queued = self.word.fetch_add(Self::EPOCH, SeqCst);
            if Self::x_of(queued) < 0 {
                // BUG: `queued` already says which epoch is ours.
                let mine = self.word.load(SeqCst) >> Self::X_BITS;
                while self.word.load(SeqCst) >> Self::X_BITS == mine {
                    kex_loom::hint::spin_loop();
                }
            }
        }
    }

    fn release(&self) {
        self.word.fetch_add(Self::EPOCH + 1, SeqCst);
    }
}

#[test]
fn stale_epoch_lost_wakeup_is_caught() {
    let msg = kex_loom::check_expecting_failure(|| {
        let stage = Arc::new(StaleEpoch {
            word: AtomicU64::new(StaleEpoch::BIAS + 1),
        });
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let stage = Arc::clone(&stage);
                thread::spawn(move || {
                    stage.acquire();
                    stage.release();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    assert!(
        msg.contains("deadlock") || msg.contains("livelock"),
        "checker reported an unrelated failure: {msg}"
    );
}
