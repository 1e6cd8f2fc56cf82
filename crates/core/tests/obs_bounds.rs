//! Theorems 1–3 and 9 on native code: real threads run each native
//! algorithm, and the instrumented backend's CC remote-reference
//! estimate per entry+exit pair must sit at or below the paper's
//! worst-case formula.
//!
//! A case fails on a mean above its bound, an occupancy above `k` or
//! not back to 0 at the end, or — for a bounded case — a run in which
//! no two threads overlapped (occupancy never above 1 and no spin in an
//! entry section): a mean under a worst-case bound from such a run
//! checked nothing. So that two do overlap, a holder keeps its slot
//! until a second one is inside too, for at most `WAIT`, until two
//! have met once in the run or one has waited in vain. The means are
//! compared against *worst-case* bounds, so the margin is large at low
//! contention. `QueueKex` and
//! `SemaphoreKex` serialize on an OS mutex the facade cannot see: they
//! carry no bound and are checked for occupancy only.
//!
//! Each case prints its mean, bound and occupancy to stderr:
//! `cargo test -p kex-core --features obs --test obs_bounds -- --nocapture`.
//! Runs only with `--features obs`, in its own process (an integration
//! test), because the counter registry is process-global.

#![cfg(all(feature = "obs", not(loom)))]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use kex_core::native::{
    CcChainKex, FastPathKex, KAssignment, QueueKex, RawKex, SemaphoreKex, TreeKex,
};
use kex_core::sim::Algorithm;
use kex_obs::Section;

const CYCLES: u64 = 200;

/// How long a lone holder waits for a second one.
const WAIT: Duration = Duration::from_millis(50);

/// Holders inside, and whether waiting for a second one is over, in
/// the current run. Plain `std` atomics, which the facade does not
/// count.
static INSIDE: AtomicUsize = AtomicUsize::new(0);
static DONE: AtomicBool = AtomicBool::new(false);

/// One algorithm under measurement: its CC bound per pair, if the paper
/// gives one, and one acquire → dwell → release cycle for process `p`.
struct Case {
    name: &'static str,
    bound: Option<u64>,
    cycle: Box<dyn Fn(usize) + Sync>,
}

fn case(name: &'static str, bound: Option<u64>, cycle: impl Fn(usize) + Sync + 'static) -> Case {
    let cycle = Box::new(cycle);
    Case { name, bound, cycle }
}

/// Holds the slot long enough for holders to overlap (the spins are
/// counted, in the Cs section, without touching shared memory). Until
/// waiting is over, a holder first waits, uncounted, for a second one
/// to arrive.
fn dwell<G>(guard: G) {
    if INSIDE.fetch_add(1, Ordering::SeqCst) > 0 {
        DONE.store(true, Ordering::SeqCst);
    }
    let until = Instant::now() + WAIT;
    while !DONE.load(Ordering::SeqCst) {
        if Instant::now() >= until {
            DONE.store(true, Ordering::SeqCst);
        }
        std::hint::spin_loop();
    }
    for _ in 0..32 {
        kex_util::sync::hint::spin_loop();
    }
    INSIDE.fetch_sub(1, Ordering::SeqCst);
    drop(guard);
}

fn cases(n: usize, k: usize) -> Vec<Case> {
    let paper = |algo: Algorithm| algo.paper_bound(n, k).map(|(_, bound)| bound);
    let (chain, tree) = (CcChainKex::new(n, k), TreeKex::new(n, k));
    let (fast, assign) = (FastPathKex::new(n, k), KAssignment::new(n, k));
    let (queue, sem) = (QueueKex::new(n, k), SemaphoreKex::new(n, k));
    vec![
        // The native stage runs statements 3-4 and 6-7 as one RMW each:
        // 4 per stage where the paper counts 7 (`fig2.rs` module docs).
        case("cc-chain", Some(4 * (n - k) as u64), move |p| {
            dwell(chain.enter(p))
        }),
        case("cc-tree", paper(Algorithm::CcTree), move |p| {
            dwell(tree.enter(p))
        }),
        case("cc-fastpath", paper(Algorithm::CcFastPath), move |p| {
            dwell(fast.enter(p))
        }),
        case("assignment-cc", paper(Algorithm::AssignmentCc), move |p| {
            dwell(assign.enter(p))
        }),
        case("queue-fig1", None, move |p| dwell(queue.enter(p))),
        case("semaphore", None, move |p| dwell(sem.enter(p))),
    ]
}

/// Runs `case` on `n` threads, `CYCLES` passages each, and returns why
/// it failed, if it did. No thread starts its cycles before all have
/// arrived: spawned one by one, each could finish before the next runs.
/// The gate spins rather than blocks — threads start on the spawner's
/// cpu, and only busy ones make the scheduler spread them.
fn run(case: &Case, n: usize, k: usize) -> Option<String> {
    kex_obs::reset();
    DONE.store(false, Ordering::SeqCst);
    let arrived = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for p in 0..n {
            let (cycle, arrived) = (&case.cycle, &arrived);
            s.spawn(move || {
                arrived.fetch_add(1, Ordering::SeqCst);
                while arrived.load(Ordering::SeqCst) < n {
                    std::hint::spin_loop();
                }
                (0..CYCLES).for_each(|_| cycle(p));
            });
        }
    });
    let snap = kex_obs::snapshot();
    let (entry, exit) = (
        snap.section_totals(Section::Entry),
        snap.section_totals(Section::Exit),
    );
    let mean = (entry.cc_remote + exit.cc_remote) as f64 / (n as u64 * CYCLES) as f64;
    let occ = snap.occupancy;
    let overlapped = occ.max > 1 || entry.spins > 0;
    let bound = case.bound.map_or("-".to_owned(), |b| b.to_string());
    eprintln!(
        "N={n:<2} k={k} {:<13} cc mean {mean:>6.2} | bound {bound:>3} | occupancy max {}/{k} end {} | overlapped {overlapped}",
        case.name, occ.max, occ.current,
    );
    let over = case.bound.is_some_and(|b| mean > b as f64);
    let problem = if over {
        format!("mean {mean:.2} over bound {bound}")
    } else if occ.max > k as i64 || occ.current != 0 {
        format!("occupancy max {} end {} (k = {k})", occ.max, occ.current)
    } else if case.bound.is_some() && !overlapped {
        "bound not exercised: no two threads overlapped".to_owned()
    } else {
        return None;
    };
    Some(format!("{} at (N, k) = ({n}, {k}): {problem}", case.name))
}

/// One `#[test]`: libtest runs tests concurrently, and every case
/// resets the process-global registry.
#[test]
fn native_cc_estimates_stay_under_the_theorem_bounds() {
    let (mut failures, mut exercised) = (Vec::new(), 0);
    for (n, k) in [(8, 2), (16, 4)] {
        for case in cases(n, k) {
            match run(&case, n, k) {
                Some(failure) => failures.push(failure),
                None => exercised += usize::from(case.bound.is_some()),
            }
        }
    }
    eprintln!("{exercised} of 8 bounds held and exercised");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
