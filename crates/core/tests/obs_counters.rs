//! Scripted single-thread schedules with **exact** expected counter
//! values from the instrumented atomics backend.
//!
//! With one thread there is exactly one interleaving, so every counter
//! is deterministic and the test can pin the estimator's CC semantics
//! op by op (mirroring `kex_sim::memmodel`):
//!
//! * CC read: local iff the reader already holds the line; a miss
//!   inserts the reader into the holder set.
//! * CC write/RMW: local iff the writer is the *sole* holder; otherwise
//!   remote, and the writer becomes sole holder.
//!
//! Runs only with `--features obs`; it is an integration test so it gets
//! its own process and its own (otherwise untouched) global registry.

#![cfg(all(feature = "obs", not(loom)))]

use kex_core::native::{CcChainKex, FastPathKex, KAssignment, RawKex, Resilient, TasRenaming};
use kex_obs::Section;

/// `(RMWs, stores, loads)` of pid 0 since the last `reset()`, over all
/// sections.
fn pid0_counts() -> (u64, u64, u64) {
    let snap = kex_obs::snapshot();
    assert!(snap.untracked().is_none(), "every op ran inside a span");
    snap.pid(0).map_or((0, 0, 0), |pid| {
        pid.sections.iter().fold((0, 0, 0), |acc, s| {
            (acc.0 + s.rmws, acc.1 + s.stores, acc.2 + s.loads)
        })
    })
}

/// The whole file is one `#[test]`: the registry is process-global and
/// the libtest harness runs `#[test]` fns concurrently, so independent
/// tests would race each other's `reset()`.
#[test]
fn scripted_single_thread_schedule_has_exact_counts() {
    cc_chain_2_1_exact_counts();
    second_acquisition_hits_warm_cache();
    guard_drives_occupancy_gauge_and_cs_span();
    fast_path_16_4_uncontended_pair_is_12_ops_10_rmws();
    resilient_with_is_assignment_enter_and_drop();
    a_refused_try_enter_writes_nothing();
    a_probe_of_a_dead_name_writes_nothing();
}

/// `CcChainKex::new(2, 1)` is a single Figure-2 stage: one word, `X`
/// under an epoch. Uncontended, acquire and release are one RMW each.
fn cc_chain_2_1_exact_counts() {
    kex_obs::reset();
    let kex = CcChainKex::new(2, 1);

    kex.acquire(0);
    let snap = kex_obs::snapshot();
    let entry = snap.section_totals(Section::Entry);
    // Statement 2: one fetch&add on the word. First touch of the line:
    // CC remote (pid 0 becomes sole holder).
    assert_eq!(entry.rmws, 1, "acquire = exactly one RMW on the word");
    assert_eq!(entry.loads, 0, "slot was free: no re-check, no spin");
    assert_eq!(entry.stores, 0);
    assert_eq!(entry.cc_remote, 1);
    assert_eq!(entry.spans, 1, "one completed Entry span");
    assert_eq!(entry.spins, 0);

    kex.release(0);
    let snap = kex_obs::snapshot();
    let exit = snap.section_totals(Section::Exit);
    // Statements 6-7: one fetch&add, slot and epoch together — pid 0
    // is sole holder, so CC *local*.
    assert_eq!(exit.rmws, 1);
    assert_eq!(exit.stores, 0);
    assert_eq!(exit.loads, 0);
    assert_eq!(exit.cc_remote, 0, "the word is cached since the acquire");
    assert_eq!(exit.spans, 1);

    // Everything was inside a span: the untracked bucket stayed empty.
    assert!(
        snap.untracked().is_none(),
        "no ops should fall outside the algorithm spans"
    );
    // All ops belong to pid 0.
    let pid0 = snap.pid(0).expect("pid 0 recorded");
    assert_eq!(pid0.sections[Section::Entry as usize].ops(), 1);
    assert_eq!(pid0.sections[Section::Exit as usize].ops(), 1);
}

/// The CC estimator is stateful across acquisitions: the second
/// uncontended pass finds `X` still cached (pid 0 stayed sole holder)
/// and costs zero CC-remote references in the entry section.
fn second_acquisition_hits_warm_cache() {
    kex_obs::reset();
    let kex = CcChainKex::new(2, 1);
    kex.acquire(0);
    kex.release(0);

    kex_obs::reset(); // counters to zero; holder masks intentionally survive
    kex.acquire(0);
    let snap = kex_obs::snapshot();
    let entry = snap.section_totals(Section::Entry);
    assert_eq!(entry.rmws, 1);
    assert_eq!(entry.cc_remote, 0, "line still held from the first pass");
    kex.release(0);
}

/// `enter()` wraps the critical section in a `Cs` span that drives the
/// occupancy gauge; the guard closes it before releasing.
fn guard_drives_occupancy_gauge_and_cs_span() {
    kex_obs::reset();
    let kex = CcChainKex::new(2, 1);
    {
        let _guard = kex.enter(1);
        let snap = kex_obs::snapshot();
        assert_eq!(snap.occupancy.current, 1, "one live holder");
        assert_eq!(snap.occupancy.max, 1);
    }
    let snap = kex_obs::snapshot();
    assert_eq!(snap.occupancy.current, 0, "guard dropped");
    assert_eq!(snap.occupancy.max, 1, "high-water mark retained");
    let pid1 = snap.pid(1).expect("pid 1 recorded");
    assert_eq!(pid1.sections[Section::Cs as usize].spans, 1);
    assert_eq!(
        pid1.hists[Section::Cs as usize].count(),
        1,
        "one Cs latency sample"
    );
}

/// The default store path's kex, at the benchmark's sizing. Uncontended,
/// a pair is Figure 4's fast path around one `(8, 4)` block: the grab
/// and the return on `X` (2 RMWs), the owner-private `slow_flag` store
/// and load, and four Figure-2 stages at one RMW in and one RMW out.
/// These are the numbers the benchmark's count pass reports
/// (`kex.atomics_per_op` 12, `kex.rmws_per_op` 10); a change to how the
/// layers are composed must not change them.
fn fast_path_16_4_uncontended_pair_is_12_ops_10_rmws() {
    let kex = FastPathKex::new(16, 4);
    kex_obs::reset();
    kex.acquire(0);
    kex.release(0);
    let snap = kex_obs::snapshot();
    let (entry, exit) = (
        snap.section_totals(Section::Entry),
        snap.section_totals(Section::Exit),
    );
    assert_eq!((entry.rmws, entry.stores, entry.loads), (5, 1, 0));
    assert_eq!((exit.rmws, exit.stores, exit.loads), (5, 0, 1));
    assert_eq!(entry.ops() + exit.ops(), 12);
    assert_eq!(entry.spins, 0, "the fast slot was free");
    assert!(snap.untracked().is_none());
}

/// The wrapper adds no atomic of its own: a guarded op is the
/// k-assignment's enter and drop — the kex pair above plus one name bit
/// read, set and cleared (`assignment.*_per_op` 15 / 11 in the
/// benchmark's count pass, and `resilient.*_per_op` the same).
fn resilient_with_is_assignment_enter_and_drop() {
    let assign = KAssignment::new(16, 4);
    kex_obs::reset();
    drop(assign.enter(0));
    let bare = pid0_counts();
    assert_eq!(bare, (11, 2, 2));

    let wrapped = Resilient::new(16, 4, ());
    kex_obs::reset();
    wrapped.with(0, |_, _| ());
    assert_eq!(pid0_counts(), bare, "Resilient::with adds an atomic");

    kex_obs::reset();
    assert!(wrapped.try_with(0, |_, _| ()).is_some());
    assert_eq!(pid0_counts().0, bare.0, "try_with adds an RMW");
}

/// `X` is the shedding gate: with all `k` slots consumed (here by
/// crashed holders, the case that lasts) a refusal is one load of `X`
/// — no store, no RMW, nothing for the next caller to miss on.
fn a_refused_try_enter_writes_nothing() {
    let full = Resilient::new(16, 4, ());
    for p in 1..=4 {
        std::mem::forget(full.enter(p));
    }
    assert_eq!(full.occupancy(), 4);
    kex_obs::reset();
    assert!(full.try_enter(0).is_none());
    assert_eq!(pid0_counts(), (0, 0, 1));
    assert_eq!(full.occupancy(), 4);
}

/// The renaming probe is test-and-`test_and_set`: with `k - 1` names
/// held for ever (crashed holders — the paper's resilience regime) an
/// acquisition reads each of their bits once and writes nothing, so the
/// bits' lines stay shared in every survivor's cache.
fn a_probe_of_a_dead_name_writes_nothing() {
    let names = TasRenaming::new(4);
    for dead in 0..3 {
        assert_eq!(names.acquire_name(), dead);
    }
    kex_obs::reset();
    let span = kex_obs::span(Section::Entry, 0);
    assert_eq!(names.acquire_name(), 3);
    drop(span);
    assert_eq!(pid0_counts(), (0, 0, 3));
}
