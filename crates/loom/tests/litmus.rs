//! Litmus self-tests for the checker's memory model.
//!
//! Each test runs a classic litmus shape (SB, MP, LB, IRIW) under a
//! plain `Builder::new()` — no configuration is needed to see a weak
//! outcome — and pins which outcomes the checker must
//! *produce* (allowed under the declared orderings) and which it must
//! *never* produce (forbidden — the property the kex algorithms rely
//! on). Observed-outcome tests collect results across all executions
//! and check the set afterwards; forbidden-outcome tests assert inside
//! the model so any schedule/read-from combination producing the
//! outcome fails with its schedule.
//!
//! LB is pinned *forbidden* even under Relaxed: the operational
//! semantics never produces load-buffering cycles (a documented
//! under-approximation, safe for checking that forbidden outcomes stay
//! forbidden — see the crate docs).

use std::collections::HashSet;
use std::sync::{Arc, Mutex as StdMutex};

use kex_loom::atomic::{AtomicU64, AtomicUsize, Ordering};
use kex_loom::{thread, Builder};

// ---------------------------------------------------------------------
// SB (store buffering): Dekker's core.
//
//   t1: x = 1; r1 = y        t2: y = 1; r2 = x
//
// Relaxed: (r1, r2) = (0, 0) is allowed and must be observed.
// SeqCst:  (0, 0) is forbidden — this is exactly why the Dekker sites
// in docs/MEMORY_ORDERING.md are pinned SeqCst.
// ---------------------------------------------------------------------

fn sb_outcomes(order: Ordering) -> HashSet<(u64, u64)> {
    let outcomes = Arc::new(StdMutex::new(HashSet::new()));
    let sink = Arc::clone(&outcomes);
    Builder::new().check(move || {
        let x = Arc::new(AtomicU64::new(0));
        let y = Arc::new(AtomicU64::new(0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let t = thread::spawn(move || {
            y2.store(1, order);
            x2.load(order)
        });
        x.store(1, order);
        let r1 = y.load(order);
        let r2 = t.join().unwrap();
        sink.lock().unwrap().insert((r1, r2));
    });
    Arc::try_unwrap(outcomes).unwrap().into_inner().unwrap()
}

#[test]
fn sb_relaxed_allows_both_zero() {
    let seen = sb_outcomes(Ordering::Relaxed);
    assert!(
        seen.contains(&(0, 0)),
        "a plain Builder must produce the store-buffering outcome under \
         Relaxed; saw {seen:?}"
    );
}

#[test]
fn sb_seqcst_forbids_both_zero() {
    let seen = sb_outcomes(Ordering::SeqCst);
    assert!(
        !seen.contains(&(0, 0)),
        "SeqCst store buffering must never read (0, 0); saw {seen:?}"
    );
    // Sanity: the other outcomes still occur.
    assert!(seen.contains(&(1, 1)) || seen.contains(&(0, 1)) || seen.contains(&(1, 0)));
}

// ---------------------------------------------------------------------
// MP (message passing): the publish pattern behind every
// Release-store / Acquire-load pair in docs/MEMORY_ORDERING.md.
//
//   writer: data = 42; flag = 1       reader: if flag == 1 { r = data }
//
// Relaxed/Relaxed: stale read (flag seen 1, data seen 0) is allowed
// and must be observed.
// Release/Acquire: the stale read is forbidden.
// ---------------------------------------------------------------------

#[test]
fn mp_relaxed_allows_stale_read() {
    let stale = Arc::new(StdMutex::new(false));
    let sink = Arc::clone(&stale);
    Builder::new().check(move || {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicUsize::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Relaxed);
        });
        if flag.load(Ordering::Relaxed) == 1 && data.load(Ordering::Relaxed) == 0 {
            *sink.lock().unwrap() = true;
        }
        t.join().unwrap();
    });
    assert!(
        *stale.lock().unwrap(),
        "the checker must produce the stale message-passing read under Relaxed"
    );
}

#[test]
fn mp_release_acquire_forbids_stale_read() {
    Builder::new().check(|| {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicUsize::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(
                data.load(Ordering::Relaxed),
                42,
                "acquire load of flag=1 must see the data published before \
                 the release store"
            );
        }
        t.join().unwrap();
    });
}

/// The checker has teeth: the *same* stale-read assertion, with the
/// publish edge weakened to Relaxed, must produce a counterexample.
#[test]
fn mp_weakened_publish_is_caught() {
    let msg = kex_loom::check_expecting_failure(|| {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicUsize::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Relaxed); // weakened publish edge
        });
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(data.load(Ordering::Relaxed), 42);
        }
        t.join().unwrap();
    });
    assert!(
        msg.contains("assert"),
        "failure should be the in-model assertion, got:\n{msg}"
    );
}

// ---------------------------------------------------------------------
// LB (load buffering):
//
//   t1: r1 = x; y = 1         t2: r2 = y; x = 1
//
// C11 allows (1, 1) under Relaxed; the operational backend never
// produces it (each load reads an already-executed store). Pinned
// forbidden to document the under-approximation — if the backend ever
// starts producing it, this test flags the semantics change.
// ---------------------------------------------------------------------

#[test]
fn lb_relaxed_never_produces_cycle() {
    Builder::new().check(|| {
        let x = Arc::new(AtomicU64::new(0));
        let y = Arc::new(AtomicU64::new(0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let t = thread::spawn(move || {
            let r2 = y2.load(Ordering::Relaxed);
            x2.store(1, Ordering::Relaxed);
            r2
        });
        let r1 = x.load(Ordering::Relaxed);
        y.store(1, Ordering::Relaxed);
        let r2 = t.join().unwrap();
        assert!(
            !(r1 == 1 && r2 == 1),
            "operational backend produced a load-buffering cycle"
        );
    });
}

// ---------------------------------------------------------------------
// IRIW (independent reads of independent writes):
//
//   w1: x = 1    w2: y = 1
//   r1: a = x; b = y          r2: c = y; d = x
//
// Release/Acquire: the split outcome (a,b,c,d) = (1,0,1,0) — the two
// readers disagreeing on the write order — is allowed and must be
// observed. SeqCst: forbidden (the single SC order the gate handshakes
// rely on).
// ---------------------------------------------------------------------

fn iriw_outcomes(store: Ordering, load: Ordering) -> HashSet<(u64, u64, u64, u64)> {
    let outcomes = Arc::new(StdMutex::new(HashSet::new()));
    let sink = Arc::clone(&outcomes);
    Builder::new().check(move || {
        let x = Arc::new(AtomicU64::new(0));
        let y = Arc::new(AtomicU64::new(0));
        let (xw, yw) = (Arc::clone(&x), Arc::clone(&y));
        let (xr1, yr1) = (Arc::clone(&x), Arc::clone(&y));
        let w1 = thread::spawn(move || xw.store(1, store));
        let w2 = thread::spawn(move || yw.store(1, store));
        let r1 = thread::spawn(move || {
            let a = xr1.load(load);
            let b = yr1.load(load);
            (a, b)
        });
        let c = y.load(load);
        let d = x.load(load);
        w1.join().unwrap();
        w2.join().unwrap();
        let (a, b) = r1.join().unwrap();
        sink.lock().unwrap().insert((a, b, c, d));
    });
    Arc::try_unwrap(outcomes).unwrap().into_inner().unwrap()
}

#[test]
fn iriw_release_acquire_allows_split() {
    let seen = iriw_outcomes(Ordering::Release, Ordering::Acquire);
    assert!(
        seen.contains(&(1, 0, 1, 0)),
        "release/acquire IRIW must allow the readers to disagree on the \
         write order; saw {} outcomes",
        seen.len()
    );
}

#[test]
fn iriw_seqcst_forbids_split() {
    let seen = iriw_outcomes(Ordering::SeqCst, Ordering::SeqCst);
    assert!(
        !seen.contains(&(1, 0, 1, 0)),
        "SeqCst IRIW must agree on a single write order; saw {seen:?}"
    );
}

// ---------------------------------------------------------------------
// Supporting semantics: release sequences, coherence, spin progress.
// ---------------------------------------------------------------------

/// A Relaxed RMW continues a release sequence headed by a Release
/// store: an Acquire load reading the RMW's value still synchronizes
/// with the original release.
#[test]
fn release_sequence_through_relaxed_rmw() {
    Builder::new().check(|| {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicUsize::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Release);
            f2.fetch_add(1, Ordering::Relaxed); // continues the sequence
        });
        if flag.load(Ordering::Acquire) == 2 {
            assert_eq!(
                data.load(Ordering::Relaxed),
                42,
                "acquire of the RMW-continued release sequence must see \
                 the published data"
            );
        }
        t.join().unwrap();
    });
}

/// Per-location coherence: two Relaxed loads of the same location never
/// observe its modification order backwards.
#[test]
fn coherence_read_read() {
    Builder::new().check(|| {
        let x = Arc::new(AtomicU64::new(0));
        let x2 = Arc::clone(&x);
        let t = thread::spawn(move || {
            x2.store(1, Ordering::Relaxed);
            x2.store(2, Ordering::Relaxed);
        });
        let r1 = x.load(Ordering::Relaxed);
        let r2 = x.load(Ordering::Relaxed);
        assert!(
            !(r1 == 2 && r2 == 1),
            "coherence violation: loads observed mo backwards ({r1}, {r2})"
        );
        t.join().unwrap();
    });
}

/// A spin loop on an Acquire load terminates once the Release store
/// lands: the re-scheduled spinner reads the newest store (the read-from
/// analogue of yield demotion), so exploration converges.
#[test]
fn spin_loop_terminates() {
    let stats = Builder::new().check(|| {
        let flag = Arc::new(AtomicUsize::new(0));
        let f2 = Arc::clone(&flag);
        let t = thread::spawn(move || {
            f2.store(1, Ordering::Release);
        });
        while flag.load(Ordering::Acquire) == 0 {
            kex_loom::hint::spin_loop();
        }
        t.join().unwrap();
    });
    assert!(stats.executions > 0);
}
