//! Self-tests for the vendored model checker: it must (a) pass correct
//! code, (b) find classic races, deadlocks and lost wakeups, and (c)
//! explore spin loops without hanging. These run under the normal
//! tier-1 `cargo test` (no `--cfg loom` needed — that cfg only selects
//! the facade re-exports in `kex-util`).

use std::sync::Arc;

use kex_loom::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use kex_loom::sync::{Condvar, Mutex};
use kex_loom::{thread, Builder};

#[test]
fn atomic_increment_is_clean() {
    let stats = kex_loom::model(|| {
        let x = Arc::new(AtomicUsize::new(0));
        let x2 = Arc::clone(&x);
        let t = thread::spawn(move || {
            x2.fetch_add(1, SeqCst);
        });
        x.fetch_add(1, SeqCst);
        t.join().unwrap();
        assert_eq!(x.load(SeqCst), 2);
    });
    assert!(stats.executions > 1, "must explore >1 interleaving");
}

#[test]
fn load_store_increment_race_is_found() {
    let msg = kex_loom::check_expecting_failure(|| {
        let x = Arc::new(AtomicUsize::new(0));
        let x2 = Arc::clone(&x);
        let t = thread::spawn(move || {
            let v = x2.load(SeqCst);
            x2.store(v + 1, SeqCst);
        });
        let v = x.load(SeqCst);
        x.store(v + 1, SeqCst);
        t.join().unwrap();
        assert_eq!(x.load(SeqCst), 2, "lost update");
    });
    assert!(msg.contains("lost update"), "unexpected failure: {msg}");
}

#[test]
fn mutex_serializes_critical_sections() {
    kex_loom::model(|| {
        let m = Arc::new(Mutex::new(0u32));
        let inside = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let m = Arc::clone(&m);
                let inside = Arc::clone(&inside);
                thread::spawn(move || {
                    let mut g = m.lock();
                    assert_eq!(inside.fetch_add(1, SeqCst), 0, "two threads in CS");
                    *g += 1;
                    inside.fetch_sub(1, SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 2);
    });
}

#[test]
fn ab_ba_deadlock_is_found() {
    let msg = kex_loom::check_expecting_failure(|| {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = thread::spawn(move || {
            let _ga = a2.lock();
            let _gb = b2.lock();
        });
        let _gb = b.lock();
        let _ga = a.lock();
        drop((_ga, _gb));
        t.join().unwrap();
    });
    assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
}

#[test]
fn condvar_handshake_has_no_lost_wakeup() {
    kex_loom::model(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut ready = m.lock();
            while !*ready {
                ready = cv.wait(ready);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_one();
        }
        t.join().unwrap();
    });
}

#[test]
fn unsynchronized_predicate_loses_wakeup() {
    // The flag is written outside the mutex, so the notify can land
    // between the waiter's predicate check and its wait — the textbook
    // lost wakeup. The checker must find the schedule where the waiter
    // sleeps forever.
    let msg = kex_loom::check_expecting_failure(|| {
        let m = Arc::new(Mutex::new(())); // does not protect `flag`
        let cv = Arc::new(Condvar::new());
        let flag = Arc::new(AtomicBool::new(false));
        let (m2, cv2, flag2) = (Arc::clone(&m), Arc::clone(&cv), Arc::clone(&flag));
        let t = thread::spawn(move || {
            let mut g = m2.lock();
            while !flag2.load(SeqCst) {
                g = cv2.wait(g);
            }
        });
        flag.store(true, SeqCst);
        cv.notify_one();
        t.join().unwrap();
    });
    assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
}

#[test]
fn spin_loop_is_explorable_and_terminates() {
    kex_loom::model(|| {
        let flag = Arc::new(AtomicBool::new(false));
        let flag2 = Arc::clone(&flag);
        let t = thread::spawn(move || {
            while !flag2.load(SeqCst) {
                kex_loom::hint::spin_loop();
            }
        });
        flag.store(true, SeqCst);
        t.join().unwrap();
    });
}

#[test]
fn stuck_spinner_is_reported_as_deadlock() {
    let msg = kex_loom::check_expecting_failure(|| {
        let flag = Arc::new(AtomicBool::new(false));
        let flag2 = Arc::clone(&flag);
        // Nobody ever sets the flag: once the main thread finishes, the
        // spinner can never be woken by a write.
        let t = thread::spawn(move || {
            while !flag2.load(SeqCst) {
                kex_loom::hint::spin_loop();
            }
        });
        t.join().unwrap();
    });
    assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
}

#[test]
fn join_returns_the_thread_value() {
    kex_loom::model(|| {
        let t = thread::spawn(|| 41 + 1);
        assert_eq!(t.join().unwrap(), 42);
    });
}

#[test]
fn preemption_bound_shrinks_the_search() {
    let run = |bound: Option<u32>| {
        let mut b = Builder::new();
        if let Some(p) = bound {
            b = b.max_preemptions(p);
        }
        b.check(|| {
            let x = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let x = Arc::clone(&x);
                    thread::spawn(move || {
                        x.fetch_add(1, SeqCst);
                        x.fetch_add(1, SeqCst);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(x.load(SeqCst), 4);
        })
    };
    if std::env::var_os("LOOM_MAX_PREEMPTIONS").is_some() {
        return; // env override would equalize the two runs
    }
    let exhaustive = run(None);
    let bounded = run(Some(0));
    assert!(
        bounded.executions < exhaustive.executions,
        "bound {} !< exhaustive {}",
        bounded.executions,
        exhaustive.executions
    );
}

#[test]
fn yield_demotion_still_finds_races_after_spin() {
    // A race *after* a spin-wait must still be detected: the demotion
    // reduction must not prune real post-wakeup interleavings.
    let msg = kex_loom::check_expecting_failure(|| {
        let gate = Arc::new(AtomicBool::new(false));
        let x = Arc::new(AtomicUsize::new(0));
        let (gate2, x2) = (Arc::clone(&gate), Arc::clone(&x));
        let t = thread::spawn(move || {
            while !gate2.load(SeqCst) {
                kex_loom::hint::spin_loop();
            }
            let v = x2.load(SeqCst);
            x2.store(v + 1, SeqCst);
        });
        gate.store(true, SeqCst);
        let v = x.load(SeqCst);
        x.store(v + 1, SeqCst);
        t.join().unwrap();
        assert_eq!(x.load(SeqCst), 2, "lost update");
    });
    assert!(msg.contains("lost update"), "unexpected failure: {msg}");
}
