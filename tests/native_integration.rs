//! Cross-crate integration of the native algorithms with real threads:
//! uniform occupancy stress over the whole algorithm family, and the
//! resilient-object methodology end to end.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Mutex;

use kex::core::native::{
    CcChainKex, FastPathKex, KAssignment, QueueKex, RawKex, Resilient, SemaphoreKex, TreeKex,
};
use kex::waitfree::{SlotCounter, Snapshot, WfQueue};

fn all_algorithms(n: usize, k: usize) -> Vec<(&'static str, Box<dyn RawKex>)> {
    vec![
        ("cc-chain", Box::new(CcChainKex::new(n, k))),
        ("cc-tree", Box::new(TreeKex::new(n, k))),
        ("cc-fastpath", Box::new(FastPathKex::new(n, k))),
        ("fig1-queue", Box::new(QueueKex::new(n, k))),
        ("semaphore", Box::new(SemaphoreKex::new(n, k))),
    ]
}

fn occupancy_stress(kex: &dyn RawKex, cycles: u64) -> (usize, u64) {
    let inside = AtomicUsize::new(0);
    let max = AtomicUsize::new(0);
    let total = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for p in 0..kex.n() {
            let (inside, max, total) = (&inside, &max, &total);
            s.spawn(move || {
                for i in 0..cycles {
                    kex.acquire(p);
                    let now = inside.fetch_add(1, SeqCst) + 1;
                    max.fetch_max(now, SeqCst);
                    total.fetch_add(1, SeqCst);
                    for _ in 0..((p + i as usize) % 32) {
                        std::hint::spin_loop();
                    }
                    inside.fetch_sub(1, SeqCst);
                    kex.release(p);
                }
            });
        }
    });
    (max.load(SeqCst), total.load(SeqCst) as u64)
}

#[test]
fn every_native_algorithm_respects_its_bound() {
    for (name, kex) in all_algorithms(10, 3) {
        let (max, total) = occupancy_stress(&*kex, 200);
        assert!(max <= 3, "{name}: {max} threads inside at once");
        assert_eq!(total, 2000, "{name}: lost acquisitions");
    }
}

#[test]
fn every_native_algorithm_works_with_k_equal_one() {
    for (name, kex) in all_algorithms(6, 1) {
        let (max, total) = occupancy_stress(&*kex, 150);
        assert_eq!(max, 1, "{name} must reduce to mutual exclusion");
        assert_eq!(total, 900, "{name}");
    }
}

#[test]
fn resilient_wait_free_queue_conserves_items() {
    // The paper's methodology with a real wait-free payload: a 3-process
    // wait-free queue (universal construction) made 10-process and
    // 2-resilient by the wrapper.
    let n = 10;
    let k = 3;
    let per = 200u32;
    let q = Resilient::new(n, k, WfQueue::<u32>::new(k));
    let popped: Vec<Vec<u32>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|p| {
                let q = &q;
                s.spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..per {
                        q.with(p, |q, name| q.enqueue(name, (p as u32) * 10_000 + i));
                        if let Some(v) = q.with(p, |q, name| q.dequeue(name)) {
                            got.push(v);
                        }
                    }
                    got
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut all: Vec<u32> = popped.into_iter().flatten().collect();
    while let Some(v) = q.with(0, |q, name| q.dequeue(name)) {
        all.push(v);
    }
    assert_eq!(all.len(), n * per as usize, "items lost or duplicated");
    let set: HashSet<_> = all.iter().collect();
    assert_eq!(set.len(), all.len(), "duplicates");
}

#[test]
fn resilient_snapshot_scans_are_coherent() {
    let n = 8;
    let k = 4;
    let snap = Resilient::new(n, k, Snapshot::<u64>::new(k));
    std::thread::scope(|s| {
        for p in 0..n {
            let snap = &snap;
            s.spawn(move || {
                for i in 1..=100u64 {
                    snap.with(p, |obj, name| {
                        obj.update(name, i);
                        let view = obj.scan(name);
                        assert_eq!(view.len(), k);
                        // Nobody else writes register `name` while we hold it.
                        assert_eq!(view[name], i);
                    });
                }
            });
        }
    });
}

#[test]
fn resilient_counter_under_churning_identities() {
    // Threads come and go, each wave reusing the process ids the last
    // one left behind — the long-lived property in action.
    let counter = Resilient::new(4, 2, SlotCounter::new(2));
    for _wave in 0..5 {
        std::thread::scope(|s| {
            for p in 0..4 {
                let counter = &counter;
                s.spawn(move || {
                    for _ in 0..500 {
                        counter.with(p, |c, name| c.add(name, 1));
                    }
                });
            }
        });
    }
    assert_eq!(counter.object_unguarded().read(), 5 * 4 * 500);
}

/// Theorems 9/10 hold over *any* `(N, k)`-exclusion: names stay unique
/// among concurrent holders whichever algorithm admits them.
fn names_stay_unique_over<K: RawKex>(kex: K) {
    let assign = KAssignment::over(kex);
    let held = Mutex::new(HashSet::new());
    std::thread::scope(|s| {
        for p in 0..assign.n() {
            let (assign, held) = (&assign, &held);
            s.spawn(move || {
                for _ in 0..200 {
                    let g = assign.enter(p);
                    assert!(held.lock().unwrap().insert(g.name()), "dup name");
                    std::hint::spin_loop();
                    held.lock().unwrap().remove(&g.name());
                }
            });
        }
    });
}

#[test]
fn assignment_names_are_unique_across_algorithm_choices() {
    names_stay_unique_over(CcChainKex::new(6, 2));
    names_stay_unique_over(TreeKex::new(6, 2));
    names_stay_unique_over(QueueKex::new(6, 2));
}

#[test]
fn native_shapes_match_the_simulator_constructions() {
    use kex::core::sim::tree_depth;
    for k in 1..=4 {
        for n in k + 1..=6 * k + 3 {
            let tree = tree_depth(n, k) as usize;
            assert_eq!(TreeKex::new(n, k).depth(), tree, "(n={n}, k={k})");
        }
    }
}
