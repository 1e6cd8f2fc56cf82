//! E10 — measure the **native** algorithms' estimated remote references
//! with the instrumented atomics backend (`kex-obs`) and check them
//! against the Theorem 1–3 and 9 formulas.
//!
//! Where `table1`/`bounds` count exact RMRs on the discrete-event
//! simulator, this binary runs the real `std::thread` implementations
//! and lets the facade's instrumented backend estimate CC remote
//! references per entry+exit pair. The two views should agree in shape:
//! every algorithm's mean CC estimate must sit at or below the paper's
//! worst-case formula. (The native layer is the cache-coherent stack;
//! DSM costs are the simulator's alone, E1–E5.)
//!
//! Run: `cargo run --release -p kex-bench --features obs --bin native_obs`
//!
//! Flags:
//! * `--quick` — one small configuration, few cycles (CI smoke).
//! * `--json <path>` — output path (default `BENCH_native.json`).
//!
//! Exits nonzero if any algorithm exceeds its bound, a bound goes
//! unexercised, or the occupancy gauge ever exceeds `k`, so CI can gate
//! on it. (Which atomic sites exist is kex-lint's static question, not
//! this run's.) A bound counts as *exercised* only if the case's threads
//! actually overlapped (occupancy above 1 or a spin in an entry
//! section): a mean under a worst-case bound from a run in which nothing
//! overlapped checked nothing, and fails the run.
//!
//! ## Estimator caveats (see `docs/OBSERVABILITY.md`)
//!
//! * The per-pair numbers are **means**, compared against *worst-case*
//!   bounds; the margin is expected to be large at low contention.
//! * `QueueKex` and `SemaphoreKex` serialize on an OS mutex whose
//!   traffic the facade cannot see; their rows are baselines only and
//!   carry no bound.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use kex_bench::JsonSink;
use kex_core::native::{
    CcChainKex, FastPathKex, KAssignment, QueueKex, RawKex, SemaphoreKex, TreeKex,
};
use kex_core::sim::Algorithm;
use kex_obs::json::Json;
use kex_obs::Section;

/// One algorithm under measurement: a per-process entry/exit routine
/// plus the theorem bound it must respect.
struct Case {
    name: &'static str,
    theorem: &'static str,
    /// Worst-case CC remote references per entry+exit pair, if the paper
    /// gives a closed formula for this `(n, k)`.
    bound: Option<u64>,
    /// Runs one full acquire → dwell → release cycle for process `p`.
    runner: Box<dyn Fn(usize) + Send + Sync>,
}

/// Dwell inside the critical section long enough for holders to overlap
/// (spins route through the facade, so they are counted, in the Cs
/// section, without touching shared memory).
fn dwell() {
    for _ in 0..32 {
        kex_util::sync::hint::spin_loop();
    }
}

fn kex_case<K: RawKex + 'static>(
    name: &'static str,
    theorem: &'static str,
    bound: Option<u64>,
    kex: K,
) -> Case {
    let kex = Arc::new(kex);
    Case {
        name,
        theorem,
        bound,
        runner: Box::new(move |p| {
            let guard = kex.enter(p);
            dwell();
            drop(guard);
        }),
    }
}

fn assignment_case(
    name: &'static str,
    theorem: &'static str,
    bound: Option<u64>,
    assign: KAssignment,
) -> Case {
    let assign = Arc::new(assign);
    Case {
        name,
        theorem,
        bound,
        runner: Box::new(move |p| {
            let guard = assign.enter(p);
            dwell();
            drop(guard);
        }),
    }
}

fn cases(n: usize, k: usize) -> Vec<Case> {
    let paper = |algo: Algorithm| algo.paper_bound(n, k).map(|(_, bound)| bound);
    vec![
        // The native stage runs statements 3-4 and 6-7 as one RMW each:
        // 4 per stage where the paper counts 7 (`fig2.rs` module docs).
        kex_case(
            "cc-chain",
            "Thm 1",
            Some(4 * (n - k) as u64),
            CcChainKex::new(n, k),
        ),
        kex_case(
            "cc-tree",
            "Thm 2",
            paper(Algorithm::CcTree),
            TreeKex::new(n, k),
        ),
        kex_case(
            "cc-fastpath",
            "Thm 3",
            paper(Algorithm::CcFastPath),
            FastPathKex::new(n, k),
        ),
        assignment_case(
            "assignment-cc",
            "Thm 9",
            paper(Algorithm::AssignmentCc),
            KAssignment::new(n, k),
        ),
        // Baselines, no paper bound (facade-invisible mutex/kernel traffic).
        kex_case("queue-fig1", "[9,10]", None, QueueKex::new(n, k)),
        kex_case("semaphore", "-", None, SemaphoreKex::new(n, k)),
    ]
}

struct CaseResult {
    json: Json,
    ok: bool,
    /// `Some(overlapped)` for a case with a theorem bound.
    bound_exercised: Option<bool>,
}

/// Run one case: `n` threads, `cycles` acquisitions each, then snapshot
/// and reduce. Counters are reset before the run; each case builds fresh
/// atomics, so holder masks start clean. No thread starts its cycles
/// before all have arrived, so the ones running then start together:
/// spawned one by one, each could finish its few cycles before the next
/// runs, and no bound would be exercised. The gate spins rather
/// than blocks or yields — threads start on the spawner's cpu, and only
/// busy ones make the scheduler spread them.
fn run_case(case: &Case, n: usize, k: usize, cycles: u64) -> CaseResult {
    kex_obs::reset();
    let arrived = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for p in 0..n {
            let (runner, arrived) = (&case.runner, &arrived);
            s.spawn(move || {
                arrived.fetch_add(1, Ordering::SeqCst);
                while arrived.load(Ordering::SeqCst) < n {
                    std::hint::spin_loop();
                }
                for _ in 0..cycles {
                    (runner)(p);
                }
            });
        }
    });
    let snap = kex_obs::snapshot();

    let pairs = n as u64 * cycles;
    let entry = snap.section_totals(Section::Entry);
    let exit = snap.section_totals(Section::Exit);
    let cc_total = entry.cc_remote + exit.cc_remote;
    let cc_mean = cc_total as f64 / pairs as f64;
    let within_bound = case.bound.is_none_or(|b| cc_mean <= b as f64);

    let occupancy_max = snap.occupancy.max;
    let occupancy_ok = occupancy_max <= k as i64 && snap.occupancy.current == 0;
    // A mean under a worst-case bound says nothing if no two threads
    // were ever in the protocol together.
    let overlapped = occupancy_max > 1 || entry.spins > 0;

    // Entry-section latency, merged across pids.
    let mut entry_hist = std::collections::BTreeMap::new();
    for p in snap.per_pid.iter().filter(|p| p.pid.is_some()) {
        for &(floor, count) in &p.hists[Section::Entry as usize].buckets {
            *entry_hist.entry(floor).or_insert(0u64) += count;
        }
    }
    let merged = kex_obs::HistSnapshot {
        buckets: entry_hist.into_iter().collect(),
    };

    let json = Json::obj(vec![
        ("name", case.name.into()),
        ("theorem", case.theorem.into()),
        ("pairs", pairs.into()),
        (
            "cc",
            Json::obj(vec![
                ("total_remote", cc_total.into()),
                ("mean_remote_per_pair", cc_mean.into()),
            ]),
        ),
        (
            "ops_per_pair",
            ((entry.ops() + exit.ops()) as f64 / pairs as f64).into(),
        ),
        ("entry_spins_total", entry.spins.into()),
        (
            "entry_latency",
            Json::obj(vec![
                (
                    "p50_ns_floor",
                    merged.quantile_floor(0.50).map_or(Json::Null, Json::U64),
                ),
                (
                    "p99_ns_floor",
                    merged.quantile_floor(0.99).map_or(Json::Null, Json::U64),
                ),
            ]),
        ),
        ("occupancy_max", Json::I64(occupancy_max)),
        ("occupancy_ok", occupancy_ok.into()),
        ("bound_per_pair", case.bound.map_or(Json::Null, Json::U64)),
        ("within_bound", within_bound.into()),
        ("overlapped", overlapped.into()),
    ]);

    println!(
        "{:<16} | cc {:>8.2} | bound {:>5} ({:<6}) {:<19} | occ {}/{} {}",
        case.name,
        cc_mean,
        case.bound.map_or_else(|| "-".to_owned(), |b| b.to_string()),
        case.theorem,
        if case.bound.is_none() {
            "-"
        } else if !within_bound {
            "OVER BOUND"
        } else if overlapped {
            "within bound"
        } else {
            "NOT EXERCISED"
        },
        occupancy_max,
        k,
        if occupancy_ok { "ok" } else { "BAD" },
    );

    CaseResult {
        json,
        ok: within_bound && occupancy_ok,
        bound_exercised: case.bound.map(|_| overlapped),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut sink = JsonSink::from_args();
    if !sink.enabled() {
        // This binary always writes its document (a CI artifact; the
        // root .gitignore keeps it out of the tree).
        sink = JsonSink::from_args_or_default("BENCH_native.json");
    }
    let (configs, cycles): (&[(usize, usize)], u64) = if quick {
        (&[(8, 2)], 50)
    } else {
        (&[(8, 2), (16, 4)], 200)
    };

    let mut all_ok = true;
    let (mut exercised, mut unexercised) = (0u64, 0u64);
    let mut config_docs = Vec::new();
    for &(n, k) in configs {
        println!("=== native estimates: N = {n}, k = {k}, {cycles} cycles/thread ===");
        println!(
            "{:<16} | {:>11} | {:>20} {:<19} | occupancy",
            "algorithm", "cc mean", "bound (theorem)", ""
        );
        let mut algo_docs = Vec::new();
        for case in cases(n, k) {
            let result = run_case(&case, n, k, cycles);
            all_ok &= result.ok;
            match result.bound_exercised {
                Some(true) => exercised += 1,
                Some(false) => unexercised += 1,
                None => {}
            }
            algo_docs.push(result.json);
        }
        println!();
        config_docs.push(Json::obj(vec![
            ("n", n.into()),
            ("k", k.into()),
            ("cycles_per_thread", cycles.into()),
            ("algorithms", Json::arr(algo_docs)),
        ]));
    }

    sink.put("schema", "kex-bench/native_obs/v4".into());
    sink.put("quick", quick.into());
    sink.put(
        "note",
        "mean estimated remote references per entry+exit pair from the \
         instrumented atomics backend, the CC estimate vs the paper's \
         worst-case formulas"
            .into(),
    );
    sink.put("bounds_exercised", exercised.into());
    sink.put("bounds_not_exercised", unexercised.into());
    sink.put("configs", Json::arr(config_docs));
    sink.finish();

    if !all_ok || unexercised > 0 {
        eprintln!(
            "FAIL: a bound or occupancy check was violated, or a bound was not \
             exercised: {exercised} of {} exercised (see rows above)",
            exercised + unexercised,
        );
        std::process::exit(1);
    }
    println!(
        "no bound violated: all {exercised} bounds exercised (threads overlapped); \
         occupancy never exceeded k"
    );
}
