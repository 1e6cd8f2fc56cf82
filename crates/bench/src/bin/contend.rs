//! E12: wall-clock contention benchmark over the native algorithms.
//!
//! For each native algorithm this spawns T ∈ {1, 2, 4, k, 2k,
//! oversubscribed} threads doing closed-loop acquire→CS→release cycles
//! and reports throughput, sampled latency percentiles, and per-thread
//! fairness. Always writes a JSON document (default
//! `BENCH_contend.json`, git-ignored; CI uploads it as an artifact) via
//! the shared report writer.
//!
//! ```text
//! contend [--smoke] [--json <path>] [--duration-ms <n>]
//!         [--threads <a,b,c>] [--algo <name,...>]
//! ```
//!
//! * `--smoke` — CI mode: 2 threads, short window; exits non-zero if
//!   any algorithm makes no progress.
//!
//! Methodology caveats live in `EXPERIMENTS.md` E12.

use std::time::Duration;

use kex_bench::contend::{run_contended, RunConfig, RunStats};
use kex_bench::JsonSink;
use kex_core::native::{
    CcChainKex, DsmChainKex, FastPathKex, KAssignment, McsLock, QueueKex, RawKex, Resilient,
    SemaphoreKex, TreeKex, YangAndersonLock,
};
use kex_obs::json::Json;
use kex_waitfree::{SlotCounter, WfQueue};

/// The resiliency/admission knob for the k > 1 algorithms.
const K: usize = 4;

/// One benchmarked algorithm: name, its `k`, and an operation factory
/// (fresh instance per thread count, so no state leaks across runs).
struct Algo {
    name: &'static str,
    k: usize,
    make: fn(threads: usize) -> Box<dyn Fn(usize) + Sync>,
}

/// Universe size for a `k`-slot algorithm driven by `threads` threads
/// (pids are thread indices; the paper's algorithms need `k < n`).
fn universe(threads: usize, k: usize) -> usize {
    threads.max(k + 1)
}

fn kex_op<L: RawKex + 'static>(lock: L) -> Box<dyn Fn(usize) + Sync> {
    Box::new(move |p| {
        lock.acquire(p);
        std::hint::black_box(p);
        lock.release(p);
    })
}

fn algorithms() -> Vec<Algo> {
    vec![
        Algo {
            name: "fig2",
            k: K,
            make: |t| kex_op(CcChainKex::new(universe(t, K), K)),
        },
        Algo {
            name: "fig6",
            k: K,
            make: |t| kex_op(DsmChainKex::new(universe(t, K), K)),
        },
        Algo {
            name: "tree",
            k: K,
            make: |t| kex_op(TreeKex::cc(universe(t, K), K)),
        },
        Algo {
            name: "fast_path",
            k: K,
            make: |t| kex_op(FastPathKex::new(universe(t, K), K)),
        },
        Algo {
            name: "fig1",
            k: K,
            make: |t| kex_op(QueueKex::new(universe(t, K), K)),
        },
        Algo {
            name: "semaphore",
            k: K,
            make: |t| kex_op(SemaphoreKex::new(universe(t, K), K)),
        },
        Algo {
            name: "mcs",
            k: 1,
            make: |t| kex_op(McsLock::new(t.max(2))),
        },
        Algo {
            name: "yang_anderson",
            k: 1,
            make: |t| kex_op(YangAndersonLock::new(t.max(2))),
        },
        Algo {
            name: "assignment",
            k: K,
            make: |t| {
                let pool = KAssignment::new(universe(t, K), K);
                Box::new(move |p| {
                    let guard = pool.enter(p);
                    std::hint::black_box(guard.name());
                })
            },
        },
        Algo {
            name: "resilient_counter",
            k: K,
            make: |t| {
                let obj = Resilient::new(universe(t, K), K, SlotCounter::new(K));
                Box::new(move |p| {
                    obj.with(p, |counter, name| counter.add(name, 1));
                })
            },
        },
        Algo {
            name: "resilient_queue",
            k: K,
            make: |t| {
                let obj = Resilient::new(universe(t, K), K, WfQueue::<u64>::new(K));
                Box::new(move |p| {
                    obj.with(p, |queue, name| {
                        queue.enqueue(name, p as u64);
                        std::hint::black_box(queue.dequeue(name));
                    });
                })
            },
        },
    ]
}

#[derive(Debug)]
struct Options {
    smoke: bool,
    duration: Duration,
    threads: Vec<usize>,
    algos: Option<Vec<String>>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        smoke: false,
        duration: Duration::from_millis(300),
        // 1, 2, 4, k, 2k, oversubscribed (the host is allowed to have
        // fewer cores than 16 — oversubscription is part of the design).
        threads: vec![1, 2, 4, K, 2 * K, 16],
        algos: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--json" => {
                args.next(); // consumed by JsonSink::from_args
            }
            "--duration-ms" => {
                let ms = args
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or_else(|| usage("--duration-ms needs an integer"));
                opts.duration = Duration::from_millis(ms);
            }
            "--threads" => {
                let list = args
                    .next()
                    .unwrap_or_else(|| usage("--threads needs a list"));
                opts.threads = list
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|&t| t >= 1)
                            .unwrap_or_else(|| usage("--threads entries must be positive"))
                    })
                    .collect();
            }
            "--algo" => {
                let list = args.next().unwrap_or_else(|| usage("--algo needs a list"));
                opts.algos = Some(list.split(',').map(|s| s.trim().to_string()).collect());
            }
            other if other.starts_with("--json=") => {}
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if opts.smoke {
        opts.threads = vec![2];
        opts.duration = Duration::from_millis(60);
    }
    opts.threads.sort_unstable();
    opts.threads.dedup();
    opts
}

fn usage(msg: &str) -> ! {
    eprintln!("contend: {msg}");
    eprintln!(
        "usage: contend [--smoke] [--json <path>] [--duration-ms <n>] \
         [--threads <a,b,c>] [--algo <names>]"
    );
    std::process::exit(2);
}

fn stats_json(s: &RunStats) -> Json {
    Json::obj(vec![
        ("threads", s.threads.into()),
        ("total_ops", s.total_ops.into()),
        ("elapsed_ms", (s.elapsed.as_secs_f64() * 1e3).into()),
        ("ops_per_sec", s.ops_per_sec().into()),
        ("p50_ns", s.p50_ns.into()),
        ("p90_ns", s.p90_ns.into()),
        ("p99_ns", s.p99_ns.into()),
        ("p999_ns", s.p999_ns.into()),
        ("latency_samples", s.samples.into()),
        ("min_thread_ops", s.min_thread_ops.into()),
        ("max_thread_ops", s.max_thread_ops.into()),
    ])
}

fn main() {
    let opts = parse_args();
    let mut sink = JsonSink::from_args_or_default("BENCH_contend.json");
    let cfg = RunConfig::with_duration(opts.duration);
    let cases: Vec<Algo> = algorithms()
        .into_iter()
        .filter(|a| {
            opts.algos
                .as_ref()
                .is_none_or(|names| names.iter().any(|n| n == a.name))
        })
        .collect();
    if cases.is_empty() {
        usage("--algo matched no algorithm");
    }

    println!(
        "contend: threads={:?} window={:?} cpus={}",
        opts.threads,
        opts.duration,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let mut failures = 0u32;
    let mut algo_docs = Vec::new();
    // Median of several measured windows per cell: on a small host the
    // scheduler adds several percent of run-to-run noise.
    let windows: usize = if opts.smoke { 1 } else { 3 };
    for case in &cases {
        let mut runs = Vec::new();
        for &threads in &opts.threads {
            let op = (case.make)(threads);
            let mut samples: Vec<_> = (0..windows)
                .map(|_| run_contended(threads, &cfg, &op))
                .collect();
            samples.sort_by(|a, z| a.ops_per_sec().total_cmp(&z.ops_per_sec()));
            let stats = samples[samples.len() / 2];
            println!(
                "  {:>17} T={:<2} {:>12.0} ops/s  p50={:>7} p90={:>7} p99={:>7} p999={:>8} ns  ops/thread={}..{}",
                case.name,
                threads,
                stats.ops_per_sec(),
                stats.p50_ns,
                stats.p90_ns,
                stats.p99_ns,
                stats.p999_ns,
                stats.min_thread_ops,
                stats.max_thread_ops,
            );
            if stats.total_ops == 0 || stats.samples == 0 {
                eprintln!("  FAIL: {} T={threads} made no progress", case.name);
                failures += 1;
            }
            runs.push(stats_json(&stats));
        }
        algo_docs.push(Json::obj(vec![
            ("name", case.name.into()),
            ("k", case.k.into()),
            ("runs", Json::arr(runs)),
        ]));
    }

    sink.put("schema", "kex-bench/contend/v2".into());
    sink.put(
        "cpus",
        std::thread::available_parallelism()
            .map_or(0usize, |n| n.get())
            .into(),
    );
    sink.put("k", K.into());
    sink.put("duration_ms", (opts.duration.as_millis() as u64).into());
    sink.put("warmup_ms", (cfg.warmup.as_millis() as u64).into());
    sink.put("latency_sample_every", cfg.sample_every.into());
    sink.put("windows_per_cell", windows.into());
    sink.put(
        "thread_counts",
        Json::arr(opts.threads.iter().map(|&t| t.into()).collect()),
    );
    sink.put("algorithms", Json::arr(algo_docs));
    sink.finish();

    if failures > 0 {
        eprintln!("contend: {failures} run(s) made no progress");
        std::process::exit(1);
    }
    if opts.smoke {
        println!("SMOKE OK: every algorithm made progress at T=2");
    }
}
