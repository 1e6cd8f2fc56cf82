//! E12: the wall-clock contention grid.
//!
//! For each row of [`kex_bench::contend::algorithms`] — the native
//! algorithms and baselines, the paper's (N, 1) instance, the wrapped
//! stack and the bare payload objects — this spawns T ∈ {1, 2, 4, k, 2k,
//! oversubscribed} threads doing closed-loop acquire→CS→release cycles
//! and reports throughput, sampled latency percentiles, and per-thread
//! fairness. Always writes a JSON document (default
//! `BENCH_contend.json`, git-ignored) via the shared report writer, and
//! exits non-zero if any cell makes no progress.
//!
//! ```text
//! contend [--json <path>] [--duration-ms <n>]
//!         [--threads <a,b,c>] [--algo <name,...>]
//! ```
//!
//! Methodology caveats live in `EXPERIMENTS.md` E12.

use std::time::Duration;

use kex_bench::contend::{algorithms, run_contended, Algo, RunConfig, RunStats, K};
use kex_bench::JsonSink;
use kex_obs::json::Json;

#[derive(Debug)]
struct Options {
    duration: Duration,
    threads: Vec<usize>,
    algos: Option<Vec<String>>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        duration: Duration::from_millis(300),
        // 1, 2, 4, k, 2k, oversubscribed (the host is allowed to have
        // fewer cores than 16 — oversubscription is part of the design).
        threads: vec![1, 2, 4, K, 2 * K, 16],
        algos: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
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
    opts.threads.sort_unstable();
    opts.threads.dedup();
    opts
}

fn usage(msg: &str) -> ! {
    eprintln!("contend: {msg}");
    eprintln!(
        "usage: contend [--json <path>] [--duration-ms <n>] \
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
    let windows: usize = 3;
    for case in &cases {
        let mut runs = Vec::new();
        for &threads in &opts.threads {
            let mut samples: Vec<_> = (0..windows)
                .map(|_| run_contended(threads, &cfg, (case.make)(threads)))
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
}
