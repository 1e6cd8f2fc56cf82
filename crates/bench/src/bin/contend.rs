//! E12: the wall-clock contention grid.
//!
//! For each row of [`kex_bench::contend::algorithms`] — the native
//! algorithms and baselines, the paper's (N, 1) instance, the wrapped
//! stack and the bare payload objects — this spawns T ∈ {1, 2, 4, k, 2k,
//! oversubscribed} threads doing closed-loop acquire→CS→release cycles
//! and prints throughput, sampled latency percentiles, and per-thread
//! fairness, one line per cell. Exits non-zero if any cell makes no
//! progress.
//!
//! ```text
//! contend [--duration-ms <n>] [--threads <a,b,c>] [--algo <name,...>]
//! ```
//!
//! Methodology caveats live in `EXPERIMENTS.md` E12.

use std::time::Duration;

use kex_bench::contend::{algorithms, run_contended, Algo, RunConfig, K};

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
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    opts.threads.sort_unstable();
    opts.threads.dedup();
    opts
}

fn usage(msg: &str) -> ! {
    eprintln!("contend: {msg}");
    eprintln!("usage: contend [--duration-ms <n>] [--threads <a,b,c>] [--algo <names>]");
    std::process::exit(2);
}

fn main() {
    let opts = parse_args();
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
    // Median of several measured windows per cell: on a small host the
    // scheduler adds several percent of run-to-run noise.
    let windows: usize = 3;
    for case in &cases {
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
        }
    }

    if failures > 0 {
        eprintln!("contend: {failures} run(s) made no progress");
        std::process::exit(1);
    }
}
