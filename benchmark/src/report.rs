//! One run of one workload: measure, check, print every metric by name
//! with its unit, and end with the one-line JSON result.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use kex_obs::json::Json;

use crate::hist::{quartiles, Hist, Quartiles};
use crate::ladder::Metrics;
use crate::spec::{Kind, Metric, Workload, END_TO_END, PER_LAYER};
use crate::trace::{OpKind, Trace};
use crate::workload::{throughput, Outcome, WindowStat, CLIENTS};

/// Where `trace.json` and the suite's files go; `run.sh` sets it.
pub fn out_dir() -> PathBuf {
    std::env::var_os("KEXBENCH_OUT").map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Six decimals, nine for the sub-millisecond set-up times.
pub fn show(value: f64) -> String {
    if value.abs() < 0.01 && value != 0.0 {
        format!("{value:.9}")
    } else {
        format!("{value:.6}")
    }
}

/// `0.999` → `p99.9`.
fn percentile_label(q: f64) -> String {
    let pct = format!("{:.6}", q * 100.0);
    format!("p{}", pct.trim_end_matches('0').trim_end_matches('.'))
}

fn merged<'a>(hists: impl Iterator<Item = &'a Hist>) -> Hist {
    let mut all = Hist::new();
    hists.for_each(|h| all.merge(h));
    all
}

/// The share of a window each client must have spent on a cpu for the
/// window to count, and how many windows must count.
const FULL_CORE: f64 = 0.95;
const MIN_WINDOWS: usize = 10;

/// The windows the statistics are taken over. The workloads are two
/// clients on a core each: a window in which a client had a cpu for
/// less than `FULL_CORE` of the time (another task ran, or the host took
/// the vCPU) measured something else and is left out, unless that
/// leaves too few to take quartiles over, and then all of them count.
fn on_cores(windows: &[WindowStat]) -> Vec<&WindowStat> {
    let kept: Vec<_> = windows
        .iter()
        .filter(|w| w.cpu_share >= FULL_CORE)
        .collect();
    if kept.len() >= MIN_WINDOWS.min(windows.len()) {
        kept
    } else {
        windows.iter().collect()
    }
}

/// A metric, its value, and the quartiles over windows where the value
/// comes from windows.
type Reading = (&'static Metric, f64, Option<Quartiles>);

pub fn one_run(w: &'static Workload, seed: u64, seconds: u64, traced: bool) -> Result<(), String> {
    if cpus() < CLIENTS {
        return Err(format!(
            "{} cpu available: the workloads need their {CLIENTS} clients on real cores",
            cpus()
        ));
    }
    let began = Instant::now();
    println!(
        "workload {} seed {seed} seconds {seconds} trace {} cpus {}",
        w.name,
        u8::from(traced),
        cpus()
    );
    let mut trace = traced.then(|| Trace::new(w.name));
    let outcome = crate::workload::run(w, seed, seconds, trace.as_ref().map(|t| t.epoch))
        .map_err(|failed| format!("{}: output check failed: {}", w.name, failed.0))?;
    // A shed is a failed op too (the blocking surface must never shed).
    let (attempted, failed) = (outcome.attempted, outcome.failed + outcome.sheds);
    if failed > 0 {
        return Err(format!("{}: {failed} of {attempted} ops failed", w.name));
    }

    let readings: Vec<Reading> = match &mut trace {
        None => end_to_end(&outcome)?,
        Some(trace) => {
            let mut metrics = crate::ladder::run(trace, seed);
            metrics.extend(window_metrics(w, &outcome, trace));
            metrics.extend(count_pass()?);
            let path = out_dir().join("trace.json");
            trace
                .write(&path, seed)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!("  spans written to {}", path.display());
            PER_LAYER
                .iter()
                .map(|m| match metrics.get(m.name) {
                    Some(&value) => Ok((m, value, None)),
                    None => Err(format!("metric {} was not measured", m.name)),
                })
                .collect::<Result<_, _>>()?
        }
    };

    for (m, value, quartiles) in &readings {
        let beside = quartiles.map_or(String::new(), |q| {
            format!("  (quartiles {} .. {})", show(q.q1), show(q.q3))
        });
        println!("  {:<36} {:>18} {}{beside}", m.name, show(*value), m.unit);
    }
    println!(
        "  attempted {attempted} failed {failed} wall {:.1} s",
        began.elapsed().as_secs_f64()
    );

    let quartiles = readings.iter().filter_map(|(m, _, quartiles)| {
        quartiles.map(|q| {
            (
                m.name.to_string(),
                Json::arr(vec![q.q1.into(), q.q3.into()]),
            )
        })
    });
    println!(
        "DETAIL {}",
        Json::obj(vec![("quartiles", Json::Obj(quartiles.collect()))])
    );
    let metrics = readings.iter().map(|(m, value, _)| {
        (
            m.name.to_string(),
            Json::obj(vec![("value", (*value).into()), ("unit", m.unit.into())]),
        )
    });
    println!(
        "{}",
        Json::obj(vec![
            ("correct", true.into()),
            ("attempted", attempted.into()),
            ("failed", failed.into()),
            ("metrics", Json::Obj(metrics.collect())),
        ])
    );
    Ok(())
}

/// Each timing is an order statistic, over the measured windows or over
/// the repeated set-ups, chosen for what a shared host does to it
/// (README, "Calibration"). A client that loses its core for a moment
/// leaves the other one uncontended, which only ever makes the median op
/// *faster*: `op_p50_ns` is the third quartile. Whatever else runs on
/// the host stretches a window's tail, and a single-threaded set-up, and
/// nothing shrinks them: `op_p99_ns` and `setup_s` are the first
/// quartile. Throughput is pushed both ways and is the median.
fn end_to_end(outcome: &Outcome) -> Result<Vec<Reading>, String> {
    let counted = on_cores(&outcome.windows);
    println!(
        "  {} of {} windows count: both clients on a cpu {:.0} % of the time, or too few were",
        counted.len(),
        outcome.windows.len(),
        FULL_CORE * 100.0
    );
    let over_windows =
        |f: fn(&WindowStat) -> f64| quartiles(&counted.iter().map(|w| f(w)).collect::<Vec<_>>());
    let throughput = over_windows(|w| w.throughput);
    let p50 = over_windows(|w| w.p50_ns);
    let p99 = over_windows(|w| w.p99_ns);
    let setup_at = |q: f64| outcome.setups_ns.quantile(q) / 1e9;
    let setup = Quartiles {
        q1: setup_at(0.25),
        median: setup_at(0.5),
        q3: setup_at(0.75),
    };
    let (tail_q, tail_ns) = outcome.pooled.tail();
    println!(
        "  {} windows, {} latency samples; pooled over them: p50 {:.1} ns, p99 {:.1} ns, {} {:.1} ns; {} set-ups",
        outcome.windows.len(),
        outcome.pooled.count(),
        outcome.pooled.quantile(0.5),
        outcome.pooled.quantile(0.99),
        percentile_label(tail_q),
        tail_ns,
        outcome.setups_ns.count(),
    );
    let values = [
        (throughput.median, Some(throughput)),
        (p50.q3, Some(p50)),
        (p99.q1, Some(p99)),
        (peak_rss_mb()?, None),
        (setup.q1, Some(setup)),
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|((m, _), (value, q))| (m, value, q))
        .collect())
}

/// The per-workload layer metrics: per-op-type latency from the traced
/// window's spans, what tracing cost, and how the load spread over
/// shards and clients. Also files the window's spans under `trace`.
fn window_metrics(w: &Workload, outcome: &Outcome, trace: &mut Trace) -> Metrics {
    let traced = outcome
        .traced
        .as_ref()
        .expect("a traced run has a traced window");
    let sinks = || traced.iter().filter_map(|t| t.sink.as_ref());
    let of = |kind: OpKind| merged(sinks().map(|s| &s.hists[kind as usize]));
    let (reads, writes, whole) = (of(OpKind::Read), of(OpKind::Write), of(OpKind::Whole));
    let (tail_q, tail_ns) = whole.tail();
    println!(
        "  traced window: {} ops, store.op_tail_ns is {}",
        whole.count(),
        percentile_label(tail_q)
    );

    let [a, b] = outcome.client_ops;
    let (fewest, most) = (a.min(b), a.max(b));
    let busiest = outcome.shard_ops.iter().max().copied().unwrap_or(0) as f64;
    let mean = outcome.shard_ops.iter().sum::<u64>() as f64 / outcome.shard_ops.len().max(1) as f64;

    // The library calls a client op makes, by workload.
    let (read_name, write_name) = match w.kind {
        Kind::Store(_) => ("store.get", "store.put"),
        Kind::Queue => ("waitfree.dequeue", "waitfree.enqueue"),
    };
    for (thread, window) in traced.iter().enumerate() {
        let Some(sink) = &window.sink else { continue };
        let (first, last) = match (sink.spans.first(), sink.spans.last()) {
            (Some(first), Some(last)) => (first.1, last.2),
            _ => continue,
        };
        let window_id = trace.push(0, "loadgen.window", thread, first, last, window.ops);
        // A client op's span is recorded after the spans of the calls it
        // made, so it adopts the ones waiting; a tail cut off by the cap
        // before its op arrived is dropped.
        let mut waiting = Vec::new();
        for &(kind, start, end) in &sink.spans {
            match kind {
                OpKind::Whole => {
                    let op = trace.push(window_id, "loadgen.op", thread, start, end, 1);
                    for (name, start, end) in waiting.drain(..) {
                        trace.push(op, name, thread, start, end, 1);
                    }
                }
                OpKind::Read => waiting.push((read_name, start, end)),
                OpKind::Write => waiting.push((write_name, start, end)),
            }
        }
    }

    [
        ("store.get_p50_ns", reads.quantile(0.5)),
        ("store.get_p99_ns", reads.quantile(0.99)),
        ("store.put_p50_ns", writes.quantile(0.5)),
        ("store.put_p99_ns", writes.quantile(0.99)),
        ("store.op_tail_ns", tail_ns),
        ("store.fairness_min_over_max", fewest as f64 / most as f64),
        (
            "loadgen.trace_overhead_pct",
            100.0 * (1.0 - throughput(traced) / outcome.windows[0].throughput),
        ),
        // A workload with one object (the queue) has nothing to skew.
        (
            "shard.ops_max_over_mean",
            if mean > 0.0 { busiest / mean } else { 1.0 },
        ),
        ("shard.sheds", outcome.sheds as f64),
    ]
    .into_iter()
    .collect()
}

/// Runs the obs build's `counts` subcommand and takes its counts.
fn count_pass() -> Result<Metrics, String> {
    let bin = std::env::var_os("KEXBENCH_OBS_BIN")
        .ok_or("a traced run needs KEXBENCH_OBS_BIN, the kexbench built with --features obs (run.sh sets it)")?;
    let out = Command::new(&bin)
        .arg("counts")
        .output()
        .map_err(|e| format!("{}: {e}", PathBuf::from(&bin).display()))?;
    if !out.status.success() {
        return Err(format!(
            "count pass failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("count pass printed nothing")?;
    let Json::Obj(counted) = kex_obs::json::parse(line).map_err(|e| e.to_string())? else {
        return Err("count pass did not print an object".into());
    };
    let mut metrics = Metrics::new();
    for (name, count) in &counted {
        let listed = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("count pass printed unlisted metric {name}"))?;
        metrics.insert(
            listed.name,
            count.as_f64().ok_or("count that is not a number")?,
        );
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(cpu_share: f64) -> WindowStat {
        WindowStat {
            throughput: 1.0,
            p50_ns: 1.0,
            p99_ns: 1.0,
            cpu_share,
        }
    }

    #[test]
    fn windows_without_a_core_each_are_left_out_unless_too_few_remain() {
        let mostly_calm: Vec<_> = (0..40)
            .map(|i| window(if i % 4 == 0 { 0.6 } else { 0.99 }))
            .collect();
        assert_eq!(on_cores(&mostly_calm).len(), 30);
        let mostly_stolen: Vec<_> = (0..40)
            .map(|i| window(if i % 8 == 0 { 0.99 } else { 0.5 }))
            .collect();
        assert_eq!(on_cores(&mostly_stolen).len(), 40);
        let short_run = [window(0.99), window(0.5), window(0.97)];
        assert_eq!(
            on_cores(&short_run).len(),
            3,
            "fewer than the minimum to begin with"
        );
        assert_eq!(percentile_label(0.999), "p99.9");
    }
}
