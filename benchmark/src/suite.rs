//! The whole benchmark in one go: every workload in a process of its
//! own, first the end-to-end pass (tracing off), then the traced pass;
//! the results file carries the host fingerprint, and `agree` compares
//! two such files against the benchmark's own bounds.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use kex_obs::json::{read_file, write_pretty, Json};

use crate::report::{cpus, out_dir, show};
use crate::spec::{Metric, END_TO_END, PER_LAYER, WORKLOADS};

/// No single run may reach this: the PR driver budgets 30 s a run.
const RUN_LIMIT_S: f64 = 30.0;

/// What has to match before two results files may be compared.
fn fingerprint() -> Json {
    let from_env = |var: &str| std::env::var(var).unwrap_or_else(|_| "unknown".into());
    Json::obj(vec![
        ("cpus", cpus().into()),
        ("arch", std::env::consts::ARCH.into()),
        ("rustc", from_env("KEXBENCH_RUSTC").into()),
        ("git_rev", from_env("KEXBENCH_GIT_REV").into()),
        (
            "flavour",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
    ])
}

struct Run {
    wall_s: f64,
    attempted: u64,
    failed: u64,
    /// name → `{value, unit[, q1, q3]}`.
    metrics: Vec<(String, Json)>,
}

/// One workload, one pass, in a child process; its output is echoed.
fn child(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let began = Instant::now();
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let wall_s = began.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let machine = |line: &&str| line.starts_with('{') || line.starts_with("DETAIL ");
    lines
        .iter()
        .filter(|l| !machine(l))
        .for_each(|l| println!("{l}"));
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            u8::from(traced),
            out.status
        ));
    }
    if wall_s >= RUN_LIMIT_S {
        return Err(format!(
            "{workload} (trace {}) took {wall_s:.1} s, the limit is {RUN_LIMIT_S} s",
            u8::from(traced)
        ));
    }

    let parse = |line: Option<&&str>| {
        let line = line.ok_or(format!("{workload}: result line missing"))?;
        kex_obs::json::parse(line.trim_start_matches("DETAIL "))
            .map_err(|e| format!("{workload}: {e}"))
    };
    let result = parse(lines.last())?;
    let detail = parse(lines.iter().rev().find(|l| l.starts_with("DETAIL ")))?;
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return Err(format!("{workload}: result without metrics"));
    };
    let metrics = metrics
        .iter()
        .map(|(name, entry)| {
            let Json::Obj(mut fields) = entry.clone() else {
                unreachable!("written by one_run")
            };
            if let Some([q1, q3]) = detail
                .get("quartiles")
                .and_then(|q| q.get(name))
                .and_then(Json::as_arr)
            {
                fields.push(("q1".into(), q1.clone()));
                fields.push(("q3".into(), q3.clone()));
            }
            (name.clone(), Json::Obj(fields))
        })
        .collect();
    let count = |key| {
        result
            .get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("{workload}: no {key}"))
    };
    Ok(Run {
        wall_s,
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

pub fn run(seed: u64, seconds: u64, out: &Path) -> Result<(), String> {
    let began = Instant::now();
    let mut passes = Vec::new();
    for traced in [false, true] {
        let mut pass = Vec::new();
        for w in &WORKLOADS {
            let run = child(w.name, seed, seconds, traced)?;
            if traced {
                let path = out_dir().join("trace.json");
                let spans = crate::trace::validate(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                let kept = out_dir().join(format!("trace-{}.json", w.name));
                std::fs::copy(&path, &kept).map_err(|e| format!("{}: {e}", kept.display()))?;
                println!(
                    "  {spans} spans, every parent present; kept as {}",
                    kept.display()
                );
            }
            pass.push(run);
        }
        passes.push(pass);
    }

    let workloads = WORKLOADS.iter().enumerate().map(|(i, w)| {
        let (plain, traced) = (&passes[0][i], &passes[1][i]);
        let entry = Json::obj(vec![
            ("attempted", (plain.attempted + traced.attempted).into()),
            ("failed", (plain.failed + traced.failed).into()),
            ("end_to_end_wall_s", plain.wall_s.into()),
            ("traced_wall_s", traced.wall_s.into()),
            ("end_to_end", Json::Obj(plain.metrics.clone())),
            ("per_layer", Json::Obj(traced.metrics.clone())),
        ]);
        (w.name.to_string(), entry)
    });
    let doc = Json::obj(vec![
        ("schema", "kex-benchmark/results/v1".into()),
        ("fingerprint", fingerprint()),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("workloads", Json::Obj(workloads.collect())),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    write_pretty(out, &doc).map_err(|e| format!("{}: {e}", out.display()))?;

    println!("\nrun                    end-to-end wall  traced wall");
    for (i, w) in WORKLOADS.iter().enumerate() {
        println!(
            "{:<22} {:>13.1} s {:>10.1} s",
            w.name, passes[0][i].wall_s, passes[1][i].wall_s
        );
    }
    println!(
        "total {:.1} s; results in {}",
        began.elapsed().as_secs_f64(),
        out.display()
    );
    Ok(())
}

struct Reading {
    value: f64,
    q1: f64,
    q3: f64,
}

fn reading(doc: &Json, workload: &str, section: &str, metric: &str) -> Result<Reading, String> {
    let entry = doc
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(section))
        .and_then(|s| s.get(metric))
        .ok_or(format!("no {section} {metric} for {workload}"))?;
    let field = |key: &str| entry.get(key).and_then(Json::as_f64);
    let value = field("value").ok_or(format!("{workload} {metric}: no value"))?;
    Ok(Reading {
        value,
        q1: field("q1").unwrap_or(value),
        q3: field("q3").unwrap_or(value),
    })
}

/// Two suite files of the same code agree when every end-to-end metric
/// on every workload differs by no more than its bound (as a share of
/// the first file's value) and every `*_per_op` count is identical.
pub fn agree(a_path: &Path, b_path: &Path) -> Result<(), String> {
    let (a, b) = (read_file(a_path)?, read_file(b_path)?);
    let (fa, fb) = (a.get("fingerprint"), b.get("fingerprint"));
    if fa.is_none() || fa != fb {
        return Err(format!(
            "refusing to compare across hosts or builds:\n  {}: {}\n  {}: {}",
            a_path.display(),
            fa.unwrap_or(&Json::Null),
            b_path.display(),
            fb.unwrap_or(&Json::Null)
        ));
    }
    let seed = |doc: &Json| doc.get("seed").and_then(Json::as_u64).unwrap_or(0);
    println!(
        "A = {} (seed {}), B = {} (seed {})",
        a_path.display(),
        seed(&a),
        b_path.display(),
        seed(&b)
    );
    println!(
        "{:<20} {:<17} {:>38} {:>38} {:>7} {:>6}",
        "workload", "metric", "A value (quartiles)", "B value (quartiles)", "|B-A|/A", "bound"
    );
    let mut misses = Vec::new();
    for w in &WORKLOADS {
        for (m, bound) in &END_TO_END {
            let (ra, rb) = (
                reading(&a, w.name, "end_to_end", m.name)?,
                reading(&b, w.name, "end_to_end", m.name)?,
            );
            let apart = (rb.value - ra.value).abs() / ra.value;
            let show =
                |r: &Reading| format!("{} ({} .. {})", show(r.value), show(r.q1), show(r.q3));
            let miss = apart > *bound;
            println!(
                "{:<20} {:<17} {:>38} {:>38} {:>6.1}% {:>5.0}% {}",
                w.name,
                m.name,
                show(&ra),
                show(&rb),
                apart * 100.0,
                bound * 100.0,
                if miss { "MISS" } else { "" }
            );
            if miss {
                misses.push(format!("{} {} is beyond its bound", w.name, m.name));
            }
        }
        for m in PER_LAYER
            .iter()
            .filter(|m: &&Metric| m.name.ends_with("_per_op"))
        {
            let (ca, cb) = (
                reading(&a, w.name, "per_layer", m.name)?.value,
                reading(&b, w.name, "per_layer", m.name)?.value,
            );
            if ca != cb {
                misses.push(format!("{} {}: count {ca} became {cb}", w.name, m.name));
            }
        }
    }
    if misses.is_empty() {
        println!(
            "agreement: every end-to-end metric within its bound, every *_per_op count identical"
        );
        Ok(())
    } else {
        Err(format!(
            "the two sets of runs disagree:\n  {}",
            misses.join("\n  ")
        ))
    }
}
