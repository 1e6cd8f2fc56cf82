//! E2–E6 — regenerate the theorem-bound curves: measured worst-case
//! remote references vs. the paper's formulas, across parameter sweeps.
//!
//! Usage: `cargo run --release -p kex-bench --bin bounds -- [thm1|thm2|thm3|thm4|thm5|thm6|thm7|thm8|thm9|all]`
//! (add `--json <path>` for a machine-readable copy of the curves run)

use kex_bench::{measure, JsonSink, Workload};
use kex_core::sim::{tree_depth, Algorithm};
use kex_obs::json::Json;

fn header(title: &str) {
    println!("==============================================================================");
    println!("{title}");
    println!("==============================================================================");
}

/// The theorem's bound for `algo` at `(n, k)`.
fn bound(algo: Algorithm, n: usize, k: usize) -> u64 {
    let (_, value) = algo.paper_bound(n, k).expect("a theorem with a bound");
    value
}

fn check(measured: u64, bound: u64) -> &'static str {
    if measured <= bound {
        "ok"
    } else {
        "VIOLATED"
    }
}

/// E2 — Theorems 1 and 5: the inductive chains, cost linear in `N - k`.
fn thm_chains() -> Json {
    header("E2 / Theorems 1 & 5: inductive chains — worst pair vs N (k = 2)");
    println!(
        "{:>4} | {:>8} {:>8} {:>5} | {:>8} {:>8} {:>5}",
        "N", "cc meas", "7(N-k)", "", "dsm meas", "14(N-k)", ""
    );
    let mut rows = Vec::new();
    for n in [3usize, 4, 6, 8, 12, 16] {
        let k = 2.min(n - 1);
        let cc = measure(&Workload::full(Algorithm::CcChain, n, k));
        let dsm = measure(&Workload::full(Algorithm::DsmChain, n, k));
        let b_cc = bound(Algorithm::CcChain, n, k);
        let b_dsm = bound(Algorithm::DsmChain, n, k);
        println!(
            "{:>4} | {:>8} {:>8} {:>5} | {:>8} {:>8} {:>5}",
            n,
            cc.worst_pair,
            b_cc,
            check(cc.worst_pair, b_cc),
            dsm.worst_pair,
            b_dsm,
            check(dsm.worst_pair, b_dsm),
        );
        rows.push(Json::obj(vec![
            ("n", n.into()),
            ("k", k.into()),
            ("cc_worst_pair", cc.worst_pair.into()),
            ("cc_bound", b_cc.into()),
            ("dsm_worst_pair", dsm.worst_pair.into()),
            ("dsm_bound", b_dsm.into()),
            (
                "within_bound",
                (cc.worst_pair <= b_cc && dsm.worst_pair <= b_dsm).into(),
            ),
        ]));
    }
    println!("expected shape: linear growth in N, DSM constant about 2x the CC constant\n");
    Json::arr(rows)
}

/// E3 — Theorems 2 and 6: trees, cost logarithmic in `N/k`.
fn thm_trees() -> Json {
    header("E3 / Theorems 2 & 6: trees — worst pair vs N (k = 2)");
    println!(
        "{:>4} {:>6} | {:>8} {:>9} {:>5} | {:>8} {:>9} {:>5} | {:>9}",
        "N", "depth", "cc meas", "7k*depth", "", "dsm meas", "14k*depth", "", "chain 7(N-k)"
    );
    let mut rows = Vec::new();
    for n in [4usize, 8, 16, 32] {
        let k = 2;
        let depth = tree_depth(n, k) as u64;
        let cc = measure(&Workload::full(Algorithm::CcTree, n, k));
        let dsm = measure(&Workload::full(Algorithm::DsmTree, n, k));
        let b_cc = bound(Algorithm::CcTree, n, k);
        let b_dsm = bound(Algorithm::DsmTree, n, k);
        println!(
            "{:>4} {:>6} | {:>8} {:>9} {:>5} | {:>8} {:>9} {:>5} | {:>9}",
            n,
            depth,
            cc.worst_pair,
            b_cc,
            check(cc.worst_pair, b_cc),
            dsm.worst_pair,
            b_dsm,
            check(dsm.worst_pair, b_dsm),
            bound(Algorithm::CcChain, n, k),
        );
        rows.push(Json::obj(vec![
            ("n", n.into()),
            ("k", k.into()),
            ("depth", depth.into()),
            ("cc_worst_pair", cc.worst_pair.into()),
            ("cc_bound", b_cc.into()),
            ("dsm_worst_pair", dsm.worst_pair.into()),
            ("dsm_bound", b_dsm.into()),
            (
                "within_bound",
                (cc.worst_pair <= b_cc && dsm.worst_pair <= b_dsm).into(),
            ),
        ]));
    }
    println!("expected shape: logarithmic growth — the crossover vs the chain is at small N\n");
    Json::arr(rows)
}

/// E4 — Theorems 3 and 7: fast path; contention sweep shows the `k`
/// plateau and the crossover once contention exceeds `k`.
fn thm_fast_path() -> Json {
    header("E4 / Theorems 3 & 7: fast path — worst pair vs contention (N = 16, k = 4)");
    let (n, k) = (16usize, 4usize);
    println!(
        "{:>10} | {:>8} {:>8} | {:>8} {:>8}",
        "contention", "cc meas", "cc mean", "dsm meas", "dsm mean"
    );
    let mut sweep = Vec::new();
    for c in [1usize, 2, 4, 6, 8, 12, 16] {
        let cc = measure(&Workload::full(Algorithm::CcFastPath, n, k).contention(c));
        let dsm = measure(&Workload::full(Algorithm::DsmFastPath, n, k).contention(c));
        println!(
            "{:>10} | {:>8} {:>8.1} | {:>8} {:>8.1}",
            c, cc.worst_pair, cc.mean_pair, dsm.worst_pair, dsm.mean_pair
        );
        sweep.push(Json::obj(vec![
            ("contention", c.into()),
            ("cc_worst_pair", cc.worst_pair.into()),
            ("cc_mean_pair", cc.mean_pair.into()),
            ("dsm_worst_pair", dsm.worst_pair.into()),
            ("dsm_mean_pair", dsm.mean_pair.into()),
        ]));
    }
    println!("expected shape: flat O(k) plateau through contention <= k = 4, then a step up\n");

    header("E4b / Theorem 3: fast-path low-contention cost is independent of N (k = 2, c = 2)");
    println!("{:>4} | {:>8} {:>8}", "N", "cc meas", "dsm meas");
    let mut n_sweep = Vec::new();
    for n in [8usize, 16, 32, 64] {
        let cc = measure(&Workload::full(Algorithm::CcFastPath, n, 2).contention(2));
        let dsm = measure(&Workload::full(Algorithm::DsmFastPath, n, 2).contention(2));
        println!("{:>4} | {:>8} {:>8}", n, cc.worst_pair, dsm.worst_pair);
        n_sweep.push(Json::obj(vec![
            ("n", n.into()),
            ("cc_worst_pair", cc.worst_pair.into()),
            ("dsm_worst_pair", dsm.worst_pair.into()),
        ]));
    }
    println!("expected shape: constant rows — N does not appear at low contention\n");
    Json::obj(vec![
        ("contention_sweep_n16_k4", Json::arr(sweep)),
        ("n_sweep_k2_c2", Json::arr(n_sweep)),
    ])
}

/// E5 — Theorems 4 and 8: graceful degradation, cost proportional to
/// `⌈c/k⌉` rather than stepping to the worst case.
fn thm_graceful() -> Json {
    header("E5 / Theorems 4 & 8: graceful degradation — worst pair vs contention (N = 24, k = 2)");
    let (n, k) = (24usize, 2usize);
    println!(
        "{:>10} {:>9} | {:>8} {:>8} | {:>8} {:>8} | {:>13}",
        "contention", "ceil(c/k)", "cc meas", "cc mean", "dsm meas", "dsm mean", "fastpath meas"
    );
    let mut rows = Vec::new();
    for c in [1usize, 2, 4, 8, 12, 16, 20, 24] {
        let cc = measure(&Workload::full(Algorithm::CcGraceful, n, k).contention(c));
        let dsm = measure(&Workload::full(Algorithm::DsmGraceful, n, k).contention(c));
        let fp = measure(&Workload::full(Algorithm::CcFastPath, n, k).contention(c));
        println!(
            "{:>10} {:>9} | {:>8} {:>8.1} | {:>8} {:>8.1} | {:>13}",
            c,
            c.div_ceil(k),
            cc.worst_pair,
            cc.mean_pair,
            dsm.worst_pair,
            dsm.mean_pair,
            fp.worst_pair,
        );
        rows.push(Json::obj(vec![
            ("contention", c.into()),
            ("ceil_c_over_k", c.div_ceil(k).into()),
            ("cc_worst_pair", cc.worst_pair.into()),
            ("cc_mean_pair", cc.mean_pair.into()),
            ("dsm_worst_pair", dsm.worst_pair.into()),
            ("dsm_mean_pair", dsm.mean_pair.into()),
            ("fastpath_worst_pair", fp.worst_pair.into()),
        ]));
    }
    println!("expected shape: graceful cost climbs smoothly with ceil(c/k); the plain fast");
    println!("path jumps to its full slow-path cost as soon as contention exceeds k\n");
    Json::arr(rows)
}

/// E6 — Theorems 9 and 10: k-assignment adds at most ~k to the
/// k-exclusion cost, with a name space of exactly k.
fn thm_assignment() -> Json {
    header("E6 / Theorems 9 & 10: k-assignment overhead (N = 16)");
    println!(
        "{:>3} | {:>10} {:>10} {:>9} | {:>10} {:>10} {:>9}",
        "k", "cc kex", "cc assign", "overhead", "dsm kex", "dsm assign", "overhead"
    );
    let mut rows = Vec::new();
    for k in [2usize, 3, 4, 6] {
        let n = 16;
        let cc_kex = measure(&Workload::full(Algorithm::CcFastPath, n, k));
        let cc_asn = measure(&Workload::full(Algorithm::AssignmentCc, n, k));
        let dsm_kex = measure(&Workload::full(Algorithm::DsmFastPath, n, k));
        let dsm_asn = measure(&Workload::full(Algorithm::AssignmentDsm, n, k));
        println!(
            "{:>3} | {:>10} {:>10} {:>9} | {:>10} {:>10} {:>9}",
            k,
            cc_kex.worst_pair,
            cc_asn.worst_pair,
            cc_asn.worst_pair as i64 - cc_kex.worst_pair as i64,
            dsm_kex.worst_pair,
            dsm_asn.worst_pair,
            dsm_asn.worst_pair as i64 - dsm_kex.worst_pair as i64,
        );
        rows.push(Json::obj(vec![
            ("n", n.into()),
            ("k", k.into()),
            ("cc_kex_worst_pair", cc_kex.worst_pair.into()),
            ("cc_assignment_worst_pair", cc_asn.worst_pair.into()),
            ("dsm_kex_worst_pair", dsm_kex.worst_pair.into()),
            ("dsm_assignment_worst_pair", dsm_asn.worst_pair.into()),
        ]));
    }
    println!("expected shape: overhead bounded by about k+1 (the Figure-7 TAS walk)\n");
    Json::arr(rows)
}

/// Figure 5 vs Figure 6: the price of bounding the spin-location space.
fn fig5_vs_fig6() -> Json {
    header("ablation / Figures 5 vs 6: unbounded vs bounded spin locations (DSM chains)");
    println!(
        "{:>4} | {:>10} {:>10} | {:>12}",
        "N", "fig5 meas", "fig6 meas", "fig6 - fig5"
    );
    let mut rows = Vec::new();
    for n in [3usize, 4, 6, 8] {
        let k = 2.min(n - 1);
        let f5 = measure(&Workload::full(Algorithm::DsmUnboundedChain, n, k));
        let f6 = measure(&Workload::full(Algorithm::DsmChain, n, k));
        println!(
            "{:>4} | {:>10} {:>10} | {:>12}",
            n,
            f5.worst_pair,
            f6.worst_pair,
            f6.worst_pair as i64 - f5.worst_pair as i64
        );
        rows.push(Json::obj(vec![
            ("n", n.into()),
            ("k", k.into()),
            ("fig5_worst_pair", f5.worst_pair.into()),
            ("fig6_worst_pair", f6.worst_pair.into()),
        ]));
    }
    println!("expected shape: fig6 costs ~6 more per stage (the R[] handshake), buying");
    println!("bounded space (k+2 locations/process) instead of an unbounded supply\n");
    Json::arr(rows)
}

/// Tree-arity ablation: the paper's Figure 3(a) merges two children per
/// level. Higher arity means a shallower tree but `(arity*k, k)` blocks
/// whose chains cost `7(arity-1)k` each — measure where the optimum sits.
fn arity_ablation() -> Json {
    use kex_core::sim::fig2_chain;
    use kex_core::sim::tree::{tree_depth_with_arity, tree_with_arity};
    use kex_sim::prelude::*;

    header("ablation / tree arity: worst pair vs arity (N = 32, k = 2, CC)");
    println!(
        "{:>6} {:>6} | {:>8} {:>20}",
        "arity", "depth", "meas", "7(a-1)k*depth bound"
    );
    let (n, k) = (32usize, 2usize);
    let mut rows = Vec::new();
    for arity in [2usize, 4, 8, 16] {
        let mut b = ProtocolBuilder::new(n);
        let root = tree_with_arity(&mut b, n, k, arity, &mut |b, m, k| fig2_chain(b, m, k));
        let proto = b.finish(root, k);
        let mut worst = 0;
        for seed in 0..8 {
            let mut sim = Sim::new(proto.clone(), MemoryModel::CacheCoherent)
                .cycles(15)
                .scheduler(RandomSched::new(seed))
                .timing(Timing {
                    ncs_steps: 1,
                    cs_steps: 2,
                })
                .build();
            let report = sim.run(100_000_000);
            report.assert_safe();
            worst = worst.max(report.stats.worst_pair());
        }
        let depth = tree_depth_with_arity(n, k, arity) as u64;
        let bound = 7 * (arity as u64 - 1) * k as u64 * depth;
        println!("{:>6} {:>6} | {:>8} {:>20}", arity, depth, worst, bound);
        rows.push(Json::obj(vec![
            ("arity", arity.into()),
            ("depth", depth.into()),
            ("worst_pair", worst.into()),
            ("bound", bound.into()),
        ]));
    }
    println!("expected shape: binary is at or near the optimum — doubling arity halves");
    println!("depth at best but multiplies per-level block cost by (arity-1)\n");
    Json::arr(rows)
}

/// §5's aspiration: how close do the `(N, 1)` instances come to the MCS
/// queue lock (the paper's \[12\]), the classic O(1)-RMR spin lock?
fn k1_vs_mcs() -> Json {
    use kex_core::sim::{mcs, yang_anderson};
    use kex_sim::prelude::*;
    use kex_sim::types::NodeId;

    let measure_root = |make: &dyn Fn(&mut ProtocolBuilder) -> NodeId, n: usize| {
        let mut b = ProtocolBuilder::new(n);
        let root = make(&mut b);
        let proto = b.finish(root, 1);
        let mut worst = 0;
        for seed in 0..8 {
            let mut sim = Sim::new(proto.clone(), MemoryModel::CacheCoherent)
                .cycles(15)
                .scheduler(RandomSched::new(seed))
                .timing(Timing {
                    ncs_steps: 1,
                    cs_steps: 2,
                })
                .build();
            let report = sim.run(100_000_000);
            report.assert_safe();
            worst = worst.max(report.stats.worst_pair());
        }
        worst
    };

    header("§5 aspiration: (N,1)-exclusion vs the reference spin locks — worst RMR pair");
    println!(
        "{:>4} | {:>9} {:>9} | {:>8} {:>8} {:>10} {:>10}",
        "N", "mcs[12]", "ya[14]", "chain", "tree", "fastpath", "graceful"
    );
    let mut rows = Vec::new();
    for n in [4usize, 8, 16, 32] {
        let mcs_worst = measure_root(&|b| mcs(b), n);
        let ya_worst = measure_root(&|b| yang_anderson(b), n);
        let chain = measure(&Workload::full(Algorithm::CcChain, n, 1));
        let tree = measure(&Workload::full(Algorithm::CcTree, n, 1));
        let fp = measure(&Workload::full(Algorithm::CcFastPath, n, 1));
        let gr = measure(&Workload::full(Algorithm::CcGraceful, n, 1));
        println!(
            "{:>4} | {:>9} {:>9} | {:>8} {:>8} {:>10} {:>10}",
            n, mcs_worst, ya_worst, chain.worst_pair, tree.worst_pair, fp.worst_pair, gr.worst_pair
        );
        rows.push(Json::obj(vec![
            ("n", n.into()),
            ("mcs_worst_pair", mcs_worst.into()),
            ("yang_anderson_worst_pair", ya_worst.into()),
            ("chain_worst_pair", chain.worst_pair.into()),
            ("tree_worst_pair", tree.worst_pair.into()),
            ("fastpath_worst_pair", fp.worst_pair.into()),
            ("graceful_worst_pair", gr.worst_pair.into()),
        ]));
    }
    println!("expected shape: MCS (swap+CAS) is O(1) and flat; Yang-Anderson (read/");
    println!("write only) and the paper's k = 1 instances (fetch&inc) grow with log N.");
    println!("the reference locks pay with zero crash resilience, which is the");
    println!("paper's whole subject.\n");
    Json::arr(rows)
}

/// Waiting-time fairness: the RMR measure deliberately ignores local
/// spinning, so an algorithm can be RMR-cheap yet keep individual
/// processes waiting long. Compare worst entry-section waiting (own
/// steps) across algorithms at full contention.
fn fairness() -> Json {
    header("ablation / fairness: entry-section waiting (own steps), N = 12, k = 3");
    println!(
        "{:<24} {:>10} {:>10} {:>12}",
        "algorithm", "p99 wait", "worst wait", "worst RMR"
    );
    let mut rows = Vec::new();
    for algo in [
        Algorithm::QueueFig1,
        Algorithm::CcChain,
        Algorithm::CcTree,
        Algorithm::CcFastPath,
        Algorithm::CcGraceful,
        Algorithm::DsmChain,
    ] {
        let m = measure(&Workload::full(algo, 12, 3).dwell(1, 4));
        println!(
            "{:<24} {:>10} {:>10} {:>12}",
            algo.label(),
            m.p99_wait_steps,
            m.worst_wait_steps,
            m.worst_pair
        );
        rows.push(Json::obj(vec![
            ("algorithm", algo.label().into()),
            ("p99_wait_steps", m.p99_wait_steps.into()),
            ("worst_wait_steps", m.worst_wait_steps.into()),
            ("worst_pair", m.worst_pair.into()),
        ]));
    }
    println!("reading: the FIFO queue has the tightest waiting spread but the worst");
    println!("implementability; the local-spin algorithms trade some waiting-time");
    println!("variance for bounded RMRs (starvation-freedom is still guaranteed and");
    println!("verified by the model checker)\n");
    Json::arr(rows)
}

fn main() {
    let mut sink = JsonSink::from_args();
    // First non-flag argument selects the experiment (`--json <path>` is
    // consumed by the sink but skipped here).
    let mut arg = "all".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            args.next();
        } else if !a.starts_with("--") {
            arg = a;
            break;
        }
    }
    type Experiment = (&'static str, fn() -> Json);
    let experiments: &[Experiment] = &[
        ("chains", thm_chains),
        ("trees", thm_trees),
        ("fast_path", thm_fast_path),
        ("graceful", thm_graceful),
        ("assignment", thm_assignment),
        ("fig5_vs_fig6", fig5_vs_fig6),
        ("fairness", fairness),
        ("arity", arity_ablation),
        ("k1_vs_mcs", k1_vs_mcs),
    ];
    let selected: &[&str] = match arg.as_str() {
        "thm1" | "thm5" => &["chains"],
        "thm2" | "thm6" => &["trees"],
        "thm3" | "thm7" => &["fast_path"],
        "thm4" | "thm8" => &["graceful"],
        "thm9" | "thm10" => &["assignment"],
        "fig5" => &["fig5_vs_fig6"],
        "fairness" => &["fairness"],
        "arity" => &["arity"],
        "mcs" => &["k1_vs_mcs"],
        "all" => &[
            "chains",
            "trees",
            "fast_path",
            "graceful",
            "assignment",
            "fig5_vs_fig6",
            "fairness",
            "arity",
            "k1_vs_mcs",
        ],
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!("usage: bounds -- [thm1|thm2|thm3|thm4|thm9|fig5|fairness|arity|mcs|all] [--json <path>]");
            std::process::exit(2);
        }
    };
    sink.put("schema", "kex-bench/bounds/v1".into());
    for (name, run) in experiments {
        if selected.contains(name) {
            let doc = run();
            sink.put(name, doc);
        }
    }
    sink.finish();
}
