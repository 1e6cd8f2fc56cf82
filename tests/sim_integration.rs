//! Cross-crate integration: every simulator algorithm variant, under both
//! memory models and many schedules, against the safety checker — and
//! the paper's evaluation as asserting sweeps: Table 1 (E1, E8) and
//! Theorems 1–10 with their ablations (E2–E6, E10; `EXPERIMENTS.md`).
//!
//! Each `eN_*` test builds its table, prints it to stderr in one piece
//! and fails, naming the sweep and `(N, k)`, on any row that breaks its
//! claim. One sweep and its table:
//! `cargo test --release --test sim_integration e4_ -- --nocapture`.

use std::fmt::Write;

use kex::core::sim::tree::{tree_depth_with_arity, tree_with_arity};
use kex::core::sim::{fig2_chain, mcs, tree_depth, yang_anderson, Algorithm};
use kex::sim::prelude::*;
use kex::sim::types::NodeId;

/// Run a configuration to quiescence and return the report.
fn run(
    algo: Algorithm,
    n: usize,
    k: usize,
    participants: usize,
    seed: u64,
    cycles: u64,
) -> RunReport {
    let proto = algo.build(n, k, cycles as usize + 1);
    let mut sim = Sim::new(proto, algo.model())
        .cycles(cycles)
        .scheduler(RandomSched::new(seed))
        .participants(0..participants)
        .timing(Timing {
            ncs_steps: 1,
            cs_steps: 2,
        })
        .build();
    let report = sim.run(100_000_000);
    report.assert_safe();
    assert_eq!(
        report.stop,
        StopReason::Quiescent,
        "{} (n={n},k={k}) did not finish",
        algo.label()
    );
    report
}

#[test]
fn every_algorithm_is_safe_at_full_contention() {
    for algo in Algorithm::ALL {
        for seed in 0..5 {
            let report = run(algo, 12, 3, 12, seed, 10);
            assert_eq!(report.total_completed(), 120, "{}", algo.label());
        }
    }
}

#[test]
fn every_algorithm_is_safe_at_low_contention() {
    for algo in Algorithm::ALL {
        let report = run(algo, 12, 3, 2, 7, 15);
        assert_eq!(report.total_completed(), 30, "{}", algo.label());
    }
}

#[test]
fn assignment_names_stay_unique_under_stress() {
    // The Sim's checker validates names in every state; surviving a long
    // random run is the assertion.
    for algo in [Algorithm::AssignmentCc, Algorithm::AssignmentDsm] {
        for seed in 0..5 {
            let report = run(algo, 10, 3, 10, seed, 12);
            assert_eq!(report.total_completed(), 120, "{}", algo.label());
        }
    }
}

#[test]
fn starvation_freedom_survives_a_maximal_adversary() {
    // A scheduler that lets rivals lap the victim 200 times between its
    // steps: the paper's algorithms still deliver the victim's
    // acquisitions (starvation-freedom is scheduler-independent), while
    // the global-spin baseline leaves it spinning.
    let victim = 3;
    let run_with_adversary = |algo: Algorithm, budget: u64| {
        let proto = algo.build(6, 2, 6);
        let mut sim = Sim::new(proto, algo.model())
            .cycles(5)
            .scheduler(VictimSched::new(victim, 200))
            .timing(Timing {
                ncs_steps: 0,
                cs_steps: 2,
            })
            .build();
        let report = sim.run(budget);
        report.assert_safe();
        report
    };

    for algo in [
        Algorithm::CcChain,
        Algorithm::DsmChain,
        Algorithm::CcFastPath,
        Algorithm::CcGraceful,
        Algorithm::AssignmentCc,
    ] {
        let report = run_with_adversary(algo, 50_000_000);
        assert_eq!(
            report.completed[victim],
            5,
            "{}: victim starved under the adversary",
            algo.label()
        );
        assert_eq!(report.stop, StopReason::Quiescent, "{}", algo.label());
        // And the victim's per-acquisition RMR cost stays bounded even
        // while being lapped 200:1 — the local-spin guarantee.
        let victim_worst = report.stats.proc(victim).pair.max;
        assert!(
            victim_worst <= 14 * 6,
            "{}: victim paid {victim_worst} RMRs under adversity",
            algo.label()
        );
    }
}

// ---------------------------------------------------------------------
// The sweeps' measurement machinery.
// ---------------------------------------------------------------------

/// One sweep cell: which algorithm instance, how much contention, how
/// long the dwell times, how many seeds.
#[derive(Debug, Clone, Copy)]
struct Workload {
    algo: Algorithm,
    n: usize,
    k: usize,
    /// Number of participating processes (the contention cap).
    contention: usize,
    /// Acquisitions per participant.
    cycles: u64,
    /// Random schedules to aggregate over.
    seeds: u64,
    ncs_steps: u32,
    cs_steps: u32,
    /// RMR accounting model (default: the algorithm's target model).
    model: MemoryModel,
}

impl Workload {
    /// Every process participates, moderate dwell times, 8 seeds, 15
    /// cycles.
    fn full(algo: Algorithm, n: usize, k: usize) -> Self {
        Workload {
            algo,
            n,
            k,
            contention: n,
            cycles: 15,
            seeds: 8,
            ncs_steps: 1,
            cs_steps: 2,
            model: algo.model(),
        }
    }

    fn model(mut self, model: MemoryModel) -> Self {
        self.model = model;
        self
    }

    fn contention(mut self, c: usize) -> Self {
        self.contention = c.min(self.n);
        self
    }

    fn dwell(mut self, ncs: u32, cs: u32) -> Self {
        self.ncs_steps = ncs;
        self.cs_steps = cs;
        self
    }

    fn cycles(mut self, cycles: u64) -> Self {
        self.cycles = cycles;
        self
    }
}

/// A [`Workload`] aggregated over all its seeds.
#[derive(Debug, Clone, Copy)]
struct Measurement {
    /// Worst entry+exit remote-reference pair — the paper's measure `t`.
    worst_pair: u64,
    mean_pair: f64,
    /// Worst entry-section wait in own steps (spins included): the
    /// fairness measure RMR counting deliberately ignores.
    worst_wait_steps: u64,
    /// Bucketed p99 of the wait (upper bound of the bucket).
    p99_wait_steps: u64,
    acquisitions: u64,
    /// Highest contention observed during any entry.
    peak_contention: usize,
}

/// Run the workload to quiescence under each seed and aggregate.
///
/// Figure 5's location supply is `cycles + 1`, the most one process can
/// use (running out panics rather than skewing a count). Panics on a
/// safety violation or a run that does not quiesce: a sweep must not
/// measure a broken execution.
fn measure(w: &Workload) -> Measurement {
    let mut worst_pair = 0u64;
    let mut wait = kex::sim::stats::Aggregate::default();
    let (mut total, mut count, mut peak) = (0u64, 0u64, 0usize);
    for seed in 0..w.seeds {
        let proto = w.algo.build(w.n, w.k, w.cycles as usize + 1);
        let mut sim = Sim::new(proto, w.model)
            .cycles(w.cycles)
            .scheduler(RandomSched::new(seed))
            .participants(0..w.contention)
            .timing(Timing {
                ncs_steps: w.ncs_steps,
                cs_steps: w.cs_steps,
            })
            .build();
        let report = sim.run(500_000_000);
        report.assert_safe();
        assert_eq!(
            report.stop,
            StopReason::Quiescent,
            "{} (n={},k={}) did not quiesce",
            w.algo.label(),
            w.n,
            w.k
        );
        let pair = report.stats.pair();
        worst_pair = worst_pair.max(pair.max);
        wait.merge(&report.stats.wait_steps());
        total += pair.total;
        count += pair.count;
        peak = peak.max(report.stats.peak_contention());
    }
    Measurement {
        worst_pair,
        mean_pair: if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        },
        worst_wait_steps: wait.max,
        p99_wait_steps: wait.quantile_bucket_upper(0.99),
        acquisitions: count,
        peak_contention: peak,
    }
}

/// Worst pair of a hand-built `(n, k)` protocol under CC accounting, 8
/// seeds of 15 cycles (the [`Workload::full`] schedule).
fn worst_pair_of(n: usize, k: usize, make: impl Fn(&mut ProtocolBuilder) -> NodeId) -> u64 {
    let mut b = ProtocolBuilder::new(n);
    let root = make(&mut b);
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
    worst
}

#[test]
fn measure_aggregates_across_seeds() {
    let m = measure(&Workload::full(Algorithm::CcChain, 4, 2).cycles(5));
    assert_eq!(m.acquisitions, 8 * 4 * 5);
    assert!(m.worst_pair >= 1);
    assert!(m.worst_pair <= 14);
    assert!(m.mean_pair <= m.worst_pair as f64);
    assert!(m.peak_contention <= 4);
}

#[test]
fn contention_cap_is_respected() {
    let w = Workload::full(Algorithm::CcFastPath, 8, 2)
        .contention(2)
        .cycles(5);
    let m = measure(&w);
    assert!(m.peak_contention <= 2);
    assert_eq!(m.acquisitions, 8 * 2 * 5);
}

/// Append one formatted line to a sweep's table.
macro_rules! put {
    ($sweep:expr, $($fmt:tt)*) => {
        writeln!($sweep.table, $($fmt)*).expect("a String takes any write")
    };
}

/// A sweep's table and the claims its rows broke.
struct Sweep {
    name: &'static str,
    table: String,
    broken: Vec<String>,
}

impl Sweep {
    fn new(name: &'static str, title: &str) -> Self {
        let rule = "=".repeat(78);
        Sweep {
            name,
            table: format!("{rule}\n{title}\n{rule}\n"),
            broken: Vec::new(),
        }
    }

    /// Record `claim` at `(n, k)` as broken unless `holds`; returns
    /// `holds`.
    fn check(&mut self, holds: bool, n: usize, k: usize, claim: impl FnOnce() -> String) -> bool {
        if !holds {
            self.broken
                .push(format!("(N, k) = ({n}, {k}): {}", claim()));
        }
        holds
    }

    /// Whether `measured` is within `algo`'s theorem bound at `(n, k)`.
    fn within_bound(&mut self, algo: Algorithm, n: usize, k: usize, measured: u64) -> bool {
        let (formula, bound) = algo.paper_bound(n, k).expect("a theorem with a bound");
        self.check(measured <= bound, n, k, || {
            format!("{} measured {measured} > {formula} = {bound}", algo.label())
        })
    }

    /// Print the table, then fail naming every broken claim.
    fn finish(self) {
        eprint!("{}", self.table);
        assert!(
            self.broken.is_empty(),
            "{}:\n  {}",
            self.name,
            self.broken.join("\n  ")
        );
    }
}

/// A bounded cell's mark.
fn ok(holds: bool) -> &'static str {
    if holds {
        "ok"
    } else {
        "VIOLATED"
    }
}

// ---------------------------------------------------------------------
// E1 / E8 — Table 1.
// ---------------------------------------------------------------------

/// Table 1's rows: the algorithm, the paper's with-contention and
/// without-contention entries, and its instruction set.
#[rustfmt::skip]
const TABLE1: [(Algorithm, &str, &str, &str); 13] = [
    (Algorithm::QueueFig1, "unbounded ([9,10]: large atomic sections)", "O(1)", "large critical sections"),
    (Algorithm::GlobalSpin, "unbounded ([8]/[1]-style remote spinning)", "O(1)", "fetch&increment"),
    (Algorithm::CcChain, "7(N-k)  [Thm 1]", "O(N-k)", "read, write, fetch&increment"),
    (Algorithm::CcTree, "7k*log2(N/k)  [Thm 2]", "O(k log(N/k))", "read, write, fetch&increment"),
    (Algorithm::CcFastPath, "O(k log(N/k))  [Thm 3]", "O(k)", "read, write, fetch&increment"),
    (Algorithm::CcGraceful, "O(ceil(c/k)*k)  [Thm 4]", "O(k)", "read, write, fetch&increment"),
    (Algorithm::DsmUnboundedChain, "O(N-k)  [Fig 5: unbounded space]", "O(N-k)", "above + compare&swap"),
    (Algorithm::DsmChain, "14(N-k)  [Thm 5]", "O(N-k)", "above + compare&swap"),
    (Algorithm::DsmTree, "14k*log2(N/k)  [Thm 6]", "O(k log(N/k))", "above + compare&swap"),
    (Algorithm::DsmFastPath, "O(k log(N/k))  [Thm 7]", "O(k)", "above + compare&swap"),
    (Algorithm::DsmGraceful, "O(ceil(c/k)*k)  [Thm 8]", "O(k)", "above + compare&swap"),
    (Algorithm::AssignmentCc, "O(k log(N/k)) + k  [Thm 9]", "O(k)", "above + test&set"),
    (Algorithm::AssignmentDsm, "O(k log(N/k)) + k  [Thm 10]", "O(k)", "above + test&set"),
];

/// E1 — measured worst pair per Table-1 row at contention `k` and `N`,
/// under its target model; every bounded row's `c = N` cell is within
/// its theorem.
fn table1(n: usize, k: usize) {
    let mut s = Sweep::new(
        "E1 (Table 1)",
        &format!("TABLE 1 reproduction: N = {n}, k = {k} (worst RMRs per entry+exit pair)"),
    );
    put!(s, "algorithm                model | meas c<=k  meas c=N |     bound       ok | paper: w/ contention");
    put!(s, "{}", "-".repeat(110));
    for (algo, paper_with, ..) in TABLE1 {
        let low = measure(&Workload::full(algo, n, k).contention(k));
        let high = measure(&Workload::full(algo, n, k));
        let bound = algo.paper_bound(n, k).map(|(_, b)| b);
        let verdict = match bound {
            Some(_) if s.within_bound(algo, n, k, high.worst_pair) => "yes",
            Some(_) => "NO!",
            None => "-",
        };
        put!(
            s,
            "{:<24} {:>5} | {:>9} {:>9} | {:>9} {:>8} | {}",
            algo.label(),
            algo.model().label(),
            low.worst_pair,
            high.worst_pair,
            bound.map_or_else(|| "-".to_owned(), |b| b.to_string()),
            verdict,
            paper_with,
        );
    }
    put!(s, "");
    s.finish();
}

#[test]
fn e1_table1_n08_k2() {
    table1(8, 2);
}

#[test]
fn e1_table1_n16_k2() {
    table1(16, 2);
}

#[test]
fn e1_table1_n16_k4() {
    table1(16, 4);
}

#[test]
fn e1_table1_n32_k4() {
    table1(32, 4);
}

/// E8 — Table 1's "unbounded with contention" rows made measurable:
/// under DSM accounting every spin read is remote, so a baseline's
/// worst pair grows with the winners' dwell time (more than tenfold from
/// `cs = 2` to `cs = 2000`) while a local-spin algorithm's stays within
/// its theorem bound.
#[test]
fn e8_infinity_column() {
    let mut s = Sweep::new(
        "E8 (Table 1's infinity column)",
        "Table 1's infinity column: worst pair vs CS dwell, DSM accounting (N=8, k=2; last rows N=6)",
    );
    // The rest of Table 1, as the paper prints it.
    let listing: String = TABLE1
        .iter()
        .map(|(algo, _, without, instructions)| {
            format!("  {:<24} {:<16} {instructions}\n", algo.label(), without)
        })
        .collect();
    s.table = format!(
        "paper's w/o-contention column and instruction sets:\n{listing}\n{}",
        s.table
    );
    put!(
        s,
        "algorithm                      cs=2      cs=20     cs=200    cs=2000"
    );
    put!(s, "{}", "-".repeat(70));
    let rows = [
        (Algorithm::GlobalSpin, 8),
        (Algorithm::QueueFig1, 8),
        (Algorithm::DsmChain, 8),
        (Algorithm::DsmFastPath, 8),
        (Algorithm::GlobalSpin, 6),
        (Algorithm::DsmChain, 6),
    ];
    let k = 2;
    // A thread per row (the cs = 2000 column dominates); rows stay in order.
    let cells: Vec<_> = std::thread::scope(|scope| {
        let row = |(algo, n)| {
            scope.spawn(move || {
                [2u32, 20, 200, 2000].map(|cs| {
                    let w = Workload::full(algo, n, k).dwell(1, cs).cycles(8);
                    measure(&w.model(MemoryModel::Dsm)).worst_pair
                })
            })
        };
        let running: Vec<_> = rows.into_iter().map(row).collect();
        running
            .into_iter()
            .map(|h| h.join().expect("a row's simulation"))
            .collect()
    });
    for ((algo, n), cells) in rows.into_iter().zip(cells) {
        if algo.paper_bound(n, k).is_some() {
            for cell in cells {
                s.within_bound(algo, n, k, cell);
            }
        } else {
            s.check(cells[3] > 10 * cells[0], n, k, || {
                format!("{} does not diverge with dwell: {cells:?}", algo.label())
            });
        }
        put!(
            s,
            "{:<24} {:>10} {:>10} {:>10} {:>10}",
            if n == 8 {
                algo.label().to_owned()
            } else {
                format!("{} N={n}", algo.label())
            },
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
    }
    put!(s, "");
    put!(
        s,
        "reading: the two baselines' cost grows without bound as winners dwell"
    );
    put!(
        s,
        "longer; the paper's local-spin algorithms are flat — the whole point."
    );
    s.finish();
}

// ---------------------------------------------------------------------
// E2–E6 — Theorems 1–10.
// ---------------------------------------------------------------------

/// E2 — Theorems 1 and 5: the inductive chains, cost linear in `N - k`.
#[test]
fn e2_chains() {
    let mut s = Sweep::new(
        "E2 (Theorems 1 & 5)",
        "E2 / Theorems 1 & 5: inductive chains — worst pair vs N (k = 2; last rows N,k)",
    );
    put!(
        s,
        "   N |  cc meas   7(N-k)       | dsm meas  14(N-k)      "
    );
    let sizes = [
        (3, 2),
        (4, 2),
        (5, 2),
        (6, 2),
        (8, 2),
        (12, 2),
        (16, 2),
        (3, 1),
        (6, 3),
        (8, 3),
        (10, 4),
    ];
    for (n, k) in sizes {
        let [cc, dsm] = [Algorithm::CcChain, Algorithm::DsmChain].map(|algo| {
            let worst = measure(&Workload::full(algo, n, k)).worst_pair;
            (worst, algo.paper_bound(n, k).expect("bounded").1)
        });
        let (cc_ok, dsm_ok) = (
            s.within_bound(Algorithm::CcChain, n, k, cc.0),
            s.within_bound(Algorithm::DsmChain, n, k, dsm.0),
        );
        let size = if k == 2 {
            n.to_string()
        } else {
            format!("{n},{k}")
        };
        put!(
            s,
            "{:>4} | {:>8} {:>8} {:>5} | {:>8} {:>8} {:>5}",
            size,
            cc.0,
            cc.1,
            ok(cc_ok),
            dsm.0,
            dsm.1,
            ok(dsm_ok),
        );
    }
    put!(
        s,
        "expected shape: linear growth in N, DSM constant about 2x the CC constant\n"
    );
    s.finish();
}

/// E3 — Theorems 2 and 6: trees, cost logarithmic in `N/k`.
#[test]
fn e3_trees() {
    let mut s = Sweep::new(
        "E3 (Theorems 2 & 6)",
        "E3 / Theorems 2 & 6: trees — worst pair vs N (k = 2)",
    );
    put!(
        s,
        "   N  depth |  cc meas  7k*depth       | dsm meas 14k*depth       | chain 7(N-k)"
    );
    for n in [4usize, 8, 16, 32] {
        let k = 2;
        let [cc, dsm] = [Algorithm::CcTree, Algorithm::DsmTree].map(|algo| {
            let worst = measure(&Workload::full(algo, n, k)).worst_pair;
            (worst, algo.paper_bound(n, k).expect("bounded").1)
        });
        let (cc_ok, dsm_ok) = (
            s.within_bound(Algorithm::CcTree, n, k, cc.0),
            s.within_bound(Algorithm::DsmTree, n, k, dsm.0),
        );
        // Above one (2k, k) block the tree's bound beats the flat chain's.
        let chain = Algorithm::CcChain.paper_bound(n, k).expect("bounded").1;
        s.check(n <= 2 * k || cc.1 < chain, n, k, || {
            format!("tree bound {} is not below chain bound {chain}", cc.1)
        });
        put!(
            s,
            "{:>4} {:>6} | {:>8} {:>9} {:>5} | {:>8} {:>9} {:>5} | {:>9}",
            n,
            tree_depth(n, k),
            cc.0,
            cc.1,
            ok(cc_ok),
            dsm.0,
            dsm.1,
            ok(dsm_ok),
            chain,
        );
    }
    put!(
        s,
        "expected shape: logarithmic growth — the crossover vs the chain is at small N\n"
    );
    s.finish();
}

/// E4 — Theorems 3 and 7: the fast path. Every cell of the contention
/// sweep is within the theorem bound, and at contention 2 the cost does
/// not depend on `N`.
#[test]
fn e4_fast_path() {
    let (n, k) = (16usize, 4usize);
    let mut s = Sweep::new(
        "E4 (Theorems 3 & 7)",
        "E4 / Theorems 3 & 7: fast path — worst pair vs contention (N = 16, k = 4)",
    );
    put!(s, "contention |  cc meas  cc mean | dsm meas dsm mean");
    for c in [1usize, 2, 4, 6, 8, 12, 16] {
        let cc = measure(&Workload::full(Algorithm::CcFastPath, n, k).contention(c));
        let dsm = measure(&Workload::full(Algorithm::DsmFastPath, n, k).contention(c));
        s.within_bound(Algorithm::CcFastPath, n, k, cc.worst_pair);
        s.within_bound(Algorithm::DsmFastPath, n, k, dsm.worst_pair);
        put!(
            s,
            "{:>10} | {:>8} {:>8.1} | {:>8} {:>8.1}",
            c,
            cc.worst_pair,
            cc.mean_pair,
            dsm.worst_pair,
            dsm.mean_pair
        );
    }
    put!(
        s,
        "expected shape: flat O(k) plateau through contention <= k = 4, then a step up\n"
    );

    put!(s, "{}", "=".repeat(78));
    put!(
        s,
        "E4b / Theorem 3: fast-path low-contention cost is independent of N (k = 2, c = 2)"
    );
    put!(s, "{}", "=".repeat(78));
    put!(s, "{:>4} | {:>8} {:>8}", "N", "cc meas", "dsm meas");
    let mut first = None;
    for n in [8usize, 16, 32, 64] {
        let cc = measure(&Workload::full(Algorithm::CcFastPath, n, 2).contention(2));
        let dsm = measure(&Workload::full(Algorithm::DsmFastPath, n, 2).contention(2));
        let row = (cc.worst_pair, dsm.worst_pair);
        let at_8 = *first.get_or_insert(row);
        s.check(row == at_8, n, 2, || {
            format!("low-contention (cc, dsm) {row:?} differs from N = 8's {at_8:?}")
        });
        put!(s, "{:>4} | {:>8} {:>8}", n, cc.worst_pair, dsm.worst_pair);
    }
    put!(
        s,
        "expected shape: constant rows — N does not appear at low contention\n"
    );
    s.finish();
}

/// E5 — Theorems 4 and 8: graceful degradation, cost proportional to
/// `⌈c/k⌉` rather than stepping to the worst case. Checked on both
/// graceful columns: cost rises from `c = 2` to `c = 8` to `c = 24`, and
/// at `c = 8` stays at or below three quarters of the `c = 24` cost.
#[test]
fn e5_graceful() {
    let (n, k) = (24usize, 2usize);
    let mut s = Sweep::new(
        "E5 (Theorems 4 & 8)",
        "E5 / Theorems 4 & 8: graceful degradation — worst pair vs contention (N = 24, k = 2)",
    );
    put!(
        s,
        "contention ceil(c/k) |  cc meas  cc mean | dsm meas dsm mean | fastpath meas"
    );
    let mut graceful = Vec::new();
    for c in [1usize, 2, 4, 8, 12, 16, 20, 24] {
        let cc = measure(&Workload::full(Algorithm::CcGraceful, n, k).contention(c));
        let dsm = measure(&Workload::full(Algorithm::DsmGraceful, n, k).contention(c));
        let fp = measure(&Workload::full(Algorithm::CcFastPath, n, k).contention(c));
        s.within_bound(Algorithm::CcFastPath, n, k, fp.worst_pair);
        if [2, 8, 24].contains(&c) {
            graceful.push([cc.worst_pair, dsm.worst_pair]);
        }
        put!(
            s,
            "{:>10} {:>9} | {:>8} {:>8.1} | {:>8} {:>8.1} | {:>13}",
            c,
            c.div_ceil(k),
            cc.worst_pair,
            cc.mean_pair,
            dsm.worst_pair,
            dsm.mean_pair,
            fp.worst_pair,
        );
    }
    for (column, label) in ["cc", "dsm"].into_iter().enumerate() {
        let [low, mid, high] = [0, 1, 2].map(|i| graceful[i][column]);
        s.check(low < mid && mid <= high, n, k, || {
            format!("{label} graceful does not rise with c: {low} {mid} {high}")
        });
        s.check(mid as f64 <= 0.75 * high as f64, n, k, || {
            format!("{label} graceful at c = 8 ({mid}) is not well below c = 24 ({high})")
        });
    }
    put!(
        s,
        "expected shape: graceful cost climbs smoothly with ceil(c/k); the plain fast"
    );
    put!(
        s,
        "path jumps to its full slow-path cost as soon as contention exceeds k\n"
    );
    s.finish();
}

/// E6 — Theorems 9 and 10: k-assignment is the fast path plus the
/// Figure-7 walk. Each pair of columns is within its theorem bound; the
/// overhead column is a difference of two worst cases from different
/// schedules, so it is printed, not bounded.
#[test]
fn e6_assignment() {
    let mut s = Sweep::new(
        "E6 (Theorems 9 & 10)",
        "E6 / Theorems 9 & 10: k-assignment overhead (N = 16)",
    );
    put!(
        s,
        "  k |     cc kex  cc assign  overhead |    dsm kex dsm assign  overhead"
    );
    for k in [2usize, 3, 4, 6] {
        let n = 16;
        let [cc_kex, cc_asn, dsm_kex, dsm_asn] = [
            Algorithm::CcFastPath,
            Algorithm::AssignmentCc,
            Algorithm::DsmFastPath,
            Algorithm::AssignmentDsm,
        ]
        .map(|algo| {
            let worst = measure(&Workload::full(algo, n, k)).worst_pair;
            s.within_bound(algo, n, k, worst);
            worst
        });
        put!(
            s,
            "{:>3} | {:>10} {:>10} {:>9} | {:>10} {:>10} {:>9}",
            k,
            cc_kex,
            cc_asn,
            cc_asn as i64 - cc_kex as i64,
            dsm_kex,
            dsm_asn,
            dsm_asn as i64 - dsm_kex as i64,
        );
    }
    put!(
        s,
        "checked: every column within its Theorem 3/7/9/10 bound; the overhead is a"
    );
    put!(
        s,
        "difference of worst cases from different schedules, so it bounds nothing\n"
    );
    s.finish();
}

// ---------------------------------------------------------------------
// E10 — ablations and reference points beyond the paper's tables.
// ---------------------------------------------------------------------

/// Figures 5 vs 6: the price of bounding the spin-location space. Each
/// column is within its bound (`8(N-k)` and Theorem 5's `14(N-k)`).
#[test]
fn e10_fig5_vs_fig6() {
    let mut s = Sweep::new(
        "E10 (Figures 5 vs 6)",
        "ablation / Figures 5 vs 6: unbounded vs bounded spin locations (DSM chains)",
    );
    put!(s, "   N |  fig5 meas  fig6 meas |  fig6 - fig5  per stage");
    for n in [3usize, 4, 6, 8] {
        let k = 2.min(n - 1);
        let f5 = measure(&Workload::full(Algorithm::DsmUnboundedChain, n, k)).worst_pair;
        let f6 = measure(&Workload::full(Algorithm::DsmChain, n, k)).worst_pair;
        s.within_bound(Algorithm::DsmUnboundedChain, n, k, f5);
        s.within_bound(Algorithm::DsmChain, n, k, f6);
        let gap = f6 as i64 - f5 as i64;
        put!(
            s,
            "{:>4} | {:>10} {:>10} | {:>12} {:>10.1}",
            n,
            f5,
            f6,
            gap,
            gap as f64 / (n - k) as f64
        );
    }
    put!(
        s,
        "expected shape: the bounds differ by 6 per stage (14 - 8, the R[] handshake);"
    );
    put!(
        s,
        "the measured gap per stage is at most that and shrinks as N grows. Fig6 buys"
    );
    put!(
        s,
        "bounded space (k+2 locations/process) instead of an unbounded supply\n"
    );
    s.finish();
}

/// Waiting-time fairness: the RMR measure ignores local spinning, so an
/// algorithm can be RMR-cheap yet keep a process waiting long. The RMR
/// column of each bounded row is within its theorem.
#[test]
fn e10_fairness() {
    let mut s = Sweep::new(
        "E10 (fairness)",
        "ablation / fairness: entry-section waiting (own steps), N = 12, k = 3",
    );
    put!(
        s,
        "algorithm                  p99 wait worst wait    worst RMR"
    );
    for algo in [
        Algorithm::QueueFig1,
        Algorithm::CcChain,
        Algorithm::CcTree,
        Algorithm::CcFastPath,
        Algorithm::CcGraceful,
        Algorithm::DsmChain,
    ] {
        let m = measure(&Workload::full(algo, 12, 3).dwell(1, 4));
        if algo.paper_bound(12, 3).is_some() {
            s.within_bound(algo, 12, 3, m.worst_pair);
        }
        put!(
            s,
            "{:<24} {:>10} {:>10} {:>12}",
            algo.label(),
            m.p99_wait_steps,
            m.worst_wait_steps,
            m.worst_pair
        );
    }
    put!(
        s,
        "reading: the FIFO queue has the tightest waiting spread but the worst"
    );
    put!(
        s,
        "implementability; the local-spin algorithms trade some waiting-time"
    );
    put!(
        s,
        "variance for bounded RMRs (starvation-freedom is still guaranteed and"
    );
    put!(s, "verified by the model checker)\n");
    s.finish();
}

/// Tree arity: the paper's Figure 3(a) merges two children per level.
/// Higher arity means a shallower tree but `(arity*k, k)` blocks whose
/// chains cost `7(arity-1)k` each; every row is within that bound.
#[test]
fn e10_tree_arity() {
    let (n, k) = (32usize, 2usize);
    let mut s = Sweep::new(
        "E10 (tree arity)",
        "ablation / tree arity: worst pair vs arity (N = 32, k = 2, CC)",
    );
    put!(s, " arity  depth |     meas  7(a-1)k*depth bound");
    for arity in [2usize, 4, 8, 16] {
        let worst = worst_pair_of(n, k, |b| {
            tree_with_arity(b, n, k, arity, &mut |b, m, k| fig2_chain(b, m, k))
        });
        let depth = tree_depth_with_arity(n, k, arity) as u64;
        let bound = 7 * (arity as u64 - 1) * k as u64 * depth;
        s.check(worst <= bound, n, k, || {
            format!("arity {arity} measured {worst} > {bound}")
        });
        put!(s, "{:>6} {:>6} | {:>8} {:>20}", arity, depth, worst, bound);
    }
    put!(
        s,
        "expected shape: binary is at or near the optimum — doubling arity halves"
    );
    put!(
        s,
        "depth at best but multiplies per-level block cost by (arity-1)\n"
    );
    s.finish();
}

/// §5's aspiration: how close do the `(N, 1)` instances come to the MCS
/// queue lock (the paper's \[12\])? The chain, tree and fast path are
/// within their theorems at `k = 1`.
#[test]
fn e10_k1_vs_mcs() {
    let mut s = Sweep::new(
        "E10 (k = 1 vs MCS)",
        "§5 aspiration: (N,1)-exclusion vs the reference spin locks — worst RMR pair",
    );
    put!(
        s,
        "   N |   mcs[12]    ya[14] |    chain     tree   fastpath   graceful"
    );
    for n in [4usize, 8, 16, 32] {
        let mcs_worst = worst_pair_of(n, 1, mcs);
        let ya_worst = worst_pair_of(n, 1, yang_anderson);
        let [chain, tree, fp, gr] = [
            Algorithm::CcChain,
            Algorithm::CcTree,
            Algorithm::CcFastPath,
            Algorithm::CcGraceful,
        ]
        .map(|algo| {
            let worst = measure(&Workload::full(algo, n, 1)).worst_pair;
            if algo.paper_bound(n, 1).is_some() {
                s.within_bound(algo, n, 1, worst);
            }
            worst
        });
        put!(
            s,
            "{:>4} | {:>9} {:>9} | {:>8} {:>8} {:>10} {:>10}",
            n,
            mcs_worst,
            ya_worst,
            chain,
            tree,
            fp,
            gr
        );
    }
    put!(
        s,
        "expected shape: MCS (swap+CAS) is O(1) and flat; Yang-Anderson (read/"
    );
    put!(
        s,
        "write only) and the paper's k = 1 instances (fetch&inc) grow with log N."
    );
    put!(
        s,
        "the reference locks pay with zero crash resilience, which is the"
    );
    put!(s, "paper's whole subject.\n");
    s.finish();
}
