//! E1/E8 — regenerate **Table 1** of the paper: remote-reference
//! complexity of k-exclusion algorithms, with and without contention.
//!
//! The paper's table is analytical; we print, for each algorithm row,
//! the *measured* worst-case remote references per entry+exit pair under
//! its target memory model, side by side with the paper's complexity
//! expression evaluated for the same `(N, k)`. Algorithms whose paper
//! column is "infinity with contention" (the non-local-spin baselines)
//! are measured at two critical-section dwell times to exhibit the
//! divergence.
//!
//! Run: `cargo run --release -p kex-bench --bin table1`
//! (add `--json <path>` for a machine-readable copy)

use kex_bench::report::measurement_json;
use kex_bench::{measure, JsonSink, Workload};
use kex_core::sim::Algorithm;
use kex_obs::json::Json;
use kex_sim::memmodel::MemoryModel;

struct Row {
    algo: Algorithm,
    paper_with: &'static str,
    paper_without: &'static str,
    instructions: &'static str,
}

fn rows() -> Vec<Row> {
    vec![
        Row {
            algo: Algorithm::QueueFig1,
            paper_with: "unbounded ([9,10]: large atomic sections)",
            paper_without: "O(1)",
            instructions: "large critical sections",
        },
        Row {
            algo: Algorithm::GlobalSpin,
            paper_with: "unbounded ([8]/[1]-style remote spinning)",
            paper_without: "O(1)",
            instructions: "fetch&increment",
        },
        Row {
            algo: Algorithm::CcChain,
            paper_with: "7(N-k)  [Thm 1]",
            paper_without: "O(N-k)",
            instructions: "read, write, fetch&increment",
        },
        Row {
            algo: Algorithm::CcTree,
            paper_with: "7k*log2(N/k)  [Thm 2]",
            paper_without: "O(k log(N/k))",
            instructions: "read, write, fetch&increment",
        },
        Row {
            algo: Algorithm::CcFastPath,
            paper_with: "O(k log(N/k))  [Thm 3]",
            paper_without: "O(k)",
            instructions: "read, write, fetch&increment",
        },
        Row {
            algo: Algorithm::CcGraceful,
            paper_with: "O(ceil(c/k)*k)  [Thm 4]",
            paper_without: "O(k)",
            instructions: "read, write, fetch&increment",
        },
        Row {
            algo: Algorithm::DsmUnboundedChain,
            paper_with: "O(N-k)  [Fig 5: unbounded space]",
            paper_without: "O(N-k)",
            instructions: "above + compare&swap",
        },
        Row {
            algo: Algorithm::DsmChain,
            paper_with: "14(N-k)  [Thm 5]",
            paper_without: "O(N-k)",
            instructions: "above + compare&swap",
        },
        Row {
            algo: Algorithm::DsmTree,
            paper_with: "14k*log2(N/k)  [Thm 6]",
            paper_without: "O(k log(N/k))",
            instructions: "above + compare&swap",
        },
        Row {
            algo: Algorithm::DsmFastPath,
            paper_with: "O(k log(N/k))  [Thm 7]",
            paper_without: "O(k)",
            instructions: "above + compare&swap",
        },
        Row {
            algo: Algorithm::DsmGraceful,
            paper_with: "O(ceil(c/k)*k)  [Thm 8]",
            paper_without: "O(k)",
            instructions: "above + compare&swap",
        },
        Row {
            algo: Algorithm::AssignmentCc,
            paper_with: "O(k log(N/k)) + k  [Thm 9]",
            paper_without: "O(k)",
            instructions: "above + test&set",
        },
        Row {
            algo: Algorithm::AssignmentDsm,
            paper_with: "O(k log(N/k)) + k  [Thm 10]",
            paper_without: "O(k)",
            instructions: "above + test&set",
        },
    ]
}

fn main() {
    let mut sink = JsonSink::from_args();
    let mut config_docs = Vec::new();
    let configs = [(8usize, 2usize), (16, 2), (16, 4), (32, 4)];
    for (n, k) in configs {
        let mut row_docs = Vec::new();
        println!("==============================================================================");
        println!("TABLE 1 reproduction: N = {n}, k = {k} (worst RMRs per entry+exit pair)");
        println!("==============================================================================");
        println!(
            "{:<24} {:>5} | {:>9} {:>9} | {:>9} {:>8} | paper: w/ contention",
            "algorithm", "model", "meas c<=k", "meas c=N", "bound", "ok"
        );
        println!("{}", "-".repeat(110));
        for row in rows() {
            let low = measure(&Workload::full(row.algo, n, k).contention(k));
            let high = measure(&Workload::full(row.algo, n, k));
            let bound = row.algo.paper_bound(n, k).map(|(_, b)| b);
            let ok = match bound {
                Some(b) => {
                    if high.worst_pair <= b {
                        "yes"
                    } else {
                        "NO!"
                    }
                }
                None => "-",
            };
            println!(
                "{:<24} {:>5} | {:>9} {:>9} | {:>9} {:>8} | {}",
                row.algo.label(),
                row.algo.model().label(),
                low.worst_pair,
                high.worst_pair,
                bound.map_or_else(|| "-".to_owned(), |b| b.to_string()),
                ok,
                row.paper_with,
            );
            if sink.enabled() {
                row_docs.push(Json::obj(vec![
                    ("algorithm", row.algo.label().into()),
                    ("model", row.algo.model().label().into()),
                    ("paper_with_contention", row.paper_with.into()),
                    ("paper_without_contention", row.paper_without.into()),
                    ("low_contention", measurement_json(&low)),
                    ("full_contention", measurement_json(&high)),
                    ("bound", bound.map_or(Json::Null, Json::U64)),
                    ("within_bound", Json::Bool(ok != "NO!")),
                ]));
            }
        }
        println!();
        if sink.enabled() {
            config_docs.push(Json::obj(vec![
                ("n", n.into()),
                ("k", k.into()),
                ("rows", Json::arr(row_docs)),
            ]));
        }
    }

    println!("paper's w/o-contention column and instruction sets:");
    for row in rows() {
        println!(
            "  {:<24} {:<16} {}",
            row.algo.label(),
            row.paper_without,
            row.instructions
        );
    }
    println!();

    // The "infinity with contention" rows of Table 1: while a waiter
    // spins on *shared, written* state, its remote-reference count grows
    // with how long it waits. Under the DSM model (no caches) every spin
    // read is remote, so the baselines diverge linearly with the winners'
    // dwell time; the local-spin Figure-6 chain stays flat.
    println!("==============================================================================");
    println!("Table 1's infinity column: worst pair vs CS dwell, DSM accounting (N=8, k=2)");
    println!("==============================================================================");
    println!(
        "{:<24} {:>10} {:>10} {:>10} {:>10}",
        "algorithm", "cs=2", "cs=20", "cs=200", "cs=2000"
    );
    println!("{}", "-".repeat(70));
    let mut sweep_docs = Vec::new();
    for algo in [
        Algorithm::GlobalSpin,
        Algorithm::QueueFig1,
        Algorithm::DsmChain,
        Algorithm::DsmFastPath,
    ] {
        let mut cells = Vec::new();
        for cs in [2u32, 20, 200, 2000] {
            let m = measure(
                &Workload::full(algo, 8, 2)
                    .dwell(1, cs)
                    .cycles(8)
                    .model(MemoryModel::Dsm),
            );
            cells.push(m.worst_pair);
        }
        println!(
            "{:<24} {:>10} {:>10} {:>10} {:>10}",
            algo.label(),
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
        if sink.enabled() {
            sweep_docs.push(Json::obj(vec![
                ("algorithm", algo.label().into()),
                (
                    "worst_pair_by_cs_dwell",
                    Json::obj(vec![
                        ("2", cells[0].into()),
                        ("20", cells[1].into()),
                        ("200", cells[2].into()),
                        ("2000", cells[3].into()),
                    ]),
                ),
            ]));
        }
    }
    println!();
    println!("reading: the two baselines' cost grows without bound as winners dwell");
    println!("longer; the paper's local-spin algorithms are flat — the whole point.");

    sink.put("schema", "kex-bench/table1/v1".into());
    sink.put("configs", Json::arr(config_docs));
    sink.put("dsm_dwell_sweep_n8_k2", Json::arr(sweep_docs));
    sink.finish();
}
