//! Remote-memory-reference analysis on the instrumented simulator: a
//! compact rendition of the paper's Table 1, comparing the algorithms'
//! measured worst-case RMRs per entry+exit pair at low and high
//! contention under each algorithm's target memory model.
//!
//! (The full Table 1, asserted against each theorem bound, is the
//! `e1_table1_*` tests: `cargo test --release --test sim_integration
//! e1_ -- --nocapture`.)
//!
//! Run: `cargo run --release --example rmr_analysis`

use kex::core::sim::Algorithm;
use kex::sim::prelude::*;

const N: usize = 16;
const K: usize = 4;
const CYCLES: u64 = 20;
const SEEDS: u64 = 8;

/// Worst observed entry+exit RMR pair over several seeded schedules with
/// exactly `c` participating processes.
fn worst_pair(algo: Algorithm, contention: usize) -> u64 {
    let mut worst = 0;
    for seed in 0..SEEDS {
        let proto = algo.build(N, K, 4096);
        let mut sim = Sim::new(proto, algo.model())
            .cycles(CYCLES)
            .scheduler(RandomSched::new(seed))
            .participants(0..contention)
            .timing(Timing {
                ncs_steps: 1,
                cs_steps: 2,
            })
            .build();
        let report = sim.run(50_000_000);
        report.assert_safe();
        assert_eq!(report.stop, StopReason::Quiescent, "{} hung", algo.label());
        worst = worst.max(report.stats.worst_pair());
    }
    worst
}

fn main() {
    println!("worst-case remote references per acquisition, N = {N}, k = {K}");
    println!("(compare with the paper's Table 1 complexity columns)\n");
    println!(
        "{:<24} {:>6} {:>14} {:>14}",
        "algorithm", "model", "contention<=k", "contention=N"
    );
    println!("{}", "-".repeat(62));
    for algo in Algorithm::ALL {
        let low = worst_pair(algo, K);
        let high = worst_pair(algo, N);
        println!(
            "{:<24} {:>6} {:>14} {:>14}",
            algo.label(),
            algo.model().label(),
            low,
            high
        );
    }
    println!();
    println!("note: fig1-queue and global-spin RMRs grow with schedule length —");
    println!("rerun with longer critical sections to watch them diverge.");
}
