//! Observability: watch the paper's cost model live on real threads.
//!
//! Builds only with the instrumented facade backend, which counts every
//! atomic operation the algorithms perform — by process, by protocol
//! section, with estimated remote-memory references under the paper's
//! cache-coherent model (DSM costs are the simulator's) — then prints
//! the per-section totals, checks the measured CC estimate against
//! Theorem 3's bound, and dumps the full JSON snapshot. The same check
//! over every bounded native algorithm, on two configurations, is the
//! test `crates/core/tests/obs_bounds.rs`.
//!
//! Run: `cargo run --release --features obs --example observability`

use kex::core::native::{FastPathKex, RawKex};
use kex::core::sim::Algorithm;
use kex::obs::Section;

const THREADS: usize = 8;
const K: usize = 3;
const CYCLES: usize = 200;

fn main() {
    let kex = FastPathKex::new(THREADS, K);

    kex::obs::reset();
    std::thread::scope(|s| {
        for p in 0..THREADS {
            let kex = &kex;
            s.spawn(move || {
                for _ in 0..CYCLES {
                    let _guard = kex.enter(p);
                    for _ in 0..32 {
                        std::hint::spin_loop();
                    }
                }
            });
        }
    });
    let snap = kex::obs::snapshot();

    let pairs = (THREADS * CYCLES) as f64;
    println!("fast-path k-exclusion, N = {THREADS}, k = {K}, {pairs} acquisitions\n");
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "section", "loads", "stores", "rmws", "cc-remote", "spins"
    );
    for section in [Section::Entry, Section::Cs, Section::Exit] {
        let t = snap.section_totals(section);
        println!(
            "{:<8} {:>10} {:>10} {:>10} {:>12} {:>12}",
            format!("{section:?}"),
            t.loads,
            t.stores,
            t.rmws,
            t.cc_remote,
            t.spins
        );
    }

    // Theorem 3 bounds the CC-remote references per entry+exit pair;
    // the measured *mean* must sit well below that worst case.
    let entry = snap.section_totals(Section::Entry);
    let exit = snap.section_totals(Section::Exit);
    let mean_cc = (entry.cc_remote + exit.cc_remote) as f64 / pairs;
    let (formula, bound) = Algorithm::CcFastPath
        .paper_bound(THREADS, K)
        .expect("Theorem 3 has a closed form");
    println!(
        "\nmean CC-remote per pair: {mean_cc:.2}  (Theorem 3 worst case: {formula} = {bound})"
    );
    assert!(mean_cc <= bound as f64, "estimate exceeded the paper bound");

    println!(
        "occupancy: max {} of k = {K}, {} still inside",
        snap.occupancy.max, snap.occupancy.current
    );
    assert!(snap.occupancy.max as usize <= K);

    println!("\nfull snapshot as JSON:");
    println!("{}", snap.to_json().to_string_pretty());
}
