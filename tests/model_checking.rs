//! Cross-crate model-checking matrix: every algorithm variant, small
//! instances, exhaustive exploration — the repository's strongest
//! automated correctness evidence, in one table-driven test file.

use kex::core::sim::Algorithm;
use kex::sim::explore::{explore, ExploreConfig};
use kex::sim::liveness::check_starvation_freedom;
use kex::sim::replay::replay_with;

/// (algorithm, n, k, cycles-bound, adversarial crashes, expect-liveness)
///
/// `cycles: None` explores the infinite-horizon system; `Some(c)` bounds
/// each process to `c` acquisitions (needed where the state space is
/// unbounded or too large). Liveness is checked where meaningful.
struct Case {
    algo: Algorithm,
    n: usize,
    k: usize,
    cycles: Option<u64>,
    failures: usize,
    liveness: bool,
}

const fn case(
    algo: Algorithm,
    n: usize,
    k: usize,
    cycles: Option<u64>,
    failures: usize,
    liveness: bool,
) -> Case {
    Case {
        algo,
        n,
        k,
        cycles,
        failures,
        liveness,
    }
}

fn run(case: &Case) {
    let proto = case.algo.build(case.n, case.k, 64);
    let cfg = ExploreConfig {
        cycles: case.cycles,
        max_failures: case.failures,
        ..ExploreConfig::default()
    };
    let report = explore(proto.clone(), &cfg);
    if !report.is_clean() {
        // Don't just dump the raw violation: replay the BFS
        // counterexample through the simulator and show the per-process
        // lanes, so the failing interleaving is readable straight from
        // the test log.
        let diagnosis = report
            .first_counterexample()
            .map(|schedule| {
                let trace = replay_with(
                    proto,
                    &schedule,
                    cfg.timing,
                    cfg.cycles,
                    cfg.participants.as_deref(),
                );
                format!(
                    "counterexample ({} labels):\n{}",
                    schedule.len(),
                    trace.render_lanes(case.n)
                )
            })
            .unwrap_or_else(|| "no counterexample schedule recorded (truncated search?)".into());
        panic!(
            "{} (n={}, k={}, cycles={:?}, f={}): states={} truncated={} violation={:?} invariant={:?}\n{diagnosis}",
            case.algo.label(),
            case.n,
            case.k,
            case.cycles,
            case.failures,
            report.states,
            report.truncated,
            report.violation,
            report.invariant_failure,
        );
    }
    if case.liveness {
        check_starvation_freedom(&report).unwrap_or_else(|s| {
            panic!(
                "{} (n={}, k={}, f={}): {s}",
                case.algo.label(),
                case.n,
                case.k,
                case.failures
            )
        });
    }
}

#[test]
fn matrix_no_failures() {
    let cases = [
        case(Algorithm::QueueFig1, 3, 1, None, 0, true),
        case(Algorithm::QueueFig1, 3, 2, None, 0, true),
        case(Algorithm::GlobalSpin, 3, 2, None, 0, false), // not starvation-free
        case(Algorithm::CcChain, 3, 1, None, 0, true),
        case(Algorithm::CcChain, 3, 2, None, 0, true),
        case(Algorithm::CcGraceful, 3, 1, None, 0, true),
        case(Algorithm::DsmChain, 2, 1, None, 0, true),
        // The DSM tree, and Figure 4 over Figure-6 blocks: its graceful
        // node at (3, 1) has a one-block slow path, the cheapest
        // exhaustive run of the DSM node. `DsmFastPath` at the same size
        // is left out: over four times as long.
        case(Algorithm::DsmTree, 3, 1, Some(1), 0, true),
        case(Algorithm::DsmGraceful, 3, 1, Some(1), 0, true),
        case(Algorithm::DsmUnboundedChain, 2, 1, Some(3), 0, false),
        case(Algorithm::AssignmentCc, 3, 2, None, 0, true),
    ];
    for c in &cases {
        run(c);
    }
}

#[test]
fn matrix_with_adversarial_crashes() {
    // f <= k-1 everywhere: safety must hold and no survivor may starve.
    let cases = [
        case(Algorithm::QueueFig1, 3, 2, None, 1, true),
        case(Algorithm::CcChain, 3, 2, None, 1, true),
        case(Algorithm::AssignmentCc, 3, 2, None, 1, true),
        case(Algorithm::DsmChain, 3, 2, Some(1), 1, true),
    ];
    for c in &cases {
        run(c);
    }
}

#[test]
fn the_two_reference_negatives_still_hold() {
    // These two *must* fail their respective liveness/safety checks; if
    // an edit ever makes them pass, either something is wrong with the
    // checker or somebody silently "fixed" a deliberate baseline.
    let spin = explore(
        Algorithm::GlobalSpin.build(3, 1, 0),
        &ExploreConfig::default(),
    );
    assert!(spin.is_clean());
    assert!(
        check_starvation_freedom(&spin).is_err(),
        "global-spin is supposed to be starvable"
    );

    let mcs_crash = {
        use kex::sim::prelude::*;
        let mut b = ProtocolBuilder::new(3);
        let root = kex::core::sim::mcs(&mut b);
        b.finish(root, 1)
    };
    let report = explore(
        mcs_crash,
        &ExploreConfig {
            max_failures: 1,
            ..ExploreConfig::default()
        },
    );
    assert!(report.is_clean());
    assert!(
        check_starvation_freedom(&report).is_err(),
        "MCS is supposed to wedge behind a dead waiter"
    );
}

#[test]
fn counterexamples_from_the_matrix_are_replayable() {
    // The broken Figure-1 decomposition again, this time asserting the
    // whole tooling chain end to end from the umbrella crate.
    use kex::core::sim::fig1_nonatomic;
    use kex::sim::prelude::*;
    let proto = {
        let mut b = ProtocolBuilder::new(3);
        let root = fig1_nonatomic(&mut b, 1);
        b.finish(root, 1)
    };
    let report = explore(proto.clone(), &ExploreConfig::default());
    let schedule = report.first_counterexample().expect("violation expected");
    assert!(schedule.len() < 100, "BFS counterexamples should be short");
    let trace = kex::sim::replay::replay(proto.clone(), &schedule);
    assert!(trace.ends_in_violation());
    // The pretty-printer `run()` uses on failure must produce a usable
    // rendering of the same schedule.
    let lanes = replay_with(proto, &schedule, Timing::default(), None, None).render_lanes(3);
    assert!(
        lanes.lines().count() > 1 && lanes.starts_with("step") && lanes.contains("p2"),
        "render_lanes produced no lane output:\n{lanes}"
    );
}
