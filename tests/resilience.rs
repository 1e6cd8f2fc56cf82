//! The resiliency story (E7 in `EXPERIMENTS.md`), verified from both
//! sides: `k-1` failures are survivable (for the paper's algorithms), and
//! the `k`-th is not (for anyone). That the Figure-1 queue baseline is
//! not even implementable without its atomic sections is
//! `tests/model_checking.rs`'s replayable counterexample.
//!
//! Each `e7_*` test prints its table to stderr in one piece
//! (`cargo test --release --test resilience -- --nocapture`) and fails,
//! naming the sweep and `(N, k)`, on any cell that breaks its claim.

use kex::core::sim::Algorithm;
use kex::sim::prelude::*;

const CYCLES: u64 = 12;
/// A run that hits the budget is wedged. Live cells must quiesce within
/// it (and are asserted to), so a budget too small to finish a live run
/// fails loudly instead of passing as a wedge: every live cell here ends
/// within 25 000 steps, and at 10 000 two of them fail. A wedged cell
/// costs the whole budget, so it is no larger than that margin needs.
const STEP_BUDGET: u64 = 200_000;

/// One E7 cell: `f` victims crashed in an `(n, k)` instance.
struct Cell {
    /// Survivors that finished all their cycles.
    done: usize,
    survivors: usize,
    wedged: bool,
    /// Whether every victim died holding a slot of the protocol's root
    /// node (a chain's final stage, the one that admits `k`): waiting in
    /// it, or in the critical section.
    all_hold_root: bool,
    /// Where each victim died: its innermost node, or `cs`.
    died_in: Vec<String>,
}

impl Cell {
    fn show(&self) -> String {
        let mark = match (self.done == self.survivors, self.wedged) {
            (true, _) => "",
            (false, true) => "*",
            (false, false) => "?",
        };
        format!("{}/{}{mark}", self.done, self.survivors)
    }
}

/// Crash pids `0..f` of an `(n, k)` instance — inside their critical
/// sections, or while contending (at their third own step or later,
/// wherever in the entry or critical section that lands them) — and run
/// the rest.
fn crash(algo: Algorithm, n: usize, k: usize, f: usize, while_waiting: bool) -> Cell {
    let proto = algo.build(n, k, CYCLES as usize + 1);
    let mut plan = FailurePlan::new();
    for pid in 0..f {
        plan.push(FailureSpec {
            pid,
            when: if while_waiting {
                FailWhen::WhileContending { after_own_steps: 3 }
            } else {
                FailWhen::InCriticalSection
            },
        });
    }
    let mut sim = Sim::new(proto.clone(), algo.model())
        .cycles(CYCLES)
        .scheduler(RandomSched::new(7))
        .failures(plan)
        .timing(Timing {
            ncs_steps: 1,
            cs_steps: 3,
        })
        .build();
    let report = sim.run(STEP_BUDGET);
    report.assert_safe();
    // `None`: the victim died in its critical section.
    let innermost: Vec<_> = sim.world.procs[..f]
        .iter()
        .map(|p| (!p.phase.in_critical()).then(|| p.stack.last().expect("contending").node))
        .collect();
    Cell {
        done: report.completed[f..]
            .iter()
            .filter(|&&c| c == CYCLES)
            .count(),
        survivors: n - f,
        wedged: report.stop == StopReason::StepBudget,
        all_hold_root: innermost
            .iter()
            .all(|&node| node.is_none_or(|id| id == proto.root())),
        died_in: innermost
            .iter()
            .map(|node| node.map_or_else(|| "cs".to_owned(), |id| proto.node(id).name()))
            .collect(),
    }
}

/// The paper's algorithms, every one in the crash-in-CS tables.
const LOCAL_SPIN: [Algorithm; 10] = [
    Algorithm::CcChain,
    Algorithm::CcTree,
    Algorithm::CcFastPath,
    Algorithm::CcGraceful,
    Algorithm::DsmChain,
    Algorithm::DsmTree,
    Algorithm::DsmFastPath,
    Algorithm::DsmGraceful,
    Algorithm::AssignmentCc,
    Algorithm::AssignmentDsm,
];

/// E7: crash pids `0..f` for `f` up to `k` — inside their critical
/// sections, or `while_waiting` (from their third own step: waiting in
/// some stage, or in the critical section) — and check the survivors.
///
/// A victim holds one slot of every stage it has entered, its innermost
/// included, and of no other; the survivors need one free slot in each.
/// So `f <= k-1` crashes leave every survivor finishing (and the run
/// quiescent), and `k` crashes wedge the run, with a survivor unfinished,
/// exactly when every victim holds a slot of the protocol's root: always
/// for crashes in the critical section, and for Figure 1, which is one
/// stage. A chain's stages above the final one admit more than `k`, so `k`
/// waiting crashes wedge it only if all `k` victims die in its final stage.
fn e7(n: usize, k: usize, while_waiting: bool, algos: &[Algorithm]) {
    let first_f = usize::from(while_waiting);
    let mut table = if while_waiting {
        format!("crashes while WAITING (N = {n}, k = {k}), f = 1 .. k:\n")
    } else {
        format!(
            "E7: resiliency — {n} processes, k = {k}, crashes inside the CS\n\
             (paper claim: (k-1)-resilient, i.e. full progress for f <= {})\n\n",
            k - 1
        )
    };
    table += &format!("{:<24}", "algorithm");
    for f in first_f..k {
        table += &format!(" {:>7}", format!("f={f}"));
    }
    table += &format!(
        " {:>9}\n{}\n",
        format!("f={k} (=k)"),
        "-".repeat(36 + 8 * (k - first_f))
    );
    let mut broken = Vec::new();
    let mut where_died = String::new();
    for &algo in algos {
        table += &format!("{:<24}", algo.label());
        for f in first_f..=k {
            let cell = crash(algo, n, k, f, while_waiting);
            let holds = if f == k && cell.all_hold_root {
                cell.wedged && cell.done < cell.survivors
            } else {
                cell.done == cell.survivors && !cell.wedged
            };
            if !holds {
                broken.push(format!(
                    "(N, k) = ({n}, {k}): {} at f = {f} reads {} with victims in {:?}",
                    algo.label(),
                    cell.show(),
                    cell.died_in
                ));
            }
            if while_waiting && f == k {
                where_died += &format!("  {:<22} {}\n", algo.label(), cell.died_in.join(", "));
            }
            let width = if f < k { 8 } else { 10 };
            table += &format!("{:>width$}", cell.show());
        }
        table += "\n";
    }
    if while_waiting {
        table +=
            &format!("\nwhere the f = {k} victims died (innermost node, or cs):\n{where_died}");
        table += "\nexpected: a crashed waiter holds one slot of every stage it has entered, so\n";
        table += "all survive f <= k-1; at f = k Figure 1 (one stage) wedges, and a chain\n";
        table += "wedges only if all k victims hold a slot of its final stage (the one that\n";
        table += "admits k). Figure 1's actual defect — that its multi-word atomic sections\n";
        table += "cannot be built from realistic primitives — is model_checking.rs's\n";
        table += "`counterexamples_from_the_matrix_are_replayable`: the model checker finds a\n";
        table += "k-exclusion violation after the brackets are removed.\n";
    } else {
        table += "\ncells: survivors-finished / survivors; '*' = run wedged (step budget hit)\n";
        table += &format!(
            "expected: every algorithm finishes all its survivors up to f = {}, wedges at f = {k};\n",
            k - 1
        );
        table += "(global-spin also survives CS crashes of f < k but is not starvation-free)\n\n";
    }
    eprint!("{table}");
    let sweep = if while_waiting {
        "crash while waiting"
    } else {
        "crash in CS"
    };
    assert!(
        broken.is_empty(),
        "E7 ({sweep}):\n  {}",
        broken.join("\n  ")
    );
}

#[test]
fn e7_crash_in_cs_n10_k3() {
    let mut algos = LOCAL_SPIN.to_vec();
    algos.extend([Algorithm::QueueFig1, Algorithm::GlobalSpin]);
    e7(10, 3, false, &algos);
}

#[test]
fn e7_crash_in_cs_n08_k3() {
    e7(8, 3, false, &LOCAL_SPIN);
}

#[test]
fn e7_crash_in_cs_n06_k2() {
    e7(6, 2, false, &[Algorithm::CcFastPath]);
}

/// The algorithms of the waiting-crash tables.
const WAITING: [Algorithm; 3] = [
    Algorithm::QueueFig1,
    Algorithm::CcChain,
    Algorithm::DsmChain,
];

#[test]
fn e7_crash_while_waiting_n10_k3() {
    e7(10, 3, true, &WAITING);
}

#[test]
fn e7_crash_while_waiting_n04_k2() {
    e7(4, 2, true, &WAITING);
}
