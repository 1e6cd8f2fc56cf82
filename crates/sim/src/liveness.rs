//! Starvation-freedom checking over an explored transition graph.
//!
//! The paper's progress property (§2): *"If at most `k-1` processes are
//! faulty, then any nonfaulty process in its entry (exit) section must
//! eventually reach its critical (noncritical) section."* Scheduling is
//! assumed fair: a nonfaulty process keeps taking steps.
//!
//! Over the finite graph produced by [`crate::explore`] (with `cycles =
//! None`, so processes run forever), starvation of process `p` is
//! possible **iff** there exists a strongly connected subgraph `T` such
//! that:
//!
//! 1. `p` is never in its critical section in any state of `T`
//!    (starvation means `p` stops making progress),
//! 2. every live process has at least one step-transition inside `T`
//!    (so a *fair* infinite execution can stay in `T` forever — in a
//!    strongly connected graph any set of internal edges can be woven
//!    into one infinite walk),
//! 3. `p` is engaged (entry or exit section) somewhere in `T` (it is
//!    actually waiting, not idling in its noncritical section).
//!
//! We decide this exactly: for each process `p`, delete the states where
//! `p` is critical, compute the SCCs of the remaining graph (Tarjan), and
//! test conditions 2–3 on each nontrivial SCC. Crash transitions are
//! irreversible, so they never appear inside an SCC; the failed set is
//! constant per SCC and fairness applies only to the processes live
//! there.

use crate::explore::{ExploreReport, Label};
use crate::types::Pid;

/// A starvation scenario discovered in the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Starvation {
    /// The starving process.
    pub pid: Pid,
    /// A state (id into the explore report) inside the recurrent set in
    /// which `pid` is engaged but can be denied the critical section
    /// forever under a fair schedule.
    pub witness_state: u32,
    /// Number of states in the recurrent set.
    pub scc_size: usize,
}

impl std::fmt::Display for Starvation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "process {} can starve: fair recurrent set of {} states (witness state {})",
            self.pid, self.scc_size, self.witness_state
        )
    }
}

/// Check starvation-freedom for every process over the explored graph.
///
/// Returns the first starvation scenario found, or `Ok(())` if the
/// protocol is starvation-free on this instance.
///
/// # Panics
/// Panics if the report is truncated (a partial graph proves nothing).
pub fn check_starvation_freedom(report: &ExploreReport) -> Result<(), Starvation> {
    assert!(
        !report.truncated,
        "cannot analyse liveness on a truncated exploration"
    );
    let n_states = report.states;
    if n_states == 0 {
        return Ok(());
    }

    // The union of live sets tells us which processes to analyse.
    let mut all_live = 0u64;
    for f in &report.flags {
        all_live |= f.live;
    }

    for p in 0..64 {
        if all_live & (1 << p) == 0 {
            continue;
        }
        if let Some(starv) = check_process(report, p as Pid) {
            return Err(starv);
        }
    }
    Ok(())
}

/// Check whether process `p` can starve.
fn check_process(report: &ExploreReport, p: Pid) -> Option<Starvation> {
    let bit = 1u64 << p;
    // Keep only states where p is not critical and p is live (a failed p
    // cannot starve; it is faulty, not denied).
    let keep: Vec<bool> = report
        .flags
        .iter()
        .map(|f| f.critical & bit == 0 && f.live & bit != 0)
        .collect();

    let sccs = tarjan_scc(report, &keep);
    // Which SCC each kept state is in: one array, not one per SCC.
    let mut scc_of = vec![u32::MAX; report.states];
    for (id, scc) in sccs.iter().enumerate() {
        for &s in scc {
            scc_of[s as usize] = id as u32;
        }
    }

    for (id, scc) in sccs.iter().enumerate() {
        // Nontrivial: contains at least one internal step edge.
        let mut internal_steppers = 0u64;
        let mut has_internal_edge = false;
        for &s in scc {
            for &(label, t) in &report.edges[s as usize] {
                if scc_of[t as usize] == id as u32 {
                    if let Label::Step(q) = label {
                        has_internal_edge = true;
                        internal_steppers |= 1 << q;
                    }
                }
            }
        }
        if !has_internal_edge {
            continue; // trivial SCC, no infinite execution stays here
        }
        // Fairness feasibility: every live process steps inside the SCC.
        // The live set is constant across an SCC (failures/done are
        // irreversible), so read it off the first state.
        let live = report.flags[scc[0] as usize].live;
        if internal_steppers & live != live {
            continue; // some live process is forced to leave: unfair set
        }
        // p waits here: engaged in some state of the SCC.
        if let Some(&witness) = scc
            .iter()
            .find(|&&s| report.flags[s as usize].engaged & bit != 0)
        {
            return Some(Starvation {
                pid: p,
                witness_state: witness,
                scc_size: scc.len(),
            });
        }
    }
    None
}

/// Iterative Tarjan SCC over the subgraph induced by `keep`.
/// Only step edges define the subgraph's connectivity together with crash
/// edges; crash edges are irreversible so including them is harmless.
fn tarjan_scc(report: &ExploreReport, keep: &[bool]) -> Vec<Vec<u32>> {
    let n = report.states;
    const UNSEEN: u32 = u32::MAX;
    let mut index = vec![UNSEEN; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut sccs: Vec<Vec<u32>> = Vec::new();

    // Explicit DFS stack: (node, edge cursor).
    for start in 0..n as u32 {
        if !keep[start as usize] || index[start as usize] != UNSEEN {
            continue;
        }
        let mut call: Vec<(u32, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut cursor)) = call.last_mut() {
            if *cursor == 0 {
                index[v as usize] = next_index;
                lowlink[v as usize] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v as usize] = true;
            }
            let edges = &report.edges[v as usize];
            let mut advanced = false;
            while *cursor < edges.len() {
                let (_, w) = edges[*cursor];
                *cursor += 1;
                if !keep[w as usize] {
                    continue;
                }
                if index[w as usize] == UNSEEN {
                    call.push((w, 0));
                    advanced = true;
                    break;
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            }
            if advanced {
                continue;
            }
            // v finished.
            if lowlink[v as usize] == index[v as usize] {
                let mut scc = Vec::new();
                loop {
                    let w = stack.pop().unwrap();
                    on_stack[w as usize] = false;
                    scc.push(w);
                    if w == v {
                        break;
                    }
                }
                sccs.push(scc);
            }
            call.pop();
            if let Some(&mut (parent, _)) = call.last_mut() {
                lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, ExploreConfig};
    use crate::mem::MemCtx;
    use crate::node::Node;
    use crate::protocol::ProtocolBuilder;
    use crate::types::{Section, Step, VarId, Word};

    /// A deliberately unfair 1-exclusion: a test-and-set spinlock where a
    /// waiter spins by retrying the TAS. Safe, but a fair schedule can
    /// starve one process forever (the other laps it). The liveness
    /// checker must find that.
    struct TasLock {
        bit: VarId,
    }

    impl Node for TasLock {
        fn name(&self) -> String {
            "tas-lock".into()
        }

        fn step(&self, sec: Section, _pc: u32, _locals: &mut [Word], mem: &mut MemCtx<'_>) -> Step {
            match sec {
                Section::Entry => {
                    if mem.test_and_set(self.bit) {
                        Step::Goto(0) // busy: retry
                    } else {
                        Step::Return
                    }
                }
                Section::Exit => {
                    mem.write(self.bit, 0);
                    Step::Return
                }
            }
        }
    }

    #[test]
    fn tas_lock_is_safe_but_not_starvation_free() {
        let mut b = ProtocolBuilder::new(3);
        let bit = b.vars.alloc("L", 0);
        let root = b.add(TasLock { bit });
        let protocol = b.finish(root, 1);
        let cfg = ExploreConfig {
            participants: Some(vec![0, 1]),
            ..ExploreConfig::default()
        };
        let report = explore(protocol, &cfg);
        report.assert_ok(); // mutual exclusion holds...
        let starvation = check_starvation_freedom(&report).unwrap_err();
        // ...but one of the two contenders can starve.
        assert!(starvation.pid == 0 || starvation.pid == 1);
        assert!(starvation.scc_size >= 2);
    }

    /// A strictly alternating 1-exclusion for two processes (Dekker-style
    /// turn variable only). Starvation-free for two *always-contending*
    /// processes, so the checker must pass it.
    struct TurnLock {
        turn: VarId,
    }

    impl Node for TurnLock {
        fn name(&self) -> String {
            "turn-lock".into()
        }

        fn step(&self, sec: Section, _pc: u32, _locals: &mut [Word], mem: &mut MemCtx<'_>) -> Step {
            match sec {
                Section::Entry => {
                    if mem.read(self.turn) == mem.pid() as Word {
                        Step::Return
                    } else {
                        Step::Goto(0)
                    }
                }
                Section::Exit => {
                    let other = 1 - mem.pid() as Word;
                    mem.write(self.turn, other);
                    Step::Return
                }
            }
        }
    }

    #[test]
    fn alternating_turn_lock_is_starvation_free_for_two() {
        let mut b = ProtocolBuilder::new(2);
        let turn = b.vars.alloc("turn", 0);
        let root = b.add(TurnLock { turn });
        let protocol = b.finish(root, 1);
        let report = explore(protocol, &ExploreConfig::default());
        report.assert_ok();
        check_starvation_freedom(&report).expect("turn lock must not starve contenders");
    }
}
