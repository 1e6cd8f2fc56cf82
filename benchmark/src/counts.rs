//! The count pass: exactly 10 000 calls of each T = 1 rung between
//! `kex_obs::reset()` and `kex_obs::snapshot()`, in the build whose
//! `kex_util::sync` facade is the instrumented backend (`--features
//! obs`). One thread and a fixed key stream, so the counts are a
//! property of the code: they repeat exactly, whatever `--seed` says.

use crate::ladder::{Fixtures, Metrics};

const CALLS: usize = 10_000;
const FIXED_SEED: u64 = 1;

/// `(atomic operations, of which read-modify-writes)` per call.
fn per_call(mut call: impl FnMut(usize)) -> (f64, f64) {
    kex_obs::reset();
    (0..CALLS).for_each(&mut call);
    // Every pid and the untracked bucket: a layer called from outside
    // any library span (the object, the journal) lands in the latter.
    let (mut atomics, mut rmws) = (0u64, 0u64);
    for pid in &kex_obs::snapshot().per_pid {
        for section in &pid.sections {
            atomics += section.ops();
            rmws += section.rmws;
        }
    }
    (atomics as f64 / CALLS as f64, rmws as f64 / CALLS as f64)
}

pub fn run() -> Metrics {
    let fx = Fixtures::new(FIXED_SEED);
    let kex = per_call(|_| fx.kex_pair(0));
    let assignment = per_call(|_| fx.assignment_pair(0));
    let resilient = per_call(|_| fx.resilient_with(0));
    [
        ("kex.atomics_per_op", kex.0),
        ("kex.rmws_per_op", kex.1),
        (
            "renaming.atomics_per_op",
            per_call(|_| fx.renaming_pair()).0,
        ),
        ("assignment.atomics_per_op", assignment.0),
        ("assignment.rmws_per_op", assignment.1),
        ("resilient.atomics_per_op", resilient.0),
        ("resilient.rmws_per_op", resilient.1),
        (
            "object.get_atomics_per_op",
            per_call(|i| fx.object_get(0, i)).0,
        ),
        (
            "object.put_atomics_per_op",
            per_call(|i| fx.object_put(0, i)).0,
        ),
        (
            "journal.atomics_per_op",
            per_call(|i| fx.journal_begin_commit(0, i)).0,
        ),
        ("shard.get_rmws_per_op", per_call(|i| fx.shard_get(0, i)).1),
        ("shard.put_rmws_per_op", per_call(|i| fx.shard_put(0, i)).1),
    ]
    .into_iter()
    .collect()
}
