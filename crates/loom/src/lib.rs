//! A vendored, loom-style systematic concurrency model checker.
//!
//! [`model`] runs a closure repeatedly, once per distinct thread
//! interleaving, with every interleaving chosen deterministically by a
//! depth-first search over scheduling decisions. Model code uses the
//! drop-in primitives from [`atomic`], [`sync`], [`thread`] and
//! [`hint`] — the same surface `kex-util::sync` re-exports under
//! `cfg(loom)` — so the *production* algorithms in `kex-core` run
//! unmodified under the checker.
//!
//! ```
//! use kex_loom::atomic::{AtomicUsize, Ordering::SeqCst};
//! use std::sync::Arc;
//!
//! kex_loom::model(|| {
//!     let x = Arc::new(AtomicUsize::new(0));
//!     let x2 = Arc::clone(&x);
//!     let t = kex_loom::thread::spawn(move || x2.fetch_add(1, SeqCst));
//!     x.fetch_add(1, SeqCst);
//!     t.join().unwrap();
//!     assert_eq!(x.load(SeqCst), 2);
//! });
//! ```
//!
//! # Model and guarantees
//!
//! * **Memory model**: the orderings the code declares. Every atomic
//!   executes at a serialization point and is tracked under an
//!   operational C11 fragment: per-location modification orders,
//!   per-thread acquired views, release sequences, and an SC order for
//!   `SeqCst` accesses, with each load's read-from choice explored as a
//!   decision beside the scheduling ones. A load's first candidate is
//!   always the newest store and an all-`SeqCst` access has no other, so
//!   the sequentially consistent interleavings are a subset of what is
//!   explored and all-`SeqCst` code is explored exactly. Known
//!   under-approximations, all in the safe direction for checking that
//!   *forbidden* outcomes stay forbidden: no fence modelling (the
//!   workspace uses none), load-buffering cycles are never produced,
//!   read-from enumeration is bounded to the newest four stores, and a
//!   re-scheduled spinner reads the newest store (the read-from
//!   analogue of yield demotion).
//! * **Exhaustiveness**: with no preemption bound the search visits
//!   every interleaving of schedule points, modulo one sound reduction —
//!   a thread that executed a spin hint is re-scheduled only after
//!   another thread performs a write (re-running a pure re-read with
//!   nothing changed would revisit an identical state).
//! * **Preemption bounding**: [`Builder::max_preemptions`] (or the
//!   `LOOM_MAX_PREEMPTIONS` env var) caps *involuntary* context switches
//!   per execution, the CHESS heuristic: most concurrency bugs manifest
//!   with very few preemptions, and the bound turns exponential searches
//!   polynomial.
//! * **Failures**: an assertion failure inside the model, a deadlock
//!   (all threads blocked), or a stuck spinner (no writer can ever wake
//!   it — i.e. a lost wakeup) aborts the search and panics with the
//!   failing schedule.

#![warn(missing_docs)]

pub mod atomic;
pub mod hint;
mod rt;
pub mod sync;
pub mod thread;

use std::sync::Arc;

/// Statistics from a completed exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Number of distinct schedules (executions) explored.
    pub executions: u64,
    /// Total schedule points across all executions.
    pub schedule_points: u64,
}

/// Configures an exploration; `check` runs it.
///
/// ```
/// kex_loom::Builder::new().max_preemptions(2).check(|| { /* model */ });
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Builder {
    max_preemptions: Option<u32>,
}

/// An exploration that has not converged after this many executions
/// panics instead of silently truncating coverage.
const MAX_BRANCHES: u64 = 2_000_000;

impl Builder {
    /// A builder that explores exhaustively.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps involuntary preemptions per execution. Overridden by the
    /// `LOOM_MAX_PREEMPTIONS` env var when set (so CI can tighten or
    /// loosen every model at once).
    pub fn max_preemptions(mut self, n: u32) -> Self {
        self.max_preemptions = Some(n);
        self
    }

    /// Explores every schedule of `f`; panics with the failing schedule
    /// if any execution fails. Returns exploration statistics.
    pub fn check<F>(self, f: F) -> Stats
    where
        F: Fn() + Send + Sync + 'static,
    {
        match self.explore(Arc::new(f)) {
            Ok(stats) => stats,
            Err(msg) => panic!("model check failed\n{msg}"),
        }
    }

    /// Like [`Builder::check`] but *expects* a failure: returns the
    /// failure message, panicking if every schedule passes. Used to
    /// prove the checker actually detects an injected bug.
    pub fn check_expecting_failure<F>(self, f: F) -> String
    where
        F: Fn() + Send + Sync + 'static,
    {
        match self.explore(Arc::new(f)) {
            Ok(stats) => panic!(
                "expected the model to fail, but all {} executions passed",
                stats.executions
            ),
            Err(msg) => msg,
        }
    }

    fn explore(self, f: Arc<dyn Fn() + Send + Sync>) -> Result<Stats, String> {
        // The env var (unset or garbage is ignored) overrides the builder.
        let max_preemptions = std::env::var("LOOM_MAX_PREEMPTIONS")
            .ok()
            .and_then(|v| v.parse().ok())
            .or(self.max_preemptions);
        let mut decisions = Vec::new();
        let mut executions = 0u64;
        let mut schedule_points = 0u64;
        loop {
            let exec = rt::Execution::new(max_preemptions, decisions);
            let outcome = exec.run(f.clone());
            executions += 1;
            schedule_points += outcome.schedule_points;
            if let Some(msg) = outcome.failure {
                return Err(format!("execution {executions}: {msg}"));
            }
            if executions >= MAX_BRANCHES {
                panic!(
                    "exploration exceeded {MAX_BRANCHES} executions without converging; \
                     shrink the model or set a preemption bound"
                );
            }
            decisions = outcome.decisions;
            if !rt::advance(&mut decisions) {
                return Ok(Stats {
                    executions,
                    schedule_points,
                });
            }
        }
    }
}

/// Exhaustively model-checks `f` (honouring `LOOM_MAX_PREEMPTIONS`),
/// panicking with the failing schedule on any violation.
pub fn model<F>(f: F) -> Stats
where
    F: Fn() + Send + Sync + 'static,
{
    Builder::new().check(f)
}

/// Model-checks `f` expecting at least one schedule to fail; returns
/// the failure message. See [`Builder::check_expecting_failure`].
pub fn check_expecting_failure<F>(f: F) -> String
where
    F: Fn() + Send + Sync + 'static,
{
    Builder::new().check_expecting_failure(f)
}
