//! # kex-bench — the experiment harness
//!
//! Regenerates every table and theorem-bound curve of the paper's
//! evaluation (see the repository's `EXPERIMENTS.md` for the index and
//! recorded results):
//!
//! * `cargo run --release -p kex-bench --bin table1` — Table 1
//!   (E1/E8): measured worst-case RMRs per algorithm, with and without
//!   contention, under each algorithm's memory model.
//! * `cargo run --release -p kex-bench --bin bounds -- <thm|all>` —
//!   Theorems 1–10 (E2–E6): parameter sweeps, measured vs. formula.
//! * `cargo run --release -p kex-bench --bin resilience` — E7: failure
//!   injection, survivors' progress at `f = 0 .. k` crashes.
//! * `cargo run --release -p kex-bench --bin contend` — E12:
//!   multi-threaded contention (throughput, latency percentiles,
//!   fairness) per row of [`contend::algorithms`] — the one wall-clock
//!   harness outside `benchmark/`: the only comparison of the native
//!   algorithms, baselines and bare payload objects, and the only
//!   T ≫ k cells (its T = 1 column is the uncontended ns/op). The
//!   repository's performance record is `benchmark/run.sh` (see
//!   `benchmark/README.md`); `contend` numbers are not committed.
//!
//! This library crate holds the shared measurement machinery.

#![warn(missing_docs)]

pub mod contend;
pub mod harness;
pub mod report;

pub use harness::{measure, Measurement, Workload};
pub use report::JsonSink;
