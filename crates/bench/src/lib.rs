//! # kex-bench — the `contend` grid
//!
//! `cargo run --release -p kex-bench --bin contend` — E12: multi-threaded
//! contention (throughput, latency percentiles, fairness) per row of
//! [`contend::algorithms`]. It is the one wall-clock harness outside
//! `benchmark/`: the only comparison of the native algorithms, baselines
//! and bare payload objects, and the only T ≫ k cells (its T = 1 column
//! is the uncontended ns/op). The repository's performance record is
//! `benchmark/run.sh` (see `benchmark/README.md`); `contend` numbers are
//! not committed.
//!
//! The paper's evaluation (Table 1, Theorems 1–10, the crash story) is
//! not here: each sweep is an asserting test of the root crate
//! (`tests/sim_integration.rs`, `tests/resilience.rs`; see
//! `EXPERIMENTS.md`).

#![warn(missing_docs)]

pub mod contend;
