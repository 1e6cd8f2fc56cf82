//! # kex-store — a sharded resilient-object service layer
//!
//! The paper's methodology makes *one* shared object `(k-1)`-resilient:
//! a wait-free k-process object inside a k-assignment wrapper
//! ([`kex_core::native::Resilient`]). This crate is the next layer up —
//! the first in the repo that serves a *multi-object workload* rather
//! than a single primitive:
//!
//! ```text
//!   key ──seeded hash──▶ shard ──Resilient (n, k)──▶ wait-free object
//!                          │
//!                          └─▶ per-name op lanes (append-only journal)
//! ```
//!
//! * **Routing** ([`shard_of`]): a SplitMix64-style seeded hash assigns each
//!   key to one of a fixed set of shards; deterministic per seed, so
//!   every process and every recovery pass agrees on ownership.
//! * **Admission** ([`Shard`]): each shard owns a `Resilient<O>` with
//!   its own `k` slots, so a crash costs one slot of one shard; a
//!   [`Store`] builds every shard at the config's `(n, k)`.
//! * **Lanes** ([`LaneJournal`]): the k-assignment *name* doubles as the
//!   index of an append-only per-name operation journal. A crashed
//!   process consumes its name forever, so the lane it leaves behind
//!   attributes exactly the in-flight operation it died in.
//! * **Surface**: small capability traits — [`StoreRead`],
//!   [`StoreWrite`], [`StoreScan`] — with non-blocking `try_*` variants
//!   that shed load (via [`Resilient::try_with`]) when a shard's `k`
//!   slots are all held, instead of spinning behind crashed holders.
//!   `get` and `for_each` take no slot: a [`ShardObject`]'s name-free
//!   reads are wait-free for any number of callers, so they go around
//!   the wrapper and outlive every slot of their shard.
//!
//! The shard objects are **k-process** implementations per the paper's
//! contract; [`KvCells`] (an atomic-register open-addressed table) is
//! the stock one. Every atomic in this crate goes through the
//! [`kex_util::sync`] facade and names its ordering through the audited
//! constants in `ordering`: `SeqCst` on the cells admitted writers race,
//! `Release`/`Acquire` on the single-writer journal lanes and `Relaxed`
//! on the per-process tallies, as `docs/MEMORY_ORDERING.md`'s "store
//! layer" section argues.
//!
//! Resilience composition across shards: each shard tolerates
//! `k_s - 1` crashed holders independently, so the store as a whole
//! takes writes for every key whose shard has a live slot — a crash
//! budget of `Σ (k_s - 1)` placed adversarially, in the spirit of the
//! t-resilient composition line in PAPERS.md — and reads for every key.
//! `benchmark/run.sh` measures the store
//! end to end, crash-degraded regime included (`benchmark/README.md`);
//! `tests/crash_mix.rs` checks that regime; `docs/STORE.md` has the
//! architecture tour.
//!
//! [`Resilient::try_with`]: kex_core::native::Resilient::try_with

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod hash;
mod journal;
mod object;
mod ordering;
mod shard;
mod store;
mod traits;

pub use hash::shard_of;
pub use journal::{Entry, LaneJournal, OpKind, OpState};
pub use object::{KvCells, ShardObject, MAX_KEY, MAX_VALUE};
pub use shard::{Shard, ShardStats};
pub use store::{KvStore, Store, StoreConfig};
pub use traits::{PutError, StoreRead, StoreScan, StoreWrite};
