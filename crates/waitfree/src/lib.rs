//! # kex-waitfree — wait-free `k`-process shared objects
//!
//! The payload side of the PODC '94 methodology: Anderson & Moir's
//! resiliency wrapper (`kex_core::native::Resilient`) turns a wait-free
//! **k-process** object into a `(k-1)`-resilient **N-process** object.
//! This crate supplies such k-process objects:
//!
//! * [`universal::Universal`] — Herlihy's wait-free universal
//!   construction over any deterministic [`seq::Sequential`]
//!   specification (CAS consensus + helping), each op resumed from its
//!   caller's previous one and the log truncated behind checkpoints.
//! * [`queue::WfQueue`] / [`queue::WfStack`] /
//!   [`register::WfRegister`] / [`snapshot::Snapshot`] — typed
//!   instantiations.
//! * [`counter::SlotCounter`] — per-name slotted counter, the
//!   contention-free shape that a bounded name space makes possible.
//!
//! All objects take the calling process's *name* (`0..k`) explicitly —
//! exactly what the k-assignment wrapper hands out.
//!
//! ```rust
//! use kex_waitfree::queue::WfQueue;
//!
//! let q: WfQueue<u32> = WfQueue::new(3); // 3 names
//! q.enqueue(0, 7);
//! assert_eq!(q.dequeue(2), Some(7));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod consensus;
pub mod counter;
mod ordering;
pub mod queue;
pub mod register;
pub mod seq;
pub mod snapshot;
pub mod universal;

pub use counter::{FetchAddCounter, SlotCounter};
pub use queue::{WfQueue, WfStack};
pub use register::WfRegister;
pub use seq::Sequential;
pub use snapshot::Snapshot;
pub use universal::Universal;
