//! Sequential object specifications for the universal construction.
//!
//! A [`Sequential`] object is an ordinary single-threaded data structure
//! with a deterministic `apply` function over a value-like operation
//! type. The universal construction in [`crate::universal`] turns any
//! such specification into a linearizable, wait-free `k`-process object
//! by agreeing on a total order of operations and replaying them.

use std::collections::VecDeque;

pub use kex_util::Sequential;

/// Operations on a FIFO queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueOp<T> {
    /// Append a value at the tail.
    Enqueue(T),
    /// Remove the head value, if any.
    Dequeue,
}

/// A sequential FIFO queue specification.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SeqQueue<T> {
    items: VecDeque<T>,
}

impl<T> Default for SeqQueue<T> {
    fn default() -> Self {
        SeqQueue {
            items: VecDeque::new(),
        }
    }
}

impl<T: Clone + Send + Sync> Sequential for SeqQueue<T> {
    type Op = QueueOp<T>;
    type Resp = Option<T>;

    fn apply(&mut self, op: &Self::Op) -> Self::Resp {
        match op {
            QueueOp::Enqueue(v) => {
                self.items.push_back(v.clone());
                None
            }
            QueueOp::Dequeue => self.items.pop_front(),
        }
    }
}

/// Operations on a single-writer atomic snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotOp<T> {
    /// Overwrite register `i`.
    Update(usize, T),
    /// Read every register at one point.
    Scan,
}

/// What a [`SnapshotOp`] answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotResp<T> {
    /// An `Update`: the value the register held.
    Replaced(T),
    /// A `Scan`: the registers up to the highest one written so far.
    View(Vec<T>),
}

/// A sequential snapshot specification: registers, each `T::default()`
/// until written, that come into being on demand (`Default` knows no `k`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SeqSnapshot<T> {
    regs: Vec<T>,
}

impl<T: Clone + Default + Send + Sync> Sequential for SeqSnapshot<T> {
    type Op = SnapshotOp<T>;
    type Resp = SnapshotResp<T>;

    fn apply(&mut self, op: &Self::Op) -> Self::Resp {
        match op {
            SnapshotOp::Update(i, v) => {
                if self.regs.len() <= *i {
                    self.regs.resize(i + 1, T::default());
                }
                SnapshotResp::Replaced(std::mem::replace(&mut self.regs[*i], v.clone()))
            }
            SnapshotOp::Scan => SnapshotResp::View(self.regs.clone()),
        }
    }
}

/// Operations on a counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterOp {
    /// Add a (possibly negative) delta; responds with the new value.
    Add(i64),
    /// Read the current value.
    Get,
}

/// A sequential counter specification.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SeqCounter {
    value: i64,
}

impl Sequential for SeqCounter {
    type Op = CounterOp;
    type Resp = i64;

    fn apply(&mut self, op: &Self::Op) -> Self::Resp {
        match op {
            CounterOp::Add(d) => {
                self.value += d;
                self.value
            }
            CounterOp::Get => self.value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_is_fifo() {
        let mut q = SeqQueue::default();
        assert_eq!(q.apply(&QueueOp::Enqueue(1)), None);
        assert_eq!(q.apply(&QueueOp::Enqueue(2)), None);
        assert_eq!(q.apply(&QueueOp::Dequeue), Some(1));
        assert_eq!(q.apply(&QueueOp::Dequeue), Some(2));
        assert_eq!(q.apply(&QueueOp::Dequeue), None);
    }

    #[test]
    fn snapshot_grows_on_demand_and_answers_the_replaced_value() {
        use {SnapshotOp::*, SnapshotResp::*};
        let mut s = SeqSnapshot::<i32>::default();
        assert_eq!(s.apply(&Scan), View(vec![]));
        assert_eq!(s.apply(&Update(2, 5)), Replaced(0));
        assert_eq!(s.apply(&Update(2, 6)), Replaced(5));
        assert_eq!(s.apply(&Scan), View(vec![0, 0, 6]));
    }

    #[test]
    fn counter_accumulates() {
        let mut c = SeqCounter::default();
        assert_eq!(c.apply(&CounterOp::Add(3)), 3);
        assert_eq!(c.apply(&CounterOp::Add(-1)), 2);
        assert_eq!(c.apply(&CounterOp::Get), 2);
    }

    #[test]
    fn replay_determinism() {
        // The property the universal construction relies on.
        let ops = [
            QueueOp::Enqueue(10),
            QueueOp::Dequeue,
            QueueOp::Enqueue(20),
            QueueOp::Enqueue(30),
            QueueOp::Dequeue,
        ];
        let run = || {
            let mut q = SeqQueue::default();
            ops.iter().map(|op| q.apply(op)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
