//! Typed wait-free queue: the universal construction at a queue
//! specification, with its operations as methods — a ready-made payload
//! for the resiliency wrapper.

use crate::seq::{QueueOp, SeqQueue};
use crate::universal::Universal;

/// A linearizable, wait-free FIFO queue for `k` processes
/// ([`Universal::new`]`(k)`).
pub type WfQueue<T> = Universal<SeqQueue<T>>;

impl<T: Clone + Send + Sync> WfQueue<T> {
    /// Enqueue `value` on behalf of name `me`.
    pub fn enqueue(&self, me: usize, value: T) {
        self.apply(me, QueueOp::Enqueue(value));
    }

    /// Dequeue the head, if any, on behalf of name `me`.
    pub fn dequeue(&self, me: usize) -> Option<T> {
        self.apply(me, QueueOp::Dequeue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_round_trip() {
        let q = WfQueue::new(2);
        q.enqueue(0, "a");
        q.enqueue(1, "b");
        assert_eq!(q.dequeue(0), Some("a"));
        assert_eq!(q.dequeue(1), Some("b"));
        assert_eq!(q.dequeue(0), None);
    }
}
