//! Typed wait-free queue and stack: the universal construction at a
//! queue and a stack specification, with their operations as methods —
//! ready-made payloads for the resiliency wrapper.

use crate::seq::{QueueOp, SeqQueue, SeqStack, StackOp};
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

/// A linearizable, wait-free LIFO stack for `k` processes
/// ([`Universal::new`]`(k)`).
pub type WfStack<T> = Universal<SeqStack<T>>;

impl<T: Clone + Send + Sync> WfStack<T> {
    /// Push `value` on behalf of name `me`.
    pub fn push(&self, me: usize, value: T) {
        self.apply(me, StackOp::Push(value));
    }

    /// Pop the most recent value, if any, on behalf of name `me`.
    pub fn pop(&self, me: usize) -> Option<T> {
        self.apply(me, StackOp::Pop)
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

    #[test]
    fn stack_round_trip() {
        let s = WfStack::new(2);
        s.push(0, 1);
        s.push(1, 2);
        assert_eq!(s.pop(0), Some(2));
        assert_eq!(s.pop(1), Some(1));
        assert_eq!(s.pop(0), None);
    }

    #[test]
    fn concurrent_stack_conserves_elements() {
        let k = 3;
        let per = 60;
        let s = WfStack::new(k);
        let popped: Vec<Vec<u32>> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..k)
                .map(|me| {
                    let s = &s;
                    sc.spawn(move || {
                        let mut got = Vec::new();
                        for i in 0..per {
                            s.push(me, (me * 1000 + i) as u32);
                            if let Some(v) = s.pop(me) {
                                got.push(v);
                            }
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<u32> = popped.into_iter().flatten().collect();
        while let Some(v) = s.pop(0) {
            all.push(v);
        }
        all.sort();
        all.dedup();
        assert_eq!(all.len(), k * per, "lost or duplicated stack elements");
    }
}
