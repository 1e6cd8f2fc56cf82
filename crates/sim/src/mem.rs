//! Mutable shared-memory state and the atomic access primitives.
//!
//! [`MemState`] holds the current value of every shared variable plus the
//! CC cache-holder sets and the per-process RMR counters. A node executes
//! its atomic statement against a [`MemCtx`], which binds the memory to a
//! particular process and memory model and performs the remote/local
//! accounting of [`crate::memmodel`] on every access.
//!
//! The primitives offered are exactly those the paper's algorithms use
//! (Table 1, "Instructions Used"): atomic `read`, `write`,
//! `fetch_and_increment` (with arbitrary delta, so also fetch-and-add /
//! decrement), `compare_and_swap`, and `test_and_set`.

use crate::memmodel::{classify_read, classify_write, HolderSet, MemoryModel};
use crate::summary::AccessKind;
use crate::types::{Pid, VarId, Word};
use crate::vars::VarTable;

/// Mutable state of the shared memory: variable values, cache state, and
/// RMR accounting. Cheap to clone (model checking relies on this).
#[derive(Debug, Clone)]
pub struct MemState {
    values: Vec<Word>,
    holders: Vec<HolderSet>,
    /// Remote references per process.
    remote: Vec<u64>,
    /// Local (non-remote) shared references per process.
    local: Vec<u64>,
    /// Every access since [`MemState::record_accesses`]; `None` in every
    /// run but the one that holds `Node::describe` against `Node::step`.
    trace: Option<Vec<(VarId, AccessKind)>>,
}

impl MemState {
    /// Initialize memory from a variable table for `n` processes.
    pub fn new(table: &VarTable, n: usize) -> Self {
        MemState {
            values: table.iter().map(|(_, s)| s.init).collect(),
            holders: vec![HolderSet::empty(); table.len()],
            remote: vec![0; n],
            local: vec![0; n],
            trace: None,
        }
    }

    /// From now on keep every access, for [`MemState::take_accesses`].
    pub fn record_accesses(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The accesses performed since the last call, in order (none unless
    /// [`MemState::record_accesses`] was called).
    pub fn take_accesses(&mut self) -> Vec<(VarId, AccessKind)> {
        self.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Current value of `v` **without** any locality accounting.
    ///
    /// For checkers and test assertions only; algorithms must go through
    /// [`MemCtx`].
    #[inline]
    pub fn peek(&self, v: VarId) -> Word {
        self.values[v.index()]
    }

    /// Total remote references performed by process `p` so far.
    #[inline]
    pub fn remote_refs(&self, p: Pid) -> u64 {
        self.remote[p]
    }

    /// Total local shared references performed by process `p` so far.
    #[inline]
    pub fn local_refs(&self, p: Pid) -> u64 {
        self.local[p]
    }

    /// Sum of remote references across all processes.
    pub fn total_remote_refs(&self) -> u64 {
        self.remote.iter().sum()
    }

    /// The raw variable values, in allocation order. Used by the explorer
    /// to encode states (cache state and counters are deliberately
    /// excluded: they never influence control flow).
    pub fn values(&self) -> &[Word] {
        &self.values
    }

    /// Rebuild a memory state from raw values (model-checker decode
    /// path). Cache state and counters start fresh; neither influences
    /// control flow.
    pub(crate) fn restore(values: Vec<Word>, n: usize) -> Self {
        let len = values.len();
        MemState {
            values,
            holders: vec![HolderSet::empty(); len],
            remote: vec![0; n],
            local: vec![0; n],
            trace: None,
        }
    }

    /// Bind this memory to an accessing process under a memory model.
    #[inline]
    pub fn ctx<'a>(&'a mut self, table: &'a VarTable, model: MemoryModel, p: Pid) -> MemCtx<'a> {
        MemCtx {
            mem: self,
            table,
            model,
            p,
        }
    }
}

/// A process's view of shared memory for the duration of one atomic
/// statement. All accounting happens here.
#[derive(Debug)]
pub struct MemCtx<'a> {
    mem: &'a mut MemState,
    table: &'a VarTable,
    model: MemoryModel,
    p: Pid,
}

impl<'a> MemCtx<'a> {
    /// The process performing the accesses.
    #[inline]
    pub fn pid(&self) -> Pid {
        self.p
    }

    /// The memory model in force.
    #[inline]
    pub fn model(&self) -> MemoryModel {
        self.model
    }

    #[inline]
    fn account(&mut self, v: VarId, kind: AccessKind) {
        let owner = self.table.spec(v).owner;
        let holders = &mut self.mem.holders[v.index()];
        let loc = match kind {
            AccessKind::Read => classify_read(self.model, self.p, owner, holders),
            AccessKind::Write | AccessKind::Rmw => {
                classify_write(self.model, self.p, owner, holders)
            }
        };
        if loc.is_remote() {
            self.mem.remote[self.p] += 1;
        } else {
            self.mem.local[self.p] += 1;
        }
        if let Some(trace) = &mut self.mem.trace {
            trace.push((v, kind));
        }
    }

    /// Atomic read of `v`.
    #[inline]
    pub fn read(&mut self, v: VarId) -> Word {
        self.account(v, AccessKind::Read);
        self.mem.values[v.index()]
    }

    /// Atomic write of `x` to `v`.
    #[inline]
    pub fn write(&mut self, v: VarId, x: Word) {
        self.account(v, AccessKind::Write);
        self.mem.values[v.index()] = x;
    }

    /// Atomic `fetch_and_increment(v, delta)`: adds `delta` and returns the
    /// **old** value, as in the paper's figures.
    #[inline]
    pub fn fetch_and_increment(&mut self, v: VarId, delta: Word) -> Word {
        self.account(v, AccessKind::Rmw);
        let old = self.mem.values[v.index()];
        self.mem.values[v.index()] = old + delta;
        old
    }

    /// Atomic clamped `fetch_and_increment` that leaves `v` unchanged if
    /// the result would leave `lo..=hi`.
    ///
    /// Figure 4 footnote 2 assumes `fetch_and_increment(X, -1)` "does not
    /// cause a range error, e.g. does not change X if executed when X is
    /// 0"; this primitive implements that assumption directly. Returns the
    /// old value either way.
    #[inline]
    pub fn fetch_and_increment_clamped(
        &mut self,
        v: VarId,
        delta: Word,
        lo: Word,
        hi: Word,
    ) -> Word {
        self.account(v, AccessKind::Rmw);
        let old = self.mem.values[v.index()];
        let new = old + delta;
        if new >= lo && new <= hi {
            self.mem.values[v.index()] = new;
        }
        old
    }

    /// Atomic `swap` (fetch-and-store): writes `x` and returns the old
    /// value. Not used by the paper's algorithms; provided for baseline
    /// comparisons such as the MCS queue lock (see
    /// `kex-core`'s `sim::mcs`).
    #[inline]
    pub fn swap(&mut self, v: VarId, x: Word) -> Word {
        self.account(v, AccessKind::Rmw);
        std::mem::replace(&mut self.mem.values[v.index()], x)
    }

    /// Atomic `compare_and_swap(v, expected, new)`: if `v = expected`,
    /// assigns `new` and returns `true` ("succeeds"); otherwise returns
    /// `false` ("fails"). Semantics as defined in the paper's footnote 3.
    #[inline]
    pub fn compare_and_swap(&mut self, v: VarId, expected: Word, new: Word) -> bool {
        self.account(v, AccessKind::Rmw);
        if self.mem.values[v.index()] == expected {
            self.mem.values[v.index()] = new;
            true
        } else {
            false
        }
    }

    /// Atomic `test_and_set(v)`: sets `v` to 1 and returns the old value
    /// interpreted as a boolean (`true` = was already set).
    #[inline]
    pub fn test_and_set(&mut self, v: VarId) -> bool {
        self.account(v, AccessKind::Rmw);
        let old = self.mem.values[v.index()];
        self.mem.values[v.index()] = 1;
        old != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (VarTable, MemState) {
        let mut t = VarTable::new();
        t.alloc("X", 3);
        t.alloc_local("P", 1, 0);
        let m = MemState::new(&t, 4);
        (t, m)
    }

    #[test]
    fn fetch_and_increment_returns_old_value() {
        let (t, mut m) = setup();
        let x = VarId(0);
        let mut c = m.ctx(&t, MemoryModel::Dsm, 0);
        assert_eq!(c.fetch_and_increment(x, -1), 3);
        assert_eq!(c.fetch_and_increment(x, -1), 2);
        assert_eq!(c.read(x), 1);
    }

    #[test]
    fn clamped_fetch_and_increment_respects_range() {
        let (t, mut m) = setup();
        let x = VarId(0);
        let mut c = m.ctx(&t, MemoryModel::Dsm, 0);
        // Drain X to 0, then a further decrement is a no-op (footnote 2).
        for _ in 0..3 {
            c.fetch_and_increment_clamped(x, -1, 0, 3);
        }
        assert_eq!(c.fetch_and_increment_clamped(x, -1, 0, 3), 0);
        assert_eq!(c.read(x), 0);
    }

    #[test]
    fn compare_and_swap_semantics_match_footnote_3() {
        let (t, mut m) = setup();
        let x = VarId(0);
        let mut c = m.ctx(&t, MemoryModel::Dsm, 0);
        assert!(!c.compare_and_swap(x, 99, 7)); // fails: X = 3
        assert_eq!(c.read(x), 3);
        assert!(c.compare_and_swap(x, 3, 7)); // succeeds
        assert_eq!(c.read(x), 7);
    }

    #[test]
    fn test_and_set_reports_prior_state() {
        let (t, mut m) = setup();
        let p = VarId(1);
        let mut c = m.ctx(&t, MemoryModel::Dsm, 1);
        assert!(!c.test_and_set(p));
        assert!(c.test_and_set(p));
    }

    #[test]
    fn rmr_accounting_distinguishes_models() {
        let (t, mut m) = setup();
        let x = VarId(0); // global: remote to everyone under DSM
        let p_var = VarId(1); // owned by process 1

        // DSM: process 1 touches its own variable locally, X remotely.
        {
            let mut c = m.ctx(&t, MemoryModel::Dsm, 1);
            c.read(p_var);
            c.read(x);
        }
        assert_eq!(m.remote_refs(1), 1);
        assert_eq!(m.local_refs(1), 1);

        // CC: first read remote, second local.
        let (t, mut m) = setup();
        {
            let mut c = m.ctx(&t, MemoryModel::CacheCoherent, 2);
            c.read(x);
            c.read(x);
        }
        assert_eq!(m.remote_refs(2), 1);
        assert_eq!(m.local_refs(2), 1);
    }
}
