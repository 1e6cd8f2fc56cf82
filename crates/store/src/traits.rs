//! The store's service surface: small capability traits in the style of
//! wrongodb's page-store decomposition (SNIPPETS.md) — a consumer that
//! only reads depends only on [`StoreRead`], a writer adds
//! [`StoreWrite`], and analytics/recovery tooling takes [`StoreScan`].
//! `Store<O>` implements all three; test doubles and future tiered
//! stores implement whichever subset they mean.
//!
//! Every operation takes the calling process id `p` (in `0..n`, the
//! per-shard universe) because admission and crash accounting are
//! per-process — this is a *paper-shaped* API, not a `&self`-hides-all
//! one. The `try_*` variants shed instead of waiting when the target
//! shard's `k` slots are all held (including slots consumed by crashed
//! processes), via [`Resilient::try_with`](kex_core::native::Resilient::try_with).
//! `get` and `for_each` take no slot: they never wait, and still answer
//! on a shard whose every slot has crashed.

/// Why a write did not take effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutError {
    /// The owning shard's object is at capacity for new keys
    /// (overwrites of present keys still succeed).
    ShardFull,
}

impl std::fmt::Display for PutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PutError::ShardFull => write!(f, "shard object is full"),
        }
    }
}

impl std::error::Error for PutError {}

/// Read capability.
pub trait StoreRead {
    /// Read `key` as process `p`; `None` when absent. Wait-free: it
    /// enters no wrapper, so no holder, live or crashed, can delay it.
    fn get(&self, p: usize, key: u64) -> Option<u64>;

    /// The admission-controlled read, for a caller that wants a shard
    /// that cannot take a write to refuse its reads too: `None` means
    /// *shed* (no free slot), `Some(inner)` is the read's answer.
    fn try_get(&self, p: usize, key: u64) -> Option<Option<u64>>;
}

/// Write capability.
pub trait StoreWrite {
    /// Insert or overwrite `key` as process `p`. Blocks while the
    /// owning shard's slots are all held.
    fn put(&self, p: usize, key: u64, value: u64) -> Result<(), PutError>;

    /// Non-blocking [`StoreWrite::put`]: `None` means *shed*,
    /// `Some(result)` is the write's outcome.
    fn try_put(&self, p: usize, key: u64, value: u64) -> Option<Result<(), PutError>>;
}

/// Whole-store iteration capability (monitoring, recovery, analytics).
pub trait StoreScan {
    /// Visit every present pair, shard by shard, as process `p`,
    /// entering no wrapper (recovery reads shards whose holders all
    /// crashed). Per-entry atomic; not a consistent cut across shards.
    fn for_each(&self, p: usize, f: &mut dyn FnMut(u64, u64));

    /// Approximate number of distinct keys across all shards, without
    /// entering any wrapper (see
    /// [`Resilient::object_unguarded`](kex_core::native::Resilient::object_unguarded)'s
    /// caveat — sound here because it only touches always-safe reads).
    fn len(&self) -> usize;

    /// `len() == 0`, with the same approximation caveat.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
