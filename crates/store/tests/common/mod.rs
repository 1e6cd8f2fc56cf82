//! Recording glue shared by `linearizable.rs` and `loom_store.rs`: a
//! store operation run under a `kex_util::lincheck::Clock`, filed as a
//! call on its key's register.

use kex_store::{ShardObject, Store, StoreRead, StoreWrite};
use kex_util::lincheck::{linearizable_per_key, Call, Clock, Register, RegisterOp};

/// A key and the recorded call on it.
pub type KvCall = (u64, Call<RegisterOp, Option<u64>>);

pub fn get(clock: &Clock, store: &impl StoreRead, p: usize, key: u64) -> KvCall {
    (key, clock.call(RegisterOp::Read, || store.get(p, key)))
}

pub fn put(clock: &Clock, store: &impl StoreWrite, p: usize, key: u64, value: u64) -> KvCall {
    let run = || {
        store.put(p, key, value).expect("the table has room");
        None
    };
    (key, clock.call(RegisterOp::Write(value), run))
}

/// `p` dies inside its critical section mid-put: an invocation that
/// never responds and may or may not have taken effect.
pub fn crash<O: ShardObject>(
    clock: &Clock,
    store: &Store<O>,
    p: usize,
    key: u64,
    value: u64,
) -> KvCall {
    let run = || store.crash_in_cs(p, key, value);
    (key, clock.crashed(RegisterOp::Write(value), run))
}

/// Every key starts absent; `Err` names a key whose history no order of
/// its calls explains.
pub fn check(history: &[KvCall]) -> Result<(), u64> {
    linearizable_per_key(&Register(None), history.iter().cloned())
}
