//! Lock-free per-call-site counters.
//!
//! Every instrumented atomic operation carries its `#[track_caller]`
//! `&'static Location`, interned here into a fixed-capacity,
//! linear-probing hash table keyed by the location's address (CAS
//! claims an empty slot; addresses of `'static` locations never move).
//! Codegen may duplicate a `Location` across codegen units, so the
//! snapshot layer merges slots by rendered `file:line` — the table only
//! needs pointer identity to stay lock-free.
//!
//! Capacity is fixed ([`SITE_CAP`]); if the table fills, further sites
//! fold into a shared overflow bucket rather than failing or allocating.

use std::panic::Location;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

use crate::counters::OpKind;

/// Maximum number of distinct interned call sites.
pub(crate) const SITE_CAP: usize = 512;

/// Site id of the shared overflow bucket.
pub(crate) const SITE_OVERFLOW: u16 = SITE_CAP as u16;

struct SiteSlot {
    /// `&'static Location` address, or 0 when empty.
    key: AtomicUsize,
    ops: [AtomicU64; 3],
    cc_remote: AtomicU64,
    dsm_remote: AtomicU64,
}

impl SiteSlot {
    const fn new() -> Self {
        SiteSlot {
            key: AtomicUsize::new(0),
            ops: [const { AtomicU64::new(0) }; 3],
            cc_remote: AtomicU64::new(0),
            dsm_remote: AtomicU64::new(0),
        }
    }
}

/// `SITE_CAP` probeable slots plus the overflow bucket at index `SITE_CAP`.
static TABLE: [SiteSlot; SITE_CAP + 1] = [const { SiteSlot::new() }; SITE_CAP + 1];

#[inline]
fn hash(key: usize) -> usize {
    // Fibonacci hashing; locations are 8-aligned so multiply first.
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> (usize::BITS - 16)
}

/// Interns `loc`, returning its site id (or the overflow bucket).
#[inline]
pub(crate) fn site_id(loc: &'static Location<'static>) -> u16 {
    let key = loc as *const Location<'static> as usize;
    let mut idx = hash(key) % SITE_CAP;
    let mut probes = 0;
    while probes < SITE_CAP {
        let cur = TABLE[idx].key.load(Relaxed);
        if cur == key {
            return idx as u16;
        }
        if cur == 0 {
            match TABLE[idx].key.compare_exchange(0, key, Relaxed, Relaxed) {
                Ok(_) => return idx as u16,
                Err(actual) if actual == key => return idx as u16,
                // Another site claimed the slot first; re-examine it.
                Err(_) => continue,
            }
        }
        idx = (idx + 1) % SITE_CAP;
        probes += 1;
    }
    SITE_OVERFLOW
}

/// Tallies one operation against `site`.
#[inline]
pub(crate) fn record(site: u16, kind: OpKind, cc_remote: bool, dsm_remote: bool) {
    let slot = &TABLE[(site as usize).min(SITE_CAP)];
    slot.ops[kind as usize].fetch_add(1, Relaxed);
    if cc_remote {
        slot.cc_remote.fetch_add(1, Relaxed);
    }
    if dsm_remote {
        slot.dsm_remote.fetch_add(1, Relaxed);
    }
}

/// Renders the site id for ring events: `Some(file:line)` or `None` for
/// the overflow bucket / empty slots.
pub(crate) fn site_name(site: u16) -> Option<String> {
    if site as usize >= SITE_CAP {
        return None;
    }
    let key = TABLE[site as usize].key.load(Relaxed);
    if key == 0 {
        return None;
    }
    // SAFETY: only addresses of `&'static Location` are ever stored.
    let loc = unsafe { &*(key as *const Location<'static>) };
    Some(format!("{}:{}", loc.file(), loc.line()))
}

/// One merged per-location tally.
#[derive(Debug, Clone)]
pub(crate) struct SiteCounts {
    pub location: String,
    pub loads: u64,
    pub stores: u64,
    pub rmws: u64,
    pub cc_remote: u64,
    pub dsm_remote: u64,
}

/// Snapshots the table, merging duplicate locations and dropping
/// all-zero slots. The overflow bucket (if hit) appears with the
/// location `"<overflow>"`.
pub(crate) fn load() -> Vec<SiteCounts> {
    let mut merged: Vec<SiteCounts> = Vec::new();
    for (idx, slot) in TABLE.iter().enumerate() {
        let location = if idx == SITE_CAP {
            "<overflow>".to_string()
        } else {
            match site_name(idx as u16) {
                Some(name) => name,
                None => continue,
            }
        };
        let counts = SiteCounts {
            location,
            loads: slot.ops[0].load(Relaxed),
            stores: slot.ops[1].load(Relaxed),
            rmws: slot.ops[2].load(Relaxed),
            cc_remote: slot.cc_remote.load(Relaxed),
            dsm_remote: slot.dsm_remote.load(Relaxed),
        };
        if counts.loads + counts.stores + counts.rmws == 0 {
            continue;
        }
        match merged.iter_mut().find(|s| s.location == counts.location) {
            Some(existing) => {
                existing.loads += counts.loads;
                existing.stores += counts.stores;
                existing.rmws += counts.rmws;
                existing.cc_remote += counts.cc_remote;
                existing.dsm_remote += counts.dsm_remote;
            }
            None => merged.push(counts),
        }
    }
    merged.sort_by(|a, b| {
        let (ta, tb) = (a.loads + a.stores + a.rmws, b.loads + b.stores + b.rmws);
        tb.cmp(&ta).then_with(|| a.location.cmp(&b.location))
    });
    merged
}

/// Zeroes every tally; interned locations stay registered.
pub(crate) fn reset() {
    for slot in &TABLE {
        for op in &slot.ops {
            op.store(0, Relaxed);
        }
        slot.cc_remote.store(0, Relaxed);
        slot.dsm_remote.store(0, Relaxed);
    }
}

/// Test support: forget every interned location *and* every tally.
///
/// Interning is deliberately permanent in production (keys are
/// `&'static Location` addresses), but the capacity-overflow test must
/// be able to fill the table from a known-empty state without being
/// poisoned by sites other tests interned first. Callers must hold the
/// `testlock`.
#[cfg(test)]
pub(crate) fn clear_for_tests() {
    for slot in &TABLE {
        slot.key.store(0, Relaxed);
        for op in &slot.ops {
            op.store(0, Relaxed);
        }
        slot.cc_remote.store(0, Relaxed);
        slot.dsm_remote.store(0, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_counts_merge() {
        let _g = crate::testlock::hold();
        reset();
        let loc = Location::caller();
        let id1 = site_id(loc);
        let id2 = site_id(loc);
        assert_eq!(id1, id2);
        record(id1, OpKind::Rmw, true, false);
        record(id1, OpKind::Load, false, true);
        let sites = load();
        let mine = sites
            .iter()
            .find(|s| s.location.contains("sites.rs"))
            .expect("interned site visible in snapshot");
        assert_eq!(mine.rmws, 1);
        assert_eq!(mine.loads, 1);
        assert_eq!(mine.cc_remote, 1);
        assert_eq!(mine.dsm_remote, 1);
        reset();
        assert!(load().iter().all(|s| !s.location.contains("sites.rs")));
    }

    #[test]
    fn capacity_overflow_degrades_to_shared_bucket() {
        let _g = crate::testlock::hold();
        clear_for_tests();
        // `Location` is `Copy`: each leak materializes a distinct
        // `&'static Location` address, so 2×SITE_CAP of them must
        // exhaust the table no matter how the probe sequence lands.
        let mut ids = Vec::new();
        for _ in 0..SITE_CAP * 2 {
            let loc: &'static Location<'static> = Box::leak(Box::new(*Location::caller()));
            ids.push(site_id(loc));
        }
        assert!(
            ids.contains(&SITE_OVERFLOW),
            "2x capacity distinct locations never overflowed"
        );
        assert!(
            ids.iter().all(|&id| id as usize <= SITE_CAP),
            "site ids must stay within the table plus the overflow bucket"
        );
        // Recording through the overflow id must not panic, and the
        // snapshot must surface it as `<overflow>` so exporters (and
        // `native_obs`'s site check) can report truncation instead of a
        // silently clean inventory.
        record(SITE_OVERFLOW, OpKind::Load, true, false);
        record(SITE_OVERFLOW, OpKind::Rmw, false, true);
        let snap = load();
        let overflow = snap
            .iter()
            .find(|s| s.location == "<overflow>")
            .expect("overflow bucket visible in snapshot");
        assert!(overflow.loads >= 1 && overflow.rmws >= 1);
        assert_eq!(site_name(SITE_OVERFLOW), None);
        // Leave the table empty for whoever runs next under the lock.
        clear_for_tests();
        assert!(load().is_empty());
    }
}
