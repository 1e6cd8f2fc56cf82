//! Point-in-time copies of every counter, and their JSON rendering.
//!
//! [`snapshot`] walks the registry with `Relaxed` loads. It is exact
//! when taken at a quiescent point (after joining worker threads, the
//! only way the exporters use it) and merely approximate when taken
//! concurrently — each individual counter is still a real value that
//! was current at some moment, but cross-counter sums may be torn.

use crate::counters::{self, Section, SectionView, N_SECTIONS};
use crate::hist::{Hist, BUCKETS};
use crate::json::Json;
use crate::MAX_PIDS;

/// A point-in-time copy of all observability state.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Per-process data, for every pid slot with any activity. The
    /// untracked bucket, if active, appears with `pid == None`.
    pub per_pid: Vec<PidSnapshot>,
    /// Critical-section occupancy gauge.
    pub occupancy: OccupancySnapshot,
}

/// One process's counters (or the untracked bucket when `pid` is `None`).
#[derive(Debug, Clone)]
pub struct PidSnapshot {
    /// Process id, or `None` for the untracked bucket.
    pub pid: Option<usize>,
    /// Per-section counters, indexed by `Section as usize`.
    pub sections: [SectionTotals; N_SECTIONS],
    /// Per-section latency histograms, indexed by `Section as usize`.
    pub hists: [HistSnapshot; N_SECTIONS],
}

/// Counter totals for one `(process, section)` pair — or a sum of such
/// pairs (see [`Snapshot::section_totals`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SectionTotals {
    /// Atomic loads.
    pub loads: u64,
    /// Atomic stores.
    pub stores: u64,
    /// Atomic read-modify-writes (swap/CAS/fetch-ops).
    pub rmws: u64,
    /// Estimated remote references under the CC model.
    pub cc_remote: u64,
    /// Spin-loop hint iterations.
    pub spins: u64,
    /// Completed top-level spans.
    pub spans: u64,
    /// Total nanoseconds across completed top-level spans.
    pub span_ns: u64,
}

impl SectionTotals {
    /// All atomic operations (loads + stores + RMWs).
    pub fn ops(&self) -> u64 {
        self.loads + self.stores + self.rmws
    }

    fn add(&mut self, other: &SectionTotals) {
        self.loads += other.loads;
        self.stores += other.stores;
        self.rmws += other.rmws;
        self.cc_remote += other.cc_remote;
        self.spins += other.spins;
        self.spans += other.spans;
        self.span_ns += other.span_ns;
    }

    fn from_view(view: &SectionView) -> SectionTotals {
        SectionTotals {
            loads: view.ops[0],
            stores: view.ops[1],
            rmws: view.ops[2],
            cc_remote: view.cc_remote,
            spins: view.spins,
            spans: view.spans,
            span_ns: view.span_ns,
        }
    }

    fn is_zero(&self) -> bool {
        self.ops() + self.spins + self.spans == 0
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("loads", Json::U64(self.loads)),
            ("stores", Json::U64(self.stores)),
            ("rmws", Json::U64(self.rmws)),
            ("cc_remote", Json::U64(self.cc_remote)),
            ("spins", Json::U64(self.spins)),
            ("spans", Json::U64(self.spans)),
            ("span_ns", Json::U64(self.span_ns)),
        ])
    }
}

/// A latency histogram copy with percentile estimation.
#[derive(Debug, Clone, Default)]
pub struct HistSnapshot {
    /// `(bucket_floor_ns, count)` for every non-empty bucket.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSnapshot {
    fn from_counts(counts: &[u64; BUCKETS]) -> HistSnapshot {
        HistSnapshot {
            buckets: counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (Hist::bucket_floor(i), c))
                .collect(),
        }
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|&(_, c)| c).sum()
    }

    /// Lower bound of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`), or `None` when empty.
    pub fn quantile_floor(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for &(floor, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return Some(floor);
            }
        }
        self.buckets.last().map(|&(floor, _)| floor)
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::U64(self.count())),
            (
                "p50_ns_floor",
                self.quantile_floor(0.50).map_or(Json::Null, Json::U64),
            ),
            (
                "p99_ns_floor",
                self.quantile_floor(0.99).map_or(Json::Null, Json::U64),
            ),
            (
                "buckets",
                Json::arr(
                    self.buckets
                        .iter()
                        .map(|&(floor, c)| Json::arr(vec![Json::U64(floor), Json::U64(c)]))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Occupancy gauge values.
#[derive(Debug, Clone, Copy)]
pub struct OccupancySnapshot {
    /// Live top-level critical-section spans right now.
    pub current: i64,
    /// High-water mark since the last [`crate::reset`].
    pub max: i64,
}

impl Snapshot {
    /// The snapshot for a tracked `pid`, if it had any activity.
    pub fn pid(&self, pid: usize) -> Option<&PidSnapshot> {
        self.per_pid.iter().find(|p| p.pid == Some(pid))
    }

    /// The untracked bucket, if it had any activity.
    pub fn untracked(&self) -> Option<&PidSnapshot> {
        self.per_pid.iter().find(|p| p.pid.is_none())
    }

    /// Sums `section`'s counters across all *tracked* pids (the
    /// untracked bucket is excluded — per-acquisition estimates should
    /// not be polluted by harness threads outside any span).
    pub fn section_totals(&self, section: Section) -> SectionTotals {
        let mut out = SectionTotals::default();
        for p in &self.per_pid {
            if p.pid.is_some() {
                out.add(&p.sections[section as usize]);
            }
        }
        out
    }

    /// Renders the snapshot as a JSON object.
    pub fn to_json(&self) -> Json {
        let per_pid = self
            .per_pid
            .iter()
            .map(|p| {
                let sections = Section::ALL
                    .iter()
                    .filter(|&&s| {
                        !p.sections[s as usize].is_zero() || p.hists[s as usize].count() > 0
                    })
                    .map(|&s| {
                        (
                            s.label().to_string(),
                            Json::Obj(vec![
                                ("counters".to_string(), p.sections[s as usize].to_json()),
                                ("latency".to_string(), p.hists[s as usize].to_json()),
                            ]),
                        )
                    })
                    .collect();
                Json::obj(vec![
                    (
                        "pid",
                        p.pid
                            .map_or(Json::Str("untracked".into()), |v| Json::U64(v as u64)),
                    ),
                    ("sections", Json::Obj(sections)),
                ])
            })
            .collect();
        Json::obj(vec![
            (
                "occupancy",
                Json::obj(vec![
                    ("current", Json::I64(self.occupancy.current)),
                    ("max", Json::I64(self.occupancy.max)),
                ]),
            ),
            ("per_pid", Json::arr(per_pid)),
        ])
    }
}

/// Takes a snapshot of every counter; see the module docs for the
/// consistency caveat.
pub fn snapshot() -> Snapshot {
    let mut per_pid = Vec::new();
    for slot in 0..=MAX_PIDS {
        let view = counters::load_pid(slot);
        let active = view
            .sec
            .iter()
            .any(|s| s.total_ops() + s.spins + s.spans > 0);
        if !active {
            continue;
        }
        let mut sections = [SectionTotals::default(); N_SECTIONS];
        let mut hists: [HistSnapshot; N_SECTIONS] = Default::default();
        for i in 0..N_SECTIONS {
            sections[i] = SectionTotals::from_view(&view.sec[i]);
            hists[i] = HistSnapshot::from_counts(&view.hist[i]);
        }
        per_pid.push(PidSnapshot {
            pid: (slot < MAX_PIDS).then_some(slot),
            sections,
            hists,
        });
    }
    let (current, max) = counters::load_occupancy();
    Snapshot {
        per_pid,
        occupancy: OccupancySnapshot { current, max },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{span, Section};

    #[test]
    fn snapshot_round_trips_to_json() {
        let _g = crate::testlock::hold();
        crate::reset();
        let x = crate::atomic::AtomicUsize::new(0);
        {
            let _s = span(Section::Entry, 0);
            x.fetch_add(1, crate::atomic::Ordering::SeqCst);
        }
        let snap = snapshot();
        assert_eq!(snap.section_totals(Section::Entry).rmws, 1);
        assert_eq!(snap.section_totals(Section::Entry).spans, 1);
        let json = snap.to_json().to_string();
        assert!(json.contains("\"rmws\":1"));
        assert!(json.contains("\"occupancy\""));
    }

    #[test]
    fn quantiles_on_synthetic_hist() {
        let h = HistSnapshot {
            buckets: vec![(0, 50), (1024, 49), (4096, 1)],
        };
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_floor(0.0), Some(0));
        assert_eq!(h.quantile_floor(0.5), Some(0));
        assert_eq!(h.quantile_floor(0.51), Some(1024));
        assert_eq!(h.quantile_floor(0.99), Some(1024));
        assert_eq!(h.quantile_floor(1.0), Some(4096));
        assert_eq!(HistSnapshot::default().quantile_floor(0.5), None);
    }
}
