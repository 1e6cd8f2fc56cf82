//! The names the benchmark prints: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` lists the same
//! names; a unit test holds the two together.

use kex_obs::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// What a store workload varies; everything else (n = 16 per shard,
/// journal depth 8, two clients, 2 s windows) is common.
pub struct StoreSpec {
    pub shards: usize,
    pub k: usize,
    pub keys: u32,
    /// Zipf exponent of the key popularity; `None` = uniform.
    pub zipf: Option<f64>,
    pub get_pct: u32,
    /// Holders crashed inside each shard's critical section at set-up.
    pub crashed_per_shard: usize,
}

pub enum Kind {
    Store(StoreSpec),
    Queue,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

const fn store(shards: usize, k: usize, keys: u32, zipf: Option<f64>, get_pct: u32) -> StoreSpec {
    StoreSpec {
        shards,
        k,
        keys,
        zipf,
        get_pct,
        crashed_per_shard: 0,
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "zipf_read_heavy",
        why: "S=16 k=4, 4096 keys Zipf(0.99), 90% get: contention <= k and a cache-resident table, so admission is most of every op",
        kind: Kind::Store(store(16, 4, 4096, Some(0.99), 90)),
    },
    Workload {
        name: "uniform_write_heavy",
        why: "S=16 k=4, 2^20 keys uniform, 90% put: journal begin/commit and cache-missing table probes do the work, admission is the small part",
        kind: Kind::Store(store(16, 4, 1 << 20, None, 10)),
    },
    Workload {
        name: "hot_shard_handoff",
        why: "S=1 k=1, 4096 keys Zipf(0.99), 90% get: two clients on one slot, so the slow path, the spin word and the hand-off dominate",
        kind: Kind::Store(store(1, 1, 4096, Some(0.99), 90)),
    },
    Workload {
        name: "crash_degraded",
        why: "S=4 k=4 with k-1 holders crashed in every shard: the paper's resilience regime, one live slot per shard on the blocking surface",
        kind: Kind::Store(StoreSpec {
            crashed_per_shard: 3,
            ..store(4, 4, 4096, Some(0.99), 90)
        }),
    },
    Workload {
        name: "resilient_queue",
        why: "Resilient(16,2) over WfQueue, enqueue+dequeue per op from an empty log: admission is negligible, the wait-free object is everything",
        kind: Kind::Queue,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

const fn metric(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// Each with the share of the parent's median by which it may worsen
/// before a change counts as a regression: three times the widest
/// run-to-run spread seen on any workload when the benchmark was
/// calibrated (README, "Calibration"), capped at the contract's 0.25.
pub const END_TO_END: [(Metric, f64); 5] = [
    (metric("throughput_ops_s", "1/s", Higher), 0.25),
    (metric("op_p50_ns", "ns", Lower), 0.25),
    (metric("op_p99_ns", "ns", Lower), 0.25),
    (metric("peak_rss_mb", "MiB", Lower), 0.15),
    (metric("setup_s", "s", Lower), 0.25),
];

pub const PER_LAYER: [Metric; 53] = [
    metric("loadgen.draw_ns", "ns", Lower),
    metric("loadgen.trace_overhead_pct", "%", Lower),
    metric("hash.shard_of_ns", "ns", Lower),
    metric("kex.pair_ns", "ns", Lower),
    metric("kex.pair_t2_ns", "ns", Lower),
    metric("kex.handoff_t2_ns", "ns", Lower),
    metric("kex.atomics_per_op", "count", Lower),
    metric("kex.rmws_per_op", "count", Lower),
    metric("renaming.pair_ns", "ns", Lower),
    metric("renaming.pair_dead3_ns", "ns", Lower),
    metric("renaming.atomics_per_op", "count", Lower),
    metric("assignment.pair_ns", "ns", Lower),
    metric("assignment.pair_t2_ns", "ns", Lower),
    metric("assignment.self_ns", "ns", Lower),
    metric("assignment.atomics_per_op", "count", Lower),
    metric("assignment.rmws_per_op", "count", Lower),
    metric("resilient.with_ns", "ns", Lower),
    metric("resilient.with_t2_ns", "ns", Lower),
    metric("resilient.try_with_ns", "ns", Lower),
    metric("resilient.self_ns", "ns", Lower),
    metric("resilient.atomics_per_op", "count", Lower),
    metric("resilient.rmws_per_op", "count", Lower),
    metric("object.get_ns", "ns", Lower),
    metric("object.put_ns", "ns", Lower),
    metric("object.get_big_ns", "ns", Lower),
    metric("object.put_big_ns", "ns", Lower),
    metric("object.get_atomics_per_op", "count", Lower),
    metric("object.put_atomics_per_op", "count", Lower),
    metric("journal.begin_commit_ns", "ns", Lower),
    metric("journal.atomics_per_op", "count", Lower),
    metric("shard.get_ns", "ns", Lower),
    metric("shard.put_ns", "ns", Lower),
    metric("shard.get_t2_ns", "ns", Lower),
    metric("shard.put_t2_ns", "ns", Lower),
    metric("shard.get_self_ns", "ns", Lower),
    metric("shard.put_self_ns", "ns", Lower),
    metric("shard.get_rmws_per_op", "count", Lower),
    metric("shard.put_rmws_per_op", "count", Lower),
    metric("shard.ops_max_over_mean", "ratio", Lower),
    metric("shard.sheds", "count", Lower),
    metric("store.get_ns", "ns", Lower),
    metric("store.put_ns", "ns", Lower),
    metric("store.get_self_ns", "ns", Lower),
    metric("store.put_self_ns", "ns", Lower),
    metric("store.get_p50_ns", "ns", Lower),
    metric("store.get_p99_ns", "ns", Lower),
    metric("store.put_p50_ns", "ns", Lower),
    metric("store.put_p99_ns", "ns", Lower),
    metric("store.op_tail_ns", "ns", Lower),
    metric("store.fairness_min_over_max", "ratio", Higher),
    metric("waitfree.queue_pair_ns_at_1k", "ns", Lower),
    metric("waitfree.queue_pair_ns_at_8k", "ns", Lower),
    metric("waitfree.queue_slowdown_8k_over_1k", "ratio", Lower),
];

/// How long one run measures unless `--seconds` says otherwise; the
/// PR driver passes the same number.
pub const RUN_SECONDS: u64 = 20;

/// The contents of the repo's `BENCHMARK.json`, from the tables above.
pub fn manifest() -> Json {
    let listed = |m: &Metric| {
        vec![
            ("name", m.name.into()),
            ("unit", m.unit.into()),
            ("better", m.better.label().into()),
        ]
    };
    let strings = |items: &[&str]| Json::arr(items.iter().map(|&s| s.into()).collect());
    Json::obj(vec![
        ("command", strings(&["bash", "benchmark/run.sh"])),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Json::arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj(vec![("name", w.name.into()), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::arr(
                END_TO_END
                    .iter()
                    .map(|(m, bound)| {
                        let mut fields = listed(m);
                        fields.push(("bound", (*bound).into()));
                        Json::obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::arr(PER_LAYER.iter().map(|m| Json::obj(listed(m))).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workloads, metrics, units, directions and bounds this binary
    /// prints are exactly the ones `BENCHMARK.json` lists.
    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_prints() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed = kex_obs::json::read_file(&path).unwrap();
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `kexbench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|(m, _)| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(names.iter().all(|n| n.len() <= 64 && n.chars().all(ok)));
        let distinct: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(distinct.len(), names.len());
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .all(|(_, bound)| *bound > 0.0 && *bound <= 0.25));
    }

    #[test]
    fn every_store_workload_takes_the_split_fast_path() {
        for w in &WORKLOADS {
            if let Kind::Store(spec) = &w.kind {
                assert!(crate::workload::N > 2 * spec.k, "{}", w.name);
            }
        }
    }
}
