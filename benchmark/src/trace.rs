//! Spans recorded by the benchmark's own code around its calls into the
//! library (no library crate carries a span for this). They stay in
//! memory while anything is being timed and are written out once, when
//! the run ends.

use std::path::Path;
use std::time::Instant;

use kex_obs::json::{write_pretty, Json};

use crate::hist::Hist;

pub struct Span {
    pub id: u32,
    /// 0 = a root.
    pub parent: u32,
    pub name: &'static str,
    pub thread: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
}

pub struct Trace {
    pub epoch: Instant,
    workload: &'static str,
    spans: Vec<Span>,
}

/// The layer a span or metric belongs to is the part of its name before
/// the first dot (`kex.pair_ns` → `kex`).
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

impl Trace {
    pub fn new(workload: &'static str) -> Self {
        Trace {
            epoch: Instant::now(),
            workload,
            spans: Vec::with_capacity(1 << 15),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that other spans will name as their parent; its end
    /// and call count are filled in by [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<&str>) -> u32 {
        let parent = parent.map_or(0, |p| {
            let found = self.spans.iter().find(|s| s.name == p);
            found
                .unwrap_or_else(|| panic!("{name}: parent {p} not run yet"))
                .id
        });
        let start_ns = self.now_ns();
        self.push(parent, name, 0, start_ns, start_ns, 0)
    }

    pub fn close(&mut self, id: u32, calls: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.calls = calls;
    }

    pub fn push(
        &mut self,
        parent: u32,
        name: &'static str,
        thread: usize,
        start_ns: u64,
        end_ns: u64,
        calls: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            thread,
            start_ns,
            end_ns,
            calls,
        });
        id
    }

    pub fn write(&self, path: &Path, seed: u64) -> std::io::Result<()> {
        let spans = self.spans.iter().map(|s| {
            Json::obj(vec![
                ("id", Json::U64(u64::from(s.id))),
                (
                    "parent",
                    if s.parent == 0 {
                        Json::Null
                    } else {
                        Json::U64(u64::from(s.parent))
                    },
                ),
                ("name", s.name.into()),
                ("layer", layer_of(s.name).into()),
                ("workload", self.workload.into()),
                ("thread", s.thread.into()),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
                ("calls", s.calls.into()),
            ])
        });
        let doc = Json::obj(vec![
            ("schema", "kex-benchmark/trace/v1".into()),
            ("workload", self.workload.into()),
            ("seed", seed.into()),
            ("spans", Json::arr(spans.collect())),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        write_pretty(path, &doc)
    }
}

/// Checks a written trace: it parses, ids are unique, and every span's
/// parent is a span of the same file. Returns the span count.
pub fn validate(path: &Path) -> Result<usize, String> {
    let doc = kex_obs::json::read_file(path)?;
    let spans = doc
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or("no spans array")?;
    let id_of = |s: &Json, key: &str| s.get(key).and_then(Json::as_u64);
    let mut ids = std::collections::BTreeSet::new();
    for s in spans {
        let id = id_of(s, "id").ok_or("span without id")?;
        if !ids.insert(id) {
            return Err(format!("span id {id} used twice"));
        }
        if id_of(s, "end_ns") < id_of(s, "start_ns") {
            return Err(format!("span {id} ends before it starts"));
        }
    }
    for s in spans {
        if let Some(parent) = id_of(s, "parent") {
            if !ids.contains(&parent) {
                return Err(format!("span parent {parent} does not exist"));
            }
        }
    }
    Ok(spans.len())
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `get`; on `resilient_queue` the `dequeue` half of a pair.
    Read = 0,
    /// `put`; on `resilient_queue` the `enqueue` half of a pair.
    Write = 1,
    /// The whole client operation.
    Whole = 2,
}

/// One client thread's span buffer for the traced window: allocated
/// before the window starts, capped, never grown while timing. The
/// histograms see every span, the buffer keeps the first `cap`.
pub struct SpanSink {
    epoch: Instant,
    pub spans: Vec<(OpKind, u64, u64)>,
    pub hists: [Hist; 3],
}

impl SpanSink {
    pub fn new(epoch: Instant, cap: usize) -> Self {
        SpanSink {
            epoch,
            spans: Vec::with_capacity(cap),
            hists: [Hist::new(), Hist::new(), Hist::new()],
        }
    }

    #[inline]
    pub fn record(&mut self, kind: OpKind, start: Instant, end: Instant) {
        self.hists[kind as usize].record((end - start).as_nanos() as u64);
        if self.spans.len() < self.spans.capacity() {
            let start_ns = (start - self.epoch).as_nanos() as u64;
            let end_ns = (end - self.epoch).as_nanos() as u64;
            self.spans.push((kind, start_ns, end_ns));
        }
    }
}
