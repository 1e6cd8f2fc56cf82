//! # kex-analyze — static analyses over the protocol IR
//!
//! Every claim Table 1 of the paper makes about its algorithms is
//! *structural*: local-spin means no statement busy-waits on a variable
//! another process's cache/partition owns; constant atomic sections
//! means no single numbered statement touches `O(N)` variables; bounded
//! space means each process spins on finitely many locations; and the
//! RMR bounds (`7(N-k)`, `14(N-k)`, ...) are worst-case path sums over
//! the numbered statements. None of this depends on a schedule — so
//! none of it should require *running* anything.
//!
//! This crate audits those claims directly from the access-summary IR
//! that every [`Node`](kex_sim::node::Node) exports via
//! [`describe`](kex_sim::node::Node::describe), without executing a
//! single step:
//!
//! 1. **Local-spin audit** — classify each spin statement's targets as
//!    local or remote under both the CC and DSM cost models, and flag
//!    unbounded retry loops whose bodies cross the interconnect (the
//!    global-spin baseline's failure shape).
//! 2. **Atomic-section lint** — flag statements whose declared access
//!    multiplicity exceeds [`ATOMIC_BOUND`] (the Figure-1 queue's
//!    `O(N)` scans).
//! 3. **Bounded-space check** — count distinct spin locations per
//!    process per node against the Figure-6 bound (`exclusion + 2`),
//!    and verify the k-assignment name space is exactly `0..k`.
//! 4. **RMR bound** — worst-case remote references along any
//!    entry+exit path, cross-checked against the Table-1 formulas.
//!
//! Entry points: [`analyze_protocol`] for a single built protocol,
//! [`analyze_algorithm`] / [`analyze_all`] for the
//! [`Algorithm`] catalog, [`render_text`] / [`render_json`] for
//! reports, and [`expected_matrix_failures`] for the pinned verdict
//! matrix the test suite (and CI's `--assert` mode) enforces.

pub mod obligations;

use std::collections::HashMap;
use std::sync::Arc;

use kex_core::sim::build::Algorithm;
use kex_obs::json::Json;
use kex_sim::memmodel::MemoryModel;
use kex_sim::protocol::Protocol;
use kex_sim::summary::{
    AccessDesc, AccessKind, BackKind, NodeDesc, SpaceClass, StmtDesc, SuccDesc,
};
use kex_sim::types::{NodeId, Pid, Section, VarId};
use kex_sim::vars::VarTable;

/// Maximum shared accesses one atomic statement may declare before the
/// atomic-section lint flags it. The paper's own statements perform at
/// most a handful of accesses (a read-modify-write plus a write or
/// two); the Figure-1 queue's `Enqueue`/`Dequeue`/`Element` scans are
/// `O(N)` and must trip this.
pub const ATOMIC_BOUND: usize = 4;

/// Sizing parameters for the analyzed instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Process count `N`.
    pub n: usize,
    /// Exclusion bound `k`.
    pub k: usize,
    /// Figure-5 simulated spin-location supply.
    pub max_locs: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 8,
            k: 2,
            max_locs: 64,
        }
    }
}

/// A statically derived cost: a finite worst case, or provably
/// unbounded (some schedule makes it grow without limit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cost {
    /// At most this many remote references.
    Finite(u64),
    /// No finite bound holds over all schedules.
    Unbounded,
}

impl Cost {
    fn plus(self, other: Cost) -> Cost {
        match (self, other) {
            (Cost::Finite(a), Cost::Finite(b)) => Cost::Finite(a.saturating_add(b)),
            _ => Cost::Unbounded,
        }
    }

    fn times(self, m: u64) -> Cost {
        match self {
            Cost::Finite(a) => Cost::Finite(a.saturating_mul(m)),
            Cost::Unbounded => Cost::Unbounded,
        }
    }

    /// `true` iff a finite bound was derived.
    pub fn is_finite(self) -> bool {
        matches!(self, Cost::Finite(_))
    }
}

impl std::fmt::Display for Cost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cost::Finite(v) => write!(f, "{v}"),
            Cost::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// A structural defect in a node's self-description (IR contract
/// violation) — or a node that refuses to describe itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrError {
    /// The offending node's diagnostic name.
    pub node: String,
    /// What was wrong.
    pub detail: String,
}

impl std::fmt::Display for IrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ir error in node `{}`: {}", self.node, self.detail)
    }
}

impl std::error::Error for IrError {}

/// One analysis finding, anchored to a statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flag {
    /// Node the statement belongs to.
    pub node: String,
    /// Which section.
    pub section: Section,
    /// Statement number.
    pub pc: u32,
    /// The statement's own label.
    pub label: String,
    /// Why it was flagged.
    pub detail: String,
}

/// Per-node spin-space accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpace {
    /// Node name.
    pub node: String,
    /// The node's declared exclusion parameter, if any.
    pub exclusion: Option<usize>,
    /// Worst-case distinct spin locations for any one process.
    pub spin_locations: usize,
    /// The Figure-6 bound this is held to (`exclusion + 2`), when the
    /// node declares an exclusion parameter.
    pub bound: Option<usize>,
    /// Declared space class.
    pub declared: SpaceClass,
}

impl NodeSpace {
    /// Does the counted spin-location set respect the bound?
    pub fn within_bound(&self) -> bool {
        match self.bound {
            Some(b) => self.spin_locations <= b,
            None => true,
        }
    }
}

/// The complete static verdict for one built protocol.
#[derive(Debug, Clone)]
pub struct ProtocolReport {
    /// Process count analyzed.
    pub n: usize,
    /// Exclusion bound analyzed.
    pub k: usize,
    /// Local-spin violations under the CC cost model.
    pub spin_cc: Vec<Flag>,
    /// Local-spin violations under the DSM cost model.
    pub spin_dsm: Vec<Flag>,
    /// Oversized atomic sections (more than [`ATOMIC_BOUND`] accesses).
    pub atomic: Vec<Flag>,
    /// Per-node spin-space accounting.
    pub space: Vec<NodeSpace>,
    /// Worst declared space class over all nodes.
    pub space_class: SpaceClass,
    /// Does the root statically assign names?
    pub assigns_names: bool,
    /// The root's name-space size for this `k`.
    pub name_space: usize,
    /// Worst-case remote references per acquisition, CC model.
    pub rmr_cc: Cost,
    /// Worst-case remote references per acquisition, DSM model.
    pub rmr_dsm: Cost,
}

impl ProtocolReport {
    /// No local-spin violations under `model`?
    pub fn local_spin_clean(&self, model: MemoryModel) -> bool {
        match model {
            MemoryModel::CacheCoherent => self.spin_cc.is_empty(),
            MemoryModel::Dsm => self.spin_dsm.is_empty(),
        }
    }

    /// No oversized atomic statements?
    pub fn atomic_clean(&self) -> bool {
        self.atomic.is_empty()
    }

    /// Every node's spin-location count respects its bound?
    pub fn space_ok(&self) -> bool {
        self.space.iter().all(NodeSpace::within_bound)
    }

    /// Root assigns names from exactly `0..k`?
    pub fn names_exact(&self) -> bool {
        self.assigns_names && self.name_space == self.k
    }

    /// The RMR cost under `model`.
    pub fn rmr(&self, model: MemoryModel) -> Cost {
        match model {
            MemoryModel::CacheCoherent => self.rmr_cc,
            MemoryModel::Dsm => self.rmr_dsm,
        }
    }
}

/// A Table-1 formula cross-check for one catalog variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Check {
    /// The formula as printed in the paper.
    pub formula: &'static str,
    /// Its value at the analyzed `(N, k)`.
    pub value: u64,
    /// The model the formula applies to.
    pub model: MemoryModel,
    /// Did the derived RMR bound equal the formula?
    pub matches: bool,
}

/// Verdict for one [`Algorithm`] catalog variant.
#[derive(Debug, Clone)]
pub struct AlgoVerdict {
    /// Which variant.
    pub algo: Algorithm,
    /// The protocol-level verdicts.
    pub report: ProtocolReport,
    /// Table-1 cross-check, for the variants the paper tabulates.
    pub table1: Option<Table1Check>,
}

// ---------------------------------------------------------------------------
// IR walking and validation
// ---------------------------------------------------------------------------

/// All node descriptions reachable from the root, for one process.
struct Walk {
    descs: Vec<Option<(NodeId, NodeDesc)>>,
}

impl Walk {
    fn get(&self, id: NodeId) -> &NodeDesc {
        &self.descs[id.index()]
            .as_ref()
            .expect("walk reached an uncollected node")
            .1
    }

    fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeDesc)> {
        self.descs
            .iter()
            .filter_map(|e| e.as_ref().map(|(id, d)| (*id, d)))
    }
}

fn walk(proto: &Protocol, p: Pid) -> Result<Walk, IrError> {
    let mut descs: Vec<Option<(NodeId, NodeDesc)>> =
        (0..proto.node_count()).map(|_| None).collect();
    let mut stack = vec![proto.root()];
    while let Some(id) = stack.pop() {
        if descs[id.index()].is_some() {
            continue;
        }
        let node = proto.node(id);
        let desc = node.describe(p).ok_or_else(|| IrError {
            node: node.name(),
            detail: format!("not describable for process {p} (describe() returned None)"),
        })?;
        validate(&desc, &node.name(), proto.node_count())?;
        for s in desc.entry.iter().chain(desc.exit.iter()) {
            for su in &s.succ {
                if let SuccDesc::Call { child, .. } = su {
                    stack.push(*child);
                }
            }
        }
        descs[id.index()] = Some((id, desc));
    }
    Ok(Walk { descs })
}

/// Enforce the IR contract documented in [`kex_sim::summary`].
fn validate(desc: &NodeDesc, name: &str, node_count: usize) -> Result<(), IrError> {
    let err = |detail: String| {
        Err(IrError {
            node: name.to_owned(),
            detail,
        })
    };
    let mut has_spin = false;
    for section in [Section::Entry, Section::Exit] {
        let stmts = desc.section(section);
        if stmts.is_empty() {
            return err(format!("{section} section has no statements"));
        }
        let len = stmts.len() as u32;
        for (i, s) in stmts.iter().enumerate() {
            let i = i as u32;
            let ctx = format!("{section} pc {i}");
            if s.pc != i {
                return err(format!(
                    "{ctx}: non-dense numbering (statement says {})",
                    s.pc
                ));
            }
            if s.succ.is_empty() && s.back.is_empty() {
                return err(format!("{ctx}: no successors at all"));
            }
            for su in &s.succ {
                match *su {
                    SuccDesc::Goto(t) => {
                        if t <= i || t >= len {
                            return err(format!("{ctx}: goto target {t} not strictly forward"));
                        }
                    }
                    SuccDesc::Call { child, ret, .. } => {
                        if child.index() >= node_count {
                            return err(format!("{ctx}: call to unknown node {child:?}"));
                        }
                        if ret <= i || ret >= len {
                            return err(format!("{ctx}: call return {ret} not strictly forward"));
                        }
                    }
                    SuccDesc::Return => {}
                }
            }
            for b in &s.back {
                if b.to > s.pc {
                    return err(format!("{ctx}: back edge to {} goes forward", b.to));
                }
                if b.kind == BackKind::Spin {
                    has_spin = true;
                }
            }
            for a in &s.accesses {
                if a.multiplicity == 0 {
                    return err(format!("{ctx}: zero-multiplicity access"));
                }
            }
        }
    }
    if desc.spin_space == SpaceClass::NoSpin && has_spin {
        return err("declares NoSpin but contains spin back edges".to_owned());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The cost model
// ---------------------------------------------------------------------------

/// May this access touch a variable that is remote to `p` under DSM?
fn dsm_remote(a: &AccessDesc, p: Pid, vars: &VarTable) -> bool {
    a.var.iter().any(|v| vars.spec(v).owner != Some(p))
}

/// Diagnostic name of the first DSM-remote candidate of `a`.
fn dsm_remote_name(a: &AccessDesc, p: Pid, vars: &VarTable) -> String {
    a.var
        .iter()
        .find(|v| vars.spec(*v).owner != Some(p))
        .map(|v| vars.spec(v).name.clone())
        .unwrap_or_default()
}

fn is_spin(s: &StmtDesc) -> bool {
    s.back.iter().any(|b| b.kind == BackKind::Spin)
}

/// Worst-case remote references charged to one execution of `s` by
/// process `p`, per the §2 accounting rules.
///
/// * **CC**: every declared access is charged one remote reference per
///   repetition (a cold miss / invalidation in the worst case). A
///   read-only spin statement is charged its base cost **plus one**:
///   the initial miss caches the line, re-reads are local, and the
///   terminating write by another process costs one final re-read —
///   the paper's "at most two remote references" rule generalized. A
///   spin statement that *writes* shared memory has no such bound:
///   every retry invalidates remotely — [`Cost::Unbounded`].
/// * **DSM**: an access is charged per repetition iff some candidate
///   variable lives in another process's partition. A spin statement
///   whose target may be remote re-crosses the interconnect on every
///   iteration — [`Cost::Unbounded`]. Local spins are free.
fn stmt_cost(model: MemoryModel, p: Pid, vars: &VarTable, s: &StmtDesc) -> Cost {
    match model {
        MemoryModel::CacheCoherent => {
            let base: u64 = s.accesses.iter().map(|a| a.multiplicity as u64).sum();
            if is_spin(s) {
                if s.accesses.iter().any(|a| a.kind != AccessKind::Read) {
                    Cost::Unbounded
                } else {
                    Cost::Finite(base + 1)
                }
            } else {
                Cost::Finite(base)
            }
        }
        MemoryModel::Dsm => {
            let base: u64 = s
                .accesses
                .iter()
                .filter(|a| dsm_remote(a, p, vars))
                .map(|a| a.multiplicity as u64)
                .sum();
            if is_spin(s) && base > 0 {
                Cost::Unbounded
            } else {
                Cost::Finite(base)
            }
        }
    }
}

/// Worst-case remote references for one execution of a node section by
/// process `p`: per-statement costs, bounded-retry multipliers, the
/// unbounded-retry rule, then a longest-path DP over the back-edge-free
/// DAG (recursing into `Call` children, memoized).
fn section_cost(
    proto: &Protocol,
    model: MemoryModel,
    p: Pid,
    w: &Walk,
    id: NodeId,
    section: Section,
    memo: &mut HashMap<(usize, Section), Cost>,
) -> Cost {
    let key = (id.index(), section);
    if let Some(c) = memo.get(&key) {
        return *c;
    }
    let desc = w.get(id);
    let stmts = desc.section(section);
    let len = stmts.len();
    let mut base: Vec<Cost> = stmts
        .iter()
        .map(|s| stmt_cost(model, p, proto.vars(), s))
        .collect();
    // A bounded retry executes its body at most `m` times in total:
    // scale every statement the back edge can re-reach.
    for s in stmts {
        for b in &s.back {
            if let BackKind::Bounded(m) = b.kind {
                for c in base.iter_mut().take(s.pc as usize + 1).skip(b.to as usize) {
                    *c = c.times(m as u64);
                }
            }
        }
    }
    // An unbounded retry whose body performs remote work has no finite
    // per-acquisition bound — the global-spin failure shape.
    let mut unbounded = false;
    for s in stmts {
        for b in &s.back {
            if b.kind == BackKind::Unbounded
                && base[b.to as usize..=s.pc as usize]
                    .iter()
                    .any(|c| *c != Cost::Finite(0))
            {
                unbounded = true;
            }
        }
    }
    let result = if unbounded {
        Cost::Unbounded
    } else {
        let mut dp = vec![Cost::Finite(0); len];
        for i in (0..len).rev() {
            let mut best = Cost::Finite(0);
            for su in &stmts[i].succ {
                let c = match *su {
                    SuccDesc::Goto(t) => dp[t as usize],
                    SuccDesc::Return => Cost::Finite(0),
                    SuccDesc::Call {
                        child,
                        section: cs,
                        ret,
                    } => section_cost(proto, model, p, w, child, cs, memo).plus(dp[ret as usize]),
                };
                best = best.max(c);
            }
            dp[i] = base[i].plus(best);
        }
        dp[0]
    };
    memo.insert(key, result);
    result
}

// ---------------------------------------------------------------------------
// The four analyses
// ---------------------------------------------------------------------------

fn push_flag(flags: &mut Vec<Flag>, f: Flag) {
    if !flags.contains(&f) {
        flags.push(f);
    }
}

fn flag(node: &str, section: Section, s: &StmtDesc, detail: String) -> Flag {
    Flag {
        node: node.to_owned(),
        section,
        pc: s.pc,
        label: s.label.to_owned(),
        detail,
    }
}

fn first_name(a: &AccessDesc, vars: &VarTable) -> String {
    a.var
        .iter()
        .next()
        .map(|v| vars.spec(v).name.clone())
        .unwrap_or_default()
}

fn spin_flags(proto: &Protocol, p: Pid, w: &Walk, model: MemoryModel, flags: &mut Vec<Flag>) {
    let vars = proto.vars();
    for (id, desc) in w.iter() {
        let name = proto.node(id).name();
        for section in [Section::Entry, Section::Exit] {
            let stmts = desc.section(section);
            for s in stmts {
                if is_spin(s) {
                    match model {
                        MemoryModel::CacheCoherent => {
                            if let Some(a) = s.accesses.iter().find(|a| a.kind != AccessKind::Read)
                            {
                                let v = first_name(a, vars);
                                push_flag(
                                    flags,
                                    flag(&name, section, s, format!(
                                        "spin body writes `{v}` — every retry invalidates remotely under CC"
                                    )),
                                );
                            }
                        }
                        MemoryModel::Dsm => {
                            if let Some(a) = s.accesses.iter().find(|a| dsm_remote(a, p, vars)) {
                                let v = dsm_remote_name(a, p, vars);
                                push_flag(
                                    flags,
                                    flag(
                                        &name,
                                        section,
                                        s,
                                        format!("spins on `{v}`, which is remote under DSM"),
                                    ),
                                );
                            }
                        }
                    }
                }
                for b in &s.back {
                    if b.kind != BackKind::Unbounded {
                        continue;
                    }
                    let body = &stmts[b.to as usize..=s.pc as usize];
                    let crosses = body.iter().any(|t| match model {
                        MemoryModel::CacheCoherent => !t.accesses.is_empty(),
                        MemoryModel::Dsm => t.accesses.iter().any(|a| dsm_remote(a, p, vars)),
                    });
                    if crosses {
                        push_flag(
                            flags,
                            flag(
                                &name,
                                section,
                                s,
                                format!(
                                "unbounded retry to pc {}: every attempt performs remote accesses",
                                b.to
                            ),
                            ),
                        );
                    }
                }
            }
        }
    }
}

fn atomic_flags(proto: &Protocol, w: &Walk, flags: &mut Vec<Flag>) {
    for (id, desc) in w.iter() {
        let name = proto.node(id).name();
        for section in [Section::Entry, Section::Exit] {
            for s in desc.section(section) {
                let total: usize = s.accesses.iter().map(|a| a.multiplicity).sum();
                if total > ATOMIC_BOUND {
                    push_flag(
                        flags,
                        flag(
                            &name,
                            section,
                            s,
                            format!(
                            "{total} shared accesses in one atomic statement (bound {ATOMIC_BOUND})"
                        ),
                        ),
                    );
                }
            }
        }
    }
}

/// Distinct spin-target variables of `desc` (both sections).
fn spin_locations(desc: &NodeDesc) -> usize {
    let mut locs: Vec<VarId> = Vec::new();
    for section in [Section::Entry, Section::Exit] {
        for s in desc.section(section) {
            if !is_spin(s) {
                continue;
            }
            for a in &s.accesses {
                for v in a.var.iter() {
                    if !locs.contains(&v) {
                        locs.push(v);
                    }
                }
            }
        }
    }
    locs.len()
}

/// Run all four analyses on a built protocol.
///
/// Fails with [`IrError`] if any reachable node is not describable or
/// its description violates the IR contract.
pub fn analyze_protocol(proto: &Protocol) -> Result<ProtocolReport, IrError> {
    let n = proto.n();
    let k = proto.k();
    let root = proto.root();

    let mut spin_cc = Vec::new();
    let mut spin_dsm = Vec::new();
    let mut atomic = Vec::new();
    let mut space_by_node: HashMap<usize, NodeSpace> = HashMap::new();
    let mut rmr_cc = Cost::Finite(0);
    let mut rmr_dsm = Cost::Finite(0);

    for p in 0..n {
        let w = walk(proto, p)?;
        spin_flags(proto, p, &w, MemoryModel::CacheCoherent, &mut spin_cc);
        spin_flags(proto, p, &w, MemoryModel::Dsm, &mut spin_dsm);
        atomic_flags(proto, &w, &mut atomic);
        for (id, desc) in w.iter() {
            let locs = spin_locations(desc);
            let entry = space_by_node
                .entry(id.index())
                .or_insert_with(|| NodeSpace {
                    node: proto.node(id).name(),
                    exclusion: desc.exclusion,
                    spin_locations: 0,
                    bound: desc.exclusion.map(|j| j + 2),
                    declared: desc.spin_space,
                });
            entry.spin_locations = entry.spin_locations.max(locs);
        }
        for (model, acc) in [
            (MemoryModel::CacheCoherent, &mut rmr_cc),
            (MemoryModel::Dsm, &mut rmr_dsm),
        ] {
            let mut memo = HashMap::new();
            let total = section_cost(proto, model, p, &w, root, Section::Entry, &mut memo).plus(
                section_cost(proto, model, p, &w, root, Section::Exit, &mut memo),
            );
            *acc = (*acc).max(total);
        }
    }

    let mut space: Vec<NodeSpace> = space_by_node.into_values().collect();
    space.sort_by(|a, b| a.node.cmp(&b.node));
    let space_class = space
        .iter()
        .map(|s| s.declared)
        .max_by_key(|c| match c {
            SpaceClass::NoSpin => 0,
            SpaceClass::Bounded => 1,
            SpaceClass::Unbounded => 2,
        })
        .unwrap_or(SpaceClass::NoSpin);

    let root_node = proto.node(root);
    Ok(ProtocolReport {
        n,
        k,
        spin_cc,
        spin_dsm,
        atomic,
        space,
        space_class,
        assigns_names: root_node.assigns_names(),
        name_space: root_node.name_space(k),
        rmr_cc,
        rmr_dsm,
    })
}

// ---------------------------------------------------------------------------
// Catalog wrappers and Table-1 cross-checks
// ---------------------------------------------------------------------------

/// Analyze one catalog variant at the given sizing.
pub fn analyze_algorithm(algo: Algorithm, cfg: &Config) -> Result<AlgoVerdict, IrError> {
    let proto: Arc<Protocol> = algo.build(cfg.n, cfg.k, cfg.max_locs);
    let report = analyze_protocol(&proto)?;
    // Table 1 tabulates a constant for the chains and trees only; the
    // other bounds are ceilings on an `O(·)` entry, not derivable here.
    let exact = matches!(
        algo,
        Algorithm::CcChain | Algorithm::CcTree | Algorithm::DsmChain | Algorithm::DsmTree
    );
    let model = algo.model();
    let table1 = algo
        .paper_bound(cfg.n, cfg.k)
        .filter(|_| exact)
        .map(|(formula, value)| Table1Check {
            formula,
            value,
            model,
            matches: report.rmr(model) == Cost::Finite(value),
        });
    Ok(AlgoVerdict {
        algo,
        report,
        table1,
    })
}

/// Analyze every variant in [`Algorithm::ALL`].
pub fn analyze_all(cfg: &Config) -> Result<Vec<AlgoVerdict>, IrError> {
    Algorithm::ALL
        .iter()
        .map(|&a| analyze_algorithm(a, cfg))
        .collect()
}

/// The lower-cased base names of every variable the algorithm's IR
/// declares — `"fig2[3].X"` and `"fig6[1].R[2][0]"` reduce to `"x"` and
/// `"r"`.
///
/// This is the IR half of `kex-lint`'s obligation pass: the lint maps
/// the receiver names of the native atomic sites to IR variables and
/// checks each against this set for the corresponding catalog variant,
/// so the IR and the native code cannot silently disagree about which
/// shared variables an algorithm touches.
pub fn ir_var_basenames(algo: Algorithm, cfg: &Config) -> std::collections::BTreeSet<String> {
    let proto = algo.build(cfg.n, cfg.k, cfg.max_locs);
    proto
        .vars()
        .iter()
        .map(|(_, spec)| {
            let base = spec.name.rsplit('.').next().unwrap_or(&spec.name);
            base.chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect::<String>()
                .to_ascii_lowercase()
        })
        .filter(|s| !s.is_empty())
        .collect()
}

// ---------------------------------------------------------------------------
// The pinned verdict matrix
// ---------------------------------------------------------------------------

/// Check the verdicts against the expected matrix for the paper's
/// algorithms; returns a human-readable list of deviations (empty =
/// everything as the paper claims).
///
/// This is the contract the tier-1 test and CI's `--assert` mode
/// enforce — see `docs/ANALYZER.md` for the table in prose.
pub fn expected_matrix_failures(verdicts: &[AlgoVerdict]) -> Vec<String> {
    use Algorithm::*;
    let mut fails = Vec::new();
    let get = |a: Algorithm| verdicts.iter().find(|v| v.algo == a);
    let mut expect = |cond: bool, msg: String| {
        if !cond {
            fails.push(msg);
        }
    };

    for a in Algorithm::ALL {
        if get(a).is_none() {
            expect(false, format!("{a:?}: no verdict produced"));
        }
    }

    if let Some(gs) = get(GlobalSpin) {
        expect(
            !gs.report.local_spin_clean(MemoryModel::CacheCoherent),
            "GlobalSpin: expected a remote-spin flag under CC".into(),
        );
        expect(
            !gs.report.local_spin_clean(MemoryModel::Dsm),
            "GlobalSpin: expected a remote-spin flag under DSM".into(),
        );
        expect(
            gs.report.rmr_cc == Cost::Unbounded && gs.report.rmr_dsm == Cost::Unbounded,
            format!(
                "GlobalSpin: expected unbounded RMR on both models, got CC={} DSM={}",
                gs.report.rmr_cc, gs.report.rmr_dsm
            ),
        );
    }

    for v in verdicts {
        if v.algo == QueueFig1 {
            expect(
                !v.report.atomic_clean(),
                "QueueFig1: expected oversized-atomic-section flags".into(),
            );
        } else {
            expect(
                v.report.atomic_clean(),
                format!(
                    "{:?}: unexpected oversized atomic section: {:?}",
                    v.algo,
                    v.report.atomic.first().map(|f| &f.detail)
                ),
            );
        }
    }

    for a in [CcChain, CcTree, CcFastPath, CcGraceful, AssignmentCc] {
        if let Some(v) = get(a) {
            expect(
                v.report.local_spin_clean(MemoryModel::CacheCoherent),
                format!(
                    "{a:?}: expected local-spin-clean under CC, got {:?}",
                    v.report.spin_cc.first().map(|f| &f.detail)
                ),
            );
        }
    }

    for a in [
        DsmUnboundedChain,
        DsmChain,
        DsmTree,
        DsmFastPath,
        DsmGraceful,
        AssignmentDsm,
    ] {
        if let Some(v) = get(a) {
            expect(
                v.report.local_spin_clean(MemoryModel::Dsm),
                format!(
                    "{a:?}: expected local-spin-clean under DSM, got {:?}",
                    v.report.spin_dsm.first().map(|f| &f.detail)
                ),
            );
        }
    }

    // Figure-6-based constructions: every stage spins on at most
    // `exclusion + 2` locations per process.
    for a in [DsmChain, DsmTree, DsmFastPath, DsmGraceful, AssignmentDsm] {
        if let Some(v) = get(a) {
            for s in &v.report.space {
                expect(
                    s.within_bound(),
                    format!(
                        "{a:?}: node `{}` spins on {} locations, bound {:?}",
                        s.node, s.spin_locations, s.bound
                    ),
                );
            }
        }
    }

    if let Some(v) = get(DsmUnboundedChain) {
        expect(
            v.report.space_class == SpaceClass::Unbounded,
            "DsmUnboundedChain: expected declared-unbounded spin space (Figure 5)".into(),
        );
    }

    for a in [AssignmentCc, AssignmentDsm] {
        if let Some(v) = get(a) {
            expect(
                v.report.names_exact(),
                format!(
                    "{a:?}: expected exact name space 0..k, got assigns={} space={}",
                    v.report.assigns_names, v.report.name_space
                ),
            );
        }
    }

    for v in verdicts {
        if let Some(t) = &v.table1 {
            expect(
                t.matches,
                format!(
                    "{:?}: RMR bound {} does not match Table-1 formula {} = {}",
                    v.algo,
                    v.report.rmr(t.model),
                    t.formula,
                    t.value
                ),
            );
        }
    }

    fails
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

fn mark(clean: bool) -> &'static str {
    if clean {
        "ok"
    } else {
        "FLAG"
    }
}

fn space_label(c: SpaceClass) -> &'static str {
    match c {
        SpaceClass::NoSpin => "no-spin",
        SpaceClass::Bounded => "bounded",
        SpaceClass::Unbounded => "unbounded",
    }
}

/// Render the verdicts as a human-readable text report.
pub fn render_text(verdicts: &[AlgoVerdict], cfg: &Config) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "kex-analyze: static verdicts at N={}, k={} (max_locs={})",
        cfg.n, cfg.k, cfg.max_locs
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<22} {:>5}  {:>9} {:>9} {:>7} {:>10} {:>6} {:>9} {:>9}  table-1",
        "algorithm",
        "model",
        "spin(CC)",
        "spin(DSM)",
        "atomic",
        "space",
        "names",
        "RMR(CC)",
        "RMR(DSM)"
    );
    for v in verdicts {
        let r = &v.report;
        let names = if r.assigns_names {
            format!("0..{}", r.name_space)
        } else {
            "-".to_owned()
        };
        let table1 = match &v.table1 {
            Some(t) => format!(
                "{} = {} ({})",
                t.formula,
                t.value,
                if t.matches { "match" } else { "MISMATCH" }
            ),
            None => "-".to_owned(),
        };
        let _ = writeln!(
            out,
            "{:<22} {:>5}  {:>9} {:>9} {:>7} {:>10} {:>6} {:>9} {:>9}  {}",
            v.algo.label(),
            v.algo.model().label(),
            mark(r.local_spin_clean(MemoryModel::CacheCoherent)),
            mark(r.local_spin_clean(MemoryModel::Dsm)),
            mark(r.atomic_clean()),
            space_label(r.space_class),
            names,
            r.rmr_cc.to_string(),
            r.rmr_dsm.to_string(),
            table1,
        );
    }
    let mut any = false;
    for v in verdicts {
        let r = &v.report;
        let groups: [(&str, &Vec<Flag>); 3] = [
            ("spin/CC", &r.spin_cc),
            ("spin/DSM", &r.spin_dsm),
            ("atomic", &r.atomic),
        ];
        for (tag, flags) in groups {
            for f in flags {
                if !any {
                    let _ = writeln!(out);
                    let _ = writeln!(out, "flags:");
                    any = true;
                }
                let _ = writeln!(
                    out,
                    "  [{tag}] {} / {} {} pc {}: {} — {}",
                    v.algo.label(),
                    f.node,
                    f.section,
                    f.pc,
                    f.label,
                    f.detail
                );
            }
        }
    }
    out
}

/// Render the verdicts as JSON (schema documented in `EXPERIMENTS.md`).
pub fn render_json(verdicts: &[AlgoVerdict], cfg: &Config) -> String {
    let opt = |v: Option<usize>| v.map_or(Json::Null, Json::from);
    let cost = |c: Cost| match c {
        Cost::Finite(v) => Json::U64(v),
        Cost::Unbounded => "unbounded".into(),
    };
    let flags = |flags: &[Flag]| {
        let flag = |f: &Flag| {
            Json::obj(vec![
                ("node", f.node.as_str().into()),
                ("section", f.section.to_string().into()),
                ("pc", u64::from(f.pc).into()),
                ("label", f.label.as_str().into()),
                ("detail", f.detail.as_str().into()),
            ])
        };
        Json::arr(flags.iter().map(flag).collect())
    };
    let spin = |clean: bool, flagged: &[Flag]| {
        Json::obj(vec![("clean", clean.into()), ("flags", flags(flagged))])
    };
    let algorithm = |v: &AlgoVerdict| {
        let r = &v.report;
        let node = |s: &NodeSpace| {
            Json::obj(vec![
                ("node", s.node.as_str().into()),
                ("exclusion", opt(s.exclusion)),
                ("spin_locations", s.spin_locations.into()),
                ("bound", opt(s.bound)),
                ("within", s.within_bound().into()),
                ("declared", space_label(s.declared).into()),
            ])
        };
        let nodes = r
            .space
            .iter()
            .filter(|s| s.spin_locations > 0 || s.exclusion.is_some());
        let table1 = |t: &Table1Check| {
            Json::obj(vec![
                ("formula", t.formula.into()),
                ("value", t.value.into()),
                ("model", t.model.label().into()),
                ("matches", t.matches.into()),
            ])
        };
        let local_spin = vec![
            (
                "cc",
                spin(r.local_spin_clean(MemoryModel::CacheCoherent), &r.spin_cc),
            ),
            (
                "dsm",
                spin(r.local_spin_clean(MemoryModel::Dsm), &r.spin_dsm),
            ),
        ];
        let atomic_sections = vec![
            ("bound", ATOMIC_BOUND.into()),
            ("clean", r.atomic_clean().into()),
            ("flags", flags(&r.atomic)),
        ];
        let space = vec![
            ("class", space_label(r.space_class).into()),
            ("ok", r.space_ok().into()),
            ("nodes", Json::arr(nodes.map(node).collect())),
        ];
        let names = vec![
            ("assigns", r.assigns_names.into()),
            ("space", r.name_space.into()),
            ("exact", r.names_exact().into()),
        ];
        let rmr = vec![("cc", cost(r.rmr_cc)), ("dsm", cost(r.rmr_dsm))];
        Json::obj(vec![
            ("id", format!("{:?}", v.algo).into()),
            ("label", v.algo.label().into()),
            ("target_model", v.algo.model().label().into()),
            ("local_spin", Json::obj(local_spin)),
            ("atomic_sections", Json::obj(atomic_sections)),
            ("space", Json::obj(space)),
            ("names", Json::obj(names)),
            ("rmr", Json::obj(rmr)),
            ("table1", v.table1.as_ref().map_or(Json::Null, table1)),
        ])
    };
    let config = vec![
        ("n", cfg.n.into()),
        ("k", cfg.k.into()),
        ("max_locs", cfg.max_locs.into()),
    ];
    Json::obj(vec![
        ("schema", 1u64.into()),
        ("config", Json::obj(config)),
        (
            "algorithms",
            Json::arr(verdicts.iter().map(algorithm).collect()),
        ),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdicts() -> Vec<AlgoVerdict> {
        analyze_all(&Config::default()).expect("every catalog variant must be describable")
    }

    /// The tier-1 pin: the full expected verdict matrix for all 13
    /// catalog variants at the default (N=8, k=2).
    #[test]
    fn expected_verdict_matrix_holds() {
        let v = verdicts();
        assert_eq!(v.len(), Algorithm::ALL.len());
        let fails = expected_matrix_failures(&v);
        assert!(
            fails.is_empty(),
            "verdict matrix deviations:\n  {}",
            fails.join("\n  ")
        );
    }

    #[test]
    fn table1_bounds_are_exact_at_default_sizing() {
        // N=8, k=2: 7(N-k)=42, 7k*ceil(log2(N/k))=28, 14(N-k)=84,
        // 14k*ceil(log2(N/k))=56. Pin the numbers, not just `matches`.
        let v = verdicts();
        let rmr =
            |a: Algorithm, m: MemoryModel| v.iter().find(|x| x.algo == a).unwrap().report.rmr(m);
        assert_eq!(
            rmr(Algorithm::CcChain, MemoryModel::CacheCoherent),
            Cost::Finite(42)
        );
        assert_eq!(
            rmr(Algorithm::CcTree, MemoryModel::CacheCoherent),
            Cost::Finite(28)
        );
        assert_eq!(rmr(Algorithm::DsmChain, MemoryModel::Dsm), Cost::Finite(84));
        assert_eq!(rmr(Algorithm::DsmTree, MemoryModel::Dsm), Cost::Finite(56));
    }

    #[test]
    fn queue_flags_name_the_scan_statements() {
        let v = verdicts();
        let q = v.iter().find(|x| x.algo == Algorithm::QueueFig1).unwrap();
        // The enqueue test-scan and the dequeue shift are the O(N)
        // statements; the 4-access enqueue itself sits exactly at the
        // bound and must NOT be flagged.
        assert!(q
            .report
            .atomic
            .iter()
            .any(|f| f.section == Section::Entry && f.pc == 1));
        assert!(q
            .report
            .atomic
            .iter()
            .any(|f| f.section == Section::Exit && f.pc == 0));
        assert!(!q
            .report
            .atomic
            .iter()
            .any(|f| f.section == Section::Entry && f.pc == 0));
    }

    #[test]
    fn fig6_root_stage_uses_exactly_k_plus_2_spin_locations() {
        let cfg = Config::default();
        let v = analyze_algorithm(Algorithm::DsmChain, &cfg).unwrap();
        let root_stage = v
            .report
            .space
            .iter()
            .find(|s| s.exclusion == Some(cfg.k))
            .expect("chain must contain the j=k stage");
        assert_eq!(root_stage.spin_locations, cfg.k + 2);
        assert_eq!(root_stage.bound, Some(cfg.k + 2));
    }

    #[test]
    fn global_spin_is_flagged_with_statement_detail() {
        let v = verdicts();
        let gs = v.iter().find(|x| x.algo == Algorithm::GlobalSpin).unwrap();
        // CC: the unbounded-retry rule fires (its spin is read-only).
        assert!(gs
            .report
            .spin_cc
            .iter()
            .any(|f| f.detail.contains("unbounded retry")));
        // DSM: the spin target is a globally-homed counter.
        assert!(gs
            .report
            .spin_dsm
            .iter()
            .any(|f| f.detail.contains("remote under DSM")));
    }

    /// Nodes outside the catalog (reference locks, renaming grid) are
    /// describable and analyzable directly.
    #[test]
    fn reference_nodes_analyze_clean() {
        use kex_sim::protocol::ProtocolBuilder;

        // MCS: local-spin on both models, O(1) RMR.
        let mut b = ProtocolBuilder::new(6);
        let root = kex_core::sim::mcs::mcs(&mut b);
        let r = analyze_protocol(&b.finish(root, 1)).unwrap();
        assert!(r.local_spin_clean(MemoryModel::CacheCoherent));
        assert!(r.local_spin_clean(MemoryModel::Dsm));
        assert!(r.rmr_cc.is_finite() && r.rmr_dsm.is_finite());

        // Yang–Anderson: local-spin on both models, finite RMR.
        let mut b = ProtocolBuilder::new(8);
        let root = kex_core::sim::yang_anderson::yang_anderson(&mut b);
        let r = analyze_protocol(&b.finish(root, 1)).unwrap();
        assert!(r.local_spin_clean(MemoryModel::CacheCoherent));
        assert!(r.local_spin_clean(MemoryModel::Dsm));
        assert!(r.rmr_cc.is_finite() && r.rmr_dsm.is_finite());
    }

    #[test]
    fn splitter_grid_name_space_is_larger_than_k() {
        use kex_sim::protocol::ProtocolBuilder;
        let mut b = ProtocolBuilder::new(6);
        let root = kex_core::sim::splitter::splitter_grid_standalone(&mut b, 3);
        let r = analyze_protocol(&b.finish(root, 3)).unwrap();
        // The read/write-only grid assigns names but needs k(k+1)/2 of
        // them — renaming, not exact k-assignment.
        assert!(r.assigns_names);
        assert_eq!(r.name_space, 6);
        assert!(!r.names_exact());
    }

    #[test]
    fn undescribable_nodes_are_reported_not_skipped() {
        use kex_sim::mem::MemCtx;
        use kex_sim::node::Node;
        use kex_sim::protocol::ProtocolBuilder;
        use kex_sim::types::{Step, Word};

        struct Opaque;
        impl Node for Opaque {
            fn name(&self) -> String {
                "opaque".into()
            }
            fn step(&self, _: Section, _: u32, _: &mut [Word], _: &mut MemCtx<'_>) -> Step {
                Step::Return
            }
        }
        let mut b = ProtocolBuilder::new(2);
        let root = b.add(Opaque);
        let err = analyze_protocol(&b.finish(root, 1)).unwrap_err();
        assert_eq!(err.node, "opaque");
        assert!(err.detail.contains("not describable"));
    }

    #[test]
    fn json_report_is_well_formed_enough_to_pin() {
        let doc = kex_obs::json::parse(&render_json(&verdicts(), &Config::default()))
            .expect("the report is JSON");
        assert_eq!(doc.get("schema").and_then(Json::as_u64), Some(1));
        let algos = doc.get("algorithms").and_then(Json::as_arr).expect("array");
        fn id(algo: &Json) -> Option<&str> {
            algo.get("id").and_then(Json::as_str)
        }
        assert!(algos.iter().any(|a| id(a) == Some("GlobalSpin")));
        let chain = algos
            .iter()
            .find(|a| id(a) == Some("CcChain"))
            .expect("cc-chain is in the catalog");
        let rmr_cc = chain.get("rmr").and_then(|r| r.get("cc"));
        assert_eq!(rmr_cc.and_then(Json::as_u64), Some(42));
        let tabulated = algos
            .iter()
            .filter(|a| a.get("table1").is_some_and(|t| t.get("formula").is_some()));
        assert_eq!(
            tabulated.count(),
            4,
            "exactly the four tabulated variants carry a formula check"
        );
    }
}
