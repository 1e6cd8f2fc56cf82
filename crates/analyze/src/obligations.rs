//! Ordering-obligation derivation: the static half of the check that
//! the native layer's declared orderings suffice (the loom models are
//! the dynamic half).
//!
//! `kex-lint`'s source scan says what each native atomic site *claims*;
//! this module derives, from the access-summary IR alone, what each
//! shared variable *requires* — so a claim can be checked against the
//! algorithm's structure instead of against prose. Four structural
//! patterns generate obligations:
//!
//! * **Spin words** — a variable read under a [`BackKind::Spin`] back
//!   edge is a wait/publish channel: its loads must acquire and the
//!   stores that terminate the wait must release, or the woken process
//!   may read pre-publication state.
//! * **Gate words** — a variable that is both RMW'd and plainly read
//!   participates in the paper's counter/queue handshakes (`x`, `q`,
//!   `r` in Figures 2 and 6), where the interleaving proofs (invariants
//!   I1–I10) need the single total order only `SeqCst` provides.
//! * **Counters** — a variable touched only through RMWs is a pure
//!   fetch&add/swap counter: `AcqRel` makes the RMW chain a release
//!   sequence, which is all the proofs use.
//! * **Dekker pairs** — a plain write followed (in the same section,
//!   without descending into callees) by a read of a *different*
//!   variable is the store-buffering shape: both sides need `SeqCst`,
//!   exactly the outcome the SB litmus test pins.
//!
//! Obligations are keyed by lower-cased variable *basename* (matching
//! `kex-lint`'s receiver extraction); a basename shared by several IR
//! variables takes, per access kind, the *weakest* requirement among
//! the variables that actually perform that kind — a source site shared
//! by a counter role and a gate role cannot soundly be forced to the
//! stronger one (the fast-path `x` is the motivating case).

use std::collections::BTreeMap;

use kex_core::sim::build::Algorithm;
use kex_sim::summary::{AccessKind, BackKind, StmtDesc, SuccDesc};
use kex_sim::types::Section;

use crate::{basename, walk, Config, IrError};

/// The minimum ordering an obligation demands of a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Req {
    /// No constraint beyond coherence.
    Relaxed,
    /// The load must acquire.
    Acquire,
    /// The store must release.
    Release,
    /// The RMW must both acquire and release.
    AcqRel,
    /// The access participates in a Dekker/handshake pair: nothing
    /// short of the single SC total order is sound.
    SeqCst,
}

impl Req {
    /// Strength rank; `Acquire` and `Release` are incomparable siblings
    /// at the same rank (see [`Req::satisfies`]).
    pub fn rank(self) -> u8 {
        match self {
            Req::Relaxed => 0,
            Req::Acquire | Req::Release => 1,
            Req::AcqRel => 2,
            Req::SeqCst => 3,
        }
    }

    /// Does an ordering of strength `self` discharge an obligation of
    /// `req`? Rank comparison, except that `Release` cannot stand in
    /// for `Acquire` (nor vice versa) — equal rank, disjoint effect.
    pub fn satisfies(self, req: Req) -> bool {
        match (req, self) {
            (Req::Acquire, Req::Release) | (Req::Release, Req::Acquire) => false,
            _ => self.rank() >= req.rank(),
        }
    }

    /// Parse an ordering keyword.
    pub fn parse(s: &str) -> Option<Req> {
        match s {
            "Relaxed" => Some(Req::Relaxed),
            "Acquire" => Some(Req::Acquire),
            "Release" => Some(Req::Release),
            "AcqRel" => Some(Req::AcqRel),
            "SeqCst" => Some(Req::SeqCst),
            _ => None,
        }
    }

    /// The keyword as written in source and audit table.
    pub fn keyword(self) -> &'static str {
        match self {
            Req::Relaxed => "Relaxed",
            Req::Acquire => "Acquire",
            Req::Release => "Release",
            Req::AcqRel => "AcqRel",
            Req::SeqCst => "SeqCst",
        }
    }
}

/// One derived obligation: accesses of `kind` to variables named `var`
/// must be at least `req` strong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Obligation {
    /// Lower-cased variable basename (`"fig2[3].X"` → `"x"`), the key
    /// `kex-lint` extracts from native receivers.
    pub var: String,
    /// Which access kind the obligation constrains.
    pub kind: AccessKind,
    /// The minimum ordering.
    pub req: Req,
    /// The structural pattern that generated it.
    pub why: String,
}

/// Per-IR-variable structural facts, unioned over all processes.
#[derive(Default)]
struct Facts {
    read: bool,
    write: bool,
    rmw: bool,
    /// Read under a `Spin` back edge.
    spin_read: bool,
    /// Read *not* under a `Spin` back edge.
    plain_read: bool,
    /// Plain write with a later same-section read of another variable.
    dekker_write: bool,
    /// Plainly read after a same-section write of another variable.
    dekker_read: bool,
    /// RMW'd after a same-section write of another variable.
    dekker_rmw: bool,
}

fn is_spin(s: &StmtDesc) -> bool {
    s.back.iter().any(|b| b.kind == BackKind::Spin)
}

/// Statements forward-reachable from `s` within its own section,
/// following `Goto` targets and `Call` *returns* (no descent into the
/// callee: a cross-node pair is mediated by the callee's own sites,
/// which carry their own obligations).
fn reachable_after<'a>(stmts: &'a [StmtDesc], s: &StmtDesc) -> Vec<&'a StmtDesc> {
    let mut seen = vec![false; stmts.len()];
    let mut stack: Vec<u32> = s
        .succ
        .iter()
        .filter_map(|su| match su {
            SuccDesc::Goto(t) => Some(*t),
            SuccDesc::Call { ret, .. } => Some(*ret),
            SuccDesc::Return => None,
        })
        .collect();
    while let Some(pc) = stack.pop() {
        let i = pc as usize;
        if i >= stmts.len() || seen[i] {
            continue;
        }
        seen[i] = true;
        for su in &stmts[i].succ {
            match su {
                SuccDesc::Goto(t) => stack.push(*t),
                SuccDesc::Call { ret, .. } => stack.push(*ret),
                SuccDesc::Return => {}
            }
        }
    }
    stmts.iter().filter(|t| seen[t.pc as usize]).collect()
}

fn collect_section(stmts: &[StmtDesc], facts: &mut BTreeMap<usize, Facts>) {
    for s in stmts {
        let spin = is_spin(s);
        for a in &s.accesses {
            for v in a.var.iter() {
                let f = facts.entry(v.index()).or_default();
                match a.kind {
                    AccessKind::Read => {
                        f.read = true;
                        if spin {
                            f.spin_read = true;
                        } else {
                            f.plain_read = true;
                        }
                    }
                    AccessKind::Write => f.write = true,
                    AccessKind::Rmw => f.rmw = true,
                }
            }
        }
        // Dekker detection: a plain write of A with a later (same
        // section) non-spin read or RMW of some B != A.
        let writes: Vec<usize> = s
            .accesses
            .iter()
            .filter(|a| a.kind == AccessKind::Write)
            .flat_map(|a| a.var.iter().map(|v| v.index()))
            .collect();
        if writes.is_empty() {
            continue;
        }
        for t in reachable_after(stmts, s) {
            let t_spin = is_spin(t);
            for a in &t.accesses {
                if a.kind == AccessKind::Read && t_spin {
                    continue; // spin re-reads have their own rule
                }
                if a.kind == AccessKind::Write {
                    continue;
                }
                for v in a.var.iter() {
                    let vi = v.index();
                    if writes.iter().all(|w| *w == vi) {
                        continue; // same variable: coherence suffices
                    }
                    for w in &writes {
                        if *w != vi {
                            facts.entry(*w).or_default().dekker_write = true;
                        }
                    }
                    let f = facts.entry(vi).or_default();
                    match a.kind {
                        AccessKind::Read => f.dekker_read = true,
                        AccessKind::Rmw => f.dekker_rmw = true,
                        AccessKind::Write => unreachable!(),
                    }
                }
            }
        }
    }
}

/// Derive the ordering obligations of `algo`'s shared variables at the
/// given sizing, keyed by lower-cased basename and sorted by (basename,
/// kind). Variables are visited in index order, so where two sharers of
/// a basename tie on strength the lower-indexed one's reason is kept
/// and the result is the same on every run.
pub fn derive_obligations(algo: Algorithm, cfg: &Config) -> Result<Vec<Obligation>, IrError> {
    let proto = algo.build(cfg.n, cfg.k, cfg.max_locs);
    let basenames: BTreeMap<usize, String> = proto
        .vars()
        .iter()
        .map(|(id, spec)| (id.index(), basename(&spec.name)))
        .collect();

    let mut facts: BTreeMap<usize, Facts> = BTreeMap::new();
    for p in 0..cfg.n {
        let w = walk(&proto, p)?;
        for (_, desc) in w.iter() {
            for section in [Section::Entry, Section::Exit] {
                collect_section(desc.section(section), &mut facts);
            }
        }
    }

    // Per-variable requirements: max over the rules that fired.
    struct VarReq {
        kind: AccessKind,
        req: Req,
        why: &'static str,
    }
    let mut per_var: BTreeMap<usize, Vec<VarReq>> = BTreeMap::new();
    for (vi, f) in &facts {
        let mut reqs: Vec<VarReq> = Vec::new();
        let mut push = |kind: AccessKind, req: Req, why: &'static str| {
            reqs.push(VarReq { kind, req, why });
        };
        // Baseline: every present kind is at least Relaxed, so a
        // variable with no firing rule still yields (vacuous)
        // obligations and the caller can distinguish "unconstrained"
        // from "unknown variable".
        if f.read {
            push(AccessKind::Read, Req::Relaxed, "coherence only");
        }
        if f.write {
            push(AccessKind::Write, Req::Relaxed, "coherence only");
        }
        if f.rmw {
            push(AccessKind::Rmw, Req::Relaxed, "coherence only");
        }
        if f.spin_read {
            push(AccessKind::Read, Req::Acquire, "spin word: busy-wait read");
            if f.write {
                push(
                    AccessKind::Write,
                    Req::Release,
                    "spin word: store terminates a busy-wait",
                );
            }
        }
        let gate = f.rmw && f.plain_read;
        if gate {
            let why = "gate word: RMW'd and plainly read (handshake)";
            push(AccessKind::Rmw, Req::SeqCst, why);
            push(AccessKind::Read, Req::SeqCst, why);
            if f.write {
                push(AccessKind::Write, Req::SeqCst, why);
            }
        }
        if f.rmw && !f.plain_read && !f.spin_read {
            push(
                AccessKind::Rmw,
                Req::AcqRel,
                "counter: accessed only through RMWs",
            );
            if f.write {
                push(
                    AccessKind::Write,
                    Req::Release,
                    "counter reset: store into an RMW chain",
                );
            }
        }
        if f.dekker_write {
            push(
                AccessKind::Write,
                Req::SeqCst,
                "Dekker pair: write before read of another variable",
            );
        }
        if f.dekker_read {
            push(
                AccessKind::Read,
                Req::SeqCst,
                "Dekker pair: read after write of another variable",
            );
        }
        if f.dekker_rmw {
            push(
                AccessKind::Rmw,
                Req::SeqCst,
                "Dekker pair: RMW after write of another variable",
            );
        }
        per_var.insert(*vi, reqs);
    }

    // Aggregate to basenames: per (basename, kind), the *minimum* over
    // the variables that actually perform that kind.
    let mut agg: BTreeMap<(String, u8), (Req, String)> = BTreeMap::new();
    let kind_tag = |k: AccessKind| match k {
        AccessKind::Read => 0u8,
        AccessKind::Write => 1,
        AccessKind::Rmw => 2,
    };
    for (vi, reqs) in &per_var {
        let Some(base) = basenames.get(vi) else {
            continue;
        };
        if base.is_empty() {
            continue;
        }
        // This variable's max per kind.
        let mut mine: BTreeMap<u8, (Req, &'static str)> = BTreeMap::new();
        for r in reqs {
            let e = mine.entry(kind_tag(r.kind)).or_insert((r.req, r.why));
            if r.req > e.0 {
                *e = (r.req, r.why);
            }
        }
        for (kt, (req, why)) in mine {
            agg.entry((base.clone(), kt))
                .and_modify(|cur| {
                    if req < cur.0 {
                        *cur = (req, why.to_owned());
                    }
                })
                .or_insert((req, why.to_owned()));
        }
    }

    let out = agg
        .into_iter()
        .map(|((var, kt), (req, why))| Obligation {
            var,
            kind: match kt {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                _ => AccessKind::Rmw,
            },
            req,
            why,
        })
        .collect();
    Ok(out)
}

/// Look up the obligation for (`var` basename, `kind`), if derived.
pub fn obligation_for<'a>(
    obls: &'a [Obligation],
    var: &str,
    kind: AccessKind,
) -> Option<&'a Obligation> {
    obls.iter().find(|o| o.var == var && o.kind == kind)
}

/// Maps a site's atomic method to the access kind it performs on the
/// modelled IR variable (`swap`, `compare_exchange*`, `fetch_*` and
/// `fetch_update` are all RMWs).
pub fn kind_for_op(op: &str) -> AccessKind {
    match op {
        "load" => AccessKind::Read,
        "store" => AccessKind::Write,
        _ => AccessKind::Rmw,
    }
}

/// Report-facing name of an access kind (`load` / `store` / `rmw`).
pub fn kind_name(kind: AccessKind) -> &'static str {
    match kind {
        AccessKind::Read => "load",
        AccessKind::Write => "store",
        AccessKind::Rmw => "rmw",
    }
}

/// Text report of every algorithm's derived obligations.
pub fn render_obligations_text(cfg: &Config) -> Result<String, IrError> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "derived ordering obligations (N={}, k={})",
        cfg.n, cfg.k
    );
    for a in Algorithm::ALL {
        let obls = derive_obligations(a, cfg)?;
        let _ = writeln!(out, "\n{}", a.label());
        for o in obls {
            let _ = writeln!(
                out,
                "  {:<10} {:<5} >= {:<8} ({})",
                o.var,
                kind_name(o.kind),
                o.req.keyword(),
                o.why
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts each `(var, kind, req)` obligation of `algo` at the
    /// default (N=8, k=2) and at (16, 4).
    fn assert_pins(algo: Algorithm, pins: &[(&str, AccessKind, Req)]) {
        for (n, k) in [(8, 2), (16, 4)] {
            let cfg = Config {
                n,
                k,
                ..Config::default()
            };
            let obls = derive_obligations(algo, &cfg).expect("IR walks");
            for &(var, kind, req) in pins {
                assert_eq!(
                    obligation_for(&obls, var, kind).map(|o| o.req),
                    Some(req),
                    "{algo:?}: {var} {} at (N, k) = ({n}, {k}) in {obls:#?}",
                    kind_name(kind)
                );
            }
        }
    }

    #[test]
    fn fig2_gate_and_spin() {
        assert_pins(
            Algorithm::CcChain,
            &[
                // x is RMW'd and plainly read: full handshake.
                ("x", AccessKind::Rmw, Req::SeqCst),
                ("x", AccessKind::Read, Req::SeqCst),
                // q is written before the read of x (Dekker) and spun on.
                ("q", AccessKind::Write, Req::SeqCst),
                ("q", AccessKind::Read, Req::Acquire),
            ],
        );
    }

    #[test]
    fn fig6_gates_and_spin_words() {
        assert_pins(
            Algorithm::DsmChain,
            &[
                ("x", AccessKind::Rmw, Req::SeqCst),
                ("q", AccessKind::Rmw, Req::SeqCst),
                ("r", AccessKind::Rmw, Req::SeqCst),
                // p: spin word, published with a Dekker-paired write.
                ("p", AccessKind::Write, Req::SeqCst),
                ("p", AccessKind::Read, Req::Acquire),
            ],
        );
    }

    #[test]
    fn fastpath_counter_is_weakest_sharer() {
        // The fast-path root's x is a pure counter; the fig2 stages it
        // calls have a gate named x. The basename takes the weaker.
        assert_pins(
            Algorithm::CcFastPath,
            &[("x", AccessKind::Rmw, Req::AcqRel)],
        );
    }

    #[test]
    fn assignment_bits_counter() {
        // `rename.X` (basename `x`) is the test-and-set name array: a
        // counter with a reset store; the fig2 stage gates sharing the
        // basename keep the RMW at the weaker AcqRel.
        assert_pins(
            Algorithm::AssignmentCc,
            &[
                ("x", AccessKind::Rmw, Req::AcqRel),
                ("x", AccessKind::Write, Req::Release),
            ],
        );
    }

    #[test]
    fn satisfies_is_ranked_with_disjoint_siblings() {
        assert!(Req::SeqCst.satisfies(Req::Acquire));
        assert!(Req::AcqRel.satisfies(Req::Release));
        assert!(Req::Acquire.satisfies(Req::Acquire));
        assert!(!Req::Release.satisfies(Req::Acquire));
        assert!(!Req::Acquire.satisfies(Req::Release));
        assert!(!Req::Relaxed.satisfies(Req::Acquire));
        assert!(Req::Relaxed.satisfies(Req::Relaxed));
    }

    #[test]
    fn all_algorithms_derive() {
        for a in Algorithm::ALL {
            derive_obligations(a, &Config::default()).unwrap_or_else(|e| panic!("{a:?}: {e}"));
        }
    }

    /// Sharers of a basename that tie on strength (`DsmChain`'s `r`
    /// rmw) resolve to the same reason on every derivation.
    #[test]
    fn derivation_is_deterministic() {
        let cfg = Config::default();
        for a in Algorithm::ALL {
            let first = derive_obligations(a, &cfg).expect("IR walks");
            for _ in 1..16 {
                assert_eq!(
                    derive_obligations(a, &cfg).expect("IR walks"),
                    first,
                    "{a:?}"
                );
            }
        }
    }
}
