//! The pinned expected-findings matrix.
//!
//! Two halves:
//!
//! * **the real tree** — the workspace with its audit table produces
//!   zero findings; weakening any load-bearing site by one notch, in its
//!   source and in its audit row together, is caught; and the matrix
//!   that also relabels the site's role pins which sites the audit
//!   still catches then.
//! * **seeded defects** — for each lint pass, a small fixture workspace
//!   with one defect must produce a finding naming the exact file and
//!   line. This proves every pass actually fires; without it a refactor
//!   could quietly turn the whole lint into a no-op that still reports clean.
//!   The fixtures are self-contained, so editing the native, wait-free
//!   or store sources never requires an edit here.

use std::path::Path;

use kex_analyze::Config;
use kex_lint::{
    audit, extract_sites, facade_pass, load_audit_doc, obligation_pass, ordering_pass,
    parse_ordering_consts, prefetch_pass, render_text, spin_pass, Finding, Pass, Site, SourceFile,
    Workspace, AUDIT_DOC,
};

const ORD_RS: &str = "crates/util/src/ord.rs";
const FIG2: &str = "crates/core/src/native/fig2.rs";
const MCS: &str = "crates/core/src/native/mcs.rs";

/// A stand-in for `kex_util::ord`.
const CONSTS: &str = "use kex_util::sync::atomic::Ordering;\n\
    pub mod spin {\n\
    pub const ACQUIRE: Ordering = Ordering::Acquire;\n\
    pub const SEQ_CST: Ordering = Ordering::SeqCst;\n\
    }\n\
    pub mod publish {\n\
    pub const RELEASE: Ordering = Ordering::Release;\n\
    pub const SEQ_CST: Ordering = Ordering::SeqCst;\n\
    }\n\
    pub mod handshake {\n\
    pub const SEQ_CST: Ordering = Ordering::SeqCst;\n\
    }\n\
    pub mod counter {\n\
    pub const ACQ_REL: Ordering = Ordering::AcqRel;\n\
    pub const SEQ_CST: Ordering = Ordering::SeqCst;\n\
    }\n\
    pub mod private {\n\
    pub const RELAXED: Ordering = Ordering::Relaxed;\n\
    }\n";

/// A two-file native layer: a Figure-2-shaped stage (IR-linked through
/// `IR_MAP`'s `fig2.rs` entry) and an MCS-shaped hand-off.
const FIG2_SRC: &str = "impl CcStage {\n\
    fn acquire(&self) {\n\
    \x20   self.word.fetch_sub(1, ord::handshake::SEQ_CST);\n\
    \x20   let backoff = Backoff::new();\n\
    \x20   while self.word.load(ord::spin::ACQUIRE) >> 16 == mine {\n\
    \x20       backoff.snooze();\n\
    \x20   }\n\
    }\n\
    fn occupancy(&self) -> usize {\n\
    \x20   self.word.load(ord::handshake::SEQ_CST)\n\
    }\n\
    }\n";
const MCS_SRC: &str = "fn release(&self) {\n\
    \x20   me.next.load(ord::spin::ACQUIRE);\n\
    \x20   succ.locked.store(false, ord::publish::RELEASE);\n\
    }\n";

/// The audit table for the fixture layer.
const DOC: &str = "# fixture\n\
    | Site | Op | Implemented | Why | Verified by |\n\
    |---|---|---|---|---|\n\
    | `fig2.rs` | `word.fetch_sub(1)` | **SeqCst RMW** | gate | SB litmus |\n\
    | `fig2.rs` | `word.load` (spin) | Acquire load | statement 5 | MP litmus |\n\
    | `fig2.rs` | `word.load` | **SeqCst load** | gauge | SB litmus |\n\
    \n\
    | Site | Op | Implemented | Why | Verified by |\n\
    |---|---|---|---|---|\n\
    | `mcs.rs` | `next.load` | Acquire load | link | MP litmus |\n\
    | `mcs.rs` | `nodes[succ].locked.store(false)` | Release store | hand-off | MP litmus |\n";

fn workspace(files: &[(&str, &str)]) -> Workspace {
    Workspace {
        files: files
            .iter()
            .map(|(path, text)| SourceFile::new(*path, *text))
            .collect(),
    }
}

/// The fixture layer, with `from` replaced by `to` in `path`.
fn native_with(path: &str, from: &str, to: &str) -> Workspace {
    let files = [(ORD_RS, CONSTS), (FIG2, FIG2_SRC), (MCS, MCS_SRC)].map(|(p, text)| {
        if p == path {
            assert!(text.contains(from), "needle {from:?} not in {p}");
            SourceFile::new(p, text.replacen(from, to, 1))
        } else {
            SourceFile::new(p, text)
        }
    });
    Workspace {
        files: files.into(),
    }
}

fn native() -> Workspace {
    native_with(FIG2, "", "") // an empty needle replaces nothing
}

fn line_of(text: &str, needle: &str) -> usize {
    text.lines()
        .position(|l| l.contains(needle))
        .unwrap_or_else(|| panic!("{needle:?} not found"))
        + 1
}

fn listing(findings: &[Finding]) -> String {
    findings
        .iter()
        .map(|f| format!("  {f}"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[track_caller]
fn assert_finding(findings: &[Finding], pass: Pass, file: &str, line: usize, msg_part: &str) {
    assert!(
        findings.iter().any(|f| f.pass == pass
            && f.file == file
            && f.line == line
            && f.message.contains(msg_part)),
        "expected [{pass}] {file}:{line} containing {msg_part:?}; got:\n{}",
        listing(findings),
    );
}

// ---------------------------------------------------------------------------
// The real tree
// ---------------------------------------------------------------------------

fn real_tree() -> (Workspace, Option<String>) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    (
        Workspace::load(&root).expect("scan workspace"),
        load_audit_doc(&root),
    )
}

/// The gate: the audit of this checkout has no finding. Its text
/// report goes to stderr (`--nocapture` shows it).
#[test]
fn repo_is_clean() {
    let (ws, doc) = real_tree();
    let report = audit(&ws, doc.as_deref(), &Config::default());
    eprint!("{}", render_text(&report));
    assert!(
        report.clean(),
        "expected a clean audit; got:\n{}",
        listing(&report.findings),
    );
    assert!(
        report.sites >= 17,
        "site inventory collapsed: {}",
        report.sites
    );
}

/// One notch down the ordering lattice, per op shape.
fn weakened(ordering: &str, op: &str) -> Option<&'static str> {
    match ordering {
        "SeqCst" => Some(match op {
            "load" => "Acquire",
            "store" => "Release",
            _ => "AcqRel",
        }),
        "AcqRel" => Some("Acquire"),
        "Acquire" | "Release" => Some("Relaxed"),
        _ => None, // Relaxed: nothing left to weaken
    }
}

/// `text` with the first ordering keyword at or after `from` — the one
/// the lint reads out of an *Implemented* cell — replaced by `weaker`.
fn with_keyword(text: &str, from: usize, weaker: &str) -> String {
    let (at, keyword) = ["SeqCst", "AcqRel", "Acquire", "Release", "Relaxed"]
        .iter()
        .filter_map(|k| text[from..].find(k).map(|at| (from + at, *k)))
        .min()
        .expect("an ordering keyword");
    format!("{}{weaker}{}", &text[..at], &text[at + keyword.len()..])
}

/// `(file name, op, how many earlier sites of that op the file has)`:
/// a site named without a line number.
fn label(sites: &[Site], i: usize) -> (&str, &str, usize) {
    let site = &sites[i];
    let nth = sites[..i]
        .iter()
        .filter(|s| (&s.file, &s.op) == (&site.file, &site.op))
        .count();
    let name = site.file.rsplit('/').next().expect("file name");
    (name, site.op.as_str(), nth)
}

/// The mutation matrix, through the front door: for every non-Relaxed
/// site, rewrite its primary `ord::*` constant in the source text one
/// notch down, to `ord::<path>` with `path = token(site, exported)` —
/// `exported` is the `role::NAME` the real `kex_util::ord` has for the
/// weaker ordering (every ordering but `SeqCst` is in one role) —, *and*
/// the keyword of its audit row to match — the edit a real change would
/// make, which the table reconciliation accepts — and run the whole
/// audit. Every finding must be at that exact site and one `objection`
/// allows. Returns the number of weakened sites and the indexes of
/// those with a finding.
fn weakening_matrix(
    token: impl Fn(&Site, &str) -> String,
    objection: impl Fn(&Finding) -> bool,
) -> (usize, Vec<usize>) {
    let (ws, doc) = real_tree();
    let doc = doc.expect("audit table");
    let sites = extract_sites(&ws);
    let consts = parse_ordering_consts(ws.get(ORD_RS).expect("ord.rs")).0;
    let cfg = Config::default();
    let (mut weakened_sites, mut caught) = (0, Vec::new());
    for (i, site) in sites.iter().enumerate() {
        let Some(weaker) = weakened(&site.ordering, &site.op) else {
            continue;
        };
        weakened_sites += 1;
        let (exported, _) = consts
            .iter()
            .find(|(_, variant)| *variant == weaker)
            .expect("a constant per ordering");
        // The source: this site's own primary constant, found from its
        // method token on (sites sharing a line and an op are told
        // apart by their order).
        let same_file = || sites[..i].iter().filter(|s| s.file == site.file);
        let twins = same_file()
            .filter(|s| (s.line, &s.op) == (site.line, &site.op))
            .count();
        let file = ws.get(&site.file).expect("site file");
        let line_start: usize = file
            .text
            .split_inclusive('\n')
            .take(site.line - 1)
            .map(str::len)
            .sum();
        let call = format!(".{}(", site.op);
        let (token_at, _) = file.text[line_start..]
            .match_indices(&call)
            .nth(twins)
            .expect("method token");
        let old = format!("ord::{}", site.consts[0]);
        let at = line_start
            + token_at
            + file.text[line_start + token_at..]
                .find(&old)
                .expect("constant");
        let text = format!(
            "{}ord::{}{}",
            &file.text[..at],
            token(site, exported),
            &file.text[at + old.len()..]
        );
        let mut mutated = ws.clone();
        *mutated
            .files
            .iter_mut()
            .find(|f| f.path == site.file)
            .expect("site file") = SourceFile::new(site.file.as_str(), text);
        // The table: the row at this site's position among its file's.
        let row_start = format!("| `{}` |", label(&sites, i).0);
        let (row, _) = doc
            .match_indices(&row_start)
            .filter(|(at, _)| *at == 0 || doc.as_bytes()[at - 1] == b'\n')
            .nth(same_file().count())
            .expect("the site's row");
        let implemented = row + doc[row..].match_indices('|').nth(2).expect("cells").0;
        let doc = with_keyword(&doc, implemented, weaker);

        let at = format!("{}:{}", site.file, site.line);
        let after = extract_sites(&mutated);
        assert_eq!(after.len(), sites.len());
        for (j, (was, is)) in sites.iter().zip(&after).enumerate() {
            let expected = if j == i { weaker } else { &was.ordering };
            assert_eq!(
                is.ordering, expected,
                "mutating {at}: {}:{}",
                is.file, is.line
            );
        }
        let report = audit(&mutated, Some(&doc), &cfg);
        let at_site: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.file == site.file && f.line == site.line)
            .collect();
        assert_eq!(
            report.findings.len(),
            at_site.len(),
            "findings elsewhere: {}",
            listing(&report.findings)
        );
        assert!(
            at_site.iter().all(|f| objection(f)),
            "mutating {at}: an objection the edit does not warrant: {at_site:?}"
        );
        if !at_site.is_empty() {
            caught.push(i);
        }
    }
    (weakened_sites, caught)
}

/// A one-notch weakening that keeps the site's role names a constant
/// the role does not export: rustc refuses it, and so does the audit —
/// the ordering pass's unknown-constant finding, or the obligation
/// pass — at every one of the 14 sites, with no tolerated exceptions.
#[test]
fn weakening_any_load_bearing_site_is_caught() {
    let (weakened_sites, caught) = weakening_matrix(
        |site, exported| {
            let name = exported.rsplit("::").next().expect("constant name");
            format!("{}::{name}", site.role)
        },
        |f| {
            f.pass == Pass::Obligation
                || (f.pass == Pass::Ordering && f.message.contains("unknown constant"))
        },
    );
    println!("{} of {weakened_sites} weakened sites caught", caught.len());
    assert_eq!(caught.len(), weakened_sites);
    assert!(
        weakened_sites >= 12,
        "mutation matrix collapsed: only {weakened_sites} non-Relaxed sites"
    );
}

/// The sites a weakening that also moves the token into the role that
/// admits the weaker ordering — an edit that compiles — is still caught
/// at: by the role's op kind or by the IR's minimum. The other four
/// (the Figure-1 spin load and clear, the Figure-2 gauge load and the
/// renaming probe) are guarded against a relabel by the loom models and
/// TSan, as docs/MEMORY_ORDERING.md says.
const RELABEL_CAUGHT: &[(&str, &str, usize)] = &[
    ("fast_path.rs", "fetch_update", 0),
    ("fast_path.rs", "fetch_add", 0),
    ("fast_path.rs", "fetch_add", 1),
    ("fig2.rs", "fetch_sub", 0),
    ("fig2.rs", "fetch_add", 0),
    ("fig2.rs", "load", 0), // the statement-5 spin
    ("fig2.rs", "fetch_add", 1),
    ("fig2.rs", "fetch_update", 0),
    ("renaming.rs", "swap", 0), // `spin` is a load role
    ("renaming.rs", "store", 0),
];

#[test]
fn relabelling_a_weakened_site_is_caught_where_pinned() {
    let sites = extract_sites(&real_tree().0);
    let (weakened_sites, caught) = weakening_matrix(
        |_, exported| exported.to_string(),
        |f| f.pass == Pass::Obligation,
    );
    let caught: Vec<_> = caught.into_iter().map(|i| label(&sites, i)).collect();
    println!(
        "{} of {weakened_sites} relabelled sites caught: {caught:?}",
        caught.len()
    );
    for pinned in RELABEL_CAUGHT {
        assert!(
            caught.contains(pinned),
            "relabelling {pinned:?} one notch down passes the audit"
        );
    }
}

// ---------------------------------------------------------------------------
// Ordering-policy defects
// ---------------------------------------------------------------------------

#[test]
fn fixture_is_clean() {
    let ws = native();
    let findings = ordering_pass(&ws, Some(DOC));
    assert!(findings.is_empty(), "{}", listing(&findings));
    assert!(spin_pass(&ws).is_empty() && facade_pass(&ws).is_empty());
    let obligations = obligation_pass(&extract_sites(&ws), &Config::default());
    assert!(obligations.is_empty(), "{}", listing(&obligations));
}

#[test]
fn flipped_site_constant_is_caught() {
    // Same line: only the ordering constant changes.
    let spin = "self.word.load(ord::spin::ACQUIRE)";
    let ws = native_with(FIG2, spin, "self.word.load(ord::spin::SEQ_CST)");
    let findings = ordering_pass(&ws, Some(DOC));
    assert_finding(
        &findings,
        Pass::Ordering,
        FIG2,
        line_of(FIG2_SRC, spin),
        "audit table",
    );
}

#[test]
fn flipped_constant_definition_is_caught_at_every_site() {
    let ws = native_with(
        ORD_RS,
        "const ACQUIRE: Ordering = Ordering::Acquire;",
        "const ACQUIRE: Ordering = Ordering::Relaxed;",
    );
    let findings = ordering_pass(&ws, Some(DOC));
    for (file, text, site) in [
        (FIG2, FIG2_SRC, "self.word.load(ord::spin::ACQUIRE)"),
        (MCS, MCS_SRC, "me.next.load(ord::spin::ACQUIRE)"),
    ] {
        assert_finding(
            &findings,
            Pass::Ordering,
            file,
            line_of(text, site),
            "resolves to `Relaxed`",
        );
    }
}

#[test]
fn literal_ordering_is_caught_in_every_audited_layer() {
    let literal = "fn f(&self) {\n    self.len.fetch_add(1, Ordering::SeqCst);\n}\n";
    let ws = workspace(&[
        // The role modules themselves spell `Ordering::*`.
        (ORD_RS, CONSTS),
        (FIG2, literal),
        ("crates/waitfree/src/counter.rs", literal),
        ("crates/store/src/object.rs", literal),
    ]);
    let findings = ordering_pass(&ws, Some(""));
    for (file, layer) in [
        (FIG2, "audited native layer"),
        ("crates/waitfree/src/counter.rs", "audited wait-free layer"),
        ("crates/store/src/object.rs", "audited store layer"),
    ] {
        assert_finding(&findings, Pass::Ordering, file, 2, layer);
    }
    assert_eq!(findings.len(), 3, "{}", listing(&findings));
}

/// The positional matcher: per file, the i-th row documents the i-th
/// site in source order.
#[test]
fn audit_table_is_matched_to_the_scan_by_position() {
    let swap = "self.word.swap(0, ord::handshake::SEQ_CST);\n    let backoff";
    let gauge_row = "| `fig2.rs` | `word.load` | **SeqCst load** | gauge | SB litmus |\n";
    let spin_row = "| `fig2.rs` | `word.load` (spin) | Acquire load | statement 5 | MP litmus |\n";
    let gate_row = "| `fig2.rs` | `word.fetch_sub(1)` | **SeqCst RMW** | gate | SB litmus |\n";
    let doc_with = |from: &str, to: &str| {
        assert!(DOC.contains(from));
        DOC.replacen(from, to, 1)
    };
    // (workspace, audit table, file, line, message)
    let cases = [
        (
            "a site added mid-file without a row, at its current line",
            native_with(FIG2, "let backoff", swap),
            DOC.to_string(),
            FIG2,
            line_of(FIG2_SRC, "let backoff"),
            "documents a `load`, but the site here is `word.swap`",
        ),
        (
            "a site added at the end of its file without a row",
            native_with(
                MCS,
                "RELEASE);\n",
                "RELEASE);\n    me.next.store(NIL, ord::private::RELAXED);\n",
            ),
            DOC.to_string(),
            MCS,
            line_of(MCS_SRC, "RELEASE") + 1,
            "no docs/MEMORY_ORDERING.md audit row",
        ),
        (
            "a row whose site is gone",
            native_with(FIG2, "self.word.load(ord::handshake::SEQ_CST)", "0"),
            DOC.to_string(),
            AUDIT_DOC,
            line_of(DOC, "gauge"),
            "rows outnumber its atomic sites",
        ),
        (
            "two rows swapped",
            native(),
            doc_with(
                &format!("{gate_row}{spin_row}"),
                &format!("{spin_row}{gate_row}"),
            ),
            FIG2,
            line_of(FIG2_SRC, "fetch_sub"),
            "must list its sites in source order",
        ),
        (
            "a wrong ordering keyword",
            native(),
            doc_with(
                gauge_row,
                "| `fig2.rs` | `word.load` | Acquire load | gauge | SB litmus |\n",
            ),
            FIG2,
            line_of(FIG2_SRC, "self.word.load(ord::handshake::SEQ_CST)"),
            "says `Acquire` but `ord::handshake::SEQ_CST` resolves to `SeqCst`",
        ),
        (
            "a row with no ordering keyword",
            native(),
            doc_with(
                gauge_row,
                "| `fig2.rs` | `word.load` | strong | gauge | - |\n",
            ),
            AUDIT_DOC,
            line_of(DOC, "gauge"),
            "no recognizable ordering keyword",
        ),
        (
            "a stray file:line in prose",
            native(),
            format!("{DOC}\nThe spin at `fig2.rs:81` pairs with the release.\n"),
            AUDIT_DOC,
            DOC.lines().count() + 2,
            "line-number reference `fig2.rs:81`",
        ),
        (
            "a stray bare line in prose",
            native(),
            format!("{DOC}\nPairs with `:90`.\n"),
            AUDIT_DOC,
            DOC.lines().count() + 2,
            "line-number reference `:90`",
        ),
    ];
    for (what, ws, doc, file, line, message) in cases {
        println!("case: {what}");
        let findings = ordering_pass(&ws, Some(&doc));
        assert_finding(&findings, Pass::Ordering, file, line, message);
    }
    let missing = ordering_pass(&native(), None);
    assert_finding(
        &missing,
        Pass::Ordering,
        AUDIT_DOC,
        0,
        "audit table missing",
    );
}

/// The inventory is complete by construction: every `ord::*` token in a
/// native site file is a top-level argument of a site the scan extracts.
/// An ordering that reaches an atomic any other way is reported where it
/// is spelled, though the table still matches every site the scan finds.
#[test]
fn ordering_outside_any_site_is_caught() {
    let release = "    succ.locked.store(false, ord::publish::RELEASE);\n";
    for (what, defect, needle) in [
        (
            "an atomic method the scan does not list",
            "    me.next.fetch_nand(1, ord::counter::ACQ_REL);\n",
            "fetch_nand",
        ),
        (
            "an ordering passed through a binding",
            "    let o = ord::spin::ACQUIRE;\n    me.next.load(o);\n",
            "let o",
        ),
    ] {
        println!("case: {what}");
        let ws = native_with(MCS, release, &format!("{release}{defect}"));
        let text = &ws.get(MCS).expect("fixture file").text;
        let findings = ordering_pass(&ws, Some(DOC));
        assert_finding(
            &findings,
            Pass::Ordering,
            MCS,
            line_of(text, needle),
            "not an argument of an atomic call",
        );
        assert_eq!(findings.len(), 1, "{}", listing(&findings));
    }
}

// ---------------------------------------------------------------------------
// Ordering-obligation defects
// ---------------------------------------------------------------------------

#[test]
fn relaxed_on_obligated_site_is_hard_error() {
    // The gauge load of the word is `x` to the IR, which derives a
    // SeqCst obligation for it (Dekker pair with `q`), so a Relaxed
    // claim is the worst case — the pass judges the source alone, so
    // no table row can talk it round.
    let ws = native_with(
        FIG2,
        "self.word.load(ord::handshake::SEQ_CST)",
        "self.word.load(ord::private::RELAXED)",
    );
    let findings = obligation_pass(&extract_sites(&ws), &Config::default());
    assert_finding(
        &findings,
        Pass::Obligation,
        FIG2,
        line_of(FIG2_SRC, "self.word.load(ord::handshake::SEQ_CST)"),
        "a Relaxed claim on an obligated site is a hard error",
    );
}

#[test]
fn ir_alias_to_a_missing_variable_is_caught() {
    let mut sites = extract_sites(&native());
    let site = sites
        .iter_mut()
        .find(|s| s.ir.is_some())
        .expect("the fig2 fixture is IR-linked");
    site.ir = Some("no_such_var");
    let (file, line) = (site.file.clone(), site.line);
    let findings = obligation_pass(&sites, &Config::default());
    assert_finding(
        &findings,
        Pass::Obligation,
        &file,
        line,
        "declares no such variable",
    );
}

// ---------------------------------------------------------------------------
// Facade and spin defects
// ---------------------------------------------------------------------------

#[test]
fn facade_bypass_is_caught() {
    let import = "use std::sync::atomic::AtomicUsize as Direct;\n";
    let gated = format!("fn hot() {{}}\n#[cfg(test)]\nmod tests {{\n    {import}}}\n");
    let ws = workspace(&[
        ("crates/core/src/native/tree.rs", import),
        ("crates/store/src/shard.rs", import),
        // loom still compiles test modules, so the facade applies there
        // too...
        ("crates/core/src/native/assignment.rs", gated.as_str()),
        // ...but not to a mention in a comment, or to the facade itself.
        (
            "crates/core/src/native/raw.rs",
            "// std::sync::atomic is banned here\n",
        ),
        ("crates/util/src/sync.rs", import),
    ]);
    let findings = facade_pass(&ws);
    for (file, line) in [
        ("crates/core/src/native/tree.rs", 1),
        ("crates/store/src/shard.rs", 1),
        ("crates/core/src/native/assignment.rs", 4),
    ] {
        assert_finding(
            &findings,
            Pass::Facade,
            file,
            line,
            "bypasses the `kex_util::sync` facade",
        );
    }
    assert_eq!(findings.len(), 3, "{}", listing(&findings));
}

#[test]
fn raw_spin_loop_is_caught() {
    let ws = native_with(FIG2, "backoff.snooze();", "");
    let findings = spin_pass(&ws);
    assert_finding(
        &findings,
        Pass::Spin,
        FIG2,
        line_of(FIG2_SRC, "while self.word.load"),
        "without facade backoff",
    );
}

// ---------------------------------------------------------------------------
// Prefetch defects
// ---------------------------------------------------------------------------

const SHARD: &str = "crates/store/src/shard.rs";

/// The store's two puts: the hint, then admission.
const SHARD_SRC: &str = "impl<O: KvObject> Shard<O> {\n\
    \x20   pub fn put(&self, p: usize, key: u64, value: u64) -> Result<(), PutError> {\n\
    \x20       self.res.object_unguarded().prefetch(key);\n\
    \x20       let journaled = |obj: &O, name| self.journaled_put(obj, name, key, value);\n\
    \x20       let result = self.res.with(p, journaled);\n\
    \x20       result\n\
    \x20   }\n\
    \x20   pub fn try_put(&self, p: usize, key: u64, value: u64) -> Option<Result<(), PutError>> {\n\
    \x20       self.res.object_unguarded().prefetch(key);\n\
    \x20       let journaled = |obj: &O, name| self.journaled_put(obj, name, key, value);\n\
    \x20       self.tried(p, self.res.try_with(p, journaled))\n\
    \x20   }\n\
    }\n";

#[test]
fn a_put_that_does_not_hint_before_admission_is_caught() {
    assert!(prefetch_pass(&workspace(&[(SHARD, SHARD_SRC)])).is_empty());
    let hint = "        self.res.object_unguarded().prefetch(key);\n";
    let entry = "        let result = self.res.with(p, journaled);\n";
    let closure = "self.journaled_put(obj, name, key, value);";
    let unhinted = SHARD_SRC.replacen(hint, "", 1);
    let try_at = SHARD_SRC.find("    pub fn try_put").unwrap();
    for (fun, defect, src) in [
        ("put", "removed", unhinted.clone()),
        (
            "put",
            "after `with(`",
            unhinted.replacen(entry, &format!("{entry}{hint}"), 1),
        ),
        (
            "put",
            "inside the closure",
            unhinted.replacen(
                closure,
                "{ obj.prefetch(key); self.journaled_put(obj, name, key, value) };",
                1,
            ),
        ),
        (
            "try_put",
            "removed",
            format!(
                "{}{}",
                &SHARD_SRC[..try_at],
                SHARD_SRC[try_at..].replacen(hint, "", 1)
            ),
        ),
    ] {
        let findings = prefetch_pass(&workspace(&[(SHARD, &src)]));
        let line = line_of(&src, &format!("pub fn {fun}("));
        let message = format!("`Shard::{fun}` must call `….prefetch(key);`");
        assert_finding(&findings, Pass::Prefetch, SHARD, line, &message);
        assert_eq!(
            findings.len(),
            1,
            "{fun}, hint {defect}: {}",
            listing(&findings)
        );
    }
}

const UNIVERSAL: &str = "crates/waitfree/src/universal.rs";

/// `Universal::apply` in brief: the next node's hint, then the idle store.
const UNIVERSAL_SRC: &str = "impl<S: Sequential> Universal<S> {\n\
    \x20   pub fn apply(&self, me: usize, op: S::Op) -> S::Resp {\n\
    \x20       let name = &self.names[me];\n\
    \x20       unsafe {\n\
    \x20           let local = &mut *name.local.get();\n\
    \x20           let mine = local.take_spare().unwrap_or_else(|| Self::alloc(None, POOLED));\n\
    \x20           let (pos, resp) = self.pass(me, mine, op);\n\
    \x20           self.reclaim(me, local);\n\
    \x20           if let Some(next) = local.next_spare() {\n\
    \x20               kex_util::prefetch_write(&*next);\n\
    \x20           }\n\
    \x20           name.resume\n\
    \x20               .store(pos << TAG_BITS | IDLE, ord::handshake::SEQ_CST);\n\
    \x20           resp\n\
    \x20       }\n\
    \x20   }\n\
    }\n";

#[test]
fn an_op_that_does_not_hint_its_next_node_before_going_idle_is_caught() {
    assert!(prefetch_pass(&workspace(&[(UNIVERSAL, UNIVERSAL_SRC)])).is_empty());
    let hint = "            if let Some(next) = local.next_spare() {\n\
        \x20               kex_util::prefetch_write(&*next);\n\
        \x20           }\n";
    let idle = "            name.resume\n\
        \x20               .store(pos << TAG_BITS | IDLE, ord::handshake::SEQ_CST);\n";
    let unhinted = UNIVERSAL_SRC.replacen(hint, "", 1);
    for (defect, src) in [
        ("deleted", unhinted.clone()),
        (
            "after the idle store",
            unhinted.replacen(idle, &format!("{idle}{hint}"), 1),
        ),
        (
            "inside a closure",
            unhinted.replacen(
                idle,
                &format!(
                    "            local.next_spare().map(|next| kex_util::prefetch_write(&*next));\n{idle}"
                ),
                1,
            ),
        ),
    ] {
        let findings = prefetch_pass(&workspace(&[(UNIVERSAL, &src)]));
        let line = line_of(&src, "pub fn apply(");
        let message = "`Universal::apply` must call `prefetch_write` on `next_spare()`";
        assert_finding(&findings, Pass::Prefetch, UNIVERSAL, line, message);
        assert_eq!(findings.len(), 1, "hint {defect}: {}", listing(&findings));
    }
}
