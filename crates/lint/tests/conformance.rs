//! The pinned expected-findings matrix.
//!
//! Two halves:
//!
//! * **clean baseline** — the real workspace, with its committed
//!   manifest and audit table, produces zero findings, and the
//!   committed manifest is byte-identical to what `--write-manifest`
//!   would regenerate.
//! * **mutation matrix** — for each lint pass, a surgical mutation of a
//!   source file or companion artifact must produce a finding naming
//!   the exact file and line. This proves every pass actually fires;
//!   without it a refactor could quietly turn the whole lint into a
//!   no-op that still exits 0.
//!
//! Mutations are applied to in-memory copies ([`Workspace::replace_in_file`]
//! and friends); the checkout is never touched.

use std::path::{Path, PathBuf};

use kex_analyze::Config;
use kex_lint::{
    audit, drift_pass, facade_pass, generate_manifest, obligation_pass, ordering_pass,
    parse_manifest, spin_pass, Finding, Inputs, Pass, Workspace, MANIFEST_SCHEMA,
};
use kex_obs::json::{self, Json};

const FIG2: &str = "crates/core/src/native/fig2.rs";
const ORDERING: &str = "crates/core/src/native/ordering.rs";

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn setup() -> (Workspace, Inputs) {
    let root = root();
    (
        Workspace::load(&root).expect("scan workspace"),
        Inputs::load(&root),
    )
}

fn line_of(ws: &Workspace, path: &str, needle: &str) -> usize {
    ws.get(path)
        .unwrap_or_else(|| panic!("no {path}"))
        .text
        .lines()
        .position(|l| l.contains(needle))
        .unwrap_or_else(|| panic!("{needle:?} not found in {path}"))
        + 1
}

#[track_caller]
fn assert_finding(findings: &[Finding], pass: Pass, file: &str, line: usize, msg_part: &str) {
    assert!(
        findings.iter().any(|f| f.pass == pass
            && f.file == file
            && f.line == line
            && f.message.contains(msg_part)),
        "expected [{pass}] {file}:{line} containing {msg_part:?}; got:\n{}",
        findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n"),
    );
}

// ---------------------------------------------------------------------------
// Clean baseline
// ---------------------------------------------------------------------------

#[test]
fn repo_is_clean() {
    let (ws, inputs) = setup();
    let report = audit(&ws, &inputs, &Config::default());
    assert!(
        report.clean(),
        "expected a clean audit; got:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n"),
    );
    assert!(
        report.sites >= 60,
        "site inventory collapsed: {}",
        report.sites
    );
}

#[test]
fn committed_manifest_is_fresh() {
    let (ws, inputs) = setup();
    let regenerated = generate_manifest(&ws).expect("generate");
    assert!(
        regenerated.contains(&format!("\"schema\": \"{MANIFEST_SCHEMA}\"")),
        "regenerated manifest must carry the current schema"
    );
    assert_eq!(
        inputs.manifest.as_deref(),
        Some(regenerated.as_str()),
        "docs/ordering_sites.json is stale — rerun `cargo run -p kex-lint --bin lint -- --write-manifest`",
    );
}

// ---------------------------------------------------------------------------
// Ordering-policy mutations
// ---------------------------------------------------------------------------

#[test]
fn flipped_site_constant_is_caught() {
    let (ws, inputs) = setup();
    // Same line, same length: only the ordering constant changes.
    let mutated = ws.replace_in_file(
        FIG2,
        "self.word.load(ord::ACQUIRE) >> X_BITS == mine",
        "self.word.load(ord::SEQ_CST) >> X_BITS == mine",
    );
    let line = line_of(&mutated, FIG2, "self.word.load(ord::SEQ_CST) >>");
    let findings = ordering_pass(&mutated, inputs.manifest.as_deref(), inputs.doc.as_deref());
    assert_finding(&findings, Pass::Ordering, FIG2, line, "manifest drift");
    assert_finding(&findings, Pass::Ordering, FIG2, line, "audit table");
}

#[test]
fn flipped_constant_definition_is_caught_at_every_site() {
    let (ws, inputs) = setup();
    let mutated = ws.replace_in_file(
        ORDERING,
        "pub(crate) const ACQUIRE: Ordering = Ordering::Acquire;",
        "pub(crate) const ACQUIRE: Ordering = Ordering::Relaxed;",
    );
    let findings = ordering_pass(&mutated, inputs.manifest.as_deref(), inputs.doc.as_deref());
    let line = line_of(&ws, FIG2, "self.word.load(ord::ACQUIRE)");
    assert_finding(
        &findings,
        Pass::Ordering,
        FIG2,
        line,
        "resolves to `Relaxed`",
    );
    // Every ACQUIRE site drifts, not just fig2's spin.
    assert!(
        findings.iter().filter(|f| f.pass == Pass::Ordering).count() >= 8,
        "a constant-definition flip must fan out to all its sites: {findings:?}"
    );
}

#[test]
fn literal_ordering_in_native_code_is_caught() {
    let (ws, inputs) = setup();
    let mutated = ws.replace_in_file(
        FIG2,
        "self.word.load(ord::ACQUIRE)",
        "self.word.load(Ordering::Acquire)",
    );
    let line = line_of(&mutated, FIG2, "Ordering::Acquire)");
    let findings = ordering_pass(&mutated, inputs.manifest.as_deref(), inputs.doc.as_deref());
    assert_finding(
        &findings,
        Pass::Ordering,
        FIG2,
        line,
        "literal `Ordering::*`",
    );
}

#[test]
fn audit_table_drift_is_caught() {
    let (ws, inputs) = setup();
    let doc = inputs
        .doc
        .as_deref()
        .expect("docs/MEMORY_ORDERING.md present")
        .replacen(
            "`word.load` | **SeqCst load**",
            "`word.load` | **Acquire load**",
            1,
        );
    let line = line_of(&ws, FIG2, "self.word.load(ord::SEQ_CST)");
    let findings = ordering_pass(&ws, inputs.manifest.as_deref(), Some(&doc));
    assert_finding(&findings, Pass::Ordering, FIG2, line, "audit table");
}

#[test]
fn deleted_source_site_leaves_stale_manifest_row() {
    let (ws, inputs) = setup();
    // Empty the release: its one site vanishes from the source but
    // stays in the manifest.
    let release = "self.word.fetch_add(EPOCH + 1, ord::SEQ_CST);";
    let mutated = ws.replace_in_file(FIG2, release, "");
    let line = line_of(&ws, FIG2, release);
    let findings = ordering_pass(&mutated, inputs.manifest.as_deref(), inputs.doc.as_deref());
    assert_finding(
        &findings,
        Pass::Ordering,
        FIG2,
        line,
        "no longer exists in the source",
    );
}

#[test]
fn literal_ordering_in_waitfree_code_is_caught() {
    let (ws, inputs) = setup();
    let counter = "crates/waitfree/src/counter.rs";
    let mutated = ws.replace_in_file(
        counter,
        "fetch_add(delta, SEQ_CST)",
        "fetch_add(delta, Ordering::SeqCst)",
    );
    let line = line_of(&mutated, counter, "Ordering::SeqCst)");
    let findings = ordering_pass(&mutated, inputs.manifest.as_deref(), inputs.doc.as_deref());
    assert_finding(
        &findings,
        Pass::Ordering,
        counter,
        line,
        "audited wait-free layer",
    );
}

#[test]
fn literal_ordering_in_store_code_is_caught() {
    let (ws, inputs) = setup();
    let object = "crates/store/src/object.rs";
    let mutated = ws.replace_in_file(
        object,
        "self.len.fetch_add(1, SEQ_CST)",
        "self.len.fetch_add(1, Ordering::SeqCst)",
    );
    let line = line_of(&mutated, object, "Ordering::SeqCst)");
    let findings = ordering_pass(&mutated, inputs.manifest.as_deref(), inputs.doc.as_deref());
    assert_finding(
        &findings,
        Pass::Ordering,
        object,
        line,
        "audited store layer",
    );
}

#[test]
fn facade_bypass_in_store_code_is_caught() {
    let (ws, _) = setup();
    let shard = "crates/store/src/shard.rs";
    let mutated = ws.append_to_file(shard, "\nuse std::sync::atomic::AtomicU64 as Direct;\n");
    let line = line_of(
        &mutated,
        shard,
        "use std::sync::atomic::AtomicU64 as Direct;",
    );
    let findings = facade_pass(&mutated);
    assert_finding(
        &findings,
        Pass::Facade,
        shard,
        line,
        "bypasses the `kex_util::sync` facade",
    );
}

// ---------------------------------------------------------------------------
// Ordering-obligation mutations
// ---------------------------------------------------------------------------

/// Rewrites one manifest site's string field in a parsed JSON copy.
fn with_site_field(manifest: &str, file: &str, line: usize, field: &str, value: &str) -> String {
    let mut doc = json::parse(manifest).expect("parse manifest");
    let Json::Obj(pairs) = &mut doc else {
        panic!("manifest is not an object")
    };
    let Some((_, Json::Arr(sites))) = pairs.iter_mut().find(|(k, _)| k == "sites") else {
        panic!("manifest has no sites")
    };
    let site = sites
        .iter_mut()
        .find(|s| {
            s.get("file").and_then(Json::as_str) == Some(file)
                && s.get("line").and_then(Json::as_u64) == Some(line as u64)
        })
        .unwrap_or_else(|| panic!("no manifest site {file}:{line}"));
    let Json::Obj(pairs) = site else {
        unreachable!()
    };
    let (_, v) = pairs
        .iter_mut()
        .find(|(k, _)| k == field)
        .unwrap_or_else(|| panic!("{file}:{line} has no `{field}`"));
    *v = Json::Str(value.to_string());
    doc.to_string_pretty()
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

/// The full mutation matrix: weakening any non-Relaxed manifest site by
/// one notch must produce an obligation finding at that exact site —
/// except the two registry sites whose SeqCst is conservatism, not a
/// proof obligation (their tolerance is itself pinned here: if the
/// exception list drifts, this test fails).
#[test]
fn weakening_any_load_bearing_site_is_caught() {
    let (_, inputs) = setup();
    let manifest = inputs.manifest.as_deref().expect("manifest present");
    let entries = parse_manifest(manifest).expect("parse");
    let tolerated = [
        ("crates/core/src/native/registry.rs", "swap"),
        ("crates/core/src/native/registry.rs", "store"),
    ];
    let cfg = Config::default();
    let mut weakened_sites = 0;
    for entry in &entries {
        let Some(weaker) = weakened(&entry.ordering, &entry.op) else {
            continue;
        };
        weakened_sites += 1;
        let mutated = with_site_field(manifest, &entry.file, entry.line, "ordering", weaker);
        let findings = obligation_pass(Some(&mutated), &cfg);
        let at_site = findings
            .iter()
            .filter(|f| f.pass == Pass::Obligation && f.file == entry.file && f.line == entry.line)
            .count();
        if tolerated.contains(&(entry.file.as_str(), entry.op.as_str())) {
            assert_eq!(
                at_site, 0,
                "{}:{} ({} {} -> {weaker}) is in the tolerated set but fired: {findings:?}",
                entry.file, entry.line, entry.op, entry.ordering,
            );
        } else {
            assert!(
                at_site > 0,
                "weakening {}:{} ({} {} -> {weaker}) escaped the obligation pass",
                entry.file,
                entry.line,
                entry.op,
                entry.ordering,
            );
        }
    }
    assert!(
        weakened_sites >= 50,
        "mutation matrix collapsed: only {weakened_sites} non-Relaxed sites"
    );
}

#[test]
fn relaxed_on_obligated_site_is_hard_error() {
    let (ws, inputs) = setup();
    let manifest = inputs.manifest.as_deref().unwrap();
    // fig2's gauge load of the word, `x` to the IR, which derives a
    // SeqCst obligation for it (Dekker pair with `q`), so a Relaxed
    // claim is the worst case.
    let line = line_of(&ws, FIG2, "self.word.load(ord::SEQ_CST)");
    let mutated = with_site_field(manifest, FIG2, line, "ordering", "Relaxed");
    let findings = obligation_pass(Some(&mutated), &Config::default());
    assert_finding(
        &findings,
        Pass::Obligation,
        FIG2,
        line,
        "a Relaxed claim on an obligated site is a hard error",
    );
}

#[test]
fn manifest_role_drift_is_caught() {
    let (ws, inputs) = setup();
    let manifest = inputs.manifest.as_deref().unwrap();
    let line = line_of(&ws, FIG2, "self.word.load(ord::ACQUIRE)");
    let mutated = with_site_field(manifest, FIG2, line, "role", "private");
    let findings = obligation_pass(Some(&mutated), &Config::default());
    assert_finding(
        &findings,
        Pass::Obligation,
        FIG2,
        line,
        "does not match the role `spin`",
    );
}

#[test]
fn unknown_manifest_role_is_caught() {
    let (ws, inputs) = setup();
    let manifest = inputs.manifest.as_deref().unwrap();
    let line = line_of(&ws, FIG2, "self.word.load(ord::ACQUIRE)");
    let mutated = with_site_field(manifest, FIG2, line, "role", "frobnicate");
    let findings = obligation_pass(Some(&mutated), &Config::default());
    assert_finding(&findings, Pass::Obligation, FIG2, line, "is not one of");
}

// ---------------------------------------------------------------------------
// Facade and spin mutations
// ---------------------------------------------------------------------------

#[test]
fn facade_bypass_is_caught() {
    let (ws, _) = setup();
    let tree = "crates/core/src/native/tree.rs";
    let mutated = ws.append_to_file(tree, "\nuse std::sync::atomic::AtomicUsize as Direct;\n");
    let line = line_of(
        &mutated,
        tree,
        "use std::sync::atomic::AtomicUsize as Direct;",
    );
    let findings = facade_pass(&mutated);
    assert_finding(
        &findings,
        Pass::Facade,
        tree,
        line,
        "bypasses the `kex_util::sync` facade",
    );
}

#[test]
fn facade_lint_ignores_comments_and_test_scaffolding_keeps_failing() {
    let (ws, _) = setup();
    // A comment mention must NOT fire...
    let tree = "crates/core/src/native/tree.rs";
    let commented = ws.append_to_file(tree, "\n// std::sync::atomic is banned here\n");
    assert!(facade_pass(&commented).is_empty());
    // ...but a cfg(test) import must: loom still compiles test modules,
    // so the facade applies there too (the PR-5 satellite fixes).
    let mutated = ws.replace_in_file(
        "crates/core/src/native/assignment.rs",
        "use kex_util::sync::atomic::{AtomicUsize, Ordering::SeqCst};",
        "use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};",
    );
    let findings = facade_pass(&mutated);
    let line = line_of(
        &mutated,
        "crates/core/src/native/assignment.rs",
        "use std::sync::atomic",
    );
    assert_finding(
        &findings,
        Pass::Facade,
        "crates/core/src/native/assignment.rs",
        line,
        "bypasses",
    );
}

#[test]
fn raw_spin_loop_is_caught() {
    let (ws, _) = setup();
    let mutated = ws.replace_in_file(
        FIG2,
        "let backoff = Backoff::new();\n                while self.word.load(ord::ACQUIRE) >> X_BITS == mine {\n                    backoff.snooze();\n                }",
        "while self.word.load(ord::ACQUIRE) >> X_BITS == mine {\n                }",
    );
    let line = line_of(&mutated, FIG2, "while self.word.load(ord::ACQUIRE)");
    let findings = spin_pass(&mutated);
    assert_finding(&findings, Pass::Spin, FIG2, line, "without facade backoff");
}

// ---------------------------------------------------------------------------
// Cross-layer drift mutations
// ---------------------------------------------------------------------------

#[test]
fn ir_variable_drift_is_caught() {
    let (_, inputs) = setup();
    let manifest = inputs.manifest.as_deref().unwrap();
    let mut doc = json::parse(manifest).unwrap();
    let sites = match doc.get("sites") {
        Some(Json::Arr(_)) => match &mut doc {
            Json::Obj(pairs) => match pairs.iter_mut().find(|(k, _)| k == "sites") {
                Some((_, Json::Arr(sites))) => sites,
                _ => unreachable!(),
            },
            _ => unreachable!(),
        },
        _ => panic!("manifest has no sites"),
    };
    let (file, line) = {
        let site = sites
            .iter_mut()
            .find(|s| s.get("ir").is_some_and(|ir| ir.as_str().is_some()))
            .expect("at least one IR-linked site");
        match site {
            Json::Obj(pairs) => {
                for (k, v) in pairs.iter_mut() {
                    if k == "ir" {
                        *v = Json::Str("no_such_var".into());
                    }
                }
            }
            _ => unreachable!(),
        }
        (
            site.get("file").and_then(Json::as_str).unwrap().to_string(),
            site.get("line").and_then(Json::as_u64).unwrap() as usize,
        )
    };
    let findings = drift_pass(Some(&doc.to_string_pretty()), &Config::default());
    assert_finding(
        &findings,
        Pass::Drift,
        &file,
        line,
        "declares no such variable",
    );
}
