//! Source-level conformance lints for the kex workspace.
//!
//! The repository's correctness story leans on three *conventions* that
//! rustc cannot enforce:
//!
//! 1. **Ordering policy** — every atomic call site in
//!    `crates/core/src/native/` names its memory ordering through the
//!    audited constants in `kex_core::native::ordering` (never a literal
//!    `Ordering::*`), and every site has a justification row in
//!    `docs/MEMORY_ORDERING.md`.
//! 2. **Facade discipline** — library code reaches atomics, spin hints
//!    and thread spawning only through the `kex_util::sync` facade, so a
//!    single `--cfg loom` (or `--features obs`) rebuild swaps every call
//!    site onto the model-checked / instrumented backend. A direct
//!    `std::sync::atomic` import silently opts a site out of both.
//! 3. **Spin etiquette** — native busy-wait loops back off through
//!    `kex_util::Backoff` (which routes to the facade's spin hint), so
//!    the loom build can bound them and the contended benchmarks measure
//!    what production runs.
//!
//! `kex-lint` is a dependency-free, token-level analyzer over the
//! workspace's own sources that machine-checks all three. The source
//! scan *is* the site inventory: [`extract_sites`] lists every audited
//! atomic call with the ordering its constant resolves to, the `role`
//! (spin / publish / handshake / counter / private) its audit row
//! states and the kex-analyze IR variable its receiver models, and
//! nothing stores a copy of that list. The audit table's rows are
//! matched to it by position — per file, in source order — so the table
//! cites no line numbers. The inventory is complete by construction:
//! every `ord::*` token in a native site file must be a top-level
//! argument of a call the scan extracts, so an ordering cannot reach an
//! atomic through a method the scan does not know or through a `let`
//! binding. On top of the
//! inventory sits the **ordering-obligation pass**: the ordering the
//! source passes must both fit the policy of the role the row states and
//! satisfy the per-variable minimum the kex-analyze IR derives — so
//! relaxing a publish or handshake participant is a hard error even
//! with the *Implemented* keyword of its table row rewritten to match.
//!
//! The scanner is deliberately *token-level*, not a Rust parser: it
//! masks comments, strings and char literals (preserving byte offsets
//! and line numbers), tracks `#[cfg(test)]` brace regions, and pattern
//! matches the remainder. That is exactly enough for the four passes and
//! keeps the crate free of syn-style dependencies (the workspace builds
//! fully offline).
//!
//! Findings can be suppressed per line with a trailing directive
//! comment, e.g. `// kex-lint: allow(spin): <reason>`; the directive
//! shares the line with the flagged construct (or, for a spin loop,
//! sits anywhere inside it).

#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use kex_analyze::Config;
use kex_core::sim::build::Algorithm;
use kex_obs::json::Json;

/// Schema identifier of the JSON findings report (v2: four passes, no
/// `counts.drift`).
pub const FINDINGS_SCHEMA: &str = "kex-lint/findings/v2";

/// Repo-relative directory roots loaded into a [`Workspace`].
///
/// `crates/loom` and `crates/obs` are the facade's alternative backends
/// (they *implement* the abstraction and legitimately touch std), and
/// `crates/bench` is a host-side harness that is explicitly allowed
/// `std::hint::black_box` and friends — none of the three is scanned.
const SCAN_ROOTS: &[&str] = &[
    "crates/core/src",
    "crates/waitfree/src",
    "crates/store/src",
    "crates/util/src",
    "crates/util/tests",
    "crates/sim/src",
    "crates/analyze/src",
    "crates/lint/src",
    "src",
];

/// The audited hot-path directory: every atomic site under it is in the
/// inventory.
pub const NATIVE_PREFIX: &str = "crates/core/src/native/";

/// The audit table: one justification row per inventory site.
pub const AUDIT_DOC: &str = "docs/MEMORY_ORDERING.md";

/// The one file allowed to spell `Ordering::*` literals: it *defines*
/// the audited constants.
const ORDERING_MODULE: &str = "crates/core/src/native/ordering.rs";

/// The wait-free layer, covered by the literal-`Ordering::*` ban (its
/// sites are not in the inventory — the layer is uniformly SeqCst by
/// design — but spelling orderings inline would dodge any future audit,
/// so the naming discipline applies there too).
const WAITFREE_PREFIX: &str = "crates/waitfree/src/";

/// The waitfree counterpart of `native::ordering`: defines that
/// crate's named ordering constant, so it may spell `Ordering::*`.
const WAITFREE_ORDERING_MODULE: &str = "crates/waitfree/src/ordering.rs";

/// The store service layer, covered by the same literal-`Ordering::*`
/// ban (SeqCst on the cells admitted writers race; the single-writer
/// journal lanes and tallies relaxed as `docs/MEMORY_ORDERING.md`'s
/// "store layer" section argues).
const STORE_PREFIX: &str = "crates/store/src/";

/// The store counterpart of `native::ordering`: defines that crate's
/// named ordering constants, so it may spell `Ordering::*`.
const STORE_ORDERING_MODULE: &str = "crates/store/src/ordering.rs";

/// Native files exempt from the site passes: test scaffolding compiled
/// only under `cfg(test)` (via the `mod` declaration, not an in-file
/// region), so it is not an audited hot path.
const NATIVE_TEST_SUPPORT: &[&str] = &["crates/core/src/native/testutil.rs"];

/// Substrings whose appearance (in code, not comments/strings) bypasses
/// the `kex_util::sync` facade.
const FACADE_PATTERNS: &[&str] = &[
    "std::sync::atomic",
    "core::sync::atomic",
    "std::hint::spin_loop",
    "core::hint::spin_loop",
    "std::thread::spawn",
    "std::thread::yield_now",
];

/// Files allowed to name the facade-bypassing paths, with the reason on
/// record (rendered into findings if the list drifts out of date).
const FACADE_ALLOW: &[(&str, &str)] = &[
    (
        "crates/util/src/sync.rs",
        "the facade itself: re-exports std as its non-loom, non-obs backend",
    ),
    (
        "crates/util/tests/zero_cost.rs",
        "asserts the facade's std backend is type-identical to std::sync::atomic",
    ),
];

/// Atomic methods whose call sites constitute the ordering inventory.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

/// Ordering keywords recognized in the audit table's *Implemented*
/// column, longest first so `SeqCst` wins over nothing and `AcqRel`
/// is matched before `Acquire`/`Release` by earliest-position search.
const ORDERING_KEYWORDS: &[&str] = &["SeqCst", "AcqRel", "Acquire", "Release", "Relaxed"];

/// One [`IR_MAP`] row: native file, the IR algorithm modelling it, and
/// the receiver-name → IR-variable aliases.
type IrMapRow = (
    &'static str,
    Algorithm,
    &'static [(&'static str, &'static str)],
);

/// Map from native file to the analyzer-IR algorithm modelling it, plus
/// the receiver-name → IR-variable aliases. Every native site file is
/// here; a file absent from it would have no statement-level IR
/// counterpart and its sites' `ir` would stay `None`, judged by their
/// rows' roles alone. A `receiver:role` alias wins over the plain one:
/// fig2's stage keeps the IR's `x` and `q` in one word, which is `q`
/// where it is spun on and `x` at every other site.
const IR_MAP: &[IrMapRow] = &[
    (
        "fig2.rs",
        Algorithm::CcChain,
        &[("word", "x"), ("word:spin", "q")],
    ),
    ("fast_path.rs", Algorithm::CcFastPath, &[("x", "x")]),
    ("renaming.rs", Algorithm::AssignmentCc, &[("bits", "x")]),
    ("fig1.rs", Algorithm::QueueFig1, &[]),
];

// ---------------------------------------------------------------------------
// Ordering roles
// ---------------------------------------------------------------------------

/// The roles an audit row's *Verified by* cell can state
/// (`obligation: <role>`), each by what the site's ordering *does*:
/// `spin` (the acquire side of a handoff, read in a wait loop),
/// `publish` (the release side of a handoff write), `handshake` (a
/// Dekker-style store/load or RMW pair that needs the single SC total
/// order), `counter` (an RMW whose own read-modify-write atomicity
/// carries the protocol) and `private` (single-owner or
/// freshness-insensitive accesses; also a site with no row to say).
/// The row is the independent statement: the source's op and ordering
/// are judged against it, never the other way round.
const ROLES: &[&str] = &["spin", "publish", "handshake", "counter", "private"];

/// Collapses the atomic-method vocabulary into load / store / rmw.
fn op_kind(op: &str) -> &'static str {
    match op {
        "load" => "load",
        "store" => "store",
        _ => "rmw",
    }
}

/// Admissible (op kind, claimed orderings) per role. `private` is
/// unconstrained — the obligation layer has nothing to say about
/// single-owner accesses — and returns `None`.
fn role_policy(role: &str) -> Option<(&'static str, &'static [&'static str])> {
    match role {
        "spin" => Some(("load", &["Acquire", "SeqCst"])),
        "publish" => Some(("store", &["Release", "SeqCst"])),
        "handshake" => Some(("any", &["SeqCst"])),
        "counter" => Some(("rmw", &["AcqRel", "SeqCst"])),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

/// Which lint pass produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pass {
    /// Ordering-policy lint (constants, audit table).
    Ordering,
    /// Facade-bypass detector.
    Facade,
    /// Busy-wait backoff lint.
    Spin,
    /// Ordering-obligation checker (roles and IR-derived minimums).
    Obligation,
}

impl Pass {
    /// Stable lowercase name (used in reports and `allow(...)`
    /// directives).
    pub fn name(self) -> &'static str {
        match self {
            Pass::Ordering => "ordering",
            Pass::Facade => "facade",
            Pass::Spin => "spin",
            Pass::Obligation => "obligation",
        }
    }
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One conformance violation, anchored to a source coordinate.
///
/// `line == 0` marks a file- or artifact-level finding (a missing
/// audit table) with no single line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The pass that fired.
    pub pass: Pass,
    /// Repo-relative path.
    pub file: String,
    /// 1-based line, or 0 for whole-file findings.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "[{}] {} — {}", self.pass, self.file, self.message)
        } else {
            write!(
                f,
                "[{}] {}:{} — {}",
                self.pass, self.file, self.line, self.message
            )
        }
    }
}

fn finding(pass: Pass, file: &str, line: usize, message: impl Into<String>) -> Finding {
    Finding {
        pass,
        file: file.to_string(),
        line,
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Source model: masking, test regions, directives
// ---------------------------------------------------------------------------

/// Replaces every byte of comments, string literals and char literals
/// with a space (newlines are preserved), so downstream passes can
/// pattern-match code without being fooled by prose. Byte offsets and
/// line numbers are unchanged: the output has exactly the input's
/// length.
pub fn mask_source(text: &str) -> String {
    let bytes = text.as_bytes();
    let len = bytes.len();
    let mut out = bytes.to_vec();
    let blank = |out: &mut [u8], idx: usize| {
        if out[idx] != b'\n' && out[idx] != b'\r' {
            out[idx] = b' ';
        }
    };
    let mut i = 0;
    while i < len {
        let c = bytes[i];
        if c == b'/' && i + 1 < len && bytes[i + 1] == b'/' {
            while i < len && bytes[i] != b'\n' {
                out[i] = b' ';
                i += 1;
            }
        } else if c == b'/' && i + 1 < len && bytes[i + 1] == b'*' {
            let mut depth = 0usize;
            while i < len {
                if bytes[i] == b'/' && i + 1 < len && bytes[i + 1] == b'*' {
                    depth += 1;
                    blank(&mut out, i);
                    blank(&mut out, i + 1);
                    i += 2;
                } else if bytes[i] == b'*' && i + 1 < len && bytes[i + 1] == b'/' {
                    depth -= 1;
                    blank(&mut out, i);
                    blank(&mut out, i + 1);
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    blank(&mut out, i);
                    i += 1;
                }
            }
        } else if let Some((quote, hashes, raw)) = string_start(bytes, i) {
            // Blank the whole literal, prefix and quotes included.
            for idx in i..=quote {
                blank(&mut out, idx);
            }
            let mut j = quote + 1;
            loop {
                if j >= len {
                    break; // unterminated; nothing more to mask
                }
                if bytes[j] == b'\\' && !raw {
                    blank(&mut out, j);
                    if j + 1 < len {
                        blank(&mut out, j + 1);
                    }
                    j += 2;
                    continue;
                }
                if bytes[j] == b'"' {
                    let close = bytes[j + 1..]
                        .iter()
                        .take(hashes)
                        .take_while(|&&b| b == b'#')
                        .count();
                    if close == hashes {
                        for idx in j..=j + hashes {
                            blank(&mut out, idx);
                        }
                        j += hashes + 1;
                        break;
                    }
                }
                blank(&mut out, j);
                j += 1;
            }
            i = j;
        } else if c == b'\'' {
            if i + 1 < len && bytes[i + 1] == b'\\' {
                // Escaped char literal: '\n', '\\', '\'', '\u{..}'. The
                // byte right after the backslash is always payload, so
                // the closing quote search starts past it.
                let mut j = (i + 3).min(len);
                while j < len && bytes[j] != b'\'' {
                    j += 1;
                }
                for idx in i..=j.min(len - 1) {
                    blank(&mut out, idx);
                }
                i = j + 1;
            } else if i + 1 < len {
                // Either a one-scalar char literal ('x', '—') or a
                // lifetime ('a, 'static). A closing quote directly after
                // one UTF-8 scalar decides.
                let scalar = utf8_len(bytes[i + 1]);
                if i + 1 + scalar < len && bytes[i + 1 + scalar] == b'\'' {
                    for idx in i..=i + 1 + scalar {
                        blank(&mut out, idx);
                    }
                    i += scalar + 2;
                } else {
                    i += 1; // lifetime
                }
            } else {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    String::from_utf8(out).expect("masking replaces whole UTF-8 scalars")
}

/// If a string literal starts at `i`, returns `(index of the opening
/// quote, raw-string hash count, is_raw)`.
fn string_start(bytes: &[u8], i: usize) -> Option<(usize, usize, bool)> {
    let prefixed = i > 0 && is_ident(bytes[i - 1]);
    match bytes[i] {
        b'"' => Some((i, 0, false)),
        b'r' | b'b' if !prefixed => {
            let mut j = i + 1;
            if bytes[i] == b'b' && j < bytes.len() && bytes[j] == b'r' {
                j += 1;
            }
            let raw = j > i + 1 || bytes[i] == b'r';
            let mut hashes = 0;
            while raw && j < bytes.len() && bytes[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'"' && (raw || bytes[i] == b'b') {
                Some((j, hashes, raw))
            } else {
                None
            }
        }
        _ => None,
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    }
}

/// One scanned source file with its masked text and structural indexes.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// Original text.
    pub text: String,
    /// Comment/string-masked text, byte-aligned with `text`.
    pub masked: String,
    line_starts: Vec<usize>,
    test_regions: Vec<(usize, usize)>,
    allows: Vec<(usize, String)>,
}

impl SourceFile {
    /// Builds the masked view and structural indexes for `text`.
    pub fn new(path: impl Into<String>, text: impl Into<String>) -> SourceFile {
        let path = path.into();
        let text = text.into();
        let masked = mask_source(&text);
        let mut line_starts = vec![0usize];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let test_regions = find_test_regions(&masked);
        let allows = find_allow_directives(&text);
        SourceFile {
            path,
            text,
            masked,
            line_starts,
            test_regions,
            allows,
        }
    }

    /// 1-based line number of a byte offset.
    pub fn line_of(&self, offset: usize) -> usize {
        self.line_starts.partition_point(|&s| s <= offset)
    }

    /// Whether `offset` falls inside a `#[cfg(test)]`-gated region.
    pub fn in_test(&self, offset: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(s, e)| offset >= s && offset < e)
    }

    /// Whether `line` carries a `kex-lint: allow(<pass>)` directive.
    pub fn allowed(&self, line: usize, pass: Pass) -> bool {
        self.allows
            .iter()
            .any(|(l, p)| *l == line && p == pass.name())
    }
}

/// Byte ranges of items gated behind `#[cfg(... test ...)]`.
fn find_test_regions(masked: &str) -> Vec<(usize, usize)> {
    let mb = masked.as_bytes();
    let len = mb.len();
    let mut regions = Vec::new();
    let mut i = 0;
    while let Some(rel) = masked[i..].find("#[") {
        let attr_start = i + rel;
        let mut j = attr_start + 2;
        let mut depth = 1usize;
        while j < len && depth > 0 {
            match mb[j] {
                b'[' => depth += 1,
                b']' => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        let attr_end = j; // one past the closing `]`
        let attr = masked[attr_start + 2..attr_end.saturating_sub(1)].trim();
        i = attr_end;
        if !(attr.starts_with("cfg") && !attr.starts_with("cfg_attr") && has_word(attr, "test")) {
            continue;
        }
        // Skip whitespace and any further attributes, then take the
        // following item's brace block (or its terminating `;`).
        let mut k = attr_end;
        loop {
            while k < len && mb[k].is_ascii_whitespace() {
                k += 1;
            }
            if k + 1 < len && mb[k] == b'#' && mb[k + 1] == b'[' {
                k += 2;
                let mut d = 1usize;
                while k < len && d > 0 {
                    match mb[k] {
                        b'[' => d += 1,
                        b']' => d -= 1,
                        _ => {}
                    }
                    k += 1;
                }
            } else {
                break;
            }
        }
        let mut paren = 0isize;
        let mut body_open = None;
        while k < len {
            match mb[k] {
                b'(' | b'[' => paren += 1,
                b')' | b']' => paren -= 1,
                b'{' if paren == 0 => {
                    body_open = Some(k);
                    break;
                }
                b';' if paren == 0 => break,
                _ => {}
            }
            k += 1;
        }
        let end = match body_open {
            Some(open) => {
                let mut d = 1usize;
                let mut m = open + 1;
                while m < len && d > 0 {
                    match mb[m] {
                        b'{' => d += 1,
                        b'}' => d -= 1,
                        _ => {}
                    }
                    m += 1;
                }
                m
            }
            None => k.min(len),
        };
        regions.push((attr_start, end));
        i = attr_end;
    }
    regions
}

fn has_word(haystack: &str, word: &str) -> bool {
    let hb = haystack.as_bytes();
    let mut from = 0;
    while let Some(rel) = haystack[from..].find(word) {
        let at = from + rel;
        let before_ok = at == 0 || !(hb[at - 1].is_ascii_alphanumeric() || hb[at - 1] == b'_');
        let after = at + word.len();
        let after_ok =
            after >= hb.len() || !(hb[after].is_ascii_alphanumeric() || hb[after] == b'_');
        if before_ok && after_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

/// Collects `kex-lint: allow(<pass>)` directives per line from the
/// *original* text (they live in comments, which masking removes).
fn find_allow_directives(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let Some(at) = line.find("kex-lint:") else {
            continue;
        };
        let rest = &line[at..];
        let Some(open) = rest.find("allow(") else {
            continue;
        };
        let after = &rest[open + "allow(".len()..];
        if let Some(close) = after.find(')') {
            out.push((idx + 1, after[..close].trim().to_string()));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

/// The scanned source tree.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// All loaded files, sorted by path.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Loads every `.rs` file under the scan roots relative to `root`.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut files = Vec::new();
        for scan in SCAN_ROOTS {
            let dir = root.join(scan);
            if dir.is_dir() {
                walk(&dir, root, &mut files)?;
            }
        }
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(Workspace { files })
    }

    /// Looks up a file by repo-relative path.
    pub fn get(&self, path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == path)
    }
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile::new(rel, fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Atomic-site extraction
// ---------------------------------------------------------------------------

/// One inventory entry: an atomic call site in the audited native
/// layer, with everything the passes derive for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line of the method token: the line a finding is reported at.
    pub line: usize,
    /// The atomic method (`load`, `store`, `fetch_add`, ...).
    pub op: String,
    /// The receiver's final field/binding name (`q`, `slots`, ...).
    pub var: String,
    /// `ord::*` constants among the call's own arguments, in textual
    /// order; the first is the site's primary (success) ordering.
    pub consts: Vec<String>,
    /// The ordering the primary constant resolves to (`"?"` if
    /// `ordering.rs` defines no such constant).
    pub ordering: String,
    /// The site's ordering role, one of `ROLES`: what its audit row
    /// states, `private` where no row was matched to it.
    pub role: &'static str,
    /// IR variable this receiver models, if `IR_MAP` links the file
    /// to an analyzer-IR algorithm.
    pub ir: Option<&'static str>,
}

fn is_native_site_file(path: &str) -> bool {
    path.starts_with(NATIVE_PREFIX)
        && path != ORDERING_MODULE
        && !NATIVE_TEST_SUPPORT.contains(&path)
}

/// Files subject to the literal-`Ordering::*` ban: the native site
/// files plus the wait-free and store layers (minus their own constant
/// modules).
fn is_ordering_policy_file(path: &str) -> bool {
    is_native_site_file(path)
        || (path.starts_with(WAITFREE_PREFIX) && path != WAITFREE_ORDERING_MODULE)
        || (path.starts_with(STORE_PREFIX) && path != STORE_ORDERING_MODULE)
}

/// The site inventory: every non-test atomic call under
/// `crates/core/src/native/` that names an `ord::*` constant, per file
/// in source order, each with the role its row of `doc` (the text of
/// [`AUDIT_DOC`]) states.
pub fn extract_sites(ws: &Workspace, doc: Option<&str>) -> Vec<Site> {
    match_sites(ws, doc).0
}

/// The inventory, and what the scan and matching the audit table to it
/// found: an `ord::*` token that is no site's argument, a row off its
/// site.
fn match_sites(ws: &Workspace, doc: Option<&str>) -> (Vec<Site>, Vec<Finding>) {
    let consts = ws
        .get(ORDERING_MODULE)
        .map(|f| parse_ordering_consts(f).0)
        .unwrap_or_default();
    let mut sites = Vec::new();
    let mut findings = Vec::new();
    for file in &ws.files {
        if !is_native_site_file(&file.path) {
            continue;
        }
        let mb = file.masked.as_bytes();
        // Byte offsets of the `ord::*` tokens the extracted sites take.
        let mut claimed = BTreeSet::new();
        let mut i = 0;
        // Every `.` is tried, including those inside an accepted call's
        // arguments: a nested atomic call is a site of its own.
        while let Some(rel) = file.masked[i..].find('.') {
            let dot = i + rel;
            i = dot + 1;
            let mut j = dot + 1;
            while j < mb.len() && (mb[j].is_ascii_alphanumeric() || mb[j] == b'_') {
                j += 1;
            }
            let method = &file.masked[dot + 1..j];
            if !ATOMIC_METHODS.contains(&method) || j >= mb.len() || mb[j] != b'(' {
                continue;
            }
            if file.in_test(dot) {
                continue;
            }
            let Some(close) = match_paren(mb, j) else {
                continue;
            };
            let site_consts = ord_consts_in(&file.masked, j + 1, close);
            let Some(&(_, primary)) = site_consts.first() else {
                continue; // not an atomic-ordering call (e.g. slice ops)
            };
            let ordering = consts.get(primary).map_or("?", String::as_str);
            claimed.extend(site_consts.iter().map(|&(at, _)| at));
            sites.push(Site {
                file: file.path.clone(),
                line: file.line_of(dot + 1),
                op: method.to_string(),
                var: receiver_name(mb, dot),
                ordering: ordering.to_string(),
                consts: site_consts.iter().map(|&(_, c)| c.to_string()).collect(),
                role: "private",
                ir: None,
            });
        }
        for (at, _) in file.masked.match_indices("ord::") {
            if claimed.contains(&at) || file.in_test(at) {
                continue;
            }
            if let Some(name) = ord_token(&file.masked, at) {
                findings.push(finding(
                    Pass::Ordering,
                    &file.path,
                    file.line_of(at),
                    format!(
                        "`ord::{name}` is not an argument of an atomic call the site scan finds — pass the constant straight to an atomic method the scan knows, or the site escapes the audit"
                    ),
                ));
            }
        }
    }
    // Stable: sites sharing a line keep their source order.
    sites.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    if let Some(doc) = doc {
        check_audit_table(doc, &mut sites, &mut findings);
    }
    for site in &mut sites {
        let short = site.file.trim_start_matches(NATIVE_PREFIX);
        let aliases = IR_MAP
            .iter()
            .find(|(f, _, _)| *f == short)
            .map_or(&[][..], |(_, _, aliases)| aliases);
        let alias = |name: &str| aliases.iter().find(|(v, _)| *v == name);
        site.ir = alias(&format!("{}:{}", site.var, site.role))
            .or_else(|| alias(&site.var))
            .map(|(_, ir)| *ir);
    }
    (sites, findings)
}

fn match_paren(mb: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut k = open;
    while k < mb.len() {
        match mb[k] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
        k += 1;
    }
    None
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The constant named by an `ord::NAME` token starting at byte `at`
/// (not one ending a longer path such as `x::ord::NAME`).
fn ord_token(text: &str, at: usize) -> Option<&str> {
    let tb = text.as_bytes();
    if !tb[at..].starts_with(b"ord::") || (at > 0 && (is_ident(tb[at - 1]) || tb[at - 1] == b':')) {
        return None;
    }
    let start = at + "ord::".len();
    let len = tb[start..].iter().take_while(|&&b| is_ident(b)).count();
    (len > 0).then(|| &text[start..start + len])
}

/// The `ord::*` constants at the top level of the argument list
/// `text[from..to]`, with the byte offset of each token; one inside a
/// nested call or closure belongs to that call.
fn ord_consts_in(text: &str, from: usize, to: usize) -> Vec<(usize, &str)> {
    let tb = text.as_bytes();
    let mut out = Vec::new();
    let mut depth = 0usize;
    for (i, &b) in tb.iter().enumerate().take(to).skip(from) {
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth = depth.saturating_sub(1),
            _ if depth == 0 => out.extend(ord_token(text, i).map(|name| (i, name))),
            _ => {}
        }
    }
    out
}

/// Walks backwards from the method's `.` over whitespace and `[...]`
/// index groups to the receiver's final identifier.
fn receiver_name(mb: &[u8], dot: usize) -> String {
    let mut i = dot as isize - 1;
    let at = |i: isize| mb[i as usize];
    loop {
        while i >= 0 && at(i).is_ascii_whitespace() {
            i -= 1;
        }
        if i < 0 {
            return "<expr>".to_string();
        }
        if at(i) == b']' {
            let mut depth = 1;
            i -= 1;
            while i >= 0 && depth > 0 {
                match at(i) {
                    b']' => depth += 1,
                    b'[' => depth -= 1,
                    _ => {}
                }
                i -= 1;
            }
            continue;
        }
        if at(i).is_ascii_alphanumeric() || at(i) == b'_' {
            let end = i as usize + 1;
            while i >= 0 && (at(i).is_ascii_alphanumeric() || at(i) == b'_') {
                i -= 1;
            }
            return String::from_utf8_lossy(&mb[(i + 1) as usize..end]).into_owned();
        }
        return "<expr>".to_string();
    }
}

// ---------------------------------------------------------------------------
// Ordering constants (crates/core/src/native/ordering.rs)
// ---------------------------------------------------------------------------

/// The constant table parsed out of `ordering.rs`: constant name →
/// `Ordering` variant.
pub type OrderingConsts = BTreeMap<String, String>;

/// Parses the constant table, reporting any constant that does not
/// resolve to a known `Ordering` variant.
pub fn parse_ordering_consts(file: &SourceFile) -> (OrderingConsts, Vec<Finding>) {
    let mut consts = OrderingConsts::new();
    let mut findings = Vec::new();
    let mut offset = 0usize;
    for (idx, line) in file.masked.lines().enumerate() {
        let lineno = idx + 1;
        let start = offset;
        offset += line.len() + 1;
        let trimmed = line.trim();
        if file.in_test(start) {
            continue;
        }
        let Some(const_at) = trimmed.find("const ") else {
            continue;
        };
        let Some(colon) = trimmed[const_at..].find(':') else {
            continue;
        };
        let name = trimmed[const_at + "const ".len()..const_at + colon].trim();
        let Some(var_at) = trimmed.find("Ordering::") else {
            continue;
        };
        let variant: String = trimmed[var_at + "Ordering::".len()..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric())
            .collect();
        if !ORDERING_KEYWORDS.contains(&variant.as_str()) {
            findings.push(finding(
                Pass::Ordering,
                &file.path,
                lineno,
                format!("constant `{name}` resolves to unknown ordering `{variant}`"),
            ));
            continue;
        }
        consts.insert(name.to_string(), variant);
    }
    (consts, findings)
}

// ---------------------------------------------------------------------------
// Audit-table rows (docs/MEMORY_ORDERING.md)
// ---------------------------------------------------------------------------

/// One audit-table row. It cites its site by file only: within a file
/// the rows are in source order, and the i-th row documents the i-th
/// site.
#[derive(Debug, Clone)]
struct DocRow {
    file: String,
    /// The atomic method named in the *Op* cell.
    op: String,
    keyword: String,
    /// The role the *Verified by* cell opens with (`obligation: <role>`).
    role: &'static str,
    doc_line: usize,
}

/// The leading `` `code` `` span of a table cell.
fn backticked(cell: &str) -> Option<&str> {
    cell.trim().strip_prefix('`')?.split('`').next()
}

fn parse_doc_rows(doc: &str) -> (Vec<DocRow>, Vec<Finding>) {
    let mut rows = Vec::new();
    let mut findings = Vec::new();
    for (idx, raw) in doc.lines().enumerate() {
        let line = raw.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.split('|').collect();
        if cells.len() < 5 {
            continue;
        }
        let Some(name) = backticked(cells[1]).filter(|n| n.ends_with(".rs")) else {
            continue;
        };
        // `R[u].fetch_add(-1)` → `fetch_add`.
        let call = backticked(cells[2]).unwrap_or("");
        let op = call.split('(').next().unwrap_or("");
        let op = op.rsplit('.').next().unwrap_or("");
        let implemented = cells[3].trim();
        let keyword = ORDERING_KEYWORDS
            .iter()
            .filter_map(|k| implemented.find(k).map(|at| (at, *k)))
            .min()
            .map(|(_, k)| k.to_string());
        let stated = cells
            .get(5)
            .and_then(|c| c.trim().strip_prefix("obligation: "));
        let role = ROLES
            .iter()
            .find(|role| stated.is_some_and(|s| s.starts_with(**role)));
        match (keyword, role) {
            (Some(keyword), Some(role)) => rows.push(DocRow {
                file: format!("{NATIVE_PREFIX}{name}"),
                op: op.to_string(),
                keyword,
                role,
                doc_line: idx + 1,
            }),
            (Some(_), None) => findings.push(finding(
                Pass::Ordering,
                AUDIT_DOC,
                idx + 1,
                format!(
                    "audit row for `{name}` states no role: its *Verified by* cell must open with `obligation: <{}>`",
                    ROLES.join("|")
                ),
            )),
            (None, _) => findings.push(finding(
                Pass::Ordering,
                AUDIT_DOC,
                idx + 1,
                format!(
                    "audit row for `{name}` has no recognizable ordering keyword: {implemented:?}"
                ),
            )),
        }
    }
    (rows, findings)
}

/// A `file.rs:NN` or `` `:NN` `` line reference in the audit table's
/// text, if `line` has one.
fn line_reference(line: &str) -> Option<&str> {
    let lb = line.as_bytes();
    let digits_from = |at: usize| lb[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    for (at, _) in line.match_indices(':') {
        let digits = digits_from(at + 1);
        if digits == 0 {
            continue;
        }
        let end = at + 1 + digits;
        if line[..at].ends_with(".rs") {
            let name = line[..at]
                .rsplit(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.'))
                .next()
                .unwrap_or("");
            return Some(&line[at - name.len()..end]);
        }
        if line[..at].ends_with('`') && lb.get(end) == Some(&b'`') {
            return Some(&line[at..end]);
        }
    }
    None
}

/// Reconciles the audit table with the scanned sites, by position, and
/// gives each site the role its row states.
fn check_audit_table(doc: &str, sites: &mut [Site], findings: &mut Vec<Finding>) {
    for (idx, line) in doc.lines().enumerate() {
        if let Some(reference) = line_reference(line) {
            findings.push(finding(
                Pass::Ordering,
                AUDIT_DOC,
                idx + 1,
                format!(
                    "line-number reference `{reference}` — sites move; name the paper's statement or the op instead"
                ),
            ));
        }
    }
    let (rows, mut row_findings) = parse_doc_rows(doc);
    findings.append(&mut row_findings);
    let files: BTreeSet<String> = sites
        .iter()
        .map(|s| &s.file)
        .chain(rows.iter().map(|r| &r.file))
        .cloned()
        .collect();
    for file in &files {
        let mut file_rows = rows.iter().filter(|r| r.file == *file);
        let mut file_sites = sites.iter_mut().filter(|s| s.file == *file);
        loop {
            match (file_sites.next(), file_rows.next()) {
                (None, None) => break,
                (Some(site), None) => findings.push(finding(
                    Pass::Ordering,
                    &site.file,
                    site.line,
                    format!("no {AUDIT_DOC} audit row for this atomic site"),
                )),
                (None, Some(row)) => findings.push(finding(
                    Pass::Ordering,
                    AUDIT_DOC,
                    row.doc_line,
                    format!(
                        "audit row documents a `{}` that `{file}` no longer has: the file's rows outnumber its atomic sites",
                        row.op
                    ),
                )),
                (Some(site), Some(row)) if row.op != site.op => {
                    // Every later pair in this file is shifted too;
                    // one finding says so.
                    findings.push(finding(
                        Pass::Ordering,
                        &site.file,
                        site.line,
                        format!(
                            "the audit row at this position ({AUDIT_DOC}:{}) documents a `{}`, but the site here is `{}.{}` — the file's rows must list its sites in source order, one each",
                            row.doc_line, row.op, site.var, site.op
                        ),
                    ));
                    break;
                }
                (Some(site), Some(row)) => {
                    site.role = row.role;
                    if row.keyword != site.ordering {
                        findings.push(finding(
                            Pass::Ordering,
                            &site.file,
                            site.line,
                            format!(
                                "audit table ({AUDIT_DOC}:{}) says `{}` but `ord::{}` resolves to `{}`",
                                row.doc_line, row.keyword, site.consts[0], site.ordering
                            ),
                        ));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The four passes
// ---------------------------------------------------------------------------

/// Pass 1: ordering policy. Literal `Ordering::*` bans, constant-table
/// invariants, and two-way reconciliation of the source inventory
/// against the audit table.
pub fn ordering_pass(ws: &Workspace, doc: Option<&str>) -> Vec<Finding> {
    let mut findings = Vec::new();

    // 1a. No literal Ordering:: outside the ordering-constant modules
    // (test code exempt). Covers the native hot paths and the
    // wait-free and store layers.
    for file in &ws.files {
        if !is_ordering_policy_file(&file.path) {
            continue;
        }
        let hint = if file.path.starts_with(WAITFREE_PREFIX) {
            "literal `Ordering::*` in the audited wait-free layer — name the constant from `waitfree::ordering` instead"
        } else if file.path.starts_with(STORE_PREFIX) {
            "literal `Ordering::*` in the audited store layer — name the constant from `kex_store`'s `ordering` module instead"
        } else {
            "literal `Ordering::*` in the audited native layer — name an `ord::*` constant from `native::ordering` instead"
        };
        let mut i = 0;
        while let Some(rel) = file.masked[i..].find("Ordering::") {
            let at = i + rel;
            i = at + 1;
            if file.in_test(at) {
                continue;
            }
            let line = file.line_of(at);
            if file.allowed(line, Pass::Ordering) {
                continue;
            }
            findings.push(finding(Pass::Ordering, &file.path, line, hint));
        }
    }

    // 1b. Constant-table invariants.
    let Some(ordering_file) = ws.get(ORDERING_MODULE) else {
        findings.push(finding(
            Pass::Ordering,
            ORDERING_MODULE,
            0,
            "ordering-constant module not found",
        ));
        return findings;
    };
    let (consts, mut const_findings) = parse_ordering_consts(ordering_file);
    findings.append(&mut const_findings);

    let (sites, table_findings) = match_sites(ws, doc);

    // 1c. Every constant a site names must exist.
    for site in &sites {
        for c in &site.consts {
            if !consts.contains_key(c) {
                findings.push(finding(
                    Pass::Ordering,
                    &site.file,
                    site.line,
                    format!("site names unknown constant `ord::{c}`"),
                ));
            }
        }
    }

    // 1d. Audit-table reconciliation, both directions (`match_sites`
    // did it while giving the sites their roles).
    if doc.is_none() {
        findings.push(finding(
            Pass::Ordering,
            AUDIT_DOC,
            0,
            "memory-ordering audit table missing",
        ));
    }
    findings.extend(table_findings);
    findings
}

/// Pass 2: facade-bypass detector.
pub fn facade_pass(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &ws.files {
        if FACADE_ALLOW.iter().any(|(p, _)| *p == file.path) {
            continue;
        }
        for pattern in FACADE_PATTERNS {
            let mut i = 0;
            while let Some(rel) = file.masked[i..].find(pattern) {
                let at = i + rel;
                i = at + 1;
                let line = file.line_of(at);
                if file.allowed(line, Pass::Facade) {
                    continue;
                }
                findings.push(finding(
                    Pass::Facade,
                    &file.path,
                    line,
                    format!(
                        "direct `{pattern}` bypasses the `kex_util::sync` facade (loom/obs builds cannot swap this site)"
                    ),
                ));
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

/// Pass 3: spin-loop lint. A native busy-wait (`while` whose condition
/// performs an atomic load) must back off through the facade.
pub fn spin_pass(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &ws.files {
        if !is_native_site_file(&file.path) {
            continue;
        }
        let mb = file.masked.as_bytes();
        let mut i = 0;
        while let Some(rel) = file.masked[i..].find("while") {
            let at = i + rel;
            i = at + "while".len();
            let before_ok = at == 0 || !(mb[at - 1].is_ascii_alphanumeric() || mb[at - 1] == b'_');
            let after = at + "while".len();
            let after_ok = after < mb.len() && mb[after].is_ascii_whitespace();
            if !before_ok || !after_ok || file.in_test(at) {
                continue;
            }
            // Condition runs to the body's `{` at bracket depth 0.
            let mut k = after;
            let mut depth = 0isize;
            let mut body_open = None;
            while k < mb.len() {
                match mb[k] {
                    b'(' | b'[' => depth += 1,
                    b')' | b']' => depth -= 1,
                    b'{' if depth == 0 => {
                        body_open = Some(k);
                        break;
                    }
                    b';' if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            let Some(open) = body_open else { continue };
            let cond = &file.masked[after..open];
            if !cond.contains(".load(") {
                continue;
            }
            let mut d = 1usize;
            let mut m = open + 1;
            while m < mb.len() && d > 0 {
                match mb[m] {
                    b'{' => d += 1,
                    b'}' => d -= 1,
                    _ => {}
                }
                m += 1;
            }
            let body = &file.masked[open + 1..m.saturating_sub(1)];
            let line = file.line_of(at);
            let backs_off = ["snooze", "spin_loop", "yield_now", "park"]
                .iter()
                .any(|w| body.contains(w) || cond.contains(w));
            // A directive anywhere in the loop suppresses it: rustfmt
            // relocates a comment trailing the `while … {` line into the
            // body, so the binding must cover the whole loop extent.
            let body_end_line = file.line_of(m.saturating_sub(1).max(open));
            let allowed = (line..=body_end_line).any(|l| file.allowed(l, Pass::Spin));
            if backs_off || allowed {
                continue;
            }
            findings.push(finding(
                Pass::Spin,
                &file.path,
                line,
                "busy-wait loop without facade backoff — spin through `Backoff::snooze` (or annotate `// kex-lint: allow(spin): <why>`)",
            ));
        }
    }
    findings
}

/// Pass 4: ordering-obligation checker.
///
/// Validates each inventory site's claimed ordering against two
/// independent derivations:
///
/// * the **role policy** — the op shape and ordering the source has
///   must be admissible for the `role` the site's audit row states;
/// * the **IR obligations** — for sites linked to an analyzer-IR
///   variable, the variable must exist in that algorithm's IR, and the
///   claim must satisfy the minimum ordering `kex-analyze` derives from
///   the statement graph (publish edges, Dekker/handshake pairs, spin
///   reads). A site claiming `Relaxed` — or anything weaker than the
///   derived minimum — on an obligated variable is a hard error.
///
/// `sites` is [`extract_sites`]' inventory.
pub fn obligation_pass(sites: &[Site], cfg: &Config) -> Vec<Finding> {
    use kex_analyze::obligations::{
        derive_obligations, kind_for_op, kind_name, obligation_for, Obligation, Req,
    };

    let mut findings = Vec::new();
    let mut derived: BTreeMap<&str, (BTreeSet<String>, Vec<Obligation>)> = BTreeMap::new();
    for site in sites {
        // 4a. Role policy: op shape and claimed ordering must be
        // admissible for the site's role.
        if let Some((kind, admissible)) = role_policy(site.role) {
            if kind != "any" && op_kind(&site.op) != kind {
                findings.push(finding(
                    Pass::Obligation,
                    &site.file,
                    site.line,
                    format!(
                        "role `{}` is a {kind} role but the site's op is `{}`",
                        site.role, site.op,
                    ),
                ));
            }
            if !admissible.contains(&site.ordering.as_str()) {
                findings.push(finding(
                    Pass::Obligation,
                    &site.file,
                    site.line,
                    format!(
                        "role `{}` admits only {} but the site claims `{}`",
                        site.role,
                        admissible.join("/"),
                        site.ordering,
                    ),
                ));
            }
        }

        // 4b. IR cross-check: the linked variable must exist, and the
        // claimed ordering must satisfy the obligation the analyzer
        // derives for it.
        let Some(ir) = site.ir else { continue };
        let short = site.file.trim_start_matches(NATIVE_PREFIX);
        let Some((_, algo, _)) = IR_MAP.iter().find(|(f, _, _)| *f == short) else {
            continue; // `ir` comes from IR_MAP
        };
        let (basenames, obls) = derived.entry(short).or_insert_with(|| {
            let obls = derive_obligations(*algo, cfg).unwrap_or_else(|e| {
                findings.push(finding(
                    Pass::Obligation,
                    &site.file,
                    0,
                    format!("cannot derive ordering obligations for {algo:?}: {e}"),
                ));
                Vec::new()
            });
            (kex_analyze::ir_var_basenames(*algo, cfg), obls)
        });
        if !basenames.contains(ir) {
            findings.push(finding(
                Pass::Obligation,
                &site.file,
                site.line,
                format!(
                    "receiver `{}` is mapped to IR variable `{ir}`, but the {algo:?} protocol IR declares no such variable (has: {})",
                    site.var,
                    basenames.iter().cloned().collect::<Vec<_>>().join(", "),
                ),
            ));
            continue;
        }
        let Some(obl) = obligation_for(obls, ir, kind_for_op(&site.op)) else {
            continue;
        };
        let Some(claimed) = Req::parse(&site.ordering) else {
            continue; // an unknown constant: the ordering pass reports it
        };
        if !claimed.satisfies(obl.req) {
            let hard = if claimed == Req::Relaxed {
                " — a Relaxed claim on an obligated site is a hard error"
            } else {
                ""
            };
            findings.push(finding(
                Pass::Obligation,
                &site.file,
                site.line,
                format!(
                    "IR obligation violated: the {} of `{ir}` needs at least `{}` ({}), but the site claims `{}`{hard}",
                    kind_name(obl.kind),
                    obl.req.keyword(),
                    obl.why,
                    site.ordering,
                ),
            ));
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Orchestration & reports
// ---------------------------------------------------------------------------

/// A full audit run: all four passes plus scan statistics.
#[derive(Debug, Clone)]
pub struct Report {
    /// Files scanned.
    pub files: usize,
    /// Atomic sites in the inventory.
    pub sites: usize,
    /// All findings, ordered by (pass, file, line).
    pub findings: Vec<Finding>,
}

impl Report {
    /// True when no pass fired.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings from one pass.
    pub fn by_pass(&self, pass: Pass) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.pass == pass)
    }
}

/// Reads the audit table from a repo root (`None` if it is missing,
/// which the ordering pass reports).
pub fn load_audit_doc(root: &Path) -> Option<String> {
    fs::read_to_string(root.join(AUDIT_DOC)).ok()
}

/// Runs every pass over a loaded workspace; `doc` is the text of
/// [`AUDIT_DOC`].
pub fn audit(ws: &Workspace, doc: Option<&str>, cfg: &Config) -> Report {
    let sites = extract_sites(ws, doc);
    let mut findings = ordering_pass(ws, doc);
    findings.extend(facade_pass(ws));
    findings.extend(spin_pass(ws));
    findings.extend(obligation_pass(&sites, cfg));
    findings.sort_by(|a, b| (a.pass, &a.file, a.line).cmp(&(b.pass, &b.file, b.line)));
    Report {
        files: ws.files.len(),
        sites: sites.len(),
        findings,
    }
}

/// Human-readable report.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("kex-lint: source conformance audit\n\n");
    out.push_str(&format!("  files scanned  {:>4}\n", report.files));
    out.push_str(&format!("  atomic sites   {:>4}\n", report.sites));
    out.push_str(&format!("  findings       {:>4}\n", report.findings.len()));
    if report.clean() {
        out.push_str("\nclean: sources, audit table and IR agree\n");
    } else {
        out.push('\n');
        for f in &report.findings {
            out.push_str(&format!("{f}\n"));
        }
    }
    out
}

/// JSON report (schema [`FINDINGS_SCHEMA`]).
pub fn render_json(report: &Report) -> String {
    let findings = report
        .findings
        .iter()
        .map(|f| {
            Json::obj(vec![
                ("pass", f.pass.name().into()),
                ("file", f.file.as_str().into()),
                ("line", f.line.into()),
                ("message", f.message.as_str().into()),
            ])
        })
        .collect();
    let counts: Vec<(&str, Json)> = [Pass::Ordering, Pass::Facade, Pass::Spin, Pass::Obligation]
        .iter()
        .map(|p| (p.name(), Json::U64(report.by_pass(*p).count() as u64)))
        .collect();
    Json::obj(vec![
        ("schema", FINDINGS_SCHEMA.into()),
        ("files_scanned", report.files.into()),
        ("atomic_sites", report.sites.into()),
        ("clean", report.clean().into()),
        ("counts", Json::obj(counts)),
        ("findings", Json::arr(findings)),
    ])
    .to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_is_offset_preserving_and_strips_prose() {
        let src = "let a = \"x.load(Ordering::SeqCst)\"; // std::sync::atomic\n\
                   let c = 'x'; let q = '\\''; let n = '\\n';\n\
                   /* outer /* nested Ordering::Acquire */ still comment */\n\
                   let s: &'static str = r#\"std::thread::spawn\"#;\n\
                   let done = 1;\n";
        let m = mask_source(src);
        assert_eq!(m.len(), src.len());
        assert_eq!(m.lines().count(), src.lines().count());
        for banned in [
            "Ordering",
            "std::sync::atomic",
            "std::thread::spawn",
            "nested",
        ] {
            assert!(!m.contains(banned), "{banned:?} survived masking:\n{m}");
        }
        assert!(m.contains("let a"));
        assert!(m.contains("&'static str"), "lifetimes must not be eaten");
        assert!(m.contains("let done = 1;"), "code after literals intact");
    }

    #[test]
    fn test_regions_cover_gated_items_only() {
        let src = "fn hot() { x.load(ord::ACQUIRE); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { y.load(ord::SEQ_CST); }\n\
                   }\n\
                   fn also_hot() { z.load(ord::SEQ_CST); }\n";
        let f = SourceFile::new("t.rs", src);
        assert!(!f.in_test(src.find("x.load").unwrap()));
        assert!(f.in_test(src.find("y.load").unwrap()));
        assert!(!f.in_test(src.find("z.load").unwrap()));
    }

    #[test]
    fn site_extraction_walks_receivers_and_orderings() {
        let src = "fn f(&self) {\n\
                   \x20   self.slots[self.pid].r[next].fetch_add(1, ord::SEQ_CST);\n\
                   \x20   self\n\
                   \x20       .q\n\
                   \x20       .compare_exchange(a, b, ord::ACQ_REL, ord::ACQUIRE)\n\
                   \x20       .ok();\n\
                   \x20   plain.swap(1, 2);\n\
                   \x20   a.store(b.load(ord::ACQUIRE), ord::RELEASE);\n\
                   }\n";
        let ws = Workspace {
            files: vec![SourceFile::new("crates/core/src/native/x.rs", src)],
        };
        let sites = extract_sites(&ws, None);
        assert_eq!(sites.len(), 4, "non-atomic swap must not be a site");
        assert_eq!(
            (sites[0].var.as_str(), sites[0].op.as_str(), sites[0].line),
            ("r", "fetch_add", 2)
        );
        assert_eq!(sites[0].consts, ["SEQ_CST"]);
        assert_eq!(
            (sites[1].var.as_str(), sites[1].op.as_str(), sites[1].line),
            ("q", "compare_exchange", 5),
            "multi-line receivers anchor to the method-token line, the line a finding is reported at"
        );
        assert_eq!(sites[1].consts, ["ACQ_REL", "ACQUIRE"]);
        // A call nested in another's arguments is a site of its own, and
        // each takes only its own top-level constants.
        for (site, var, op, consts) in [
            (&sites[2], "a", "store", ["RELEASE"]),
            (&sites[3], "b", "load", ["ACQUIRE"]),
        ] {
            assert_eq!(
                (site.var.as_str(), site.op.as_str(), site.line),
                (var, op, 8)
            );
            assert_eq!(site.consts, consts);
        }
    }

    #[test]
    fn allow_directives_bind_to_their_line() {
        let src = "fn f() {\n\
                   \x20   while x.load(ord::SEQ_CST) != 0 { // kex-lint: allow(spin): bounded scan\n\
                   \x20   }\n\
                   \x20   while y.load(ord::SEQ_CST) != 0 {\n\
                   \x20   }\n\
                   }\n";
        let ws = Workspace {
            files: vec![SourceFile::new("crates/core/src/native/x.rs", src)],
        };
        let findings = spin_pass(&ws);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 4);
        let f = &ws.files[0];
        assert!(f.allowed(2, Pass::Spin));
        assert!(!f.allowed(2, Pass::Facade), "directives are per-pass");
    }

    #[test]
    fn spin_pass_accepts_facade_backoff() {
        let src = "fn f() {\n\
                   \x20   let backoff = Backoff::new();\n\
                   \x20   while x.load(ord::ACQUIRE) == p {\n\
                   \x20       backoff.snooze();\n\
                   \x20   }\n\
                   \x20   for i in 0..n {}\n\
                   }\n";
        let ws = Workspace {
            files: vec![SourceFile::new("crates/core/src/native/x.rs", src)],
        };
        assert!(spin_pass(&ws).is_empty());
    }
}
