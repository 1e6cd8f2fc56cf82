//! Source-conformance audit over the workspace's own sources.
//!
//! ```text
//! cargo run -p kex-lint --bin lint              # text report
//! cargo run -p kex-lint --bin lint -- --json    # machine-readable report
//! cargo run -p kex-lint --bin lint -- --assert  # exit non-zero on any finding (CI mode)
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use kex_analyze::Config;
use kex_lint::{audit, load_audit_doc, render_json, render_text, Workspace};

const USAGE: &str = "usage: lint [--json] [--assert] [--root PATH]\n\
                     \n\
                     Token-level conformance lints over the workspace sources: ordering-policy\n\
                     checker (ord::* constants; the scanned atomic sites matched, per file and\n\
                     in source order, to the docs/MEMORY_ORDERING.md audit table's rows),\n\
                     facade-bypass detector, busy-wait backoff lint, and the ordering-obligation\n\
                     pass (per-site roles and the kex-analyze protocol IR's derived\n\
                     release/acquire minimums).";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut json = false;
    let mut assert_clean = false;
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--assert" => assert_clean = true,
            "--root" => {
                i += 1;
                root = PathBuf::from(args.get(i).unwrap_or_else(|| usage()));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => usage(),
        }
        i += 1;
    }

    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("lint: failed to scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    let doc = load_audit_doc(&root);

    let report = audit(&ws, doc.as_deref(), &Config::default());
    if json {
        print!("{}", render_json(&report));
    } else {
        print!("{}", render_text(&report));
    }
    if assert_clean && !report.clean() {
        eprintln!(
            "lint: {} finding(s) — see report above",
            report.findings.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
