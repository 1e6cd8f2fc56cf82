//! Source-conformance audit over the workspace's own sources.
//!
//! ```text
//! cargo run -p kex-lint --bin lint                     # text report
//! cargo run -p kex-lint --bin lint -- --json           # machine-readable report
//! cargo run -p kex-lint --bin lint -- --assert         # exit non-zero on any finding (CI mode)
//! cargo run -p kex-lint --bin lint -- --write-manifest # regenerate docs/ordering_sites.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use kex_analyze::Config;
use kex_lint::{audit, generate_manifest, render_json, render_text, Inputs, Workspace};

const USAGE: &str = "usage: lint [--json] [--assert] [--write-manifest] [--root PATH]\n\
                     \n\
                     Token-level conformance lints over the workspace sources: ordering-policy\n\
                     checker (ord::* constants, docs/ordering_sites.json manifest and the\n\
                     docs/MEMORY_ORDERING.md audit table, reconciled both ways), facade-bypass\n\
                     detector, busy-wait backoff lint, the cross-layer drift audit against\n\
                     the kex-analyze protocol IR, and the ordering-obligation pass (per-site\n\
                     roles checked against the IR-derived release/acquire minimums).";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut json = false;
    let mut assert_clean = false;
    let mut write_manifest = false;
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--assert" => assert_clean = true,
            "--write-manifest" => write_manifest = true,
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
    let inputs = Inputs::load(&root);

    if write_manifest {
        let text = match generate_manifest(&ws) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("lint: {e}");
                return ExitCode::FAILURE;
            }
        };
        let path = root.join("docs/ordering_sites.json");
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("lint: failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("lint: wrote {}", path.display());
        return ExitCode::SUCCESS;
    }

    let report = audit(&ws, &inputs, &Config::default());
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
