//! Static verdict report for every catalog algorithm.
//!
//! ```text
//! cargo run -p kex-analyze --bin analyze                 # text report
//! cargo run -p kex-analyze --bin analyze -- --n 16 --k 4
//! cargo run -p kex-analyze --bin analyze -- --obligations
//! ```
//!
//! The report's gates are the crate's tests (`cargo test -p kex-analyze`).

use std::process::ExitCode;

use kex_analyze::obligations::render_obligations_text;
use kex_analyze::{analyze_all, render_text, Config};

const USAGE: &str = "usage: analyze [--obligations] [--n N] [--k K] [--max-locs M]\n\
                     \n\
                     Statically audits every algorithm variant: local-spin (CC and DSM),\n\
                     atomic-section size, bounded spin space, name space, and RMR bounds\n\
                     cross-checked against the paper's Table 1.\n\
                     \n\
                     --obligations prints the per-variable ordering obligations derived\n\
                     from the IR instead of the verdict report.";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut cfg = Config::default();
    let mut obligations = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let num = |i: &mut usize| -> usize {
        *i += 1;
        args.get(*i)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--obligations" => obligations = true,
            "--n" => cfg.n = num(&mut i),
            "--k" => cfg.k = num(&mut i),
            "--max-locs" => cfg.max_locs = num(&mut i),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => usage(),
        }
        i += 1;
    }
    if cfg.k == 0 || cfg.k >= cfg.n {
        eprintln!("analyze: require 1 <= k < N (got k={}, N={})", cfg.k, cfg.n);
        return ExitCode::from(2);
    }
    if let Err(e) = kex_sim::protocol::ProtocolBuilder::try_new(cfg.n) {
        eprintln!("analyze: {e}");
        return ExitCode::from(2);
    }

    let report = if obligations {
        render_obligations_text(&cfg).map(|s| s + "\n")
    } else {
        analyze_all(&cfg).map(|v| render_text(&v, &cfg))
    };
    match report {
        Ok(s) => {
            print!("{s}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("analyze: {e}");
            ExitCode::FAILURE
        }
    }
}
