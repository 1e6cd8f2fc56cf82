//! `kexbench`: the repo's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! kexbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//! kexbench suite [--seed <n>] [--seconds <s>] --out <file>             every workload, both passes
//! kexbench agree <a.json> <b.json>                                     compare two suite files
//! kexbench counts                                                      the count pass (obs build)
//! kexbench manifest                                                    the contents of BENCHMARK.json
//! ```

mod counts;
mod hist;
mod ladder;
mod loadgen;
mod report;
mod spec;
mod suite;
mod trace;
mod workload;

use std::process::ExitCode;

/// `--flag value` pairs after the subcommand, in any order.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        for pair in args.chunks(2) {
            match pair {
                [flag, value] if flag.starts_with("--") => {
                    pairs.push((flag.clone(), value.clone()))
                }
                _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
            }
        }
        Ok(Flags(pairs))
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} {v}: not a whole number")),
        }
    }
}

const DEFAULT_SEED: u64 = 1;

fn dispatch(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("suite") => {
            let flags = Flags::parse(&args[1..])?;
            let out = flags.get("--out").ok_or("suite needs --out <file>")?;
            suite::run(
                flags.number("--seed", DEFAULT_SEED)?,
                flags.number("--seconds", spec::RUN_SECONDS)?,
                out.as_ref(),
            )
        }
        Some("agree") => match &args[1..] {
            [a, b] => suite::agree(a.as_ref(), b.as_ref()),
            _ => Err("agree needs two suite files".into()),
        },
        Some("manifest") => {
            print!("{}", spec::manifest().to_string_pretty());
            Ok(())
        }
        Some("counts") if !cfg!(feature = "obs") => {
            Err("the count pass needs the build with --features obs".into())
        }
        Some("counts") => {
            let counted = counts::run()
                .into_iter()
                .map(|(name, count)| (name.to_string(), count.into()));
            println!("{}", kex_obs::json::Json::Obj(counted.collect()));
            Ok(())
        }
        _ => {
            let flags = Flags::parse(args)?;
            let name = flags.get("--workload").ok_or("missing --workload <name>")?;
            let workload = spec::workload(name).ok_or_else(|| {
                let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload {name}; the workloads are {known:?}")
            })?;
            let seconds = flags.number("--seconds", spec::RUN_SECONDS)?;
            if !(1..=60).contains(&seconds) {
                return Err(format!("--seconds {seconds}: want 1 to 60"));
            }
            let trace = match flags.number("--trace", 0)? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace {other}: want 0 or 1")),
            };
            report::one_run(
                workload,
                flags.number("--seed", DEFAULT_SEED)?,
                seconds,
                trace,
            )
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("kexbench: {why}");
            ExitCode::FAILURE
        }
    }
}
