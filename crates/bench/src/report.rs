//! Structured output for the experiment binaries.
//!
//! Every binary accepts `--json <path>`: alongside its human-readable
//! tables it then writes one machine-readable JSON document, so results
//! can be regenerated and diffed instead of eyeballed. The value model
//! and writer come from `kex_obs::json` — no external serialization
//! dependency.

use std::path::PathBuf;

use kex_obs::json::Json;

use crate::Measurement;

/// Collects a JSON document and writes it on [`JsonSink::finish`] if the
/// command line asked for one.
#[derive(Debug)]
pub struct JsonSink {
    path: Option<PathBuf>,
    fields: Vec<(String, Json)>,
}

impl JsonSink {
    /// Build a sink from the process arguments: `--json <path>` (or
    /// `--json=<path>`) enables it. Unknown arguments are left for the
    /// caller to interpret.
    pub fn from_args() -> Self {
        let mut path = None;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            if arg == "--json" {
                path = args.next().map(PathBuf::from);
                if path.is_none() {
                    eprintln!("--json requires a path argument");
                    std::process::exit(2);
                }
            } else if let Some(rest) = arg.strip_prefix("--json=") {
                path = Some(PathBuf::from(rest));
            }
        }
        JsonSink {
            path,
            fields: Vec::new(),
        }
    }

    /// Like [`JsonSink::from_args`], but falls back to `default_path`
    /// when the command line gave no `--json` — for binaries that always
    /// write their document (`contend`).
    pub fn from_args_or_default(default_path: &str) -> Self {
        let mut sink = Self::from_args();
        if sink.path.is_none() {
            sink.path = Some(PathBuf::from(default_path));
        }
        sink
    }

    /// Whether a `--json` path was given (callers can skip building
    /// expensive structures otherwise).
    pub fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// Add a top-level field to the document.
    pub fn put(&mut self, key: &str, value: Json) {
        self.fields.push((key.to_owned(), value));
    }

    /// Write the document if enabled. Call last; exits with an error
    /// message on I/O failure (experiments should not silently lose
    /// their recorded output).
    pub fn finish(self) {
        if let Some(path) = self.path {
            let doc = Json::Obj(self.fields);
            match kex_obs::json::write_pretty(&path, &doc) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("failed to write {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
    }
}

/// A [`Measurement`] as a JSON object (field names match the struct).
pub fn measurement_json(m: &Measurement) -> Json {
    Json::obj(vec![
        ("worst_pair", m.worst_pair.into()),
        ("mean_pair", m.mean_pair.into()),
        ("worst_entry", m.worst_entry.into()),
        ("worst_wait_steps", m.worst_wait_steps.into()),
        ("p99_wait_steps", m.p99_wait_steps.into()),
        ("acquisitions", m.acquisitions.into()),
        ("peak_contention", m.peak_contention.into()),
    ])
}
