//! Measures and writes the tracked `BENCH_<name>.json` records into the
//! current directory.
//!
//! ```text
//! cargo run -p bench --release --bin baseline -- all
//! cargo run -p bench --release --bin baseline -- shard
//! ```
//!
//! Set `WH_BENCH_QUICK=1` for the smoke mode (seconds; the numbers are not
//! comparable to the tracked records and must not be committed).

use std::process::ExitCode;

use bench::report::Report;
use bench::{
    batch_lookup, contended, meta_layouts, scan_stream, service_latency, shard_scale, wal_commit,
};

/// Measures, checks and returns one record.
type Recorder = fn() -> Report;

/// Every record, by the name that is both its subcommand and its file stem.
const RECORDS: [(&str, Recorder); 7] = [
    ("meta", meta_layouts::record),
    ("concurrent", contended::record),
    ("scan", scan_stream::record),
    ("shard", shard_scale::record),
    ("wal", wal_commit::record),
    ("batch", batch_lookup::record),
    ("service", service_latency::record),
];

fn main() -> ExitCode {
    let arg = std::env::args().nth(1).unwrap_or_default();
    let selected: Vec<_> = RECORDS
        .iter()
        .filter(|(name, _)| arg == "all" || arg == *name)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = RECORDS.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: baseline <{}|all>", names.join("|"));
        return ExitCode::from(2);
    }
    for (name, record) in selected {
        let file = format!("BENCH_{name}.json");
        eprintln!("recording {file}...");
        let report = record();
        if let Err(e) = report.check() {
            eprintln!("{file}: {e}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(&file, report.to_json()) {
            eprintln!("{file}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {file}");
    }
    ExitCode::SUCCESS
}
