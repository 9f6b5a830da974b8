//! Benchmark harness for the Wormhole reproduction.
//!
//! The crate has two faces:
//!
//! * the paper's evaluation: a library ([`drivers`], [`measure`],
//!   [`figures`]) with a uniform driver over every index, thread-scaling
//!   measurement helpers, and one function per table/figure that returns the
//!   data series the paper plots, printed as paper-style rows by the
//!   `figures` binary (`cargo run -p bench --release --bin figures`);
//! * the tracked records: one measurement module per `BENCH_*.json` at the
//!   repo root, each with a `record()` that measures, checks the samples,
//!   and returns a [`report::Report`], written by the `baseline` binary
//!   (`cargo run -p bench --release --bin baseline -- all`).
//!
//! Absolute numbers depend on the machine; the paper's claims are about the
//! *relative* ordering and trends of its series, not their absolute values.

pub mod batch_lookup;
pub mod contended;
pub mod drivers;
pub mod figures;
pub mod measure;
pub mod meta_layouts;
pub mod report;
pub mod scan_stream;
pub mod service_latency;
pub mod shard_scale;
pub mod wal_commit;
