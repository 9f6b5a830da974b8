//! Durable SET throughput of the group-commit write-ahead log at several
//! writer counts, against real files. [`record`] writes the tracked
//! `BENCH_wal.json` (`cargo run -p bench --release --bin baseline -- wal`).
//!
//! Each writer loops `set` + per-operation commit on one shared
//! `DurableWormhole` (`SyncPolicy::Always`), so every acknowledged
//! operation is covered by a synced `Commit` frame. The interesting
//! number is `ops_per_fsync`: with one writer every commit pays its own
//! fsync (≈1.0); with contending writers the batch leader seals the whole
//! pending buffer, so the cost is shared and the ratio climbs.

use std::path::Path;
use std::time::Instant;

use index_traits::ConcurrentOrderedIndex;
use wh_durable::{DurableOptions, DurableWormhole};

use crate::measure::quick_or;
use crate::report::{Report, Row};

/// One writer-count cell.
struct WalSample {
    writers: usize,
    ops: u64,
    mops: f64,
    fsyncs: u64,
}

impl WalSample {
    fn row(&self) -> Row {
        Row::new()
            .int("writers", self.writers as u64)
            .int("ops", self.ops)
            .float("mops", self.mops, 3)
            .int("fsyncs", self.fsyncs)
            .float(
                "ops_per_fsync",
                self.ops as f64 / self.fsyncs.max(1) as f64,
                2,
            )
    }
}

/// `writers` threads each acknowledging `per_writer` SETs on a fresh
/// durable index under `dir`.
fn measure(writers: usize, per_writer: u64, dir: &Path) -> WalSample {
    let _ = std::fs::remove_dir_all(dir);
    let idx: DurableWormhole<u64> =
        DurableWormhole::open_with(dir, DurableOptions::default()).expect("open durable index");
    let start = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..writers {
            let idx = &idx;
            scope.spawn(move || {
                for i in 0..per_writer {
                    let key = format!("w{w:02}-{i:08}");
                    idx.set(key.as_bytes(), i);
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let ops = writers as u64 * per_writer;
    let fsyncs = idx.sync_count();
    let _ = std::fs::remove_dir_all(dir);
    WalSample {
        writers,
        ops,
        mops: ops as f64 / secs / 1e6,
        fsyncs,
    }
}

/// Measures the `BENCH_wal.json` record.
pub fn record() -> Report {
    let per_writer = quick_or(20_000u64, 1_500);
    let writer_counts: &[usize] = quick_or(&[1, 2, 4, 8], &[1, 4]);
    let dir = std::env::temp_dir().join(format!("wal_commit_baseline_{}", std::process::id()));
    let series: Vec<WalSample> = writer_counts
        .iter()
        .map(|&writers| measure(writers, per_writer, &dir))
        .collect();
    Report::new(
        "wal_commit",
        "Durable SET throughput of DurableWormhole (write-ahead log with group commit, \
         SyncPolicy::Always, real files under the OS temp dir) at increasing writer-thread \
         counts, ~13B keys, `ops_per_writer` acknowledged ops per writer, fresh directory per \
         cell. Every op is logged, applied, and covered by a synced Commit frame before set() \
         returns; fsyncs counts the storage sync barriers actually paid, so ops_per_fsync is \
         the group-commit batching factor (1.0 = every commit paid its own fsync; higher = the \
         batch leader amortised the barrier over concurrent writers). Absolute Mops/s tracks \
         the fsync latency of the host's temp filesystem more than anything else; the batching \
         factor is the portable signal. On a single-CPU host writers time-slice, which caps \
         how many commits pile up behind one leader.",
    )
    .size("ops_per_writer", per_writer)
    .section("series", series.iter().map(WalSample::row))
}
