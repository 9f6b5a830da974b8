//! Batched point-lookup measurement: `get_batch` vs a loop of single
//! `get`s over the same probe stream, per frontend and batch size.
//!
//! The batched path computes every probe's hash up front, prefetches the
//! MetaTrieHT buckets of all in-flight probes, and round-robins the LPM
//! binary-search steps across the window so each probe's next cache miss
//! overlaps the others' (memory-level parallelism). This module quantifies
//! that overlap: identical probe order, identical keys, the only variable
//! is whether lookups are issued one at a time or `BATCH_WINDOW` at a time.
//! [`record`] writes the tracked `BENCH_batch.json` (`cargo run -p bench
//! --release --bin baseline -- batch`).

use std::sync::Arc;
use std::time::Instant;

use index_traits::{ConcurrentOrderedIndex, OrderedIndex};
use netsim::ShardServer;
use wormhole::WormholeUnsafe;

use crate::measure::quick_or;
use crate::report::{ensure, Report, Row};
use crate::shard_scale::{build_sharded, build_unsharded, resident_keys, shard_bench_config};

/// One measured cell of the single-loop vs batched comparison.
#[derive(Debug, Clone)]
pub(crate) struct BatchSample {
    /// `"single"`, `"concurrent"`, `"sharded"` (router fast path on, the
    /// default), or `"sharded_nofast"` (every batch through the classic
    /// router critical section).
    pub frontend: &'static str,
    /// Resident keys in the index.
    pub keys: usize,
    /// Lookups issued per `get_batch` call (1 degenerates to the engine's
    /// windowed path with a one-entry window).
    pub batch: usize,
    /// `"single_get_loop"` or `"get_batch"`.
    pub mode: &'static str,
    /// Nanoseconds per looked-up key (best round).
    pub ns_per_key: f64,
    /// Million lookups per second (best round).
    pub mops: f64,
}

impl BatchSample {
    fn row(&self) -> Row {
        Row::new()
            .str("frontend", self.frontend)
            .int("keys", self.keys as u64)
            .int("batch", self.batch as u64)
            .str("mode", self.mode)
            .float("ns_per_key", self.ns_per_key, 1)
            .float("mops", self.mops, 3)
    }
}

/// One measured cell of the Figure-12-style service-loop series.
#[derive(Debug, Clone)]
pub(crate) struct ServiceBatchSample {
    /// `"concurrent"` or `"sharded"`.
    pub frontend: &'static str,
    /// Resident keys in the index.
    pub keys: usize,
    /// Requests per service message (the paper's 800).
    pub batch: usize,
    /// Client-observed million operations per second.
    pub mops: f64,
    /// Size in bytes of the STATS exposition scraped over the wire after
    /// the run (0 would mean the scrape failed; [`check_batch`] rejects
    /// it).
    pub stats_bytes: usize,
}

impl ServiceBatchSample {
    fn row(&self) -> Row {
        Row::new()
            .str("frontend", self.frontend)
            .int("keys", self.keys as u64)
            .int("batch", self.batch as u64)
            .float("mops", self.mops, 3)
            .int("stats_bytes", self.stats_bytes as u64)
    }
}

/// A shuffled probe stream over the resident keys: every resident is
/// visited once, in an order that defeats the hardware prefetcher.
fn probe_order(keys: usize) -> Vec<usize> {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    // Stride by a large constant coprime with `keys`, so `i * stride mod
    // keys` walks every resident exactly once.
    let mut stride = (keys / 2 + 12_345) | 1;
    while keys > 1 && gcd(stride % keys, keys) != 1 {
        stride += 2;
    }
    (0..keys).map(|i| i.wrapping_mul(stride) % keys).collect()
}

fn time_round<F: FnMut() -> u64>(mut f: F) -> (f64, u64) {
    let start = Instant::now();
    let hits = f();
    (start.elapsed().as_secs_f64(), hits)
}

fn push_pair(
    out: &mut Vec<BatchSample>,
    frontend: &'static str,
    keys: usize,
    batch: usize,
    rounds: usize,
    mut single: impl FnMut() -> u64,
    mut batched: impl FnMut() -> u64,
) {
    for (mode, f) in [
        ("single_get_loop", &mut single as &mut dyn FnMut() -> u64),
        ("get_batch", &mut batched),
    ] {
        let mut best = f64::INFINITY;
        for _ in 0..rounds {
            let (secs, hits) = time_round(&mut *f);
            assert_eq!(hits as usize, keys, "{frontend}/{mode}: every probe hits");
            best = best.min(secs);
        }
        out.push(BatchSample {
            frontend,
            keys,
            batch,
            mode,
            ns_per_key: best * 1e9 / keys as f64,
            mops: keys as f64 / best / 1e6,
        });
    }
}

/// Measures single-get loops vs `get_batch` over four frontends: the
/// single-threaded `WormholeUnsafe`, the concurrent `Wormhole`, and a
/// 4-shard `ShardedWormhole` with the migration-idle router fast path on
/// (`"sharded"`) and off (`"sharded_nofast"`). Returns one sample per
/// frontend × batch size × mode, best of `rounds` full passes over the
/// keyset.
fn measure_batch_lookup(keys: usize, batches: &[usize], rounds: usize) -> Vec<BatchSample> {
    let resident = resident_keys(keys);
    let order = probe_order(keys);
    let probes: Vec<&[u8]> = order.iter().map(|&i| resident[i].as_slice()).collect();

    let single = {
        let mut wh = WormholeUnsafe::with_config(shard_bench_config());
        for (i, key) in resident.iter().enumerate() {
            wh.set(key, i as u64);
        }
        wh
    };
    let concurrent = build_unsharded(keys);
    let sharded = build_sharded(4, keys, true);
    let sharded_nofast = build_sharded(4, keys, false);

    let mut out = Vec::new();
    for &batch in batches {
        push_pair(
            &mut out,
            "single",
            keys,
            batch,
            rounds,
            || probes.iter().filter(|k| single.get(k).is_some()).count() as u64,
            || {
                let mut hits = 0u64;
                for chunk in probes.chunks(batch) {
                    hits += single.get_batch(chunk).iter().flatten().count() as u64;
                }
                hits
            },
        );
        push_pair(
            &mut out,
            "concurrent",
            keys,
            batch,
            rounds,
            || {
                probes
                    .iter()
                    .filter(|k| ConcurrentOrderedIndex::get(&concurrent, k).is_some())
                    .count() as u64
            },
            || {
                let mut hits = 0u64;
                for chunk in probes.chunks(batch) {
                    hits += ConcurrentOrderedIndex::get_batch(&concurrent, chunk)
                        .iter()
                        .flatten()
                        .count() as u64;
                }
                hits
            },
        );
        for (frontend, front) in [("sharded", &sharded), ("sharded_nofast", &sharded_nofast)] {
            push_pair(
                &mut out,
                frontend,
                keys,
                batch,
                rounds,
                || {
                    probes
                        .iter()
                        .filter(|k| ConcurrentOrderedIndex::get(front, k).is_some())
                        .count() as u64
                },
                || {
                    let mut hits = 0u64;
                    for chunk in probes.chunks(batch) {
                        hits += ConcurrentOrderedIndex::get_batch(front, chunk)
                            .iter()
                            .flatten()
                            .count() as u64;
                    }
                    hits
                },
            );
        }
    }
    out
}

/// Figure-12-style series: client-observed throughput of a 1-worker netsim
/// `ShardServer` (decode → batched `get_batch` execution → encode →
/// reassembly) at the paper's 800-request message size, per concurrent
/// frontend. Every frontend is served through `dyn ConcurrentOrderedIndex`,
/// i.e. as a single shard.
fn measure_service_batches(keys: usize, batch: usize) -> Vec<ServiceBatchSample> {
    let resident = resident_keys(keys);
    let order = probe_order(keys);
    let probe_keys: Vec<Vec<u8>> = order.iter().map(|&i| resident[i].clone()).collect();

    let mut out = Vec::new();
    let frontends: Vec<(&'static str, Arc<dyn ConcurrentOrderedIndex<u64>>)> = vec![
        ("concurrent", Arc::new(build_unsharded(keys))),
        ("sharded", Arc::new(build_sharded(4, keys, true))),
        ("sharded_nofast", Arc::new(build_sharded(4, keys, false))),
    ];
    for (frontend, index) in frontends {
        let service = ShardServer::with_batch_size(index, 1, batch);
        let stats = service.run_lookups(&probe_keys);
        assert_eq!(stats.hits, keys, "{frontend}: every service probe hits");
        // Scrape the server in-band after the run: the STATS wire command
        // must round-trip and carry the service's own counters.
        let exposition = service.fetch_stats();
        assert!(
            exposition.contains("netsim_requests_total"),
            "{frontend}: STATS exposition missing service counters"
        );
        out.push(ServiceBatchSample {
            frontend,
            keys,
            batch,
            mops: stats.mops(),
            stats_bytes: exposition.len(),
        });
    }
    out
}

/// The cross-row checks of `BENCH_batch.json`: every frontend, both
/// sharded router regimes included, stays in the comparison, and every
/// service run's in-band STATS scrape returned an exposition.
pub(crate) fn check_batch(
    series: &[BatchSample],
    service: &[ServiceBatchSample],
) -> Result<(), String> {
    for frontend in ["single", "concurrent", "sharded", "sharded_nofast"] {
        ensure(series.iter().any(|s| s.frontend == frontend), || {
            format!("missing {frontend} series")
        })?;
    }
    ensure(!service.is_empty(), || "missing service series".to_owned())?;
    for s in service {
        ensure(s.stats_bytes > 0, || {
            format!("service row STATS scrape empty: {s:?}")
        })?;
    }
    Ok(())
}

/// Measures and checks the `BENCH_batch.json` record.
pub fn record() -> Report {
    let batches = [1usize, 8, 32, 128, 800];
    let rounds = quick_or(3usize, 1);
    let sizes: &[usize] = quick_or(&[100_000, 1_200_000], &[8_000]);
    let series: Vec<BatchSample> = sizes
        .iter()
        .flat_map(|&keys| measure_batch_lookup(keys, &batches, rounds))
        .collect();
    let service = measure_service_batches(quick_or(100_000, 8_000), 800);
    check_batch(&series, &service).expect("BENCH_batch.json check");
    Report::new(
        "batch_lookup",
        "Point-lookup cost of get_batch vs a loop of single gets over the same shuffled probe \
         stream (every resident visited once, ~20B keys, leaf capacity 64, best of `rounds` \
         rounds). frontends: single = WormholeUnsafe, concurrent = Wormhole (optimistic \
         seqlock reads), sharded = 4-shard ShardedWormhole routing through the migration-idle \
         biased fast path (no router critical section while no migration is in flight), \
         sharded_nofast = the same front with the fast path disabled (one router critical \
         section per op or batch). get_batch pipelines up to BATCH_WINDOW=16 probes: hashes \
         computed up front, MetaTrieHT buckets prefetched, LPM binary-search steps \
         round-robined so concurrent cache misses overlap; batch=1 degenerates to the \
         windowed engine with one probe. The service series is a 1-worker netsim ShardServer \
         (client encode, dispatcher decode, worker batched execution, collector reassembly, \
         each on its own thread, over channels) at the paper's 800-request message size, \
         client-observed; every frontend is served as one shard. The speedup from overlap \
         depends on how much of the probe working set misses cache: small keysets fit in LLC \
         and show mostly the reduced per-key dispatch cost; the largest keyset is where \
         memory-level parallelism shows. Single-vCPU hosts still benefit: the overlap is \
         per-core memory parallelism, not thread parallelism.",
    )
    .size("rounds", rounds as u64)
    .section("series", series.iter().map(BatchSample::row))
    .section("service", service.iter().map(ServiceBatchSample::row))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_order_is_a_permutation() {
        for keys in [1usize, 7, 100, 4096] {
            let mut seen = vec![false; keys];
            for i in probe_order(keys) {
                assert!(!seen[i], "duplicate probe index {i}");
                seen[i] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn small_measurement_produces_consistent_samples() {
        let samples = measure_batch_lookup(2_000, &[1, 8], 1);
        assert_eq!(samples.len(), 4 * 2 * 2);
        for s in &samples {
            assert!(s.ns_per_key > 0.0 && s.mops > 0.0, "{s:?}");
        }
        let service = measure_service_batches(2_000, 100);
        assert_eq!(service.len(), 3);
        assert!(service.iter().all(|s| s.mops > 0.0));
    }
}
