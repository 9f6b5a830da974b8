//! Client-observed latency of the batched serving layer
//! (`netsim::ShardServer`): the full request→response round trip a client
//! sees — encode, queue, dispatch, shard-affine execution, reassembly,
//! decode — summarised as p50/p99/p999 per worker count and workload mix,
//! plus a tail-under-migration-churn cell where boundary migrations storm
//! while the server answers. [`record`] writes the tracked
//! `BENCH_service.json` (`cargo run -p bench --release --bin baseline --
//! service`).
//!
//! The quantiles come from the service's `client_rtt_ns` histogram
//! (log₂-bucketed, so values are bucket upper bounds — coarse but stable
//! across runs), recorded once per request with the whole message's round
//! trip: what a real client of the batched protocol experiences, as
//! opposed to the server-side per-op service times the `netsim_get_ns`
//! family tracks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use netsim::{ShardServer, WireRequest};
use wh_shard::ShardedWormhole;

use crate::measure::quick_or;
use crate::report::{ensure, Report, Row};
use crate::shard_scale::{build_sharded, resident_keys, Mix};

/// One measured cell of the serving-layer latency sweep.
#[derive(Debug, Clone)]
pub(crate) struct ServiceLatencySample {
    /// Worker (execution) threads behind the dispatcher.
    pub workers: usize,
    /// `"read_heavy"` (90% gets) or `"mixed"` (50/50).
    pub mix: &'static str,
    /// Whether boundary migrations were bouncing during the run.
    pub churn: bool,
    /// Requests completed.
    pub ops: u64,
    /// Client-observed throughput in million operations per second.
    pub mops: f64,
    /// Client-observed round-trip quantiles in nanoseconds.
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    /// Router-epoch pipeline flushes the dispatcher performed (non-zero
    /// only when churn raced the pipeline).
    pub epoch_flushes: u64,
}

impl ServiceLatencySample {
    fn row(&self) -> Row {
        Row::new()
            .int("workers", self.workers as u64)
            .str("mix", self.mix)
            .bool("churn", self.churn)
            .int("ops", self.ops)
            .float("mops", self.mops, 3)
            .int("p50_ns", self.p50_ns)
            .int("p99_ns", self.p99_ns)
            .int("p999_ns", self.p999_ns)
            .int("epoch_flushes", self.epoch_flushes)
    }
}

/// Builds the request stream of one cell: point ops over the resident
/// keyset, 90/10 or 50/50 gets vs overwrites, slots strided so
/// consecutive requests spread across shards.
fn service_requests(keys: &[Vec<u8>], ops: usize, mix: Mix) -> Vec<WireRequest> {
    let write_every = match mix {
        Mix::ReadHeavy => 10,
        Mix::Mixed => 2,
        Mix::WriteHeavy => 1,
    };
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    (0..ops)
        .map(|j| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = keys[(x as usize) % keys.len()].clone();
            if j % write_every == 0 {
                WireRequest::Set { key, value: x }
            } else {
                WireRequest::Get { key }
            }
        })
        .collect()
}

/// Measures one cell: a fresh 4-shard front behind a fresh
/// [`ShardServer`] with `workers` execution threads, driven with `ops`
/// requests of the given mix. With `churn`, a background thread bounces
/// one boundary back and forth for the whole run, so the tail includes
/// migration freezes, router-epoch flushes, and scan re-routing.
fn measure_service_latency(
    workers: usize,
    keys: usize,
    ops: usize,
    mix: Mix,
    churn: bool,
) -> ServiceLatencySample {
    let resident = resident_keys(keys);
    let index: Arc<ShardedWormhole<u64>> = Arc::new(build_sharded(4, keys, true));
    let server = ShardServer::new(Arc::clone(&index), workers);
    let requests = service_requests(&resident, ops, mix);

    let stop = Arc::new(AtomicBool::new(false));
    let churn_thread = churn.then(|| {
        let index = Arc::clone(&index);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // Bounce the first boundary between two targets inside shard
            // 0/1's joint range; every publication bumps the router epoch.
            let low = crate::shard_scale::resident_key(keys / 8);
            let high = crate::shard_scale::resident_key(keys * 3 / 8);
            let mut flip = false;
            while !stop.load(Ordering::Relaxed) {
                let target = if flip { &low } else { &high };
                index.migrate_boundary(0, target).expect("valid target");
                flip = !flip;
            }
        })
    });

    let stats = server.run(&requests);

    stop.store(true, Ordering::Relaxed);
    if let Some(handle) = churn_thread {
        handle.join().expect("churn thread");
    }
    index.check_invariants();

    let rtt = server.metrics().client_rtt_ns.snapshot();
    ServiceLatencySample {
        workers,
        mix: mix.label(),
        churn,
        ops: stats.operations as u64,
        mops: stats.mops(),
        p50_ns: rtt.p50(),
        p99_ns: rtt.p99(),
        p999_ns: rtt.p999(),
        epoch_flushes: server.server_metrics().epoch_flushes.get(),
    }
}

/// The full sweep of `BENCH_service.json`: worker counts × mixes, plus
/// the churn cell at the highest worker count under the read-heavy mix.
fn measure_service_sweep(
    worker_counts: &[usize],
    keys: usize,
    ops: usize,
) -> Vec<ServiceLatencySample> {
    let mut samples = Vec::new();
    for &workers in worker_counts {
        for mix in [Mix::ReadHeavy, Mix::Mixed] {
            samples.push(measure_service_latency(workers, keys, ops, mix, false));
        }
    }
    let top = worker_counts.iter().copied().max().unwrap_or(1);
    samples.push(measure_service_latency(
        top,
        keys,
        ops,
        Mix::ReadHeavy,
        true,
    ));
    samples
}

/// The cross-row checks of `BENCH_service.json`: at least two worker
/// counts under both point mixes plus the migration-churn tail cell, every
/// cell productive, and the quantiles populated and ordered.
pub(crate) fn check_service(series: &[ServiceLatencySample]) -> Result<(), String> {
    let mut workers: Vec<usize> = series.iter().map(|s| s.workers).collect();
    workers.sort_unstable();
    workers.dedup();
    ensure(workers.len() >= 2, || {
        format!("need >= 2 worker counts, got {workers:?}")
    })?;
    for &w in &workers {
        for mix in ["read_heavy", "mixed"] {
            ensure(
                series
                    .iter()
                    .any(|s| s.workers == w && s.mix == mix && !s.churn),
                || format!("missing workers={w} mix={mix} cell"),
            )?;
        }
    }
    ensure(series.iter().any(|s| s.churn), || {
        "missing migration-churn cell".to_owned()
    })?;
    for s in series {
        ensure(s.ops > 0, || format!("cell did no work: {s:?}"))?;
        ensure(s.p50_ns <= s.p99_ns && s.p99_ns <= s.p999_ns, || {
            format!("quantiles out of order: {s:?}")
        })?;
        ensure(s.p50_ns > 0, || format!("empty histogram: {s:?}"))?;
    }
    Ok(())
}

/// Measures and checks the `BENCH_service.json` record.
pub fn record() -> Report {
    let keys = quick_or(100_000usize, 4_000);
    let ops = quick_or(1_000_000usize, 20_000);
    let series = measure_service_sweep(&[1, 4], keys, ops);
    check_service(&series).expect("BENCH_service.json check");
    Report::new(
        "service_latency",
        "Client-observed round-trip latency of the batched serving layer (netsim::ShardServer) \
         over a 4-shard ShardedWormhole: one dispatcher routing each 800-request message \
         against a single router-table snapshot (route_batch), N shard-affine execution \
         workers, one reassembling collector, client pipeline depth 8. Quantiles are the \
         client_rtt_ns histogram (log2-bucketed upper bounds, nanoseconds) of full message \
         round trips — encode, queue, execute, reassemble, decode — recorded once per \
         request. read_heavy = 90% point gets / 10% overwrites, mixed = 50/50, over `keys` \
         resident ~20B keys, `ops_per_cell` requests per cell. churn=true bounces one shard \
         boundary back and forth (migrate_boundary) for the whole run, so the tail includes \
         migration freezes and router-epoch pipeline flushes (epoch_flushes counts them). \
         Single-CPU hosts time-slice the stages, inflating latency vs a multicore host; the \
         tracked claims are the relative shape: more workers should not inflate p50, and \
         churn should cost tail (p999), not the median.",
    )
    .size("keys", keys as u64)
    .size("ops_per_cell", ops as u64)
    .section("series", series.iter().map(ServiceLatencySample::row))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_latency_measurement_smoke() {
        let sample = measure_service_latency(2, 2_000, 4_000, Mix::ReadHeavy, false);
        assert_eq!(sample.ops, 4_000);
        assert!(sample.mops > 0.0);
        assert_eq!(sample.mix, "read_heavy");
        assert!(!sample.churn);
        if wh_telemetry::enabled() {
            assert!(sample.p50_ns > 0, "round trips must be recorded");
            assert!(sample.p999_ns >= sample.p99_ns);
            assert!(sample.p99_ns >= sample.p50_ns);
        }
    }

    #[test]
    fn churn_cell_smoke() {
        let sample = measure_service_latency(2, 2_000, 4_000, Mix::Mixed, true);
        assert_eq!(sample.ops, 4_000);
        assert!(sample.churn);
    }
}
