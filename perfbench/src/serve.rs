//! The in-memory serving workloads, measured at `ShardServer::run`.

use std::sync::Arc;
use std::time::Instant;

use index_traits::ConcurrentOrderedIndex;
use netsim::ShardServer;
use wh_shard::ShardedWormhole;

use crate::host::heap_live_bytes;
use crate::inputs::{Inputs, Op, BATCH, SHARDS, WORKERS};
use crate::model::{value_of, Model, Tally};
use crate::report::{median, Metrics, Outcome};
use crate::trace::Tracer;
use crate::Config;

/// Keys the shard boundaries are chosen from (quantiles of a random
/// sample, as a deployment would).
const BOUNDARY_SAMPLE: usize = 4096;

/// Threads inserting the resident set during set-up.
const LOADERS: usize = 2;

/// Builds the sharded front and inserts the resident set through its
/// public API, in load order. Returns the index and the seconds it took.
pub fn setup(keys: &[Vec<u8>], load: &[u32]) -> (Arc<ShardedWormhole<u64>>, f64) {
    let started = Instant::now();
    let sample: Vec<&[u8]> = load
        .iter()
        .take(BOUNDARY_SAMPLE)
        .map(|&id| keys[id as usize].as_slice())
        .collect();
    let index = ShardedWormhole::from_sample(SHARDS, &sample);
    std::thread::scope(|s| {
        for w in 0..LOADERS {
            let index = &index;
            s.spawn(move || {
                for &id in load.iter().skip(w).step_by(LOADERS) {
                    index.set(&keys[id as usize], value_of(id, 0));
                }
            });
        }
    });
    (Arc::new(index), started.elapsed().as_secs_f64())
}

/// Writes a value the model does not know under the key of the stream's
/// first operation, so that the checker must report that operation.
pub fn plant_fault(index: &ShardedWormhole<u64>, keys: &[Vec<u8>], stream: &[Op]) {
    let id = stream[0].id();
    index.set(&keys[id as usize], value_of(id ^ 1, u32::MAX - 1));
}

/// What one serving phase did.
#[derive(Default)]
pub struct Served {
    /// Operations sent.
    pub ops: usize,
    /// Seconds from first send to last response, summed over calls.
    pub seconds: f64,
    /// Ops/s of each `run` call, in call order.
    pub rates: Vec<f64>,
}

/// Serves `ops` through `server` in calls of `chunk` requests until the
/// timed seconds reach `budget` or the ops run out, checking every
/// response. `before` runs ahead of each call with the call's index. With
/// a tracer, each call is one message span with a `netsim.run` child.
#[allow(clippy::too_many_arguments)]
pub fn serve(
    server: &ShardServer,
    ops: &[Op],
    keys: &[Vec<u8>],
    model: &mut Model,
    chunk: usize,
    budget: f64,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
    mut before: impl FnMut(usize),
) -> Served {
    let mut served = Served::default();
    for (i, part) in ops.chunks(chunk).enumerate() {
        if served.seconds >= budget {
            break;
        }
        let (requests, expects) = model.materialize(part, keys);
        before(i);
        let (stats, responses) = match tracer.as_deref_mut() {
            Some(tr) => {
                let (msg, root) = tr.message("serve.message");
                let out = tr.span("netsim.run", msg, root, || server.run_collect(&requests));
                tr.close(root);
                out
            }
            None => server.run_collect(&requests),
        };
        served.ops += requests.len();
        served.seconds += stats.seconds;
        served.rates.push(requests.len() as f64 / stats.seconds);
        for (i, expect) in expects.iter().enumerate() {
            tally.record(
                responses
                    .get(i)
                    .is_some_and(|r| model.check(r, expect, keys)),
            );
        }
    }
    served
}

/// Live heap bytes `index` holds per key: the allocator's count of live
/// bytes with the index and after dropping it. Counting live allocations,
/// not resident pages, keeps out the pages that transient request and
/// response buffers leave behind, which the kernel's RSS cannot tell apart.
pub fn heap_held_per_key<T: ConcurrentOrderedIndex<u64>>(index: Arc<T>) -> f64 {
    let keys = index.len().max(1) as f64;
    let with = heap_live_bytes();
    drop(index);
    with.saturating_sub(heap_live_bytes()) as f64 / keys
}

/// An untraced run of an in-memory workload, in rounds. Each round sets up
/// a fresh index and serves its share of the run's seconds from where the
/// previous round stopped (an ingest round ends with its stream, whose
/// inserts are absent only from a fresh set-up). Interleaving set-ups with
/// serving spreads the timed calls over the whole run, so a slow spell of
/// a shared host weighs on fewer of them.
pub fn measure(cfg: &Config, inputs: &Inputs) -> Outcome {
    let keys = &inputs.keys;
    let chunk = cfg.sizes.chunk_messages * BATCH;
    let share = cfg.seconds / cfg.sizes.setups as f64;
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut heap_per_key = Vec::new();
    let mut seconds = 0.0;
    let (mut stream, mut pos) = (0, 0);
    while seconds < cfg.seconds && stream < inputs.rounds.len() {
        let ops = &inputs.rounds[stream][pos..];
        let (index, setup_s) = setup(keys, &inputs.load);
        setups.push(setup_s);
        if cfg.fault && setups.len() == 1 {
            plant_fault(&index, keys, ops);
        }
        let server = ShardServer::new(Arc::clone(&index), WORKERS);
        let mut model = Model::new(keys.len(), &inputs.load);
        let budget = share.min(cfg.seconds - seconds);
        let served = serve(
            &server,
            ops,
            keys,
            &mut model,
            chunk,
            budget,
            &mut tally,
            None,
            |_| {},
        );
        seconds += served.seconds;
        rates.extend(served.rates);
        pos += served.ops;
        if pos == inputs.rounds[stream].len() {
            (stream, pos) = (stream + 1, 0);
        }
        drop(server);
        heap_per_key.push(heap_held_per_key(index));
    }
    while setups.len() < cfg.sizes.setups {
        let (index, setup_s) = setup(keys, &inputs.load);
        setups.push(setup_s);
        heap_per_key.push(heap_held_per_key(index));
    }
    let mut metrics = Metrics::default();
    metrics.push("throughput_ops_s", median(&rates), "1/s");
    metrics.push("setup_s", median(&setups), "s");
    metrics.push("heap_bytes_per_key", median(&heap_per_key), "B");
    Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: metrics.0,
    }
}
