//! The durable write path, measured at `wh_durable::DurableSharded`.
//!
//! Both the `durable_ingest` workload and the durable rung of every traced
//! run go through [`write_phase`]: writer threads insert keys the store
//! does not hold, timing each acknowledgement.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use index_traits::{ConcurrentOrderedIndex, DurableIndex};
use wh_durable::{DurableOptions, DurableSharded, SyncPolicy};
use wh_shard::ShardedConfig;

use crate::inputs::{Inputs, Op, SHARDS, WRITERS};
use crate::model::{value_of, Tally};
use crate::report::{median, quantile, Metrics, Outcome};
use crate::serve::heap_held_per_key;
use crate::trace::Tracer;
use crate::Config;

/// Sets per durable message span of a writer thread.
const WRITES_PER_MESSAGE: usize = 100;
/// Width of the windows the acknowledgement rate is taken over.
const RATE_WINDOW_S: f64 = 0.5;

pub type Store = DurableSharded<u64>;

fn options(sync: SyncPolicy) -> DurableOptions {
    DurableOptions {
        sync,
        ..DurableOptions::default()
    }
}

/// Shard boundaries: quantiles of a sample of the resident keys.
pub fn boundaries(keys: &[Vec<u8>], ids: &[u32]) -> Vec<Vec<u8>> {
    let sample: Vec<&[u8]> = ids
        .iter()
        .take(4096)
        .map(|&id| keys[id as usize].as_slice())
        .collect();
    ShardedConfig::from_sample(SHARDS, &sample)
        .boundaries()
        .to_vec()
}

pub fn open(dir: &Path, boundaries: &[Vec<u8>], sync: SyncPolicy) -> Store {
    DurableSharded::open_with(dir, boundaries, options(sync)).expect("open the durable store")
}

/// The durable set-up: bulk-load `load` under `Manual`, checkpoint, and
/// reopen under `Always`. Returns the reopened store and the seconds taken.
pub fn setup(dir: &Path, keys: &[Vec<u8>], load: &[u32], boundaries: &[Vec<u8>]) -> (Store, f64) {
    let started = Instant::now();
    {
        let store = open(dir, boundaries, SyncPolicy::Manual);
        for &id in load {
            store.set(&keys[id as usize], value_of(id, 0));
        }
        store.checkpoint().expect("checkpoint after the bulk load");
    }
    let store = open(dir, boundaries, SyncPolicy::Always);
    (store, started.elapsed().as_secs_f64())
}

/// Counter totals across every shard of a store.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub fsyncs: u64,
    pub fsync_ns_sum: u64,
    pub fsync_ns_count: u64,
    pub wal_bytes: u64,
}

impl Counters {
    pub fn read(store: &Store) -> Counters {
        let mut c = Counters::default();
        for i in 0..store.shard_count() {
            let m = store.shard(i).metrics();
            let fsync = m.fsync_ns.snapshot();
            c.fsyncs += m.fsyncs.get();
            c.fsync_ns_sum += fsync.sum;
            c.fsync_ns_count += fsync.count();
            c.wal_bytes += m.wal_bytes.get();
        }
        c
    }

    pub fn since(self, before: Counters) -> Counters {
        Counters {
            fsyncs: self.fsyncs - before.fsyncs,
            fsync_ns_sum: self.fsync_ns_sum - before.fsync_ns_sum,
            fsync_ns_count: self.fsync_ns_count - before.fsync_ns_count,
            wal_bytes: self.wal_bytes - before.wal_bytes,
        }
    }
}

/// What the writers of one phase did.
pub struct Writes {
    /// Ids whose set was acknowledged, per writer in order.
    pub acked: Vec<u32>,
    /// Each acknowledged set's latency as the writer saw it.
    pub ack_ns: Vec<u64>,
    /// Median acknowledged sets per second over the phase's whole
    /// [`RATE_WINDOW_S`] windows (over the whole phase when it is shorter
    /// than three windows).
    pub rate: f64,
    pub counters: Counters,
    pub tally: Tally,
}

/// Inserts `ids` (absent from `store`) with [`WRITERS`] threads, writer
/// `w` taking every `WRITERS`-th id from `w`, until `budget` seconds pass or
/// the ids run out. With a tracer, every [`WRITES_PER_MESSAGE`] sets of a
/// writer form one message span with a `durable.set` child per set.
pub fn write_phase(
    store: &Store,
    keys: &[Vec<u8>],
    ids: &[u32],
    budget: f64,
    tracer: Option<&mut Tracer>,
) -> Writes {
    let before = Counters::read(store);
    let base = Instant::now();
    let traced = tracer.is_some();
    let per_writer: Vec<WriterLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                s.spawn(move || {
                    let mut tr = traced.then(|| Tracer::new(base, (w as u64 + 1) << 40));
                    let mut log = WriterLog::default();
                    let mut root = None;
                    for (j, &id) in ids.iter().skip(w).step_by(WRITERS).enumerate() {
                        if base.elapsed().as_secs_f64() >= budget {
                            break;
                        }
                        if let Some(tr) = tr.as_mut() {
                            if j % WRITES_PER_MESSAGE == 0 {
                                if let Some((_, r)) = root {
                                    tr.close(r);
                                }
                                root = Some(tr.message("durable.message"));
                            }
                        }
                        let key = &keys[id as usize];
                        let started = Instant::now();
                        let prev = match (tr.as_mut(), root) {
                            (Some(tr), Some((msg, r))) => {
                                tr.span("durable.set", msg, r, || store.set(key, value_of(id, 0)))
                            }
                            _ => store.set(key, value_of(id, 0)),
                        };
                        log.ack_ns.push(started.elapsed().as_nanos() as u64);
                        log.done_s.push(base.elapsed().as_secs_f64());
                        log.acked.push(id);
                        log.tally.record(prev.is_none());
                    }
                    if let (Some(tr), Some((_, r))) = (tr.as_mut(), root) {
                        tr.close(r);
                    }
                    log.tracer = tr;
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer thread"))
            .collect()
    });
    let seconds = base.elapsed().as_secs_f64();
    let mut writes = Writes {
        acked: Vec::new(),
        ack_ns: Vec::new(),
        rate: 0.0,
        counters: Counters::read(store).since(before),
        tally: Tally::default(),
    };
    let mut tracer = tracer;
    let windows = (seconds / RATE_WINDOW_S) as usize;
    let mut per_window = vec![0u64; windows];
    for log in per_writer {
        writes.acked.extend(log.acked);
        writes.ack_ns.extend(log.ack_ns);
        writes.tally.add(log.tally);
        for t in log.done_s {
            if let Some(w) = per_window.get_mut((t / RATE_WINDOW_S) as usize) {
                *w += 1;
            }
        }
        if let (Some(into), Some(tr)) = (tracer.as_deref_mut(), log.tracer) {
            into.absorb(tr);
        }
    }
    writes.rate = if windows >= 3 {
        median(
            &per_window
                .iter()
                .map(|&n| n as f64 / RATE_WINDOW_S)
                .collect::<Vec<_>>(),
        )
    } else {
        writes.acked.len() as f64 / seconds
    };
    writes
}

/// One writer thread's record.
#[derive(Default)]
struct WriterLog {
    acked: Vec<u32>,
    ack_ns: Vec<u64>,
    /// Seconds from the phase start to each acknowledgement.
    done_s: Vec<f64>,
    tally: Tally,
    tracer: Option<Tracer>,
}

/// Reopens the store at `dir` and checks that every id in `expect` reads
/// back its set-up value. Returns the seconds the reopen took.
pub fn recover(
    dir: &Path,
    boundaries: &[Vec<u8>],
    keys: &[Vec<u8>],
    expect: &[u32],
    tally: &mut Tally,
) -> f64 {
    let started = Instant::now();
    let store = open(dir, boundaries, SyncPolicy::Always);
    let seconds = started.elapsed().as_secs_f64();
    for &id in expect {
        tally.record(store.get(&keys[id as usize]) == Some(value_of(id, 0)));
    }
    seconds
}

/// A scratch directory for stores, removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(out_dir: &Path, name: &str) -> Scratch {
        let dir = out_dir.join(format!("store-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The inserted ids of the durable stream, in stream order.
pub fn insert_ids(stream: &[Op]) -> Vec<u32> {
    stream
        .iter()
        .filter_map(|op| match op {
            Op::Set(id) => Some(*id),
            _ => None,
        })
        .collect()
}

/// An untraced `durable_ingest` run.
pub fn measure(cfg: &Config, inputs: &Inputs) -> Outcome {
    let keys = &inputs.keys;
    let bounds = boundaries(keys, &inputs.load);
    let inserts = insert_ids(&inputs.rounds[0]);
    let mut tally = Tally::default();
    let mut setups = Vec::new();

    let main = Scratch::new(&cfg.out_dir, "main");
    let (store, setup_s) = setup(&main.0, keys, &inputs.load, &bounds);
    setups.push(setup_s);
    if cfg.fault {
        store.set(&keys[inserts[0] as usize], value_of(inserts[0] ^ 1, 7));
    }
    let writes = write_phase(&store, keys, &inserts, cfg.seconds, None);
    tally.add(writes.tally);
    let mut heap_per_key = vec![heap_held_per_key(Arc::new(store))];
    let mut expect = inputs.load.clone();
    expect.extend(&writes.acked);
    recover(&main.0, &bounds, keys, &expect, &mut tally);
    drop(main);

    while setups.len() < cfg.sizes.setups {
        let extra = Scratch::new(&cfg.out_dir, "setup");
        let (store, setup_s) = setup(&extra.0, keys, &inputs.load, &bounds);
        setups.push(setup_s);
        heap_per_key.push(heap_held_per_key(Arc::new(store)));
    }
    let mut metrics = Metrics::default();
    metrics.push("throughput_ops_s", writes.rate, "1/s");
    metrics.push("setup_s", median(&setups), "s");
    metrics.push("heap_bytes_per_key", median(&heap_per_key), "B");
    Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: metrics.0,
    }
}

/// The durable rung of a traced run: `base` bulk-loaded and `ids` (absent
/// from it) written under `Always`, recovered and checked, then `ids`
/// written again into a second, empty store under `Manual` to price the
/// commit. Returns the `durable.*` metrics.
pub fn rung(
    cfg: &Config,
    keys: &[Vec<u8>],
    base: &[u32],
    ids: &[u32],
    budget: f64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Metrics {
    let mut metrics = Metrics::default();
    let bounds = boundaries(keys, if base.is_empty() { ids } else { base });
    let always_dir = Scratch::new(&cfg.out_dir, "always");
    let (store, _) = setup(&always_dir.0, keys, base, &bounds);
    let always = write_phase(&store, keys, ids, budget, Some(tracer));
    tally.add(always.tally);
    drop(store);
    let mut expect = base.to_vec();
    expect.extend(&always.acked);
    let recovery_s = recover(&always_dir.0, &bounds, keys, &expect, tally);
    drop(always_dir);

    let manual_dir = Scratch::new(&cfg.out_dir, "manual");
    let store = open(&manual_dir.0, &bounds, SyncPolicy::Manual);
    let manual = write_phase(&store, keys, &always.acked, f64::INFINITY, None);
    tally.add(manual.tally);
    drop(store);
    drop(manual_dir);

    let mut ack = always.ack_ns.clone();
    ack.sort_unstable();
    let mean_us = |ns: &[u64]| ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64 / 1e3;
    let c = always.counters;
    let n = always.acked.len().max(1) as f64;
    metrics.push("durable.throughput_ops_s", always.rate, "1/s");
    metrics.push(
        "durable.ack_p50_us",
        quantile(&ack, 0.50) as f64 / 1e3,
        "us",
    );
    metrics.push(
        "durable.ack_p99_us",
        quantile(&ack, 0.99) as f64 / 1e3,
        "us",
    );
    metrics.push("durable.recovery_s", recovery_s, "s");
    metrics.push("durable.ops_per_fsync", n / c.fsyncs.max(1) as f64, "ops");
    metrics.push(
        "durable.fsync_mean_us",
        c.fsync_ns_sum as f64 / c.fsync_ns_count.max(1) as f64 / 1e3,
        "us",
    );
    metrics.push("durable.wal_bytes_per_op", c.wal_bytes as f64 / n, "B");
    let append_apply_us = mean_us(&manual.ack_ns);
    metrics.push("durable.append_apply_us", append_apply_us, "us");
    metrics.push(
        "durable.commit_tax_us",
        mean_us(&always.ack_ns) - append_apply_us,
        "us",
    );
    metrics
}
