//! The traced run: the workload's stream replayed one rung at a time, then
//! served through `ShardServer` with spans, then through the durable rung.
//!
//! The ladder takes the stream a segment of wire messages at a time. It
//! applies each segment's sets once, then replays the segment's keys
//! through one rung per pass: the request codec, `route_batch`,
//! `ShardedWormhole::get_batch`, the owning shard's `get_batch` and `get`,
//! `MetaTable` search and `WormholeUnsafe::get` on a single-threaded twin
//! of that shard, scans at the front and at the owning shard, and the
//! response codec. Every rung sees the same keys, and between two uses of
//! a key a pass touches a whole segment of others, so no rung runs on
//! caches its predecessor warmed. The difference between adjacent rungs
//! is then the tax of one layer. Sets alternate by message between the
//! front and the owning shard, so every set runs once and the model stays
//! exact. Messages without scans get scan probes at every
//! [`PROBE_EVERY`]-th key.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bytes::BytesMut;
use index_traits::{ConcurrentOrderedIndex, OrderedIndex};
use netsim::{ShardServer, WireRequest, WireResponse};
use wh_shard::ShardedWormhole;
use wormhole::WormholeUnsafe;

use crate::durable;
use crate::inputs::{Inputs, Op, Workload, BATCH, SCAN_LIMIT, WORKERS};
use crate::model::{value_of, Expect, Model, Tally};
use crate::report::{median, Metrics, Outcome};
use crate::serve;
use crate::trace::{Tracer, NONE};
use crate::Config;

/// Shares of the run's seconds spent in the ladder, the traced serving
/// phase and the telemetry on/off phase.
const LADDER_SHARE: f64 = 0.4;
const SERVE_SHARE: f64 = 0.3;
const AB_SHARE: f64 = 0.3;
/// Share of the durable workload's seconds given to its durable rung.
const DURABLE_SHARE: f64 = 0.3;
/// Distinct `Set` keys an in-memory workload replays through the durable
/// rung.
const DURABLE_RUNG_WRITES: usize = 2_000;
/// In a message without scans, every `PROBE_EVERY`-th key starts a probe.
const PROBE_EVERY: usize = 32;
/// The span accounting must close within this share of each message.
pub const ACCOUNTING_TOLERANCE: f64 = 0.05;
/// Message ids of the serving and durable phases start here, above any
/// ladder message index.
const SERVE_MSG_BASE: u64 = 1 << 32;

/// Operation and item counts of the ladder phase, the divisors of its
/// per-layer metrics.
#[derive(Default)]
struct Counts {
    ops: u64,
    gets: u64,
    sets_front: u64,
    sets_shard: u64,
    scans: u64,
    reads: u64,
    routed: u64,
    probes: u64,
    front_scan_items: u64,
    shard_scan_items: u64,
    responses: u64,
}

/// One wire message of the ladder, prepared before any rung runs.
struct Msg {
    id: u64,
    ops: Vec<Op>,
    via_front: bool,
    requests: Vec<WireRequest>,
    sets: Vec<u32>,
    set_values: Vec<u64>,
    set_prev: Vec<Option<u64>>,
    /// Every key the message names, in op order.
    reads: Vec<u32>,
    read_want: Vec<Option<u64>>,
    probes: Vec<u32>,
    page_want: Vec<Expect>,
    /// Owning shard of each of `sets`, `reads` and `probes`, in that order.
    routes: Vec<usize>,
    set_got: Vec<Option<u64>>,
    front_reads: Vec<Option<u64>>,
}

impl Msg {
    fn set_routes(&self) -> &[usize] {
        &self.routes[..self.sets.len()]
    }

    fn read_routes(&self) -> &[usize] {
        &self.routes[self.sets.len()..self.sets.len() + self.reads.len()]
    }

    fn probe_routes(&self) -> &[usize] {
        &self.routes[self.sets.len() + self.reads.len()..]
    }
}

struct Ladder<'a> {
    index: &'a ShardedWormhole<u64>,
    twins: Vec<WormholeUnsafe<u64>>,
    keys: &'a [Vec<u8>],
    tr: Tracer,
    tally: Tally,
    counts: Counts,
}

fn codec_requests(requests: &[WireRequest]) -> Vec<WireRequest> {
    let mut buf = BytesMut::new();
    for r in requests {
        r.encode(&mut buf);
    }
    let mut bytes = buf.freeze();
    let mut out = Vec::with_capacity(requests.len());
    while let Some(r) = WireRequest::decode(&mut bytes) {
        out.push(r);
    }
    out
}

fn codec_responses(responses: &[WireResponse]) -> Vec<WireResponse> {
    let mut buf = BytesMut::new();
    for r in responses {
        r.encode(&mut buf);
    }
    let mut bytes = buf.freeze();
    let mut out = Vec::with_capacity(responses.len());
    while let Some(r) = WireResponse::decode(&mut bytes) {
        out.push(r);
    }
    out
}

fn value_response(v: Option<u64>) -> WireResponse {
    v.map_or(WireResponse::Miss, WireResponse::Value)
}

/// Runs `f` as rung `name` of message `msg`: a message root span with one
/// child.
fn rung<R>(tr: &mut Tracer, msg: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
    let root = tr.open("ladder.message", msg, NONE);
    let out = tr.span(name, msg, root, f);
    tr.close(root);
    out
}

fn check_all<T: PartialEq>(tally: &mut Tally, got: &[T], want: &[T]) {
    for (i, w) in want.iter().enumerate() {
        tally.record(got.get(i) == Some(w));
    }
}

impl Ladder<'_> {
    /// Applies the message's sets to the model and the twins and builds
    /// its requests. Nothing here is timed.
    fn prepare(&mut self, id: u64, ops: &[Op], model: &mut Model) -> Msg {
        let keys = self.keys;
        let ids = |pick: fn(&Op) -> bool| -> Vec<u32> {
            ops.iter().filter(|o| pick(o)).map(|o| o.id()).collect()
        };
        let sets = ids(|o| matches!(o, Op::Set(_)));
        let gets = ids(|o| matches!(o, Op::Get(_)));
        let scans = ids(|o| matches!(o, Op::Scan(_)));
        let probes = if scans.is_empty() {
            ops.iter().step_by(PROBE_EVERY).map(|o| o.id()).collect()
        } else {
            scans.clone()
        };
        let mut requests = Vec::with_capacity(ops.len());
        let mut set_values = Vec::with_capacity(sets.len());
        let mut set_prev = Vec::with_capacity(sets.len());
        for &id in &sets {
            let (value, prev) = model.set(id);
            let key = &keys[id as usize];
            self.twins[self.index.shard_for(key)].set(key, value);
            requests.push(WireRequest::Set {
                key: key.clone(),
                value,
            });
            set_values.push(value);
            set_prev.push(prev);
        }
        requests.extend(gets.iter().map(|&id| WireRequest::Get {
            key: keys[id as usize].clone(),
        }));
        requests.extend(scans.iter().map(|&id| WireRequest::Scan {
            start: keys[id as usize].clone(),
            limit: SCAN_LIMIT as u32,
        }));
        Msg {
            id,
            ops: ops.to_vec(),
            via_front: id.is_multiple_of(2),
            requests,
            sets,
            set_values,
            set_prev,
            reads: ops.iter().map(|o| o.id()).collect(),
            read_want: Vec::new(),
            probes,
            page_want: Vec::new(),
            routes: Vec::new(),
            set_got: Vec::new(),
            front_reads: Vec::new(),
        }
    }

    /// Runs one segment of messages through every rung, one rung per pass.
    fn segment(&mut self, ops: &[Op], first_msg: u64, model: &mut Model) {
        let mut msgs: Vec<Msg> = ops
            .chunks(BATCH)
            .zip(first_msg..)
            .map(|(ops, id)| self.prepare(id, ops, model))
            .collect();
        // Reads run after every set of the segment.
        for m in &mut msgs {
            m.read_want = m.reads.iter().map(|&id| model.get(id)).collect();
            m.page_want = m
                .probes
                .iter()
                .map(|&id| model.page(id, SCAN_LIMIT))
                .collect();
        }
        let (index, keys) = (self.index, self.keys);
        let key_of = |id: &u32| keys[*id as usize].as_slice();
        let tr = &mut self.tr;
        let tally = &mut self.tally;

        for m in &msgs {
            let decoded = rung(tr, m.id, "netsim.req_codec", || codec_requests(&m.requests));
            check_all(tally, &decoded, &m.requests);
        }
        for m in &mut msgs {
            let route_keys: Vec<&[u8]> = m
                .sets
                .iter()
                .chain(&m.reads)
                .chain(&m.probes)
                .map(key_of)
                .collect();
            let mut routes = Vec::with_capacity(route_keys.len());
            rung(tr, m.id, "shard.route_batch", || {
                index.route_batch(&route_keys, &mut routes)
            });
            m.routes = routes;
        }
        for m in &mut msgs {
            let writes = m.sets.iter().zip(&m.set_values);
            m.set_got = if m.via_front {
                rung(tr, m.id, "shard.set", || {
                    writes.map(|(id, &v)| index.set(key_of(id), v)).collect()
                })
            } else {
                let routes = m.set_routes();
                rung(tr, m.id, "wormhole.set", || {
                    writes
                        .zip(routes)
                        .map(|((id, &v), &s)| index.shard(s).set(key_of(id), v))
                        .collect()
                })
            };
            check_all(tally, &m.set_got, &m.set_prev);
        }
        for m in &mut msgs {
            let read_keys: Vec<&[u8]> = m.reads.iter().map(key_of).collect();
            m.front_reads = rung(tr, m.id, "shard.get_batch", || index.get_batch(&read_keys));
            check_all(tally, &m.front_reads, &m.read_want);
        }
        for m in &msgs {
            let mut groups: Vec<Vec<&[u8]>> = vec![Vec::new(); index.shard_count()];
            let mut want: Vec<Vec<Option<u64>>> = vec![Vec::new(); index.shard_count()];
            for ((id, &s), &w) in m.reads.iter().zip(m.read_routes()).zip(&m.read_want) {
                groups[s].push(key_of(id));
                want[s].push(w);
            }
            let got = rung(tr, m.id, "wormhole.get_batch", || {
                groups
                    .iter()
                    .enumerate()
                    .map(|(s, g)| index.shard(s).get_batch(g))
                    .collect::<Vec<_>>()
            });
            for (g, w) in got.iter().zip(&want) {
                check_all(tally, g, w);
            }
        }
        for m in &msgs {
            let got = rung(tr, m.id, "wormhole.get", || {
                m.reads
                    .iter()
                    .zip(m.read_routes())
                    .map(|(id, &s)| index.shard(s).get(key_of(id)))
                    .collect::<Vec<_>>()
            });
            check_all(tally, &got, &m.read_want);
        }
        let twins = &self.twins;
        for m in &msgs {
            rung(tr, m.id, "meta.search", || {
                for (id, &s) in m.reads.iter().zip(m.read_routes()) {
                    black_box(
                        twins[s]
                            .meta_table()
                            .search_target(key_of(id), twins[s].config()),
                    );
                }
            });
        }
        for m in &msgs {
            let got = rung(tr, m.id, "unsafe.get", || {
                m.reads
                    .iter()
                    .zip(m.read_routes())
                    .map(|(id, &s)| twins[s].get(key_of(id)))
                    .collect::<Vec<_>>()
            });
            check_all(tally, &got, &m.read_want);
        }
        let c = &mut self.counts;
        for m in &msgs {
            // The front's scans, then the response codec over the front's
            // answers to the message's own requests.
            let root = tr.open("ladder.message", m.id, NONE);
            let pages = tr.span("shard.scan_page", m.id, root, || {
                m.probes
                    .iter()
                    .map(|id| index.scan_page(key_of(id), SCAN_LIMIT))
                    .collect::<Vec<_>>()
            });
            for (page, want) in pages.iter().zip(&m.page_want) {
                let Expect::Page { ids, more } = want else {
                    unreachable!("probes expect pages")
                };
                tally.record(model.check_page(
                    &page.items,
                    page.resume.as_deref(),
                    ids,
                    *more,
                    keys,
                    false,
                ));
                c.front_scan_items += page.items.len() as u64;
            }
            let mut responses: Vec<WireResponse> =
                m.set_got.iter().map(|&v| value_response(v)).collect();
            responses.extend(
                m.ops
                    .iter()
                    .zip(&m.front_reads)
                    .filter(|(o, _)| matches!(o, Op::Get(_)))
                    .map(|(_, &v)| value_response(v)),
            );
            if m.ops.iter().any(|o| matches!(o, Op::Scan(_))) {
                responses.extend(pages.into_iter().map(|p| WireResponse::ScanPage {
                    items: p.items,
                    resume: p.resume,
                }));
            }
            let decoded = tr.span("netsim.resp_codec", m.id, root, || {
                codec_responses(&responses)
            });
            check_all(tally, &decoded, &responses);
            tr.close(root);
            c.responses += responses.len() as u64;
        }
        for m in &msgs {
            let pages = rung(tr, m.id, "wormhole.scan_page", || {
                m.probes
                    .iter()
                    .zip(m.probe_routes())
                    .map(|(id, &s)| index.shard(s).scan_page(key_of(id), SCAN_LIMIT))
                    .collect::<Vec<_>>()
            });
            for (page, want) in pages.iter().zip(&m.page_want) {
                let Expect::Page { ids, more } = want else {
                    unreachable!("probes expect pages")
                };
                tally.record(model.check_page(
                    &page.items,
                    page.resume.as_deref(),
                    ids,
                    *more,
                    keys,
                    true,
                ));
                c.shard_scan_items += page.items.len() as u64;
            }
        }
        for m in &msgs {
            c.ops += m.ops.len() as u64;
            c.gets += m.ops.iter().filter(|o| matches!(o, Op::Get(_))).count() as u64;
            c.scans += m.ops.iter().filter(|o| matches!(o, Op::Scan(_))).count() as u64;
            if m.via_front {
                c.sets_front += m.sets.len() as u64;
            } else {
                c.sets_shard += m.sets.len() as u64;
            }
            c.reads += m.reads.len() as u64;
            c.routed += m.routes.len() as u64;
            c.probes += m.probes.len() as u64;
        }
    }
}

/// Counter readings of the in-memory stack.
#[derive(Clone, Copy, Default)]
struct Stack {
    seqlock_retries: u64,
    locked_fallbacks: u64,
    splits: u64,
    merges: u64,
    lpm_restarts: u64,
    section_entries: u64,
    grace_count: u64,
    grace_ns: u64,
    router_fast: u64,
    router_classic: u64,
}

impl Stack {
    fn read(index: &ShardedWormhole<u64>) -> Stack {
        let w = index.wormhole_metrics();
        let mut s = Stack {
            seqlock_retries: w.seqlock_retries.get(),
            locked_fallbacks: w.locked_fallbacks.get(),
            splits: w.splits.get(),
            merges: w.merges.get(),
            lpm_restarts: w.lpm_restarts.get(),
            section_entries: index.router_section_entries(),
            router_fast: index.metrics().router_fast_entries.get(),
            router_classic: index.metrics().router_classic_entries.get(),
            ..Stack::default()
        };
        for i in 0..index.shard_count() {
            let e = index.shard(i).epoch_metrics();
            let grace = e.grace_wait_ns.snapshot();
            s.section_entries += e.section_entries.get();
            s.grace_count += grace.count();
            s.grace_ns += grace.sum;
        }
        s
    }
}

/// A traced run of any workload. The durable workload's in-memory rungs
/// replay its own stream (inserts 1:1 with reads) over a sharded front.
pub fn traced(cfg: &Config, inputs: &Inputs) -> Outcome {
    let keys = &inputs.keys;
    let stream = &inputs.rounds[0];
    let (index, _) = serve::setup(keys, &inputs.load);
    let mut model = Model::new(keys.len(), &inputs.load);
    if cfg.fault {
        serve::plant_fault(&index, keys, stream);
    }
    let mut twins: Vec<WormholeUnsafe<u64>> = (0..index.shard_count())
        .map(|_| WormholeUnsafe::new())
        .collect();
    for &id in &inputs.load {
        let key = &keys[id as usize];
        twins[index.shard_for(key)].set(key, value_of(id, 0));
    }
    let mut lad = Ladder {
        index: &index,
        twins,
        keys,
        tr: Tracer::new(Instant::now(), SERVE_MSG_BASE),
        tally: Tally::default(),
        counts: Counts::default(),
    };

    // Rung by rung, a segment at a time.
    let segment = cfg.sizes.ladder_messages * BATCH;
    let ladder_end = (stream.len() / 4).max(segment.min(stream.len()));
    let started = Instant::now();
    let mut pos = 0;
    while pos < ladder_end && started.elapsed().as_secs_f64() < cfg.seconds * LADDER_SHARE {
        let end = (pos + segment).min(stream.len());
        lad.segment(&stream[pos..end], (pos / BATCH) as u64, &mut model);
        pos = end;
    }
    let Ladder {
        twins,
        mut tr,
        mut tally,
        counts: c,
        ..
    } = lad;
    drop(twins);

    // Served, with spans and telemetry on.
    let server = ShardServer::new(Arc::clone(&index), WORKERS);
    let chunk = cfg.sizes.chunk_messages * BATCH;
    let serve_end = pos + (stream.len() - pos) / 2;
    let ops_before = index.op_counts();
    let before = Stack::read(&index);
    let served = serve::serve(
        &server,
        &stream[pos..serve_end],
        keys,
        &mut model,
        chunk,
        cfg.seconds * SERVE_SHARE,
        &mut tally,
        Some(&mut tr),
        |_| {},
    );
    let after = Stack::read(&index);
    let ops_after = index.op_counts();
    let worker_items = server.server_metrics().worker_items.snapshot();
    let epoch_flushes = server.server_metrics().epoch_flushes.get();
    let served_reads = stream[pos..pos + served.ops]
        .iter()
        .filter(|o| !matches!(o, Op::Set(_)))
        .count()
        .max(1) as f64;

    // Telemetry off on even calls, on on odd calls.
    let ab = serve::serve(
        &server,
        &stream[serve_end..],
        keys,
        &mut model,
        chunk,
        cfg.seconds * AB_SHARE,
        &mut tally,
        None,
        |i| wh_telemetry::set_enabled(i % 2 == 1),
    );
    wh_telemetry::set_enabled(true);
    drop(server);

    let stats = index.stats();
    let leaf_capacity = index.shard(0).config().leaf_capacity;
    let resident = index.len().max(1) as f64;
    let leaf_count = index.leaf_count().max(1) as f64;
    let deferred_peak = (0..index.shard_count())
        .map(|i| index.shard(i).epoch_metrics().deferred_depth.high_water())
        .max()
        .unwrap_or(0);
    drop(index);

    let mut m = Metrics::default();
    let per = |name: &str, n: u64| tr.total_ns(name) as f64 / n.max(1) as f64;
    let req_codec = per("netsim.req_codec", c.ops);
    let resp_codec = per("netsim.resp_codec", c.responses);
    let route = per("shard.route_batch", c.routed);
    let front_get = per("shard.get_batch", c.reads);
    let shard_get_batch = per("wormhole.get_batch", c.reads);
    let shard_get = per("wormhole.get", c.reads);
    let search = per("meta.search", c.reads);
    let unsafe_get = per("unsafe.get", c.reads);
    let front_set = per("shard.set", c.sets_front);
    let front_scan = tr.total_ns("shard.scan_page") as f64;
    let serial = req_codec
        + resp_codec
        + route
        + (c.gets as f64 * front_get
            + (c.sets_front + c.sets_shard) as f64 * front_set
            + c.scans as f64 * front_scan / c.probes.max(1) as f64)
            / c.ops.max(1) as f64;
    let serve_ns = per("netsim.run", served.ops as u64);
    // Telemetry was on for the odd calls of the A/B phase.
    let ab_rate = |parity: usize| {
        let rates: Vec<f64> = ab.rates.iter().skip(parity).step_by(2).copied().collect();
        median(&rates)
    };
    let (rate_on, rate_off) = (ab_rate(1), ab_rate(0));
    let op_deltas: Vec<f64> = ops_after
        .iter()
        .zip(&ops_before)
        .map(|(a, b)| (a - b) as f64)
        .collect();
    let op_mean = op_deltas.iter().sum::<f64>() / op_deltas.len() as f64;
    // Grace waits come from splits. Point and scan streams split nothing,
    // so these count over the index's whole life up to the end of the
    // serving phase, set-up included, like `deferred_peak`.
    let grace_waits = after.grace_count;
    let fast = (after.router_fast - before.router_fast) as f64;
    let classic = (after.router_classic - before.router_classic) as f64;
    let retries = (after.seqlock_retries - before.seqlock_retries) as f64;
    let fallbacks = (after.locked_fallbacks - before.locked_fallbacks) as f64;

    m.push("netsim.req_codec_ns", req_codec, "ns");
    m.push("netsim.resp_codec_ns", resp_codec, "ns");
    m.push("netsim.serve_ns_per_op", serve_ns, "ns");
    m.push("netsim.serial_ns_per_op", serial, "ns");
    m.push("netsim.parallel_speedup", serial / serve_ns, "x");
    m.push("netsim.worker_items_mean", worker_items.mean(), "count");
    m.push("netsim.epoch_flushes", epoch_flushes as f64, "count");
    m.push("shard.route_ns_per_key", route, "ns");
    m.push("shard.get_batch_ns_per_key", front_get, "ns");
    m.push(
        "shard.router_tax_ns_per_key",
        front_get - shard_get_batch,
        "ns",
    );
    m.push("shard.set_ns", front_set, "ns");
    m.push(
        "shard.scan_ns_per_key",
        per("shard.scan_page", c.front_scan_items),
        "ns",
    );
    m.push(
        "shard.op_skew",
        op_deltas.iter().copied().fold(0.0, f64::max) / op_mean,
        "x",
    );
    m.push(
        "shard.router_fast_ratio",
        fast / (fast + classic).max(1.0),
        "ratio",
    );
    m.push("wormhole.get_ns", shard_get, "ns");
    m.push("wormhole.get_batch_ns_per_key", shard_get_batch, "ns");
    m.push("wormhole.batch_speedup", shard_get / shard_get_batch, "x");
    m.push(
        "wormhole.insert_ns",
        per("wormhole.set", c.sets_shard),
        "ns",
    );
    m.push(
        "wormhole.splits",
        (after.splits - before.splits) as f64,
        "count",
    );
    m.push(
        "wormhole.merges",
        (after.merges - before.merges) as f64,
        "count",
    );
    m.push(
        "wormhole.lpm_restarts",
        (after.lpm_restarts - before.lpm_restarts) as f64,
        "count",
    );
    m.push(
        "wormhole.scan_ns_per_key",
        per("wormhole.scan_page", c.shard_scan_items),
        "ns",
    );
    m.push(
        "wormhole.seqlock_retries_per_kop",
        retries * 1e3 / served_reads,
        "1/kop",
    );
    m.push(
        "wormhole.locked_fallbacks_per_kop",
        fallbacks * 1e3 / served_reads,
        "1/kop",
    );
    m.push(
        "wormhole.clean_read_ratio",
        (1.0 - (retries + fallbacks) / served_reads).max(0.0),
        "ratio",
    );
    m.push(
        "wormhole.structure_bytes_per_key",
        stats.structure_bytes as f64 / resident,
        "B",
    );
    m.push(
        "wormhole.leaf_fill",
        resident / (leaf_count * leaf_capacity as f64),
        "ratio",
    );
    m.push("meta.search_ns", search, "ns");
    m.push("meta.leaf_tax_ns", unsafe_get - search, "ns");
    m.push("meta.concurrency_tax_ns", shard_get - unsafe_get, "ns");
    m.push(
        "epoch.section_entries_per_op",
        (after.section_entries - before.section_entries) as f64 / served.ops.max(1) as f64,
        "1/op",
    );
    m.push("epoch.grace_waits", grace_waits as f64, "count");
    m.push(
        "epoch.grace_wait_mean_us",
        after.grace_ns as f64 / grace_waits.max(1) as f64 / 1e3,
        "us",
    );
    m.push("epoch.deferred_peak", deferred_peak as f64, "count");

    // The durable rung.
    let (base, writes, budget): (&[u32], Vec<u32>, f64) = match cfg.workload {
        Workload::DurableIngest => (
            &inputs.load,
            durable::insert_ids(stream),
            cfg.seconds * DURABLE_SHARE,
        ),
        _ => {
            let mut seen = std::collections::HashSet::new();
            let ids = durable::insert_ids(stream)
                .into_iter()
                .filter(|id| seen.insert(*id))
                .take(DURABLE_RUNG_WRITES)
                .collect();
            (&[], ids, f64::INFINITY)
        }
    };
    m.0.extend(durable::rung(cfg, keys, base, &writes, budget, &mut tr, &mut tally).0);

    m.push(
        "telemetry.tax_pct",
        (rate_off - rate_on) / rate_off * 100.0,
        "%",
    );
    m.push("trace.throughput_ops_s", median(&served.rates), "1/s");
    let accounting = tr.accounting_error();
    m.push("trace.span_accounting_err_pct", accounting * 100.0, "%");

    let spans = cfg
        .out_dir
        .join(format!("spans-{}-{}.jsonl", cfg.workload, cfg.seed));
    tr.write(&spans, &cfg.fingerprint())
        .expect("write the span file");
    eprintln!(
        "perfbench: {} spans written to {}",
        tr.spans().len(),
        spans.display()
    );

    Outcome {
        correct: tally.failed == 0 && accounting <= ACCOUNTING_TOLERANCE,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m.0,
    }
}
