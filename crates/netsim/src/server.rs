//! The batched serving layer: a [`ShardServer`] turns one index into a
//! pipelined request/response service with shard-affine execution
//! threads. It is the workspace's only server; the index is any [`Route`]
//! implementor — a [`ShardedWormhole`] by default, or a single-shard index
//! such as a plain `Wormhole`, which runs the paper's one batched request
//! loop.
//!
//! # Threading model
//!
//! Three stages run as threads connected by bounded channels, so the
//! decode, execute, and reassemble work of *successive* messages overlaps
//! (while workers execute message `n`, the dispatcher is already decoding
//! and routing `n + 1`, and the collector is shipping `n - 1`):
//!
//! ```text
//! client ──► dispatcher ──► worker 0..N ──► collector ──► client
//!             (decode,        (execute,      (reassemble
//!              route_batch)    encode)        in slot order)
//! ```
//!
//! * The **dispatcher** decodes each incoming batch and routes *every*
//!   request in it against a single router-table snapshot
//!   ([`Route::route_batch`] — for a sharded front one router protection
//!   span for the whole message, the same discipline as the index's own
//!   `get_batch`), then splits the message into per-worker sub-batches.
//!   Shards map to workers contiguously (`worker = shard * workers /
//!   shards`), so each worker's working set stays range-local. A
//!   single-shard index sends every slot to worker 0.
//! * Each **worker** executes its sub-batch in slot order, batching runs
//!   of consecutive point lookups through the index's pipelined
//!   `get_batch`, and encodes responses into one buffer with per-item end
//!   offsets.
//! * The **collector** receives the dispatcher's slot→worker assignment
//!   and each participating worker's buffer, and reassembles the response
//!   message by walking the slots in order — each worker's slots ascend,
//!   so reassembly is a sequential cursor per worker, no sorting.
//!
//! A stage that panics closes its channels; every other stage then runs
//! down, and [`ShardServer::run`] re-raises the first stage's panic on the
//! client thread instead of hanging.
//!
//! # Ordering and correctness under migration
//!
//! The dispatcher's routing is **advisory** — pure affinity. Workers
//! execute through the public `ShardedWormhole` API, which re-routes
//! every operation inside its own router protection span, so a boundary
//! migration between dispatch and execution can never send an operation
//! to the wrong shard.
//!
//! The consistency contract is **per-key program order**: all operations
//! on one key in one client stream execute in client order. Within a
//! message this holds because all slots were routed against one table
//! snapshot — equal keys route equally, land on the same worker, and the
//! worker executes slots in order. Across messages it holds because the
//! shard→worker map is a pure function of the routing epoch, and when
//! [`Route::route_batch`] reports a *new* epoch the dispatcher
//! **flushes the pipeline** (waits for every in-flight message to
//! complete) before dispatching under the new map — counted by
//! [`ShardServerMetrics::epoch_flushes`]. Operations on *different* keys
//! in one stream may execute out of order across workers; multi-key reads
//! (`Range`, `Scan`) are concurrent snapshots, ordered only against
//! same-worker neighbours. See `docs/src/adr-003-serving-threading.md`
//! for the full argument.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use bytes::{BufMut, Bytes, BytesMut};
use crossbeam::channel::{bounded, Receiver, Sender};
use index_traits::ConcurrentOrderedIndex;
use wh_shard::{ShardedWormhole, Wormhole};
use wh_telemetry::{Counter, Histogram, Registry};

use crate::telemetry::ServiceMetrics;
use crate::wire::{ScanPageWriter, WireRequest, WireResponse};

/// One batch of encoded requests travelling client → server.
struct RequestBatch {
    payload: Bytes,
    /// Number of requests in the batch.
    count: usize,
}

/// One batch of encoded responses travelling server → client.
struct ResponseBatch {
    payload: Bytes,
}

/// Throughput accounting returned by [`ShardServer::run`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceStats {
    /// Requests completed.
    pub operations: usize,
    /// Wall-clock seconds spent (client-side, send to last response).
    pub seconds: f64,
    /// Total request payload bytes sent.
    pub request_bytes: usize,
    /// Total response payload bytes received.
    pub response_bytes: usize,
    /// Number of responses that carried a value (hits).
    pub hits: usize,
}

impl ServiceStats {
    /// Millions of operations per second observed by the client.
    pub fn mops(&self) -> f64 {
        self.operations as f64 / self.seconds / 1e6
    }

    /// Average request size in bytes.
    pub fn avg_request_bytes(&self) -> f64 {
        self.request_bytes as f64 / self.operations.max(1) as f64
    }

    /// Average response size in bytes.
    pub fn avg_response_bytes(&self) -> f64 {
        self.response_bytes as f64 / self.operations.max(1) as f64
    }
}

/// How the dispatcher spreads a message over workers. The defaults are the
/// single-shard case: every slot routes to shard 0, the routing epoch never
/// changes (so the pipeline never flushes), and the index registers no
/// metrics of its own.
pub trait Route: ConcurrentOrderedIndex<u64> {
    /// Number of shards slots can route to.
    fn shard_count(&self) -> usize {
        1
    }

    /// Appends the shard of every key to `out`, all routed against one
    /// routing snapshot, and returns that snapshot's epoch. Every shard
    /// must be below [`Route::shard_count`].
    fn route_batch(&self, keys: &[&[u8]], out: &mut Vec<usize>) -> u64 {
        out.resize(out.len() + keys.len(), 0);
        0
    }

    /// Registers the index's own metrics into the server's registry under
    /// `<prefix>_…` names.
    fn register_metrics(&self, _registry: &Registry, _prefix: &str) {}
}

impl Route for ShardedWormhole<u64> {
    fn shard_count(&self) -> usize {
        ShardedWormhole::shard_count(self)
    }

    fn route_batch(&self, keys: &[&[u8]], out: &mut Vec<usize>) -> u64 {
        ShardedWormhole::route_batch(self, keys, out)
    }

    fn register_metrics(&self, registry: &Registry, prefix: &str) {
        ShardedWormhole::register_metrics(self, registry, prefix);
    }
}

impl Route for Wormhole<u64> {}

impl Route for dyn ConcurrentOrderedIndex<u64> {}

/// One worker's share of a decoded message: the original slot index of
/// each request (ascending) plus the request itself.
struct WorkBatch {
    seq: u64,
    items: Vec<(usize, WireRequest)>,
}

/// One worker's encoded output for one message: `ends[j]` is the end
/// offset of item `j`'s response in `payload` (item `j` of the worker's
/// [`WorkBatch`], not of the whole message).
struct WorkOutput {
    seq: u64,
    payload: Bytes,
    ends: Vec<usize>,
}

/// The dispatcher's reassembly directions for one message: which worker
/// owns each slot.
struct Assignment {
    seq: u64,
    worker_of_slot: Vec<usize>,
}

/// Serving-layer metrics beyond the per-op [`ServiceMetrics`].
#[derive(Clone, Debug, Default)]
pub struct ShardServerMetrics {
    /// Time the dispatcher spent routing one message's keys (one
    /// `route_batch` call — a single router protection span).
    pub dispatch_route_ns: Histogram,
    /// Pipeline flushes forced by a router-epoch change: the dispatcher
    /// saw new boundaries while messages were still in flight and waited
    /// them out before dispatching under the new shard→worker map.
    pub epoch_flushes: Counter,
    /// Items per per-worker sub-batch (the dispatch fan-out distribution).
    pub worker_items: Histogram,
}

impl ShardServerMetrics {
    /// Registers every metric under `<prefix>_…` names.
    pub fn register_into(&self, registry: &Registry, prefix: &str) {
        registry.register_histogram(
            &format!("{prefix}_dispatch_route_ns"),
            &self.dispatch_route_ns,
        );
        registry.register_counter(
            &format!("{prefix}_epoch_flushes_total"),
            &self.epoch_flushes,
        );
        registry.register_histogram(&format!("{prefix}_worker_items"), &self.worker_items);
    }
}

/// A batched serving layer over an index: N shard-affine worker threads
/// behind a routing dispatcher and a reassembling collector. See the
/// [module docs](self) for the threading model and the ordering contract.
pub struct ShardServer<I: ?Sized + Route = ShardedWormhole<u64>> {
    index: Arc<I>,
    workers: usize,
    batch_size: usize,
    registry: Arc<Registry>,
    metrics: ServiceMetrics,
    server_metrics: ShardServerMetrics,
}

/// The key a request routes by: its affinity signal. Multi-shard
/// operations (`Range`, `Scan`) route by their start key; `Stats` routes
/// to the first shard.
fn routing_key(req: &WireRequest) -> &[u8] {
    match req {
        WireRequest::Get { key } => key,
        WireRequest::Set { key, .. } => key,
        WireRequest::Range { start, .. } => start,
        WireRequest::Scan { start, .. } => start,
        WireRequest::Stats => b"",
    }
}

impl<I: ?Sized + Route + 'static> ShardServer<I> {
    /// Creates a serving layer with the paper's batch size of 800 requests
    /// per message. `workers` is the number of execution threads.
    pub fn new(index: Arc<I>, workers: usize) -> Self {
        Self::with_batch_size(index, workers, 800)
    }

    /// Creates a serving layer with an explicit wire batch size.
    ///
    /// The index's own metrics (for a sharded front: router path counters,
    /// migration progress, per-shard op counters) are registered into the
    /// server's registry under `shard_…` names, so a wire-level
    /// [`WireRequest::Stats`] probe exposes the whole serving stack.
    pub fn with_batch_size(index: Arc<I>, workers: usize, batch_size: usize) -> Self {
        assert!(workers > 0);
        assert!(batch_size > 0);
        let registry = Arc::new(Registry::new());
        let metrics = ServiceMetrics::default();
        metrics.register_into(&registry, "netsim");
        let server_metrics = ShardServerMetrics::default();
        server_metrics.register_into(&registry, "netsim_server");
        index.register_metrics(&registry, "shard");
        Self {
            index,
            workers,
            batch_size,
            registry,
            metrics,
            server_metrics,
        }
    }

    /// The served index.
    pub fn index(&self) -> &Arc<I> {
        &self.index
    }

    /// The metrics registry the [`WireRequest::Stats`] command renders.
    /// Register further metrics here before serving to make them
    /// scrapeable over the wire.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Per-op service metrics (shared cells with the worker threads).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Serving-layer metrics (dispatch routing time, epoch flushes).
    pub fn server_metrics(&self) -> &ShardServerMetrics {
        &self.server_metrics
    }

    /// Spawns the dispatcher, the workers, and the collector; returns the
    /// request sender, the response receiver, and every join handle
    /// (workers first).
    fn spawn(
        &self,
    ) -> (
        Sender<RequestBatch>,
        Receiver<ResponseBatch>,
        Vec<JoinHandle<()>>,
    ) {
        let workers = self.workers;
        let (req_tx, req_rx) = bounded::<RequestBatch>(16);
        let (resp_tx, resp_rx) = bounded::<ResponseBatch>(16);
        let (assign_tx, assign_rx) = bounded::<Assignment>(64);
        // Completion tokens collector → dispatcher, read eagerly each
        // dispatch and drained fully on an epoch flush. Sized above the
        // maximum number of in-flight messages (client pipeline depth +
        // request-channel capacity) so the collector never blocks on it.
        let (completed_tx, completed_rx) = bounded::<u64>(256);
        let mut work_txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers + 2);
        let mut out_rxs = Vec::with_capacity(workers);

        for _ in 0..workers {
            let (work_tx, work_rx) = bounded::<WorkBatch>(16);
            let (out_tx, out_rx) = bounded::<WorkOutput>(16);
            work_txs.push(work_tx);
            out_rxs.push(out_rx);
            let index = Arc::clone(&self.index);
            let registry = Arc::clone(&self.registry);
            let metrics = self.metrics.clone();
            handles.push(std::thread::spawn(move || {
                worker_loop(&work_rx, &out_tx, &*index, &registry, &metrics);
            }));
        }

        {
            let index = Arc::clone(&self.index);
            let metrics = self.metrics.clone();
            let server_metrics = self.server_metrics.clone();
            handles.push(std::thread::spawn(move || {
                dispatcher_loop(
                    &req_rx,
                    &work_txs,
                    &assign_tx,
                    &completed_rx,
                    &*index,
                    &metrics,
                    &server_metrics,
                );
            }));
        }

        handles.push(std::thread::spawn(move || {
            collector_loop(&assign_rx, &out_rxs, &resp_tx, &completed_tx);
        }));

        (req_tx, resp_rx, handles)
    }

    /// Runs a stream of requests through the serving layer and reports
    /// client-side statistics. Client-observed round-trip latency lands in
    /// [`ServiceMetrics::client_rtt_ns`], once per request.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of any serving thread that died during the run.
    pub fn run(&self, requests: &[WireRequest]) -> ServiceStats {
        self.run_with(requests, |_| {})
    }

    /// Like [`ShardServer::run`], but also returns every decoded response
    /// in request order.
    pub fn run_collect(&self, requests: &[WireRequest]) -> (ServiceStats, Vec<WireResponse>) {
        let mut responses = Vec::with_capacity(requests.len());
        let stats = self.run_with(requests, |resp| responses.push(resp));
        (stats, responses)
    }

    fn run_with(
        &self,
        requests: &[WireRequest],
        mut on_resp: impl FnMut(WireResponse),
    ) -> ServiceStats {
        let (req_tx, resp_rx, handles) = self.spawn();
        let stats = self.client_loop(requests, &req_tx, &resp_rx, &mut on_resp);
        // Close both client ends before joining: after a stage dies
        // mid-run the survivors may be blocked on either channel, and
        // only a closed channel lets them run down.
        drop((req_tx, resp_rx));
        let mut panic = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        stats.expect("serving threads hung up early")
    }

    /// The client half of one run: encodes and sends the request messages
    /// with up to 8 in flight, and decodes the responses. `None` when the
    /// server hangs up early (a serving thread died).
    fn client_loop(
        &self,
        requests: &[WireRequest],
        req_tx: &Sender<RequestBatch>,
        resp_rx: &Receiver<ResponseBatch>,
        on_resp: &mut impl FnMut(WireResponse),
    ) -> Option<ServiceStats> {
        let start = Instant::now();
        let mut stats = ServiceStats {
            operations: 0,
            seconds: 0.0,
            request_bytes: 0,
            response_bytes: 0,
            hits: 0,
        };
        // Send times of in-flight messages, FIFO: the collector answers
        // messages in arrival order, so the front entry is always the one
        // the next response completes.
        let mut in_flight: VecDeque<Option<Instant>> = VecDeque::new();
        let metrics = &self.metrics;
        let mut drain = |stats: &mut ServiceStats, in_flight: &mut VecDeque<Option<Instant>>| {
            let batch = resp_rx.recv().ok()?;
            stats.response_bytes += batch.payload.len();
            let mut payload = batch.payload;
            let mut count = 0u64;
            while let Some(resp) = WireResponse::decode(&mut payload) {
                if !matches!(resp, WireResponse::Miss) {
                    stats.hits += 1;
                }
                stats.operations += 1;
                count += 1;
                on_resp(resp);
            }
            let sent = in_flight.pop_front().expect("a response implies a send");
            if let Some(sent) = sent {
                metrics
                    .client_rtt_ns
                    .record_n(sent.elapsed().as_nanos() as u64, count);
            }
            Some(())
        };
        for chunk in requests.chunks(self.batch_size) {
            let mut buf = BytesMut::with_capacity(chunk.len() * 32);
            for req in chunk {
                req.encode(&mut buf);
            }
            stats.request_bytes += buf.len();
            in_flight.push_back(wh_telemetry::start_timing());
            req_tx
                .send(RequestBatch {
                    payload: buf.freeze(),
                    count: chunk.len(),
                })
                .ok()?;
            // Keep a pipeline of outstanding messages so successive
            // decode/execute/encode stages overlap across the threads.
            if in_flight.len() >= 8 {
                drain(&mut stats, &mut in_flight)?;
            }
        }
        while !in_flight.is_empty() {
            drain(&mut stats, &mut in_flight)?;
        }
        stats.seconds = start.elapsed().as_secs_f64().max(1e-9);
        Some(stats)
    }

    /// Convenience wrapper: runs point lookups for the given keys.
    pub fn run_lookups(&self, keys: &[Vec<u8>]) -> ServiceStats {
        let requests: Vec<WireRequest> = keys
            .iter()
            .map(|k| WireRequest::Get { key: k.clone() })
            .collect();
        self.run(&requests)
    }

    /// Scrapes the serving stack over the wire: one [`WireRequest::Stats`]
    /// round trip, returning the decoded text exposition.
    pub fn fetch_stats(&self) -> String {
        let (_, responses) = self.run_collect(&[WireRequest::Stats]);
        match responses.into_iter().next() {
            Some(WireResponse::Stats(text)) => text,
            other => panic!("expected a Stats response, got {other:?}"),
        }
    }

    /// Drains a whole streaming scan over the wire: issues
    /// [`WireRequest::Scan`] pages of `page_limit` pairs, following each
    /// response's resume key, until the server reports exhaustion.
    pub fn scan_all(&self, start: &[u8], page_limit: u32) -> Vec<(Vec<u8>, u64)> {
        let mut all = Vec::new();
        let mut next = Some(start.to_vec());
        while let Some(cursor) = next {
            let (_, responses) = self.run_collect(&[WireRequest::Scan {
                start: cursor,
                limit: page_limit,
            }]);
            match responses.into_iter().next() {
                Some(WireResponse::ScanPage { items, resume }) => {
                    all.extend(items);
                    next = resume;
                }
                other => panic!("expected a ScanPage response, got {other:?}"),
            }
        }
        all
    }
}

/// Decode + route + split. One message per iteration; one
/// `route_batch` routing snapshot per message.
fn dispatcher_loop<I: ?Sized + Route>(
    req_rx: &Receiver<RequestBatch>,
    work_txs: &[Sender<WorkBatch>],
    assign_tx: &Sender<Assignment>,
    completed_rx: &Receiver<u64>,
    index: &I,
    metrics: &ServiceMetrics,
    server_metrics: &ShardServerMetrics,
) {
    let workers = work_txs.len();
    let shard_count = index.shard_count();
    let mut seq = 0u64;
    let mut issued = 0u64;
    let mut completed = 0u64;
    let mut routes: Vec<usize> = Vec::new();
    let mut last_epoch = index.route_batch(&[], &mut routes);
    while let Ok(batch) = req_rx.recv() {
        let mut payload = batch.payload;
        let mut requests = Vec::with_capacity(batch.count);
        while let Some(req) = WireRequest::decode(&mut payload) {
            requests.push(req);
        }
        metrics.requests.add(requests.len() as u64);
        metrics.batch_requests.record(requests.len() as u64);

        // Route the whole message against one router-table snapshot.
        routes.clear();
        let timing = wh_telemetry::start_timing();
        let epoch = {
            let keys: Vec<&[u8]> = requests.iter().map(routing_key).collect();
            index.route_batch(&keys, &mut routes)
        };
        server_metrics.dispatch_route_ns.record_elapsed(timing);

        // Keep the completion count fresh without blocking.
        while completed_rx.try_recv().is_ok() {
            completed += 1;
        }
        // Boundaries moved: the shard→worker map for these slots may
        // differ from the in-flight messages' map, so a key could hop
        // workers and execute out of program order. Flush the pipeline
        // before dispatching under the new epoch. Migrations are rare;
        // the steady state never takes this branch.
        if epoch != last_epoch {
            last_epoch = epoch;
            if completed < issued {
                server_metrics.epoch_flushes.inc();
                while completed < issued {
                    if completed_rx.recv().is_err() {
                        return;
                    }
                    completed += 1;
                }
            }
        }

        // Split into per-worker sub-batches; slots stay ascending within
        // each worker because the scan over slots is in order.
        let worker_of_slot: Vec<usize> = routes
            .iter()
            .map(|&shard| shard * workers / shard_count)
            .collect();
        let mut per_worker: Vec<Vec<(usize, WireRequest)>> = Vec::new();
        per_worker.resize_with(workers, Vec::new);
        for (slot, req) in requests.into_iter().enumerate() {
            per_worker[worker_of_slot[slot]].push((slot, req));
        }
        for (w, items) in per_worker.into_iter().enumerate() {
            if items.is_empty() {
                continue;
            }
            server_metrics.worker_items.record(items.len() as u64);
            if work_txs[w].send(WorkBatch { seq, items }).is_err() {
                return;
            }
        }
        if assign_tx
            .send(Assignment {
                seq,
                worker_of_slot,
            })
            .is_err()
        {
            return;
        }
        seq += 1;
        issued += 1;
    }
}

/// Execute + encode, one sub-batch per iteration.
fn worker_loop<I: ?Sized + Route>(
    work_rx: &Receiver<WorkBatch>,
    out_tx: &Sender<WorkOutput>,
    index: &I,
    registry: &Registry,
    metrics: &ServiceMetrics,
) {
    while let Ok(batch) = work_rx.recv() {
        let mut out = BytesMut::with_capacity(batch.items.len() * 16);
        let mut ends = Vec::with_capacity(batch.items.len());
        execute_into(index, &batch.items, &mut out, &mut ends, registry, metrics);
        if out_tx
            .send(WorkOutput {
                seq: batch.seq,
                payload: out.freeze(),
                ends,
            })
            .is_err()
        {
            return;
        }
    }
}

/// Executes `items` in slot order against `index`, appending each
/// response to `out` and its end offset to `ends`. Runs of consecutive
/// point lookups go through the index's pipelined `get_batch` so their
/// cache misses overlap; every other request executes on its own, in
/// place, so a Get after a Set in the same run observes the write.
fn execute_into<I: ?Sized + ConcurrentOrderedIndex<u64>>(
    index: &I,
    items: &[(usize, WireRequest)],
    out: &mut BytesMut,
    ends: &mut Vec<usize>,
    registry: &Registry,
    metrics: &ServiceMetrics,
) {
    let value_or_miss = |v: Option<u64>| v.map_or(WireResponse::Miss, WireResponse::Value);
    let mut i = 0usize;
    while i < items.len() {
        let resp = match &items[i].1 {
            WireRequest::Get { .. } => {
                let run_end = items[i..]
                    .iter()
                    .position(|(_, r)| !matches!(r, WireRequest::Get { .. }))
                    .map_or(items.len(), |off| i + off);
                let keys: Vec<&[u8]> = items[i..run_end]
                    .iter()
                    .map(|(_, r)| match r {
                        WireRequest::Get { key } => key.as_slice(),
                        _ => unreachable!("run contains only gets"),
                    })
                    .collect();
                let timing = wh_telemetry::start_timing();
                let values = index.get_batch(&keys);
                if let Some(started) = timing {
                    // Every op in the run shares the run's service time:
                    // they were executed together.
                    metrics
                        .get_ns
                        .record_n(started.elapsed().as_nanos() as u64, keys.len() as u64);
                }
                for value in values {
                    value_or_miss(value).encode(out);
                    ends.push(out.len());
                }
                i = run_end;
                continue;
            }
            WireRequest::Set { key, value } => {
                let timing = wh_telemetry::start_timing();
                let resp = value_or_miss(index.set(key, *value));
                metrics.set_ns.record_elapsed(timing);
                resp
            }
            WireRequest::Range { start, count } => {
                let timing = wh_telemetry::start_timing();
                let resp = WireResponse::Range(index.range_from(start, *count as usize));
                metrics.range_ns.record_elapsed(timing);
                resp
            }
            WireRequest::Scan { start, limit } => {
                // Streamed: the index feeds each pair straight into the
                // frame; no page of pairs is built here.
                let timing = wh_telemetry::start_timing();
                let mut page = ScanPageWriter::begin(out);
                let resume = index.scan_page_into(start, *limit as usize, &mut page);
                page.finish(resume.as_deref());
                metrics.scan_ns.record_elapsed(timing);
                ends.push(out.len());
                i += 1;
                continue;
            }
            WireRequest::Stats => {
                metrics.stats_requests.inc();
                WireResponse::Stats(registry.snapshot().render())
            }
        };
        resp.encode(out);
        ends.push(out.len());
        i += 1;
    }
}

/// Reassemble. For each message: one output per participating worker,
/// then a single in-order walk over the slots, pulling sequentially from
/// each worker's buffer (a worker's slots ascend, so a per-worker cursor
/// suffices — no sorting, no per-slot allocation).
fn collector_loop(
    assign_rx: &Receiver<Assignment>,
    out_rxs: &[Receiver<WorkOutput>],
    resp_tx: &Sender<ResponseBatch>,
    completed_tx: &Sender<u64>,
) {
    let workers = out_rxs.len();
    while let Ok(assign) = assign_rx.recv() {
        let mut outputs: Vec<Option<WorkOutput>> = Vec::new();
        outputs.resize_with(workers, || None);
        for w in 0..workers {
            if assign.worker_of_slot.contains(&w) {
                // A closed output channel means the worker died; its
                // panic reaches the client through the join.
                let Ok(output) = out_rxs[w].recv() else {
                    return;
                };
                debug_assert_eq!(
                    output.seq, assign.seq,
                    "per-worker FIFO preserves seq order"
                );
                outputs[w] = Some(output);
            }
        }
        let total: usize = outputs
            .iter()
            .flatten()
            .map(|o| o.payload.len())
            .sum::<usize>();
        let mut out = BytesMut::with_capacity(total);
        // (next item index, start offset of that item) per worker.
        let mut cursor = vec![(0usize, 0usize); workers];
        for &w in &assign.worker_of_slot {
            let output = outputs[w].as_ref().expect("assigned worker sent output");
            let (item, start) = cursor[w];
            let end = output.ends[item];
            out.put_slice(&output.payload.as_ref()[start..end]);
            cursor[w] = (item + 1, end);
        }
        if resp_tx
            .send(ResponseBatch {
                payload: out.freeze(),
            })
            .is_err()
        {
            return;
        }
        if completed_tx.send(assign.seq).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use index_traits::IndexStats;
    use wh_shard::ShardedConfig;

    fn loaded_index(n: usize) -> Arc<Wormhole<u64>> {
        let wh = Wormhole::new();
        for i in 0..n as u64 {
            wh.set(format!("key-{i:08}").as_bytes(), i);
        }
        Arc::new(wh)
    }

    fn loaded_sharded(shards: usize, n: usize) -> Arc<ShardedWormhole<u64>> {
        let sample: Vec<Vec<u8>> = (0..n as u64)
            .map(|i| format!("key-{i:08}").into_bytes())
            .collect();
        let idx = ShardedWormhole::with_config(ShardedConfig::from_sample(shards, &sample));
        for (i, key) in sample.iter().enumerate() {
            idx.set(key, i as u64);
        }
        Arc::new(idx)
    }

    #[test]
    fn lookups_round_trip_through_the_serving_layer() {
        let index = loaded_sharded(4, 5000);
        for workers in [1, 3, 4] {
            let server = ShardServer::with_batch_size(Arc::clone(&index), workers, 100);
            let keys: Vec<Vec<u8>> = (0..2000u64)
                .map(|i| format!("key-{:08}", i * 3 % 5000).into_bytes())
                .collect();
            let stats = server.run_lookups(&keys);
            assert_eq!(stats.operations, 2000);
            assert_eq!(stats.hits, 2000);
            assert!(stats.mops() > 0.0);
        }
    }

    #[test]
    fn responses_come_back_in_request_order() {
        // Values encode the request slot, so any reassembly error shows up
        // as a permuted value, not just a count mismatch.
        let index = loaded_sharded(4, 4096);
        let server = ShardServer::with_batch_size(index, 4, 64);
        let requests: Vec<WireRequest> = (0..1024u64)
            .map(|i| WireRequest::Get {
                // Stride widely so consecutive slots hit different shards.
                key: format!("key-{:08}", i * 97 % 4096).into_bytes(),
            })
            .collect();
        let (stats, responses) = server.run_collect(&requests);
        assert_eq!(stats.operations, 1024);
        for (i, resp) in responses.iter().enumerate() {
            let expected = (i as u64) * 97 % 4096;
            assert_eq!(
                *resp,
                WireResponse::Value(expected),
                "slot {i} out of order"
            );
        }
    }

    #[test]
    fn point_streams_match_single_threaded_service() {
        // Per-key program order makes point-op responses deterministic:
        // the multi-worker serving layer must answer a Get/Set stream
        // exactly like serial execution against an equal unsharded index.
        let sharded = loaded_sharded(4, 2000);
        let oracle = loaded_index(2000);
        let mut requests = Vec::new();
        for i in 0..3000u64 {
            let key = format!("key-{:08}", i * 13 % 2500).into_bytes();
            if i % 5 == 0 {
                requests.push(WireRequest::Set {
                    key,
                    value: i + 10_000,
                });
            } else {
                requests.push(WireRequest::Get { key });
            }
        }
        let server = ShardServer::with_batch_size(sharded, 4, 128);
        let (_, served) = server.run_collect(&requests);
        let reference: Vec<WireResponse> = requests
            .iter()
            .map(|req| {
                let value = match req {
                    WireRequest::Get { key } => oracle.get(key),
                    WireRequest::Set { key, value } => oracle.set(key, *value),
                    other => unreachable!("point stream holds only Get/Set, got {other:?}"),
                };
                value.map_or(WireResponse::Miss, WireResponse::Value)
            })
            .collect();
        assert_eq!(served, reference);
    }

    #[test]
    fn mixed_ops_and_stats_round_trip() {
        let index = loaded_sharded(4, 500);
        let server = ShardServer::with_batch_size(index, 2, 64);
        let (stats, responses) = server.run_collect(&[
            WireRequest::Get {
                key: b"key-00000007".to_vec(),
            },
            WireRequest::Range {
                start: b"key-00000490".to_vec(),
                count: 5,
            },
            WireRequest::Scan {
                start: b"key-00000490".to_vec(),
                limit: 4,
            },
            WireRequest::Stats,
        ]);
        assert_eq!(stats.operations, 4);
        assert_eq!(responses[0], WireResponse::Value(7));
        match &responses[1] {
            WireResponse::Range(items) => assert_eq!(items.len(), 5),
            other => panic!("expected Range, got {other:?}"),
        }
        match &responses[2] {
            WireResponse::ScanPage { items, resume } => {
                assert_eq!(items.len(), 4);
                assert!(resume.is_some(), "more keys remain");
            }
            other => panic!("expected ScanPage, got {other:?}"),
        }
        match &responses[3] {
            WireResponse::Stats(text) => {
                assert!(text.contains("netsim_requests_total"));
                assert!(text.contains("netsim_server_dispatch_route_ns"));
                assert!(text.contains("shard_shard0_ops_total"));
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        server.registry().lint().expect("well-formed metric names");
    }

    #[test]
    fn scan_all_drains_the_whole_keyspace_in_order() {
        let index = loaded_sharded(4, 1000);
        let server = ShardServer::with_batch_size(Arc::clone(&index), 4, 32);
        let streamed = server.scan_all(b"", 37);
        assert_eq!(streamed.len(), 1000);
        assert!(streamed.windows(2).all(|w| w[0].0 < w[1].0));
        let direct = index.range_from(b"", usize::MAX);
        assert_eq!(streamed, direct);
    }

    /// A lock-around-`BTreeMap` index that keeps every trait default, the
    /// `scan_page_into` fallback through `range_from` included.
    #[derive(Default)]
    struct LockedMap(std::sync::Mutex<std::collections::BTreeMap<Vec<u8>, u64>>);

    impl ConcurrentOrderedIndex<u64> for LockedMap {
        fn name(&self) -> &'static str {
            "locked-map"
        }
        fn get(&self, key: &[u8]) -> Option<u64> {
            self.0.lock().unwrap().get(key).copied()
        }
        fn set(&self, key: &[u8], value: u64) -> Option<u64> {
            self.0.lock().unwrap().insert(key.to_vec(), value)
        }
        fn del(&self, key: &[u8]) -> Option<u64> {
            self.0.lock().unwrap().remove(key)
        }
        fn len(&self) -> usize {
            self.0.lock().unwrap().len()
        }
        fn range_from(&self, start: &[u8], count: usize) -> Vec<(Vec<u8>, u64)> {
            let map = self.0.lock().unwrap();
            map.range(start.to_vec()..)
                .take(count)
                .map(|(k, v)| (k.clone(), *v))
                .collect()
        }
        fn stats(&self) -> IndexStats {
            IndexStats::default()
        }
    }

    /// Asserts that every `Scan` served for `index` is byte-identical to
    /// the `ScanPage` frame built from `index.scan_page` — both at the
    /// worker's encoder and decoded at the client of a full `ShardServer`
    /// run — and that `scan_page` pages like `range_from`. Starts: empty,
    /// exact keys, between keys, past the end, and `extra_starts`; limits:
    /// 0, 1, 127 and more than the index holds.
    fn assert_scan_wire_identity<I: ?Sized + Route + 'static>(
        index: Arc<I>,
        n: usize,
        extra_starts: &[Vec<u8>],
    ) {
        let key = |i: usize| format!("key-{i:08}").into_bytes();
        let mut starts = vec![Vec::new(), key(0), key(n / 2), key(n - 1)];
        starts.extend([key(n / 3), key(n - 2)].map(|mut k| {
            k.push(0); // strictly between two adjacent keys
            k
        }));
        starts.push(b"key-\xff".to_vec());
        starts.extend_from_slice(extra_starts);
        let mut requests = Vec::new();
        for start in &starts {
            for limit in [0, 1, 127, n as u32 + 10] {
                requests.push(WireRequest::Scan {
                    start: start.clone(),
                    limit,
                });
            }
        }
        let expected: Vec<WireResponse> = requests
            .iter()
            .map(|req| {
                let WireRequest::Scan { start, limit } = req else {
                    unreachable!("scan requests only")
                };
                let page = index.scan_page(start, *limit as usize);
                let want = (*limit as usize).max(1);
                assert_eq!(page.items, index.range_from(start, want), "{req:?}");
                let full = page.items.len() == want;
                let successor = page.items.last().map(|(k, _)| {
                    let mut k = k.clone();
                    k.push(0);
                    k
                });
                assert_eq!(page.resume, successor.filter(|_| full), "{req:?}");
                WireResponse::ScanPage {
                    items: page.items,
                    resume: page.resume,
                }
            })
            .collect();

        let items: Vec<(usize, WireRequest)> = requests.iter().cloned().enumerate().collect();
        let (mut out, mut ends) = (BytesMut::new(), Vec::new());
        let (registry, metrics) = (Registry::new(), ServiceMetrics::default());
        execute_into(&*index, &items, &mut out, &mut ends, &registry, &metrics);
        let mut frame_start = 0;
        for (resp, &end) in expected.iter().zip(&ends) {
            let mut want = BytesMut::new();
            resp.encode(&mut want);
            assert_eq!(&out.as_ref()[frame_start..end], want.as_ref(), "{resp:?}");
            frame_start = end;
        }
        assert_eq!(ends.len(), expected.len());

        let server = ShardServer::with_batch_size(index, 2, 7);
        let (_, served) = server.run_collect(&requests);
        assert_eq!(served, expected);
    }

    #[test]
    fn served_scan_pages_are_byte_identical_to_scan_page_frames() {
        let n = 1000;
        assert_scan_wire_identity(loaded_index(n), n, &[]);

        // Starts 50 keys below each inner boundary: limit-127 pages cross
        // from one shard into the next.
        let sharded = loaded_sharded(4, n);
        let quartile = |q: usize, back: usize| format!("key-{:08}", q * n / 4 - back).into_bytes();
        assert_eq!(
            sharded.boundaries(),
            (1..4).map(|q| quartile(q, 0)).collect::<Vec<_>>()
        );
        let near_boundaries: Vec<Vec<u8>> = (1..4).map(|q| quartile(q, 50)).collect();
        assert_scan_wire_identity(sharded, n, &near_boundaries);

        let map = LockedMap::default();
        for i in 0..n as u64 {
            map.set(format!("key-{i:08}").as_bytes(), i);
        }
        let baseline: Arc<dyn ConcurrentOrderedIndex<u64>> = Arc::new(map);
        assert_scan_wire_identity(baseline, n, &[]);
    }

    #[test]
    fn serving_survives_migration_churn() {
        // A boundary migration storms along while the serving layer
        // answers lookups: every response must stay correct, and the
        // dispatcher's epoch-flush accounting must be consistent with the
        // churn (it can only flush if an epoch change raced a pipeline).
        let index = loaded_sharded(4, 4000);
        let server = ShardServer::with_batch_size(Arc::clone(&index), 4, 64);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let churn = {
            let index = Arc::clone(&index);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let low = format!("key-{:08}", 900).into_bytes();
                let high = format!("key-{:08}", 1100).into_bytes();
                let mut flip = false;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let target = if flip { &low } else { &high };
                    index.migrate_boundary(0, target).expect("valid target");
                    flip = !flip;
                }
            })
        };
        for _ in 0..10 {
            let keys: Vec<Vec<u8>> = (0..2000u64)
                .map(|i| format!("key-{:08}", i * 7 % 4000).into_bytes())
                .collect();
            let stats = server.run_lookups(&keys);
            assert_eq!(stats.operations, 2000);
            assert_eq!(stats.hits, 2000);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        churn.join().expect("churn thread");
        index.check_invariants();
    }

    #[test]
    fn lookups_round_trip_through_the_service() {
        for workers in [1, 4] {
            let index = loaded_index(5000);
            let service = ShardServer::with_batch_size(index, workers, 100);
            let keys: Vec<Vec<u8>> = (0..2000u64)
                .map(|i| format!("key-{:08}", i * 3 % 5000).into_bytes())
                .collect();
            let stats = service.run_lookups(&keys);
            assert_eq!(stats.operations, 2000);
            assert_eq!(stats.hits, 2000);
            assert!(stats.seconds > 0.0);
            assert!(stats.avg_request_bytes() > 12.0);
            assert!(stats.mops() > 0.0);
        }
    }

    #[test]
    fn misses_and_writes_are_reported() {
        for workers in [1, 4] {
            let index = loaded_index(100);
            let service = ShardServer::with_batch_size(index.clone(), workers, 32);
            let requests = vec![
                WireRequest::Get {
                    key: b"key-00000001".to_vec(),
                },
                WireRequest::Get {
                    key: b"absent".to_vec(),
                },
                WireRequest::Set {
                    key: b"fresh".to_vec(),
                    value: 9,
                },
                WireRequest::Get {
                    key: b"fresh".to_vec(),
                },
                WireRequest::Range {
                    start: b"key-00000090".to_vec(),
                    count: 5,
                },
            ];
            let stats = service.run(&requests);
            assert_eq!(stats.operations, 5);
            // Hits: the first get, the get of "fresh", and the range response.
            assert_eq!(stats.hits, 3);
            // The write really landed in the index.
            assert_eq!(index.get(b"fresh"), Some(9));
        }
    }

    #[test]
    fn get_runs_split_around_writes_and_observe_them_in_order() {
        // Gets after a Set in the same batch must see its effect: if the
        // server hoisted all lookups into one batched run it would answer
        // the later gets from the pre-write state and the hit count drops.
        for workers in [1, 4] {
            let index = loaded_index(10);
            let service = ShardServer::with_batch_size(index, workers, 800);
            let requests = vec![
                WireRequest::Get {
                    key: b"fresh".to_vec(),
                },
                WireRequest::Set {
                    key: b"fresh".to_vec(),
                    value: 1,
                },
                WireRequest::Get {
                    key: b"fresh".to_vec(),
                },
                WireRequest::Get {
                    key: b"absent".to_vec(),
                },
                WireRequest::Set {
                    key: b"fresh".to_vec(),
                    value: 2,
                },
                WireRequest::Get {
                    key: b"fresh".to_vec(),
                },
            ];
            let stats = service.run(&requests);
            assert_eq!(stats.operations, 6);
            // Hits: the get after the first set, the second set's old value,
            // and the final get. The leading get and the "absent" probe miss.
            assert_eq!(stats.hits, 3);
        }
    }

    #[test]
    fn stats_round_trips_and_reports_service_metrics() {
        for workers in [1, 4] {
            let index = loaded_index(500);
            let service = ShardServer::with_batch_size(index, workers, 64);
            let keys: Vec<Vec<u8>> = (0..300u64)
                .map(|i| format!("key-{i:08}").into_bytes())
                .collect();
            service.run_lookups(&keys);
            service.run(&[
                WireRequest::Set {
                    key: b"fresh".to_vec(),
                    value: 1,
                },
                WireRequest::Range {
                    start: b"key".to_vec(),
                    count: 4,
                },
            ]);
            // A Stats request mixed into an ordinary batch round-trips and
            // counts as one operation (a hit: the response carries data).
            let stats = service.run(&[
                WireRequest::Get {
                    key: b"key-00000001".to_vec(),
                },
                WireRequest::Stats,
            ]);
            assert_eq!(stats.operations, 2);
            assert_eq!(stats.hits, 2);
            let text = service.fetch_stats();
            assert!(text.contains("netsim_requests_total"));
            assert!(text.contains("netsim_batch_requests"));
            let m = service.metrics();
            // 300 lookups + set + range + get + stats, plus the fetch above.
            assert_eq!(m.requests.get(), 305);
            assert_eq!(m.stats_requests.get(), 2);
            // Histograms vanish under `telemetry-off`; the counters above stay.
            if wh_telemetry::enabled() {
                assert_eq!(m.get_ns.snapshot().count(), 301);
                assert_eq!(m.set_ns.snapshot().count(), 1);
                assert_eq!(m.range_ns.snapshot().count(), 1);
                // Batches: ceil(300/64)=5 lookup batches + 1 + 1 + 1 scrape.
                assert_eq!(m.batch_requests.snapshot().count(), 8);
            }
            service.registry().lint().expect("well-formed metric names");
        }
    }

    #[test]
    fn batching_splits_large_request_streams() {
        for workers in [1, 4] {
            let index = loaded_index(1000);
            let service = ShardServer::with_batch_size(index, workers, 800);
            let keys: Vec<Vec<u8>> = (0..3000u64)
                .map(|i| format!("key-{:08}", i % 1000).into_bytes())
                .collect();
            let stats = service.run_lookups(&keys);
            assert_eq!(stats.operations, 3000);
            assert_eq!(stats.hits, 3000);
        }
    }

    /// A two-shard test index whose `get_batch` panics on one poison key.
    struct PoisonIndex(Wormhole<u64>);

    impl ConcurrentOrderedIndex<u64> for PoisonIndex {
        fn name(&self) -> &'static str {
            "poison"
        }
        fn get(&self, key: &[u8]) -> Option<u64> {
            self.0.get(key)
        }
        fn get_batch(&self, keys: &[&[u8]]) -> Vec<Option<u64>> {
            assert!(!keys.contains(&b"poison".as_slice()), "poison key served");
            self.0.get_batch(keys)
        }
        fn set(&self, key: &[u8], value: u64) -> Option<u64> {
            self.0.set(key, value)
        }
        fn del(&self, key: &[u8]) -> Option<u64> {
            self.0.del(key)
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn range_from(&self, start: &[u8], count: usize) -> Vec<(Vec<u8>, u64)> {
            self.0.range_from(start, count)
        }
        fn stats(&self) -> IndexStats {
            self.0.stats()
        }
    }

    impl Route for PoisonIndex {
        fn shard_count(&self) -> usize {
            2
        }
        fn route_batch(&self, keys: &[&[u8]], out: &mut Vec<usize>) -> u64 {
            out.extend(keys.iter().map(|k| usize::from(k.first() >= Some(&b'p'))));
            0
        }
    }

    #[test]
    fn worker_panic_ends_the_run_in_a_panic_not_a_hang() {
        for workers in [1, 4] {
            let server =
                ShardServer::with_batch_size(Arc::new(PoisonIndex(Wormhole::new())), workers, 16);
            // Many messages, so the client is mid-pipeline (blocked on a
            // send or a receive) when the poison message kills a worker.
            let mut requests: Vec<WireRequest> = (0..4000u64)
                .map(|i| WireRequest::Get {
                    key: format!("key-{i:08}").into_bytes(),
                })
                .collect();
            requests[1000] = WireRequest::Get {
                key: b"poison".to_vec(),
            };
            let client = std::thread::spawn(move || server.run(&requests));
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let waiter = std::thread::spawn(move || done_tx.send(client.join().is_err()));
            let panicked = done_rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("{workers} workers: the run hung after a worker panic"));
            assert!(
                panicked,
                "{workers} workers: the run returned despite a dead worker"
            );
            waiter
                .join()
                .expect("waiter thread")
                .expect("receiver alive");
        }
    }
}
