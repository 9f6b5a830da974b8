//! A simulated RDMA-style networked key-value service, standing in for the
//! HERD testbed the paper uses for Figure 12.
//!
//! The paper ports every index into HERD, a key-value store that ships
//! batches of requests over a 100 Gb/s InfiniBand link (batch size 800) and
//! serves them on the host CPU. The experiment's point is that with such a
//! fast link the *host-side index cost* still dominates — except when keys
//! are so large (the 1 KB `K10` set) that the wire becomes the bottleneck.
//!
//! This crate reproduces that setup without RDMA hardware:
//!
//! * [`wire`] — a request/response wire format and a [`wire::LinkModel`]
//!   describing bandwidth, latency, and per-message overhead of the link;
//!   the model converts a measured server-side processing rate into the
//!   throughput the client would observe through the link.
//! * [`server`] — the batched serving layer: an in-process client and a
//!   [`server::ShardServer`] connected by channels that actually encode
//!   requests into buffers, batch them (800 per message, like the paper),
//!   decode them on the server, execute them against the index, and ship
//!   encoded responses back. The server decodes a whole message before
//!   executing it and feeds runs of consecutive point lookups through the
//!   index's `get_batch`, so an 800-request lookup batch becomes pipelined
//!   probes with overlapped cache misses rather than 800 serial descents.
//!   It dispatches each message across N shard-affine worker threads
//!   (routing the whole message against one router-table snapshot via
//!   [`server::Route::route_batch`]), overlaps the decode/execute/encode
//!   stages of successive messages, serves streaming scans as stateless
//!   [`wire::WireRequest::Scan`] pages, and reassembles responses in
//!   request order. A single-shard index (a plain `Wormhole`, or any
//!   `dyn ConcurrentOrderedIndex<u64>`) served by one worker is the
//!   paper's single request loop. See
//!   `docs/src/adr-003-serving-threading.md` for the threading model and
//!   `docs/src/wire-protocol.md` for the normative framing spec.
//!
//! The `figures` harness combines both: it measures real batched-service
//! throughput and applies the link model, so the reported series keeps the
//! paper's shape (small drop for most keysets, wire-limited for `K10`).

//! # Observability
//!
//! The serving threads record per-op-type service latency histograms and
//! the decoded batch-size distribution into a [`wh_telemetry::Registry`]
//! the server owns ([`ShardServer::registry`]); index metrics can be
//! registered into the same registry before serving. The wire protocol
//! carries a [`wire::WireRequest::Stats`] command whose response is the
//! registry's full text exposition — a client can scrape the server
//! in-band, through the same batched request stream as its data traffic.

pub mod server;
pub mod telemetry;
pub mod wire;

pub use server::{Route, ServiceStats, ShardServer, ShardServerMetrics};
pub use telemetry::ServiceMetrics;
pub use wire::{LinkModel, WireRequest, WireResponse};
