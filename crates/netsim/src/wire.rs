//! Wire format and link model.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use index_traits::RangeSink;

/// A single request on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRequest {
    /// Point lookup.
    Get { key: Vec<u8> },
    /// Insert or overwrite.
    Set { key: Vec<u8>, value: u64 },
    /// Range scan: up to `count` keys at or after `start`.
    Range { start: Vec<u8>, count: u32 },
    /// Telemetry probe: the server answers with its metrics registry's
    /// text exposition ([`WireResponse::Stats`]).
    Stats,
    /// One page of a streaming scan: up to `limit` pairs at or after
    /// `start`. Unlike [`WireRequest::Range`] — one shot, one response —
    /// a scan is continued by re-issuing the request at the `resume` key
    /// the server returns in [`WireResponse::ScanPage`]; the continuation
    /// is stateless on the server (no cursor is held between pages).
    Scan { start: Vec<u8>, limit: u32 },
}

/// A single response on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireResponse {
    /// Value found (or previous value for a Set).
    Value(u64),
    /// Key absent.
    Miss,
    /// Range scan results: key/value pairs.
    Range(Vec<(Vec<u8>, u64)>),
    /// Metrics text exposition (the answer to [`WireRequest::Stats`]).
    Stats(String),
    /// One page of a streaming scan (the answer to [`WireRequest::Scan`]):
    /// the pairs plus the resume key continuing the scan, `None` once the
    /// scan is known exhausted. Mirrors `index_traits::ScanPage<u64>`.
    ScanPage {
        items: Vec<(Vec<u8>, u64)>,
        resume: Option<Vec<u8>>,
    },
}

const TAG_GET: u8 = 1;
const TAG_SET: u8 = 2;
const TAG_RANGE: u8 = 3;
const TAG_STATS: u8 = 4;
const TAG_SCAN: u8 = 5;
const TAG_VALUE: u8 = 1;
const TAG_MISS: u8 = 2;
const TAG_RANGE_RESP: u8 = 3;
const TAG_STATS_RESP: u8 = 4;
const TAG_SCAN_PAGE: u8 = 5;

impl WireRequest {
    /// Appends the encoded request to `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        match self {
            WireRequest::Get { key } => {
                buf.put_u8(TAG_GET);
                buf.put_u32(key.len() as u32);
                buf.put_slice(key);
            }
            WireRequest::Set { key, value } => {
                buf.put_u8(TAG_SET);
                buf.put_u32(key.len() as u32);
                buf.put_slice(key);
                buf.put_u64(*value);
            }
            WireRequest::Range { start, count } => {
                buf.put_u8(TAG_RANGE);
                buf.put_u32(start.len() as u32);
                buf.put_slice(start);
                buf.put_u32(*count);
            }
            WireRequest::Stats => {
                // Stats carries an empty key so the generic tag + key-length
                // prefix shared by every request still parses.
                buf.put_u8(TAG_STATS);
                buf.put_u32(0);
            }
            WireRequest::Scan { start, limit } => {
                buf.put_u8(TAG_SCAN);
                buf.put_u32(start.len() as u32);
                buf.put_slice(start);
                buf.put_u32(*limit);
            }
        }
    }

    /// Decodes one request from the front of `buf`. Returns `None` when
    /// `buf` is empty, starts with an unknown tag, or ends inside the
    /// frame; the caller stops consuming the batch either way.
    pub fn decode(buf: &mut Bytes) -> Option<WireRequest> {
        let tag = take_u8(buf)?;
        let key = take_key(buf)?;
        Some(match tag {
            TAG_GET => WireRequest::Get { key },
            TAG_SET => WireRequest::Set {
                key,
                value: take_u64(buf)?,
            },
            TAG_RANGE => WireRequest::Range {
                start: key,
                count: take_u32(buf)?,
            },
            TAG_STATS => WireRequest::Stats,
            TAG_SCAN => WireRequest::Scan {
                start: key,
                limit: take_u32(buf)?,
            },
            _ => return None,
        })
    }

    /// Encoded size in bytes (excluding per-message overhead).
    pub fn wire_size(&self) -> usize {
        match self {
            WireRequest::Get { key } => 5 + key.len(),
            WireRequest::Set { key, .. } => 13 + key.len(),
            WireRequest::Range { start, .. } => 9 + start.len(),
            WireRequest::Stats => 5,
            WireRequest::Scan { start, .. } => 9 + start.len(),
        }
    }
}

impl WireResponse {
    /// Appends the encoded response to `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        match self {
            WireResponse::Value(v) => {
                buf.put_u8(TAG_VALUE);
                buf.put_u64(*v);
            }
            WireResponse::Miss => buf.put_u8(TAG_MISS),
            WireResponse::Range(items) => {
                buf.put_u8(TAG_RANGE_RESP);
                buf.put_u32(items.len() as u32);
                for (k, v) in items {
                    buf.put_u32(k.len() as u32);
                    buf.put_slice(k);
                    buf.put_u64(*v);
                }
            }
            WireResponse::Stats(text) => {
                buf.put_u8(TAG_STATS_RESP);
                buf.put_u32(text.len() as u32);
                buf.put_slice(text.as_bytes());
            }
            WireResponse::ScanPage { items, resume } => {
                let mut page = ScanPageWriter::begin(buf);
                for (k, v) in items {
                    page.accept(k, v);
                }
                page.finish(resume.as_deref());
            }
        }
    }

    /// Decodes one response from the front of `buf`, with the same `None`
    /// rule as [`WireRequest::decode`].
    pub fn decode(buf: &mut Bytes) -> Option<WireResponse> {
        Some(match take_u8(buf)? {
            TAG_VALUE => WireResponse::Value(take_u64(buf)?),
            TAG_MISS => WireResponse::Miss,
            TAG_RANGE_RESP => WireResponse::Range(take_pairs(buf)?),
            TAG_STATS_RESP => WireResponse::Stats(String::from_utf8(take_key(buf)?).ok()?),
            TAG_SCAN_PAGE => {
                let items = take_pairs(buf)?;
                let resume = match take_u8(buf)? {
                    0 => None,
                    _ => Some(take_key(buf)?),
                };
                WireResponse::ScanPage { items, resume }
            }
            _ => return None,
        })
    }

    /// Encoded size in bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            WireResponse::Value(_) => 9,
            WireResponse::Miss => 1,
            WireResponse::Range(items) => {
                5 + items.iter().map(|(k, _)| 12 + k.len()).sum::<usize>()
            }
            WireResponse::Stats(text) => 5 + text.len(),
            WireResponse::ScanPage { items, resume } => {
                let items_bytes = items.iter().map(|(k, _)| 12 + k.len()).sum::<usize>();
                let resume_bytes = resume.as_ref().map_or(0, |k| 4 + k.len());
                6 + items_bytes + resume_bytes
            }
        }
    }
}

/// Streams one [`WireResponse::ScanPage`] frame into a buffer: the pairs
/// arrive one by one through [`RangeSink::accept`] — straight from an
/// index's `scan_page_into` — and [`ScanPageWriter::finish`] patches the
/// pair count and appends the resume key. The one definition of the
/// frame's bytes; `WireResponse::encode` writes its pages through it too.
pub(crate) struct ScanPageWriter<'a> {
    buf: &'a mut BytesMut,
    /// Offset of the frame's `u32` pair count, written as 0 until `finish`.
    count_at: usize,
    count: u32,
}

impl<'a> ScanPageWriter<'a> {
    /// Appends the frame header to `buf`, with a placeholder count.
    pub(crate) fn begin(buf: &'a mut BytesMut) -> Self {
        buf.put_u8(TAG_SCAN_PAGE);
        let count_at = buf.len();
        buf.put_u32(0);
        Self {
            buf,
            count_at,
            count: 0,
        }
    }

    /// Completes the frame: the pair count, then the resume key (`None`
    /// once the scan is exhausted).
    pub(crate) fn finish(self, resume: Option<&[u8]>) {
        self.buf.as_mut()[self.count_at..self.count_at + 4]
            .copy_from_slice(&self.count.to_be_bytes());
        match resume {
            Some(key) => {
                self.buf.put_u8(1);
                self.buf.put_u32(key.len() as u32);
                self.buf.put_slice(key);
            }
            None => self.buf.put_u8(0),
        }
    }
}

impl RangeSink<u64> for ScanPageWriter<'_> {
    fn accept(&mut self, key: &[u8], value: &u64) {
        self.buf.put_u32(key.len() as u32);
        self.buf.put_slice(key);
        self.buf.put_u64(*value);
        self.count += 1;
    }
}

// Bounds-checked readers: each returns `None`, instead of panicking, when
// `buf` holds fewer bytes than the field needs.

fn take_u8(buf: &mut Bytes) -> Option<u8> {
    (buf.remaining() >= 1).then(|| buf.get_u8())
}

fn take_u32(buf: &mut Bytes) -> Option<u32> {
    (buf.remaining() >= 4).then(|| buf.get_u32())
}

fn take_u64(buf: &mut Bytes) -> Option<u64> {
    (buf.remaining() >= 8).then(|| buf.get_u64())
}

/// A `u32` length prefix and that many bytes, copied straight out of the
/// buffer (no shared view of it is made per key).
fn take_key(buf: &mut Bytes) -> Option<Vec<u8>> {
    let len = take_u32(buf)? as usize;
    let key = buf.chunk().get(..len)?.to_vec();
    buf.advance(len);
    Some(key)
}

/// A `u32` count and that many `key u64:value` pairs. The count comes off
/// the wire, so the preallocation is capped by what the buffer can hold
/// (every pair takes at least 12 bytes).
fn take_pairs(buf: &mut Bytes) -> Option<Vec<(Vec<u8>, u64)>> {
    let n = take_u32(buf)? as usize;
    let mut items = Vec::with_capacity(n.min(buf.remaining() / 12));
    for _ in 0..n {
        let key = take_key(buf)?;
        items.push((key, take_u64(buf)?));
    }
    Some(items)
}

/// An analytic model of the client/server link.
///
/// Defaults match the paper's testbed: one 100 Gb/s InfiniBand link
/// (Mellanox ConnectX-4), ~2 µs one-way latency, and batches of 800
/// requests per RDMA send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Link bandwidth in gigabits per second.
    pub bandwidth_gbps: f64,
    /// One-way latency in microseconds.
    pub one_way_latency_us: f64,
    /// Fixed overhead per message (headers, RDMA verbs), in bytes.
    pub per_message_overhead_bytes: usize,
    /// Requests batched into one message.
    pub batch_size: usize,
    /// Host CPU time consumed by the networking stack per request, in
    /// nanoseconds (HERD's request dispatch cost).
    pub per_request_cpu_ns: f64,
}

impl Default for LinkModel {
    fn default() -> Self {
        Self::infiniband_100g()
    }
}

impl LinkModel {
    /// The paper's 100 Gb/s InfiniBand configuration with batch size 800.
    pub fn infiniband_100g() -> Self {
        Self {
            bandwidth_gbps: 100.0,
            one_way_latency_us: 2.0,
            per_message_overhead_bytes: 64,
            batch_size: 800,
            per_request_cpu_ns: 10.0,
        }
    }

    /// Bytes per second of usable bandwidth.
    pub fn bytes_per_second(&self) -> f64 {
        self.bandwidth_gbps * 1e9 / 8.0
    }

    /// Wire time for one request/response pair of the given sizes, averaged
    /// over a full batch (latency and per-message overhead are amortised).
    pub fn wire_seconds_per_op(&self, request_bytes: usize, response_bytes: usize) -> f64 {
        let payload = (request_bytes + response_bytes) as f64
            + 2.0 * self.per_message_overhead_bytes as f64 / self.batch_size as f64;
        let transfer = payload / self.bytes_per_second();
        let latency = 2.0 * self.one_way_latency_us * 1e-6 / self.batch_size as f64;
        transfer + latency
    }

    /// Converts a measured server-side index throughput (operations per
    /// second) into the throughput observed through the link, for operations
    /// with the given average wire sizes.
    ///
    /// The pipeline is limited by the slower of the host (index time plus
    /// per-request networking CPU) and the wire.
    pub fn delivered_ops_per_second(
        &self,
        server_ops_per_second: f64,
        request_bytes: usize,
        response_bytes: usize,
    ) -> f64 {
        assert!(server_ops_per_second > 0.0);
        let host_seconds = 1.0 / server_ops_per_second + self.per_request_cpu_ns * 1e-9;
        let wire_seconds = self.wire_seconds_per_op(request_bytes, response_bytes);
        1.0 / host_seconds.max(wire_seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn request_roundtrip() {
        let reqs = vec![
            WireRequest::Get {
                key: b"James".to_vec(),
            },
            WireRequest::Set {
                key: b"Jason".to_vec(),
                value: 42,
            },
            WireRequest::Range {
                start: b"J".to_vec(),
                count: 100,
            },
            WireRequest::Stats,
            WireRequest::Scan {
                start: b"Jam".to_vec(),
                limit: 64,
            },
        ];
        let mut buf = BytesMut::new();
        for r in &reqs {
            r.encode(&mut buf);
        }
        let mut bytes = buf.freeze();
        let mut decoded = Vec::new();
        while let Some(r) = WireRequest::decode(&mut bytes) {
            decoded.push(r);
        }
        assert_eq!(decoded, reqs);
    }

    #[test]
    fn response_roundtrip() {
        let resps = vec![
            WireResponse::Value(7),
            WireResponse::Miss,
            WireResponse::Range(vec![(b"a".to_vec(), 1), (b"bb".to_vec(), 2)]),
            WireResponse::Stats("netsim_requests_total 3\n".to_string()),
            WireResponse::ScanPage {
                items: vec![(b"k1".to_vec(), 7), (b"k2".to_vec(), 8)],
                resume: Some(b"k2\x00".to_vec()),
            },
            WireResponse::ScanPage {
                items: Vec::new(),
                resume: None,
            },
        ];
        let mut buf = BytesMut::new();
        for r in &resps {
            r.encode(&mut buf);
        }
        let mut bytes = buf.freeze();
        let mut decoded = Vec::new();
        while let Some(r) = WireResponse::decode(&mut bytes) {
            decoded.push(r);
        }
        assert_eq!(decoded, resps);
    }

    #[test]
    fn wire_sizes_match_encoding() {
        let req = WireRequest::Set {
            key: vec![1; 30],
            value: 9,
        };
        let mut buf = BytesMut::new();
        req.encode(&mut buf);
        assert_eq!(buf.len(), req.wire_size());
        let resp = WireResponse::Range(vec![(vec![2; 10], 1), (vec![3; 20], 2)]);
        let mut buf = BytesMut::new();
        resp.encode(&mut buf);
        assert_eq!(buf.len(), resp.wire_size());
        let req = WireRequest::Stats;
        let mut buf = BytesMut::new();
        req.encode(&mut buf);
        assert_eq!(buf.len(), req.wire_size());
        let resp = WireResponse::Stats("a 1\nb 2\n".to_string());
        let mut buf = BytesMut::new();
        resp.encode(&mut buf);
        assert_eq!(buf.len(), resp.wire_size());
        let req = WireRequest::Scan {
            start: vec![4; 12],
            limit: 500,
        };
        let mut buf = BytesMut::new();
        req.encode(&mut buf);
        assert_eq!(buf.len(), req.wire_size());
        for resume in [Some(vec![5; 7]), None] {
            let resp = WireResponse::ScanPage {
                items: vec![(vec![2; 10], 1), (vec![3; 20], 2)],
                resume,
            };
            let mut buf = BytesMut::new();
            resp.encode(&mut buf);
            assert_eq!(buf.len(), resp.wire_size());
        }
    }

    /// Encodes one frame and renders it as uppercase spaced hex — the
    /// format `docs/src/wire-protocol.md` uses for its byte-layout
    /// examples.
    pub(crate) fn encode_hex(encode: impl FnOnce(&mut BytesMut)) -> String {
        let mut buf = BytesMut::new();
        encode(&mut buf);
        buf.as_ref()
            .iter()
            .map(|b| format!("{b:02X}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The known-answer request vectors: one example frame per tag, with
    /// its exact bytes as uppercase spaced hex.
    fn request_vectors() -> Vec<(WireRequest, &'static str)> {
        vec![
            (
                WireRequest::Get {
                    key: b"Jam".to_vec(),
                },
                "01 00 00 00 03 4A 61 6D",
            ),
            (
                WireRequest::Set {
                    key: b"k1".to_vec(),
                    value: 7,
                },
                "02 00 00 00 02 6B 31 00 00 00 00 00 00 00 07",
            ),
            (
                WireRequest::Range {
                    start: b"J".to_vec(),
                    count: 2,
                },
                "03 00 00 00 01 4A 00 00 00 02",
            ),
            (WireRequest::Stats, "04 00 00 00 00"),
            (
                WireRequest::Scan {
                    start: b"k1".to_vec(),
                    limit: 2,
                },
                "05 00 00 00 02 6B 31 00 00 00 02",
            ),
        ]
    }

    /// The known-answer response vectors, as [`request_vectors`].
    fn response_vectors() -> Vec<(WireResponse, &'static str)> {
        vec![
            (WireResponse::Value(7), "01 00 00 00 00 00 00 00 07"),
            (WireResponse::Miss, "02"),
            (
                WireResponse::Range(vec![(b"a".to_vec(), 1)]),
                "03 00 00 00 01 00 00 00 01 61 00 00 00 00 00 00 00 01",
            ),
            (
                WireResponse::Stats("a 1\n".to_string()),
                "04 00 00 00 04 61 20 31 0A",
            ),
            (
                WireResponse::ScanPage {
                    items: vec![(b"k1".to_vec(), 7), (b"k2".to_vec(), 8)],
                    resume: Some(b"k2\x00".to_vec()),
                },
                "05 00 00 00 02 \
                 00 00 00 02 6B 31 00 00 00 00 00 00 00 07 \
                 00 00 00 02 6B 32 00 00 00 00 00 00 00 08 \
                 01 00 00 00 03 6B 32 00",
            ),
            (
                WireResponse::ScanPage {
                    items: Vec::new(),
                    resume: None,
                },
                "05 00 00 00 00 00",
            ),
        ]
    }

    /// Parses uppercase spaced hex (line breaks allowed) back into bytes.
    fn from_hex(hex: &str) -> Vec<u8> {
        hex.split_whitespace()
            .map(|b| u8::from_str_radix(b, 16).expect("hex byte"))
            .collect()
    }

    /// Known-answer tests: the exact bytes of one example frame per tag.
    /// These vectors are the normative examples of
    /// `docs/src/wire-protocol.md`; `docs_examples::wire_protocol_doc…`
    /// asserts the doc quotes them verbatim. Integers are big-endian
    /// (network byte order).
    #[test]
    fn known_answer_frames() {
        for (req, hex) in request_vectors() {
            assert_eq!(encode_hex(|buf| req.encode(buf)), hex, "{req:?}");
        }
        for (resp, hex) in response_vectors() {
            let hex: String = hex.split_whitespace().collect::<Vec<_>>().join(" ");
            assert_eq!(encode_hex(|buf| resp.encode(buf)), hex, "{resp:?}");
        }
    }

    /// A frame cut short anywhere decodes as `None` (the end of the batch),
    /// never a panic, and the whole frame still decodes to its value.
    #[test]
    fn truncated_known_answer_frames_decode_as_none() {
        for (req, hex) in request_vectors() {
            let bytes = from_hex(hex);
            for cut in 0..bytes.len() {
                let mut prefix = Bytes::from(bytes[..cut].to_vec());
                assert_eq!(
                    WireRequest::decode(&mut prefix),
                    None,
                    "{req:?} cut at {cut}"
                );
            }
            assert_eq!(WireRequest::decode(&mut Bytes::from(bytes)), Some(req));
        }
        for (resp, hex) in response_vectors() {
            let bytes = from_hex(hex);
            for cut in 0..bytes.len() {
                let mut prefix = Bytes::from(bytes[..cut].to_vec());
                assert_eq!(
                    WireResponse::decode(&mut prefix),
                    None,
                    "{resp:?} cut at {cut}"
                );
            }
            assert_eq!(WireResponse::decode(&mut Bytes::from(bytes)), Some(resp));
        }
    }

    /// A count field far larger than the buffer must neither panic nor
    /// preallocate for the claimed count.
    #[test]
    fn huge_claimed_counts_fail_cleanly() {
        for tag in [TAG_RANGE_RESP, TAG_SCAN_PAGE] {
            let mut buf = BytesMut::new();
            buf.put_u8(tag);
            buf.put_u32(u32::MAX);
            assert_eq!(WireResponse::decode(&mut buf.freeze()), None);
        }
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_GET);
        buf.put_u32(u32::MAX);
        assert_eq!(WireRequest::decode(&mut buf.freeze()), None);
    }

    fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(any::<u8>(), 0..12)
    }

    fn pairs_strategy() -> impl Strategy<Value = Vec<(Vec<u8>, u64)>> {
        proptest::collection::vec((key_strategy(), any::<u64>()), 0..4)
    }

    fn request_strategy() -> BoxedStrategy<WireRequest> {
        prop_oneof![
            key_strategy().prop_map(|key| WireRequest::Get { key }),
            (key_strategy(), any::<u64>()).prop_map(|(key, value)| WireRequest::Set { key, value }),
            (key_strategy(), any::<u32>())
                .prop_map(|(start, count)| WireRequest::Range { start, count }),
            Just(WireRequest::Stats),
            (key_strategy(), any::<u32>())
                .prop_map(|(start, limit)| WireRequest::Scan { start, limit }),
        ]
        .boxed()
    }

    fn response_strategy() -> BoxedStrategy<WireResponse> {
        prop_oneof![
            any::<u64>().prop_map(WireResponse::Value),
            Just(WireResponse::Miss),
            pairs_strategy().prop_map(WireResponse::Range),
            proptest::collection::vec(any::<u8>(), 0..12).prop_map(|bytes| {
                WireResponse::Stats(bytes.iter().map(|&b| char::from(b % 128)).collect())
            }),
            (pairs_strategy(), any::<bool>(), key_strategy()).prop_map(|(items, more, key)| {
                WireResponse::ScanPage {
                    items,
                    resume: more.then_some(key),
                }
            }),
        ]
        .boxed()
    }

    /// Decodes frames until the decoder stops, checking each decoded frame
    /// re-encodes to bytes that decode to the same frame.
    fn decode_all<T: PartialEq + std::fmt::Debug>(
        bytes: &[u8],
        decode: impl Fn(&mut Bytes) -> Option<T>,
        encode: impl Fn(&T, &mut BytesMut),
    ) -> Vec<T> {
        let mut buf = Bytes::from(bytes.to_vec());
        let mut out = Vec::new();
        while let Some(frame) = decode(&mut buf) {
            let mut again = BytesMut::new();
            encode(&frame, &mut again);
            assert_eq!(decode(&mut again.freeze()).as_ref(), Some(&frame));
            out.push(frame);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes never panic either decoder.
        #[test]
        fn arbitrary_bytes_never_panic_the_decoders(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            decode_all(&bytes, WireRequest::decode, WireRequest::encode);
            decode_all(&bytes, WireResponse::decode, WireResponse::encode);
        }

        /// Valid batches with one byte overwritten and the tail cut at an
        /// arbitrary point never panic either decoder: this reaches the
        /// length and count fields that random bytes rarely get to.
        #[test]
        fn corrupted_batches_never_panic_the_decoders(
            reqs in proptest::collection::vec(request_strategy(), 1..4),
            resps in proptest::collection::vec(response_strategy(), 1..4),
            at in any::<usize>(),
            byte in any::<u8>(),
            cut in any::<usize>(),
        ) {
            let mut buf = BytesMut::new();
            reqs.iter().for_each(|r| r.encode(&mut buf));
            let mut bytes = buf.as_ref().to_vec();
            let at = at % bytes.len();
            bytes[at] = byte;
            bytes.truncate(cut % (bytes.len() + 1));
            decode_all(&bytes, WireRequest::decode, WireRequest::encode);
            let mut buf = BytesMut::new();
            resps.iter().for_each(|r| r.encode(&mut buf));
            let mut bytes = buf.as_ref().to_vec();
            let at = at % bytes.len();
            bytes[at] = byte;
            bytes.truncate(cut % (bytes.len() + 1));
            decode_all(&bytes, WireResponse::decode, WireResponse::encode);
        }

        /// Decoding an encoded batch gives back exactly the encoded frames.
        #[test]
        fn decode_inverts_encode(
            reqs in proptest::collection::vec(request_strategy(), 0..6),
            resps in proptest::collection::vec(response_strategy(), 0..6),
        ) {
            let mut buf = BytesMut::new();
            reqs.iter().for_each(|r| r.encode(&mut buf));
            prop_assert_eq!(
                decode_all(buf.as_ref(), WireRequest::decode, WireRequest::encode),
                reqs
            );
            let mut buf = BytesMut::new();
            resps.iter().for_each(|r| r.encode(&mut buf));
            prop_assert_eq!(
                decode_all(buf.as_ref(), WireResponse::decode, WireResponse::encode),
                resps
            );
        }
    }

    /// The forward-compatibility rule the protocol documents: a decoder
    /// that meets an unknown tag returns `None` and stops consuming the
    /// batch, rather than guessing at the frame's extent.
    #[test]
    fn unknown_tag_stops_decoding() {
        let mut buf = BytesMut::new();
        WireRequest::Get {
            key: b"ok".to_vec(),
        }
        .encode(&mut buf);
        buf.put_u8(0x7F); // unknown tag
        buf.put_u32(0); // generic empty-key prefix
        let mut bytes = buf.freeze();
        assert!(WireRequest::decode(&mut bytes).is_some());
        assert_eq!(WireRequest::decode(&mut bytes), None);
        let mut resp = BytesMut::new();
        resp.put_u8(0x7F);
        let mut bytes = resp.freeze();
        assert_eq!(WireResponse::decode(&mut bytes), None);
    }

    #[test]
    fn fast_host_is_wire_limited_only_for_large_keys() {
        let link = LinkModel::infiniband_100g();
        // A server that can do 20 Mops locally (the paper's Wormhole).
        let server = 20e6;
        // 40-byte keys: the host remains the bottleneck, so the delivered
        // throughput is within ~20% of the local number.
        let small = link.delivered_ops_per_second(server, 45, 9);
        assert!(small > 0.8 * server, "small keys should stay host-limited");
        // 1 KB keys (K10): the wire becomes the bottleneck and throughput
        // drops well below the local number, as in Figure 12.
        let large = link.delivered_ops_per_second(server, 1029, 9);
        assert!(large < 0.75 * server, "1KB keys should be wire-limited");
        assert!(large > 1e6, "the 100Gb/s link still delivers > 1 Mops");
    }

    #[test]
    fn slower_link_reduces_throughput() {
        let fast = LinkModel::infiniband_100g();
        let slow = LinkModel {
            bandwidth_gbps: 1.0,
            ..LinkModel::infiniband_100g()
        };
        let t_fast = fast.delivered_ops_per_second(10e6, 100, 9);
        let t_slow = slow.delivered_ops_per_second(10e6, 100, 9);
        assert!(t_slow < t_fast);
    }
}
